//! Host-capability detection for whatever reports machine context next
//! to its numbers (the per-layer benchmark trace prints it in its context
//! line).

/// Effective CPU parallelism of this process: what
/// `std::thread::available_parallelism` reports (which honours cgroup
/// quotas and the CPU affinity mask on Linux), cross-checked against the
/// affinity mask in `/proc/self/status` (`Cpus_allowed_list`) where
/// available — the larger lie wins, the smaller truth is reported.
///
/// A report that publishes thread counts quotes this one value, so a
/// single-core container cannot silently publish `t8 ≈ t1` rows as if
/// they demonstrated (absent) multicore scaling.
pub fn effective_parallelism() -> usize {
    let advertised = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let affinity = affinity_mask_cpus().unwrap_or(advertised);
    advertised.min(affinity).max(1)
}

/// CPUs in this process's affinity mask, from `/proc/self/status`'s
/// `Cpus_allowed_list` line (e.g. `0-3,8` → 5). `None` off Linux or when
/// the file is unreadable.
fn affinity_mask_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0usize;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) = (a.trim().parse().ok()?, b.trim().parse().ok()?);
                count += b.checked_sub(a)? + 1;
            }
            None => {
                let _: usize = part.trim().parse().ok()?;
                count += 1;
            }
        }
    }
    Some(count.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_parallelism_is_sane() {
        let eff = effective_parallelism();
        let advertised = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(eff >= 1);
        assert!(
            eff <= advertised,
            "effective {eff} > advertised {advertised}"
        );
    }
}
