//! Sets of runs: producing them (`sweep`), comparing two of them by the
//! choosing-metrics rule (`compare`), and checking that two sets of the
//! same code agree within the benchmark's own bounds (`agree`).
//!
//! A set is a directory of `<workload>.<k>.txt` files, each the standard
//! output of one run; run `k` uses seed `seed + k`, so two sets pair up
//! run by run on identical inputs. Two sets are always produced together,
//! pair by pair, alternating which side runs first: the host's speed
//! drifts by tens of percent over minutes, and only what both sides of a
//! pair share cancels.

use crate::report::{Outcome, INDICATIVE};
use crate::spec::{MetricSpec, Spec};
use crate::stats::quartiles;
use std::path::Path;
use std::process::{Command, Stdio};

/// Fewest pairs a gain may be claimed from (choosing-metrics, section 8).
const MIN_PAIRS_FOR_A_CLAIM: usize = 10;

/// Metrics that are exact functions of the inputs: two runs on the same
/// seed must report the same value to the last bit.
const DETERMINISTIC: [&str; 3] = ["ok_share", "solved_share", "min_yield_mean"];

/// One saved run.
struct Run {
    outcome: Outcome,
    digest: String,
    /// Metrics the run printed as indicative only.
    indicative: Vec<String>,
}

fn run_file(dir: &Path, workload: &str, k: usize) -> std::path::PathBuf {
    dir.join(format!("{workload}.{k}.txt"))
}

/// One side of a sweep: the `vmbench` binary that runs, and where its
/// outputs go.
pub struct Side<'a> {
    /// The binary.
    pub exe: &'a Path,
    /// The set's directory.
    pub dir: &'a Path,
}

/// Runs every workload `runs` times per side (run `k` on seed `seed + k`),
/// each run in its own process, saving its standard output under the
/// side's directory. With two sides the runs alternate, and so does the
/// side that goes first.
pub fn sweep(sides: &[Side], runs: usize, seed: u64, seconds: u64) -> Result<(), String> {
    for side in sides {
        std::fs::create_dir_all(side.dir).map_err(|e| format!("{}: {e}", side.dir.display()))?;
        // Run files of a longer earlier sweep would be read as runs of
        // this one.
        for workload in crate::workload::NAMES {
            let stale = (runs..).map(|k| run_file(side.dir, workload, k));
            for path in stale.take_while(|path| path.exists()) {
                std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
    }
    for k in 0..runs {
        for workload in crate::workload::NAMES {
            for turn in 0..sides.len() {
                let side = &sides[(turn + k) % sides.len()];
                let output = Command::new(side.exe)
                    .args(["--workload", workload])
                    .args(["--seed", &(seed + k as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", side.exe.display()))?;
                if !output.status.success() {
                    return Err(format!(
                        "run {k} of {workload} by {} exited with {}",
                        side.exe.display(),
                        output.status
                    ));
                }
                let path = run_file(side.dir, workload, k);
                std::fs::write(&path, &output.stdout)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("{} written", path.display());
            }
        }
    }
    Ok(())
}

fn load(dir: &Path, workload: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    while let Ok(text) = std::fs::read_to_string(run_file(dir, workload, runs.len())) {
        let last = text.lines().last().ok_or("empty run file")?;
        let digest = text
            .split("response_digest ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_default()
            .to_string();
        let indicative = text
            .lines()
            .filter(|l| l.contains(INDICATIVE))
            .filter_map(|l| l.split_whitespace().next().map(str::to_string))
            .collect();
        runs.push(Run {
            outcome: Outcome::parse(last)?,
            digest,
            indicative,
        });
    }
    Ok(runs)
}

/// How side B stands against side A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Standing {
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A side's run-to-run spread exceeds the bound: no verdict.
    Unresolved,
    /// B wins ≥ 9/10 of ≥ 10 pairs and the medians differ by more than
    /// A's own interquartile range.
    Gain,
    /// Neither of the above: no change beyond the bound.
    Within,
    /// A tail percentile the runs' sample does not support (fewer than
    /// ten samples beyond it): printed, never judged.
    Indicative,
}

/// The comparison of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// `(q1, median, q3)` of side A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of side B.
    pub b: (f64, f64, f64),
    /// Pairs B won, pairs A won (ties count for neither).
    pub wins: (usize, usize),
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub standing: Standing,
}

/// Compares paired samples of one metric (`a[k]` and `b[k]` come from
/// the same seed) by the guide's rule.
///
/// A [`DETERMINISTIC`] metric is an exact count: on one seed it repeats to
/// the last bit, so its verdict comes from the pairs alone, whatever
/// bound `BENCHMARK.json` had to give it to cover the spread *across*
/// seeds. Any pair that got worse with the mean worse is a regression;
/// a pair that got better with none worse is a gain.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let pairs = a.len().min(b.len());
    let qa = quartiles(a);
    let qb = quartiles(b);
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let b_wins = (0..pairs).filter(|&k| better(b[k], a[k])).count();
    let a_wins = (0..pairs).filter(|&k| better(a[k], b[k])).count();
    let standing = if DETERMINISTIC.contains(&metric.name.as_str()) {
        let (sum_a, sum_b): (f64, f64) = (a[..pairs].iter().sum(), b[..pairs].iter().sum());
        if a_wins > 0 && better(sum_a, sum_b) {
            Standing::Regression
        } else if pairs >= MIN_PAIRS_FOR_A_CLAIM && a_wins == 0 && b_wins > 0 {
            Standing::Gain
        } else {
            Standing::Within
        }
    } else {
        let bound = metric.bound.unwrap_or(0.0);
        let spread = |q: (f64, f64, f64)| {
            if q.1 == 0.0 {
                0.0
            } else {
                (q.2 - q.0) / q.1.abs()
            }
        };
        let worse_by = if better(qa.1, qb.1) {
            (qa.1 - qb.1).abs() / qa.1.abs()
        } else {
            0.0
        };
        if spread(qa) > bound || spread(qb) > bound {
            Standing::Unresolved
        } else if worse_by > bound {
            Standing::Regression
        } else if pairs >= MIN_PAIRS_FOR_A_CLAIM
            && b_wins * 10 >= pairs * 9
            && (qb.1 - qa.1).abs() > qa.2 - qa.0
        {
            Standing::Gain
        } else {
            Standing::Within
        }
    };
    Row {
        a: qa,
        b: qb,
        wins: (b_wins, a_wins),
        pairs,
        standing,
    }
}

fn values(runs: &[Run], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.outcome
                .metric(metric)
                .ok_or(format!("a run lacks metric `{metric}`"))
        })
        .collect()
}

/// Prints the table for two sets and returns every row's standing.
fn table(a: &Path, b: &Path, spec: &Spec) -> Result<Vec<(String, String, Row)>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (ra, rb) = (load(a, workload)?, load(b, workload)?);
        if ra.len() < 2 || rb.len() < 2 {
            return Err(format!(
                "{workload}: {} and {} runs found; each side needs at least 2",
                ra.len(),
                rb.len()
            ));
        }
        let failed: u64 = ra.iter().chain(&rb).map(|r| r.outcome.failed).sum();
        println!(
            "\n{workload}: {} runs of A, {} of B, {} pairs; {failed} failed ops in all",
            ra.len(),
            rb.len(),
            ra.len().min(rb.len())
        );
        println!(
            "  {:<18} {:>12} {:>21} {:>12} {:>21} {:>8} {:>9}  verdict",
            "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "B wins"
        );
        for metric in &spec.end_to_end {
            let mut row = judge(
                metric,
                &values(&ra, &metric.name)?,
                &values(&rb, &metric.name)?,
            );
            if ra
                .iter()
                .chain(&rb)
                .any(|r| r.indicative.contains(&metric.name))
            {
                row.standing = Standing::Indicative;
            }
            println!(
                "  {:<18} {:>12.5} [{:>9.5},{:>9.5}] {:>12.5} [{:>9.5},{:>9.5}] {:>8.4} {:>6}/{:<2}  {:?} ({}; base: A median {:.5} {})",
                metric.name,
                row.a.1,
                row.a.0,
                row.a.2,
                row.b.1,
                row.b.0,
                row.b.2,
                row.b.1 / row.a.1,
                row.wins.0,
                row.pairs,
                row.standing,
                if DETERMINISTIC.contains(&metric.name.as_str()) {
                    "exact per seed".to_string()
                } else {
                    format!("bound {:.3}", metric.bound.unwrap_or(0.0))
                },
                row.a.1,
                metric.unit,
            );
            rows.push((workload.clone(), metric.name.clone(), row));
        }
    }
    Ok(rows)
}

/// `vmbench compare`: A is the base of every ratio. Returns whether no
/// metric regressed; a gain is only ever claimed from ≥ 10 pairs.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let spec = Spec::load(spec)?;
    let rows = table(a, b, &spec)?;
    let count = |s: Standing| rows.iter().filter(|(_, _, r)| r.standing == s).count();
    println!(
        "\n{} gains, {} regressions, {} unresolved (spread beyond the bound), {} within bounds, \
         {} indicative (tail beyond the sample)",
        count(Standing::Gain),
        count(Standing::Regression),
        count(Standing::Unresolved),
        count(Standing::Within),
        count(Standing::Indicative)
    );
    if rows.iter().any(|(_, _, r)| r.pairs < MIN_PAIRS_FOR_A_CLAIM) {
        println!(
            "fewer than {MIN_PAIRS_FOR_A_CLAIM} pairs: no gain can be claimed from these sets"
        );
    }
    Ok(count(Standing::Regression) == 0)
}

/// `vmbench agree`: two sets of `runs` runs of this very binary, taken
/// pair by pair, must pass the acceptance driver's own test — each set's
/// spread within the metric's bound (`setup_s` excepted) and the two
/// medians within it of each other — and the deterministic metrics and
/// response digests must be equal pair by pair.
pub fn agree(runs: usize, seed: u64, seconds: u64, spec_path: &Path) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Path::new("benchmark/out");
    let (a, b) = (out.join("agree-a"), out.join("agree-b"));
    let sides = [&a, &b].map(|dir| Side { exe: &exe, dir });
    sweep(&sides, runs.max(5), seed, seconds)?;
    let mut ok = true;
    for (workload, metric, row) in table(&a, &b, &spec)? {
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0);
        for (side, q) in [("A", row.a), ("B", row.b)] {
            let spread = (q.2 - q.0) / q.1.abs();
            if metric != "setup_s" && spread > bound {
                println!(
                    "DISAGREE {workload} {metric}: set {side} spreads by {spread:.4} > {bound}"
                );
                ok = false;
            }
        }
        let drift = (row.b.1 - row.a.1).abs() / row.a.1.abs();
        if drift > bound {
            println!("DISAGREE {workload} {metric}: medians differ by {drift:.4} > {bound}");
            ok = false;
        }
    }
    for workload in &spec.workloads {
        let (ra, rb) = (load(&a, workload)?, load(&b, workload)?);
        for (k, (x, y)) in ra.iter().zip(&rb).enumerate() {
            if x.digest != y.digest || x.digest.is_empty() {
                println!(
                    "DISAGREE {workload} run {k}: response_digest {} vs {}",
                    x.digest, y.digest
                );
                ok = false;
            }
            for name in DETERMINISTIC {
                let (vx, vy) = (x.outcome.metric(name), y.outcome.metric(name));
                if vx != vy || x.outcome.failed + y.outcome.failed > 0 {
                    println!("DISAGREE {workload} run {k}: {name} {vx:?} vs {vy:?}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "\nagree: {}",
        if ok { "the two sets agree" } else { "FAILED" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|k| 100.0 + k as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let lower = metric(false, 0.1);
        assert_eq!(judge(&lower, &a, &b).standing, Standing::Gain);
        assert_eq!(judge(&lower, &a, &b).wins, (10, 0));
        // Nine pairs are not enough, however clear.
        assert_eq!(judge(&lower, &a[..9], &b[..9]).standing, Standing::Within);
        // A gap inside A's own interquartile range is no gain.
        let c: Vec<f64> = a.iter().map(|v| v - 1.0).collect();
        assert_eq!(judge(&lower, &a, &c).standing, Standing::Within);
        // For a higher-is-better metric the same B is a regression.
        assert_eq!(
            judge(&metric(true, 0.1), &a, &b).standing,
            Standing::Regression
        );
    }

    #[test]
    fn an_exact_metric_is_judged_pair_by_pair_whatever_its_bound() {
        // Different seeds give different values; the same seed repeats.
        let a: Vec<f64> = (0..10).map(|k| 0.90 + 0.01 * k as f64).collect();
        let exact = MetricSpec {
            name: "solved_share".into(),
            ..metric(true, 0.05)
        };
        assert_eq!(judge(&exact, &a, &a).standing, Standing::Within);
        // One seed in ten a hair worse: far inside the bound, a
        // regression all the same.
        let mut worse = a.clone();
        worse[3] -= 0.001;
        assert_eq!(judge(&exact, &a, &worse).standing, Standing::Regression);
        assert_eq!(judge(&exact, &worse, &a).standing, Standing::Gain);
        assert_eq!(
            judge(&exact, &worse[..9], &a[..9]).standing,
            Standing::Within
        );
        // The same data under a timing metric's rule is no change.
        assert_eq!(
            judge(&metric(true, 0.1), &a, &worse).standing,
            Standing::Within
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let a = [
            100.0, 60.0, 140.0, 90.0, 120.0, 70.0, 130.0, 80.0, 110.0, 100.0,
        ];
        let b = a.map(|v| v * 1.5);
        assert_eq!(
            judge(&metric(false, 0.1), &a, &b).standing,
            Standing::Unresolved
        );
        // With a bound the spread (0.45) fits in, the same data is a regression.
        assert_eq!(
            judge(&metric(false, 0.48), &a, &b).standing,
            Standing::Regression
        );
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let worse = tight.map(|v| v * 1.2);
        assert_eq!(
            judge(&metric(false, 0.1), &tight, &worse).standing,
            Standing::Regression
        );
        assert_eq!(
            judge(&metric(false, 0.25), &tight, &worse).standing,
            Standing::Within
        );
    }
}
