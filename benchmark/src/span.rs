//! In-memory spans recorded from outside the program under test, and the
//! self-time arithmetic over them.
//!
//! A span is one call into a layer's public API: `{name, op, parent,
//! start, end}` plus a class label. Layers nest because the same op is
//! replayed through successively inner public APIs; an inner replay's span
//! names the outer replay's span of the same op as its parent. A layer's
//! self time is its span's duration minus the durations of its direct
//! children. Spans are kept in memory — one tracer per recording thread,
//! joined afterwards — and written out once, at exit.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name of the call (`service.worker.process`).
    pub name: &'static str,
    /// Sub-class of the call (`new`, `warm`, `3h8s`; empty when none).
    pub class: &'static str,
    /// The op this call served; spans of one op share it.
    pub op: u64,
    /// Name of the span that caused this one: the span so named of the
    /// same op.
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans and exact counts.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// An empty tracer on this one's epoch, for another thread to record
    /// into; [`Tracer::absorb`] joins it back.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::default()
        }
    }

    /// Takes over everything `other`, a [`Tracer::fork`] of this tracer,
    /// recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    /// Records a finished call. `parent` names the enclosing layer's
    /// span of the same op, if any.
    pub fn record(
        &mut self,
        name: &'static str,
        class: &'static str,
        op: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            class,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Times `f` as one call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        class: &'static str,
        op: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        self.record(name, class, op, parent, start, Instant::now());
        value
    }

    /// Records an exact count made at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// The latest value of count `name`.
    pub fn counted(&self, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name`; `class` filters when
    /// non-empty.
    pub fn durations(&self, name: &str, class: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (class.is_empty() || s.class == class))
            .map(Span::micros)
            .collect()
    }

    /// Index of every span's parent: the latest span named as its parent
    /// that serves the same op (`None`: it names none, or none exists).
    pub fn parents(&self) -> Vec<Option<usize>> {
        let mut latest: HashMap<(&str, u64), usize> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            latest.insert((s.name, s.op), i);
        }
        self.spans
            .iter()
            .map(|s| s.parent.and_then(|p| latest.get(&(p, s.op)).copied()))
            .collect()
    }

    /// Self times (µs) of the spans named `name`: each span's duration
    /// minus the durations of its direct children, skipping children
    /// named in `keep` (calls the layer makes into code that is counted
    /// as its own).
    pub fn self_times(&self, name: &str, keep: &[&str]) -> Vec<f64> {
        let mut children = vec![0.0f64; self.spans.len()];
        for (s, parent) in self.spans.iter().zip(self.parents()) {
            if let Some(p) = parent {
                if !keep.contains(&s.name) {
                    children[p] += s.micros();
                }
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.micros() - c)
            .collect()
    }

    /// Writes one JSON object per span, then one per count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let parents = self.parents();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = parents[i].map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"class\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.class, s.op, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\": \"{name}\", \"value\": {value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// outer(100 µs) ⊃ middle(60) ⊃ {leaf_a(10), leaf_b(25)}, for two ops.
    fn nested() -> Tracer {
        let mut t = Tracer::new();
        let at = |us: u64| t.epoch + Duration::from_micros(us);
        let spans = [
            ("outer", None, 0, 100),
            ("middle", Some("outer"), 1000, 1060),
            ("leaf_a", Some("middle"), 2000, 2010),
            ("leaf_b", Some("middle"), 3000, 3025),
        ];
        let times: Vec<_> = spans
            .iter()
            .map(|&(n, p, s, e)| (n, p, at(s), at(e)))
            .collect();
        for op in [7, 8] {
            for &(name, parent, start, end) in &times {
                t.record(name, "", op, parent, start, end);
            }
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = nested();
        assert_eq!(t.self_times("outer", &[]), vec![40.0, 40.0]);
        assert_eq!(t.self_times("middle", &[]), vec![25.0, 25.0]);
        assert_eq!(t.self_times("leaf_a", &[]), vec![10.0, 10.0]);
        // Self times of a chain add back up to the outermost duration.
        let total: f64 = ["outer", "middle", "leaf_a", "leaf_b"]
            .iter()
            .map(|n| t.self_times(n, &[])[0])
            .sum();
        assert_eq!(total, 100.0);
        // A kept child stays inside its parent's self time.
        assert_eq!(t.self_times("middle", &["leaf_b"]), vec![50.0, 50.0]);
    }

    #[test]
    fn parents_link_spans_of_the_same_op_only() {
        let t = nested();
        let parents = t.parents();
        assert_eq!(parents.len(), 8);
        assert_eq!(parents[1], Some(0));
        assert_eq!(parents[5], Some(4));
        assert_eq!(parents[6], Some(5));
        // A parent name with no span for this op links nothing.
        let mut t = Tracer::new();
        let now = Instant::now();
        t.record("inner", "", 1, Some("outer"), now, now);
        assert_eq!(t.parents(), vec![None]);
        // A child recorded on another thread finds its parent once the
        // two tracers are joined, whichever was recorded first.
        let mut elsewhere = t.fork();
        elsewhere.record("outer", "", 1, None, now, now);
        t.absorb(elsewhere);
        assert_eq!(t.parents(), vec![Some(1), None]);
    }

    #[test]
    fn durations_filter_by_class_and_counts_keep_the_latest() {
        let mut t = Tracer::new();
        let e = t.epoch;
        t.record("call", "warm", 0, None, e, e + Duration::from_micros(3));
        t.record("call", "cold", 1, None, e, e + Duration::from_micros(9));
        assert_eq!(t.durations("call", ""), vec![3.0, 9.0]);
        assert_eq!(t.durations("call", "cold"), vec![9.0]);
        t.count("hits", 4.0);
        t.count("hits", 5.0);
        assert_eq!(t.counted("hits"), Some(5.0));
        assert_eq!(t.counted("misses"), None);
    }
}
