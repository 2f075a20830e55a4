//! The result record: computing the end-to-end metrics from a
//! measurement, printing them, and the one-line JSON form the driver and
//! `compare` read.

use crate::spec::END_TO_END;
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond, sorted};
use crate::Measured;
use vmplace_obs::json::Json;

/// A run's result: the last line of standard output, as JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)` of every metric.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Renders the one-line JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses what [`Outcome::to_json`] rendered.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let doc = Json::parse(line)?;
        let members = doc
            .get("metrics")
            .and_then(Json::members)
            .ok_or("`metrics` is not an object")?;
        Ok(Outcome {
            correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
            attempted: doc
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("`attempted` missing")?,
            failed: doc
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("`failed` missing")?,
            metrics: members
                .iter()
                .map(|(name, m)| {
                    Ok((
                        name.clone(),
                        m.get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric `{name}` lacks a value"))?,
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// The timing metrics of one segment: throughput, p50, p95, p99 and CPU
/// per op, in [`END_TO_END`] order.
fn segment_timings(m: &Measured) -> [f64; 5] {
    let ok = m.attempted - m.failed;
    let lat = sorted(m.latencies_ms.clone());
    let pct = |p: f64| {
        if lat.is_empty() {
            f64::NAN
        } else {
            percentile(&lat, p)
        }
    };
    [
        ok as f64 / m.wall.as_secs_f64(),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        m.cpu.as_secs_f64() * 1e3 / ok.max(1) as f64,
    ]
}

/// The run's timing metrics — one definition for every workload: each is
/// computed per segment, and the run reports the median segment.
///
/// The sandbox's speed wanders by tens of percent over seconds, and one
/// stream in several hundred never settles in the response cache (the
/// anomaly ledger has it); a median ignores the segment either one hit,
/// where a total would average it in. A serving run has [`SEGMENTS`]
/// segments of ≥ 1000 ops. A batch run is one segment: its ≥ 200 ops are
/// only together enough to support a p95.
///
/// [`SEGMENTS`]: crate::SEGMENTS
pub fn timings(segments: &[Measured]) -> [f64; 5] {
    let per_segment: Vec<[f64; 5]> = segments.iter().map(segment_timings).collect();
    std::array::from_fn(|i| {
        let column: Vec<f64> = per_segment.iter().map(|s| s[i]).collect();
        if column.is_empty() {
            f64::NAN
        } else {
            median(&column)
        }
    })
}

/// Assembles the ten end-to-end metrics, in [`END_TO_END`] order, from
/// the run's segments, printing each beside its sample count.
pub fn end_to_end(segments: &[Measured], setup_s: f64, peak_rss_mb: f64) -> Outcome {
    let all = Measured::total(segments);
    let timings = timings(segments);
    let attempted = all.attempted.max(1) as f64;
    let values = [
        setup_s,
        timings[0],
        timings[1],
        timings[2],
        timings[3],
        timings[4],
        peak_rss_mb,
        (all.attempted - all.failed) as f64 / attempted,
        all.solved as f64 / attempted,
        all.yield_sum / all.solved.max(1) as f64,
    ];
    // Sample count behind the percentiles: the ops of one segment.
    let n = segments
        .iter()
        .map(|s| s.latencies_ms.len())
        .min()
        .unwrap_or(0);
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        let note = if *name == "latency_p50_ms" {
            format!("  (n={n} per segment)")
        } else if let Some(p) = tail_of(name) {
            format!(
                "  (n={n} per segment, {} beyond{})",
                samples_beyond(n, f64::from(p)),
                if supported(n, p) { "" } else { INDICATIVE }
            )
        } else {
            String::new()
        };
        println!("{name:<20} {value:>14.6} {unit}{note}");
    }
    Outcome {
        correct: all.attempted > 0 && all.failed == 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (name.to_string(), value, unit.to_string()))
            .collect(),
    }
}

/// What the report appends to a tail percentile its sample does not
/// support; `compare` looks for it.
pub const INDICATIVE: &str = "; indicative, the sample supports no tail this high";

/// The percentile a tail metric reports (`latency_p95_ms` → 95); `None`
/// for every other metric.
fn tail_of(metric: &str) -> Option<u32> {
    match metric {
        "latency_p95_ms" => Some(95),
        "latency_p99_ms" => Some(99),
        _ => None,
    }
}

/// Whether a sample of `n` supports percentile `p`: at least
/// [`crate::stats::MIN_BEYOND`] samples lie beyond it.
fn supported(n: usize, p: u32) -> bool {
    highest_supported_percentile(n).is_some_and(|top| top >= p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn outcome_round_trips_through_its_json_line() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.2034, "ms".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        };
        let line = o.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::parse(&line).unwrap(), o);
        assert_eq!(o.metric("setup_s"), Some(0.8127));
    }

    /// A segment of `ops` ops of `ms` each that took `wall_s` and `cpu_s`.
    fn segment(ops: u64, ms: f64, wall_s: f64, cpu_s: f64) -> Measured {
        Measured {
            attempted: ops,
            latencies_ms: vec![ms; ops as usize],
            wall: Duration::from_secs_f64(wall_s),
            cpu: Duration::from_secs_f64(cpu_s),
            ..Measured::default()
        }
    }

    #[test]
    fn every_timing_metric_is_the_median_segment() {
        // The slow third segment moves nothing.
        let run = [
            segment(60, 1.0, 1.0, 0.6),
            segment(60, 2.0, 2.0, 0.9),
            segment(80, 9.0, 16.0, 4.0),
        ];
        assert_eq!(timings(&run), [30.0, 2.0, 2.0, 2.0, 15.0]);
        // A batch run is one segment, and its own median.
        assert_eq!(timings(&run[2..]), [5.0, 9.0, 9.0, 9.0, 50.0]);
        // 200 samples support p95 and not p99; 1000 support p99.
        assert!(supported(200, 95) && !supported(200, 99) && supported(1000, 99));
        assert_eq!(tail_of("latency_p99_ms"), Some(99));
        assert_eq!(tail_of("latency_p50_ms"), None);
    }
}
