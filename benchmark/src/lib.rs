//! `vmbench`: the benchmark harness of the vmplace stack.
//!
//! This library is shared by two binaries and deliberately touches only
//! a narrow slice of the stack's public API (listed in `API_SURFACE.md`):
//! `vmbench` measures the end-to-end metrics and is the regression gate;
//! `vmbench-trace` replays the same inputs through each layer's public
//! functions and may use anything. A later change that deletes an
//! internal option can therefore break the traced binary, never the gate.

pub mod batch;
pub mod compare;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod span;
pub mod spec;
pub mod stats;
pub mod vetted;
pub mod workload;

use oracle::Verdict;
use std::time::Duration;

/// The value of the last `--name value` pair in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .rev()
        .find(|w| w[0].strip_prefix("--") == Some(name))
        .map(|w| w[1].as_str())
}

/// [`flag`] parsed as a whole number, `default` when absent.
pub fn number_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("`--{name} {v}` is not a whole number"))
    })
}

/// What one segment of a run observed, before it is turned into metrics.
///
/// A serving run measures [`SEGMENTS`] segments of equal work (blocks of
/// traces) and a batch run one; [`report::timings`] says what becomes of
/// them.
#[derive(Default)]
pub struct Measured {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, shed, timed out, or whose answer
    /// the oracle rejected.
    pub failed: u64,
    /// Ops answered with a feasible placement the oracle confirmed.
    pub solved: u64,
    /// Sum of the confirmed minimum yields of the solved ops.
    pub yield_sum: f64,
    /// Latency of every op that did not fail, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Timed wall.
    pub wall: Duration,
    /// Process CPU (user + system, all threads) over the timed wall.
    pub cpu: Duration,
    /// Digest of every answer; identical across same-seed runs.
    pub digest: u64,
    /// Responses served from the response cache.
    pub cached: u64,
    /// Summed latency of the cached responses, in milliseconds.
    pub cached_latency_ms: f64,
    /// Responses produced by the repair path.
    pub repaired: u64,
    /// Packing probes the responses report.
    pub probes: u64,
}

/// Segments a serving run is cut into.
pub const SEGMENTS: usize = 3;

impl Measured {
    /// The run's totals: counts summed over `segments`, their digests
    /// folded in order.
    pub fn total(segments: &[Measured]) -> Measured {
        let mut all = Measured::default();
        let mut digest = oracle::Digest::default();
        for s in segments {
            all.attempted += s.attempted;
            all.failed += s.failed;
            all.solved += s.solved;
            all.yield_sum += s.yield_sum;
            all.latencies_ms.extend_from_slice(&s.latencies_ms);
            all.wall += s.wall;
            all.cpu += s.cpu;
            all.cached += s.cached;
            all.cached_latency_ms += s.cached_latency_ms;
            all.repaired += s.repaired;
            all.probes += s.probes;
            digest.fold(s.digest);
        }
        all.digest = digest.value();
        all
    }

    /// Accounts one attempted op's verdict (the caller counts `attempted`).
    pub fn note(&mut self, verdict: Verdict, latency: Duration) {
        match verdict {
            Verdict::Failed => {
                self.failed += 1;
                return;
            }
            Verdict::Solved(y) => {
                self.solved += 1;
                self.yield_sum += y;
            }
            Verdict::NoPlacement => {}
        }
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }
}
