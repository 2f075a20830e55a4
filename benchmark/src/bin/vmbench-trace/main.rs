//! `vmbench-trace`: the per-layer pass. Replays a workload's inputs
//! through each layer's public functions from outside, records a span per
//! call in memory, writes `benchmark/out/trace-<workload>.jsonl` at exit
//! and prints every per-layer metric computed from those spans.
//!
//! Unlike `vmbench` (the gate) this binary may use any public item of the
//! stack; `API_SURFACE.md` lists what it touches.

mod batching;
mod serving;

use std::collections::BTreeMap;
use std::process::ExitCode;
use vmbench::report::Outcome;
use vmbench::span::Tracer;
use vmbench::spec::{DEFAULT_SECONDS, DEFAULT_SEED, PER_LAYER};
use vmbench::stats::median;
use vmbench::workload::{self, Workload};
use vmbench::{flag, number_flag};

/// What a traced pass hands back: metric values by name (absent = the
/// workload does not exercise that layer), and the op accounting.
#[derive(Default)]
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    /// Sets `name` to the median of `samples`, when there are any.
    pub fn median_of(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.metrics.insert(name, median(samples));
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "workload")
        .ok_or("usage: vmbench-trace --workload <name> [--seed N] [--seconds N] [--trace 1]")?;
    let seed = number_flag(args, "seed", DEFAULT_SEED)?;
    let seconds = number_flag(args, "seconds", DEFAULT_SECONDS)?.max(1);
    if number_flag(args, "trace", 1)? != 1 {
        return Err("`--trace 0` is served by vmbench (see benchmark/run.sh)".into());
    }
    let workload =
        workload::build(name, seed, seconds).ok_or(format!("unknown workload `{name}`"))?;
    let mut tracer = Tracer::new();
    let traced = match &workload {
        Workload::Serve(w) => serving::trace(w, &mut tracer),
        Workload::Batch(w) => batching::trace(w, &mut tracer),
    };
    let path = std::path::PathBuf::from(format!("benchmark/out/trace-{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "workload {name} seed {seed} seconds {seconds}: traced {} ops, {} failed; {} spans in {}",
        traced.attempted,
        traced.failed,
        tracer.spans().len(),
        path.display()
    );
    println!(
        "context: nproc {} effective_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        vmplace_obs::host::effective_parallelism()
    );
    let metrics: Vec<(String, f64, String)> = PER_LAYER
        .iter()
        .map(|(metric, unit)| {
            let value = traced.metrics.get(metric).copied().unwrap_or(0.0);
            println!("{metric:<40} {value:>14.4} {unit}");
            (metric.to_string(), value, unit.to_string())
        })
        .collect();
    let outcome = Outcome {
        correct: traced.attempted > 0 && traced.failed == 0,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
    };
    println!("{}", outcome.to_json());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vmbench-trace: {message}");
            ExitCode::from(2)
        }
    }
}
