//! `vmbench`: measures the end-to-end metrics of one workload (the
//! regression gate), and compares sets of such runs.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use vmbench::measure::{peak_rss_mb, process_cpu};
use vmbench::report::{end_to_end, Outcome};
use vmbench::spec::{DEFAULT_SECONDS, DEFAULT_SEED};
use vmbench::stats::median;
use vmbench::workload::{self, Workload};
use vmbench::{batch, compare, flag, number_flag, serve, Measured, SEGMENTS};

/// Set-ups per run; `setup_s` is their median and the run measures
/// against the last.
const SETUPS: usize = 3;

const USAGE: &str = "usage:
  vmbench --workload <name> [--seed N] [--seconds N] [--trace 0]
  vmbench sweep <dir> [--runs N] [--seed N] [--seconds N]
  vmbench sweep <dir-a> <dir-b> --other <vmbench of another commit> [--runs N] ...
  vmbench compare <dir-a> <dir-b> [--spec BENCHMARK.json]
  vmbench agree [--runs N] [--seed N] [--seconds N] [--spec BENCHMARK.json]
workloads: serve_exact serve_pipelined serve_repair serve_cached batch_milp batch_portfolio
per-layer metrics (--trace 1) come from the vmbench-trace binary; benchmark/run.sh picks it";

/// One run: set up [`SETUPS`] times, measure once, judge, report.
fn run(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut segments: Vec<Measured> = Vec::new();
    // Ops the workload holds, to tell a run the deadline cut short.
    let mut planned = 0u64;
    for round in 0..SETUPS {
        let t0 = Instant::now();
        let workload =
            workload::build(name, seed, seconds).ok_or(format!("unknown workload `{name}`"))?;
        // A run half again as long as asked for stops early, whatever
        // the host: the driver's total time cap is the harder contract.
        let grace = |from: Instant| from + Duration::from_secs(seconds * 3 / 2);
        match workload {
            Workload::Serve(w) => {
                let mut server = serve::bind_server();
                let addr = server.local_addr();
                let warm = serve::replay(addr, &w.warmup, w.discipline, grace(t0));
                setup_s.push(t0.elapsed().as_secs_f64());
                if serve::judge(&w.warmup, &warm, Duration::ZERO).failed > 0 {
                    return Err("a warm-up op failed".into());
                }
                if round + 1 == SETUPS {
                    planned = w.traces.iter().map(|t| t.len() as u64).sum();
                    let deadline = grace(Instant::now());
                    let replays: Vec<_> = w
                        .traces
                        .chunks(w.traces.len().div_ceil(SEGMENTS))
                        .map(|block| {
                            let cpu0 = process_cpu();
                            let replay = serve::replay(addr, block, w.discipline, deadline);
                            (block, replay, process_cpu().saturating_sub(cpu0))
                        })
                        .collect();
                    // The oracle, after the last timed window.
                    segments = replays
                        .iter()
                        .map(|(block, replay, cpu)| serve::judge(block, replay, *cpu))
                        .collect();
                }
                server.shutdown();
            }
            Workload::Batch(w) => {
                for op in w.warmup() {
                    std::hint::black_box(batch::run_op(op));
                }
                setup_s.push(t0.elapsed().as_secs_f64());
                if round + 1 == SETUPS {
                    planned = w.ops.len() as u64;
                    segments = vec![batch::run(&w)];
                }
            }
        }
    }
    let m = Measured::total(&segments);
    println!(
        "workload {name} seed {seed} seconds {seconds}: attempted {} succeeded {} failed {} \
         in {:.3} s, {} segments",
        m.attempted,
        m.attempted - m.failed,
        m.failed,
        m.wall.as_secs_f64(),
        segments.len()
    );
    if m.attempted < planned {
        println!(
            "stopped early at 1.5 x --seconds: {} of {} ops attempted; counts and digest are \
             those of the truncated run",
            m.attempted, planned
        );
    }
    println!(
        "counts: solved {} cached {} repaired {} probes {}  response_digest {:016x}",
        m.solved, m.cached, m.repaired, m.probes, m.digest
    );
    if m.cached > 0 {
        // Each connection has one request in flight, so summed latency is
        // the connections' busy time.
        println!(
            "cache hits: {:.4} of ops, {:.4} of summed latency",
            m.cached as f64 / m.attempted as f64,
            m.cached_latency_ms / m.latencies_ms.iter().sum::<f64>()
        );
    }
    Ok(end_to_end(&segments, median(&setup_s), peak_rss_mb()))
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let positional = args.iter().take_while(|a| !a.starts_with("--")).count();
    let seed = number_flag(args, "seed", DEFAULT_SEED)?;
    let seconds = number_flag(args, "seconds", DEFAULT_SECONDS)?.max(1);
    let runs = number_flag(args, "runs", 5)? as usize;
    let spec = flag(args, "spec").unwrap_or("BENCHMARK.json");
    match &args[..positional] {
        [] => {
            let name = flag(args, "workload").ok_or(USAGE)?;
            if number_flag(args, "trace", 0)? != 0 {
                return Err("`--trace 1` is served by vmbench-trace (see benchmark/run.sh)".into());
            }
            let outcome = run(name, seed, seconds)?;
            println!("{}", outcome.to_json());
            Ok(outcome.correct)
        }
        [cmd, dirs @ ..] if cmd == "sweep" && matches!(dirs.len(), 1 | 2) => {
            // Side A is this binary; side B, when asked for, another
            // commit's, and the two take turns pair by pair.
            let this = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut sides = vec![compare::Side {
                exe: &this,
                dir: dirs[0].as_ref(),
            }];
            if let [_, b] = dirs {
                sides.push(compare::Side {
                    exe: flag(args, "other").ok_or(USAGE)?.as_ref(),
                    dir: b.as_ref(),
                });
            }
            compare::sweep(&sides, runs, seed, seconds)?;
            Ok(true)
        }
        [cmd, a, b] if cmd == "compare" => compare::compare(a.as_ref(), b.as_ref(), spec.as_ref()),
        [cmd] if cmd == "agree" => compare::agree(runs, seed, seconds, spec.as_ref()),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vmbench: {message}");
            ExitCode::from(2)
        }
    }
}
