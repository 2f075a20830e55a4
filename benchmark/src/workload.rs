//! The six named workloads: what each one sends, generated from the seed.
//!
//! Shapes and counts are constants of the workload. The only thing the
//! run length (`--seconds`) scales is a *count* of identical units
//! (traces, or batch instances), through a per-workload rate fixed here — never a
//! measured capacity — so one `(workload, seed, seconds)` triple always
//! does exactly the same work and every hit/repair/probe count repeats.

use crate::vetted::{MILP_4H10S, MILP_4H12S};
use vmplace_model::{AllocRequest, ProblemInstance, RequestKind, ResponsePolicy};
use vmplace_sim::{Scenario, ScenarioConfig, TraceConfig};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "serve_exact",
    "serve_pipelined",
    "serve_repair",
    "serve_cached",
    "batch_milp",
    "batch_portfolio",
];

/// Connections (and load-generator threads) of the serving workloads:
/// the sandbox has two cores, and `workers` is pinned to the same number.
pub const CONNECTIONS: usize = 2;

/// Untimed warm-up traces replayed before the timed window.
pub const WARMUP_TRACES: usize = 4;

/// How a serving workload's connections submit their requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// One request in flight per connection: submit, wait for the
    /// response, submit the next.
    ClosedLoop,
    /// Submit the connection's whole part of the trace, flush once, then
    /// read every response (what `vmplace client <trace>` does).
    Pipelined,
}

/// A serving workload: traces replayed over loopback TCP.
pub struct ServeWorkload {
    /// Submission discipline.
    pub discipline: Discipline,
    /// Warm-up traces (untimed, part of set-up).
    pub warmup: Vec<Vec<AllocRequest>>,
    /// The timed traces.
    pub traces: Vec<Vec<AllocRequest>>,
}

/// Which library entry point a batch op calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// `ExactMilp::default().solve` — cold branch & bound.
    ExactMilp,
    /// `YieldLp::build` + `solve_relaxed` — one cold LP relaxation.
    Relaxation,
    /// `MetaVp::metahvp_light().solve`.
    MetaHvpLight,
    /// `MetaVp::metahvp().solve`.
    MetaHvp,
    /// `MetaGreedy.solve`.
    MetaGreedy,
}

/// One batch op: an entry point and its instance.
pub struct BatchOp {
    /// The entry point.
    pub kind: BatchKind,
    /// Size class, as it appears in per-layer metric names (`3h8s`,
    /// `16h32s`, `j100`, …).
    pub class: &'static str,
    /// The instance solved.
    pub instance: ProblemInstance,
}

/// A batch workload: every op once, on one thread.
pub struct BatchWorkload {
    /// The ops in run order, all instances distinct.
    pub ops: Vec<BatchOp>,
}

impl BatchWorkload {
    /// The ops run once, untimed, as warm-up (part of set-up): the first
    /// op of every class and entry point.
    pub fn warmup(&self) -> Vec<&BatchOp> {
        let mut seen = Vec::new();
        self.ops
            .iter()
            .filter(|op| {
                let fresh = !seen.contains(&(op.kind, op.class));
                seen.push((op.kind, op.class));
                fresh
            })
            .collect()
    }
}

/// A generated workload.
pub enum Workload {
    /// Loopback serving.
    Serve(ServeWorkload),
    /// Library calls.
    Batch(BatchWorkload),
}

/// The serving scenario: 64 hosts × 100 services, cov 0.5, slack 0.6.
fn serving_scenario() -> ScenarioConfig {
    ScenarioConfig {
        hosts: 64,
        services: 100,
        cov: 0.5,
        memory_slack: 0.6,
        ..ScenarioConfig::default()
    }
}

fn serving_trace(requests: usize) -> TraceConfig {
    TraceConfig {
        streams: 4,
        requests,
        scenario: serving_scenario(),
        ..TraceConfig::default()
    }
}

/// Units of work for a run of `seconds`: `rate` units per second of run
/// length, at least `floor`.
fn units(rate: f64, seconds: u64, floor: usize) -> usize {
    ((rate * seconds as f64).round() as usize).max(floor)
}

/// Whether every service fits on some empty node. An instance that
/// fails this is trivially infeasible — every algorithm rejects it at its
/// first probe — and at the workloads' slacks some 40–60% of generated
/// instances are. The workloads skip them: how many a seed happens to
/// draw would otherwise decide a third of a run's throughput, and no
/// bound could hold across seeds. Past this filter an unsolved op is an
/// algorithm's failure, which is what `solved_share` is there to show.
pub fn placeable(instance: &ProblemInstance) -> bool {
    (0..instance.num_services())
        .all(|j| (0..instance.num_nodes()).any(|h| instance.service_fits_empty_node(j, h)))
}

/// The first `count` instances of `scenario` from seed `from` on that are
/// [`placeable`].
fn placeable_instances(scenario: &Scenario, from: u64, count: usize) -> Vec<ProblemInstance> {
    (0u64..)
        .map(|k| scenario.instance(from.wrapping_add(k)))
        .filter(placeable)
        .take(count)
        .collect()
}

/// Each seed owns a block of this many generator seeds.
const SEED_BLOCK: u64 = 1_000_000;

/// The trace generator derives a trace's opening instances from a few
/// consecutive seeds, so candidate trace seeds are taken this far apart
/// for no two traces to share an instance.
const TRACE_SEED_STRIDE: u64 = 8;

/// The first `count` traces, from candidate seeds `seed·SEED_BLOCK +
/// 8k`, whose opening instances are all [`placeable`]; the warm-up traces
/// are the next [`WARMUP_TRACES`] after them.
fn traces(
    config: &TraceConfig,
    seed: u64,
    count: usize,
) -> (Vec<Vec<AllocRequest>>, Vec<Vec<AllocRequest>>) {
    // Generating only the openings (one request per stream) is enough to
    // judge a candidate, and cheap.
    let openings = TraceConfig {
        requests: config.streams,
        ..config.clone()
    };
    let base = seed.wrapping_mul(SEED_BLOCK);
    let mut timed: Vec<Vec<AllocRequest>> = (0u64..)
        .map(|k| base.wrapping_add(k * TRACE_SEED_STRIDE))
        .filter(|&candidate| {
            openings
                .generate(candidate)
                .iter()
                .all(|r| matches!(&r.kind, RequestKind::New(instance) if placeable(instance)))
        })
        .take(count + WARMUP_TRACES)
        .map(|accepted| config.generate(accepted))
        .collect();
    let warmup = timed.split_off(count);
    (timed, warmup)
}

fn serve(config: TraceConfig, discipline: Discipline, seed: u64, count: usize) -> Workload {
    let (traces, warmup) = traces(&config, seed, count);
    Workload::Serve(ServeWorkload {
        discipline,
        warmup,
        traces,
    })
}

/// The small scenarios of the LP workload (cov 0.5, slack 0.6).
fn small_scenario(hosts: usize, services: usize) -> Scenario {
    Scenario::new(ScenarioConfig {
        hosts,
        services,
        cov: 0.5,
        memory_slack: 0.6,
        ..ScenarioConfig::default()
    })
}

/// `count` instances of `scenario` from the generator seeds `table`
/// lists, starting at the window `seed` owns and wrapping round.
///
/// Branch & bound on one shape takes from a millisecond to minutes, and
/// nothing cheap in an instance says which, so the two larger MILP
/// classes cannot take whatever the seed draws. Their generator seeds
/// come from the vetted tables in `vetted.rs` instead: every generator
/// seed whose tree, at the commit that defined the benchmark, took a
/// number of simplex iterations inside a fixed band. The tables hold
/// [`VETTED_WINDOWS`] runs' worth of seeds; `--seed` picks the window, so
/// seeds that differ modulo [`VETTED_WINDOWS`] — the default 1 and the
/// hold-out 2 among them — solve disjoint sets.
fn vetted_instances(
    scenario: &Scenario,
    table: &[u16],
    seed: u64,
    count: usize,
) -> Vec<ProblemInstance> {
    let start = (seed % VETTED_WINDOWS) as usize * (table.len() / VETTED_WINDOWS as usize);
    (0..count)
        .map(|k| scenario.instance(u64::from(table[(start + k) % table.len()])))
        .collect()
}

/// Windows the vetted tables are cut into.
pub const VETTED_WINDOWS: u64 = 10;

/// A class of batch ops: the entry points each instance goes through,
/// the size class, and the instances.
type Class = (&'static [BatchKind], &'static str, Vec<ProblemInstance>);

/// A batch workload of the given classes: every instance once through
/// each of its class's entry points.
fn batch(classes: Vec<Class>) -> Workload {
    let mut ops = Vec::new();
    for (kinds, class, instances) in classes {
        for instance in instances {
            ops.extend(kinds.iter().map(|&kind| BatchOp {
                kind,
                class,
                instance: instance.clone(),
            }));
        }
    }
    Workload::Batch(BatchWorkload { ops })
}

fn batch_milp(seed: u64, seconds: u64) -> Workload {
    let n = units(MILP_UNITS_PER_SECOND, seconds, 1);
    let base = seed.wrapping_mul(SEED_BLOCK);
    let drawn =
        |hosts, services, count| placeable_instances(&small_scenario(hosts, services), base, count);
    let listed = |hosts, services, table: &[u16], count| {
        vetted_instances(&small_scenario(hosts, services), table, seed, count)
    };
    const MILP: &[BatchKind] = &[BatchKind::ExactMilp];
    const RELAXATION: &[BatchKind] = &[BatchKind::Relaxation];
    // 19 ops per unit; twelve units are the issue's 228.
    batch(vec![
        (MILP, "3h8s", drawn(3, 8, 8 * n)),
        (MILP, "4h10s", listed(4, 10, &MILP_4H10S, 3 * n)),
        (MILP, "4h12s", listed(4, 12, &MILP_4H12S, 2 * n)),
        (RELAXATION, "16h32s", drawn(16, 32, 4 * n)),
        (RELAXATION, "32h50s", drawn(32, 50, 2 * n)),
    ])
}

fn batch_portfolio(seed: u64, seconds: u64) -> Workload {
    let n = units(PORTFOLIO_UNITS_PER_SECOND, seconds, 1);
    let base = seed.wrapping_mul(SEED_BLOCK);
    const PORTFOLIO: &[BatchKind] = &[
        BatchKind::MetaHvpLight,
        BatchKind::MetaHvp,
        BatchKind::MetaGreedy,
    ];
    // One instance of each size through the three algorithms is 9 ops
    // per unit; twenty-four units are the issue's 216.
    let class = |class, services| {
        let scenario = Scenario::new(ScenarioConfig {
            hosts: 64,
            services,
            cov: 0.5,
            memory_slack: 0.5,
            ..ScenarioConfig::default()
        });
        (PORTFOLIO, class, placeable_instances(&scenario, base, n))
    };
    batch(vec![
        class("j100", 100),
        class("j250", 250),
        class("j500", 500),
    ])
}

// Units per second of run length, fixed once from probe runs on the
// two-core sandbox in its calm phases, so that `--seconds 12` measures
// for 9 to 12 seconds there. They are constants: a faster program
// finishes sooner, it is not given more work. `serve_exact` and
// `serve_pipelined` share a rate: they replay the very same traces.
const EXACT_TRACES_PER_SECOND: f64 = 5.25;
const REPAIR_TRACES_PER_SECOND: f64 = 13.3;
const CACHED_TRACES_PER_SECOND: f64 = 5.0;
const MILP_UNITS_PER_SECOND: f64 = 1.0;
const PORTFOLIO_UNITS_PER_SECOND: f64 = 2.0;

/// Requests per `serve_cached` trace and its re-solve burst length.
pub const CACHED_REQUESTS: usize = 2500;
const CACHED_BURST: usize = 16;

/// Generates workload `name` for `seed`, sized for a run of `seconds`.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    Some(match name {
        "serve_exact" => serve(
            serving_trace(48),
            Discipline::ClosedLoop,
            seed,
            units(EXACT_TRACES_PER_SECOND, seconds, 8),
        ),
        // Byte-identical traces to `serve_exact` (same config, same
        // seeds, same count); only the discipline differs.
        "serve_pipelined" => serve(
            serving_trace(48),
            Discipline::Pipelined,
            seed,
            units(EXACT_TRACES_PER_SECOND, seconds, 8),
        ),
        "serve_repair" => serve(
            TraceConfig {
                mix: (0.2, 0.15, 0.55, 0.1),
                policy: ResponsePolicy::Repaired {
                    tolerance: 0.2,
                    max_migrations: 3,
                },
                ..serving_trace(48)
            },
            Discipline::ClosedLoop,
            seed,
            units(REPAIR_TRACES_PER_SECOND, seconds, 8),
        ),
        "serve_cached" => serve(
            TraceConfig {
                // Re-solves only. A single delta costs a hundred hits'
                // worth of solving, so even one draw in a thousand made
                // a seed's run up to twice as long as another's.
                mix: (0.0, 0.0, 0.0, 1.0),
                resolve_burst: CACHED_BURST,
                ..serving_trace(CACHED_REQUESTS)
            },
            Discipline::ClosedLoop,
            seed,
            units(CACHED_TRACES_PER_SECOND, seconds, 4),
        ),
        "batch_milp" => batch_milp(seed, seconds),
        "batch_portfolio" => batch_portfolio(seed, seconds),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DEFAULT_SECONDS, DEFAULT_SEED, HOLDOUT_SEED};

    fn generated(name: &str, seed: u64) -> BatchWorkload {
        match build(name, seed, DEFAULT_SECONDS) {
            Some(Workload::Batch(w)) => w,
            _ => panic!("{name} is a batch workload"),
        }
    }

    /// `(kind, class, the instance as text)` of every op.
    fn fingerprint(ops: &[BatchOp]) -> Vec<(BatchKind, &'static str, String)> {
        ops.iter()
            .map(|op| (op.kind, op.class, format!("{:?}", op.instance)))
            .collect()
    }

    #[test]
    fn batch_instances_come_from_the_seed() {
        for (name, ops) in [("batch_milp", 228), ("batch_portfolio", 216)] {
            let w = generated(name, DEFAULT_SEED);
            assert_eq!(w.ops.len(), ops, "{name}");
            // Same seed, same ops; the hold-out seed shares no instance.
            let again = fingerprint(&generated(name, DEFAULT_SEED).ops);
            let mine = fingerprint(&w.ops);
            assert_eq!(mine, again);
            let held_out = fingerprint(&generated(name, HOLDOUT_SEED).ops);
            assert!(mine.iter().all(|op| !held_out.contains(op)), "{name}");
            // One warm-up op per entry point and class.
            let classes = if name == "batch_milp" { 5 } else { 9 };
            assert_eq!(w.warmup().len(), classes);
        }
    }

    #[test]
    fn vetted_tables_hold_disjoint_windows_for_ten_seeds() {
        for (table, per_run) in [(&MILP_4H10S[..], 36), (&MILP_4H12S[..], 24)] {
            assert_eq!(table.len(), per_run * VETTED_WINDOWS as usize);
            let mut sorted = table.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), table.len(), "a generator seed listed twice");
        }
    }
}
