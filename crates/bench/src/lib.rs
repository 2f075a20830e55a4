//! Shared fixtures for the criterion benchmarks.
//!
//! The regression harness in `benchmark/` (`vmbench` and its per-layer
//! trace) times every workload end to end. The benches kept here each time
//! something it does not:
//!
//! * `lp_simplex` — one fixed instance per shape, solved over and over
//!   (relaxations, branch & bound, the presolved encoding), where
//!   `batch_milp` draws a fresh instance for every op;
//! * `lu` — the factorisation kernels in isolation: cold vs warm-prefix
//!   refactorisation and dense vs sparse transpose solves;
//! * `portfolio` — the engine against the pre-engine sequential fold
//!   ([`seed_fold`]) and at 1 vs 8 threads, where `batch_portfolio` runs
//!   one thread and no baseline;
//! * `vp_heuristics` — single packing heuristics, cold pack vs
//!   steady-state probe, outside any binary search;
//! * `net` — the loopback server against the in-process pool it fronts,
//!   and cached against uncached re-solves, side by side on one trace;
//! * `ablations` — the METAHVPLIGHT subset, binary-search resolution and
//!   Permutation-Pack window choices, none of which `vmbench` varies;
//! * `waterfill` — the §6 work-conserving redistribution, which no
//!   `vmbench` workload runs, beside the yield evaluator.

use vmplace_model::ProblemInstance;
use vmplace_sim::{Scenario, ScenarioConfig};

/// The paper's evaluation platform at a given service count: 64 hosts,
/// cov 0.5, memory slack 0.5 — a representative mid-grid scenario.
pub fn paper_instance(services: usize, seed: u64) -> ProblemInstance {
    Scenario::new(ScenarioConfig {
        hosts: 64,
        services,
        cov: 0.5,
        memory_slack: 0.5,
        ..ScenarioConfig::default()
    })
    .instance(seed)
}

/// A smaller instance for the expensive LP benchmarks.
pub fn small_instance(hosts: usize, services: usize, seed: u64) -> ProblemInstance {
    Scenario::new(ScenarioConfig {
        hosts,
        services,
        cov: 0.5,
        memory_slack: 0.6,
        ..ScenarioConfig::default()
    })
    .instance(seed)
}

/// Returns a seed whose instance yields a buildable, integer-feasible MILP
/// encoding within a modest node budget, so the MILP benchmarks time real
/// branch & bound work rather than a trivially infeasible build.
pub fn milp_seed(hosts: usize, services: usize) -> u64 {
    use vmplace_lp::{MilpOptions, YieldLp};
    let opts = MilpOptions {
        max_nodes: 20_000,
        ..MilpOptions::default()
    };
    for seed in 0..20 {
        let inst = small_instance(hosts, services, seed);
        if let Some(ylp) = YieldLp::build(&inst) {
            if ylp.solve_exact(&opts).is_some() {
                return seed;
            }
        }
    }
    0
}

/// Returns a seed whose instance is feasible for METAHVPLIGHT (generation
/// can produce trivially infeasible instances, which would make timing
/// numbers meaningless).
pub fn feasible_seed(services: usize) -> u64 {
    use vmplace_core::{Algorithm, MetaVp};
    let light = MetaVp::metahvp_light();
    for seed in 0..20 {
        let inst = paper_instance(services, seed);
        if light.solve(&inst).is_some() {
            return seed;
        }
    }
    0
}

/// The pre-engine sequential META* path, replicated for benchmarking: one
/// binary search whose probe rebuilds the yield-scaled item tables and
/// tries each roster member with a fresh scratch (the per-probe
/// allocation profile of the seed code), the `portfolio` bench's
/// baseline.
pub fn seed_fold(meta: &vmplace_core::MetaVp, instance: &ProblemInstance) -> Option<f64> {
    use vmplace_core::vp::{VpProblem, DEFAULT_RESOLUTION};
    use vmplace_model::{evaluate_placement, Placement};

    let pack = |lambda: f64| -> Option<Placement> {
        let vp = VpProblem::new(instance, lambda);
        meta.members().find_map(|h| h.pack(&vp))
    };
    let p0 = pack(0.0)?;
    if let Some(p1) = pack(1.0) {
        return evaluate_placement(instance, &p1).map(|s| s.min_yield);
    }
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut best = p0;
    while hi - lo > DEFAULT_RESOLUTION {
        let mid = 0.5 * (lo + hi);
        match pack(mid) {
            Some(p) => {
                best = p;
                lo = mid;
            }
            None => hi = mid,
        }
    }
    evaluate_placement(instance, &best).map(|s| s.min_yield)
}
