//! Diagnostic probe: per-seed algorithm outcomes and LP statistics on a
//! single scenario. Not part of the paper reproduction; useful when
//! calibrating sweep scales on new hardware.

use vmplace_experiments::{AlgoId, Args, Roster};
use vmplace_lp::{MilpOptions, SimplexOptions, YieldLp};
use vmplace_sim::{Scenario, ScenarioConfig};

fn main() {
    let args = Args::parse();
    args.apply_threads();
    let services: usize = args.get("services", 100);
    let hosts: usize = args.get("hosts", 64);
    let cov: f64 = args.get("cov", 0.5);
    let slack: f64 = args.get("slack", 0.5);
    let seeds: u64 = args.get("instances", 3);
    let algos = args
        .get_str("algos")
        .map(AlgoId::parse_list)
        .unwrap_or_else(|| vec![AlgoId::MetaGreedy, AlgoId::MetaHvpLight]);

    let roster = Roster::new();
    let scenario = Scenario::new(ScenarioConfig {
        hosts,
        services,
        cov,
        memory_slack: slack,
        ..ScenarioConfig::default()
    });

    for seed in 0..seeds {
        let inst = scenario.instance(seed);
        // LP relaxation statistics.
        let t0 = std::time::Instant::now();
        match YieldLp::build(&inst) {
            None => println!("seed {seed}: LP build → infeasible (a service fits nowhere)"),
            Some(ylp) => {
                let built = t0.elapsed().as_secs_f64();
                println!(
                    "seed {seed}: LP {} rows × {} vars (built in {built:.3}s)",
                    ylp.lp().num_rows(),
                    ylp.lp().num_vars()
                );
                if args.has_flag("lp") {
                    let t1 = std::time::Instant::now();
                    match ylp.solve_relaxed(&SimplexOptions::default()) {
                        Some(rel) => println!(
                            "         relaxation Y* = {:.4} in {:.2}s ({} iterations)",
                            rel.objective,
                            t1.elapsed().as_secs_f64(),
                            rel.iterations
                        ),
                        None => println!(
                            "         relaxation infeasible/failed in {:.2}s",
                            t1.elapsed().as_secs_f64()
                        ),
                    }
                }
                // Warm-started branch & bound telemetry — only sane on
                // small instances (exact MILP is exponential).
                if args.has_flag("milp") {
                    let t1 = std::time::Instant::now();
                    let r = ylp.solve_exact_result(&MilpOptions::default());
                    println!(
                        "         exact MILP {:?} Y* = {} in {:.2}s ({} nodes, {} simplex iterations, {:.1}/node)",
                        r.status,
                        r.objective
                            .map(|o| format!("{o:.4}"))
                            .unwrap_or_else(|| "-".into()),
                        t1.elapsed().as_secs_f64(),
                        r.nodes,
                        r.simplex_iterations,
                        r.simplex_iterations as f64 / r.nodes.max(1) as f64
                    );
                    let f = &r.factor;
                    println!(
                        "         factorisation: {} refactorisations (warm reuse {:.2}, fill {} nnz), {} eta folds, {} snapshots ({} eta clones)",
                        f.refactorisations,
                        f.warm_reuse_ratio(),
                        f.fill_nnz,
                        f.eta_folds,
                        f.snapshots,
                        f.snapshot_eta_clones
                    );
                    println!(
                        "         solves: {} FTRAN (sparsity {:.3}), {} BTRAN ({} sparse, sparsity {:.3})",
                        f.ftran_solves,
                        f.ftran_sparsity(),
                        f.btran_solves,
                        f.btran_sparse,
                        f.btran_sparsity()
                    );
                }
            }
        }
        for &algo in &algos {
            let run = roster.solve(algo, &inst, seed);
            let secs = run.runtime_s;
            match run.solution {
                Some(s) => println!(
                    "         {:<14} min-yield {:.4} in {secs:.3}s ({} probes, winner {})",
                    algo.label(),
                    s.min_yield,
                    run.probes,
                    run.winner.as_deref().unwrap_or("-")
                ),
                None => println!("         {:<14} FAILED in {secs:.3}s", algo.label()),
            }
        }
    }
}
