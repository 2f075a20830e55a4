//! Cross-crate integration: the LP relaxation upper-bounds every heuristic
//! and the exact MILP, the exact MILP dominates every heuristic, and the
//! warm-started persistent solver agrees with cold solves on randomized
//! branch & bound bound-override replays.

use vmplace::lp::{
    LinearProgram, LpStatus, MilpOptions, MilpStatus, RowSense, SimplexOptions, SimplexSolver,
    YieldLp,
};
use vmplace::prelude::*;

fn small_instances() -> Vec<ProblemInstance> {
    let mut out = Vec::new();
    for (seed, cov, slack) in [(0u64, 0.3f64, 0.6f64), (1, 0.7, 0.5), (2, 1.0, 0.7)] {
        let sc = Scenario::new(ScenarioConfig {
            hosts: 4,
            services: 8,
            cov,
            memory_slack: slack,
            ..ScenarioConfig::default()
        });
        out.push(sc.instance(seed));
    }
    out
}

#[test]
fn relaxation_bounds_exact_and_heuristics() {
    let light = MetaVp::metahvp_light();
    for (i, inst) in small_instances().iter().enumerate() {
        let Some(ylp) = YieldLp::build(inst) else {
            continue;
        };
        let Some(relaxed) = ylp.solve_relaxed(&SimplexOptions::default()) else {
            continue;
        };
        if let Some((placement, exact_y)) = ylp.solve_exact(&MilpOptions::default()) {
            // Relaxation ≥ exact.
            assert!(
                relaxed.objective >= exact_y - 1e-6,
                "instance {i}: relaxed {} < exact {exact_y}",
                relaxed.objective
            );
            // The MILP objective equals the water-fill evaluation of its own
            // placement (both are the exact per-placement optimum).
            let eval = evaluate_placement(inst, &placement).unwrap();
            assert!(
                (eval.min_yield - exact_y).abs() < 1e-4,
                "instance {i}: water-fill {} vs MILP {exact_y}",
                eval.min_yield
            );
            // Exact ≥ heuristic.
            if let Some(h) = light.solve(inst) {
                assert!(
                    exact_y >= h.min_yield - 1e-4,
                    "instance {i}: exact {exact_y} < heuristic {}",
                    h.min_yield
                );
            }
        }
    }
}

#[test]
fn relaxation_probabilities_are_a_distribution() {
    for inst in small_instances() {
        let Some(ylp) = YieldLp::build(&inst) else {
            continue;
        };
        let Some(relaxed) = ylp.solve_relaxed(&SimplexOptions::default()) else {
            continue;
        };
        for (j, row) in relaxed.e.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "service {j}: Σe = {sum}");
            for (h, &p) in row.iter().enumerate() {
                assert!((0.0..=1.0 + 1e-9).contains(&p), "e[{j}][{h}] = {p}");
            }
        }
    }
}

/// Deterministic xorshift-style generator for the differential suites.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64) / (u32::MAX as f64)
    }

    fn next_below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }
}

/// Builds a random bounded LP with mixed row senses whose origin-ish region
/// is likely feasible.
fn random_lp(rng: &mut Lcg) -> LinearProgram {
    let mut lp = LinearProgram::new();
    lp.set_maximize(rng.next_f64() < 0.5);
    let nv = 3 + rng.next_below(5);
    let vars: Vec<_> = (0..nv)
        .map(|_| {
            let ub = 1.0 + 4.0 * rng.next_f64();
            lp.add_var(0.0, ub, rng.next_f64() * 4.0 - 2.0)
        })
        .collect();
    let rows = 2 + rng.next_below(4);
    for _ in 0..rows {
        let coeffs: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.next_f64() * 2.0 - 0.6))
            .collect();
        let sense = match rng.next_below(4) {
            0 => RowSense::Ge,
            1 => RowSense::Eq,
            _ => RowSense::Le,
        };
        let rhs = match sense {
            RowSense::Le => 1.0 + 3.0 * rng.next_f64(),
            RowSense::Ge => -3.0 * rng.next_f64(),
            RowSense::Eq => rng.next_f64(),
        };
        lp.add_row(sense, rhs, &coeffs);
    }
    lp
}

#[test]
fn warm_starts_match_cold_solves_on_branching_replays() {
    // Replays randomized branch & bound bound-override sequences: a
    // persistent warm-started solver (carrying each "parent" basis into the
    // next solve) must agree with from-scratch cold solves in status and,
    // when optimal, objective to 1e-7.
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let opts = SimplexOptions::default();
    for trial in 0..60 {
        let lp = random_lp(&mut rng);
        let nv = lp.num_vars();
        let mut solver = SimplexSolver::new(&lp, opts.clone());
        let mut lo = vec![0.0; nv];
        let mut hi: Vec<f64> = (0..nv).map(|_| 5.0).collect();
        let mut warm = None;
        for step in 0..20 {
            let cold = lp.solve_with_bounds(&lo, &hi, &opts);
            let warm_sol = solver.solve_from(warm.as_ref(), &lo, &hi);
            assert_eq!(
                warm_sol.status, cold.status,
                "trial {trial} step {step}: warm {:?} vs cold {:?}",
                warm_sol.status, cold.status
            );
            if cold.status == LpStatus::Optimal {
                assert!(
                    (warm_sol.objective - cold.objective).abs()
                        <= 1e-7 * (1.0 + cold.objective.abs()),
                    "trial {trial} step {step}: warm {} vs cold {}",
                    warm_sol.objective,
                    cold.objective
                );
                warm = Some(solver.snapshot());
            } else {
                warm = None;
            }
            // Branch & bound–style move: tighten one variable's bounds to
            // an integer split, occasionally resetting to the root box.
            let v = rng.next_below(nv);
            match rng.next_below(4) {
                0 => hi[v] = hi[v].min(lo[v].max(rng.next_f64() * 4.0).floor()),
                1 => lo[v] = lo[v].max(hi[v].min(rng.next_f64() * 4.0).ceil()).min(hi[v]),
                2 => {
                    let x = rng.next_f64() * 4.0;
                    lo[v] = x.ceil().min(hi[v]);
                }
                _ => {
                    lo[v] = 0.0;
                    hi[v] = 5.0;
                }
            }
            if lo[v] > hi[v] {
                lo[v] = hi[v];
            }
        }
    }
}

#[test]
fn warm_started_milp_matches_exhaustive_enumeration() {
    // Full branch & bound trees (warm-started internally) on randomized
    // binary knapsacks small enough to enumerate: the optimum must match
    // brute force exactly.
    let mut rng = Lcg(0x00ab_cdef_1234_5678);
    for trial in 0..10 {
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let nv = 7;
        let profits: Vec<f64> = (0..nv).map(|_| 1.0 + 4.0 * rng.next_f64()).collect();
        let w: Vec<f64> = (0..nv).map(|_| 1.0 + 3.0 * rng.next_f64()).collect();
        let vars: Vec<_> = profits.iter().map(|&p| lp.add_var(0.0, 1.0, p)).collect();
        let cap = w.iter().sum::<f64>() * 0.55;
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, w[v])).collect();
        lp.add_row(RowSense::Le, cap, &coeffs);

        let milp = vmplace::lp::solve_milp(&lp, &vars, &MilpOptions::default());
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << nv) {
            let wt: f64 = (0..nv).filter(|v| mask & (1 << v) != 0).map(|v| w[v]).sum();
            if wt <= cap + 1e-9 {
                let profit: f64 = (0..nv)
                    .filter(|v| mask & (1 << v) != 0)
                    .map(|v| profits[v])
                    .sum();
                best = best.max(profit);
            }
        }
        let got = milp.objective.expect("feasible knapsack");
        assert!(
            (got - best).abs() < 1e-6,
            "trial {trial}: milp {got} vs enumeration {best}"
        );
    }
}

#[test]
fn rounding_respects_relaxation_support() {
    // RRND never places a service on a node with zero LP probability
    // (RRNZ may, by design).
    for (i, inst) in small_instances().iter().enumerate() {
        let Some(ylp) = YieldLp::build(inst) else {
            continue;
        };
        let Some(relaxed) = ylp.solve_relaxed(&SimplexOptions::default()) else {
            continue;
        };
        if let Some(sol) = RandomizedRounding::rrnd(i as u64).solve(inst) {
            for (j, h) in sol.placement.iter() {
                assert!(
                    relaxed.e[j][h] > 0.0,
                    "instance {i}: RRND used a zero-probability pair ({j}, {h})"
                );
            }
        }
    }
}

#[test]
fn milp_pivot_trajectory_is_pinned() {
    // One fixed 4-host × 10-service MILP (cov 0.5, memory slack 0.6), on
    // the first seed whose MILP solves within 20 000 nodes. Every count
    // below follows from the exact pivot sequence of every node LP, so a
    // change to pricing, ratio test or refactorisation that moves one pivot
    // moves at least one of them.
    let instance = |seed| {
        Scenario::new(ScenarioConfig {
            hosts: 4,
            services: 10,
            cov: 0.5,
            memory_slack: 0.6,
            ..ScenarioConfig::default()
        })
        .instance(seed)
    };
    let probe = MilpOptions {
        max_nodes: 20_000,
        ..MilpOptions::default()
    };
    let (seed, ylp) = (0..20u64)
        .find_map(|seed| {
            let ylp = YieldLp::build(&instance(seed))?;
            ylp.solve_exact(&probe).map(|_| (seed, ylp))
        })
        .expect("a seed in 0..20 solves");
    let r = ylp.solve_exact_result(&MilpOptions::default());
    assert_eq!(seed, 0);
    assert_eq!(r.status, MilpStatus::Optimal);
    assert_eq!(r.nodes, 5103);
    assert_eq!(r.simplex_iterations, 49200);
    assert_eq!(r.factor.refactorisations, 978);
    assert_eq!(r.factor.eta_folds, 977);
    assert_eq!(r.factor.cols_reused, 3096);
    assert_eq!(r.objective.map(f64::to_bits), Some(0x3fe5_2584_5c6b_f751));
}
