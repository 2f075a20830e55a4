//! Differential property suites for the factorisation hot-path kernels.
//!
//! The pricing/factorisation path rests on two exact equivalences, each
//! checked here against randomly generated inputs:
//!
//! * the sparse (reachability-walk) transpose solve matches the dense
//!   transpose sweep bit-for-bit and reports a nonzero pattern covering
//!   every nonzero of the result;
//! * warm partial refactorisation is unobservable: replaying a randomised
//!   branch-&-bound-style bound-tightening sequence with
//!   [`SimplexOptions::partial_refactor`] on and off yields the same
//!   statuses, objectives, iteration counts, and LU pivot sequences.

use proptest::prelude::*;
use vmplace_lp::lu::{SolveScratch, SparseLu};
use vmplace_lp::{LinearProgram, LpStatus, RowSense, SimplexOptions};

/// Splitmix-style deterministic stream so every case is reproducible from
/// the proptest-drawn seed alone.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random sparse, diagonally dominant (hence nonsingular) matrix stored
/// densely for trivial column extraction.
#[allow(clippy::needless_range_loop)] // `a[j][j]` / `a[i][j]` mirror matrix subscripts
fn rand_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rnd = stream(seed);
    let mut a = vec![vec![0.0; n]; n];
    for j in 0..n {
        a[j][j] = 3.0 + rnd();
        let extras = 1 + (rnd() * 3.0) as usize;
        for _ in 0..extras {
            let i = (rnd() * n as f64) as usize % n;
            a[i][j] += rnd() - 0.5;
        }
    }
    a
}

fn column_of(a: &[Vec<f64>]) -> impl FnMut(usize, &mut Vec<(usize, f64)>) + '_ {
    move |j, buf| {
        for (i, row) in a.iter().enumerate() {
            if row[j] != 0.0 {
                buf.push((i, row[j]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_transpose_matches_dense_bitwise((n, seed, nnz) in (4usize..28, 0u64..1 << 60, 1usize..4)) {
        let a = rand_matrix(n, seed);
        let lu = SparseLu::factorize(n, column_of(&a)).expect("nonsingular");
        let mut rnd = stream(seed ^ 0x5eed);
        let mut pattern: Vec<usize> = Vec::new();
        for _ in 0..nnz {
            let k = (rnd() * n as f64) as usize % n;
            if !pattern.contains(&k) {
                pattern.push(k);
            }
        }
        let weights: Vec<f64> = pattern.iter().map(|_| rnd() * 4.0 - 2.0).collect();

        let mut dense_c = vec![0.0; n];
        let mut dense_y = vec![0.0; n];
        for (&k, &w) in pattern.iter().zip(&weights) {
            dense_c[k] = w;
        }
        lu.solve_transpose(&mut dense_c, &mut dense_y);

        let mut c = vec![0.0; n];
        let mut y = vec![0.0; n];
        let mut y_pattern = Vec::new();
        let mut scratch = SolveScratch::default();
        for (&k, &w) in pattern.iter().zip(&weights) {
            c[k] = w;
        }
        lu.solve_transpose_sparse(&mut c, &pattern, &mut y, &mut y_pattern, &mut scratch);

        // `c` is restored to zero so the caller can reuse it as scratch.
        for (i, &v) in c.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), 0.0f64.to_bits(), "c[{}] not restored", i);
        }
        for i in 0..n {
            // Identical bits everywhere; entries outside the reported
            // pattern must be exact zeros.
            prop_assert_eq!(y[i].to_bits(), dense_y[i].to_bits(), "y[{}] differs", i);
            if y[i] != 0.0 {
                prop_assert!(y_pattern.contains(&i), "nonzero y[{}] missing from pattern", i);
            }
        }
    }

    #[test]
    fn warm_partial_refactorisation_is_unobservable_in_branch_replays(
        (nv, seed) in (3usize..7, 0u64..1 << 60),
    ) {
        let mut rnd = stream(seed);
        let mut lp = LinearProgram::new();
        lp.set_maximize(true);
        let vars: Vec<_> = (0..nv).map(|_| lp.add_var(0.0, 3.0, rnd() * 2.0)).collect();
        let rows = 2 + (rnd() * 3.0) as usize;
        for _ in 0..rows {
            let coeffs: Vec<_> = vars
                .iter()
                .filter_map(|&v| if rnd() < 0.7 { Some((v, rnd() * 2.0)) } else { None })
                .collect();
            if coeffs.is_empty() {
                continue;
            }
            lp.add_row(RowSense::Le, 1.0 + rnd() * 3.0 * nv as f64, &coeffs);
        }

        let warm_opts = SimplexOptions {
            partial_refactor: true,
            ..SimplexOptions::default()
        };
        let cold_opts = SimplexOptions {
            partial_refactor: false,
            ..SimplexOptions::default()
        };
        let mut warm = lp.solver(warm_opts);
        let mut cold = lp.solver(cold_opts);

        let mut lower = vec![0.0; nv];
        let mut upper = vec![3.0; nv];
        let mut snaps = Vec::new();
        for step in 0..10 {
            let w = warm.solve_from(snaps.last(), &lower, &upper);
            let c = cold.solve_from(snaps.last(), &lower, &upper);
            prop_assert_eq!(w.status, c.status, "status diverged at step {}", step);
            prop_assert_eq!(w.iterations, c.iterations, "iterations diverged at step {}", step);
            if w.status == LpStatus::Optimal {
                prop_assert!(
                    (w.objective - c.objective).abs() <= 1e-7,
                    "objective diverged at step {}: {} vs {}",
                    step,
                    w.objective,
                    c.objective
                );
                // The factorisations themselves must agree: same basis,
                // same pivot order.
                prop_assert_eq!(warm.lu_pivot_rows(), cold.lu_pivot_rows());
                snaps.push(warm.snapshot());
            } else {
                snaps.pop();
                if snaps.is_empty() {
                    break;
                }
            }
            // Branch: tighten a random variable's box like B&B would.
            let v = (rnd() * nv as f64) as usize % nv;
            if rnd() < 0.5 {
                upper[v] = (upper[v] - 1.0).max(0.0);
            } else {
                lower[v] = (lower[v] + 1.0).min(upper[v]);
            }
        }
    }
}
