//! Factorisation kernels: cold vs warm (partial-prefix) factorise and
//! dense vs sparse-RHS transpose solves — the per-node costs the warm
//! partial refactorisation work targets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vmplace_lp::lu::{SolveScratch, SparseLu};

const N: usize = 200;
/// Off-diagonal entries per column (besides the dominant diagonal).
const COL_NNZ: usize = 6;

/// Deterministic sparse diagonally-dominant test matrix, stored densely for
/// trivial column extraction.
#[allow(clippy::needless_range_loop)] // `a[col][col]` / `a[row][col]` mirror matrix subscripts
fn test_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut a = vec![vec![0.0; n]; n];
    for col in 0..n {
        a[col][col] = 4.0 + rnd();
        for _ in 0..COL_NNZ {
            let row = (rnd() * n as f64) as usize % n;
            a[row][col] += rnd() - 0.5;
        }
    }
    a
}

fn column_of(a: &[Vec<f64>]) -> impl FnMut(usize, &mut Vec<(usize, f64)>) + '_ {
    move |j, buf| {
        for (row, col) in a.iter().enumerate() {
            if col[j] != 0.0 {
                buf.push((row, col[j]));
            }
        }
    }
}

fn bench_factorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_factorize");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let a = test_matrix(N, 1);
    // A "basis change" touching only the trailing columns: the simplex
    // refactorisation pattern partial reuse exploits.
    let mut b = a.clone();
    for col in b.iter_mut().take(N).skip(N - N / 8) {
        for v in col.iter_mut() {
            *v *= 1.5;
        }
    }
    let prev = SparseLu::factorize(N, column_of(&a)).unwrap();
    group.bench_function("cold", |bch| {
        bch.iter(|| SparseLu::factorize(N, column_of(&b)).unwrap())
    });
    group.bench_with_input(
        BenchmarkId::new("warm_prefix", format!("keep_{}", N - N / 8)),
        &prev,
        |bch, prev| {
            bch.iter(|| SparseLu::refactorize_from(prev, N - N / 8, column_of(&b)).unwrap())
        },
    );
    group.finish();
}

fn bench_btran(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_btran");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let a = test_matrix(N, 3);
    let lu = SparseLu::factorize(N, column_of(&a)).unwrap();
    // The pricing-loop shape: a right-hand side with 2 nonzeros.
    let pattern = [3usize, N / 2];

    group.bench_function("transpose_dense", |bch| {
        let mut cvec = vec![0.0; N];
        let mut y = vec![0.0; N];
        bch.iter(|| {
            cvec.fill(0.0);
            for &k in &pattern {
                cvec[k] = 1.0;
            }
            lu.solve_transpose(&mut cvec, &mut y);
            y[0]
        })
    });
    group.bench_function("transpose_sparse", |bch| {
        let mut cvec = vec![0.0; N];
        let mut y = vec![0.0; N];
        let mut y_pattern = Vec::new();
        let mut scratch = SolveScratch::default();
        bch.iter(|| {
            for &k in &pattern {
                cvec[k] = 1.0;
            }
            let r = {
                lu.solve_transpose_sparse(
                    &mut cvec,
                    &pattern,
                    &mut y,
                    &mut y_pattern,
                    &mut scratch,
                );
                y[pattern[0]]
            };
            for &k in &y_pattern {
                y[k] = 0.0;
            }
            y_pattern.clear();
            r
        })
    });
    group.finish();
}

criterion_group!(benches, bench_factorize, bench_btran);
criterion_main!(benches);
