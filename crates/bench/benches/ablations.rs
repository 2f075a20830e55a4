//! Ablations of three design choices of the vector-packing algorithms:
//!
//! * **METAHVPLIGHT subset** (§5.1 of the paper): full 253-strategy roster
//!   vs the 60-strategy subset on the same instance — the paper claims a
//!   ~10× speed-up at essentially equal quality;
//! * **binary-search resolution**: the paper's 1e-4 vs coarser/finer
//!   settings — time grows logarithmically, quality saturates;
//! * **Permutation-Pack window**: `w = 1` vs full `w = D`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vmplace_bench::{feasible_seed, paper_instance};
use vmplace_core::vp::{
    binary_search_yield, BinSort, ItemSort, PermutationPack, SortOrder, VectorMetric,
};
use vmplace_core::{Algorithm, MetaVp};

fn bench_light_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_light_vs_full");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let full = MetaVp::metahvp();
    let light = MetaVp::metahvp_light();
    let instance = paper_instance(250, feasible_seed(250));
    group.bench_function("METAHVP_250", |b| b.iter(|| full.solve(&instance)));
    group.bench_function("METAHVPLIGHT_250", |b| b.iter(|| light.solve(&instance)));
    group.finish();
}

fn bench_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bsearch_resolution");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let light = MetaVp::metahvp_light();
    let instance = paper_instance(250, feasible_seed(250));
    for &res in &[1e-2f64, 1e-4, 1e-6] {
        group.bench_with_input(BenchmarkId::from_parameter(res), &res, |b, &res| {
            b.iter(|| binary_search_yield(&instance, &light, res))
        });
    }
    group.finish();
}

fn bench_pp_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pp_window");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let instance = paper_instance(500, feasible_seed(500));
    for &w in &[1usize, 2] {
        let pp = PermutationPack {
            item_sort: ItemSort(Some((VectorMetric::Max, SortOrder::Descending))),
            bin_sort: BinSort(Some((VectorMetric::Sum, SortOrder::Ascending))),
            window: w,
            choose: false,
            heterogeneous: true,
        };
        group.bench_with_input(BenchmarkId::new("window", w), &w, |b, _| {
            b.iter(|| binary_search_yield(&instance, &pp, 1e-4))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_light_vs_full,
    bench_resolution,
    bench_pp_window
);
criterion_main!(benches);
