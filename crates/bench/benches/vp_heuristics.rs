//! Individual vector-packing heuristics at 64 hosts × {100, 250, 500}
//! services and a fixed yield, isolating heuristic cost from the binary
//! search. `vp_pack` is a cold `pack()` call (fresh scratch, items sorted);
//! `vp_probe` is what a portfolio member pays per probe in steady state:
//! `retarget` + `pack_with` on a warm scratch whose memo already holds the
//! item order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use vmplace_bench::paper_instance;
use vmplace_core::vp::{
    BestFit, BinSort, FirstFit, ItemSort, PackScratch, PackingHeuristic, PermutationPack,
    SortOrder, VectorMetric, VpProblem,
};

const SERVICES: [usize; 3] = [100, 250, 500];
const YIELD: f64 = 0.4;

fn heuristics() -> [(&'static str, Box<dyn PackingHeuristic>); 3] {
    let item_sort = ItemSort(Some((VectorMetric::Max, SortOrder::Descending)));
    let bin_sort = BinSort(Some((VectorMetric::Sum, SortOrder::Ascending)));
    [
        (
            "first_fit",
            Box::new(FirstFit {
                item_sort,
                bin_sort,
            }),
        ),
        (
            "best_fit",
            Box::new(BestFit {
                item_sort,
                heterogeneous: true,
            }),
        ),
        (
            "perm_pack",
            Box::new(PermutationPack {
                item_sort,
                bin_sort,
                window: usize::MAX,
                choose: false,
                heterogeneous: true,
            }),
        ),
    ]
}

fn bench_single_packs(c: &mut Criterion) {
    let mut group = c.benchmark_group("vp_pack");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    for services in SERVICES {
        let instance = paper_instance(services, 1);
        let vp = VpProblem::new(&instance, YIELD);
        for (name, heuristic) in heuristics() {
            group.bench_with_input(BenchmarkId::new(name, services), &vp, |b, vp| {
                b.iter(|| heuristic.pack(vp))
            });
        }
    }
    group.finish();
}

fn bench_steady_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("vp_probe");
    group
        .sample_size(200)
        .measurement_time(Duration::from_secs(5));
    for services in SERVICES {
        let instance = paper_instance(services, 1);
        let mut vp = VpProblem::new(&instance, 0.0);
        let mut scratch = PackScratch::new();
        for (name, heuristic) in heuristics() {
            group.bench_function(BenchmarkId::new(name, services), |b| {
                b.iter(|| {
                    vp.retarget(YIELD);
                    heuristic.pack_with(&vp, &mut scratch)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_single_packs, bench_steady_probes);
criterion_main!(benches);
