//! Differential property suites for the probe kernels.
//!
//! The probe kernels do their work once — Permutation-Pack tests every
//! (item, bin) pair about once, Best Fit keeps one score per bin, capacity
//! tables and bin orders are built once per solve, item orders once per
//! worker and yield — and every answer must stay bit-for-bit what the
//! plain kernels gave. The plain kernels live on here as the oracles.

use proptest::prelude::*;
use vmplace_core::vp::{
    BestFit, BinSort, FirstFit, ItemSort, PermutationPack, VpProblem, DEFAULT_RESOLUTION,
};
use vmplace_core::{Algorithm, EngineHandle, MetaVp, PackScratch, PackingHeuristic, SolveCtx};
use vmplace_model::{
    evaluate_placement, Node, Placement, ProblemInstance, Service, Solution, WorkloadDelta,
};

const LAMBDAS: [f64; 5] = [0.0, 0.17, 0.5, 0.83, 1.0];

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

/// A random instance with `dims` dimensions. Sizes sit on a coarse grid so
/// that equal sizes, equal keys and equal scores — the tie-breaks — occur
/// in most cases; capacities are sized so that packings both succeed and
/// fail across [`LAMBDAS`].
fn instance(dims: usize, bins: usize, items: usize, seed: u64) -> ProblemInstance {
    let mut rnd = stream(seed);
    let mut grid = |steps: f64, unit: f64| (rnd() * steps).floor() * unit;
    let fill = items as f64 / bins as f64;
    let nodes = (0..bins)
        .map(|_| {
            let agg: Vec<f64> = (0..dims)
                .map(|_| (0.2 + grid(5.0, 0.1)) * fill.max(1.0))
                .collect();
            let elem: Vec<f64> = agg.iter().map(|a| a * (0.5 + grid(2.0, 0.5))).collect();
            Node::new(elem, agg)
        })
        .collect();
    let services = (0..items)
        .map(|_| {
            let req: Vec<f64> = (0..dims).map(|_| grid(5.0, 0.05)).collect();
            let need: Vec<f64> = (0..dims).map(|_| grid(5.0, 0.1)).collect();
            let share = 0.5 + grid(2.0, 0.5);
            Service::new(
                req.iter().map(|r| r * share).collect::<Vec<_>>(),
                req,
                need.iter().map(|n| n * share).collect::<Vec<_>>(),
                need,
            )
        })
        .collect();
    ProblemInstance::new(nodes, services).expect("generated instance validates")
}

/// Strategy: `(dims, bins, items, seed)` within the sizes the suites use.
fn shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..=4, 1usize..=12, 1usize..=60, 0u64..u64::MAX)
}

/// The selection scan Permutation-Pack used before the class cursors:
/// every selection walks all unplaced items, tests each against the bin
/// and builds the key of each one that fits.
fn scan_permutation_pack(alg: &PermutationPack, vp: &VpProblem) -> Option<Placement> {
    let dims = vp.dims();
    let w = alg.window.clamp(1, dims);
    let mut loads = vec![0.0; vp.num_bins() * dims];
    let mut placement = Placement::empty(vp.num_items());
    let mut unplaced = alg.item_sort.order(vp);
    for h in alg.bin_sort.order(vp) {
        while !unplaced.is_empty() {
            let mut bin_perm: Vec<usize> = (0..dims).collect();
            let capacity = &vp.instance.nodes()[h].aggregate;
            bin_perm.sort_by(|&a, &b| {
                let (la, lb) = (loads[h * dims + a], loads[h * dims + b]);
                if alg.heterogeneous {
                    (capacity[b] - lb).partial_cmp(&(capacity[a] - la)).unwrap()
                } else {
                    la.partial_cmp(&lb).unwrap()
                }
                .then(a.cmp(&b))
            });
            let mut rank_of_dim = vec![0; dims];
            for (rank, &d) in bin_perm.iter().enumerate() {
                rank_of_dim[d] = rank;
            }
            let mut best: Option<(usize, Vec<usize>)> = None;
            for (pos, &j) in unplaced.iter().enumerate() {
                if !vp.fits(j, h, &loads) {
                    continue;
                }
                let sizes = vp.item_agg(j);
                let mut key: Vec<usize> = (0..dims).collect();
                key.sort_by(|&a, &b| sizes[b].partial_cmp(&sizes[a]).unwrap().then(a.cmp(&b)));
                for slot in key.iter_mut() {
                    *slot = rank_of_dim[*slot];
                }
                if alg.choose {
                    key[..w].sort_unstable();
                }
                if best.as_ref().map_or(true, |(_, b)| key[..w] < b[..w]) {
                    best = Some((pos, key));
                }
            }
            let Some((pos, _)) = best else {
                break;
            };
            let j = unplaced.remove(pos);
            vp.place(j, h, &mut loads);
            placement.assign(j, h);
        }
    }
    unplaced.is_empty().then_some(placement)
}

/// Best Fit with every bin's score rebuilt for every item.
fn rescoring_best_fit(alg: &BestFit, vp: &VpProblem) -> Option<Placement> {
    let dims = vp.dims();
    let mut loads = vec![0.0; vp.num_bins() * dims];
    let mut placement = Placement::empty(vp.num_items());
    for j in alg.item_sort.order(vp) {
        let mut best: Option<(usize, f64)> = None;
        for h in 0..vp.num_bins() {
            if !vp.fits(j, h, &loads) {
                continue;
            }
            let score = if alg.heterogeneous {
                let remaining: f64 = (0..dims)
                    .map(|d| vp.instance.nodes()[h].aggregate[d] - loads[h * dims + d])
                    .sum();
                -remaining
            } else {
                (0..dims).map(|d| loads[h * dims + d]).sum()
            };
            if best.map_or(true, |(_, s)| score > s) {
                best = Some((h, score));
            }
        }
        let (h, _) = best?;
        vp.place(j, h, &mut loads);
        placement.assign(j, h);
    }
    Some(placement)
}

/// A member's cold binary search with nothing shared: a new problem (own
/// tables) and a new scratch (empty memo) for every probe.
fn standalone_search(
    instance: &ProblemInstance,
    heuristic: &dyn PackingHeuristic,
) -> Option<(f64, Placement)> {
    let pack = |lambda: f64| heuristic.pack(&VpProblem::new(instance, lambda));
    let mut best = pack(0.0)?;
    if let Some(full) = pack(1.0) {
        return Some((1.0, full));
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > DEFAULT_RESOLUTION {
        let mid = 0.5 * (lo + hi);
        match pack(mid) {
            Some(p) => (lo, best) = (mid, p),
            None => hi = mid,
        }
    }
    Some((lo, best))
}

/// A roster mixing the three kernels over a few sorts, with repeated item
/// sorts so that members share item orders.
fn roster(seed: u64) -> Vec<Box<dyn PackingHeuristic>> {
    let mut rnd = stream(seed ^ 0x5eed);
    let mut pick = |n: usize| (rnd() * n as f64) as usize % n;
    let (items, bins) = (ItemSort::all(), BinSort::all());
    let mut out: Vec<Box<dyn PackingHeuristic>> = Vec::new();
    for _ in 0..3 {
        let item_sort = items[pick(items.len())];
        for _ in 0..2 {
            let bin_sort = bins[pick(bins.len())];
            out.push(Box::new(FirstFit {
                item_sort,
                bin_sort,
            }));
            out.push(Box::new(PermutationPack {
                item_sort,
                bin_sort,
                window: 1 + pick(4),
                choose: pick(2) == 1,
                heterogeneous: pick(2) == 1,
            }));
        }
        out.push(Box::new(BestFit {
            item_sort,
            heterogeneous: pick(2) == 1,
        }));
    }
    out
}

fn assert_same(a: &Option<Solution>, b: &Option<Solution>, what: &str) {
    match (a, b) {
        (Some(x), Some(y)) => {
            assert_eq!(x.min_yield, y.min_yield, "{what}: yields differ");
            assert_eq!(x.placement, y.placement, "{what}: placements differ");
        }
        (None, None) => {}
        _ => panic!("{what}: feasibility differs"),
    }
}

proptest! {
    // Each case runs every sort pair, window and variant at five yields —
    // some 10 000 packs against the quadratic scan.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Class-cursor Permutation-Pack ≡ the selection scan: same success
    /// flag, same placement, for every sort pair, window and variant.
    #[test]
    fn permutation_pack_matches_the_selection_scan((dims, bins, items, seed) in shape()) {
        let inst = instance(dims, bins, items, seed);
        let mut scratch = PackScratch::new();
        for lambda in LAMBDAS {
            let vp = VpProblem::new(&inst, lambda);
            for item_sort in ItemSort::all() {
                for bin_sort in BinSort::all() {
                    for window in 1..=dims {
                        for (choose, heterogeneous) in
                            [(false, false), (false, true), (true, false), (true, true)]
                        {
                            let alg = PermutationPack {
                                item_sort,
                                bin_sort,
                                window,
                                choose,
                                heterogeneous,
                            };
                            let expected = scan_permutation_pack(&alg, &vp);
                            let got = alg
                                .pack_with(&vp, &mut scratch)
                                .then(|| scratch.placement().clone());
                            prop_assert_eq!(
                                got, expected,
                                "{} at yield {} on shape {:?}",
                                alg.describe(), lambda, (dims, bins, items, seed)
                            );
                        }
                    }
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (d) Best Fit's cached per-bin score ≡ the score rebuilt per item.
    #[test]
    fn best_fit_matches_rescoring((dims, bins, items, seed) in shape()) {
        let inst = instance(dims, bins, items, seed);
        let mut scratch = PackScratch::new();
        for lambda in LAMBDAS {
            let vp = VpProblem::new(&inst, lambda);
            for item_sort in ItemSort::all() {
                for heterogeneous in [false, true] {
                    let alg = BestFit { item_sort, heterogeneous };
                    let expected = rescoring_best_fit(&alg, &vp);
                    let got = alg
                        .pack_with(&vp, &mut scratch)
                        .then(|| scratch.placement().clone());
                    prop_assert_eq!(
                        got, expected,
                        "{} at yield {} on shape {:?}",
                        alg.describe(), lambda, (dims, bins, items, seed)
                    );
                }
            }
        }
    }

    /// (b) One scratch carried through two instances, revisited yields and
    /// members sharing item sorts ≡ a fresh problem and scratch per pack.
    #[test]
    fn a_long_lived_scratch_matches_fresh_packs((dims, bins, items, seed) in shape()) {
        let insts = [
            instance(dims, bins, items, seed),
            instance(dims, bins, items, seed ^ 1),
        ];
        let members = roster(seed);
        let mut scratch = PackScratch::new();
        let mut problems = [VpProblem::new(&insts[0], 0.0), VpProblem::new(&insts[1], 0.0)];
        for round in 0..2 {
            for lambda in LAMBDAS {
                for (inst, vp) in insts.iter().zip(problems.iter_mut()) {
                    vp.retarget(lambda);
                    for member in &members {
                        let got = member
                            .pack_with(vp, &mut scratch)
                            .then(|| scratch.placement().clone());
                        let expected = member.pack(&VpProblem::new(inst, lambda));
                        prop_assert_eq!(
                            got, expected,
                            "{} at yield {} round {} on shape {:?}",
                            member.describe(), lambda, round, (dims, bins, items, seed)
                        );
                    }
                }
            }
        }
    }

    /// (b) The engine — tables shared by the roster, item orders memoised
    /// per worker — ≡ the best member of standalone searches, on one
    /// worker and on four.
    #[test]
    fn the_engine_matches_standalone_searches((dims, bins, items, seed) in shape()) {
        let inst = instance(dims, bins, items, seed);
        let meta = MetaVp::custom("ROSTER", roster(seed));
        let mut winner: Option<(f64, Placement)> = None;
        for member in meta.members() {
            if let Some((lo, placement)) = standalone_search(&inst, member) {
                if winner.as_ref().map_or(true, |(best, _)| lo > *best) {
                    winner = Some((lo, placement));
                }
            }
        }
        let expected = winner.and_then(|(_, placement)| evaluate_placement(&inst, &placement));
        for threads in [1, 4] {
            let mut ctx = SolveCtx::new().with_threads(threads);
            // Twice through one context: the second solve meets the first
            // one's memo entries under a new tables id.
            for pass in 0..2 {
                let got = meta.solve_with(&inst, &mut ctx);
                assert_same(&got, &expected, &format!(
                    "threads {threads} pass {pass} on shape {:?}", (dims, bins, items, seed)
                ));
            }
        }
    }

    /// (c) A handle that solved an instance, then meets the same variable
    /// changed in place, answers as a handle that never saw the old one.
    #[test]
    fn a_reused_handle_never_serves_a_stale_order((dims, bins, items, seed) in shape()) {
        let mut rnd = stream(seed ^ 0xde17a);
        for threads in [1, 4] {
            let mut inst = instance(dims, bins, items, seed);
            let mut used = EngineHandle::new(MetaVp::metahvp_light()).with_threads(threads);
            let before = used.solve(&inst, None);
            // Demand changes reorder the items at every yield but 0.
            let delta = WorkloadDelta {
                scale_need: (0..items).map(|j| (j, (rnd() * 4.0).floor() * 0.5)).collect(),
                ..WorkloadDelta::default()
            };
            inst = inst.apply_delta(&delta).expect("scaling validates");
            let hint = before.solution.as_ref().map(|s| s.min_yield);
            let mut fresh = EngineHandle::new(MetaVp::metahvp_light()).with_threads(threads);
            for hint in [hint, None] {
                let got = used.solve_with_hint(&inst, hint, None);
                let expected = fresh.solve_with_hint(&inst, hint, None);
                assert_same(&got.solution, &expected.solution, &format!(
                    "threads {threads} hint {hint:?} on shape {:?}", (dims, bins, items, seed)
                ));
                if threads == 1 {
                    prop_assert_eq!(got.probes(), expected.probes());
                }
            }
        }
    }
}
