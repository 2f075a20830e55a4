//! The yield ceiling (see [`VpTables`]), `λ̂` lowered by the fit-set check:
//!
//! * (a) admissibility: no METAHVP member packs at any yield above it,
//!   including on instances built to stress its rounding rules and on node
//!   classes whose fit sets nest and cross;
//! * (b) the ceiling-skipping member search ≡ a search that packs every
//!   probe, cold and warm, alone and on the engine at 1 and 4 threads;
//! * (c) a trivially infeasible instance costs the same probes and no packs;
//! * the ordering `ceiling ≥ MILP optimum ≥ every METAHVP member's yield`;
//! * (i) an instance where the check, not `λ̂`, gives the exact optimum,
//!   and one where a fit set carries the load of a set nested inside it;
//! * (ii) on node classes, the ceiling ≥ MILP optimum, and strictly below
//!   `λ̂` in ≥ 25% of cases;
//! * (iii) rigid services that overflow their only node cost no packs.

use super::binary_search::{search_member, MemberGuards, WARM_WINDOW};
use super::{
    MetaVp, PackScratch, PackingHeuristic, VpAlgorithm, VpProblem, VpTables, DEFAULT_RESOLUTION,
};
use crate::algorithm::Algorithm;
use crate::engine::EngineHandle;
use crate::exact::ExactMilp;
use crate::portfolio::{best_member, MemberOutcome, SolveCtx};
use proptest::prelude::*;
use std::cell::Cell;
use vmplace_model::{evaluate_placement, Node, Placement, ProblemInstance, Service, EPSILON};

/// Xorshift stream, so every instance is reproducible from its seed alone.
struct Draw(u64);

impl Draw {
    fn new(seed: u64) -> Draw {
        Draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) % n as u64) as usize
    }

    /// Uniform in `lo..=hi` tenths.
    fn tenths(&mut self, lo: usize, hi: usize) -> f64 {
        (lo + self.below(hi - lo + 1)) as f64 / 10.0
    }
}

/// A random instance with sizes on a 0.1 grid. `adversarial` adds the
/// cases the ceiling's rounding rules exist for: needs at or below `1e-6`,
/// a requirement at a capacity `± EPSILON`, and a dimension whose total
/// requirement equals its total capacity.
fn instance(
    seed: u64,
    dims: usize,
    bins: usize,
    items: usize,
    adversarial: bool,
) -> ProblemInstance {
    let mut draw = Draw::new(seed);
    let mut nodes: Vec<Node> = (0..bins)
        .map(|_| {
            let agg: Vec<f64> = (0..dims).map(|_| draw.tenths(3, 10)).collect();
            let elem = agg
                .iter()
                .map(|&a| draw.tenths(1, (a * 10.0) as usize))
                .collect::<Vec<_>>();
            Node::new(elem, agg)
        })
        .collect();
    let mut services: Vec<Service> = (0..items)
        .map(|_| {
            let (mut re, mut ra, mut ne, mut na) = (vec![], vec![], vec![], vec![]);
            for _ in 0..dims {
                ra.push(draw.tenths(0, 3));
                re.push(draw.tenths(0, (ra[ra.len() - 1] * 10.0) as usize));
                na.push(draw.tenths(0, 6));
                ne.push(draw.tenths(0, (na[na.len() - 1] * 10.0) as usize));
            }
            Service::new(re, ra, ne, na)
        })
        .collect();
    if adversarial {
        if draw.below(2) == 0 {
            let (j, d) = (draw.below(items), draw.below(dims));
            let need = [0.0, 5e-7, 1e-6, 2e-6][draw.below(4)];
            services[j].need_agg[d] = need;
            services[j].need_elem[d] = need * draw.below(2) as f64;
        }
        if draw.below(2) == 0 {
            let (j, h, d) = (draw.below(items), draw.below(bins), draw.below(dims));
            let off = (draw.below(3) as f64 - 1.0) * EPSILON;
            let s = &mut services[j];
            if draw.below(2) == 0 {
                s.req_elem[d] = nodes[h].elementary[d] + off;
                s.req_agg[d] = s.req_agg[d].max(s.req_elem[d]);
            } else {
                s.req_agg[d] = nodes[h].aggregate[d] + off;
                s.req_elem[d] = s.req_elem[d].min(s.req_agg[d]);
            }
        }
        if draw.below(2) == 0 {
            // Raise the smaller side until they are equal.
            let d = draw.below(dims);
            let capacity: f64 = nodes.iter().map(|n| n.aggregate[d]).sum();
            let req: f64 = services.iter().map(|s| s.req_agg[d]).sum();
            if capacity >= req {
                services[0].req_agg[d] += capacity - req;
            } else {
                nodes[0].aggregate[d] += req - capacity;
            }
        }
    }
    ProblemInstance::new(nodes, services).expect("generated instance validates")
}

fn ceiling(instance: &ProblemInstance) -> f64 {
    VpTables::new(instance).ceiling
}

/// Yields above `ceiling` to probe: the next few floats up, then a grid.
fn above(ceiling: f64) -> Vec<f64> {
    let mut lambdas: Vec<f64> = (0..=24).map(|k| f64::from(k) / 20.0).collect();
    if ceiling >= 0.0 {
        let next = f64::from_bits(ceiling.to_bits() + 1);
        lambdas.extend([next, ceiling + 1e-12, ceiling + 1e-9, ceiling + 1e-6]);
    }
    lambdas.retain(|&l| l > ceiling && l >= 0.0);
    lambdas
}

/// What one member search returns, in comparable form.
type Search = (MemberOutcome, f64, Option<Placement>, u32);

/// The member search of [`search_member`] (unguarded) with no ceiling:
/// every probe packs, on a fresh problem and scratch.
fn packing_every_probe(
    instance: &ProblemInstance,
    member: &dyn PackingHeuristic,
    warm: Option<f64>,
) -> Search {
    let probes = Cell::new(0u32);
    let pack = |lambda: f64| {
        probes.set(probes.get() + 1);
        member.pack(&VpProblem::new(instance, lambda))
    };
    let failed = || (MemberOutcome::Failed, 0.0, None, probes.get());
    let solved = |lo: f64, best: Placement| (MemberOutcome::Solved, lo, Some(best), probes.get());
    let mut hi = 1.0f64;
    let (mut lo, mut best);
    match warm
        .map(|h| h.clamp(0.0, 1.0))
        .filter(|&h| h > 0.0 && h < 1.0)
    {
        Some(h) => {
            let a = (h - WARM_WINDOW).max(0.0);
            if let Some(p) = pack(a) {
                (lo, best) = (a, p);
                let b = (h + WARM_WINDOW).min(1.0);
                match pack(b) {
                    Some(p) if b >= 1.0 => return solved(1.0, p),
                    Some(p) => {
                        (lo, best) = (b, p);
                        if let Some(full) = pack(1.0) {
                            return solved(1.0, full);
                        }
                    }
                    None => hi = b,
                }
            } else if a == 0.0 {
                return failed();
            } else {
                hi = a;
                let Some(p) = pack(0.0) else {
                    return failed();
                };
                (lo, best) = (0.0, p);
            }
        }
        None => {
            let Some(p) = pack(0.0) else {
                return failed();
            };
            (lo, best) = (0.0, p);
            if let Some(full) = pack(1.0) {
                return solved(1.0, full);
            }
        }
    }
    while hi - lo > DEFAULT_RESOLUTION {
        let mid = 0.5 * (lo + hi);
        match pack(mid) {
            Some(p) => (lo, best) = (mid, p),
            None => hi = mid,
        }
    }
    solved(lo, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) No METAHVP member packs at any yield above the ceiling.
    #[test]
    fn no_member_packs_above_the_ceiling(
        (dims, bins, items, seed) in (1usize..=3, 1usize..=4, 1usize..=8, 0u64..u64::MAX)
    ) {
        let inst = instance(seed, dims, bins, items, true);
        let ceiling = ceiling(&inst);
        let meta = MetaVp::metahvp();
        let mut scratch = PackScratch::new();
        for lambda in above(ceiling) {
            let vp = VpProblem::new(&inst, lambda);
            for (i, member) in meta.members().enumerate() {
                prop_assert!(
                    !member.pack_with(&vp, &mut scratch),
                    "{} packs at {lambda} above ceiling {ceiling} on {:?}",
                    meta.member_labels()[i], (dims, bins, items, seed)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (b) The ceiling-skipping search ≡ the search that packs every probe:
    /// per member alone, and on the engine at 1 and 4 threads, cold and
    /// warm (hint inside, above and below the window, and next to 0).
    #[test]
    fn skipping_probes_changes_no_answer(
        (dims, bins, items, seed) in (1usize..=3, 1usize..=6, 1usize..=16, 0u64..u64::MAX),
        adversarial in 0usize..2
    ) {
        let inst = instance(seed, dims, bins, items, adversarial == 1);
        let shape = (dims, bins, items, seed, adversarial);
        let meta = MetaVp::metahvp_light();
        let members: Vec<&dyn PackingHeuristic> = meta.members().collect();
        let cold: Vec<Search> = members
            .iter()
            .map(|m| packing_every_probe(&inst, *m, None))
            .collect();
        let found = best_member(cold.iter().map(|r| r.2.as_ref().map(|_| r.1)));
        let hints = [None, found.map(|(_, y)| y), Some(0.3), Some(0.9), Some(0.004)];
        let mut scratch = PackScratch::new();
        for warm in hints {
            let expected: Vec<Search> = members
                .iter()
                .map(|m| packing_every_probe(&inst, *m, warm))
                .collect();
            for (i, member) in members.iter().enumerate() {
                let mut vp = VpProblem::new(&inst, 0.0);
                let guards = MemberGuards { warm, ..MemberGuards::unguarded() };
                let run = search_member(&mut vp, *member, DEFAULT_RESOLUTION, &mut scratch, &guards);
                let got = (run.outcome, run.lo, run.placement, run.probes);
                prop_assert_eq!(&got, &expected[i], "member {} hint {:?} on {:?}", i, warm, shape);
                prop_assert!(run.packs <= run.probes);
            }
            let winner = best_member(expected.iter().map(|r| r.2.as_ref().map(|_| r.1)));
            let solution = winner
                .and_then(|(i, _)| evaluate_placement(&inst, expected[i].2.as_ref().unwrap()));
            for threads in [1, 4] {
                let mut ctx = SolveCtx::new().with_threads(threads).with_pruning(false);
                ctx.set_warm_hint(warm);
                let got = meta.solve_with(&inst, &mut ctx);
                let what = format!("threads {threads} hint {warm:?} on {shape:?}");
                prop_assert_eq!(
                    got.map(|s| (s.min_yield, s.placement)),
                    solution.clone().map(|s| (s.min_yield, s.placement)),
                    "{}", what
                );
                let report = ctx.take_report().unwrap();
                for (m, e) in report.members.iter().zip(&expected) {
                    prop_assert_eq!(
                        (m.outcome, m.searched_yield, m.probes),
                        (e.0, e.2.as_ref().map(|_| e.1), e.3),
                        "member {} {}", m.member, what
                    );
                }
            }
        }
    }
}

/// (c) An instance with a service that fits no host at all is answered
/// with the probes the search always made (one λ = 0 probe per member)
/// and without a single pack.
#[test]
fn a_trivially_infeasible_instance_costs_no_packs() {
    let nodes = vec![Node::multicore(4, 0.5, 1.0), Node::multicore(2, 0.8, 0.6)];
    let fits = Service::new(
        vec![0.2, 0.3],
        vec![0.4, 0.3],
        vec![0.1, 0.0],
        vec![0.2, 0.0],
    );
    let too_big = Service::rigid(vec![0.9, 0.1], vec![0.9, 0.1]);
    let inst = ProblemInstance::new(nodes, vec![fits, too_big]).unwrap();
    assert_eq!(ceiling(&inst), f64::NEG_INFINITY);

    let meta = MetaVp::metahvp();
    let before: u64 = meta
        .members()
        .map(|m| u64::from(packing_every_probe(&inst, m, None).3))
        .sum();
    for threads in [1, 4] {
        let mut engine = EngineHandle::new(MetaVp::metahvp()).with_threads(threads);
        let run = engine.solve(&inst, None);
        assert!(run.solution.is_none());
        assert_eq!(run.probes(), before);
        assert_eq!(before, meta.len() as u64);
        assert_eq!(run.packs(), 0);
        assert_eq!(run.report.unwrap().total_packs(), 0);
    }
}

/// The ceiling bounds the exact optimum, which bounds every heuristic:
/// `λ̂ ≥ MILP optimum ≥ every METAHVP member's yield`, to within `1e-6`.
#[test]
fn the_ceiling_bounds_the_optimum_which_bounds_every_member() {
    let meta = MetaVp::metahvp();
    let (mut optima, mut interior) = (0, 0);
    for seed in 0..200u64 {
        let mut draw = Draw::new(seed ^ 0xb0d);
        let (bins, items) = (1 + draw.below(3), 1 + draw.below(6));
        let inst = instance(seed, 2, bins, items, false);
        let ceiling = ceiling(&inst);
        let optimum = ExactMilp::default().solve(&inst).map(|s| s.min_yield);
        for (i, member) in meta.members().enumerate() {
            let got = VpAlgorithm::new(member).solve(&inst).map(|s| s.min_yield);
            let label = &meta.member_labels()[i];
            match (got, optimum) {
                (Some(y), Some(opt)) => {
                    assert!(y <= opt + 1e-6, "seed {seed}: {label} {y} > optimum {opt}")
                }
                (Some(y), None) => panic!("seed {seed}: {label} reaches {y}, MILP infeasible"),
                (None, _) => {}
            }
        }
        if let Some(opt) = optimum {
            assert!(
                ceiling >= opt - 1e-6,
                "seed {seed}: ceiling {ceiling} < optimum {opt}"
            );
            optima += 1;
            interior += usize::from(opt > 0.0 && opt < 1.0);
        }
    }
    // The instances must exercise the bound, not only infeasibility.
    assert!(
        optima >= 100 && interior >= 40,
        "{optima} feasible, {interior} interior"
    );
}

/// A random instance on two or three node classes, so that fit sets nest
/// and cross as the yield grows. Class 0 is node 0 alone, with elementary
/// capacity 1.0 in dimension 0, where no other class exceeds 0.6; every
/// third service requires more than 0.6 there, so it fits node 0 only. The
/// other classes share the remaining nodes and are drawn freely, so in two
/// or more dimensions a class can be the bigger one in one dimension and
/// the smaller in another. Loads at capacity ± `EPSILON`: half the
/// instances put a requirement on a class's elementary capacity, and half
/// put the node-0-only services' total requirement on node 0's aggregate
/// capacity.
fn classed_instance(seed: u64, dims: usize, bins: usize, items: usize) -> ProblemInstance {
    let mut draw = Draw::new(seed ^ 0xc1a55);
    let classes = 2 + draw.below(2);
    let profiles: Vec<Node> = (0..classes)
        .map(|c| {
            let elem: Vec<f64> = (0..dims)
                .map(|d| match (c, d) {
                    (0, 0) => 1.0,
                    (_, 0) => draw.tenths(2, 6),
                    _ => draw.tenths(2, 10),
                })
                .collect();
            let agg = elem
                .iter()
                .map(|&e| e + draw.tenths(2, 10))
                .collect::<Vec<_>>();
            Node::new(elem, agg)
        })
        .collect();
    let class = |h: usize| {
        if h == 0 {
            0
        } else {
            1 + (h - 1) % (classes - 1)
        }
    };
    let nodes: Vec<Node> = (0..bins).map(|h| profiles[class(h)].clone()).collect();
    let big = |j: usize| j % 3 == 0;
    let mut services: Vec<Service> = (0..items)
        .map(|j| {
            let (mut re, mut ra, mut ne, mut na) = (vec![], vec![], vec![], vec![]);
            for d in 0..dims {
                re.push(if big(j) && d == 0 {
                    draw.tenths(7, 8)
                } else {
                    draw.tenths(0, 3)
                });
                ra.push(re[d] + draw.tenths(0, 1));
                ne.push(draw.tenths(0, 6));
                na.push(ne[d] + draw.tenths(0, 2));
            }
            Service::new(re, ra, ne, na)
        })
        .collect();
    let off = (draw.below(3) as f64 - 1.0) * EPSILON;
    if draw.below(2) == 0 {
        let (j, c, d) = (draw.below(items), draw.below(classes), draw.below(dims));
        let s = &mut services[j];
        s.req_elem[d] = profiles[c].elementary[d] + off;
        s.req_agg[d] = s.req_agg[d].max(s.req_elem[d]);
    } else {
        let capacity = nodes[0].aggregate[0];
        let req: f64 = (0..items)
            .filter(|&j| big(j))
            .map(|j| services[j].req_agg[0])
            .sum();
        if req < capacity {
            services[0].req_agg[0] += capacity - req + off;
        }
    }
    ProblemInstance::new(nodes, services).expect("generated instance validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) and (ii) on nested and crossing fit sets: no METAHVP member packs at any
    /// yield above the ceiling.
    #[test]
    fn no_member_packs_above_the_fit_set_ceiling(
        (dims, bins, items, seed) in (1usize..=3, 2usize..=6, 2usize..=12, 0u64..u64::MAX)
    ) {
        let inst = classed_instance(seed, dims, bins, items);
        let ceiling = ceiling(&inst);
        let meta = MetaVp::metahvp();
        let mut scratch = PackScratch::new();
        for lambda in above(ceiling) {
            let vp = VpProblem::new(&inst, lambda);
            for (i, member) in meta.members().enumerate() {
                prop_assert!(
                    !member.pack_with(&vp, &mut scratch),
                    "{} packs at {lambda} above ceiling {ceiling} on {:?}",
                    meta.member_labels()[i], (dims, bins, items, seed)
                );
            }
        }
    }
}

/// (ii) On nested and crossing fit sets, the ceiling still bounds the exact
/// optimum, and it sits strictly below `λ̂` often enough that the fit-set
/// check, not `λ̂`, is what these instances test.
#[test]
fn on_node_classes_the_fit_set_ceiling_bounds_the_optimum_below_the_hat() {
    let (mut optima, mut below_hat, cases) = (0, 0, 200);
    for seed in 0..cases {
        let mut draw = Draw::new(seed ^ 0xf17);
        let (bins, items) = (2 + draw.below(3), 2 + draw.below(6));
        let inst = classed_instance(seed, 2, bins, items);
        let tables = VpTables::new(&inst);
        assert!(tables.ceiling <= tables.lambda_hat, "seed {seed}");
        below_hat += usize::from(tables.ceiling < tables.lambda_hat);
        if let Some(opt) = ExactMilp::default().solve(&inst).map(|s| s.min_yield) {
            assert!(
                tables.ceiling >= opt - 1e-6,
                "seed {seed}: ceiling {} < optimum {opt}",
                tables.ceiling
            );
            optima += 1;
        }
    }
    assert!(optima >= 50, "{optima} feasible of {cases}");
    assert!(
        4 * below_hat >= cases as usize,
        "{below_hat} of {cases} below λ̂"
    );
}

/// (i) Two services that fit node B only at low yields: `λ̂` is above 1,
/// but above yield 0.4 both fit only node A, which holds them up to 0.8.
#[test]
fn the_fit_set_ceiling_is_exact_where_capacity_is_not() {
    let nodes = vec![
        Node::new(vec![1.0], vec![1.0]),
        Node::new(vec![0.3], vec![1.0]),
    ];
    let svc = Service::new(vec![0.1], vec![0.1], vec![0.5], vec![0.5]);
    let inst = ProblemInstance::new(nodes, vec![svc.clone(), svc]).unwrap();
    let tables = VpTables::new(&inst);
    assert!(tables.lambda_hat >= 1.0, "λ̂ {}", tables.lambda_hat);
    assert!(
        (tables.ceiling - 0.8).abs() < 1e-6,
        "ceiling {}",
        tables.ceiling
    );
    let answer = MetaVp::metahvp().solve(&inst).unwrap().min_yield;
    assert!((answer - 0.8).abs() < 1e-4, "METAHVP {answer}");
}

/// Nested fit sets: a rigid service fits node A only, two growing ones fit
/// A and B. The set {A, B} must also carry the rigid service's load, which
/// caps the yield at 0.45 where each set alone would allow 0.8 (`λ̂`).
#[test]
fn a_fit_set_carries_the_load_of_the_sets_inside_it() {
    let nodes = vec![
        Node::new(vec![1.0], vec![1.0]),
        Node::new(vec![0.6], vec![1.0]),
        Node::new(vec![0.1], vec![1.0]),
    ];
    let grows = Service::new(vec![0.2], vec![0.2], vec![0.4], vec![1.0]);
    let services = vec![Service::rigid(vec![0.7], vec![0.7]), grows.clone(), grows];
    let inst = ProblemInstance::new(nodes, services).unwrap();
    let tables = VpTables::new(&inst);
    assert!(
        (tables.lambda_hat - 0.8).abs() < 1e-6,
        "λ̂ {}",
        tables.lambda_hat
    );
    assert!(
        (tables.ceiling - 0.45).abs() < 1e-6,
        "ceiling {}",
        tables.ceiling
    );
    let answer = MetaVp::metahvp().solve(&inst).unwrap().min_yield;
    assert!((answer - 0.3).abs() < 1e-4, "METAHVP {answer}");
}

/// (iii) Two rigid services that each fit node A only and together
/// overflow it: `λ̂` is unbounded, the fit-set check fails at `λ = 0`, and
/// the instance is answered with the probes of a search that packs every
/// probe and no pack at all.
#[test]
fn rigid_services_overflowing_their_only_node_cost_no_packs() {
    let nodes = vec![
        Node::new(vec![1.0], vec![1.0]),
        Node::new(vec![0.3], vec![1.0]),
    ];
    let rigid = Service::rigid(vec![0.6], vec![0.6]);
    let inst = ProblemInstance::new(nodes, vec![rigid.clone(), rigid]).unwrap();
    let tables = VpTables::new(&inst);
    assert_eq!(tables.lambda_hat, f64::INFINITY);
    assert_eq!(tables.ceiling, f64::NEG_INFINITY);

    let meta = MetaVp::metahvp();
    let before: u64 = meta
        .members()
        .map(|m| u64::from(packing_every_probe(&inst, m, None).3))
        .sum();
    for threads in [1, 4] {
        let mut engine = EngineHandle::new(MetaVp::metahvp()).with_threads(threads);
        let run = engine.solve(&inst, None);
        assert!(run.solution.is_none());
        assert_eq!(run.probes(), before);
        assert_eq!(run.packs(), 0);
        assert_eq!(run.report.unwrap().total_packs(), 0);
    }
}
