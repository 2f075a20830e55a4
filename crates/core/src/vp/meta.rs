//! The META* combinations (§3.5.3–§3.5.5 and §5.1) on the portfolio
//! engine.
//!
//! Every member strategy runs its own binary search on yield; the portfolio
//! succeeds whenever *any* member does and reports the best searched yield,
//! so it necessarily performs at least as well as every member. Members
//! race across worker threads through [`vmplace_par::portfolio_run`],
//! publish every improved lower bound to a shared [`Incumbent`] and abandon
//! as soon as their remaining bracket cannot beat it — which on easy
//! instances (the roster's first member reaches yield 1) prunes the other
//! members before their first probe, and on hard instances collapses losing
//! searches to a couple of probes. Pruning is result-invariant: the winner
//! and its yield are identical to the sequential fold, whatever the thread
//! count (see the engine notes in [`crate::portfolio`]).

use super::{
    BestFit, BinSort, FirstFit, ItemSort, PackScratch, PackingHeuristic, PermutationPack,
    SortOrder, VectorMetric, VpProblem, VpTables, DEFAULT_RESOLUTION,
};
use crate::algorithm::Algorithm;
use crate::portfolio::{MemberOutcome, MemberReport, PortfolioReport, SolveCtx};
use crate::vp::binary_search::{search_member, MemberGuards, MemberRun};
use std::sync::Arc;
use std::time::Instant;
use vmplace_model::{evaluate_placement, Placement, ProblemInstance, Solution};
use vmplace_par::Incumbent;

/// A roster of packing heuristics, each lifted to a binary search on yield
/// and raced by the portfolio engine. Instantiate via [`MetaVp::metavp`],
/// [`MetaVp::metahvp`] or [`MetaVp::metahvp_light`].
pub struct MetaVp {
    label: String,
    heuristics: Vec<Box<dyn PackingHeuristic>>,
    labels: Arc<Vec<String>>,
    /// Execution schedule: `order[k]` is the roster index of the `k`-th
    /// member handed to a worker. Identity by default; see
    /// [`MetaVp::with_telemetry_order`]. Member *identity* (incumbent
    /// tie-break, reduce, reports) always uses roster indices, so the
    /// schedule affects probe counts only — never results.
    order: Vec<usize>,
    /// Binary-search resolution (the paper's 1e-4 by default).
    pub resolution: f64,
}

impl MetaVp {
    /// METAVP (§3.5.3): the homogeneous-platform roster — First Fit, Best
    /// Fit and Permutation Pack, each under all 11 item sortings
    /// (3 × 11 = 33 strategies). Bins keep their natural order (FF/PP) or
    /// BF's own load-based ranking.
    // The constructor deliberately carries the paper's algorithm name
    // (METAVP), which coincides with the type name.
    #[allow(clippy::self_named_constructors)]
    pub fn metavp() -> MetaVp {
        let mut hs: Vec<Box<dyn PackingHeuristic>> = Vec::with_capacity(33);
        for item in ItemSort::all() {
            hs.push(Box::new(FirstFit {
                item_sort: item,
                bin_sort: BinSort::NONE,
            }));
        }
        for item in ItemSort::all() {
            hs.push(Box::new(BestFit {
                item_sort: item,
                heterogeneous: false,
            }));
        }
        for item in ItemSort::all() {
            hs.push(Box::new(PermutationPack {
                item_sort: item,
                bin_sort: BinSort::NONE,
                window: usize::MAX, // clamped to D
                choose: false,
                heterogeneous: false,
            }));
        }
        Self::custom("METAVP", hs)
    }

    /// METAHVP (§3.5.5): the heterogeneous roster — FF and PP under all
    /// 11 item × 11 bin sortings, plus heterogeneous BF under the 11 item
    /// sortings: `11 + 2×11×11 = 253` strategies.
    pub fn metahvp() -> MetaVp {
        let items = ItemSort::all();
        let bins = BinSort::all();
        Self::hvp_roster("METAHVP", &items, &bins)
    }

    /// METAHVPLIGHT (§5.1): the engineered subset — item sortings
    /// descending by MAX, SUM, MAXDIFFERENCE and MAXRATIO; bin sortings
    /// ascending by LEX, MAX and SUM, descending by MAX, MAXDIFFERENCE and
    /// MAXRATIO, plus unsorted bins: `4 + 2×4×7 = 60` strategies, ~10×
    /// faster than METAHVP for near-identical quality.
    pub fn metahvp_light() -> MetaVp {
        let items: Vec<ItemSort> = [
            VectorMetric::Max,
            VectorMetric::Sum,
            VectorMetric::MaxDifference,
            VectorMetric::MaxRatio,
        ]
        .into_iter()
        .map(|m| ItemSort(Some((m, SortOrder::Descending))))
        .collect();
        let bins: Vec<BinSort> = vec![
            BinSort(Some((VectorMetric::Lex, SortOrder::Ascending))),
            BinSort(Some((VectorMetric::Max, SortOrder::Ascending))),
            BinSort(Some((VectorMetric::Sum, SortOrder::Ascending))),
            BinSort(Some((VectorMetric::Max, SortOrder::Descending))),
            BinSort(Some((VectorMetric::MaxDifference, SortOrder::Descending))),
            BinSort(Some((VectorMetric::MaxRatio, SortOrder::Descending))),
            BinSort::NONE,
        ];
        Self::hvp_roster("METAHVPLIGHT", &items, &bins)
    }

    fn hvp_roster(label: &str, items: &[ItemSort], bins: &[BinSort]) -> MetaVp {
        let mut hs: Vec<Box<dyn PackingHeuristic>> =
            Vec::with_capacity(items.len() * (1 + 2 * bins.len()));
        for &item in items {
            hs.push(Box::new(BestFit {
                item_sort: item,
                heterogeneous: true,
            }));
        }
        for &item in items {
            for &bin in bins {
                hs.push(Box::new(FirstFit {
                    item_sort: item,
                    bin_sort: bin,
                }));
            }
        }
        for &item in items {
            for &bin in bins {
                hs.push(Box::new(PermutationPack {
                    item_sort: item,
                    bin_sort: bin,
                    window: usize::MAX,
                    choose: false,
                    heterogeneous: true,
                }));
            }
        }
        Self::custom(label, hs)
    }

    /// Number of member strategies.
    pub fn len(&self) -> usize {
        self.heuristics.len()
    }

    /// Whether the roster is empty (never, for the stock constructors).
    pub fn is_empty(&self) -> bool {
        self.heuristics.is_empty()
    }

    /// Member heuristics (for diagnostics / ablation sweeps).
    pub fn members(&self) -> impl Iterator<Item = &dyn PackingHeuristic> {
        self.heuristics.iter().map(|h| h.as_ref())
    }

    /// Cached member labels, in roster order (computed once at
    /// construction; reports reference them without allocating).
    pub fn member_labels(&self) -> &Arc<Vec<String>> {
        &self.labels
    }

    /// Builds a custom roster.
    pub fn custom(label: &str, heuristics: Vec<Box<dyn PackingHeuristic>>) -> MetaVp {
        let labels: Arc<Vec<String>> = Arc::new(heuristics.iter().map(|h| h.describe()).collect());
        let order = (0..heuristics.len()).collect();
        MetaVp {
            label: label.to_string(),
            heuristics,
            labels,
            order,
            resolution: DEFAULT_RESOLUTION,
        }
    }

    /// Reschedules member execution by the static telemetry winner table
    /// (see [`crate::vp::ordering`]): likely winners run first, publishing
    /// a strong incumbent that prunes the rest of the roster early on hard
    /// instances. Results are identical to the natural order — only probe
    /// counts change.
    pub fn with_telemetry_order(self) -> MetaVp {
        let order = super::ordering::telemetry_execution_order(&self.labels);
        self.with_execution_order(order)
    }

    /// Sets an explicit execution schedule (`order[k]` = roster index of
    /// the `k`-th member to run). Must be a permutation of `0..len()`.
    pub fn with_execution_order(mut self, order: Vec<usize>) -> MetaVp {
        assert_eq!(order.len(), self.heuristics.len(), "schedule length");
        let mut seen = vec![false; order.len()];
        for &i in &order {
            assert!(i < seen.len() && !seen[i], "schedule is not a permutation");
            seen[i] = true;
        }
        self.order = order;
        self
    }

    /// The current execution schedule.
    pub fn execution_order(&self) -> &[usize] {
        &self.order
    }
}

impl PackingHeuristic for MetaVp {
    fn describe(&self) -> String {
        self.label.clone()
    }

    /// First member that packs the problem wins (the classic fold — kept
    /// for pipelines that pack at one fixed yield, e.g. feasibility
    /// screening and the error-mitigation experiments).
    fn pack_with(&self, vp: &VpProblem, scratch: &mut PackScratch) -> bool {
        self.heuristics.iter().any(|h| h.pack_with(vp, scratch))
    }
}

impl Algorithm for MetaVp {
    fn name(&self) -> &str {
        &self.label
    }

    /// Races every member's binary search on the portfolio engine; the
    /// winner is the highest searched yield (ties to the lowest roster
    /// index), re-scored by the shared water-filling evaluator.
    fn solve_with(&self, instance: &ProblemInstance, ctx: &mut SolveCtx) -> Option<Solution> {
        let started = Instant::now();
        let threads = ctx.effective_threads();
        let deadline = ctx.deadline_from_now();
        let pruning = ctx.pruning();
        let warm = ctx.take_warm_hint();
        let incumbent = Incumbent::new();
        let resolution = self.resolution;
        let order = &self.order;
        // Capacity tables and bin orders do not depend on the yield or on
        // the member: one set per solve.
        let tables = Arc::new(VpTables::new(instance));

        struct Outcome {
            member: usize,
            run: MemberRun,
            wall: std::time::Duration,
        }

        // Workers run members in schedule order but keep their roster
        // identity throughout (incumbent tie-break, reports, reduce), so
        // the schedule can only shift probe counts, never results. Worker
        // scratch comes from the context and survives across solves.
        let mut workers = std::mem::take(&mut ctx.workers);
        let scheduled: Vec<Outcome> = vmplace_par::portfolio_run_pooled(
            self.heuristics.len(),
            threads,
            &mut workers,
            PackScratch::new,
            |slot, scratch: &mut PackScratch| {
                let member = order[slot];
                let t0 = Instant::now();
                let mut vp = VpProblem::with_tables(
                    instance,
                    Arc::clone(&tables),
                    0.0,
                    std::mem::take(&mut scratch.vp_elem),
                    std::mem::take(&mut scratch.vp_agg),
                );
                let run = search_member(
                    &mut vp,
                    self.heuristics[member].as_ref(),
                    resolution,
                    scratch,
                    &MemberGuards {
                        incumbent: pruning.then_some((&incumbent, member)),
                        deadline,
                        warm,
                    },
                );
                (scratch.vp_elem, scratch.vp_agg) = vp.into_buffers();
                Outcome {
                    member,
                    run,
                    wall: t0.elapsed(),
                }
            },
        );
        ctx.workers = workers;

        // Back to roster order for the deterministic reduce.
        let mut outcomes: Vec<Option<Outcome>> = (0..scheduled.len()).map(|_| None).collect();
        for o in scheduled {
            let member = o.member;
            outcomes[member] = Some(o);
        }
        let outcomes: Vec<Outcome> = outcomes
            .into_iter()
            .map(|o| o.expect("schedule is a permutation"))
            .collect();

        // Deterministic reduce: highest searched yield wins, ties to the
        // lowest member index. Pruned members are strict losers by
        // construction and are not candidates.
        let winner = crate::portfolio::best_member(outcomes.iter().map(|o| {
            let candidate = match o.run.outcome {
                MemberOutcome::Solved => true,
                // Best-effort anytime result under a deadline.
                MemberOutcome::TimedOut => o.run.placement.is_some(),
                _ => false,
            };
            candidate.then_some(o.run.lo)
        }));

        let members: Vec<MemberReport> = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| MemberReport {
                member: i,
                outcome: o.run.outcome,
                searched_yield: o.run.placement.as_ref().map(|_| o.run.lo),
                probes: o.run.probes,
                packs: o.run.packs,
                wall: o.wall,
            })
            .collect();
        ctx.set_report(PortfolioReport {
            algorithm: self.label.clone(),
            labels: Arc::clone(&self.labels),
            threads,
            wall: started.elapsed(),
            winner: winner.map(|(i, _)| i),
            members,
            lambda_hat: Some(tables.lambda_hat),
            ceiling: Some(tables.ceiling),
        });

        let (index, _) = winner?;
        let placement: Placement = outcomes
            .into_iter()
            .nth(index)
            .and_then(|o| o.run.placement)
            .expect("winner carries a placement");
        evaluate_placement(instance, &placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::{small_hetero, tight_memory};
    use crate::vp::VpAlgorithm;

    #[test]
    fn roster_sizes_match_the_paper() {
        assert_eq!(MetaVp::metavp().len(), 33);
        assert_eq!(MetaVp::metahvp().len(), 253);
        assert_eq!(MetaVp::metahvp_light().len(), 60);
    }

    #[test]
    fn metahvp_dominates_every_member_on_small_instance() {
        let inst = small_hetero();
        let meta = MetaVp::metahvp_light();
        let meta_sol = meta.solve(&inst).expect("feasible");
        for (i, h) in meta.members().enumerate() {
            let member = VpAlgorithm::new(h);
            if let Some(sol) = member.solve(&inst) {
                assert!(
                    meta_sol.min_yield >= sol.min_yield - 1e-9,
                    "meta {} < member {} ({})",
                    meta_sol.min_yield,
                    sol.min_yield,
                    meta.member_labels()[i]
                );
            }
        }
    }

    #[test]
    fn metahvp_at_least_as_good_as_metavp() {
        for inst in [small_hetero(), tight_memory()] {
            let mv = MetaVp::metavp().solve(&inst);
            let mh = MetaVp::metahvp().solve(&inst);
            match (mv, mh) {
                (Some(a), Some(b)) => assert!(b.min_yield >= a.min_yield - 1e-4),
                (Some(_), None) => panic!("METAHVP failed where METAVP succeeded"),
                _ => {}
            }
        }
    }

    #[test]
    fn light_close_to_full_on_small_instances() {
        let inst = small_hetero();
        let full = MetaVp::metahvp().solve(&inst).unwrap();
        let light = MetaVp::metahvp_light().solve(&inst).unwrap();
        assert!((full.min_yield - light.min_yield).abs() < 0.05);
    }

    #[test]
    fn member_labels_are_unique_and_cached() {
        for meta in [MetaVp::metavp(), MetaVp::metahvp(), MetaVp::metahvp_light()] {
            let names: std::collections::HashSet<&str> =
                meta.member_labels().iter().map(String::as_str).collect();
            assert_eq!(names.len(), meta.len(), "{}", meta.label);
            // Labels agree with what the members would describe.
            for (i, h) in meta.members().enumerate() {
                assert_eq!(meta.member_labels()[i], h.describe());
            }
        }
    }

    #[test]
    fn engine_reports_winner_and_telemetry() {
        let inst = small_hetero();
        let meta = MetaVp::metahvp_light();
        let mut ctx = SolveCtx::new().with_threads(2);
        let sol = meta.solve_with(&inst, &mut ctx).expect("feasible");
        let report = ctx.take_report().expect("engine ran");
        assert_eq!(report.algorithm, "METAHVPLIGHT");
        assert_eq!(report.members.len(), 60);
        assert_eq!(report.threads, 2);
        let w = report.winner.expect("solved → winner");
        assert!(report.winner_label().is_some());
        let searched = report.members[w].searched_yield.expect("winner searched");
        // The evaluator can only improve on the searched bound.
        assert!(sol.min_yield >= searched - 1e-9);
        assert!(report.total_probes() > 0);
    }

    #[test]
    fn engine_is_deterministic_across_thread_counts() {
        for inst in [small_hetero(), tight_memory()] {
            let meta = MetaVp::metahvp_light();
            let mut sequential = SolveCtx::new().with_threads(1);
            let mut parallel = SolveCtx::new().with_threads(4);
            let a = meta.solve_with(&inst, &mut sequential);
            let b = meta.solve_with(&inst, &mut parallel);
            let (ra, rb) = (
                sequential.take_report().unwrap(),
                parallel.take_report().unwrap(),
            );
            assert_eq!(ra.winner, rb.winner);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.min_yield, y.min_yield);
                    assert_eq!(x.placement, y.placement);
                }
                (None, None) => {}
                _ => panic!("divergent feasibility"),
            }
        }
    }

    #[test]
    fn execution_order_is_result_invariant() {
        // Natural, telemetry and fully reversed schedules must produce the
        // same winner, yield and placement (member identity drives the
        // tie-break, not the schedule) at any thread count; only probe
        // counts may differ.
        for inst in [small_hetero(), tight_memory()] {
            for threads in [1, 4] {
                let natural = MetaVp::metahvp_light();
                let reversed_order: Vec<usize> = (0..natural.len()).rev().collect();
                let schedules = [
                    MetaVp::metahvp_light(),
                    MetaVp::metahvp_light().with_telemetry_order(),
                    MetaVp::metahvp_light().with_execution_order(reversed_order),
                ];
                let mut reference: Option<(Option<usize>, Option<(f64, _)>)> = None;
                for (k, meta) in schedules.into_iter().enumerate() {
                    let mut ctx = SolveCtx::new().with_threads(threads);
                    let sol = meta.solve_with(&inst, &mut ctx);
                    let report = ctx.take_report().unwrap();
                    let key = (report.winner, sol.map(|s| (s.min_yield, s.placement)));
                    match &reference {
                        None => reference = Some(key),
                        Some(r) => assert_eq!(r, &key, "schedule {k}, threads {threads}"),
                    }
                }
            }
        }
    }

    #[test]
    fn telemetry_order_front_loads_table_members() {
        let meta = MetaVp::metahvp_light().with_telemetry_order();
        let order = meta.execution_order();
        // The schedule is a permutation…
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..meta.len()).collect::<Vec<_>>());
        // …and every table-listed member runs before every unlisted one.
        let listed: Vec<bool> = order
            .iter()
            .map(|&i| {
                crate::vp::ordering::STATIC_WINNER_TABLE.contains(&meta.member_labels()[i].as_str())
            })
            .collect();
        let first_unlisted = listed.iter().position(|&l| !l).unwrap_or(listed.len());
        assert!(
            listed[first_unlisted..].iter().all(|&l| !l),
            "listed member scheduled after an unlisted one"
        );
    }
}
