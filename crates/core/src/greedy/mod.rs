//! The greedy algorithm family of §3.4 (imported from the authors' earlier
//! homogeneous-platform work \[3\]).
//!
//! A greedy algorithm is a pair *(service sorting strategy S1–S7, node
//! picking strategy P1–P7)*: services are considered in sorted order and
//! each is placed on the node chosen by the picker among those whose spare
//! capacity still covers the service's rigid requirements. Yields are then
//! computed by the shared water-filling evaluator. [`MetaGreedy`] races all
//! 49 combinations on the portfolio engine and keeps the best minimum
//! yield (ties to the lowest member index, so results are independent of
//! scheduling).

mod picking;
mod sorting;

pub use picking::NodePicker;
pub use sorting::ServiceSort;

use crate::algorithm::Algorithm;
use crate::portfolio::{MemberOutcome, MemberReport, PortfolioReport, SolveCtx};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vmplace_model::{
    evaluate_placement, Placement, ProblemInstance, ResourceVector, Solution, EPSILON,
};

/// One member of the greedy family: a (sorting, picking) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyAlgorithm {
    /// Service ordering strategy (S1–S7).
    pub sort: ServiceSort,
    /// Node selection strategy (P1–P7).
    pub pick: NodePicker,
}

/// Mutable platform state threaded through a greedy run.
pub(crate) struct GreedyState {
    /// Σ placed aggregate requirements per node (feasibility).
    pub req_load: Vec<ResourceVector>,
    /// Σ placed `rᵃ + nᵃ` per node (the "load" the pickers reason about).
    pub load: Vec<ResourceVector>,
}

impl GreedyState {
    fn reset(&mut self, instance: &ProblemInstance) {
        let dims = instance.dims();
        let zero = ResourceVector::zeros(dims);
        self.req_load.clear();
        self.req_load.resize(instance.num_nodes(), zero.clone());
        self.load.clear();
        self.load.resize(instance.num_nodes(), zero);
    }

    /// Whether service `j` can still be placed on node `h` (rigid
    /// requirements only — elementary and aggregate).
    pub fn fits(&self, instance: &ProblemInstance, j: usize, h: usize) -> bool {
        let s = &instance.services()[j];
        let n = &instance.nodes()[h];
        if !s.req_elem.le(&n.elementary, EPSILON) {
            return false;
        }
        for d in 0..instance.dims() {
            if self.req_load[h][d] + s.req_agg[d] > n.aggregate[d] + EPSILON {
                return false;
            }
        }
        true
    }

    fn place(&mut self, instance: &ProblemInstance, j: usize, h: usize) {
        let s = &instance.services()[j];
        self.req_load[h].add_assign(&s.req_agg);
        self.load[h].add_assign(&s.req_agg);
        self.load[h].add_assign(&s.need_agg);
    }
}

/// Reusable buffers for a greedy portfolio worker: platform state, the
/// service order and the output placement.
pub struct GreedyScratch {
    state: GreedyState,
    order: Vec<usize>,
    keys: Vec<f64>,
    placement: Placement,
}

impl Default for GreedyScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl GreedyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> GreedyScratch {
        GreedyScratch {
            state: GreedyState {
                req_load: Vec::new(),
                load: Vec::new(),
            },
            order: Vec::new(),
            keys: Vec::new(),
            placement: Placement::empty(0),
        }
    }

    /// The placement produced by the last successful
    /// [`GreedyAlgorithm::place_with`].
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

impl GreedyAlgorithm {
    /// All 49 members of the family, S-major order.
    pub fn all() -> Vec<GreedyAlgorithm> {
        let mut out = Vec::with_capacity(49);
        for sort in ServiceSort::ALL {
            for pick in NodePicker::ALL {
                out.push(GreedyAlgorithm { sort, pick });
            }
        }
        out
    }

    /// Index of this member within [`GreedyAlgorithm::all`] (S-major).
    fn index(&self) -> usize {
        let s = ServiceSort::ALL.iter().position(|x| x == &self.sort);
        let p = NodePicker::ALL.iter().position(|x| x == &self.pick);
        s.unwrap() * NodePicker::ALL.len() + p.unwrap()
    }

    /// Cached labels for all 49 members, in [`GreedyAlgorithm::all`] order.
    pub fn all_labels() -> &'static Arc<Vec<String>> {
        static LABELS: OnceLock<Arc<Vec<String>>> = OnceLock::new();
        LABELS.get_or_init(|| {
            Arc::new(
                GreedyAlgorithm::all()
                    .iter()
                    .map(|a| format!("GREEDY_{}_{}", a.sort.label(), a.pick.label()))
                    .collect(),
            )
        })
    }

    /// Runs the placement loop only (no yield evaluation); exposed for the
    /// meta algorithm and for tests.
    pub fn place(&self, instance: &ProblemInstance) -> Option<Placement> {
        let mut scratch = GreedyScratch::new();
        self.place_with(instance, &mut scratch)
            .then(|| std::mem::replace(&mut scratch.placement, Placement::empty(0)))
    }

    /// As [`GreedyAlgorithm::place`], using `scratch` for all working state
    /// (allocation-free once the buffers have grown to size). On success
    /// the placement is left in [`GreedyScratch::placement`].
    pub fn place_with(&self, instance: &ProblemInstance, scratch: &mut GreedyScratch) -> bool {
        self.sort
            .order_into(instance, &mut scratch.order, &mut scratch.keys);
        scratch.state.reset(instance);
        scratch.placement.reset(instance.num_services());
        for &j in &scratch.order {
            let Some(h) = self.pick.pick(instance, &scratch.state, j) else {
                return false;
            };
            scratch.state.place(instance, j, h);
            scratch.placement.assign(j, h);
        }
        true
    }
}

impl Algorithm for GreedyAlgorithm {
    fn name(&self) -> &str {
        &Self::all_labels()[self.index()]
    }

    fn solve_with(&self, instance: &ProblemInstance, _ctx: &mut SolveCtx) -> Option<Solution> {
        let placement = self.place(instance)?;
        evaluate_placement(instance, &placement)
    }
}

/// METAGREEDY: race all 49 greedy algorithms on the portfolio engine, keep
/// the best minimum yield among those that succeed.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetaGreedy;

impl Algorithm for MetaGreedy {
    fn name(&self) -> &str {
        "METAGREEDY"
    }

    fn solve_with(&self, instance: &ProblemInstance, ctx: &mut SolveCtx) -> Option<Solution> {
        let started = Instant::now();
        let threads = ctx.effective_threads();
        let deadline = ctx.deadline_from_now();
        let members = GreedyAlgorithm::all();

        struct Outcome {
            solution: Option<Solution>,
            outcome: MemberOutcome,
            wall: std::time::Duration,
        }

        let outcomes: Vec<Outcome> = vmplace_par::portfolio_run(
            members.len(),
            threads,
            GreedyScratch::new,
            |member, scratch: &mut GreedyScratch| {
                let t0 = Instant::now();
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Outcome {
                        solution: None,
                        outcome: MemberOutcome::TimedOut,
                        wall: t0.elapsed(),
                    };
                }
                // Greedy members place once — there is no probe sequence to
                // prune, and yields are only known after evaluation.
                let solution = members[member]
                    .place_with(instance, scratch)
                    .then(|| evaluate_placement(instance, &scratch.placement))
                    .flatten();
                Outcome {
                    outcome: if solution.is_some() {
                        MemberOutcome::Solved
                    } else {
                        MemberOutcome::Failed
                    },
                    solution,
                    wall: t0.elapsed(),
                }
            },
        );

        // Deterministic reduce: best evaluated minimum yield, ties to the
        // lowest member index.
        let winner = crate::portfolio::best_member(
            outcomes
                .iter()
                .map(|o| o.solution.as_ref().map(|s| s.min_yield)),
        );

        let member_reports: Vec<MemberReport> = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let probes = u32::from(o.outcome != MemberOutcome::TimedOut);
                MemberReport {
                    member: i,
                    outcome: o.outcome,
                    searched_yield: o.solution.as_ref().map(|s| s.min_yield),
                    probes,
                    packs: probes,
                    wall: o.wall,
                }
            })
            .collect();
        ctx.set_report(PortfolioReport {
            algorithm: "METAGREEDY".to_string(),
            labels: Arc::clone(GreedyAlgorithm::all_labels()),
            threads,
            wall: started.elapsed(),
            winner: winner.map(|(i, _)| i),
            members: member_reports,
            lambda_hat: None,
            ceiling: None,
        });

        let (index, _) = winner?;
        outcomes.into_iter().nth(index).and_then(|o| o.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplace_model::{Node, Service};

    fn two_node_instance() -> ProblemInstance {
        let nodes = vec![Node::multicore(4, 0.8, 1.0), Node::multicore(2, 1.0, 0.5)];
        let services = vec![
            Service::new(
                vec![0.5, 0.5],
                vec![1.0, 0.5],
                vec![0.5, 0.0],
                vec![1.0, 0.0],
            ),
            Service::rigid(vec![0.2, 0.4], vec![0.2, 0.4]),
        ];
        ProblemInstance::new(nodes, services).unwrap()
    }

    #[test]
    fn every_greedy_member_runs() {
        let inst = two_node_instance();
        let algs = GreedyAlgorithm::all();
        assert_eq!(algs.len(), 49);
        let mut successes = 0;
        for alg in algs {
            if let Some(sol) = alg.solve(&inst) {
                successes += 1;
                assert!(sol.min_yield >= 0.0 && sol.min_yield <= 1.0);
                assert!(sol.placement.is_complete());
            }
        }
        assert!(successes > 0, "at least some greedy variants must succeed");
    }

    #[test]
    fn metagreedy_at_least_as_good_as_each_member() {
        let inst = two_node_instance();
        let meta = MetaGreedy.solve(&inst).expect("feasible");
        for alg in GreedyAlgorithm::all() {
            if let Some(sol) = alg.solve(&inst) {
                assert!(
                    meta.min_yield >= sol.min_yield - 1e-12,
                    "METAGREEDY {} < {} ({})",
                    meta.min_yield,
                    sol.min_yield,
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn metagreedy_parallel_equals_sequential() {
        let inst = two_node_instance();
        let mut seq = SolveCtx::new().with_threads(1);
        let mut par = SolveCtx::new().with_threads(4);
        let a = MetaGreedy.solve_with(&inst, &mut seq).unwrap();
        let b = MetaGreedy.solve_with(&inst, &mut par).unwrap();
        assert_eq!(a.min_yield, b.min_yield);
        assert_eq!(a.placement, b.placement);
        assert_eq!(
            seq.take_report().unwrap().winner,
            par.take_report().unwrap().winner
        );
    }

    #[test]
    fn greedy_fails_when_memory_cannot_fit() {
        // Two services of 0.6 memory each; nodes have 0.5 and 1.0 total.
        let nodes = vec![Node::multicore(2, 1.0, 0.5), Node::multicore(2, 1.0, 1.0)];
        let svc = Service::rigid(vec![0.1, 0.6], vec![0.1, 0.6]);
        let inst = ProblemInstance::new(nodes, vec![svc.clone(), svc]).unwrap();
        // Only one node can hold one 0.6 service; the second service fails.
        for alg in GreedyAlgorithm::all() {
            assert!(alg.solve(&inst).is_none(), "{} should fail", alg.name());
        }
        assert!(MetaGreedy.solve(&inst).is_none());
    }

    #[test]
    fn names_are_distinct_and_borrowed() {
        let algs = GreedyAlgorithm::all();
        let names: std::collections::HashSet<&str> = algs.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 49);
        let g = GreedyAlgorithm {
            sort: ServiceSort::SumNeed,
            pick: NodePicker::MinLoadRatio,
        };
        assert_eq!(g.name(), "GREEDY_S3_P2");
    }
}
