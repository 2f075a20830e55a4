//! A reusable handle over one algorithm and one long-lived solve context.
//!
//! One-shot callers pay the full setup cost on every solve: roster
//! construction (boxing hundreds of member strategies and their labels),
//! packing scratch, and — for warm algorithms — a cold binary search from
//! `[0, 1]`. A long-lived allocation service amortises all of that by
//! keeping an [`EngineHandle`] per resident worker: the roster and the
//! context (with its per-worker packing workspaces) are built once, and
//! each warm re-solve seeds its binary searches from the previous
//! placement's achieved yield.

use crate::algorithm::Algorithm;
use crate::portfolio::{MemberOutcome, PortfolioReport, SolveCtx};
use crate::vp::MetaVp;
use std::time::{Duration, Instant};
use vmplace_model::{ProblemInstance, Solution};

/// The outcome of one [`EngineHandle`] solve.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The solution, `None` on failure (infeasible, or budget expired
    /// before any member produced a placement).
    pub solution: Option<Solution>,
    /// Portfolio telemetry, when the algorithm ran on the engine.
    pub report: Option<PortfolioReport>,
    /// Wall-clock time of the solve.
    pub wall: Duration,
}

impl EngineRun {
    /// Whether the solve was cut short by the wall-clock budget (a timed
    /// out run may still carry a best-effort solution). Only
    /// [`MemberOutcome::TimedOut`] counts: `Skipped` members are a normal
    /// result of a lower-index member winning first.
    pub fn timed_out(&self) -> bool {
        self.report
            .as_ref()
            .is_some_and(|r| r.count(MemberOutcome::TimedOut) > 0)
    }

    /// Total packing probes (or trials) spent, when telemetry exists.
    pub fn probes(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.total_probes())
    }

    /// Probes that ran a packing heuristic, when telemetry exists (see
    /// [`MemberReport::packs`](crate::MemberReport::packs)).
    pub fn packs(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.total_packs())
    }

    /// Label of the winning portfolio member, when telemetry exists.
    pub fn winner(&self) -> Option<&str> {
        self.report.as_ref().and_then(|r| r.winner_label())
    }
}

/// An algorithm bound to a long-lived [`SolveCtx`], tracking the last
/// achieved yield so that re-solves after small workload changes start
/// their binary searches near the previous optimum.
pub struct EngineHandle<A: Algorithm = MetaVp> {
    algorithm: A,
    ctx: SolveCtx,
    last_yield: Option<f64>,
}

impl<A: Algorithm> EngineHandle<A> {
    /// Wraps `algorithm` with a fresh context.
    pub fn new(algorithm: A) -> EngineHandle<A> {
        EngineHandle {
            algorithm,
            ctx: SolveCtx::new(),
            last_yield: None,
        }
    }

    /// Sets the engine's internal worker thread count (the allocation
    /// service runs its workers single-threaded by default — parallelism
    /// comes from request-level concurrency, not per-solve fan-out).
    pub fn with_threads(mut self, threads: usize) -> EngineHandle<A> {
        self.ctx.set_threads(Some(threads));
        self
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The handle's context (budget, pruning, telemetry of the last run).
    pub fn ctx_mut(&mut self) -> &mut SolveCtx {
        &mut self.ctx
    }

    /// The achieved minimum yield of the last successful solve, if any —
    /// the default warm hint for [`EngineHandle::resolve`].
    pub fn last_yield(&self) -> Option<f64> {
        self.last_yield
    }

    /// Forgets the warm state (e.g. when the stream switches to an
    /// unrelated instance).
    pub fn reset_warm_state(&mut self) {
        self.last_yield = None;
    }

    /// Cold solve: no warm hint (a brand-new instance).
    pub fn solve(&mut self, instance: &ProblemInstance, budget: Option<Duration>) -> EngineRun {
        self.solve_with_hint(instance, None, budget)
    }

    /// Warm re-solve: seeds the binary searches from the last achieved
    /// yield (after a workload delta, or a re-solve under a new budget).
    pub fn resolve(&mut self, instance: &ProblemInstance, budget: Option<Duration>) -> EngineRun {
        self.solve_with_hint(instance, self.last_yield, budget)
    }

    /// Solve with an explicit warm hint, updating the warm state from the
    /// result. The hint is applied identically whatever the thread count,
    /// so pooled and sequential replays stay bit-for-bit equal.
    pub fn solve_with_hint(
        &mut self,
        instance: &ProblemInstance,
        hint: Option<f64>,
        budget: Option<Duration>,
    ) -> EngineRun {
        self.ctx.set_budget(budget);
        self.ctx.set_warm_hint(hint);
        let t0 = Instant::now();
        let solution = self.algorithm.solve_with(instance, &mut self.ctx);
        let wall = t0.elapsed();
        // A failed solve keeps the previous warm state: the instance may
        // only be infeasible transiently (e.g. a burst of arrivals) and the
        // old yield remains the best available seed.
        if let Some(sol) = &solution {
            self.last_yield = Some(sol.min_yield);
        }
        self.ctx.set_warm_hint(None);
        EngineRun {
            solution,
            report: self.ctx.take_report(),
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::{small_hetero, tight_memory};

    #[test]
    fn handle_reuses_context_across_instances() {
        let mut engine = EngineHandle::new(MetaVp::metahvp_light()).with_threads(1);
        let a = engine.solve(&small_hetero(), None);
        assert!(a.solution.is_some());
        assert!(a.report.is_some());
        let first_yield = a.solution.unwrap().min_yield;
        assert_eq!(engine.last_yield(), Some(first_yield));

        let b = engine.solve(&tight_memory(), None);
        assert!(b.solution.is_some());
        assert!(b.probes() > 0);
    }

    #[test]
    fn warm_resolve_matches_cold_yield_on_unchanged_instance() {
        // Re-solving the *same* instance warm must land on (at least) the
        // same achieved yield: the hint window probes around the old
        // optimum and the evaluator re-scores the placement exactly.
        let inst = tight_memory();
        let mut engine = EngineHandle::new(MetaVp::metahvp_light()).with_threads(1);
        let cold = engine.solve(&inst, None);
        let cold_yield = cold.solution.as_ref().expect("feasible").min_yield;
        let warm = engine.resolve(&inst, None);
        let warm_yield = warm.solution.as_ref().expect("feasible").min_yield;
        assert!(
            warm_yield >= cold_yield - 1e-9,
            "warm {warm_yield} < cold {cold_yield}"
        );
        // And warm brackets cost fewer probes than the cold search.
        assert!(
            warm.probes() <= cold.probes(),
            "warm {} probes > cold {}",
            warm.probes(),
            cold.probes()
        );
    }

    #[test]
    fn warm_hint_is_thread_count_invariant() {
        let inst = tight_memory();
        let mut seq = EngineHandle::new(MetaVp::metahvp_light()).with_threads(1);
        let mut par = EngineHandle::new(MetaVp::metahvp_light()).with_threads(4);
        for round in 0..3 {
            let a = seq.resolve(&inst, None);
            let b = par.resolve(&inst, None);
            let (sa, sb) = (a.solution.unwrap(), b.solution.unwrap());
            assert_eq!(sa.min_yield, sb.min_yield, "round {round}");
            assert_eq!(sa.placement, sb.placement, "round {round}");
            assert_eq!(
                a.report.unwrap().winner,
                b.report.unwrap().winner,
                "round {round}"
            );
        }
    }
}
