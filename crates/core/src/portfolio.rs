//! The portfolio engine: shared solve context, cross-member incumbent
//! pruning, per-worker scratch and per-member telemetry.
//!
//! The paper's headline heuristics are *portfolios* — METAGREEDY folds 49
//! greedy variants, METAVP 33 and METAHVP 253 packing strategies. The
//! engine runs those members through [`vmplace_par::portfolio_run`]
//! (dynamic distribution over workers that each own a reusable scratch
//! workspace) and threads a [`SolveCtx`] through the whole solve path:
//!
//! * a **shared incumbent** ([`vmplace_par::Incumbent`]): each member's
//!   binary search publishes every improved lower bound and abandons as
//!   soon as its upper bracket can no longer beat the best published pair
//!   `(yield, member index)`. Pruning is *result-invariant*: published
//!   values are lower bounds of final yields, so a member that could still
//!   win (or tie with priority) is never abandoned — the winner and its
//!   yield are identical whatever the thread count or scheduling;
//! * **per-worker scratch** ([`crate::vp::PackScratch`] and friends):
//!   yield-scaled item tables, memoised item orders and packing state are
//!   allocated once per worker and reused across all members it claims,
//!   so steady-state probes allocate nothing and members probing the same
//!   yield under the same item sort share one sort;
//! * a **budget/deadline**: an optional wall-clock budget after which
//!   members stop at the next probe boundary and the engine returns the
//!   best result found so far (best-effort anytime behaviour; determinism
//!   holds only for unbudgeted runs);
//! * **telemetry**: a [`PortfolioReport`] recording, per member, the
//!   outcome, searched yield, probe and pack counts and wall time, plus
//!   the winner.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::vp::PackScratch;

/// How a portfolio member ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberOutcome {
    /// Ran to completion with a feasible result.
    Solved,
    /// Could not satisfy the rigid requirements (infeasible at yield 0),
    /// or — for sampling members — the trial failed.
    Failed,
    /// Abandoned because the shared incumbent already dominated anything
    /// the member could still achieve.
    Pruned,
    /// Stopped at a probe boundary by the wall-clock budget.
    TimedOut,
    /// Never started: the budget had expired (or a lower-index member had
    /// already won) before the member was scheduled.
    Skipped,
}

/// Telemetry for one portfolio member.
#[derive(Clone, Debug)]
pub struct MemberReport {
    /// Index of the member within its roster.
    pub member: usize,
    /// How the member ended.
    pub outcome: MemberOutcome,
    /// The member's searched yield (binary-search lower bound), when it
    /// produced one before ending.
    pub searched_yield: Option<f64>,
    /// Number of packing probes (or placements/trials) attempted.
    pub probes: u32,
    /// Probes that actually ran a packing heuristic: a binary search
    /// answers probes above the instance's yield ceiling without packing.
    /// Equal to `probes` for members that do not search.
    pub packs: u32,
    /// Wall-clock time spent on this member.
    pub wall: Duration,
}

/// Telemetry for one engine run.
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// The algorithm that produced the report (e.g. `"METAHVP"`).
    pub algorithm: String,
    /// Cached member labels, indexed like [`MemberReport::member`].
    pub labels: Arc<Vec<String>>,
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Total wall-clock time of the engine run.
    pub wall: Duration,
    /// Winning member index, if any member produced a result.
    pub winner: Option<usize>,
    /// Per-member telemetry, in roster order.
    pub members: Vec<MemberReport>,
    /// The capacity bound `λ̂` of a binary-search portfolio (`None` on
    /// the other engines).
    pub lambda_hat: Option<f64>,
    /// The yield ceiling its probes were skipped above, `≤ λ̂`.
    pub ceiling: Option<f64>,
}

impl PortfolioReport {
    /// Label of member `i` (`"?"` when the roster did not cache labels).
    pub fn label_of(&self, member: usize) -> &str {
        self.labels.get(member).map(String::as_str).unwrap_or("?")
    }

    /// Label of the winning member, if any.
    pub fn winner_label(&self) -> Option<&str> {
        self.winner.map(|w| self.label_of(w))
    }

    /// Total packing probes (or trials) across all members.
    pub fn total_probes(&self) -> u64 {
        self.members.iter().map(|m| m.probes as u64).sum()
    }

    /// Total probes that ran a packing heuristic, across all members.
    pub fn total_packs(&self) -> u64 {
        self.members.iter().map(|m| m.packs as u64).sum()
    }

    /// Number of members with the given outcome.
    pub fn count(&self, outcome: MemberOutcome) -> usize {
        self.members.iter().filter(|m| m.outcome == outcome).count()
    }
}

/// The context threaded through every solve: thread count, incumbent
/// pruning switch, wall-clock budget and the report of the last portfolio
/// run. Reusing one context across solves also reuses its caller-side
/// packing scratch.
pub struct SolveCtx {
    threads: Option<usize>,
    budget: Option<Duration>,
    pruning: bool,
    warm_hint: Option<f64>,
    report: Option<PortfolioReport>,
    pub(crate) scratch: PackScratch,
    /// Long-lived per-worker packing workspaces: the portfolio engine tops
    /// this vector up to its worker count and reuses it across every solve
    /// that goes through the same context (the allocation service's
    /// resident workers keep one context alive for thousands of requests).
    pub(crate) workers: Vec<PackScratch>,
}

impl Default for SolveCtx {
    fn default() -> Self {
        SolveCtx::new()
    }
}

impl SolveCtx {
    /// A context with default settings: threads from
    /// [`vmplace_par::num_threads`], incumbent pruning on, no budget.
    pub fn new() -> SolveCtx {
        SolveCtx {
            threads: None,
            budget: None,
            pruning: true,
            warm_hint: None,
            report: None,
            scratch: PackScratch::new(),
            workers: Vec::new(),
        }
    }

    /// Overrides the worker thread count (1 = fully sequential fold).
    pub fn with_threads(mut self, threads: usize) -> SolveCtx {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets a wall-clock budget for each subsequent solve. Members stop at
    /// the next probe boundary once it expires and the best result found
    /// so far is returned (possibly none).
    pub fn with_budget(mut self, budget: Duration) -> SolveCtx {
        self.budget = Some(budget);
        self
    }

    /// Sets or clears the wall-clock budget in place (per-request budgets
    /// on a long-lived context).
    pub fn set_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// Sets the worker thread count in place (see
    /// [`SolveCtx::with_threads`]); `None` restores the default.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads.map(|t| t.max(1));
    }

    /// Enables or disables incumbent pruning (on by default; the off
    /// switch exists for differential testing and ablations).
    pub fn with_pruning(mut self, pruning: bool) -> SolveCtx {
        self.pruning = pruning;
        self
    }

    /// Worker threads the next portfolio run will use. Accounts for the
    /// nested-parallelism guard: inside a sweep worker the engine runs
    /// inline, and reports record that honestly.
    pub fn effective_threads(&self) -> usize {
        if vmplace_par::in_parallel_region() {
            return 1;
        }
        self.threads.unwrap_or_else(vmplace_par::num_threads)
    }

    /// Whether incumbent pruning is enabled.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Seeds the **next** solve's binary searches with a previously
    /// achieved yield (the allocation service passes the prior placement's
    /// achieved yield when re-solving after a workload delta). The hint is
    /// consumed by the solve; it narrows each member's initial bracket
    /// around the hint with two extra probes, which typically saves
    /// several bisection steps when the optimum moved only slightly.
    ///
    /// The hint changes each member's *probe sequence* (and hence the
    /// dyadic grid the search lands on) but is applied identically on
    /// every thread count, so engine determinism across 1 vs N threads is
    /// preserved.
    pub fn set_warm_hint(&mut self, hint: Option<f64>) {
        self.warm_hint = hint.filter(|h| h.is_finite());
    }

    /// Takes the pending warm hint (engine internals; consuming keeps a
    /// stale hint from leaking into an unrelated later solve).
    pub(crate) fn take_warm_hint(&mut self) -> Option<f64> {
        self.warm_hint.take()
    }

    /// The configured wall-clock budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// The deadline for a solve starting now.
    pub(crate) fn deadline_from_now(&self) -> Option<Instant> {
        self.budget.map(|b| Instant::now() + b)
    }

    /// Telemetry of the last portfolio run through this context, if any.
    pub fn last_report(&self) -> Option<&PortfolioReport> {
        self.report.as_ref()
    }

    /// Takes the telemetry of the last portfolio run out of the context.
    pub fn take_report(&mut self) -> Option<PortfolioReport> {
        self.report.take()
    }

    /// Stores the report of a finished portfolio run.
    pub(crate) fn set_report(&mut self, report: PortfolioReport) {
        self.report = Some(report);
    }
}

/// The engine's deterministic reduce: the highest-scoring candidate wins,
/// ties resolving to the lowest member index (`None` scores are not
/// candidates). Shared by every portfolio family so the tie-break can
/// never diverge between them.
pub(crate) fn best_member<I>(scores: I) -> Option<(usize, f64)>
where
    I: IntoIterator<Item = Option<f64>>,
{
    let mut winner: Option<(usize, f64)> = None;
    for (i, score) in scores.into_iter().enumerate() {
        if let Some(score) = score {
            if winner.map(|(_, best)| score > best).unwrap_or(true) {
                winner = Some((i, score));
            }
        }
    }
    winner
}
