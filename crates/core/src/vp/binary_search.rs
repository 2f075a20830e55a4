//! The binary search on yield that turns any packing heuristic into a
//! minimum-yield maximiser (§3.5), plus the incumbent-aware member search
//! used by the portfolio engine.

use super::{PackScratch, PackingHeuristic, VpProblem};
use crate::algorithm::Algorithm;
use crate::portfolio::{MemberOutcome, SolveCtx};
use std::time::Instant;
use vmplace_model::{evaluate_placement, Placement, ProblemInstance, Solution};
use vmplace_par::Incumbent;

/// The paper's binary-search resolution (0.0001).
pub const DEFAULT_RESOLUTION: f64 = 1e-4;

/// Runs the binary search for the largest uniform yield at which
/// `heuristic` finds a packing. Returns `None` when even the rigid
/// requirements (`λ = 0`) cannot be packed.
///
/// The final placement is scored with the shared water-filling evaluator,
/// which can only improve on the search's lower bound (e.g. services capped
/// by elementary limits free aggregate capacity for the others).
pub fn binary_search_yield<H: PackingHeuristic + ?Sized>(
    instance: &ProblemInstance,
    heuristic: &H,
    resolution: f64,
) -> Option<Solution> {
    let best = binary_search_placement(instance, heuristic, resolution)?;
    evaluate_placement(instance, &best.1)
}

/// As [`binary_search_yield`] but returns the raw searched yield and
/// placement without re-evaluation (used by the error-mitigation pipeline,
/// which needs the *target* allocations computed from estimated needs).
pub fn binary_search_placement<H: PackingHeuristic + ?Sized>(
    instance: &ProblemInstance,
    heuristic: &H,
    resolution: f64,
) -> Option<(f64, Placement)> {
    let mut scratch = PackScratch::new();
    let mut vp = VpProblem::new(instance, 0.0);
    let run = search_member(
        &mut vp,
        heuristic,
        resolution,
        &mut scratch,
        &MemberGuards::unguarded(),
    );
    match run.outcome {
        MemberOutcome::Solved => Some((run.lo, run.placement?)),
        _ => None,
    }
}

/// Cross-member coordination for one engine run: the shared incumbent,
/// the optional deadline, and the optional warm-start hint.
/// [`MemberGuards::unguarded`] reproduces the plain standalone search.
pub(crate) struct MemberGuards<'a> {
    /// The shared incumbent, with this member's roster index; `None`
    /// disables pruning.
    pub incumbent: Option<(&'a Incumbent, usize)>,
    /// Wall-clock deadline checked at probe boundaries.
    pub deadline: Option<Instant>,
    /// Previously achieved yield used to seed the bisection bracket: the
    /// search probes a window of half-width [`WARM_WINDOW`] around the
    /// hint before bisecting, which collapses the bracket to `2·δ` when
    /// the new optimum stayed near the old one.
    pub warm: Option<f64>,
}

/// Half-width of the warm-start probing window around the hint. When the
/// optimum stayed inside the window, the two edge probes replace the λ = 0
/// and λ = 1 probes *and* shrink the initial bracket from `[0, 1]` to
/// `2 × WARM_WINDOW` — about `log₂(1 / (2·δ)) ≈ 6.6` bisection probes
/// saved on top of the two replaced ones. The width trades hit rate
/// against bracket size: re-solves and non-binding demand changes move
/// the optimum (much) less than 0.5%, the common case under service
/// traffic.
pub(crate) const WARM_WINDOW: f64 = 0.005;

impl MemberGuards<'static> {
    pub(crate) fn unguarded() -> Self {
        MemberGuards {
            incumbent: None,
            deadline: None,
            warm: None,
        }
    }
}

impl MemberGuards<'_> {
    fn dominated(&self, upper: f64) -> bool {
        match self.incumbent {
            Some((inc, member)) => inc.dominates(upper, member),
            None => false,
        }
    }

    fn publish(&self, lo: f64) {
        if let Some((inc, member)) = self.incumbent {
            inc.publish(lo, member);
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Result of one member's guarded binary search.
pub(crate) struct MemberRun {
    pub outcome: MemberOutcome,
    /// Best proven yield (valid when `placement` is set).
    pub lo: f64,
    /// Placement achieving `lo`, when any probe succeeded.
    pub placement: Option<Placement>,
    /// Probes of the search: every yield it asked about.
    pub probes: u32,
    /// Probes that ran the heuristic (those at or below the yield ceiling).
    pub packs: u32,
}

impl MemberRun {
    fn new<H: ?Sized>(
        outcome: MemberOutcome,
        lo: f64,
        placement: Option<Placement>,
        prober: &Prober<H>,
    ) -> MemberRun {
        MemberRun {
            outcome,
            lo,
            placement,
            probes: prober.probes,
            packs: prober.packs,
        }
    }

    fn ended<H: ?Sized>(outcome: MemberOutcome, prober: &Prober<H>) -> MemberRun {
        MemberRun::new(outcome, 0.0, None, prober)
    }
}

/// Runs one member's probes and counts them. A probe above the yield
/// ceiling counts but fails without packing: no placement passes the fit
/// test there, so the heuristic's answer is known.
struct Prober<'h, H: ?Sized> {
    heuristic: &'h H,
    ceiling: f64,
    probes: u32,
    packs: u32,
}

impl<H: PackingHeuristic + ?Sized> Prober<'_, H> {
    /// Whether the heuristic packs at `lambda`; on success the placement
    /// is in `scratch`.
    fn packs_at(&mut self, vp: &mut VpProblem, scratch: &mut PackScratch, lambda: f64) -> bool {
        self.probes += 1;
        if lambda > self.ceiling {
            return false;
        }
        self.packs += 1;
        if vp.lambda != lambda {
            vp.retarget(lambda);
        }
        self.heuristic.pack_with(vp, scratch)
    }
}

/// One member's binary search with incumbent pruning and deadline checks.
///
/// Probe sequence and bracket updates are *identical* to the standalone
/// search; the guards only ever (a) publish this member's monotonically
/// growing lower bound, and (b) abandon the member once the incumbent
/// strictly dominates its remaining bracket (see
/// [`Incumbent::dominates`]) — which can never affect the member that ends
/// up winning, so engine results are independent of scheduling. Probes
/// above the instance's yield ceiling fail without packing (see
/// [`VpProblem::ceiling`]), which changes no answer.
pub(crate) fn search_member<H: PackingHeuristic + ?Sized>(
    vp: &mut VpProblem,
    heuristic: &H,
    resolution: f64,
    scratch: &mut PackScratch,
    guards: &MemberGuards,
) -> MemberRun {
    let mut p = Prober {
        heuristic,
        ceiling: vp.ceiling(),
        probes: 0,
        packs: 0,
    };
    if guards.dominated(1.0) {
        return MemberRun::ended(MemberOutcome::Pruned, &p);
    }
    if guards.expired() {
        return MemberRun::ended(MemberOutcome::TimedOut, &p);
    }

    let warm = guards
        .warm
        .map(|h| h.clamp(0.0, 1.0))
        .filter(|&h| h > 0.0 && h < 1.0);

    let mut lo;
    let mut hi = 1.0f64;
    let mut best;

    if let Some(h) = warm {
        // Warm start: bracket the hint with two probes. The lower edge
        // goes first — its success simultaneously proves a yield of
        // `h − δ` *and* rigid-requirement feasibility, replacing the λ = 0
        // probe; when the upper edge then fails, the λ = 1 probe is
        // subsumed too and bisection starts from a `2·δ` bracket instead
        // of `[0, 1]`. When the optimum moved outside the window the
        // search degrades to a slightly offset cold bisection. Purely a
        // probe-sequence change: `lo` stays a proven yield and `hi` an
        // observed failure, identically on every thread count.
        let a = (h - WARM_WINDOW).max(0.0);
        if p.packs_at(vp, scratch, a) {
            best = scratch.take_placement();
            lo = a;
            if a > 0.0 {
                guards.publish(lo);
            }
            // Upper window edge (or λ = 1 when the hint sits next to it).
            let b = (h + WARM_WINDOW).min(1.0);
            if guards.dominated(hi) {
                return MemberRun::new(MemberOutcome::Pruned, lo, Some(best), &p);
            }
            if guards.expired() {
                return MemberRun::new(MemberOutcome::TimedOut, lo, Some(best), &p);
            }
            if p.packs_at(vp, scratch, b) {
                std::mem::swap(&mut best, &mut scratch.placement);
                lo = b;
                guards.publish(lo);
                if b >= 1.0 {
                    return MemberRun::new(MemberOutcome::Solved, 1.0, Some(best), &p);
                }
                // The yield improved past the window (e.g. departures
                // freed capacity): check the cheap λ = 1 probe before
                // bisecting `[b, 1]`.
                if !guards.expired() && p.packs_at(vp, scratch, 1.0) {
                    guards.publish(1.0);
                    let full = scratch.take_placement();
                    return MemberRun::new(MemberOutcome::Solved, 1.0, Some(full), &p);
                }
            } else {
                hi = b;
            }
        } else if a == 0.0 {
            // The window's lower edge *was* the rigid-requirement probe.
            return MemberRun::ended(MemberOutcome::Failed, &p);
        } else {
            // Window missed low: fall back to the rigid-requirement probe
            // and bisect `[0, h − δ)`.
            hi = a;
            if guards.expired() {
                return MemberRun::ended(MemberOutcome::TimedOut, &p);
            }
            if !p.packs_at(vp, scratch, 0.0) {
                return MemberRun::ended(MemberOutcome::Failed, &p);
            }
            best = scratch.take_placement();
            lo = 0.0;
        }
    } else {
        // Cold start. Feasibility of the rigid requirements (λ = 0):
        // infeasible members fail after this single probe, exactly like
        // the seed fold's first sweep.
        if !p.packs_at(vp, scratch, 0.0) {
            return MemberRun::ended(MemberOutcome::Failed, &p);
        }
        best = scratch.take_placement();
        lo = 0.0;

        // Cheap upper probe: many under-constrained instances pack at
        // yield 1 — and once any member publishes 1.0, every later member
        // is tie-pruned before doing any work at all.
        if !guards.expired() && p.packs_at(vp, scratch, 1.0) {
            guards.publish(1.0);
            let full = scratch.take_placement();
            return MemberRun::new(MemberOutcome::Solved, 1.0, Some(full), &p);
        }
    }

    while hi - lo > resolution {
        if guards.dominated(hi) {
            return MemberRun::new(MemberOutcome::Pruned, lo, Some(best), &p);
        }
        if guards.expired() {
            return MemberRun::new(MemberOutcome::TimedOut, lo, Some(best), &p);
        }
        let mid = 0.5 * (lo + hi);
        if p.packs_at(vp, scratch, mid) {
            // Keep the successful placement; the stale `best` buffer goes
            // back into the scratch for the next probe to overwrite.
            std::mem::swap(&mut best, &mut scratch.placement);
            lo = mid;
            guards.publish(lo);
        } else {
            hi = mid;
        }
    }
    MemberRun::new(MemberOutcome::Solved, lo, Some(best), &p)
}

/// A packing heuristic lifted to a full [`Algorithm`] via binary search.
pub struct VpAlgorithm<H> {
    /// The packing heuristic.
    pub heuristic: H,
    /// Binary-search resolution.
    pub resolution: f64,
    label: String,
}

impl<H: PackingHeuristic> VpAlgorithm<H> {
    /// Wraps `heuristic` with the paper's default resolution.
    pub fn new(heuristic: H) -> Self {
        Self::with_resolution(heuristic, DEFAULT_RESOLUTION)
    }

    /// Wraps `heuristic` with an explicit binary-search resolution.
    pub fn with_resolution(heuristic: H, resolution: f64) -> Self {
        let label = heuristic.describe();
        VpAlgorithm {
            heuristic,
            resolution,
            label,
        }
    }
}

impl<H: PackingHeuristic> Algorithm for VpAlgorithm<H> {
    fn name(&self) -> &str {
        &self.label
    }

    fn solve_with(&self, instance: &ProblemInstance, ctx: &mut SolveCtx) -> Option<Solution> {
        // Single member: reuse the context's caller-side scratch, honour
        // the deadline and warm hint, nothing to prune against.
        let deadline = ctx.deadline_from_now();
        let warm = ctx.take_warm_hint();
        let mut vp = VpProblem::with_buffers(
            instance,
            0.0,
            std::mem::take(&mut ctx.scratch.vp_elem),
            std::mem::take(&mut ctx.scratch.vp_agg),
        );
        let run = search_member(
            &mut vp,
            &self.heuristic,
            self.resolution,
            &mut ctx.scratch,
            &MemberGuards {
                incumbent: None,
                deadline,
                warm,
            },
        );
        (ctx.scratch.vp_elem, ctx.scratch.vp_agg) = vp.into_buffers();
        match run.outcome {
            MemberOutcome::Solved | MemberOutcome::TimedOut => {
                evaluate_placement(instance, &run.placement?)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp::test_support::{small_hetero, tight_memory};
    use crate::vp::{BinSort, FirstFit, ItemSort, SortOrder, VectorMetric};
    use vmplace_model::{Node, ProblemInstance, Service};

    fn ff() -> FirstFit {
        FirstFit {
            item_sort: ItemSort(Some((VectorMetric::Max, SortOrder::Descending))),
            bin_sort: BinSort::NONE,
        }
    }

    #[test]
    fn figure1_single_service_reaches_yield_one() {
        let nodes = vec![Node::multicore(4, 0.8, 1.0), Node::multicore(2, 1.0, 0.5)];
        let services = vec![Service::new(
            vec![0.5, 0.5],
            vec![1.0, 0.5],
            vec![0.5, 0.0],
            vec![1.0, 0.0],
        )];
        let inst = ProblemInstance::new(nodes, services).unwrap();
        let sol = binary_search_yield(&inst, &ff(), DEFAULT_RESOLUTION).unwrap();
        // First-fit at λ=1 needs elementary 1.0 → node B works; search finds 1.
        assert!((sol.min_yield - 1.0).abs() < 1e-9);
    }

    #[test]
    fn search_respects_resolution() {
        // A single node and service where the achievable yield is 0.37:
        // CPU capacity 0.5 aggregate; req 0.13, need 1.0 → λ* = 0.37.
        let nodes = vec![Node::multicore(1, 0.5, 1.0)];
        let services = vec![Service::new(
            vec![0.13, 0.1],
            vec![0.13, 0.1],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
        )];
        let inst = ProblemInstance::new(nodes, services).unwrap();
        let (lambda, _) = binary_search_placement(&inst, &ff(), 1e-4).unwrap();
        assert!((lambda - 0.37).abs() < 1e-3, "lambda = {lambda}");
        // And the evaluator recovers the exact value.
        let sol = binary_search_yield(&inst, &ff(), 1e-4).unwrap();
        assert!((sol.min_yield - 0.37).abs() < 1e-9, "{}", sol.min_yield);
    }

    #[test]
    fn evaluator_can_exceed_searched_lambda() {
        let inst = small_hetero();
        let (lambda, placement) = binary_search_placement(&inst, &ff(), 1e-4).unwrap();
        let sol = evaluate_placement(&inst, &placement).unwrap();
        assert!(sol.min_yield >= lambda - 1e-9);
    }

    #[test]
    fn infeasible_at_zero_returns_none() {
        let nodes = vec![Node::multicore(1, 0.5, 0.1)];
        let services = vec![Service::rigid(vec![0.1, 0.5], vec![0.1, 0.5])];
        let inst = ProblemInstance::new(nodes, services).unwrap();
        assert!(binary_search_yield(&inst, &ff(), 1e-4).is_none());
    }

    #[test]
    fn tight_instance_gets_partial_yield() {
        let inst = tight_memory();
        let sol = binary_search_yield(&inst, &ff(), 1e-4).unwrap();
        // Feasible at 0, infeasible at 1 → strictly between.
        assert!(
            sol.min_yield > 0.0 && sol.min_yield < 1.0,
            "{}",
            sol.min_yield
        );
    }

    #[test]
    fn guarded_search_matches_unguarded_when_incumbent_loses() {
        // An incumbent below everything this member achieves must not
        // change the searched yield or the probe count.
        let inst = tight_memory();
        let plain = binary_search_placement(&inst, &ff(), 1e-4).unwrap();

        let inc = Incumbent::new();
        inc.publish(0.01, 0); // weak incumbent from a lower-index member
        let mut scratch = PackScratch::new();
        let mut vp = VpProblem::new(&inst, 0.0);
        let run = search_member(
            &mut vp,
            &ff(),
            1e-4,
            &mut scratch,
            &MemberGuards {
                incumbent: Some((&inc, 5)),
                deadline: None,
                warm: None,
            },
        );
        assert_eq!(run.outcome, MemberOutcome::Solved);
        assert_eq!(run.lo, plain.0);
        assert_eq!(run.placement.unwrap(), plain.1);
    }

    #[test]
    fn dominating_incumbent_prunes_early() {
        let inst = tight_memory();
        // The true yield here is strictly below 1; an incumbent at 1.0 from
        // a lower-index member prunes without a single probe.
        let inc = Incumbent::new();
        inc.publish(1.0, 0);
        let mut scratch = PackScratch::new();
        let mut vp = VpProblem::new(&inst, 0.0);
        let run = search_member(
            &mut vp,
            &ff(),
            1e-4,
            &mut scratch,
            &MemberGuards {
                incumbent: Some((&inc, 3)),
                deadline: None,
                warm: None,
            },
        );
        assert_eq!(run.outcome, MemberOutcome::Pruned);
        assert_eq!(run.probes, 0);
    }

    #[test]
    fn expired_deadline_stops_before_work() {
        let inst = small_hetero();
        let mut scratch = PackScratch::new();
        let mut vp = VpProblem::new(&inst, 0.0);
        let run = search_member(
            &mut vp,
            &ff(),
            1e-4,
            &mut scratch,
            &MemberGuards {
                incumbent: None,
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                warm: None,
            },
        );
        assert_eq!(run.outcome, MemberOutcome::TimedOut);
        assert_eq!(run.probes, 0);
    }

    #[test]
    fn vp_algorithm_caches_its_label() {
        let alg = VpAlgorithm::new(ff());
        assert_eq!(alg.name(), "FF/MAX_DESC/NAT");
        let sol = alg.solve(&small_hetero()).unwrap();
        assert!(sol.min_yield > 0.0);
    }
}
