//! The correctness oracle: tracks each stream's instance from the trace
//! alone, re-evaluates every claimed answer with the shared evaluator and
//! folds the answers into a digest that repeats across same-seed runs.
//!
//! Everything here runs outside the timed window. Inside it, the drivers
//! only reduce each response to an [`Answer`] — the fields the oracle
//! needs, a tenth of the size — so that a run's resident memory is the
//! program's, not the harness's.

use std::collections::BTreeMap;
use std::sync::Arc;
use vmplace_model::{
    evaluate_placement, AllocRequest, AllocResponse, Placement, ProblemInstance, RequestKind,
    RequestOutcome, Solution,
};

/// Largest accepted difference between a claimed minimum yield and the
/// evaluator's.
pub const YIELD_TOLERANCE: f64 = 1e-9;

/// What the oracle made of one op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// A feasible placement whose claimed minimum yield the evaluator
    /// confirms (the value).
    Solved(f64),
    /// A correct answer that carries no placement: the allocator found
    /// none (the paper's success-rate metric counts these; it is not a
    /// failure), or the op is an LP relaxation.
    NoPlacement,
    /// Errored, refused, shed, timed out, or rejected by the oracle.
    Failed,
}

/// A claimed solution: the minimum yield and the node of every service
/// (`u32::MAX`: unplaced).
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Claimed minimum yield.
    pub min_yield: f64,
    /// Node of each service.
    pub nodes: Vec<u32>,
}

impl Claim {
    /// The claim a solution makes.
    pub fn of(solution: &Solution) -> Claim {
        let p = &solution.placement;
        Claim {
            min_yield: solution.min_yield,
            nodes: (0..p.len())
                .map(|j| {
                    p.node_of(j)
                        .map_or(u32::MAX, |h| h.min(u32::MAX as usize - 1) as u32)
                })
                .collect(),
        }
    }

    /// Re-evaluates the claim against the instance it answers.
    pub fn check(&self, instance: &ProblemInstance) -> Verdict {
        let placement = Placement::from_assignment(
            self.nodes
                .iter()
                .map(|&h| (h != u32::MAX).then_some(h as usize))
                .collect(),
        );
        if placement.validate(instance).is_err() {
            return Verdict::Failed;
        }
        match evaluate_placement(instance, &placement) {
            Some(actual) if (actual.min_yield - self.min_yield).abs() <= YIELD_TOLERANCE => {
                Verdict::Solved(actual.min_yield)
            }
            _ => Verdict::Failed,
        }
    }
}

/// What the oracle keeps of one service response.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Echoed request id.
    pub id: u64,
    /// Echoed stream.
    pub stream: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Served from the response cache.
    pub cached: bool,
    /// Produced by the repair path.
    pub repaired: bool,
    /// Probes the response reports.
    pub probes: u64,
    /// The claimed solution. Consecutive identical claims on a stream
    /// share one allocation (see [`Answer::new`]).
    pub claim: Option<Arc<Claim>>,
}

impl Answer {
    /// Reduces a response. When its claim equals `previous` (the
    /// stream's last claim — a burst of cache hits repeats one answer
    /// thousands of times) the allocation is shared, which also lets the
    /// oracle reuse the verdict.
    pub fn new(response: &AllocResponse, previous: Option<&Arc<Claim>>) -> Answer {
        let claim = response.solution.as_ref().map(|s| {
            let claim = Claim::of(s);
            match previous {
                Some(p) if **p == claim => p.clone(),
                _ => Arc::new(claim),
            }
        });
        Answer {
            id: response.id,
            stream: response.stream,
            outcome: response.outcome,
            cached: response.cached,
            repaired: response.migrations.is_some(),
            probes: response.probes,
            claim,
        }
    }
}

/// Follows every stream of one trace by applying its `New` and `Delta`
/// requests, so each answer can be checked against the instance it was
/// computed for.
#[derive(Default)]
pub struct StreamTracker {
    instances: BTreeMap<u64, ProblemInstance>,
    /// Per stream, the last checked claim and its verdict; valid while
    /// the stream's instance is unchanged.
    checked: BTreeMap<u64, (Arc<Claim>, Verdict)>,
}

impl StreamTracker {
    /// A tracker with no streams.
    pub fn new() -> StreamTracker {
        StreamTracker::default()
    }

    /// Advances the request's stream and returns the instance the
    /// request must be answered for (`None`: the trace addresses a
    /// stream it never opened, or a delta does not apply).
    pub fn advance(&mut self, request: &AllocRequest) -> Option<&ProblemInstance> {
        match &request.kind {
            RequestKind::New(instance) => {
                self.instances.insert(request.stream, instance.clone());
                self.checked.remove(&request.stream);
            }
            RequestKind::Delta(delta) => {
                let next = self
                    .instances
                    .get(&request.stream)?
                    .apply_delta(delta)
                    .ok()?;
                self.instances.insert(request.stream, next);
                self.checked.remove(&request.stream);
            }
            RequestKind::Resolve => {}
        }
        self.instances.get(&request.stream)
    }

    /// Checks one answer against its request's tracked instance.
    pub fn check(&mut self, request: &AllocRequest, answer: &Answer) -> Verdict {
        if self.advance(request).is_none()
            || answer.id != request.id
            || answer.stream != request.stream
        {
            return Verdict::Failed;
        }
        match (answer.outcome, &answer.claim) {
            (RequestOutcome::Solved, Some(claim)) => {
                if let Some((seen, verdict)) = self.checked.get(&request.stream) {
                    if Arc::ptr_eq(seen, claim) {
                        return *verdict;
                    }
                }
                let verdict = claim.check(&self.instances[&request.stream]);
                self.checked
                    .insert(request.stream, (claim.clone(), verdict));
                verdict
            }
            (RequestOutcome::Infeasible, None) => Verdict::NoPlacement,
            _ => Verdict::Failed,
        }
    }
}

/// FNV-1a over the fields of every answer that must repeat across
/// same-seed runs: id, outcome, yield bits, placement.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in (a sub-digest, say).
    pub fn fold(&mut self, w: u64) {
        self.word(w);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one answer in: `id`, an outcome tag and the claim.
    pub fn answer(&mut self, id: u64, outcome: u64, claim: Option<&Claim>) {
        self.word(id);
        self.word(outcome);
        if let Some(c) = claim {
            self.word(c.min_yield.to_bits());
            for &h in &c.nodes {
                self.word(u64::from(h));
            }
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplace_model::Placement;
    use vmplace_service::{ServiceConfig, SolverPool};
    use vmplace_sim::TraceConfig;

    fn trace() -> Vec<AllocRequest> {
        TraceConfig {
            requests: 60,
            resolve_burst: 3,
            ..TraceConfig::default()
        }
        .generate(5)
    }

    /// The tracker, fed only the trace, must hold at every step the
    /// instance the pool solved: every pooled answer re-evaluates to its
    /// claimed yield on the tracked instance.
    #[test]
    fn tracker_follows_the_pools_stream_instances() {
        let trace = trace();
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let responses = pool.replay(trace.clone());
        assert_eq!(responses.len(), trace.len());
        let mut tracker = StreamTracker::new();
        let mut solved = 0;
        for (request, response) in trace.iter().zip(&responses) {
            match tracker.check(request, &Answer::new(response, None)) {
                Verdict::Solved(y) => {
                    solved += 1;
                    assert_eq!(y, response.solution.as_ref().unwrap().min_yield);
                }
                Verdict::NoPlacement => {}
                Verdict::Failed => panic!("oracle rejected pooled answer {}", request.id),
            }
        }
        assert!(solved > trace.len() / 2);
    }

    #[test]
    fn oracle_rejects_wrong_yields_placements_and_ids() {
        let trace = trace();
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let first = pool.replay(vec![trace[0].clone()]).remove(0);
        let check = |request: &AllocRequest, response: &AllocResponse| {
            StreamTracker::new().check(request, &Answer::new(response, None))
        };
        assert!(matches!(check(&trace[0], &first), Verdict::Solved(_)));

        let mut inflated = first.clone();
        inflated.solution.as_mut().unwrap().min_yield += 1e-6;
        assert_eq!(check(&trace[0], &inflated), Verdict::Failed);

        let mut short = first.clone();
        short.solution.as_mut().unwrap().placement = Placement::empty(3);
        assert_eq!(check(&trace[0], &short), Verdict::Failed);

        let mut out_of_range = first.clone();
        out_of_range
            .solution
            .as_mut()
            .unwrap()
            .placement
            .assign(0, 10_000);
        assert_eq!(check(&trace[0], &out_of_range), Verdict::Failed);

        let mut wrong_id = first.clone();
        wrong_id.id += 1;
        assert_eq!(check(&trace[0], &wrong_id), Verdict::Failed);

        // A delta on a stream the trace never opened cannot be checked.
        assert_eq!(check(&trace[10], &first), Verdict::Failed);
    }

    /// A burst of identical answers shares one claim and one verdict,
    /// until a delta changes the instance under it.
    #[test]
    fn repeated_claims_share_storage_and_verdicts() {
        let trace = trace();
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let first = pool.replay(vec![trace[0].clone()]).remove(0);
        let a = Answer::new(&first, None);
        let b = Answer::new(&first, a.claim.as_ref());
        assert!(Arc::ptr_eq(
            a.claim.as_ref().unwrap(),
            b.claim.as_ref().unwrap()
        ));
        let mut moved = first.clone();
        moved.solution.as_mut().unwrap().min_yield *= 0.5;
        let c = Answer::new(&moved, a.claim.as_ref());
        assert!(!Arc::ptr_eq(
            a.claim.as_ref().unwrap(),
            c.claim.as_ref().unwrap()
        ));

        let mut tracker = StreamTracker::new();
        let v = tracker.check(&trace[0], &a);
        assert!(matches!(v, Verdict::Solved(_)));
        let resolve = AllocRequest {
            kind: RequestKind::Resolve,
            ..trace[0].clone()
        };
        assert_eq!(tracker.check(&resolve, &b), v);
        assert_eq!(tracker.check(&resolve, &c), Verdict::Failed);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.answer(1, 0, None);
        a.answer(2, 0, None);
        b.answer(2, 0, None);
        b.answer(1, 0, None);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.answer(1, 0, None);
        c.answer(2, 0, None);
        assert_eq!(a.value(), c.value());
    }
}
