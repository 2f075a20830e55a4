//! The independent one-shot reference path.
//!
//! [`replay_oneshot`] executes the *same request semantics* as a
//! [`crate::SolverPool`] replay, but the way a caller without this crate
//! would: a **fresh engine per request** (roster, context and — for the
//! exact path — simplex built from scratch every time) and instances
//! **rebuilt and fully re-validated** from their service lists instead of
//! mutated through [`vmplace_model::ProblemInstance::apply_delta`]'s
//! affected-services-only fast path.
//!
//! It exists for two reasons:
//!
//! * **correctness** — the differential suite pins pooled replays to this
//!   path bit-for-bit (same yields, placements, winners and outcomes on
//!   unbudgeted traces), which simultaneously validates stream sharding,
//!   the worker's per-stream record and its forget point, delta
//!   application and warm seeding;
//! * **measurement** — `vmplace replay --oneshot --no-warm` runs it as
//!   the cold baseline a caller without the service would pay.

use crate::repair::{try_repair, Repair};
use crate::worker::{ServiceConfig, WorkerEngine, REPAIR_WINNER};
use std::collections::HashMap;
use std::time::Instant;
use vmplace_model::{
    AllocRequest, AllocResponse, Placement, ProblemInstance, RequestKind, RequestOutcome,
    ResponsePolicy, Solution,
};

struct StreamChain {
    instance: ProblemInstance,
    last_solution: Option<Solution>,
}

impl StreamChain {
    /// The chain's current placement, when usable as a repair base (same
    /// guard as the pooled worker: complete and sized for the current
    /// instance).
    fn repair_base(&self) -> Option<&Placement> {
        self.last_solution
            .as_ref()
            .map(|s| &s.placement)
            .filter(|p| p.len() == self.instance.num_services() && p.is_complete())
    }
}

/// Replays `trace` with independent one-shot solves (see module docs).
/// Responses come back in request-id order, like
/// [`crate::SolverPool::replay`].
pub fn replay_oneshot(trace: Vec<AllocRequest>, config: &ServiceConfig) -> Vec<AllocResponse> {
    let mut streams: HashMap<u64, StreamChain> = HashMap::new();
    let mut responses = Vec::with_capacity(trace.len());

    for request in trace {
        let AllocRequest {
            id,
            stream,
            kind,
            budget,
            policy,
        } = request;

        // Mirror of the pooled worker: capture the previous placement —
        // remapped across the delta — before the chain moves on.
        let mut repair_base: Option<Placement> = None;
        let resolve = match kind {
            RequestKind::New(instance) => {
                streams.insert(
                    stream,
                    StreamChain {
                        instance,
                        last_solution: None,
                    },
                );
                false
            }
            RequestKind::Delta(delta) => {
                let Some(chain) = streams.get_mut(&stream) else {
                    responses.push(AllocResponse::rejected(
                        id,
                        stream,
                        "delta before New".into(),
                    ));
                    continue;
                };
                if !policy.is_exact() {
                    repair_base = chain.repair_base().map(|p| delta.remap_placement(p));
                }
                // Apply the delta, then rebuild the successor from its raw
                // parts with full validation — the "freshly-built" side of
                // the delta-vs-fresh differential.
                match chain
                    .instance
                    .apply_delta(&delta)
                    .and_then(|next| next.with_services(next.services().to_vec()))
                {
                    Ok(next) => chain.instance = next,
                    Err(e) => {
                        responses.push(AllocResponse::rejected(id, stream, e.to_string()));
                        continue;
                    }
                }
                false
            }
            RequestKind::Resolve => {
                let Some(chain) = streams.get(&stream) else {
                    responses.push(AllocResponse::rejected(
                        id,
                        stream,
                        "resolve before New".into(),
                    ));
                    continue;
                };
                if !policy.is_exact() {
                    repair_base = chain.repair_base().cloned();
                }
                true
            }
        };

        let budget = budget.or(config.default_budget);
        let chain = streams.get_mut(&stream).expect("chain exists");
        let hint = chain
            .last_solution
            .as_ref()
            .map(|s| s.min_yield)
            .filter(|_| config.warm_start);

        // The one-shot cost: everything is rebuilt for this one request.
        // The repair dispatch is byte-identical to the pooled worker's —
        // the differential suite pins the two paths to each other.
        let t0 = Instant::now();
        let repaired: Option<Repair> = match policy {
            ResponsePolicy::Exact => None,
            ResponsePolicy::Repaired {
                tolerance,
                max_migrations,
            } => repair_base.as_ref().and_then(|base| {
                try_repair(&chain.instance, base, tolerance, max_migrations, !resolve)
            }),
        };
        let (solution, winner, probes, timed_out, migrations) = match repaired {
            Some(r) => (
                Some(r.solution),
                Some(REPAIR_WINNER.to_string()),
                r.probes,
                false,
                Some(r.migrations),
            ),
            None => {
                let mut engine = WorkerEngine::build(config);
                // The one-shot reference is never instrumented: it is the
                // baseline the instrumented paths are differenced against.
                let (solution, winner, probes, timed_out) =
                    engine.solve(&chain.instance, stream, hint, budget, None);
                (solution, winner, probes, timed_out, None)
            }
        };
        let wall = t0.elapsed();

        if let Some(sol) = &solution {
            chain.last_solution = Some(sol.clone());
        }
        let outcome = match (&solution, timed_out) {
            (_, true) => RequestOutcome::TimedOut,
            (Some(_), false) => RequestOutcome::Solved,
            (None, false) => RequestOutcome::Infeasible,
        };
        responses.push(AllocResponse {
            id,
            stream,
            outcome,
            solution,
            winner,
            probes,
            wall,
            error: None,
            cached: false,
            migrations,
            retry_after: None,
        });
    }

    responses.sort_by_key(|r| r.id);
    responses
}
