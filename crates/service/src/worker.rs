//! A resident solver worker: per-stream state plus long-lived engines.

use crate::fault::FaultPlan;
use crate::metrics::ServiceMetrics;
use crate::repair::{try_repair, Repair};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmplace_core::{Algorithm, EngineHandle, MetaGreedy, MetaVp, RandomizedRounding, SolveCtx};
use vmplace_lp::{MilpOptions, MilpSolver, YieldLp};
use vmplace_model::{
    AllocRequest, AllocResponse, Placement, ProblemInstance, RequestKind, RequestOutcome,
    ResponsePolicy, Solution,
};
use vmplace_obs::{Registry, Span};

/// Winner label carried by responses the incremental repair path
/// produced (see [`crate::repair`]).
pub const REPAIR_WINNER: &str = "REPAIR";

/// Which algorithm the service solves with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceAlgo {
    /// METAVP (33 homogeneous packing strategies).
    MetaVp,
    /// METAHVP (253 heterogeneous strategies).
    MetaHvp,
    /// METAHVPLIGHT (the engineered 60-strategy subset) — the default.
    MetaHvpLight,
    /// METAGREEDY (49 greedy variants; no warm seeding).
    MetaGreedy,
    /// RRNZ randomized rounding (LP relaxation + rounding; no warm
    /// seeding).
    Rrnz,
    /// Exact branch & bound on the paper's MILP (small instances; honours
    /// budgets through the node and simplex iteration loops).
    Milp,
}

impl ServiceAlgo {
    /// Parses the CLI spelling (`light`, `hvp`, `vp`, `greedy`, `rrnz`,
    /// `milp`).
    pub fn parse(s: &str) -> Option<ServiceAlgo> {
        match s.to_ascii_lowercase().as_str() {
            "vp" | "metavp" => Some(ServiceAlgo::MetaVp),
            "hvp" | "metahvp" => Some(ServiceAlgo::MetaHvp),
            "light" | "metahvplight" => Some(ServiceAlgo::MetaHvpLight),
            "greedy" | "metagreedy" => Some(ServiceAlgo::MetaGreedy),
            "rrnz" => Some(ServiceAlgo::Rrnz),
            "milp" => Some(ServiceAlgo::Milp),
            _ => None,
        }
    }

    /// The paper name.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceAlgo::MetaVp => "METAVP",
            ServiceAlgo::MetaHvp => "METAHVP",
            ServiceAlgo::MetaHvpLight => "METAHVPLIGHT",
            ServiceAlgo::MetaGreedy => "METAGREEDY",
            ServiceAlgo::Rrnz => "RRNZ",
            ServiceAlgo::Milp => "MILP",
        }
    }
}

/// Configuration of the allocation service.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of resident solver workers (streams are sharded across them
    /// by `stream % workers`).
    pub workers: usize,
    /// Worker threads *inside* each engine solve. The default of 1 is
    /// deliberate: a loaded service gets its parallelism from concurrent
    /// requests, not per-solve fan-out, and `workers × engine_threads`
    /// should not exceed the machine.
    pub engine_threads: usize,
    /// The algorithm every request is solved with.
    pub algo: ServiceAlgo,
    /// Default wall-clock budget for requests that carry none.
    pub default_budget: Option<Duration>,
    /// Seed each re-solve's binary searches from the stream's previously
    /// achieved yield (off reproduces the cold one-shot probe sequence).
    pub warm_start: bool,
    /// Schedule portfolio members by the telemetry winner table (probe
    /// counts only; results are unaffected).
    pub ordered_roster: bool,
    /// Answer identical re-solves (`Resolve` on an unchanged instance,
    /// same budget class, same warm hint) from the stream's stored answer
    /// instead of re-solving (see the crate docs, "Response cache").
    /// Cached responses are bit-for-bit equal to the uncached path and
    /// carry `AllocResponse::cached = true`.
    pub response_cache: bool,
    /// Overload control (`None` = unbounded queues, admit everything —
    /// the behaviour of every release before this field existed).
    pub overload: Option<OverloadControl>,
    /// Deterministic fault injection for chaos testing (`None` in
    /// production: no panics are injected and the plan is never
    /// consulted).
    pub faults: Option<FaultPlan>,
    /// Metrics registry the pool and workers record into: queue depth
    /// and wait, shed/panic/stale-stream counters, cache and repair
    /// outcomes, solve-stage latency histograms. `None` (the default)
    /// runs uninstrumented; recording is strictly off the result path,
    /// so responses are bit-for-bit identical either way (pinned by
    /// the differential suites).
    pub metrics: Option<Arc<Registry>>,
}

/// Overload-control knobs of the service (see
/// [`ServiceConfig::overload`]).
///
/// With a control configured, each worker's logical queue is bounded:
/// requests that would push the queue past `queue_depth` are *shed* —
/// answered immediately with [`RequestOutcome::Overloaded`] and a
/// `retry_after` hint sized from the worker's recent per-request
/// service time — and
/// with `shed_expired` on, requests whose wall-clock budget already
/// expired while queued are shed at dequeue instead of burning a solve
/// on an answer the client has stopped waiting for. Shedding a `New` or
/// `Delta` poisons its stream (the server-side state no longer matches
/// what the client believes), so the stream answers
/// `stale-stream` until the client re-sends `New` — the service never
/// silently answers against state the client didn't build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadControl {
    /// Most requests allowed in one worker's queue; submissions beyond it
    /// are shed.
    pub queue_depth: usize,
    /// Shed requests whose budget expired before the worker dequeued
    /// them (deadline-aware admission).
    pub shed_expired: bool,
}

impl Default for OverloadControl {
    fn default() -> Self {
        OverloadControl {
            queue_depth: 256,
            shed_expired: true,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: vmplace_par::num_threads(),
            engine_threads: 1,
            algo: ServiceAlgo::MetaHvpLight,
            default_budget: None,
            warm_start: true,
            ordered_roster: true,
            response_cache: true,
            overload: None,
            faults: None,
            metrics: None,
        }
    }
}

impl ServiceConfig {
    /// Builds the roster for the portfolio algorithms (respecting
    /// [`ServiceConfig::ordered_roster`]).
    fn roster(&self) -> Option<MetaVp> {
        let meta = match self.algo {
            ServiceAlgo::MetaVp => MetaVp::metavp(),
            ServiceAlgo::MetaHvp => MetaVp::metahvp(),
            ServiceAlgo::MetaHvpLight => MetaVp::metahvp_light(),
            _ => return None,
        };
        Some(if self.ordered_roster {
            meta.with_telemetry_order()
        } else {
            meta
        })
    }
}

/// One stream's record in its worker.
enum Slot {
    /// The stream is open.
    Live(Box<StreamState>),
    /// The stream's state was discarded (panic recovery, or a shed
    /// mutating request): it answers `stale-stream` until the client
    /// re-opens it with `New`.
    Stale,
}

/// Everything a worker keeps about one open stream.
struct StreamState {
    instance: ProblemInstance,
    /// Full solution of the stream's last solve that produced one: its
    /// minimum yield seeds the next solve's binary searches, and its
    /// placement is what the repair path keeps and patches.
    last_solution: Option<Solution>,
    /// The stream's latest stored `Resolve` answer and the key it was
    /// computed under (see the crate docs, "Response cache"). Dropped by
    /// [`Worker::forget`] on every mutation of the stream.
    answer: Option<(AnswerKey, AllocResponse)>,
}

impl StreamState {
    fn new(instance: ProblemInstance) -> StreamState {
        StreamState {
            instance,
            last_solution: None,
            answer: None,
        }
    }

    /// The stream's current placement, when it is a usable repair base:
    /// complete and sized for the *current* instance (a timed-out solve
    /// that returned nothing can leave `last_solution` one mutation
    /// behind — never repair from that).
    fn repair_base(&self) -> Option<&Placement> {
        self.last_solution
            .as_ref()
            .map(|s| &s.placement)
            .filter(|p| p.len() == self.instance.num_services() && p.is_complete())
    }

    /// The stored answer re-addressed to `id` and marked `cached`, when it
    /// was computed under `key`.
    fn cached_answer(&self, id: u64, key: &AnswerKey) -> Option<AllocResponse> {
        match &self.answer {
            Some((stored, response)) if stored == key => Some(AllocResponse {
                id,
                cached: true,
                wall: Duration::ZERO,
                ..response.clone()
            }),
            _ => None,
        }
    }

    /// Stores a freshly solved answer under `key`, replacing the previous
    /// one. Timed-out answers are a wall-clock race, not a function of
    /// the request, and the retryable outcomes are transient verdicts
    /// about the *service* (a panic, a shed, a poisoned stream): replaying
    /// one would repeat it after the condition cleared. Neither is stored.
    fn store_answer(&mut self, key: AnswerKey, response: &AllocResponse) {
        if response.outcome != RequestOutcome::TimedOut && !response.outcome.is_retryable() {
            self.answer = Some((key, response.clone()));
        }
    }
}

/// What a stored answer was computed under. A `Resolve` is answered from
/// the stream's stored answer only when its own key is equal, with float
/// fields compared bit for bit.
#[derive(Debug, PartialEq)]
struct AnswerKey {
    /// Effective wall-clock budget class, in microseconds (`None` =
    /// unbudgeted).
    budget_us: Option<u128>,
    /// Bits of the warm hint the solve consumed (`None` = no hint).
    hint_bits: Option<u64>,
    /// `None` for `Exact`; `(tolerance bits, max_migrations)` for
    /// `Repaired`.
    repaired: Option<(u64, usize)>,
    /// The placement a `Repaired` answer repaired from (`None` for
    /// `Exact`).
    base: Option<Placement>,
}

impl AnswerKey {
    fn new(
        budget: Option<Duration>,
        hint: Option<f64>,
        policy: ResponsePolicy,
        base: Option<&Placement>,
    ) -> AnswerKey {
        let (repaired, base) = match policy {
            ResponsePolicy::Exact => (None, None),
            ResponsePolicy::Repaired {
                tolerance,
                max_migrations,
            } => (Some((tolerance.to_bits(), max_migrations)), base.cloned()),
        };
        AnswerKey {
            budget_us: budget.map(|b| b.as_micros()),
            hint_bits: hint.map(f64::to_bits),
            repaired,
            base,
        }
    }
}

/// The exact path's persistent state: the built model and its warm
/// simplex for one stream's current instance ([`Worker::forget`] drops it
/// when that stream changes). Consecutive re-solves of an unchanged
/// instance skip both the model build and the solver assembly.
pub(crate) struct MilpCache {
    stream: u64,
    ylp: YieldLp,
    solver: MilpSolver,
}

pub(crate) enum WorkerEngine {
    Portfolio(EngineHandle<MetaVp>),
    Greedy(EngineHandle<MetaGreedy>),
    Rrnz(SolveCtx),
    Milp {
        options: MilpOptions,
        cache: Option<Box<MilpCache>>,
    },
}

impl WorkerEngine {
    /// Builds the engine for `config` — the expensive, once-per-worker
    /// step (roster construction, context, solver state).
    pub(crate) fn build(config: &ServiceConfig) -> WorkerEngine {
        match config.algo {
            ServiceAlgo::MetaGreedy => WorkerEngine::Greedy(
                EngineHandle::new(MetaGreedy).with_threads(config.engine_threads),
            ),
            ServiceAlgo::Rrnz => {
                let mut ctx = SolveCtx::new();
                ctx.set_threads(Some(config.engine_threads));
                WorkerEngine::Rrnz(ctx)
            }
            ServiceAlgo::Milp => WorkerEngine::Milp {
                options: MilpOptions::default(),
                cache: None,
            },
            _ => WorkerEngine::Portfolio(
                EngineHandle::new(config.roster().expect("portfolio algo"))
                    .with_threads(config.engine_threads),
            ),
        }
    }

    /// Whether this engine's solves actually consume the warm-yield hint
    /// (only the portfolio engines do; greedy, RRNZ and the MILP run
    /// hintless). The response cache keys on the *effective* hint, so
    /// hintless engines hit the cache regardless of the stream's warm
    /// state.
    pub(crate) fn uses_hint(&self) -> bool {
        matches!(self, WorkerEngine::Portfolio(_))
    }

    /// One solve: `(solution, winner label, probes, timed out)`. `stream`
    /// keys the exact path's model (and seeds the RRNZ trial RNG
    /// deterministically per stream).
    pub(crate) fn solve(
        &mut self,
        instance: &ProblemInstance,
        stream: u64,
        hint: Option<f64>,
        budget: Option<Duration>,
        metrics: Option<&ServiceMetrics>,
    ) -> (Option<Solution>, Option<String>, u64, bool) {
        match self {
            WorkerEngine::Portfolio(engine) => {
                let run = engine.solve_with_hint(instance, hint, budget);
                let winner = run.winner().map(str::to_string);
                let probes = run.probes();
                let timed_out = run.timed_out();
                (run.solution, winner, probes, timed_out)
            }
            WorkerEngine::Greedy(engine) => {
                let run = engine.solve_with_hint(instance, None, budget);
                let winner = run.winner().map(str::to_string);
                let probes = run.probes();
                let timed_out = run.timed_out();
                (run.solution, winner, probes, timed_out)
            }
            WorkerEngine::Rrnz(ctx) => {
                ctx.set_budget(budget);
                // The trial seed is the stream id: deterministic per
                // stream, independent of the worker that hosts it.
                let solution = RandomizedRounding::rrnz(stream).solve_with(instance, ctx);
                let (winner, probes, timed_out) = ctx
                    .take_report()
                    .map(|r| {
                        (
                            r.winner_label().map(str::to_string),
                            r.total_probes(),
                            r.count(vmplace_core::MemberOutcome::TimedOut) > 0,
                        )
                    })
                    .unwrap_or((None, 0, false));
                (solution, winner, probes, timed_out)
            }
            WorkerEngine::Milp { options, cache } => {
                solve_milp_cached(options, cache, stream, instance, budget, metrics)
            }
        }
    }
}

/// A resident solver worker: owns one long-lived engine (roster, packing
/// workspaces, persistent simplex) and one record per stream routed to
/// it. Drive it directly for a single-threaded service, or through
/// [`crate::SolverPool`] for a resident thread per worker.
pub struct Worker {
    config: ServiceConfig,
    engine: WorkerEngine,
    streams: HashMap<u64, Slot>,
    /// Response-cache lookups answered from a stored answer.
    cache_hits: u64,
    /// Response-cache lookups that fell through to a real solve.
    cache_misses: u64,
    /// Metric handles into [`ServiceConfig::metrics`] (`None` when
    /// uninstrumented). Recording never affects a response.
    metrics: Option<ServiceMetrics>,
}

impl Worker {
    /// Builds a worker for `config`.
    pub fn new(config: &ServiceConfig) -> Worker {
        Worker {
            config: config.clone(),
            engine: WorkerEngine::build(config),
            streams: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            metrics: ServiceMetrics::from_config(config),
        }
    }

    /// Processes one request against this worker's stream states.
    pub fn process(&mut self, request: AllocRequest) -> AllocResponse {
        let AllocRequest {
            id,
            stream,
            kind,
            budget,
            policy,
        } = request;
        if let Some(m) = &self.metrics {
            m.requests.inc();
        }

        // Injected solver crash (chaos testing only; `faults` is `None`
        // in production). Placed before any state update so the poisoned
        // set the supervisor discards is exactly what a real mid-solve
        // panic could have left half-written.
        if let Some(plan) = &self.config.faults {
            if plan.panics_on(id) {
                panic!("{}", FaultPlan::panic_message(id));
            }
        }

        // Update the stream state first; solve against the updated
        // instance. For the repaired policy, capture the previous
        // placement — remapped across the delta — *before* the stream
        // state moves on.
        let mut repair_base: Option<Placement> = None;
        let resolve = match (kind, self.streams.get_mut(&stream)) {
            (RequestKind::New(instance), _) => {
                // `New` replaces the record wholesale, so it (and only it)
                // re-opens a stale stream.
                self.forget(stream);
                self.streams
                    .insert(stream, Slot::Live(Box::new(StreamState::new(instance))));
                false
            }
            // A stale stream answers `stale-stream` until the client
            // re-opens it: the server-side state no longer matches the
            // client's view, and silently solving against it would
            // return confidently wrong answers.
            (_, Some(Slot::Stale)) => {
                if let Some(m) = &self.metrics {
                    m.stale.inc();
                }
                return AllocResponse::stale_stream(id, stream);
            }
            (RequestKind::Delta(_), None) => {
                return AllocResponse::rejected(id, stream, "delta before New".into());
            }
            (RequestKind::Resolve, None) => {
                return AllocResponse::rejected(id, stream, "resolve before New".into());
            }
            (RequestKind::Delta(delta), Some(Slot::Live(state))) => {
                if !policy.is_exact() {
                    repair_base = state.repair_base().map(|p| delta.remap_placement(p));
                }
                match state.instance.apply_delta(&delta) {
                    Ok(next) => state.instance = next,
                    Err(e) => return AllocResponse::rejected(id, stream, e.to_string()),
                }
                self.forget(stream);
                false
            }
            (RequestKind::Resolve, Some(Slot::Live(state))) => {
                if !policy.is_exact() {
                    repair_base = state.repair_base().cloned();
                }
                true
            }
        };

        let Some(Slot::Live(state)) = self.streams.get_mut(&stream) else {
            unreachable!("the stream was just opened or found live");
        };
        // The answer key takes the hint the engine will actually consume:
        // hintless engines (greedy, RRNZ, MILP) cache independently of
        // the stream's warm state.
        let hint = state
            .last_solution
            .as_ref()
            .map(|s| s.min_yield)
            .filter(|_| self.config.warm_start && self.engine.uses_hint());
        let budget = budget.or(self.config.default_budget);
        let key = (resolve && self.config.response_cache)
            .then(|| AnswerKey::new(budget, hint, policy, repair_base.as_ref()));

        if let Some(key) = &key {
            let lookup_span = self.metrics.as_ref().map(|m| Span::start(&m.cache_lookup));
            let hit = state.cached_answer(id, key);
            drop(lookup_span);
            if let Some(m) = &self.metrics {
                if hit.is_some() {
                    m.cache_hits.inc();
                } else {
                    m.cache_misses.inc();
                }
            }
            if let Some(hit) = hit {
                self.cache_hits += 1;
                // Replicate the skipped solve's only side effect: the
                // stream's last solution. An uncached solve in between
                // (a timed-out resolve, say) may have moved it.
                if let Some(sol) = &hit.solution {
                    state.last_solution = Some(sol.clone());
                }
                return hit;
            }
            self.cache_misses += 1;
        }

        let t0 = Instant::now();
        // The repaired policy tries the incremental path first; `None`
        // falls back to the full solve below. Repairing a `Resolve` keeps
        // the placement as-is (no moves), so a repaired resolve is a
        // fixed point and identical re-resolves stay cacheable.
        let repaired: Option<Repair> = match policy {
            ResponsePolicy::Exact => None,
            ResponsePolicy::Repaired {
                tolerance,
                max_migrations,
            } => repair_base.as_ref().and_then(|base| {
                try_repair(&state.instance, base, tolerance, max_migrations, !resolve)
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
                let (solution, winner, probes, timed_out) =
                    self.engine
                        .solve(&state.instance, stream, hint, budget, self.metrics.as_ref());
                (solution, winner, probes, timed_out, None)
            }
        };
        let wall = t0.elapsed();
        if let Some(m) = &self.metrics {
            // Stage timing and repair-path accounting: an accepted repair
            // records into the repair histogram, everything else into the
            // solve histogram; a repaired-policy request the repair path
            // declined (or had no base for) counts as a fallback.
            if migrations.is_some() {
                m.repair_accepted.inc();
                m.repair.record(wall);
            } else {
                if !policy.is_exact() {
                    m.repair_fallback.inc();
                }
                m.solve.record(wall);
            }
            m.probes.add(probes);
        }

        if let Some(sol) = &solution {
            state.last_solution = Some(sol.clone());
        }
        let outcome = match (&solution, timed_out) {
            (_, true) => RequestOutcome::TimedOut,
            (Some(_), false) => RequestOutcome::Solved,
            (None, false) => RequestOutcome::Infeasible,
        };
        let response = AllocResponse {
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
        };
        if let Some(key) = key {
            state.store_answer(key, &response);
        }
        response
    }

    /// The one forget point: drops the stream's stored answer and, when
    /// it belongs to this stream, the exact path's model. Every mutation
    /// and removal of a stream (`New`, an applied delta, a discard, a
    /// retirement, panic recovery) goes through here, so what is left
    /// always belongs to the stream's current instance.
    fn forget(&mut self, stream: u64) {
        if let Some(Slot::Live(state)) = self.streams.get_mut(&stream) {
            state.answer = None;
        }
        if let WorkerEngine::Milp { cache, .. } = &mut self.engine {
            if cache.as_ref().is_some_and(|c| c.stream == stream) {
                *cache = None;
            }
        }
    }

    /// Number of streams this worker currently tracks.
    pub fn stream_count(&self) -> usize {
        self.streams
            .values()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count()
    }

    /// Discards one stream's state — instance, warm yields, stored answer
    /// and model — and marks it stale: follow-up requests answer
    /// `stale-stream` until the client re-sends `New`. Called when a
    /// *mutating* request (`New`/`Delta`) is shed under overload, so the
    /// service never answers against state the client didn't build.
    pub fn discard_stream(&mut self, stream: u64) {
        self.forget(stream);
        self.streams.insert(stream, Slot::Stale);
    }

    /// Recovers this worker after a panic unwound out of
    /// [`Worker::process`]: the in-flight stream's state is discarded
    /// (the panic may have left it half-mutated) and the engine is
    /// rebuilt from scratch — a panic mid-solve can leave engine scratch
    /// (packing workspaces, simplex state, the MILP model)
    /// inconsistent. Rebuilding is result-invariant for every *other*
    /// stream: engines are deterministic functions of (instance, hint,
    /// budget), and the per-stream warm state that seeds them is kept.
    pub fn recover_from_panic(&mut self, stream: u64) {
        self.discard_stream(stream);
        self.engine = WorkerEngine::build(&self.config);
    }

    /// Streams currently marked stale (discarded but not yet re-opened).
    pub fn discarded_count(&self) -> usize {
        self.streams.len() - self.stream_count()
    }

    /// Forgets every stream matching `stream & mask == prefix`, live or
    /// stale: a retired namespace's ids may be reused by a future
    /// connection, which starts clean. A long-lived front door calls this
    /// when a client (whose streams share a namespace prefix) disconnects,
    /// so worker memory tracks *live* streams instead of every stream
    /// ever seen.
    pub fn retire_streams(&mut self, prefix: u64, mask: u64) {
        let retired: Vec<u64> = self
            .streams
            .keys()
            .copied()
            .filter(|s| s & mask == prefix)
            .collect();
        for stream in retired {
            self.forget(stream);
            self.streams.remove(&stream);
        }
    }

    /// Response-cache `(hits, misses)` counters (zeros when the cache is
    /// disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }
}

/// The exact path: build (or reuse) the stream's `YieldLp` + persistent
/// `MilpSolver`, apply the budget, solve, decode the incumbent.
fn solve_milp_cached(
    options: &MilpOptions,
    cache: &mut Option<Box<MilpCache>>,
    stream: u64,
    instance: &ProblemInstance,
    budget: Option<Duration>,
    metrics: Option<&ServiceMetrics>,
) -> (Option<Solution>, Option<String>, u64, bool) {
    if !cache.as_ref().is_some_and(|c| c.stream == stream) {
        let Some(ylp) = YieldLp::build(instance) else {
            // Some service fits on no node: trivially infeasible. The
            // model held (another stream's, still valid) is left
            // untouched.
            return (None, None, 0, false);
        };
        let solver = ylp.exact_solver(options.clone());
        *cache = Some(Box::new(MilpCache {
            stream,
            ylp,
            solver,
        }));
    }
    let c = cache.as_mut().expect("model just ensured");
    c.solver.options_mut().time_budget = budget;
    let result = c.solver.solve();
    let timed_out = result.status == vmplace_lp::MilpStatus::TimedOut;
    let nodes = result.nodes as u64;
    if let Some(m) = metrics {
        // Bridge the LP layer's solve-effort telemetry (the exact path's
        // analogue of portfolio probe counts) into the registry.
        m.simplex_iterations.add(result.simplex_iterations as u64);
        m.refactorisations.add(result.factor.refactorisations);
    }
    let solution = c
        .ylp
        .decode_milp(result)
        .and_then(|(placement, _)| vmplace_model::evaluate_placement(instance, &placement));
    (solution, None, nodes, timed_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplace_model::{Node, Service, WorkloadDelta};

    fn small_instance() -> ProblemInstance {
        let nodes = vec![Node::multicore(2, 0.5, 1.0), Node::multicore(2, 0.4, 0.6)];
        let mk = |rc: f64, nc: f64, mem: f64| {
            Service::new(
                vec![rc / 2.0, mem],
                vec![rc, mem],
                vec![nc / 2.0, 0.0],
                vec![nc, 0.0],
            )
        };
        let services = vec![mk(0.2, 0.6, 0.3), mk(0.1, 0.5, 0.4), mk(0.15, 0.7, 0.2)];
        ProblemInstance::new(nodes, services).unwrap()
    }

    fn req(id: u64, kind: RequestKind) -> AllocRequest {
        AllocRequest {
            id,
            stream: 0,
            kind,
            budget: None,
            policy: ResponsePolicy::default(),
        }
    }

    #[test]
    fn new_delta_resolve_lifecycle() {
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let a = worker.process(req(0, RequestKind::New(small_instance())));
        assert_eq!(a.outcome, RequestOutcome::Solved);
        let y0 = a.min_yield().unwrap();
        assert!(y0 > 0.0);

        let b = worker.process(req(
            1,
            RequestKind::Delta(WorkloadDelta {
                scale_need: vec![(0, 0.5)],
                ..WorkloadDelta::default()
            }),
        ));
        assert_eq!(b.outcome, RequestOutcome::Solved);
        // Halving one service's needs cannot hurt the minimum yield.
        assert!(b.min_yield().unwrap() >= y0 - 1e-9);

        let c = worker.process(req(2, RequestKind::Resolve));
        assert_eq!(c.outcome, RequestOutcome::Solved);
        assert_eq!(c.min_yield(), b.min_yield());
        assert_eq!(worker.stream_count(), 1);
    }

    #[test]
    fn delta_before_new_is_rejected() {
        let mut worker = Worker::new(&ServiceConfig::default());
        let r = worker.process(req(
            9,
            RequestKind::Delta(WorkloadDelta {
                remove: vec![0],
                ..WorkloadDelta::default()
            }),
        ));
        assert_eq!(r.outcome, RequestOutcome::Rejected);
        assert!(r.error.is_some());
        let r2 = worker.process(req(10, RequestKind::Resolve));
        assert_eq!(r2.outcome, RequestOutcome::Rejected);
    }

    #[test]
    fn bad_delta_is_rejected_and_state_survives() {
        let mut worker = Worker::new(&ServiceConfig::default());
        worker.process(req(0, RequestKind::New(small_instance())));
        let bad = worker.process(req(
            1,
            RequestKind::Delta(WorkloadDelta {
                remove: vec![99],
                ..WorkloadDelta::default()
            }),
        ));
        assert_eq!(bad.outcome, RequestOutcome::Rejected);
        // The stream still answers.
        let ok = worker.process(req(2, RequestKind::Resolve));
        assert_eq!(ok.outcome, RequestOutcome::Solved);
    }

    #[test]
    fn identical_resolves_hit_the_response_cache_bit_for_bit() {
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        worker.process(req(0, RequestKind::New(small_instance())));
        let a = worker.process(req(1, RequestKind::Resolve));
        assert!(!a.cached, "first resolve cannot hit");
        let b = worker.process(req(2, RequestKind::Resolve));
        assert!(b.cached, "identical re-solve missed the cache");
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.probes, b.probes);
        assert_eq!(
            a.min_yield().unwrap().to_bits(),
            b.min_yield().unwrap().to_bits()
        );
        assert_eq!(
            a.solution.as_ref().unwrap().placement,
            b.solution.as_ref().unwrap().placement
        );
        let (hits, misses) = worker.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn deltas_and_budget_classes_invalidate_the_cache() {
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        worker.process(req(0, RequestKind::New(small_instance())));
        worker.process(req(1, RequestKind::Resolve));
        let hit = worker.process(req(2, RequestKind::Resolve));
        assert!(hit.cached);

        // A mutation forgets the stored answer: the next resolve must
        // re-solve.
        worker.process(req(
            3,
            RequestKind::Delta(WorkloadDelta {
                scale_need: vec![(0, 0.9)],
                ..WorkloadDelta::default()
            }),
        ));
        let after_delta = worker.process(req(4, RequestKind::Resolve));
        assert!(!after_delta.cached, "stale entry served after a delta");

        // A different budget class never shares an entry.
        let mut budgeted = req(5, RequestKind::Resolve);
        budgeted.budget = Some(Duration::from_secs(3600));
        let r = worker.process(budgeted);
        assert!(!r.cached, "budget classes must not alias");
    }

    #[test]
    fn disabled_cache_never_marks_responses() {
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            response_cache: false,
            ..ServiceConfig::default()
        });
        worker.process(req(0, RequestKind::New(small_instance())));
        let a = worker.process(req(1, RequestKind::Resolve));
        let b = worker.process(req(2, RequestKind::Resolve));
        assert!(!a.cached && !b.cached);
        assert_eq!(worker.cache_stats(), (0, 0));
        // …and still bit-for-bit what the cached worker answers.
        assert_eq!(a.probes, b.probes);
        assert_eq!(
            a.min_yield().unwrap().to_bits(),
            b.min_yield().unwrap().to_bits()
        );
    }

    #[test]
    fn retire_streams_drops_only_the_matching_namespace() {
        const NS: u64 = 1 << 40;
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let open = |worker: &mut Worker, id: u64, stream: u64| {
            worker.process(AllocRequest {
                id,
                stream,
                kind: RequestKind::New(small_instance()),
                budget: None,
                policy: ResponsePolicy::default(),
            });
        };
        open(&mut worker, 0, 0);
        open(&mut worker, 1, 1);
        open(&mut worker, 2, NS);
        assert_eq!(worker.stream_count(), 3);

        // Retire namespace 0 (high bits zero).
        worker.retire_streams(0, !(NS - 1));
        assert_eq!(worker.stream_count(), 1);

        // Retired streams behave like never-opened ones…
        let r = worker.process(AllocRequest {
            id: 3,
            stream: 0,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        });
        assert_eq!(r.outcome, RequestOutcome::Rejected);
        // …while the surviving namespace still answers warm.
        let ok = worker.process(AllocRequest {
            id: 4,
            stream: NS,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        });
        assert_eq!(ok.outcome, RequestOutcome::Solved);
    }

    #[test]
    fn injected_fault_panics_and_recovery_preserves_other_streams() {
        let config = ServiceConfig {
            workers: 1,
            faults: FaultPlan::parse("panic=5"),
            ..ServiceConfig::default()
        };
        let mut worker = Worker::new(&config);
        // Two streams; stream 1 will be hit by the fault.
        let open = |worker: &mut Worker, id: u64, stream: u64| {
            worker.process(AllocRequest {
                id,
                stream,
                kind: RequestKind::New(small_instance()),
                budget: None,
                policy: ResponsePolicy::default(),
            })
        };
        open(&mut worker, 0, 0);
        open(&mut worker, 1, 1);
        let clean = worker.process(AllocRequest {
            id: 2,
            stream: 0,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        });

        let faulted = AllocRequest {
            id: 5,
            stream: 1,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        };
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.process(faulted)))
                .expect_err("request 5 must panic");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains(crate::fault::INJECTED_FAULT_MARKER),
            "{message}"
        );

        worker.recover_from_panic(1);
        assert_eq!(worker.discarded_count(), 1);
        // The poisoned stream answers stale-stream until a New arrives…
        let stale = worker.process(AllocRequest {
            id: 6,
            stream: 1,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        });
        assert_eq!(stale.outcome, RequestOutcome::StaleStream);
        // …a New re-opens it…
        let reopened = open(&mut worker, 7, 1);
        assert_eq!(reopened.outcome, RequestOutcome::Solved);
        assert_eq!(worker.discarded_count(), 0);
        // …and the unaffected stream's answers are bit-for-bit unchanged
        // across the engine rebuild.
        let after = worker.process(AllocRequest {
            id: 8,
            stream: 0,
            kind: RequestKind::Resolve,
            budget: None,
            policy: ResponsePolicy::default(),
        });
        assert_eq!(
            clean.min_yield().unwrap().to_bits(),
            after.min_yield().unwrap().to_bits()
        );
        assert_eq!(clean.probes, after.probes);
    }

    #[test]
    fn discard_stream_marks_stale_and_new_reopens() {
        let mut worker = Worker::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        worker.process(req(0, RequestKind::New(small_instance())));
        worker.discard_stream(0);
        let stale = worker.process(req(
            1,
            RequestKind::Delta(WorkloadDelta {
                scale_need: vec![(0, 0.9)],
                ..WorkloadDelta::default()
            }),
        ));
        assert_eq!(stale.outcome, RequestOutcome::StaleStream);
        assert!(stale.error.is_some());
        let reopened = worker.process(req(2, RequestKind::New(small_instance())));
        assert_eq!(reopened.outcome, RequestOutcome::Solved);
    }

    #[test]
    fn retire_streams_clears_stale_markers() {
        let mut worker = Worker::new(&ServiceConfig::default());
        worker.process(req(0, RequestKind::New(small_instance())));
        worker.discard_stream(0);
        assert_eq!(worker.discarded_count(), 1);
        worker.retire_streams(0, 0); // mask 0 matches everything
        assert_eq!(worker.discarded_count(), 0);
        // A retired stream behaves like a never-opened one, not a stale one.
        let r = worker.process(req(1, RequestKind::Resolve));
        assert_eq!(r.outcome, RequestOutcome::Rejected);
    }

    #[test]
    fn milp_worker_reuses_cache_across_resolves() {
        let mut worker = Worker::new(&ServiceConfig {
            algo: ServiceAlgo::Milp,
            ..ServiceConfig::default()
        });
        let a = worker.process(req(0, RequestKind::New(small_instance())));
        assert_eq!(a.outcome, RequestOutcome::Solved);
        let b = worker.process(req(1, RequestKind::Resolve));
        assert_eq!(b.outcome, RequestOutcome::Solved);
        assert_eq!(a.min_yield(), b.min_yield());
        assert_eq!(a.probes, b.probes, "resolve did not replay the same tree");
    }

    /// Which stream the exact path's model belongs to (`None`: no model,
    /// or not the exact path).
    fn milp_model_owner(worker: &Worker) -> Option<u64> {
        match &worker.engine {
            WorkerEngine::Milp { cache, .. } => cache.as_ref().map(|c| c.stream),
            _ => None,
        }
    }

    #[test]
    fn the_forget_point_covers_every_mutation_and_nothing_else() {
        for algo in [ServiceAlgo::MetaHvpLight, ServiceAlgo::Milp] {
            let milp = algo == ServiceAlgo::Milp;
            let mut worker = Worker::new(&ServiceConfig {
                workers: 1,
                algo,
                ..ServiceConfig::default()
            });
            let mut next_id = 0;
            let mut send = |worker: &mut Worker, stream: u64, kind: RequestKind| {
                next_id += 1;
                worker.process(AllocRequest {
                    id: next_id,
                    stream,
                    kind,
                    budget: None,
                    policy: ResponsePolicy::default(),
                })
            };
            let new = || RequestKind::New(small_instance());
            let delta = |remove: Vec<usize>| {
                RequestKind::Delta(WorkloadDelta {
                    remove,
                    scale_need: vec![(0, 0.9)],
                    ..WorkloadDelta::default()
                })
            };
            // Resolves until the stream's stored answer serves one.
            let settle = |send: &mut dyn FnMut(&mut Worker, u64, RequestKind) -> AllocResponse,
                          worker: &mut Worker,
                          stream: u64| {
                let hit = (0..4).any(|_| send(worker, stream, RequestKind::Resolve).cached);
                assert!(hit, "{algo:?}: stream {stream} never settled");
            };
            let counts = |worker: &Worker| (worker.stream_count(), worker.discarded_count());

            send(&mut worker, 1, new());
            settle(&mut send, &mut worker, 1);
            let opened = send(&mut worker, 0, new());
            assert_eq!(counts(&worker), (2, 0), "{algo:?}");
            let first = send(&mut worker, 0, RequestKind::Resolve);
            assert!(!first.cached, "{algo:?}: a New leaves nothing to serve");
            if milp {
                assert_eq!(milp_model_owner(&worker), Some(0));
                assert_eq!(first.probes, opened.probes, "the resolve reused the model");
            }
            settle(&mut send, &mut worker, 0);

            // A rejected delta changes nothing: the stored answer serves.
            let rejected = send(&mut worker, 0, delta(vec![99]));
            assert_eq!(rejected.outcome, RequestOutcome::Rejected);
            assert!(
                send(&mut worker, 0, RequestKind::Resolve).cached,
                "{algo:?}"
            );
            if milp {
                assert_eq!(milp_model_owner(&worker), Some(0));
            }

            // An applied delta forgets the answer; its own solve builds the
            // model the next resolve reuses.
            let applied = send(&mut worker, 0, delta(vec![2]));
            assert_eq!(applied.outcome, RequestOutcome::Solved);
            let after = send(&mut worker, 0, RequestKind::Resolve);
            assert!(!after.cached, "{algo:?}: answer served across a delta");
            if milp {
                assert_eq!(milp_model_owner(&worker), Some(0));
                assert_eq!(after.probes, applied.probes, "the resolve reused the model");
            }
            settle(&mut send, &mut worker, 0);

            // `New` on an open stream forgets: it answers what the first
            // `New` of this instance answered, not from the delta's model.
            let reopened = send(&mut worker, 0, new());
            assert_eq!(reopened.min_yield(), opened.min_yield(), "{algo:?}");
            assert_eq!(reopened.probes, opened.probes, "{algo:?}");
            assert!(
                !send(&mut worker, 0, RequestKind::Resolve).cached,
                "{algo:?}"
            );
            settle(&mut send, &mut worker, 0);

            // A discard forgets and marks the stream stale until `New`.
            worker.discard_stream(0);
            assert_eq!(counts(&worker), (1, 1), "{algo:?}");
            assert_eq!(milp_model_owner(&worker), None);
            let stale = send(&mut worker, 0, RequestKind::Resolve);
            assert_eq!(stale.outcome, RequestOutcome::StaleStream);
            assert!(!stale.cached);
            send(&mut worker, 0, new());
            assert_eq!(counts(&worker), (2, 0), "{algo:?}");
            assert!(
                !send(&mut worker, 0, RequestKind::Resolve).cached,
                "{algo:?}"
            );
            settle(&mut send, &mut worker, 0);

            // A retirement forgets its namespace only.
            worker.retire_streams(0, u64::MAX);
            assert_eq!(counts(&worker), (1, 0), "{algo:?}");
            assert_eq!(milp_model_owner(&worker), None);
            let gone = send(&mut worker, 0, RequestKind::Resolve);
            assert_eq!(gone.outcome, RequestOutcome::Rejected);

            // Panic recovery forgets the in-flight stream only.
            send(&mut worker, 0, new());
            settle(&mut send, &mut worker, 0);
            worker.recover_from_panic(0);
            assert_eq!(counts(&worker), (1, 1), "{algo:?}");
            assert_eq!(milp_model_owner(&worker), None);
            let stale = send(&mut worker, 0, RequestKind::Resolve);
            assert_eq!(stale.outcome, RequestOutcome::StaleStream);

            // Through all of it, stream 1 kept its stored answer.
            assert!(
                send(&mut worker, 1, RequestKind::Resolve).cached,
                "{algo:?}"
            );
        }
    }

    fn response(id: u64, probes: u64) -> AllocResponse {
        AllocResponse {
            id,
            stream: 3,
            outcome: RequestOutcome::Infeasible,
            solution: None,
            winner: Some("W".into()),
            probes,
            wall: Duration::from_millis(7),
            error: None,
            cached: false,
            migrations: None,
            retry_after: None,
        }
    }

    const EXACT: ResponsePolicy = ResponsePolicy::Exact;
    const REPAIRED: ResponsePolicy = ResponsePolicy::Repaired {
        tolerance: 0.05,
        max_migrations: 4,
    };

    fn base() -> Placement {
        Placement::from_assignment(vec![Some(0), Some(1)])
    }

    /// A stream record holding `response` stored under `key`.
    fn stored(key: AnswerKey, response: AllocResponse) -> StreamState {
        let mut state = StreamState::new(small_instance());
        state.store_answer(key, &response);
        state
    }

    #[test]
    fn hit_requires_every_key_field() {
        let budget = Some(Duration::from_millis(10));
        let key = || AnswerKey::new(budget, Some(0.25), EXACT, None);
        let state = stored(key(), response(0, 42));

        let hit = state.cached_answer(9, &key()).expect("hit");
        assert_eq!(hit.id, 9);
        assert!(hit.cached);
        assert_eq!(hit.probes, 42);
        assert_eq!(hit.winner.as_deref(), Some("W"));
        assert_eq!(hit.wall, Duration::ZERO);

        // Any one field off → miss.
        for other in [
            AnswerKey::new(None, Some(0.25), EXACT, None),
            AnswerKey::new(Some(Duration::from_millis(11)), Some(0.25), EXACT, None),
            AnswerKey::new(budget, Some(0.25 + 1e-12), EXACT, None),
            AnswerKey::new(budget, None, EXACT, None),
            AnswerKey::new(budget, Some(0.25), REPAIRED, Some(&base())),
        ] {
            assert!(state.cached_answer(9, &other).is_none(), "{other:?}");
        }
    }

    #[test]
    fn repaired_entry_never_answers_an_exact_request() {
        let state = stored(
            AnswerKey::new(None, None, REPAIRED, Some(&base())),
            response(0, 7),
        );
        // The contract hole the policy key closes: a repaired answer
        // satisfies a weaker contract and must not answer an exact request.
        let exact = AnswerKey::new(None, None, EXACT, None);
        assert!(state.cached_answer(9, &exact).is_none());
        // The matching repaired request does hit.
        let repaired = AnswerKey::new(None, None, REPAIRED, Some(&base()));
        assert!(state.cached_answer(9, &repaired).is_some());
    }

    #[test]
    fn exact_entry_never_answers_a_repaired_request() {
        let state = stored(AnswerKey::new(None, None, EXACT, None), response(0, 7));
        let repaired = AnswerKey::new(None, None, REPAIRED, Some(&base()));
        assert!(state.cached_answer(9, &repaired).is_none());
        let exact = AnswerKey::new(None, None, EXACT, None);
        assert!(state.cached_answer(9, &exact).is_some());
    }

    #[test]
    fn repaired_hit_requires_the_same_policy_and_base() {
        let state = stored(
            AnswerKey::new(None, None, REPAIRED, Some(&base())),
            response(0, 7),
        );
        // Different tolerance, different migration budget, different base
        // placement, or a missing base: all misses.
        let looser = ResponsePolicy::Repaired {
            tolerance: 0.06,
            max_migrations: 4,
        };
        let roomier = ResponsePolicy::Repaired {
            tolerance: 0.05,
            max_migrations: 5,
        };
        let other_base = Placement::from_assignment(vec![Some(1), Some(0)]);
        for other in [
            AnswerKey::new(None, None, looser, Some(&base())),
            AnswerKey::new(None, None, roomier, Some(&base())),
            AnswerKey::new(None, None, REPAIRED, Some(&other_base)),
            AnswerKey::new(None, None, REPAIRED, None),
        ] {
            assert!(state.cached_answer(9, &other).is_none(), "{other:?}");
        }
        let same = AnswerKey::new(None, None, REPAIRED, Some(&base()));
        assert!(state.cached_answer(9, &same).is_some());
    }

    #[test]
    fn timed_out_responses_are_not_stored() {
        let key = || AnswerKey::new(None, None, EXACT, None);
        let r = AllocResponse {
            outcome: RequestOutcome::TimedOut,
            ..response(0, 1)
        };
        assert!(stored(key(), r).cached_answer(1, &key()).is_none());
    }

    #[test]
    fn failure_outcomes_are_not_stored() {
        for outcome in [
            RequestOutcome::Failed,
            RequestOutcome::Overloaded,
            RequestOutcome::StaleStream,
        ] {
            let key = || AnswerKey::new(None, None, EXACT, None);
            let r = AllocResponse {
                outcome,
                ..response(0, 1)
            };
            assert!(
                stored(key(), r).cached_answer(1, &key()).is_none(),
                "{outcome:?} must not be stored"
            );
        }
    }
}
