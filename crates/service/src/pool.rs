//! The resident solver pool: one long-lived thread per worker, with
//! panic supervision and overload control.
//!
//! ## Supervision
//!
//! Each worker thread runs its solve loop under
//! [`std::panic::catch_unwind`]. A panic mid-solve (a solver bug, or an
//! injected [`crate::FaultPlan`] fault) is contained to the request that
//! triggered it: the in-flight request is answered with
//! [`RequestOutcome::Failed`] — never a hang — and the worker is
//! *respawned in place*: the panicked stream's state is discarded (its
//! half-mutated instance, warm yields and cache entries are exactly the
//! state a mid-solve panic can poison) and the engine is rebuilt from
//! scratch. The respawn deliberately preserves every **other** stream's
//! warm state: engines are deterministic functions of
//! `(instance, hint, budget)`, so unaffected streams keep answering
//! bit-for-bit what a fault-free run answers (the chaos suite in
//! `tests/integration_chaos.rs` pins this at 1 and 4 workers). Nothing
//! is replayed silently — follow-up requests on the discarded stream
//! answer `stale-stream` until the client re-sends `New`.
//!
//! ## Overload control
//!
//! With [`ServiceConfig::overload`] configured, each worker's queue is
//! bounded: a submission that would exceed `queue_depth` is *shed* —
//! answered immediately with [`RequestOutcome::Overloaded`] and a
//! `retry_after` hint sized from the worker's backlog and recent service
//! time — and with `shed_expired`, requests whose wall-clock budget
//! expired while queued are shed at dequeue. Shedding a mutating request
//! (`New`/`Delta`) poisons its stream like a panic does, because the
//! server-side state no longer matches the client's view; the poison
//! marker takes the shed request's FIFO position, so requests already
//! queued for the stream still answer normally.
//!
//! [`RequestOutcome::Failed`]: vmplace_model::RequestOutcome::Failed
//! [`RequestOutcome::Overloaded`]: vmplace_model::RequestOutcome::Overloaded

use crate::metrics::ServiceMetrics;
use crate::worker::{ServiceConfig, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vmplace_model::{AllocRequest, AllocResponse, RequestKind};

/// Where workers deliver finished responses.
///
/// The channel mode backs the blocking [`SolverPool::collect`] API; the
/// sink mode invokes a caller-supplied callback from the worker thread
/// the moment a response is ready — the building block for network
/// front-ends that stream responses back per connection instead of
/// collecting a whole trace.
#[derive(Clone)]
enum Completion {
    Channel(Sender<AllocResponse>),
    Sink(ResponseSink),
}

impl Completion {
    /// Delivers one response; returns `false` when the consumer is gone
    /// (channel mode only — a sink has no liveness signal).
    fn deliver(&self, response: AllocResponse) -> bool {
        match self {
            Completion::Channel(tx) => tx.send(response).is_ok(),
            Completion::Sink(sink) => {
                sink(response);
                true
            }
        }
    }
}

/// A completion callback: called once per request, from the worker thread
/// that solved it, in that worker's processing order (requests of one
/// stream complete in submission order; different streams interleave).
pub type ResponseSink = Arc<dyn Fn(AllocResponse) + Send + Sync>;

/// What travels down a worker's request channel.
enum WorkerMsg {
    /// One admitted request.
    Request {
        request: AllocRequest,
        /// When the request was admitted (deadline-aware shedding
        /// measures queueing delay from here).
        enqueued: Instant,
    },
    /// A mutating request for `stream` was shed at admission: poison the
    /// stream at the shed request's FIFO position (earlier queued
    /// requests of the stream still answer normally; later ones answer
    /// `stale-stream`).
    Discard {
        /// The stream whose state must be discarded.
        stream: u64,
    },
    /// Forget every stream with `stream & mask == prefix` (see
    /// [`SolverPool::retire_streams`]).
    Retire {
        /// Namespace prefix being retired.
        prefix: u64,
        /// Mask selecting the namespace bits.
        mask: u64,
    },
}

/// Shared load gauge of one worker: the logical queue depth (incremented
/// at admission, decremented as requests finish) and an EMA of the
/// per-request service time, in microseconds (single writer: the owning
/// worker thread).
#[derive(Clone, Default)]
struct Gauge {
    depth: Arc<AtomicUsize>,
    ema_us: Arc<AtomicU64>,
}

impl Gauge {
    fn note_service(&self, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let prev = self.ema_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            us
        } else {
            prev - prev / 8 + us / 8
        };
        self.ema_us.store(next.max(1), Ordering::Relaxed);
    }

    /// Suggested retry delay: roughly the time the current backlog needs
    /// to clear at the recent service rate, floored at 1 ms (a hint of
    /// zero would invite an immediate, equally doomed retry) and capped
    /// at 30 s.
    fn retry_hint(&self) -> Duration {
        let ema = self.ema_us.load(Ordering::Relaxed).max(1_000);
        let backlog = self.depth.load(Ordering::SeqCst) as u64 + 1;
        Duration::from_micros(ema.saturating_mul(backlog).min(30_000_000))
    }
}

/// A pool of resident solver workers.
///
/// Workers are spawned once, each building its engine (roster, packing
/// workspaces, persistent simplex) a single time; requests then stream
/// through per-worker FIFO channels. Every request of a stream goes to
/// worker `stream % workers`, in submission order, so per-stream warm
/// state never migrates and replaying a trace through 1 or N workers
/// produces identical responses on unbudgeted traces — the differential
/// suite in `tests/integration_service.rs` pins this.
///
/// ## Lifecycle
///
/// [`SolverPool::shutdown`] (and, identically, dropping the pool) closes
/// the request channels and joins every worker. Workers **drain** first:
/// every request already submitted is fully processed and its response
/// delivered (to the channel or the sink) before the join returns —
/// submitted work is never lost. `tests/integration_net.rs` and the unit
/// tests below assert this.
///
/// ```
/// use vmplace_service::{ServiceConfig, SolverPool};
/// use vmplace_model::{AllocRequest, RequestKind, Node, ProblemInstance, ResponsePolicy, Service};
///
/// let inst = ProblemInstance::new(
///     vec![Node::multicore(2, 1.0, 1.0)],
///     vec![Service::rigid(vec![0.2, 0.2], vec![0.2, 0.2])],
/// )
/// .unwrap();
/// let mut pool = SolverPool::new(&ServiceConfig { workers: 2, ..ServiceConfig::default() });
/// let responses = pool.replay(vec![AllocRequest {
///     id: 0,
///     stream: 0,
///     kind: RequestKind::New(inst),
///     budget: None,
///     policy: ResponsePolicy::Exact,
/// }]);
/// assert_eq!(responses.len(), 1);
/// assert!(responses[0].solution.is_some());
/// ```
pub struct SolverPool {
    senders: Vec<Sender<WorkerMsg>>,
    /// Present in channel mode only.
    results: Option<Receiver<AllocResponse>>,
    handles: Vec<JoinHandle<()>>,
    pending: usize,
    /// Per-worker load gauges (admission control + retry hints).
    gauges: Vec<Gauge>,
    /// Bounded queue depth, when overload control is on.
    queue_depth: Option<usize>,
    /// The same completion the workers deliver to — shed responses are
    /// delivered from the submitting thread without a queue trip.
    completion: Completion,
    /// Requests shed at admission since the pool started.
    shed: u64,
    /// Metric handles (`None` when [`ServiceConfig::metrics`] is unset).
    metrics: Option<ServiceMetrics>,
}

impl SolverPool {
    /// Spawns `config.workers` resident workers delivering to the
    /// internal channel ([`SolverPool::collect`] mode).
    pub fn new(config: &ServiceConfig) -> SolverPool {
        let (result_tx, results) = channel::<AllocResponse>();
        let mut pool = SolverPool::spawn(config, Completion::Channel(result_tx));
        pool.results = Some(results);
        pool
    }

    /// Spawns the pool in **completion-callback mode**: every response is
    /// handed to `sink` from the worker thread that produced it, as soon
    /// as it is ready. [`SolverPool::submit`] stays non-blocking;
    /// [`SolverPool::collect`] is unavailable (it panics). Shutdown/drop
    /// still drains: the sink has seen every submitted request's response
    /// by the time the join returns.
    pub fn with_sink(config: &ServiceConfig, sink: ResponseSink) -> SolverPool {
        SolverPool::spawn(config, Completion::Sink(sink))
    }

    fn spawn(config: &ServiceConfig, completion: Completion) -> SolverPool {
        let workers = config.workers.max(1);
        let gauges: Vec<Gauge> = (0..workers).map(|_| Gauge::default()).collect();
        if let Some(registry) = &config.metrics {
            // The gauges stay the single source of truth (admission
            // control reads them); the registry polls them at snapshot
            // time through per-worker readers plus an aggregate.
            for (i, gauge) in gauges.iter().enumerate() {
                let depth = gauge.depth.clone();
                registry.gauge_reader(&format!("service.worker{i}.queue_depth"), move || {
                    depth.load(Ordering::SeqCst) as u64
                });
            }
            let depths: Vec<Arc<AtomicUsize>> = gauges.iter().map(|g| g.depth.clone()).collect();
            registry.gauge_reader("service.queue_depth", move || {
                depths.iter().map(|d| d.load(Ordering::SeqCst) as u64).sum()
            });
            registry.gauge("service.workers").set(workers as u64);
        }
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for gauge in gauges.iter().cloned() {
            let (tx, rx) = channel::<WorkerMsg>();
            let completion = completion.clone();
            let config = config.clone();
            handles.push(std::thread::spawn(move || {
                supervised_loop(rx, &config, completion, gauge)
            }));
            senders.push(tx);
        }
        SolverPool {
            senders,
            results: None,
            handles,
            pending: 0,
            gauges,
            queue_depth: config.overload.map(|o| o.queue_depth.max(1)),
            completion,
            shed: 0,
            metrics: ServiceMetrics::from_config(config),
        }
    }

    /// Enqueues requests without waiting: each is routed to its stream's
    /// worker (`stream % workers`). In channel mode, pair with
    /// [`SolverPool::collect`]; in sink mode, responses arrive through
    /// the callback.
    ///
    /// With overload control on, requests that would push a worker's
    /// queue past its depth are shed here: they are answered immediately
    /// with [`RequestOutcome::Overloaded`] (through the same channel or
    /// sink as every other response — a shed request still counts as
    /// pending and still reaches [`SolverPool::collect`]) and never reach
    /// the worker. A shed `New`/`Delta` additionally poisons its stream
    /// at the shed request's FIFO position.
    ///
    /// [`RequestOutcome::Overloaded`]: vmplace_model::RequestOutcome::Overloaded
    pub fn submit(&mut self, requests: Vec<AllocRequest>) {
        for request in requests {
            let w = self.worker_of(request.stream);
            let (sender, gauge) = (&self.senders[w], &self.gauges[w]);
            self.pending += 1;
            let admit = self
                .queue_depth
                .map_or(true, |depth| gauge.depth.load(Ordering::SeqCst) < depth);
            if admit {
                // Bump the gauge before sending, so concurrent admission
                // checks see the backlog immediately.
                gauge.depth.fetch_add(1, Ordering::SeqCst);
                sender
                    .send(WorkerMsg::Request {
                        request,
                        enqueued: Instant::now(),
                    })
                    .expect("worker thread alive while pool exists");
                continue;
            }
            self.shed += 1;
            if let Some(m) = &self.metrics {
                m.shed.inc();
            }
            if matches!(request.kind, RequestKind::New(_) | RequestKind::Delta(_)) {
                // The client's view of the stream now diverges from the
                // server's: poison it in the shed request's place.
                sender
                    .send(WorkerMsg::Discard {
                        stream: request.stream,
                    })
                    .expect("worker thread alive while pool exists");
            }
            let response =
                AllocResponse::overloaded(request.id, request.stream, gauge.retry_hint());
            self.completion.deliver(response);
        }
    }

    /// The worker a stream is pinned to.
    fn worker_of(&self, stream: u64) -> usize {
        (stream % self.senders.len() as u64) as usize
    }

    /// Requests shed at admission since the pool started (dequeue-time
    /// deadline sheds are not counted here; they surface only through
    /// their `Overloaded` responses).
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Current logical queue depth of each worker (requests admitted but
    /// not yet finished).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.gauges
            .iter()
            .map(|g| g.depth.load(Ordering::SeqCst))
            .collect()
    }

    /// Tells every worker to forget the streams matching
    /// `stream & mask == prefix`: per-stream warm state, response-cache
    /// entries and exact-path model caches are dropped. Ordered like any
    /// submission (FIFO per worker), so requests already submitted for
    /// those streams are processed first. The network front-end calls
    /// this when a connection (whose streams share a namespace prefix)
    /// closes, keeping long-lived worker memory proportional to *live*
    /// streams.
    pub fn retire_streams(&mut self, prefix: u64, mask: u64) {
        for sender in &self.senders {
            sender
                .send(WorkerMsg::Retire { prefix, mask })
                .expect("worker thread alive while pool exists");
        }
    }

    /// Waits for every submitted request and returns the responses sorted
    /// by request id (arrival order across workers is nondeterministic;
    /// ids are not). Panics in sink mode — the sink already owns the
    /// responses.
    pub fn collect(&mut self) -> Vec<AllocResponse> {
        let results = self
            .results
            .as_ref()
            .expect("collect() is unavailable on a sink-mode pool");
        let mut out = Vec::with_capacity(self.pending);
        for _ in 0..self.pending {
            out.push(results.recv().expect("workers alive"));
        }
        self.pending = 0;
        out.sort_by_key(|r| r.id);
        out
    }

    /// Drives a whole trace through the pool: submit, then collect.
    pub fn replay(&mut self, trace: Vec<AllocRequest>) -> Vec<AllocResponse> {
        self.submit(trace);
        self.collect()
    }

    /// Number of resident workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Requests submitted but not yet collected (channel mode; in sink
    /// mode the counter only ever grows — use the sink for accounting).
    pub fn submitted(&self) -> usize {
        self.pending
    }

    /// Shuts the pool down: closes the request channels and joins every
    /// worker. Workers drain their queues first, so every submitted
    /// request's response reaches the channel or sink before this
    /// returns. Dropping the pool does exactly the same; `shutdown` is
    /// the explicit spelling.
    pub fn shutdown(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.senders.clear(); // closes the request channels
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// One worker thread's supervised solve loop (see the module docs:
/// panics answer `Failed` and respawn the worker in place; expired
/// budgets shed at dequeue when configured).
fn supervised_loop(
    rx: Receiver<WorkerMsg>,
    config: &ServiceConfig,
    completion: Completion,
    gauge: Gauge,
) {
    let mut worker = Worker::new(config);
    let shed_expired = config.overload.is_some_and(|o| o.shed_expired);
    let metrics = ServiceMetrics::from_config(config);
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Request { request, enqueued } => {
                let (id, stream) = (request.id, request.stream);
                if let Some(m) = &metrics {
                    // Queue wait: admission to the moment the worker
                    // picks the request up.
                    m.queue_wait.record(enqueued.elapsed());
                }
                let mutates = matches!(request.kind, RequestKind::New(_) | RequestKind::Delta(_));
                let expired = shed_expired
                    && request
                        .budget
                        .or(config.default_budget)
                        .is_some_and(|b| enqueued.elapsed() >= b);
                let response = if expired {
                    // The budget burned away in the queue: shedding
                    // now costs nothing; solving would cost a full
                    // solve for an answer the client stopped waiting
                    // for. A shed mutation poisons the stream, same
                    // as at admission.
                    if mutates {
                        worker.discard_stream(stream);
                    }
                    if let Some(m) = &metrics {
                        m.shed.inc();
                    }
                    AllocResponse::overloaded(id, stream, gauge.retry_hint())
                } else {
                    // `AssertUnwindSafe` is justified by the recovery
                    // discipline: everything a panic can leave
                    // half-written (the in-flight stream's state, the
                    // engine's solve scratch) is discarded or rebuilt
                    // by `recover_from_panic` before the worker is
                    // used again.
                    match catch_unwind(AssertUnwindSafe(|| worker.process(request))) {
                        Ok(response) => {
                            gauge.note_service(response.wall);
                            response
                        }
                        Err(_) => {
                            worker.recover_from_panic(stream);
                            if let Some(m) = &metrics {
                                m.panics.inc();
                            }
                            AllocResponse::failed(
                                id,
                                stream,
                                format!(
                                    "worker panicked while solving request {id}; \
                                     stream state discarded"
                                ),
                            )
                        }
                    }
                };
                gauge.depth.fetch_sub(1, Ordering::SeqCst);
                // A closed result channel means the pool is gone;
                // finish quietly.
                if !completion.deliver(response) {
                    return;
                }
            }
            WorkerMsg::Discard { stream } => worker.discard_stream(stream),
            WorkerMsg::Retire { prefix, mask } => worker.retire_streams(prefix, mask),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use vmplace_model::{Node, ProblemInstance, RequestKind, RequestOutcome, Service};

    fn instance(seed: u64) -> ProblemInstance {
        let nodes = vec![Node::multicore(2, 0.5, 1.0), Node::multicore(2, 0.4, 0.6)];
        let f = 0.8 + (seed as f64) * 0.05;
        let mk = |rc: f64, nc: f64, mem: f64| {
            Service::new(
                vec![rc / 2.0, mem],
                vec![rc, mem],
                vec![nc / 2.0, 0.0],
                vec![nc, 0.0],
            )
        };
        let services = vec![
            mk(0.2, 0.6 * f, 0.3),
            mk(0.1, 0.5 * f, 0.4),
            mk(0.15, 0.7 * f, 0.2),
        ];
        ProblemInstance::new(nodes, services).unwrap()
    }

    #[test]
    fn pool_answers_every_request_in_id_order() {
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let trace: Vec<AllocRequest> = (0..9u64)
            .map(|id| AllocRequest {
                id,
                stream: id % 3,
                kind: if id < 3 {
                    RequestKind::New(instance(id))
                } else {
                    RequestKind::Resolve
                },
                budget: None,
                policy: Default::default(),
            })
            .collect();
        let responses = pool.replay(trace);
        assert_eq!(responses.len(), 9);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.outcome, RequestOutcome::Solved);
            assert!(r.min_yield().unwrap() > 0.0);
        }
        pool.shutdown();
    }

    #[test]
    fn incremental_submit_collect_cycles() {
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        pool.submit(vec![AllocRequest {
            id: 0,
            stream: 7,
            kind: RequestKind::New(instance(0)),
            budget: None,
            policy: Default::default(),
        }]);
        let first = pool.collect();
        assert_eq!(first.len(), 1);
        let y0 = first[0].min_yield().unwrap();

        // The second cycle reuses the same resident worker and its warm
        // stream state.
        pool.submit(vec![AllocRequest {
            id: 1,
            stream: 7,
            kind: RequestKind::Resolve,
            budget: None,
            policy: Default::default(),
        }]);
        let second = pool.collect();
        assert_eq!(second.len(), 1);
        assert!(second[0].min_yield().unwrap() >= y0 - 1e-9);
    }

    #[test]
    fn sink_mode_delivers_every_response_before_shutdown_returns() {
        // The drain guarantee: shutdown (or drop) joins workers only
        // after every submitted request's response reached the sink.
        let count = Arc::new(AtomicUsize::new(0));
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let (count2, seen2) = (count.clone(), seen.clone());
        let mut pool = SolverPool::with_sink(
            &ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            Arc::new(move |r| {
                seen2.lock().unwrap().push(r.id);
                count2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let trace: Vec<AllocRequest> = (0..8u64)
            .map(|id| AllocRequest {
                id,
                stream: id % 2,
                kind: if id < 2 {
                    RequestKind::New(instance(id))
                } else {
                    RequestKind::Resolve
                },
                budget: None,
                policy: Default::default(),
            })
            .collect();
        pool.submit(trace);
        // No wait: shutdown must drain.
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 8);
        // Per stream, responses arrived in submission order.
        let ids = seen.lock().unwrap();
        for stream in 0..2u64 {
            let per: Vec<u64> = ids.iter().copied().filter(|i| i % 2 == stream).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]), "{per:?}");
        }
    }

    #[test]
    fn retire_streams_is_ordered_after_prior_submissions() {
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let trace: Vec<AllocRequest> = (0..6u64)
            .map(|id| AllocRequest {
                id,
                stream: id % 2,
                kind: if id < 2 {
                    RequestKind::New(instance(id))
                } else {
                    RequestKind::Resolve
                },
                budget: None,
                policy: Default::default(),
            })
            .collect();
        pool.submit(trace);
        // Retire everything (prefix 0, mask 0 matches every stream) —
        // queued behind the submissions, so they all still answer.
        pool.retire_streams(0, 0);
        let responses = pool.collect();
        assert_eq!(responses.len(), 6);
        assert!(responses
            .iter()
            .all(|r| r.outcome == RequestOutcome::Solved));

        // After the retirement, the streams are gone.
        pool.submit(vec![AllocRequest {
            id: 9,
            stream: 0,
            kind: RequestKind::Resolve,
            budget: None,
            policy: Default::default(),
        }]);
        let after = pool.collect();
        assert_eq!(after[0].outcome, RequestOutcome::Rejected);
    }

    #[test]
    fn affinity_is_stable_modulo_workers() {
        let pool = SolverPool::new(&ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        for stream in 0..20u64 {
            assert_eq!(pool.worker_of(stream), (stream % 3) as usize);
        }
        // Degenerate worker counts clamp to 1.
        let one = SolverPool::new(&ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        assert_eq!(one.worker_of(17), 0);
    }

    #[test]
    fn order_within_stream_is_preserved() {
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut pool = SolverPool::with_sink(
            &ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            Arc::new(move |r| seen2.lock().unwrap().push(r.id)),
        );
        pool.submit(
            (0..30u64)
                .map(|id| {
                    let kind = if id < 4 {
                        RequestKind::New(instance(id))
                    } else {
                        RequestKind::Resolve
                    };
                    req(id, id % 4, kind)
                })
                .collect(),
        );
        pool.shutdown();
        let ids = seen.lock().unwrap();
        assert_eq!(ids.len(), 30);
        for stream in 0..4u64 {
            let per: Vec<u64> = ids.iter().copied().filter(|i| i % 4 == stream).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]), "{per:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sink-mode")]
    fn collect_on_sink_pool_panics() {
        let mut pool = SolverPool::with_sink(&ServiceConfig::default(), Arc::new(|_| {}));
        pool.collect();
    }

    fn req(id: u64, stream: u64, kind: RequestKind) -> AllocRequest {
        AllocRequest {
            id,
            stream,
            kind,
            budget: None,
            policy: Default::default(),
        }
    }

    #[test]
    fn panic_answers_failed_and_replacement_keeps_serving() {
        let mut faults = crate::FaultPlan::default();
        faults.panic_requests.insert(2);
        let config = ServiceConfig {
            workers: 1,
            faults: Some(faults),
            ..ServiceConfig::default()
        };
        let mut pool = SolverPool::new(&config);
        // Two streams on the one worker: stream 0 takes the panic,
        // stream 1 must come through untouched.
        let trace = vec![
            req(0, 0, RequestKind::New(instance(0))),
            req(1, 1, RequestKind::New(instance(1))),
            req(2, 0, RequestKind::Resolve), // injected panic
            req(3, 1, RequestKind::Resolve),
            req(4, 0, RequestKind::Resolve), // stream 0 was discarded
            req(5, 1, RequestKind::Resolve),
        ];
        let responses = pool.replay(trace);
        assert_eq!(responses.len(), 6);
        assert_eq!(responses[2].outcome, RequestOutcome::Failed);
        assert!(responses[2].error.as_deref().unwrap().contains("panicked"));
        assert_eq!(responses[4].outcome, RequestOutcome::StaleStream);

        // The untouched stream matches a fault-free run bit-for-bit.
        let mut clean = SolverPool::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let clean_responses = clean.replay(vec![
            req(1, 1, RequestKind::New(instance(1))),
            req(3, 1, RequestKind::Resolve),
            req(5, 1, RequestKind::Resolve),
        ]);
        for (faulted, clean) in [1usize, 3, 5].into_iter().zip(&clean_responses) {
            let (a, b) = (
                responses[faulted].solution.as_ref().unwrap(),
                clean.solution.as_ref().unwrap(),
            );
            assert_eq!(a.min_yield.to_bits(), b.min_yield.to_bits());
            assert_eq!(responses[faulted].probes, clean.probes);
        }

        // The replacement serves: re-send New, the stream is live again.
        let after = pool.replay(vec![
            req(6, 0, RequestKind::New(instance(0))),
            req(7, 0, RequestKind::Resolve),
        ]);
        assert!(
            after.iter().all(|r| r.outcome == RequestOutcome::Solved),
            "{after:?}"
        );
    }

    #[test]
    fn overload_sheds_past_queue_depth_and_answers_everything() {
        use crate::worker::OverloadControl;
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 1,
            overload: Some(OverloadControl {
                queue_depth: 1,
                shed_expired: false,
            }),
            ..ServiceConfig::default()
        });
        // One burst on one stream: exactly one request fits the queue;
        // the rest shed at admission, deterministically.
        let mut trace = vec![req(0, 0, RequestKind::New(instance(0)))];
        trace.extend((1..8u64).map(|id| req(id, 0, RequestKind::Resolve)));
        let responses = pool.replay(trace);
        assert_eq!(responses.len(), 8, "shed requests still answer");
        assert_eq!(responses[0].outcome, RequestOutcome::Solved);
        for r in &responses[1..] {
            assert_eq!(r.outcome, RequestOutcome::Overloaded);
            assert!(r.retry_after.unwrap() > Duration::ZERO);
        }
        assert_eq!(pool.shed_count(), 7);

        // The backlog drained: the same stream answers again.
        let after = pool.replay(vec![req(8, 0, RequestKind::Resolve)]);
        assert_eq!(after[0].outcome, RequestOutcome::Solved);
    }

    #[test]
    fn shed_mutation_poisons_its_stream_until_new() {
        use crate::worker::OverloadControl;
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 1,
            overload: Some(OverloadControl {
                queue_depth: 1,
                shed_expired: false,
            }),
            ..ServiceConfig::default()
        });
        let inst = instance(0);
        let delta = vmplace_model::WorkloadDelta::default();
        let responses = pool.replay(vec![
            req(0, 0, RequestKind::New(inst.clone())),
            req(1, 0, RequestKind::Delta(delta)), // shed → stream poisoned
            req(2, 0, RequestKind::Resolve),
        ]);
        assert_eq!(responses[1].outcome, RequestOutcome::Overloaded);
        // Depending on drain timing the resolve is shed or admitted; if
        // admitted it must answer stale-stream, never a wrong answer.
        assert!(
            matches!(
                responses[2].outcome,
                RequestOutcome::Overloaded | RequestOutcome::StaleStream
            ),
            "{:?}",
            responses[2].outcome
        );
        // Re-sending New recovers the stream (one per cycle — the depth-1
        // queue would shed the second request of a two-request burst).
        let after = pool.replay(vec![req(3, 0, RequestKind::New(inst))]);
        assert_eq!(after[0].outcome, RequestOutcome::Solved);
        let after = pool.replay(vec![req(4, 0, RequestKind::Resolve)]);
        assert_eq!(after[0].outcome, RequestOutcome::Solved);
    }

    #[test]
    fn expired_budgets_shed_at_dequeue_when_configured() {
        use crate::worker::OverloadControl;
        let mut pool = SolverPool::new(&ServiceConfig {
            workers: 1,
            overload: Some(OverloadControl {
                queue_depth: 64,
                shed_expired: true,
            }),
            ..ServiceConfig::default()
        });
        let responses = pool.replay(vec![
            req(0, 0, RequestKind::New(instance(0))),
            AllocRequest {
                budget: Some(Duration::ZERO), // expired on arrival
                ..req(1, 0, RequestKind::Resolve)
            },
            req(2, 0, RequestKind::Resolve),
        ]);
        assert_eq!(responses[0].outcome, RequestOutcome::Solved);
        assert_eq!(responses[1].outcome, RequestOutcome::Overloaded);
        assert!(responses[1].retry_after.is_some());
        // A non-mutating shed leaves the stream intact.
        assert_eq!(responses[2].outcome, RequestOutcome::Solved);
    }
}
