//! Traced pass of the serving workloads.
//!
//! The first fifth of the workload's traces is replayed, trace by trace,
//! first the way the gate replays it — untraced, for the end-to-end p50
//! the layers must add up to and the counts only a loaded server shows
//! (queue waits, wake-ups, drops) — and then through successively inner
//! public APIs on identical inputs, every level under the gate's closed
//! loop (one thread per connection, one request in flight each):
//!
//! ```text
//! net.roundtrip            Client::submit → recv_response over loopback
//! └ service.pool.roundtrip   SolverPool::submit → completion sink
//!   └ service.worker.process   Worker::process
//!     ├ model.apply_delta        ProblemInstance::apply_delta
//!     ├ service.repair.try       try_repair
//!     └ core.engine.solve        EngineHandle::solve_with_hint
//! ```
//!
//! Every level keeps its own resident state (server, pool, worker,
//! engine) and must reproduce the other levels' answers bit for bit, or
//! the decomposition would be of a different computation; a mismatch
//! fails the run.

use crate::Traced;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vmbench::oracle::Answer;
use vmbench::serve::{bind_server, judge, replay};
use vmbench::span::Tracer;
use vmbench::stats::median;
use vmbench::workload::{Discipline, ServeWorkload, CONNECTIONS};
use vmbench::Measured;
use vmplace_core::{EngineHandle, MetaVp};
use vmplace_model::{
    evaluate_placement, AllocRequest, AllocResponse, Placement, ProblemInstance, RequestKind,
    ResponsePolicy,
};
use vmplace_net::{codec, wire, Client, Server};
use vmplace_obs::Registry;
use vmplace_service::trace_io::{write_request, BlockAssembler};
use vmplace_service::{try_repair, yield_upper_bound, ServiceConfig, SolverPool, Worker};

const PINGS: usize = 2000;
const SNAPSHOTS: usize = 200;

fn service_config(metrics: Option<Arc<Registry>>) -> ServiceConfig {
    ServiceConfig {
        workers: CONNECTIONS,
        metrics,
        ..ServiceConfig::default()
    }
}

/// The traced subset as one op sequence: op `k` keeps its request but
/// takes `k` as id and a stream id unique to its trace (same parity, so
/// the same worker), since the inner levels have no connection to scope
/// stream ids by.
fn flatten(traces: &[Vec<AllocRequest>]) -> (Vec<AllocRequest>, Vec<std::ops::Range<usize>>) {
    let mut flat = Vec::new();
    let mut bounds = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let start = flat.len();
        for r in trace {
            flat.push(AllocRequest {
                id: flat.len() as u64,
                stream: i as u64 * 16 + r.stream,
                ..r.clone()
            });
        }
        bounds.push(start..flat.len());
    }
    (flat, bounds)
}

/// One op's start, end and result at one level.
type Step<R> = (Instant, Instant, R);

/// Replays `trace` at one level under the gate's discipline: one thread
/// per connection, each taking the requests of its streams in trace order
/// with one in flight — `step(state of the connection, position in the
/// trace, request)` — and all connections at once, so that every level
/// sees the load the gate puts on the whole stack (alone on an idle host
/// a round trip pays thread wake-ups that two busy connections do not:
/// one request in flight read 20% above the gate on `serve_cached`).
/// Results come back in trace order.
fn in_step<S: Send, R: Send>(
    trace: &[AllocRequest],
    connections: &mut [S],
    step: impl Fn(&mut S, usize, AllocRequest) -> R + Sync,
) -> Vec<Step<R>> {
    let step = &step;
    let mut done: Vec<Option<Step<R>>> = trace.iter().map(|_| None).collect();
    let per_connection: Vec<Vec<(usize, Step<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                scope.spawn(move || {
                    let mine = trace
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.stream as usize % CONNECTIONS == c);
                    mine.map(|(k, request)| {
                        let owned = request.clone();
                        let start = Instant::now();
                        let result = std::hint::black_box(step(state, k, owned));
                        (k, (start, Instant::now(), result))
                    })
                    .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("level thread"))
            .collect()
    });
    for (k, result) in per_connection.into_iter().flatten() {
        done[k] = Some(result);
    }
    done.into_iter()
        .map(|r| r.expect("every stream belongs to a connection"))
        .collect()
}

/// A fresh connection per connection slot.
fn connect(server: &Server) -> Vec<Client> {
    (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("connect"))
        .collect()
}

/// One round trip over loopback.
fn round_trip(client: &mut Client, _: usize, request: AllocRequest) -> AllocResponse {
    client.submit(&request).expect("submit");
    client.recv_response().expect("response")
}

/// An in-process pool and, per connection, where its completion sink
/// delivers that connection's responses.
struct PoolLevel {
    pool: Mutex<SolverPool>,
    done: Vec<Receiver<AllocResponse>>,
}

impl PoolLevel {
    fn new(metrics: Option<Arc<Registry>>) -> PoolLevel {
        let (senders, done): (Vec<_>, Vec<_>) = (0..CONNECTIONS).map(|_| channel()).unzip();
        let senders = Mutex::new(senders);
        let pool = SolverPool::with_sink(
            &service_config(metrics),
            Arc::new(move |r: AllocResponse| {
                let senders = senders.lock().expect("sink senders");
                let _ = senders[r.stream as usize % CONNECTIONS].send(r);
            }),
        );
        PoolLevel {
            pool: Mutex::new(pool),
            done,
        }
    }

    /// Submit → completion sink, every op of `trace`.
    fn replay(&mut self, trace: &[AllocRequest]) -> Vec<Step<AllocResponse>> {
        let pool = &self.pool;
        in_step(trace, &mut self.done, |done, _, request| {
            pool.lock().expect("pool").submit(vec![request]);
            done.recv().expect("pool answers every request")
        })
    }
}

/// A connection's share of a trace, answered: position in the trace and
/// the step.
type Share = Vec<(usize, Step<AllocResponse>)>;

/// One `Worker` per connection, each on a thread of its own for the
/// whole run: a worker cannot leave the thread that made it (the pool
/// keeps its workers the same way).
struct WorkerLevel {
    jobs: Vec<Sender<Vec<(usize, AllocRequest)>>>,
    done: Vec<Receiver<Share>>,
    threads: Vec<JoinHandle<(u64, u64)>>,
}

impl WorkerLevel {
    fn new() -> WorkerLevel {
        let mut level = WorkerLevel {
            jobs: Vec::new(),
            done: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..CONNECTIONS {
            let (jobs, todo) = channel::<Vec<(usize, AllocRequest)>>();
            let (finished, done) = channel();
            level.jobs.push(jobs);
            level.done.push(done);
            level.threads.push(std::thread::spawn(move || {
                let mut worker = Worker::new(&service_config(None));
                for share in todo {
                    let process = |(k, request)| {
                        let start = Instant::now();
                        let response = std::hint::black_box(worker.process(request));
                        (k, (start, Instant::now(), response))
                    };
                    let results = share.into_iter().map(process).collect();
                    if finished.send(results).is_err() {
                        break;
                    }
                }
                worker.cache_stats()
            }));
        }
        level
    }

    /// `Worker::process`, every op of `trace`, the connections at once.
    fn replay(&self, trace: &[AllocRequest]) -> Vec<Step<AllocResponse>> {
        for (c, jobs) in self.jobs.iter().enumerate() {
            let share = trace
                .iter()
                .enumerate()
                .filter(|(_, r)| r.stream as usize % CONNECTIONS == c)
                .map(|(k, r)| (k, r.clone()))
                .collect();
            jobs.send(share).expect("worker thread");
        }
        let mut results: Vec<Option<Step<AllocResponse>>> = trace.iter().map(|_| None).collect();
        for done in &self.done {
            for (k, result) in done.recv().expect("worker thread") {
                results[k] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every stream belongs to a connection"))
            .collect()
    }

    /// Ends the threads; the workers' cache `(hits, misses)` summed.
    fn finish(self) -> (u64, u64) {
        drop(self.jobs);
        self.threads
            .into_iter()
            .map(|t| t.join().expect("worker thread"))
            .fold((0, 0), |(h, m), (hits, misses)| (h + hits, m + misses))
    }
}

fn class_of(request: &AllocRequest, response: &AllocResponse) -> &'static str {
    match (&request.kind, response.cached) {
        (RequestKind::New(_), _) => "new",
        (RequestKind::Delta(_), _) => "delta",
        (RequestKind::Resolve, false) => "resolve_miss",
        (RequestKind::Resolve, true) => "resolve_hit",
    }
}

/// What the worker keeps per stream, rebuilt here from the trace and the
/// worker level's answers.
struct Stream {
    instance: ProblemInstance,
    last_yield: Option<f64>,
    last_placement: Option<Placement>,
}

impl Stream {
    fn repair_base(&self) -> Option<&Placement> {
        self.last_placement
            .as_ref()
            .filter(|p| p.len() == self.instance.num_services() && p.is_complete())
    }
}

/// Engine, repair and model calls, made exactly when and as the worker
/// makes them.
struct EngineLevel {
    /// This connection's spans, joined to the run's at the end.
    tracer: Tracer,
    engine: EngineHandle<MetaVp>,
    streams: BTreeMap<u64, Stream>,
    /// Ops whose replayed answer differs from the worker's.
    mismatches: u64,
    solves: u64,
    probes: u64,
    repairs_tried: u64,
    repairs_accepted: u64,
    migrations: u64,
}

impl EngineLevel {
    fn new(tracer: Tracer) -> EngineLevel {
        EngineLevel {
            tracer,
            // The worker's default engine: METAHVPLIGHT in telemetry
            // order, one thread.
            engine: EngineHandle::new(MetaVp::metahvp_light().with_telemetry_order())
                .with_threads(1),
            streams: BTreeMap::new(),
            mismatches: 0,
            solves: 0,
            probes: 0,
            repairs_tried: 0,
            repairs_accepted: 0,
            migrations: 0,
        }
    }

    /// Replays what the worker did for `request`, given its answer `seen`.
    fn step(&mut self, request: &AllocRequest, seen: &AllocResponse) {
        let tracer = &mut self.tracer;
        let parent = Some("service.worker.process");
        let op = request.id;
        let mut base: Option<Placement> = None;
        let repaired_policy = !request.policy.is_exact();
        let resolve = matches!(request.kind, RequestKind::Resolve);
        match &request.kind {
            RequestKind::New(instance) => {
                self.streams.insert(
                    request.stream,
                    Stream {
                        instance: instance.clone(),
                        last_yield: None,
                        last_placement: None,
                    },
                );
            }
            RequestKind::Delta(delta) => {
                let s = self
                    .streams
                    .get_mut(&request.stream)
                    .expect("delta after New");
                if repaired_policy {
                    base = s.repair_base().map(|p| delta.remap_placement(p));
                }
                s.instance = tracer
                    .time("model.apply_delta", "", op, parent, || {
                        s.instance.apply_delta(delta)
                    })
                    .expect("generated deltas apply");
            }
            RequestKind::Resolve => {
                if repaired_policy {
                    base = self.streams[&request.stream].repair_base().cloned();
                }
            }
        }
        let s = self
            .streams
            .get_mut(&request.stream)
            .expect("stream is open");
        let hint = match request.kind {
            RequestKind::New(_) => None,
            _ => s.last_yield,
        };
        if !seen.cached {
            let mut repaired = None;
            if let (
                ResponsePolicy::Repaired {
                    tolerance,
                    max_migrations,
                },
                Some(base),
            ) = (request.policy, &base)
            {
                self.repairs_tried += 1;
                repaired = tracer.time("service.repair.try", "", op, parent, || {
                    try_repair(&s.instance, base, tolerance, max_migrations, !resolve)
                });
                tracer.time("service.repair.bound", "", op, None, || {
                    yield_upper_bound(&s.instance)
                });
            }
            let solution = match repaired {
                Some(r) => {
                    self.repairs_accepted += 1;
                    self.migrations += r.migrations;
                    Some(r.solution)
                }
                None => {
                    let class = if hint.is_some() { "warm" } else { "cold" };
                    let engine = &mut self.engine;
                    let run = tracer.time("core.engine.solve", class, op, parent, || {
                        engine.solve_with_hint(&s.instance, hint, None)
                    });
                    self.solves += 1;
                    self.probes += run.probes();
                    run.solution
                }
            };
            let same = match (&solution, &seen.solution) {
                (Some(a), Some(b)) => {
                    a.min_yield.to_bits() == b.min_yield.to_bits() && a.placement == b.placement
                }
                (None, None) => true,
                _ => false,
            };
            self.mismatches += u64::from(!same);
        }
        if let Some(solution) = &seen.solution {
            tracer.time("model.evaluate", "", op, None, || {
                evaluate_placement(&s.instance, &solution.placement)
            });
            s.last_yield = Some(solution.min_yield);
            s.last_placement = Some(solution.placement.clone());
        }
    }
}

/// Leaf timings of the two codecs on the ops' own requests and answers.
#[derive(Default)]
struct CodecLevel {
    /// One assembler per connection, as in the server: it remembers each
    /// stream's dimensions from its `new`.
    assembler: BlockAssembler,
    text: String,
    frame: Vec<u8>,
    request_bytes: usize,
    response_bytes: usize,
}

impl CodecLevel {
    fn step(&mut self, request: &AllocRequest, response: &AllocResponse, t: &mut Tracer) {
        let op = request.id;
        self.text.clear();
        write_request(&mut self.text, request);
        self.request_bytes += self.text.len();
        let (text, assembler) = (&self.text, &mut self.assembler);
        t.time("net.wire_v1.decode_req", "", op, None, || {
            let mut decoded = None;
            for (n, line) in text.lines().enumerate() {
                decoded = assembler.feed(n + 1, line).expect("own encoding parses");
            }
            decoded.expect("a whole request block")
        });
        self.text.clear();
        let text = &mut self.text;
        t.time("net.wire_v1.encode_resp", "", op, None, || {
            wire::write_response(text, response)
        });
        self.response_bytes += self.text.len();
        self.frame.clear();
        codec::encode_request(&mut self.frame, request);
        let frame = &self.frame;
        t.time("net.codec_v2.decode_req", "", op, None, || {
            codec::decode_request(&frame[codec::HEADER_LEN..]).expect("own encoding decodes")
        });
        self.frame.clear();
        let frame = &mut self.frame;
        t.time("net.codec_v2.encode_resp", "", op, None, || {
            codec::encode_response(frame, response)
        });
    }
}

fn same_answer(a: &AllocResponse, b: &AllocResponse) -> bool {
    let claim = |r: &AllocResponse| Answer::new(r, None).claim;
    a.outcome == b.outcome && a.cached == b.cached && claim(a) == claim(b)
}

/// Median of `f(op)` over the ops of `outer`, where `f` sums the
/// durations of the op's spans named in `inner` (absent spans count 0).
fn median_inner(t: &Tracer, ops: usize, inner: &[&str]) -> f64 {
    let mut per_op = vec![0.0f64; ops];
    for s in t.spans() {
        if inner.contains(&s.name) {
            per_op[s.op as usize] += s.micros();
        }
    }
    median(&per_op)
}

pub fn trace(w: &ServeWorkload, t: &mut Tracer) -> Traced {
    let mut out = Traced::default();
    let subset = &w.traces[..(w.traces.len() / 5).max(4).min(w.traces.len())];
    let (flat, bounds) = flatten(subset);
    let ops = flat.len();

    // The server the gate's own replay goes to, after the gate's own
    // warm-up. It answers the subset trace by trace, untraced, between
    // the traced levels: the loaded-server counts, and the end-to-end p50
    // the layers have to add up to.
    let mut server = bind_server();
    let never = Instant::now() + Duration::from_secs(3600);
    replay(server.local_addr(), &w.warmup, w.discipline, never);
    let before = server.io_wakeups();
    let mut gate: Vec<Measured> = Vec::new();

    // The nested levels, trace by trace: each level replays the whole
    // trace under the gate's discipline, then the next level replays the
    // same trace. Within a trace a level's threads and caches stay as
    // warm as the gate's (op by op through every level, each level came
    // to its op cold and the repair path read 40% slow); between two
    // levels on one trace lie a second or two, not a whole replay, so
    // drift of the host cannot pass for a layer's time. The traced TCP
    // level sends as the gate does and keeps every round trip as a span.
    let mut tcp = bind_server();
    let mut pool = PoolLevel::new(None);
    let mut instrumented_pool = PoolLevel::new(Some(Registry::shared()));
    let workers = WorkerLevel::new();
    let mut engines: Vec<EngineLevel> = (0..CONNECTIONS)
        .map(|_| EngineLevel::new(t.fork()))
        .collect();
    let mut codecs = CodecLevel::default();
    let mut traced = Vec::with_capacity(ops);
    let mut disagreements = 0u64;
    for (i, range) in bounds.iter().enumerate() {
        let alone = &subset[i..=i];
        let trace = &flat[range.clone()];
        let base = range.start as u64;
        // Whichever of the two replays over TCP goes second finds the
        // host warmer (5–10% on `serve_cached`): they take turns.
        let untraced = || {
            let answers = replay(server.local_addr(), alone, w.discipline, never);
            judge(alone, &answers, Duration::ZERO)
        };
        let traced_tcp = || in_step(trace, &mut connect(&tcp), round_trip);
        let (untraced, over_tcp) = if i % 2 == 0 {
            let first = untraced();
            (first, traced_tcp())
        } else {
            let first = traced_tcp();
            (untraced(), first)
        };
        gate.push(untraced);
        for (k, (start, end, _)) in over_tcp.iter().enumerate() {
            t.record("net.roundtrip", "", base + k as u64, None, *start, *end);
            traced.push((*end - *start).as_secs_f64() * 1e6);
        }
        let pooled = pool.replay(trace);
        for (k, (start, end, _)) in pooled.iter().enumerate() {
            let parent = Some("net.roundtrip");
            let op = base + k as u64;
            t.record("service.pool.roundtrip", "", op, parent, *start, *end);
        }
        for (k, (start, end, _)) in instrumented_pool.replay(trace).iter().enumerate() {
            let name = "service.pool.roundtrip_instrumented";
            t.record(name, "", base + k as u64, None, *start, *end);
        }
        let direct = workers.replay(trace);
        for (request, (start, end, response)) in trace.iter().zip(&direct) {
            let (class, parent) = (class_of(request, response), "service.pool.roundtrip");
            let name = "service.worker.process";
            t.record(name, class, request.id, Some(parent), *start, *end);
        }
        in_step(trace, &mut engines, |engine, k, request| {
            engine.step(&request, &direct[k].2)
        });
        // Leaf timings of the codecs, on one thread.
        codecs.assembler = BlockAssembler::new();
        for (request, (_, _, response)) in trace.iter().zip(&direct) {
            codecs.step(request, response, t);
        }
        // Every level must have computed the same answers.
        disagreements += (0..trace.len())
            .filter(|&k| {
                let seen = &direct[k].2;
                !same_answer(&over_tcp[k].2, seen) || !same_answer(&pooled[k].2, seen)
            })
            .count() as u64;
    }
    let gate = Measured::total(&gate);
    out.attempted = gate.attempted;
    out.failed = gate.failed;
    let gate_us: Vec<f64> = gate.latencies_ms.iter().map(|ms| ms * 1e3).collect();
    let gate_p50 = median(&gate_us);
    let snapshot = server.metrics().snapshot();
    let mut count = |name: &'static str, value: f64| {
        t.count(name, value);
        out.metrics.insert(name, value);
    };
    count(
        "net.io_wakeups_per_op",
        (server.io_wakeups() - before) as f64 / ops as f64,
    );
    count(
        "net.responses_dropped",
        snapshot
            .counters
            .get("net.responses_dropped")
            .copied()
            .unwrap_or(0) as f64,
    );
    count(
        "service.pool.shed",
        snapshot.counters.get("service.shed").copied().unwrap_or(0) as f64,
    );
    if let Some(h) = snapshot.histograms.get("service.queue_wait_us") {
        count("service.pool.queue_wait_p50_us", h.quantile(0.5) as f64);
        count("service.pool.queue_wait_p99_us", h.quantile(0.99) as f64);
    }
    for _ in 0..SNAPSHOTS {
        t.time("obs.snapshot", "", 0, None, || server.stats_json());
    }
    server.shutdown();

    // The I/O core alone, under the same load as the round trips.
    let pings: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connect(&tcp)
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let ping = |_| {
                        let start = Instant::now();
                        client.ping("p").expect("pong");
                        (start, Instant::now())
                    };
                    (0..PINGS / CONNECTIONS).map(ping).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ping thread"))
            .collect()
    });
    for (k, (start, end)) in pings.into_iter().enumerate() {
        t.record("net.ping", "", k as u64, None, start, end);
    }
    tcp.shutdown();
    for level in [pool, instrumented_pool] {
        level.pool.into_inner().expect("pool").shutdown();
    }
    let total = |of: fn(&EngineLevel) -> u64| engines.iter().map(of).sum::<u64>();
    let mismatches = total(|e| e.mismatches);
    let (solves, probes) = (total(|e| e.solves), total(|e| e.probes));
    let (tried, accepted) = (total(|e| e.repairs_tried), total(|e| e.repairs_accepted));
    let migrations = total(|e| e.migrations);
    for level in engines {
        t.absorb(level.tracer);
    }
    if disagreements + mismatches > 0 {
        eprintln!(
            "vmbench-trace: levels disagree on {disagreements} ops ({mismatches} at the engine level)"
        );
        out.failed = out.attempted;
    }
    let (hits, misses) = workers.finish();
    let solve_us: f64 = t.durations("core.engine.solve", "").iter().sum();
    let mut ratio = |name: &'static str, num: f64, den: f64| {
        if den > 0.0 {
            t.count(name, num / den);
            out.metrics.insert(name, num / den);
        }
    };
    ratio(
        "service.cache.hit_ratio",
        hits as f64,
        (hits + misses) as f64,
    );
    ratio("core.engine.probes_per_solve", probes as f64, solves as f64);
    ratio("core.engine.us_per_probe", solve_us, probes as f64);
    ratio("service.repair.accept_ratio", accepted as f64, tried as f64);
    ratio(
        "service.repair.migrations_mean",
        migrations as f64,
        accepted as f64,
    );
    ratio("net.bytes_per_req", codecs.request_bytes as f64, ops as f64);
    ratio(
        "net.bytes_per_resp",
        codecs.response_bytes as f64,
        ops as f64,
    );

    // Medians of the spans.
    for (name, span, class) in [
        ("net.ping_rtt_us", "net.ping", ""),
        ("net.wire_v1.decode_req_us", "net.wire_v1.decode_req", ""),
        ("net.wire_v1.encode_resp_us", "net.wire_v1.encode_resp", ""),
        ("net.codec_v2.decode_req_us", "net.codec_v2.decode_req", ""),
        (
            "net.codec_v2.encode_resp_us",
            "net.codec_v2.encode_resp",
            "",
        ),
        (
            "service.worker.process_us.new",
            "service.worker.process",
            "new",
        ),
        (
            "service.worker.process_us.delta",
            "service.worker.process",
            "delta",
        ),
        (
            "service.worker.process_us.resolve_miss",
            "service.worker.process",
            "resolve_miss",
        ),
        (
            "service.worker.process_us.resolve_hit",
            "service.worker.process",
            "resolve_hit",
        ),
        ("service.repair.try_us", "service.repair.try", ""),
        ("service.repair.bound_us", "service.repair.bound", ""),
        ("model.apply_delta_us", "model.apply_delta", ""),
        ("model.evaluate_us", "model.evaluate", ""),
        ("core.engine.solve_us.warm", "core.engine.solve", "warm"),
        ("core.engine.solve_us.cold", "core.engine.solve", "cold"),
        ("obs.snapshot_us", "obs.snapshot", ""),
    ] {
        out.median_of(name, &t.durations(span, class));
    }

    // Self times along the nesting, and how well they add back up to the
    // gate's figure (not to the traced round trip, which they telescope
    // out of and would match by construction).
    let net_self = median(&t.self_times("net.roundtrip", &[]));
    let pool_self = median(&t.self_times("service.pool.roundtrip", &[]));
    let worker_self = median(&t.self_times("service.worker.process", &["model.apply_delta"]));
    let worker_rest = median(&t.self_times("service.worker.process", &[]));
    let below = median_inner(t, ops, &["service.repair.try", "core.engine.solve"]);
    let traced_p50 = median(&traced);
    let layers = net_self + pool_self + worker_self + below;
    let get = |out: &Traced, name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    let explained = get(&out, "net.ping_rtt_us")
        + get(&out, "net.wire_v1.decode_req_us")
        + get(&out, "net.wire_v1.encode_resp_us");
    let instrumented = t.durations("service.pool.roundtrip_instrumented", "");
    let plain = t.durations("service.pool.roundtrip", "");
    let overhead: Vec<f64> = instrumented
        .iter()
        .zip(&plain)
        .map(|(i, p)| i - p)
        .collect();
    for (name, value) in [
        ("net.roundtrip_self_us", net_self),
        ("net.unattributed_us", net_self - explained),
        ("service.pool.self_us", pool_self),
        ("service.worker.self_us", worker_self),
        ("service.worker.unattributed_us", worker_rest),
        ("obs.record_overhead_us", median(&overhead)),
        ("trace.layers_over_e2e", layers / gate_p50),
        ("trace.unattributed_us", gate_p50 - layers),
    ] {
        out.metrics.insert(name, value);
    }
    // The traced round trips are closed loops: against a pipelined gate
    // their difference is the queue, not the tracing.
    if w.discipline == Discipline::ClosedLoop {
        let overhead = (traced_p50 - gate_p50) / gate_p50;
        out.metrics.insert("trace.overhead_share", overhead);
    }
    println!(
        "{ops} ops as the gate sends them, untraced: p50 {gate_p50:.1} us; layer by layer: net \
         {net_self:.1} + pool {pool_self:.1} + worker {worker_self:.1} + engine/repair {below:.1} \
         = {layers:.1} us (the traced round trip itself: p50 {traced_p50:.1} us); {:.1} us of \
         the gate's p50 unattributed",
        gate_p50 - layers
    );
    out
}
