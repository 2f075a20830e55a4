//! The TCP front-end: acceptor, protocol engine, graceful drain.
//!
//! ```text
//!               acceptor thread
//!                     │ accept()
//!                     ▼
//!   a few event-loop threads (crate::event)
//!   multiplexing every socket via poll(2)
//!                │      ▲
//!                ▼      │
//!         SolverPool ───┘ completion sink
//!   (routes by the connection bits of the response id)
//! ```
//!
//! Every connection runs the same protocol engine, [`ConnProto`]: a
//! byte-fed state machine that performs the version handshake, parses
//! v1 text lines or v2 binary frames, remaps ids, submits to the shared
//! [`SolverPool`] and narrates the submission order as [`Meta`] events.
//! The event loop that owns the connection feeds it from non-blocking
//! reads and drains the metas into the connection's outbound byte ring;
//! the differential suite pins the result to the in-process pool bit
//! for bit.
//!
//! Requests are submitted to the shared [`SolverPool`] in sink
//! (completion-callback) mode. Because different streams of one
//! connection land on different workers, completions arrive out of
//! order; each connection holds them in a heap and emits frames
//! strictly in the connection's submission order — pongs and error
//! frames take their in-band position in that same sequence.
//!
//! **Namespacing.** Client ids and stream ids are connection-local. The
//! server rewrites both on the way in — `(connection index << 40) |
//! value` — so streams of different connections can never alias inside
//! the pool, and restores the client's own values on the way out (the
//! connection knows them per sequence number, so client *ids* are
//! arbitrary u64s; client *streams* must stay below 2^40).
//!
//! **Version negotiation.** The hello line carries the client's wire
//! version; the server answers `min(client, ServerConfig::max_wire)`
//! for known versions (1 and 2) and `error bad-version` for anything
//! else. A v1 client is answered byte-for-byte as by a v1-only build.

use crate::codec;
use crate::event::EventCore;
use crate::wire::{
    self, codes, write_response, MAX_BODY_LINES, MAX_LINE_BYTES, MAX_PROTOCOL_VERSION,
    MAX_STREAM_ID, PROTOCOL_V2, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;
use vmplace_model::{AllocRequest, AllocResponse};
use vmplace_obs::{Counter, Gauge, Histogram, Registry, TraceId};
use vmplace_service::{
    trace_io::BlockAssembler, FaultPlan, ServiceConfig, SolverPool, INJECTED_FAULT_MARKER,
};

/// Bits of a server-side id/stream holding the connection-local value.
pub(crate) const CONN_SHIFT: u32 = 40;
pub(crate) const SEQ_MASK: u64 = (1 << CONN_SHIFT) - 1;

/// Connection indices must fit in the bits above the shift; a server
/// that has accepted this many connections over its lifetime refuses
/// further ones rather than alias ids across tenants.
const CONN_LIMIT: u64 = 1 << (64 - CONN_SHIFT);

/// The drain's quiet window: once a drain begins, requests flushed
/// before it are still read and answered, and the first interval this
/// long without incoming bytes ends the connection's intake.
pub(crate) const DRAIN_QUIET: std::time::Duration = std::time::Duration::from_millis(100);

/// How long a draining connection keeps accepting frames from a client
/// that never goes quiet. Frames already buffered at drain time are
/// consumed within microseconds; this bound only stops a continuously
/// streaming client from holding the drain open forever.
pub(crate) const DRAIN_GRACE: std::time::Duration = std::time::Duration::from_millis(500);

/// Write stall limit: a client that pipelines requests but never reads
/// responses must not hold its connection (and so the drain) open
/// forever once the kernel send buffer fills. After this long without
/// write progress the connection is torn down (a refused connection's
/// one-line answer gives up after it too).
pub(crate) const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Acceptor back-off after a file-descriptor-exhaustion accept failure
/// (also advertised as the rejection's `retry-after-ms` hint).
const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(20);

/// Configuration of the network front-end.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The allocation-service configuration backing the pool (workers,
    /// algorithm, warm start, response cache, default budget).
    pub service: ServiceConfig,
    /// Event-loop threads serving the connections (0 = default 2).
    pub event_threads: usize,
    /// Highest wire protocol version offered in negotiation (clamped
    /// to `1..=`[`MAX_PROTOCOL_VERSION`]; default the maximum). Set to
    /// 1 to pin a v1-only server.
    pub max_wire: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            service: ServiceConfig::default(),
            event_threads: 0,
            max_wire: MAX_PROTOCOL_VERSION,
        }
    }
}

/// The network layer's metric handles — cheap clones of registry-owned
/// atomics (see [`vmplace_obs`]), shared by every event loop. Recording
/// is strictly off the result path: every handle is a relaxed atomic and
/// nothing here can change a response byte.
#[derive(Clone)]
pub(crate) struct NetMetrics {
    /// `net.conns.accepted`: connections accepted over the server's
    /// lifetime.
    pub(crate) conns_accepted: Counter,
    /// `net.conns.open`: currently live connections.
    pub(crate) conns_open: Gauge,
    /// `net.wire.v1` / `net.wire.v2`: handshakes by negotiated version.
    pub(crate) wire_v1: Counter,
    pub(crate) wire_v2: Counter,
    /// `net.requests`: solver requests admitted past parsing.
    pub(crate) requests: Counter,
    /// `net.pings`: ping frames received.
    pub(crate) pings: Counter,
    /// `net.stats_requests`: stats frames received.
    pub(crate) stats_requests: Counter,
    /// `net.errors`: structured error frames emitted.
    pub(crate) errors: Counter,
    /// `net.responses`: response frames fully queued to the connection's
    /// outbound ring.
    pub(crate) responses: Counter,
    /// `net.responses_dropped`: completed responses that never reached
    /// the wire — the owning connection was torn down (write failure,
    /// injected drop) or already gone when the completion arrived.
    pub(crate) responses_dropped: Counter,
    /// `net.ping_us`: ping receipt → pong emission.
    pub(crate) ping_us: Histogram,
    /// `net.request_us`: request admission → completion arrival (queue
    /// wait + solve, the request's sojourn in the pool).
    pub(crate) request_us: Histogram,
    /// `net.encode_us`: response frame encode time.
    pub(crate) encode_us: Histogram,
}

impl NetMetrics {
    fn new(r: &Registry) -> NetMetrics {
        NetMetrics {
            conns_accepted: r.counter("net.conns.accepted"),
            conns_open: r.gauge("net.conns.open"),
            wire_v1: r.counter("net.wire.v1"),
            wire_v2: r.counter("net.wire.v2"),
            requests: r.counter("net.requests"),
            pings: r.counter("net.pings"),
            stats_requests: r.counter("net.stats_requests"),
            errors: r.counter("net.errors"),
            responses: r.counter("net.responses"),
            responses_dropped: r.counter("net.responses_dropped"),
            ping_us: r.histogram("net.ping_us"),
            request_us: r.histogram("net.request_us"),
            encode_us: r.histogram("net.encode_us"),
        }
    }
}

/// What the protocol engine tells the emit side about each
/// submission-order slot.
pub(crate) enum Meta {
    /// Emit the protocol greeting for the negotiated wire version.
    Greeting(u32),
    /// A solver request occupies this slot; the emitter must wait for
    /// its completion and restore the client's id and stream.
    Request {
        /// Connection-local submission sequence number.
        seq: u64,
        /// The id the client sent (restored on the response).
        client_id: u64,
        /// The stream the client sent (restored on the response).
        client_stream: u64,
    },
    /// Emit a pong immediately (the instant is the ping's receipt, for
    /// the `net.ping_us` histogram).
    Pong(String, Instant),
    /// Emit a metrics snapshot immediately. The JSON is rendered at
    /// emission time, so the snapshot reflects every request already
    /// answered ahead of it in this connection's stream.
    Stats,
    /// Emit a structured error frame immediately.
    Error {
        /// One of [`codes`].
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
    /// Emit `bye`, flush, and end the connection's response stream.
    Bye,
}

/// Completions keyed (and min-ordered) by submission sequence.
pub(crate) struct Pending(pub(crate) u64, pub(crate) AllocResponse);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest seq.
        other.0.cmp(&self.0)
    }
}

pub(crate) struct Shared {
    addr: SocketAddr,
    pub(crate) draining: AtomicBool,
    /// Set at the very end of the drain: the acceptor exits instead of
    /// answering `draining`, and the event loops may finish.
    pub(crate) accept_stop: AtomicBool,
    /// Signalled when a `shutdown` wire frame (or [`Server::shutdown`])
    /// requests the drain.
    shutdown_requested: (Mutex<bool>, Condvar),
    /// The shared pool, in sink mode. Taken (and dropped, joining the
    /// workers) at the end of the drain.
    pub(crate) pool: Mutex<Option<SolverPool>>,
    next_conn: AtomicU64,
    /// Socket-level fault injection (`None` in production). The same
    /// plan travels into the pool workers via [`ServiceConfig::faults`]
    /// for the solver-panic faults.
    pub(crate) faults: Option<FaultPlan>,
    /// Highest wire version this server negotiates.
    pub(crate) max_wire: u32,
    /// I/O wake-ups: event-loop `poll(2)` returns. The idle-connection
    /// suite asserts the count stays ~zero while connections are quiet.
    /// A registry counter (`net.io_wakeups`), so `stats` reports it.
    pub(crate) wakeups: Counter,
    /// The server's metrics registry: the pool workers, the event loops
    /// and the `stats` verb all read and write this one.
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: NetMetrics,
    /// In-flight admissions: remapped request id → (trace id minted at
    /// admission, admission instant). The completion sink removes the
    /// entry and records the sojourn into `net.request_us`.
    inflight: Mutex<HashMap<u64, (TraceId, Instant)>>,
}

impl Shared {
    pub(crate) fn request_shutdown(&self) {
        let (lock, cvar) = &self.shutdown_requested;
        *lock.lock().expect("shutdown flag") = true;
        cvar.notify_all();
    }

    /// Retires one connection's stream namespace in the pool. FIFO per
    /// worker orders the retirement after every request the connection
    /// submitted, so long-lived worker memory (instances, warm yields,
    /// caches) tracks live clients.
    pub(crate) fn retire_conn(&self, conn_id: u64) {
        self.metrics.conns_open.sub(1);
        if let Some(pool) = self.pool.lock().expect("pool slot").as_mut() {
            pool.retire_streams(conn_id << CONN_SHIFT, !SEQ_MASK);
        }
    }

    /// Records a request's admission (trace id + instant) under its
    /// remapped id; the completion sink takes it back.
    fn admit(&self, remapped_id: u64) {
        let trace = TraceId::mint();
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(remapped_id, (trace, Instant::now()));
    }

    /// Removes an admission record (on completion, or when a submission
    /// could not be handed to the pool after all).
    pub(crate) fn unadmit(&self, remapped_id: u64) -> Option<(TraceId, Instant)> {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&remapped_id)
    }
}

/// Renders a server registry's live metrics snapshot as one line of
/// JSON: the full registry (counters, gauges, histogram quantiles) plus
/// derived ratios. The body of every `stats` reply, `--metrics-interval`
/// line and `vmplace top` screen — hand it the handle from
/// [`Server::metrics`] to render snapshots without holding the server.
pub fn render_stats(registry: &Registry) -> String {
    let mut snap = registry.snapshot();
    let hits = snap
        .counters
        .get("service.cache.hits")
        .copied()
        .unwrap_or(0);
    let misses = snap
        .counters
        .get("service.cache.misses")
        .copied()
        .unwrap_or(0);
    let lookups = hits + misses;
    snap.derive(
        "service.cache.hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    snap.to_json()
}

/// The internal spelling: the event loops answer `stats` from the shared
/// state's registry.
pub(crate) fn stats_json(shared: &Shared) -> String {
    render_stats(&shared.registry)
}

// ---------------------------------------------------------- frame output

/// The greeting is a text line in every protocol version — a client can
/// always read the negotiated version before switching framing.
pub(crate) fn greeting_frame(wire: u32) -> Vec<u8> {
    format!("{} {} ready\n", wire::MAGIC, wire.max(1)).into_bytes()
}

pub(crate) fn pong_frame(wire: u32, token: &str) -> Vec<u8> {
    if wire >= PROTOCOL_V2 {
        let mut out = Vec::new();
        codec::encode_pong(&mut out, token);
        out
    } else if token.is_empty() {
        b"pong\n".to_vec()
    } else {
        format!("pong {token}\n").into_bytes()
    }
}

pub(crate) fn error_frame(wire: u32, code: &str, message: &str) -> Vec<u8> {
    if wire >= PROTOCOL_V2 {
        let mut out = Vec::new();
        codec::encode_error(&mut out, code, message);
        out
    } else {
        format!("error {code} {message}\n").into_bytes()
    }
}

pub(crate) fn stats_frame(wire: u32, json: &str) -> Vec<u8> {
    if wire >= PROTOCOL_V2 {
        let mut out = Vec::new();
        codec::encode_stats_reply(&mut out, json);
        out
    } else {
        format!("stats {json}\n").into_bytes()
    }
}

pub(crate) fn bye_frame(wire: u32) -> Vec<u8> {
    if wire >= PROTOCOL_V2 {
        let mut out = Vec::new();
        codec::encode_bye(&mut out);
        out
    } else {
        b"bye\n".to_vec()
    }
}

pub(crate) fn response_frame(wire: u32, response: &AllocResponse) -> Vec<u8> {
    if wire >= PROTOCOL_V2 {
        let mut out = Vec::new();
        codec::encode_response(&mut out, response);
        out
    } else {
        let mut text = String::new();
        write_response(&mut text, response);
        text.into_bytes()
    }
}

// ------------------------------------------------------- protocol engine

/// What the engine's driver should do after feeding it bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep reading.
    Continue,
    /// The engine queued its final meta (`bye`, possibly after an
    /// error); stop reading. The emit side still owes the queued frames
    /// and every submitted request's response.
    Closed,
}

enum ProtoState {
    /// Awaiting the text hello line.
    Handshake,
    /// Established, v1: text lines into the [`BlockAssembler`].
    V1,
    /// Established, v2: accumulating a 5-byte binary frame header.
    V2Head,
    /// Established, v2: accumulating a frame body.
    V2Body,
}

/// The wire-version-agnostic protocol engine one connection runs
/// (module docs sketch how the event loop drives it).
///
/// `feed` never blocks and never performs socket I/O: it consumes
/// whatever bytes the driver has, queues [`Meta`] events through the
/// driver's sink, and submits complete requests to the pool. All
/// protocol limits (line length, body lines, frame bytes, stream-id
/// range) are enforced here, apart from any socket handling.
pub(crate) struct ConnProto {
    conn_id: u64,
    state: ProtoState,
    /// Negotiated wire version (0 until the handshake completes; the
    /// emit side treats 0 as v1 text so pre-handshake errors stay
    /// readable to every client).
    pub(crate) wire: u32,
    /// Partial text line (handshake and v1).
    line: Vec<u8>,
    /// v2 header accumulator.
    head: [u8; codec::HEADER_LEN],
    head_len: usize,
    /// v2 body accumulator and the header it belongs to.
    body: Vec<u8>,
    body_need: usize,
    body_kind: u8,
    assembler: BlockAssembler,
    seq: u64,
    line_no: usize,
    closed: bool,
}

impl ConnProto {
    pub(crate) fn new(conn_id: u64) -> ConnProto {
        ConnProto {
            conn_id,
            state: ProtoState::Handshake,
            wire: 0,
            line: Vec::new(),
            head: [0; codec::HEADER_LEN],
            head_len: 0,
            body: Vec::new(),
            body_need: 0,
            body_kind: 0,
            assembler: BlockAssembler::new(),
            seq: 0,
            line_no: 0,
            closed: false,
        }
    }

    /// Queues a structured error followed by `bye` and closes intake.
    pub(crate) fn fail(
        &mut self,
        code: &'static str,
        message: String,
        metas: &mut dyn FnMut(Meta),
    ) {
        if self.closed {
            return;
        }
        self.closed = true;
        metas(Meta::Error { code, message });
        metas(Meta::Bye);
    }

    /// The peer is gone (EOF / read error) or went quiet during a
    /// drain: queue the clean `bye` and close intake.
    pub(crate) fn on_eof(&mut self, metas: &mut dyn FnMut(Meta)) {
        if self.closed {
            return;
        }
        self.closed = true;
        metas(Meta::Bye);
    }

    /// Feeds freshly read bytes through the engine.
    pub(crate) fn feed(
        &mut self,
        shared: &Shared,
        mut bytes: &[u8],
        metas: &mut dyn FnMut(Meta),
    ) -> Flow {
        while !bytes.is_empty() && !self.closed {
            match self.state {
                ProtoState::Handshake | ProtoState::V1 => {
                    match bytes.iter().position(|&b| b == b'\n') {
                        Some(i) if self.line.len() + i <= MAX_LINE_BYTES => {
                            self.line.extend_from_slice(&bytes[..i]);
                            bytes = &bytes[i + 1..];
                            if self.line.last() == Some(&b'\r') {
                                self.line.pop();
                            }
                            let raw = std::mem::take(&mut self.line);
                            self.line_no += 1;
                            match String::from_utf8(raw) {
                                Ok(line) => self.on_line(shared, &line, metas),
                                Err(_) => {
                                    let what = if matches!(self.state, ProtoState::Handshake) {
                                        "hello not UTF-8".to_string()
                                    } else {
                                        format!("line {} is not valid UTF-8", self.line_no)
                                    };
                                    self.fail(codes::BAD_UTF8, what, metas);
                                }
                            }
                        }
                        _ if self.line.len() + bytes.len() > MAX_LINE_BYTES => {
                            let what = if matches!(self.state, ProtoState::Handshake) {
                                "oversized hello".to_string()
                            } else {
                                format!("line {} exceeds {MAX_LINE_BYTES} bytes", self.line_no + 1)
                            };
                            self.fail(codes::FRAME_TOO_LARGE, what, metas);
                        }
                        _ => {
                            self.line.extend_from_slice(bytes);
                            bytes = &[];
                        }
                    }
                }
                ProtoState::V2Head => {
                    let want = codec::HEADER_LEN - self.head_len;
                    let take = want.min(bytes.len());
                    self.head[self.head_len..self.head_len + take].copy_from_slice(&bytes[..take]);
                    self.head_len += take;
                    bytes = &bytes[take..];
                    if self.head_len == codec::HEADER_LEN {
                        self.head_len = 0;
                        let (kind, len) = codec::parse_header(&self.head);
                        if len > codec::MAX_FRAME_BYTES {
                            // A lying length field is refused before any
                            // allocation (the v1 analogue of an oversized
                            // line).
                            self.fail(
                                codes::FRAME_TOO_LARGE,
                                format!("frame of {len} bytes exceeds {}", codec::MAX_FRAME_BYTES),
                                metas,
                            );
                        } else if len == 0 {
                            self.on_v2_frame(shared, kind, &[], metas);
                        } else {
                            self.body_kind = kind;
                            self.body_need = len as usize;
                            self.body.clear();
                            // Capacity grows with arriving bytes; a lying
                            // header alone never allocates the advertised
                            // size.
                            self.state = ProtoState::V2Body;
                        }
                    }
                }
                ProtoState::V2Body => {
                    let want = self.body_need - self.body.len();
                    let take = want.min(bytes.len());
                    self.body.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if self.body.len() == self.body_need {
                        let body = std::mem::take(&mut self.body);
                        self.state = ProtoState::V2Head;
                        self.on_v2_frame(shared, self.body_kind, &body, metas);
                    }
                }
            }
        }
        if self.closed {
            Flow::Closed
        } else {
            Flow::Continue
        }
    }

    fn on_line(&mut self, shared: &Shared, line: &str, metas: &mut dyn FnMut(Meta)) {
        if matches!(self.state, ProtoState::Handshake) {
            let mut words = line.split_whitespace();
            let version = if words.next() == Some(wire::MAGIC) {
                words.next().and_then(|v| v.parse::<u32>().ok())
            } else {
                None
            };
            let version = version.filter(|_| words.next().is_none());
            match version {
                Some(v @ 1..=MAX_PROTOCOL_VERSION) => {
                    self.wire = v.min(shared.max_wire.clamp(1, MAX_PROTOCOL_VERSION));
                    self.state = if self.wire >= PROTOCOL_V2 {
                        shared.metrics.wire_v2.inc();
                        ProtoState::V2Head
                    } else {
                        shared.metrics.wire_v1.inc();
                        ProtoState::V1
                    };
                    metas(Meta::Greeting(self.wire));
                }
                _ => self.fail(
                    codes::BAD_VERSION,
                    format!(
                        "expected `{} <version ≤ {}>`, got `{line}`",
                        wire::MAGIC,
                        MAX_PROTOCOL_VERSION
                    ),
                    metas,
                ),
            }
            return;
        }

        if !self.assembler.in_block() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                return;
            }
            let (verb, rest) = trimmed
                .split_once(char::is_whitespace)
                .unwrap_or((trimmed, ""));
            match verb {
                "ping" => {
                    shared.metrics.pings.inc();
                    metas(Meta::Pong(rest.trim().to_string(), Instant::now()));
                    return;
                }
                "stats" => {
                    shared.metrics.stats_requests.inc();
                    metas(Meta::Stats);
                    return;
                }
                "shutdown" => {
                    self.order_shutdown(shared, metas);
                    return;
                }
                "request" => {} // falls through to the assembler
                other => {
                    return self.fail(
                        codes::UNKNOWN_VERB,
                        format!("line {}: unknown verb `{other}`", self.line_no),
                        metas,
                    )
                }
            }
        } else if line.trim() != "end" && self.assembler.body_lines() >= MAX_BODY_LINES {
            // Only lines that would *join* the body count against the
            // limit — a block of exactly MAX_BODY_LINES still closes.
            return self.fail(
                codes::FRAME_TOO_LARGE,
                format!("request block exceeds {MAX_BODY_LINES} body lines"),
                metas,
            );
        }

        match self.assembler.feed(self.line_no, line) {
            Ok(None) => {}
            Ok(Some(request)) => self.submit(shared, request, metas),
            Err(e) => self.fail(codes::BAD_FRAME, e.to_string(), metas),
        }
    }

    fn on_v2_frame(&mut self, shared: &Shared, kind: u8, body: &[u8], metas: &mut dyn FnMut(Meta)) {
        match codec::decode_client_frame(kind, body) {
            Ok(codec::ClientFrame::Request(request)) => self.submit(shared, *request, metas),
            Ok(codec::ClientFrame::Ping(token)) => {
                shared.metrics.pings.inc();
                metas(Meta::Pong(token, Instant::now()));
            }
            Ok(codec::ClientFrame::Stats) => {
                shared.metrics.stats_requests.inc();
                metas(Meta::Stats);
            }
            Ok(codec::ClientFrame::Shutdown) => self.order_shutdown(shared, metas),
            Err(e) => self.fail(codes::BAD_FRAME, e.to_string(), metas),
        }
    }

    /// The `shutdown` verb: begin the server-wide drain; this
    /// connection's in-flight responses still go out before `bye`.
    fn order_shutdown(&mut self, shared: &Shared, metas: &mut dyn FnMut(Meta)) {
        shared.draining.store(true, Ordering::SeqCst);
        shared.request_shutdown();
        self.on_eof(metas);
    }

    /// Remaps one parsed request into the connection's namespace,
    /// narrates its slot and hands it to the pool.
    fn submit(&mut self, shared: &Shared, request: AllocRequest, metas: &mut dyn FnMut(Meta)) {
        if request.stream >= MAX_STREAM_ID {
            return self.fail(
                codes::BAD_FRAME,
                format!("stream id {} exceeds {}", request.stream, MAX_STREAM_ID - 1),
                metas,
            );
        }
        let client_id = request.id;
        let client_stream = request.stream;
        let remapped = AllocRequest {
            id: (self.conn_id << CONN_SHIFT) | self.seq,
            stream: (self.conn_id << CONN_SHIFT) | client_stream,
            kind: request.kind,
            budget: request.budget,
            policy: request.policy,
        };
        metas(Meta::Request {
            seq: self.seq,
            client_id,
            client_stream,
        });
        self.seq += 1;
        // Admission: mint the trace id and stamp the sojourn clock before
        // the pool can complete the request (the sink takes both back).
        shared.metrics.requests.inc();
        let remapped_id = remapped.id;
        shared.admit(remapped_id);
        let mut pool = shared.pool.lock().expect("pool slot");
        match pool.as_mut() {
            Some(pool) => pool.submit(vec![remapped]),
            None => {
                // Drained under us: the emit side answers instead.
                drop(pool);
                shared.unadmit(remapped_id);
                self.fail(codes::DRAINING, "server is draining".into(), metas);
            }
        }
    }
}

// ----------------------------------------------------------- the server

/// A running allocation server. The module docs at the top of
/// `server.rs` sketch the threads; `crates/net/README.md` has the
/// protocol (both wire versions).
///
/// Binding to port 0 picks an ephemeral port; [`Server::local_addr`]
/// reports the actual address (tests and CI never collide on a fixed
/// port).
///
/// [`Server::shutdown`] is graceful and idempotent: new connections are
/// rejected with a `draining` greeting, every request already submitted
/// is solved and its response delivered, and all threads (acceptor,
/// connection I/O, pool workers) are joined before it returns.
/// Dropping the server calls it implicitly.
pub struct Server {
    shared: Arc<Shared>,
    core: Arc<EventCore>,
    acceptor: Option<JoinHandle<()>>,
    /// Drain-once guard: `true` once a shutdown completed.
    done: Mutex<bool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Every server is instrumented: adopt the caller's registry when
        // the config carries one, otherwise create a private one, and
        // inject it into the service config so the pool workers record
        // into the same registry the `stats` verb snapshots.
        let mut service = config.service.clone();
        let registry = service.metrics.get_or_insert_with(Registry::shared).clone();
        let metrics = NetMetrics::new(&registry);
        let shared = Arc::new(Shared {
            addr,
            draining: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            pool: Mutex::new(None),
            next_conn: AtomicU64::new(0),
            faults: service.faults.clone().filter(|plan| !plan.is_empty()),
            max_wire: config.max_wire.clamp(1, MAX_PROTOCOL_VERSION),
            wakeups: registry.counter("net.io_wakeups"),
            registry,
            metrics,
            inflight: Mutex::new(HashMap::new()),
        });

        let threads = if config.event_threads == 0 {
            2
        } else {
            config.event_threads.min(64)
        };
        let core = EventCore::start(shared.clone(), threads)?;

        // The pool delivers completions straight to the owning event
        // loop's injector, routed by the connection bits of the id.
        let sink_shared = shared.clone();
        let sink_core = core.clone();
        let pool = SolverPool::with_sink(
            &service,
            Arc::new(move |response: AllocResponse| {
                let conn = response.id >> CONN_SHIFT;
                let seq = response.id & SEQ_MASK;
                // Close out the admission record: the elapsed time is the
                // request's sojourn through the pool (queue wait + solve).
                if let Some((_trace, admitted)) = sink_shared.unadmit(response.id) {
                    sink_shared.metrics.request_us.record(admitted.elapsed());
                }
                sink_core.complete(conn, Pending(seq, response));
            }),
        );
        *shared.pool.lock().expect("pool slot") = Some(pool);

        let acceptor_shared = shared.clone();
        let acceptor_core = core.clone();
        let acceptor =
            std::thread::spawn(move || accept_loop(listener, acceptor_shared, acceptor_core));
        Ok(Server {
            shared,
            core,
            acceptor: Some(acceptor),
            done: Mutex::new(false),
        })
    }

    /// The bound address (the real port, also when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Cumulative I/O wake-ups: `poll(2)` returns of the event loops.
    /// A loop blocks until readiness, so idle connections accrue ~zero
    /// (pinned by `idle_connections_cost_no_wakeups` in
    /// `tests/integration_net.rs`).
    pub fn io_wakeups(&self) -> u64 {
        self.shared.wakeups.get()
    }

    /// The server's metrics registry — the one the pool workers and the
    /// event loops record into and the `stats` wire verb
    /// snapshots. [`ServerConfig::service`] may supply a registry via
    /// [`ServiceConfig::metrics`]; otherwise [`Server::bind`] creates
    /// one, so this is never empty. `vmplace serve --metrics-interval`
    /// polls it for periodic stderr snapshot lines.
    pub fn metrics(&self) -> Arc<Registry> {
        self.shared.registry.clone()
    }

    /// The server's live stats snapshot as one line of JSON — exactly
    /// the body a `stats` wire request would be answered with.
    pub fn stats_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Blocks until a shutdown is requested — by [`Server::shutdown`]
    /// from another thread, or by a client's `shutdown` wire frame — then
    /// performs the drain and returns. `vmplace serve` is a bind
    /// followed by this call.
    pub fn wait(mut self) {
        {
            let (lock, cvar) = &self.shared.shutdown_requested;
            let mut requested = lock.lock().expect("shutdown flag");
            while !*requested {
                requested = cvar.wait(requested).expect("shutdown flag");
            }
        }
        self.drain();
    }

    /// Marks the server draining **without** completing the shutdown:
    /// new connections are rejected with the `draining` greeting from
    /// this call on, and any [`Server::wait`] caller is released into
    /// the drain. Idempotent; [`Server::shutdown`] implies it.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        self.core.wake_all();
    }

    /// Graceful, idempotent shutdown: reject new connections with a
    /// `draining` greeting, stop reading from live connections, deliver
    /// every in-flight response, join every thread. Safe to call from
    /// any thread, any number of times; concurrent callers block until
    /// the first drain finishes.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        self.drain();
    }

    fn drain(&mut self) {
        let mut done = self.done.lock().expect("drain guard");
        if *done {
            return;
        }
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        shared.request_shutdown();
        // Wake the event loops so they notice the draining flag and start
        // their per-connection grace windows: each connection still reads
        // every frame already received, closes intake on its first quiet
        // [`DRAIN_QUIET`] interval, answers every request read (the pool
        // workers are still running) and says `bye`.
        self.core.wake_all();

        // Retire the acceptor: flag it down and wake it out of accept()
        // with a throwaway connection. Until it exits, new connections
        // are answered with the `draining` greeting.
        shared.accept_stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(shared.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }

        // Event loops exit once `accept_stop` is up and their last
        // connection has been answered and closed; the pool workers are
        // still alive underneath them until that point.
        self.core.wake_all();
        self.core.join();

        // Finally the pool itself: dropping it drains worker queues
        // (already empty — every completion was awaited) and joins the
        // worker threads.
        drop(shared.pool.lock().expect("pool slot").take());
        *done = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------- acceptor

/// `EMFILE` (per-process fd limit) / `ENFILE` (system-wide table full):
/// the two accept failures that mean "out of descriptors, try later",
/// never "the listener broke".
fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    // ENFILE = 23, EMFILE = 24 on Linux and the BSDs.
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The one-line refusal for an accept the server had no descriptors
/// for: the `overloaded` code plus the same `retry-after-ms` contract
/// shed responses carry. [`crate::Client::connect`] surfaces it as
/// [`crate::NetError::Remote`]; `replay_resilient` retries through it.
fn overload_reject_line() -> String {
    format!(
        "error {} retry-after-ms={} file descriptors exhausted; retry\n",
        codes::OVERLOADED,
        ACCEPT_BACKOFF.as_millis()
    )
}

/// One spare descriptor the acceptor can release to answer a pending
/// connection when `accept` fails with fd exhaustion — without it the
/// rejection itself would need a descriptor the process doesn't have.
struct FdReserve(Option<std::fs::File>);

impl FdReserve {
    fn new() -> FdReserve {
        FdReserve(std::fs::File::open("/dev/null").ok())
    }

    fn release(&mut self) {
        self.0 = None;
    }

    fn rearm(&mut self) {
        if self.0.is_none() {
            self.0 = std::fs::File::open("/dev/null").ok();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, core: Arc<EventCore>) {
    let mut reserve = FdReserve::new();
    let mut accepted: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if is_fd_exhaustion(&e) => {
                // Out of descriptors is load, not failure: release the
                // reserve fd, answer the pending connection with the
                // overloaded + retry-after contract, back off, re-arm.
                // The acceptor itself must survive.
                reserve.release();
                if let Ok((stream, _)) = listener.accept() {
                    if shared.accept_stop.load(Ordering::SeqCst) {
                        return; // the drain's wake-up connection
                    }
                    reject(stream, &overload_reject_line());
                }
                std::thread::sleep(ACCEPT_BACKOFF);
                reserve.rearm();
                continue;
            }
            Err(_) => {
                // Listener failure: trigger a drain so `wait` callers
                // return.
                shared.request_shutdown();
                return;
            }
        };
        if shared.accept_stop.load(Ordering::SeqCst) {
            return; // the drain's wake-up connection
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Reject with the draining greeting and keep accepting (so
            // every rejected client gets the frame until the drain ends).
            reject(
                stream,
                &format!("{} {} draining\n", wire::MAGIC, PROTOCOL_VERSION),
            );
            continue;
        }
        accepted += 1;
        if let Some(plan) = &shared.faults {
            // Deterministic fd-exhaustion injection: treat the first N
            // accepts as if `accept` had failed with EMFILE, exercising
            // the same rejection path the reserve-fd branch uses.
            if plan.fd_exhaust.is_some_and(|n| accepted <= n) {
                reject(stream, &overload_reject_line());
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        if conn_id >= CONN_LIMIT {
            // Out of connection-id space for this server lifetime:
            // refuse honestly instead of aliasing ids across tenants.
            reject(
                stream,
                "error internal connection-id space exhausted; restart the server\n",
            );
            continue;
        }
        // Panic guard: connection setup touches fallible per-connection
        // plumbing; a setup failure or a panic there drops only this
        // connection, never new-connection intake (regression test in
        // `tests/integration_chaos.rs` via `FaultPlan::panic_accept`).
        let _ = catch_unwind(AssertUnwindSafe(|| {
            connection_intake(&shared, &core, stream, conn_id)
        }));
    }
}

/// Refuses a connection with a one-line answer, making sure the line
/// actually reaches the peer: closing a socket with unread input (the
/// client's hello) can send RST and purge the already-written reply, so
/// the write side is half-closed first and the peer's bytes are drained
/// until EOF or a short timeout.
fn reject(mut stream: TcpStream, line: &str) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_GRACE));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Hands one accepted connection to its event loop.
fn connection_intake(
    shared: &Shared,
    core: &EventCore,
    stream: TcpStream,
    conn_id: u64,
) -> std::io::Result<()> {
    if let Some(plan) = &shared.faults {
        if plan.panic_accept == Some(conn_id) {
            panic!("{INJECTED_FAULT_MARKER} (accept, connection {conn_id})");
        }
    }
    core.add_conn(stream, conn_id)?;
    shared.metrics.conns_accepted.inc();
    shared.metrics.conns_open.add(1);
    Ok(())
}
