//! The connection I/O core: a few loop threads multiplexing every
//! connection socket via `poll(2)` readiness.
//!
//! Each accepted connection is assigned (round-robin by connection id)
//! to one loop thread, which owns its socket, its [`ConnProto`] engine,
//! its meta queue, its completion heap and its outbound byte ring. The
//! loop blocks in `poll(2)` until a socket is readable/writable, a
//! deadline (drain grace, write stall) is due, or another thread wakes
//! it through the loop's self-pipe — so **idle connections cost zero
//! wake-ups** ([`Server::io_wakeups`] counts them; the idle suite in
//! `tests/integration_net.rs` pins the zero).
//!
//! `poll(2)` is reached through a hand-declared FFI binding behind the
//! [`EventedIo`] trait (std-only builds, no libc crate); the trait is
//! what tests substitute to drive the loop deterministically and what a
//! future epoll/kqueue backend would implement.
//!
//! Cross-thread traffic into a loop goes through its injector (a locked
//! queue of new connections and solver completions) plus a self-pipe
//! wake-up; everything else — parsing, submission, ordering, fault
//! injection, teardown — happens on the loop thread with no locks held.
//!
//! [`Server::io_wakeups`]: crate::Server::io_wakeups

use crate::server::{
    bye_frame, error_frame, greeting_frame, pong_frame, response_frame, stats_frame, stats_json,
    ConnProto, Flow, Meta, Pending, Shared, DRAIN_GRACE, DRAIN_QUIET, WRITE_TIMEOUT,
};
use crate::wire::codes;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ------------------------------------------------------- poll(2) binding

/// One entry of a `poll(2)` set — field-for-field the C `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;
pub(crate) const POLLNVAL: i16 = 0x020;

/// Revents mask meaning "a read will not block" — data, EOF, or an
/// error the read will surface.
pub(crate) const READABLE: i16 = POLLIN | POLLERR | POLLHUP | POLLNVAL;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// The readiness primitive the event loop blocks in. Production uses
/// [`PollIo`] (`poll(2)`); tests substitute deterministic fakes; an
/// epoll/kqueue backend would slot in here.
pub(crate) trait EventedIo {
    /// Blocks until an fd in `fds` is ready or `timeout` elapses
    /// (`None` = forever); fills `revents`, returns the ready count
    /// (0 on timeout).
    fn wait(&mut self, fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize>;
}

/// The production [`EventedIo`]: `poll(2)` with EINTR retry and
/// round-up of sub-millisecond timeouts (so a near deadline cannot turn
/// into a 0 ms busy spin).
pub(crate) struct PollIo;

impl EventedIo for PollIo {
    fn wait(&mut self, fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
        let timeout_ms: std::ffi::c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms.min(i32::MAX as u128) as std::ffi::c_int
                }
            }
        };
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice, so the
            // pointer addresses `fds.len()` initialised entries, each laid
            // out exactly as C's `struct pollfd` (`#[repr(C)]`, pinned by
            // `poll_fd_matches_struct_pollfd`). On Linux `nfds_t` is
            // `unsigned long`, so the length passes unchanged. The kernel
            // reads `fd`/`events` and writes only `revents`, within those
            // entries, and keeps no pointer past the call's return.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
            // EINTR: retry. The loop re-derives its deadlines on every
            // iteration, so re-waiting the full timeout is harmless.
        }
    }
}

// ------------------------------------------------------------- the core

/// Work another thread injects into a loop.
enum Injected {
    /// A freshly accepted connection (already non-blocking).
    Conn(TcpStream, u64),
    /// A solver completion for connection `.0`.
    Completion(u64, Pending),
}

/// One loop thread's mailbox + self-pipe writer + join handle.
struct LoopHandle {
    injector: Arc<Mutex<Vec<Injected>>>,
    /// Write half of the loop's self-pipe; one byte = one wake-up.
    waker: UnixStream,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl LoopHandle {
    fn wake(&self) {
        // Non-blocking: if the pipe buffer is full the loop is already
        // due to wake, which is all a wake-up means.
        let _ = (&self.waker).write(&[1]);
    }
}

/// The set of event-loop threads. Shared by the acceptor (new
/// connections), the pool sink (completions) and the drain.
pub(crate) struct EventCore {
    loops: Vec<LoopHandle>,
}

impl EventCore {
    /// Spawns `threads` loop threads (at least one).
    pub(crate) fn start(shared: Arc<Shared>, threads: usize) -> std::io::Result<Arc<EventCore>> {
        let mut loops = Vec::new();
        for _ in 0..threads.max(1) {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            let injector: Arc<Mutex<Vec<Injected>>> = Arc::new(Mutex::new(Vec::new()));
            let loop_shared = shared.clone();
            let loop_injector = injector.clone();
            let thread = std::thread::spawn(move || {
                event_loop(loop_shared, loop_injector, wake_rx, PollIo);
            });
            loops.push(LoopHandle {
                injector,
                waker: wake_tx,
                thread: Mutex::new(Some(thread)),
            });
        }
        Ok(Arc::new(EventCore { loops }))
    }

    fn slot(&self, conn_id: u64) -> &LoopHandle {
        &self.loops[(conn_id % self.loops.len() as u64) as usize]
    }

    fn inject(&self, conn_id: u64, item: Injected) {
        let slot = self.slot(conn_id);
        slot.injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(item);
        slot.wake();
    }

    /// Assigns an accepted connection to its loop.
    pub(crate) fn add_conn(&self, stream: TcpStream, conn_id: u64) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        self.inject(conn_id, Injected::Conn(stream, conn_id));
        Ok(())
    }

    /// Delivers a solver completion to the loop owning `conn_id`.
    /// Completions for connections already torn down are discarded when
    /// the loop fails to find the connection.
    pub(crate) fn complete(&self, conn_id: u64, pending: Pending) {
        self.inject(conn_id, Injected::Completion(conn_id, pending));
    }

    /// Wakes every loop (drain-flag changes, shutdown).
    pub(crate) fn wake_all(&self) {
        for slot in &self.loops {
            slot.wake();
        }
    }

    /// Joins every loop thread (they exit once the server is draining
    /// and their last connection has closed).
    pub(crate) fn join(&self) {
        for slot in &self.loops {
            let handle = slot
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }

    /// Takes back the connections handed to loops after they exited
    /// (call after [`EventCore::join`]).
    pub(crate) fn take_orphans(&self) -> Vec<(TcpStream, u64)> {
        let mut orphans = Vec::new();
        for slot in &self.loops {
            let mut injected = slot.injector.lock().unwrap_or_else(PoisonError::into_inner);
            for item in injected.drain(..) {
                if let Injected::Conn(stream, conn_id) = item {
                    orphans.push((stream, conn_id));
                }
            }
        }
        orphans
    }
}

// --------------------------------------------------- per-connection state

/// How many 16 KiB read chunks one connection may consume per poll
/// round before yielding to its neighbours.
const READ_CHUNKS_PER_ROUND: usize = 4;

/// One connection as the loop sees it.
struct EConn {
    stream: TcpStream,
    proto: ConnProto,
    /// Submission-order narration produced by `proto`, not yet emitted.
    metas: VecDeque<Meta>,
    /// Out-of-order solver completions, min-ordered by sequence.
    heap: BinaryHeap<Pending>,
    /// Outbound ring: bytes `out[out_pos..]` are still owed the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Response frames fully queued (the fault plans' drop-point
    /// counter).
    frames: u64,
    /// Intake open: the socket is polled for readability.
    reading: bool,
    /// `bye` queued; close the socket once the ring drains.
    bye: bool,
    /// Torn down (write failure / injected drop): ready for removal.
    torn: bool,
    /// A write returned `WouldBlock` at this instant and no progress has
    /// happened since; [`WRITE_TIMEOUT`] from it the connection is torn.
    stalled_since: Option<Instant>,
    /// When this connection first observed the draining flag.
    drain_seen: Option<Instant>,
    /// Last instant bytes arrived (the drain's quiet detector).
    last_read: Instant,
    conn_id: u64,
}

impl EConn {
    fn new(stream: TcpStream, conn_id: u64) -> EConn {
        EConn {
            stream,
            proto: ConnProto::new(conn_id),
            metas: VecDeque::new(),
            heap: BinaryHeap::new(),
            out: Vec::new(),
            out_pos: 0,
            frames: 0,
            reading: true,
            bye: false,
            torn: false,
            stalled_since: None,
            drain_seen: None,
            last_read: Instant::now(),
            conn_id,
        }
    }

    fn out_empty(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Fully finished: removable from the loop's map.
    fn finished(&self) -> bool {
        self.torn || (self.bye && self.out_empty())
    }

    /// Interest set for the poll round (`0` = not polled this round).
    fn interest(&self) -> i16 {
        let mut ev = 0;
        if self.reading {
            ev |= POLLIN;
        }
        if !self.out_empty() {
            ev |= POLLOUT;
        }
        ev
    }

    /// The soonest instant this connection needs the loop to act even
    /// without socket readiness.
    fn next_deadline(&self, draining: bool) -> Option<Instant> {
        let mut deadline: Option<Instant> = None;
        let mut note = |t: Instant| {
            deadline = Some(match deadline {
                Some(d) => d.min(t),
                None => t,
            });
        };
        if let Some(stalled) = self.stalled_since {
            note(stalled + WRITE_TIMEOUT);
        }
        if draining && self.reading {
            if let Some(seen) = self.drain_seen {
                note(seen + DRAIN_GRACE);
                note(seen.max(self.last_read) + DRAIN_QUIET);
            }
        }
        deadline
    }

    /// Drain bookkeeping, run once per poll round while draining: starts
    /// the grace window, closes intake after a quiet [`DRAIN_QUIET`]
    /// interval (frames already in flight still arrive through poll
    /// readiness), and force-fails a client still streaming at the grace
    /// deadline.
    fn note_drain(&mut self, now: Instant) {
        let seen = *self.drain_seen.get_or_insert(now);
        if !self.reading {
            return;
        }
        let (proto, metas) = (&mut self.proto, &mut self.metas);
        let mut sink = |m: Meta| metas.push_back(m);
        if now.duration_since(seen) > DRAIN_GRACE {
            proto.fail(codes::DRAINING, "server is draining".into(), &mut sink);
            self.reading = false;
        } else if now.duration_since(seen.max(self.last_read)) >= DRAIN_QUIET {
            proto.on_eof(&mut sink);
            self.reading = false;
        }
    }

    /// Non-blocking reads fed through the protocol engine, bounded per
    /// round for fairness across the loop's connections.
    fn fill(&mut self, shared: &Shared) {
        let mut chunk = [0u8; 16 * 1024];
        let mut rounds = READ_CHUNKS_PER_ROUND;
        while rounds > 0 && self.reading && !self.torn {
            rounds -= 1;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    let (proto, metas) = (&mut self.proto, &mut self.metas);
                    proto.on_eof(&mut |m| metas.push_back(m));
                    self.reading = false;
                }
                Ok(n) => {
                    self.last_read = Instant::now();
                    let (proto, metas) = (&mut self.proto, &mut self.metas);
                    if proto.feed(shared, &chunk[..n], &mut |m| metas.push_back(m)) == Flow::Closed
                    {
                        self.reading = false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => rounds += 1,
                Err(_) => {
                    let (proto, metas) = (&mut self.proto, &mut self.metas);
                    proto.on_eof(&mut |m| metas.push_back(m));
                    self.reading = false;
                }
            }
        }
    }

    /// Emits queued metas in submission order into the outbound ring —
    /// a request slot only when its completion has arrived; everything
    /// after it waits, preserving the per-connection ordering contract.
    fn pump(&mut self, shared: &Shared) {
        if self.torn {
            return;
        }
        if !self.out_empty() {
            if let Some(stalled) = self.stalled_since {
                if stalled.elapsed() > WRITE_TIMEOUT {
                    // A non-reading client mid-frame: tear down.
                    self.teardown();
                    return;
                }
            }
        }
        while !self.torn && !self.bye {
            let wire = self.proto.wire.max(1);
            match self.metas.front() {
                None => break,
                Some(Meta::Request { seq, .. }) => {
                    let seq = *seq;
                    if !self.heap.peek().is_some_and(|p| p.0 == seq) {
                        break; // completion not in yet; order bars the rest
                    }
                    let Pending(_, mut response) = self.heap.pop().expect("peeked");
                    let Some(Meta::Request {
                        client_id,
                        client_stream,
                        ..
                    }) = self.metas.pop_front()
                    else {
                        unreachable!("front() said Request");
                    };
                    response.id = client_id;
                    response.stream = client_stream;
                    let t_encode = Instant::now();
                    let frame = response_frame(wire, &response);
                    shared.metrics.encode_us.record(t_encode.elapsed());
                    self.emit_response(shared, &frame);
                }
                Some(_) => match self.metas.pop_front().expect("front() said Some") {
                    Meta::Greeting(v) => self.append(shared, &greeting_frame(v)),
                    Meta::Pong(token, received) => {
                        self.append(shared, &pong_frame(wire, &token));
                        shared.metrics.ping_us.record(received.elapsed());
                    }
                    Meta::Stats => {
                        let json = stats_json(shared);
                        self.append(shared, &stats_frame(wire, &json));
                    }
                    Meta::Error { code, message } => {
                        shared.metrics.errors.inc();
                        self.append(shared, &error_frame(wire, code, &message));
                    }
                    Meta::Bye => {
                        self.append(shared, &bye_frame(wire));
                        self.bye = true;
                    }
                    Meta::Request { .. } => unreachable!("handled above"),
                },
            }
        }
        self.flush();
        if self.bye && self.out_empty() && !self.torn {
            // Close for real; `finished()` turns true and the loop
            // removes + retires the connection.
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    /// Queues raw bytes, honoring injected short writes and delays.
    fn append(&mut self, shared: &Shared, bytes: &[u8]) {
        if self.torn {
            return;
        }
        match shared.faults.as_ref().and_then(|f| f.short_write) {
            Some(chunk) => {
                let delay = shared.faults.as_ref().and_then(|f| f.write_delay);
                for piece in bytes.chunks(chunk.max(1)) {
                    self.out.extend_from_slice(piece);
                    self.flush();
                    if self.torn {
                        return;
                    }
                    if let Some(delay) = delay {
                        std::thread::sleep(delay);
                    }
                }
            }
            None => self.out.extend_from_slice(bytes),
        }
    }

    /// Queues one response frame, honoring the fault plans' drop point:
    /// at the drop point the connection is cut — on the frame boundary,
    /// or (`midframe`) after leaking roughly half the frame.
    fn emit_response(&mut self, shared: &Shared, frame: &[u8]) {
        let cut = shared
            .faults
            .as_ref()
            .and_then(|f| f.drop_point(self.conn_id))
            .is_some_and(|point| self.frames >= point);
        if cut {
            if shared.faults.as_ref().is_some_and(|f| f.midframe) {
                self.out.extend_from_slice(&frame[..frame.len() / 2]);
                self.flush(); // best-effort leak of the torn half
            }
            self.teardown();
            shared.metrics.responses_dropped.inc();
            return;
        }
        self.append(shared, frame);
        if self.torn {
            shared.metrics.responses_dropped.inc();
        } else {
            self.frames += 1;
            shared.metrics.responses.inc();
        }
    }

    /// Pushes the outbound ring into the socket without blocking;
    /// `WouldBlock` arms the stall clock, progress resets it, genuine
    /// errors tear the connection down (the peer never sees a fresh
    /// frame after a torn one).
    fn flush(&mut self) {
        if self.torn {
            return;
        }
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return self.teardown(),
                Ok(n) => {
                    self.out_pos += n;
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.stalled_since.is_none() {
                        self.stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.teardown(),
            }
        }
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            self.stalled_since = None;
        } else if self.out_pos > 64 * 1024 {
            // Compact the ring so a slow reader cannot grow it unboundedly
            // from already-sent bytes.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    fn teardown(&mut self) {
        self.torn = true;
        self.reading = false;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

// ------------------------------------------------------------- the loop

fn event_loop<E: EventedIo>(
    shared: Arc<Shared>,
    injector: Arc<Mutex<Vec<Injected>>>,
    wake_rx: UnixStream,
    mut io: E,
) {
    let mut conns: HashMap<u64, EConn> = HashMap::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<u64> = Vec::new();

    loop {
        // Intake: new connections and solver completions.
        let injected =
            std::mem::take(&mut *injector.lock().unwrap_or_else(PoisonError::into_inner));
        for item in injected {
            match item {
                Injected::Conn(stream, conn_id) => {
                    conns.insert(conn_id, EConn::new(stream, conn_id));
                }
                Injected::Completion(conn_id, pending) => {
                    // Torn-down connections discard their completions.
                    match conns.get_mut(&conn_id) {
                        Some(conn) => conn.heap.push(pending),
                        None => shared.metrics.responses_dropped.inc(),
                    }
                }
            }
        }

        // Per-connection work: drain ladder, ordered emission, flush.
        let draining = shared.draining.load(Ordering::SeqCst);
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&conn_id, conn) in conns.iter_mut() {
            if draining {
                conn.note_drain(now);
            }
            conn.pump(&shared);
            if conn.finished() {
                dead.push(conn_id);
            }
        }
        for conn_id in dead {
            if let Some(conn) = conns.remove(&conn_id) {
                // Completions already delivered but never written count
                // as dropped.
                shared.metrics.responses_dropped.add(conn.heap.len() as u64);
            }
            // FIFO per worker orders the retirement after everything the
            // connection submitted from this same thread.
            shared.retire_conn(conn_id);
        }

        // Exit: the server is draining and nothing is left to serve.
        if draining && conns.is_empty() {
            let empty = injector
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty();
            if empty {
                return;
            }
            continue;
        }

        // Build the poll set: the self-pipe plus every connection with
        // read interest (intake open) or write interest (ring pending).
        fds.clear();
        polled.clear();
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let mut deadline: Option<Instant> = None;
        for (&conn_id, conn) in conns.iter() {
            let interest = conn.interest();
            if interest != 0 {
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: interest,
                    revents: 0,
                });
                polled.push(conn_id);
            }
            if let Some(d) = conn.next_deadline(draining) {
                deadline = Some(match deadline {
                    Some(cur) => cur.min(d),
                    None => d,
                });
            }
        }
        let timeout = deadline.map(|d| d.saturating_duration_since(now));

        // Block until readiness, a deadline, or a wake-up. This is the
        // whole idle story: no deadlines and no traffic = no wake-ups.
        match io.wait(&mut fds, timeout) {
            Ok(_) => {}
            Err(_) => {
                // poll itself failing (EBADF on a raced fd at worst) is
                // handled by the per-connection reads seeing the error.
            }
        }
        shared.wakeups.inc();

        // Drain the self-pipe (its payload carries no meaning).
        if fds[0].revents & READABLE != 0 {
            let mut sink = [0u8; 256];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Socket readiness: flush first (frees ring space), then read.
        for (i, &conn_id) in polled.iter().enumerate() {
            let revents = fds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue;
            };
            if revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0 && !conn.out_empty() {
                conn.flush();
            }
            if revents & READABLE != 0 && conn.reading {
                conn.fill(&shared);
            }
        }
        // Loop: pump runs at the top of the next iteration, before the
        // next poll, so freshly parsed work is answered without latency.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_fd_matches_struct_pollfd() {
        // C: struct pollfd { int fd; short events; short revents; }.
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
        assert_eq!(std::mem::offset_of!(PollFd, fd), 0);
        assert_eq!(std::mem::offset_of!(PollFd, events), 4);
        assert_eq!(std::mem::offset_of!(PollFd, revents), 6);
    }

    #[test]
    fn poll_io_reports_readiness_and_timeouts() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut io = PollIo;

        // Nothing to read yet: a 10 ms wait times out with 0 ready.
        let mut fds = [PollFd {
            fd: a.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = io
            .wait(&mut fds, Some(Duration::from_millis(10)))
            .expect("poll");
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);

        // After a write the same fd polls readable without blocking.
        (&b).write_all(b"x").expect("write");
        let n = io.wait(&mut fds, None).expect("poll");
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & READABLE, 0);

        // Write readiness is immediate on an empty socket buffer.
        let mut fds = [PollFd {
            fd: a.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }];
        let n = io
            .wait(&mut fds, Some(Duration::from_millis(10)))
            .expect("poll");
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        // A 100 µs deadline must not become timeout=0 (busy spin): the
        // call takes at least ~1 ms.
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut io = PollIo;
        let mut fds = [PollFd {
            fd: a.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let start = Instant::now();
        let n = io
            .wait(&mut fds, Some(Duration::from_micros(100)))
            .expect("poll");
        assert_eq!(n, 0);
        assert!(
            start.elapsed() >= Duration::from_micros(500),
            "timed out in {:?} — sub-ms timeout was truncated to zero",
            start.elapsed()
        );
    }
}
