//! Differential and hardening suite for the network front-end.
//!
//! The headline guarantee: driving a request trace through a **loopback
//! server** is bit-for-bit equal to replaying it through an in-process
//! [`SolverPool`] and to the one-shot reference path — yields,
//! placements, winners, probes and outcomes — at 1 and 4 workers, with
//! the response cache on and off. On top of that: graceful-lifecycle
//! semantics, ephemeral ports, and malformed-input hardening (including
//! a proptest that corrupts wire bytes and asserts the server neither
//! panics, nor hangs, nor poisons other connections).

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use vmplace::net::wire::{ServerFrame, PROTOCOL_V2};
use vmplace::net::{codec, Client, Server, ServerConfig};
use vmplace::prelude::*;
use vmplace::service::trace_io::write_trace;
use vmplace_sim::trace::TraceConfig;

fn server_config(workers: usize, cache: bool) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers,
            response_cache: cache,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A trace with re-solve bursts, so the response cache actually fires.
fn test_trace(requests: usize, seed: u64) -> Vec<AllocRequest> {
    TraceConfig {
        streams: 3,
        requests,
        scenario: ScenarioConfig {
            hosts: 16,
            services: 30,
            cov: 0.5,
            memory_slack: 0.6,
            ..ScenarioConfig::default()
        },
        mix: (0.3, 0.2, 0.25, 0.25),
        resolve_burst: 3,
        ..TraceConfig::default()
    }
    .generate(seed)
}

/// Field-by-field equality of two replays (wall-clock and the `cached`
/// marker excluded — a cached response is the same answer, delivered
/// cheaper).
fn assert_replays_equal(a: &[AllocResponse], b: &[AllocResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: id order");
        assert_eq!(x.stream, y.stream, "{what}: stream (id {})", x.id);
        assert_eq!(x.outcome, y.outcome, "{what}: outcome (id {})", x.id);
        assert_eq!(x.winner, y.winner, "{what}: winner (id {})", x.id);
        assert_eq!(x.probes, y.probes, "{what}: probes (id {})", x.id);
        assert_eq!(x.error, y.error, "{what}: error (id {})", x.id);
        match (&x.solution, &y.solution) {
            (Some(sx), Some(sy)) => {
                assert_eq!(
                    sx.min_yield.to_bits(),
                    sy.min_yield.to_bits(),
                    "{what}: min_yield bits (id {})",
                    x.id
                );
                assert_eq!(sx.yields, sy.yields, "{what}: yields (id {})", x.id);
                assert_eq!(
                    sx.placement, sy.placement,
                    "{what}: placement (id {})",
                    x.id
                );
            }
            (None, None) => {}
            _ => panic!("{what}: solution presence diverged (id {})", x.id),
        }
    }
}

#[test]
fn loopback_replay_is_bit_for_bit_equal_to_pool_and_oneshot() {
    let trace = test_trace(24, 3);
    // Uncached in-process references (the one-shot path never caches).
    let oneshot = replay_oneshot(trace.clone(), &server_config(1, false).service);

    for workers in [1usize, 4] {
        for cache in [false, true] {
            let what = format!("workers {workers} cache {cache}");
            let config = server_config(workers, cache);

            let mut pool = SolverPool::new(&config.service);
            let pooled = pool.replay(trace.clone());
            pool.shutdown();

            let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let remote = client.replay(&trace).expect("remote replay");
            server.shutdown();

            assert_replays_equal(&oneshot, &pooled, &format!("{what}: oneshot vs pool"));
            assert_replays_equal(&pooled, &remote, &format!("{what}: pool vs loopback"));
            if cache {
                assert!(
                    remote.iter().any(|r| r.cached),
                    "{what}: burst trace produced no cache hits"
                );
            } else {
                assert!(
                    remote.iter().all(|r| !r.cached),
                    "{what}: cached without cache"
                );
            }
        }
    }
}

#[test]
fn concurrent_connections_get_isolated_streams_and_ordered_responses() {
    // Two clients use the *same* stream ids, on *different* wire
    // versions; the server must namespace them apart (each client sees
    // exactly its own trace's responses, in order, matching its private
    // in-process replay).
    let config = server_config(2, true);
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = [(5u64, 1u32), (8, PROTOCOL_V2)]
        .into_iter()
        .map(|(seed, wire)| {
            let config = config.service.clone();
            std::thread::spawn(move || {
                let trace = test_trace(16, seed);
                let mut pool = SolverPool::new(&ServiceConfig {
                    workers: 1,
                    ..config
                });
                let expect = pool.replay(trace.clone());
                let mut client = Client::connect_with(addr, wire).expect("connect");
                let got = client.replay(&trace).expect("replay");
                assert_replays_equal(&expect, &got, &format!("seed {seed} v{wire}"));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn two_ephemeral_servers_coexist() {
    let a = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind a");
    let b = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind b");
    assert_ne!(a.local_addr(), b.local_addr());
    for s in [&a, &b] {
        let mut c = Client::connect(s.local_addr()).expect("connect");
        c.ping("x").expect("pong");
    }
}

#[test]
fn shutdown_drains_in_flight_requests_and_is_idempotent() {
    for wire in [1u32, PROTOCOL_V2] {
        let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
        let addr = server.local_addr();
        let trace = test_trace(10, 7);

        let mut client = Client::connect_with(addr, wire).expect("connect");
        for req in &trace {
            client.submit(req).expect("submit");
        }
        client.flush().expect("flush");

        // Shut down concurrently with the burst being solved: every
        // submitted request must still be answered before the drain
        // completes.
        let drainer = std::thread::spawn(move || {
            server.shutdown();
            server.shutdown(); // idempotent
            server
        });
        let responses: Result<Vec<_>, _> = client.responses().collect();
        let responses = responses.expect("all in-flight responses delivered");
        assert_eq!(responses.len(), trace.len(), "v{wire}");
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64, "v{wire}: submission order");
            assert_ne!(r.outcome, RequestOutcome::Rejected, "v{wire}");
        }

        let mut server = drainer.join().expect("drain");
        // Fully drained servers refuse new connections outright.
        assert!(Client::connect(addr).is_err(), "v{wire}");
        server.shutdown(); // still idempotent after wait
    }
}

#[test]
fn malformed_frames_get_structured_errors_never_hangs() {
    let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
    let addr = server.local_addr();

    // (payload bytes, expected error code) — each on a fresh connection.
    let oversized = {
        let mut v = b"vmplace-net 1\nrequest 0 0 resolve ".to_vec();
        v.extend(std::iter::repeat(b'x').take(70 * 1024));
        v.push(b'\n');
        v
    };
    let cases: Vec<(Vec<u8>, &str)> = vec![
        (b"vmplace-net 1\nfrobnicate\n".to_vec(), "unknown-verb"),
        (b"vmplace-net 99\n".to_vec(), "bad-version"),
        (b"hello world\n".to_vec(), "bad-version"),
        (b"vmplace-net 1\n\xff\xfe bytes\n".to_vec(), "bad-utf8"),
        (oversized, "frame-too-large"),
        (
            b"vmplace-net 1\nrequest 0 0 resolve wat=1\nend\n".to_vec(),
            "bad-frame",
        ),
        (
            b"vmplace-net 1\nrequest 0 0 frobnicate\nend\n".to_vec(),
            "bad-frame",
        ),
        (
            b"vmplace-net 1\nrequest 0 0 new\nnot an instance\nend\n".to_vec(),
            "bad-frame",
        ),
        (
            b"vmplace-net 1\nrequest 0 0 delta\nadd 1 1 | 1 1 | 0 0 | 0 0\nend\n".to_vec(),
            "bad-frame",
        ),
        (
            b"vmplace-net 1\nrequest 0 1099511627776 resolve\nend\n".to_vec(),
            "bad-frame",
        ),
    ];
    for (payload, code) in cases {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        raw.write_all(&payload).expect("write");
        let mut buf = String::new();
        raw.read_to_string(&mut buf)
            .unwrap_or_else(|e| panic!("connection hung for code {code}: {e}"));
        assert!(
            buf.contains(&format!("error {code}")),
            "expected `error {code}` in reply to {payload:?}, got: {buf}"
        );
        assert!(buf.trim_end().ends_with("bye"), "{buf}");
    }

    // After all that abuse the server still serves normal traffic.
    let mut client = Client::connect(addr).expect("connect");
    let responses = client.replay(&test_trace(6, 1)).expect("replay");
    assert_eq!(responses.len(), 6);
    server.shutdown();
}

#[test]
fn trace_file_and_wire_speak_the_same_framing() {
    // A trace written by trace_io replays over the wire unchanged: the
    // request frames *are* trace blocks.
    let trace = test_trace(12, 2);
    let text = write_trace(&trace);

    let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.write_all(b"vmplace-net 1\n").unwrap();
    raw.write_all(text.as_bytes()).unwrap();
    raw.write_all(b"shutdown\n").unwrap();

    let mut buf = String::new();
    raw.read_to_string(&mut buf).expect("clean close");
    assert!(buf.starts_with("vmplace-net 1 ready"), "{buf}");
    assert_eq!(
        buf.matches("\nresponse ").count() + usize::from(buf.starts_with("response ")),
        trace.len(),
        "one response frame per trace block: {buf}"
    );
    assert!(buf.trim_end().ends_with("bye"), "{buf}");
    server.shutdown();
}

/// The headline matrix of this front-end: both wire versions replay the
/// same trace bit-for-bit equal to the in-process pool, at 1 and 4
/// workers, cache on and off — the event loop and the binary codec are
/// pure transport, invisible in every response field.
#[test]
fn every_wire_version_replays_bit_for_bit_equal_to_pool() {
    let trace = test_trace(24, 3);
    for workers in [1usize, 4] {
        for cache in [false, true] {
            let config = server_config(workers, cache);
            let mut pool = SolverPool::new(&config.service);
            let pooled = pool.replay(trace.clone());
            pool.shutdown();

            for wire in [1u32, PROTOCOL_V2] {
                let what = format!("workers {workers} cache {cache} v{wire}");
                let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
                let mut client = Client::connect_with(server.local_addr(), wire).expect("connect");
                assert_eq!(client.wire_version(), wire, "{what}: negotiation");
                let remote = client.replay(&trace).expect("remote replay");
                drop(client);
                server.shutdown();
                assert_replays_equal(&pooled, &remote, &format!("{what}: pool vs loopback"));
            }
        }
    }
}

#[test]
fn default_client_requests_v2_and_negotiates_down_to_a_v1_server() {
    // `Client::connect` asks for the newest framing: v2 against a default
    // server, text against one pinned to v1 — and the same answers.
    let trace = test_trace(24, 3);
    let config = server_config(2, true);
    let mut pool = SolverPool::new(&config.service);
    let pooled = pool.replay(trace.clone());
    pool.shutdown();

    for (max_wire, negotiated) in [(ServerConfig::default().max_wire, PROTOCOL_V2), (1, 1)] {
        let what = format!("default client vs max_wire {max_wire}");
        let config = ServerConfig {
            max_wire,
            ..config.clone()
        };
        let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(client.wire_version(), negotiated, "{what}: negotiation");
        let remote = client.replay(&trace).expect("remote replay");
        drop(client);
        server.shutdown();
        assert_replays_equal(&pooled, &remote, &format!("{what}: pool vs loopback"));
    }
}

#[test]
fn v1_clients_against_a_v2_server_get_byte_identical_v1_traffic() {
    // A v1 text client must not be able to tell a v2-capable server from
    // a v1-only build: raw bytes, not just parsed equivalence.
    let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    raw.write_all(b"vmplace-net 1\nping tok\n").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).expect("clean close");
    assert_eq!(
        buf, "vmplace-net 1 ready\npong tok\nbye\n",
        "v1 byte stream changed"
    );
    server.shutdown();

    // And the other direction: a v2-requesting client against a server
    // pinned to v1 negotiates down transparently.
    let config = ServerConfig {
        max_wire: 1,
        ..server_config(1, true)
    };
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let mut client = Client::connect_with(server.local_addr(), PROTOCOL_V2).expect("connect");
    assert_eq!(client.wire_version(), 1, "negotiated down to v1");
    let responses = client.replay(&test_trace(6, 1)).expect("replay over v1");
    assert_eq!(responses.len(), 6);
    drop(client);
    server.shutdown();
}

/// Sends `vmplace-net 2` + `payload` on a raw socket, half-closes, and
/// returns the text greeting line plus every complete binary frame the
/// server answered with.
fn v2_exchange(addr: std::net::SocketAddr, payload: &[u8]) -> (String, Vec<ServerFrame>) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    raw.write_all(b"vmplace-net 2\n").unwrap();
    raw.write_all(payload).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes)
        .expect("server answered and closed");
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("text greeting line");
    let greeting = String::from_utf8(bytes[..nl].to_vec()).expect("utf8 greeting");
    let mut rest = &bytes[nl + 1..];
    let mut frames = Vec::new();
    while rest.len() >= codec::HEADER_LEN {
        let mut head = [0u8; codec::HEADER_LEN];
        head.copy_from_slice(&rest[..codec::HEADER_LEN]);
        let (kind, len) = codec::parse_header(&head);
        let end = codec::HEADER_LEN + len as usize;
        assert!(rest.len() >= end, "torn server frame in {bytes:?}");
        frames
            .push(codec::decode_server_frame(kind, &rest[codec::HEADER_LEN..end]).expect("frame"));
        rest = &rest[end..];
    }
    assert!(rest.is_empty(), "trailing bytes after the last frame");
    (greeting, frames)
}

#[test]
fn v2_malformed_frames_get_structured_errors_never_hangs() {
    let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
    let addr = server.local_addr();

    // A length field lying beyond MAX_FRAME_BYTES is refused before
    // any allocation.
    let lie = [codec::kind::REQUEST, 0xff, 0xff, 0xff, 0xff];
    let (greeting, frames) = v2_exchange(addr, &lie);
    assert_eq!(greeting, "vmplace-net 2 ready");
    match &frames[..] {
        [ServerFrame::Error { code, .. }, ServerFrame::Bye] => {
            assert_eq!(code, "frame-too-large");
        }
        other => panic!("expected error+bye, got {other:?}"),
    }

    // Unknown frame kinds answer `bad-frame`.
    let (_, frames) = v2_exchange(addr, &[0x7f, 0, 0, 0, 0]);
    match &frames[..] {
        [ServerFrame::Error { code, .. }, ServerFrame::Bye] => {
            assert_eq!(code, "bad-frame");
        }
        other => panic!("expected error+bye, got {other:?}"),
    }

    // A request body of the right length but garbage content answers
    // `bad-frame` too.
    let mut garbage = codec::header(codec::kind::REQUEST, 8).to_vec();
    garbage.extend_from_slice(&[0xAB; 8]);
    let (_, frames) = v2_exchange(addr, &garbage);
    match &frames[..] {
        [ServerFrame::Error { code, .. }, ServerFrame::Bye] => {
            assert_eq!(code, "bad-frame");
        }
        other => panic!("expected error+bye, got {other:?}"),
    }

    // A frame truncated by the peer (header promises more than ever
    // arrives) ends in a clean `bye` at EOF — never a hang.
    let truncated = codec::header(codec::kind::REQUEST, 100);
    let (_, frames) = v2_exchange(addr, &truncated);
    assert!(
        matches!(frames.last(), Some(ServerFrame::Bye)),
        "{frames:?}"
    );

    // After the abuse, normal v2 traffic still works.
    let mut client = Client::connect_with(addr, PROTOCOL_V2).expect("connect");
    let responses = client.replay(&test_trace(6, 1)).expect("replay");
    assert_eq!(responses.len(), 6);
    drop(client);
    server.shutdown();
}

#[test]
fn idle_connections_cost_no_wakeups() {
    // 256 idle connections must produce ~zero event-loop wake-ups
    // between requests: the loops block until readiness.
    let server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
    let addr = server.local_addr();
    let conns: Vec<Client> = (0..256)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // Connection setup itself wakes the loops; let that settle first.
    std::thread::sleep(Duration::from_millis(200));
    let before = server.io_wakeups();
    std::thread::sleep(Duration::from_millis(600));
    let idle_wakeups = server.io_wakeups() - before;
    assert!(
        idle_wakeups <= 16,
        "256 idle connections woke the event loops {idle_wakeups} times in 600 ms"
    );
    drop(conns);
    drop(server);
}

/// One valid wire conversation, as raw bytes.
fn valid_conversation() -> Vec<u8> {
    let mut bytes = b"vmplace-net 1\n".to_vec();
    bytes.extend(write_trace(&test_trace(5, 4)).into_bytes());
    bytes.extend(b"ping done\n");
    bytes
}

/// The same conversation in v2 binary framing.
fn valid_v2_conversation() -> Vec<u8> {
    let mut bytes = b"vmplace-net 2\n".to_vec();
    for request in &test_trace(5, 4) {
        codec::encode_request(&mut bytes, request);
    }
    codec::encode_ping(&mut bytes, "done");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupt a valid conversation — flip a byte, truncate, or splice in
    /// garbage — and fire it at a live server. Whatever happens, the
    /// server must answer with frames and a close (no hang, no panic),
    /// and must keep serving a fresh, well-behaved connection.
    #[test]
    fn corrupted_wire_input_never_hangs_or_poisons_the_server(
        pos_frac in 0.0f64..1.0,
        byte in 0u8..=255,
        mode in 0usize..3,
    ) {
        let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
        let addr = server.local_addr();

        let mut payload = valid_conversation();
        let pos = ((payload.len() - 1) as f64 * pos_frac) as usize;
        match mode {
            0 => payload[pos] = byte,                          // flip one byte
            1 => payload.truncate(pos.max(1)),                 // truncate mid-stream
            _ => {
                let garbage = [byte, b'\n'];
                payload.splice(pos..pos, garbage);             // splice bytes in
            }
        }

        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&payload).expect("write");
        // Close our write side so a parser waiting for more input sees
        // EOF rather than an idle peer.
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf)
            .expect("server answered and closed (no hang)");

        // The abused connection is gone; a fresh one must work fully.
        let mut client = Client::connect(addr).expect("fresh connect");
        client.ping("ok").expect("pong");
        let responses = client.replay(&test_trace(3, 6)).expect("replay");
        prop_assert_eq!(responses.len(), 3);
        server.shutdown();
    }

    /// The same adversarial treatment for v2 binary frames: bit flips, truncations, splices and length
    /// lies must always end in structured frames plus a close — never a
    /// hang, never a poisoned server.
    #[test]
    fn corrupted_v2_frames_never_hang_or_poison_the_event_backend(
        pos_frac in 0.0f64..1.0,
        byte in 0u8..=255,
        mode in 0usize..4,
    ) {
        let mut server = Server::bind("127.0.0.1:0", &server_config(1, true)).expect("bind");
        let addr = server.local_addr();

        let mut payload = valid_v2_conversation();
        // Corrupt only past the text handshake line, so every case
        // exercises the binary decoder rather than re-proving the
        // handshake cases the v1 proptest already covers.
        let start = payload.iter().position(|&b| b == b'\n').unwrap() + 1;
        let pos = start + ((payload.len() - start - 1) as f64 * pos_frac) as usize;
        match mode {
            0 => payload[pos] = byte,              // flip one byte
            1 => payload.truncate(pos.max(start)), // truncate mid-frame
            2 => {
                let garbage = [byte, byte ^ 0xff];
                payload.splice(pos..pos, garbage); // splice bytes in
            }
            _ => {
                // Lie in a length field: stomp 4 bytes with 0xff so some
                // header (or body word) promises an absurd size.
                let end = (pos + 4).min(payload.len());
                for b in &mut payload[pos..end] {
                    *b = 0xff;
                }
            }
        }

        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&payload).expect("write");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf)
            .expect("server answered and closed (no hang)");

        // A fresh v2 connection must be fully healthy.
        let mut client = Client::connect_with(addr, PROTOCOL_V2).expect("fresh connect");
        client.ping("ok").expect("pong");
        let responses = client.replay(&test_trace(3, 6)).expect("replay");
        prop_assert_eq!(responses.len(), 3);
        server.shutdown();
    }
}
