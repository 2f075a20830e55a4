//! Chaos differential suite: deterministic fault injection against the
//! pool and the network front-end.
//!
//! The invariant under test, everywhere: **faults never corrupt, they
//! only delay or discard** — every response that does arrive is
//! bit-for-bit the response of a fault-free run, unaffected streams and
//! connections never observe a neighbour's fault, and nothing ever
//! hangs. Solver panics surface as `failed` + stream discard, socket
//! faults as connection teardown, and [`replay_resilient`] recovers
//! both into a complete, fault-free-equal answer set.

use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;
use vmplace::net::wire::PROTOCOL_V2;
use vmplace::net::{
    replay_resilient, replay_resilient_with, Client, NetError, RetryPolicy, Server, ServerConfig,
};
use vmplace::prelude::*;
use vmplace::service::INJECTED_FAULT_MARKER;

/// Silences the panic hook for *injected* panics only (they carry
/// [`INJECTED_FAULT_MARKER`]): a chaos run triggers dozens of expected
/// unwinds, and real diagnostics must not drown in their backtraces.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if message.is_some_and(|m| m.contains(INJECTED_FAULT_MARKER)) {
                return;
            }
            default(info);
        }));
    });
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers,
            response_cache: false,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The wire versions of the chaos matrix: the text protocol and the
/// binary framing each run every fault surface.
const CHAOS_WIRES: [u32; 2] = [1, PROTOCOL_V2];

/// Multi-stream trace with re-solve bursts (same shape as the net suite).
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

/// Bit-for-bit response equality (wall-clock and `cached` excluded, like
/// the net suite's differential).
fn assert_same_response(a: &AllocResponse, b: &AllocResponse, what: &str) {
    assert_eq!(a.id, b.id, "{what}: id");
    assert_eq!(a.stream, b.stream, "{what}: stream (id {})", a.id);
    assert_eq!(a.outcome, b.outcome, "{what}: outcome (id {})", a.id);
    assert_eq!(a.winner, b.winner, "{what}: winner (id {})", a.id);
    assert_eq!(a.probes, b.probes, "{what}: probes (id {})", a.id);
    assert_eq!(a.error, b.error, "{what}: error (id {})", a.id);
    match (&a.solution, &b.solution) {
        (Some(sa), Some(sb)) => {
            assert_eq!(
                sa.min_yield.to_bits(),
                sb.min_yield.to_bits(),
                "{what}: min_yield bits (id {})",
                a.id
            );
            assert_eq!(sa.yields, sb.yields, "{what}: yields (id {})", a.id);
            assert_eq!(
                sa.placement, sb.placement,
                "{what}: placement (id {})",
                a.id
            );
        }
        (None, None) => {}
        _ => panic!("{what}: solution presence diverged (id {})", a.id),
    }
}

fn assert_replays_equal(a: &[AllocResponse], b: &[AllocResponse], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: response count");
    for (x, y) in a.iter().zip(b) {
        assert_same_response(x, y, what);
    }
}

/// A fast, deterministic retry policy for loopback chaos runs.
fn chaos_policy(max_attempts: u32, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(100),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Inject one solver panic at a random point of a random trace and
    /// replay through pools at 1 and 4 workers. The blast radius must be
    /// exactly one stream: every other stream's responses stay
    /// bit-for-bit equal to a fault-free replay; the panicked request
    /// answers `failed`; the victim stream answers `stale-stream` until
    /// its next `New` re-opens it, after which the recovered worker's
    /// answers rejoin the fault-free run bit-for-bit.
    #[test]
    fn pool_panic_blast_radius_is_one_stream(seed in 0u64..10_000, frac in 0.05f64..0.95) {
        quiet_injected_panics();
        let trace = test_trace(16, seed);
        let panic_at = ((trace.len() - 1) as f64 * frac) as usize;
        let panic_id = trace[panic_at].id;
        let victim = trace[panic_at].stream;
        let opens: HashMap<u64, bool> = trace
            .iter()
            .map(|r| (r.id, matches!(r.kind, RequestKind::New(_))))
            .collect();

        for workers in [1usize, 4] {
            let what = format!("seed {seed} panic {panic_id} workers {workers}");
            let mut config = server_config(workers).service;
            let mut clean_pool = SolverPool::new(&config);
            let clean = clean_pool.replay(trace.clone());
            clean_pool.shutdown();

            config.faults = FaultPlan::parse(&format!("panic={panic_id}"));
            let mut pool = SolverPool::new(&config);
            let chaotic = pool.replay(trace.clone());
            pool.shutdown();

            // No hang, nothing lost: one response per request, in order.
            prop_assert_eq!(chaotic.len(), trace.len());
            let mut past_panic = false;
            let mut reopened = false;
            for (c, g) in clean.iter().zip(&chaotic) {
                prop_assert_eq!(c.id, g.id);
                if g.stream != victim {
                    assert_same_response(c, g, &format!("{what}: bystander stream"));
                } else if g.id == panic_id {
                    past_panic = true;
                    prop_assert_eq!(g.outcome, RequestOutcome::Failed);
                    prop_assert!(g.error.is_some());
                    prop_assert!(g.solution.is_none());
                } else if !past_panic {
                    assert_same_response(c, g, &format!("{what}: before the panic"));
                } else if reopened {
                    // The replacement engine serves the re-opened stream
                    // with fault-free answers.
                    assert_same_response(c, g, &format!("{what}: after re-open"));
                } else if opens[&g.id] {
                    reopened = true;
                    assert_same_response(c, g, &format!("{what}: re-opening New"));
                } else {
                    prop_assert_eq!(g.outcome, RequestOutcome::StaleStream);
                    prop_assert!(g.solution.is_none());
                }
            }
        }
    }
}

#[test]
fn chaos_loopback_resilient_replay_equals_fault_free_run() {
    quiet_injected_panics();
    let trace = test_trace(24, 11);
    let reference = replay_oneshot(trace.clone(), &server_config(1).service);

    // Each plan exercises a different failure surface: solver panics,
    // clean-boundary drops, mid-frame cuts, combinations, and short /
    // delayed writes that stress the client parser across partial reads.
    let plans = [
        "panic=17,seed=5",
        "drop=21,seed=9",
        "drop=19,midframe,seed=4",
        "panic=19,drop=21,seed=6",
        "shortwrite=7",
        "shortwrite=64,delay-ms=1",
    ];
    for wire in CHAOS_WIRES {
        for spec in plans {
            let what = format!("plan `{spec}` on v{wire}");
            let mut config = server_config(2);
            config.service.faults = FaultPlan::parse(spec);
            assert!(config.service.faults.is_some(), "{what}: plan must parse");
            let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");

            let got =
                replay_resilient_with(server.local_addr(), &trace, &chaos_policy(16, 1), wire)
                    .unwrap_or_else(|e| panic!("{what}: resilient replay failed: {e}"));
            server.shutdown();

            // Complete, and every answer bit-for-bit the fault-free answer.
            assert_replays_equal(&reference, &got, &what);
            assert!(
                got.iter().all(|r| !r.outcome.is_retryable()),
                "{what}: a retryable verdict leaked into the final set"
            );
        }
    }
}

#[test]
fn default_resilient_replay_requests_v2_and_negotiates_down_under_chaos() {
    quiet_injected_panics();
    // `replay_resilient` asks for the newest framing on every
    // (re)connection: all v2 against a default server, all text against
    // one pinned to v1 — through the same faults, to the same answers.
    let trace = test_trace(24, 11);
    let reference = replay_oneshot(trace.clone(), &server_config(1).service);
    for (max_wire, spoken, never) in [
        (ServerConfig::default().max_wire, "v2", "v1"),
        (1, "v1", "v2"),
    ] {
        let what = format!("max_wire {max_wire}");
        let mut config = server_config(2);
        config.max_wire = max_wire;
        config.service.faults = FaultPlan::parse("panic=19,drop=21,seed=6");
        let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
        let got = replay_resilient(server.local_addr(), &trace, &chaos_policy(16, 1))
            .unwrap_or_else(|e| panic!("{what}: resilient replay failed: {e}"));
        let metrics = server.metrics();
        server.shutdown();

        assert_replays_equal(&reference, &got, &what);
        let count = |wire: &str| metrics.counter(&format!("net.wire.{wire}")).get();
        assert!(count(spoken) > 0, "{what}: no {spoken} handshake");
        assert_eq!(count(never), 0, "{what}: a connection spoke {never}");
    }
}

#[test]
fn chaos_concurrent_connections_stay_isolated() {
    quiet_injected_panics();
    // One chaotic server, two concurrent clients with their own traces:
    // each client must converge to its own fault-free replay — faults on
    // one connection never leak answers or corruption into the other.
    let mut config = server_config(2);
    config.service.faults = FaultPlan::parse("panic=9,drop=14,seed=3");
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = [21u64, 22]
        .into_iter()
        .map(|seed| {
            std::thread::spawn(move || {
                let trace = test_trace(16, seed);
                let mut pool = SolverPool::new(&server_config(1).service);
                let expect = pool.replay(trace.clone());
                pool.shutdown();
                let got = replay_resilient(addr, &trace, &chaos_policy(16, seed))
                    .expect("resilient replay converges");
                assert_replays_equal(&expect, &got, &format!("client seed {seed}"));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos client thread");
    }
    server.shutdown();
}

#[test]
fn acceptor_survives_connection_handler_panics() {
    quiet_injected_panics();
    let mut config = server_config(1);
    config.service.faults = FaultPlan::parse("panic-accept=0");
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr();

    // Connection 0's handler panics before the handshake: that client
    // fails cleanly instead of hanging...
    assert!(
        Client::connect(addr).is_err(),
        "the sabotaged connection must fail, not succeed silently"
    );
    // ...and the acceptor thread survives to serve connection 1 fully.
    let mut client = Client::connect(addr).expect("acceptor kept accepting");
    let responses = client.replay(&test_trace(6, 3)).expect("replay");
    assert_eq!(responses.len(), 6);
    drop(client);
    server.shutdown(); // drains cleanly after the panic
}

#[test]
fn overloaded_server_answers_every_request_and_resilient_replay_completes() {
    for wire in CHAOS_WIRES {
        let mut config = server_config(2);
        config.service.overload = Some(OverloadControl {
            queue_depth: 6,
            shed_expired: true,
        });
        let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
        let addr = server.local_addr();
        let trace = test_trace(16, 13);

        // A plain client bursting the whole trace gets one prompt answer
        // per request — solved, or shed with a retry hint — never a hang.
        let mut client = Client::connect_with(addr, wire).expect("connect");
        for request in &trace {
            client.submit(request).expect("submit");
        }
        client.flush().expect("flush");
        let responses: Result<Vec<_>, _> = client.responses().collect();
        let responses = responses.expect("every burst request answered");
        assert_eq!(responses.len(), trace.len());
        for r in &responses {
            if r.outcome == RequestOutcome::Overloaded {
                assert!(
                    r.retry_after.is_some_and(|d| d > Duration::ZERO),
                    "v{wire}: overloaded answers carry a retry hint (id {})",
                    r.id
                );
            }
        }
        drop(client);

        // The resilient client turns the same burst into a complete run
        // by honoring the hints and resubmitting shed prefixes.
        let policy = RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 2,
        };
        let got = replay_resilient_with(addr, &trace, &policy, wire)
            .unwrap_or_else(|e| panic!("v{wire}: resilient replay failed: {e}"));
        assert_eq!(got.len(), trace.len());
        assert!(got.iter().all(|r| !r.outcome.is_retryable()));
        server.shutdown();
    }
}

#[test]
fn fd_exhaustion_backs_off_and_keeps_the_acceptor_alive() {
    // `fd-exhaust=N` makes the acceptor treat its first N accepted
    // connections as if accept(2) had failed with EMFILE: the reserve
    // descriptor is burned to answer `overloaded` + retry-after instead
    // of tearing the acceptor down.
    let mut config = server_config(1);
    config.service.faults = FaultPlan::parse("fd-exhaust=2");
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr();

    for attempt in 0..2 {
        match Client::connect(addr) {
            Err(NetError::Remote { code, message }) => {
                assert_eq!(code, "overloaded", "attempt {attempt}");
                assert!(
                    message.contains("retry-after-ms="),
                    "attempt {attempt}: refusal must carry a retry hint, got `{message}`"
                );
            }
            Err(other) => {
                panic!("attempt {attempt}: expected overloaded refusal, got {other:?}")
            }
            Ok(_) => panic!("attempt {attempt}: connection must be refused"),
        }
    }
    // The acceptor survived both synthetic exhaustions and serves the
    // third connection fully.
    let mut client = Client::connect(addr).expect("acceptor kept accepting");
    let responses = client.replay(&test_trace(6, 31)).expect("replay");
    assert_eq!(responses.len(), 6);
    drop(client);
    server.shutdown();

    // The resilient client rides through the refusals on its own: the
    // `overloaded` greeting is a retryable error like any other.
    let mut config = server_config(1);
    config.service.faults = FaultPlan::parse("fd-exhaust=3");
    let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let trace = test_trace(8, 33);
    let got = replay_resilient_with(
        server.local_addr(),
        &trace,
        &chaos_policy(16, 7),
        PROTOCOL_V2,
    )
    .expect("resilient replay converges through fd exhaustion");
    assert_eq!(got.len(), trace.len());
    server.shutdown();
}

#[test]
fn adversarial_traces_survive_chaos_replay() {
    quiet_injected_panics();
    // The adversarial generators (satellite of this PR) are the chaos
    // suite's traffic: a flash crowd hammering one stream through a
    // panicking, dropping server must still converge bit-for-bit.
    for shape in [
        Adversarial::Spike,
        Adversarial::FlashCrowd,
        Adversarial::ChurnStorm,
    ] {
        let trace = TraceConfig {
            streams: 3,
            requests: 18,
            scenario: ScenarioConfig {
                hosts: 16,
                services: 30,
                cov: 0.5,
                memory_slack: 0.6,
                ..ScenarioConfig::default()
            },
            mix: (0.3, 0.2, 0.25, 0.25),
            resolve_burst: 3,
            adversarial: shape,
            ..TraceConfig::default()
        }
        .generate(29);

        let mut pool = SolverPool::new(&server_config(1).service);
        let expect = pool.replay(trace.clone());
        pool.shutdown();

        // A flash crowd packs ~15 of the 18 requests onto one stream, and
        // retry rounds replay a needy stream's *entire* prefix — so faults
        // keyed below the prefix length would re-fire on every round.
        // Keying them just above it (16/17 of 18) makes the injected
        // failures transient, which is the contract retries can recover.
        let mut config = server_config(2);
        config.service.faults = FaultPlan::parse("panic=16,drop=17,seed=8");
        let mut server = Server::bind("127.0.0.1:0", &config).expect("bind");
        let got = replay_resilient(server.local_addr(), &trace, &chaos_policy(16, 4))
            .unwrap_or_else(|e| panic!("{shape:?}: resilient replay failed: {e}"));
        server.shutdown();
        assert_replays_equal(&expect, &got, &format!("{shape:?}"));
    }
}
