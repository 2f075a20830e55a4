//! Network front-end overhead: a loopback server-mediated replay against
//! the in-process pool it fronts, and the response cache against real
//! re-solves.
//!
//! The wire adds parse + frame + two socket hops per request; on solver
//! traffic (milliseconds per request) that overhead must disappear into
//! the noise — the `serve_*` workloads of `benchmark/` measure it end to
//! end under load.

use criterion::{criterion_group, criterion_main, Criterion};
use vmplace_model::{AllocRequest, RequestKind};
use vmplace_net::wire::{read_server_frame, write_response, PROTOCOL_V2};
use vmplace_net::{codec, Client, Server, ServerConfig};
use vmplace_service::trace_io::{write_request, BlockAssembler};
use vmplace_service::{ServiceConfig, SolverPool};
use vmplace_sim::{ScenarioConfig, TraceConfig};

fn trace_config() -> TraceConfig {
    TraceConfig {
        streams: 3,
        requests: 24,
        scenario: ScenarioConfig {
            hosts: 16,
            services: 40,
            cov: 0.5,
            memory_slack: 0.6,
            ..ScenarioConfig::default()
        },
        ..TraceConfig::default()
    }
}

/// One `New` followed by identical `Resolve`s: the response cache's
/// target workload.
fn resolve_burst_trace(resolves: usize) -> Vec<AllocRequest> {
    let mut trace = trace_config().generate(2);
    trace.truncate(1); // the stream-0 opening New
    for i in 0..resolves as u64 {
        trace.push(AllocRequest {
            id: 1 + i,
            stream: 0,
            kind: RequestKind::Resolve,
            budget: None,
            policy: Default::default(),
        });
    }
    trace
}

fn bench_net(c: &mut Criterion) {
    let trace = trace_config().generate(1);
    let mut group = c.benchmark_group("net_replay");

    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };

    let mut pool = SolverPool::new(&config);
    group.bench_function("inprocess_pool", |b| b.iter(|| pool.replay(trace.clone())));

    let server = Server::bind(
        "127.0.0.1:0",
        &ServerConfig {
            service: config.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    for wire in [1, PROTOCOL_V2] {
        let mut client = Client::connect_with(server.local_addr(), wire).expect("connect");
        group.bench_function(format!("loopback_v{wire}"), |b| {
            b.iter(|| client.replay(&trace).expect("remote replay"))
        });
    }
    drop(server);

    // Codec alone, no sockets: one instance-carrying New body through
    // each wire generation's encode and decode path.
    let request = trace
        .iter()
        .find(|r| matches!(r.kind, RequestKind::New(_)))
        .expect("trace opens with a New")
        .clone();
    let mut text = String::new();
    write_request(&mut text, &request);
    group.bench_function("codec_v1_text_encode", |b| {
        b.iter(|| {
            let mut s = String::with_capacity(text.len());
            write_request(&mut s, &request);
            s
        })
    });
    group.bench_function("codec_v1_text_decode", |b| {
        b.iter(|| {
            let mut asm = BlockAssembler::new();
            let mut out = None;
            for (i, line) in text.lines().enumerate() {
                if let Some(req) = asm.feed(i + 1, line).expect("v1 parse") {
                    out = Some(req);
                }
            }
            out
        })
    });
    let mut bin = Vec::new();
    codec::encode_request(&mut bin, &request);
    let mut head = [0u8; codec::HEADER_LEN];
    head.copy_from_slice(&bin[..codec::HEADER_LEN]);
    let (kind, _len) = codec::parse_header(&head);
    let body = bin[codec::HEADER_LEN..].to_vec();
    group.bench_function("codec_v2_binary_encode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bin.len());
            codec::encode_request(&mut out, &request);
            out
        })
    });
    group.bench_function("codec_v2_binary_decode", |b| {
        b.iter(|| codec::decode_client_frame(kind, &body).expect("v2 decode"))
    });

    // The same for one solved answer of the serving workloads' shape
    // (64 hosts, 100 services): what every cached re-solve sends back.
    let answers = SolverPool::new(&config).replay(
        TraceConfig {
            streams: 4,
            requests: 4,
            scenario: ScenarioConfig {
                hosts: 64,
                services: 100,
                cov: 0.5,
                memory_slack: 0.6,
                ..ScenarioConfig::default()
            },
            ..TraceConfig::default()
        }
        .generate(1),
    );
    let answer = answers
        .into_iter()
        .find(|r| r.solution.is_some())
        .expect("one of four j100 instances places");
    let mut text = String::new();
    write_response(&mut text, &answer);
    group.bench_function("codec_v1_text_encode_response", |b| {
        b.iter(|| {
            let mut s = String::with_capacity(text.len());
            write_response(&mut s, &answer);
            s
        })
    });
    group.bench_function("codec_v1_text_decode_response", |b| {
        b.iter(|| read_server_frame(&mut text.as_bytes()).expect("v1 response"))
    });
    let mut bin = Vec::new();
    codec::encode_response(&mut bin, &answer);
    let body = bin[codec::HEADER_LEN..].to_vec();
    group.bench_function("codec_v2_binary_encode_response", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bin.len());
            codec::encode_response(&mut out, &answer);
            out
        })
    });
    group.bench_function("codec_v2_binary_decode_response", |b| {
        b.iter(|| codec::decode_response(&body).expect("v2 response"))
    });

    let bursts = resolve_burst_trace(16);
    let mut cached_pool = SolverPool::new(&config);
    group.bench_function("resolves_cached", |b| {
        b.iter(|| cached_pool.replay(bursts.clone()))
    });
    let mut uncached_pool = SolverPool::new(&ServiceConfig {
        response_cache: false,
        ..config
    });
    group.bench_function("resolves_uncached", |b| {
        b.iter(|| uncached_pool.replay(bursts.clone()))
    });

    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
