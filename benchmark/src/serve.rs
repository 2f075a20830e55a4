//! The serving driver: replays traces against an in-process loopback
//! server over [`CONNECTIONS`] fresh connections per trace, one
//! load-generator thread per connection.
//!
//! Only the shipped defaults are used — `ServerConfig::default()` and
//! `Client::connect` — with `workers` pinned to the sandbox's two cores,
//! so a later change of a default shows up as a gain or a loss here.

use crate::oracle::{Answer, Claim, Digest, StreamTracker, Verdict};
use crate::workload::{Discipline, CONNECTIONS};
use crate::Measured;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmplace_model::{AllocRequest, AllocResponse};
use vmplace_net::{Client, Server, ServerConfig};
use vmplace_service::ServiceConfig;

/// Binds the server under test on an ephemeral loopback port.
pub fn bind_server() -> Server {
    let config = ServerConfig {
        service: ServiceConfig {
            workers: CONNECTIONS,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", &config).expect("bind 127.0.0.1:0")
}

/// One attempted request: its latency and what came back.
pub struct OpResult {
    /// Submit → response arrival.
    pub latency: Duration,
    /// What the oracle needs of the response, or the connection error
    /// that replaced it.
    pub response: Result<Answer, String>,
}

/// What a replay observed: per trace, per request position, the result
/// (`None`: never attempted because the run hit its deadline).
pub struct Replay {
    /// Wall time of the replay.
    pub wall: Duration,
    /// Results indexed `[trace][position in trace]`.
    pub results: Vec<Vec<Option<OpResult>>>,
}

/// A connection's share of a trace: the requests of the streams with
/// `stream % CONNECTIONS == c`, in trace order. Streams never span
/// connections, so per-stream order is kept; and since the server shards
/// streams over workers by the same residue, each connection feeds one
/// worker.
fn part(trace: &[AllocRequest], c: usize) -> Vec<(usize, &AllocRequest)> {
    trace
        .iter()
        .enumerate()
        .filter(|(_, r)| r.stream as usize % CONNECTIONS == c)
        .collect()
}

fn drive(
    addr: SocketAddr,
    part: &[(usize, &AllocRequest)],
    discipline: Discipline,
) -> Vec<(usize, OpResult)> {
    let mut out = Vec::with_capacity(part.len());
    // Each stream's last claim, so that repeated answers share storage.
    let mut claims: BTreeMap<u64, Arc<Claim>> = BTreeMap::new();
    let mut reduce = |response: AllocResponse| {
        let answer = Answer::new(&response, claims.get(&response.stream));
        if let Some(claim) = &answer.claim {
            claims.insert(response.stream, claim.clone());
        }
        answer
    };
    let fail_rest = |out: &mut Vec<(usize, OpResult)>, from: usize, error: String| {
        for (idx, _) in &part[from..] {
            out.push((
                *idx,
                OpResult {
                    latency: Duration::ZERO,
                    response: Err(error.clone()),
                },
            ));
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            fail_rest(&mut out, 0, e.to_string());
            return out;
        }
    };
    match discipline {
        Discipline::ClosedLoop => {
            for (k, (idx, request)) in part.iter().enumerate() {
                let sent = Instant::now();
                let response = client.submit(request).and_then(|()| client.recv_response());
                let latency = sent.elapsed();
                match response {
                    Ok(r) => out.push((
                        *idx,
                        OpResult {
                            latency,
                            response: Ok(reduce(r)),
                        },
                    )),
                    Err(e) => {
                        fail_rest(&mut out, k, e.to_string());
                        return out;
                    }
                }
            }
        }
        Discipline::Pipelined => {
            let mut sent = Vec::with_capacity(part.len());
            for (_, request) in part {
                sent.push(Instant::now());
                if let Err(e) = client.submit(request) {
                    fail_rest(&mut out, 0, e.to_string());
                    return out;
                }
            }
            if let Err(e) = client.flush() {
                fail_rest(&mut out, 0, e.to_string());
                return out;
            }
            for (k, (idx, _)) in part.iter().enumerate() {
                match client.recv_response() {
                    Ok(r) => out.push((
                        *idx,
                        OpResult {
                            latency: sent[k].elapsed(),
                            response: Ok(reduce(r)),
                        },
                    )),
                    Err(e) => {
                        fail_rest(&mut out, k, e.to_string());
                        return out;
                    }
                }
            }
        }
    }
    out
}

/// Replays `traces` in order; each connection thread opens a fresh
/// connection per trace. No trace starts after `deadline`.
pub fn replay(
    addr: SocketAddr,
    traces: &[Vec<AllocRequest>],
    discipline: Discipline,
    deadline: Instant,
) -> Replay {
    let parts: Vec<Vec<Vec<(usize, &AllocRequest)>>> = (0..CONNECTIONS)
        .map(|c| traces.iter().map(|t| part(t, c)).collect())
        .collect();
    let mut results: Vec<Vec<Option<OpResult>>> = traces
        .iter()
        .map(|t| t.iter().map(|_| None).collect())
        .collect();
    let start = Instant::now();
    let per_connection: Vec<Vec<Vec<(usize, OpResult)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(mine.len());
                    for part in mine {
                        if Instant::now() > deadline {
                            break;
                        }
                        done.push(drive(addr, part, discipline));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread"))
            .collect()
    });
    let wall = start.elapsed();
    for connection in per_connection {
        for (t, ops) in connection.into_iter().enumerate() {
            for (idx, op) in ops {
                results[t][idx] = Some(op);
            }
        }
    }
    Replay { wall, results }
}

/// Runs the oracle over a replay (outside the timed window) and folds it
/// into the common measurement record.
pub fn judge(traces: &[Vec<AllocRequest>], replay: &Replay, cpu: Duration) -> Measured {
    let mut m = Measured {
        wall: replay.wall,
        cpu,
        ..Measured::default()
    };
    let mut digest = Digest::default();
    for (trace, results) in traces.iter().zip(&replay.results) {
        let mut tracker = StreamTracker::new();
        for (request, result) in trace.iter().zip(results) {
            let Some(op) = result else { continue };
            m.attempted += 1;
            let verdict = match &op.response {
                Ok(answer) => {
                    digest.answer(answer.id, answer.outcome as u64, answer.claim.as_deref());
                    if answer.cached {
                        m.cached += 1;
                        m.cached_latency_ms += op.latency.as_secs_f64() * 1e3;
                    }
                    m.repaired += u64::from(answer.repaired);
                    m.probes += answer.probes;
                    tracker.check(request, answer)
                }
                Err(_) => {
                    // Keep the tracker in step with the stream all the same.
                    tracker.advance(request);
                    Verdict::Failed
                }
            };
            m.note(verdict, op.latency);
        }
    }
    m.digest = digest.value();
    m
}
