//! Client-side resilience: reconnect with backoff, honoring server
//! retry hints, and idempotent resubmission of unanswered requests.
//!
//! The server's failure contract (see the failure-model section of
//! `docs/ARCHITECTURE.md`) makes every failure either a *structured
//! retryable response* (`failed`, `overloaded` with `retry-after-ms`,
//! `stale-stream`) or a *connection teardown* (the writer cuts the
//! socket rather than ever following a torn frame with a fresh one).
//! [`replay_resilient`] recovers from both: it tracks which requests
//! hold a final answer, and on every retry round opens a fresh
//! connection and re-sends the **entire request prefix of every stream
//! still owed an answer** — a reconnect lands in a fresh connection
//! namespace on the server, so the stream state the old connection held
//! (or a panic discarded) is rebuilt from scratch by the replayed `New`
//! and `Delta` frames. Engines are deterministic given the same request
//! prefix, so replayed answers are bit-for-bit the answers the fault-free
//! run produces; the first final answer per request id wins and re-solved
//! duplicates are discarded, making resubmission idempotent.

use crate::client::Client;
use crate::wire::NetError;
use std::collections::{BTreeMap, HashSet};
use std::net::ToSocketAddrs;
use std::time::Duration;
use vmplace_model::{AllocRequest, AllocResponse};

/// Reconnect/retry policy for [`replay_resilient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Hard cap on rounds (initial attempt included). When it is
    /// exhausted with requests still unanswered, the replay fails with
    /// the last underlying error.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every retry round.
    pub base_backoff: Duration,
    /// Ceiling on every sleep, including server `retry-after-ms` hints —
    /// the client-side bound on how long one round may stall.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter (same seed, same
    /// delays — chaos runs stay reproducible).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry round `round` (0-based): exponential
    /// backoff with deterministic jitter in `[0.5, 1.0)×`, floored at
    /// the largest `retry-after-ms` hint collected in the previous
    /// round, capped at [`RetryPolicy::max_backoff`].
    fn backoff(&self, round: u32, hint: Option<Duration>) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << round.min(16));
        let jitter = 0.5 + (splitmix(self.seed ^ u64::from(round)) % 512) as f64 / 1024.0;
        exp.mul_f64(jitter)
            .max(hint.unwrap_or(Duration::ZERO))
            .min(self.max_backoff)
    }
}

/// Folds one response into the retry bookkeeping: the first final
/// (non-retryable) answer per id wins; retryable verdicts only
/// contribute their `retry-after-ms` hint to the next backoff.
fn note_response(
    finals: &mut BTreeMap<u64, AllocResponse>,
    hint: &mut Option<Duration>,
    response: AllocResponse,
) {
    if finals.contains_key(&response.id) {
        return; // re-solved duplicate of an idempotent resubmit
    }
    if response.outcome.is_retryable() {
        if let Some(after) = response.retry_after {
            *hint = Some(hint.map_or(after, |h| h.max(after)));
        }
    } else {
        finals.insert(response.id, response);
    }
}

/// SplitMix64 finaliser (jitter needs no RNG state, just avalanche).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Replays `trace` against `addr` until every request holds a final
/// (non-retryable) response, reconnecting and resubmitting across
/// connection teardowns, `failed`/`stale-stream` answers and
/// `overloaded` sheds (honoring their `retry-after-ms` hints), within
/// the policy's attempt cap.
///
/// Every connection requests the highest wire version this build speaks
/// (v2, binary), negotiated down against a v1-only server, as
/// [`Client::connect`] does; [`replay_resilient_with`] pins a version.
///
/// Request ids must be unique within the trace (they key the answer
/// bookkeeping). Returns the responses sorted by request id, like
/// [`Client::replay`].
pub fn replay_resilient<A: ToSocketAddrs + Clone>(
    addr: A,
    trace: &[AllocRequest],
    policy: &RetryPolicy,
) -> Result<Vec<AllocResponse>, NetError> {
    replay_resilient_with(addr, trace, policy, crate::wire::MAX_PROTOCOL_VERSION)
}

/// [`replay_resilient`] requesting wire version `wire` on every
/// (re)connection — each fresh connection re-negotiates, so a resilient
/// replay keeps working against servers of either protocol generation.
pub fn replay_resilient_with<A: ToSocketAddrs + Clone>(
    addr: A,
    trace: &[AllocRequest],
    policy: &RetryPolicy,
    wire: u32,
) -> Result<Vec<AllocResponse>, NetError> {
    let mut finals: BTreeMap<u64, AllocResponse> = BTreeMap::new();
    let mut hint: Option<Duration> = None;
    let mut last_err: Option<NetError> = None;

    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(policy.backoff(attempt - 1, hint.take()));
        }
        // Streams still owed an answer are resubmitted from their first
        // request: a fresh connection holds none of their state.
        let needy: HashSet<u64> = trace
            .iter()
            .filter(|r| !finals.contains_key(&r.id))
            .map(|r| r.stream)
            .collect();
        if needy.is_empty() {
            break;
        }
        let round: Vec<AllocRequest> = trace
            .iter()
            .filter(|r| needy.contains(&r.stream))
            .cloned()
            .collect();

        let mut client = match Client::connect_with(addr.clone(), wire) {
            Ok(client) => client,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        // The first attempt pipelines the whole round for throughput.
        // Retry rounds degrade to stop-and-wait: a server shedding under
        // a bounded queue admits a depth-1 client where it would shed the
        // tail of a burst — without this, resubmitting full stream
        // prefixes into the same overload starves the unanswered tail
        // forever (every admitted slot goes to an already-answered
        // duplicate at the head of the prefix).
        let lockstep = attempt > 0;
        for request in &round {
            if client.submit(request).is_err() {
                break; // the teardown surfaces below, reading responses
            }
            if lockstep {
                match client.recv_response() {
                    Ok(response) => note_response(&mut finals, &mut hint, response),
                    Err(e) => {
                        last_err = Some(e);
                        break;
                    }
                }
            }
        }
        // Drain whatever is still pending (the whole round when
        // pipelined; nothing, normally, in a lockstep round).
        for response in client.responses() {
            match response {
                Ok(response) => note_response(&mut finals, &mut hint, response),
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
    }

    if finals.len() == trace.len() {
        Ok(finals.into_values().collect())
    } else {
        Err(last_err.unwrap_or_else(|| {
            NetError::Protocol(format!(
                "{} attempts exhausted with {} of {} requests unanswered",
                policy.max_attempts,
                trace.len() - finals.len(),
                trace.len()
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_honors_hints_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            ..RetryPolicy::default()
        };
        let b0 = policy.backoff(0, None);
        let b3 = policy.backoff(3, None);
        assert!(b0 >= Duration::from_millis(5) && b0 < Duration::from_millis(10));
        assert!(b3 > b0, "backoff grows across rounds");
        // Deterministic for a fixed seed and round.
        assert_eq!(policy.backoff(2, None), policy.backoff(2, None));
        // A server hint floors the delay; the cap bounds it.
        assert_eq!(
            policy.backoff(0, Some(Duration::from_millis(200))),
            Duration::from_millis(200)
        );
        assert_eq!(
            policy.backoff(0, Some(Duration::from_secs(30))),
            Duration::from_millis(500)
        );
        assert_eq!(policy.backoff(30, None), Duration::from_millis(500));
    }
}
