//! Request-trace generation for the long-lived allocation service.
//!
//! A trace models the service's steady state: several independent
//! *streams* (tenants / clusters), each opening with a full §4-style
//! instance and then evolving through service **arrivals**, **departures**
//! and **demand changes**, with occasional in-place **re-solves** under a
//! tightened budget. Each `(config, seed)` pair deterministically yields
//! one trace, mirroring [`crate::scenario::Scenario`] for single
//! instances.

use crate::rng::weighted_index;
use crate::scenario::{Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use vmplace_model::{AllocRequest, RequestKind, ResponsePolicy, Service, WorkloadDelta};

/// Adversarial traffic shapes layered over the base generator — the
/// load patterns the fault-tolerance layer must degrade gracefully
/// under (the chaos suite in `tests/integration_chaos.rs`).
///
/// [`Adversarial::None`] leaves the generator byte-identical to the
/// shape-free versions of a config: the adversarial branches draw from
/// the RNG only when active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Adversarial {
    /// The plain workload mix (the default).
    #[default]
    None,
    /// Correlated demand spike: in the middle third of the trace, every
    /// stream's follow-up becomes a demand *increase* on a random
    /// service — all tenants surge together, so no stream's solve gets
    /// cheaper while the others get dearer.
    Spike,
    /// Flash crowd: once every stream has opened, follow-ups concentrate
    /// on stream 0 (the hot stream), with only every fourth request
    /// visiting the others — one tenant floods the service while the
    /// rest must stay live.
    FlashCrowd,
    /// Churn storm: follow-ups alternate whole rounds of arrivals and
    /// departures — instances grow and shrink as fast as the generator
    /// allows, the worst case for per-stream warm state.
    ChurnStorm,
}

/// Configuration of the trace generator.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of independent streams.
    pub streams: usize,
    /// Total number of requests across all streams (including each
    /// stream's opening `New` request).
    pub requests: usize,
    /// Shape of each stream's opening instance.
    pub scenario: ScenarioConfig,
    /// Relative weights of the four follow-up request flavours:
    /// `(arrival, departure, demand change, re-solve)`.
    pub mix: (f64, f64, f64, f64),
    /// Wall-clock budget attached to re-solve requests (`None` leaves
    /// every request unbudgeted).
    pub resolve_budget: Option<Duration>,
    /// Every drawn re-solve becomes a burst of this many consecutive
    /// identical `Resolve` requests on its stream (1 = no bursts). Models
    /// reconciliation loops and health-check refreshes re-asking an
    /// unchanged question — the workload the service's response cache
    /// answers without solving.
    pub resolve_burst: usize,
    /// Response policy attached to every follow-up request (`Delta` and
    /// `Resolve`; opening `New` requests always go out `Exact` — there is
    /// no placement to repair yet, and keeping them exact makes the
    /// repaired trace's opening solves comparable to the exact trace's).
    pub policy: ResponsePolicy,
    /// Adversarial traffic shape layered over the mix
    /// ([`Adversarial::None`] reproduces shape-free traces byte for
    /// byte).
    pub adversarial: Adversarial,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            streams: 4,
            requests: 50,
            scenario: ScenarioConfig {
                hosts: 16,
                services: 40,
                cov: 0.5,
                memory_slack: 0.5,
                ..ScenarioConfig::default()
            },
            mix: (0.35, 0.25, 0.3, 0.1),
            resolve_budget: None,
            resolve_burst: 1,
            policy: ResponsePolicy::Exact,
            adversarial: Adversarial::None,
        }
    }
}

impl TraceConfig {
    /// Generates the `seed`-th trace of this configuration: requests
    /// arrive round-robin across streams, each stream opening with a
    /// `New` instance and then drawing follow-ups from
    /// [`TraceConfig::mix`]. Request ids are unique and increase in
    /// submission order.
    pub fn generate(&self, seed: u64) -> Vec<AllocRequest> {
        assert!(self.streams > 0, "trace needs at least one stream");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        let scenario = Scenario::new(self.scenario.clone());
        let weights = [self.mix.0, self.mix.1, self.mix.2, self.mix.3];

        // Per-stream state: the evolving service count (for valid indices),
        // a copy of the opening services (arrival templates) and the
        // remaining length of an in-progress re-solve burst.
        let mut counts: Vec<usize> = Vec::with_capacity(self.streams);
        let mut templates: Vec<Vec<Service>> = Vec::with_capacity(self.streams);
        let mut bursting: Vec<usize> = vec![0; self.streams];

        // Demand spikes hit the middle third of the trace: every stream
        // is open and warm by then, and recovery is observable after.
        let spike_window = self.requests / 3..(2 * self.requests) / 3;

        let mut trace = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            let all_open = id >= self.streams as u64;
            let stream = match self.adversarial {
                // Flash crowd: concentrate on stream 0 once every stream
                // has opened; every fourth request still visits the
                // round-robin stream so the cold streams stay live.
                Adversarial::FlashCrowd if all_open && id % 4 != 3 => 0,
                _ => id % self.streams as u64,
            };
            let s = stream as usize;
            if s >= counts.len() {
                // First visit: open the stream.
                let instance = scenario.instance(seed.wrapping_add(1 + stream));
                counts.push(instance.num_services());
                templates.push(instance.services().to_vec());
                trace.push(AllocRequest {
                    id,
                    stream,
                    kind: RequestKind::New(instance),
                    budget: None,
                    policy: ResponsePolicy::Exact,
                });
                continue;
            }

            if bursting[s] > 0 {
                // Continue the stream's identical re-solve burst (no RNG
                // draw, so `resolve_burst = 1` reproduces prior traces
                // byte for byte).
                bursting[s] -= 1;
                trace.push(AllocRequest {
                    id,
                    stream,
                    kind: RequestKind::Resolve,
                    budget: self.resolve_budget,
                    policy: self.policy,
                });
                continue;
            }

            let spiking =
                self.adversarial == Adversarial::Spike && spike_window.contains(&(id as usize));
            let flavour = match self.adversarial {
                // Correlated spike: every stream's follow-up in the
                // window is a (forced-upward) demand change.
                Adversarial::Spike if spiking => 2,
                // Churn storm: whole rounds of arrivals alternate with
                // whole rounds of departures.
                Adversarial::ChurnStorm => {
                    if (id as usize / self.streams) % 2 == 0 {
                        0
                    } else {
                        1
                    }
                }
                _ => weighted_index(&mut rng, &weights),
            };
            let (kind, budget) = match flavour {
                // Arrival: a template service with uniformly rescaled
                // needs and memory (uniform scaling preserves validity;
                // memory only ever scales *down*, so an arrival is always
                // placeable wherever its template was and a stream cannot
                // become permanently infeasible from one oversized
                // arrival).
                0 => {
                    let t = &templates[s][rng.gen_range(0..templates[s].len())];
                    let mut svc = t.clone();
                    let need_scale = rng.gen_range(0.5..1.5);
                    let mem_scale = rng.gen_range(0.4..1.0);
                    svc.need_elem.scale_assign(need_scale);
                    svc.need_agg.scale_assign(need_scale);
                    for d in 1..svc.dims() {
                        svc.req_elem[d] *= mem_scale;
                        svc.req_agg[d] *= mem_scale;
                    }
                    counts[s] += 1;
                    (
                        RequestKind::Delta(WorkloadDelta {
                            add: vec![svc],
                            ..WorkloadDelta::default()
                        }),
                        None,
                    )
                }
                // Departure (kept above one service so the stream's
                // instance stays valid).
                1 if counts[s] > 1 => {
                    let victim = rng.gen_range(0..counts[s]);
                    counts[s] -= 1;
                    (
                        RequestKind::Delta(WorkloadDelta {
                            remove: vec![victim],
                            ..WorkloadDelta::default()
                        }),
                        None,
                    )
                }
                // Demand change on a random service (a spike window
                // forces the change upward — correlated pressure).
                2 => {
                    let j = rng.gen_range(0..counts[s]);
                    let factor = if spiking {
                        rng.gen_range(1.05..1.35)
                    } else {
                        rng.gen_range(0.6..1.4)
                    };
                    (
                        RequestKind::Delta(WorkloadDelta {
                            scale_need: vec![(j, factor)],
                            ..WorkloadDelta::default()
                        }),
                        None,
                    )
                }
                // Re-solve in place (departure draws on a 1-service
                // stream also land here); `resolve_burst > 1` queues the
                // burst's remainder for the stream's next turns.
                _ => {
                    bursting[s] = self.resolve_burst.saturating_sub(1);
                    (RequestKind::Resolve, self.resolve_budget)
                }
            };
            trace.push(AllocRequest {
                id,
                stream,
                kind,
                budget,
                policy: self.policy,
            });
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplace_model::ProblemInstance;

    /// Replays the deltas of a trace, checking each materialised instance
    /// validates; returns per-stream final instances.
    fn materialise(trace: &[AllocRequest]) -> Vec<ProblemInstance> {
        let mut streams: std::collections::BTreeMap<u64, ProblemInstance> = Default::default();
        for req in trace {
            match &req.kind {
                RequestKind::New(inst) => {
                    streams.insert(req.stream, inst.clone());
                }
                RequestKind::Delta(delta) => {
                    let cur = streams.get(&req.stream).expect("delta before New");
                    let next = cur.apply_delta(delta).expect("generated delta is valid");
                    streams.insert(req.stream, next);
                }
                RequestKind::Resolve => {
                    assert!(streams.contains_key(&req.stream), "resolve before New");
                }
            }
        }
        streams.into_values().collect()
    }

    #[test]
    fn traces_are_deterministic_and_seed_sensitive() {
        let cfg = TraceConfig::default();
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.stream, y.stream);
            assert_eq!(
                std::mem::discriminant(&x.kind),
                std::mem::discriminant(&y.kind)
            );
        }
        let c = cfg.generate(8);
        let differs = a
            .iter()
            .zip(&c)
            .any(|(x, y)| std::mem::discriminant(&x.kind) != std::mem::discriminant(&y.kind));
        assert!(differs, "seeds 7 and 8 generated identical traces");
    }

    #[test]
    fn every_delta_applies_cleanly() {
        let cfg = TraceConfig {
            requests: 120,
            ..TraceConfig::default()
        };
        let trace = cfg.generate(3);
        assert_eq!(trace.len(), 120);
        let finals = materialise(&trace);
        assert_eq!(finals.len(), cfg.streams);
        for inst in finals {
            assert!(inst.num_services() >= 1);
            // The chain never touches the platform.
            assert_eq!(inst.num_nodes(), cfg.scenario.hosts);
        }
    }

    #[test]
    fn ids_are_unique_and_streams_open_with_new() {
        let trace = TraceConfig::default().generate(0);
        let mut seen = std::collections::HashSet::new();
        let mut opened = std::collections::HashSet::new();
        for req in &trace {
            assert!(seen.insert(req.id), "duplicate id {}", req.id);
            if !opened.contains(&req.stream) {
                assert!(
                    matches!(req.kind, RequestKind::New(_)),
                    "stream {} did not open with New",
                    req.stream
                );
                opened.insert(req.stream);
            }
        }
    }

    #[test]
    fn resolve_bursts_emit_identical_consecutive_resolves() {
        let base = TraceConfig {
            requests: 80,
            ..TraceConfig::default()
        };
        let burst = TraceConfig {
            resolve_burst: 3,
            ..base.clone()
        };
        let a = base.generate(4);
        let b = burst.generate(4);
        // Bursts only insert extra per-stream resolves; both traces stay
        // valid end to end.
        materialise(&a);
        materialise(&b);
        let count = |t: &[AllocRequest]| {
            t.iter()
                .filter(|r| matches!(r.kind, RequestKind::Resolve))
                .count()
        };
        assert!(
            count(&b) > count(&a),
            "bursting added no resolves: {} vs {}",
            count(&b),
            count(&a)
        );
        // Per stream, every burst is a run of ≥... consecutive (in stream
        // order) identical Resolve requests.
        for stream in 0..burst.streams as u64 {
            let kinds: Vec<bool> = b
                .iter()
                .filter(|r| r.stream == stream)
                .map(|r| matches!(r.kind, RequestKind::Resolve))
                .collect();
            let mut runs = Vec::new();
            let mut run = 0usize;
            for is_resolve in kinds {
                if is_resolve {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                runs.push(run);
            }
            // Every completed burst reaches the configured length (the
            // trace may truncate the final one).
            for (i, r) in runs.iter().enumerate() {
                assert!(
                    *r % 3 == 0 || i + 1 == runs.len(),
                    "stream {stream}: run of {r} resolves, runs {runs:?}"
                );
            }
        }
    }

    #[test]
    fn burst_of_one_reproduces_the_plain_trace() {
        let cfg = TraceConfig {
            requests: 60,
            ..TraceConfig::default()
        };
        let a = cfg.generate(9);
        let b = TraceConfig {
            resolve_burst: 1,
            ..cfg
        }
        .generate(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                std::mem::discriminant(&x.kind),
                std::mem::discriminant(&y.kind)
            );
        }
    }

    #[test]
    fn spike_window_forces_upward_demand_changes() {
        let cfg = TraceConfig {
            requests: 90,
            adversarial: Adversarial::Spike,
            ..TraceConfig::default()
        };
        let trace = cfg.generate(5);
        materialise(&trace); // still a valid delta chain
        let window = cfg.requests / 3..(2 * cfg.requests) / 3;
        let mut spikes = 0;
        for req in trace.iter().filter(|r| window.contains(&(r.id as usize))) {
            match &req.kind {
                RequestKind::Delta(d) if !d.scale_need.is_empty() => {
                    assert!(
                        d.scale_need.iter().all(|(_, f)| *f > 1.0),
                        "spike window scaled demand down: {:?}",
                        d.scale_need
                    );
                    spikes += 1;
                }
                RequestKind::New(_) => {} // a late-opening stream
                other => panic!("non-spike follow-up in the window: {other:?}"),
            }
        }
        assert!(spikes > 20, "only {spikes} spikes in the window");
    }

    #[test]
    fn flash_crowd_concentrates_on_the_hot_stream() {
        let cfg = TraceConfig {
            requests: 100,
            adversarial: Adversarial::FlashCrowd,
            ..TraceConfig::default()
        };
        let trace = cfg.generate(6);
        materialise(&trace);
        // Every stream still opens (with New first)…
        let opened: std::collections::HashSet<u64> = trace
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::New(_)))
            .map(|r| r.stream)
            .collect();
        assert_eq!(opened.len(), cfg.streams);
        // …but the bulk of the follow-ups floods stream 0.
        let after_open = &trace[cfg.streams..];
        let hot = after_open.iter().filter(|r| r.stream == 0).count();
        assert!(
            hot * 10 >= after_open.len() * 7,
            "hot stream got {hot} of {} follow-ups",
            after_open.len()
        );
        // The cold streams keep seeing traffic.
        assert!(after_open.iter().any(|r| r.stream != 0));
    }

    #[test]
    fn churn_storm_alternates_arrivals_and_departures() {
        let cfg = TraceConfig {
            requests: 120,
            adversarial: Adversarial::ChurnStorm,
            ..TraceConfig::default()
        };
        let trace = cfg.generate(2);
        materialise(&trace);
        let adds = trace
            .iter()
            .filter(|r| matches!(&r.kind, RequestKind::Delta(d) if !d.add.is_empty()))
            .count();
        let removes = trace
            .iter()
            .filter(|r| matches!(&r.kind, RequestKind::Delta(d) if !d.remove.is_empty()))
            .count();
        assert!(adds > 20, "churn storm produced only {adds} arrivals");
        assert!(
            removes > 20,
            "churn storm produced only {removes} departures"
        );
    }

    #[test]
    fn adversarial_none_reproduces_the_plain_trace() {
        let cfg = TraceConfig {
            requests: 60,
            ..TraceConfig::default()
        };
        let a = cfg.generate(9);
        let b = TraceConfig {
            adversarial: Adversarial::None,
            ..cfg
        }
        .generate(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stream, y.stream);
            assert_eq!(
                std::mem::discriminant(&x.kind),
                std::mem::discriminant(&y.kind)
            );
        }
    }

    #[test]
    fn resolve_requests_carry_the_configured_budget() {
        let cfg = TraceConfig {
            requests: 200,
            mix: (0.0, 0.0, 0.0, 1.0),
            resolve_budget: Some(Duration::from_millis(5)),
            ..TraceConfig::default()
        };
        let trace = cfg.generate(1);
        let resolves: Vec<_> = trace
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Resolve))
            .collect();
        assert!(!resolves.is_empty());
        assert!(resolves
            .iter()
            .all(|r| r.budget == Some(Duration::from_millis(5))));
    }
}
