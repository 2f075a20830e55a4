//! RRND and RRNZ: randomized rounding of the rational LP relaxation (§3.3).
//!
//! The relaxed solution's fractional `e_jh` values are used as placement
//! probabilities. For each service (natural order) a node is drawn; if the
//! service's rigid requirements no longer fit there, that node's probability
//! is zeroed, the remainder renormalised and the draw repeated — the run
//! fails once a service has no mass left.
//!
//! RRNZ differs only in seeding every *structurally feasible* zero
//! probability with `ε = 0.01` first, so services whose LP support turns out
//! to be packed full still have somewhere to go.

use crate::algorithm::Algorithm;
use crate::portfolio::{MemberOutcome, MemberReport, PortfolioReport, SolveCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vmplace_lp::{SimplexOptions, YieldLp};
use vmplace_model::{
    evaluate_placement, Placement, ProblemInstance, ResourceVector, Solution, EPSILON,
};

/// Randomized rounding of the LP relaxation (RRND / RRNZ).
#[derive(Clone, Debug)]
pub struct RandomizedRounding {
    /// `None` → RRND; `Some(ε)` → RRNZ with that floor (paper: 0.01).
    pub epsilon: Option<f64>,
    /// RNG seed — runs are deterministic given a seed.
    pub seed: u64,
    /// Number of full rounding passes attempted before declaring failure
    /// (the paper uses a single pass; more only helps RRND's success rate).
    pub attempts: usize,
    /// Simplex options for the relaxation solve.
    pub simplex: SimplexOptions,
}

impl RandomizedRounding {
    /// The paper's RRND.
    pub fn rrnd(seed: u64) -> Self {
        RandomizedRounding {
            epsilon: None,
            seed,
            attempts: 1,
            simplex: SimplexOptions::default(),
        }
    }

    /// The paper's RRNZ (ε = 0.01).
    pub fn rrnz(seed: u64) -> Self {
        RandomizedRounding {
            epsilon: Some(0.01),
            seed,
            attempts: 1,
            simplex: SimplexOptions::default(),
        }
    }

    /// One rounding pass over all services; `probs` is consumed.
    fn round_once(
        &self,
        instance: &ProblemInstance,
        mut probs: Vec<Vec<f64>>,
        rng: &mut StdRng,
    ) -> Option<Placement> {
        let dims = instance.dims();
        let h_count = instance.num_nodes();
        let mut req_load = vec![ResourceVector::zeros(dims); h_count];
        let mut placement = Placement::empty(instance.num_services());

        'services: for j in 0..instance.num_services() {
            let p = &mut probs[j];
            loop {
                let total: f64 = p.iter().sum();
                if total <= 1e-12 {
                    return None; // no probability mass left for service j
                }
                let mut draw = rng.gen::<f64>() * total;
                let mut h = h_count - 1;
                for (i, &pi) in p.iter().enumerate() {
                    if draw < pi {
                        h = i;
                        break;
                    }
                    draw -= pi;
                }
                if fits(instance, &req_load, j, h) {
                    req_load[h].add_assign(&instance.services()[j].req_agg);
                    placement.assign(j, h);
                    continue 'services;
                }
                p[h] = 0.0; // adjust probabilities and redraw
            }
        }
        Some(placement)
    }
}

fn fits(instance: &ProblemInstance, req_load: &[ResourceVector], j: usize, h: usize) -> bool {
    let s = &instance.services()[j];
    let n = &instance.nodes()[h];
    if !s.req_elem.le(&n.elementary, EPSILON) {
        return false;
    }
    for d in 0..instance.dims() {
        if req_load[h][d] + s.req_agg[d] > n.aggregate[d] + EPSILON {
            return false;
        }
    }
    true
}

impl Algorithm for RandomizedRounding {
    fn name(&self) -> &str {
        if self.epsilon.is_some() {
            "RRNZ"
        } else {
            "RRND"
        }
    }

    /// Solves the LP relaxation once, then races the rounding trials on
    /// the portfolio engine. Trial `t` draws from its own deterministic
    /// RNG stream (trial 0 uses `seed` exactly, matching the historical
    /// single-pass behaviour); the first successful trial by index wins,
    /// so results are independent of scheduling.
    fn solve_with(&self, instance: &ProblemInstance, ctx: &mut SolveCtx) -> Option<Solution> {
        let started = Instant::now();
        let threads = ctx.effective_threads();
        let deadline = ctx.deadline_from_now();
        let ylp = YieldLp::build(instance)?;
        let relaxed = ylp.solve_relaxed(&self.simplex)?;

        // Placement probabilities; RRNZ floors feasible-but-zero entries.
        let mut probs = relaxed.e;
        if let Some(eps) = self.epsilon {
            for (j, row) in probs.iter_mut().enumerate() {
                for (h, p) in row.iter_mut().enumerate() {
                    if *p < eps && instance.service_fits_empty_node(j, h) {
                        *p = p.max(eps);
                    }
                }
            }
        }

        let attempts = self.attempts.max(1);
        // Lowest successful trial index so far: later trials skip once a
        // lower-index trial has won (result-invariant early exit).
        let best_success = AtomicUsize::new(usize::MAX);

        struct Outcome {
            placement: Option<Placement>,
            outcome: MemberOutcome,
            wall: std::time::Duration,
        }

        let outcomes: Vec<Outcome> = vmplace_par::portfolio_run(
            attempts,
            threads,
            || (),
            |trial, _| {
                let t0 = Instant::now();
                if best_success.load(Ordering::Acquire) < trial {
                    return Outcome {
                        placement: None,
                        outcome: MemberOutcome::Skipped,
                        wall: t0.elapsed(),
                    };
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Outcome {
                        placement: None,
                        outcome: MemberOutcome::TimedOut,
                        wall: t0.elapsed(),
                    };
                }
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        .wrapping_add((trial as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                );
                let placement = self.round_once(instance, probs.clone(), &mut rng);
                if placement.is_some() {
                    best_success.fetch_min(trial, Ordering::AcqRel);
                }
                Outcome {
                    outcome: if placement.is_some() {
                        MemberOutcome::Solved
                    } else {
                        MemberOutcome::Failed
                    },
                    placement,
                    wall: t0.elapsed(),
                }
            },
        );

        let winner = outcomes.iter().position(|o| o.placement.is_some());
        let labels: Vec<String> = (0..attempts).map(|t| format!("TRIAL{t}")).collect();
        let members: Vec<MemberReport> = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let probes = u32::from(matches!(
                    o.outcome,
                    MemberOutcome::Solved | MemberOutcome::Failed
                ));
                MemberReport {
                    member: i,
                    outcome: o.outcome,
                    searched_yield: None,
                    probes,
                    packs: probes,
                    wall: o.wall,
                }
            })
            .collect();
        ctx.set_report(PortfolioReport {
            algorithm: self.name().to_string(),
            labels: Arc::new(labels),
            threads,
            wall: started.elapsed(),
            winner,
            members,
            lambda_hat: None,
            ceiling: None,
        });

        let index = winner?;
        let placement = outcomes
            .into_iter()
            .nth(index)
            .and_then(|o| o.placement)
            .expect("winner carries a placement");
        evaluate_placement(instance, &placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplace_model::{Node, Service};

    fn figure1() -> ProblemInstance {
        let nodes = vec![Node::multicore(4, 0.8, 1.0), Node::multicore(2, 1.0, 0.5)];
        let services = vec![Service::new(
            vec![0.5, 0.5],
            vec![1.0, 0.5],
            vec![0.5, 0.0],
            vec![1.0, 0.0],
        )];
        ProblemInstance::new(nodes, services).unwrap()
    }

    #[test]
    fn single_service_lands_on_a_feasible_node() {
        // Several optimal LP vertices exist (mass may split between nodes);
        // whatever the rounding draws, the achieved yield must match the
        // node: 0.6 on node A, 1.0 on node B (Figure 1 of the paper).
        let sol = RandomizedRounding::rrnz(42).solve(&figure1()).unwrap();
        match sol.placement.node_of(0) {
            Some(0) => assert!((sol.min_yield - 0.6).abs() < 1e-6),
            Some(1) => assert!((sol.min_yield - 1.0).abs() < 1e-6),
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = multi_instance();
        let a = RandomizedRounding::rrnz(7).solve(&inst);
        let b = RandomizedRounding::rrnz(7).solve(&inst);
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.placement, y.placement);
            }
            (None, None) => {}
            _ => panic!("nondeterministic outcome"),
        }
    }

    fn multi_instance() -> ProblemInstance {
        let nodes = vec![
            Node::multicore(2, 0.5, 0.6),
            Node::multicore(2, 0.5, 0.6),
            Node::multicore(2, 0.4, 0.5),
        ];
        let mk = |rc: f64, nc: f64, mem: f64| {
            Service::new(
                vec![rc / 2.0, mem],
                vec![rc, mem],
                vec![nc / 2.0, 0.0],
                vec![nc, 0.0],
            )
        };
        let services = vec![
            mk(0.1, 0.4, 0.25),
            mk(0.2, 0.3, 0.3),
            mk(0.1, 0.5, 0.2),
            mk(0.15, 0.2, 0.35),
        ];
        ProblemInstance::new(nodes, services).unwrap()
    }

    #[test]
    fn rrnz_succeeds_on_feasible_multiservice_instance() {
        let inst = multi_instance();
        let sol = RandomizedRounding::rrnz(3).solve(&inst);
        assert!(sol.is_some());
        let sol = sol.unwrap();
        assert!(sol.placement.feasible_at_yield(&inst, 0.0));
        assert!(sol.min_yield >= 0.0 && sol.min_yield <= 1.0);
    }

    #[test]
    fn fails_cleanly_on_impossible_instance() {
        let nodes = vec![Node::multicore(1, 0.5, 0.2)];
        let services = vec![Service::rigid(vec![0.1, 0.5], vec![0.1, 0.5])];
        let inst = ProblemInstance::new(nodes, services).unwrap();
        assert!(RandomizedRounding::rrnd(1).solve(&inst).is_none());
        assert!(RandomizedRounding::rrnz(1).solve(&inst).is_none());
    }

    #[test]
    fn rrnz_can_escape_zero_support() {
        // Construct an instance where the LP concentrates each service's
        // support, then verify RRNZ still succeeds across several seeds
        // (RRND may fail; RRNZ's ε-floor provides fallback nodes).
        let inst = multi_instance();
        let mut successes = 0;
        for seed in 0..10 {
            if RandomizedRounding::rrnz(seed).solve(&inst).is_some() {
                successes += 1;
            }
        }
        assert!(successes >= 8, "RRNZ succeeded only {successes}/10 times");
    }
}
