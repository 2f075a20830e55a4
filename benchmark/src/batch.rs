//! The batch driver: cold library calls on one thread, every op of the
//! list once. No `net` or `service` code runs here.

use crate::measure::process_cpu;
use crate::oracle::{Claim, Digest, Verdict};
use crate::workload::{BatchKind, BatchOp, BatchWorkload};
use crate::Measured;
use std::time::Instant;
use vmplace_core::{Algorithm, ExactMilp, MetaGreedy, MetaVp};
use vmplace_lp::{SimplexOptions, YieldLp};

/// What one batch op returned.
pub enum Answer {
    /// A placement algorithm's result (`None`: it found no placement).
    Placement(Option<Claim>),
    /// A relaxation's optimal objective and placement-row sums (`None`:
    /// the LP could not be built or solved).
    Relaxed(Option<(f64, Vec<f64>)>),
}

/// Runs one op cold: every call builds its own roster, context and
/// simplex, the way Table 2 of the paper times the algorithms.
pub fn run_op(op: &BatchOp) -> Answer {
    let instance = &op.instance;
    let solution = match op.kind {
        BatchKind::ExactMilp => ExactMilp::default().solve(instance),
        BatchKind::MetaHvpLight => MetaVp::metahvp_light().solve(instance),
        BatchKind::MetaHvp => MetaVp::metahvp().solve(instance),
        BatchKind::MetaGreedy => MetaGreedy.solve(instance),
        BatchKind::Relaxation => {
            return Answer::Relaxed(
                YieldLp::build(instance)
                    .and_then(|lp| lp.solve_relaxed(&SimplexOptions::default()))
                    .map(|r| {
                        (
                            r.objective,
                            r.e.iter().map(|row| row.iter().sum()).collect(),
                        )
                    }),
            )
        }
    };
    Answer::Placement(solution.as_ref().map(Claim::of))
}

impl Answer {
    /// The oracle's verdict on this answer to `op`. A relaxation is
    /// correct when every service is fractionally placed exactly once and
    /// the objective is a yield; it carries no placement.
    pub fn check(&self, op: &BatchOp) -> Verdict {
        match self {
            Answer::Placement(Some(claim)) => claim.check(&op.instance),
            Answer::Placement(None) => Verdict::NoPlacement,
            Answer::Relaxed(Some((objective, rows)))
                if (-1e-9..=1.0 + 1e-9).contains(objective)
                    && rows.iter().all(|s| (s - 1.0).abs() <= 1e-6) =>
            {
                Verdict::NoPlacement
            }
            Answer::Relaxed(_) => Verdict::Failed,
        }
    }
}

/// Runs the workload as one segment (see [`crate::report::timings`] for
/// why one).
pub fn run(workload: &BatchWorkload) -> Measured {
    let ops = &workload.ops;
    let mut answers = Vec::with_capacity(ops.len());
    let cpu0 = process_cpu();
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        let answer = std::hint::black_box(run_op(std::hint::black_box(op)));
        answers.push((t0.elapsed(), answer));
    }
    let mut m = Measured {
        wall: start.elapsed(),
        cpu: process_cpu().saturating_sub(cpu0),
        ..Measured::default()
    };
    // The oracle, outside the timed window.
    let mut digest = Digest::default();
    for (k, ((latency, answer), op)) in answers.iter().zip(ops).enumerate() {
        m.attempted += 1;
        match answer {
            Answer::Placement(claim) => {
                digest.answer(k as u64, u64::from(claim.is_some()), claim.as_ref());
            }
            Answer::Relaxed(relaxed) => {
                let objective = relaxed.as_ref().map_or(f64::NAN, |r| r.0);
                digest.answer(k as u64, objective.to_bits(), None);
            }
        }
        m.note(answer.check(op), *latency);
    }
    m.digest = digest.value();
    m
}
