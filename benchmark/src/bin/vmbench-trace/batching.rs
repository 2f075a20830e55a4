//! Traced pass of the batch workloads: every op once through its entry
//! point (the span the gate times), then once more through the public
//! functions that entry point is made of.

use crate::Traced;
use std::collections::BTreeMap;
use vmbench::batch::{run_op, Answer};
use vmbench::oracle::{Claim, Verdict};
use vmbench::span::Tracer;
use vmbench::workload::{BatchKind, BatchWorkload};
use vmplace_lp::{FactorStats, MilpOptions, SimplexOptions, YieldLp};
use vmplace_model::evaluate_placement;

/// Span name of an op's entry point and the per-layer metric its median
/// duration feeds (`None`: reported through its inner spans instead).
fn entry(kind: BatchKind, class: &str) -> (&'static str, Option<&'static str>) {
    let by_class = |names: [&'static str; 3]| match class {
        "j100" => names[0],
        "j250" => names[1],
        _ => names[2],
    };
    match kind {
        BatchKind::ExactMilp => ("core.exact.solve", None),
        BatchKind::Relaxation => ("lp.relaxation", None),
        BatchKind::MetaHvpLight => (
            "core.vp.metahvplight",
            Some(by_class([
                "core.vp.metahvplight_us.j100",
                "core.vp.metahvplight_us.j250",
                "core.vp.metahvplight_us.j500",
            ])),
        ),
        BatchKind::MetaHvp => (
            "core.vp.metahvp",
            Some(by_class([
                "core.vp.metahvp_us.j100",
                "core.vp.metahvp_us.j250",
                "core.vp.metahvp_us.j500",
            ])),
        ),
        BatchKind::MetaGreedy => (
            "core.greedy.metagreedy",
            Some(by_class([
                "core.greedy.metagreedy_us.j100",
                "core.greedy.metagreedy_us.j250",
                "core.greedy.metagreedy_us.j500",
            ])),
        ),
    }
}

pub fn trace(w: &BatchWorkload, t: &mut Tracer) -> Traced {
    let mut out = Traced::default();
    let mut by_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut factor = FactorStats::default();
    let (mut milps, mut nodes, mut node_iters) = (0u64, 0u64, 0u64);
    let (mut relaxations, mut relax_iters) = (0u64, 0u64);

    for (k, op) in w.ops.iter().enumerate() {
        let op_id = k as u64;
        let (span, metric) = entry(op.kind, op.class);
        out.attempted += 1;
        let answer = t.time(span, op.class, op_id, None, || run_op(op));
        if let Some(metric) = metric {
            by_metric
                .entry(metric)
                .or_default()
                .push(t.spans().last().expect("just recorded").micros());
        }
        // The oracle, as in the gate.
        out.failed += u64::from(answer.check(op) == Verdict::Failed);

        // The same op again, one public function at a time.
        let inner = matches!(op.kind, BatchKind::ExactMilp | BatchKind::Relaxation);
        if !inner {
            continue;
        }
        let Some(ylp) = t.time("lp.yield_lp.build", op.class, op_id, Some(span), || {
            YieldLp::build(&op.instance)
        }) else {
            continue;
        };
        if op.kind == BatchKind::Relaxation {
            let relaxed = t.time("lp.simplex.relax", op.class, op_id, Some(span), || {
                ylp.solve_relaxed(&SimplexOptions::default())
            });
            if let Some(r) = relaxed {
                relaxations += 1;
                relax_iters += r.iterations as u64;
            }
            continue;
        }
        let result = t.time("lp.milp.solve", op.class, op_id, Some(span), || {
            ylp.solve_exact_result(&MilpOptions::default())
        });
        milps += 1;
        nodes += result.nodes as u64;
        node_iters += result.simplex_iterations as u64;
        let f = &result.factor;
        factor.refactorisations += f.refactorisations;
        factor.cols_factored += f.cols_factored;
        factor.cols_reused += f.cols_reused;
        factor.eta_folds += f.eta_folds;
        factor.btran_solves += f.btran_solves;
        factor.btran_sparse += f.btran_sparse;
        let decoded = ylp.decode_milp(result);
        let solution = t.time("model.evaluate", op.class, op_id, Some(span), || {
            decoded
                .as_ref()
                .and_then(|(placement, _)| evaluate_placement(&op.instance, placement))
        });
        // The inner replay must land on the entry point's answer.
        let replayed = solution.as_ref().map(Claim::of);
        if !matches!(&answer, Answer::Placement(a) if *a == replayed) {
            out.failed += 1;
        }
    }

    for (name, samples) in &by_metric {
        out.median_of(name, samples);
    }
    out.median_of(
        "lp.yield_lp.build_us",
        &t.durations("lp.yield_lp.build", ""),
    );
    out.median_of(
        "lp.simplex.relax_us.16h32s",
        &t.durations("lp.simplex.relax", "16h32s"),
    );
    out.median_of(
        "lp.simplex.relax_us.32h50s",
        &t.durations("lp.simplex.relax", "32h50s"),
    );
    let ms = |class| -> Vec<f64> {
        t.durations("lp.milp.solve", class)
            .iter()
            .map(|us| us / 1e3)
            .collect()
    };
    out.median_of("lp.milp.solve_ms.3h8s", &ms("3h8s"));
    out.median_of("lp.milp.solve_ms.4h10s", &ms("4h10s"));
    out.median_of("lp.milp.solve_ms.4h12s", &ms("4h12s"));
    out.median_of("model.evaluate_us", &t.durations("model.evaluate", ""));
    let mut ratio = |name: &'static str, num: u64, den: u64| {
        if den > 0 {
            let value = num as f64 / den as f64;
            t.count(name, value);
            out.metrics.insert(name, value);
        }
    };
    ratio("lp.simplex.iters_per_relax", relax_iters, relaxations);
    ratio("lp.milp.nodes_per_solve", nodes, milps);
    ratio("lp.milp.simplex_iters_per_node", node_iters, nodes);
    ratio(
        "lp.lu.refactorisations_per_solve",
        factor.refactorisations,
        milps,
    );
    ratio(
        "lp.lu.warm_reuse_ratio",
        factor.cols_reused,
        factor.cols_factored + factor.cols_reused,
    );
    ratio("lp.lu.eta_folds_per_solve", factor.eta_folds, milps);
    ratio(
        "lp.simplex.btran_sparse_share",
        factor.btran_sparse,
        factor.btran_solves,
    );

    // Entry-point time not explained by the inner calls, relative to the
    // entry points' own median: the batch analogue of the serving check.
    let outer: f64 = ["core.exact.solve", "lp.relaxation"]
        .iter()
        .flat_map(|n| t.durations(n, ""))
        .sum();
    let unexplained: Vec<f64> = ["core.exact.solve", "lp.relaxation"]
        .iter()
        .flat_map(|n| t.self_times(n, &[]))
        .collect();
    if outer > 0.0 {
        out.metrics.insert(
            "trace.layers_over_e2e",
            (outer - unexplained.iter().sum::<f64>()) / outer,
        );
        out.median_of("trace.unattributed_us", &unexplained);
    }
    out
}
