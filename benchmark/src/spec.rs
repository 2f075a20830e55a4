//! Metric names and units, and the reader of `BENCHMARK.json`.

use vmplace_obs::json::Json;

/// Default `--seed`. The hold-out seed, never used while a change is
/// being written, is [`HOLDOUT_SEED`].
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HOLDOUT_SEED: u64 = 2;
/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;

/// The end-to-end metrics, `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("solved_share", "share"),
    ("min_yield_mean", "yield"),
];

/// The per-layer metrics, `(name, unit)`, in report order. A traced run
/// prints every one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("net.roundtrip_self_us", "us"),
    ("net.ping_rtt_us", "us"),
    ("net.wire_v1.decode_req_us", "us"),
    ("net.wire_v1.encode_resp_us", "us"),
    ("net.codec_v2.decode_req_us", "us"),
    ("net.codec_v2.encode_resp_us", "us"),
    ("net.bytes_per_req", "B"),
    ("net.bytes_per_resp", "B"),
    ("net.io_wakeups_per_op", "count"),
    ("net.responses_dropped", "count"),
    ("net.unattributed_us", "us"),
    ("service.pool.self_us", "us"),
    ("service.pool.queue_wait_p50_us", "us"),
    ("service.pool.queue_wait_p99_us", "us"),
    ("service.pool.shed", "count"),
    ("service.worker.process_us.new", "us"),
    ("service.worker.process_us.delta", "us"),
    ("service.worker.process_us.resolve_miss", "us"),
    ("service.worker.process_us.resolve_hit", "us"),
    ("service.worker.self_us", "us"),
    ("service.worker.unattributed_us", "us"),
    ("service.cache.hit_ratio", "share"),
    ("service.repair.try_us", "us"),
    ("service.repair.bound_us", "us"),
    ("service.repair.accept_ratio", "share"),
    ("service.repair.migrations_mean", "count"),
    ("model.apply_delta_us", "us"),
    ("model.evaluate_us", "us"),
    ("core.engine.solve_us.warm", "us"),
    ("core.engine.solve_us.cold", "us"),
    ("core.engine.probes_per_solve", "count"),
    ("core.engine.us_per_probe", "us"),
    ("core.vp.metahvplight_us.j100", "us"),
    ("core.vp.metahvplight_us.j250", "us"),
    ("core.vp.metahvplight_us.j500", "us"),
    ("core.vp.metahvp_us.j100", "us"),
    ("core.vp.metahvp_us.j250", "us"),
    ("core.vp.metahvp_us.j500", "us"),
    ("core.greedy.metagreedy_us.j100", "us"),
    ("core.greedy.metagreedy_us.j250", "us"),
    ("core.greedy.metagreedy_us.j500", "us"),
    ("lp.yield_lp.build_us", "us"),
    ("lp.simplex.relax_us.16h32s", "us"),
    ("lp.simplex.relax_us.32h50s", "us"),
    ("lp.simplex.iters_per_relax", "count"),
    ("lp.milp.solve_ms.3h8s", "ms"),
    ("lp.milp.solve_ms.4h10s", "ms"),
    ("lp.milp.solve_ms.4h12s", "ms"),
    ("lp.milp.nodes_per_solve", "count"),
    ("lp.milp.simplex_iters_per_node", "count"),
    ("lp.lu.refactorisations_per_solve", "count"),
    ("lp.lu.warm_reuse_ratio", "share"),
    ("lp.lu.eta_folds_per_solve", "count"),
    ("lp.simplex.btran_sparse_share", "share"),
    ("obs.record_overhead_us", "us"),
    ("obs.snapshot_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.layers_over_e2e", "share"),
    ("trace.unattributed_us", "us"),
];

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline median (`None` for
    /// per-layer metrics, which carry none).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("`{key}` is not an array"));
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}` entry lacks `{f}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match field("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            return Err("`workloads` is not an array".into());
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("`run_seconds` missing")?,
            workloads: workloads
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from `path`.
    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Spec {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Spec::load(&path).expect("BENCHMARK.json at the repository root parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// Every name either binary can emit is well formed, is emitted once,
    /// and is declared — with the same unit, in the same order — in the
    /// committed `BENCHMARK.json`; and nothing is declared that is not
    /// emitted.
    #[test]
    fn emitted_names_are_exactly_the_declared_ones() {
        let spec = committed();
        let declared = |metrics: &[MetricSpec]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let emitted = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec.end_to_end), emitted(&END_TO_END));
        assert_eq!(declared(&spec.per_layer), emitted(&PER_LAYER));
        assert_eq!(spec.workloads, crate::workload::NAMES);
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .chain(crate::workload::NAMES)
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "a malformed name");
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
    }

    #[test]
    fn bounds_and_run_length_fit_the_contract() {
        let spec = committed();
        assert_eq!(spec.run_seconds, DEFAULT_SECONDS);
        // The bounds as measured (README, "Bounds"): every timing metric
        // spreads by 10–20% across seeds on some workload, so three times
        // that hits the contract's cap; the exact metrics, which `compare`
        // judges pair by pair, only have to cover their spread across
        // seeds.
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric carries a bound");
            let expected = match m.name.as_str() {
                "ok_share" => 0.001,
                "solved_share" | "min_yield_mean" => 0.05,
                _ => 0.25,
            };
            assert_eq!(bound, expected, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = &spec.end_to_end[0];
        assert_eq!((setup.name.as_str(), setup.unit.as_str()), ("setup_s", "s"));
        assert!(!setup.higher_is_better);
        // Every workload name the spec lists generates.
        for name in &spec.workloads {
            assert!(crate::workload::build(name, DEFAULT_SEED, 1).is_some());
        }
        assert!(crate::workload::build("no_such_workload", DEFAULT_SEED, 1).is_none());
    }
}
