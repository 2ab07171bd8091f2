//! Every metric the benchmark reports, with its unit, its direction and —
//! for per-layer metrics — the layer it measures and the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names (a
//! test keeps the two in step); this table is where the layer-to-metric
//! mapping lives, and the traced run prints it.

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Layer (workspace module) the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const E2E: &str = "end-to-end";

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", E2E, ""),
    m("jobs_per_s", "1/s", "higher", E2E, ""),
    m("job_ms_p50", "ms", "lower", E2E, ""),
    m("job_ms_tail", "ms", "lower", E2E, ""),
    m("peak_rss_mb", "MB", "lower", E2E, ""),
];

const CIRCUIT_MOVES: &str =
    "job_ms_tail on table1_dc; cold_ms_p50 and warm_ms_p50 on serve_study; nothing on paper_transient";
const SERVE_MOVES: &str = "hit_ms_p50 and fetch_ms_p50 on serve_study only";
const SIM_MOVES: &str = "jobs_per_s on table1_dc; warm_ms_p50 on serve_study";
const ENGINE_MOVES: &str = "jobs_per_s on paper_transient";
const NUMERIC_MOVES: &str =
    "jobs_per_s on table1_dc (large share) and paper_transient (per-call overhead)";
const DEVICES_MOVES: &str = "jobs_per_s on table1_dc and paper_transient";
const SDE_MOVES: &str = "jobs_per_s on paper_transient (EM jobs)";
const RESCUE_MOVES: &str = "should stay 0 everywhere; a non-zero value is wasted work";
const CLASS_MOVES: &str =
    "serve_study request-class latency: an end-to-end number of that workload only";

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("circuit.parse_ms", "ms", "lower", "circuit", CIRCUIT_MOVES),
    m("circuit.lint_ms", "ms", "lower", "circuit", CIRCUIT_MOVES),
    m(
        "circuit.lint_ratio_60_20",
        "x",
        "lower",
        "circuit",
        CIRCUIT_MOVES,
    ),
    m(
        "circuit.elements",
        "count",
        "lower",
        "circuit",
        CIRCUIT_MOVES,
    ),
    m("serve.json_parse_ms", "ms", "lower", "serve", SERVE_MOVES),
    m("serve.json_render_ms", "ms", "lower", "serve", SERVE_MOVES),
    m("serve.key_ms", "ms", "lower", "serve", SERVE_MOVES),
    m("serve.self_ms", "ms", "lower", "serve", SERVE_MOVES),
    m("serve.result_hits", "count", "higher", "serve", SERVE_MOVES),
    m(
        "serve.result_misses",
        "count",
        "lower",
        "serve",
        SERVE_MOVES,
    ),
    m("serve.hit_ratio", "ratio", "higher", "serve", SERVE_MOVES),
    m("serve.session_cold", "count", "lower", "serve", SERVE_MOVES),
    m(
        "serve.session_warm",
        "count",
        "higher",
        "serve",
        SERVE_MOVES,
    ),
    m(
        "serve.session_same_deck",
        "count",
        "higher",
        "serve",
        SERVE_MOVES,
    ),
    m(
        "serve.store_evictions",
        "count",
        "lower",
        "serve",
        SERVE_MOVES,
    ),
    m("serve.errors", "count", "lower", "serve", SERVE_MOVES),
    m("serve.shed", "count", "lower", "serve", SERVE_MOVES),
    m("sim.new_ms", "ms", "lower", "sim", SIM_MOVES),
    m("sim.rebind_ms", "ms", "lower", "sim", SIM_MOVES),
    m("sim.run_ms", "ms", "lower", "sim", SIM_MOVES),
    m("sim.shard_speedup", "x", "higher", "sim", SIM_MOVES),
    m("swec.steps", "count", "lower", "swec", ENGINE_MOVES),
    m(
        "swec.rejected_steps",
        "count",
        "lower",
        "swec",
        ENGINE_MOVES,
    ),
    m("swec.reject_ratio", "ratio", "lower", "swec", ENGINE_MOVES),
    m("swec.iterations", "count", "lower", "swec", ENGINE_MOVES),
    m("em.path_steps", "count", "lower", "em", ENGINE_MOVES),
    m("em.run_ms", "ms", "lower", "em", ENGINE_MOVES),
    m(
        "numeric.full_factors",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.refactors",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.linear_solves",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.factor_flops",
        "flop",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.refactor_flops",
        "flop",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.solve_flops",
        "flop",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m("numeric.nnz_lu", "count", "lower", "numeric", NUMERIC_MOVES),
    m(
        "numeric.fill_ratio",
        "ratio",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.supernodes",
        "count",
        "higher",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.refinement_steps",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.f32_panel_solves",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.batched_factors",
        "count",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.min_recip_pivot",
        "ratio",
        "higher",
        "numeric",
        NUMERIC_MOVES,
    ),
    m(
        "numeric.refactor_us",
        "us",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m("numeric.solve_us", "us", "lower", "numeric", NUMERIC_MOVES),
    m(
        "numeric.busy_share",
        "ratio",
        "lower",
        "numeric",
        NUMERIC_MOVES,
    ),
    m("devices.evals", "count", "lower", "devices", DEVICES_MOVES),
    m("devices.eval_ns", "ns", "lower", "devices", DEVICES_MOVES),
    m(
        "devices.busy_share",
        "ratio",
        "lower",
        "devices",
        DEVICES_MOVES,
    ),
    m("sde.wiener_ms", "ms", "lower", "sde", SDE_MOVES),
    m("rescue.rescues", "count", "lower", "rescue", RESCUE_MOVES),
    m("rescue.rungs", "count", "lower", "rescue", RESCUE_MOVES),
    m("cold_ms_p50", "ms", "lower", "serve_study", CLASS_MOVES),
    m("warm_ms_p50", "ms", "lower", "serve_study", CLASS_MOVES),
    m("hit_ms_p50", "ms", "lower", "serve_study", CLASS_MOVES),
    m("fetch_ms_p50", "ms", "lower", "serve_study", CLASS_MOVES),
    m(
        "fail_ratio",
        "ratio",
        "lower",
        "benchmark",
        "failed plus wrong-answer jobs over jobs attempted; must be 0",
    ),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "benchmark",
        "job_ms_p50 of the traced pass over the untraced pass of the same jobs, minus 1",
    ),
];

/// Counters that must repeat exactly for a seed: compare mode fails when
/// any of them drifts. Everything else in a result file is wall clock.
pub const COUNTERS: &[&str] = &[
    "circuit.elements",
    "serve.result_hits",
    "serve.result_misses",
    "serve.session_cold",
    "serve.session_warm",
    "serve.session_same_deck",
    "serve.store_evictions",
    "serve.errors",
    "serve.shed",
    "swec.steps",
    "swec.rejected_steps",
    "swec.iterations",
    "em.path_steps",
    "numeric.full_factors",
    "numeric.refactors",
    "numeric.linear_solves",
    "numeric.factor_flops",
    "numeric.refactor_flops",
    "numeric.solve_flops",
    "numeric.nnz_lu",
    "numeric.fill_ratio",
    "numeric.supernodes",
    "numeric.refinement_steps",
    "numeric.f32_panel_solves",
    "numeric.batched_factors",
    "numeric.min_recip_pivot",
    "devices.evals",
    "rescue.rescues",
    "rescue.rungs",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's name rule: a letter or digit first, then at most 63
    /// more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(!valid_name("job ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn names_are_unique_and_counters_are_per_layer_metrics() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for c in COUNTERS {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *c),
                "counter {c} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let field = |key: &str, f: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get(f)
                        .and_then(|n| n.as_str())
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want = |f: fn(&Metric) -> &'static str| list.iter().map(f).collect::<Vec<_>>();
            assert_eq!(field(key, "name"), want(|m| m.name), "{key} names");
            assert_eq!(field(key, "unit"), want(|m| m.unit), "{key} units");
            assert_eq!(field(key, "better"), want(|m| m.better), "{key} directions");
        }
        assert_eq!(field("workloads", "name"), crate::WORKLOADS);
    }
}
