//! Metric and workload names, the per-round record every workload fills,
//! and the aggregation of rounds into one run's result.
//!
//! The names here are the contract: `BENCHMARK.json` lists exactly these,
//! and a golden test pins the two to each other.

use crate::stats::{median, min, percentile};
use std::collections::BTreeMap;

/// Which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit and direction.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected (0 for per-layer metrics,
    /// which are not gated).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

const fn bounded(mut def: MetricDef, bound: f64) -> MetricDef {
    def.bound = bound;
    def
}

/// The four workloads (names are final; later issues cite them).
pub const WORKLOADS: [&str; 4] = [
    "ingest.table",
    "ingest.sessions",
    "mixed.paced",
    "serve.read",
];

/// What a user of the platform sees. Every workload reports every one.
/// An *operation* is one domain update stored and archived on the three
/// ingesting workloads and one answered request on `serve.read`; the
/// latency is probe → stored on the two `ingest.*` workloads, probe due →
/// frame read from the `/stream/updates` socket on `mixed.paced`, and
/// request → full body on `serve.read`.
pub const END_TO_END: [MetricDef; 5] = [
    bounded(lower("setup_s", "s"), 0.25),
    bounded(higher("throughput_per_s", "1/s"), 0.15),
    bounded(lower("cpu_us_per_op", "us"), 0.2),
    bounded(lower("latency_p50_ms", "ms"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.2),
];

/// Single-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reports 0 — that is the "predicted flat" evidence.
pub const PER_LAYER: [MetricDef; 63] = [
    // bgp-wire
    lower("wire_frame_decode_ns_per_msg", "ns"),
    lower("wire_to_domain_ns_per_update", "ns"),
    higher("wire_msgs", "count"),
    higher("wire_nlri_per_msg", "count"),
    higher("wire_bytes", "B"),
    // gill-bmp
    lower("bmp_demux_ns_per_update", "ns"),
    higher("bmp_frames", "count"),
    higher("bmp_peers", "count"),
    lower("bmp_unknown_peer", "count"),
    // gill-runtime
    lower("runtime_ready_events", "count"),
    lower("runtime_wakes", "count"),
    lower("runtime_timer_fires", "count"),
    higher("runtime_updates_per_ready_event", "count"),
    lower("runtime_unattributed_ns_per_update", "ns"),
    // gill-collector
    lower("collector_validate_ns_per_update", "ns"),
    lower("collector_forward_ns_per_update", "ns"),
    lower("collector_offer_glue_ns_per_update", "ns"),
    lower("collector_queue_hop_ns_per_update", "ns"),
    lower("collector_queue_depth_max", "count"),
    lower("collector_queue_depth_mean", "count"),
    lower("collector_stored_lag_p99_ms", "ms"),
    lower("collector_lost", "count"),
    higher("collector_mirror_fed", "count"),
    lower("collector_mirror_dropped", "count"),
    lower("collector_retrain_ms", "ms"),
    higher("collector_epochs_published", "count"),
    // gill-core
    lower("core_judge_ns_per_update", "ns"),
    lower("core_filter_compile_ms", "ms"),
    higher("core_discard_ratio", "ratio"),
    // gill-stream
    lower("stream_publish_ns_per_frame", "ns"),
    lower("stream_frame_encode_ns_per_frame", "ns"),
    higher("stream_published", "count"),
    lower("stream_shed", "count"),
    lower("stream_missed", "count"),
    lower("stream_lag_p50_ms", "ms"),
    lower("stream_lag_p99_ms", "ms"),
    // gill-query store / archive
    lower("store_ingest_ns_per_update", "ns"),
    lower("store_mrt_ns_per_update", "ns"),
    lower("store_tee_clone_ns_per_update", "ns"),
    lower("store_seal_ms", "ms"),
    lower("store_restore_s", "s"),
    lower("store_archive_bytes_per_update", "B"),
    higher("store_dedup_ratio", "ratio"),
    lower("store_arena_entries", "count"),
    // gill-query HTTP
    lower("http_handler_us_routes", "us"),
    lower("http_handler_us_rib", "us"),
    lower("http_handler_us_updates", "us"),
    lower("http_handler_us_origin", "us"),
    lower("http_query_engine_us", "us"),
    lower("http_json_encode_ns_per_kb", "ns"),
    lower("http_overhead_us", "us"),
    lower("http_refused", "count"),
    lower("http_query_p50_ms", "ms"),
    lower("http_query_p99_ms", "ms"),
    // the workload's end-to-end latency tail: reported, not gated (see
    // the README on why no p99 passes the repeat check at this run length)
    lower("latency_p99_ms", "ms"),
    // the benchmark itself
    higher("bench_generator_headroom", "ratio"),
    lower("bench_generator_late_p99_ms", "ms"),
    lower("bench_rss_growth_mb", "MB"),
    lower("bench_trace_overhead_pct", "%"),
    lower("bench_replay_stage_sum_ns_per_op", "ns"),
    lower("bench_live_cpu_ns_per_op", "ns"),
    higher("bench_timed_s", "s"),
    higher("bench_rounds", "count"),
];

/// What one timed round measured.
#[derive(Default)]
pub struct Round {
    /// Generation, encoding, training, boot, handshakes — everything
    /// before the release.
    pub setup_s: f64,
    /// Length of the timed region.
    pub timed_s: f64,
    /// Operations completed inside the timed region.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU seconds of the system under test inside the timed region.
    pub sut_cpu_s: f64,
    /// The workload's end-to-end latency samples.
    pub latencies_ms: Vec<f64>,
    /// Highest resident set size sampled while the round ran.
    pub rss_peak_mb: f64,
    /// Live per-layer values (counters, sampled gauges).
    pub layer: BTreeMap<&'static str, f64>,
    /// Correctness checks that failed, in words.
    pub errors: Vec<String>,
}

/// One run's result: what the last stdout line carries.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `name -> (value, unit)`.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub errors: Vec<String>,
}

/// Median over rounds of each round's own percentile `p` (rounds without
/// samples are skipped).
pub fn median_of_round_percentiles(rounds: &[Round], p: f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.latencies_ms.is_empty())
        .map(|r| percentile(&r.latencies_ms, p))
        .collect();
    median(&per_round)
}

/// Folds rounds into the end-to-end metrics: medians over rounds.
pub fn end_to_end(rounds: &[Round]) -> BTreeMap<&'static str, (f64, &'static str)> {
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let values = [
        per(&|r| r.setup_s),
        per(&|r| r.ops as f64 / r.timed_s),
        per(&|r| r.sut_cpu_s * 1e6 / r.ops.max(1) as f64),
        median_of_round_percentiles(rounds, 50.0),
        // the lowest round peak: rounds share one process, and what earlier
        // rounds leave behind in the allocator's arenas inflates later ones
        min(&rounds.iter().map(|r| r.rss_peak_mb).collect::<Vec<_>>()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name, (v, d.unit)))
        .collect()
}

/// Median over rounds of each live per-layer value.
pub fn layer_medians(rounds: &[Round]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = rounds
        .iter()
        .flat_map(|r| r.layer.keys().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.layer.get(k).copied())
                .collect();
            (k, median(&v))
        })
        .collect()
}

/// Renders the one-line JSON result the driver reads.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gill::query::Json;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(o) = obj else {
            panic!("object expected")
        };
        &o.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("key {key}"))
            .1
    }

    fn text(j: &Json) -> &str {
        match j {
            Json::Str(s) => s,
            other => panic!("string expected, got {other:?}"),
        }
    }

    fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match field(doc, key) {
            Json::Arr(items) => items,
            other => panic!("{key}: array expected, got {other:?}"),
        }
    }

    /// The golden test: the names, units, directions and bounds the
    /// benchmark prints are exactly `BENCHMARK.json`'s.
    #[test]
    fn definitions_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&body).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<&str> = items(&doc, "workloads")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(items(&doc, "workloads")
            .iter()
            .all(|w| text(field(w, "why")).len() <= 200));

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = items(&doc, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(text(field(j, "name")), d.name);
                assert_eq!(text(field(j, "unit")), d.unit, "{}", d.name);
                assert_eq!(text(field(j, "better")), d.better.as_str(), "{}", d.name);
                if key == "end_to_end" {
                    let Json::F64(bound) = field(j, "bound") else {
                        panic!("bound of {}", d.name)
                    };
                    assert_eq!(*bound, d.bound, "{}", d.name);
                    assert!(d.bound > 0.0 && d.bound <= 0.25);
                }
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rounds = vec![Round {
            setup_s: 1.5,
            timed_s: 2.0,
            ops: 1_000,
            attempted: 1_000,
            sut_cpu_s: 0.004,
            latencies_ms: vec![1.0, 2.0, 3.0],
            ..Round::default()
        }];
        let o = Outcome {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: end_to_end(&rounds),
            errors: Vec::new(),
        };
        let line = result_line(&o);
        let Json::Obj(top) = Json::parse(&line).expect("result line is JSON") else {
            panic!("object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some((_, Json::Obj(m))) = top.iter().find(|(k, _)| k == "metrics") else {
            panic!("metrics")
        };
        let mut got: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(o.metrics["throughput_per_s"].0, 500.0);
        assert_eq!(o.metrics["cpu_us_per_op"].0, 4.0);
    }
}
