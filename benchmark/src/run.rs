//! One run of one workload: timed rounds until `--seconds` of measurement
//! have accumulated, folded into the end-to-end metrics; with `--trace`,
//! half the time goes to live rounds (for the counters and the CPU figure)
//! and half to the traced stage replay, folded into the per-layer metrics.

use crate::gen::round_seed;
use crate::ingest::{self, IngestSpec};
use crate::replay::{self, Batch, ReplaySpec, Replayed, SUMMED_STAGES};
use crate::report::{
    end_to_end, layer_medians, median_of_round_percentiles, Outcome, Round, PER_LAYER, WORKLOADS,
};
use crate::stats::{highest_percentile, percentile};
use crate::trace::{self, Tracer};
use crate::{gen, mixed, serve, sut};
use gill::scenario::BmpFeed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A run gives up starting new rounds after this much wall time, so it
/// ends well inside the driver's 180 s whatever the machine.
const WALL_CAP: Duration = Duration::from_secs(120);

/// Where the benchmark writes: archives, segment directories, traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn one_round(workload: &str, seed: u64, first: bool, out: &Path) -> Result<Round, String> {
    match workload {
        "ingest.table" => ingest::round(&ingest::TABLE, seed, out, first),
        "ingest.sessions" => ingest::round(&ingest::SESSIONS, seed, out, first),
        "mixed.paced" => mixed::round(seed, out),
        "serve.read" => serve::round(seed, out),
        other => Err(format!(
            "unknown workload {other:?} (want one of {WORKLOADS:?})"
        )),
    }
}

/// Runs timed rounds until `seconds` of timed region have accumulated.
fn live_rounds(workload: &str, seed: u64, seconds: f64, out: &Path) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = 0.0;
    while rounds.is_empty() || (timed < seconds && t0.elapsed() < WALL_CAP) {
        let k = rounds.len() as u64;
        let r = one_round(workload, round_seed(seed, k), k == 0, out)?;
        eprintln!(
            "  {workload} round {k}: set-up {:.2} s, timed {:.2} s, {} ops, {} failed, peak RSS {:.0} MB{}",
            r.setup_s,
            r.timed_s,
            r.ops,
            r.failed,
            r.rss_peak_mb,
            if r.errors.is_empty() {
                String::new()
            } else {
                format!(", WRONG: {}", r.errors.join("; "))
            }
        );
        timed += r.timed_s;
        rounds.push(r);
    }
    Ok(rounds)
}

fn outcome(rounds: &[Round], metrics: BTreeMap<&'static str, (f64, &'static str)>) -> Outcome {
    let errors: Vec<String> = rounds
        .iter()
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    Outcome {
        correct: errors.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
        errors,
    }
}

/// The untraced run: end-to-end metrics only.
pub fn timed_run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rounds = live_rounds(workload, seed, seconds, &out_dir())?;
    let o = outcome(&rounds, end_to_end(&rounds));
    // a timing is a median plus the highest percentile with at least ten
    // samples beyond it, and the sample count
    let all: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let n = all.len();
    match highest_percentile(n) {
        Some(p) => {
            eprintln!(
                "  {workload} latency: {n} samples in {} rounds; highest admissible percentile p{p} = {:.3} ms (pooled)",
                rounds.len(),
                percentile(&all, p)
            );
        }
        None => eprintln!("  {workload} latency: {n} samples, too few for any percentile"),
    }
    Ok(o)
}

/// Replays the same batches with spans on, then off; returns the traced
/// pass and the tracing overhead in percent of the untraced wall time.
fn traced_and_plain<T>(
    budget: Duration,
    mut pass: impl FnMut(Duration, usize, &mut Tracer) -> (T, usize, f64),
) -> (T, Tracer, f64) {
    let mut tracer = Tracer::new(true);
    let (result, batches, traced_s) = pass(budget, usize::MAX, &mut tracer);
    let (_, _, plain_s) = pass(Duration::from_secs(3_600), batches, &mut Tracer::new(false));
    (
        result,
        tracer,
        (traced_s - plain_s) / plain_s.max(1e-9) * 100.0,
    )
}

fn ingest_replay(
    batches: &[Batch],
    spec: &ReplaySpec,
    budget: Duration,
    layer: &mut BTreeMap<&'static str, f64>,
) -> (Replayed, Tracer) {
    let (rep, tracer, overhead) = traced_and_plain(budget, |b, max, t| {
        let (rep, kit) = replay::ingest_pass(batches, spec, b, max, t);
        let (n, wall) = (rep.batches, rep.wall_s);
        ((rep, kit.filter_compile_s), n, wall)
    });
    let (rep, compile_s) = rep;
    let glue = rep.per_op("offer_whole")
        - [
            "to_domain",
            "validate",
            "forward",
            "judge",
            "publish",
            "queue_send",
        ]
        .iter()
        .map(|s| rep.per_op(s))
        .sum::<f64>();
    for (name, value) in [
        ("wire_frame_decode_ns_per_msg", rep.per_item("frame_decode")),
        ("wire_to_domain_ns_per_update", rep.per_item("to_domain")),
        ("bmp_demux_ns_per_update", rep.per_item("bmp_demux")),
        ("collector_validate_ns_per_update", rep.per_item("validate")),
        ("collector_forward_ns_per_update", rep.per_item("forward")),
        ("collector_offer_glue_ns_per_update", glue),
        (
            "collector_queue_hop_ns_per_update",
            rep.per_item("queue_send") + rep.per_item("queue_recv"),
        ),
        ("core_judge_ns_per_update", rep.per_item("judge")),
        ("core_filter_compile_ms", compile_s * 1e3),
        ("stream_publish_ns_per_frame", rep.per_item("publish")),
        (
            "stream_frame_encode_ns_per_frame",
            rep.per_item("frame_encode"),
        ),
        ("store_ingest_ns_per_update", rep.per_item("store_ingest")),
        ("store_mrt_ns_per_update", rep.per_item("mrt_store")),
        ("store_tee_clone_ns_per_update", rep.per_item("tee_clone")),
        ("bench_trace_overhead_pct", overhead),
        (
            "bench_replay_stage_sum_ns_per_op",
            rep.stage_sum_per_op(&SUMMED_STAGES),
        ),
    ] {
        layer.insert(name, value);
    }
    (rep, tracer)
}

fn replay_closed_ingest(
    spec: &IngestSpec,
    seed: u64,
    budget: Duration,
    layer: &mut BTreeMap<&'static str, f64>,
) -> (Replayed, Tracer) {
    let inp = ingest::inputs(spec, seed);
    let batches = replay::interleave(replay::script_batches(&inp.scripts), spec.sessions);
    let rspec = ReplaySpec {
        filters: &inp.filters,
        validate: spec.scenario,
        operator_prefix: inp.operator_prefix,
        bmp_open: Vec::new(),
        queue_capacity: inp.reference.decoded as usize + 1_024,
    };
    ingest_replay(&batches, &rspec, budget, layer)
}

fn replay_mixed(
    seed: u64,
    budget: Duration,
    layer: &mut BTreeMap<&'static str, f64>,
) -> (Replayed, Tracer) {
    let (world, day) = mixed::offered_day(seed);
    let bmp_vps: Vec<_> = (1..world.n_vps).map(|i| world.vp(i)).collect();
    let feed = BmpFeed::new(&bmp_vps);
    let mut bmp_open = vec![BmpFeed::initiation_frame("bench-router")];
    bmp_open.extend(feed.peer_up_frames(0));
    let frames: Vec<(bool, Vec<u8>)> = day
        .iter()
        .map(|u| mixed::wire_form(&world, &feed, u.clone(), 0))
        .collect();
    let bgp_vp = world.vp(0);
    let batches: Vec<Batch> = frames
        .chunks(replay::BATCH_MSGS)
        .map(|chunk| {
            let mut b = Batch::default();
            for (bmp, bytes) in chunk {
                if *bmp {
                    b.bmp.push(&bytes[..]);
                } else {
                    b.bgp.push((bgp_vp, &bytes[..]));
                }
            }
            b
        })
        .collect();
    // one retraining run on what the mirror holds after one interval
    let window = &day[..day.len().min(mixed::MIRROR_WINDOW)];
    let t = Instant::now();
    let trained = sut::train_filters(window, Vec::new());
    layer.insert("collector_retrain_ms", t.elapsed().as_secs_f64() * 1e3);
    let rspec = ReplaySpec {
        filters: &trained,
        validate: true,
        operator_prefix: Some(gen::operator_prefix()),
        bmp_open,
        queue_capacity: day.len() + 1_024,
    };
    ingest_replay(&batches, &rspec, budget, layer)
}

fn replay_serve(
    seed: u64,
    budget: Duration,
    out: &Path,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(Replayed, Tracer), String> {
    let prep = serve::prepare(seed, out)?;
    let (rep, tracer, overhead) = traced_and_plain(budget, |b, max, t| {
        let r = replay::serve_pass(&prep, b, max, t);
        let (n, wall) = (r.replayed.batches, r.replayed.wall_s);
        (r, n, wall)
    });
    for (e, us) in rep.handler_us.iter().enumerate() {
        layer.insert(replay::handler_metric(e), *us);
    }
    let socket_us = layer.get("http_query_p50_ms").copied().unwrap_or(0.0) * 1e3;
    layer.insert("http_overhead_us", socket_us - rep.handler_us_all);
    layer.insert(
        "http_query_engine_us",
        rep.replayed.per_item("query_engine") / 1e3,
    );
    layer.insert("http_json_encode_ns_per_kb", rep.json_ns_per_kb);
    layer.insert("bench_trace_overhead_pct", overhead);
    layer.insert(
        "bench_replay_stage_sum_ns_per_op",
        rep.replayed.per_op("handler"),
    );
    Ok((rep.replayed, tracer))
}

/// The traced run: per-layer metrics, and the span file.
pub fn traced_run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let out = out_dir();
    let rounds = live_rounds(workload, seed, seconds / 2.0, &out)?;
    let mut layer = layer_medians(&rounds);
    let e2e = end_to_end(&rounds);
    let live_cpu_ns = e2e["cpu_us_per_op"].0 * 1e3;
    layer.insert("bench_live_cpu_ns_per_op", live_cpu_ns);
    layer.insert("bench_timed_s", rounds.iter().map(|r| r.timed_s).sum());
    layer.insert("bench_rounds", rounds.len() as f64);
    layer.insert("latency_p99_ms", median_of_round_percentiles(&rounds, 99.0));

    let budget = Duration::from_secs_f64(seconds / 4.0);
    let first = round_seed(seed, 0);
    let (rep, tracer) = match workload {
        "ingest.table" => replay_closed_ingest(&ingest::TABLE, first, budget, &mut layer),
        "ingest.sessions" => replay_closed_ingest(&ingest::SESSIONS, first, budget, &mut layer),
        "mixed.paced" => replay_mixed(first, budget, &mut layer),
        _ => replay_serve(first, budget, &out, &mut layer)?,
    };
    // by construction: stage sum + unattributed == live CPU per operation
    let sum = layer["bench_replay_stage_sum_ns_per_op"];
    layer.insert("runtime_unattributed_ns_per_update", live_cpu_ns - sum);
    eprintln!(
        "  {workload} replay: {} batches, {} ops; live {:.0} ns/op = stages {:.0} + unattributed {:.0}; tracing overhead {:.1} %",
        rep.batches,
        rep.ops,
        live_cpu_ns,
        sum,
        live_cpu_ns - sum,
        layer["bench_trace_overhead_pct"]
    );
    for (stage, (ns, items)) in &rep.stages {
        eprintln!(
            "    stage {stage:<14} {:>9.0} ns/item {:>9.0} ns/op ({items} items)",
            *ns as f64 / (*items).max(1) as f64,
            *ns as f64 / rep.ops.max(1) as f64
        );
    }
    let path = out.join(format!("trace-{workload}.json"));
    trace::write_file(&path, workload, seed, tracer.spans())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "  {workload} spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|d| (d.name, (layer.get(d.name).copied().unwrap_or(0.0), d.unit)))
        .collect();
    Ok(outcome(&rounds, metrics))
}
