//! The traced stage replay.
//!
//! This PR may not edit the program, so spans are recorded here, around
//! the benchmark's own calls into each layer's public functions. A
//! single-threaded replay pushes the generated inputs, in batches of
//! 1 024 messages, through
//! `BgpMessage::decode` → `UpdateMessage::to_domain` →
//! `UpdateValidator::validate` → `Forwarder::offer` → `FilterView::judge`
//! → `StreamPublisher::offer` → channel send / recv → `MrtStorage::store`
//! and `RouteStore::ingest` (BMP frames enter through `BmpFsm` instead of
//! the BGP decoder; the serving side replays `route_with`, `QueryEngine`
//! and `Json::encode`). The same batches are replayed once with spans on
//! and once with spans off; the difference is the tracing overhead.

use crate::serve::{Prepared, Req, ENDPOINTS};
use crate::stats::median;
use crate::sut::{self, StageKit};
use crate::trace::{stage_totals, Tracer};
use bytes::BytesMut;
use gill::bmp::BmpEvent;
use gill::collector::{Storage, StoredUpdate, Verdict};
use gill::core::FilterSet;
use gill::query::server::route_with;
use gill::query::Request;
use gill::stream::Frame;
use gill::types::{BgpUpdate, Prefix, Timestamp, VpId};
use gill::wire::{BgpMessage, UpdateMessage};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Messages per replayed batch.
pub const BATCH_MSGS: usize = 1_024;

/// One batch of wire input: BGP bytes per session, BMP bytes for the
/// router.
#[derive(Default)]
pub struct Batch<'a> {
    pub bgp: Vec<(VpId, &'a [u8])>,
    pub bmp: Vec<&'a [u8]>,
}

/// How the replayed pipeline is configured (as the live one was).
pub struct ReplaySpec<'a> {
    pub filters: &'a FilterSet,
    pub validate: bool,
    pub operator_prefix: Option<Prefix>,
    /// Initiation + Peer Up frames that open the BMP session, if any.
    pub bmp_open: Vec<Vec<u8>>,
    pub queue_capacity: usize,
}

/// Stages whose cost is part of what the live pipeline spends per update
/// (`frame_encode` is inside `publish`, `offer_whole` re-runs the middle
/// stages: both are reported but not summed).
pub const SUMMED_STAGES: [&str; 12] = [
    "frame_decode",
    "bmp_demux",
    "to_domain",
    "validate",
    "forward",
    "judge",
    "publish",
    "queue_send",
    "queue_recv",
    "tee_clone",
    "store_ingest",
    "mrt_store",
];

/// What one replay pass measured.
pub struct Replayed {
    /// `stage -> (self ns, items)`.
    pub stages: BTreeMap<&'static str, (u64, u64)>,
    /// Domain updates (or requests) the pass covered.
    pub ops: u64,
    pub batches: usize,
    pub wall_s: f64,
}

impl Replayed {
    /// Self nanoseconds of `stage` per item it processed.
    pub fn per_item(&self, stage: &str) -> f64 {
        self.stages
            .get(stage)
            .map_or(0.0, |(ns, n)| *ns as f64 / (*n).max(1) as f64)
    }

    /// Self nanoseconds of `stage` per operation of the whole replay.
    pub fn per_op(&self, stage: &str) -> f64 {
        self.stages
            .get(stage)
            .map_or(0.0, |(ns, _)| *ns as f64 / self.ops.max(1) as f64)
    }

    /// Summed stage cost per operation.
    pub fn stage_sum_per_op(&self, stages: &[&str]) -> f64 {
        stages.iter().map(|s| self.per_op(s)).sum()
    }
}

/// Replays `batches` through the ingest stages until `budget` is spent or
/// `max_batches` are done.
pub fn ingest_pass(
    batches: &[Batch],
    spec: &ReplaySpec,
    budget: Duration,
    max_batches: usize,
    tracer: &mut Tracer,
) -> (Replayed, StageKit) {
    let mut kit = StageKit::new(
        spec.filters,
        spec.validate,
        spec.operator_prefix,
        spec.queue_capacity,
    );
    let mut fsm = sut::bmp_fsm();
    for frame in &spec.bmp_open {
        fsm.handle_bytes(frame, 0);
    }
    while fsm.poll_event().is_some() {}

    let t0 = Instant::now();
    let mut ops = 0u64;
    let mut done = 0;
    let mut seq = 0u64;
    for batch in batches.iter().take(max_batches) {
        if t0.elapsed() >= budget {
            break;
        }
        done += 1;
        tracer.next_batch();
        let now = Timestamp::from_millis(t0.elapsed().as_millis() as u64);
        let n_bgp_bytes: usize = batch.bgp.iter().map(|(_, b)| b.len()).sum();
        let mut msgs: Vec<(VpId, UpdateMessage, Timestamp)> = Vec::with_capacity(BATCH_MSGS);
        let mut updates: Vec<BgpUpdate> = Vec::new();
        ops += tracer.counted("batch", |t| {
            if n_bgp_bytes > 0 {
                t.counted("frame_decode", |_| {
                    for (vp, bytes) in &batch.bgp {
                        let mut buf = BytesMut::from(*bytes);
                        while let Ok(Some(m)) = BgpMessage::decode(&mut buf) {
                            if let BgpMessage::Update(u) = m {
                                msgs.push((*vp, u, now));
                            }
                        }
                    }
                    msgs.len() as u64
                });
            }
            if !batch.bmp.is_empty() {
                let before = msgs.len();
                t.counted("bmp_demux", |_| {
                    for frame in &batch.bmp {
                        fsm.handle_bytes(frame, 0);
                        while let Some(ev) = fsm.poll_event() {
                            if let BmpEvent::Update { vp, update, ts_ms } = ev {
                                msgs.push((vp, update, Timestamp::from_millis(ts_ms)));
                            }
                        }
                    }
                    (msgs.len() - before) as u64
                });
            }
            let decoded = t.counted("to_domain", |_| {
                for (vp, m, at) in &msgs {
                    for mut u in m.to_domain(*vp, *at) {
                        u.time = *at;
                        updates.push(u);
                    }
                }
                updates.len() as u64
            });
            if spec.validate {
                t.span("validate", decoded, |_| {
                    updates.retain(|u| {
                        !matches!(kit.validator.validate(u.vp.asn, u), Verdict::Invalid(_))
                    });
                });
            }
            t.span("forward", updates.len() as u64, |_| {
                for u in &updates {
                    kit.forwarder.offer(u);
                }
            });
            t.span("judge", updates.len() as u64, |_| {
                updates.retain(|u| kit.view.judge(u).0);
            });
            let kept = updates.len() as u64;
            t.span("frame_encode", kept, |_| {
                for u in &updates {
                    std::hint::black_box(Frame::update(seq, u));
                    seq += 1;
                }
            });
            t.span("publish", kept, |_| {
                use gill::collector::UpdateSink;
                for u in &updates {
                    std::hint::black_box(kit.publisher.offer(u));
                }
            });
            let mut recs: Vec<StoredUpdate> = Vec::with_capacity(updates.len());
            t.span("queue_send", kept, |_| {
                for u in updates.drain(..) {
                    let _ = kit.queue_tx.try_send(StoredUpdate { update: u });
                }
            });
            t.span("queue_recv", kept, |_| {
                recs.extend(kit.queue_rx.try_iter());
            });
            let mut clones: Vec<BgpUpdate> = Vec::with_capacity(recs.len());
            t.span("tee_clone", kept, |_| {
                clones.extend(recs.iter().map(|r| r.update.clone()));
            });
            t.span("store_ingest", kept, |_| {
                for u in clones.drain(..) {
                    kit.store.ingest(u);
                }
            });
            t.span("mrt_store", kept, |_| {
                for r in recs.drain(..) {
                    kit.archive.store(r);
                }
            });
            decoded
        });
        // the same messages once more through one whole `SessionCtx::offer`
        let n_updates: u64 = msgs
            .iter()
            .map(|(_, m, _)| (m.announced.len() + m.withdrawn.len()) as u64)
            .sum();
        tracer.span("offer_whole", n_updates, |_| {
            for (vp, m, at) in msgs.drain(..) {
                kit.ctx.offer(vp, m, at);
            }
        });
        while kit.ctx_rx.try_iter().next().is_some() {}
        if let Some(op) = &kit.operator {
            while op.feed.try_iter().next().is_some() {}
        }
        while matches!(
            kit.subscriber.poll_next(),
            gill::stream::Delivery::Frame(_) | gill::stream::Delivery::Gap(_)
        ) {}
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (
        Replayed {
            stages: stage_totals(tracer.spans()),
            ops,
            batches: done,
            wall_s,
        },
        kit,
    )
}

/// Splits scripts into batches of [`BATCH_MSGS`] messages, one session at
/// a time.
pub fn script_batches(scripts: &[crate::gen::Script]) -> Vec<Batch<'_>> {
    let mut out = Vec::new();
    for s in scripts {
        let vp = VpId::from_asn(gill::types::Asn(s.asn));
        let mut start = 0usize;
        for ends in s.msg_ends.chunks(BATCH_MSGS) {
            let end = *ends.last().expect("chunks are non-empty") as usize;
            out.push(Batch {
                bgp: vec![(vp, &s.bytes[start..end])],
                bmp: Vec::new(),
            });
            start = end;
        }
    }
    out
}

/// Spreads sessions over the replay: batch `k` of every session before
/// batch `k + 1` of any, as round-robin writes deliver them.
pub fn interleave(mut batches: Vec<Batch<'_>>, sessions: usize) -> Vec<Batch<'_>> {
    if sessions <= 1 || batches.is_empty() {
        return batches;
    }
    let per = batches.len().div_ceil(sessions);
    let mut slots: Vec<Option<Batch>> = batches.drain(..).map(Some).collect();
    let mut out = Vec::with_capacity(slots.len());
    for k in 0..per {
        for s in 0..sessions {
            if let Some(b) = slots.get_mut(s * per + k).and_then(Option::take) {
                out.push(b);
            }
        }
    }
    out.extend(slots.into_iter().flatten());
    out
}

fn request_of(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".into(),
        path: path.into(),
        params: query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap_or((p, ""));
                (k.to_string(), v.to_string())
            })
            .collect(),
        headers: Vec::new(),
    }
}

/// What the serving-side replay adds to the span totals.
pub struct ServeReplayed {
    pub replayed: Replayed,
    /// Median handler time per endpoint, µs (indexed like [`ENDPOINTS`]).
    pub handler_us: [f64; 4],
    /// Median handler time over the whole mix, µs.
    pub handler_us_all: f64,
    pub json_ns_per_kb: f64,
}

/// Replays the prepared request mix through `route_with` (the whole
/// handler), then `QueryEngine` and `Json::encode` separately.
pub fn serve_pass(
    prep: &Prepared,
    budget: Duration,
    max_batches: usize,
    tracer: &mut Tracer,
) -> ServeReplayed {
    let reqs: Vec<(&Req, Request)> = prep
        .reqs
        .iter()
        .map(|(r, t, _)| (r, request_of(t)))
        .collect();
    let t0 = Instant::now();
    let mut per_endpoint: [Vec<f64>; 4] = Default::default();
    let mut all = Vec::new();
    let (mut ops, mut done, mut json_bytes) = (0u64, 0usize, 0u64);
    for batch in reqs.chunks(128).cycle().take(max_batches) {
        if t0.elapsed() >= budget {
            break;
        }
        done += 1;
        ops += batch.len() as u64;
        tracer.next_batch();
        tracer.span("batch", batch.len() as u64, |t| {
            t.span("handler", batch.len() as u64, |_| {
                for (req, request) in batch {
                    let t = Instant::now();
                    let resp = route_with(request, &prep.store, None);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(resp.body.len());
                    per_endpoint[req.endpoint()].push(us);
                    all.push(us);
                }
            });
            let guard = prep.store.read();
            let answers: Vec<_> = t.span("query_engine", batch.len() as u64, |_| {
                batch.iter().map(|(req, _)| req.answer(&guard)).collect()
            });
            t.span("json_encode", batch.len() as u64, |_| {
                for a in &answers {
                    json_bytes += a.encode().map_or(0, |s| s.len() as u64);
                }
            });
        });
    }
    let stages = stage_totals(tracer.spans());
    let json_ns = stages.get("json_encode").map_or(0, |e| e.0);
    ServeReplayed {
        handler_us: std::array::from_fn(|e| median(&per_endpoint[e])),
        handler_us_all: median(&all),
        json_ns_per_kb: json_ns as f64 / (json_bytes as f64 / 1024.0).max(1.0),
        replayed: Replayed {
            stages,
            ops,
            batches: done,
            wall_s: t0.elapsed().as_secs_f64(),
        },
    }
}

/// Endpoint metric names, indexed like [`ENDPOINTS`].
pub fn handler_metric(e: usize) -> &'static str {
    match ENDPOINTS[e] {
        "routes" => "http_handler_us_routes",
        "rib" => "http_handler_us_rib",
        "updates" => "http_handler_us_updates",
        _ => "http_handler_us_origin",
    }
}
