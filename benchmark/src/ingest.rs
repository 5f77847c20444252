//! The two closed-loop ingest workloads.
//!
//! `ingest.table`: two sessions each stream a full table as packed
//! UPDATEs into the shipped default pipeline — per-prefix cost dominates.
//! `ingest.sessions`: 256 sessions send single-prefix UPDATEs in bursts of
//! eight through validator, forwarder and trained filters — per-message
//! cost dominates and most updates die at the filter.
//!
//! One round boots a fresh collector, handshakes every session, pushes the
//! first 2 % of each script untimed, then times the rest from release to
//! the last retained update stored and the archive flushed.

use crate::gen::{self, Reference, Script};
use crate::harness::{
    accounting_errors, archive_digest, failed_updates, follow_stream, generator_only_rate,
    pipeline_layer, pump, sample_gauges, wait_until, Burst, Conn, Gauges, Subscribed, Tally,
    Window,
};
use crate::pace::ProbeClock;
use crate::proc;
use crate::report::Round;
use crate::sut::{self, Counters, Sut, SutConfig, TeeStorage};
use bytes::BytesMut;
use gill::collector::Storage;
use gill::core::{FilterGranularity, FilterSet};
use gill::types::{Asn, BgpUpdate, Prefix, Timestamp, VpId};
use gill::wire::BgpMessage;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sizes and switches of one closed-loop ingest workload. Constants of
/// the benchmark: identical on every commit it compares.
pub struct IngestSpec {
    pub name: &'static str,
    pub sessions: usize,
    /// Routes per table, or updates sent per round over all sessions.
    pub volume: usize,
    pub burst: Burst,
    /// Validator, operator subscription and trained filters on, inputs
    /// from a scenario day; off: shipped defaults and full tables.
    pub scenario: bool,
}

/// `ingest.table`: 2 sessions × 100 000 routes.
pub const TABLE: IngestSpec = IngestSpec {
    name: "ingest.table",
    sessions: 2,
    volume: 100_000,
    burst: Burst::Bytes(64 * 1024),
    scenario: false,
};

/// `ingest.sessions`: 256 sessions, 280 000 updates of a scenario day,
/// filters trained on the 70 000 before them.
pub const SESSIONS: IngestSpec = IngestSpec {
    name: "ingest.sessions",
    sessions: 256,
    volume: 280_000,
    burst: Burst::Msgs(8),
    scenario: true,
};

/// Prefixes in the scenario world: with 256 VPs and a training window a
/// quarter of the sent volume, about 70 % of the day is discarded.
const SCENARIO_PREFIXES: u32 = 256;

/// The generator alone must be at least this many times faster than the
/// measured ingest rate, or the benchmark would be measuring itself.
const MIN_HEADROOM: f64 = 3.0;

/// Share of each script pushed before the clock starts.
const WARMUP_SHARE: f64 = 0.02;

/// Updates in flight the closed loop allows: written by the generator but
/// not yet filtered, rejected or stored. TCP flow control alone never
/// closes this loop — the event loop reads a ready socket until it would
/// block and queues everything it decoded, so an unpaced generator turns
/// the whole round into backlog (hundreds of MB, and round times that
/// depend on how the page faults fall). 32 768 keeps every stage busy.
const WINDOW: u64 = 32_768;

/// Broker ring, sized so the one in-process subscriber cannot be lapped
/// while it is descheduled on a two-core box (the shipped 4 096 can).
const RING_CAPACITY: usize = 1 << 16;

/// What a round is generated from.
pub struct IngestInputs {
    pub scripts: Vec<Script>,
    pub reference: Reference,
    pub filters: FilterSet,
    pub operator_prefix: Option<Prefix>,
}

/// Generates one round's inputs from its seed.
pub fn inputs(spec: &IngestSpec, seed: u64) -> IngestInputs {
    let volume = (spec.volume as f64 * crate::quick_factor()) as usize;
    if spec.scenario {
        // train → test as in the paper: every (VP, prefix) pair seen in
        // the first window is redundant from then on
        let train = |window: &[BgpUpdate], _: Vec<VpId>| {
            FilterSet::generate([], window.iter(), FilterGranularity::VpPrefix)
        };
        let s = gen::session_inputs(
            seed,
            spec.sessions as u32,
            SCENARIO_PREFIXES,
            volume / 4,
            volume,
            train,
        );
        IngestInputs {
            scripts: s.scripts,
            reference: s.reference,
            filters: s.filters,
            operator_prefix: Some(s.operator_prefix),
        }
    } else {
        let t = gen::table_inputs(seed, spec.sessions, volume);
        IngestInputs {
            scripts: t.scripts,
            reference: t.reference,
            filters: t.filters,
            operator_prefix: None,
        }
    }
}

/// Per script, the byte offset where the warm-up ends (a message
/// boundary), and what the warm-up decodes to under `filters`.
fn warm_split(scripts: &[Script], filters: &FilterSet) -> (Vec<usize>, Reference) {
    let mut offsets = Vec::with_capacity(scripts.len());
    let mut warm = Reference::default();
    for s in scripts {
        let n = (s.msg_ends.len() as f64 * WARMUP_SHARE).ceil() as usize;
        let off = if n == 0 {
            0
        } else {
            s.msg_ends[n - 1] as usize
        };
        offsets.push(off);
        let vp = VpId::from_asn(Asn(s.asn));
        let mut buf = BytesMut::from(&s.bytes[..off]);
        while let Ok(Some(BgpMessage::Update(m))) = BgpMessage::decode(&mut buf) {
            for u in m.to_domain(vp, Timestamp::ZERO) {
                warm.decoded += 1;
                warm.retained += filters.accepts(&u) as u64;
            }
        }
    }
    (offsets, warm)
}

/// Everything observed once a round has wound down.
struct Observed {
    counters: Counters,
    storage: TeeStorage,
    seen: Subscribed,
    gauges: Gauges,
    archive: Result<Reference, String>,
    archive_bytes: u64,
    operator_got: u64,
}

/// Runs one round. With `guard`, first measures the generator-only rate.
pub fn round(spec: &IngestSpec, seed: u64, out_dir: &Path, guard: bool) -> Result<Round, String> {
    let t_gen = Instant::now();
    let inp = inputs(spec, seed);
    let (warm_offsets, warm) = warm_split(&inp.scripts, &inp.filters);
    let full: Vec<usize> = inp.scripts.iter().map(|s| s.bytes.len()).collect();
    let expected = inp.reference;
    let gen_s = t_gen.elapsed().as_secs_f64();

    let generator_rate = match guard {
        true => Some(
            generator_only_rate(&inp.scripts, spec.burst)
                .map_err(|e| format!("headroom sink: {e}"))?,
        ),
        false => None,
    };

    let t_boot = Instant::now();
    let sut = Sut::start(SutConfig {
        // above the round's total: loss is zero by construction and the
        // rate is the slowest stage's
        queue_capacity: expected.decoded as usize + 1_024,
        validate: spec.scenario,
        bmp: false,
        ring_capacity: RING_CAPACITY,
        filters: inp.filters.clone(),
        operator_prefix: inp.operator_prefix,
        retrain: None,
        archive: out_dir.join(format!("{}-{seed:016x}.mrt", spec.name)),
    })
    .map_err(|e| format!("boot: {e}"))?;
    let clock = ProbeClock::new();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut milestones = vec![expected.retained as usize];
    if warm.retained > 0 {
        milestones.insert(0, warm.retained as usize);
    }
    let mut storage = sut
        .storage(milestones, clock.clone(), done_tx)
        .map_err(|e| format!("archive: {e}"))?;
    let progress = storage.progress.clone();
    let subscription = sut.subscribe();
    let (start_sampler, stop_sampler) = (AtomicBool::new(false), AtomicBool::new(false));
    let abort = AtomicBool::new(false);

    let mut r = Round::default();
    let mut runtime_events = (0, 0, 0);
    let observed = std::thread::scope(|s| -> Result<Observed, String> {
        // collectord's main thread: drain the queue into storage
        let drain = std::thread::Builder::new()
            .name("sut-storage".into())
            .spawn_scoped(s, || {
                sut.drain_into(&mut storage);
                storage
            })
            .expect("spawn storage thread");
        let subscriber = proc::spawn_harness(s, "sub", || follow_stream(subscription, &clock));
        let sampler = proc::spawn_harness(s, "sampler", || {
            sample_gauges(|| sut.queue_depth(), &start_sampler, &stop_sampler)
        });

        let body = (|| -> Result<(), String> {
            let mut conns = Vec::with_capacity(inp.scripts.len());
            for script in &inp.scripts {
                let stream = sut::bgp_connect(sut.bgp_addr(), script.asn)
                    .map_err(|e| format!("handshake: {e}"))?;
                conns.push(Conn::new(stream, script, spec.burst).map_err(|e| e.to_string())?);
            }
            wait_until("sessions to establish", 30, || {
                sut.counters().sessions_opened == spec.sessions as u64
            })?;

            // warm-up: the first 2 % of every script, untimed
            pump(&mut conns, &warm_offsets, &clock, &abort, None)
                .map_err(|e| format!("warm-up write: {e}"))?;
            if warm.retained > 0 {
                done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .map_err(|_| "timed out waiting for the warm-up to be stored".to_string())?;
            }
            wait_until("the warm-up to be decoded", 60, || {
                sut.counters().decoded == warm.decoded
            })?;
            proc::release_free_memory();
            start_sampler.store(true, Ordering::Relaxed);
            r.setup_s = gen_s + t_boot.elapsed().as_secs_f64();
            let rss_before = proc::rss_mb();
            let c0 = sut.counters();

            // timed region: release → last retained update stored and the
            // archive flushed
            let cpu0 = proc::cpu_snapshot();
            let t0 = Instant::now();
            let generator = proc::spawn_harness(s, "gen", || {
                let completed = || sut.completed() + progress.load(Ordering::Acquire) as u64;
                let window = Window {
                    limit: WINDOW,
                    sent_before: warm.decoded,
                    completed: &completed,
                };
                let res = pump(&mut conns, &full, &clock, &abort, Some(&window));
                (conns, res)
            });
            let t_end = done_rx.recv_timeout(Duration::from_secs(120));
            let cpu1 = proc::cpu_snapshot();
            abort.store(t_end.is_err(), Ordering::Relaxed);
            let (mut conns, res) = generator.join().expect("generator thread");
            let t_end = t_end
                .map_err(|_| "timed out waiting for the last update to be stored".to_string())?;
            res.map_err(|e| format!("timed write: {e}"))?;
            r.timed_s = t_end.duration_since(t0).as_secs_f64();
            r.sut_cpu_s = proc::sut_cpu_s(&cpu0, &cpu1);
            wait_until("every update to be decoded", 60, || {
                sut.counters().decoded >= expected.decoded
            })?;
            let c1 = sut.counters();
            r.ops = c1.decoded - c0.decoded;
            runtime_events = (
                c1.ready_events - c0.ready_events,
                c1.wakes - c0.wakes,
                c1.timer_fires - c0.timer_fires,
            );
            let l = &mut r.layer;
            l.insert(
                "bench_rss_growth_mb",
                (proc::rss_mb() - rss_before).max(0.0),
            );
            if let Some(rate) = generator_rate {
                l.insert(
                    "bench_generator_headroom",
                    rate / (r.ops as f64 / r.timed_s),
                );
            }

            // end each session gracefully, as a router does
            let cease = sut::cease_bytes();
            for c in &mut conns {
                let _ = c.stream.set_nonblocking(false);
                let _ = c.stream.write_all(&cease);
            }
            Ok(())
        })();

        // wind down whatever happened, so every thread ends
        sut.request_stop();
        let storage = drain.join().expect("storage thread");
        stop_sampler.store(true, Ordering::Relaxed);
        let gauges = sampler.join().expect("sampler thread");
        let counters = sut.counters();
        let archive = archive_digest(sut.archive_path());
        let archive_bytes = std::fs::metadata(sut.archive_path()).map_or(0, |m| m.len());
        let operator_got = sut.operator_received() as u64;
        sut.close_stream();
        let seen = subscriber.join().expect("subscriber thread");
        body?;
        Ok(Observed {
            counters,
            storage,
            seen,
            gauges,
            archive,
            archive_bytes,
            operator_got,
        })
    });
    let mem = sut.store().read().mem_stats();
    sut.stop();
    let o = observed?;
    // the runtime's event counts cover the timed region only
    let timed = Counters {
        ready_events: runtime_events.0,
        wakes: runtime_events.1,
        timer_fires: runtime_events.2,
        ..o.counters
    };

    let c = &o.counters;
    let tally = Tally {
        sent: expected.decoded,
        stored: o.storage.stored() as u64,
        archived: o.storage.archived() as u64,
        frames: o.seen.frames,
        missed: o.seen.missed,
        operator_got: o.operator_got,
    };
    r.errors = accounting_errors(c, &tally);
    // and the archive holds exactly the reference multiset
    match &o.archive {
        Ok(a) if a.retained == expected.retained && a.fold == expected.fold => {}
        Ok(a) => r.errors.push(format!(
            "archive digest {:016x}/{} != reference {:016x}/{}",
            a.fold, a.retained, expected.fold, expected.retained
        )),
        Err(e) => r.errors.push(format!("archive unreadable: {e}")),
    }
    if let Some(h) = r
        .layer
        .get("bench_generator_headroom")
        .filter(|h| **h < MIN_HEADROOM)
    {
        r.errors.push(format!(
            "generator headroom {h:.2} is below {MIN_HEADROOM}: the run measured the generator"
        ));
    }
    r.attempted = expected.decoded;
    r.failed = failed_updates(c, &tally);
    let msgs: u64 = inp.scripts.iter().map(|s| s.msgs()).sum();
    let l = &mut r.layer;
    l.insert("wire_msgs", msgs as f64);
    l.insert(
        "wire_nlri_per_msg",
        expected.decoded as f64 / msgs.max(1) as f64,
    );
    l.insert("wire_bytes", full.iter().sum::<usize>() as f64);
    pipeline_layer(
        l,
        &timed,
        r.ops,
        &o.gauges,
        &o.storage.lags_ms,
        (o.seen.missed, &o.seen.lags_ms),
        o.archive_bytes,
        &mem,
    );
    r.rss_peak_mb = o.gauges.rss_max_mb;
    r.latencies_ms = o.storage.lags_ms;
    Ok(r)
}
