//! `mixed.paced`: the whole platform on, below saturation, open loop.
//!
//! One BGP session and one BMP router carrying 64 monitored peers offer a
//! scenario day on its own burst schedule (time-compressed by a constant
//! to a fixed mean rate) to a collector running validator, forwarder,
//! mirror and an attached orchestrator that retrains while ingest runs.
//! Beside it one `/stream/updates` HTTP subscriber reads every frame and a
//! second thread issues an open-loop looking-glass mix against the store
//! being written. Every 64th update is a probe, timed from when it was
//! *due* to when its frame is read from the subscriber socket. One thread
//! paces the writes, one blocks on the subscriber socket, one issues the
//! queries.

use crate::client::{HttpClient, StreamReader, StreamSeen};
use crate::gen::{self, Rng};
use crate::harness::{
    accounting_errors, archive_digest, failed_updates, pipeline_layer, sample_gauges, wait_until,
    Tally,
};
use crate::pace::{probe_id, Pacer, ProbeClock};
use crate::proc;
use crate::report::Round;
use crate::stats::percentile;
use crate::sut::{self, Sut, SutConfig};
use gill::query::Json;
use gill::scenario::{BmpFeed, ScenarioItem, Source, World};
use gill::types::{BgpUpdate, Timestamp};
use gill::wire::{BgpMessage, UpdateMessage};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Length of one round's schedule. Two rounds fill a 10 s run. Shorter
/// days were tried (3 × 3.4 s, 4 × 2.5 s) and made the stream-lag median
/// *less* steady between seeds: burst sizes are heavy-tailed, so a short
/// day is a few big bursts and its median is wherever they fell.
pub fn round_s() -> f64 {
    5.0 * crate::quick_factor()
}

/// Mean offered rate, updates per second.
const OFFERED_PER_S: f64 = 30_000.0;
/// Monitored peers behind the one BMP router.
const BMP_PEERS: u32 = 64;
const PREFIXES: u32 = 1_024;
/// Looking-glass requests per second, open loop. One keep-alive
/// connection answers about 22 small requests a second at the seed commit
/// (each waits out a delayed ACK between the server's two writes), so the
/// schedule stays well below that.
const QUERIES_PER_S: f64 = 10.0;
/// The orchestrator retrains this often (twice inside one round).
const RETRAIN_EVERY: Duration = Duration::from_millis(2_000);
/// Updates the mirror holds when a retraining run starts.
pub const MIRROR_WINDOW: usize = 60_000;
/// The shipped `--queue` default.
const QUEUE_CAPACITY: usize = 65_536;
/// The shipped `--ring-capacity` default.
const RING_CAPACITY: usize = 4_096;

/// One scheduled write.
struct Item {
    due_ns: u64,
    bmp: bool,
    bytes: Vec<u8>,
}

/// The round's inputs: the write schedule and the request mix.
struct Inputs {
    world: World,
    items: Vec<Item>,
    feed: BmpFeed,
    probes: Vec<(u16, u64)>,
    targets: Vec<String>,
}

fn inputs(seed: u64) -> Inputs {
    let (world, day) = offered_day(seed);
    // compress the day's own burst schedule by one constant
    let t0 = day.first().map_or(0, |u| u.time.as_millis());
    let span = day.last().map_or(1, |u| u.time.as_millis() - t0).max(1);
    let scale = round_s() * 1e9 / span as f64;
    let bmp_vps: Vec<_> = (1..=BMP_PEERS).map(|i| world.vp(i)).collect();
    let feed = BmpFeed::new(&bmp_vps);
    let mut items = Vec::with_capacity(day.len());
    let mut probes = Vec::new();
    for u in day {
        let due_ns = ((u.time.as_millis() - t0) as f64 * scale) as u64;
        if let Some(id) = probe_id(&u) {
            probes.push((id, due_ns));
        }
        let (bmp, bytes) = wire_form(&world, &feed, u, due_ns / 1_000_000);
        items.push(Item { due_ns, bmp, bytes });
    }
    Inputs {
        targets: query_mix(&world, seed, (QUERIES_PER_S * round_s()) as usize),
        world,
        items,
        feed,
        probes,
    }
}

/// Renders one update for the wire: VP 0 speaks BGP, every other VP is a
/// monitored peer of the BMP router, whose per-peer header carries
/// `at_ms` (the compressed due time). Returns `(is BMP, bytes)`.
pub fn wire_form(world: &World, feed: &BmpFeed, mut u: BgpUpdate, at_ms: u64) -> (bool, Vec<u8>) {
    if world.vp_index(u.vp) == Some(0) {
        let msg = UpdateMessage::from_domain(&u).expect("scenario update has a wire form");
        let bytes = BgpMessage::Update(msg)
            .encode_to_vec()
            .expect("single-prefix UPDATE fits");
        return (false, bytes);
    }
    u.time = Timestamp::from_millis(at_ms);
    let frame = feed
        .route_monitoring_frame(&ScenarioItem {
            update: u,
            source: Source::Background,
        })
        .expect("scenario update renders as a BMP frame");
    (true, frame)
}

/// The seeded looking-glass mix: 60 % `/routes` (exact / lpm /
/// more-specifics), 15 % `/rib`, 15 % bounded `/updates`, 10 % `/origin`.
pub fn query_mix(world: &World, seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x9e7_5eed);
    (0..n)
        .map(|_| {
            let p = rng.below(world.n_prefixes as u64) as u32;
            let vp = world.vp(rng.below(world.n_vps as u64) as u32).asn.value();
            match rng.below(100) {
                0..=19 => format!("/routes?prefix={}&match=exact", world.prefix(p)),
                20..=39 => format!("/routes?prefix={}&match=lpm", world.prefix(p)),
                40..=59 => format!("/routes?prefix={}&match=ms&vp={vp}", world.prefix(p)),
                60..=74 => format!("/rib?vp={vp}"),
                75..=89 => format!("/updates?prefix={}&vp={vp}&limit=100", world.prefix(p)),
                _ => format!("/origin?asn={}", world.origin(p)),
            }
        })
        .collect()
}

/// What the paced writer thread brings back.
struct Written {
    late_ms: Vec<f64>,
    error: Option<String>,
}

/// The subscriber: reads `/stream/updates` until the stream ends (or the
/// round is given up).
fn read_stream(mut reader: StreamReader, clock: &ProbeClock, give_up: &AtomicBool) -> StreamSeen {
    while !reader.seen.eos && !give_up.load(Ordering::Relaxed) && reader.read_some(clock) {}
    reader.seen
}

/// Paces the writes on the schedule; ends both sessions as a router would
/// once the stream has ended.
fn write_paced(
    items: &[Item],
    base_ns: u64,
    mut bgp: TcpStream,
    mut bmp: TcpStream,
    clock: &ProbeClock,
    written: &AtomicBool,
    finished: &AtomicBool,
) -> Written {
    let mut late_ms = Vec::with_capacity(items.len());
    let (mut bgp_buf, mut bmp_buf) = (Vec::new(), Vec::new());
    let mut error = None;
    let mut i = 0;
    while i < items.len() && error.is_none() {
        let due = base_ns + items[i].due_ns;
        loop {
            let now = clock.now_ns();
            if now >= due {
                break;
            }
            std::thread::sleep(Duration::from_nanos((due - now).min(200_000)));
        }
        // everything due by now goes out in one write per socket
        let now = clock.now_ns();
        bgp_buf.clear();
        bmp_buf.clear();
        while i < items.len() && base_ns + items[i].due_ns <= now {
            late_ms.push((now - base_ns - items[i].due_ns) as f64 / 1e6);
            let buf = if items[i].bmp {
                &mut bmp_buf
            } else {
                &mut bgp_buf
            };
            buf.extend_from_slice(&items[i].bytes);
            i += 1;
        }
        if let Err(e) = bgp
            .write_all(&bgp_buf)
            .and_then(|_| bmp.write_all(&bmp_buf))
        {
            error = Some(format!("paced write: {e}"));
        }
    }
    written.store(true, Ordering::Release);
    // hold the sessions open until the round has been accounted
    while !finished.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = bgp.write_all(&sut::cease_bytes());
    let _ = bmp.write_all(&BmpFeed::termination_frame());
    Written { late_ms, error }
}

/// What the query thread brings back.
struct Queried {
    late_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    failed: u64,
}

/// Thread 2: the open-loop looking-glass mix on one keep-alive connection.
fn query_paced(
    targets: &[String],
    base_ns: u64,
    mut client: HttpClient,
    clock: &ProbeClock,
) -> Queried {
    let mut pacer = Pacer::new(clock);
    let mut failed = 0;
    let gap_ns = (1e9 / QUERIES_PER_S) as u64;
    for (k, target) in targets.iter().enumerate() {
        let due = base_ns + k as u64 * gap_ns;
        pacer.start(due);
        let ok = matches!(client.get(target), Ok((200, body))
            if std::str::from_utf8(&body).is_ok_and(|t| Json::parse(t).is_ok()));
        pacer.complete(due);
        failed += !ok as u64;
    }
    Queried {
        late_ms: pacer.late_ms,
        latency_ms: pacer.latency_ms,
        failed,
    }
}

/// Runs one round.
pub fn round(seed: u64, out_dir: &Path) -> Result<Round, String> {
    let t_setup = Instant::now();
    let inp = inputs(seed);
    let sent = inp.items.len() as u64;
    let sut = Sut::start(SutConfig {
        queue_capacity: QUEUE_CAPACITY,
        validate: true,
        bmp: true,
        ring_capacity: RING_CAPACITY,
        filters: gen::idle_filters(),
        operator_prefix: Some(gen::operator_prefix()),
        retrain: Some(RETRAIN_EVERY),
        archive: out_dir.join(format!("mixed.paced-{seed:016x}.mrt")),
    })
    .map_err(|e| format!("boot: {e}"))?;
    let clock = ProbeClock::new();
    let (done_tx, _done_rx) = std::sync::mpsc::channel();
    let mut storage = sut
        .storage(Vec::new(), clock.clone(), done_tx)
        .map_err(|e| format!("archive: {e}"))?;
    let progress = storage.progress.clone();
    let (start_sampler, stop_sampler) = (AtomicBool::new(false), AtomicBool::new(false));
    let (written, give_up, finished) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );

    let mut r = Round::default();
    let tail = std::thread::scope(|s| -> Result<_, String> {
        let drain = std::thread::Builder::new()
            .name("sut-storage".into())
            .spawn_scoped(s, || {
                sut.drain_into(&mut storage);
                storage
            })
            .expect("spawn storage thread");
        let sampler = proc::spawn_harness(s, "sampler", || {
            sample_gauges(|| sut.queue_depth(), &start_sampler, &stop_sampler)
        });

        let body = (|| -> Result<_, String> {
            let bgp = sut::bgp_connect(sut.bgp_addr(), inp.world.vp(0).asn.value())
                .map_err(|e| format!("handshake: {e}"))?;
            let mut bmp = TcpStream::connect(sut.bmp_addr().expect("bmp listener"))
                .map_err(|e| e.to_string())?;
            bmp.set_nodelay(true).map_err(|e| e.to_string())?;
            bmp.write_all(&BmpFeed::initiation_frame("bench-router"))
                .and_then(|_| {
                    inp.feed
                        .peer_up_frames(0)
                        .iter()
                        .try_for_each(|f| bmp.write_all(f))
                })
                .map_err(|e| format!("bmp open: {e}"))?;
            let reader =
                StreamReader::subscribe(sut.http_addr()).map_err(|e| format!("subscribe: {e}"))?;
            wait_until("sessions, peers and subscriber to be up", 30, || {
                let c = sut.counters();
                c.sessions_opened == 1
                    && c.bmp_peers == BMP_PEERS as u64
                    && sut.stream_subscribers() == 1
            })?;
            let client = HttpClient::new(sut.http_addr());
            proc::release_free_memory();
            start_sampler.store(true, Ordering::Relaxed);
            r.setup_s = t_setup.elapsed().as_secs_f64();
            let rss_before = proc::rss_mb();

            // release: probes are due on the schedule, stamp them all now
            let cpu0 = proc::cpu_snapshot();
            let base_ns = clock.now_ns() + 2_000_000;
            for &(id, due_ns) in &inp.probes {
                clock.stamp(id, base_ns + due_ns);
            }
            let t0 = Instant::now();
            let (items, targets, clock_ref) = (&inp.items, &inp.targets, &*clock);
            let (written_ref, give_up_ref, finished_ref) = (&written, &give_up, &finished);
            let writer = proc::spawn_harness(s, "gen-write", move || {
                write_paced(
                    items,
                    base_ns,
                    bgp,
                    bmp,
                    clock_ref,
                    written_ref,
                    finished_ref,
                )
            });
            let subscriber = proc::spawn_harness(s, "gen-read", move || {
                read_stream(reader, clock_ref, give_up_ref)
            });
            let querier = proc::spawn_harness(s, "gen-query", move || {
                query_paced(targets, base_ns, client, clock_ref)
            });
            let queried = querier.join().expect("query thread");
            let quiet = wait_until("every offered update to be decoded and stored", 60, || {
                let c = sut.counters();
                written.load(Ordering::Acquire)
                    && c.decoded >= sent
                    && progress.load(Ordering::Acquire) as u64 == c.retained
            });
            r.timed_s = t0.elapsed().as_secs_f64();
            r.sut_cpu_s = proc::sut_cpu_s(&cpu0, &proc::cpu_snapshot());
            r.layer.insert(
                "bench_rss_growth_mb",
                (proc::rss_mb() - rss_before).max(0.0),
            );
            if quiet.is_err() {
                give_up.store(true, Ordering::Relaxed);
            }
            Ok((writer, subscriber, queried, quiet))
        })();

        sut.request_stop();
        let storage = drain.join().expect("storage thread");
        stop_sampler.store(true, Ordering::Relaxed);
        let gauges = sampler.join().expect("sampler thread");
        sut.close_stream();
        finished.store(true, Ordering::Release);
        let (writer, subscriber, queried, quiet) = match body {
            Ok(parts) => parts,
            Err(e) => {
                give_up.store(true, Ordering::Relaxed);
                return Err(e);
            }
        };
        let wrote = writer.join().expect("writer thread");
        let seen = subscriber.join().expect("subscriber thread");
        quiet?;
        Ok((storage, gauges, wrote, seen, queried))
    });
    let counters = sut.counters();
    let archive = archive_digest(sut.archive_path());
    let archive_bytes = std::fs::metadata(sut.archive_path()).map_or(0, |m| m.len());
    let mem = sut.store().read().mem_stats();
    let operator_got = sut.operator_received() as u64;
    sut.stop();
    let (storage, gauges, wrote, seen, queried) = tail?;

    let c = &counters;
    let tally = Tally {
        sent,
        stored: gill::collector::Storage::stored(&storage) as u64,
        archived: storage.archived() as u64,
        frames: seen.frames,
        missed: seen.missed,
        operator_got,
    };
    r.errors = accounting_errors(c, &tally);
    r.errors.extend(wrote.error.clone());
    if !seen.eos {
        r.errors
            .push("the stream ended without an eos frame".into());
    }
    if c.bmp_unknown_peer != 0 {
        r.errors.push(format!(
            "{} BMP frames for unknown peers",
            c.bmp_unknown_peer
        ));
    }
    match archive {
        Ok(a) if a.retained == tally.stored => {}
        Ok(a) => r.errors.push(format!(
            "archive holds {} records, stored {}",
            a.retained, tally.stored
        )),
        Err(e) => r.errors.push(format!("archive unreadable: {e}")),
    }

    r.ops = c.decoded;
    r.attempted = sent + inp.targets.len() as u64;
    r.failed = failed_updates(c, &tally) + queried.failed;
    let late = percentile(&wrote.late_ms, 99.0).max(percentile(&queried.late_ms, 99.0));
    let l = &mut r.layer;
    l.insert("bench_generator_late_p99_ms", late);
    l.insert("bmp_frames", c.bmp_updates as f64);
    l.insert("bmp_peers", c.bmp_peers as f64);
    l.insert("bmp_unknown_peer", c.bmp_unknown_peer as f64);
    l.insert("wire_msgs", sent as f64);
    l.insert("wire_nlri_per_msg", 1.0);
    l.insert(
        "wire_bytes",
        inp.items.iter().map(|i| i.bytes.len()).sum::<usize>() as f64,
    );
    l.insert("http_query_p50_ms", percentile(&queried.latency_ms, 50.0));
    l.insert("http_query_p99_ms", percentile(&queried.latency_ms, 99.0));
    pipeline_layer(
        l,
        c,
        c.decoded,
        &gauges,
        &storage.lags_ms,
        (seen.missed, &seen.lags_ms),
        archive_bytes,
        &mem,
    );
    r.rss_peak_mb = gauges.rss_max_mb;
    r.latencies_ms = seen.lags_ms;
    Ok(r)
}

/// The updates a round offers: exactly rate × duration of them, cut from
/// a day generated a little longer (the generator's volume is approximate).
pub fn offered_day(seed: u64) -> (World, Vec<BgpUpdate>) {
    let n = (OFFERED_PER_S * round_s()) as usize;
    let (world, mut day) = gen::scenario_day(seed, 1 + BMP_PEERS, PREFIXES, n + n / 8);
    day.truncate(n);
    gen::tag_probes(&mut day, gen::DAY_PROBE_STRIDE);
    (world, day)
}
