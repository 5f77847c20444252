//! The load side shared by the ingesting workloads: the non-blocking
//! script writer, the read-and-discard sink of the headroom guard, the
//! in-process stream subscriber, the gauge sampler, and the archive
//! read-back that checks the output.

use crate::gen::{fold_term, Reference, Script};
use crate::pace::{probe_id, ProbeClock};
use crate::stats::percentile;
use crate::sut::Counters;
use gill::query::StoreMemStats;
use gill::stream::{Delivery, FramePayload, Subscription};
use gill::types::{Timestamp, VpId};
use gill::wire::{BgpMessage, MrtReader};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How a generator groups a session's messages into one `write`.
#[derive(Clone, Copy)]
pub enum Burst {
    /// This many whole messages per write (many slow peers).
    Msgs(usize),
    /// Whole messages up to this many bytes per write (a table transfer).
    Bytes(usize),
}

/// Where a script's bursts end: `(byte offset, updates decoded by then)`.
pub fn burst_ends(script: &Script, burst: Burst) -> Vec<(u32, u32)> {
    let msgs = || {
        script
            .msg_ends
            .iter()
            .copied()
            .zip(script.upd_ends.iter().copied())
    };
    let mut ends: Vec<(u32, u32)> = Vec::new();
    match burst {
        Burst::Msgs(k) => ends.extend(msgs().skip(k - 1).step_by(k)),
        Burst::Bytes(n) => {
            let (mut start, mut prev) = (0u32, None);
            for m in msgs() {
                if let Some(p) = prev.filter(|_| m.0 - start > n as u32) {
                    ends.push(p);
                    start = p.0;
                }
                prev = Some(m);
            }
        }
    }
    if let Some(last) = msgs().next_back().filter(|l| ends.last() != Some(l)) {
        ends.push(last);
    }
    ends
}

/// One generator-side connection and how far its script has been written.
pub struct Conn<'a> {
    pub stream: TcpStream,
    script: &'a Script,
    ends: Vec<(u32, u32)>,
    off: usize,
    next_end: usize,
    next_probe: usize,
}

impl<'a> Conn<'a> {
    pub fn new(stream: TcpStream, script: &'a Script, burst: Burst) -> std::io::Result<Conn<'a>> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            script,
            ends: burst_ends(script, burst),
            off: 0,
            next_end: 0,
            next_probe: 0,
        })
    }
}

/// The closed loop's window: a burst is written only while fewer than
/// `limit` updates are in flight (written but not yet filtered or stored).
pub struct Window<'a> {
    /// Updates in flight allowed.
    pub limit: u64,
    /// Updates written before this pump started.
    pub sent_before: u64,
    /// Updates the system has finished with so far (filtered, rejected or
    /// stored).
    pub completed: &'a dyn Fn() -> u64,
}

/// Writes every connection's script up to its `limit` byte offset, one
/// burst per connection per pass, never blocking on a full socket and
/// never exceeding `window`. Probe messages are stamped on `clock` just
/// before the write that carries their last byte. One thread multiplexes
/// all connections. Gives up with an error once `abort` is set (the round
/// already failed elsewhere).
pub fn pump(
    conns: &mut [Conn],
    limits: &[usize],
    clock: &ProbeClock,
    abort: &AtomicBool,
    window: Option<&Window>,
) -> std::io::Result<()> {
    let mut sent = window.map_or(0, |w| w.sent_before);
    // where the next pass starts, so a full window starves no session
    let mut cursor = 0;
    loop {
        if abort.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("round aborted"));
        }
        let (mut pending, mut progressed) = (false, false);
        for k in 0..conns.len() {
            let i = (cursor + k) % conns.len();
            let (c, limit) = (&mut conns[i], limits[i]);
            if c.off >= limit {
                continue;
            }
            pending = true;
            if window.is_some_and(|w| sent.saturating_sub((w.completed)()) >= w.limit) {
                cursor = i;
                break;
            }
            while (c.ends[c.next_end].0 as usize) <= c.off {
                c.next_end += 1;
            }
            let (burst_end, burst_updates) = c.ends[c.next_end];
            let end = (burst_end as usize).min(limit);
            let now = clock.now_ns();
            for &(_, id) in c.script.probes[c.next_probe..]
                .iter()
                .take_while(|(at, _)| *at as usize <= end)
            {
                clock.stamp(id, now);
            }
            match c.stream.write(&c.script.bytes[c.off..end]) {
                Ok(n) => {
                    c.off += n;
                    progressed |= n > 0;
                    if c.off == burst_end as usize {
                        let before = c.next_end.checked_sub(1).map_or(0, |i| c.ends[i].1);
                        sent += (burst_updates - before) as u64;
                    }
                    while c
                        .script
                        .probes
                        .get(c.next_probe)
                        .is_some_and(|(at, _)| *at as usize <= c.off)
                    {
                        c.next_probe += 1;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
        if !pending {
            return Ok(());
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Generator-only rate: writes the scripts into a read-and-discard sink
/// over loopback and returns domain updates per second. The guard that
/// keeps the benchmark from measuring itself.
pub fn generator_only_rate(scripts: &[Script], burst: Burst) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr: SocketAddr = listener.local_addr()?;
    let n = scripts.len();
    let clock = ProbeClock::new();
    std::thread::scope(|s| {
        let sink = crate::proc::spawn_harness(s, "sink", move || -> std::io::Result<()> {
            let mut socks = Vec::with_capacity(n);
            for _ in 0..n {
                let (sock, _) = listener.accept()?;
                sock.set_nonblocking(true)?;
                socks.push(Some(sock));
            }
            let mut buf = vec![0u8; 64 * 1024];
            let mut open = n;
            while open > 0 {
                let mut progressed = false;
                for slot in socks.iter_mut() {
                    let Some(sock) = slot else { continue };
                    match sock.read(&mut buf) {
                        Ok(0) => {
                            *slot = None;
                            open -= 1;
                        }
                        Ok(_) => progressed = true,
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock | ErrorKind::Interrupted
                            ) => {}
                        Err(e) => return Err(e),
                    }
                }
                if !progressed {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            Ok(())
        });
        let mut conns = Vec::with_capacity(n);
        for script in scripts {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            conns.push(Conn::new(stream, script, burst)?);
        }
        let limits: Vec<usize> = scripts.iter().map(|s| s.bytes.len()).collect();
        let t = Instant::now();
        pump(&mut conns, &limits, &clock, &AtomicBool::new(false), None)?;
        let secs = t.elapsed().as_secs_f64();
        drop(conns);
        sink.join().expect("sink thread")?;
        let updates: u64 = scripts.iter().map(|s| s.updates).sum();
        Ok(updates as f64 / secs)
    })
}

/// What the in-process subscriber saw.
#[derive(Default)]
pub struct Subscribed {
    pub frames: u64,
    pub missed: u64,
    /// Probe stamp → frame delivered to the subscriber.
    pub lags_ms: Vec<f64>,
}

/// Follows the live stream until it closes, counting update frames and
/// frames lost to gap markers, and timing probes. It polls (1 ms) and
/// never parks on the ring: a parked reader makes every publish pay a
/// condvar wake, which splits closed-loop rounds into a fast and a slow
/// mode depending on whether the reader happens to keep up. The parked
/// reader is `mixed.paced`'s HTTP streamer.
pub fn follow_stream(mut sub: Subscription, clock: &ProbeClock) -> Subscribed {
    let mut seen = Subscribed::default();
    loop {
        match sub.poll_next() {
            Delivery::Frame(f) => match &f.payload {
                FramePayload::Update(u) => {
                    seen.frames += 1;
                    if let Some(lag) = probe_id(u).and_then(|id| clock.lag_ms(id)) {
                        seen.lags_ms.push(lag);
                    }
                }
                FramePayload::Gap { missed } => seen.missed += missed,
                FramePayload::Eos { .. } => {}
            },
            Delivery::Gap(f) => {
                if let FramePayload::Gap { missed } = &f.payload {
                    seen.missed += missed;
                }
            }
            Delivery::Overrun { missed } => seen.missed += missed,
            Delivery::Pending => std::thread::sleep(Duration::from_millis(1)),
            Delivery::Closed => return seen,
        }
    }
}

/// Gauges sampled while a round runs.
#[derive(Default)]
pub struct Gauges {
    pub queue_depth_max: f64,
    pub queue_depth_mean: f64,
    pub rss_max_mb: f64,
}

/// Samples queue depth (every 2 ms) and resident memory (every 16 ms)
/// from `start` (the end of set-up) until `stop`.
pub fn sample_gauges(
    queue_depth: impl Fn() -> usize,
    start: &AtomicBool,
    stop: &AtomicBool,
) -> Gauges {
    let (mut sum, mut n) = (0f64, 0u64);
    let mut g = Gauges::default();
    while !start.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(1));
    }
    while !stop.load(Ordering::Relaxed) {
        let depth = queue_depth() as f64;
        g.queue_depth_max = g.queue_depth_max.max(depth);
        sum += depth;
        n += 1;
        if n % 8 == 0 {
            g.rss_max_mb = g.rss_max_mb.max(crate::proc::rss_mb());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    g.rss_max_mb = g.rss_max_mb.max(crate::proc::rss_mb());
    g.queue_depth_mean = sum / n.max(1) as f64;
    g
}

/// Reads the MRT archive back and folds the retained multiset exactly as
/// [`crate::gen::reference`] does (arrival time zeroed). `decoded` is
/// left at 0: the archive knows only what was kept.
pub fn archive_digest(path: &Path) -> Result<Reference, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = MrtReader::new(std::io::BufReader::with_capacity(1 << 20, file));
    let mut r = Reference::default();
    while let Some(rec) = reader.next_record().map_err(|e| e.to_string())? {
        let BgpMessage::Update(msg) = &rec.message else {
            return Err("archive holds a non-UPDATE record".into());
        };
        for u in msg.to_domain(VpId::from_asn(rec.peer_as), Timestamp::ZERO) {
            r.retained += 1;
            r.fold = r.fold.wrapping_add(fold_term(&u));
        }
    }
    if reader.skipped() != 0 {
        return Err(format!(
            "archive holds {} unreadable records",
            reader.skipped()
        ));
    }
    Ok(r)
}

/// Polls `cond` every 200 µs for up to `secs` seconds.
pub fn wait_until(what: &str, secs: u64, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// What a round's outputs add up to, beside the collector's own counters.
pub struct Tally {
    /// Updates the generator put on the wire.
    pub sent: u64,
    pub stored: u64,
    pub archived: u64,
    /// Update frames the stream subscriber received, and frames it lost.
    pub frames: u64,
    pub missed: u64,
    /// Updates the operator's forwarding subscription delivered.
    pub operator_got: u64,
}

/// The exactness contracts every ingesting round must meet: nothing is
/// uncounted anywhere in the path. Returns the ones that do not hold.
pub fn accounting_errors(c: &Counters, t: &Tally) -> Vec<String> {
    let checks = [
        (
            c.decoded == t.sent,
            format!("decoded {} != sent {}", c.decoded, t.sent),
        ),
        (
            c.decoded == c.retained + c.filtered + c.invalid + c.lost,
            format!(
                "decoded {} != retained {} + filtered {} + invalid {} + shed {}",
                c.decoded, c.retained, c.filtered, c.invalid, c.lost
            ),
        ),
        (
            c.retained == t.stored && t.stored == t.archived,
            format!(
                "retained {} != stored {} or archived {}",
                c.retained, t.stored, t.archived
            ),
        ),
        (
            c.stream_published + c.stream_shed == c.retained + c.lost,
            format!(
                "published {} + stream_shed {} != retained {} + shed {}",
                c.stream_published, c.stream_shed, c.retained, c.lost
            ),
        ),
        (
            t.frames + t.missed == c.stream_published,
            format!(
                "subscriber frames {} + missed {} != published {}",
                t.frames, t.missed, c.stream_published
            ),
        ),
        (
            c.forwarded == t.operator_got,
            format!(
                "forwarded {} != operator received {}",
                c.forwarded, t.operator_got
            ),
        ),
    ];
    checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what)
        .collect()
}

/// Updates that were shed somewhere they should not have been.
pub fn failed_updates(c: &Counters, t: &Tally) -> u64 {
    c.lost + c.stream_shed + t.missed + c.decoded.abs_diff(t.sent)
}

/// The store's interning counters as per-layer values.
pub fn store_layer(l: &mut BTreeMap<&'static str, f64>, mem: &StoreMemStats) {
    l.insert("store_dedup_ratio", mem.dedup_ratio);
    l.insert(
        "store_arena_entries",
        (mem.arena_paths + mem.arena_comm_sets + mem.arena_link_sets + mem.arena_prefixes) as f64,
    );
}

/// The live per-layer values every ingesting round reports. `c` carries
/// the runtime's event counts for the timed region, `ops` the updates
/// decoded in it.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_layer(
    l: &mut BTreeMap<&'static str, f64>,
    c: &Counters,
    ops: u64,
    gauges: &Gauges,
    stored_lags_ms: &[f64],
    seen: (u64, &[f64]),
    archive_bytes: u64,
    mem: &StoreMemStats,
) {
    let (missed, stream_lags_ms) = seen;
    for (name, value) in [
        ("runtime_ready_events", c.ready_events as f64),
        ("runtime_wakes", c.wakes as f64),
        ("runtime_timer_fires", c.timer_fires as f64),
        (
            "runtime_updates_per_ready_event",
            ops as f64 / c.ready_events.max(1) as f64,
        ),
        ("collector_queue_depth_max", gauges.queue_depth_max),
        ("collector_queue_depth_mean", gauges.queue_depth_mean),
        (
            "collector_stored_lag_p99_ms",
            percentile(stored_lags_ms, 99.0),
        ),
        ("collector_lost", c.lost as f64),
        ("collector_mirror_fed", c.mirror_fed as f64),
        ("collector_mirror_dropped", c.mirror_dropped as f64),
        ("collector_epochs_published", c.filter_epoch as f64),
        (
            "core_discard_ratio",
            c.filtered as f64 / c.decoded.max(1) as f64,
        ),
        ("stream_published", c.stream_published as f64),
        ("stream_shed", c.stream_shed as f64),
        ("stream_missed", missed as f64),
        ("stream_lag_p50_ms", percentile(stream_lags_ms, 50.0)),
        ("stream_lag_p99_ms", percentile(stream_lags_ms, 99.0)),
        (
            "store_archive_bytes_per_update",
            archive_bytes as f64 / c.retained.max(1) as f64,
        ),
        ("http_refused", c.http_refused as f64),
    ] {
        l.insert(name, value);
    }
    store_layer(l, mem);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::table_inputs;

    #[test]
    fn bursts_cover_the_script_on_message_boundaries() {
        let t = table_inputs(3, 1, 5_000);
        let s = &t.scripts[0];
        for burst in [Burst::Msgs(8), Burst::Msgs(1), Burst::Bytes(16 * 1024)] {
            let ends = burst_ends(s, burst);
            assert_eq!(ends.last().map(|e| e.0), s.msg_ends.last().copied());
            assert_eq!(ends.last().map(|e| e.1 as u64), Some(s.updates));
            assert!(ends.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
            assert!(ends.iter().all(|e| s.msg_ends.binary_search(&e.0).is_ok()));
        }
        assert_eq!(
            burst_ends(s, Burst::Msgs(8)).len(),
            s.msg_ends.len().div_ceil(8)
        );
        let by_bytes = burst_ends(s, Burst::Bytes(16 * 1024));
        assert!(by_bytes.windows(2).all(|w| w[1].0 - w[0].0 <= 16 * 1024));
    }

    #[test]
    fn generator_only_rate_writes_everything() {
        let t = table_inputs(3, 2, 20_000);
        let rate = generator_only_rate(&t.scripts, Burst::Bytes(64 * 1024)).unwrap();
        assert!(rate > 0.0);
    }
}
