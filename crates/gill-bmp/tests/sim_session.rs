//! BMP sessions over `SimTransport` fault schedules: the same sans-I/O
//! FSM that serves TCP routers, driven deterministically on a virtual
//! clock through corruption, disconnects, half-open peers and seeded
//! random fault mixes — with bit-identical replays and exact pipeline
//! accounting through a real `SessionCtx`.

use bgp_types::{AsPath, Asn, BgpUpdate, Prefix, Timestamp, UpdateBuilder, VpId};
use bgp_wire::{OpenMessage, UpdateMessage};
use crossbeam::channel::{bounded, Receiver};
use gill_bmp::codec::{
    info_type, BmpMessage, InfoTlv, PeerDownReason, PeerHeader, PeerUpMessage, StatCounter,
};
use gill_bmp::fsm::{BmpCloseReason, BmpEvent, BmpFsm, BmpLedger, BmpSessionConfig};
use gill_collector::daemon::{DaemonStats, SessionCtx, UpdateSink};
use gill_collector::storage::StoredUpdate;
use gill_collector::transport::{
    sim_pair, Clock, FaultSchedule, SimTransport, Transport, VirtualClock,
};
use gill_core::{FilterGranularity, FilterHandle, FilterSet};
use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Frame script builders
// ---------------------------------------------------------------------------

fn initiation() -> BmpMessage {
    BmpMessage::Initiation {
        info: vec![InfoTlv::string(info_type::SYS_NAME, "sim-router")],
    }
}

fn peer_up(asn: u32, addr: Ipv4Addr) -> BmpMessage {
    let mut local = [0u8; 16];
    local[12..].copy_from_slice(&[10, 255, 0, 1]);
    BmpMessage::PeerUp(PeerUpMessage {
        peer: PeerHeader::v4(asn, addr, 0, 0),
        local_address: local,
        local_port: 179,
        remote_port: 40000,
        sent_open: OpenMessage::new(Asn(65535), 90, Ipv4Addr::new(10, 255, 0, 1)),
        recv_open: OpenMessage::new(Asn(asn), 90, addr),
        info: vec![],
    })
}

fn route(asn: u32, addr: Ipv4Addr, prefix: u32, ts_ms: u64) -> BmpMessage {
    BmpMessage::RouteMonitoring {
        peer: PeerHeader::v4(asn, addr, 0, ts_ms),
        update: UpdateMessage::announce(
            Prefix::synthetic(prefix),
            AsPath::from_u32s([asn, 174, 3356]),
            Ipv4Addr::new(10, 0, 0, 9),
            vec![],
        ),
    }
}

/// A full day for one router: Initiation, two peers up, interleaved
/// updates, stats, one peer down, Termination.
fn script() -> Vec<BmpMessage> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    vec![
        initiation(),
        peer_up(65010, a),
        peer_up(65020, b),
        route(65010, a, 1, 1_000),
        route(65020, b, 2, 1_100),
        route(65010, a, 3, 1_200),
        BmpMessage::StatsReport {
            peer: PeerHeader::v4(65010, a, 0, 1_300),
            stats: vec![StatCounter::counter(0, 5), StatCounter::gauge(7, 12)],
        },
        BmpMessage::PeerDown {
            peer: PeerHeader::v4(65020, b, 0, 1_400),
            reason: PeerDownReason::RemoteNoData,
        },
        route(65010, a, 4, 1_500),
        BmpMessage::Termination { info: vec![] },
    ]
}

fn encode_script(frames: &[BmpMessage]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        bytes.extend(f.encode_to_vec().unwrap());
    }
    bytes
}

// ---------------------------------------------------------------------------
// Deterministic drive loop
// ---------------------------------------------------------------------------

/// Everything one deterministic run produces, for replay comparison.
#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    reason: Option<BmpCloseReason>,
    ledger: BmpLedger,
    stored: Vec<(VpId, Prefix, Timestamp)>,
    received: usize,
    filtered: usize,
    retained: usize,
}

/// Drives a BMP server endpoint over `transport` on a virtual clock in
/// fixed 10 ms steps, feeding accepted updates through a real
/// `SessionCtx`. Single-threaded and allocation-order-free: identical
/// inputs produce identical outcomes, bit for bit.
fn drive(
    mut transport: SimTransport,
    clock: &VirtualClock,
    cfg: BmpSessionConfig,
    ctx: &SessionCtx,
    queue_rx: &Receiver<StoredUpdate>,
    max_ms: u64,
) -> RunOutcome {
    let mut fsm = BmpFsm::new(cfg, clock.now_ms());
    let mut chunk = [0u8; 4096];
    let mut reason = None;
    let start = clock.now_ms();
    'outer: while clock.now_ms() - start < max_ms {
        loop {
            match transport.read(&mut chunk) {
                Ok(0) => {
                    fsm.handle_eof(clock.now_ms());
                    break;
                }
                Ok(n) => fsm.handle_bytes(&chunk[..n], clock.now_ms()),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected transport error: {e}"),
            }
        }
        fsm.tick(clock.now_ms());
        while let Some(event) = fsm.poll_event() {
            match event {
                BmpEvent::Update { vp, update, ts_ms } => {
                    ctx.offer(vp, update, Timestamp::from_millis(ts_ms));
                }
                BmpEvent::Closed(r) => {
                    reason = Some(r);
                    break 'outer;
                }
                _ => {}
            }
        }
        clock.advance_ms(10);
    }
    let stored: Vec<_> = queue_rx
        .try_iter()
        .map(|s| (s.update.vp, s.update.prefix, s.update.time))
        .collect();
    RunOutcome {
        reason,
        ledger: fsm.ledger(),
        stored,
        received: ctx.stats.received.load(Ordering::Relaxed),
        filtered: ctx.stats.filtered.load(Ordering::Relaxed),
        retained: ctx.stats.retained.load(Ordering::Relaxed),
    }
}

fn pipeline(filters: &Arc<FilterHandle>) -> (SessionCtx, Receiver<StoredUpdate>) {
    let (tx, rx) = bounded(1024);
    let ctx = SessionCtx::new(filters.view(), tx, Arc::new(DaemonStats::default()));
    (ctx, rx)
}

fn run_with_faults(faults: FaultSchedule, cfg: BmpSessionConfig) -> RunOutcome {
    let clock = VirtualClock::new();
    let (mut client, server) = sim_pair(&clock, faults, FaultSchedule::none());
    // the writer keeps its socket open: a stalled run stays half-open
    // (only the idle timer can reclaim it), a severed run sees EOF, a
    // clean run closes on the script's Termination frame
    let _ = client.write_all(&encode_script(&script()));
    let filters = FilterHandle::empty();
    let (ctx, rx) = pipeline(&filters);
    drive(server, &clock, cfg, &ctx, &rx, 60_000)
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

#[test]
fn clean_session_demuxes_into_the_pipeline() {
    let out = run_with_faults(FaultSchedule::none(), BmpSessionConfig::default());
    assert_eq!(out.reason, Some(BmpCloseReason::Terminated));
    // 4 updates from 2 peers, attributed and timestamped from the
    // per-peer headers
    assert_eq!(
        out.stored,
        vec![
            (
                VpId::new(Asn(65010), 0),
                Prefix::synthetic(1),
                Timestamp::from_millis(1_000)
            ),
            (
                VpId::new(Asn(65020), 0),
                Prefix::synthetic(2),
                Timestamp::from_millis(1_100)
            ),
            (
                VpId::new(Asn(65010), 0),
                Prefix::synthetic(3),
                Timestamp::from_millis(1_200)
            ),
            (
                VpId::new(Asn(65010), 0),
                Prefix::synthetic(4),
                Timestamp::from_millis(1_500)
            ),
        ]
    );
    assert_eq!(out.received, 4);
    assert_eq!(out.retained, 4);
    assert_eq!(out.ledger.peer_ups, 2);
    assert_eq!(out.ledger.peer_downs, 1);
    assert_eq!(out.ledger.stats_reports, 1);
    assert_eq!(out.ledger.unknown_peer, 0);
}

#[test]
fn filters_judge_bmp_updates_like_bgp_ones() {
    let clock = VirtualClock::new();
    let (mut client, server) = sim_pair(&clock, FaultSchedule::none(), FaultSchedule::none());
    let _ = client.write_all(&encode_script(&script()));
    let filters = FilterHandle::empty();
    // drop (vp(65010), prefix 1) — exactly one of the four updates
    let template = UpdateBuilder::announce(VpId::new(Asn(65010), 0), Prefix::synthetic(1))
        .path([65010, 174, 3356])
        .build();
    let compiled = filters.compile_next(&FilterSet::generate(
        [],
        [&template],
        FilterGranularity::VpPrefix,
    ));
    filters.publish(compiled);
    let (ctx, rx) = pipeline(&filters);
    let out = drive(
        server,
        &clock,
        BmpSessionConfig::default(),
        &ctx,
        &rx,
        60_000,
    );
    assert_eq!(out.received, 4);
    assert_eq!(out.filtered, 1);
    assert_eq!(out.retained, 3);
    assert!(out
        .stored
        .iter()
        .all(|(vp, p, _)| !(*vp == VpId::new(Asn(65010), 0) && *p == Prefix::synthetic(1))));
}

#[test]
fn corrupt_version_byte_closes_with_decode_error() {
    // offset 0 is the first frame's version byte
    let out = run_with_faults(
        FaultSchedule::parse("corrupt@0.1").unwrap(),
        BmpSessionConfig::default(),
    );
    assert!(
        matches!(out.reason, Some(BmpCloseReason::DecodeError(_))),
        "{:?}",
        out.reason
    );
    assert!(out.stored.is_empty());
}

#[test]
fn sever_mid_frame_is_distinguished_and_keeps_earlier_updates() {
    let frames = script();
    let bytes = encode_script(&frames);
    // cut inside the last Route Monitoring frame: everything before it
    // still delivers
    let cut = bytes.len() as u64 - 20;
    let out = run_with_faults(
        FaultSchedule::parse(&format!("sever@{cut}")).unwrap(),
        BmpSessionConfig::default(),
    );
    assert_eq!(out.reason, Some(BmpCloseReason::PeerClosedMidMessage));
    assert_eq!(out.stored.len(), 3, "updates before the cut survive");
}

#[test]
fn stall_trips_the_idle_timeout() {
    // half-open after the third frame: no EOF ever arrives, so only the
    // idle timer can reclaim the session
    let out = run_with_faults(
        FaultSchedule::parse("stall@200").unwrap(),
        BmpSessionConfig {
            idle_timeout_ms: 2_000,
            ..BmpSessionConfig::default()
        },
    );
    assert_eq!(out.reason, Some(BmpCloseReason::IdleTimeout));
}

/// Seeded random fault mixes: whatever happens, the run must be
/// deterministic — same seed, same outcome, bit for bit — and the
/// pipeline accounting must stay exact (received == filtered + retained,
/// queue never lied to).
#[test]
fn random_fault_schedules_replay_bit_identically() {
    for seed in 0..24u64 {
        let sched = FaultSchedule::random(seed, 700);
        let cfg = BmpSessionConfig {
            idle_timeout_ms: 3_000,
            ..BmpSessionConfig::default()
        };
        let a = run_with_faults(sched.clone(), cfg.clone());
        let b = run_with_faults(sched.clone(), cfg);
        assert_eq!(
            a, b,
            "seed {seed} schedule `{sched}` must replay identically"
        );
        assert_eq!(
            a.received,
            a.filtered + a.retained,
            "seed {seed}: exact ingest accounting"
        );
        assert_eq!(a.stored.len(), a.retained, "seed {seed}");
        assert!(a.reason.is_some(), "seed {seed}: session must terminate");
    }
}

/// A live-stream sink that publishes its first `cap` offers and sheds the
/// rest, like a broker whose ring is full.
struct CappedSink {
    cap: usize,
    published: AtomicUsize,
}

impl UpdateSink for CappedSink {
    fn offer(&self, _update: &BgpUpdate) -> bool {
        self.published.fetch_add(1, Ordering::Relaxed) < self.cap
    }

    fn subscribers(&self) -> usize {
        1
    }
}

/// Line-rate overload through a real `SessionCtx`: the bounded storage
/// queue (never drained during the run) and the stream sink both shed,
/// trained filters drop a known share, and every update still lands in
/// exactly one counter — `received == retained + filtered + lost`, the
/// queue holds exactly `retained`, and the sink saw exactly the
/// filter-accepted stream (`published + shed == retained + lost`).
#[test]
fn bounded_queue_sheds_and_accounting_stays_exact() {
    const ROUTES: u32 = 40; // per peer
    const QUEUE_CAP: usize = 16;
    const SINK_CAP: usize = 50;
    let peers = [
        (65010, Ipv4Addr::new(10, 0, 0, 1)),
        (65020, Ipv4Addr::new(10, 0, 0, 2)),
    ];
    let mut frames = vec![initiation()];
    frames.extend(peers.iter().map(|&(asn, addr)| peer_up(asn, addr)));
    let mut routes = Vec::new();
    for p in 0..ROUTES {
        for &(asn, addr) in &peers {
            frames.push(route(asn, addr, p, 1_000 + p as u64));
            routes.push(
                UpdateBuilder::announce(VpId::new(Asn(asn), 0), Prefix::synthetic(p))
                    .path([asn, 174, 3356])
                    .build(),
            );
        }
    }
    frames.push(BmpMessage::Termination { info: vec![] });
    // drop rules on every 4th route: 20 of the 80
    let train = FilterSet::generate([], routes.iter().step_by(4), FilterGranularity::VpPrefix);

    let run = || {
        let clock = VirtualClock::new();
        let (mut client, server) = sim_pair(&clock, FaultSchedule::none(), FaultSchedule::none());
        let _ = client.write_all(&encode_script(&frames));
        let filters = FilterHandle::empty();
        filters.publish(filters.compile_next(&train));
        let (tx, rx) = bounded(QUEUE_CAP);
        let sink = Arc::new(CappedSink {
            cap: SINK_CAP,
            published: AtomicUsize::new(0),
        });
        let ctx = SessionCtx::new(filters.view(), tx, Arc::new(DaemonStats::default()))
            .with_sink(sink.clone());
        let out = drive(
            server,
            &clock,
            BmpSessionConfig::default(),
            &ctx,
            &rx,
            60_000,
        );
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        let counts = (
            load(&ctx.stats.lost),
            load(&ctx.stats.stream_published),
            load(&ctx.stats.stream_shed),
        );
        (out, counts)
    };

    let (out, (lost, published, stream_shed)) = run();
    assert_eq!(out.reason, Some(BmpCloseReason::Terminated));
    assert_eq!(out.ledger.route_monitoring, 2 * ROUTES as u64);
    assert_eq!(out.ledger.unknown_peer, 0);
    assert_eq!(out.received, routes.len());
    assert_eq!(
        out.filtered,
        routes.len() / 4,
        "each drop rule matched once"
    );
    assert_eq!(
        out.received,
        out.retained + out.filtered + lost,
        "ingest accounting"
    );
    assert_eq!(out.retained, QUEUE_CAP, "the queue bounds what is retained");
    assert!(lost > 0, "the bounded queue never shed");
    assert_eq!(out.stored.len(), out.retained, "queue drained to the store");
    assert_eq!(
        published + stream_shed,
        out.retained + lost,
        "sink sees exactly the filter-accepted stream"
    );
    assert_eq!((published, stream_shed), (SINK_CAP, 60 - SINK_CAP));
    assert_eq!(
        run(),
        (out, (lost, published, stream_shed)),
        "overload must replay identically"
    );
}
