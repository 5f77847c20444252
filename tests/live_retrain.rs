//! Live-daemon retrain: a collector with three simulated sessions runs
//! through a filter refresh mid-stream. No session drops, pre-epoch
//! updates are judged by the old filters, post-epoch updates by the new,
//! and the per-epoch `DaemonStats` counters account for every update.

use gill::bmp::BmpStats;
use gill::collector::{
    handshake_client, sim_pair, CloseReason, DaemonConfig, DaemonStats, FaultSchedule,
    MessageStream, Orchestrator, OrchestratorConfig, SessionConfig, SessionCtx, SessionEvent,
    SessionFsm, SessionRole, SimTransport, Transport, VirtualClock,
};
use gill::core::{FilterGranularity, FilterHandle, FilterSet};
use gill::prelude::*;
use gill::runtime::{Event, EventLoop, EventedPool, Machine, RuntimeConfig, SimReactor, Token};
use gill::wire::{BgpMessage, Notification, UpdateMessage};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn wait_until(cond: impl Fn() -> bool) -> bool {
    for _ in 0..2000 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn announce(asn: u32, prefix: u32) -> UpdateMessage {
    UpdateMessage::announce(
        Prefix::synthetic(prefix),
        AsPath::from_u32s([asn, 174, 3356]),
        Ipv4Addr::new(10, 0, 0, 9),
        vec![],
    )
}

/// What `DaemonPool::install_filters` does, for the pool-less sim setup:
/// reset the epoch's counter slot *before* publishing it.
fn publish(handle: &Arc<FilterHandle>, stats: &DaemonStats, fs: &FilterSet) -> u64 {
    let compiled = handle.compile_next(fs);
    stats.begin_epoch(compiled.epoch());
    let e = handle.publish(compiled);
    stats.filter_epoch.store(e, Ordering::Release);
    e
}

const PEERS: [u32; 3] = [65001, 65002, 65003];

/// The peer side of one simulated session: an active FSM pumped over
/// its end of a `sim_pair` link, on the same virtual instant as the
/// collector.
struct SimPeer {
    fsm: SessionFsm,
    link: SimTransport,
}

impl SimPeer {
    fn new(asn: u32, link: SimTransport) -> SimPeer {
        let mut fsm = SessionFsm::new(
            SessionRole::Active,
            SessionConfig {
                local_asn: asn,
                router_id: Ipv4Addr::new(10, 255, 0, 1),
                ..SessionConfig::default()
            },
        );
        fsm.start(0);
        SimPeer { fsm, link }
    }

    /// Puts queued output on the link, then consumes what arrived.
    fn pump(&mut self) {
        while self.fsm.has_output() {
            let out = self.fsm.take_output();
            self.link.write_all(&out).expect("sim link open");
        }
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = self.link.read(&mut buf) {
            self.fsm.handle_bytes(&buf[..n], 0);
        }
    }
}

/// Alternates peer pumps with collector loop turns (every session
/// readable) until the exchange settles: the links deliver instantly, so
/// a handful of rounds completes any handshake, burst or close.
fn settle(el: &mut EventLoop<SimTransport, SimReactor>, peers: &mut [SimPeer], tokens: &[Token]) {
    let mut other = Vec::new();
    for _ in 0..8 {
        for p in peers.iter_mut() {
            p.pump();
        }
        let batch = tokens
            .iter()
            .map(|&token| Event {
                token,
                readable: true,
                writable: false,
                closed: false,
                error: false,
            })
            .collect();
        el.source_mut().push_batch(batch);
        el.run_once(None, &mut other).unwrap();
    }
}

#[test]
fn refresh_mid_stream_over_three_sim_sessions() {
    let clock = VirtualClock::new();
    let handle = FilterHandle::empty();
    let stats = Arc::new(DaemonStats::default());
    let (queue_tx, queue_rx) = crossbeam::channel::bounded(1024);
    let (mirror_tx, mirror_rx) = crossbeam::channel::bounded(1024);
    let cfg = DaemonConfig::default();

    // one event loop serves all three sessions on the virtual clock
    let mut ctx = SessionCtx::new(handle.view(), queue_tx.clone(), stats.clone());
    ctx.mirror = Some(mirror_tx.clone());
    ctx.mirror_on = Arc::new(AtomicBool::new(true));
    let mut el: EventLoop<SimTransport, SimReactor> = EventLoop::new(
        SimReactor::new(),
        Arc::new(clock.clone()),
        ctx,
        Arc::new(BmpStats::default()),
    );
    let closes: Arc<Mutex<Vec<CloseReason>>> = Arc::default();
    {
        let closes = closes.clone();
        el.set_event_tap(Box::new(move |_token, ev| {
            if let SessionEvent::Closed(r) = ev {
                closes.lock().unwrap().push(r.clone());
            }
        }));
    }
    let mut peers = Vec::new();
    let mut tokens = Vec::new();
    for &asn in &PEERS {
        let (srv_t, cli_t) = sim_pair(&clock, FaultSchedule::default(), FaultSchedule::default());
        let fsm = SessionFsm::new(SessionRole::Passive, cfg.session_config());
        tokens.push(el.add_session(srv_t, None, Machine::Bgp(fsm)).unwrap());
        peers.push(SimPeer::new(asn, cli_t));
    }
    settle(&mut el, &mut peers, &tokens);
    assert!(peers.iter().all(|p| p.fsm.reached_established()));

    // phase 1: 30 updates all judged by epoch 0 (accept-all)
    for (p, &asn) in peers.iter_mut().zip(&PEERS) {
        for prefix in 0..10 {
            p.fsm.send_update(&announce(asn, prefix));
        }
    }
    settle(&mut el, &mut peers, &tokens);
    assert_eq!(
        stats.retained.load(Ordering::Relaxed),
        30,
        "phase-1 updates must all be retained"
    );
    assert_eq!(stats.received.load(Ordering::Relaxed), 30);
    assert_eq!(stats.epoch_counts(0), Some((30, 0)));

    // mid-stream refresh: drop (vp, prefix 0) for every peer
    let rules: Vec<BgpUpdate> = PEERS
        .iter()
        .map(|&asn| {
            UpdateBuilder::announce(VpId::from_asn(Asn(asn)), Prefix::synthetic(0))
                .path([asn, 174, 3356])
                .build()
        })
        .collect();
    let fs = FilterSet::generate([], rules.iter(), FilterGranularity::VpPrefix);
    assert_eq!(publish(&handle, &stats, &fs), 1);

    // phase 2: 30 more updates, 3 of them (prefix 0) judged by epoch 1
    for (p, &asn) in peers.iter_mut().zip(&PEERS) {
        for prefix in 0..10 {
            p.fsm.send_update(&announce(asn, prefix));
        }
    }
    settle(&mut el, &mut peers, &tokens);
    assert_eq!(
        stats.received.load(Ordering::Relaxed),
        60,
        "phase-2 updates must all arrive"
    );
    assert_eq!(
        stats.retained.load(Ordering::Relaxed) + stats.filtered.load(Ordering::Relaxed),
        60
    );

    // every peer ends its session with a Cease
    for p in &mut peers {
        p.fsm.close_gracefully();
    }
    settle(&mut el, &mut peers, &tokens);
    assert_eq!(el.session_count(), 0);
    let reasons = closes.lock().unwrap().clone();

    // no session drops: every close was the client's graceful cease
    assert_eq!(reasons.len(), PEERS.len());
    for r in &reasons {
        assert!(
            matches!(r, CloseReason::NotificationReceived { code: 6, .. }),
            "session must close gracefully, got {r:?}"
        );
    }
    assert_eq!(stats.hold_expirations.load(Ordering::Relaxed), 0);

    // attribution: epoch 0 judged exactly the 30 pre-refresh updates,
    // epoch 1 the 30 post-refresh ones (27 accepted, 3 dropped)
    assert_eq!(stats.epoch_counts(0), Some((30, 0)));
    assert_eq!(stats.epoch_counts(1), Some((27, 3)));
    assert_eq!(stats.filtered.load(Ordering::Relaxed), 3);
    assert_eq!(stats.retained.load(Ordering::Relaxed), 57);
    // every received update is accounted to exactly one epoch
    let (a0, d0) = stats.epoch_counts(0).unwrap();
    let (a1, d1) = stats.epoch_counts(1).unwrap();
    assert_eq!(
        (a0 + d0 + a1 + d1) as usize,
        stats.received.load(Ordering::Relaxed)
    );

    // the unfiltered stream reached the mirror; a real orchestrator can
    // train on it and publish the next epoch
    assert_eq!(stats.mirror_fed.load(Ordering::Relaxed), 60);
    assert_eq!(stats.mirror_dropped.load(Ordering::Relaxed), 0);
    let mut orch = Orchestrator::new(
        OrchestratorConfig::default(),
        PEERS.iter().map(|&a| VpId::from_asn(Asn(a))).collect(),
        HashMap::new(),
    );
    orch.observe(mirror_rx.try_iter().map(|u: BgpUpdate| u));
    assert_eq!(orch.mirror_len(), 60);
    orch.force_refresh(Timestamp::from_secs(60), true);
    assert_eq!(publish(&handle, &stats, orch.filters()), 2);
    assert_eq!(handle.epoch(), 2);

    drop(queue_tx);
    assert_eq!(queue_rx.try_iter().count(), 57);
}

#[test]
fn attached_orchestrator_retrains_live_tcp_pool() {
    let mut pool =
        EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None).unwrap();
    let orch = Orchestrator::new(
        OrchestratorConfig::default(),
        PEERS.iter().map(|&a| VpId::from_asn(Asn(a))).collect(),
        HashMap::new(),
    );
    pool.pool_mut()
        .attach_orchestrator(orch, Duration::from_millis(200))
        .unwrap();
    // attaching twice is an error, not a second driver
    let orch2 = Orchestrator::new(OrchestratorConfig::default(), Vec::new(), HashMap::new());
    assert!(pool
        .pool_mut()
        .attach_orchestrator(orch2, Duration::from_millis(200))
        .is_err());
    let addr = pool.bgp_addr().unwrap();
    let stats = pool.stats();
    let phase2 = Barrier::new(PEERS.len() + 1);
    let opened = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for &asn in &PEERS {
            let phase2 = &phase2;
            let opened = &opened;
            s.spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let mut ms = MessageStream::new(stream);
                handshake_client(&mut ms, asn).unwrap();
                opened.fetch_add(1, Ordering::Relaxed);
                for p in 0..20 {
                    ms.write_message(&BgpMessage::Update(announce(asn, p)))
                        .unwrap();
                }
                // hold the session open across the background retrain
                phase2.wait();
                for p in 0..5 {
                    ms.write_message(&BgpMessage::Update(announce(asn, p)))
                        .unwrap();
                }
                ms.write_message(&BgpMessage::Notification(Notification::cease()))
                    .unwrap();
            });
        }
        // the driver drains the mirror and publishes a new epoch without
        // touching the live sessions
        assert!(
            wait_until(|| stats.filter_epoch.load(Ordering::Acquire) >= 1),
            "background refresh must publish a new epoch"
        );
        assert_eq!(opened.load(Ordering::Relaxed), PEERS.len());
        assert_eq!(stats.sessions_closed.load(Ordering::Relaxed), 0);
        phase2.wait();
    });

    assert!(wait_until(|| {
        stats.sessions_closed.load(Ordering::Relaxed) == PEERS.len()
    }));
    pool.stop();

    let stats = pool.stats();
    let received = stats.received.load(Ordering::Relaxed);
    assert_eq!(received, PEERS.len() * 25);
    assert_eq!(stats.sessions_opened.load(Ordering::Relaxed), PEERS.len());
    assert_eq!(stats.handshake_failures.load(Ordering::Relaxed), 0);
    assert_eq!(stats.hold_expirations.load(Ordering::Relaxed), 0);
    // every update is attributed to exactly one published epoch
    let last = stats.filter_epoch.load(Ordering::Acquire);
    assert!(last >= 1);
    let mut attributed = 0u64;
    for e in 0..=last {
        if let Some((a, d)) = stats.epoch_counts(e) {
            attributed += a + d;
        }
    }
    assert_eq!(attributed as usize, received);
    // the mirror saw the unfiltered stream
    assert_eq!(stats.mirror_fed.load(Ordering::Relaxed), received);
}
