//! End-to-end tests for the evented runtime over real TCP: BGP peers and
//! BMP routers against an [`EventedPool`], asserting the shared
//! pipeline's counters and storage (filters, overload loss, validation,
//! forwarding, reconnects), the accept-cap shed path, and the
//! bounded-deadline shutdown.

use bgp_types::{Asn, Link, Prefix, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, Notification, UpdateMessage};
use gill_collector::daemon::{handshake_client, DaemonConfig, MessageStream};
use gill_collector::forwarding::ForwardRule;
use gill_collector::peer::{run_fake_peer, run_resilient_peer, FakePeerConfig};
use gill_collector::storage::MemoryStorage;
use gill_collector::transport::{BackoffPolicy, Transport};
use gill_core::{FilterGranularity, FilterSet};
use gill_runtime::{EventedPool, RuntimeConfig};
use gill_scenario::{
    BackgroundConfig, BmpFeed, ScenarioConfig, ScenarioEngine, ScenarioItem, World,
};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        local_asn: 65535,
        queue_capacity: 4096,
        ..DaemonConfig::default()
    }
}

/// Polls `cond` for up to ~5 s.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..500 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// One BGP session as AS `asn`: handshake, `updates`, then a Cease.
fn send_raw(addr: std::net::SocketAddr, asn: u32, updates: Vec<bgp_types::BgpUpdate>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, asn).unwrap();
    for u in updates {
        let wire = UpdateMessage::from_domain(&u).unwrap();
        ms.write_message(&BgpMessage::Update(wire)).unwrap();
    }
    ms.write_message(&BgpMessage::Notification(Notification::cease()))
        .unwrap();
}

/// [`send_raw`] announcing `prefixes` over the path `asn 2 3`.
fn send_updates(addr: std::net::SocketAddr, asn: u32, prefixes: &[u32]) {
    let vp = VpId::from_asn(Asn(asn));
    let updates = prefixes
        .iter()
        .map(|&p| {
            UpdateBuilder::announce(vp, Prefix::synthetic(p))
                .path([asn, 2, 3])
                .build()
        })
        .collect();
    send_raw(addr, asn, updates);
}

/// A BGP-only pool on an ephemeral port with the default runtime shape.
fn bgp_pool(cfg: DaemonConfig) -> EventedPool {
    EventedPool::start(cfg, RuntimeConfig::default(), None).unwrap()
}

fn received(pool: &EventedPool) -> usize {
    pool.stats().received.load(Ordering::Relaxed)
}

/// Stops the runtime, then drains everything the pipeline retained.
fn stop_and_drain(pool: &mut EventedPool) -> MemoryStorage {
    pool.stop();
    let mut storage = MemoryStorage::default();
    pool.pool().drain_into(&mut storage);
    storage
}

#[test]
fn bgp_sessions_flow_through_the_evented_pipeline() {
    // eight peers announcing ten shared prefixes each, then eight peers
    // announcing two prefixes of their own
    let inputs: [fn(u32) -> Vec<u32>; 2] = [|_| (1..=10).collect(), |k| vec![k, k + 1]];
    for prefixes in inputs {
        let mut pool = EventedPool::start(
            daemon_cfg(),
            RuntimeConfig {
                workers: 2,
                bgp_addr: Some("127.0.0.1:0".into()),
                bmp: None,
            },
            None,
        )
        .unwrap();
        let addr = pool.bgp_addr().unwrap();
        let total: usize = (0..8).map(|k| prefixes(k).len()).sum();

        let clients: Vec<_> = (0..8)
            .map(|k| {
                let ps = prefixes(k);
                std::thread::spawn(move || send_updates(addr, 65001 + k, &ps))
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }

        assert!(
            wait_until(|| received(&pool) >= total),
            "evented pipeline saw {} of {total} updates",
            received(&pool)
        );
        assert!(wait_until(|| {
            pool.stats().sessions_closed.load(Ordering::Relaxed) >= 8
        }));
        assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 8);
        assert_eq!(received(&pool), total);
        // no filters installed: everything received was retained
        assert_eq!(pool.stats().retained.load(Ordering::Relaxed), total);
        let totals = pool.totals();
        assert_eq!(totals.accepted, 8, "every session admitted to a loop");
        assert!(totals.ready_events > 0);

        let storage = stop_and_drain(&mut pool);
        assert_eq!(pool.totals().sessions, 0, "all sessions drained on stop");
        assert_eq!(storage.updates.len(), total);
        let vps: BTreeSet<VpId> = storage.updates.iter().map(|u| u.vp).collect();
        assert_eq!(vps.len(), 8);
    }
}

#[test]
fn end_to_end_session_stores_updates() {
    let mut pool = bgp_pool(DaemonConfig::default());
    let addr = pool.bgp_addr().unwrap();
    std::thread::spawn(move || send_updates(addr, 65001, &[1, 2, 3]))
        .join()
        .unwrap();
    wait_until(|| received(&pool) >= 3);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 3);
    assert_eq!(received(&pool), 3);
    assert_eq!(pool.stats().retained.load(Ordering::Relaxed), 3);
    assert_eq!(pool.stats().lost.load(Ordering::Relaxed), 0);
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 1);
    // VP identity comes from the OPEN handshake
    assert!(storage
        .updates
        .iter()
        .all(|u| u.vp == VpId::from_asn(Asn(65001))));
}

#[test]
fn filters_drop_matching_updates() {
    let mut pool = bgp_pool(DaemonConfig::default());
    // drop (vp 65002, prefix 1)
    let template = UpdateBuilder::announce(VpId::from_asn(Asn(65002)), Prefix::synthetic(1))
        .path([65002, 9])
        .build();
    pool.pool().install_filters(FilterSet::generate(
        [],
        [&template],
        FilterGranularity::VpPrefix,
    ));
    let addr = pool.bgp_addr().unwrap();
    std::thread::spawn(move || send_updates(addr, 65002, &[1, 2]))
        .join()
        .unwrap();
    wait_until(|| received(&pool) >= 2);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 1);
    assert_eq!(pool.stats().filtered.load(Ordering::Relaxed), 1);
    assert_eq!(storage.updates[0].prefix, Prefix::synthetic(2));
}

#[test]
fn overload_counts_losses() {
    let mut pool = bgp_pool(DaemonConfig {
        queue_capacity: 4,
        ..DaemonConfig::default()
    });
    let addr = pool.bgp_addr().unwrap();
    // nobody drains the queue while 50 updates arrive
    std::thread::spawn(move || send_updates(addr, 65003, &(0..50).collect::<Vec<_>>()))
        .join()
        .unwrap();
    wait_until(|| received(&pool) >= 50);
    pool.stop();
    let lost = pool.stats().lost.load(Ordering::Relaxed);
    let retained = pool.stats().retained.load(Ordering::Relaxed);
    assert_eq!(retained, 4, "queue capacity bounds retained");
    assert_eq!(lost, 46);
    assert!(pool.stats().loss_rate() > 0.9);
}

#[test]
fn garbage_handshake_counts_as_failure() {
    let mut pool = bgp_pool(DaemonConfig::default());
    let addr = pool.bgp_addr().unwrap();
    {
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, b"not a bgp open").unwrap();
    }
    assert!(
        wait_until(|| pool.stats().handshake_failures.load(Ordering::Relaxed) >= 1),
        "garbage handshake must be counted"
    );
    pool.stop();
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 0);
}

#[test]
fn same_peer_reconnecting_is_counted() {
    let mut pool = bgp_pool(DaemonConfig::default());
    let addr = pool.bgp_addr().unwrap();
    for round in 0..2 {
        std::thread::spawn(move || send_updates(addr, 65042, &[round]))
            .join()
            .unwrap();
        wait_until(|| received(&pool) > round as usize);
    }
    assert!(
        wait_until(|| pool.stats().sessions_closed.load(Ordering::Relaxed) >= 2),
        "both sessions should close"
    );
    pool.stop();
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 2);
    assert_eq!(pool.stats().reconnects.load(Ordering::Relaxed), 1);
}

#[test]
fn validation_drops_spoofed_first_hop() {
    let mut pool = bgp_pool(DaemonConfig {
        validate: true,
        ..DaemonConfig::default()
    });
    pool.pool().seed_validator([Link::new(Asn(2), Asn(3))]);
    let addr = pool.bgp_addr().unwrap();
    let vp = VpId::from_asn(Asn(65001));
    let good = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65001, 2, 3])
        .build();
    // path does not start with the peering AS: spoofed
    let spoofed = UpdateBuilder::announce(vp, Prefix::synthetic(2))
        .path([9999, 2, 3])
        .build();
    std::thread::spawn(move || send_raw(addr, 65001, vec![good, spoofed]))
        .join()
        .unwrap();
    wait_until(|| received(&pool) >= 2);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 1, "spoofed update must be dropped");
    assert_eq!(pool.stats().invalid.load(Ordering::Relaxed), 1);
    assert_eq!(storage.updates[0].prefix, Prefix::synthetic(1));
}

#[test]
fn forwarding_tee_bypasses_filters() {
    let mut pool = bgp_pool(DaemonConfig::default());
    // filters drop everything this peer sends for prefix 1
    let vp = VpId::from_asn(Asn(65002));
    let template = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65002, 2])
        .build();
    pool.pool().install_filters(FilterSet::generate(
        [],
        [&template],
        FilterGranularity::VpPrefix,
    ));
    // ...but the operator subscribed to that prefix
    let (_, sub) = pool
        .pool()
        .subscribe(vec![ForwardRule::for_prefix(Prefix::synthetic(1))]);
    let addr = pool.bgp_addr().unwrap();
    let u = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65002, 9, 4])
        .build();
    std::thread::spawn(move || send_raw(addr, 65002, vec![u]))
        .join()
        .unwrap();
    wait_until(|| received(&pool) >= 1);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 0, "filters discarded the update");
    let got: Vec<_> = sub.feed.try_iter().collect();
    assert_eq!(got.len(), 1, "but the subscriber still received it");
    assert_eq!(pool.stats().forwarded.load(Ordering::Relaxed), 1);
}

#[test]
fn fake_peer_delivers_at_roughly_the_configured_rate() {
    let mut pool = bgp_pool(DaemonConfig::default());
    let addr = pool.bgp_addr().unwrap();
    let cfg = FakePeerConfig {
        asn: 65009,
        rate_per_sec: 200.0,
        count: 40,
        prefixes: 10,
    };
    let start = Instant::now();
    let sent = std::thread::spawn(move || run_fake_peer(addr, &cfg).unwrap())
        .join()
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(sent, 40);
    // 40 updates at 200/s ≈ 200 ms; allow generous slack
    assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
    // deterministic drain: wait on the counter, not wall-clock time
    wait_until(|| received(&pool) >= 40);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 40);
}

#[test]
fn resilient_peer_retries_until_the_collector_appears() {
    // reserve a port, then close the listener: connects will fail
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = FakePeerConfig {
        asn: 65021,
        rate_per_sec: 0.0,
        count: 5,
        prefixes: 5,
    };
    let backoff = BackoffPolicy {
        base_ms: 20,
        cap_ms: 100,
        seed: 3,
    };
    let peer = std::thread::spawn(move || run_resilient_peer(addr, &cfg, backoff, 50));
    // let a few attempts fail, then start the pool on that port
    std::thread::sleep(Duration::from_millis(60));
    let mut pool = EventedPool::start(
        DaemonConfig::default(),
        RuntimeConfig {
            bgp_addr: Some(addr.to_string()),
            ..RuntimeConfig::default()
        },
        None,
    )
    .unwrap();
    let report = peer.join().unwrap().unwrap();
    assert!(report.attempts > 1, "at least one retry expected");
    assert_eq!(report.sent, 5);
    assert!(report.backoff_ms > 0);
    wait_until(|| received(&pool) >= 5);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 5);
}

#[test]
fn accept_cap_rejects_with_notification_cease() {
    let mut pool = EventedPool::start(
        DaemonConfig {
            max_sessions: 2,
            ..daemon_cfg()
        },
        RuntimeConfig {
            workers: 1,
            bgp_addr: Some("127.0.0.1:0".into()),
            bmp: None,
        },
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();

    // fill the cap with two held-open sessions
    let mut held = Vec::new();
    for i in 0..2 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65101 + i).unwrap();
        held.push(ms);
    }
    assert!(wait_until(|| pool.active_sessions() == 2));

    // the third connection is told to go away before any handshake
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut ms = MessageStream::new(stream);
    match ms.read_message() {
        Ok(Some(BgpMessage::Notification(n))) => {
            assert_eq!(n.code, 6, "NOTIFICATION must be Cease, got code {}", n.code);
        }
        other => panic!("expected NOTIFICATION Cease at accept, got {other:?}"),
    }
    assert!(wait_until(|| {
        pool.stats().accept_rejected.load(Ordering::Relaxed) == 1
    }));
    assert_eq!(pool.totals().accept_shed, 1);

    // capacity frees up once a held session closes
    drop(held.pop());
    assert!(wait_until(|| pool.active_sessions() == 1));
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, 65111).unwrap();
    assert!(wait_until(|| pool.active_sessions() == 2));
    pool.stop();
}

/// Builds one BMP session script (Initiation, Peer Ups, Route
/// Monitoring, Termination) and the expected update count.
fn bmp_script() -> (Vec<Vec<u8>>, usize) {
    let world = World {
        n_vps: 4,
        n_prefixes: 64,
        seed: 0xeb1,
        dual_stack: false,
    };
    let background = BackgroundConfig::default();
    let duration_ms = background.duration_for(200);
    let cfg = ScenarioConfig {
        world,
        background,
        duration_ms,
        campaigns: Vec::new(),
        seed: 11,
    };
    let items: Vec<ScenarioItem> = ScenarioEngine::new(&cfg).collect();
    let vps: Vec<_> = (0..4).map(|i| world.vp(i)).collect();
    let feed = BmpFeed::new(&vps);
    let mut frames = vec![BmpFeed::initiation_frame("evented-test")];
    frames.extend(feed.peer_up_frames(0));
    let mut updates = 0;
    for item in &items {
        if let Some(f) = feed.route_monitoring_frame(item) {
            frames.push(f);
            updates += 1;
        }
    }
    frames.push(BmpFeed::termination_frame());
    (frames, updates)
}

#[test]
fn bmp_routers_feed_the_same_pipeline() {
    let (frames, updates) = bmp_script();
    assert!(updates > 0, "scenario produced no monitored updates");
    let mut pool = EventedPool::start(
        daemon_cfg(),
        RuntimeConfig {
            workers: 2,
            bgp_addr: None,
            bmp: Some(gill_bmp::config::BmpConfig::single("127.0.0.1:0")),
        },
        None,
    )
    .unwrap();
    let addr = pool.bmp_addrs()[0];

    let mut router = TcpStream::connect(addr).unwrap();
    for f in &frames {
        router.write_all(f).unwrap();
    }

    assert!(
        wait_until(|| pool.bmp_stats().updates.load(Ordering::Relaxed) >= updates),
        "bmp updates: {} of {updates}",
        pool.bmp_stats().updates.load(Ordering::Relaxed)
    );
    assert!(wait_until(|| {
        pool.bmp_stats().sessions_closed.load(Ordering::Relaxed) == 1
    }));
    assert_eq!(pool.bmp_stats().sessions_opened.load(Ordering::Relaxed), 1);
    assert_eq!(pool.bmp_stats().peers_up.load(Ordering::Relaxed), 4);
    assert_eq!(pool.bmp_stats().terminations.load(Ordering::Relaxed), 1);
    assert_eq!(pool.bmp_stats().unknown_peer.load(Ordering::Relaxed), 0);
    // the shared pipeline counted the same updates as the BMP ledger
    assert_eq!(pool.stats().received.load(Ordering::Relaxed), updates);
    pool.stop();
}

#[test]
fn stop_winds_down_open_sessions_with_a_bounded_deadline() {
    let mut pool = EventedPool::start(
        daemon_cfg(),
        RuntimeConfig {
            workers: 2,
            bgp_addr: Some("127.0.0.1:0".into()),
            bmp: None,
        },
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();

    let mut held = Vec::new();
    for i in 0..4 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65201 + i).unwrap();
        held.push(ms);
    }
    assert!(wait_until(|| pool.active_sessions() == 4));

    let t0 = std::time::Instant::now();
    pool.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "stop took {:?}",
        t0.elapsed()
    );
    assert_eq!(pool.totals().sessions, 0, "sessions drained");
    assert_eq!(pool.active_sessions(), 0);

    // each held peer got the parting NOTIFICATION Cease (graceful close)
    for ms in &mut held {
        ms.transport_mut()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match ms.read_message() {
            Ok(Some(BgpMessage::Notification(n))) => assert_eq!(n.code, 6),
            other => panic!("expected parting NOTIFICATION, got {other:?}"),
        }
    }
}
