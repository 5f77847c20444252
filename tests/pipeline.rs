//! Cross-crate integration: topology → simulator → GILL analysis →
//! filters → collection, exercising the whole pipeline the way the
//! deployed system runs it.

use gill::core::AnchorConfig;
use gill::prelude::*;
use std::collections::HashMap;

fn categories(topo: &Topology) -> HashMap<Asn, AsCategory> {
    let cats = gill::topology::categories::classify(topo);
    (0..topo.num_ases() as u32)
        .map(|u| (topo.asn(u), cats[u as usize]))
        .collect()
}

fn small_gill_config() -> GillConfig {
    GillConfig {
        anchor: AnchorConfig {
            events_per_cell: 3,
            ..AnchorConfig::default()
        },
        ..GillConfig::default()
    }
}

#[test]
fn end_to_end_train_filter_collect() {
    let topo = TopologyBuilder::artificial(200, 5).build();
    let cats = categories(&topo);
    let vps = topo.pick_vps(0.25, 3);
    let mut sim = Simulator::new(&topo);

    let train = sim.synthesize_stream(&vps, StreamConfig::default().events(50).seed(1));
    let analysis = GillAnalysis::run_with_categories(&train, &cats, &small_gill_config());

    // the analysis discards a meaningful share and keeps anchors unfiltered
    assert!(analysis.component1.redundant_fraction() > 0.2);
    assert!(!analysis.component2.anchors.is_empty());
    let filters = analysis.filter_set();

    // a future window: anchors fully retained, total volume reduced
    let eval = sim.synthesize_stream(&vps, StreamConfig::default().events(50).seed(2));
    let kept: Vec<&BgpUpdate> = eval.updates.iter().filter(|u| filters.accepts(u)).collect();
    assert!(kept.len() < eval.updates.len());
    for u in &eval.updates {
        if analysis.component2.anchors.contains(&u.vp) {
            assert!(filters.accepts(u), "anchor update dropped");
        }
    }
    // never-seen-before (vp, prefix) spaces default to accept
    let novel = UpdateBuilder::announce(VpId::from_asn(Asn(9999)), Prefix::synthetic(999))
        .path([9999, 1])
        .build();
    assert!(filters.accepts(&novel));
}

#[test]
fn gill_beats_random_vp_sampling_on_moas_detection() {
    let topo = TopologyBuilder::artificial(200, 5).build();
    let cats = categories(&topo);
    let vps = topo.pick_vps(0.3, 3);
    let mut sim = Simulator::new(&topo);
    let train = sim.synthesize_stream(&vps, StreamConfig::default().events(60).seed(11));
    let eval = sim.synthesize_stream(
        &vps,
        StreamConfig {
            events: 60,
            seed: 12,
            weights: [0.3, 0.25, 0.25, 0.2],
            ..StreamConfig::default()
        },
    );
    use gill::sampling::{GillSampler, GillVariant, RandomVps, Sampler};
    let gill = GillSampler::train(&train, &cats, &small_gill_config(), GillVariant::Full);
    let budget = gill.sample(&eval, usize::MAX, 1).len();
    assert!(budget > 0);
    let moas = gill::use_cases::MoasDetection::new(&eval);
    let g = moas.score(&eval, &gill.sample(&eval, budget, 1));
    // average the random baseline over seeds (it is high-variance)
    let mut r_sum = 0.0;
    for seed in 0..5 {
        r_sum += moas.score(&eval, &RandomVps.sample(&eval, budget, seed));
    }
    let r = r_sum / 5.0;
    assert!(
        g >= r - 0.05,
        "GILL ({g:.2}) should not lose to random VPs ({r:.2}) at equal budget"
    );
}

#[test]
fn wire_roundtrip_of_simulated_stream() {
    // every simulated update survives BGP wire encoding and MRT archival
    let topo = TopologyBuilder::artificial(100, 5).build();
    let vps = topo.pick_vps(0.2, 3);
    let mut sim = Simulator::new(&topo);
    let stream = sim.synthesize_stream(&vps, StreamConfig::default().events(20).seed(3));
    use gill::wire::{BgpMessage, MrtReader, MrtRecord, MrtWriter, UpdateMessage};
    let mut w = MrtWriter::new(Vec::new());
    for u in &stream.updates {
        let msg = UpdateMessage::from_domain(u).expect("IPv4 update encodes");
        w.write_record(&MrtRecord {
            time: u.time,
            peer_as: u.vp.asn,
            local_as: Asn(65535),
            peer_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 2)),
            local_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            message: BgpMessage::Update(msg),
        })
        .unwrap();
    }
    let bytes = w.into_inner().unwrap();
    let mut r = MrtReader::new(&bytes[..]);
    let mut back = Vec::new();
    while let Some(rec) = r.next_record().unwrap() {
        if let BgpMessage::Update(u) = rec.message {
            back.extend(u.to_domain(VpId::from_asn(rec.peer_as), rec.time));
        }
    }
    assert_eq!(back.len(), stream.updates.len());
    for (a, b) in back.iter().zip(&stream.updates) {
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.path, b.path);
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.vp, b.vp);
        // MRT stores second resolution; times agree within a second
        assert!(a.time.as_secs() == b.time.as_secs());
    }
}

#[test]
fn orchestrator_drives_the_daemon_pool() {
    use gill::collector::{
        DaemonConfig, FakePeerConfig, MemoryStorage, Orchestrator, OrchestratorConfig,
    };
    use gill::runtime::{EventedPool, RuntimeConfig};
    let topo = TopologyBuilder::artificial(120, 5).build();
    let cats = categories(&topo);
    let vps = topo.pick_vps(0.25, 3);
    let mut sim = Simulator::new(&topo);
    let train = sim.synthesize_stream(&vps, StreamConfig::default().events(30).seed(7));

    // orchestrator trains from the mirror and produces filters
    let mut orch = Orchestrator::new(
        OrchestratorConfig {
            gill: small_gill_config(),
            ..OrchestratorConfig::default()
        },
        train.vps.clone(),
        cats,
    );
    orch.set_initial_ribs(train.initial_ribs.clone());
    orch.observe(train.updates.iter().cloned());
    orch.maybe_refresh(Timestamp::from_secs(60))
        .expect("first refresh runs");

    // install into a live pool and push updates through real TCP
    let mut pool =
        EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None).unwrap();
    pool.pool().install_filters(orch.filters().clone());
    let addr = pool.bgp_addr().unwrap();
    let h = std::thread::spawn(move || {
        gill::collector::run_fake_peer(
            addr,
            &FakePeerConfig {
                asn: 65001,
                rate_per_sec: 500.0,
                count: 50,
                prefixes: 20,
            },
        )
    });
    h.join().unwrap().unwrap();
    // deterministic drain: wait on the received counter, not wall time
    for _ in 0..500 {
        if pool
            .stats()
            .received
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 50
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    pool.stop();
    let mut storage = MemoryStorage::default();
    pool.pool().drain_into(&mut storage);
    let s = pool.stats();
    let rx = s.received.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(rx, 50);
    assert_eq!(
        storage.updates.len(),
        s.retained.load(std::sync::atomic::Ordering::Relaxed)
    );
}
