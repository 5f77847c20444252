//! Criterion micro-benchmarks for the hot paths: wire codec, filter
//! matching, correlation grouping, reconstitution, route propagation and
//! anchor scoring inputs.

use as_topology::TopologyBuilder;
use bgp_sim::routing::{compute_routes, SourceAnnouncement};
use bgp_sim::{Simulator, StreamConfig};
use bgp_types::{Asn, Prefix, Timestamp, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, UpdateMessage};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gill_core::corrgroups::DEFAULT_WINDOW_MS;
use gill_core::{
    build_correlation_groups, find_redundant_updates, CompiledFilters, FilterGranularity,
    FilterHandle, FilterSet,
};
use std::collections::HashSet;

fn bench_wire_codec(c: &mut Criterion) {
    let u = UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(7))
        .at(Timestamp::from_secs(1))
        .path([65001, 2, 3, 4, 5])
        .community(65001, 100)
        .community(2, 200)
        .build();
    let wire = UpdateMessage::from_domain(&u).unwrap();
    let msg = BgpMessage::Update(wire);
    let bytes = msg.encode_to_vec().unwrap();
    c.bench_function("wire/encode_update", |b| {
        b.iter(|| black_box(&msg).encode_to_vec().unwrap())
    });
    c.bench_function("wire/decode_update", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::from(&bytes[..]);
            BgpMessage::decode(&mut buf).unwrap().unwrap()
        })
    });
}

fn bench_filters(c: &mut Criterion) {
    // 10k drop rules, match probe
    let templates: Vec<_> = (0..10_000u32)
        .map(|i| {
            UpdateBuilder::announce(
                VpId::from_asn(Asn(65000 + i % 500)),
                Prefix::synthetic(i % 1000),
            )
            .path([65000 + i % 500, 2])
            .build()
        })
        .collect();
    let f = FilterSet::generate([], templates.iter(), FilterGranularity::VpPrefix);
    let hit = &templates[5];
    let miss = UpdateBuilder::announce(VpId::from_asn(Asn(1)), Prefix::synthetic(9999))
        .path([1, 2])
        .build();
    c.bench_function("filters/match_hit_10k_rules", |b| {
        b.iter(|| f.accepts(black_box(hit)))
    });
    c.bench_function("filters/match_miss_10k_rules", |b| {
        b.iter(|| f.accepts(black_box(&miss)))
    });

    // the compiled engine on the same table, plus the session hot path
    // (view probe) and the publisher's swap
    let compiled = CompiledFilters::compile(&f, 1);
    assert!(!compiled.accepts(hit) && compiled.accepts(&miss));
    c.bench_function("filters/compiled_hit_10k_rules", |b| {
        b.iter(|| compiled.accepts(black_box(hit)))
    });
    c.bench_function("filters/compiled_miss_10k_rules", |b| {
        b.iter(|| compiled.accepts(black_box(&miss)))
    });
    let handle = FilterHandle::new(&f);
    let view = handle.view();
    c.bench_function("filters/view_judge_10k_rules", |b| {
        b.iter(|| view.judge(black_box(hit)))
    });
    let next = handle.compile_next(&f);
    c.bench_function("filters/publish_swap_10k_rules", |b| {
        b.iter(|| handle.publish(black_box(next.clone())))
    });
}

fn bench_routing(c: &mut Criterion) {
    let topo = TopologyBuilder::artificial(1000, 42).build();
    let failed = HashSet::new();
    c.bench_function("routing/propagate_1k_ases", |b| {
        b.iter(|| {
            compute_routes(
                black_box(&topo),
                &[SourceAnnouncement::origin(500)],
                &failed,
            )
        })
    });
}

fn bench_gill_core(c: &mut Criterion) {
    let topo = TopologyBuilder::artificial(200, 42).build();
    let vps = topo.pick_vps(0.3, 7);
    let mut sim = Simulator::new(&topo);
    let stream = sim.synthesize_stream(&vps, StreamConfig::default().events(60).seed(1));
    c.bench_function("gill/correlation_groups", |b| {
        b.iter(|| build_correlation_groups(black_box(&stream.updates), DEFAULT_WINDOW_MS))
    });
    c.bench_function("gill/component1_full", |b| {
        b.iter(|| find_redundant_updates(black_box(&stream.updates), DEFAULT_WINDOW_MS, 0.94))
    });
}

fn bench_redundancy(c: &mut Criterion) {
    use gill_core::redundancy::{redundant_flags_seq, RedundancyDef};
    use gill_core::PreparedUpdates;
    let small = bench::synth_redundancy_stream(1_500, 7);
    let large = bench::synth_redundancy_stream(12_000, 7);
    for (tag, updates) in [("small_1k5", &small), ("large_12k", &large)] {
        // seed-style reference: no interning, per-comparison set builds
        c.bench_function(&format!("redundancy/flags_seed_seq_{tag}"), |b| {
            b.iter(|| redundant_flags_seq(black_box(updates), RedundancyDef::Def3))
        });
        // interned sequential engine (prepare + query)
        c.bench_function(&format!("redundancy/flags_prepared_seq_{tag}"), |b| {
            b.iter(|| {
                PreparedUpdates::prepare(black_box(updates))
                    .redundant_flags_seq(RedundancyDef::Def3)
            })
        });
        // interned parallel engine (prepare + rayon fan-out over buckets)
        c.bench_function(&format!("redundancy/flags_prepared_par_{tag}"), |b| {
            b.iter(|| gill_core::redundant_flags(black_box(updates), RedundancyDef::Def3))
        });
        // VP-pair coverage, parallel engine
        c.bench_function(&format!("redundancy/vp_pairs_prepared_par_{tag}"), |b| {
            b.iter(|| gill_core::vp_pair_redundancy(black_box(updates), RedundancyDef::Def3))
        });
    }
    // intern-once amortization: queries on an already-prepared stream
    let prepared = PreparedUpdates::prepare(&large);
    c.bench_function("redundancy/flags_query_only_large_12k", |b| {
        b.iter(|| black_box(&prepared).redundant_flags(RedundancyDef::Def3))
    });
}

fn bench_query_store(c: &mut Criterion) {
    use gill_query::{MatchMode, RouteStore, StoreConfig};
    let updates = bench::synth_query_stream(20_000, 8, 400, 3_600_000, 7);
    c.bench_function("query/ingest_20k", |b| {
        b.iter(|| {
            let mut s = RouteStore::new(StoreConfig::default());
            for u in black_box(&updates) {
                s.ingest(u.clone());
            }
            s.stats().updates
        })
    });
    let mut store = RouteStore::new(StoreConfig::default());
    for u in &updates {
        store.ingest(u.clone());
    }
    let t_mid = Timestamp::from_millis(store.latest_time().as_millis() / 2);
    let vp = store.vps()[0].0;
    c.bench_function("query/rib_at_snapshot_replay", |b| {
        b.iter(|| store.rib_at(black_box(vp), black_box(t_mid)).unwrap().len())
    });
    let q = Prefix::synthetic(17);
    c.bench_function("query/lookup_exact_live", |b| {
        b.iter(|| store.lookup(black_box(&q), MatchMode::Exact, None).len())
    });
    c.bench_function("query/lookup_lpm_live", |b| {
        b.iter(|| store.lookup(black_box(&q), MatchMode::Longest, None).len())
    });
    c.bench_function("query/lookup_at_historical", |b| {
        b.iter(|| {
            store
                .lookup_at(black_box(&q), MatchMode::Exact, None, black_box(t_mid))
                .len()
        })
    });
    c.bench_function("query/updates_in_range_shard_scan", |b| {
        b.iter(|| {
            store
                .updates_in_range(
                    Some(black_box(&q)),
                    gill_query::JoinMode::Exact,
                    None,
                    Timestamp::from_millis(t_mid.as_millis() / 2),
                    t_mid,
                    usize::MAX,
                )
                .len()
        })
    });
}

fn bench_store_compression(c: &mut Criterion) {
    use gill_query::{ReferenceStore, RouteStore, StoreConfig};
    let mut updates = Vec::with_capacity(20_000);
    bench::for_each_churn_update(20_000, 8, 2_000, 3_600_000, 7, |u| updates.push(u));

    c.bench_function("store/ingest_interned_20k", |b| {
        b.iter(|| {
            let mut s = RouteStore::new(StoreConfig::default());
            for u in black_box(&updates) {
                s.ingest(u.clone());
            }
            s.stats().updates
        })
    });
    c.bench_function("store/ingest_reference_20k", |b| {
        b.iter(|| {
            let mut s = ReferenceStore::new(StoreConfig::default());
            for u in black_box(&updates) {
                s.ingest(u.clone());
            }
            s.stats().updates
        })
    });

    let mut store = RouteStore::new(StoreConfig::default());
    for u in &updates {
        store.ingest(u.clone());
    }
    let t_mid = Timestamp::from_millis(store.latest_time().as_millis() / 2);
    let vp = store.vps()[0].0;
    c.bench_function("store/rib_at_materialize", |b| {
        b.iter(|| store.rib_at(black_box(vp), black_box(t_mid)).unwrap().len())
    });

    let dir = std::env::temp_dir().join(format!("gill-micro-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    store.seal_all_into(&dir).unwrap().unwrap();
    let (_, seg_path) = gill_query::segment::list_segments(&dir).unwrap().remove(0);
    let seg_bytes = std::fs::read(&seg_path).unwrap();
    let seg = gill_query::segment::Segment::read_from(&mut &seg_bytes[..]).unwrap();
    c.bench_function("store/segment_encode_20k", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(seg_bytes.len());
            black_box(&seg).write_to(&mut out).unwrap();
            out.len()
        })
    });
    c.bench_function("store/segment_decode_20k", |b| {
        b.iter(|| {
            gill_query::segment::Segment::read_from(&mut black_box(&seg_bytes[..]))
                .unwrap()
                .vp_order
                .len()
        })
    });
    c.bench_function("store/cold_start_replay_20k", |b| {
        b.iter(|| {
            let mut s = RouteStore::new(StoreConfig::default());
            s.load_dir(black_box(&dir)).unwrap()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_stream_broker(c: &mut Criterion) {
    use gill_stream::{BrokerConfig, Delivery, Frame, SlowPolicy, StreamBroker, StreamFilter};
    let u = UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(7))
        .at(Timestamp::from_secs(1))
        .path([65001, 2, 3, 4, 5])
        .community(65001, 100)
        .community(2, 200)
        .build();
    // frame encode is the whole publish-path cost: both wire renderings
    c.bench_function("stream/encode_frame", |b| {
        b.iter(|| Frame::update(black_box(7), black_box(&u)))
    });
    let frame = Frame::update(7, &u);
    let wire = frame.encode_binary();
    c.bench_function("stream/decode_binary_frame", |b| {
        b.iter(|| Frame::decode_binary(black_box(&wire)).unwrap().unwrap())
    });
    c.bench_function("stream/parse_json_frame", |b| {
        b.iter(|| Frame::from_json(black_box(frame.json())).unwrap())
    });
    // publish + same-thread drain through an attached subscription: the
    // broker hot path minus thread handoff
    c.bench_function("stream/publish_and_poll", |b| {
        let broker = StreamBroker::new(BrokerConfig {
            ring_capacity: 1024,
            max_subscribers: 4,
        });
        let mut sub = broker
            .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
            .unwrap();
        b.iter(|| {
            broker.publish(black_box(&u)).unwrap();
            match sub.poll_next() {
                Delivery::Frame(f) => f.seq,
                other => panic!("expected frame, got {other:?}"),
            }
        })
    });
    // the zero-subscriber shed path must stay at atomic-load cost
    c.bench_function("stream/publish_shed_no_subscribers", |b| {
        let broker = StreamBroker::new(BrokerConfig::default());
        b.iter(|| broker.publish(black_box(&u)))
    });
}

fn bench_stream_synthesis(c: &mut Criterion) {
    let topo = TopologyBuilder::artificial(200, 42).build();
    let vps = topo.pick_vps(0.3, 7);
    c.bench_function("sim/synthesize_40_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&topo);
            sim.synthesize_stream(&vps, StreamConfig::default().events(40).seed(1))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire_codec, bench_filters, bench_routing, bench_gill_core, bench_redundancy, bench_query_store, bench_store_compression, bench_stream_broker, bench_stream_synthesis
}
criterion_main!(benches);
