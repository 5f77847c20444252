//! Property tests for the compiled filter engine: `CompiledFilters` must
//! be observationally equivalent to the sequential reference
//! `FilterSet::accepts` at every granularity, epoch swaps must never tear
//! a verdict, and the §9 text format must round-trip.
use bgp_types::{Asn, BgpUpdate, Prefix, Timestamp, UpdateBuilder, VpId};
use gill_core::{CompiledFilters, FilterGranularity, FilterHandle, FilterSet};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn vp(n: u32) -> VpId {
    VpId::from_asn(Asn(n))
}

/// Deterministically expands a compact `(vp, prefix, path-shape, #comms)`
/// tuple into an update. Small domains on purpose: collisions between
/// training and probe populations are where equivalence bugs live.
fn upd((v, p, shape, ncomm): (u32, u32, u8, u8)) -> BgpUpdate {
    let mut b = UpdateBuilder::announce(vp(v), Prefix::synthetic(p))
        .at(Timestamp::from_secs(1))
        .path([v, 100 + shape as u32, 4]);
    for i in 0..ncomm {
        b = b.community(v as u16, i as u16);
    }
    b.build()
}

const GRANULARITIES: [FilterGranularity; 3] = [
    FilterGranularity::VpPrefix,
    FilterGranularity::VpPrefixPath,
    FilterGranularity::VpPrefixPathComms,
];

proptest! {
    // The core equivalence: compiled and view verdicts == reference
    // verdicts on random rule/anchor populations, probed with a mix of exact
    // training replays and fresh updates, at all three granularities.
    #[test]
    fn compiled_accepts_equals_reference(
        g_idx in 0usize..3,
        train in proptest::collection::vec((1u32..12, 0u32..16, 0u8..3, 0u8..3), 0..48),
        anchors in proptest::collection::vec(1u32..12, 0..4),
        probes in proptest::collection::vec((1u32..12, 0u32..16, 0u8..3, 0u8..3), 1..64),
    ) {
        let g = GRANULARITIES[g_idx];
        let train: Vec<BgpUpdate> = train.into_iter().map(upd).collect();
        let fs = FilterSet::generate(anchors.iter().map(|&a| vp(a)), train.iter(), g);
        let c = CompiledFilters::compile(&fs, 1);
        prop_assert_eq!(c.num_rules(), fs.num_rules());
        // the session hot path (epoch load + compiled probe) agrees too
        let handle = FilterHandle::new(&fs);
        let view = handle.view();
        for u in train.iter().chain(probes.into_iter().map(upd).collect::<Vec<_>>().iter()) {
            prop_assert_eq!(c.accepts(u), fs.accepts(u), "granularity {:?}, update {}", g, u);
            prop_assert_eq!(view.judge(u).0, fs.accepts(u), "view, granularity {:?}, update {}", g, u);
        }
    }

    // §9 text round-trip: serialize, decorate with comments/blank lines,
    // parse back, re-serialize — byte-identical, IPv6 rules included.
    // The compiled engine's text form matches the reference's.
    #[test]
    fn text_format_round_trips(
        v4 in proptest::collection::vec((1u32..64, any::<u32>(), 8u8..=32), 0..24),
        v6 in proptest::collection::vec((1u32..64, any::<u64>(), 16u8..=64), 0..24),
        anchors in proptest::collection::vec(1u32..64, 0..6),
    ) {
        let drops: Vec<BgpUpdate> = v4
            .iter()
            .map(|&(a, addr, len)| (vp(a), Prefix::v4(Ipv4Addr::from(addr), len)))
            .chain(v6.iter().map(|&(a, addr, len)| {
                (vp(a), Prefix::v6(Ipv6Addr::from((addr as u128) << 64), len))
            }))
            .map(|(v, p)| {
                UpdateBuilder::announce(v, p)
                    .at(Timestamp::from_secs(1))
                    .path([v.asn.value(), 4])
                    .build()
            })
            .collect();
        let fs = FilterSet::generate(
            anchors.iter().map(|&a| vp(a)),
            drops.iter(),
            FilterGranularity::VpPrefix,
        );
        let text = fs.to_text().unwrap();
        // parsing must tolerate comments and blank lines (§9 files are
        // hand-annotated on bgproutes.io)
        let mut decorated = String::from("# published filter set\n\n");
        for (i, line) in text.lines().enumerate() {
            decorated.push_str(line);
            decorated.push('\n');
            if i % 3 == 0 {
                decorated.push_str("  # inline comment line\n\n");
            }
        }
        let parsed = FilterSet::from_text(&decorated).unwrap();
        prop_assert_eq!(parsed.to_text().unwrap(), text.clone());
        prop_assert_eq!(parsed.num_rules(), fs.num_rules());
        // the compiled engine serves the identical §9 bytes
        let compiled = CompiledFilters::compile(&fs, 3);
        prop_assert_eq!(compiled.to_text().unwrap(), text);
        // and parsing preserves semantics, not just bytes
        for u in drops.iter().take(8) {
            prop_assert_eq!(parsed.accepts(u), fs.accepts(u));
        }
    }
}

/// N reader threads judge one update while a publisher performs M epoch
/// swaps alternating drop/accept rule sets. Every observed verdict must be
/// attributable to the epoch that produced it: epoch parity fully
/// determines the verdict, and each reader's epoch sequence is monotone.
/// A torn read (old verdict with new epoch or vice versa) fails the
/// parity check.
#[test]
fn concurrent_swaps_never_tear_verdicts() {
    const READERS: usize = 4;
    const SWAPS: u64 = 200;

    let probe = upd((1, 1, 0, 0));
    let dropping = FilterSet::generate([], [&probe], FilterGranularity::VpPrefix);
    let handle = FilterHandle::empty(); // epoch 0: accept
    let barrier = std::sync::Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let handle = &handle;
            let probe = &probe;
            let barrier = &barrier;
            s.spawn(move || {
                let view = handle.view();
                barrier.wait();
                let mut last_epoch = 0u64;
                let mut verdicts = 0u64;
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                loop {
                    let (keep, epoch) = view.judge(probe);
                    // odd epochs published the dropping set
                    assert_eq!(
                        keep,
                        epoch % 2 == 0,
                        "verdict not attributable to epoch {epoch}"
                    );
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    verdicts += 1;
                    if epoch == SWAPS {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "reader never observed the final epoch"
                    );
                }
                assert!(verdicts >= 1);
            });
        }
        barrier.wait();
        for e in 1..=SWAPS {
            let fs = if e % 2 == 1 {
                dropping.clone()
            } else {
                FilterSet::default()
            };
            let published = handle.publish(handle.compile_next(&fs));
            assert_eq!(published, e);
            if e % 16 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    });
    assert_eq!(handle.epoch(), SWAPS);
    assert!(handle.snapshot().accepts(&probe)); // SWAPS is even: accepting
}
