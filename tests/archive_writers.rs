//! Every way out of the archive writes the same bytes.
//!
//! Three writers emit MRT `BGP4MP_MESSAGE_AS4` update streams: the
//! collector's [`MrtStorage`] backend, the looking glass's
//! `/mrt/updates` endpoint and the CLI's `write_updates_mrt`. One
//! single-VP, dual-stack update list with ADD-PATH ids goes through each,
//! and the three archives must be byte-identical: same record addresses,
//! same local AS, path ids dropped at the archive boundary — and equal to
//! the records of the one builder they share, [`MrtRecord::bgp4mp`].

use gill::cli::write_updates_mrt;
use gill::collector::{MrtStorage, Storage, StoredUpdate};
use gill::query::server::route;
use gill::query::{Request, RouteStore, SharedStore};
use gill::types::{Asn, BgpUpdate, Timestamp, UpdateBuilder, VpId};
use gill::wire::{BgpMessage, MrtReader, MrtRecord};
use std::sync::Arc;

const VP_ASN: u32 = 65010;

/// One VP's day: v4 and v6 announcements (several paths per prefix under
/// distinct ADD-PATH ids, communities, a 4-byte ASN hop), withdrawals of
/// single paths, and a classic update without a path id, in time order.
fn day() -> Vec<BgpUpdate> {
    let vp = VpId::from_asn(Asn(VP_ASN));
    let t = |s: u64| Timestamp::from_secs(1_700_000_000 + s);
    let a = |p: &str| UpdateBuilder::announce(vp, p.parse().unwrap());
    let w = |p: &str| UpdateBuilder::withdraw(vp, p.parse().unwrap());
    vec![
        a("10.0.0.0/24")
            .at(t(1))
            .path([VP_ASN, 174, 3356])
            .path_id(1)
            .community(65010, 100)
            .build(),
        a("10.0.0.0/24")
            .at(t(2))
            .path([VP_ASN, 1299, 3356])
            .path_id(2)
            .build(),
        a("2001:db8:1::/48")
            .at(t(3))
            .path([VP_ASN, 6939, 70_000])
            .path_id(1)
            .community(65010, 200)
            .community(65010, 300)
            .build(),
        a("2001:db8:1::/48")
            .at(t(4))
            .path([VP_ASN, 2914, 70_000])
            .path_id(7)
            .build(),
        a("10.1.0.0/16").at(t(5)).path([VP_ASN, 3257]).build(),
        w("10.0.0.0/24").at(t(6)).path_id(1).build(),
        w("2001:db8:1::/48").at(t(7)).path_id(7).build(),
        a("2001:db8:2::/64")
            .at(t(8))
            .path([VP_ASN, 6939])
            .path_id(3)
            .build(),
        w("10.1.0.0/16").at(t(9)).build(),
    ]
}

fn via_storage(updates: &[BgpUpdate]) -> Vec<u8> {
    let mut s = MrtStorage::new(Vec::new(), 65535);
    for u in updates {
        s.store(StoredUpdate { update: u.clone() });
    }
    assert_eq!(s.stored(), updates.len());
    s.into_inner().unwrap()
}

fn via_looking_glass(updates: &[BgpUpdate]) -> Vec<u8> {
    let mut store = RouteStore::default();
    for u in updates {
        store.ingest(u.clone());
    }
    let store: SharedStore = Arc::new(parking_lot::RwLock::new(store));
    let req = Request {
        method: "GET".to_string(),
        path: "/mrt/updates".to_string(),
        params: vec![("vp".to_string(), VP_ASN.to_string())],
        headers: Vec::new(),
    };
    let resp = route(&req, &store);
    assert_eq!(resp.status, 200);
    resp.body
}

fn via_cli(updates: &[BgpUpdate]) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("gill-archive-writers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("day.mrt");
    assert_eq!(write_updates_mrt(&path, updates).unwrap(), updates.len());
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn every_writer_archives_the_same_bytes() {
    let updates = day();
    let storage = via_storage(&updates);
    assert!(!storage.is_empty());
    assert!(
        storage == via_looking_glass(&updates),
        "/mrt/updates differs from MrtStorage"
    );
    assert!(
        storage == via_cli(&updates),
        "write_updates_mrt differs from MrtStorage"
    );
    let built: Vec<u8> = updates
        .iter()
        .flat_map(|u| MrtRecord::bgp4mp(u, Asn(65535)).unwrap().encode().unwrap())
        .collect();
    assert!(
        storage == built,
        "MrtStorage differs from MrtRecord::bgp4mp"
    );

    // the archive is what the day says: one record per update, v6 routes
    // under AFI-2 addresses, and no path id survives the boundary
    let mut r = MrtReader::new(&storage[..]);
    let (mut n, mut v6) = (0, 0);
    while let Some(rec) = r.next_record().unwrap() {
        let u = &updates[n];
        assert_eq!(rec.time.as_secs(), u.time.as_secs());
        assert_eq!(rec.peer_as, Asn(VP_ASN));
        assert_eq!(rec.local_as, Asn(65535));
        assert_eq!(rec.peer_ip.is_ipv6(), u.prefix.is_ipv6());
        assert_eq!(rec.local_ip.is_ipv6(), u.prefix.is_ipv6());
        let BgpMessage::Update(msg) = rec.message else {
            panic!("record {n} is not an UPDATE");
        };
        assert!(msg
            .announced
            .iter()
            .chain(&msg.withdrawn)
            .all(|nlri| nlri.path_id.is_none()));
        v6 += usize::from(rec.peer_ip.is_ipv6());
        n += 1;
    }
    assert_eq!(n, updates.len());
    assert_eq!(v6, 4);
}
