//! Acceptance tests for the interned/COW/sealed store: every read path must
//! be bit-identical to the uncompressed [`ReferenceStore`], and a store
//! reloaded from sealed segments must serve byte-identical HTTP responses
//! to the store that wrote them.

use bgp_types::{Asn, BgpUpdate, Prefix, RibEntry, Timestamp, UpdateBuilder, UpdateKind, VpId};
use gill_query::server::route;
use gill_query::{
    JoinMode, Json, MatchMode, ReferenceStore, Request, Response, RouteStore, RouteView,
    StoreConfig,
};
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic xorshift so the stream is reproducible without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mixed announce/withdraw stream: 8 VPs, 400 prefixes, jittered clocks —
/// the same shape the `rib_equivalence` oracle uses.
fn synthetic_stream(n: usize) -> Vec<BgpUpdate> {
    let mut rng = Rng(0x6a09e667f3bcc908);
    let mut t_ms: u64 = 1_000_000;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t_ms = if rng.below(50) == 0 {
            t_ms.saturating_sub(rng.below(2_000))
        } else {
            t_ms + rng.below(400)
        };
        let vp = VpId::from_asn(Asn(65_000 + (rng.below(8) as u32)));
        let prefix = Prefix::synthetic(rng.below(400) as u32);
        let u = if rng.below(5) == 0 {
            UpdateBuilder::withdraw(vp, prefix)
                .at(Timestamp::from_millis(t_ms))
                .build()
        } else {
            let mid = (rng.below(900) + 100) as u32;
            UpdateBuilder::announce(vp, prefix)
                .at(Timestamp::from_millis(t_ms))
                .path([vp.asn.value(), mid, mid + 1, (rng.below(50) + 1) as u32])
                .community((vp.asn.value() & 0xffff) as u16, rng.below(200) as u16)
                .build()
        };
        out.push(u);
    }
    out
}

fn small_cfg() -> StoreConfig {
    StoreConfig {
        shard_width_ms: 60_000,
        snapshot_every_shards: 4,
        ..StoreConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gill-store-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn views_eq(got: &[RouteView], want: &[RouteView], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.vp, w.vp, "{ctx}: vp");
        assert_eq!(g.prefix, w.prefix, "{ctx}: prefix");
        assert_eq!(g.entry.path, w.entry.path, "{ctx}: path");
        assert_eq!(g.entry.communities, w.entry.communities, "{ctx}: comms");
        assert_eq!(g.entry.time, w.entry.time, "{ctx}: time");
    }
}

/// Probe times spread over the stream's span, plus the edges.
fn probe_times(latest_ms: u64) -> Vec<Timestamp> {
    let mut ts: Vec<u64> = (0..=8)
        .map(|i| 1_000_000 + (latest_ms - 1_000_000) * i / 8)
        .collect();
    ts.push(latest_ms + 500_000);
    ts.into_iter().map(Timestamp::from_millis).collect()
}

#[test]
fn interned_store_is_bit_identical_to_reference() {
    let stream = synthetic_stream(50_000);
    assert!(stream.iter().any(|u| u.kind == UpdateKind::Withdraw));

    let mut reference = ReferenceStore::new(small_cfg());
    let mut interned = RouteStore::new(small_cfg());
    for u in &stream {
        reference.ingest(u.clone());
        interned.ingest(u.clone());
    }

    assert_eq!(interned.stats(), reference.stats(), "stats diverge");
    assert_eq!(interned.vps(), reference.vps(), "vp lanes diverge");
    assert_eq!(
        interned.shard_counts(),
        reference.shard_counts(),
        "shards diverge"
    );
    assert!(
        interned.stats().snapshots > 0,
        "stream must trigger snapshots"
    );

    let probes = probe_times(interned.latest_time().as_millis());
    for vp_asn in 65_000..65_008u32 {
        let vp = VpId::from_asn(Asn(vp_asn));
        // Exact update round-trip: interning must preserve every byte of
        // every attribute, including withdraw link/community bookkeeping.
        let got = interned.lane_updates(vp).expect("vp exists");
        let want: Vec<BgpUpdate> = reference.lane_updates(vp).unwrap().to_vec();
        assert_eq!(got, want, "lane {vp} diverges");

        for &t in &probes {
            let got = interned.rib_at(vp, t).expect("vp exists");
            let want = reference.rib_at(vp, t).expect("vp exists");
            assert_eq!(got.len(), want.len(), "rib size for {vp} at {t}");
            for (p, e) in want.iter() {
                assert_eq!(got.get(p), Some(e), "rib entry {p} for {vp} at {t}");
            }
            assert_eq!(
                interned.rib_len_at(vp, t),
                reference.rib_len_at(vp, t),
                "rib_len_at for {vp} at {t}"
            );
            assert_eq!(
                interned.rib_len_at(vp, t),
                Some(got.len()),
                "rib_len_at must match materialized rib_at for {vp} at {t}"
            );
            assert_eq!(
                interned.replay_depth(vp, t),
                reference.replay_depth(vp, t),
                "replay depth for {vp} at {t}"
            );
        }
    }

    for q in 0..40u32 {
        let p = Prefix::synthetic(q * 10);
        for mode in [
            MatchMode::Exact,
            MatchMode::Longest,
            MatchMode::MoreSpecific,
        ] {
            views_eq(
                &interned.lookup(&p, mode, None),
                &reference.lookup(&p, mode, None),
                &format!("lookup {p} {mode:?}"),
            );
        }
        let mid = Timestamp::from_millis(interned.latest_time().as_millis() / 2);
        views_eq(
            &interned.lookup_at(&p, MatchMode::Exact, None, mid),
            &reference.lookup_at(&p, MatchMode::Exact, None, mid),
            &format!("lookup_at {p}"),
        );
        let got = interned.updates_in_range(
            Some(&p),
            JoinMode::Exact,
            None,
            Timestamp::ZERO,
            mid,
            usize::MAX,
        );
        let want: Vec<BgpUpdate> = reference
            .updates_in_range(Some(&p), JoinMode::Exact, None, Timestamp::ZERO, mid)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(got, want, "updates_in_range {p} diverges");
    }
    for asn in [65_001u32, 100, 42] {
        assert_eq!(
            interned.originated(Asn(asn)),
            reference.originated(Asn(asn)),
            "originated {asn}"
        );
    }
}

fn get(store: &Arc<RwLock<RouteStore>>, target: &str) -> Response {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    let req = Request {
        method: "GET".to_string(),
        path: path.to_string(),
        params,
        headers: Vec::new(),
    };
    route(&req, store)
}

/// The endpoint matrix both sides of a restart must answer identically.
/// `/store/stats` is deliberately absent: sealed/resident counters reflect
/// process history, not route data.
fn request_matrix(latest_ms: u64) -> Vec<String> {
    let mid = 1_000_000 + (latest_ms - 1_000_000) / 2;
    let mut targets = vec![
        "/vps".to_string(),
        format!("/updates?from=0&to={latest_ms}&limit=100000"),
        format!(
            "/updates?prefix={}&join=covered&to={latest_ms}",
            Prefix::synthetic(7)
        ),
        format!("/mrt/rib?at={mid}"),
        "/origin?asn=65003".to_string(),
    ];
    for q in [3u32, 17, 250] {
        let p = Prefix::synthetic(q);
        targets.push(format!("/routes?prefix={p}&match=lpm"));
        targets.push(format!("/routes?prefix={p}&match=exact&at={mid}"));
    }
    for vp in 65_000..65_008u32 {
        targets.push(format!("/rib?vp={vp}&at={mid}"));
        targets.push(format!("/rib?vp={vp}"));
        targets.push(format!("/mrt/updates?vp={vp}"));
    }
    targets
}

fn assert_same_responses(a: &Arc<RwLock<RouteStore>>, b: &Arc<RwLock<RouteStore>>, ctx: &str) {
    let latest = a.read().latest_time().as_millis();
    for target in request_matrix(latest) {
        let ra = get(a, &target);
        let rb = get(b, &target);
        assert_eq!(ra.status, rb.status, "{ctx}: status for {target}");
        assert_eq!(
            ra.content_type, rb.content_type,
            "{ctx}: content type for {target}"
        );
        assert_eq!(ra.status, 200, "{ctx}: {target} must succeed");
        assert_eq!(ra.body, rb.body, "{ctx}: body bytes for {target}");
    }
}

#[test]
fn restart_from_sealed_segments_is_byte_identical() {
    let stream = synthetic_stream(50_000);
    let dir = scratch("restart");

    let mut store = RouteStore::new(small_cfg());
    for u in &stream {
        store.ingest(u.clone());
    }
    store.seal_all_into(&dir).unwrap().expect("segment written");

    let mut reloaded = RouteStore::new(small_cfg());
    assert_eq!(reloaded.load_dir(&dir).unwrap(), 50_000);

    let before = Arc::new(RwLock::new(store));
    let after = Arc::new(RwLock::new(reloaded));
    assert_same_responses(&before, &after, "restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restart_with_incremental_seals_is_byte_identical() {
    let stream = synthetic_stream(50_000);
    let dir = scratch("crash");

    // A collector's life: aged-out shards seal while ingest continues, and
    // the final flush seals the tail — producing several segment files.
    let mut store = RouteStore::new(small_cfg());
    for (i, u) in stream.iter().enumerate() {
        store.ingest(u.clone());
        if i % 12_500 == 12_499 {
            store.seal_complete_into(&dir).unwrap();
        }
    }
    store.seal_all_into(&dir).unwrap();
    assert!(
        gill_query::segment::list_segments(&dir).unwrap().len() >= 2,
        "expected multiple incremental segments"
    );

    // "Crash" (drop the process state) and restart from the directory.
    let mut reloaded = RouteStore::new(small_cfg());
    assert_eq!(reloaded.load_dir(&dir).unwrap(), 50_000);
    assert_eq!(reloaded.mem_stats().sealed_updates, 50_000);

    let before = Arc::new(RwLock::new(store));
    let after = Arc::new(RwLock::new(reloaded));
    assert_same_responses(&before, &after, "crash-restart");

    // The reloaded store keeps collecting: new updates land after the
    // sealed ones and seal into the next segment in sequence.
    let next_seq_before = gill_query::segment::list_segments(&dir)
        .unwrap()
        .last()
        .unwrap()
        .0;
    {
        let mut s = after.write();
        let t = s.latest_time().as_millis() + 1_000;
        s.ingest(
            UpdateBuilder::announce(VpId::from_asn(Asn(65_000)), Prefix::synthetic(3))
                .at(Timestamp::from_millis(t))
                .path([65_000, 9, 9, 9])
                .build(),
        );
        s.seal_all_into(&dir).unwrap().expect("tail segment");
    }
    let segs = gill_query::segment::list_segments(&dir).unwrap();
    assert!(
        segs.last().unwrap().0 > next_seq_before,
        "sequence advances"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mem_capped_store_sheds_and_keeps_serving() {
    let stream = synthetic_stream(20_000);

    // Size the cap from a probe run so the test tracks REC_OVERHEAD changes.
    let mut probe = RouteStore::new(small_cfg());
    for u in &stream[..10_000] {
        probe.ingest(u.clone());
    }
    let cap = probe.mem_stats().bytes_resident;

    let mut store = RouteStore::new(StoreConfig {
        mem_cap_bytes: cap,
        ..small_cfg()
    });
    for u in &stream {
        store.ingest(u.clone());
    }
    let m = store.mem_stats();
    assert!(m.shed_updates > 0, "cap must shed some of the stream");
    assert_eq!(
        store.stats().updates + m.shed_updates,
        20_000,
        "every update is either stored or counted as shed"
    );
    assert!(
        m.bytes_resident <= cap + 4_096,
        "resident bytes stay at the cap (got {} vs cap {cap})",
        m.bytes_resident
    );
    // Reads still work on the retained prefix of the stream.
    let shared = Arc::new(RwLock::new(store));
    assert_eq!(get(&shared, "/vps").status, 200);
    assert_eq!(get(&shared, "/store/stats").status, 200);
}

/// The ADD-PATH VP of [`addpath_stream`].
const ADDPATH_VP: u32 = 65_100;

/// [`synthetic_stream`] with one more VP interleaved on the same clock: an
/// ADD-PATH peer holding up to four paths per prefix (one of them the
/// classic untagged slot), some withdrawn again.
fn addpath_stream(n: usize) -> Vec<BgpUpdate> {
    let mut rng = Rng(0xbb67ae8584caa73b);
    let vp = VpId::from_asn(Asn(ADDPATH_VP));
    let mut out = Vec::with_capacity(n + n / 10);
    for (i, u) in synthetic_stream(n).into_iter().enumerate() {
        let t = u.time;
        out.push(u);
        if i % 10 != 9 {
            continue;
        }
        let prefix = Prefix::synthetic(rng.below(30) as u32);
        let id = rng.below(4) as u32;
        let mut b = if rng.below(6) == 0 {
            UpdateBuilder::withdraw(vp, prefix).at(t)
        } else {
            let mid = (rng.below(900) + 100) as u32;
            UpdateBuilder::announce(vp, prefix)
                .at(t)
                .path([ADDPATH_VP, mid, (rng.below(50) + 1) as u32])
                .community(100, rng.below(20) as u16)
        };
        if id > 0 {
            b = b.path_id(id);
        }
        out.push(b.build());
    }
    out
}

fn path_json(path: &bgp_types::AsPath) -> Json {
    Json::Arr(
        path.hops()
            .iter()
            .map(|a| Json::U64(a.value() as u64))
            .collect(),
    )
}

fn comms_json<'a>(comms: impl Iterator<Item = &'a bgp_types::Community>) -> Json {
    Json::Arr(comms.map(|c| Json::str(c.to_string())).collect())
}

fn time_json(t: Option<Timestamp>) -> Json {
    t.map(|t| Json::U64(t.as_millis())).unwrap_or(Json::Null)
}

/// `/rib` as the server rendered it from a materialised table: the
/// reference RIB's entries cloned and stable-sorted by prefix.
fn rib_oracle(reference: &ReferenceStore, vp: VpId, at: Option<Timestamp>) -> Vec<u8> {
    let rib = match at {
        None => reference.rib_now(vp).cloned(),
        Some(t) => reference.rib_at(vp, t),
    };
    let mut entries: Vec<(Prefix, RibEntry)> = rib
        .map(|r| r.iter().map(|(p, e)| (*p, e.clone())).collect())
        .unwrap_or_default();
    entries.sort_by_key(|(p, _)| *p);
    let routes = entries
        .iter()
        .map(|(p, e)| {
            Json::obj([
                ("prefix", Json::str(p.to_string())),
                ("path", path_json(&e.path)),
                (
                    "origin",
                    e.path
                        .origin()
                        .map(|a| Json::U64(a.value() as u64))
                        .unwrap_or(Json::Null),
                ),
                ("communities", comms_json(e.communities.iter())),
                ("time", Json::U64(e.time.as_millis())),
            ])
        })
        .collect();
    Json::obj([
        ("vp", Json::str(vp.to_string())),
        ("at", time_json(at)),
        ("count", Json::U64(entries.len() as u64)),
        ("routes", Json::Arr(routes)),
    ])
    .encode()
    .unwrap()
    .into_bytes()
}

/// `/updates?vp=` as the server rendered it from every match: the
/// reference store's full answer, cut to `limit`.
fn updates_oracle(
    reference: &ReferenceStore,
    vp: VpId,
    from: u64,
    to: u64,
    limit: usize,
) -> Vec<u8> {
    let (from, to) = (Timestamp::from_millis(from), Timestamp::from_millis(to));
    let all = reference.updates_in_range(None, JoinMode::Exact, Some(vp), from, to);
    let shown = &all[..all.len().min(limit)];
    let updates = shown
        .iter()
        .map(|u| {
            let mut fields = vec![
                ("vp", Json::str(u.vp.to_string())),
                ("time", Json::U64(u.time.as_millis())),
                ("prefix", Json::str(u.prefix.to_string())),
                (
                    "kind",
                    Json::str(match u.kind {
                        UpdateKind::Announce => "announce",
                        UpdateKind::Withdraw => "withdraw",
                    }),
                ),
                ("path", path_json(&u.path)),
                ("communities", comms_json(u.communities.iter())),
            ];
            if let Some(id) = u.path_id {
                fields.push(("path_id", Json::U64(id as u64)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("from", Json::U64(from.as_millis())),
        ("to", Json::U64(to.as_millis())),
        ("count", Json::U64(shown.len() as u64)),
        ("truncated", Json::Bool(all.len() > limit)),
        ("updates", Json::Arr(updates)),
    ])
    .encode()
    .unwrap()
    .into_bytes()
}

#[test]
fn rib_and_vp_updates_match_the_materialised_rendering() {
    let stream = addpath_stream(20_000);
    let mut reference = ReferenceStore::new(small_cfg());
    let mut interned = RouteStore::new(small_cfg());
    for u in &stream {
        reference.ingest(u.clone());
        interned.ingest(u.clone());
    }
    let addpath = VpId::from_asn(Asn(ADDPATH_VP));
    // the ADD-PATH lane holds several paths under one prefix, the
    // untagged slot among them, so the (prefix, path id) order is tested
    let live = reference.rib_now(addpath).unwrap();
    let mut per_prefix: std::collections::HashMap<Prefix, Vec<Option<u32>>> = Default::default();
    for (p, id, _) in live.iter_paths() {
        per_prefix.entry(*p).or_default().push(id);
    }
    assert!(per_prefix
        .values()
        .any(|ids| ids.len() > 2 && ids.contains(&None)));

    let latest = interned.latest_time().as_millis();
    let first_addpath = stream.iter().find(|u| u.vp == addpath).unwrap().time;
    let shared = Arc::new(RwLock::new(interned));
    let mut ats: Vec<Option<Timestamp>> = vec![
        None,
        Some(Timestamp::ZERO),
        Some(Timestamp::from_millis(first_addpath.as_millis() - 1)),
    ];
    ats.extend(probe_times(latest).into_iter().map(Some));
    // the eight classic VPs, the ADD-PATH VP, and one never seen
    let vps: Vec<u32> = (65_000..65_008).chain([ADDPATH_VP, 99]).collect();
    for &asn in &vps {
        let vp = VpId::from_asn(Asn(asn));
        for &at in &ats {
            let target = match at {
                None => format!("/rib?vp={asn}"),
                Some(t) => format!("/rib?vp={asn}&at={}", t.as_millis()),
            };
            let resp = get(&shared, &target);
            assert_eq!(resp.status, 200, "{target}");
            assert_eq!(
                String::from_utf8(resp.body).unwrap(),
                String::from_utf8(rib_oracle(&reference, vp, at)).unwrap(),
                "{target}"
            );
        }
    }

    let mid = 1_000_000 + (latest - 1_000_000) / 2;
    let ranges = [
        (0, latest),
        (0, mid),
        (mid, latest),
        (mid, mid + 90_000),
        // after the last update, and an inverted range: nothing matches
        (latest + 1, latest + 60_000),
        (mid, mid - 1),
    ];
    let mut saw = (false, false);
    for &asn in &vps {
        let vp = VpId::from_asn(Asn(asn));
        // both ends on one of this VP's update times: inclusive bounds
        let times: Vec<u64> = stream
            .iter()
            .filter(|u| u.vp == vp)
            .map(|u| u.time.as_millis())
            .collect();
        let on_updates = (times.len() > 300).then(|| (times[100], times[300]));
        for (from, to) in ranges.into_iter().chain(on_updates) {
            let n = reference
                .updates_in_range(
                    None,
                    JoinMode::Exact,
                    Some(vp),
                    Timestamp::from_millis(from),
                    Timestamp::from_millis(to),
                )
                .len();
            if from > latest || from > to {
                assert_eq!(n, 0, "{asn} {from}..{to} must be empty");
            }
            // exactly `limit` matches, and `limit + 1` (truncated)
            for limit in [0, 1, 200, n.saturating_sub(1), n, n + 1] {
                saw.0 |= n > 0 && limit == n;
                saw.1 |= n > 0 && n == limit + 1;
                let target = format!("/updates?vp={asn}&from={from}&to={to}&limit={limit}");
                let resp = get(&shared, &target);
                assert_eq!(resp.status, 200, "{target}");
                assert_eq!(
                    String::from_utf8(resp.body).unwrap(),
                    String::from_utf8(updates_oracle(&reference, vp, from, to, limit)).unwrap(),
                    "{target}"
                );
            }
        }
    }
    assert_eq!(saw, (true, true));
}

/// [`addpath_stream`] made dual-stack and nested, keyed on the prefix so
/// announcements and withdrawals stay paired: ids `≡ 0 (mod 37)` become
/// the covering v4 `/16`, ids `≡ 1 (mod 37)` the covering v6 `/48`, and
/// other multiples of 5 their v6 twin. The ADD-PATH lane's prefixes (ids
/// below 30) take the same mapping, so it holds v4, v6 and aggregates.
fn dual_stack_stream(n: usize) -> Vec<BgpUpdate> {
    let aggregate_v4 = |id: u32| Prefix::v4(std::net::Ipv4Addr::new(10, (id >> 8) as u8, 0, 0), 16);
    let aggregate_v6: Prefix = "2001:db8::/48".parse().unwrap();
    addpath_stream(n)
        .into_iter()
        .map(|mut u| {
            let id = u.prefix.synthetic_index().expect("synthetic prefix");
            u.prefix = match (id % 37, id % 5) {
                (0, _) => aggregate_v4(id),
                (1, _) => aggregate_v6,
                (_, 0) => Prefix::synthetic_v6(id),
                _ => u.prefix,
            };
            u
        })
        .collect()
}

/// `/routes` rendered from the reference RIBs. A live LPM answers with the
/// most specific covering prefix any selected VP routes (the cross-VP
/// table); a past one answers per VP, each with its own most specific
/// covering prefix. Routes come in `(prefix, vp, path id)` order.
fn routes_oracle(
    tables: &[(VpId, bgp_types::Rib)],
    prefix: Prefix,
    mode: MatchMode,
    vp: Option<VpId>,
    at: Option<Timestamp>,
) -> Vec<u8> {
    type Hit<'a> = (Prefix, VpId, Option<u32>, &'a RibEntry);
    fn longest<'a>(prefix: Prefix, routes: impl Iterator<Item = Hit<'a>>) -> Vec<Hit<'a>> {
        let covering: Vec<Hit> = routes.filter(|(p, ..)| p.covers(&prefix)).collect();
        let best = covering.iter().map(|(p, ..)| p.len()).max();
        covering
            .into_iter()
            .filter(|(p, ..)| Some(p.len()) == best)
            .collect()
    }
    let selected: Vec<Hit> = tables
        .iter()
        .filter(|(v, _)| vp.is_none_or(|want| *v == want))
        .flat_map(|(v, rib)| rib.iter_paths().map(move |(p, id, e)| (*p, *v, id, e)))
        .collect();
    let mut hits: Vec<Hit> = match (mode, at) {
        (MatchMode::Exact, _) => selected
            .into_iter()
            .filter(|(p, ..)| *p == prefix)
            .collect(),
        (MatchMode::MoreSpecific, _) => selected
            .into_iter()
            .filter(|(p, ..)| prefix.covers(p))
            .collect(),
        (MatchMode::Longest, None) => longest(prefix, selected.into_iter()),
        (MatchMode::Longest, Some(_)) => tables
            .iter()
            .flat_map(|(v, _)| longest(prefix, selected.iter().copied().filter(|h| h.1 == *v)))
            .collect(),
    };
    hits.sort_by_key(|(p, v, id, _)| (*p, *v, *id));
    let routes = hits
        .iter()
        .map(|(p, v, _, e)| {
            Json::obj([
                ("vp", Json::str(v.to_string())),
                ("prefix", Json::str(p.to_string())),
                ("path", path_json(&e.path)),
                (
                    "origin",
                    e.path
                        .origin()
                        .map(|a| Json::U64(a.value() as u64))
                        .unwrap_or(Json::Null),
                ),
                ("communities", comms_json(e.communities.iter())),
                ("time", Json::U64(e.time.as_millis())),
            ])
        })
        .collect();
    Json::obj([
        ("query", Json::str(prefix.to_string())),
        (
            "match",
            Json::str(match mode {
                MatchMode::Exact => "exact",
                MatchMode::Longest => "lpm",
                MatchMode::MoreSpecific => "ms",
            }),
        ),
        ("at", time_json(at)),
        ("count", Json::U64(hits.len() as u64)),
        ("routes", Json::Arr(routes)),
    ])
    .encode()
    .unwrap()
    .into_bytes()
}

#[test]
fn routes_match_the_reference_rendering() {
    let stream = dual_stack_stream(20_000);
    let mut reference = ReferenceStore::new(small_cfg());
    let mut interned = RouteStore::new(small_cfg());
    for u in &stream {
        reference.ingest(u.clone());
        interned.ingest(u.clone());
    }
    let addpath = VpId::from_asn(Asn(ADDPATH_VP));
    // the ADD-PATH lane holds several paths under one v6 and one v4 prefix
    let live = reference.rib_now(addpath).unwrap();
    let mut per_prefix: std::collections::HashMap<Prefix, usize> = Default::default();
    for (p, _, _) in live.iter_paths() {
        *per_prefix.entry(*p).or_default() += 1;
    }
    assert!(per_prefix.iter().any(|(p, n)| p.is_ipv6() && *n > 1));
    assert!(per_prefix.iter().any(|(p, n)| !p.is_ipv6() && *n > 1));

    let latest = interned.latest_time().as_millis();
    let mid = 1_000_000 + (latest - 1_000_000) / 2;
    let shared = Arc::new(RwLock::new(interned));
    let p = |s: &str| s.parse::<Prefix>().unwrap();
    let queries = [
        // plain /24s (3 and 7 under the ADD-PATH lane, 251 not), host
        // routes inside a /24 and inside the /16 alone, a covering /22,
        // and enumerations across the v4 /16 and /8
        Prefix::synthetic(3),
        Prefix::synthetic(7),
        Prefix::synthetic(251),
        p("10.0.13.1/32"),
        p("10.0.74.1/32"),
        p("10.0.4.0/22"),
        p("10.0.0.0/16"),
        p("10.0.0.0/8"),
        // the v6 twins (20 under the ADD-PATH lane, 255 not), a host
        // route, a narrower cover and the /48
        Prefix::synthetic_v6(5),
        Prefix::synthetic_v6(20),
        Prefix::synthetic_v6(255),
        p("2001:db8:0:19::1/128"),
        p("2001:db8:0:10::/61"),
        p("2001:db8::/48"),
        // held by no VP at all
        p("11.0.0.0/24"),
        p("2001:db9::/32"),
    ];
    let vps = [
        None,
        Some(VpId::from_asn(Asn(65_003))),
        Some(addpath),
        Some(VpId::from_asn(Asn(99))),
    ];
    let ats = [
        None,
        Some(Timestamp::from_millis(mid)),
        Some(Timestamp::ZERO),
    ];
    let mut nonempty = [0usize; 3];
    for at in ats {
        let tables: Vec<(VpId, bgp_types::Rib)> = reference
            .vps()
            .into_iter()
            .map(|(v, _)| {
                let rib = match at {
                    None => reference.rib_now(v).cloned(),
                    Some(t) => reference.rib_at(v, t),
                };
                (v, rib.unwrap())
            })
            .collect();
        for prefix in queries {
            for (mi, mode) in [
                MatchMode::Exact,
                MatchMode::Longest,
                MatchMode::MoreSpecific,
            ]
            .into_iter()
            .enumerate()
            {
                for vp in vps {
                    let m = ["exact", "lpm", "ms"][mi];
                    let mut target = format!("/routes?prefix={prefix}&match={m}");
                    if let Some(v) = vp {
                        target += &format!("&vp={}", v.asn.value());
                    }
                    if let Some(t) = at {
                        target += &format!("&at={}", t.as_millis());
                    }
                    let resp = get(&shared, &target);
                    assert_eq!(resp.status, 200, "{target}");
                    let want = routes_oracle(&tables, prefix, mode, vp, at);
                    nonempty[mi] += usize::from(!want.ends_with(b"\"count\":0,\"routes\":[]}"));
                    assert_eq!(
                        String::from_utf8(resp.body).unwrap(),
                        String::from_utf8(want).unwrap(),
                        "{target}"
                    );
                }
            }
        }
    }
    // every mode answered with routes somewhere in the matrix
    assert!(nonempty.iter().all(|&n| n > 10), "{nonempty:?}");
    // a live LPM for a /24 other VPs route but the ADD-PATH VP does not
    // widens to the covering aggregate the ADD-PATH VP does route
    for (q, cover) in [
        (Prefix::synthetic(251), "10.0.0.0/16"),
        (Prefix::synthetic_v6(255), "2001:db8::/48"),
    ] {
        let body = get(
            &shared,
            &format!("/routes?prefix={q}&match=lpm&vp={ADDPATH_VP}"),
        )
        .body;
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains(&format!("\"prefix\":\"{cover}\"")), "{body}");
        assert!(!body.contains("\"count\":0"), "{body}");
    }
}

/// Every hot-endpoint body the writer renders parses back to a tree that
/// encodes to the same bytes: the writer emits nothing the tree would
/// write differently.
#[test]
fn hot_bodies_reparse_to_themselves() {
    let stream = dual_stack_stream(20_000);
    let mut store = RouteStore::new(small_cfg());
    for u in &stream {
        store.ingest(u.clone());
    }
    let latest = store.latest_time().as_millis();
    let mid = 1_000_000 + (latest - 1_000_000) / 2;
    let shared = Arc::new(RwLock::new(store));
    let mut targets: Vec<String> = request_matrix(latest)
        .into_iter()
        .filter(|t| !t.starts_with("/mrt/") && !t.starts_with("/vps"))
        .collect();
    for at in [String::new(), format!("&at={mid}")] {
        for m in ["exact", "lpm", "ms"] {
            for q in ["10.0.0.0/8", "10.0.74.1/32", "2001:db8::/48"] {
                targets.push(format!("/routes?prefix={q}&match={m}{at}"));
                targets.push(format!("/routes?prefix={q}&match={m}&vp={ADDPATH_VP}{at}"));
            }
        }
        targets.push(format!("/rib?vp={ADDPATH_VP}{at}"));
    }
    targets.push(format!("/updates?vp={ADDPATH_VP}&to={latest}&limit=500"));
    targets.push(format!(
        "/updates?prefix=2001:db8::/48&join=covered&to={latest}"
    ));
    for target in targets {
        let resp = get(&shared, &target);
        assert_eq!(resp.status, 200, "{target}");
        let body = String::from_utf8(resp.body).unwrap();
        let tree = Json::parse(&body).unwrap_or_else(|e| panic!("{target}: {e}"));
        assert_eq!(tree.encode().unwrap(), body, "{target}");
    }
}
