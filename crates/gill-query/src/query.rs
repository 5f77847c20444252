//! Query parameter types and the engine that renders store answers as JSON.
//!
//! The HTTP layer parses URLs into a [`RouteQuery`]/[`UpdateQuery`] and the
//! engine executes it against a [`RouteStore`], producing [`Json`] the
//! server serializes. Keeping this separate from HTTP means the same query
//! surface is testable (and usable by other frontends) without sockets.

use crate::json::Json;
use crate::store::{RouteStore, RouteView};
use bgp_types::{Asn, Prefix, Timestamp, UpdateKind, VpId};

/// How a queried prefix selects stored route-table entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// Only the exact prefix.
    Exact,
    /// The most specific stored prefix covering the query (route lookup).
    Longest,
    /// Every stored prefix covered by the query (sub-prefix enumeration).
    MoreSpecific,
}

impl MatchMode {
    /// Parses the `match=` query parameter.
    pub fn parse(s: &str) -> Option<MatchMode> {
        match s {
            "exact" => Some(MatchMode::Exact),
            "lpm" | "longest" => Some(MatchMode::Longest),
            "ms" | "more-specific" | "more_specifics" => Some(MatchMode::MoreSpecific),
            _ => None,
        }
    }
}

/// Prefix joining for update-log queries (shard scans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinMode {
    /// Updates whose prefix equals the query.
    Exact,
    /// Updates whose prefix is covered by the query.
    Covered,
}

/// A looking-glass route query.
#[derive(Clone, Debug)]
pub struct RouteQuery {
    /// The queried prefix.
    pub prefix: Prefix,
    /// Match semantics (default LPM, the looking-glass default).
    pub mode: MatchMode,
    /// Restrict to one VP (`None` = all VPs).
    pub vp: Option<VpId>,
    /// Historical point-in-time (`None` = live table).
    pub at: Option<Timestamp>,
}

/// An update-log query over the time shards.
#[derive(Clone, Debug)]
pub struct UpdateQuery {
    /// Restrict to a prefix (`None` = everything in range).
    pub prefix: Option<Prefix>,
    /// Exact vs covered prefix matching.
    pub join: JoinMode,
    /// Restrict to one VP.
    pub vp: Option<VpId>,
    /// Range start (inclusive).
    pub from: Timestamp,
    /// Range end (inclusive).
    pub to: Timestamp,
    /// Cap on returned records.
    pub limit: usize,
}

/// Executes queries against a store and renders JSON.
pub struct QueryEngine;

impl QueryEngine {
    /// `/routes` — looking-glass lookup.
    pub fn routes(store: &RouteStore, q: &RouteQuery) -> Json {
        let views = match q.at {
            None => store.lookup(&q.prefix, q.mode, q.vp),
            Some(t) => store.lookup_at(&q.prefix, q.mode, q.vp, t),
        };
        Json::obj([
            ("query", Json::str(q.prefix.to_string())),
            (
                "match",
                Json::str(match q.mode {
                    MatchMode::Exact => "exact",
                    MatchMode::Longest => "lpm",
                    MatchMode::MoreSpecific => "ms",
                }),
            ),
            (
                "at",
                q.at.map(|t| Json::U64(t.as_millis())).unwrap_or(Json::Null),
            ),
            ("count", Json::U64(views.len() as u64)),
            ("routes", Json::Arr(views.iter().map(route_json).collect())),
        ])
    }

    /// `/rib` — one VP's full table (live or at a point in time). `None`
    /// when the store holds no update from `vp`.
    pub fn rib(store: &RouteStore, vp: VpId, at: Option<Timestamp>) -> Option<Json> {
        Some(rib_json(vp, at, &store.rib_routes(vp, at)?))
    }

    /// The `/rib` answer for a VP with no stored update: the shape of
    /// [`QueryEngine::rib`] with `count: 0` and no routes.
    pub fn empty_rib(vp: VpId, at: Option<Timestamp>) -> Json {
        rib_json(vp, at, &[])
    }

    /// `/updates` — the time-ranged update log. Only `limit + 1` updates
    /// are rebuilt: one past the limit is enough to tell `truncated`.
    pub fn updates(store: &RouteStore, q: &UpdateQuery) -> Json {
        let all = store.updates_in_range(
            q.prefix.as_ref(),
            q.join,
            q.vp,
            q.from,
            q.to,
            q.limit.saturating_add(1),
        );
        let truncated = all.len() > q.limit;
        let shown = &all[..all.len().min(q.limit)];
        Json::obj([
            ("from", Json::U64(q.from.as_millis())),
            ("to", Json::U64(q.to.as_millis())),
            ("count", Json::U64(shown.len() as u64)),
            ("truncated", Json::Bool(truncated)),
            (
                "updates",
                Json::Arr(shown.iter().map(update_json).collect()),
            ),
        ])
    }

    /// `/origin` — prefixes currently originated by an AS.
    pub fn origin(store: &RouteStore, asn: Asn) -> Json {
        let prefixes = store.originated(asn);
        Json::obj([
            ("asn", Json::U64(asn.value() as u64)),
            ("count", Json::U64(prefixes.len() as u64)),
            (
                "prefixes",
                Json::Arr(
                    prefixes
                        .iter()
                        .map(|(p, vps)| {
                            Json::obj([
                                ("prefix", Json::str(p.to_string())),
                                ("vps", Json::U64(*vps as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `/vps` — the vantage points feeding the store.
    pub fn vps(store: &RouteStore) -> Json {
        Json::obj([(
            "vps",
            Json::Arr(
                store
                    .vps()
                    .iter()
                    .map(|(vp, n)| {
                        Json::obj([
                            ("vp", Json::str(vp.to_string())),
                            ("asn", Json::U64(vp.asn.value() as u64)),
                            ("updates", Json::U64(*n as u64)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// `/store/stats` — memory, arena and persistence counters.
    pub fn store_stats(store: &RouteStore) -> Json {
        let st = store.stats();
        let m = store.mem_stats();
        Json::obj([
            ("updates", Json::U64(st.updates as u64)),
            ("shards", Json::U64(st.shards as u64)),
            ("snapshots", Json::U64(st.snapshots as u64)),
            ("bytes_resident", Json::U64(m.bytes_resident)),
            ("arena_paths", Json::U64(m.arena_paths as u64)),
            ("arena_comm_sets", Json::U64(m.arena_comm_sets as u64)),
            ("arena_link_sets", Json::U64(m.arena_link_sets as u64)),
            ("arena_prefixes", Json::U64(m.arena_prefixes as u64)),
            ("attr_refs", Json::U64(m.attr_refs)),
            (
                "dedup_ratio",
                Json::F64((m.dedup_ratio * 1000.0).round() / 1000.0),
            ),
            ("sealed_segments", Json::U64(m.sealed_segments as u64)),
            ("sealed_updates", Json::U64(m.sealed_updates as u64)),
            ("shed_updates", Json::U64(m.shed_updates as u64)),
        ])
    }

    /// `/health` — liveness plus store counters.
    pub fn health(store: &RouteStore) -> Json {
        let st = store.stats();
        Json::obj([
            ("status", Json::str("ok")),
            ("updates", Json::U64(st.updates as u64)),
            ("vps", Json::U64(st.vps as u64)),
            ("shards", Json::U64(st.shards as u64)),
            ("snapshots", Json::U64(st.snapshots as u64)),
            ("live_prefixes", Json::U64(st.live_prefixes as u64)),
        ])
    }
}

fn route_json(v: &RouteView) -> Json {
    let mut obj = match entry_json(v.prefix, &v.entry) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("entry_json returns an object"),
    };
    obj.insert(0, ("vp".to_string(), Json::str(v.vp.to_string())));
    Json::Obj(obj)
}

/// Renders a `/rib` answer; `entries` come sorted by `(prefix, path id)`.
fn rib_json(vp: VpId, at: Option<Timestamp>, entries: &[(Prefix, bgp_types::RibEntry)]) -> Json {
    Json::obj([
        ("vp", Json::str(vp.to_string())),
        (
            "at",
            at.map(|t| Json::U64(t.as_millis())).unwrap_or(Json::Null),
        ),
        ("count", Json::U64(entries.len() as u64)),
        (
            "routes",
            Json::Arr(entries.iter().map(|(p, e)| entry_json(*p, e)).collect()),
        ),
    ])
}

fn entry_json(prefix: Prefix, e: &bgp_types::RibEntry) -> Json {
    Json::obj([
        ("prefix", Json::str(prefix.to_string())),
        (
            "path",
            Json::Arr(
                e.path
                    .hops()
                    .iter()
                    .map(|a| Json::U64(a.value() as u64))
                    .collect(),
            ),
        ),
        (
            "origin",
            e.path
                .origin()
                .map(|a| Json::U64(a.value() as u64))
                .unwrap_or(Json::Null),
        ),
        (
            "communities",
            Json::Arr(
                e.communities
                    .iter()
                    .map(|c| Json::str(c.to_string()))
                    .collect(),
            ),
        ),
        ("time", Json::U64(e.time.as_millis())),
    ])
}

fn update_json(u: &bgp_types::BgpUpdate) -> Json {
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
        (
            "path",
            Json::Arr(
                u.path
                    .hops()
                    .iter()
                    .map(|a| Json::U64(a.value() as u64))
                    .collect(),
            ),
        ),
        (
            "communities",
            Json::Arr(
                u.communities
                    .iter()
                    .map(|c| Json::str(c.to_string()))
                    .collect(),
            ),
        ),
    ];
    // only ADD-PATH-tagged updates carry the key; classic responses
    // stay byte-identical (the store-persist cmp depends on that)
    if let Some(id) = u.path_id {
        fields.push(("path_id", Json::U64(id as u64)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::UpdateBuilder;

    fn store_with_routes() -> RouteStore {
        let mut s = RouteStore::default();
        s.ingest(
            UpdateBuilder::announce(VpId::from_asn(Asn(65001)), "10.0.0.0/8".parse().unwrap())
                .at(Timestamp::from_secs(1))
                .path([65001, 2, 3])
                .community(65001, 100)
                .build(),
        );
        s
    }

    #[test]
    fn routes_json_shape() {
        let s = store_with_routes();
        let q = RouteQuery {
            prefix: "10.0.0.0/8".parse().unwrap(),
            mode: MatchMode::Exact,
            vp: None,
            at: None,
        };
        let out = QueryEngine::routes(&s, &q).encode().unwrap();
        assert_eq!(
            out,
            "{\"query\":\"10.0.0.0/8\",\"match\":\"exact\",\"at\":null,\"count\":1,\
             \"routes\":[{\"vp\":\"vp(AS65001)\",\"prefix\":\"10.0.0.0/8\",\
             \"path\":[65001,2,3],\"origin\":3,\"communities\":[\"65001:100\"],\
             \"time\":1000}]}"
        );
    }

    #[test]
    fn update_json_tags_path_id_only_when_present() {
        let classic =
            UpdateBuilder::announce(VpId::from_asn(Asn(65001)), "10.0.0.0/8".parse().unwrap())
                .at(Timestamp::from_secs(1))
                .path([65001, 2])
                .build();
        assert!(!update_json(&classic).encode().unwrap().contains("path_id"));

        let tagged =
            UpdateBuilder::announce(VpId::from_asn(Asn(65001)), "2001:db8::/32".parse().unwrap())
                .at(Timestamp::from_secs(1))
                .path([65001, 2])
                .path_id(7)
                .build();
        assert!(update_json(&tagged)
            .encode()
            .unwrap()
            .contains("\"path_id\":7"));
    }

    #[test]
    fn health_counts() {
        let s = store_with_routes();
        let out = QueryEngine::health(&s).encode().unwrap();
        assert!(out.contains("\"status\":\"ok\""));
        assert!(out.contains("\"updates\":1"));
        assert!(out.contains("\"live_prefixes\":1"));
    }

    #[test]
    fn match_mode_parse() {
        assert_eq!(MatchMode::parse("exact"), Some(MatchMode::Exact));
        assert_eq!(MatchMode::parse("lpm"), Some(MatchMode::Longest));
        assert_eq!(MatchMode::parse("ms"), Some(MatchMode::MoreSpecific));
        assert_eq!(MatchMode::parse("bogus"), None);
    }

    #[test]
    fn rib_of_unknown_vp_is_none() {
        let s = store_with_routes();
        assert!(QueryEngine::rib(&s, VpId::from_asn(Asn(9)), None).is_none());
    }
}
