//! Query parameter types and the engine that renders store answers as JSON.
//!
//! The HTTP layer parses URLs into a [`RouteQuery`]/[`UpdateQuery`] and the
//! engine executes it against a [`RouteStore`], producing [`Json`] the
//! server serializes. Keeping this separate from HTTP means the same query
//! surface is testable (and usable by other frontends) without sockets.
//!
//! The hot answers (`/routes`, `/rib`, `/updates`, `/origin`) are written
//! by one [`JsonWriter`] straight from the store's borrowing walks
//! ([`RouteStore::lookup_walk`], [`RouteStore::rib_walk`],
//! [`RouteStore::updates_walk`]): no owned route, no update and no
//! [`Json`] tree per entry. They come back as [`Json::Raw`]. The cold
//! answers (`/health`, `/vps`, `/store/stats`) build a tree.

use crate::json::{fmt_u64, Json, JsonWriter};
use crate::store::{RouteRef, RouteStore, UpdateRef};
use bgp_types::{AsPath, Asn, Community, Prefix, Timestamp, UpdateKind, VpId};

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
        let routes = store.lookup_walk(&q.prefix, q.mode, q.vp, q.at);
        let mut w = JsonWriter::with_capacity(96 + routes.len() * ROUTE_BYTES);
        w.begin_obj();
        w.key("query");
        write_prefix(&mut w, q.prefix);
        w.key("match");
        w.str(match q.mode {
            MatchMode::Exact => "exact",
            MatchMode::Longest => "lpm",
            MatchMode::MoreSpecific => "ms",
        });
        w.key("at");
        write_time(&mut w, q.at);
        w.key("count");
        w.u64(routes.len() as u64);
        w.key("routes");
        w.begin_arr();
        for (vp, r) in &routes {
            write_route(&mut w, Some(*vp), r);
        }
        w.end_arr();
        w.end_obj();
        Json::Raw(w.finish())
    }

    /// `/rib` — one VP's full table (live or at a point in time). `None`
    /// when the store holds no update from `vp`.
    pub fn rib(store: &RouteStore, vp: VpId, at: Option<Timestamp>) -> Option<Json> {
        Some(rib_body(vp, at, &store.rib_walk(vp, at)?))
    }

    /// The `/rib` answer for a VP with no stored update: the shape of
    /// [`QueryEngine::rib`] with `count: 0` and no routes.
    pub fn empty_rib(vp: VpId, at: Option<Timestamp>) -> Json {
        rib_body(vp, at, &[])
    }

    /// `/updates` — the time-ranged update log. Only `limit + 1` updates
    /// are resolved: one past the limit is enough to tell `truncated`.
    pub fn updates(store: &RouteStore, q: &UpdateQuery) -> Json {
        let all = store.updates_walk(
            q.prefix.as_ref(),
            q.join,
            q.vp,
            q.from,
            q.to,
            q.limit.saturating_add(1),
        );
        let shown = &all[..all.len().min(q.limit)];
        let mut w = JsonWriter::with_capacity(96 + shown.len() * UPDATE_BYTES);
        w.begin_obj();
        w.key("from");
        w.u64(q.from.as_millis());
        w.key("to");
        w.u64(q.to.as_millis());
        w.key("count");
        w.u64(shown.len() as u64);
        w.key("truncated");
        w.bool(all.len() > q.limit);
        w.key("updates");
        w.begin_arr();
        for u in shown {
            write_update(&mut w, u);
        }
        w.end_arr();
        w.end_obj();
        Json::Raw(w.finish())
    }

    /// `/origin` — prefixes currently originated by an AS.
    pub fn origin(store: &RouteStore, asn: Asn) -> Json {
        let prefixes = store.originated(asn);
        let mut w = JsonWriter::with_capacity(64 + prefixes.len() * 40);
        w.begin_obj();
        w.key("asn");
        w.u64(asn.value() as u64);
        w.key("count");
        w.u64(prefixes.len() as u64);
        w.key("prefixes");
        w.begin_arr();
        for (p, vps) in &prefixes {
            w.begin_obj();
            w.key("prefix");
            write_prefix(&mut w, *p);
            w.key("vps");
            w.u64(*vps as u64);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        Json::Raw(w.finish())
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

/// Buffer bytes reserved per rendered route and per rendered update: a
/// typical entry fits, so a response rarely regrows its buffer.
const ROUTE_BYTES: usize = 128;
const UPDATE_BYTES: usize = 160;

/// Renders a `/rib` answer; `routes` come sorted by `(prefix, path id)`.
fn rib_body(vp: VpId, at: Option<Timestamp>, routes: &[RouteRef<'_>]) -> Json {
    let mut w = JsonWriter::with_capacity(64 + routes.len() * ROUTE_BYTES);
    w.begin_obj();
    w.key("vp");
    w.display(vp);
    w.key("at");
    write_time(&mut w, at);
    w.key("count");
    w.u64(routes.len() as u64);
    w.key("routes");
    w.begin_arr();
    for r in routes {
        write_route(&mut w, None, r);
    }
    w.end_arr();
    w.end_obj();
    Json::Raw(w.finish())
}

/// One route of a `/routes` (`vp` given) or `/rib` (`vp` omitted) answer.
fn write_route(w: &mut JsonWriter, vp: Option<VpId>, r: &RouteRef<'_>) {
    w.begin_obj();
    if let Some(vp) = vp {
        w.key("vp");
        w.display(vp);
    }
    w.key("prefix");
    write_prefix(w, r.prefix);
    w.key("path");
    write_path(w, r.path);
    w.key("origin");
    match r.path.origin() {
        Some(a) => w.u64(a.value() as u64),
        None => w.null(),
    }
    w.key("communities");
    write_communities(w, r.communities);
    w.key("time");
    w.u64(r.time.as_millis());
    w.end_obj();
}

/// One update of an `/updates` answer. Only ADD-PATH-tagged updates carry
/// `path_id`, so classic responses stay byte-identical (the store-persist
/// cmp depends on that).
fn write_update(w: &mut JsonWriter, u: &UpdateRef<'_>) {
    w.begin_obj();
    w.key("vp");
    w.display(u.vp);
    w.key("time");
    w.u64(u.time.as_millis());
    w.key("prefix");
    write_prefix(w, u.prefix);
    w.key("kind");
    w.str(match u.kind {
        UpdateKind::Announce => "announce",
        UpdateKind::Withdraw => "withdraw",
    });
    w.key("path");
    write_path(w, u.path);
    w.key("communities");
    write_communities(w, u.communities);
    if let Some(id) = u.path_id {
        w.key("path_id");
        w.u64(id as u64);
    }
    w.end_obj();
}

fn write_time(w: &mut JsonWriter, t: Option<Timestamp>) {
    match t {
        Some(t) => w.u64(t.as_millis()),
        None => w.null(),
    }
}

fn write_path(w: &mut JsonWriter, path: &AsPath) {
    w.begin_arr();
    for a in path.hops() {
        w.u64(a.value() as u64);
    }
    w.end_arr();
}

fn write_communities(w: &mut JsonWriter, comms: &[Community]) {
    w.begin_arr();
    for c in comms {
        w.display(c);
    }
    w.end_arr();
}

/// A prefix as [`Prefix`]'s `Display` writes it. IPv4 takes a direct path;
/// IPv6 keeps `Display`, so its zero compression stays std's.
fn write_prefix(w: &mut JsonWriter, p: Prefix) {
    if p.is_ipv6() {
        return w.display(p);
    }
    w.str_with(|out| {
        for (i, octet) in (p.raw_bits() as u32).to_be_bytes().into_iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            fmt_u64(octet as u64, out);
        }
        out.push('/');
        fmt_u64(p.len() as u64, out);
    });
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
        let mut s = RouteStore::default();
        s.ingest(
            UpdateBuilder::announce(VpId::from_asn(Asn(65001)), "10.0.0.0/8".parse().unwrap())
                .at(Timestamp::from_secs(1))
                .path([65001, 2])
                .build(),
        );
        s.ingest(
            UpdateBuilder::announce(VpId::from_asn(Asn(65001)), "2001:db8::/32".parse().unwrap())
                .at(Timestamp::from_secs(2))
                .path([65001, 2])
                .path_id(7)
                .build(),
        );
        let one = |prefix: &str| {
            let q = UpdateQuery {
                prefix: Some(prefix.parse().unwrap()),
                join: JoinMode::Exact,
                vp: None,
                from: Timestamp::ZERO,
                to: Timestamp::from_secs(9),
                limit: 10,
            };
            QueryEngine::updates(&s, &q).encode().unwrap()
        };
        let classic = one("10.0.0.0/8");
        assert!(classic.contains("\"count\":1"), "{classic}");
        assert!(!classic.contains("path_id"), "{classic}");
        let tagged = one("2001:db8::/32");
        assert!(tagged.contains("\"path_id\":7}"), "{tagged}");
    }

    #[test]
    fn prefix_renderer_matches_display() {
        for p in [
            "0.0.0.0/0",
            "10.0.5.0/24",
            "255.255.255.255/32",
            "192.168.0.0/16",
            "::/0",
            "2001:db8::/32",
            "2001:db8:0:19::1/128",
            "::ffff:10.0.0.0/104",
        ] {
            let p: Prefix = p.parse().unwrap();
            let mut w = JsonWriter::new();
            write_prefix(&mut w, p);
            assert_eq!(w.finish().as_str(), format!("\"{p}\""));
        }
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
