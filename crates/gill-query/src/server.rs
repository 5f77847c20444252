//! The looking-glass endpoint router.
//!
//! Maps URLs onto [`QueryEngine`] calls against a shared [`RouteStore`] and
//! serves the result over the [`http`](crate::http) layer. JSON endpoints
//! answer interactive queries; the `/mrt/*` endpoints export the same data
//! in the archive format (BGP4MP update streams, TABLE_DUMP_V2 RIB
//! snapshots) so downstream tooling can consume a live store exactly like
//! a published dump.
//!
//! | endpoint        | parameters                                        |
//! |-----------------|---------------------------------------------------|
//! | `/health`       | —                                                 |
//! | `/vps`          | —                                                 |
//! | `/routes`       | `prefix` (req), `match=exact|lpm|ms`, `vp`, `at`  |
//! | `/rib`          | `vp` (req), `at`                                  |
//! | `/updates`      | `from`, `to`, `prefix`, `join=exact|covered`, `vp`, `limit` |
//! | `/origin`       | `asn` (req)                                       |
//! | `/mrt/updates`  | `vp` (req)                                        |
//! | `/mrt/rib`      | `at` (default: latest)                            |
//! | `/filters`      | `format=json|text` (default: json)                |
//!
//! Timestamps are milliseconds since the epoch; `vp` is `65001` /
//! `AS65001` / `65001#2`. `/filters` publishes the collector's live filter
//! state (GILL §9): JSON describes the current epoch, `format=text` serves
//! the exact published `anchor`/`drop` rule file, byte-for-byte what
//! [`FilterSet::from_text`](gill_core::FilterSet::from_text) re-ingests.

use crate::http::{HttpServer, Request, Response, ServerConfig};
use crate::query::{QueryEngine, RouteQuery, UpdateQuery};
use crate::store::RouteStore;
use crate::{JoinMode, MatchMode};
use bgp_types::{Asn, BgpUpdate, Prefix, Timestamp, VpId};
use bgp_wire::{BgpMessage, MrtRecord, MrtWriter, TableDump, UpdateMessage};
use gill_core::{FilterGranularity, FilterHandle};
use parking_lot::RwLock;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// The store handle shared between ingest and serving.
pub type SharedStore = Arc<RwLock<RouteStore>>;

/// Default cap on `/updates` results when `limit` is absent.
const DEFAULT_UPDATE_LIMIT: usize = 10_000;

/// Starts the looking-glass server on `addr` over `store`.
pub fn serve(addr: &str, cfg: ServerConfig, store: SharedStore) -> std::io::Result<HttpServer> {
    serve_with(addr, cfg, store, None)
}

/// Starts the looking-glass server with collector filter state attached,
/// enabling `/filters` (reads always see the live epoch — the handle is
/// the same one the collector's sessions judge against).
pub fn serve_with(
    addr: &str,
    cfg: ServerConfig,
    store: SharedStore,
    filters: Option<Arc<FilterHandle>>,
) -> std::io::Result<HttpServer> {
    HttpServer::start(addr, cfg, move |req| {
        route_with(req, &store, filters.as_deref())
    })
}

/// Dispatches one parsed request against the store (no filter state).
pub fn route(req: &Request, store: &SharedStore) -> Response {
    route_with(req, store, None)
}

/// Dispatches one parsed request against the store and optional filter
/// state.
pub fn route_with(req: &Request, store: &SharedStore, filters: Option<&FilterHandle>) -> Response {
    match req.path.as_str() {
        "/health" => json_ok(QueryEngine::health(&store.read())),
        "/store/stats" => json_ok(QueryEngine::store_stats(&store.read())),
        "/vps" => json_ok(QueryEngine::vps(&store.read())),
        "/routes" => routes(req, store),
        "/rib" => rib(req, store),
        "/updates" => updates(req, store),
        "/origin" => origin(req, store),
        "/mrt/updates" => mrt_updates(req, store),
        "/mrt/rib" => mrt_rib(req, store),
        "/filters" => filters_endpoint(req, filters),
        _ => Response::error(404, "unknown endpoint"),
    }
}

/// `/filters`: the live filter state. JSON by default; `format=text`
/// serves the §9 published rule file exactly as
/// [`CompiledFilters::to_text`](gill_core::CompiledFilters::to_text)
/// renders it.
fn filters_endpoint(req: &Request, filters: Option<&FilterHandle>) -> Response {
    use crate::Json;
    let Some(handle) = filters else {
        return Response::error(404, "no filter state attached");
    };
    let compiled = handle.snapshot();
    match req.param("format") {
        Some("text") => match compiled.to_text() {
            Ok(text) => Response::text(text),
            Err(e) => Response::error(400, e),
        },
        None | Some("json") => {
            let granularity = match compiled.granularity() {
                FilterGranularity::VpPrefix => "vp-prefix",
                FilterGranularity::VpPrefixPath => "vp-prefix-path",
                FilterGranularity::VpPrefixPathComms => "vp-prefix-path-comms",
            };
            let anchors = compiled
                .anchors()
                .iter()
                .map(|vp| {
                    Json::str(if vp.router == 0 {
                        format!("{}", vp.asn.value())
                    } else {
                        format!("{}#{}", vp.asn.value(), vp.router)
                    })
                })
                .collect();
            let meta = compiled.meta();
            json_ok(Json::obj([
                ("epoch", Json::U64(compiled.epoch())),
                ("granularity", Json::str(granularity)),
                ("rules", Json::U64(compiled.num_rules() as u64)),
                ("anchors", Json::Arr(anchors)),
                (
                    "build",
                    Json::obj([
                        ("rules", Json::U64(meta.rules as u64)),
                        ("anchors", Json::U64(meta.anchors as u64)),
                        ("build_us", Json::U64(meta.build.as_micros() as u64)),
                    ]),
                ),
            ]))
        }
        Some(other) => Response::error(400, &format!("bad format parameter: {other:?}")),
    }
}

fn json_ok(j: crate::Json) -> Response {
    match j.encode() {
        Ok(body) => Response::json(body),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Parses `65001`, `AS65001`, or `65001#2` into a VP id.
pub fn parse_vp(s: &str) -> Option<VpId> {
    let (asn, router) = match s.split_once('#') {
        Some((a, r)) => (a, r.parse::<u16>().ok()?),
        None => (s, 0),
    };
    Some(VpId::new(asn.parse::<Asn>().ok()?, router))
}

fn parse_time(s: &str) -> Option<Timestamp> {
    s.parse::<u64>().ok().map(Timestamp::from_millis)
}

/// Extracts an optional parameter, distinguishing absent from malformed.
fn opt_param<T>(
    req: &Request,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, Response> {
    match req.param(key) {
        None => Ok(None),
        Some(raw) => parse(raw)
            .map(Some)
            .ok_or_else(|| Response::error(400, &format!("bad {key} parameter: {raw:?}"))),
    }
}

fn routes(req: &Request, store: &SharedStore) -> Response {
    let Some(prefix_raw) = req.param("prefix") else {
        return Response::error(400, "missing prefix parameter");
    };
    let Ok(prefix) = prefix_raw.parse::<Prefix>() else {
        return Response::error(400, &format!("bad prefix parameter: {prefix_raw:?}"));
    };
    let mode = match opt_param(req, "match", MatchMode::parse) {
        Ok(m) => m.unwrap_or(MatchMode::Longest),
        Err(resp) => return resp,
    };
    let vp = match opt_param(req, "vp", parse_vp) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let at = match opt_param(req, "at", parse_time) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let q = RouteQuery {
        prefix,
        mode,
        vp,
        at,
    };
    json_ok(QueryEngine::routes(&store.read(), &q))
}

fn rib(req: &Request, store: &SharedStore) -> Response {
    let vp = match opt_param(req, "vp", parse_vp) {
        Ok(Some(v)) => v,
        Ok(None) => return Response::error(400, "missing vp parameter"),
        Err(resp) => return resp,
    };
    let at = match opt_param(req, "at", parse_time) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    // a VP whose session is up but whose first update is not stored yet
    // has an empty table, exactly like `at=` before its first update
    json_ok(
        QueryEngine::rib(&store.read(), vp, at).unwrap_or_else(|| QueryEngine::empty_rib(vp, at)),
    )
}

fn updates(req: &Request, store: &SharedStore) -> Response {
    let prefix = match opt_param(req, "prefix", |s| s.parse::<Prefix>().ok()) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let join = match req.param("join") {
        None | Some("exact") => JoinMode::Exact,
        Some("covered") => JoinMode::Covered,
        Some(other) => return Response::error(400, &format!("bad join parameter: {other:?}")),
    };
    let vp = match opt_param(req, "vp", parse_vp) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let from = match opt_param(req, "from", parse_time) {
        Ok(t) => t.unwrap_or(Timestamp::ZERO),
        Err(resp) => return resp,
    };
    let store_guard = store.read();
    let to = match opt_param(req, "to", parse_time) {
        Ok(t) => t.unwrap_or_else(|| store_guard.latest_time()),
        Err(resp) => return resp,
    };
    let limit = match opt_param(req, "limit", |s| s.parse::<usize>().ok()) {
        Ok(l) => l.unwrap_or(DEFAULT_UPDATE_LIMIT),
        Err(resp) => return resp,
    };
    let q = UpdateQuery {
        prefix,
        join,
        vp,
        from,
        to,
        limit,
    };
    json_ok(QueryEngine::updates(&store_guard, &q))
}

fn origin(req: &Request, store: &SharedStore) -> Response {
    let asn = match opt_param(req, "asn", |s| s.parse::<Asn>().ok()) {
        Ok(Some(a)) => a,
        Ok(None) => return Response::error(400, "missing asn parameter"),
        Err(resp) => return resp,
    };
    json_ok(QueryEngine::origin(&store.read(), asn))
}

/// Encodes updates as MRT BGP4MP_MESSAGE_AS4 bytes (the archive format).
fn encode_updates_mrt(updates: &[BgpUpdate]) -> std::io::Result<Vec<u8>> {
    let mut w = MrtWriter::new(Vec::new());
    for u in updates {
        let msg = UpdateMessage::from_domain(u)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .without_path_ids();
        // record addresses follow the route's family: v6 updates export as
        // AFI-2 BGP4MP records, exactly like the collector's archive path
        let (peer_ip, local_ip) = if u.prefix.is_ipv6() {
            (
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 1)),
                IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 0xfe)),
            )
        } else {
            (
                IpAddr::V4(Ipv4Addr::new(10, 255, 0, 1)),
                IpAddr::V4(Ipv4Addr::new(10, 255, 0, 254)),
            )
        };
        w.write_record(&MrtRecord {
            time: u.time,
            peer_as: u.vp.asn,
            local_as: Asn(65535),
            peer_ip,
            local_ip,
            message: BgpMessage::Update(msg),
        })?;
    }
    w.into_inner()
}

fn mrt_updates(req: &Request, store: &SharedStore) -> Response {
    let vp = match opt_param(req, "vp", parse_vp) {
        Ok(Some(v)) => v,
        Ok(None) => return Response::error(400, "missing vp parameter"),
        Err(resp) => return resp,
    };
    // no stored update from `vp` (yet) is an empty archive, not an error
    let updates = store.read().lane_updates(vp).unwrap_or_default();
    match encode_updates_mrt(&updates) {
        Ok(bytes) => Response::octets(bytes),
        Err(e) => Response::error(400, &format!("mrt encode failed: {e}")),
    }
}

fn mrt_rib(req: &Request, store: &SharedStore) -> Response {
    let store = store.read();
    let at = match opt_param(req, "at", parse_time) {
        Ok(t) => t.unwrap_or_else(|| store.latest_time()),
        Err(resp) => return resp,
    };
    let ribs = store.ribs_at(at);
    let dump = TableDump::from_ribs(ribs.iter());
    let mut bytes = Vec::new();
    match dump.write_mrt(&mut bytes, at) {
        Ok(_) => Response::octets(bytes),
        Err(e) => Response::error(400, &format!("mrt encode failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::UpdateBuilder;
    use bgp_wire::MrtReader;

    fn filled_store() -> SharedStore {
        let mut s = RouteStore::default();
        for (i, (vp, pfx)) in [(65001u32, "10.0.0.0/8"), (65002, "10.1.0.0/16")]
            .iter()
            .enumerate()
        {
            s.ingest(
                UpdateBuilder::announce(VpId::from_asn(Asn(*vp)), pfx.parse().unwrap())
                    .at(Timestamp::from_secs(i as u64 + 1))
                    .path([*vp, 2, 3])
                    .build(),
            );
        }
        Arc::new(RwLock::new(s))
    }

    fn get(store: &SharedStore, target: &str) -> Response {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
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

    #[test]
    fn json_endpoints_respond() {
        let store = filled_store();
        for target in [
            "/health",
            "/store/stats",
            "/vps",
            "/routes?prefix=10.0.0.0/8&match=exact",
            "/routes?prefix=10.1.2.3/32&match=lpm",
            "/rib?vp=65001",
            "/updates?from=0&to=99999999",
            "/origin?asn=3",
        ] {
            let resp = get(&store, target);
            assert_eq!(resp.status, 200, "{target}");
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.starts_with('{'), "{target}: {body}");
        }
    }

    #[test]
    fn bad_parameters_are_400() {
        let store = filled_store();
        for target in [
            "/routes",
            "/routes?prefix=not-a-prefix",
            "/routes?prefix=10.0.0.0/8&match=bogus",
            "/routes?prefix=10.0.0.0/8&at=yesterday",
            "/rib",
            "/updates?join=sideways",
            "/origin",
        ] {
            assert_eq!(get(&store, target).status, 400, "{target}");
        }
        assert_eq!(get(&store, "/nope").status, 404);
    }

    #[test]
    fn vp_without_stored_updates_has_an_empty_rib() {
        use crate::Json;
        let store = filled_store();
        // the body with the VP's identity blanked out: what is left is
        // the shape and the table
        let shape = |target: &str| {
            let resp = get(&store, target);
            assert_eq!(resp.status, 200, "{target}");
            match Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap() {
                Json::Obj(pairs) => pairs
                    .into_iter()
                    .map(|(k, v)| match k.as_str() {
                        "vp" | "at" => (k, Json::Null),
                        _ => (k, v),
                    })
                    .collect::<Vec<_>>(),
                other => panic!("{target}: not an object: {other:?}"),
            }
        };
        // never seen, vs. known but asked before its first update (t=1 s)
        let unseen = shape("/rib?vp=99");
        assert_eq!(unseen, shape("/rib?vp=65001&at=0"));
        assert!(
            unseen.contains(&("count".into(), Json::U64(0))),
            "{unseen:?}"
        );
        assert!(unseen.contains(&("routes".into(), Json::Arr(Vec::new()))));
        // the raw-MRT lane export of an unseen VP is an empty archive
        let mrt = get(&store, "/mrt/updates?vp=99");
        assert_eq!(mrt.status, 200);
        assert!(mrt.body.is_empty());
        // a malformed vp is still a client error
        assert_eq!(get(&store, "/rib?vp=not-a-vp").status, 400);
    }

    #[test]
    fn mrt_updates_roundtrip() {
        let store = filled_store();
        let resp = get(&store, "/mrt/updates?vp=65001");
        assert_eq!(resp.status, 200);
        let mut r = MrtReader::new(&resp.body[..]);
        let mut n = 0;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec.peer_as, Asn(65001));
            n += 1;
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn mrt_rib_parses_as_table_dump() {
        let store = filled_store();
        let resp = get(&store, "/mrt/rib");
        assert_eq!(resp.status, 200);
        let dump = TableDump::read_mrt(&resp.body).unwrap();
        let ribs = dump.to_ribs();
        assert_eq!(ribs.len(), 2);
    }

    #[test]
    fn dual_stack_endpoints_serve_v6() {
        let mut s = RouteStore::default();
        let vp1 = VpId::from_asn(Asn(65001));
        s.ingest(
            UpdateBuilder::announce(vp1, "10.0.0.0/8".parse().unwrap())
                .at(Timestamp::from_secs(1))
                .path([65001, 2, 3])
                .build(),
        );
        s.ingest(
            UpdateBuilder::announce(vp1, "2001:db8::/32".parse().unwrap())
                .at(Timestamp::from_secs(2))
                .path([65001, 2, 6])
                .path_id(7)
                .build(),
        );
        let store: SharedStore = Arc::new(RwLock::new(s));

        // JSON route lookups answer for v6 prefixes
        let resp = get(&store, "/routes?prefix=2001:db8::/32&match=exact");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("2001:db8::/32"), "{body}");

        // /mrt/updates carries the v6 update as an AFI-2 BGP4MP record
        let resp = get(&store, "/mrt/updates?vp=65001");
        assert_eq!(resp.status, 200);
        let mut r = MrtReader::new(&resp.body[..]);
        let (mut n, mut v6) = (0, 0);
        while let Some(rec) = r.next_record().unwrap() {
            if rec.peer_ip.is_ipv6() {
                v6 += 1;
            }
            n += 1;
        }
        assert_eq!((n, v6), (2, 1));

        // /mrt/rib exports the v6 route in a RIB_IPV6_UNICAST entry
        let resp = get(&store, "/mrt/rib");
        assert_eq!(resp.status, 200);
        let dump = TableDump::read_mrt(&resp.body).unwrap();
        let ribs = dump.to_ribs();
        let rib = ribs.get(&vp1).expect("vp present");
        assert!(rib.iter().any(|(p, _)| p.is_ipv6()));
        assert!(rib.iter().any(|(p, _)| !p.is_ipv6()));
    }

    #[test]
    fn filters_endpoint_serves_live_state() {
        use gill_core::FilterSet;
        let store = filled_store();
        let drop =
            UpdateBuilder::announce(VpId::from_asn(Asn(65002)), "10.9.0.0/16".parse().unwrap())
                .path([65002, 2])
                .build();
        let fs = FilterSet::generate(
            [VpId::from_asn(Asn(65001)), VpId::new(Asn(65003), 2)],
            [&drop],
            FilterGranularity::VpPrefix,
        );
        let handle = FilterHandle::new(&fs);
        let getf = |target: &str| {
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
            route_with(&req, &store, Some(&handle))
        };

        let resp = getf("/filters");
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"epoch\":0"), "{body}");
        assert!(body.contains("\"granularity\":\"vp-prefix\""), "{body}");
        assert!(body.contains("\"rules\":1"), "{body}");
        assert!(body.contains("\"65001\""), "{body}");
        assert!(body.contains("\"65003#2\""), "{body}");

        // format=text serves the §9 file byte-for-byte
        let resp = getf("/filters?format=text");
        assert_eq!(resp.status, 200);
        assert_eq!(String::from_utf8(resp.body).unwrap(), fs.to_text().unwrap());

        // a published refresh is visible on the next request
        handle.install(&FilterSet::default());
        let body = String::from_utf8(getf("/filters").body).unwrap();
        assert!(body.contains("\"epoch\":1"), "{body}");
        assert!(body.contains("\"rules\":0"), "{body}");

        assert_eq!(getf("/filters?format=xml").status, 400);
        // without attached state the endpoint reports, not 404-unknown
        let no_state = get(&store, "/filters");
        assert_eq!(no_state.status, 404);
        assert!(String::from_utf8(no_state.body)
            .unwrap()
            .contains("no filter state"));
    }

    #[test]
    fn vp_parsing_accepts_all_forms() {
        assert_eq!(parse_vp("65001"), Some(VpId::from_asn(Asn(65001))));
        assert_eq!(parse_vp("AS65001"), Some(VpId::from_asn(Asn(65001))));
        assert_eq!(parse_vp("65001#2"), Some(VpId::new(Asn(65001), 2)));
        assert_eq!(parse_vp("nope"), None);
        assert_eq!(parse_vp("1#x"), None);
    }

    #[test]
    fn served_end_to_end_over_tcp() {
        use std::io::{Read as _, Write as _};
        let store = filled_store();
        let mut srv = serve("127.0.0.1:0", ServerConfig::default(), store).unwrap();
        let mut sock = std::net::TcpStream::connect(srv.local_addr()).unwrap();
        write!(sock, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = String::new();
        sock.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"));
        assert!(buf.contains("\"status\":\"ok\""));
        srv.stop();
    }
}
