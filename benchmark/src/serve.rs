//! `serve.read`: reads alone. A scenario day is sealed to segments and
//! restored with `load_dir` (timed in set-up); no ingest runs. Two
//! blocking clients on keep-alive connections issue a seeded looking-glass
//! mix, closed loop, and every body is checked against the same request
//! answered by a direct `QueryEngine` call at set-up.

use crate::client::{fnv1a, HttpClient};
use crate::gen::{self, Rng};
use crate::proc;
use crate::report::Round;
use crate::sut;
use gill::query::{JoinMode, Json, MatchMode, QueryEngine, RouteQuery, RouteStore, UpdateQuery};
use gill::scenario::World;
use gill::types::{Asn, Prefix, Timestamp, VpId};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const VPS: u32 = 16;
const PREFIXES: u32 = 2_048;
/// Updates in the day the store is restored from.
const DAY_UPDATES: usize = 150_000;
/// Blocking clients, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// How long the clients keep issuing requests in one round. Time-bound,
/// not count-bound: per-request cost differs 20-fold between endpoints
/// and response sizes, and a round must end in seconds either way.
pub fn round_s() -> f64 {
    2.5 * crate::quick_factor()
}
/// Distinct requests the clients walk (references are computed once per
/// distinct request); a multiple of the mix's block of 20.
const DISTINCT: usize = 520;

/// One looking-glass request.
#[derive(Clone, Debug)]
pub enum Req {
    Routes {
        prefix: Prefix,
        mode: MatchMode,
        vp: Option<VpId>,
    },
    RibAt {
        vp: VpId,
        at: Timestamp,
    },
    Updates {
        vp: VpId,
        from: Timestamp,
        to: Timestamp,
    },
    Origin {
        asn: Asn,
    },
}

/// Endpoint names, indexed by [`Req::endpoint`].
pub const ENDPOINTS: [&str; 4] = ["routes", "rib", "updates", "origin"];

/// Cap on one bounded `/updates` answer.
const UPDATES_LIMIT: usize = 200;

impl Req {
    pub fn endpoint(&self) -> usize {
        match self {
            Req::Routes { .. } => 0,
            Req::RibAt { .. } => 1,
            Req::Updates { .. } => 2,
            Req::Origin { .. } => 3,
        }
    }

    /// The request target as a client types it.
    pub fn target(&self) -> String {
        match self {
            Req::Routes { prefix, mode, vp } => {
                let m = match mode {
                    MatchMode::Exact => "exact",
                    MatchMode::Longest => "lpm",
                    MatchMode::MoreSpecific => "ms",
                };
                let vp = vp.map_or(String::new(), |v| format!("&vp={}", v.asn.value()));
                format!("/routes?prefix={prefix}&match={m}{vp}")
            }
            Req::RibAt { vp, at } => format!("/rib?vp={}&at={}", vp.asn.value(), at.as_millis()),
            Req::Updates { vp, from, to } => format!(
                "/updates?vp={}&from={}&to={}&limit={UPDATES_LIMIT}",
                vp.asn.value(),
                from.as_millis(),
                to.as_millis()
            ),
            Req::Origin { asn } => format!("/origin?asn={}", asn.value()),
        }
    }

    /// The same request answered by a direct `QueryEngine` call.
    pub fn answer(&self, store: &RouteStore) -> Json {
        match self {
            Req::Routes { prefix, mode, vp } => QueryEngine::routes(
                store,
                &RouteQuery {
                    prefix: *prefix,
                    mode: *mode,
                    vp: *vp,
                    at: None,
                },
            ),
            Req::RibAt { vp, at } => {
                QueryEngine::rib(store, *vp, Some(*at)).expect("mix names stored VPs")
            }
            Req::Updates { vp, from, to } => QueryEngine::updates(
                store,
                &UpdateQuery {
                    prefix: None,
                    join: JoinMode::Exact,
                    vp: Some(*vp),
                    from: *from,
                    to: *to,
                    limit: UPDATES_LIMIT,
                },
            ),
            Req::Origin { asn } => QueryEngine::origin(store, *asn),
        }
    }
}

/// `DISTINCT` seeded requests in blocks of 20, each block holding exactly
/// 12 `/routes` (4 exact, 4 lpm, 4 more-specifics), 3 `/rib?at=`, 3
/// bounded `/updates` and 2 `/origin` in shuffled order — 60 / 15 / 15 /
/// 10 % over any stretch a client walks, so the per-request cost mix does
/// not drift with how far a round gets.
pub fn distinct_requests(world: &World, seed: u64, latest_ms: u64) -> Vec<Req> {
    const BLOCK: [u8; 20] = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5];
    let mut rng = Rng::new(seed ^ 0x5e7_7e5d);
    let mut out = Vec::with_capacity(DISTINCT);
    while out.len() < DISTINCT {
        let mut kinds = BLOCK;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for kind in kinds {
            let p = rng.below(world.n_prefixes as u64) as u32;
            let vp = world.vp(rng.below(world.n_vps as u64) as u32);
            let at = Timestamp::from_millis(rng.below(latest_ms.max(1)));
            out.push(match kind {
                0 => Req::Routes {
                    prefix: world.prefix(p),
                    mode: MatchMode::Exact,
                    vp: None,
                },
                1 => Req::Routes {
                    prefix: world.prefix(p),
                    mode: MatchMode::Longest,
                    vp: None,
                },
                2 => Req::Routes {
                    // a covering /16 (v4) or /48 (v6): sub-prefix enumeration
                    prefix: cover(world.prefix(p)),
                    mode: MatchMode::MoreSpecific,
                    vp: Some(vp),
                },
                3 => Req::RibAt { vp, at },
                4 => Req::Updates {
                    vp,
                    from: at,
                    to: Timestamp::from_millis(at.as_millis() + latest_ms / 50),
                },
                _ => Req::Origin {
                    asn: Asn(world.origin(p)),
                },
            });
        }
    }
    out.truncate(DISTINCT);
    out
}

fn cover(p: Prefix) -> Prefix {
    let text = p.to_string();
    let (addr, _) = text.split_once('/').expect("prefix prints as addr/len");
    if let Ok(v4) = addr.parse::<std::net::Ipv4Addr>() {
        let [a, b, ..] = v4.octets();
        Prefix::v4(std::net::Ipv4Addr::new(a, b, 0, 0), 16)
    } else {
        let s = addr
            .parse::<std::net::Ipv6Addr>()
            .expect("v6 prefix address")
            .segments();
        Prefix::v6(std::net::Ipv6Addr::new(s[0], s[1], s[2], 0, 0, 0, 0, 0), 48)
    }
}

/// What one client brings back.
struct Issued {
    latency_ms: Vec<f64>,
    failed: u64,
}

/// One closed-loop client: walks the request list from `next`, the next
/// request going out when the previous body has been read, until `stop`.
fn issue(
    addr: std::net::SocketAddr,
    mut next: usize,
    reqs: &[(Req, String, u64)],
    gate: &Barrier,
    stop: &AtomicBool,
) -> Issued {
    let mut client = HttpClient::new(addr);
    let mut out = Issued {
        latency_ms: Vec::new(),
        failed: 0,
    };
    gate.wait();
    while !stop.load(Ordering::Relaxed) {
        let (_, target, digest) = &reqs[next % reqs.len()];
        next += 1;
        let t = Instant::now();
        let ok = matches!(client.get(target), Ok((200, body)) if fnv1a(&body) == *digest);
        out.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.failed += !ok as u64;
    }
    out
}

/// The round's prepared state, shared with the stage replay.
pub struct Prepared {
    pub store: gill::query::SharedStore,
    /// `(request, target, FNV-1a of the reference body)`.
    pub reqs: Vec<(Req, String, u64)>,
    pub seal_s: f64,
    pub restore_s: f64,
}

/// Seals a day, restores it, and answers every distinct request directly.
pub fn prepare(seed: u64, out_dir: &Path) -> Result<Prepared, String> {
    let (world, day) = gen::scenario_day(
        seed,
        VPS,
        PREFIXES,
        (DAY_UPDATES as f64 * crate::quick_factor()) as usize,
    );
    let dir = out_dir.join(format!("serve.read-{seed:016x}"));
    let _ = std::fs::remove_dir_all(&dir);
    let seal_s = sut::seal_day(&day, &dir).map_err(|e| format!("seal: {e}"))?;
    let t = Instant::now();
    let restored = sut::restore_store(&dir);
    let restore_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let (store, loaded) = restored.map_err(|e| format!("restore: {e}"))?;
    if loaded != day.len() {
        return Err(format!("restored {loaded} of {} updates", day.len()));
    }
    let reqs = {
        let guard = store.read();
        let latest = guard.latest_time().as_millis();
        distinct_requests(&world, seed, latest)
            .into_iter()
            .map(|r| {
                let body = r.answer(&guard).encode().map_err(|e| e.to_string())?;
                Ok((r.clone(), r.target(), fnv1a(body.as_bytes())))
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    Ok(Prepared {
        store,
        reqs,
        seal_s,
        restore_s,
    })
}

/// Runs one round.
pub fn round(seed: u64, out_dir: &Path) -> Result<Round, String> {
    let t_setup = Instant::now();
    let prep = prepare(seed, out_dir)?;
    let mut server = sut::serve_store(prep.store.clone()).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr();
    let gate = Barrier::new(CLIENTS + 1);
    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));

    let mut r = Round::default();
    let issued: Vec<Issued> = std::thread::scope(|s| {
        let sampler = proc::spawn_harness(s, "sampler", || {
            crate::harness::sample_gauges(|| 0, &started, &stop)
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (reqs, gate, stop) = (&prep.reqs, &gate, &stop);
                let start = i * reqs.len() / CLIENTS;
                proc::spawn_harness(s, &format!("client-{i}"), move || {
                    issue(addr, start, reqs, gate, stop)
                })
            })
            .collect();
        proc::release_free_memory();
        started.store(true, Ordering::Relaxed);
        r.setup_s = t_setup.elapsed().as_secs_f64();
        let rss_before = proc::rss_mb();
        let cpu0 = proc::cpu_snapshot();
        gate.wait();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_secs_f64(round_s()));
        stop.store(true, Ordering::Relaxed);
        let issued = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        r.rss_peak_mb = sampler.join().expect("sampler thread").rss_max_mb;
        r.timed_s = t0.elapsed().as_secs_f64();
        r.sut_cpu_s = proc::sut_cpu_s(&cpu0, &proc::cpu_snapshot());
        r.layer.insert(
            "bench_rss_growth_mb",
            (proc::rss_mb() - rss_before).max(0.0),
        );
        issued
    });
    let load =
        |c: &std::sync::atomic::AtomicUsize| c.load(std::sync::atomic::Ordering::Relaxed) as u64;
    let (served, refused) = (load(&server.stats().served), load(&server.stats().refused));
    server.stop();

    r.attempted = issued.iter().map(|i| i.latency_ms.len() as u64).sum();
    r.failed = issued.iter().map(|i| i.failed).sum();
    r.ops = r.attempted - r.failed;
    if served != r.attempted {
        r.errors.push(format!(
            "server answered {served} of {} requests",
            r.attempted
        ));
    }
    if r.failed > 0 {
        r.errors.push(format!(
            "{} responses were not 200 with the reference body",
            r.failed
        ));
    }
    for i in &issued {
        r.latencies_ms.extend_from_slice(&i.latency_ms);
    }
    let l = &mut r.layer;
    l.insert("store_seal_ms", prep.seal_s * 1e3);
    l.insert("store_restore_s", prep.restore_s);
    l.insert("http_refused", refused as f64);
    l.insert(
        "http_query_p50_ms",
        crate::stats::percentile(&r.latencies_ms, 50.0),
    );
    l.insert(
        "http_query_p99_ms",
        crate::stats::percentile(&r.latencies_ms, 99.0),
    );
    crate::harness::store_layer(l, &prep.store.read().mem_stats());
    Ok(r)
}
