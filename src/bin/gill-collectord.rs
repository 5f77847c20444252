//! `gill-collectord` — run the collection platform: accept BGP peers over
//! TCP, apply filters, archive retained updates as MRT (§8–§9).
//!
//! ```sh
//! gill-collectord --listen 127.0.0.1:1790 --workers 4 --filters filters.txt \
//!                 --archive collected.mrt --duration 60
//! ```
//!
//! Runs for `--duration` seconds (0 = until killed is not supported in
//! this offline build; use a large value), then drains the queue, writes
//! the archive, and prints the session counters.
//!
//! With `--stream-addr HOST:PORT` the collector also serves the live
//! streaming API: every filter-accepted update is teed into a broadcast
//! ring and fanned out to `curl -N` subscribers on `/stream/updates`
//! (RIS-Live-style JSON frames), with `/stream/stats` reporting broker
//! counters. The looking-glass endpoints (`/vps`, `/routes`, …) on the
//! same socket answer from a store fed live by the collection drain, and
//! `/filters` publishes the filter epoch the sessions judge against.
//!
//! With `--bmp-addr HOST:PORT` (or a full `--bmp-config FILE`, see
//! `gill::bmp::BmpConfig`) the collector also accepts BMP (RFC 7854)
//! routers: one TCP session per router, each carrying many monitored
//! peers, demuxed into per-peer VPs and fed through the *same* filter /
//! archive / stream pipeline as the BGP sessions.
//!
//! Sessions run on the readiness-driven runtime (`gill::runtime`):
//! `--workers N` event-loop threads multiplex every BGP and BMP session
//! over epoll (poll(2) elsewhere). `--max-sessions N` caps concurrent BGP
//! sessions (over-capacity peers get NOTIFICATION Cease at accept).

use gill::bmp::{BmpConfig, ListenerConfig};
use gill::collector::{
    DaemonConfig, MrtStorage, Orchestrator, OrchestratorConfig, Storage, StoredUpdate,
};
use gill::core::FilterSet;
use gill::query::{QueryableStorage, RouteStore, ServerConfig};
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::stream::{serve_streaming, BrokerConfig, StreamBroker};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Archives to MRT and (when serving) mirrors every retained update into
/// the looking-glass route store, so `/vps` and `/routes` answer live.
struct TeeStorage {
    archive: MrtStorage<std::io::BufWriter<std::fs::File>>,
    serving: Option<QueryableStorage>,
}

impl Storage for TeeStorage {
    fn store(&mut self, rec: StoredUpdate) {
        if let Some(s) = &mut self.serving {
            s.store(StoredUpdate {
                update: rec.update.clone(),
            });
        }
        self.archive.store(rec);
    }

    fn stored(&self) -> usize {
        self.archive.stored()
    }

    fn flush(&mut self) {
        self.archive.flush();
        if let Some(s) = &mut self.serving {
            s.flush();
        }
    }
}

fn run() -> Result<(), String> {
    let args = gill::cli::Args::parse()?;
    let listen = args
        .optional("listen")
        .unwrap_or_else(|| "127.0.0.1:1790".into());
    let duration: u64 = args.num("duration", 60)?;
    let queue: usize = args.num("queue", 65536)?;
    let local_asn: u32 = args.num("local-asn", 65535)?;
    let max_sessions: usize = args.num("max-sessions", 4096)?;
    let workers: usize = args.num("workers", 4)?;
    let archive = PathBuf::from(
        args.optional("archive")
            .unwrap_or_else(|| "collected.mrt".into()),
    );
    let filters = match args.optional("filters") {
        Some(p) => {
            let text = std::fs::read_to_string(&p).map_err(|e| e.to_string())?;
            let f = FilterSet::from_text(&text)?;
            eprintln!("loaded {} drop rules from {p}", f.num_rules());
            f
        }
        None => FilterSet::default(),
    };

    // --bmp-addr / --bmp-config: accept BMP routers into the same pipeline.
    // A bare --bmp-addr is sugar for a single allow-all listener; with
    // --bmp-config the flag appends one more listener to the parsed set.
    let bmp_cfg = match (args.optional("bmp-config"), args.optional("bmp-addr")) {
        (None, None) => None,
        (file, addr) => {
            let mut cfg = match file {
                Some(p) => {
                    let text = std::fs::read_to_string(&p).map_err(|e| format!("{p}: {e}"))?;
                    BmpConfig::parse(&text)?
                }
                None => BmpConfig::default(),
            };
            if let Some(bind) = addr {
                cfg.listeners.push(ListenerConfig {
                    bind,
                    idle_timeout_ms: 0,
                });
            }
            Some(cfg)
        }
    };

    // --stream-addr HOST:PORT: tee filter-accepted updates into a broadcast
    // broker and serve /stream/updates + /stream/stats alongside collection.
    let stream = match args.optional("stream-addr") {
        Some(addr) => {
            let broker_defaults = BrokerConfig::default();
            let broker = StreamBroker::new(BrokerConfig {
                ring_capacity: args.num("ring-capacity", broker_defaults.ring_capacity)?,
                max_subscribers: args.num("max-subscribers", broker_defaults.max_subscribers)?,
            });
            let store = Arc::new(parking_lot::RwLock::new(RouteStore::default()));
            Some((addr, broker, store))
        }
        None => None,
    };
    let sink = stream
        .as_ref()
        .map(|(_, b, _)| Arc::new(b.publisher()) as Arc<dyn gill::collector::UpdateSink>);

    let daemon_cfg = DaemonConfig {
        local_asn,
        queue_capacity: queue,
        max_sessions,
        ..DaemonConfig::default()
    };
    let retrain: u64 = args.num("retrain-interval", 0)?;

    let mut runtime = EventedPool::start(
        daemon_cfg,
        RuntimeConfig {
            workers,
            bgp_addr: Some(listen),
            bmp: bmp_cfg,
        },
        sink,
    )
    .map_err(|e| e.to_string())?;
    // the HTTP server starts after the pool so `/filters` publishes the
    // filter handle the sessions judge against
    let server = match &stream {
        Some((addr, broker, store)) => {
            let server = serve_streaming(
                addr,
                ServerConfig::default(),
                store.clone(),
                Some(runtime.pool().filter_handle().clone()),
                broker.clone(),
            )
            .map_err(|e| e.to_string())?;
            eprintln!("streaming on http://{}/stream/updates", server.local_addr());
            Some(server)
        }
        None => None,
    };
    for a in runtime.bmp_addrs() {
        eprintln!("bmp listening on {a}");
    }
    eprintln!(
        "collector AS{local_asn} ({workers} workers) listening on {} for {duration}s",
        runtime.bgp_addr().expect("bgp listener")
    );
    let pool = runtime.pool_mut();
    pool.install_filters(filters);
    // --retrain-interval SECS: attach a live orchestrator that mirrors the
    // unfiltered stream and publishes a fresh filter epoch periodically
    // (0 = no retraining; --filters stays in force)
    if retrain > 0 {
        let orch = Orchestrator::new(OrchestratorConfig::default(), Vec::new(), HashMap::new());
        pool.attach_orchestrator(orch, Duration::from_secs(retrain))
            .map_err(|e| e.to_string())?;
        eprintln!("orchestrator attached, retraining every {retrain}s");
    }

    let file = std::fs::File::create(&archive).map_err(|e| e.to_string())?;
    let storage = TeeStorage {
        archive: MrtStorage::new(std::io::BufWriter::new(file), local_asn),
        serving: stream
            .as_ref()
            .map(|(_, _, store)| QueryableStorage::with_store(store.clone())),
    };
    // drain concurrently for the configured duration
    let storage = std::thread::scope(|s| {
        let pool = runtime.pool();
        let drain = s.spawn(move || {
            let mut st = storage;
            pool.drain_into(&mut st);
            st
        });
        std::thread::sleep(Duration::from_secs(duration));
        pool.request_stop();
        drain.join().expect("storage thread")
    });

    // wind the runtime down (sessions close gracefully, workers join with
    // a bounded deadline) and report its counters
    let load = |c: &std::sync::atomic::AtomicUsize| c.load(std::sync::atomic::Ordering::Relaxed);
    runtime.stop();
    let t = runtime.totals();
    println!(
        "evented runtime: {workers} workers | accepted {} | shed-at-accept {} | \
         ready-events {} | timer-fires {} | wakes {} | still-registered {}",
        t.accepted, t.accept_shed, t.ready_events, t.timer_fires, t.wakes, t.registered,
    );
    if !runtime.bmp_addrs().is_empty() {
        let b = runtime.bmp_stats();
        println!(
            "bmp sessions {} opened / {} closed | peers {} up / {} down | \
             updates {} | unknown-peer {} | denied {} | accept-rejected {}",
            load(&b.sessions_opened),
            load(&b.sessions_closed),
            load(&b.peers_up),
            load(&b.peers_down),
            load(&b.updates),
            load(&b.unknown_peer),
            load(&b.peers_denied),
            load(&b.accept_rejected),
        );
    }
    let stats = runtime.stats();
    println!(
        "received {} | filtered {} | retained {} | lost {} | filter epoch {}",
        load(&stats.received),
        load(&stats.filtered),
        load(&stats.retained),
        load(&stats.lost),
        stats
            .filter_epoch
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    if let (Some((_, broker, _)), Some(mut server)) = (stream, server) {
        broker.close();
        println!(
            "streamed {} | shed {} | peak subscribers seen {}",
            load(&stats.stream_published),
            load(&stats.stream_shed),
            load(&stats.stream_subscribers),
        );
        server.stop();
    }
    let written = storage.stored();
    storage.archive.into_inner().map_err(|e| e.to_string())?;
    println!("archived {written} records to {}", archive.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-collectord [--listen ADDR] [--filters filters.txt] \
                 [--workers N] [--max-sessions N] \
                 [--retrain-interval SECS] [--archive out.mrt] [--duration SECS] \
                 [--queue N] [--local-asn N] [--stream-addr HOST:PORT] \
                 [--ring-capacity FRAMES] [--max-subscribers N] \
                 [--bmp-addr HOST:PORT] [--bmp-config FILE]"
            );
            ExitCode::FAILURE
        }
    }
}
