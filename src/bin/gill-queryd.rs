//! `gill-queryd` — the looking-glass query daemon (the serving half of
//! GILL: §9's bgproutes.io interface over a local store).
//!
//! Loads an MRT update archive into the time-indexed route store and
//! serves the JSON + raw-MRT query API over HTTP, plus the live streaming
//! endpoints (`/stream/updates`, `/stream/stats`):
//!
//! ```sh
//! gill-queryd --updates updates.mrt --addr 127.0.0.1:8480
//! curl 'http://127.0.0.1:8480/routes?prefix=10.0.0.0/8&match=lpm'
//! curl -N 'http://127.0.0.1:8480/stream/updates?prefix=10.0.0.0/8'
//! ```
//!
//! `--stream-repeat N` re-publishes the loaded archive N times into the
//! broker (at `--stream-interval-ms` per update, default 1) and then
//! closes it, so the streaming endpoints carry data without a live
//! collector attached and `curl -N` clients end on an end-of-stream
//! frame. With the default N = 0 the broker is idle and subscribers
//! simply wait. `--stream-wait-subs N` holds the replay until N
//! subscribers are attached — the lever CI uses to race a fast and a
//! deliberately stalled client against the same deterministic publish
//! sequence:
//!
//! ```sh
//! gill-queryd --updates updates.mrt --addr 127.0.0.1:8480 \
//!     --stream-repeat 100 --stream-wait-subs 1
//! curl -N 'http://127.0.0.1:8480/stream/updates'
//! ```
//!
//! `--addpath v6` (or `v4`, or `v4,v6`) decodes an archive written from
//! an ADD-PATH session, whose NLRI carry leading path identifiers. To
//! serve a filtered archive, filter it first with
//! `gill-replay --filters f.txt --out kept.mrt` and serve `kept.mrt`.

use gill::cli::{read_updates_mrt_ctx, Args};
use gill::core::{FilterHandle, FilterSet};
use gill::query::{RouteStore, ServerConfig, StoreConfig};
use gill::stream::{serve_streaming, BrokerConfig, StreamBroker};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let updates_path = args.optional("updates").map(PathBuf::from);
    let data_dir = args.optional("data-dir").map(PathBuf::from);
    if updates_path.is_none() && data_dir.is_none() {
        return Err("need --updates and/or --data-dir".to_string());
    }
    let addr = args
        .optional("addr")
        .unwrap_or_else(|| "127.0.0.1:8480".to_string());

    let cfg = StoreConfig {
        shard_width_ms: args.num("shard-ms", StoreConfig::default().shard_width_ms)?,
        snapshot_every_shards: args.num(
            "snapshot-shards",
            StoreConfig::default().snapshot_every_shards,
        )?,
        mem_cap_bytes: args.num("store-mem-cap", 0)?,
    };
    let mut store = RouteStore::new(cfg);

    // Cold start: replay sealed segments first, then ingest any fresh MRT
    // on top, then seal the new tail so the whole store is durable again.
    if let Some(dir) = &data_dir {
        if dir.exists() {
            let replayed = store.load_dir(dir).map_err(|e| e.to_string())?;
            if replayed > 0 {
                println!("replayed {replayed} updates from {}", dir.display());
            }
        }
    }
    let updates = match &updates_path {
        Some(p) => read_updates_mrt_ctx(p, &args.addpath_ctx()?).map_err(|e| e.to_string())?,
        None => Vec::new(),
    };
    let n = updates.len();
    for u in &updates {
        store.ingest(u.clone());
    }
    if let Some(dir) = &data_dir {
        if let Some(path) = store.seal_all_into(dir).map_err(|e| e.to_string())? {
            println!("sealed new updates to {}", path.display());
        }
    }
    let stats = store.stats();
    println!(
        "loaded {n} updates: {} VPs, {} shards, {} snapshots, {} live prefixes",
        stats.vps, stats.shards, stats.snapshots, stats.live_prefixes
    );
    let m = store.mem_stats();
    println!(
        "store: ~{:.1} MiB resident, dedup {:.1}x over {} attr entries, \
         {} sealed segments ({} updates), {} shed",
        m.bytes_resident as f64 / (1024.0 * 1024.0),
        m.dedup_ratio,
        m.arena_paths + m.arena_comm_sets + m.arena_link_sets,
        m.sealed_segments,
        m.sealed_updates,
        m.shed_updates
    );

    // --filters FILE: publish a §9 rule file over /filters (JSON + text)
    let filters = match args.optional("filters") {
        Some(p) => {
            let text = std::fs::read_to_string(&p).map_err(|e| e.to_string())?;
            let fs = FilterSet::from_text(&text)?;
            println!("publishing {} drop rules from {p}", fs.num_rules());
            Some(FilterHandle::new(&fs))
        }
        None => None,
    };

    let server_cfg = ServerConfig {
        workers: args.num("workers", ServerConfig::default().workers)?,
        ..ServerConfig::default()
    };
    let broker_defaults = BrokerConfig::default();
    let broker = StreamBroker::new(BrokerConfig {
        ring_capacity: args.num("ring-capacity", broker_defaults.ring_capacity)?,
        max_subscribers: args.num("max-subscribers", broker_defaults.max_subscribers)?,
    });
    let repeat: usize = args.num("stream-repeat", 0)?;
    let wait_subs: usize = args.num("stream-wait-subs", 0)?;
    let interval_ms: u64 = args.num("stream-interval-ms", 1)?;

    let store = Arc::new(parking_lot::RwLock::new(store));
    let server = serve_streaming(&addr, server_cfg, store, filters, broker.clone())
        .map_err(|e| e.to_string())?;
    println!("serving on http://{}", server.local_addr());

    if repeat > 0 {
        if wait_subs > 0 {
            println!("waiting for {wait_subs} stream subscriber(s) before replaying");
        }
        println!("replaying {n} updates x{repeat} into /stream/updates");
        std::thread::spawn(move || {
            while broker.stats().subscribers < wait_subs {
                std::thread::sleep(Duration::from_millis(10));
            }
            for _ in 0..repeat {
                for u in &updates {
                    broker.publish_always(u);
                    if interval_ms > 0 {
                        std::thread::sleep(Duration::from_millis(interval_ms));
                    }
                }
            }
            // end-of-stream, so `curl -N` clients exit cleanly; the query
            // endpoints stay up until the process is killed
            broker.close();
        });
    }
    // The server owns its threads; park the main thread until killed.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-queryd [--updates updates.mrt] [--addpath v4,v6] \
                 [--data-dir dir] [--addr host:port] [--filters filters.txt] \
                 [--workers n] [--shard-ms ms] [--snapshot-shards n] \
                 [--store-mem-cap bytes] [--ring-capacity frames] \
                 [--max-subscribers n] [--stream-repeat n] \
                 [--stream-wait-subs n] [--stream-interval-ms ms]"
            );
            ExitCode::FAILURE
        }
    }
}
