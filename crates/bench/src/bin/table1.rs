//! Table 1 (§8): update loss of the BGP daemons as a function of peer
//! count and update frequency, with and without GILL's filters.
//!
//! Real daemons, real TCP sessions on loopback, a shared storage thread
//! with a fixed per-record CPU cost (emulating the single-CPU disk-write
//! budget of the paper's M1 testbed). Peer counts and durations are scaled
//! down ~100x so the table completes in about a minute; the *structure* —
//! filters letting one CPU sustain roughly an order of magnitude more
//! peers — is the reproduction target.

use bench::{print_table, write_csv};
use bgp_types::{Asn, Prefix, UpdateBuilder, VpId};
use gill::runtime::{EventedPool, RuntimeConfig};
use gill_collector::{
    run_fake_peer, DaemonConfig, FakePeerConfig, MemoryStorage, SlowStorage, Storage,
};
use gill_core::{FilterGranularity, FilterSet};
use std::time::Duration;

/// Per-record storage cost: the single-CPU budget. At 1 ms per record, one
/// storage thread sustains ~1000 records/s.
const STORE_COST: Duration = Duration::from_micros(1000);
/// Fraction of each peer's update space covered by filters (GILL discards
/// ~90 % of RIS/RV updates, §6).
const FILTER_SHARE: f64 = 0.9;

fn run_cell(peers: usize, rate_per_sec: f64, with_filters: bool) -> (f64, usize, usize) {
    let mut pool = EventedPool::start(
        DaemonConfig {
            queue_capacity: 256,
            ..DaemonConfig::default()
        },
        RuntimeConfig::default(),
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();
    let prefixes = 40u32;
    if with_filters {
        // filters that drop FILTER_SHARE of each peer's prefixes
        let cut = (prefixes as f64 * FILTER_SHARE) as u32;
        let mut templates = Vec::new();
        for k in 0..peers {
            let vp = VpId::from_asn(Asn(65001 + k as u32));
            for p in 0..cut {
                templates.push(
                    UpdateBuilder::announce(vp, Prefix::synthetic(p))
                        .path([65001 + k as u32, 2])
                        .build(),
                );
            }
        }
        pool.pool().install_filters(FilterSet::generate(
            [],
            templates.iter(),
            FilterGranularity::VpPrefix,
        ));
    }
    // storage thread (the single-CPU budget) drains concurrently with the
    // peers; scoped threads let it borrow the pool
    let stored = std::thread::scope(|s| {
        let pool_ref = pool.pool();
        let drain = s.spawn(move || {
            let mut storage = SlowStorage::new(MemoryStorage::default(), STORE_COST);
            pool_ref.drain_into(&mut storage);
            storage.stored()
        });
        let handles: Vec<_> = (0..peers)
            .map(|k| {
                let cfg = FakePeerConfig {
                    asn: 65001 + k as u32,
                    rate_per_sec,
                    count: (rate_per_sec * 4.0) as usize, // ~4 s of traffic
                    prefixes,
                };
                std::thread::spawn(move || run_fake_peer(addr, &cfg))
            })
            .collect();
        for h in handles {
            let _ = h.join().unwrap();
        }
        // let in-flight messages settle, then release the drain thread
        std::thread::sleep(Duration::from_millis(500));
        pool_ref.request_stop();
        drain.join().unwrap()
    });
    pool.stop();
    let s = pool.stats();
    let rx = s.received.load(std::sync::atomic::Ordering::Relaxed);
    (s.loss_rate(), rx, stored)
}

fn main() {
    // scaled peer counts (paper: 100 / 1k / 10k) and the paper's two rates
    let peer_counts = [2usize, 8, 32];
    let rates = [("avg (28K upd/h)", 7.8f64), ("p99 (241K upd/h)", 67.0)];
    let mut rows = Vec::new();
    for with_filters in [true, false] {
        for &(label, rate) in &rates {
            let mut row = vec![
                if with_filters {
                    "with filters"
                } else {
                    "no filters"
                }
                .to_string(),
                label.to_string(),
            ];
            for &n in &peer_counts {
                let (loss, rx, _) = run_cell(n, rate, with_filters);
                row.push(if loss == 0.0 {
                    format!("0% ({rx} rx)")
                } else {
                    format!("{:.0}% ({rx} rx)", loss * 100.0)
                });
            }
            rows.push(row);
        }
    }
    let headers = ["mode", "update rate", "2 peers", "8 peers", "32 peers"];
    print_table(
        "Table 1 — update loss vs peer count (storage budget: 1 ms/record, scaled 100x down)",
        &headers,
        &rows,
    );
    write_csv("table1", &headers, &rows);

    // structure check: at the highest load, filters must lose (weakly) less
    let parse_loss = |cell: &str| -> f64 {
        cell.split('%')
            .next()
            .unwrap()
            .parse::<f64>()
            .unwrap_or(0.0)
    };
    let filt_worst = parse_loss(&rows[1][4]);
    let raw_worst = parse_loss(&rows[3][4]);
    println!(
        "\nworst-case loss: with filters {filt_worst:.0}% vs without {raw_worst:.0}% \
         — filters must not lose more."
    );
    assert!(filt_worst <= raw_worst + 1.0);
}
