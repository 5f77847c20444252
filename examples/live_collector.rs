//! Live collector: runs the actual platform end to end on this machine —
//! real RFC 4271 BGP sessions over loopback TCP, GILL filters installed by
//! the orchestrator, and an MRT archive as output (§8–§9, Fig. 9).
//!
//! Run with: `cargo run --example live_collector --release`

use gill::collector::{run_fake_peer, DaemonConfig, FakePeerConfig, MemoryStorage, Storage};
use gill::core::{FilterGranularity, FilterSet};
use gill::prelude::*;
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::wire::MrtReader;

fn main() -> std::io::Result<()> {
    // 1. Start the collector: event-loop workers around the shared pipeline.
    let mut pool = EventedPool::start(DaemonConfig::default(), RuntimeConfig::default(), None)?;
    let addr = pool.bgp_addr().expect("bgp listener bound");
    println!("collector listening on {addr}");

    // 2. Install filters: drop prefix 0 from AS 65001 (a toy redundancy
    //    inference), accept everything from anchor AS 65002.
    let template = UpdateBuilder::announce(VpId::from_asn(Asn(65001)), Prefix::synthetic(0))
        .path([65001, 2, 3])
        .build();
    let filters = FilterSet::generate(
        [VpId::from_asn(Asn(65002))],
        [&template],
        FilterGranularity::VpPrefix,
    );
    pool.pool().install_filters(filters);

    // 3. Three operators connect their routers (fake peers here), each
    //    sending 30 updates over 10 prefixes at ~50 upd/s.
    let mut handles = Vec::new();
    for asn in [65001u32, 65002, 65003] {
        let cfg = FakePeerConfig {
            asn,
            rate_per_sec: 50.0,
            count: 30,
            prefixes: 10,
        };
        handles.push(std::thread::spawn(move || run_fake_peer(addr, &cfg)));
    }
    for h in handles {
        let sent = h.join().expect("peer thread")?;
        println!("peer sent {sent} updates");
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    pool.stop();

    // 4. Drain retained updates into storage and report.
    let mut mem = MemoryStorage::default();
    pool.pool().drain_into(&mut mem);
    let s = pool.stats();
    println!(
        "received {} | filtered {} | retained {} | lost {}",
        s.received.load(std::sync::atomic::Ordering::Relaxed),
        s.filtered.load(std::sync::atomic::Ordering::Relaxed),
        s.retained.load(std::sync::atomic::Ordering::Relaxed),
        s.lost.load(std::sync::atomic::Ordering::Relaxed),
    );

    // 5. Archive to MRT (the bgproutes.io publication format) and read it
    //    back to prove the archive is self-contained.
    let mut mrt = gill::collector::MrtStorage::new(Vec::new(), 65535);
    for u in &mem.updates {
        mrt.store(gill::collector::StoredUpdate { update: u.clone() });
    }
    let bytes = mrt.into_inner()?;
    println!("MRT archive: {} bytes", bytes.len());
    let mut reader = MrtReader::new(&bytes[..]);
    let mut n = 0;
    while let Some(_rec) = reader.next_record().expect("valid MRT") {
        n += 1;
    }
    println!("re-read {n} MRT records");
    assert_eq!(n, mem.stored());
    Ok(())
}
