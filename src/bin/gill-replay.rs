//! `gill-replay` — apply a published filter file to an archived MRT stream
//! offline: what users with limited resources do with GILL's artifacts
//! (§9 — "help users find which bits of data they should process").
//! `--bgp-to HOST:PORT` and `--bmp-to HOST:PORT` replay the (filtered)
//! stream into a live collector as BGP peers or as one BMP router.
//!
//! The looking glass over an archive is `gill-queryd`; to serve a
//! filtered one, write it here with `--out` first:
//!
//! ```sh
//! gill-replay --updates updates.mrt --filters filters.txt --out kept.mrt
//! gill-queryd --updates kept.mrt --addr 127.0.0.1:8480
//! ```

use gill::cli::{read_updates_mrt_ctx, write_updates_mrt, Args};
use gill::core::FilterSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let updates_path = PathBuf::from(args.required("updates")?);
    let filters_path = args.optional("filters").map(PathBuf::from);
    let out = args.optional("out").map(PathBuf::from);
    if filters_path.is_none()
        && args.optional("bmp-to").is_none()
        && args.optional("bgp-to").is_none()
    {
        return Err("need --filters (replay) and/or --bgp-to / --bmp-to (live feed)".into());
    }

    let updates =
        read_updates_mrt_ctx(&updates_path, &args.addpath_ctx()?).map_err(|e| e.to_string())?;
    let kept: Vec<_> = match &filters_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
            let filters = FilterSet::from_text(&text)?;
            let kept: Vec<_> = updates
                .iter()
                .filter(|u| filters.accepts(u))
                .cloned()
                .collect();
            println!(
                "{} of {} updates pass the filters ({:.1}% discarded)",
                kept.len(),
                updates.len(),
                (1.0 - kept.len() as f64 / updates.len().max(1) as f64) * 100.0
            );
            kept
        }
        None => updates,
    };
    if let Some(p) = out {
        let n = write_updates_mrt(&p, &kept).map_err(|e| e.to_string())?;
        println!("wrote {n} records to {}", p.display());
    }
    // --bgp-to HOST:PORT: replay the (filtered) stream as live BGP peers —
    // one loopback session per distinct VP ASN, handshake, the VP's
    // updates in archive order, then NOTIFICATION Cease and a wait for
    // the collector's close so its counters have settled when we exit.
    // This is how CI feeds a fixture day into a collector's BGP listener.
    if let Some(addr) = args.optional("bgp-to") {
        use gill::collector::daemon::{handshake_client, MessageStream};
        use gill::wire::{BgpMessage, Notification, UpdateMessage};
        use std::io::Read;
        let asns: Vec<u32> = {
            let mut seen = std::collections::BTreeSet::new();
            kept.iter()
                .map(|u| u.vp.asn.value())
                .filter(|a| seen.insert(*a))
                .collect()
        };
        let mut sent = 0usize;
        for &asn in &asns {
            let stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let mut ms = MessageStream::new(stream);
            handshake_client(&mut ms, asn).map_err(|e| format!("AS{asn} handshake: {e}"))?;
            for u in kept.iter().filter(|u| u.vp.asn.value() == asn) {
                let wire = UpdateMessage::from_domain(u).map_err(|e| format!("AS{asn}: {e:?}"))?;
                ms.write_message(&BgpMessage::Update(wire))
                    .map_err(|e| format!("AS{asn}: {e}"))?;
                sent += 1;
            }
            ms.write_message(&BgpMessage::Notification(Notification::cease()))
                .map_err(|e| format!("AS{asn}: {e}"))?;
            let sock = ms.transport_mut();
            let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
            let mut buf = [0u8; 4096];
            loop {
                match sock.read(&mut buf) {
                    Ok(0) | Err(_) => break, // collector processed our Cease
                    Ok(_) => {}
                }
            }
        }
        println!(
            "bgp: replayed {sent} updates over {} sessions to {addr}",
            asns.len()
        );
    }
    // --bmp-to HOST:PORT: replay the (filtered) stream as one BMP router
    // session — Initiation, a Peer Up per distinct VP, a Route Monitoring
    // frame per update, Termination. This is how CI feeds a fixture day
    // into a live collector's --bmp-addr listener over loopback.
    if let Some(addr) = args.optional("bmp-to") {
        use gill::scenario::{BmpFeed, ScenarioItem, Source};
        use std::io::Write;
        let mut vps: Vec<_> = {
            let mut seen = std::collections::BTreeSet::new();
            kept.iter()
                .map(|u| u.vp)
                .filter(|vp| seen.insert(*vp))
                .collect()
        };
        // BmpFeed allocates router discriminators in Peer Up arrival
        // order, so register each AS's routers in rank order
        vps.sort_by_key(|vp| (vp.asn.value(), vp.router));
        let feed = BmpFeed::new(&vps);
        let mut sock = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let send = |sock: &mut std::net::TcpStream, frame: &[u8]| {
            sock.write_all(frame).map_err(|e| format!("{addr}: {e}"))
        };
        send(&mut sock, &BmpFeed::initiation_frame("gill-replay"))?;
        let t0 = kept.first().map(|u| u.time.as_millis()).unwrap_or(0);
        for frame in feed.peer_up_frames(t0) {
            send(&mut sock, &frame)?;
        }
        let mut frames = 0usize;
        for u in &kept {
            let item = ScenarioItem {
                update: u.clone(),
                source: Source::Extra,
            };
            if let Some(frame) = feed.route_monitoring_frame(&item) {
                send(&mut sock, &frame)?;
                frames += 1;
            }
        }
        send(&mut sock, &BmpFeed::termination_frame())?;
        sock.flush().map_err(|e| e.to_string())?;
        println!(
            "bmp: sent {} peers + {frames} route-monitoring frames to {addr}",
            vps.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-replay --updates updates.mrt [--addpath v4,v6] \
                 [--filters filters.txt] [--out kept.mrt] \
                 [--bgp-to host:port] [--bmp-to host:port]"
            );
            ExitCode::FAILURE
        }
    }
}
