//! Fake BGP peers for load experiments (§8, Table 1).
//!
//! "For every BGP daemon that we run, we configure a fake peer that
//! establishes a BGP session with the daemon and sends a stream of BGP
//! updates" at a configured frequency.

use crate::daemon::{handshake_client, MessageStream};
use crate::transport::BackoffPolicy;
use bgp_types::{Asn, BgpUpdate, Prefix, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, Notification, UpdateMessage};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Configuration of one fake peer.
#[derive(Clone, Debug)]
pub struct FakePeerConfig {
    /// The peer's AS number.
    pub asn: u32,
    /// Updates per second to send (RIS/RV average ≈ 7.8/s = 28k/h; p99
    /// ≈ 67/s = 241k/h).
    pub rate_per_sec: f64,
    /// Total updates to send.
    pub count: usize,
    /// Number of distinct prefixes to cycle through.
    pub prefixes: u32,
}

impl Default for FakePeerConfig {
    fn default() -> Self {
        FakePeerConfig {
            asn: 65001,
            rate_per_sec: 7.8,
            count: 100,
            prefixes: 50,
        }
    }
}

/// Generates the synthetic update stream a fake peer sends.
pub fn synthetic_updates(cfg: &FakePeerConfig) -> Vec<BgpUpdate> {
    (0..cfg.count)
        .map(|i| {
            let p = (i as u32) % cfg.prefixes.max(1);
            UpdateBuilder::announce(VpId::from_asn(Asn(cfg.asn)), Prefix::synthetic(p))
                .path([cfg.asn, 2 + (i as u32 % 3), 7, 1 + p % 5])
                .community((cfg.asn % 60_000) as u16, (100 + i % 50) as u16)
                .build()
        })
        .collect()
}

/// Connects to `addr`, performs the handshake and sends the stream paced
/// at the configured rate. Returns the number of updates sent.
pub fn run_fake_peer(addr: std::net::SocketAddr, cfg: &FakePeerConfig) -> std::io::Result<usize> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, cfg.asn)?;
    let updates = synthetic_updates(cfg);
    let interval = if cfg.rate_per_sec > 0.0 {
        Duration::from_secs_f64(1.0 / cfg.rate_per_sec)
    } else {
        Duration::ZERO
    };
    let start = Instant::now();
    let mut sent = 0usize;
    for (i, u) in updates.iter().enumerate() {
        // pace: wait until this update's slot
        let due = interval * i as u32;
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let wire = UpdateMessage::from_domain(u)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        ms.write_message(&BgpMessage::Update(wire))?;
        sent += 1;
    }
    let _ = ms.write_message(&BgpMessage::Notification(Notification::cease()));
    Ok(sent)
}

/// What [`run_resilient_peer`] did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ResilientPeerReport {
    /// Connection attempts made (including the successful one).
    pub attempts: u32,
    /// Updates delivered on the final, successful session.
    pub sent: usize,
    /// Total backoff slept across retries, in milliseconds.
    pub backoff_ms: u64,
}

/// Like [`run_fake_peer`], but survives connection failures: retries with
/// capped exponential backoff (deterministic jitter from
/// `backoff.seed`) until a session completes or `max_attempts` runs out.
/// A real operator router reconnects exactly like this after a collector
/// restart.
pub fn run_resilient_peer(
    addr: std::net::SocketAddr,
    cfg: &FakePeerConfig,
    backoff: BackoffPolicy,
    max_attempts: u32,
) -> std::io::Result<ResilientPeerReport> {
    let mut report = ResilientPeerReport::default();
    loop {
        report.attempts += 1;
        match run_fake_peer(addr, cfg) {
            Ok(sent) => {
                report.sent = sent;
                return Ok(report);
            }
            Err(e) if report.attempts >= max_attempts => return Err(e),
            Err(_) => {
                let delay = backoff.delay_ms(report.attempts - 1);
                report.backoff_ms += delay;
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_updates_cycle_prefixes() {
        let cfg = FakePeerConfig {
            count: 10,
            prefixes: 3,
            ..FakePeerConfig::default()
        };
        let ups = synthetic_updates(&cfg);
        assert_eq!(ups.len(), 10);
        let distinct: std::collections::BTreeSet<_> = ups.iter().map(|u| u.prefix).collect();
        assert_eq!(distinct.len(), 3);
    }
}
