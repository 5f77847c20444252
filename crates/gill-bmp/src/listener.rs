//! The BMP counter ledger shared by every BMP session.
//!
//! The session runtime (`gill-runtime`) accepts routers, drives one
//! [`crate::fsm::BmpFsm`] per connection and hands accepted routes to
//! `SessionCtx::offer` — the same mirror → validate → filter → sink →
//! bounded-queue pipeline BGP sessions feed — so BMP inherits every
//! downstream accounting invariant for free. [`BmpStats`] is what it
//! counts along the way.

use std::sync::atomic::AtomicUsize;

/// Shared counters for the BMP subsystem, in the style of
/// `gill_collector::daemon::DaemonStats`. Message-level counters are
/// incremented live by the event loop (so `/health`-style probes see
/// progress mid-session), session counters at open/close.
#[derive(Default, Debug)]
pub struct BmpStats {
    /// BMP sessions that sent a valid Initiation.
    pub sessions_opened: AtomicUsize,
    /// BMP sessions that ended (any reason).
    pub sessions_closed: AtomicUsize,
    /// Sessions that died before Initiation (garbage, wrong protocol).
    pub initiation_failures: AtomicUsize,
    /// Monitored peers registered via Peer Up, across all sessions.
    pub peers_up: AtomicUsize,
    /// Monitored peers torn down via Peer Down.
    pub peers_down: AtomicUsize,
    /// Route Monitoring UPDATEs delivered into the pipeline.
    pub updates: AtomicUsize,
    /// Stats Reports received for registered peers.
    pub stats_reports: AtomicUsize,
    /// Frames for unregistered peers (dropped, counted, never guessed).
    pub unknown_peer: AtomicUsize,
    /// Peer Ups rejected by the ASN allowlist.
    pub peers_denied: AtomicUsize,
    /// Duplicate Peer Ups (existing demux entry kept).
    pub duplicate_peer_ups: AtomicUsize,
    /// Sessions closed by the idle timer.
    pub idle_timeouts: AtomicUsize,
    /// Sessions closed by decode or protocol errors.
    pub protocol_errors: AtomicUsize,
    /// Sessions closed by a clean Termination message.
    pub terminations: AtomicUsize,
    /// Connections closed at accept because the pool-wide session cap
    /// (`BmpConfig::max_sessions`) was reached.
    pub accept_rejected: AtomicUsize,
}
