//! BMP (RFC 7854) ingestion for the GILL collection platform.
//!
//! BGP peers with one router per session; BMP multiplexes a router's view
//! of *many* monitored BGP peers over one TCP session, which is why modern
//! deployments treat it as the preferred on-ramp for contributing a feed:
//! the operator points an existing monitoring knob at the collector instead
//! of configuring a full BGP session per peer. This crate adds BMP as a
//! second first-class ingest protocol, feeding the exact same
//! filter → store → stream → query pipeline as the BGP daemon.
//!
//! The subsystem is layered like the BGP side:
//!
//! * [`codec`] — wire codec for the BMP common header, per-peer header and
//!   the six v3 message types; embedded BGP PDUs (the UPDATE inside Route
//!   Monitoring, the OPENs inside Peer Up, the NOTIFICATION inside Peer
//!   Down) are decoded by the existing `bgp-wire` codec.
//! * [`fsm`] — a sans-I/O session state machine: Initiation-first
//!   enforcement, a per-(peer address, route distinguisher, ASN) demux
//!   table mapping monitored peers to [`bgp_types::VpId`]s, Peer Down
//!   teardown, and a per-session counter ledger. Pure — it runs unchanged
//!   over TCP, [`gill_collector::transport::SimTransport`] fault schedules
//!   and the deterministic soak harness.
//! * [`config`] — TOML-ish per-peer configuration: listener instances,
//!   ASN allowlists, and per-peer-address ASN/router/name overrides.
//! * [`listener`] — [`listener::BmpStats`], the `DaemonStats`-style
//!   atomic ledger shared by all BMP sessions. The sessions themselves
//!   run on `gill-runtime`'s event loops.
//!
//! Accepted routes enter the pipeline through
//! [`gill_collector::daemon::SessionCtx::offer`], so every downstream
//! invariant (compiled≡reference filter verdicts, exact shed/gap
//! accounting, crash-restart byte-equivalence) covers BMP-ingested
//! updates too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod fsm;
pub mod listener;

pub use codec::{
    BmpError, BmpMessage, InfoTlv, PeerDownReason, PeerHeader, PeerUpMessage, StatCounter,
};
pub use config::{BmpConfig, ListenerConfig, PeerOverride, PeerPolicy};
pub use fsm::{BmpCloseReason, BmpEvent, BmpFsm, BmpLedger, BmpSessionConfig, PeerKey};
pub use listener::BmpStats;
