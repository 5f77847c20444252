//! GILL's collection platform (§8–§9, Fig. 9).
//!
//! * [`daemon`] — the shared session pipeline every BGP and BMP session
//!   feeds: filter application, bounded storage queue with loss
//!   accounting (the Table-1 measurement hook), and the client side of
//!   the RFC 4271 handshake.
//! * [`peer`] — fake peers that establish sessions and send paced update
//!   streams (the §8 load-test harness).
//! * [`storage`] — storage backends: in-memory, MRT archive (the format
//!   published at bgproutes.io), and a cost-injecting wrapper.
//! * [`orchestrator`] — periodic retraining of components #1/#2 and filter
//!   refresh, with the temporary mirroring scheme of Fig. 9.
//! * [`validator`] — §14's update-validity checks (session consistency,
//!   protocol sanity, bogons, forged-origin quarantine).
//! * [`forwarding`] — §14's operator services: forward selected updates to
//!   subscribers before the discard stage.
//! * [`transport`] — pluggable byte transports (TCP or the in-process
//!   fault-injecting simulator) and clocks (system or virtual).
//! * [`fsm`] — the sans-I/O RFC 4271 session state machine (hold timer,
//!   keepalive generation, NOTIFICATION-on-error).
//! * [`harness`] — the deterministic session harness: whole failure
//!   scenarios (faults, reconnects, backoff) replay bit-identically from
//!   a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod forwarding;
pub mod fsm;
pub mod harness;
pub mod orchestrator;
pub mod peer;
pub mod storage;
pub mod transport;
pub mod validator;

pub use daemon::{
    handshake_client, DaemonConfig, DaemonPool, DaemonStats, MessageStream, SessionCtx, UpdateSink,
    EPOCH_SLOTS,
};
pub use forwarding::{ForwardRule, Forwarder, Subscription};
pub use fsm::{CloseReason, SessionConfig, SessionEvent, SessionFsm, SessionRole, SessionState};
pub use harness::{run_scenario, Scenario, ScenarioOutcome, Side, Transcript, TranscriptEntry};
pub use orchestrator::{Orchestrator, OrchestratorConfig, Refresh};
pub use peer::{
    run_fake_peer, run_resilient_peer, synthetic_updates, FakePeerConfig, ResilientPeerReport,
};
pub use storage::{received, MemoryStorage, MrtStorage, SlowStorage, Storage, StoredUpdate};
pub use transport::{
    sim_pair, BackoffPolicy, Clock, Fault, FaultAction, FaultSchedule, SimTransport, SystemClock,
    Transport, VirtualClock,
};
pub use validator::{is_bogon, UpdateValidator, Verdict, Violation};
