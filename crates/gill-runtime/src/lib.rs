//! gill-runtime — the readiness-driven session runtime.
//!
//! One OS thread per session is what the paper's per-VP "custom BGP
//! daemon" baseline looks like — but a route collector peering with
//! thousands of vantage points cannot afford thousands of stacks and a
//! scheduler thrashing between them. This crate, the collector's session
//! runtime, multiplexes all of those sessions onto a small fixed worker
//! set without touching the protocol logic: the sans-I/O `SessionFsm`
//! and `BmpFsm` already speak byte-in/byte-out, so the runtime only
//! decides *when* bytes and ticks happen.
//!
//! Layers, bottom up:
//!
//! - [`sys`] — the only unsafe code: direct `extern "C"` bindings to
//!   epoll (Linux) and poll(2), an eventfd/pipe waker, and the
//!   RLIMIT_NOFILE raise. No external crates.
//! - [`timer`] — a hierarchical timer wheel (4 levels × 64 slots, 1 ms
//!   resolution) for hold/keepalive/idle deadlines: O(1) arm/cancel,
//!   deterministic fire order `(deadline, arm id)`.
//! - [`reactor`] — [`reactor::Reactor`], the readiness source:
//!   edge-triggered epoll with a level-triggered poll(2) fallback, and
//!   cross-thread [`reactor::Waker`]s. The [`ReadinessSource`] trait
//!   abstracts it so...
//! - [`sim`] — ...[`sim::SimReactor`] can replay scripted readiness
//!   batches (including spurious wakeups) deterministically in tests.
//! - [`conn`] — [`conn::EventedConn`], per-connection buffering
//!   between a non-blocking transport and an FSM: drain-to-WouldBlock
//!   reads (mandatory under edge triggering), partial-write output
//!   queueing.
//! - [`eventloop`] — [`eventloop::EventLoop`], one thread's worth of
//!   multiplexing: slab of sessions, the wheel, readiness dispatch,
//!   and the session counters of the shared `DaemonStats`/`BmpStats`.
//! - [`pool`] — [`pool::EventedPool`], the deployable shape: worker 0
//!   owns the listeners, accepted connections are capacity-checked and
//!   dispatched round-robin, everything feeds one shared `DaemonPool`
//!   pipeline.
//!
//! [`ReadinessSource`]: reactor::ReadinessSource

pub mod conn;
pub mod eventloop;
pub mod pool;
pub mod reactor;
pub mod sim;
pub mod sys;
pub mod timer;

pub use conn::EventedConn;
pub use eventloop::{EventLoop, LoopStats, Machine, LISTENER_TOKEN_BASE};
pub use pool::{EventedPool, RuntimeConfig, RuntimeTotals};
pub use reactor::{Event, Interest, Reactor, ReadinessSource, Token, Waker, WAKE_TOKEN};
pub use sim::SimReactor;
pub use timer::{Expired, TimerId, TimerWheel};
