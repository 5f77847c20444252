//! The evented session loop: one thread multiplexing many sans-I/O
//! session machines over a [`ReadinessSource`] and a [`TimerWheel`].
//!
//! The loop owns no protocol logic. `SessionFsm` and `BmpFsm` already
//! decide *what* happens from bytes and ticks; the loop decides *when*,
//! from readiness and timer fires, amortized over thousands of sessions
//! per thread. Canonical intra-instant ordering: timers fire **before**
//! I/O at the same clock instant, which matches the deterministic
//! harness's tick-then-pump ordering and is what makes the loop's
//! transcript digests comparable with the harness's.

use crate::conn::EventedConn;
use crate::reactor::{Event, Interest, ReadinessSource, Token, WAKE_TOKEN};
use crate::sys::RawFd;
use crate::timer::{Expired, TimerId, TimerWheel};
use bgp_types::{Timestamp, VpId};
use gill_bmp::fsm::{BmpCloseReason, BmpEvent, BmpFsm};
use gill_bmp::listener::BmpStats;
use gill_collector::daemon::SessionCtx;
use gill_collector::fsm::{CloseReason, SessionEvent, SessionFsm};
use gill_collector::transport::{Clock, Transport};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tokens at or above this are reserved for listeners (the pool's
/// accept sockets); session tokens are slab indices below it.
pub const LISTENER_TOKEN_BASE: Token = u64::MAX - 1024;

/// Per-loop counters, surfaced alongside `DaemonStats`.
#[derive(Default, Debug)]
pub struct LoopStats {
    /// Gauge: fds currently registered with the readiness source.
    pub registered: AtomicUsize,
    /// Gauge: sessions currently multiplexed on this loop.
    pub sessions: AtomicUsize,
    /// Readiness events processed (sessions only).
    pub ready_events: AtomicUsize,
    /// Timer-wheel fires delivered to sessions.
    pub timer_fires: AtomicUsize,
    /// Cross-thread wakes observed.
    pub wakes: AtomicUsize,
    /// Sessions this loop accepted ownership of.
    pub accepted: AtomicUsize,
    /// Connections shed at accept by the session cap (acceptor-side).
    pub accept_shed: AtomicUsize,
}

/// A protocol machine the loop can drive: both are sans-I/O
/// byte-in/byte-out FSMs; only BGP produces output bytes.
pub enum Machine {
    Bgp(SessionFsm),
    Bmp(BmpFsm),
}

impl Machine {
    fn handle_bytes(&mut self, data: &[u8], now_ms: u64) {
        match self {
            Machine::Bgp(f) => f.handle_bytes(data, now_ms),
            Machine::Bmp(f) => f.handle_bytes(data, now_ms),
        }
    }

    fn handle_eof(&mut self, now_ms: u64) {
        match self {
            Machine::Bgp(f) => f.handle_eof(now_ms),
            Machine::Bmp(f) => f.handle_eof(now_ms),
        }
    }

    fn tick(&mut self, now_ms: u64) {
        match self {
            Machine::Bgp(f) => f.tick(now_ms),
            Machine::Bmp(f) => f.tick(now_ms),
        }
    }

    fn next_deadline_ms(&self) -> Option<u64> {
        match self {
            Machine::Bgp(f) => f.next_deadline_ms(),
            Machine::Bmp(f) => f.next_deadline_ms(),
        }
    }
}

struct Session<T: Transport> {
    conn: EventedConn<T>,
    machine: Machine,
    fd: Option<RawFd>,
    /// Peer identity, known once the BGP handshake (or BMP demux)
    /// settles. BGP updates are attributed to it.
    peer: Option<VpId>,
    timer: Option<TimerId>,
    /// The deadline the current timer is armed for (skip re-arm churn).
    armed_for: Option<u64>,
    /// BGP: whether Established was reached (open/close accounting).
    established: bool,
    /// BMP: whether a valid Initiation was seen.
    bmp_started: bool,
    /// EOF already delivered to the machine (deliver it exactly once,
    /// like the harness endpoints).
    eof_sent: bool,
}

/// Observer callback for BGP session events (transcript-building tests).
pub type EventTap = Box<dyn FnMut(Token, &SessionEvent) + Send>;

/// The event loop. Generic over transport and readiness source so the
/// identical code path serves real sockets under epoll and simulated
/// links under [`crate::sim::SimReactor`].
pub struct EventLoop<T: Transport, S: ReadinessSource> {
    source: S,
    wheel: TimerWheel,
    clock: Arc<dyn Clock>,
    sessions: Vec<Option<Session<T>>>,
    free: Vec<usize>,
    ctx: SessionCtx,
    bmp_stats: Arc<BmpStats>,
    stats: Arc<LoopStats>,
    /// Peer identities seen before, for the reconnect counter (shared
    /// across a pool's loops).
    known_peers: Arc<Mutex<HashSet<VpId>>>,
    /// Pool-wide live BGP session count (the accept cap's denominator).
    active: Option<Arc<AtomicUsize>>,
    /// Pool-wide live BMP session count (its cap is independent).
    bmp_active: Option<Arc<AtomicUsize>>,
    /// Observable session events, for transcript-building tests.
    tap: Option<EventTap>,
    scratch: Vec<u8>,
    events: Vec<Event>,
    fired: Vec<Expired>,
}

impl<T: Transport, S: ReadinessSource> EventLoop<T, S> {
    /// A loop over `source`, feeding accepted updates through `ctx`.
    /// `clock` is the time base for every FSM instant (virtual in
    /// tests).
    pub fn new(
        source: S,
        clock: Arc<dyn Clock>,
        ctx: SessionCtx,
        bmp_stats: Arc<BmpStats>,
    ) -> EventLoop<T, S> {
        let now = clock.now_ms();
        EventLoop {
            source,
            wheel: TimerWheel::new(now),
            clock,
            sessions: Vec::new(),
            free: Vec::new(),
            ctx,
            bmp_stats,
            stats: Arc::new(LoopStats::default()),
            known_peers: Arc::new(Mutex::new(HashSet::new())),
            active: None,
            bmp_active: None,
            tap: None,
            scratch: vec![0u8; 16 * 1024],
            events: Vec::new(),
            fired: Vec::new(),
        }
    }

    /// Shares the pool-wide live BGP session counter: decremented when
    /// a BGP session slot is freed (the accept cap's bookkeeping).
    pub fn set_active_counter(&mut self, active: Arc<AtomicUsize>) {
        self.active = Some(active);
    }

    /// Shares the pool-wide live BMP session counter (independent cap).
    pub fn set_bmp_active_counter(&mut self, active: Arc<AtomicUsize>) {
        self.bmp_active = Some(active);
    }

    /// Shares the pool-wide reconnect-identity set.
    pub fn set_known_peers(&mut self, peers: Arc<Mutex<HashSet<VpId>>>) {
        self.known_peers = peers;
    }

    /// Installs an observer for every BGP session event (transcript
    /// tests). The token identifies the session.
    pub fn set_event_tap(&mut self, tap: EventTap) {
        self.tap = Some(tap);
    }

    /// This loop's counters (shareable).
    pub fn stats(&self) -> Arc<LoopStats> {
        self.stats.clone()
    }

    /// The readiness source (e.g. to mint a waker before moving the
    /// loop onto its thread).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Live sessions on this loop.
    pub fn session_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_some()).count()
    }

    /// Adds a session over `transport` (already non-blocking) driven by
    /// `machine`. `fd` registers the connection with the readiness
    /// source (None for simulated transports). Starts the machine,
    /// pumps any initial output (an OPEN for active BGP roles) and arms
    /// its first deadline.
    pub fn add_session(
        &mut self,
        transport: T,
        fd: Option<RawFd>,
        machine: Machine,
    ) -> io::Result<Token> {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
        };
        let token = idx as Token;
        if let Some(fd) = fd {
            if let Err(e) = self.source.register_fd(fd, token, Interest::BOTH) {
                self.free.push(idx);
                return Err(e);
            }
            self.stats.registered.fetch_add(1, Ordering::Relaxed);
        }
        let mut machine = machine;
        let now = self.clock.now_ms();
        if let Machine::Bgp(f) = &mut machine {
            f.start(now);
        }
        self.sessions[idx] = Some(Session {
            conn: EventedConn::new(transport),
            machine,
            fd,
            peer: None,
            timer: None,
            armed_for: None,
            established: false,
            bmp_started: false,
            eof_sent: false,
        });
        self.stats.sessions.fetch_add(1, Ordering::Relaxed);
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.drive(idx, now);
        Ok(token)
    }

    /// Registers a non-session fd (listener) under a caller-chosen
    /// token at or above [`LISTENER_TOKEN_BASE`]; its readiness events
    /// are handed back out of [`run_once`].
    ///
    /// [`run_once`]: EventLoop::run_once
    pub fn register_external(&mut self, fd: RawFd, token: Token) -> io::Result<()> {
        debug_assert!(token >= LISTENER_TOKEN_BASE);
        self.source.register_fd(fd, token, Interest::READ)?;
        self.stats.registered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One loop turn: fire due timers, wait for readiness (bounded by
    /// `max_wait_ms` and the earliest timer deadline), fire timers that
    /// came due during the wait, then drive every ready session.
    /// Listener and waker events are appended to `other` for the
    /// caller. Timers always fire before I/O at the same instant.
    pub fn run_once(&mut self, max_wait_ms: Option<u64>, other: &mut Vec<Event>) -> io::Result<()> {
        let now = self.clock.now_ms();
        self.fire_timers(now);
        let timeout = {
            let headroom = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_sub(now).max(1));
            match (max_wait_ms, headroom) {
                (None, None) => None,
                (Some(t), None) => Some(t),
                (None, Some(h)) => Some(h),
                (Some(t), Some(h)) => Some(t.min(h)),
            }
        };
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.source.wait(&mut events, timeout)?;
        let now = self.clock.now_ms();
        self.fire_timers(now);
        for ev in events.drain(..) {
            if ev.token == WAKE_TOKEN {
                self.stats.wakes.fetch_add(1, Ordering::Relaxed);
                other.push(ev);
                continue;
            }
            if ev.token >= LISTENER_TOKEN_BASE {
                other.push(ev);
                continue;
            }
            self.stats.ready_events.fetch_add(1, Ordering::Relaxed);
            self.on_ready(ev, now);
        }
        self.events = events;
        Ok(())
    }

    /// Advances the wheel and ticks every session whose deadline fired.
    fn fire_timers(&mut self, now: u64) {
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.advance(now, &mut fired);
        for exp in fired.drain(..) {
            let idx = exp.token as usize;
            if idx >= self.sessions.len() || self.sessions[idx].is_none() {
                continue; // session already gone; stale fire
            }
            self.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = self.sessions[idx].as_mut() {
                s.timer = None;
                s.armed_for = None;
                s.machine.tick(now);
            }
            self.drive(idx, now);
        }
        self.fired = fired;
    }

    /// Handles one readiness event for a session.
    fn on_ready(&mut self, ev: Event, now: u64) {
        let idx = ev.token as usize;
        let Some(s) = self.sessions.get_mut(idx).and_then(|s| s.as_mut()) else {
            return; // spurious or stale: tolerated by construction
        };
        if ev.writable && s.conn.has_pending() {
            let _ = s.conn.flush();
        }
        if ev.readable || ev.closed || ev.error {
            let machine = &mut s.machine;
            let eof = s
                .conn
                .fill(&mut self.scratch, |chunk| machine.handle_bytes(chunk, now))
                .unwrap_or(true);
            if eof && !s.eof_sent {
                s.eof_sent = true;
                s.machine.handle_eof(now);
            }
        }
        self.drive(idx, now);
    }

    /// Drains machine events, pumps output, re-arms the deadline, and
    /// tears the session down when its machine closed. A write that
    /// found the link dead is surfaced as EOF (then its close events
    /// drain on the next pass of the outer loop).
    fn drive(&mut self, idx: usize, now: u64) {
        let mut closed = false;
        'drain: loop {
            let Some(s) = self.sessions.get_mut(idx).and_then(|s| s.as_mut()) else {
                return;
            };
            loop {
                match &mut s.machine {
                    Machine::Bgp(f) => {
                        let Some(event) = f.poll_event() else { break };
                        if let Some(tap) = &mut self.tap {
                            tap(idx as Token, &event);
                        }
                        match event {
                            SessionEvent::Established { peer, .. } => {
                                s.established = true;
                                s.peer = Some(peer);
                                self.ctx
                                    .stats
                                    .sessions_opened
                                    .fetch_add(1, Ordering::Relaxed);
                                if !self.known_peers.lock().insert(peer) {
                                    self.ctx.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            SessionEvent::Update(u) => {
                                if let Some(peer) = s.peer {
                                    if !self.ctx.offer(peer, u, Timestamp::from_millis(now)) {
                                        // storage is gone; wind the session down
                                        f.close_gracefully();
                                    }
                                }
                            }
                            SessionEvent::KeepaliveSent => {
                                self.ctx
                                    .stats
                                    .keepalives_sent
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            SessionEvent::KeepaliveReceived => {
                                self.ctx
                                    .stats
                                    .keepalives_received
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            SessionEvent::NotificationSent { .. } => {
                                self.ctx
                                    .stats
                                    .notifications_sent
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            SessionEvent::Closed(reason) => {
                                if reason == CloseReason::HoldTimerExpired {
                                    self.ctx
                                        .stats
                                        .hold_expirations
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                if s.established {
                                    self.ctx
                                        .stats
                                        .sessions_closed
                                        .fetch_add(1, Ordering::Relaxed);
                                } else {
                                    self.ctx
                                        .stats
                                        .handshake_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                closed = true;
                            }
                        }
                    }
                    Machine::Bmp(f) => {
                        let Some(event) = f.poll_event() else { break };
                        match event {
                            BmpEvent::SessionStarted { .. } => {
                                s.bmp_started = true;
                                self.bmp_stats
                                    .sessions_opened
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            BmpEvent::PeerUp { .. } => {
                                self.bmp_stats.peers_up.fetch_add(1, Ordering::Relaxed);
                            }
                            BmpEvent::PeerDown { .. } => {
                                self.bmp_stats.peers_down.fetch_add(1, Ordering::Relaxed);
                            }
                            BmpEvent::Update { vp, update, ts_ms } => {
                                self.bmp_stats.updates.fetch_add(1, Ordering::Relaxed);
                                self.ctx.offer(vp, update, Timestamp::from_millis(ts_ms));
                            }
                            BmpEvent::Stats { .. } => {
                                self.bmp_stats.stats_reports.fetch_add(1, Ordering::Relaxed);
                            }
                            BmpEvent::Closed(reason) => {
                                let ledger = f.ledger();
                                self.bmp_stats
                                    .unknown_peer
                                    .fetch_add(ledger.unknown_peer as usize, Ordering::Relaxed);
                                self.bmp_stats
                                    .peers_denied
                                    .fetch_add(ledger.denied_peers as usize, Ordering::Relaxed);
                                self.bmp_stats.duplicate_peer_ups.fetch_add(
                                    ledger.duplicate_peer_ups as usize,
                                    Ordering::Relaxed,
                                );
                                if s.bmp_started {
                                    self.bmp_stats
                                        .sessions_closed
                                        .fetch_add(1, Ordering::Relaxed);
                                } else {
                                    self.bmp_stats
                                        .initiation_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                                match &reason {
                                    BmpCloseReason::Terminated => {
                                        self.bmp_stats.terminations.fetch_add(1, Ordering::Relaxed);
                                    }
                                    BmpCloseReason::IdleTimeout => {
                                        self.bmp_stats
                                            .idle_timeouts
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    BmpCloseReason::DecodeError(_)
                                    | BmpCloseReason::ProtocolError(_) => {
                                        self.bmp_stats
                                            .protocol_errors
                                            .fetch_add(1, Ordering::Relaxed);
                                    }
                                    _ => {}
                                }
                                closed = true;
                            }
                        }
                    }
                }
            }
            // pump whatever the machine wants on the wire (OPEN,
            // KEEPALIVE, a parting NOTIFICATION) and flush as much as
            // the socket takes
            if let Machine::Bgp(f) = &mut s.machine {
                while f.has_output() {
                    let out = f.take_output();
                    s.conn.queue(&out);
                }
            }
            let _ = s.conn.flush();
            if closed {
                break 'drain;
            }
            if s.conn.is_dead() && !s.eof_sent {
                s.eof_sent = true;
                s.machine.handle_eof(now);
                continue 'drain;
            }
            // re-arm the deadline only when it moved
            let want = s.machine.next_deadline_ms();
            if want != s.armed_for {
                if let Some(t) = s.timer.take() {
                    self.wheel.cancel(t);
                }
                s.armed_for = want;
                s.timer = want.map(|d| self.wheel.schedule(d, idx as u64));
            }
            return;
        }
        self.remove(idx);
    }

    /// Frees a session slot: cancels its timer, deregisters its fd and
    /// shuts the transport down.
    fn remove(&mut self, idx: usize) {
        let Some(mut s) = self.sessions.get_mut(idx).and_then(|s| s.take()) else {
            return;
        };
        if let Some(t) = s.timer.take() {
            self.wheel.cancel(t);
        }
        if let Some(fd) = s.fd {
            let _ = self.source.deregister_fd(fd);
            self.stats.registered.fetch_sub(1, Ordering::Relaxed);
        }
        s.conn.shutdown();
        self.free.push(idx);
        self.stats.sessions.fetch_sub(1, Ordering::Relaxed);
        let counter = match &s.machine {
            Machine::Bgp(_) => &self.active,
            Machine::Bmp(_) => &self.bmp_active,
        };
        if let Some(active) = counter {
            active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Gracefully winds down every session: BGP sends NOTIFICATION
    /// Cease, BMP closes its transport. Sessions finish their close
    /// path on subsequent [`run_once`] turns (or immediately, when the
    /// FSM closes synchronously).
    ///
    /// [`run_once`]: EventLoop::run_once
    pub fn graceful_close_all(&mut self) {
        let now = self.clock.now_ms();
        for idx in 0..self.sessions.len() {
            let Some(s) = self.sessions[idx].as_mut() else {
                continue;
            };
            match &mut s.machine {
                Machine::Bgp(f) => f.close_gracefully(),
                Machine::Bmp(f) => {
                    s.conn.shutdown();
                    s.eof_sent = true;
                    f.handle_eof(now);
                }
            }
            self.drive(idx, now);
        }
    }
}
