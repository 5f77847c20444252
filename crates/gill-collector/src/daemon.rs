//! The collector's shared session pipeline (§8).
//!
//! Every BGP session and BMP-monitored peer feeds one [`SessionCtx`]:
//! the orchestrator mirror, the §14 validator and forwarding tee, GILL's
//! filters, the live-stream sink and a **bounded** storage queue. When
//! the queue is full the update is *lost* — the quantity Table 1
//! measures under load. Filters can be swapped at runtime by the
//! orchestrator (§7's periodic refresh). [`DaemonPool`] owns that
//! pipeline; the session runtime (`gill-runtime`'s evented pool) accepts
//! peers and drives their FSMs into it.
//!
//! The session layer is split in two:
//!
//! * the FSM ([`crate::fsm::SessionFsm`]) decides *what* happens
//!   (handshake, hold timer, keepalives, NOTIFICATION-on-error) and is
//!   pure;
//! * the caller decides *when*: the evented runtime from readiness and
//!   timer fires, the client handshake here by blocking on the transport
//!   with timeouts derived from the FSM's next deadline.
//!
//! The same FSM also runs under the deterministic [`crate::harness`].

use crate::forwarding::Forwarder;
use crate::fsm::{CloseReason, SessionEvent, SessionFsm, SessionRole};
use crate::orchestrator::Orchestrator;
use crate::storage::{Storage, StoredUpdate};
use crate::transport::{Clock, SystemClock, Transport};
use crate::validator::{UpdateValidator, Verdict};
use bgp_types::{BgpUpdate, Timestamp, VpId};
use bgp_wire::{BgpMessage, Notification, WireError};
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use gill_core::{FilterHandle, FilterSet, FilterView};
use parking_lot::RwLock;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The collector's AS number sent in our OPEN.
    pub local_asn: u32,
    /// Hold time we propose (seconds; the negotiated value is the minimum
    /// of both sides, 0 disables timers).
    pub hold_time: u16,
    /// Capacity of the bounded storage queue (shared by the pool).
    pub queue_capacity: usize,
    /// Capacity of the bounded mirror channel feeding an attached
    /// orchestrator ([`DaemonPool::attach_orchestrator`]). Overflow is
    /// shed (never blocks a session) and counted in
    /// [`DaemonStats::mirror_dropped`].
    pub mirror_capacity: usize,
    /// Run the §14 validity checks on incoming updates (hard violations
    /// are dropped and counted; suspicious updates are stored but
    /// counted as quarantined).
    pub validate: bool,
    /// Upper bound on concurrently established sessions (0 = unlimited).
    /// Connections beyond the bound are rejected 503-style: a
    /// NOTIFICATION Cease is sent immediately and the connection is
    /// closed, counted in [`DaemonStats::accept_rejected`] — overload
    /// sheds deterministically instead of exhausting threads or fds.
    pub max_sessions: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            local_asn: 65535,
            hold_time: 240,
            queue_capacity: 1024,
            mirror_capacity: 8192,
            validate: false,
            max_sessions: 4096,
        }
    }
}

/// A live-stream tee the collector publishes accepted updates into.
///
/// Defined here (not in the streaming crate) so the dependency chain stays
/// linear: `gill-stream` implements this for its broker and hands the
/// collector an `Arc<dyn UpdateSink>`; the collector never depends on the
/// streaming layer. Implementations must never block — the paper's
/// collection hot path is sacred, distribution sheds instead.
pub trait UpdateSink: Send + Sync {
    /// Offers one post-filter accepted update. Returns `true` if it was
    /// published, `false` if the sink shed it (e.g. no subscribers).
    fn offer(&self, update: &BgpUpdate) -> bool;

    /// Number of consumers currently attached downstream.
    fn subscribers(&self) -> usize;
}

impl DaemonConfig {
    /// The session-layer view of this configuration. The collector
    /// advertises both unicast families and offers ADD-PATH on both: it
    /// archives whatever the peer can send, and a legacy peer's OPEN
    /// intersects the sets back down to a classic v4 session.
    pub fn session_config(&self) -> crate::fsm::SessionConfig {
        crate::fsm::SessionConfig {
            local_asn: self.local_asn,
            hold_time: self.hold_time,
            families: bgp_types::FamilySet::ALL,
            add_paths: bgp_types::FamilySet::ALL,
            ..crate::fsm::SessionConfig::default()
        }
    }
}

/// Counters exposed by a running daemon (pool).
#[derive(Default, Debug)]
pub struct DaemonStats {
    /// UPDATE messages received.
    pub received: AtomicUsize,
    /// Updates that passed the filters and were queued for storage.
    pub retained: AtomicUsize,
    /// Updates discarded by the filters (by design).
    pub filtered: AtomicUsize,
    /// Updates lost because the storage queue was full (overload).
    pub lost: AtomicUsize,
    /// Updates rejected by the §14 validity checks.
    pub invalid: AtomicUsize,
    /// Updates stored but flagged suspicious (§14 quarantine).
    pub quarantined: AtomicUsize,
    /// Updates forwarded to operator subscriptions (§14 services).
    pub forwarded: AtomicUsize,
    /// Sessions that completed the OPEN handshake.
    pub sessions_opened: AtomicUsize,
    /// Sessions that ended (for any reason) after establishing.
    pub sessions_closed: AtomicUsize,
    /// Connections that failed before establishing.
    pub handshake_failures: AtomicUsize,
    /// Connections rejected at accept because the session cap
    /// ([`DaemonConfig::max_sessions`]) was reached.
    pub accept_rejected: AtomicUsize,
    /// KEEPALIVEs this side generated.
    pub keepalives_sent: AtomicUsize,
    /// KEEPALIVEs received from peers.
    pub keepalives_received: AtomicUsize,
    /// NOTIFICATIONs this side sent (errors + graceful cease).
    pub notifications_sent: AtomicUsize,
    /// Sessions closed by hold-timer expiry.
    pub hold_expirations: AtomicUsize,
    /// Handshakes by a peer identity seen before (session re-established).
    pub reconnects: AtomicUsize,
    /// The currently published filter epoch (bumped by every
    /// `install_filters` / orchestrator refresh).
    pub filter_epoch: AtomicU64,
    /// Updates teed into the orchestrator mirror channel.
    pub mirror_fed: AtomicUsize,
    /// Updates the mirror channel shed because it was full (sessions
    /// never block on the mirror).
    pub mirror_dropped: AtomicUsize,
    /// Accepted updates published into the live-stream sink.
    pub stream_published: AtomicUsize,
    /// Accepted updates the stream sink shed (e.g. zero subscribers).
    pub stream_shed: AtomicUsize,
    /// Gauge: stream subscribers attached at the last publish attempt.
    pub stream_subscribers: AtomicUsize,
    /// Per-epoch verdict counters, a ring of the last
    /// [`EPOCH_SLOTS`] epochs.
    epochs: [EpochCounter; EPOCH_SLOTS],
}

/// Ring size of the per-epoch accept/drop counters.
pub const EPOCH_SLOTS: usize = 8;

/// Accept/drop counters for one filter epoch.
#[derive(Default, Debug)]
struct EpochCounter {
    epoch: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
}

impl DaemonStats {
    /// Resets the ring slot for `epoch`. The publisher calls this *before*
    /// making the epoch visible to sessions, so the slot can never mix
    /// counts from the epoch it replaces (single-publisher discipline).
    pub fn begin_epoch(&self, epoch: u64) {
        let s = &self.epochs[(epoch as usize) % EPOCH_SLOTS];
        s.accepted.store(0, Ordering::Relaxed);
        s.dropped.store(0, Ordering::Relaxed);
        s.epoch.store(epoch, Ordering::Release);
    }

    /// Records one filter verdict attributed to `epoch`.
    pub fn note_verdict(&self, epoch: u64, retained: bool) {
        let s = &self.epochs[(epoch as usize) % EPOCH_SLOTS];
        if s.epoch.load(Ordering::Acquire) == epoch {
            let c = if retained { &s.accepted } else { &s.dropped };
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(accepted, dropped)` for `epoch`, if its slot has not been
    /// recycled by a newer epoch yet.
    pub fn epoch_counts(&self, epoch: u64) -> Option<(u64, u64)> {
        let s = &self.epochs[(epoch as usize) % EPOCH_SLOTS];
        (s.epoch.load(Ordering::Acquire) == epoch).then(|| {
            (
                s.accepted.load(Ordering::Relaxed),
                s.dropped.load(Ordering::Relaxed),
            )
        })
    }
    /// Proportion of received updates lost to overload.
    pub fn loss_rate(&self) -> f64 {
        let rx = self.received.load(Ordering::Relaxed);
        if rx == 0 {
            0.0
        } else {
            self.lost.load(Ordering::Relaxed) as f64 / rx as f64
        }
    }
}

/// A framed BGP session over any [`Transport`]: keeps a persistent receive
/// buffer so coalesced messages in one segment are never dropped.
///
/// Defaults to [`TcpStream`] so existing `MessageStream::new(tcp)` call
/// sites are unchanged; tests substitute [`crate::transport::SimTransport`].
pub struct MessageStream<T: Transport = TcpStream> {
    transport: T,
    buf: BytesMut,
    chunk: Box<[u8; 16 * 1024]>,
}

impl<T: Transport> MessageStream<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        MessageStream {
            transport,
            buf: BytesMut::new(),
            chunk: Box::new([0u8; 16 * 1024]),
        }
    }

    /// The underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Writes one message.
    pub fn write_message(&mut self, msg: &BgpMessage) -> io::Result<()> {
        let bytes = msg
            .encode_to_vec()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.transport.write_all(&bytes)
    }

    /// Reads the next message (blocking, for blocking transports).
    /// `Ok(None)` means the peer closed the connection cleanly at a
    /// message boundary.
    pub fn read_message(&mut self) -> io::Result<Option<BgpMessage>> {
        loop {
            match BgpMessage::decode(&mut self.buf) {
                Ok(Some(m)) => return Ok(Some(m)),
                Ok(None) => {}
                Err(WireError::BadMarker) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "desynchronized"))
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.transport.read(&mut self.chunk[..])?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-message",
                ));
            }
            self.buf.extend_from_slice(&self.chunk[..n]);
        }
    }
}

fn close_error(reason: &CloseReason) -> io::Error {
    match reason {
        CloseReason::PeerClosed => {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed during handshake")
        }
        CloseReason::PeerClosedMidMessage => {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-message")
        }
        CloseReason::HoldTimerExpired => {
            io::Error::new(io::ErrorKind::TimedOut, "hold timer expired")
        }
        CloseReason::NotificationReceived { code, subcode } => io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("peer sent NOTIFICATION {code}/{subcode}"),
        ),
        CloseReason::DecodeError(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        CloseReason::ProtocolError(what) => {
            io::Error::new(io::ErrorKind::InvalidData, (*what).to_string())
        }
    }
}

/// Upper bound on one blocking read so timer ticks stay responsive even
/// with long hold times.
const MAX_READ_SLICE_MS: u64 = 500;

/// One blocking step of the FSM drive loop: flush pending output, then
/// read with a timeout bounded by the FSM's next deadline and feed the
/// result (bytes, EOF, or a timer tick) back into the FSM.
fn drive_step<T: Transport>(
    s: &mut MessageStream<T>,
    fsm: &mut SessionFsm,
    clock: &dyn Clock,
) -> io::Result<()> {
    while fsm.has_output() {
        let out = fsm.take_output();
        if let Err(e) = s.transport.write_all(&out) {
            // a dead link is a session close, not a caller error
            fsm.handle_eof(clock.now_ms());
            return if fsm.is_closed() { Ok(()) } else { Err(e) };
        }
    }
    if fsm.is_closed() {
        return Ok(());
    }
    let now = clock.now_ms();
    let timeout = fsm
        .next_deadline_ms()
        .map(|d| d.saturating_sub(now).clamp(1, MAX_READ_SLICE_MS))
        .unwrap_or(MAX_READ_SLICE_MS);
    s.transport
        .set_read_timeout(Some(Duration::from_millis(timeout)))?;
    match s.transport.read(&mut s.chunk[..]) {
        Ok(0) => fsm.handle_eof(clock.now_ms()),
        Ok(n) => {
            let data = s.chunk[..n].to_vec();
            fsm.handle_bytes(&data, clock.now_ms());
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            fsm.tick(clock.now_ms());
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
        Err(e) => return Err(e),
    }
    Ok(())
}

/// Drives `fsm` until it establishes or closes. On close, the reason is
/// converted into an `io::Error`.
fn drive_handshake<T: Transport>(
    s: &mut MessageStream<T>,
    fsm: &mut SessionFsm,
    clock: &dyn Clock,
) -> io::Result<()> {
    loop {
        // "reached", not "is": a fast peer can handshake, send UPDATEs
        // and close inside one read — those events stay queued for the
        // established phase
        if fsm.reached_established() {
            // flush the final handshake message (our confirming KEEPALIVE)
            while fsm.has_output() {
                let out = fsm.take_output();
                if s.transport.write_all(&out).is_err() {
                    break; // peer already gone; its events still matter
                }
            }
            return Ok(());
        }
        if fsm.is_closed() {
            let reason = std::iter::from_fn(|| fsm.poll_event())
                .find_map(|e| match e {
                    SessionEvent::Closed(r) => Some(r),
                    _ => None,
                })
                .unwrap_or(CloseReason::PeerClosed);
            return Err(close_error(&reason));
        }
        drive_step(s, fsm, clock)?;
    }
}

/// Client side of the handshake (used by the fake peers of §8's load test
/// and by operators' routers in the real deployment). Runs the active FSM
/// until Established; any bytes the peer sent beyond the handshake are
/// left in the stream's decode buffer.
pub fn handshake_client<T: Transport>(s: &mut MessageStream<T>, asn: u32) -> io::Result<()> {
    handshake_client_mp(
        s,
        asn,
        bgp_types::FamilySet::EMPTY,
        bgp_types::FamilySet::EMPTY,
    )
    .map(|_| ())
}

/// [`handshake_client`] with Multiprotocol / ADD-PATH capabilities in the
/// OPEN. Returns the negotiated `(families, add_paths)` sets — what the
/// peer in the session's NLRI encoding must follow from then on.
pub fn handshake_client_mp<T: Transport>(
    s: &mut MessageStream<T>,
    asn: u32,
    families: bgp_types::FamilySet,
    add_paths: bgp_types::FamilySet,
) -> io::Result<(bgp_types::FamilySet, bgp_types::FamilySet)> {
    let clock = SystemClock::new();
    let cfg = crate::fsm::SessionConfig {
        local_asn: asn,
        hold_time: 240,
        router_id: std::net::Ipv4Addr::new(10, 255, 0, 1),
        families,
        add_paths,
    };
    let mut fsm = SessionFsm::new(SessionRole::Active, cfg);
    fsm.start(clock.now_ms());
    drive_handshake(s, &mut fsm, &clock)?;
    // hand residual bytes (e.g. a coalesced first UPDATE) to manual framing
    let residual = fsm.take_residual();
    if !residual.is_empty() {
        let mut merged = residual;
        merged.extend_from_slice(&s.buf);
        s.buf = merged;
    }
    Ok((fsm.families(), fsm.add_paths()))
}

/// The shared pipeline a session feeds: filters, the bounded storage
/// queue, counters, and the optional §14 services (validator and
/// forwarding tee).
#[derive(Clone)]
pub struct SessionCtx {
    /// Filter view applied before storage. Each judged update costs one
    /// atomic epoch load plus a hash probe — no lock, no allocation; an
    /// orchestrator refresh swaps the epoch under the sessions without
    /// touching them ([`FilterHandle`]).
    pub filters: FilterView,
    /// The bounded storage queue.
    pub queue: Sender<StoredUpdate>,
    /// Shared counters.
    pub stats: Arc<DaemonStats>,
    /// §14 validity checks (shared so knowledge accumulates).
    pub validator: Option<Arc<RwLock<UpdateValidator>>>,
    /// §14 forwarding tee, evaluated before the discard stage.
    pub forwarder: Option<Arc<RwLock<Forwarder>>>,
    /// Orchestrator mirror tee: the *unfiltered* stream §8 trains on.
    pub mirror: Option<Sender<BgpUpdate>>,
    /// Whether an orchestrator is actually draining the mirror; when
    /// false the tee is skipped entirely (one relaxed load per update).
    pub mirror_on: Arc<AtomicBool>,
    /// Live-stream tee, fed *after* filter-accept (subscribers see exactly
    /// what the archive retains, minus queue overflow losses).
    pub sink: Option<Arc<dyn UpdateSink>>,
    /// The owning pool's stop signal, set once the pipeline winds down
    /// ([`DaemonPool::request_stop`]).
    pub shutdown: Arc<AtomicBool>,
}

impl SessionCtx {
    /// A pipeline over `filters` with no validator, forwarder, or mirror
    /// (tests and embedded uses; the pool wires the full §14 stack).
    pub fn new(
        filters: FilterView,
        queue: Sender<StoredUpdate>,
        stats: Arc<DaemonStats>,
    ) -> SessionCtx {
        SessionCtx {
            filters,
            queue,
            stats,
            validator: None,
            forwarder: None,
            mirror: None,
            mirror_on: Arc::new(AtomicBool::new(false)),
            sink: None,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Attaches a live-stream sink (builder style).
    pub fn with_sink(mut self, sink: Arc<dyn UpdateSink>) -> SessionCtx {
        self.sink = Some(sink);
        self
    }

    /// Offers one received UPDATE into the pipeline on behalf of `vp`:
    /// the mirror tee, validation, forwarding, filtering, the sink and
    /// the bounded queue. BGP sessions and BMP-monitored peers both
    /// enter here, so every protocol shares the same accounting. Returns
    /// `false` when the queue is gone.
    pub fn offer(&self, vp: VpId, wire: bgp_wire::UpdateMessage, now: Timestamp) -> bool {
        for mut domain in wire.to_domain(vp, now) {
            domain.time = now;
            self.stats.received.fetch_add(1, Ordering::Relaxed);
            // the mirror sees the stream *before* filtering (§8: training
            // needs all the data); shedding on overflow, never blocking
            if let Some(m) = &self.mirror {
                if self.mirror_on.load(Ordering::Relaxed) {
                    match m.try_send(domain.clone()) {
                        Ok(()) => {
                            self.stats.mirror_fed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Full(_)) => {
                            self.stats.mirror_dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Disconnected(_)) => {}
                    }
                }
            }
            if let Some(v) = &self.validator {
                match v.write().validate(vp.asn, &domain) {
                    Verdict::Invalid(_) => {
                        self.stats.invalid.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Verdict::Quarantine(_) => {
                        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                    Verdict::Valid => {}
                }
            }
            if let Some(f) = &self.forwarder {
                let mut fw = f.write();
                let before = fw.forwarded;
                fw.offer(&domain);
                self.stats
                    .forwarded
                    .fetch_add(fw.forwarded - before, Ordering::Relaxed);
            }
            let (keep, epoch) = self.filters.judge(&domain);
            self.stats.note_verdict(epoch, keep);
            if !keep {
                self.stats.filtered.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // live-stream tee: strictly post-filter, never blocking — the
            // sink sheds (and says so) rather than slow a session
            if let Some(sink) = &self.sink {
                let c = if sink.offer(&domain) {
                    &self.stats.stream_published
                } else {
                    &self.stats.stream_shed
                };
                c.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .stream_subscribers
                    .store(sink.subscribers(), Ordering::Relaxed);
            }
            match self.queue.try_send(StoredUpdate { update: domain }) {
                Ok(()) => {
                    self.stats.retained.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Full(_)) => {
                    self.stats.lost.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        true
    }
}

/// The collector's shared pipeline: filters, the bounded storage queue,
/// counters, the §14 services, the mirror and sink tees, and the
/// orchestrator refresh thread. The session runtime (`gill-runtime`)
/// accepts peers and mints per-session views of it with
/// [`DaemonPool::session_ctx`]; the storage thread empties it with
/// [`DaemonPool::drain_into`].
pub struct DaemonPool {
    stats: Arc<DaemonStats>,
    filters: Arc<FilterHandle>,
    validator: Option<Arc<RwLock<UpdateValidator>>>,
    forwarder: Arc<RwLock<Forwarder>>,
    mirror_tx: Sender<BgpUpdate>,
    sink: Option<Arc<dyn UpdateSink>>,
    queue_rx: Receiver<StoredUpdate>,
    queue_tx: Sender<StoredUpdate>,
    mirror_rx: Option<Receiver<BgpUpdate>>,
    mirror_on: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    refresh_thread: Option<std::thread::JoinHandle<()>>,
}

impl DaemonPool {
    /// Builds the shared pipeline — filters, bounded queue, counters,
    /// §14 services, mirror and sink tees. `sink` is the optional
    /// live-stream tee every session offers its post-filter accepted
    /// updates to.
    pub fn pipeline(cfg: DaemonConfig, sink: Option<Arc<dyn UpdateSink>>) -> DaemonPool {
        let (queue_tx, queue_rx) = bounded(cfg.queue_capacity);
        let (mirror_tx, mirror_rx) = bounded(cfg.mirror_capacity.max(1));
        let mirror_on = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(DaemonStats::default());
        let filters = FilterHandle::empty();
        let validator = cfg
            .validate
            .then(|| Arc::new(RwLock::new(UpdateValidator::new())));
        let forwarder = Arc::new(RwLock::new(Forwarder::new()));
        let stop = Arc::new(AtomicBool::new(false));
        DaemonPool {
            stats,
            filters,
            validator,
            forwarder,
            mirror_tx,
            sink,
            queue_rx,
            queue_tx,
            mirror_rx: Some(mirror_rx),
            mirror_on,
            stop,
            refresh_thread: None,
        }
    }

    /// Registers an operator forwarding subscription (§14): matching
    /// updates are delivered on the returned handle *before* the discard
    /// stage. Returns the subscription id and handle.
    pub fn subscribe(
        &self,
        rules: Vec<crate::forwarding::ForwardRule>,
    ) -> (u64, crate::forwarding::Subscription) {
        self.forwarder.write().subscribe(rules)
    }

    /// Removes a forwarding subscription.
    pub fn unsubscribe(&self, id: u64) {
        self.forwarder.write().unsubscribe(id);
    }

    /// Seeds the validator's link knowledge base (no-op when validation is
    /// disabled).
    pub fn seed_validator<I: IntoIterator<Item = bgp_types::Link>>(&self, links: I) {
        if let Some(v) = &self.validator {
            v.write().seed_links(links);
        }
    }

    /// Live counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Compiles and publishes `f` as a new filter epoch (an operator
    /// install; the attached orchestrator's refresh takes the same path).
    /// Sessions observe the swap on their next judged update; none is
    /// interrupted. The per-epoch counter slot is reset *before* the
    /// epoch becomes visible, so its counts are attributable exactly.
    pub fn install_filters(&self, f: FilterSet) {
        let compiled = self.filters.compile_next(&f);
        self.stats.begin_epoch(compiled.epoch());
        let e = self.filters.publish(compiled);
        self.stats.filter_epoch.store(e, Ordering::Release);
    }

    /// The filter publication handle (share with e.g. the query layer's
    /// `/filters` endpoint, or hold to publish epochs directly).
    pub fn filter_handle(&self) -> &Arc<FilterHandle> {
        &self.filters
    }

    /// A fresh handle onto the shared session pipeline (its own filter
    /// view cache, everything else shared): each event-loop worker holds
    /// one, so BGP sessions and BMP routers feed the same filters,
    /// counters, stream sink and bounded storage queue.
    pub fn session_ctx(&self) -> SessionCtx {
        SessionCtx {
            filters: self.filters.view(),
            queue: self.queue_tx.clone(),
            stats: self.stats.clone(),
            validator: self.validator.clone(),
            forwarder: Some(self.forwarder.clone()),
            mirror: Some(self.mirror_tx.clone()),
            mirror_on: self.mirror_on.clone(),
            sink: self.sink.clone(),
            shutdown: self.stop.clone(),
        }
    }

    /// Wires `orch` into the live pool as the §8 background refresh
    /// driver: sessions tee their unfiltered stream into the bounded
    /// mirror channel, a background thread drains it into the
    /// orchestrator, and every `interval` a retraining run compiles and
    /// publishes a new filter epoch — without dropping a single session.
    /// Errors if an orchestrator is already attached.
    pub fn attach_orchestrator(
        &mut self,
        orch: Orchestrator,
        interval: Duration,
    ) -> io::Result<()> {
        let rx = self.mirror_rx.take().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AlreadyExists,
                "orchestrator already attached",
            )
        })?;
        self.mirror_on.store(true, Ordering::Relaxed);
        let handle = self.filters.clone();
        let stats = self.stats.clone();
        let stop = self.stop.clone();
        self.refresh_thread = Some(std::thread::spawn(move || {
            run_refresh_driver(orch, rx, handle, stats, stop, interval)
        }));
        Ok(())
    }

    /// Drains the retained-update queue into `storage` until the pool is
    /// stopped and the queue is empty, then flushes the backend so buffered
    /// state (e.g. unsealed store segments) reaches disk. Run this on the
    /// storage thread.
    pub fn drain_into<S: Storage>(&self, storage: &mut S) {
        loop {
            match self.queue_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(rec) => storage.store(rec),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if self.stop.load(Ordering::Relaxed) && self.queue_rx.is_empty() {
                        break;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        storage.flush();
    }

    /// A sender handle usable to inject updates bypassing TCP (tests,
    /// mirroring).
    pub fn injector(&self) -> Sender<StoredUpdate> {
        self.queue_tx.clone()
    }

    /// Signals shutdown without joining the refresh thread (usable
    /// through a shared reference, e.g. from inside a thread scope while
    /// [`DaemonPool::drain_into`] runs elsewhere). The drain returns once
    /// the queue is dry.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stops the pipeline: signals the drain and joins the orchestrator
    /// refresh thread, if one is attached.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.refresh_thread.take() {
            let _ = t.join();
        }
    }
}

/// 503-style accept rejection: the cap is reached, so tell the peer to
/// go away (NOTIFICATION Cease — the standard administrative-shutdown
/// signal) and close, without registering a session.
pub fn reject_over_capacity(stream: TcpStream, stats: &DaemonStats) {
    stats.accept_rejected.fetch_add(1, Ordering::Relaxed);
    let mut ms = MessageStream::new(stream);
    let _ = ms.write_message(&BgpMessage::Notification(Notification::cease()));
    Transport::shutdown(&mut ms.transport);
}

/// The orchestrator refresh loop: drain the mirror channel in batches,
/// retrain every `interval`, publish the compiled result as a new epoch.
/// The first run refreshes both components (anchors need one); later runs
/// are component-#1-only, matching §7's schedule shape.
fn run_refresh_driver(
    mut orch: Orchestrator,
    rx: Receiver<BgpUpdate>,
    handle: Arc<FilterHandle>,
    stats: Arc<DaemonStats>,
    stop: Arc<AtomicBool>,
    interval: Duration,
) {
    let t0 = std::time::Instant::now();
    let mut last_refresh = std::time::Instant::now();
    let mut first = true;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(u) => {
                // batch whatever else is already queued to amortize
                orch.observe(std::iter::once(u).chain(rx.try_iter().take(4096)));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if last_refresh.elapsed() >= interval && orch.mirror_len() > 0 {
            let now = Timestamp::from_millis(t0.elapsed().as_millis() as u64);
            orch.force_refresh(now, first);
            first = false;
            let compiled = handle.compile_next(orch.filters());
            stats.begin_epoch(compiled.epoch());
            let e = handle.publish(compiled);
            stats.filter_epoch.store(e, Ordering::Release);
            last_refresh = std::time::Instant::now();
        }
        if stop.load(Ordering::Relaxed) && rx.is_empty() {
            return;
        }
    }
}

impl Drop for DaemonPool {
    fn drop(&mut self) {
        self.stop();
    }
}
