//! Conformance: the evented runtime drives the very same `SessionFsm`
//! to the very same observable transcript as the deterministic session
//! harness (`gill_collector::harness::run_scenario`, the reference),
//! fault schedule by fault schedule.
//!
//! The reference runs both FSMs directly over a faulted [`sim_pair`]
//! link. The evented run keeps the client side identical but serves the
//! *server* FSM through an [`EventLoop`] fed by a scripted
//! [`SimReactor`] — timers through the wheel, bytes through
//! `EventedConn`, events through the tap — with seeded spurious and
//! duplicate readiness injected along the way. Equal
//! [`Transcript::digest`]s mean the two runtimes are observationally
//! interchangeable for that fault schedule; the property test asserts
//! this across dozens of seeded random schedules and interleavings.

use bgp_types::Prefix;
use bgp_wire::UpdateMessage;
use gill_bmp::listener::BmpStats;
use gill_collector::daemon::{DaemonStats, SessionCtx};
use gill_collector::fsm::{SessionEvent, SessionFsm, SessionRole};
use gill_collector::harness::{render_event, run_scenario, Scenario, Side, Transcript};
use gill_collector::transport::{
    sim_pair, BackoffPolicy, Clock, FaultSchedule, SimTransport, Transport, VirtualClock,
};
use gill_core::FilterHandle;
use gill_runtime::{Event, EventLoop, Machine, SimReactor, Token};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The server's transport for the conformance run, reproducing two
/// reference-harness behaviors the raw link doesn't have:
///
/// 1. **Close is protocol-level.** The harness never severs the link on
///    session close, so `shutdown` is a no-op here (the event loop calls
///    it on removal, which is correct against real sockets).
/// 2. **Writes are queue-then-write-phase.** The reference server's
///    `pump` writes its queued output at the *start* of each pump
///    round, after the client's read of that round. The event loop
///    instead flushes machine output the moment it appears, so the gate
///    buffers every write — the buffer plays the reference's output
///    queue — and the test's [`release`] plays the write phase,
///    putting bytes on the link at the same virtual instants, in the
///    same order, as the reference would (fault offsets and delays
///    accrue identically).
///
/// A release that finds the link dead marks the gate failed; the next
/// access errors, which the event loop surfaces as EOF — the same
/// instant the reference's failed `write_all` triggers `handle_eof`.
///
/// [`release`]: GatedLink::release
#[derive(Clone)]
struct GatedLink(Arc<Mutex<GateInner>>);

struct GateInner {
    inner: SimTransport,
    buf: Vec<u8>,
    failed: bool,
}

impl GatedLink {
    fn new(inner: SimTransport) -> GatedLink {
        GatedLink(Arc::new(Mutex::new(GateInner {
            inner,
            buf: Vec::new(),
            failed: false,
        })))
    }

    /// The write phase: everything queued since the last release goes
    /// onto the link.
    fn release(&self) {
        let mut g = self.0.lock().unwrap();
        if g.buf.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut g.buf);
        if g.inner.write_all(&buf).is_err() {
            g.failed = true;
        }
    }

    /// Queued bytes not yet on the link (the reference's
    /// `server.fsm.has_output()`).
    fn buffered(&self) -> usize {
        self.0.lock().unwrap().buf.len()
    }
}

fn dead_link() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "link failed at release")
}

impl Transport for GatedLink {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut g = self.0.lock().unwrap();
        if g.failed {
            return Err(dead_link());
        }
        g.inner.read(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut g = self.0.lock().unwrap();
        if g.failed {
            return Err(dead_link());
        }
        g.buf.extend_from_slice(buf);
        Ok(())
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.lock().unwrap().inner.set_read_timeout(timeout)
    }

    fn shutdown(&mut self) {}
}

/// The client endpoint, replicated verbatim from the harness: flush all
/// FSM output (write failure surfaces as EOF), then read to
/// `WouldBlock`.
struct ClientEnd {
    fsm: SessionFsm,
    transport: SimTransport,
    eof_seen: bool,
}

impl ClientEnd {
    fn pump(&mut self, now: u64) {
        while self.fsm.has_output() {
            let out = self.fsm.take_output();
            if self.transport.write_all(&out).is_err() {
                if !self.eof_seen {
                    self.eof_seen = true;
                    self.fsm.handle_eof(now);
                }
                return;
            }
        }
        let mut buf = [0u8; 4096];
        loop {
            match self.transport.read(&mut buf) {
                Ok(0) => {
                    if !self.eof_seen {
                        self.eof_seen = true;
                        self.fsm.handle_eof(now);
                    }
                    return;
                }
                Ok(n) => self.fsm.handle_bytes(&buf[..n], now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    if !self.eof_seen {
                        self.eof_seen = true;
                        self.fsm.handle_eof(now);
                    }
                    return;
                }
            }
        }
    }

    fn drain_into(
        &mut self,
        transcript: &mut Transcript,
        now: u64,
        attempt: u32,
    ) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        while let Some(e) = self.fsm.poll_event() {
            transcript.record(now, attempt, Side::Client, render_event(&e));
            events.push(e);
        }
        events
    }
}

/// What the evented run produced, shaped like `ScenarioOutcome`.
struct EventedOutcome {
    transcript: Transcript,
    delivered: usize,
    attempts: u32,
    completed: bool,
}

/// Runs `scenario` with the server FSM multiplexed by an [`EventLoop`]
/// over a scripted [`SimReactor`], mirroring `run_scenario`'s stepping
/// exactly. `interleave_seed` drives the injected spurious/duplicate
/// readiness — the transcript must not depend on it.
fn run_scenario_evented(scenario: &Scenario, interleave_seed: u64) -> EventedOutcome {
    let clock = VirtualClock::new();
    let backoff = BackoffPolicy {
        seed: scenario.seed,
        ..BackoffPolicy::default()
    };
    let mut rng = SmallRng::seed_from_u64(interleave_seed);
    let mut transcript = Transcript::default();
    let mut delivered_total = 0usize;
    let mut completed = false;
    let mut attempts = 0u32;

    while attempts < scenario.max_attempts.max(1) {
        let attempt = attempts;
        attempts += 1;
        if attempt > 0 {
            let delay = backoff.delay_ms(attempt - 1);
            clock.advance_ms(delay);
            transcript.record(
                clock.now_ms(),
                attempt,
                Side::Client,
                format!("reconnect backoff={delay}"),
            );
        }
        let c_faults = scenario
            .client_faults
            .get(attempt as usize)
            .cloned()
            .unwrap_or_else(FaultSchedule::none);
        let s_faults = scenario
            .server_faults
            .get(attempt as usize)
            .cloned()
            .unwrap_or_else(FaultSchedule::none);
        let (ct, st) = sim_pair(&clock, c_faults, s_faults);
        let mut client = ClientEnd {
            fsm: SessionFsm::new(SessionRole::Active, scenario.client),
            transport: ct,
            eof_seen: false,
        };

        // a fresh loop per attempt, exactly as the harness starts a
        // fresh server FSM per connection attempt
        let stats = Arc::new(DaemonStats::default());
        let (tx, _rx) = crossbeam::channel::unbounded();
        let ctx = SessionCtx::new(FilterHandle::empty().view(), tx, stats);
        let mut el: EventLoop<GatedLink, SimReactor> = EventLoop::new(
            SimReactor::new(),
            Arc::new(clock.clone()),
            ctx,
            Arc::new(BmpStats::default()),
        );
        let server_lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let server_closed = Arc::new(AtomicBool::new(false));
        let server_updates = Arc::new(AtomicUsize::new(0));
        {
            let lines = server_lines.clone();
            let closed = server_closed.clone();
            let updates = server_updates.clone();
            el.set_event_tap(Box::new(move |_tok, ev| {
                lines.lock().unwrap().push(render_event(ev));
                match ev {
                    SessionEvent::Update(_) => {
                        updates.fetch_add(1, Ordering::Relaxed);
                    }
                    SessionEvent::Closed(_) => closed.store(true, Ordering::Relaxed),
                    _ => {}
                }
            }));
        }
        let start = clock.now_ms();
        client.fsm.start(start);
        let gate = GatedLink::new(st);
        let token = el
            .add_session(
                gate.clone(),
                None,
                Machine::Bgp(SessionFsm::new(SessionRole::Passive, scenario.server)),
            )
            .unwrap();

        let mut next_send: Option<u64> = None;
        let mut sent = 0usize;
        let mut attempt_established = false;
        let mut other: Vec<Event> = Vec::new();

        loop {
            let now = clock.now_ms();
            client.fsm.tick(now);
            // (the server ticks inside run_once: the wheel fires its
            // due deadline before any I/O at this instant)
            if let Some(due) = next_send {
                if now >= due && sent < scenario.updates.len() {
                    client.fsm.send_update(&scenario.updates[sent]);
                    sent += 1;
                    next_send = Some(now + scenario.send_interval_ms);
                }
            }
            // timer phase: the wheel fires the server's due deadline
            // before any I/O at this instant; its output (a KEEPALIVE,
            // a hold-expiry NOTIFICATION) lands in the gate buffer,
            // exactly like the reference tick queueing output before
            // its pump loop
            other.clear();
            el.run_once(None, &mut other).unwrap();

            // pump until the pair is quiescent at this instant — the
            // reference loop verbatim, with the server's
            // write-then-read pump split into gate release (write
            // phase) and run_once (read phase), plus seeded spurious
            // and duplicate readiness that must change nothing
            loop {
                client.pump(now);
                gate.release();
                let mut batch = vec![readable(token)];
                if rng.gen_bool(0.25) {
                    batch.push(readable(token)); // duplicate event
                }
                if rng.gen_bool(0.15) {
                    batch.push(readable(token + 7)); // stale/unknown token
                }
                el.source_mut().push_batch(batch);
                other.clear();
                el.run_once(None, &mut other).unwrap();
                if !client.fsm.has_output() && gate.buffered() == 0 {
                    break;
                }
            }
            // extra scripted wakeups with nothing behind them: a
            // correct drain loop treats them as pure no-ops
            for _ in 0..rng.gen_range(0u32..3) {
                el.source_mut().push_ready(token);
                other.clear();
                el.run_once(None, &mut other).unwrap();
            }

            for e in client.drain_into(&mut transcript, now, attempt) {
                if let SessionEvent::Established { .. } = e {
                    attempt_established = true;
                    next_send = Some(now);
                }
            }
            for line in server_lines.lock().unwrap().drain(..) {
                transcript.record(now, attempt, Side::Server, line);
            }

            let delivered_this_attempt = server_updates.load(Ordering::Relaxed);
            let script_done = attempt_established
                && sent == scenario.updates.len()
                && delivered_this_attempt == scenario.updates.len();
            if script_done && !client.fsm.is_closed() {
                client.fsm.close_gracefully();
                continue;
            }
            if client.fsm.is_closed() && server_closed.load(Ordering::Relaxed) {
                break;
            }
            if now - start > scenario.attempt_budget_ms {
                transcript.record(
                    now,
                    attempt,
                    Side::Server,
                    "attempt-budget-exhausted".into(),
                );
                break;
            }
            clock.advance_ms(scenario.step_ms);
        }
        let delivered_this_attempt = server_updates.load(Ordering::Relaxed);
        delivered_total += delivered_this_attempt;
        if delivered_this_attempt == scenario.updates.len() && attempt_established {
            completed = true;
            break;
        }
    }

    EventedOutcome {
        transcript,
        delivered: delivered_total,
        attempts,
        completed,
    }
}

fn readable(token: Token) -> Event {
    Event {
        token,
        readable: true,
        writable: false,
        closed: false,
        error: false,
    }
}

fn updates(n: u32) -> Vec<UpdateMessage> {
    (0..n)
        .map(|i| UpdateMessage::withdraw(Prefix::synthetic(i)))
        .collect()
}

/// A seeded scenario family mixing clean runs with random fault
/// schedules on either direction.
fn scenario_for(seed: u64) -> Scenario {
    let mut s = Scenario {
        seed,
        updates: updates(4 + (seed % 4) as u32),
        max_attempts: 3,
        ..Scenario::default()
    };
    s.server.hold_time = 10;
    s.client.hold_time = 10;
    if !seed.is_multiple_of(5) {
        s.client_faults = vec![FaultSchedule::random(seed.wrapping_mul(2) + 1, 600)];
    }
    if !seed.is_multiple_of(3) {
        s.server_faults = vec![FaultSchedule::random(seed.wrapping_mul(2) + 2, 600)];
    }
    s
}

/// Panics with the first diverging line when two transcripts differ.
fn assert_same_transcript(seed: u64, reference: &Transcript, evented: &Transcript) {
    if reference.digest() == evented.digest() {
        return;
    }
    let a = reference.lines();
    let b = evented.lines();
    for i in 0..a.len().max(b.len()) {
        let ra = a.get(i).map(String::as_str).unwrap_or("<end>");
        let rb = b.get(i).map(String::as_str).unwrap_or("<end>");
        assert_eq!(
            ra, rb,
            "seed {seed}: transcripts diverge at line {i} (threaded vs evented)"
        );
    }
    panic!("seed {seed}: digests differ but no line diverged");
}

#[test]
fn evented_matches_threaded_across_random_fault_schedules() {
    for seed in 0..28u64 {
        let scenario = scenario_for(seed);
        let reference = run_scenario(&scenario);
        let evented = run_scenario_evented(&scenario, 0xFEED ^ seed);
        assert_same_transcript(seed, &reference.transcript, &evented.transcript);
        assert_eq!(
            reference.delivered.len(),
            evented.delivered,
            "seed {seed}: delivered"
        );
        assert_eq!(
            reference.attempts, evented.attempts,
            "seed {seed}: attempts"
        );
        assert_eq!(
            reference.completed, evented.completed,
            "seed {seed}: completion"
        );
    }
}

#[test]
fn spurious_readiness_never_changes_the_transcript() {
    let scenario = scenario_for(7);
    let reference = run_scenario(&scenario).transcript.digest();
    for interleave in 0..6u64 {
        let evented = run_scenario_evented(&scenario, 0xBAD5EED ^ interleave);
        assert_eq!(
            evented.transcript.digest(),
            reference,
            "interleave seed {interleave} changed the transcript"
        );
    }
}

#[test]
fn evented_replays_bit_identically_from_the_same_seeds() {
    let scenario = scenario_for(13);
    let a = run_scenario_evented(&scenario, 99);
    let b = run_scenario_evented(&scenario, 99);
    assert_eq!(a.transcript.digest(), b.transcript.digest());
    assert_eq!(a.transcript.lines(), b.transcript.lines());
}
