//! Deterministic session harness: replays an entire BGP session —
//! handshake, UPDATE flow, keepalives, faults, NOTIFICATION exchange,
//! reconnect with backoff — single-threaded over [`sim_pair`] and a
//! [`VirtualClock`], so a failure scenario is fully described by a
//! [`Scenario`] value and replays **bit-identically** from it.
//!
//! The harness steps virtual time in fixed increments. At every step it
//! pumps bytes between the two [`SessionFsm`]s through the faulted link,
//! ticks both FSMs, and appends every observable protocol event to a
//! [`Transcript`]. Two runs of the same scenario produce transcripts with
//! the same [`Transcript::digest`]; a failing seed therefore reproduces
//! from nothing but the `Scenario` literal (see DESIGN.md §"Reproducing a
//! failing seed").

use crate::fsm::{SessionConfig, SessionEvent, SessionFsm, SessionRole};
use crate::transport::{sim_pair, BackoffPolicy, Clock, FaultSchedule, Transport, VirtualClock};
use bgp_wire::UpdateMessage;
use std::io;

/// A complete, self-describing failure scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Seed for the reconnect backoff jitter.
    pub seed: u64,
    /// Passive (collector) side session parameters.
    pub server: SessionConfig,
    /// Active (peer) side session parameters.
    pub client: SessionConfig,
    /// UPDATEs the client sends once established, in order. On reconnect
    /// the client resends the full script (the collector pipeline is
    /// idempotent under replay — redundancy analysis dedups).
    pub updates: Vec<UpdateMessage>,
    /// Virtual ms between consecutive UPDATE sends.
    pub send_interval_ms: u64,
    /// Per-connection-attempt fault schedules for client→server bytes.
    /// Attempts beyond the list run fault-free.
    pub client_faults: Vec<FaultSchedule>,
    /// Per-attempt schedules for server→client bytes.
    pub server_faults: Vec<FaultSchedule>,
    /// Connection attempts before giving up (1 = no reconnect).
    pub max_attempts: u32,
    /// Virtual time step per harness iteration.
    pub step_ms: u64,
    /// Abort guard: give up when a single attempt exceeds this much
    /// virtual time.
    pub attempt_budget_ms: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 0,
            server: SessionConfig::default(),
            client: SessionConfig {
                local_asn: 65001,
                ..SessionConfig::default()
            },
            updates: Vec::new(),
            send_interval_ms: 50,
            client_faults: Vec::new(),
            server_faults: Vec::new(),
            max_attempts: 1,
            step_ms: 100,
            attempt_budget_ms: 600_000,
        }
    }
}

/// Which endpoint a transcript entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The passive collector side.
    Server,
    /// The active peer side.
    Client,
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Server => write!(f, "server"),
            Side::Client => write!(f, "client"),
        }
    }
}

/// One observable event, stamped with virtual time and attempt number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Virtual instant of the event.
    pub at_ms: u64,
    /// Connection attempt (0-based).
    pub attempt: u32,
    /// Which endpoint observed it.
    pub side: Side,
    /// Stable textual rendering of the event.
    pub line: String,
}

/// The ordered event log of a scenario run.
#[derive(Clone, Debug, Default)]
pub struct Transcript {
    entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// All entries, in order.
    pub fn entries(&self) -> &[TranscriptEntry] {
        &self.entries
    }

    /// Renders every entry as `t=MS a=N side line`.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("t={} a={} {} {}", e.at_ms, e.attempt, e.side, e.line))
            .collect()
    }

    /// FNV-1a digest over the rendered lines. Equal digests mean the two
    /// runs were observationally identical, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in self.lines() {
            for b in line.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    /// Appends one entry (public for alternative drivers building
    /// digest-comparable transcripts, e.g. the evented runtime tests).
    pub fn record(&mut self, at_ms: u64, attempt: u32, side: Side, line: String) {
        self.push(at_ms, attempt, side, line);
    }

    fn push(&mut self, at_ms: u64, attempt: u32, side: Side, line: String) {
        self.entries.push(TranscriptEntry {
            at_ms,
            attempt,
            side,
            line,
        });
    }
}

/// Canonical textual rendering of a session event — the vocabulary of
/// transcript lines. Public so alternative drivers of the same FSMs
/// (e.g. the evented runtime's conformance tests) can produce
/// digest-comparable transcripts.
pub fn render_event(event: &SessionEvent) -> String {
    render(event)
}

fn render(event: &SessionEvent) -> String {
    match event {
        SessionEvent::Established {
            peer,
            hold_time,
            families,
            add_paths,
        } => {
            let mut line = format!("established peer={peer} hold={hold_time}");
            for fam in families.iter() {
                line.push_str(&format!(" mp={fam}"));
            }
            for fam in add_paths.iter() {
                line.push_str(&format!(" add-path={fam}"));
            }
            line
        }
        SessionEvent::Update(u) => format!(
            "update announce={} withdraw={}",
            u.announced.len(),
            u.withdrawn.len()
        ),
        SessionEvent::KeepaliveReceived => "keepalive-rx".to_string(),
        SessionEvent::KeepaliveSent => "keepalive-tx".to_string(),
        SessionEvent::NotificationSent { code, subcode } => {
            format!("notification-tx code={code} sub={subcode}")
        }
        SessionEvent::Closed(reason) => format!("closed reason={reason:?}"),
    }
}

/// What a scenario run produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The full event log (digest it to assert replay identity).
    pub transcript: Transcript,
    /// UPDATEs the server actually received, across all attempts.
    pub delivered: Vec<UpdateMessage>,
    /// Connection attempts made.
    pub attempts: u32,
    /// How many attempts reached Established.
    pub established_count: u32,
    /// True when the final attempt delivered the whole script.
    pub completed: bool,
    /// Virtual time consumed.
    pub elapsed_ms: u64,
}

/// One session endpoint stepped by a single-threaded loop: an FSM plus
/// its transport. The harness runs both sides of a scenario with it, and
/// so does every loop that must step an FSM exactly as the harness does
/// (the soak pipeline, the evented runtime's conformance test).
pub struct Endpoint<T: Transport> {
    /// The session state machine.
    pub fsm: SessionFsm,
    transport: T,
    eof_seen: bool,
}

impl<T: Transport> Endpoint<T> {
    /// An endpoint that has not yet seen its link close.
    pub fn new(fsm: SessionFsm, transport: T) -> Self {
        Endpoint {
            fsm,
            transport,
            eof_seen: false,
        }
    }

    /// Flushes FSM output to the link and feeds link bytes to the FSM.
    /// Write failures (severed link) are surfaced as EOF — from the
    /// session's perspective the connection is gone either way.
    pub fn pump(&mut self, now: u64) {
        while self.fsm.has_output() {
            let out = self.fsm.take_output();
            if self.transport.write_all(&out).is_err() {
                self.eof(now);
                return;
            }
        }
        let mut buf = [0u8; 4096];
        loop {
            match self.transport.read(&mut buf) {
                Ok(n) if n > 0 => self.fsm.handle_bytes(&buf[..n], now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // a closed or broken link
                _ => {
                    self.eof(now);
                    return;
                }
            }
        }
    }

    /// Hands the FSM its link's EOF once.
    fn eof(&mut self, now: u64) {
        if !self.eof_seen {
            self.eof_seen = true;
            self.fsm.handle_eof(now);
        }
    }

    /// Drains the FSM's pending events, recording each in `transcript`
    /// as `side`'s, and returns them.
    pub fn drain_into(
        &mut self,
        transcript: &mut Transcript,
        now: u64,
        attempt: u32,
        side: Side,
    ) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        while let Some(e) = self.fsm.poll_event() {
            transcript.push(now, attempt, side, render(&e));
            events.push(e);
        }
        events
    }
}

/// Runs `scenario` to completion and returns the outcome. Deterministic:
/// equal scenarios yield equal [`Transcript::digest`]s.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let clock = VirtualClock::new();
    let backoff = BackoffPolicy {
        seed: scenario.seed,
        ..BackoffPolicy::default()
    };
    let mut transcript = Transcript::default();
    let mut delivered = Vec::new();
    let mut established_count = 0u32;
    let mut completed = false;
    let mut attempts = 0u32;

    while attempts < scenario.max_attempts.max(1) {
        let attempt = attempts;
        attempts += 1;
        if attempt > 0 {
            let delay = backoff.delay_ms(attempt - 1);
            clock.advance_ms(delay);
            transcript.push(
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
        // endpoint A = client, so client→server bytes take `c_faults`
        let (ct, st) = sim_pair(&clock, c_faults, s_faults);
        let mut client = Endpoint::new(SessionFsm::new(SessionRole::Active, scenario.client), ct);
        let mut server = Endpoint::new(SessionFsm::new(SessionRole::Passive, scenario.server), st);
        let start = clock.now_ms();
        client.fsm.start(start);
        server.fsm.start(start);
        let mut next_send: Option<u64> = None;
        let mut sent = 0usize;
        let mut delivered_this_attempt = 0usize;
        let mut attempt_established = false;

        loop {
            let now = clock.now_ms();
            client.fsm.tick(now);
            server.fsm.tick(now);
            if let Some(due) = next_send {
                if now >= due && sent < scenario.updates.len() {
                    client.fsm.send_update(&scenario.updates[sent]);
                    sent += 1;
                    next_send = Some(now + scenario.send_interval_ms);
                }
            }
            // pump until the pair is quiescent at this instant
            loop {
                client.pump(now);
                server.pump(now);
                if !client.fsm.has_output() && !server.fsm.has_output() {
                    break;
                }
            }
            for e in client.drain_into(&mut transcript, now, attempt, Side::Client) {
                if let SessionEvent::Established { .. } = e {
                    attempt_established = true;
                    established_count += 1;
                    next_send = Some(now);
                }
            }
            for e in server.drain_into(&mut transcript, now, attempt, Side::Server) {
                if let SessionEvent::Update(u) = e {
                    delivered.push(u);
                    delivered_this_attempt += 1;
                }
            }
            let script_done = attempt_established
                && sent == scenario.updates.len()
                && delivered_this_attempt == scenario.updates.len();
            if script_done && !client.fsm.is_closed() {
                // graceful shutdown: cease NOTIFICATION, pump it across
                client.fsm.close_gracefully();
                continue;
            }
            if client.fsm.is_closed() && server.fsm.is_closed() {
                break;
            }
            if now - start > scenario.attempt_budget_ms {
                transcript.push(
                    now,
                    attempt,
                    Side::Server,
                    "attempt-budget-exhausted".into(),
                );
                break;
            }
            clock.advance_ms(scenario.step_ms);
        }
        if delivered_this_attempt == scenario.updates.len() && attempt_established {
            completed = true;
            break;
        }
    }

    ScenarioOutcome {
        transcript,
        delivered,
        attempts,
        established_count,
        completed,
        elapsed_ms: clock.now_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Prefix;

    fn updates(n: u32) -> Vec<UpdateMessage> {
        (0..n)
            .map(|i| UpdateMessage::withdraw(Prefix::synthetic(i)))
            .collect()
    }

    fn short_sessions(s: &mut Scenario, hold: u16) {
        s.server.hold_time = hold;
        s.client.hold_time = hold;
    }

    #[test]
    fn clean_scenario_delivers_everything_first_attempt() {
        let mut s = Scenario {
            updates: updates(5),
            ..Scenario::default()
        };
        short_sessions(&mut s, 30);
        let out = run_scenario(&s);
        assert!(out.completed);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.delivered.len(), 5);
        assert_eq!(out.established_count, 1);
    }

    #[test]
    fn identical_scenarios_replay_bit_identically() {
        let mut s = Scenario {
            seed: 42,
            updates: updates(8),
            client_faults: vec![FaultSchedule::parse("stall@200").unwrap()],
            max_attempts: 3,
            ..Scenario::default()
        };
        short_sessions(&mut s, 5);
        let digests: Vec<u64> = (0..3)
            .map(|_| run_scenario(&s).transcript.digest())
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn sever_mid_handshake_triggers_reconnect() {
        let mut s = Scenario {
            seed: 7,
            updates: updates(3),
            // client's OPEN is 37 bytes; cut it off mid-frame
            client_faults: vec![FaultSchedule::parse("sever@20").unwrap()],
            max_attempts: 2,
            ..Scenario::default()
        };
        short_sessions(&mut s, 10);
        let out = run_scenario(&s);
        assert!(out.completed, "second attempt should succeed");
        assert_eq!(out.attempts, 2);
        assert!(out
            .transcript
            .lines()
            .iter()
            .any(|l| l.contains("PeerClosedMidMessage")));
        assert!(out
            .transcript
            .lines()
            .iter()
            .any(|l| l.contains("reconnect")));
    }

    #[test]
    fn different_seeds_change_backoff_but_not_delivery() {
        let mk = |seed| {
            let mut s = Scenario {
                seed,
                updates: updates(2),
                client_faults: vec![FaultSchedule::parse("sever@10").unwrap()],
                max_attempts: 2,
                ..Scenario::default()
            };
            short_sessions(&mut s, 10);
            run_scenario(&s)
        };
        let a = mk(1);
        let b = mk(2);
        assert!(a.completed && b.completed);
        assert_ne!(
            a.transcript.digest(),
            b.transcript.digest(),
            "backoff jitter should differ between seeds"
        );
        assert_eq!(a.delivered.len(), b.delivered.len());
    }
}
