//! Hierarchical timer wheel for session deadlines.
//!
//! Hold timers, keepalive generation, BMP idle timeouts and reconnect
//! backoffs are all "fire once at instant T" deadlines, usually cancelled
//! and re-armed long before they fire (every received message pushes the
//! hold deadline out). A hashed hierarchical wheel makes arm/cancel O(1)
//! and advance proportional to slots crossed: four levels of 64 slots at
//! 1 ms, 64 ms, ~4.1 s and ~262 s granularity cover deadlines out to
//! ~4.6 hours; anything beyond parks in an overflow list and re-enters
//! the wheel as the clock catches up (the cascade).
//!
//! Determinism contract (relied on by the evented-vs-harness transcript
//! tests): timers never fire early, and [`TimerWheel::advance`] delivers
//! expired timers sorted by `(deadline, arm sequence)` — wall-clock
//! jitter in *when* the loop polls cannot reorder *what* it observes.

/// Opaque handle for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A timer that fired: when it was due and the token it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expired {
    /// The instant the timer was armed for (≤ the advance instant).
    pub deadline: u64,
    /// Caller token (e.g. session slot).
    pub token: u64,
}

const LEVELS: usize = 4;
const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;

#[derive(Clone, Copy, Debug)]
struct Entry {
    id: u64,
    deadline: u64,
    token: u64,
}

/// The wheel. All instants are milliseconds on the caller's clock
/// (virtual in tests, monotonic-elapsed in the live loop).
pub struct TimerWheel {
    /// `levels[l][slot]` holds entries due within that slot's span.
    levels: Vec<Vec<Vec<Entry>>>,
    /// Entries too far out for the top level.
    overflow: Vec<Entry>,
    /// Current instant in milliseconds.
    now: u64,
    /// Arm sequence → unique ids and deterministic tie-breaks.
    next_id: u64,
    /// Live (armed, not cancelled, not fired) timer count.
    live: usize,
    /// Cancelled ids not yet swept (lazy cancellation).
    cancelled: std::collections::HashSet<u64>,
    /// Total timers delivered by `advance` (stats).
    pub fired: u64,
}

impl TimerWheel {
    /// An empty wheel starting at instant `now_ms`.
    pub fn new(now_ms: u64) -> TimerWheel {
        TimerWheel {
            levels: (0..LEVELS).map(|_| vec![Vec::new(); SLOTS]).collect(),
            overflow: Vec::new(),
            now: now_ms,
            next_id: 0,
            live: 0,
            cancelled: std::collections::HashSet::new(),
            fired: 0,
        }
    }

    /// Milliseconds covered by one slot of `level`.
    fn slot_span(level: usize) -> u64 {
        1u64 << (SLOT_BITS * level as u32)
    }

    /// Milliseconds covered by the whole of `level`.
    fn level_span(level: usize) -> u64 {
        Self::slot_span(level) * SLOTS as u64
    }

    /// Places an entry in the correct level/slot for its deadline,
    /// relative to the current instant.
    fn place(&mut self, e: Entry) {
        let delta = e.deadline.saturating_sub(self.now);
        for level in 0..LEVELS {
            if delta < Self::level_span(level) {
                let slot = ((e.deadline >> (SLOT_BITS * level as u32)) as usize) % SLOTS;
                self.levels[level][slot].push(e);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Arms a timer for `deadline_ms` carrying `token`. A deadline at or
    /// before the current instant fires on the next [`advance`] call.
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule(&mut self, deadline_ms: u64, token: u64) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.live += 1;
        let deadline = deadline_ms.max(self.now);
        self.place(Entry {
            id,
            deadline,
            token,
        });
        TimerId(id)
    }

    /// Cancels an armed timer. Lazy: the entry is dropped when its slot
    /// is next swept. Cancelling an already-fired id is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        if self.cancelled.insert(id.0) {
            self.live = self.live.saturating_sub(1);
        }
    }

    /// Number of armed, uncancelled timers.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Advances to `now_ms`, appending every expired timer to `out`
    /// sorted by `(deadline, arm sequence)`. Never fires early. Cost is
    /// proportional to slots crossed per level (≤ 64 each) plus entries
    /// touched.
    pub fn advance(&mut self, now_ms: u64, out: &mut Vec<Expired>) {
        if now_ms < self.now {
            return;
        }
        let prev = self.now;
        self.now = now_ms;
        let mut expired: Vec<Entry> = Vec::new();
        // Per level, sweep the slots whose ticks lie in [prev_tick,
        // cur_tick] (inclusive of prev: entries armed "due now" land in
        // the current slot and must still be caught). A jump of ≥ 64
        // ticks degenerates to a full sweep of the level.
        for level in 0..LEVELS {
            let bits = SLOT_BITS * level as u32;
            let prev_tick = prev >> bits;
            let cur_tick = now_ms >> bits;
            let span = (cur_tick - prev_tick + 1).min(SLOTS as u64);
            for i in 0..span {
                let slot = ((prev_tick + i) as usize) % SLOTS;
                let v = std::mem::take(&mut self.levels[level][slot]);
                for e in v {
                    if e.deadline <= self.now {
                        expired.push(e);
                    } else if level == 0 {
                        // still future, same slot hash — put it back
                        self.levels[0][slot].push(e);
                    } else {
                        // cascade toward finer levels as it comes due
                        self.place(e);
                    }
                }
            }
        }
        // overflow cascade: when the top level has wrapped (or entries
        // have simply come within range), re-place or fire
        if !self.overflow.is_empty() {
            let v = std::mem::take(&mut self.overflow);
            for e in v {
                if e.deadline <= self.now {
                    expired.push(e);
                } else if e.deadline.saturating_sub(self.now) < Self::level_span(LEVELS - 1) {
                    self.place(e);
                } else {
                    self.overflow.push(e);
                }
            }
        }
        expired.sort_by_key(|e| (e.deadline, e.id));
        for e in expired {
            if self.cancelled.remove(&e.id) {
                continue;
            }
            out.push(Expired {
                deadline: e.deadline,
                token: e.token,
            });
            self.live = self.live.saturating_sub(1);
            self.fired += 1;
        }
    }

    /// Earliest armed deadline, if any. Conservative: lazy-cancelled
    /// entries may be reported (a spurious early wake, never a late
    /// one).
    pub fn next_deadline(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut note = |d: u64| {
            best = Some(best.map_or(d, |b: u64| b.min(d)));
        };
        for level in &self.levels {
            for slot in level {
                for e in slot {
                    note(e.deadline);
                }
            }
        }
        for e in &self.overflow {
            note(e.deadline);
        }
        best
    }

    /// The wheel's current instant.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel, to: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out.into_iter().map(|e| (e.deadline, e.token)).collect()
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut w = TimerWheel::new(0);
        w.schedule(50, 1);
        w.schedule(10, 2);
        w.schedule(30, 3);
        assert_eq!(drain(&mut w, 9), vec![]);
        assert_eq!(drain(&mut w, 10), vec![(10, 2)]);
        assert_eq!(drain(&mut w, 100), vec![(30, 3), (50, 1)]);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn same_deadline_fires_in_arm_order() {
        let mut w = TimerWheel::new(0);
        for t in 0..10 {
            w.schedule(77, t);
        }
        let fired = drain(&mut w, 77);
        assert_eq!(
            fired.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn due_now_fires_on_next_advance_even_without_tick_change() {
        let mut w = TimerWheel::new(500);
        w.schedule(500, 9); // clamped to now
        assert_eq!(drain(&mut w, 500), vec![(500, 9)]);
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut w = TimerWheel::new(0);
        let a = w.schedule(20, 1);
        w.schedule(20, 2);
        w.cancel(a);
        assert_eq!(w.live(), 1);
        assert_eq!(drain(&mut w, 25), vec![(20, 2)]);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = TimerWheel::new(0);
        // one deadline per level span, plus overflow territory
        let deadlines = [5u64, 100, 5_000, 300_000, 20_000_000, 18_000_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u64);
        }
        // advance in coarse, deliberately unaligned jumps; every timer
        // must fire exactly once, never early, in deadline order
        let mut fired = Vec::new();
        let mut t: u64 = 0;
        while t < 18_000_000_100 {
            t = (t + 777_773).min(18_000_000_100);
            let before = fired.len();
            w.advance(t, &mut fired);
            for e in &fired[before..] {
                assert!(e.deadline <= w.now(), "fired early");
            }
        }
        let got: Vec<(u64, u64)> = fired.iter().map(|e| (e.deadline, e.token)).collect();
        assert_eq!(
            got,
            deadlines
                .iter()
                .enumerate()
                .map(|(i, &d)| (d, i as u64))
                .collect::<Vec<_>>()
        );
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn fine_grained_advance_hits_every_deadline() {
        let mut w = TimerWheel::new(0);
        for d in 0..2000u64 {
            w.schedule(d * 7 + 3, d);
        }
        let mut fired = Vec::new();
        for t in 0..=14_010u64 {
            w.advance(t, &mut fired);
        }
        assert_eq!(fired.len(), 2000);
        for (i, e) in fired.iter().enumerate() {
            assert_eq!(e.token, i as u64);
            assert_eq!(e.deadline, i as u64 * 7 + 3);
        }
    }

    #[test]
    fn rearm_pattern_like_hold_timer() {
        let mut w = TimerWheel::new(0);
        let mut id = w.schedule(90, 1);
        let mut out = Vec::new();
        // every 30ms a "message arrives": cancel + re-arm 90ms out
        for step in 1..=20u64 {
            w.advance(step * 30, &mut out);
            assert!(out.is_empty(), "hold fired despite re-arms");
            w.cancel(id);
            id = w.schedule(step * 30 + 90, 1);
        }
        // silence: the final deadline fires
        w.advance(20 * 30 + 90, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].deadline, 20 * 30 + 90);
        let _ = id;
    }

    #[test]
    fn next_deadline_is_conservative_lower_bound() {
        let mut w = TimerWheel::new(0);
        assert_eq!(w.next_deadline(), None);
        w.schedule(500, 1);
        let id = w.schedule(100, 2);
        assert_eq!(w.next_deadline(), Some(100));
        w.cancel(id);
        // lazy cancel may keep reporting 100 — allowed (early wake),
        // but never later than the true earliest deadline
        assert!(w.next_deadline().unwrap() <= 500);
        let mut out = Vec::new();
        w.advance(200, &mut out);
        assert!(out.is_empty());
        assert_eq!(w.next_deadline(), Some(500));
    }
}
