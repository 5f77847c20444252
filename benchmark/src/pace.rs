//! The benchmark's clock and its open-loop pacer.
//!
//! Probe updates are stamped on one shared clock when they are sent (closed
//! loop) or due (open loop) and timed against it where they arrive. Under
//! open-loop pacing operations are issued on a fixed schedule whether or
//! not the system keeps up, latency counts from when each operation was
//! *due* (so the wait a stall imposes on later operations is charged), and
//! how late the generator itself ran is recorded.

use gill::types::{BgpUpdate, Community};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probe updates carry one community `PROBE_ASN:id`; the id indexes
/// [`ProbeClock`].
pub const PROBE_ASN: u16 = 64_999;

/// Send (or due) instants of probe updates, shared between the generator
/// that stamps them and the observers that time their arrival.
pub struct ProbeClock {
    t0: Instant,
    sent_ns: Vec<AtomicU64>,
}

impl ProbeClock {
    /// A clock starting now, with a stamp slot for every probe id.
    pub fn new() -> Arc<ProbeClock> {
        Arc::new(ProbeClock {
            t0: Instant::now(),
            sent_ns: (0..=u16::MAX).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Nanoseconds since the clock was made.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records when probe `id` was sent (or was due).
    pub fn stamp(&self, id: u16, at_ns: u64) {
        self.sent_ns[id as usize].store(at_ns.max(1), Ordering::Release);
    }

    /// Milliseconds from probe `id`'s stamp to now, if it was stamped.
    pub fn lag_ms(&self, id: u16) -> Option<f64> {
        let sent = self.sent_ns[id as usize].load(Ordering::Acquire);
        (sent != 0).then(|| self.now_ns().saturating_sub(sent) as f64 / 1e6)
    }
}

/// The probe id an update carries, if any.
pub fn probe_id(u: &BgpUpdate) -> Option<u16> {
    u.communities
        .range(Community::new(PROBE_ASN, 0)..=Community::new(PROBE_ASN, u16::MAX))
        .next()
        .map(|c| c.value_part())
}

/// A monotonic clock the pacer can wait on (the tests inject a fake one).
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns at or after `ns`; never before.
    fn wait_until(&self, ns: u64);
}

impl Clock for ProbeClock {
    fn now_ns(&self) -> u64 {
        ProbeClock::now_ns(self)
    }

    fn wait_until(&self, ns: u64) {
        loop {
            let now = Clock::now_ns(self);
            if now >= ns {
                return;
            }
            // sleep most of the way, spin the last stretch
            if ns - now > 200_000 {
                std::thread::sleep(Duration::from_nanos(ns - now - 100_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Issues operations at their due times and keeps the books.
pub struct Pacer<'a, C: Clock> {
    clock: &'a C,
    /// How late each operation started against its due time.
    pub late_ms: Vec<f64>,
    /// Due time → completion, per operation.
    pub latency_ms: Vec<f64>,
}

impl<'a, C: Clock> Pacer<'a, C> {
    pub fn new(clock: &'a C) -> Pacer<'a, C> {
        Pacer {
            clock,
            late_ms: Vec::new(),
            latency_ms: Vec::new(),
        }
    }

    /// Waits for `due_ns` (returns at once if it has passed) and records
    /// how late the operation starts.
    pub fn start(&mut self, due_ns: u64) {
        self.clock.wait_until(due_ns);
        self.late_ms
            .push(self.clock.now_ns().saturating_sub(due_ns) as f64 / 1e6);
    }

    /// Records the completion of the operation that was due at `due_ns`.
    pub fn complete(&mut self, due_ns: u64) {
        self.latency_ms
            .push(self.clock.now_ns().saturating_sub(due_ns) as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        const MS: u64 = 1_000_000;
        let clock = FakeClock(Cell::new(0));
        let mut p = Pacer::new(&clock);
        // due every 10 ms; each takes 1 ms, except the second stalls 25 ms
        for (i, service_ms) in [1, 25, 1, 1, 1].into_iter().enumerate() {
            let due = i as u64 * 10 * MS;
            p.start(due);
            clock.0.set(clock.now_ns() + service_ms * MS);
            p.complete(due);
        }
        // the stall ends at 35 ms: the third operation (due 20) starts 15 ms
        // late, the fourth (due 30) 6 ms late, the fifth is on time again
        assert_eq!(p.late_ms, vec![0.0, 0.0, 15.0, 6.0, 0.0]);
        // and their latencies count from the due time, not from the start
        assert_eq!(p.latency_ms, vec![1.0, 25.0, 16.0, 7.0, 1.0]);
    }

    #[test]
    fn the_real_clock_never_returns_early() {
        let c = ProbeClock::new();
        let target = Clock::now_ns(&*c) + 300_000;
        c.wait_until(target);
        assert!(Clock::now_ns(&*c) >= target);
    }
}
