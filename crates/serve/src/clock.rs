//! The clock seam: the engine schedules against this trait, never against
//! `Instant` directly, so the whole serving stack runs identically under a
//! simulated clock (deterministic tests, trace replay) and a real one
//! (live traffic).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the serving engine schedules against.
///
/// The engine's only time operations are these three, which is what makes
/// virtual-time testing exact: under [`SimClock`] the *engine itself*
/// advances time by its modeled service cost, so every scheduling decision
/// is a pure function of the request trace and the seed.
pub trait Clock: Send {
    /// Nanoseconds since this clock's origin.
    fn now(&self) -> u64;

    /// Accounts `nanos` of service time. A simulated clock jumps forward,
    /// stopping at `u64::MAX`; a real clock ignores the call (real work
    /// already took real time).
    fn advance(&self, nanos: u64);

    /// Blocks (real) or jumps (simulated) until `deadline` — used when the
    /// server is idle and the next arrival is in the future.
    fn wait_until(&self, deadline: u64);
}

/// Virtual time: an atomic counter the engine advances explicitly.
///
/// Cloning shares the counter, so a test can hold a handle onto a clock it
/// moved into a [`crate::Server`] and observe/steer virtual time from
/// outside.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// A simulated clock starting at `t = 0`.
    pub fn new() -> Self {
        SimClock::default()
    }
}

impl Clock for SimClock {
    fn now(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    fn advance(&self, nanos: u64) {
        // saturating: a wrapped add would land at a small time and break
        // the trait's monotonicity
        let _ = self
            .nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| Some(t.saturating_add(nanos)));
    }

    fn wait_until(&self, deadline: u64) {
        // monotone jump: never move backwards if the deadline already passed
        self.nanos.fetch_max(deadline, Ordering::SeqCst);
    }
}

/// Wall-clock time measured from construction.
#[derive(Debug, Clone)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A real clock whose origin is now.
    pub fn new() -> Self {
        RealClock { origin: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn advance(&self, _nanos: u64) {
        // real service work already consumed real time
    }

    fn wait_until(&self, deadline: u64) {
        let now = self.now();
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances_and_jumps_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        c.advance(5);
        assert_eq!(c.now(), 5);
        c.wait_until(100);
        assert_eq!(c.now(), 100);
        c.wait_until(50); // past deadline: no move backwards
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn sim_clock_clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now(), 7);
    }

    #[test]
    fn real_clock_monotone_and_ignores_advance() {
        let c = RealClock::new();
        let t0 = c.now();
        c.advance(1_000_000_000_000); // no-op
        let t1 = c.now();
        assert!(t1 >= t0);
        assert!(t1 < 1_000_000_000, "advance must not move a real clock");
        c.wait_until(c.now() + 1_000_000); // 1 ms sleep
        assert!(c.now() >= t1 + 1_000_000);
    }
}
