//! A pluggable clock: real wall-clock time, or scheduler-driven virtual time.
//!
//! Timeout-driven control-plane logic (the controller's rejoin-grace
//! deadlines, most prominently) reads "now" through a [`Clock`] instead of
//! calling [`Instant::now`] directly. Under normal operation the clock is
//! [`Clock::Real`] and behaves exactly like `Instant::now()`. Under the
//! deterministic simulation harness (`nimbus-dst`) the clock is
//! [`Clock::Virtual`]: time only moves when the simulation scheduler
//! explicitly advances it, so a timeout "fires" at a scheduler decision
//! point rather than whenever the host OS happens to wake a thread.
//!
//! Virtual time is represented as a fixed base [`Instant`] plus a
//! monotonically increasing nanosecond offset, so `Clock::now()` can keep
//! returning `Instant` and every existing `deadline - now` computation
//! works unchanged.

#![expect(
    clippy::disallowed_methods,
    reason = "the Clock abstraction itself: the one sanctioned home of Instant::now"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A virtual clock: a fixed epoch plus an offset advanced by the simulation
/// scheduler.
#[derive(Debug)]
pub struct VirtualClock {
    base: Instant,
    offset_nanos: AtomicU64,
}

impl VirtualClock {
    /// Creates a virtual clock at virtual time zero.
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            offset_nanos: AtomicU64::new(0),
        }
    }

    /// The current virtual time as an `Instant`.
    pub fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.offset_nanos.load(Ordering::SeqCst))
    }

    /// Nanoseconds of virtual time elapsed since the clock's epoch.
    pub fn elapsed_nanos(&self) -> u64 {
        self.offset_nanos.load(Ordering::SeqCst)
    }

    /// Advances virtual time by `delta`. Only the simulation scheduler calls
    /// this; nodes under test never advance time themselves.
    pub fn advance(&self, delta: Duration) {
        let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        self.offset_nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Advances virtual time so that `deadline` (an `Instant` previously
    /// derived from this clock) is no longer in the future. No-op if the
    /// deadline has already passed.
    pub fn advance_to(&self, deadline: Instant) {
        let target = deadline.saturating_duration_since(self.base);
        let nanos = u64::try_from(target.as_nanos()).unwrap_or(u64::MAX);
        // fetch_max keeps the clock monotonic even if deadlines arrive out
        // of order.
        self.offset_nanos.fetch_max(nanos, Ordering::SeqCst);
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a component reads "now" from.
#[derive(Clone, Debug, Default)]
pub enum Clock {
    /// Wall-clock time: `now()` is `Instant::now()`.
    #[default]
    Real,
    /// Scheduler-driven virtual time shared with a simulation harness.
    Virtual(Arc<VirtualClock>),
}

impl Clock {
    /// Creates a fresh virtual clock handle.
    pub fn virtual_clock() -> (Self, Arc<VirtualClock>) {
        let vc = Arc::new(VirtualClock::new());
        (Clock::Virtual(Arc::clone(&vc)), vc)
    }

    /// The current time according to this clock.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            Clock::Virtual(vc) => vc.now(),
        }
    }

    /// Whether this is a virtual (simulated) clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_tracks_instant_now() {
        let c = Clock::Real;
        let a = c.now();
        let b = Instant::now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let (clock, vc) = Clock::virtual_clock();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), t0, "virtual time must not follow wall time");
        vc.advance(Duration::from_secs(3));
        assert_eq!(clock.now() - t0, Duration::from_secs(3));
        assert_eq!(vc.elapsed_nanos(), 3_000_000_000);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let (clock, vc) = Clock::virtual_clock();
        let t0 = clock.now();
        vc.advance_to(t0 + Duration::from_millis(10));
        vc.advance_to(t0 + Duration::from_millis(5)); // earlier: no-op
        assert_eq!(clock.now() - t0, Duration::from_millis(10));
        vc.advance_to(t0 + Duration::from_millis(20));
        assert_eq!(clock.now() - t0, Duration::from_millis(20));
    }
}
