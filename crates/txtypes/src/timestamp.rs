//! Logical commit timestamps and simulated wall-clock time.
//!
//! The paper orders everything — tuple versions, cache entries, invalidation
//! messages, pinned snapshots — by the commit time of update transactions
//! (§4.1). We model that as a monotonically increasing logical counter,
//! [`Timestamp`]. Wall-clock time enters the picture only through the
//! staleness limit handed to `BEGIN-RO` (§2.2) and through the pincushion's
//! bookkeeping of when each snapshot was pinned (§5.4); [`WallClock`]
//! represents it as integer microseconds on a simulated clock.

use std::fmt;

/// A logical database commit timestamp.
///
/// `Timestamp(n)` identifies the database state produced by the first `n`
/// committed update transactions. `Timestamp::ZERO` is the empty/initial
/// database state. Timestamps are totally ordered and dense enough for our
/// purposes (one unit per commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp of the initial (empty) database state.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The largest representable timestamp; useful as a sentinel upper bound.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Returns the next commit timestamp.
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0.saturating_add(1))
    }

    /// Returns the previous timestamp, saturating at zero.
    #[must_use]
    pub fn prev(self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }

    /// Returns the raw counter value.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts:{}", self.0)
    }
}

/// Simulated wall-clock time, in microseconds since the start of the run.
///
/// The experiment harness drives a virtual clock; components that need
/// wall-clock time (the pincushion's staleness checks, cache eviction of
/// too-stale entries, the workload generator's think times) read it from
/// there. Using an integer keeps the simulation deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WallClock(pub u64);

impl WallClock {
    /// Time zero of the simulation.
    pub const ZERO: WallClock = WallClock(0);

    /// Builds a wall-clock instant from whole seconds.
    #[must_use]
    pub fn from_secs(secs: u64) -> WallClock {
        WallClock(secs.saturating_mul(1_000_000))
    }

    /// Builds a wall-clock instant from milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> WallClock {
        WallClock(ms.saturating_mul(1_000))
    }

    /// Builds a wall-clock instant from microseconds.
    #[must_use]
    pub fn from_micros(us: u64) -> WallClock {
        WallClock(us)
    }

    /// Returns the instant as microseconds.
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (truncated) whole seconds.
    #[must_use]
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the instant as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Adds a duration expressed in microseconds.
    #[must_use]
    pub fn advance_micros(self, us: u64) -> WallClock {
        WallClock(self.0.saturating_add(us))
    }

    /// Adds a duration expressed in seconds.
    #[must_use]
    pub fn advance_secs(self, secs: u64) -> WallClock {
        self.advance_micros(secs.saturating_mul(1_000_000))
    }

    /// Returns the elapsed time since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: WallClock) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for WallClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_and_arithmetic() {
        let a = Timestamp(5);
        assert!(a < a.next());
        assert_eq!(a.next(), Timestamp(6));
        assert_eq!(a.prev(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.prev(), Timestamp::ZERO);
        assert_eq!(Timestamp::MAX.next(), Timestamp::MAX);
        assert!(Timestamp::ZERO < Timestamp::MAX);
    }

    #[test]
    fn timestamp_display_and_from() {
        assert_eq!(Timestamp::from(7).to_string(), "ts:7");
        assert_eq!(Timestamp::from(7).as_u64(), 7);
    }

    #[test]
    fn wallclock_conversions() {
        let t = WallClock::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert_eq!(t.as_secs(), 3);
        assert_eq!(WallClock::from_millis(1500).as_secs(), 1);
        assert!((WallClock::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn wallclock_advance_and_since() {
        let t0 = WallClock::from_secs(10);
        let t1 = t0.advance_secs(5);
        assert_eq!(t1.since(t0), 5_000_000);
        assert_eq!(t0.since(t1), 0, "since saturates at zero");
        assert_eq!(t0.advance_micros(1).as_micros(), 10_000_001);
    }

    #[test]
    fn wallclock_display() {
        assert_eq!(WallClock::from_millis(1234).to_string(), "1.234s");
    }
}
