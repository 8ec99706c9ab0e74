//! Per-transaction staleness limits (§2.2).
//!
//! `BEGIN-RO(staleness)` lets an application declare how old a snapshot it is
//! willing to observe. The limit is expressed in wall-clock time; the
//! pincushion translates it into the set of pinned snapshots that are still
//! fresh enough.

use std::fmt;

use crate::timestamp::WallClock;

/// How stale a read-only transaction's snapshot is allowed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Staleness {
    /// The transaction must run on the latest database state (equivalent to a
    /// zero-second bound): no previously pinned snapshot may be reused unless
    /// it is the current one.
    Fresh,
    /// The transaction may run on any snapshot pinned within the last
    /// `micros` microseconds of (simulated) wall-clock time.
    Within {
        /// The staleness bound in microseconds.
        micros: u64,
    },
}

impl Staleness {
    /// A staleness bound of the given number of seconds.
    #[must_use]
    pub fn seconds(secs: u64) -> Staleness {
        Staleness::Within {
            micros: secs.saturating_mul(1_000_000),
        }
    }

    /// A staleness bound of the given number of milliseconds.
    #[must_use]
    pub fn millis(ms: u64) -> Staleness {
        Staleness::Within {
            micros: ms.saturating_mul(1_000),
        }
    }

    /// Returns the bound in microseconds (zero for [`Staleness::Fresh`]).
    #[must_use]
    pub fn as_micros(self) -> u64 {
        match self {
            Staleness::Fresh => 0,
            Staleness::Within { micros } => micros,
        }
    }

    /// The earliest wall-clock pin time acceptable under this bound when the
    /// transaction begins at `now`.
    #[must_use]
    pub fn earliest_acceptable(self, now: WallClock) -> WallClock {
        WallClock(now.0.saturating_sub(self.as_micros()))
    }

    /// Returns `true` if a snapshot pinned at `pinned_at` is acceptable at
    /// time `now`.
    #[must_use]
    pub fn accepts(self, pinned_at: WallClock, now: WallClock) -> bool {
        pinned_at >= self.earliest_acceptable(now)
    }
}

impl Default for Staleness {
    /// The paper's experiments default to a 30-second staleness limit.
    fn default() -> Self {
        Staleness::seconds(30)
    }
}

impl fmt::Display for Staleness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Staleness::Fresh => write!(f, "fresh"),
            Staleness::Within { micros } => write!(f, "{:.1}s", *micros as f64 / 1e6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_micros() {
        assert_eq!(Staleness::seconds(30).as_micros(), 30_000_000);
        assert_eq!(Staleness::millis(250).as_micros(), 250_000);
        assert_eq!(Staleness::Fresh.as_micros(), 0);
        assert_eq!(Staleness::default(), Staleness::seconds(30));
    }

    #[test]
    fn earliest_acceptable_saturates_at_zero() {
        let s = Staleness::seconds(30);
        assert_eq!(
            s.earliest_acceptable(WallClock::from_secs(100)),
            WallClock::from_secs(70)
        );
        assert_eq!(
            s.earliest_acceptable(WallClock::from_secs(10)),
            WallClock::ZERO
        );
    }

    #[test]
    fn accepts_boundary() {
        let s = Staleness::seconds(30);
        let now = WallClock::from_secs(100);
        assert!(s.accepts(WallClock::from_secs(70), now));
        assert!(s.accepts(WallClock::from_secs(100), now));
        assert!(!s.accepts(WallClock::from_secs(69), now));
        assert!(Staleness::Fresh.accepts(now, now));
        assert!(!Staleness::Fresh.accepts(WallClock::from_secs(99), now));
    }

    #[test]
    fn display() {
        assert_eq!(Staleness::seconds(30).to_string(), "30.0s");
        assert_eq!(Staleness::Fresh.to_string(), "fresh");
    }
}
