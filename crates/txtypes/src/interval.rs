//! Validity intervals (§4.1, §5.2).
//!
//! A validity interval describes the range of database states (identified by
//! commit timestamps) over which some result — a tuple, a query result, or a
//! cached application object — was the *current* result. Its lower bound is
//! the commit timestamp of the transaction that made the result valid; its
//! upper bound, if present, is the commit timestamp of the first later
//! transaction that changed it. An interval with no upper bound is
//! *still valid*: it reflects the latest database state and will be truncated
//! by an invalidation when the underlying data changes.

use std::fmt;

use crate::timestamp::Timestamp;

/// The range of commit timestamps over which a value was current.
///
/// The interval is inclusive of `lower` and exclusive of `upper`: a value that
/// became valid at commit 46 and was invalidated by commit 53 is valid at
/// timestamps 46..=52 and is written `[46, 53)`. A still-valid entry has
/// `upper == None` and is written `[46, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValidityInterval {
    /// Commit timestamp of the transaction that made the value valid.
    pub lower: Timestamp,
    /// Commit timestamp of the first transaction that invalidated the value,
    /// or `None` if the value is still valid.
    pub upper: Option<Timestamp>,
}

impl ValidityInterval {
    /// An interval covering every timestamp; the identity for intersection.
    pub const ALL: ValidityInterval = ValidityInterval {
        lower: Timestamp::ZERO,
        upper: None,
    };

    /// Creates a bounded interval `[lower, upper)`.
    ///
    /// Returns `None` if `upper <= lower` (an empty interval).
    #[must_use]
    pub fn bounded(lower: Timestamp, upper: Timestamp) -> Option<ValidityInterval> {
        if upper <= lower {
            None
        } else {
            Some(ValidityInterval {
                lower,
                upper: Some(upper),
            })
        }
    }

    /// Creates a still-valid (unbounded) interval `[lower, ∞)`.
    #[must_use]
    pub fn unbounded(lower: Timestamp) -> ValidityInterval {
        ValidityInterval { lower, upper: None }
    }

    /// Creates an interval containing exactly one timestamp.
    #[must_use]
    pub fn point(ts: Timestamp) -> ValidityInterval {
        ValidityInterval {
            lower: ts,
            upper: Some(ts.next()),
        }
    }

    /// Returns `true` if the interval has no upper bound (the value is still
    /// the current one).
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.upper.is_none()
    }

    /// Returns `true` if `ts` lies inside the interval.
    #[must_use]
    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.lower && self.upper.is_none_or(|u| ts < u)
    }

    /// Returns `true` if the two intervals share at least one timestamp.
    #[must_use]
    pub fn overlaps(&self, other: &ValidityInterval) -> bool {
        self.intersect(other).is_some()
    }

    /// Returns the intersection of two intervals, or `None` if they are
    /// disjoint.
    #[must_use]
    pub fn intersect(&self, other: &ValidityInterval) -> Option<ValidityInterval> {
        let lower = self.lower.max(other.lower);
        let upper = match (self.upper, other.upper) {
            (None, None) => None,
            (Some(u), None) | (None, Some(u)) => Some(u),
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        match upper {
            Some(u) if u <= lower => None,
            _ => Some(ValidityInterval { lower, upper }),
        }
    }

    /// Returns `true` if the interval intersects the (inclusive) timestamp
    /// range `[lo, hi]`.
    ///
    /// This is the form of query the cache server answers: the client library
    /// sends the bounds of its pin set and the server returns any entry whose
    /// validity interval intersects them (§4.1, §6.2).
    #[must_use]
    pub fn intersects_range(&self, lo: Timestamp, hi: Timestamp) -> bool {
        if hi < self.lower {
            return false;
        }
        self.upper.is_none_or(|u| lo < u)
    }

    /// Truncates the interval at `ts`: the value is considered invalid from
    /// `ts` onwards. Returns `None` if the truncation empties the interval.
    ///
    /// This is the operation a cache node applies when it processes an
    /// invalidation message (§4.2).
    #[must_use]
    pub fn truncate_at(&self, ts: Timestamp) -> Option<ValidityInterval> {
        if ts <= self.lower {
            return None;
        }
        let new_upper = match self.upper {
            Some(u) => u.min(ts),
            None => ts,
        };
        ValidityInterval::bounded(self.lower, new_upper)
    }

    /// Returns the interval's width in commit timestamps, or `None` when
    /// unbounded. Useful for statistics and eviction heuristics.
    #[must_use]
    pub fn width(&self) -> Option<u64> {
        self.upper.map(|u| u.as_u64() - self.lower.as_u64())
    }

    /// The interval's effective upper bound for lookup purposes, given the
    /// timestamp of the last invalidation processed so far.
    ///
    /// Still-valid items are treated "as though they have an upper validity
    /// bound equal to the timestamp of the last invalidation received prior to
    /// the lookup" (§4.2); this closes the race between a database update and
    /// its invalidation reaching the cache.
    #[must_use]
    pub fn effective_upper(&self, last_invalidation: Timestamp) -> Timestamp {
        match self.upper {
            Some(u) => u,
            None => last_invalidation.next().max(self.lower.next()),
        }
    }
}

impl fmt::Display for ValidityInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.upper {
            Some(u) => write!(f, "[{}, {})", self.lower.as_u64(), u.as_u64()),
            None => write!(f, "[{}, ∞)", self.lower.as_u64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: u64, hi: u64) -> ValidityInterval {
        ValidityInterval::bounded(Timestamp(lo), Timestamp(hi)).expect("non-empty")
    }

    #[test]
    fn bounded_rejects_empty() {
        assert!(ValidityInterval::bounded(Timestamp(5), Timestamp(5)).is_none());
        assert!(ValidityInterval::bounded(Timestamp(6), Timestamp(5)).is_none());
        assert!(ValidityInterval::bounded(Timestamp(5), Timestamp(6)).is_some());
    }

    #[test]
    fn contains_respects_half_open_bounds() {
        let iv = b(46, 53);
        assert!(!iv.contains(Timestamp(45)));
        assert!(iv.contains(Timestamp(46)));
        assert!(iv.contains(Timestamp(52)));
        assert!(!iv.contains(Timestamp(53)));

        let open = ValidityInterval::unbounded(Timestamp(46));
        assert!(open.contains(Timestamp(1_000_000)));
        assert!(!open.contains(Timestamp(45)));
    }

    #[test]
    fn point_contains_exactly_one() {
        let p = ValidityInterval::point(Timestamp(9));
        assert!(p.contains(Timestamp(9)));
        assert!(!p.contains(Timestamp(8)));
        assert!(!p.contains(Timestamp(10)));
    }

    #[test]
    fn intersect_bounded_bounded() {
        assert_eq!(b(10, 20).intersect(&b(15, 30)), Some(b(15, 20)));
        assert_eq!(b(10, 20).intersect(&b(20, 30)), None);
        assert_eq!(b(10, 20).intersect(&b(0, 5)), None);
        assert_eq!(b(10, 20).intersect(&b(10, 20)), Some(b(10, 20)));
    }

    #[test]
    fn intersect_with_unbounded() {
        let open = ValidityInterval::unbounded(Timestamp(15));
        assert_eq!(b(10, 20).intersect(&open), Some(b(15, 20)));
        assert_eq!(
            open.intersect(&ValidityInterval::unbounded(Timestamp(12))),
            Some(ValidityInterval::unbounded(Timestamp(15)))
        );
        assert_eq!(b(10, 15).intersect(&open), None);
    }

    #[test]
    fn intersect_is_commutative() {
        let cases = [
            (b(10, 20), b(15, 30)),
            (b(1, 2), b(2, 3)),
            (ValidityInterval::unbounded(Timestamp(5)), b(1, 9)),
        ];
        for (x, y) in cases {
            assert_eq!(x.intersect(&y), y.intersect(&x));
        }
    }

    #[test]
    fn intersects_range_inclusive() {
        let iv = b(46, 53);
        assert!(iv.intersects_range(Timestamp(52), Timestamp(60)));
        assert!(!iv.intersects_range(Timestamp(53), Timestamp(60)));
        assert!(iv.intersects_range(Timestamp(40), Timestamp(46)));
        assert!(!iv.intersects_range(Timestamp(40), Timestamp(45)));
        let open = ValidityInterval::unbounded(Timestamp(46));
        assert!(open.intersects_range(Timestamp(100), Timestamp(200)));
    }

    #[test]
    fn truncate_at_shortens_or_empties() {
        let open = ValidityInterval::unbounded(Timestamp(46));
        assert_eq!(open.truncate_at(Timestamp(53)), Some(b(46, 53)));
        assert_eq!(open.truncate_at(Timestamp(46)), None);
        assert_eq!(b(46, 53).truncate_at(Timestamp(50)), Some(b(46, 50)));
        assert_eq!(b(46, 53).truncate_at(Timestamp(60)), Some(b(46, 53)));
        assert_eq!(b(46, 53).truncate_at(Timestamp(40)), None);
    }

    #[test]
    fn effective_upper_closes_invalidation_race() {
        let open = ValidityInterval::unbounded(Timestamp(46));
        // Last invalidation seen was 50 → treat as valid through 50 inclusive.
        assert_eq!(open.effective_upper(Timestamp(50)), Timestamp(51));
        // Never below lower + 1, so the interval is never empty.
        assert_eq!(open.effective_upper(Timestamp(10)), Timestamp(47));
        assert_eq!(b(46, 53).effective_upper(Timestamp(100)), Timestamp(53));
    }

    #[test]
    fn width_and_display() {
        assert_eq!(b(46, 53).width(), Some(7));
        assert_eq!(ValidityInterval::unbounded(Timestamp(3)).width(), None);
        assert_eq!(b(46, 53).to_string(), "[46, 53)");
        assert_eq!(
            ValidityInterval::unbounded(Timestamp(3)).to_string(),
            "[3, ∞)"
        );
    }
}
