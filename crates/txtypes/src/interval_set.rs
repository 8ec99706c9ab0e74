//! Sets of disjoint validity intervals.
//!
//! The database's validity-interval computation (§5.2) works with two pieces:
//! the *result tuple validity* (an intersection of intervals, so itself a
//! single interval) and the *invalidity mask*, the union of the validity
//! intervals of every tuple that failed a visibility check. The final query
//! validity is the largest interval around the query's snapshot timestamp that
//! lies inside the result validity and outside the mask. [`IntervalSet`]
//! provides the union/containment/subtraction operations that computation
//! needs, and is reused by tests as a reference model.

use std::fmt;

use crate::interval::ValidityInterval;
use crate::timestamp::Timestamp;

/// A union of disjoint, non-adjacent validity intervals kept in sorted order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted, pairwise-disjoint, non-adjacent intervals.
    intervals: Vec<ValidityInterval>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> IntervalSet {
        IntervalSet::default()
    }

    /// Returns `true` if the set contains no timestamps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Returns the number of disjoint intervals in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns the intervals in sorted order.
    #[must_use]
    pub fn intervals(&self) -> &[ValidityInterval] {
        &self.intervals
    }

    /// Returns `true` if any interval in the set contains `ts`.
    #[must_use]
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.intervals.iter().any(|iv| iv.contains(ts))
    }

    /// Adds an interval to the set, merging it with any overlapping or
    /// adjacent intervals.
    pub fn insert(&mut self, iv: ValidityInterval) {
        let mut new_lower = iv.lower;
        let mut new_upper = iv.upper;
        let mut merged: Vec<ValidityInterval> = Vec::with_capacity(self.intervals.len() + 1);
        for existing in self.intervals.drain(..) {
            let overlaps_or_adjacent = {
                // Two half-open intervals [a,b) and [c,d) merge when a <= d and c <= b
                // (treating None as +∞); adjacency (b == c) also merges.
                let lower_ok = match new_upper {
                    None => true,
                    Some(u) => existing.lower <= u,
                };
                let upper_ok = match existing.upper {
                    None => true,
                    Some(u) => new_lower <= u,
                };
                lower_ok && upper_ok
            };
            if overlaps_or_adjacent {
                new_lower = new_lower.min(existing.lower);
                new_upper = match (new_upper, existing.upper) {
                    (None, _) | (_, None) => None,
                    (Some(a), Some(b)) => Some(a.max(b)),
                };
            } else {
                merged.push(existing);
            }
        }
        merged.push(ValidityInterval {
            lower: new_lower,
            upper: new_upper,
        });
        merged.sort_by_key(|iv| iv.lower);
        self.intervals = merged;
    }

    /// Returns the largest sub-interval of `within` that contains `ts` and
    /// does not intersect this set, or `None` if `ts` itself is covered by the
    /// set or lies outside `within`.
    ///
    /// This is exactly the "subtract the invalidity mask from the result tuple
    /// validity" step of §5.2: the query ran at snapshot `ts`, so the reported
    /// validity interval is the maximal gap around `ts`.
    #[must_use]
    pub fn gap_around(&self, within: ValidityInterval, ts: Timestamp) -> Option<ValidityInterval> {
        if !within.contains(ts) || self.contains(ts) {
            return None;
        }
        let mut lower = within.lower;
        let mut upper = within.upper;
        for iv in &self.intervals {
            // Interval entirely at or before ts: it can only raise the lower bound.
            if let Some(u) = iv.upper {
                if u <= ts {
                    lower = lower.max(u);
                    continue;
                }
            }
            // Interval starting after ts: it can only lower the upper bound.
            if iv.lower > ts {
                upper = Some(match upper {
                    Some(existing) => existing.min(iv.lower),
                    None => iv.lower,
                });
            }
            // An interval containing ts was already excluded by the contains()
            // check above.
        }
        match upper {
            Some(u) if u <= lower => None,
            _ => Some(ValidityInterval { lower, upper }),
        }
    }

    /// Returns the union of all timestamps covered by either set.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = self.clone();
        for iv in &other.intervals {
            out.insert(*iv);
        }
        out
    }

    /// Removes every timestamp `>= ts` from the set. Used by tests that model
    /// invalidation-stream truncation.
    pub fn truncate_from(&mut self, ts: Timestamp) {
        let mut out = Vec::with_capacity(self.intervals.len());
        for iv in self.intervals.drain(..) {
            if let Some(t) = iv.truncate_at(ts) {
                out.push(t);
            }
        }
        self.intervals = out;
    }
}

impl From<ValidityInterval> for IntervalSet {
    fn from(iv: ValidityInterval) -> Self {
        let mut s = IntervalSet::new();
        s.insert(iv);
        s
    }
}

impl FromIterator<ValidityInterval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = ValidityInterval>>(iter: T) -> Self {
        let mut s = IntervalSet::new();
        for iv in iter {
            s.insert(iv);
        }
        s
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: u64, hi: u64) -> ValidityInterval {
        ValidityInterval::bounded(Timestamp(lo), Timestamp(hi)).expect("non-empty")
    }

    #[test]
    fn insert_merges_overlapping_and_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(b(10, 20));
        s.insert(b(30, 40));
        assert_eq!(s.len(), 2);
        // Overlapping
        s.insert(b(15, 25));
        assert_eq!(s.len(), 2);
        assert_eq!(s.intervals()[0], b(10, 25));
        // Adjacent
        s.insert(b(25, 30));
        assert_eq!(s.len(), 1);
        assert_eq!(s.intervals()[0], b(10, 40));
    }

    #[test]
    fn insert_unbounded_swallows_later_intervals() {
        let mut s = IntervalSet::new();
        s.insert(b(10, 20));
        s.insert(b(50, 60));
        s.insert(ValidityInterval::unbounded(Timestamp(15)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.intervals()[0], ValidityInterval::unbounded(Timestamp(10)));
    }

    #[test]
    fn contains_checks_all_intervals() {
        let s: IntervalSet = [b(1, 3), b(10, 12)].into_iter().collect();
        assert!(s.contains(Timestamp(2)));
        assert!(!s.contains(Timestamp(5)));
        assert!(s.contains(Timestamp(11)));
        assert!(!s.contains(Timestamp(12)));
    }

    #[test]
    fn gap_around_reproduces_paper_figure_4() {
        // Figure 4 of the paper: result validity [44, 47) from tuples 1 and 2;
        // invalidity mask contains tuples 3 (deleted before the query) and 4
        // (created after), say [40, 45) and [48, ∞). Query ran at ts 46.
        let result_validity = b(44, 47);
        let mask: IntervalSet = [b(40, 45), ValidityInterval::unbounded(Timestamp(48))]
            .into_iter()
            .collect();
        let got = mask.gap_around(result_validity, Timestamp(46));
        assert_eq!(got, Some(b(45, 47)));
    }

    #[test]
    fn gap_around_none_when_ts_masked_or_outside() {
        let mask: IntervalSet = [b(40, 45)].into_iter().collect();
        assert_eq!(mask.gap_around(b(30, 60), Timestamp(42)), None);
        assert_eq!(mask.gap_around(b(30, 60), Timestamp(70)), None);
    }

    #[test]
    fn gap_around_unbounded_result() {
        let mask: IntervalSet = [b(10, 20)].into_iter().collect();
        let within = ValidityInterval::unbounded(Timestamp(5));
        assert_eq!(
            mask.gap_around(within, Timestamp(25)),
            Some(ValidityInterval::unbounded(Timestamp(20)))
        );
        assert_eq!(mask.gap_around(within, Timestamp(7)), Some(b(5, 10)));
    }

    #[test]
    fn union_and_truncate() {
        let a: IntervalSet = [b(1, 5)].into_iter().collect();
        let c: IntervalSet = [b(10, 20)].into_iter().collect();
        let u = a.union(&c);
        assert_eq!(u.len(), 2);
        let mut u2 = u.clone();
        u2.truncate_from(Timestamp(12));
        assert_eq!(u2.intervals(), &[b(1, 5), b(10, 12)]);
        let mut u3 = u;
        u3.truncate_from(Timestamp(1));
        assert!(u3.is_empty());
    }

    #[test]
    fn display_formats_all_members() {
        let s: IntervalSet = [b(1, 3), b(10, 12)].into_iter().collect();
        assert_eq!(s.to_string(), "{[1, 3), [10, 12)}");
    }
}
