//! Cache entries and lookup requests/outcomes.

use bytes::Bytes;
use txtypes::{CacheKey, TagSet, Timestamp, ValidityInterval, WallClock};

/// A versioned entry stored on a cache node (§4.1).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cacheable call this entry memoizes.
    pub key: CacheKey,
    /// The serialized result of the call.
    pub value: Bytes,
    /// The range of database timestamps over which the value is current.
    pub validity: ValidityInterval,
    /// The entry's database dependencies; still-valid entries are truncated
    /// when an invalidation matching one of these tags arrives.
    pub tags: TagSet,
    /// Wall-clock time of insertion (for statistics).
    pub inserted_at: WallClock,
}

impl CacheEntry {
    /// Approximate memory footprint of the entry.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.key.size_bytes()
            + self.value.len()
            + self
                .tags
                .tags()
                .iter()
                .map(|t| t.table.len() + 24)
                .sum::<usize>()
            + 64
    }
}

/// A lookup request from the TxCache library (§4.1, §6.2).
///
/// The library sends the bounds of the transaction's pin set — any entry
/// whose validity interval intersects `[pinset_lo, pinset_hi]` keeps the
/// transaction serializable — plus the lower bound acceptable under the
/// staleness limit alone, which the server uses only to classify misses
/// (consistency vs staleness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupRequest {
    /// Lowest timestamp in the transaction's pin set.
    pub pinset_lo: Timestamp,
    /// Highest timestamp in the transaction's pin set.
    pub pinset_hi: Timestamp,
    /// Earliest timestamp acceptable under the staleness limit, ignoring what
    /// the transaction has already observed.
    pub freshness_lo: Timestamp,
}

impl LookupRequest {
    /// A request for any version valid at exactly `ts`.
    #[must_use]
    pub fn at(ts: Timestamp) -> LookupRequest {
        LookupRequest {
            pinset_lo: ts,
            pinset_hi: ts,
            freshness_lo: ts,
        }
    }

    /// A request for any version valid somewhere in `[lo, hi]`.
    #[must_use]
    pub fn range(lo: Timestamp, hi: Timestamp) -> LookupRequest {
        LookupRequest {
            pinset_lo: lo,
            pinset_hi: hi,
            freshness_lo: lo,
        }
    }
}

/// Why a lookup missed, following the classification of §8.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// The object was never in the cache.
    Compulsory,
    /// The object was invalidated and every cached version is older than the
    /// staleness limit allows.
    Staleness,
    /// The object was previously evicted.
    Capacity,
    /// A sufficiently fresh version exists, but it is inconsistent with the
    /// data the transaction has already read (its validity interval does not
    /// intersect the pin set).
    Consistency,
}

impl From<MissKind> for wire::MissCode {
    fn from(kind: MissKind) -> wire::MissCode {
        match kind {
            MissKind::Compulsory => wire::MissCode::Compulsory,
            MissKind::Staleness => wire::MissCode::Staleness,
            MissKind::Capacity => wire::MissCode::Capacity,
            MissKind::Consistency => wire::MissCode::Consistency,
        }
    }
}

impl From<wire::MissCode> for MissKind {
    fn from(code: wire::MissCode) -> MissKind {
        match code {
            wire::MissCode::Compulsory => MissKind::Compulsory,
            wire::MissCode::Staleness => MissKind::Staleness,
            wire::MissCode::Capacity => MissKind::Capacity,
            wire::MissCode::Consistency => MissKind::Consistency,
        }
    }
}

/// The result of a cache lookup.
#[derive(Debug, Clone)]
pub enum LookupOutcome {
    /// A matching entry was found; the value and its validity interval are
    /// returned so the library can narrow the transaction's pin set.
    Hit {
        /// The cached value.
        value: Bytes,
        /// The entry's validity interval with still-valid entries bounded by
        /// the last processed invalidation (§4.2). The library narrows the
        /// transaction's pin set with this conservative interval.
        validity: ValidityInterval,
        /// The validity interval exactly as stored (possibly unbounded).
        /// Enclosing cacheable functions accumulate this one, so a chain of
        /// still-valid results stays still-valid.
        stored_validity: ValidityInterval,
        /// The entry's dependency tags. Returned so enclosing cacheable
        /// functions inherit the dependencies of nested cache hits and are
        /// invalidated correctly (§6.3).
        tags: TagSet,
    },
    /// No matching entry; the kind says why.
    Miss(MissKind),
}

impl LookupOutcome {
    /// Returns `true` for hits.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupOutcome::Hit { .. })
    }

    /// Returns the miss kind, if this is a miss.
    #[must_use]
    pub fn miss_kind(&self) -> Option<MissKind> {
        match self {
            LookupOutcome::Miss(kind) => Some(*kind),
            LookupOutcome::Hit { .. } => None,
        }
    }
}

// `LookupOutcome`, `wire::GetResult` and `wire::Response::{Hit, Miss}` are
// the same sum written three times — what a node computes, one slot of a
// `MultiGetResult`, and the whole reply to a `VersionedGet`. These are the
// only places that take one apart to build another: the server converts
// outcomes into either frame shape, the client converts either back.

impl From<LookupOutcome> for wire::GetResult {
    fn from(outcome: LookupOutcome) -> wire::GetResult {
        match outcome {
            LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => wire::GetResult::Hit {
                value,
                validity,
                stored_validity,
                tags,
            },
            LookupOutcome::Miss(kind) => wire::GetResult::Miss { kind: kind.into() },
        }
    }
}

impl From<wire::GetResult> for LookupOutcome {
    fn from(result: wire::GetResult) -> LookupOutcome {
        match result {
            wire::GetResult::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            },
            wire::GetResult::Miss { kind } => LookupOutcome::Miss(kind.into()),
        }
    }
}

impl From<LookupOutcome> for wire::Response {
    fn from(outcome: LookupOutcome) -> wire::Response {
        match outcome {
            LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => wire::Response::Hit {
                value,
                validity,
                stored_validity,
                tags,
            },
            LookupOutcome::Miss(kind) => wire::Response::Miss { kind: kind.into() },
        }
    }
}

/// Any reply other than `Hit`/`Miss` is handed back unchanged.
impl TryFrom<wire::Response> for LookupOutcome {
    type Error = wire::Response;

    fn try_from(response: wire::Response) -> Result<LookupOutcome, wire::Response> {
        match response {
            wire::Response::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => Ok(LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            }),
            wire::Response::Miss { kind } => Ok(LookupOutcome::Miss(kind.into())),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_size_counts_value_and_tags() {
        let e = CacheEntry {
            key: CacheKey::new("f", "[1]"),
            value: Bytes::from(vec![0u8; 100]),
            validity: ValidityInterval::unbounded(Timestamp(1)),
            tags: [txtypes::InvalidationTag::keyed("items", "id=1")]
                .into_iter()
                .collect(),
            inserted_at: WallClock::ZERO,
        };
        assert!(e.size_bytes() > 100);
    }

    #[test]
    fn request_constructors() {
        let r = LookupRequest::at(Timestamp(5));
        assert_eq!(r.pinset_lo, Timestamp(5));
        assert_eq!(r.pinset_hi, Timestamp(5));
        let r2 = LookupRequest::range(Timestamp(3), Timestamp(9));
        assert_eq!(r2.freshness_lo, Timestamp(3));
    }

    #[test]
    fn outcome_helpers() {
        let hit = LookupOutcome::Hit {
            value: Bytes::new(),
            validity: ValidityInterval::unbounded(Timestamp(1)),
            stored_validity: ValidityInterval::unbounded(Timestamp(1)),
            tags: TagSet::new(),
        };
        assert!(hit.is_hit());
        assert_eq!(hit.miss_kind(), None);
        let miss = LookupOutcome::Miss(MissKind::Capacity);
        assert!(!miss.is_hit());
        assert_eq!(miss.miss_kind(), Some(MissKind::Capacity));
    }
}
