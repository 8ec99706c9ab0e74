//! Cache statistics, including the miss breakdown of §8.3.
//!
//! [`CacheStats`] is the plain-value snapshot handed to callers.
//! [`AtomicCacheStats`] is the live per-shard counter bank: every counter is
//! a relaxed [`obs::StripedCounter`] (the shared primitive all three tiers'
//! stats banks are built on) so lookups can record hits and misses while
//! holding only a shard's *shared* lock. [`CacheShardStats`] reports
//! per-shard lock activity and eviction pressure — the cache-tier mirror of
//! `mvdb::ShardStats` — so contention regressions show up in `txcached`
//! telemetry and bench output instead of only in flat scaling curves.

use obs::StripedCounter;

use crate::entry::MissKind;

/// Counters kept by each cache node (and aggregated across the cluster).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Misses because the key was never inserted.
    pub compulsory_misses: u64,
    /// Misses because every cached version was too stale.
    pub staleness_misses: u64,
    /// Misses because the entry had been evicted.
    pub capacity_misses: u64,
    /// Misses because the only fresh-enough versions were inconsistent with
    /// the transaction's pin set.
    pub consistency_misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Insertions skipped because an overlapping version was already present.
    pub duplicate_insertions: u64,
    /// Entries whose validity was truncated by an invalidation.
    pub invalidated_entries: u64,
    /// Entries that arrived *after* an invalidation matching their tags and
    /// were truncated on insert (the §4.2 update/insert race).
    pub late_insert_truncations: u64,
    /// Still-valid entries bounded because a client healed a broken
    /// connection and may have lost invalidation-stream messages.
    pub sealed_entries: u64,
    /// Invalidation messages processed.
    pub invalidation_messages: u64,
    /// Entries evicted to free memory.
    pub lru_evictions: u64,
    /// Entries evicted because they were too stale to be useful.
    pub staleness_evictions: u64,
    /// Still-valid insertions dropped because their validity began below the
    /// node's pruned invalidation-history floor, where the §4.2 race check
    /// can no longer prove the value was not already invalidated.
    pub history_floor_drops: u64,
    /// Bytes currently used (point-in-time, maintained by the node).
    pub used_bytes: u64,
}

impl CacheStats {
    /// Total misses of all kinds.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.compulsory_misses
            + self.staleness_misses
            + self.capacity_misses
            + self.consistency_misses
    }

    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Hit rate in [0, 1]; zero when there were no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Records a miss of the given kind.
    pub fn record_miss(&mut self, kind: MissKind) {
        match kind {
            MissKind::Compulsory => self.compulsory_misses += 1,
            MissKind::Staleness => self.staleness_misses += 1,
            MissKind::Capacity => self.capacity_misses += 1,
            MissKind::Consistency => self.consistency_misses += 1,
        }
    }

    /// The fraction of misses of `kind` among all misses, in [0, 1].
    #[must_use]
    pub fn miss_fraction(&self, kind: MissKind) -> f64 {
        let total = self.misses();
        if total == 0 {
            return 0.0;
        }
        let n = match kind {
            MissKind::Compulsory => self.compulsory_misses,
            MissKind::Staleness => self.staleness_misses,
            MissKind::Capacity => self.capacity_misses,
            MissKind::Consistency => self.consistency_misses,
        };
        n as f64 / total as f64
    }

    /// Merges another node's counters into this one (used for cluster-wide
    /// aggregation). `used_bytes` is summed.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.compulsory_misses += other.compulsory_misses;
        self.staleness_misses += other.staleness_misses;
        self.capacity_misses += other.capacity_misses;
        self.consistency_misses += other.consistency_misses;
        self.insertions += other.insertions;
        self.duplicate_insertions += other.duplicate_insertions;
        self.invalidated_entries += other.invalidated_entries;
        self.late_insert_truncations += other.late_insert_truncations;
        self.sealed_entries += other.sealed_entries;
        self.invalidation_messages += other.invalidation_messages;
        self.lru_evictions += other.lru_evictions;
        self.staleness_evictions += other.staleness_evictions;
        self.history_floor_drops += other.history_floor_drops;
        self.used_bytes += other.used_bytes;
    }
}

/// Live counters of one cache shard (or a node's node-scoped events). All
/// increments are relaxed: the counters are monotonic telemetry, never
/// synchronization, which is what lets a lookup record its outcome while
/// holding only the shard's shared lock.
#[derive(Debug, Default)]
pub(crate) struct AtomicCacheStats {
    pub hits: StripedCounter,
    pub compulsory_misses: StripedCounter,
    pub staleness_misses: StripedCounter,
    pub capacity_misses: StripedCounter,
    pub consistency_misses: StripedCounter,
    pub insertions: StripedCounter,
    pub duplicate_insertions: StripedCounter,
    pub invalidated_entries: StripedCounter,
    pub late_insert_truncations: StripedCounter,
    pub sealed_entries: StripedCounter,
    pub invalidation_messages: StripedCounter,
    pub lru_evictions: StripedCounter,
    pub staleness_evictions: StripedCounter,
    pub history_floor_drops: StripedCounter,
}

impl AtomicCacheStats {
    /// Records a miss of the given kind.
    pub fn record_miss(&self, kind: MissKind) {
        let counter = match kind {
            MissKind::Compulsory => &self.compulsory_misses,
            MissKind::Staleness => &self.staleness_misses,
            MissKind::Capacity => &self.capacity_misses,
            MissKind::Consistency => &self.consistency_misses,
        };
        counter.bump();
    }

    /// Adds this counter bank into a snapshot (`used_bytes` is the caller's
    /// business: shards track it under their locks).
    pub fn add_into(&self, total: &mut CacheStats) {
        total.hits += self.hits.get();
        total.compulsory_misses += self.compulsory_misses.get();
        total.staleness_misses += self.staleness_misses.get();
        total.capacity_misses += self.capacity_misses.get();
        total.consistency_misses += self.consistency_misses.get();
        total.insertions += self.insertions.get();
        total.duplicate_insertions += self.duplicate_insertions.get();
        total.invalidated_entries += self.invalidated_entries.get();
        total.late_insert_truncations += self.late_insert_truncations.get();
        total.sealed_entries += self.sealed_entries.get();
        total.invalidation_messages += self.invalidation_messages.get();
        total.lru_evictions += self.lru_evictions.get();
        total.staleness_evictions += self.staleness_evictions.get();
        total.history_floor_drops += self.history_floor_drops.get();
    }

    /// Zeroes every counter. Increments racing the reset may survive it or
    /// be lost; callers reset only at quiescent points.
    pub fn reset(&self) {
        for counter in [
            &self.hits,
            &self.compulsory_misses,
            &self.staleness_misses,
            &self.capacity_misses,
            &self.consistency_misses,
            &self.insertions,
            &self.duplicate_insertions,
            &self.invalidated_entries,
            &self.late_insert_truncations,
            &self.sealed_entries,
            &self.invalidation_messages,
            &self.lru_evictions,
            &self.staleness_evictions,
            &self.history_floor_drops,
        ] {
            counter.reset();
        }
    }
}

/// Per-shard lock activity and eviction pressure, snapshotted by
/// [`crate::CacheNode::shard_stats`] (the cache-tier mirror of
/// `mvdb::Database::shard_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Index of the shard within its node.
    pub shard: usize,
    /// Shared (reader) lock acquisitions.
    pub read_locks: u64,
    /// Exclusive (writer) lock acquisitions.
    pub write_locks: u64,
    /// Reader acquisitions that could not be granted immediately.
    pub read_waits: u64,
    /// Writer acquisitions that could not be granted immediately.
    pub write_waits: u64,
    /// Entries this shard evicted to fit its capacity budget.
    pub lru_evictions: u64,
    /// Entries this shard evicted as too stale to be useful.
    pub staleness_evictions: u64,
    /// Entries currently stored on the shard.
    pub entries: u64,
    /// Bytes currently stored on the shard.
    pub used_bytes: u64,
}

impl CacheShardStats {
    /// Total lock acquisitions on this shard.
    #[must_use]
    pub fn acquisitions(&self) -> u64 {
        self.read_locks + self.write_locks
    }

    /// Fraction of acquisitions that had to wait, in [0, 1].
    #[must_use]
    pub fn contention_rate(&self) -> f64 {
        let total = self.acquisitions();
        if total == 0 {
            0.0
        } else {
            (self.read_waits + self.write_waits) as f64 / total as f64
        }
    }
}

impl From<CacheStats> for wire::NodeStats {
    fn from(s: CacheStats) -> wire::NodeStats {
        wire::NodeStats {
            hits: s.hits,
            compulsory_misses: s.compulsory_misses,
            staleness_misses: s.staleness_misses,
            capacity_misses: s.capacity_misses,
            consistency_misses: s.consistency_misses,
            insertions: s.insertions,
            duplicate_insertions: s.duplicate_insertions,
            invalidated_entries: s.invalidated_entries,
            late_insert_truncations: s.late_insert_truncations,
            sealed_entries: s.sealed_entries,
            invalidation_messages: s.invalidation_messages,
            lru_evictions: s.lru_evictions,
            staleness_evictions: s.staleness_evictions,
            history_floor_drops: s.history_floor_drops,
            used_bytes: s.used_bytes,
        }
    }
}

impl From<wire::NodeStats> for CacheStats {
    fn from(s: wire::NodeStats) -> CacheStats {
        CacheStats {
            hits: s.hits,
            compulsory_misses: s.compulsory_misses,
            staleness_misses: s.staleness_misses,
            capacity_misses: s.capacity_misses,
            consistency_misses: s.consistency_misses,
            insertions: s.insertions,
            duplicate_insertions: s.duplicate_insertions,
            invalidated_entries: s.invalidated_entries,
            late_insert_truncations: s.late_insert_truncations,
            sealed_entries: s.sealed_entries,
            invalidation_messages: s.invalidation_messages,
            lru_evictions: s.lru_evictions,
            staleness_evictions: s.staleness_evictions,
            history_floor_drops: s.history_floor_drops,
            used_bytes: s.used_bytes,
        }
    }
}

impl From<CacheShardStats> for wire::ShardStats {
    fn from(s: CacheShardStats) -> wire::ShardStats {
        wire::ShardStats {
            shard: s.shard as u32,
            read_locks: s.read_locks,
            write_locks: s.write_locks,
            read_waits: s.read_waits,
            write_waits: s.write_waits,
            lru_evictions: s.lru_evictions,
            staleness_evictions: s.staleness_evictions,
            entries: s.entries,
            used_bytes: s.used_bytes,
        }
    }
}

impl From<wire::ShardStats> for CacheShardStats {
    fn from(s: wire::ShardStats) -> CacheShardStats {
        CacheShardStats {
            shard: s.shard as usize,
            read_locks: s.read_locks,
            write_locks: s.write_locks,
            read_waits: s.read_waits,
            write_waits: s.write_waits,
            lru_evictions: s.lru_evictions,
            staleness_evictions: s.staleness_evictions,
            entries: s.entries,
            used_bytes: s.used_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut s = CacheStats {
            hits: 6,
            ..CacheStats::default()
        };
        s.record_miss(MissKind::Compulsory);
        s.record_miss(MissKind::Consistency);
        s.record_miss(MissKind::Capacity);
        s.record_miss(MissKind::Staleness);
        assert_eq!(s.misses(), 4);
        assert_eq!(s.lookups(), 10);
        assert!((s.hit_rate() - 0.6).abs() < 1e-9);
        assert!((s.miss_fraction(MissKind::Consistency) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_fraction(MissKind::Compulsory), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CacheStats {
            hits: 1,
            compulsory_misses: 2,
            used_bytes: 100,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 3,
            consistency_misses: 1,
            used_bytes: 50,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses(), 3);
        assert_eq!(a.used_bytes, 150);
    }
}
