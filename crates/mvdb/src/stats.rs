//! Database statistics counters.
//!
//! [`DbStats`] is the plain-value snapshot handed to callers;
//! [`AtomicDbStats`] is the engine's live counter bank, updated with relaxed
//! atomics so that statistics never force otherwise-independent operations to
//! share a lock. [`ShardStats`] reports per-table lock activity — how often
//! each table shard's reader/writer lock was taken and how often the
//! acquisition had to wait — so lock contention regressions show up in
//! benchmark output instead of only in flat scaling curves.

// The striped-counter primitive moved to the shared `obs` crate; re-exported
// here so existing `mvdb::stats::StripedCounter` users keep compiling.
pub use obs::StripedCounter;

/// Counters accumulated over the lifetime of a [`crate::Database`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// SELECT queries executed.
    pub queries: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows updated.
    pub updates: u64,
    /// Rows deleted.
    pub deletes: u64,
    /// Transactions committed (read-only and read/write).
    pub commits: u64,
    /// Read/write commits that published invalidations.
    pub invalidating_commits: u64,
    /// Transactions aborted by the application.
    pub aborts: u64,
    /// Write conflicts detected (first-updater-wins failures).
    pub serialization_failures: u64,
    /// Snapshots pinned.
    pub pins: u64,
    /// Snapshots unpinned.
    pub unpins: u64,
    /// Tuple versions reclaimed by vacuum.
    pub vacuumed_versions: u64,
    /// Records appended to the write-ahead log (zero for in-memory
    /// databases).
    pub wal_appends: u64,
    /// Fsyncs issued by the write-ahead log; under group commit this is
    /// (often much) smaller than `wal_appends`.
    pub wal_fsyncs: u64,
    /// Snapshot files written by `snapshot_now` or the background
    /// snapshotter.
    pub snapshots_written: u64,
}

impl DbStats {
    /// Total write statements executed.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.inserts + self.updates + self.deletes
    }
}

/// Lock-free live counters behind [`DbStats`]. All increments are relaxed
/// and striped: the counters are monotonic telemetry, not synchronization.
#[derive(Debug, Default)]
pub struct AtomicDbStats {
    /// SELECT queries executed.
    pub queries: StripedCounter,
    /// Rows inserted.
    pub inserts: StripedCounter,
    /// Rows updated.
    pub updates: StripedCounter,
    /// Rows deleted.
    pub deletes: StripedCounter,
    /// Transactions committed (read-only and read/write).
    pub commits: StripedCounter,
    /// Read/write commits that published invalidations.
    pub invalidating_commits: StripedCounter,
    /// Transactions aborted by the application.
    pub aborts: StripedCounter,
    /// Write conflicts detected (first-updater-wins failures).
    pub serialization_failures: StripedCounter,
    /// Snapshots pinned.
    pub pins: StripedCounter,
    /// Snapshots unpinned.
    pub unpins: StripedCounter,
    /// Tuple versions reclaimed by vacuum.
    pub vacuumed_versions: StripedCounter,
}

impl AtomicDbStats {
    /// Takes a consistent-enough snapshot of the counters. Individual loads
    /// are relaxed; cross-counter skew is acceptable for telemetry.
    #[must_use]
    pub fn snapshot(&self) -> DbStats {
        DbStats {
            queries: self.queries.get(),
            inserts: self.inserts.get(),
            updates: self.updates.get(),
            deletes: self.deletes.get(),
            commits: self.commits.get(),
            invalidating_commits: self.invalidating_commits.get(),
            aborts: self.aborts.get(),
            serialization_failures: self.serialization_failures.get(),
            pins: self.pins.get(),
            unpins: self.unpins.get(),
            vacuumed_versions: self.vacuumed_versions.get(),
            // Durability counters live on the WAL itself;
            // `Database::stats` fills them in when one is attached.
            wal_appends: 0,
            wal_fsyncs: 0,
            snapshots_written: 0,
        }
    }
}

/// Per-table-shard lock activity, snapshotted by
/// [`crate::Database::shard_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The table this shard stores.
    pub table: String,
    /// Shared (reader) lock acquisitions.
    pub read_locks: u64,
    /// Exclusive (writer) lock acquisitions.
    pub write_locks: u64,
    /// Reader acquisitions that could not be granted immediately.
    pub read_waits: u64,
    /// Writer acquisitions that could not be granted immediately.
    pub write_waits: u64,
}

impl ShardStats {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_stats_snapshot_reflects_bumps() {
        let live = AtomicDbStats::default();
        live.queries.bump();
        live.queries.bump();
        live.updates.add(7);
        let snap = live.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.updates, 7);
        assert_eq!(snap.commits, 0);
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let c = StripedCounter::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn shard_stats_contention_rate() {
        let s = ShardStats {
            table: "users".into(),
            read_locks: 8,
            write_locks: 2,
            read_waits: 1,
            write_waits: 1,
        };
        assert_eq!(s.acquisitions(), 10);
        assert!((s.contention_rate() - 0.2).abs() < 1e-12);
        let idle = ShardStats {
            table: "idle".into(),
            read_locks: 0,
            write_locks: 0,
            read_waits: 0,
            write_waits: 0,
        };
        assert_eq!(idle.contention_rate(), 0.0);
    }

    #[test]
    fn writes_sums_components() {
        let s = DbStats {
            inserts: 1,
            updates: 2,
            deletes: 3,
            ..DbStats::default()
        };
        assert_eq!(s.writes(), 6);
        assert_eq!(DbStats::default().writes(), 0);
    }
}
