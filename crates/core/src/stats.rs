//! Client-library statistics and per-transaction commit reports.

use mvdb::PageCounts;
use obs::StripedCounter;
use txtypes::Timestamp;

/// Counters accumulated by a [`crate::TxCache`] handle across transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Read-only transactions begun.
    pub ro_transactions: u64,
    /// Read/write transactions begun.
    pub rw_transactions: u64,
    /// Cacheable-function invocations.
    pub cacheable_calls: u64,
    /// Cacheable calls satisfied from the cache.
    pub cache_hits: u64,
    /// Cacheable calls that had to execute their implementation.
    pub cache_misses: u64,
    /// Database queries issued (both inside and outside cacheable functions).
    pub db_queries: u64,
    /// Snapshots newly pinned by this library instance.
    pub new_pins: u64,
    /// Transactions that reused an existing pinned snapshot.
    pub reused_pins: u64,
    /// Transactions that committed.
    pub commits: u64,
    /// Transactions that aborted.
    pub aborts: u64,
    /// Inserts that had to *block* on collecting pipelined put acks
    /// because a node's pipeline hit its bound with no acks already
    /// received. A healthy multiplexed connection absorbs acks
    /// opportunistically, so this staying near zero is the signal that the
    /// put pipeline is not stalling foreground traffic.
    pub put_pipeline_stalls: u64,
    /// Reads retried on a further replica after the preferred one failed
    /// (remote backend with replication only). Nonzero means the replica
    /// tier absorbed node failures that would otherwise have been misses.
    pub replica_fallbacks: u64,
    /// Batches a cache node refused because this client routed them on a
    /// stale ring-membership epoch (remote backend only). A burst is
    /// expected around a membership change, then the counter should go
    /// quiet once the client's ring view catches up.
    pub wrong_epoch_redirects: u64,
}

impl ClientStats {
    /// Cache hit rate over cacheable calls, in [0, 1].
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.cacheable_calls == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cacheable_calls as f64
        }
    }
}

/// The live counter bank behind [`ClientStats`].
///
/// Every field is a cache-line-striped relaxed atomic (an
/// [`obs::StripedCounter`]), so hot-path readers on different
/// application-server threads never serialize on a stats mutex just to bump
/// a counter. Reads sum the stripes: monotonic, not linearizable — telemetry
/// semantics, exactly like the database's own counters.
#[derive(Debug, Default)]
pub struct AtomicClientStats {
    /// Read-only transactions begun.
    pub ro_transactions: StripedCounter,
    /// Read/write transactions begun.
    pub rw_transactions: StripedCounter,
    /// Cacheable-function invocations.
    pub cacheable_calls: StripedCounter,
    /// Cacheable calls satisfied from the cache.
    pub cache_hits: StripedCounter,
    /// Cacheable calls that had to execute their implementation.
    pub cache_misses: StripedCounter,
    /// Database queries issued.
    pub db_queries: StripedCounter,
    /// Snapshots newly pinned by this library instance.
    pub new_pins: StripedCounter,
    /// Transactions that reused an existing pinned snapshot.
    pub reused_pins: StripedCounter,
    /// Transactions that committed.
    pub commits: StripedCounter,
    /// Transactions that aborted.
    pub aborts: StripedCounter,
    /// Inserts that blocked on put-ack collection (see
    /// [`ClientStats::put_pipeline_stalls`]). The remote backend also
    /// counts its own stalls; [`crate::TxCache::stats`] merges both.
    pub put_pipeline_stalls: StripedCounter,
}

impl AtomicClientStats {
    /// Takes a consistent-enough snapshot of the counters (individual loads
    /// are relaxed; cross-counter skew is acceptable for telemetry).
    #[must_use]
    pub fn snapshot(&self) -> ClientStats {
        ClientStats {
            ro_transactions: self.ro_transactions.get(),
            rw_transactions: self.rw_transactions.get(),
            cacheable_calls: self.cacheable_calls.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            db_queries: self.db_queries.get(),
            new_pins: self.new_pins.get(),
            reused_pins: self.reused_pins.get(),
            commits: self.commits.get(),
            aborts: self.aborts.get(),
            put_pipeline_stalls: self.put_pipeline_stalls.get(),
            // Replica fallbacks and wrong-epoch redirects live in the
            // backend's own counters; `TxCache::stats` merges them in.
            replica_fallbacks: 0,
            wrong_epoch_redirects: 0,
        }
    }
}

/// Everything the library reports back when a transaction finishes; the
/// experiment harness uses these to drive its cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The timestamp the transaction ran at (its snapshot for read-only
    /// transactions, its commit timestamp for read/write transactions).
    pub timestamp: Timestamp,
    /// Whether the transaction was read-only.
    pub read_only: bool,
    /// Database queries the transaction issued.
    pub db_queries: u64,
    /// Simulated database page activity caused by those queries.
    pub db_pages: PageCounts,
    /// Cacheable calls served from the cache.
    pub cache_hits: u64,
    /// Cacheable calls that executed their implementation.
    pub cache_misses: u64,
    /// Rows written (read/write transactions only).
    pub rows_written: u64,
}

impl CommitInfo {
    /// Total cacheable calls made by the transaction.
    #[must_use]
    pub fn cacheable_calls(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_calls() {
        assert_eq!(ClientStats::default().hit_rate(), 0.0);
        let s = ClientStats {
            cacheable_calls: 4,
            cache_hits: 3,
            ..ClientStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn atomic_stats_snapshot_reflects_bumps() {
        let live = AtomicClientStats::default();
        live.cacheable_calls.bump();
        live.cacheable_calls.bump();
        live.cache_hits.bump();
        live.db_queries.add(3);
        let snap = live.snapshot();
        assert_eq!(snap.cacheable_calls, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.db_queries, 3);
        assert_eq!(snap.commits, 0);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn commit_info_totals() {
        let info = CommitInfo {
            timestamp: Timestamp(5),
            read_only: true,
            db_queries: 2,
            db_pages: PageCounts::default(),
            cache_hits: 3,
            cache_misses: 1,
            rows_written: 0,
        };
        assert_eq!(info.cacheable_calls(), 4);
    }
}
