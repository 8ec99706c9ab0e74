//! The `TxCache` handle: the entry point applications hold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cache_server::CacheCluster;
use crossbeam::channel::Receiver;
use mvdb::{Database, InvalidationMessage, SnapshotId};
use parking_lot::Mutex;
use pincushion::Pincushion;
use txtypes::{Result, SimClock, Staleness, Timestamp};

use crate::backend::CacheBackend;
use crate::config::{CacheMode, TimestampPolicy, TxCacheConfig};
use crate::stats::{AtomicClientStats, ClientStats};
use crate::transaction::Transaction;

/// The TxCache client library.
///
/// One `TxCache` is shared by all requests of an application server. It knows
/// how to reach the database, the cache tier (in-process or over the wire —
/// see [`CacheBackend`]) and the pincushion, forwards the database's
/// invalidation stream to the cache nodes, and hands out [`Transaction`]
/// objects.
pub struct TxCache {
    pub(crate) db: Arc<Database>,
    pub(crate) cache: Arc<dyn CacheBackend>,
    pub(crate) pincushion: Arc<Pincushion>,
    pub(crate) clock: SimClock,
    pub(crate) config: TxCacheConfig,
    pub(crate) stats: AtomicClientStats,
    invalidations: Mutex<Receiver<InvalidationMessage>>,
    /// The newest heartbeat timestamp already pushed to the backend; pumps
    /// with nothing new to deliver are skipped, which matters once every
    /// heartbeat is a network frame to every node.
    last_heartbeat: AtomicU64,
}

impl TxCache {
    /// Creates a library instance wired to an in-process cache cluster (the
    /// historical constructor; see [`TxCache::with_backend`] for the general
    /// form).
    #[must_use]
    pub fn new(
        db: Arc<Database>,
        cache: Arc<CacheCluster>,
        pincushion: Arc<Pincushion>,
        clock: SimClock,
        config: TxCacheConfig,
    ) -> TxCache {
        TxCache::with_backend(db, cache, pincushion, clock, config)
    }

    /// Creates a library instance wired to any [`CacheBackend`] — the
    /// in-process cluster or a [`RemoteCluster`](crate::backend::RemoteCluster)
    /// of `txcached` TCP servers. `config.backend` is overwritten with the
    /// actual backend's kind so reports can't lie about the deployment.
    #[must_use]
    pub fn with_backend(
        db: Arc<Database>,
        cache: Arc<dyn CacheBackend>,
        pincushion: Arc<Pincushion>,
        clock: SimClock,
        mut config: TxCacheConfig,
    ) -> TxCache {
        let invalidations = db.subscribe_invalidations();
        config.backend = cache.kind();
        TxCache {
            db,
            cache,
            pincushion,
            clock,
            config,
            stats: AtomicClientStats::default(),
            invalidations: Mutex::new(invalidations),
            last_heartbeat: AtomicU64::new(0),
        }
    }

    /// The library's configuration.
    #[must_use]
    pub fn config(&self) -> &TxCacheConfig {
        &self.config
    }

    /// The underlying database (for administrative tasks such as schema
    /// creation and bulk loading).
    #[must_use]
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The active cache backend (for statistics).
    #[must_use]
    pub fn cache(&self) -> &Arc<dyn CacheBackend> {
        &self.cache
    }

    /// The pincushion (for statistics).
    #[must_use]
    pub fn pincushion(&self) -> &Arc<Pincushion> {
        &self.pincushion
    }

    /// The shared simulated clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Library-side statistics. Counters kept inside the backend — put
    /// stalls, replica fallbacks, wrong-epoch redirects (the remote backend
    /// counts its own) — are merged in.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        let mut snapshot = self.stats.snapshot();
        snapshot.put_pipeline_stalls += self.cache.put_stalls();
        snapshot.replica_fallbacks += self.cache.replica_fallbacks();
        snapshot.wrong_epoch_redirects += self.cache.wrong_epoch_redirects();
        snapshot
    }

    /// Begins a read-only transaction with the given staleness limit
    /// (`BEGIN-RO` in Figure 2).
    pub fn begin_ro(&self, staleness: Staleness) -> Result<Transaction<'_>> {
        self.pump_invalidations();
        self.stats.ro_transactions.bump();
        Transaction::new_read_only(self, staleness)
    }

    /// Begins a read/write transaction (`BEGIN-RW` in Figure 2). Read/write
    /// transactions bypass the cache entirely and run directly on the
    /// database (§2.2).
    pub fn begin_rw(&self) -> Result<Transaction<'_>> {
        self.pump_invalidations();
        self.stats.rw_transactions.bump();
        Transaction::new_read_write(self)
    }

    /// Forwards any pending invalidation-stream messages from the database to
    /// whichever [`CacheBackend`] is active, as one commit-ordered batch,
    /// followed by a timestamp heartbeat. In the paper this is an
    /// asynchronous multicast; here the harness driver loop (and every
    /// transaction begin) pumps it, which keeps experiments deterministic
    /// while preserving the ordering guarantees the protocol relies on.
    ///
    /// The heartbeat is the database's commit timestamp as of *before* the
    /// drain: commits publish their invalidation before the timestamp becomes
    /// visible, so at that point every invalidation at or below the noted
    /// timestamp has been applied, and still-valid entries may be served at
    /// the current time even when recent commits (or the initial bulk load)
    /// did not touch their tags.
    ///
    /// A pump with no new messages and no heartbeat progress is a no-op, so
    /// calling this from a hot driver loop costs nothing — in particular it
    /// does not send empty frames to remote nodes.
    pub fn pump_invalidations(&self) {
        let latest = self.db.latest_timestamp();
        // Hold the receiver lock across the backend call: batches from
        // concurrent pumps must reach the cache nodes in commit order.
        let rx = self.invalidations.lock();
        let batch: Vec<InvalidationMessage> = rx.try_iter().collect();
        if batch.is_empty() && self.last_heartbeat.load(Ordering::Acquire) >= latest.as_u64() {
            return;
        }
        self.cache.apply_invalidations(&batch, latest);
        self.last_heartbeat
            .fetch_max(latest.as_u64(), Ordering::AcqRel);
        drop(rx);
    }

    /// Periodic maintenance: forwards invalidations, reaps old unused pinned
    /// snapshots (issuing `UNPIN` to the database), and evicts cache entries
    /// too stale for any current transaction to use.
    pub fn maintenance(&self) {
        self.pump_invalidations();
        for ts in self.pincushion.reap() {
            // The snapshot may already be gone if the database restarted; a
            // failed unpin is not an error for maintenance.
            let _ = self.db.unpin(SnapshotId(ts));
        }
        // Entries that ended before the oldest snapshot still tracked by the
        // pincushion can never satisfy any transaction again.
        let horizon: Timestamp = self
            .pincushion
            .oldest()
            .map_or_else(|| self.db.latest_timestamp(), |p| p.timestamp);
        self.cache.evict_stale(horizon);
    }

    pub(crate) fn mode(&self) -> CacheMode {
        self.config.mode
    }

    pub(crate) fn policy(&self) -> TimestampPolicy {
        self.config.policy
    }
}

impl std::fmt::Debug for TxCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxCache")
            .field("mode", &self.config.mode)
            .field("backend", &self.config.backend)
            .field("policy", &self.config.policy)
            .field("stats", &self.stats())
            .finish()
    }
}
