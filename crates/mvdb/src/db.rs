//! The database facade.
//!
//! [`Database`] ties the storage, planning, execution, transaction, pinning,
//! and invalidation machinery together behind the interface the TxCache
//! library needs (§5):
//!
//! * read/write transactions under snapshot isolation;
//! * read-only transactions that can run at pinned past snapshots
//!   (`PIN` / `UNPIN` / `BEGIN SNAPSHOTID`);
//! * per-query validity intervals and invalidation tags piggybacked on
//!   results;
//! * an ordered invalidation stream published at commit time;
//! * a vacuum process that respects pinned snapshots.
//!
//! # Concurrency model
//!
//! The engine no longer lives behind one mutex. State is split so that the
//! common read path — begin a read-only transaction, execute queries, commit
//! — takes no exclusive lock anywhere and only *shared* locks on the tables
//! it touches:
//!
//! * each table is an independent shard behind a reader/writer lock
//!   ([`TableShard`]); queries hold shared locks, DML and commit stamping
//!   hold exclusive locks;
//! * `latest` is an atomic: beginning a transaction at the latest snapshot
//!   and reading `latest_timestamp()` never block;
//! * commit timestamps are allocated under a small *commit sequencer* mutex
//!   held only by writers;
//! * in-flight transaction state lives in a registry sharded by transaction
//!   id, each transaction behind its own mutex, so two transactions only
//!   ever contend on a brief shard-map lookup;
//! * the buffer pool is hash-sharded ([`SharedBuffer`]) and the statistics
//!   counters are striped relaxed atomics ([`AtomicDbStats`]).
//!
//! Deadlock freedom comes from one global lock-order rule. Locks are only
//! ever acquired in this ascending order (any prefix may be skipped):
//!
//! 1. the table map (shared, briefly — exclusively only in `create_table`);
//! 2. table shard locks, **in sorted table-name order** (commit and abort
//!    lock every written table; join queries lock both sides; everything
//!    else locks one table at a time);
//! 3. the commit sequencer;
//! 4. the pin registry;
//! 5. transaction-registry shard maps;
//! 6. a single transaction's state mutex;
//! 7. the invalidation bus;
//! 8. buffer-pool shard mutexes (leaf).
//!
//! Commit stamps versions while holding the written tables' exclusive locks
//! *and* the sequencer, then advances `latest` and publishes the
//! invalidation message before releasing the sequencer — so the invalidation
//! stream is totally ordered by commit timestamp and a reader can never
//! observe a half-stamped transaction.
//!
//! Vacuum coordinates with the lock-free begin path through a sequence
//! counter (`begin_epoch`): it computes its horizon — under the sequencer,
//! the pin registry, and the registry shards — with the epoch odd, and a
//! transaction beginning at `latest` re-checks the epoch after registering,
//! retrying if a vacuum horizon computation overlapped. The horizon is
//! recorded as a watermark (new pins below it are refused) before tables are
//! swept one at a time.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{Histogram, MetricsSnapshot, Registry, StripedCounter as ObsCounter};

use crossbeam::channel::Receiver;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use txtypes::{
    Error, InvalidationTag, Result, SimClock, TagSet, Timestamp, ValidityInterval, WallClock,
};

use crate::buffer::{BufferStats, SharedBuffer};
use crate::exec::{execute_plan, matching_slots, ExecOptions, PageCounts, QueryResult};
use crate::invalidation::{InvalidationBus, InvalidationMessage};
use crate::plan::{keyed_tag, plan_query, AccessPath, QueryPlan};
use crate::query::{Predicate, SelectQuery};
use crate::schema::TableSchema;
use crate::snapshot::{PinRegistry, SnapshotId};
use crate::stats::{AtomicDbStats, DbStats, ShardStats, StripedCounter};
use crate::table::{Slot, Table};
use crate::tuple::{Stamp, TupleVersion, TxnId};
use crate::txn::{Transaction, TxnMode, TxnToken};
use crate::value::Value;
use crate::wal::codec::{encode_record, scan_wal, WalCommit, WalOp, WalRecord};
use crate::wal::log::{crashed_err, CrashPoint, FsyncPolicy, WalLog};
use crate::wal::snapshot_file::{self, SnapshotImage, SnapshotTable, SnapshotVersion};
use crate::wal::{self, RecoverOptions, RecoveryReport};
use wire::sim::{fnv1a, FNV_OFFSET};

/// Static configuration of a [`Database`].
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Size of the simulated buffer pool in pages. Together with the dataset
    /// size this determines whether the configuration behaves "in-memory" or
    /// "disk-bound".
    pub buffer_pages: usize,
    /// Tuples per simulated heap page.
    pub rows_per_page: usize,
    /// If a single transaction modifies at least this many rows of one table,
    /// its keyed tags for that table are collapsed into a wildcard (§5.3).
    pub wildcard_threshold: usize,
    /// Database-side TxCache support (validity tracking + invalidation tags).
    /// Disabling it models the stock DBMS baseline of §8.1.
    pub exec: ExecOptions,
    /// When (and whether) commits wait for the write-ahead log to fsync.
    /// Only consulted when the database is opened durably
    /// ([`Database::recover`] / [`Database::open_durable`]); in-memory
    /// databases ignore it.
    pub fsync: FsyncPolicy,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pages: 1 << 16,
            rows_per_page: 32,
            wildcard_threshold: 64,
            exec: ExecOptions::default(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// One table's storage behind its own reader/writer lock, with counters that
/// make lock contention observable (`mvdb::stats::ShardStats`).
struct TableShard {
    data: RwLock<Table>,
    read_locks: StripedCounter,
    write_locks: StripedCounter,
    read_waits: StripedCounter,
    write_waits: StripedCounter,
}

impl TableShard {
    fn new(table: Table) -> TableShard {
        TableShard {
            data: RwLock::new(table),
            read_locks: StripedCounter::default(),
            write_locks: StripedCounter::default(),
            read_waits: StripedCounter::default(),
            write_waits: StripedCounter::default(),
        }
    }

    /// Takes the shared lock, counting the acquisition and whether it had to
    /// wait behind a writer.
    fn read(&self) -> RwLockReadGuard<'_, Table> {
        self.read_locks.bump();
        if let Some(guard) = self.data.try_read() {
            return guard;
        }
        self.read_waits.bump();
        self.data.read()
    }

    /// Takes the exclusive lock, counting the acquisition and whether it had
    /// to wait.
    fn write(&self) -> RwLockWriteGuard<'_, Table> {
        self.write_locks.bump();
        if let Some(guard) = self.data.try_write() {
            return guard;
        }
        self.write_waits.bump();
        self.data.write()
    }

    fn stats(&self, table: &str) -> ShardStats {
        ShardStats {
            table: table.to_string(),
            read_locks: self.read_locks.get(),
            write_locks: self.write_locks.get(),
            read_waits: self.read_waits.get(),
            write_waits: self.write_waits.get(),
        }
    }

    fn reset_stats(&self) {
        self.read_locks.reset();
        self.write_locks.reset();
        self.read_waits.reset();
        self.write_waits.reset();
    }
}

/// Number of shards the transaction registry is split into.
const TXN_SHARDS: usize = 32;

/// In-flight transaction state, sharded by transaction id. Each transaction
/// sits behind its own mutex; the shard maps are locked only for insert,
/// lookup, and remove.
struct TxnRegistry {
    shards: Vec<Mutex<HashMap<TxnId, Arc<Mutex<Transaction>>>>>,
}

impl TxnRegistry {
    fn new() -> TxnRegistry {
        TxnRegistry {
            shards: (0..TXN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, id: TxnId) -> &Mutex<HashMap<TxnId, Arc<Mutex<Transaction>>>> {
        &self.shards[(id as usize) % TXN_SHARDS]
    }

    fn insert(&self, id: TxnId, txn: Arc<Mutex<Transaction>>) {
        self.shard(id).lock().insert(id, txn);
    }

    fn get(&self, id: TxnId) -> Option<Arc<Mutex<Transaction>>> {
        self.shard(id).lock().get(&id).cloned()
    }

    fn remove(&self, id: TxnId) -> Option<Arc<Mutex<Transaction>>> {
        self.shard(id).lock().remove(&id)
    }

    /// The minimum snapshot over all in-flight transactions, if any.
    fn min_snapshot(&self) -> Option<Timestamp> {
        let mut min = None;
        for shard in &self.shards {
            for txn in shard.lock().values() {
                let snapshot = txn.lock().snapshot;
                min = Some(min.map_or(snapshot, |m: Timestamp| m.min(snapshot)));
            }
        }
        min
    }
}

/// Cached `db.plan.<path>` counter handles, one per access-path kind, so the
/// query hot path records planner decisions without touching the registry
/// lock. Labels come from [`AccessPath::label`].
struct PlanCounters {
    index_eq: Arc<ObsCounter>,
    index_in: Arc<ObsCounter>,
    index_range: Arc<ObsCounter>,
    index_ordered: Arc<ObsCounter>,
    index_endpoint: Arc<ObsCounter>,
    seq_scan: Arc<ObsCounter>,
}

impl PlanCounters {
    fn new(obs: &Registry) -> PlanCounters {
        PlanCounters {
            index_eq: obs.counter("db.plan.index_eq"),
            index_in: obs.counter("db.plan.index_in"),
            index_range: obs.counter("db.plan.index_range"),
            index_ordered: obs.counter("db.plan.index_ordered"),
            index_endpoint: obs.counter("db.plan.index_endpoint"),
            seq_scan: obs.counter("db.plan.seq_scan"),
        }
    }

    fn bump(&self, access: &AccessPath) {
        match access {
            AccessPath::IndexEq { .. } => &self.index_eq,
            AccessPath::IndexIn { .. } => &self.index_in,
            AccessPath::IndexRange { .. } => &self.index_range,
            AccessPath::IndexOrdered { .. } => &self.index_ordered,
            AccessPath::IndexEndpoint { .. } => &self.index_endpoint,
            AccessPath::SeqScan => &self.seq_scan,
        }
        .bump();
    }
}

/// A multiversion relational database with TxCache support.
pub struct Database {
    tables: RwLock<HashMap<String, TableShard>>,
    /// The latest committed timestamp; written only under `commit_lock`.
    latest: AtomicU64,
    /// Snapshots strictly below this may have been vacuumed; written only
    /// while holding the pin registry. New pins below it are refused.
    vacuum_watermark: AtomicU64,
    /// Seqlock-style counter coordinating lock-free begins with vacuum's
    /// horizon computation (odd while a computation is in progress).
    begin_epoch: AtomicU64,
    /// The commit sequencer: serializes timestamp allocation, version
    /// stamping, and invalidation publishing.
    commit_lock: Mutex<()>,
    next_txn_id: AtomicU64,
    pins: Mutex<PinRegistry>,
    txns: TxnRegistry,
    bus: Mutex<InvalidationBus>,
    buffer: SharedBuffer,
    stats: AtomicDbStats,
    /// Engine latency histograms (`db.commit.us`, `db.query.us`,
    /// `db.vacuum.us`) plus anything future subsystems register.
    obs: Registry,
    /// Cached handles so the hot paths never touch the registry lock.
    commit_us: Arc<Histogram>,
    query_us: Arc<Histogram>,
    vacuum_us: Arc<Histogram>,
    /// Time commits spend waiting for WAL durability (zero for in-memory
    /// databases).
    fsync_us: Arc<Histogram>,
    /// Per-access-path planner decision counters (`db.plan.<path>`).
    plan_counters: PlanCounters,
    /// The write-ahead log, present only when the database was opened
    /// durably. Appends happen under the commit sequencer; durability waits
    /// happen with no locks held.
    durability: Option<Arc<WalLog>>,
    /// The directory holding the WAL and snapshot files.
    durable_dir: Option<PathBuf>,
    /// What recovery did to produce this database, if it was recovered.
    recovery: Option<RecoveryReport>,
    /// Snapshot files written over this database's lifetime.
    snapshots_written: AtomicU64,
    config: DbConfig,
    clock: SimClock,
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new(config: DbConfig, clock: SimClock) -> Database {
        let obs = Registry::new();
        let commit_us = obs.histogram("db.commit.us");
        let query_us = obs.histogram("db.query.us");
        let vacuum_us = obs.histogram("db.vacuum.us");
        let fsync_us = obs.histogram("db.fsync.us");
        let plan_counters = PlanCounters::new(&obs);
        Database {
            tables: RwLock::new(HashMap::new()),
            latest: AtomicU64::new(Timestamp::ZERO.0),
            vacuum_watermark: AtomicU64::new(Timestamp::ZERO.0),
            begin_epoch: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
            next_txn_id: AtomicU64::new(1),
            pins: Mutex::new(PinRegistry::new()),
            txns: TxnRegistry::new(),
            bus: Mutex::new(InvalidationBus::new()),
            buffer: SharedBuffer::new(config.buffer_pages, SharedBuffer::DEFAULT_SHARDS),
            stats: AtomicDbStats::default(),
            obs,
            commit_us,
            query_us,
            vacuum_us,
            fsync_us,
            plan_counters,
            durability: None,
            durable_dir: None,
            recovery: None,
            snapshots_written: AtomicU64::new(0),
            config,
            clock,
        }
    }

    /// Creates a database with default configuration and a private clock;
    /// convenient in tests and examples.
    #[must_use]
    pub fn with_defaults() -> Database {
        Database::new(DbConfig::default(), SimClock::new())
    }

    /// The database's configuration.
    #[must_use]
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The simulated clock this database records commit times against.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    // ------------------------------------------------------------------
    // Internal lookup helpers
    // ------------------------------------------------------------------

    /// Fetches a transaction's state handle, holding its registry shard lock
    /// only for the lookup.
    fn txn_handle(&self, token: TxnToken) -> Result<Arc<Mutex<Transaction>>> {
        self.txns
            .get(token.0)
            .ok_or_else(|| Error::UnknownTransaction(format!("txn {}", token.0)))
    }

    /// Extracts the owned transaction state from a handle removed from the
    /// registry. A transaction is driven by one thread, so the `Arc` is
    /// normally unique; if a stray clone exists the state is swapped out from
    /// under its mutex instead.
    fn into_transaction(handle: Arc<Mutex<Transaction>>) -> Transaction {
        match Arc::try_unwrap(handle) {
            Ok(mutex) => mutex.into_inner(),
            Err(arc) => std::mem::replace(
                &mut *arc.lock(),
                Transaction::new(0, TxnMode::ReadOnly, Timestamp::ZERO),
            ),
        }
    }

    fn latest_ts(&self) -> Timestamp {
        Timestamp(self.latest.load(Ordering::Acquire))
    }

    // ------------------------------------------------------------------
    // Schema management and bulk loading
    // ------------------------------------------------------------------

    /// Creates a table. On a durable database the schema is logged and
    /// fsynced before this returns, so a table acknowledged as created can
    /// never vanish in a crash.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let name = schema.name.clone();
        let table = Table::new(schema.clone(), self.config.rows_per_page)?;
        {
            let mut tables = self.tables.write();
            if tables.contains_key(&name) {
                return Err(Error::Schema(format!("table '{name}' already exists")));
            }
            tables.insert(name.clone(), TableShard::new(table));
        }
        if let Some(log) = &self.durability {
            let appended = {
                let _seq = self.commit_lock.lock();
                log.append(&encode_record(&WalRecord::CreateTable(schema)))
            };
            match appended.and_then(|lsn| log.wait_durable(lsn)) {
                Ok(()) => {}
                Err(e) => {
                    self.tables.write().remove(&name);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Returns the names of all tables.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        let tables = self.tables.read();
        let mut names: Vec<String> = tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Returns a copy of a table's schema.
    pub fn table_schema(&self, table: &str) -> Result<TableSchema> {
        let tables = self.tables.read();
        let shard = Self::shard_of(&tables, table)?;
        let guard = shard.read();
        Ok(guard.schema().clone())
    }

    /// Approximate size of a table's data in bytes.
    pub fn table_bytes(&self, table: &str) -> Result<usize> {
        let tables = self.tables.read();
        let shard = Self::shard_of(&tables, table)?;
        let guard = shard.read();
        Ok(guard.approx_bytes())
    }

    /// Approximate size of the whole database in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        let tables = self.tables.read();
        tables.values().map(|s| s.read().approx_bytes()).sum()
    }

    fn shard_of<'a>(
        tables: &'a HashMap<String, TableShard>,
        table: &str,
    ) -> Result<&'a TableShard> {
        tables
            .get(table)
            .ok_or_else(|| Error::Schema(format!("no table '{table}'")))
    }

    /// Loads rows directly as committed data, bypassing the transaction
    /// machinery. All rows loaded by one call become visible atomically at a
    /// single new commit timestamp and publish no invalidations; this is the
    /// initial-population path used by the data generators.
    pub fn bulk_load(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<Vec<u64>> {
        let wal_lsn;
        let mut row_ids = Vec::with_capacity(rows.len());
        {
            let tables = self.tables.read();
            let shard = Self::shard_of(&tables, table)?;
            let mut t = shard.write();
            let _seq = self.commit_lock.lock();
            let commit_ts = self.latest_ts().next();
            let mut ops = self
                .durability
                .as_ref()
                .map(|_| Vec::with_capacity(rows.len()));
            for values in rows {
                let row_id = t.allocate_row_id();
                if let Some(ops) = &mut ops {
                    ops.push(WalOp::Insert {
                        table: table.to_string(),
                        row_id,
                        values: values.clone(),
                        self_deleted: false,
                    });
                }
                t.insert_version(TupleVersion::committed(row_id, values, commit_ts))?;
                row_ids.push(row_id);
            }
            // Bulk loads are commits with no invalidation tags: they log
            // their rows but publish nothing, matching the in-memory path.
            wal_lsn = match (&self.durability, ops) {
                (Some(log), Some(ops)) => {
                    Some(log.append(&encode_record(&WalRecord::Commit(WalCommit {
                        commit_ts,
                        committed_at: self.clock.now(),
                        tags: TagSet::new(),
                        ops,
                    })))?)
                }
                _ => None,
            };
            self.latest.store(commit_ts.0, Ordering::Release);
        }
        if let (Some(log), Some(lsn)) = (&self.durability, wal_lsn) {
            log.wait_durable(lsn)?;
        }
        Ok(row_ids)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Registers a new transaction running at the latest committed snapshot
    /// without taking any global lock. The epoch re-check makes the
    /// registration atomic with respect to vacuum's horizon computation: if
    /// one overlapped, the registration is retried (vacuum may not have seen
    /// it, but the retried one begins at a snapshot the sweep retains).
    fn register_at_latest(&self, mode: TxnMode) -> TxnToken {
        let id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        loop {
            let epoch = self.begin_epoch.load(Ordering::SeqCst);
            if epoch % 2 == 1 {
                // A vacuum horizon computation is in flight; yield so it can
                // finish even on an oversubscribed or single-CPU host.
                std::thread::yield_now();
                continue;
            }
            let snapshot = self.latest_ts();
            self.txns.insert(
                id,
                Arc::new(Mutex::new(Transaction::new(id, mode, snapshot))),
            );
            if self.begin_epoch.load(Ordering::SeqCst) == epoch {
                return TxnToken(id);
            }
            self.txns.remove(id);
        }
    }

    /// Begins a read/write transaction at the latest committed snapshot.
    pub fn begin_rw(&self) -> Result<TxnToken> {
        Ok(self.register_at_latest(TxnMode::ReadWrite))
    }

    /// Begins a read-only transaction. With `snapshot = None` it runs at the
    /// latest committed state; with `Some(id)` it runs at that pinned
    /// snapshot (the paper's `BEGIN SNAPSHOTID` syntax).
    pub fn begin_ro(&self, snapshot: Option<SnapshotId>) -> Result<TxnToken> {
        let Some(snap) = snapshot else {
            return Ok(self.register_at_latest(TxnMode::ReadOnly));
        };
        // Holding the pin registry across the check and the registration
        // excludes vacuum (which needs the registry to compute its horizon),
        // so the pinned snapshot cannot be reclaimed in between.
        let pins = self.pins.lock();
        let ts = snap.timestamp();
        if !pins.is_pinned(ts) && ts != self.latest_ts() {
            return Err(Error::SnapshotUnavailable(format!(
                "snapshot {snap} is not pinned"
            )));
        }
        let id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        self.txns.insert(
            id,
            Arc::new(Mutex::new(Transaction::new(id, TxnMode::ReadOnly, ts))),
        );
        drop(pins);
        Ok(TxnToken(id))
    }

    /// Commits a transaction. Read-only transactions simply return their
    /// snapshot timestamp; read/write transactions take the written tables'
    /// exclusive locks in sorted-name order, are assigned the next commit
    /// timestamp by the sequencer, have their versions stamped, and publish
    /// an invalidation message — all before the sequencer is released, so
    /// invalidations are delivered in commit-timestamp order.
    pub fn commit(&self, token: TxnToken) -> Result<Timestamp> {
        let t0 = Instant::now();
        let result = match self.commit_inner(token) {
            // The commit is stamped and published; wait for durability with
            // no database locks held, so concurrent commits pile into the
            // same group fsync.
            Ok((ts, Some(lsn))) => {
                let log = self.durability.as_ref().expect("lsn implies a wal").clone();
                let f0 = Instant::now();
                let wait = log.wait_durable(lsn);
                self.fsync_us.record(f0.elapsed().as_micros() as u64);
                wait.map(|()| ts)
            }
            Ok((ts, None)) => Ok(ts),
            Err(e) => Err(e),
        };
        self.commit_us.record(t0.elapsed().as_micros() as u64);
        result
    }

    fn commit_inner(&self, token: TxnToken) -> Result<(Timestamp, Option<u64>)> {
        let handle = self
            .txns
            .remove(token.0)
            .ok_or_else(|| Error::UnknownTransaction(format!("txn {}", token.0)))?;
        let tx = Self::into_transaction(handle);
        self.stats.commits.bump();
        if !tx.has_writes() {
            return Ok((tx.snapshot, None));
        }

        // Write locks on every touched table, in sorted-name order (the
        // deadlock-freedom rule).
        let tables = self.tables.read();
        let mut guards: Vec<(String, RwLockWriteGuard<'_, Table>)> = Vec::new();
        for name in tx.touched_tables() {
            if let Some(shard) = tables.get(&name) {
                let guard = shard.write();
                guards.push((name, guard));
            }
        }

        let _seq = self.commit_lock.lock();
        let commit_ts = self.latest_ts().next();

        // Stamp created and deleted versions with the commit timestamp.
        for (table, slot) in &tx.created_slots {
            if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                version.created = Stamp::Committed(commit_ts);
            }
        }
        for (table, slot) in &tx.deleted_slots {
            if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                if matches!(version.deleted, Some(Stamp::Pending(id)) if id == tx.id) {
                    version.deleted = Some(Stamp::Committed(commit_ts));
                }
            }
        }

        // Build the invalidation tag set, collapsing to wildcards for tables
        // with many modified rows. Built before `latest` advances because
        // the WAL record carries it: recovery rebuilds the invalidation
        // horizon from the same commit-ordered stream as the data.
        let mut tags = TagSet::new();
        if self.config.exec.track_validity {
            for tag in tx.pending_tags.iter() {
                let collapse = tx
                    .rows_modified
                    .get(&tag.table)
                    .is_some_and(|n| *n >= self.config.wildcard_threshold);
                if collapse {
                    tags.insert(InvalidationTag::wildcard(&tag.table));
                } else {
                    tags.insert(tag.clone());
                }
            }
        }
        let committed_at = self.clock.now();

        // Append to the WAL under the sequencer (log order = commit order)
        // before `latest` advances. If the append fails — only possible
        // after a simulated crash — the stamps are reverted so `commit_ts`
        // never leaks: the sequencer will hand the same timestamp to the
        // next commit, and a half-stamped transaction must not be visible.
        let mut wal_lsn = None;
        if let Some(log) = &self.durability {
            let mut ops = Vec::new();
            // Deletes first, so replay kills superseded versions before the
            // replacing inserts land.
            for (table, slot) in &tx.deleted_slots {
                if let Some(version) = Self::version_ref(&guards, table, *slot) {
                    if let Stamp::Committed(created_ts) = version.created {
                        if created_ts != commit_ts {
                            ops.push(WalOp::Delete {
                                table: table.clone(),
                                row_id: version.row_id,
                                created_ts,
                            });
                        }
                    }
                }
            }
            for (table, slot) in &tx.created_slots {
                if let Some(version) = Self::version_ref(&guards, table, *slot) {
                    ops.push(WalOp::Insert {
                        table: table.clone(),
                        row_id: version.row_id,
                        values: version.values.clone(),
                        self_deleted: matches!(
                            version.deleted,
                            Some(Stamp::Committed(ts)) if ts == commit_ts
                        ),
                    });
                }
            }
            let frame = encode_record(&WalRecord::Commit(WalCommit {
                commit_ts,
                committed_at,
                tags: tags.clone(),
                ops,
            }));
            match log.append(&frame) {
                Ok(lsn) => wal_lsn = Some(lsn),
                Err(e) => {
                    for (table, slot) in &tx.created_slots {
                        if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                            version.created = Stamp::Aborted;
                        }
                    }
                    for (table, slot) in &tx.deleted_slots {
                        if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                            if matches!(version.deleted, Some(Stamp::Committed(ts)) if ts == commit_ts)
                            {
                                version.deleted = None;
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }

        self.latest.store(commit_ts.0, Ordering::Release);

        // Publish before releasing the sequencer so the stream stays in
        // commit order.
        if self.config.exec.track_validity {
            let message = InvalidationMessage {
                timestamp: commit_ts,
                tags,
                committed_at,
            };
            self.bus.lock().publish(message);
            self.stats.invalidating_commits.bump();
        }
        Ok((commit_ts, wal_lsn))
    }

    /// Aborts a transaction, undoing any pending writes.
    pub fn abort(&self, token: TxnToken) -> Result<()> {
        let handle = self
            .txns
            .remove(token.0)
            .ok_or_else(|| Error::UnknownTransaction(format!("txn {}", token.0)))?;
        let tx = Self::into_transaction(handle);
        self.stats.aborts.bump();

        let tables = self.tables.read();
        let mut guards: Vec<(String, RwLockWriteGuard<'_, Table>)> = Vec::new();
        for name in tx.touched_tables() {
            if let Some(shard) = tables.get(&name) {
                let guard = shard.write();
                guards.push((name, guard));
            }
        }

        for (table, slot) in &tx.created_slots {
            if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                version.created = Stamp::Aborted;
            }
        }
        for (table, slot) in &tx.deleted_slots {
            if let Some(version) = Self::version_mut(&mut guards, table, *slot) {
                if matches!(version.deleted, Some(Stamp::Pending(id)) if id == tx.id) {
                    version.deleted = None;
                }
            }
        }
        Ok(())
    }

    /// Immutable version lookup under the already-held write guards; used to
    /// build WAL records after stamping.
    fn version_ref<'a, 'g>(
        guards: &'a [(String, RwLockWriteGuard<'g, Table>)],
        table: &str,
        slot: Slot,
    ) -> Option<&'a TupleVersion> {
        guards
            .iter()
            .find(|(name, _)| name == table)
            .and_then(|(_, guard)| guard.get(slot))
    }

    /// Looks up a version under the already-held write guards of a commit or
    /// abort.
    fn version_mut<'a, 'g>(
        guards: &'a mut [(String, RwLockWriteGuard<'g, Table>)],
        table: &str,
        slot: Slot,
    ) -> Option<&'a mut TupleVersion> {
        guards
            .iter_mut()
            .find(|(name, _)| name == table)
            .and_then(|(_, guard)| guard.get_mut(slot))
    }

    /// The latest committed timestamp.
    #[must_use]
    pub fn latest_timestamp(&self) -> Timestamp {
        self.latest_ts()
    }

    // ------------------------------------------------------------------
    // Pinned snapshots
    // ------------------------------------------------------------------

    /// Pins the latest committed snapshot (the `PIN` command) and returns its
    /// id together with the wall-clock time of the pin.
    pub fn pin_latest(&self) -> (SnapshotId, WallClock) {
        let mut pins = self.pins.lock();
        let id = pins.pin(self.latest_ts());
        self.stats.pins.bump();
        (id, self.clock.now())
    }

    /// Pins a specific snapshot timestamp; it must still be retained (i.e. at
    /// or after the current vacuum horizon).
    pub fn pin(&self, ts: Timestamp) -> Result<SnapshotId> {
        let mut pins = self.pins.lock();
        if ts > self.latest_ts() {
            return Err(Error::SnapshotUnavailable(format!(
                "timestamp {ts} is in the future"
            )));
        }
        if ts.0 < self.vacuum_watermark.load(Ordering::Acquire) {
            return Err(Error::SnapshotUnavailable(format!(
                "timestamp {ts} is below the vacuum horizon"
            )));
        }
        self.stats.pins.bump();
        Ok(pins.pin(ts))
    }

    /// Releases a pinned snapshot (the `UNPIN` command).
    pub fn unpin(&self, id: SnapshotId) -> Result<()> {
        self.stats.unpins.bump();
        self.pins.lock().unpin(id)
    }

    /// Currently pinned snapshot timestamps, oldest first.
    #[must_use]
    pub fn pinned_snapshots(&self) -> Vec<Timestamp> {
        self.pins.lock().pinned_timestamps()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Executes a SELECT query within a transaction. The result carries the
    /// validity interval and invalidation tags described in §5.2–§5.3.
    ///
    /// Queries take only *shared* table locks (in sorted-name order when a
    /// join touches two tables), so any number of them run in parallel.
    pub fn query(&self, token: TxnToken, query: &SelectQuery) -> Result<QueryResult> {
        let t0 = Instant::now();
        let result = self.query_inner(token, query);
        self.query_us.record(t0.elapsed().as_micros() as u64);
        result
    }

    /// Plans `query` without executing it, so tests and diagnostics can
    /// assert which access path a query takes (e.g. "no hot query plans a
    /// `SeqScan`"). Takes the same shared table locks as `query`.
    pub fn plan_for(&self, query: &SelectQuery) -> Result<QueryPlan> {
        self.with_query_tables(query, |outer, inner| plan_query(query, outer, inner))
    }

    /// Runs `f` on the table(s) `query` reads — the outer table and, for a
    /// join, the inner one — under shared locks taken in sorted table-name
    /// order (the lock-order rule).
    fn with_query_tables<R>(
        &self,
        query: &SelectQuery,
        f: impl FnOnce(&Table, Option<&Table>) -> Result<R>,
    ) -> Result<R> {
        let tables = self.tables.read();
        let outer_shard = Self::shard_of(&tables, &query.table)?;
        match &query.join {
            Some(join) if join.table != query.table => {
                let inner_shard = Self::shard_of(&tables, &join.table)?;
                if query.table <= join.table {
                    let outer = outer_shard.read();
                    let inner = inner_shard.read();
                    f(&outer, Some(&inner))
                } else {
                    let inner = inner_shard.read();
                    let outer = outer_shard.read();
                    f(&outer, Some(&inner))
                }
            }
            // Self-join: one shared lock serves both sides.
            Some(_) => {
                let guard = outer_shard.read();
                f(&guard, Some(&guard))
            }
            None => f(&outer_shard.read(), None),
        }
    }

    fn query_inner(&self, token: TxnToken, query: &SelectQuery) -> Result<QueryResult> {
        let (snapshot, me) = {
            let handle = self.txn_handle(token)?;
            let tx = handle.lock();
            (tx.snapshot, Some(tx.id))
        };
        let result = self.with_query_tables(query, |outer, inner| {
            let plan = plan_query(query, outer, inner)?;
            self.plan_counters.bump(&plan.access);
            let opts = &self.config.exec;
            execute_plan(&plan, outer, inner, snapshot, me, &self.buffer, opts)
        })?;
        self.stats.queries.bump();
        Ok(result)
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Copies the identifying fields of a transaction and checks it may
    /// write.
    fn writable_txn_info(handle: &Arc<Mutex<Transaction>>) -> Result<(TxnId, Timestamp)> {
        let tx = handle.lock();
        if tx.mode != TxnMode::ReadWrite {
            return Err(Error::InvalidState(
                "write attempted in a read-only transaction".into(),
            ));
        }
        Ok((tx.id, tx.snapshot))
    }

    /// Inserts a row in a read/write transaction. Returns the new row id.
    pub fn insert(&self, token: TxnToken, table: &str, values: Vec<Value>) -> Result<u64> {
        let handle = self.txn_handle(token)?;
        let (txid, _) = Self::writable_txn_info(&handle)?;
        let tables = self.tables.read();
        let shard = Self::shard_of(&tables, table)?;
        let mut t = shard.write();
        let row_id = t.allocate_row_id();
        let version = TupleVersion::pending(row_id, values.clone(), txid);
        let slot = t.insert_version(version)?;
        let mut tx = handle.lock();
        Self::collect_tags_for_values(&t, &values, &mut tx.pending_tags);
        tx.created_slots.push((table.to_string(), slot));
        tx.written_rows.push((table.to_string(), row_id));
        tx.note_row_modified(table);
        drop(tx);
        self.stats.inserts.bump();
        Ok(row_id)
    }

    /// Updates all rows of `table` matching `predicate`, applying the
    /// `assignments` (column, new value) list. Returns the number of rows
    /// updated.
    pub fn update(
        &self,
        token: TxnToken,
        table: &str,
        predicate: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<usize> {
        let updated = self.write_matching(token, table, predicate, Some(assignments))?;
        self.stats.updates.add(updated as u64);
        Ok(updated)
    }

    /// Deletes all rows of `table` matching `predicate`. Returns the number
    /// of rows deleted.
    pub fn delete(&self, token: TxnToken, table: &str, predicate: &Predicate) -> Result<usize> {
        let deleted = self.write_matching(token, table, predicate, None)?;
        self.stats.deletes.add(deleted as u64);
        Ok(deleted)
    }

    /// UPDATE (with `assignments`) or DELETE (without) of every row of
    /// `table` the transaction can see that matches `predicate`. Targets are
    /// located the way a SELECT with that predicate would locate them (same
    /// access path, same page charges); each is marked deleted by this
    /// transaction and, for an update, superseded by a new pending version.
    fn write_matching(
        &self,
        token: TxnToken,
        table: &str,
        predicate: &Predicate,
        assignments: Option<&[(String, Value)]>,
    ) -> Result<usize> {
        let handle = self.txn_handle(token)?;
        let (txid, snapshot) = Self::writable_txn_info(&handle)?;
        let tables = self.tables.read();
        let shard = Self::shard_of(&tables, table)?;
        let mut t = shard.write();

        let opts = &self.config.exec;
        let targets = matching_slots(&t, predicate, snapshot, txid, &self.buffer, opts)?;
        let mut tx = handle.lock();
        for &slot in &targets {
            self.check_write_conflict(&t, slot, snapshot, txid)?;
            let old = t
                .get(slot)
                .ok_or_else(|| Error::Query("target row vanished".into()))?;
            let (row_id, old_values) = (old.row_id, old.values.clone());
            let mut new_values = None;
            if let Some(assignments) = assignments {
                let values = new_values.insert(old_values.clone());
                for (column, value) in assignments {
                    values[t.schema().column_index(column)?] = value.clone();
                }
            }
            if let Some(v) = t.get_mut(slot) {
                v.deleted = Some(Stamp::Pending(txid));
            }
            Self::collect_tags_for_values(&t, &old_values, &mut tx.pending_tags);
            tx.deleted_slots.push((table.to_string(), slot));
            if let Some(new_values) = new_values {
                Self::collect_tags_for_values(&t, &new_values, &mut tx.pending_tags);
                let new_slot = t.insert_version(TupleVersion::pending(row_id, new_values, txid))?;
                tx.created_slots.push((table.to_string(), new_slot));
            }
            tx.written_rows.push((table.to_string(), row_id));
            tx.note_row_modified(table);
        }
        Ok(targets.len())
    }

    // ------------------------------------------------------------------
    // Invalidations, vacuum, statistics
    // ------------------------------------------------------------------

    /// Subscribes to the invalidation stream. Each committed read/write
    /// transaction produces one message, delivered in commit order.
    pub fn subscribe_invalidations(&self) -> Receiver<InvalidationMessage> {
        self.bus.lock().subscribe()
    }

    /// The ordered log of all invalidation messages published so far.
    #[must_use]
    pub fn invalidation_log(&self) -> Vec<InvalidationMessage> {
        self.bus.lock().log().to_vec()
    }

    /// Reclaims tuple versions that are invisible to every pinned snapshot
    /// and every active transaction. Returns the number of versions removed.
    ///
    /// The horizon is computed atomically against the sequencer, pins, and
    /// transaction registry (with the begin epoch odd so lock-free begins
    /// retry), then recorded as the vacuum watermark — pins below it are
    /// refused from then on — before tables are swept one at a time.
    pub fn vacuum(&self) -> usize {
        let t0 = Instant::now();
        let removed = self.vacuum_inner();
        self.vacuum_us.record(t0.elapsed().as_micros() as u64);
        removed
    }

    fn vacuum_inner(&self) -> usize {
        let horizon = {
            let _seq = self.commit_lock.lock();
            let _pins = self.pins.lock();
            self.begin_epoch.fetch_add(1, Ordering::SeqCst);
            let mut horizon = _pins.horizon(self.latest_ts());
            if let Some(min) = self.txns.min_snapshot() {
                horizon = horizon.min(min);
            }
            let previous = self.vacuum_watermark.load(Ordering::Acquire);
            let watermark = previous.max(horizon.0);
            self.vacuum_watermark.store(watermark, Ordering::Release);
            self.begin_epoch.fetch_add(1, Ordering::SeqCst);
            // Log the advanced watermark (still under the sequencer) so a
            // recovered database keeps refusing pins below it. No durability
            // wait: losing the record in a crash just replays the older,
            // more permissive watermark, which is safe because replay also
            // reconstructs the swept versions.
            if watermark > previous {
                if let Some(log) = &self.durability {
                    let _ = log.append(&encode_record(&WalRecord::VacuumWatermark(Timestamp(
                        watermark,
                    ))));
                }
            }
            horizon
        };

        let tables = self.tables.read();
        let mut removed = 0;
        for shard in tables.values() {
            let mut table = shard.write();
            let garbage: Vec<Slot> = table
                .scan_slots()
                .filter(|slot| {
                    table
                        .get(*slot)
                        .is_some_and(|v| v.is_garbage_before(horizon))
                })
                .collect();
            for slot in garbage {
                table.remove_slot(slot);
                removed += 1;
            }
        }
        self.stats.vacuumed_versions.add(removed as u64);
        removed
    }

    /// Buffer-pool statistics (simulated page hits and misses).
    #[must_use]
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffer.stats()
    }

    /// Resets the buffer-pool statistics (keeps the pool warm).
    pub fn reset_buffer_stats(&self) {
        self.buffer.reset_stats();
    }

    /// Database operation counters.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        let mut stats = self.stats.snapshot();
        if let Some(log) = &self.durability {
            stats.wal_appends = log.appends();
            stats.wal_fsyncs = log.fsyncs();
        }
        stats.snapshots_written = self.snapshots_written.load(Ordering::Relaxed);
        stats
    }

    /// The engine's latency metrics: `db.commit.us`, `db.query.us`, and
    /// `db.vacuum.us` histograms (microseconds, mergeable log2 buckets).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Per-table lock-contention counters, sorted by table name. A rising
    /// wait fraction on a shard is the early-warning signal that the
    /// workload has outgrown that table's reader/writer lock.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let tables = self.tables.read();
        let mut out: Vec<ShardStats> = tables
            .iter()
            .map(|(name, shard)| shard.stats(name))
            .collect();
        out.sort_by(|a, b| a.table.cmp(&b.table));
        out
    }

    /// Resets the per-table lock counters, so a measurement window (e.g.
    /// after benchmark warmup) excludes load and warmup activity.
    pub fn reset_shard_stats(&self) {
        let tables = self.tables.read();
        for shard in tables.values() {
            shard.reset_stats();
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Eager first-updater-wins conflict detection: fail (and count a
    /// serialization failure) if any other transaction has a pending write on
    /// the row, or if a newer committed version exists than the writer's
    /// snapshot.
    fn check_write_conflict(
        &self,
        table: &Table,
        slot: Slot,
        snapshot: Timestamp,
        txid: TxnId,
    ) -> Result<()> {
        let Some(version) = table.get(slot) else {
            return Ok(());
        };
        for other_slot in table.versions_of_row(version.row_id) {
            let Some(v) = table.get(*other_slot) else {
                continue;
            };
            let pending_by_other = matches!(v.created, Stamp::Pending(id) if id != txid)
                || matches!(v.deleted, Some(Stamp::Pending(id)) if id != txid);
            let newer_commit = v.created.committed_at().is_some_and(|ts| ts > snapshot)
                || v.deleted
                    .and_then(|s| s.committed_at())
                    .is_some_and(|ts| ts > snapshot);
            let conflict = if pending_by_other {
                "has an uncommitted change from another transaction"
            } else if newer_commit {
                "was modified after this transaction's snapshot"
            } else {
                continue;
            };
            self.stats.serialization_failures.bump();
            let (row, name) = (version.row_id, &table.schema().name);
            let message = format!("row {row} in '{name}' {conflict}");
            return Err(Error::SerializationFailure(message));
        }
        Ok(())
    }

    /// Adds one keyed tag per index of `table` for the given row values
    /// ("each tuple added, deleted, or modified yields one invalidation tag
    /// for each index it is listed in", §5.3).
    fn collect_tags_for_values(table: &Table, values: &[Value], tags: &mut TagSet) {
        let schema = table.schema();
        for index in &schema.indexes {
            if let Ok(idx) = schema.column_index(&index.column) {
                if !values[idx].is_null() {
                    tags.insert(keyed_tag(&schema.name, &index.column, &values[idx]));
                }
            }
        }
    }
}

/// Convenience bundle returned by [`Database::query_ro_once`]: the result of
/// a single query run in its own read-only transaction.
#[derive(Debug, Clone)]
pub struct OneShotQuery {
    /// The query result (rows, validity, tags, page counts).
    pub result: QueryResult,
    /// The snapshot the query ran at.
    pub snapshot: Timestamp,
}

impl Database {
    /// Runs one query in a fresh read-only transaction at the latest
    /// snapshot. Convenient for tests and tools; the TxCache library manages
    /// its transactions explicitly instead.
    pub fn query_ro_once(&self, query: &SelectQuery) -> Result<OneShotQuery> {
        let token = self.begin_ro(None)?;
        let result = self.query(token, query);
        let snapshot = self.commit(token)?;
        Ok(OneShotQuery {
            result: result?,
            snapshot,
        })
    }
}

// ----------------------------------------------------------------------
// Durability: recovery, snapshots, crash simulation
// ----------------------------------------------------------------------

impl Database {
    /// Opens (creating if necessary) a durable database in `dir`: loads the
    /// newest valid snapshot, replays the WAL tail, truncates any torn
    /// tail, and attaches a write-ahead log with the configured fsync
    /// policy. On an empty directory this is a durable cold start.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: DbConfig,
        clock: SimClock,
    ) -> Result<Database> {
        Self::recover(dir, config, clock)
    }

    /// Recovers a durable database from `dir`. See
    /// [`Database::recovery_report`] for what was found.
    pub fn recover(dir: impl AsRef<Path>, config: DbConfig, clock: SimClock) -> Result<Database> {
        Self::recover_with(dir, config, clock, RecoverOptions::default())
    }

    /// [`Database::recover`] with fault-injection knobs (test-only).
    pub fn recover_with(
        dir: impl AsRef<Path>,
        config: DbConfig,
        clock: SimClock,
        opts: RecoverOptions,
    ) -> Result<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Serialization(format!("recover io (mkdir): {e}")))?;
        let loaded = wal::load_dir(dir)?;
        let mut db = Database::new(config, clock);

        let mut latest = Timestamp::ZERO;
        let mut watermark = Timestamp::ZERO;
        let mut invalidations: Vec<InvalidationMessage> = Vec::new();
        let snapshot_ts = loaded.snapshot.as_ref().map(|s| s.snapshot_ts);

        if let Some(image) = &loaded.snapshot {
            latest = image.snapshot_ts;
            watermark = image.vacuum_watermark;
            invalidations = image.invalidations.clone();
            let mut tables = db.tables.write();
            for snap_table in &image.tables {
                let mut table = Table::new(snap_table.schema.clone(), config.rows_per_page)?;
                for v in &snap_table.versions {
                    let mut version =
                        TupleVersion::committed(v.row_id, v.values.clone(), v.created_ts);
                    version.deleted = v.deleted_ts.map(Stamp::Committed);
                    table.insert_version(version)?;
                }
                table.ensure_next_row_id(snap_table.next_row_id);
                tables.insert(snap_table.schema.name.clone(), TableShard::new(table));
            }
        }

        let mut replayed = 0usize;
        let mut skipped = 0usize;
        {
            let mut tables = db.tables.write();
            for record in &loaded.records {
                match record {
                    WalRecord::CreateTable(schema) => {
                        // Compaction drops CreateTable records once a
                        // snapshot carries the schema, so a surviving record
                        // may duplicate a snapshot table: create only if
                        // missing.
                        if !tables.contains_key(&schema.name) {
                            tables.insert(
                                schema.name.clone(),
                                TableShard::new(Table::new(schema.clone(), config.rows_per_page)?),
                            );
                        }
                    }
                    WalRecord::VacuumWatermark(ts) => watermark = watermark.max(*ts),
                    WalRecord::Commit(c) => {
                        if snapshot_ts.is_some_and(|s| c.commit_ts <= s) {
                            skipped += 1;
                            continue;
                        }
                        Self::apply_replayed_commit(&tables, c)?;
                        latest = latest.max(c.commit_ts);
                        if !c.tags.is_empty() {
                            invalidations.push(InvalidationMessage {
                                timestamp: c.commit_ts,
                                tags: c.tags.clone(),
                                committed_at: c.committed_at,
                            });
                        }
                        replayed += 1;
                    }
                }
            }
        }

        db.latest.store(latest.0, Ordering::Release);
        db.vacuum_watermark.store(watermark.0, Ordering::Release);
        if !opts.skip_horizon_rebuild_for_fault_injection {
            db.bus.lock().restore(invalidations);
        }

        let log = WalLog::open(dir, config.fsync, loaded.wal_valid_len)?;
        db.durability = Some(Arc::new(log));
        db.durable_dir = Some(dir.to_path_buf());
        db.recovery = Some(RecoveryReport {
            snapshot_ts,
            snapshots_skipped: loaded.snapshots_skipped,
            replayed_commits: replayed,
            skipped_commits: skipped,
            truncated_bytes: loaded.truncated_bytes,
            recovered_latest: latest,
            recovered_watermark: watermark,
        });
        Ok(db)
    }

    /// Applies one replayed WAL commit: deletes first (so superseded
    /// versions die before their replacements land), then inserts.
    fn apply_replayed_commit(tables: &HashMap<String, TableShard>, c: &WalCommit) -> Result<()> {
        for op in &c.ops {
            if let WalOp::Delete {
                table,
                row_id,
                created_ts,
            } = op
            {
                let shard = Self::shard_of(tables, table)?;
                let mut t = shard.write();
                let slots: Vec<Slot> = t.versions_of_row(*row_id).to_vec();
                let target = slots.into_iter().find(|&slot| {
                    t.get(slot).is_some_and(|v| {
                        matches!(v.created, Stamp::Committed(ts) if ts == *created_ts)
                            && v.deleted.is_none()
                    })
                });
                if let Some(slot) = target {
                    if let Some(v) = t.get_mut(slot) {
                        v.deleted = Some(Stamp::Committed(c.commit_ts));
                    }
                }
            }
        }
        for op in &c.ops {
            if let WalOp::Insert {
                table,
                row_id,
                values,
                self_deleted,
            } = op
            {
                let shard = Self::shard_of(tables, table)?;
                let mut t = shard.write();
                let mut version = TupleVersion::committed(*row_id, values.clone(), c.commit_ts);
                if *self_deleted {
                    version.deleted = Some(Stamp::Committed(c.commit_ts));
                }
                t.insert_version(version)?;
                t.ensure_next_row_id(*row_id + 1);
            }
        }
        Ok(())
    }

    /// Whether this database carries a write-ahead log.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The directory holding this database's WAL and snapshots, if durable.
    #[must_use]
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable_dir.as_deref()
    }

    /// What recovery did to produce this database, if it was recovered.
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Bytes currently in the write-ahead log (zero when in-memory). The
    /// background snapshotter uses this as its compaction trigger.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.durability.as_ref().map_or(0, |log| log.written_len())
    }

    /// The timestamp of the newest invalidation the bus has seen — after
    /// recovery, the horizon reconnecting caches seal their unbounded
    /// entries at.
    #[must_use]
    pub fn invalidation_horizon(&self) -> Option<Timestamp> {
        self.bus.lock().last_timestamp()
    }

    /// Arms a test-only crash point on the WAL; the next operation reaching
    /// that stage simulates power loss.
    pub fn set_crash_point(&self, point: CrashPoint) {
        if let Some(log) = &self.durability {
            log.arm_crash_point(point);
        }
    }

    /// Pulls the plug (test-only): un-fsynced WAL bytes are discarded and
    /// every subsequent durable operation fails. The in-memory state is left
    /// as-is but unreachable through any durable path — recover from the
    /// directory to get the survivor's view.
    pub fn simulate_crash(&self) {
        if let Some(log) = &self.durability {
            log.crash();
        }
    }

    /// True once a simulated crash has fired.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.durability.as_ref().is_some_and(|log| log.is_crashed())
    }

    /// Writes a snapshot of the current committed state (version store +
    /// invalidation horizon) and compacts the WAL down to the records the
    /// snapshot does not cover. Returns the snapshot file path.
    ///
    /// The capture is consistent at a single timestamp without blocking
    /// writers: the timestamp is fixed under the commit sequencer, then
    /// tables are walked one at a time under shared locks, including only
    /// versions committed at or before it.
    pub fn snapshot_now(&self) -> Result<PathBuf> {
        let log = self
            .durability
            .as_ref()
            .ok_or_else(|| Error::InvalidState("snapshot_now on a non-durable database".into()))?
            .clone();
        if log.is_crashed() {
            return Err(crashed_err());
        }
        let dir = self.durable_dir.as_ref().expect("durable dir").clone();

        let (snap_ts, watermark) = {
            let _seq = self.commit_lock.lock();
            (
                self.latest_ts(),
                Timestamp(self.vacuum_watermark.load(Ordering::Acquire)),
            )
        };
        let invalidations: Vec<InvalidationMessage> = self
            .bus
            .lock()
            .log()
            .iter()
            .filter(|m| m.timestamp <= snap_ts)
            .cloned()
            .collect();

        let mut image_tables = Vec::new();
        {
            let tables = self.tables.read();
            let mut names: Vec<&String> = tables.keys().collect();
            names.sort();
            for name in names {
                let t = tables[name].read();
                let mut versions = Vec::new();
                for slot in t.scan_slots() {
                    let Some(v) = t.get(slot) else { continue };
                    // Pending and aborted stamps never reach disk: the
                    // snapshot is consistent as of `snap_ts`.
                    let Stamp::Committed(created_ts) = v.created else {
                        continue;
                    };
                    if created_ts > snap_ts {
                        continue;
                    }
                    let deleted_ts = match v.deleted {
                        Some(Stamp::Committed(ts)) if ts <= snap_ts => Some(ts),
                        _ => None,
                    };
                    versions.push(SnapshotVersion {
                        row_id: v.row_id,
                        created_ts,
                        deleted_ts,
                        values: v.values.clone(),
                    });
                }
                image_tables.push(SnapshotTable {
                    schema: t.schema().clone(),
                    next_row_id: t.next_row_id(),
                    versions,
                });
            }
        }
        let image = SnapshotImage {
            snapshot_ts: snap_ts,
            vacuum_watermark: watermark,
            invalidations,
            tables: image_tables,
        };

        let crash_mid = log.take_crash_point(CrashPoint::MidSnapshot);
        let written = snapshot_file::write_snapshot(&dir, &image, crash_mid);
        if crash_mid {
            log.crash();
            return Err(crashed_err());
        }
        let path = written?;
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        if log.take_crash_point(CrashPoint::PostSnapshotPreTruncate) {
            log.crash();
            return Err(crashed_err());
        }

        // Rotate first, then compact — and compact only down to the *oldest
        // retained* snapshot, not the one just written. Recovery falls back
        // past a corrupt newest snapshot to the older one, so the WAL must
        // keep every record the fallback does not cover; compacting to the
        // new snapshot's timestamp would leave that fallback with a hole
        // (commits between the two snapshots) it could never fill.
        let _ = snapshot_file::prune_snapshots(&dir, 2);
        let mut floor_ts = snap_ts;
        let mut floor_tables: Vec<String> =
            image.tables.iter().map(|t| t.schema.name.clone()).collect();
        let mut floor_watermark = watermark;
        if let Ok(retained) = snapshot_file::list_snapshots(&dir) {
            if let Some((older_ts, older_path)) = retained.last().filter(|(ts, _)| *ts < snap_ts) {
                // Re-reading verifies the fallback end to end; a corrupt
                // fallback snapshot buys nothing, so drop it and keep the
                // floor at the snapshot just written.
                match snapshot_file::read_snapshot(older_path) {
                    Ok(older) => {
                        floor_ts = *older_ts;
                        floor_tables = older.tables.iter().map(|t| t.schema.name.clone()).collect();
                        floor_watermark = older.vacuum_watermark;
                    }
                    Err(_) => {
                        let _ = std::fs::remove_file(older_path);
                    }
                }
            }
        }

        // Compact the WAL down to what the floor snapshot does not cover.
        // Under the sequencer so no append interleaves with the rewrite.
        {
            let _seq = self.commit_lock.lock();
            let bytes = std::fs::read(dir.join(wal::WAL_FILE))
                .map_err(|e| Error::Serialization(format!("wal io (compact read): {e}")))?;
            let scan = scan_wal(&bytes)?;
            let mut kept = Vec::new();
            for record in &scan.records {
                let keep = match record {
                    WalRecord::Commit(c) => c.commit_ts > floor_ts,
                    WalRecord::CreateTable(schema) => !floor_tables.contains(&schema.name),
                    WalRecord::VacuumWatermark(ts) => *ts > floor_watermark,
                };
                if keep {
                    kept.extend_from_slice(&encode_record(record));
                }
            }
            log.compact_to(&kept)?;
        }
        Ok(path)
    }

    /// A deterministic digest of the committed state: `latest`, the vacuum
    /// watermark, every table's schema and committed versions, and the
    /// invalidation horizon. Two databases with equal digests are
    /// indistinguishable to clients; used to assert recovery idempotence.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.latest_ts().0.to_le_bytes());
        fnv1a(
            &mut h,
            &self.vacuum_watermark.load(Ordering::Acquire).to_le_bytes(),
        );
        let tables = self.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for name in names {
            let t = tables[name].read();
            fnv1a(&mut h, name.as_bytes());
            fnv1a(&mut h, format!("{:?}", t.schema()).as_bytes());
            fnv1a(&mut h, &t.next_row_id().to_le_bytes());
            let mut versions: Vec<(u64, u64, u64, String)> = t
                .scan_slots()
                .filter_map(|slot| t.get(slot))
                .filter_map(|v| {
                    let Stamp::Committed(created) = v.created else {
                        return None;
                    };
                    let deleted = match v.deleted {
                        Some(Stamp::Committed(ts)) => ts.0,
                        _ => u64::MAX,
                    };
                    let rendered = v
                        .values
                        .iter()
                        .map(Value::render_key)
                        .collect::<Vec<_>>()
                        .join("\u{1f}");
                    Some((v.row_id, created.0, deleted, rendered))
                })
                .collect();
            versions.sort();
            for (row_id, created, deleted, rendered) in versions {
                fnv1a(&mut h, &row_id.to_le_bytes());
                fnv1a(&mut h, &created.to_le_bytes());
                fnv1a(&mut h, &deleted.to_le_bytes());
                fnv1a(&mut h, rendered.as_bytes());
            }
        }
        drop(tables);
        let bus = self.bus.lock();
        fnv1a(&mut h, &(bus.log().len() as u64).to_le_bytes());
        fnv1a(
            &mut h,
            &bus.last_timestamp()
                .unwrap_or(Timestamp::ZERO)
                .0
                .to_le_bytes(),
        );
        h
    }
}

/// Handle to a background snapshotter thread; signals it to stop and joins
/// it on drop (or via [`Snapshotter::stop`]).
pub struct Snapshotter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Snapshotter {
    /// Stops the snapshotter and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the background snapshotter: every `poll` interval it checks the
/// WAL's size, and once it reaches `wal_bytes_threshold` writes a snapshot
/// and compacts the log (the `aof_writer`/`spldb_saver` split: appends keep
/// flowing while compaction runs in the background). Snapshot errors are
/// swallowed — a failed background snapshot only means a longer replay.
pub fn spawn_snapshotter(
    db: &Arc<Database>,
    wal_bytes_threshold: u64,
    poll: Duration,
) -> Snapshotter {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread_db = Arc::clone(db);
    let handle = std::thread::spawn(move || {
        while !thread_stop.load(Ordering::Acquire) {
            if thread_db.is_crashed() {
                break;
            }
            if thread_db.wal_bytes() >= wal_bytes_threshold {
                let _ = thread_db.snapshot_now();
            }
            std::thread::sleep(poll);
        }
    });
    Snapshotter {
        stop,
        handle: Some(handle),
    }
}

#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Database>();
    check::<QueryResult>();
    check::<PageCounts>();
    check::<ValidityInterval>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Aggregate, CmpOp};
    use crate::value::ColumnType;

    fn users_schema() -> TableSchema {
        TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("rating", ColumnType::Int)
            .unique_index("id")
            .index("name")
    }

    fn setup() -> Database {
        let db = Database::with_defaults();
        db.create_table(users_schema()).unwrap();
        db.bulk_load(
            "users",
            (1..=10i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::text(format!("user{i}")),
                        Value::Int(0),
                    ]
                })
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn plan_counters_and_plan_for_track_access_paths() {
        let db = setup();
        let eq = SelectQuery::table("users").filter(Predicate::eq("id", 3i64));
        let inl = SelectQuery::table("users").filter(Predicate::in_list("id", [1i64, 2]));
        let ordered = SelectQuery::table("users")
            .order_by("id", crate::query::SortOrder::Desc)
            .limit(3);
        let endpoint = SelectQuery::table("users").aggregate(Aggregate::Max("id".into()));
        let scan = SelectQuery::table("users").filter(Predicate::eq("rating", 0i64));

        assert!(matches!(
            db.plan_for(&eq).unwrap().access,
            AccessPath::IndexEq { .. }
        ));
        assert!(matches!(
            db.plan_for(&inl).unwrap().access,
            AccessPath::IndexIn { .. }
        ));
        assert!(matches!(
            db.plan_for(&ordered).unwrap().access,
            AccessPath::IndexOrdered { .. }
        ));
        assert!(matches!(
            db.plan_for(&endpoint).unwrap().access,
            AccessPath::IndexEndpoint { .. }
        ));
        assert!(matches!(
            db.plan_for(&scan).unwrap().access,
            AccessPath::SeqScan
        ));

        for q in [&eq, &inl, &ordered, &endpoint, &scan] {
            db.query_ro_once(q).unwrap();
        }
        let m = db.metrics();
        for name in [
            "db.plan.index_eq",
            "db.plan.index_in",
            "db.plan.index_ordered",
            "db.plan.index_endpoint",
            "db.plan.seq_scan",
        ] {
            assert_eq!(m.counter(name), Some(1), "{name}");
        }
    }

    #[test]
    fn create_table_rejects_duplicates() {
        let db = Database::with_defaults();
        db.create_table(users_schema()).unwrap();
        assert!(db.create_table(users_schema()).is_err());
        assert_eq!(db.table_names(), vec!["users".to_string()]);
        assert!(db.table_schema("users").is_ok());
        assert!(db.table_schema("missing").is_err());
    }

    #[test]
    fn bulk_load_is_one_commit_and_visible() {
        let db = setup();
        assert_eq!(db.latest_timestamp(), Timestamp(1));
        let q = SelectQuery::table("users").aggregate(Aggregate::Count);
        let r = db.query_ro_once(&q).unwrap();
        assert_eq!(r.result.get(0, "count").unwrap(), &Value::Int(10));
        assert!(db.total_bytes() > 0);
        assert!(db.table_bytes("users").unwrap() > 0);
    }

    #[test]
    fn insert_commit_and_query_with_validity() {
        let db = setup();
        let tx = db.begin_rw().unwrap();
        db.insert(
            tx,
            "users",
            vec![Value::Int(11), Value::text("user11"), Value::Int(0)],
        )
        .unwrap();
        let commit_ts = db.commit(tx).unwrap();
        assert_eq!(commit_ts, Timestamp(2));

        let q = SelectQuery::table("users").filter(Predicate::eq("id", 11i64));
        let r = db.query_ro_once(&q).unwrap();
        assert_eq!(r.result.len(), 1);
        assert_eq!(r.result.validity, ValidityInterval::unbounded(Timestamp(2)));
        assert!(r
            .result
            .tags
            .tags()
            .contains(&InvalidationTag::keyed("users", "id=11")));
    }

    #[test]
    fn uncommitted_writes_invisible_to_others_and_undone_by_abort() {
        let db = setup();
        let tx = db.begin_rw().unwrap();
        db.insert(
            tx,
            "users",
            vec![Value::Int(99), Value::text("ghost"), Value::Int(0)],
        )
        .unwrap();
        let q = SelectQuery::table("users").filter(Predicate::eq("id", 99i64));
        // Another transaction does not see it.
        let other = db.query_ro_once(&q).unwrap();
        assert!(other.result.is_empty());
        // The writer does.
        let mine = db.query(tx, &q).unwrap();
        assert_eq!(mine.len(), 1);
        db.abort(tx).unwrap();
        let after = db.query_ro_once(&q).unwrap();
        assert!(after.result.is_empty());
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn update_produces_new_version_and_invalidation() {
        let db = setup();
        let rx = db.subscribe_invalidations();
        let tx = db.begin_rw().unwrap();
        let n = db
            .update(
                tx,
                "users",
                &Predicate::eq("id", 3i64),
                &[("rating".to_string(), Value::Int(5))],
            )
            .unwrap();
        assert_eq!(n, 1);
        let ts = db.commit(tx).unwrap();

        let msg = rx.try_recv().unwrap();
        assert_eq!(msg.timestamp, ts);
        assert!(msg
            .tags
            .tags()
            .contains(&InvalidationTag::keyed("users", "id=3")));

        let q = SelectQuery::table("users").filter(Predicate::eq("id", 3i64));
        let r = db.query_ro_once(&q).unwrap();
        assert_eq!(r.result.get(0, "rating").unwrap(), &Value::Int(5));
        assert_eq!(r.result.validity, ValidityInterval::unbounded(ts));
    }

    #[test]
    fn delete_removes_row_and_tags_it() {
        let db = setup();
        let tx = db.begin_rw().unwrap();
        let n = db.delete(tx, "users", &Predicate::eq("id", 7i64)).unwrap();
        assert_eq!(n, 1);
        db.commit(tx).unwrap();
        let q = SelectQuery::table("users").filter(Predicate::eq("id", 7i64));
        assert!(db.query_ro_once(&q).unwrap().result.is_empty());
        assert_eq!(db.stats().deletes, 1);
    }

    #[test]
    fn write_in_read_only_transaction_is_rejected() {
        let db = setup();
        let tx = db.begin_ro(None).unwrap();
        let err = db
            .insert(tx, "users", vec![Value::Int(50), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)));
        db.commit(tx).unwrap();
    }

    #[test]
    fn write_write_conflict_detected() {
        let db = setup();
        let t1 = db.begin_rw().unwrap();
        let t2 = db.begin_rw().unwrap();
        db.update(
            t1,
            "users",
            &Predicate::eq("id", 5i64),
            &[("rating".to_string(), Value::Int(1))],
        )
        .unwrap();
        // t2 attempts to update the same row while t1's change is pending.
        let err = db
            .update(
                t2,
                "users",
                &Predicate::eq("id", 5i64),
                &[("rating".to_string(), Value::Int(2))],
            )
            .unwrap_err();
        assert!(err.is_retryable());
        db.commit(t1).unwrap();
        db.abort(t2).unwrap();

        // A transaction whose snapshot predates t1's commit also conflicts.
        let t3 = db.begin_rw().unwrap();
        let t4 = db.begin_rw().unwrap();
        db.update(
            t3,
            "users",
            &Predicate::eq("id", 6i64),
            &[("rating".to_string(), Value::Int(1))],
        )
        .unwrap();
        db.commit(t3).unwrap();
        let err = db
            .update(
                t4,
                "users",
                &Predicate::eq("id", 6i64),
                &[("rating".to_string(), Value::Int(2))],
            )
            .unwrap_err();
        assert!(matches!(err, Error::SerializationFailure(_)));
        assert_eq!(db.stats().serialization_failures, 2);
    }

    #[test]
    fn pinned_snapshot_queries_see_the_past() {
        let db = setup();
        let (snap, _) = db.pin_latest();
        // Update user 2's name after the pin.
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::eq("id", 2i64),
            &[("name".to_string(), Value::text("renamed"))],
        )
        .unwrap();
        db.commit(tx).unwrap();

        let q = SelectQuery::table("users").filter(Predicate::eq("id", 2i64));
        // Latest sees the new name.
        let now = db.query_ro_once(&q).unwrap();
        assert_eq!(now.result.get(0, "name").unwrap(), &Value::text("renamed"));
        // The pinned snapshot still sees the old name, with a bounded
        // validity interval.
        let past = db.begin_ro(Some(snap)).unwrap();
        let r = db.query(past, &q).unwrap();
        assert_eq!(r.get(0, "name").unwrap(), &Value::text("user2"));
        assert!(!r.validity.is_unbounded());
        db.commit(past).unwrap();
        db.unpin(snap).unwrap();
        assert!(db.begin_ro(Some(snap)).is_err());
    }

    #[test]
    fn vacuum_respects_pins() {
        let db = setup();
        let (snap, _) = db.pin_latest();
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::eq("id", 1i64),
            &[("rating".to_string(), Value::Int(9))],
        )
        .unwrap();
        db.commit(tx).unwrap();
        // The old version is dead but still visible to the pinned snapshot.
        assert_eq!(db.vacuum(), 0);
        db.unpin(snap).unwrap();
        assert_eq!(db.vacuum(), 1);
        assert_eq!(db.stats().vacuumed_versions, 1);
    }

    #[test]
    fn pin_below_vacuum_watermark_is_rejected() {
        let db = setup();
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::eq("id", 1i64),
            &[("rating".to_string(), Value::Int(9))],
        )
        .unwrap();
        db.commit(tx).unwrap(); // latest is now 2
        assert_eq!(db.vacuum(), 1); // horizon (and watermark) advance to 2
        let err = db.pin(Timestamp(1)).unwrap_err();
        assert!(matches!(err, Error::SnapshotUnavailable(_)));
        // The current horizon itself is still pinnable.
        let id = db.pin(Timestamp(2)).unwrap();
        db.unpin(id).unwrap();
    }

    #[test]
    fn wildcard_aggregation_for_bulk_updates() {
        let config = DbConfig {
            wildcard_threshold: 5,
            ..DbConfig::default()
        };
        let db = Database::new(config, SimClock::new());
        db.create_table(users_schema()).unwrap();
        db.bulk_load(
            "users",
            (1..=20i64)
                .map(|i| vec![Value::Int(i), Value::text("u"), Value::Int(0)])
                .collect(),
        )
        .unwrap();
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::cmp("id", CmpOp::Le, 10i64),
            &[("rating".to_string(), Value::Int(1))],
        )
        .unwrap();
        db.commit(tx).unwrap();
        let log = db.invalidation_log();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].tags.tags(),
            &[InvalidationTag::wildcard("users")],
            "10 modified rows >= threshold 5 collapse to a wildcard"
        );
    }

    #[test]
    fn stock_database_mode_produces_no_invalidations() {
        let config = DbConfig {
            exec: ExecOptions {
                track_validity: false,
                predicate_before_visibility: false,
            },
            ..DbConfig::default()
        };
        let db = Database::new(config, SimClock::new());
        db.create_table(users_schema()).unwrap();
        db.bulk_load(
            "users",
            vec![vec![Value::Int(1), Value::text("a"), Value::Int(0)]],
        )
        .unwrap();
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::eq("id", 1i64),
            &[("rating".to_string(), Value::Int(2))],
        )
        .unwrap();
        db.commit(tx).unwrap();
        assert!(db.invalidation_log().is_empty());
        let q = SelectQuery::table("users").filter(Predicate::eq("id", 1i64));
        let r = db.query_ro_once(&q).unwrap();
        assert!(r.result.tags.is_empty());
    }

    #[test]
    fn unknown_transactions_are_rejected() {
        let db = setup();
        let bogus = TxnToken(9999);
        assert!(db.commit(bogus).is_err());
        assert!(db.abort(bogus).is_err());
        assert!(db.query(bogus, &SelectQuery::table("users")).is_err());
    }

    #[test]
    fn buffer_stats_accumulate_and_reset() {
        let db = setup();
        let q = SelectQuery::table("users").filter(Predicate::eq("id", 1i64));
        db.query_ro_once(&q).unwrap();
        assert!(db.buffer_stats().accesses() > 0);
        db.reset_buffer_stats();
        assert_eq!(db.buffer_stats().accesses(), 0);
    }

    #[test]
    fn range_dml_charges_the_same_pages_as_the_equivalent_select() {
        let db = setup();
        let in_range =
            Predicate::cmp("id", CmpOp::Ge, 3i64).and(Predicate::cmp("id", CmpOp::Le, 6i64));
        let select = SelectQuery::table("users").filter(in_range.clone());
        assert_eq!(db.plan_for(&select).unwrap().access.label(), "index_range");
        // Buffer accesses caused by `f`.
        let charged = |f: &dyn Fn()| {
            db.reset_buffer_stats();
            f();
            db.buffer_stats().accesses()
        };

        // Four key groups walked (one index page each) + four heap versions.
        let selected = charged(&|| {
            let out = db.query_ro_once(&select).unwrap();
            assert_eq!(out.result.pages.total(), 8);
        });
        assert_eq!(selected, 8);
        let updated = charged(&|| {
            let txn = db.begin_rw().unwrap();
            let bump = [("rating".to_string(), Value::Int(1))];
            assert_eq!(db.update(txn, "users", &in_range, &bump).unwrap(), 4);
            db.commit(txn).unwrap();
        });
        assert_eq!(updated, selected, "UPDATE must charge the index walk too");

        // The update doubled the versions filed under the same four keys.
        let selected = charged(&|| {
            db.query_ro_once(&select).unwrap();
        });
        assert_eq!(selected, 4 + 8);
        let deleted = charged(&|| {
            let txn = db.begin_rw().unwrap();
            assert_eq!(db.delete(txn, "users", &in_range).unwrap(), 4);
            db.commit(txn).unwrap();
        });
        assert_eq!(deleted, selected, "DELETE must charge the index walk too");
    }

    #[test]
    fn pin_future_timestamp_rejected() {
        let db = setup();
        assert!(db.pin(Timestamp(999)).is_err());
        let id = db.pin(Timestamp(1)).unwrap();
        assert_eq!(db.pinned_snapshots(), vec![Timestamp(1)]);
        db.unpin(id).unwrap();
    }

    #[test]
    fn shard_stats_expose_lock_activity() {
        let db = setup();
        let q = SelectQuery::table("users").filter(Predicate::eq("id", 1i64));
        db.query_ro_once(&q).unwrap();
        let tx = db.begin_rw().unwrap();
        db.update(
            tx,
            "users",
            &Predicate::eq("id", 1i64),
            &[("rating".to_string(), Value::Int(3))],
        )
        .unwrap();
        db.commit(tx).unwrap();

        let stats = db.shard_stats();
        assert_eq!(stats.len(), 1);
        let users = &stats[0];
        assert_eq!(users.table, "users");
        assert!(users.read_locks > 0, "queries take shared locks");
        assert!(
            users.write_locks >= 2,
            "DML and commit stamping take exclusive locks"
        );
        // Single-threaded use never waits.
        assert_eq!(users.read_waits, 0);
        assert_eq!(users.write_waits, 0);
    }

    #[test]
    fn parallel_readers_and_writer_agree_on_commit_order() {
        let db = Arc::new(setup());
        let rounds = 50;
        std::thread::scope(|scope| {
            let writer = {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..rounds {
                        let tx = db.begin_rw().unwrap();
                        db.update(
                            tx,
                            "users",
                            &Predicate::eq("id", 4i64),
                            &[("rating".to_string(), Value::Int(i))],
                        )
                        .unwrap();
                        db.commit(tx).unwrap();
                    }
                })
            };
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let db = Arc::clone(&db);
                    scope.spawn(move || {
                        let q = SelectQuery::table("users").filter(Predicate::eq("id", 4i64));
                        for _ in 0..rounds {
                            let r = db.query_ro_once(&q).unwrap();
                            assert_eq!(r.result.len(), 1, "row 4 must always be visible");
                        }
                    })
                })
                .collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });
        // The invalidation stream is strictly ordered by commit timestamp.
        let log = db.invalidation_log();
        assert_eq!(log.len(), rounds as usize);
        for pair in log.windows(2) {
            assert!(pair[0].timestamp < pair[1].timestamp);
        }
    }

    #[test]
    fn concurrent_begins_race_vacuum_safely() {
        let db = Arc::new(setup());
        std::thread::scope(|scope| {
            let vacuumer = {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for _ in 0..200 {
                        db.vacuum();
                    }
                })
            };
            let beginners: Vec<_> = (0..3)
                .map(|_| {
                    let db = Arc::clone(&db);
                    scope.spawn(move || {
                        let q = SelectQuery::table("users").aggregate(Aggregate::Count);
                        for _ in 0..200 {
                            let r = db.query_ro_once(&q).unwrap();
                            assert_eq!(r.result.get(0, "count").unwrap(), &Value::Int(10));
                        }
                    })
                })
                .collect();
            vacuumer.join().unwrap();
            for b in beginners {
                b.join().unwrap();
            }
        });
    }
}
