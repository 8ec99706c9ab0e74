//! Transactions and cacheable function calls (§6).
//!
//! A [`Transaction`] is the object an application holds between `BEGIN` and
//! `COMMIT`/`ABORT`. Read/write transactions pass every operation straight to
//! the database and bypass the cache (§2.2). Read-only transactions are where
//! the interesting machinery lives:
//!
//! * a **pin set** of candidate serialization timestamps, seeded from the
//!   pincushion and narrowed as data is observed (lazy timestamp selection,
//!   §6.2);
//! * **cacheable calls** ([`Transaction::cached`]), which look up the
//!   serialized (function, arguments) key in the cache, and on a miss run the
//!   implementation while accumulating the validity intervals and
//!   invalidation tags of everything it reads, then insert the result
//!   (§6.1);
//! * **nested calls** keep one accumulation frame per call-stack level, so an
//!   inner cacheable function may end up with a wider validity interval than
//!   its caller but never vice versa (§6.3).

use std::collections::HashMap;

use bytes::Bytes;
use cache_server::{LookupOutcome, LookupRequest};
use mvdb::{PageCounts, Predicate, QueryResult, SelectQuery, SnapshotId, TxnToken, Value};
use txtypes::{CacheKey, Error, Result, Staleness, TagSet, Timestamp, ValidityInterval, WallClock};

use crate::codec::{self, Codec};
use crate::config::{CacheMode, TimestampPolicy};
use crate::handle::TxCache;
use crate::pinset::PinSet;
use crate::stats::CommitInfo;

/// Per-call accumulation of validity and dependencies (§6.3).
#[derive(Debug, Clone)]
struct Frame {
    validity: ValidityInterval,
    tags: TagSet,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            validity: ValidityInterval::ALL,
            tags: TagSet::new(),
        }
    }
}

/// State specific to read-only transactions.
#[derive(Debug)]
struct ReadOnlyState {
    staleness: Staleness,
    pin_set: PinSet,
    /// Wall-clock pin time for each candidate, for the 5-second reuse policy.
    pinned_at: HashMap<Timestamp, WallClock>,
    /// Earliest timestamp acceptable under the staleness limit alone; used by
    /// the cache server to classify consistency vs staleness misses.
    freshness_lo: Option<Timestamp>,
    /// Pins whose use count we must release at the end of the transaction.
    acquired_pins: Vec<Timestamp>,
    /// The lazily-opened database transaction, if any.
    db_token: Option<TxnToken>,
    /// The snapshot that transaction runs at, once chosen.
    chosen_snapshot: Option<Timestamp>,
    /// Accumulation frames for the cacheable calls currently on the stack.
    frames: Vec<Frame>,
}

impl ReadOnlyState {
    /// Takes a snapshot the caller has just pinned on the database into the
    /// pin set. The pincushion owns exactly one database pin per timestamp
    /// it tracks — the one `reap` hands back for `UNPIN` — so when it tracks
    /// `ts` already, the caller's pin is a duplicate and is released on the
    /// spot (it cannot fail: the registration just counted this transaction
    /// as a user, so the tracked pin is not reaped underneath it).
    fn acquire_pin(&mut self, sys: &TxCache, ts: Timestamp, at: WallClock) {
        if sys.pincushion.register(ts, at) {
            let _ = sys.db.unpin(SnapshotId(ts));
        }
        self.pin_set.insert(ts);
        self.pinned_at.insert(ts, at);
        self.acquired_pins.push(ts);
    }

    /// Pins the database's latest snapshot and takes it into the pin set.
    fn pin_latest(&mut self, sys: &TxCache) -> Timestamp {
        let (snap, at) = sys.db.pin_latest();
        sys.stats.new_pins.bump();
        self.acquire_pin(sys, snap.timestamp(), at);
        snap.timestamp()
    }
}

/// State specific to read/write transactions.
#[derive(Debug)]
struct ReadWriteState {
    db_token: TxnToken,
    rows_written: u64,
}

#[derive(Debug)]
enum State {
    ReadOnly(ReadOnlyState),
    ReadWrite(ReadWriteState),
    Finished,
}

/// An open TxCache transaction.
#[derive(Debug)]
pub struct Transaction<'a> {
    sys: &'a TxCache,
    state: State,
    // Per-transaction counters reported in CommitInfo.
    db_queries: u64,
    db_pages: PageCounts,
    cache_hits: u64,
    cache_misses: u64,
}

impl<'a> Transaction<'a> {
    pub(crate) fn new_read_only(sys: &'a TxCache, staleness: Staleness) -> Result<Transaction<'a>> {
        let fresh = sys.pincushion.fresh_pins(staleness);
        let mut ro = ReadOnlyState {
            staleness,
            pin_set: PinSet::new(fresh.iter().map(|p| p.timestamp), true),
            pinned_at: fresh.iter().map(|p| (p.timestamp, p.pinned_at)).collect(),
            freshness_lo: fresh.iter().map(|p| p.timestamp).min(),
            acquired_pins: fresh.iter().map(|p| p.timestamp).collect(),
            db_token: None,
            chosen_snapshot: None,
            frames: Vec::new(),
        };
        if sys.policy() == TimestampPolicy::Eager {
            // Choose one timestamp right now: the newest fresh pin if it is
            // recent enough, otherwise a newly pinned snapshot.
            let now = sys.clock.now();
            let threshold = sys.config.pin_reuse_threshold_micros;
            let reusable = fresh
                .first()
                .filter(|p| now.since(p.pinned_at) <= threshold)
                .map(|p| p.timestamp);
            let chosen = match reusable {
                Some(ts) => {
                    sys.stats.reused_pins.bump();
                    ts
                }
                None => ro.pin_latest(sys),
            };
            ro.pin_set = PinSet::new([chosen], false);
            ro.freshness_lo = Some(chosen);
        }
        Ok(Transaction {
            sys,
            state: State::ReadOnly(ro),
            db_queries: 0,
            db_pages: PageCounts::default(),
            cache_hits: 0,
            cache_misses: 0,
        })
    }

    pub(crate) fn new_read_write(sys: &'a TxCache) -> Result<Transaction<'a>> {
        let db_token = sys.db.begin_rw()?;
        Ok(Transaction {
            sys,
            state: State::ReadWrite(ReadWriteState {
                db_token,
                rows_written: 0,
            }),
            db_queries: 0,
            db_pages: PageCounts::default(),
            cache_hits: 0,
            cache_misses: 0,
        })
    }

    /// Whether this is a read-only transaction.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        matches!(self.state, State::ReadOnly(_))
    }

    /// The staleness limit this transaction was begun with (read-only
    /// transactions only).
    #[must_use]
    pub fn staleness(&self) -> Option<Staleness> {
        match &self.state {
            State::ReadOnly(ro) => Some(ro.staleness),
            _ => None,
        }
    }

    /// The candidate serialization timestamps (read-only transactions only);
    /// exposed for tests and diagnostics.
    #[must_use]
    pub fn pin_set_candidates(&self) -> Vec<Timestamp> {
        match &self.state {
            State::ReadOnly(ro) => ro.pin_set.candidates(),
            _ => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Cacheable calls
    // ------------------------------------------------------------------

    /// Invokes a cacheable function (the wrapper `MAKE-CACHEABLE` produces in
    /// Figure 2).
    ///
    /// `name` identifies the function; `args` are serialized into the cache
    /// key; `body` is the implementation, which may issue queries through the
    /// transaction and call further cacheable functions. In read-only
    /// transactions the result is looked up in — and on a miss inserted into
    /// — the cache. In read/write transactions (and with caching disabled)
    /// the implementation simply runs.
    pub fn cached<A, R, F>(&mut self, name: &str, args: &A, body: F) -> Result<R>
    where
        A: Codec,
        R: Codec,
        F: FnOnce(&mut Transaction<'a>) -> Result<R>,
    {
        self.sys.stats.cacheable_calls.bump();
        let mode = self.sys.mode();
        let bypass = mode == CacheMode::Disabled || !self.is_read_only();
        if bypass {
            self.cache_misses += 1;
            self.sys.stats.cache_misses.bump();
            return body(self);
        }

        let key = CacheKey::new(name, codec::encode_hex(args));
        self.ensure_candidates()?;
        let request = self.lookup_request(mode)?;

        let outcome = self.sys.cache.lookup(&key, &request);
        let (value, computed) = self.settle(mode, outcome, body)?;
        if let Some((encoded, frame)) = computed {
            let now = self.sys.clock.now();
            self.sys
                .cache
                .insert(key, encoded, frame.validity, frame.tags, now);
        }
        Ok(value)
    }

    /// Invokes a batch of cacheable calls to the same function — one per
    /// element of `args_list` — paying one scatter-gather cache round trip
    /// for the whole batch instead of one per call.
    ///
    /// All keys are looked up together through the backend's `lookup_many`
    /// (on the remote backend: one `MultiGet` frame per involved cache
    /// node). Hits are observed and decoded exactly as in
    /// [`Transaction::cached`]; for each miss `body` runs with the miss's
    /// index into `args_list`, inside its own accumulation frame, and every
    /// computed value is written back in one batch insert (`MultiPut` on
    /// the remote backend). Results come back in `args_list` order.
    pub fn cached_many<A, R, F>(
        &mut self,
        name: &str,
        args_list: &[A],
        mut body: F,
    ) -> Result<Vec<R>>
    where
        A: Codec,
        R: Codec,
        F: FnMut(&mut Transaction<'a>, usize) -> Result<R>,
    {
        if args_list.is_empty() {
            return Ok(Vec::new());
        }
        let count = args_list.len() as u64;
        self.sys.stats.cacheable_calls.add(count);
        let mode = self.sys.mode();
        let bypass = mode == CacheMode::Disabled || !self.is_read_only();
        if bypass {
            self.cache_misses += count;
            self.sys.stats.cache_misses.add(count);
            return (0..args_list.len()).map(|i| body(self, i)).collect();
        }

        let keys: Vec<CacheKey> = args_list
            .iter()
            .map(|args| CacheKey::new(name, codec::encode_hex(args)))
            .collect();
        self.ensure_candidates()?;
        let request = self.lookup_request(mode)?;

        let outcomes = self.sys.cache.lookup_many(&keys, &request);
        let mut results: Vec<R> = Vec::with_capacity(keys.len());
        let mut write_backs = Vec::new();
        for (pos, (key, outcome)) in keys.into_iter().zip(outcomes).enumerate() {
            let (value, computed) = self.settle(mode, outcome, |tx| body(tx, pos))?;
            if let Some((encoded, frame)) = computed {
                write_backs.push((key, encoded, frame.validity, frame.tags));
            }
            results.push(value);
        }
        if !write_backs.is_empty() {
            self.sys
                .cache
                .insert_many(write_backs, self.sys.clock.now());
        }
        Ok(results)
    }

    /// Turns one cache lookup outcome into the call's result — the step
    /// [`Transaction::cached`] and [`Transaction::cached_many`] share. A hit
    /// is observed and decoded. A miss runs `body` inside its own
    /// accumulation frame and also returns what to write back: the encoded
    /// value with the validity and tags the frame accumulated.
    fn settle<R, F>(
        &mut self,
        mode: CacheMode,
        outcome: LookupOutcome,
        body: F,
    ) -> Result<(R, Option<(Bytes, Frame)>)>
    where
        R: Codec,
        F: FnOnce(&mut Transaction<'a>) -> Result<R>,
    {
        match outcome {
            LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => {
                self.cache_hits += 1;
                self.sys.stats.cache_hits.bump();
                if mode == CacheMode::Full {
                    // Narrow the pin set with the conservative (effective)
                    // interval and fold the entry's validity and tags into
                    // every enclosing frame.
                    self.observe(&validity, &stored_validity, &tags)?;
                }
                Ok((codec::decode(&value)?, None))
            }
            LookupOutcome::Miss(_) => {
                self.cache_misses += 1;
                self.sys.stats.cache_misses.bump();
                self.push_frame()?;
                let result = body(self);
                let frame = self.pop_frame()?;
                let value = result?;
                let encoded = codec::encode(&value);
                Ok((value, Some((encoded, frame))))
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Issues a SELECT query within the transaction.
    ///
    /// In read-only transactions the query runs at the transaction's chosen
    /// snapshot (choosing one lazily if necessary) and its validity interval
    /// and invalidation tags are folded into the pin set and any enclosing
    /// cacheable-call frames.
    pub fn query(&mut self, query: &SelectQuery) -> Result<QueryResult> {
        self.db_queries += 1;
        self.sys.stats.db_queries.bump();
        match &mut self.state {
            State::Finished => Err(Error::InvalidState("transaction already finished".into())),
            State::ReadWrite(rw) => {
                let result = self.sys.db.query(rw.db_token, query)?;
                self.db_pages.hits += result.pages.hits;
                self.db_pages.misses += result.pages.misses;
                Ok(result)
            }
            State::ReadOnly(_) => {
                self.ensure_db_txn()?;
                let token = {
                    let ro = self.read_only_state()?;
                    ro.db_token
                        .ok_or_else(|| Error::InvalidState("no database transaction".into()))?
                };
                let result = self.sys.db.query(token, query)?;
                self.db_pages.hits += result.pages.hits;
                self.db_pages.misses += result.pages.misses;
                if self.sys.mode() != CacheMode::NoConsistency {
                    self.observe(&result.validity, &result.validity, &result.tags)?;
                } else {
                    self.observe_frames_only(&result.validity, &result.tags)?;
                }
                Ok(result)
            }
        }
    }

    // ------------------------------------------------------------------
    // DML (read/write transactions only)
    // ------------------------------------------------------------------

    /// Inserts a row; valid only in read/write transactions.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<u64> {
        let token = self.read_write_token()?;
        let row = self.sys.db.insert(token, table, values)?;
        if let State::ReadWrite(rw) = &mut self.state {
            rw.rows_written += 1;
        }
        Ok(row)
    }

    /// Updates rows matching `predicate`; valid only in read/write
    /// transactions.
    pub fn update(
        &mut self,
        table: &str,
        predicate: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<usize> {
        let token = self.read_write_token()?;
        let n = self.sys.db.update(token, table, predicate, assignments)?;
        if let State::ReadWrite(rw) = &mut self.state {
            rw.rows_written += n as u64;
        }
        Ok(n)
    }

    /// Deletes rows matching `predicate`; valid only in read/write
    /// transactions.
    pub fn delete(&mut self, table: &str, predicate: &Predicate) -> Result<usize> {
        let token = self.read_write_token()?;
        let n = self.sys.db.delete(token, table, predicate)?;
        if let State::ReadWrite(rw) = &mut self.state {
            rw.rows_written += n as u64;
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commits the transaction and returns a report including the timestamp
    /// it ran at (`COMMIT` in Figure 2). Applications can use the timestamp
    /// as a staleness bound for later transactions to enforce causality
    /// (§2.2).
    pub fn commit(mut self) -> Result<CommitInfo> {
        let info = self.finish(true)?;
        self.sys.stats.commits.bump();
        Ok(info)
    }

    /// Aborts the transaction (`ABORT` in Figure 2).
    pub fn abort(mut self) -> Result<()> {
        self.finish(false)?;
        self.sys.stats.aborts.bump();
        Ok(())
    }

    fn finish(&mut self, commit: bool) -> Result<CommitInfo> {
        let state = std::mem::replace(&mut self.state, State::Finished);
        match state {
            State::Finished => Err(Error::InvalidState("transaction already finished".into())),
            State::ReadWrite(rw) => {
                let timestamp = if commit {
                    self.sys.db.commit(rw.db_token)?
                } else {
                    self.sys.db.abort(rw.db_token)?;
                    self.sys.db.latest_timestamp()
                };
                // Make the resulting invalidations visible promptly.
                self.sys.pump_invalidations();
                Ok(CommitInfo {
                    timestamp,
                    read_only: false,
                    db_queries: self.db_queries,
                    db_pages: self.db_pages,
                    cache_hits: self.cache_hits,
                    cache_misses: self.cache_misses,
                    rows_written: rw.rows_written,
                })
            }
            State::ReadOnly(ro) => {
                if let Some(token) = ro.db_token {
                    if commit {
                        self.sys.db.commit(token)?;
                    } else {
                        self.sys.db.abort(token)?;
                    }
                }
                self.sys.pincushion.release(&ro.acquired_pins);
                // Report a timestamp the whole transaction is serializable
                // at (§6.2: every surviving pin-set candidate lies inside
                // every observed validity interval). The snapshot the
                // database transaction ran at may have been *narrowed away*
                // by a later cache hit whose validity excluded it — the
                // observations are then only guaranteed consistent at the
                // remaining candidates, so prefer those. Applications use
                // this timestamp as a causality bound (§2.2), and the chaos
                // history checker verifies every read against it.
                let timestamp = ro
                    .chosen_snapshot
                    .filter(|ts| ro.pin_set.contains(*ts))
                    .or_else(|| ro.pin_set.newest())
                    .unwrap_or_else(|| self.sys.db.latest_timestamp());
                Ok(CommitInfo {
                    timestamp,
                    read_only: true,
                    db_queries: self.db_queries,
                    db_pages: self.db_pages,
                    cache_hits: self.cache_hits,
                    cache_misses: self.cache_misses,
                    rows_written: 0,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn read_only_state(&self) -> Result<&ReadOnlyState> {
        match &self.state {
            State::ReadOnly(ro) => Ok(ro),
            _ => Err(Error::InvalidState("not a read-only transaction".into())),
        }
    }

    fn read_only_state_mut(&mut self) -> Result<&mut ReadOnlyState> {
        match &mut self.state {
            State::ReadOnly(ro) => Ok(ro),
            _ => Err(Error::InvalidState("not a read-only transaction".into())),
        }
    }

    fn read_write_token(&self) -> Result<TxnToken> {
        match &self.state {
            State::ReadWrite(rw) => Ok(rw.db_token),
            State::ReadOnly(_) => Err(Error::InvalidState(
                "writes are not allowed in read-only transactions".into(),
            )),
            State::Finished => Err(Error::InvalidState("transaction already finished".into())),
        }
    }

    /// Builds the cache lookup request from the pin set (or, for the
    /// no-consistency baseline, from the staleness limit alone).
    fn lookup_request(&self, mode: CacheMode) -> Result<LookupRequest> {
        let ro = self.read_only_state()?;
        let freshness_lo = ro.freshness_lo.unwrap_or(Timestamp::ZERO);
        Ok(match mode {
            CacheMode::NoConsistency => LookupRequest {
                pinset_lo: freshness_lo,
                pinset_hi: Timestamp::MAX,
                freshness_lo,
            },
            _ => {
                let (lo, hi) = ro
                    .pin_set
                    .bounds()
                    .ok_or_else(|| Error::InvalidState("pin set has no candidates".into()))?;
                LookupRequest {
                    pinset_lo: lo,
                    pinset_hi: hi,
                    freshness_lo,
                }
            }
        })
    }

    fn push_frame(&mut self) -> Result<()> {
        self.read_only_state_mut()?.frames.push(Frame::new());
        Ok(())
    }

    fn pop_frame(&mut self) -> Result<Frame> {
        self.read_only_state_mut()?
            .frames
            .pop()
            .ok_or_else(|| Error::InvalidState("cacheable-call frame stack underflow".into()))
    }

    /// Makes sure the pin set has at least one concrete candidate: if the
    /// pincushion had no sufficiently fresh snapshot, pin the latest one now
    /// (§6.1).
    fn ensure_candidates(&mut self) -> Result<()> {
        if self.read_only_state()?.pin_set.bounds().is_some() {
            return Ok(());
        }
        let sys = self.sys;
        let ro = self.read_only_state_mut()?;
        let ts = ro.pin_latest(sys);
        ro.freshness_lo.get_or_insert(ts);
        Ok(())
    }

    /// Opens the underlying database read-only transaction if it has not been
    /// opened yet, choosing the snapshot per the §6.2 policy: pin a fresh
    /// snapshot if `?` is available and the newest candidate is older than
    /// the reuse threshold, otherwise run at the newest candidate.
    fn ensure_db_txn(&mut self) -> Result<()> {
        if self.read_only_state()?.db_token.is_some() {
            return Ok(());
        }
        self.ensure_candidates()?;
        let now = self.sys.clock.now();
        let threshold = self.sys.config.pin_reuse_threshold_micros;

        let (use_present, newest) = {
            let ro = self.read_only_state()?;
            let newest = ro
                .pin_set
                .newest()
                .ok_or_else(|| Error::InvalidState("pin set has no candidates".into()))?;
            let newest_age = ro
                .pinned_at
                .get(&newest)
                .map(|at| now.since(*at))
                .unwrap_or(u64::MAX);
            (ro.pin_set.has_present() && newest_age > threshold, newest)
        };

        let chosen = if use_present {
            let sys = self.sys;
            let ro = self.read_only_state_mut()?;
            ro.pin_set.remove_present();
            ro.pin_latest(sys)
        } else {
            self.sys.stats.reused_pins.bump();
            newest
        };

        let token = self.sys.db.begin_ro(Some(SnapshotId(chosen)))?;
        let ro = self.read_only_state_mut()?;
        ro.db_token = Some(token);
        ro.chosen_snapshot = Some(chosen);
        Ok(())
    }

    /// Folds an observation into the pin set and every frame on the stack.
    ///
    /// `narrowing` is the conservative interval used to narrow the pin set
    /// (Invariant 1); `accumulated` is the interval folded into the
    /// cacheable-call frames (it may be wider, e.g. the stored, unbounded
    /// validity of a still-valid cache entry whose dependencies are carried
    /// by `tags`).
    fn observe(
        &mut self,
        narrowing: &ValidityInterval,
        accumulated: &ValidityInterval,
        tags: &TagSet,
    ) -> Result<()> {
        self.observe_frames_only(accumulated, tags)?;
        let chosen = self.read_only_state()?.chosen_snapshot;
        let sys = self.sys;
        let ro = self.read_only_state_mut()?;
        if !ro.pin_set.narrow(narrowing) {
            // Invariant 2 recovery: the conservative narrowing can drop every
            // candidate when the matching interval lies strictly between
            // candidates. Re-pin a timestamp inside the observed interval so
            // the transaction remains serializable there.
            let ts = chosen
                .filter(|ts| narrowing.contains(*ts))
                .unwrap_or(narrowing.lower);
            sys.db.pin(ts)?;
            ro.acquire_pin(sys, ts, sys.clock.now());
        }
        Ok(())
    }

    /// Folds validity and tags into the cacheable-call frames only (used by
    /// the no-consistency baseline, which skips pin-set narrowing).
    fn observe_frames_only(&mut self, accumulated: &ValidityInterval, tags: &TagSet) -> Result<()> {
        let ro = self.read_only_state_mut()?;
        for frame in &mut ro.frames {
            frame.validity = frame
                .validity
                .intersect(accumulated)
                .unwrap_or(*accumulated);
            frame.tags.merge(tags);
        }
        Ok(())
    }
}
