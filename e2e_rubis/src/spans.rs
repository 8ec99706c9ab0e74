//! Tracing from the benchmark's own files: spans around the calls into
//! each layer, kept in memory until the window ends.
//!
//! The driver opens a span around every interaction, every explicit
//! `pump_invalidations`, every `maintenance` and every `vacuum`; [`TimedBackend`] sits in
//! the real request path (it *is* the `CacheBackend` the library calls) and
//! opens a child span around every call into the `RemoteCluster`. It also
//! records the call stream, which is replayed after the window against one
//! layer alone (the wire codec, an in-process node).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use cache_server::{CacheStats, LookupOutcome, LookupRequest};
use mvdb::InvalidationMessage;
use txcache::backend::CacheBackend;
use txcache::BackendKind;
use txtypes::{CacheKey, TagSet, Timestamp, ValidityInterval, WallClock};

/// What a span measures. The first four are opened by the driver loop, the
/// rest by [`TimedBackend`] as their children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Interaction,
    Pump,
    Maintenance,
    Vacuum,
    Lookup,
    Insert,
    Invalidate,
    EvictStale,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Interaction => "rubis.interaction",
            SpanKind::Pump => "core.pump_invalidations",
            SpanKind::Maintenance => "core.maintenance",
            SpanKind::Vacuum => "mvdb.vacuum",
            SpanKind::Lookup => "backend.lookup",
            SpanKind::Insert => "backend.insert",
            SpanKind::Invalidate => "backend.apply_invalidations",
            SpanKind::EvictStale => "backend.evict_stale",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was made;
/// `parent` indexes the recorder's span list; `txn` is the request number
/// the span belongs to, shared by every span of that request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One call the library made into the cache backend. Of a lookup's answer
/// only hit-or-miss per key is kept: the replay gets the values back from
/// the node it replays against, and copying every answer would cost the
/// traced run more than the spans do.
#[derive(Debug, Clone)]
pub enum Call {
    Lookup {
        keys: Vec<CacheKey>,
        request: LookupRequest,
        hits: Vec<bool>,
    },
    Insert {
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        now: WallClock,
    },
    Invalidate {
        batch: Vec<InvalidationMessage>,
        heartbeat: Timestamp,
    },
    EvictStale {
        min_useful_ts: Timestamp,
    },
}

#[derive(Debug)]
struct RecorderState {
    spans: Vec<Span>,
    open: Vec<u32>,
    calls: Vec<Call>,
    txn: u32,
}

/// The in-memory span and call log of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    state: Mutex<RecorderState>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            state: Mutex::new(RecorderState {
                spans: Vec::new(),
                open: Vec::new(),
                calls: Vec::new(),
                txn: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state
            .lock()
            .expect("recorder mutex poisoned: a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    fn enter(&self, kind: SpanKind) -> u32 {
        self.enter_txn(kind, None)
    }

    fn enter_txn(&self, kind: SpanKind, txn: Option<u32>) -> u32 {
        let mut s = self.lock();
        if let Some(txn) = txn {
            s.txn = txn;
        }
        let idx = s.spans.len() as u32;
        let span = Span {
            kind,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: s.open.last().copied().unwrap_or(NO_PARENT),
            txn: s.txn,
        };
        s.spans.push(span);
        s.open.push(idx);
        idx
    }

    /// Closes the span `enter` returned (spans close innermost first).
    fn exit(&self, idx: u32) {
        self.exit_with(idx, None);
    }

    /// Closes a span and logs the backend call it timed.
    fn exit_with(&self, idx: u32, call: Option<Call>) {
        let end = self.now_ns();
        let mut s = self.lock();
        let top = s.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        s.spans[idx as usize].end_ns = end;
        s.calls.extend(call);
    }

    /// Runs `f` inside a span of the given kind; `txn`, if given, becomes the
    /// request number stamped on this and every later span.
    pub fn timed<R>(&self, kind: SpanKind, txn: Option<u32>, f: impl FnOnce() -> R) -> R {
        let idx = self.enter_txn(kind, txn);
        let out = f();
        self.exit(idx);
        out
    }

    /// Takes everything recorded so far, leaving the recorder empty: spans
    /// recorded afterwards index each other from 0 again.
    pub fn take(&self) -> (Vec<Span>, Vec<Call>) {
        let mut s = self.lock();
        assert!(s.open.is_empty(), "take() with a span still open");
        (std::mem::take(&mut s.spans), std::mem::take(&mut s.calls))
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once). Returns
/// one value per span, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The `CacheBackend` handed to the library in a traced run: forwards every
/// call to the wrapped backend inside a span and records the call.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn CacheBackend>,
    recorder: Arc<Recorder>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn CacheBackend>, recorder: Arc<Recorder>) -> TimedBackend {
        TimedBackend { inner, recorder }
    }
}

impl CacheBackend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn lookup_many(&self, keys: &[CacheKey], request: &LookupRequest) -> Vec<LookupOutcome> {
        let span = self.recorder.enter(SpanKind::Lookup);
        let outcomes = self.inner.lookup_many(keys, request);
        let call = Call::Lookup {
            keys: keys.to_vec(),
            request: *request,
            hits: outcomes.iter().map(LookupOutcome::is_hit).collect(),
        };
        self.recorder.exit_with(span, Some(call));
        outcomes
    }

    // The single-key forms are forwarded as such: the remote backend sends a
    // `VersionedGet`/`Put` for them, not a one-element batch.
    fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        let span = self.recorder.enter(SpanKind::Lookup);
        let outcome = self.inner.lookup(key, request);
        let call = Call::Lookup {
            keys: vec![key.clone()],
            request: *request,
            hits: vec![outcome.is_hit()],
        };
        self.recorder.exit_with(span, Some(call));
        outcome
    }

    fn insert_many(
        &self,
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        now: WallClock,
    ) {
        let call = Call::Insert {
            entries: entries.clone(),
            now,
        };
        let span = self.recorder.enter(SpanKind::Insert);
        self.inner.insert_many(entries, now);
        self.recorder.exit_with(span, Some(call));
    }

    fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        let call = Call::Insert {
            entries: vec![(key.clone(), value.clone(), validity, tags.clone())],
            now,
        };
        let span = self.recorder.enter(SpanKind::Insert);
        self.inner.insert(key, value, validity, tags, now);
        self.recorder.exit_with(span, Some(call));
    }

    fn put_stalls(&self) -> u64 {
        self.inner.put_stalls()
    }

    fn replica_fallbacks(&self) -> u64 {
        self.inner.replica_fallbacks()
    }

    fn wrong_epoch_redirects(&self) -> u64 {
        self.inner.wrong_epoch_redirects()
    }

    fn apply_invalidations(&self, batch: &[InvalidationMessage], heartbeat: Timestamp) {
        let call = Call::Invalidate {
            batch: batch.to_vec(),
            heartbeat,
        };
        let span = self.recorder.enter(SpanKind::Invalidate);
        self.inner.apply_invalidations(batch, heartbeat);
        self.recorder.exit_with(span, Some(call));
    }

    fn evict_stale(&self, min_useful_ts: Timestamp) {
        let span = self.recorder.enter(SpanKind::EvictStale);
        self.inner.evict_stale(min_useful_ts);
        self.recorder
            .exit_with(span, Some(Call::EvictStale { min_useful_ts }));
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind: SpanKind::Interaction,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_interval_covered_by_children() {
        let spans = [
            span(0, 100, NO_PARENT), // children cover [10,30] ∪ [20,50] ∪ [70,80]
            span(10, 30, 0),
            span(20, 50, 0), // overlaps the previous child: counted once
            span(70, 80, 0),
            span(72, 78, 3), // a grandchild takes nothing from the root
            span(200, 250, NO_PARENT),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 4, 6, 50]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [span(10, 20, NO_PARENT), span(5, 12, 0), span(18, 30, 0)];
        assert_eq!(self_times_ns(&spans)[0], 6);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_the_request_number() {
        let r = Recorder::new();
        let outer = r.enter_txn(SpanKind::Interaction, Some(7));
        let inner = r.enter(SpanKind::Lookup);
        r.exit(inner);
        r.exit(outer);
        let next = r.enter_txn(SpanKind::Pump, Some(8));
        r.exit(next);
        let (spans, calls) = r.take();
        assert!(calls.is_empty());
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].txn), (NO_PARENT, 7));
        assert_eq!((spans[1].parent, spans[1].txn), (0, 7));
        assert_eq!((spans[2].parent, spans[2].txn), (NO_PARENT, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
