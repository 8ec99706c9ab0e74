//! The protocol's message catalogue: requests, responses, and their
//! byte-level encodings.
//!
//! Every message encodes to a frame *body*: `[version][opcode][payload]`.
//! Request opcodes live below `0x80`, response opcodes at or above it, so a
//! desynchronized peer is detected immediately instead of misparsed.

use bytes::Bytes;
use txtypes::{CacheKey, TagSet, Timestamp, ValidityInterval, WallClock};

use crate::codec::{Reader, Writer};
use crate::{WireError, PROTOCOL_VERSION};

/// One entry of an invalidation batch: everything a single update
/// transaction invalidated (mirrors `mvdb::InvalidationMessage`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationEvent {
    /// The update transaction's commit timestamp.
    pub timestamp: Timestamp,
    /// The invalidation tags the transaction affected.
    pub tags: TagSet,
}

/// Why a lookup missed, as a wire-level code (mirrors
/// `cache_server::MissKind`; conversions live in `cache-server` so this crate
/// stays dependency-light).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCode {
    /// The key was never inserted.
    Compulsory,
    /// Every cached version was too stale.
    Staleness,
    /// The entry had been evicted.
    Capacity,
    /// Fresh-enough versions exist but none intersects the pin set.
    Consistency,
}

impl MissCode {
    fn to_u8(self) -> u8 {
        match self {
            MissCode::Compulsory => 0,
            MissCode::Staleness => 1,
            MissCode::Capacity => 2,
            MissCode::Consistency => 3,
        }
    }

    fn from_u8(v: u8) -> crate::Result<MissCode> {
        Ok(match v {
            0 => MissCode::Compulsory,
            1 => MissCode::Staleness,
            2 => MissCode::Capacity,
            3 => MissCode::Consistency,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Machine-readable category of an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request's protocol version is not supported.
    Version,
    /// The request could not be decoded.
    Malformed,
    /// The server hit an internal failure handling the request.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Version => 0,
            ErrorCode::Malformed => 1,
            ErrorCode::Internal => 2,
        }
    }

    fn from_u8(v: u8) -> crate::Result<ErrorCode> {
        Ok(match v {
            0 => ErrorCode::Version,
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Internal,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// A cache node's counter snapshot as carried on the wire (mirrors
/// `cache_server::CacheStats`; conversions live in `cache-server`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Misses because the key was never inserted.
    pub compulsory_misses: u64,
    /// Misses because every cached version was too stale.
    pub staleness_misses: u64,
    /// Misses because the entry had been evicted.
    pub capacity_misses: u64,
    /// Misses because no fresh-enough version intersected the pin set.
    pub consistency_misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Insertions skipped as duplicates.
    pub duplicate_insertions: u64,
    /// Entries truncated by invalidations.
    pub invalidated_entries: u64,
    /// Entries truncated on insert (§4.2 update/insert race).
    pub late_insert_truncations: u64,
    /// Still-valid entries bounded by a `SealStillValid` request.
    pub sealed_entries: u64,
    /// Invalidation messages processed.
    pub invalidation_messages: u64,
    /// Entries evicted for memory.
    pub lru_evictions: u64,
    /// Entries evicted as too stale to use.
    pub staleness_evictions: u64,
    /// Still-valid insertions dropped below the pruned-history floor.
    pub history_floor_drops: u64,
    /// Bytes currently cached.
    pub used_bytes: u64,
}

impl NodeStats {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.hits,
            self.compulsory_misses,
            self.staleness_misses,
            self.capacity_misses,
            self.consistency_misses,
            self.insertions,
            self.duplicate_insertions,
            self.invalidated_entries,
            self.late_insert_truncations,
            self.sealed_entries,
            self.invalidation_messages,
            self.lru_evictions,
            self.staleness_evictions,
            self.history_floor_drops,
            self.used_bytes,
        ] {
            w.put_u64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<NodeStats> {
        Ok(NodeStats {
            hits: r.get_u64()?,
            compulsory_misses: r.get_u64()?,
            staleness_misses: r.get_u64()?,
            capacity_misses: r.get_u64()?,
            consistency_misses: r.get_u64()?,
            insertions: r.get_u64()?,
            duplicate_insertions: r.get_u64()?,
            invalidated_entries: r.get_u64()?,
            late_insert_truncations: r.get_u64()?,
            sealed_entries: r.get_u64()?,
            invalidation_messages: r.get_u64()?,
            lru_evictions: r.get_u64()?,
            staleness_evictions: r.get_u64()?,
            history_floor_drops: r.get_u64()?,
            used_bytes: r.get_u64()?,
        })
    }
}

/// One shard's lock-contention and eviction counters as carried on the wire
/// (mirrors `cache_server::CacheShardStats`; conversions live in
/// `cache-server`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of the shard within its node.
    pub shard: u32,
    /// Shared (reader) lock acquisitions.
    pub read_locks: u64,
    /// Exclusive (writer) lock acquisitions.
    pub write_locks: u64,
    /// Reader acquisitions that had to wait.
    pub read_waits: u64,
    /// Writer acquisitions that had to wait.
    pub write_waits: u64,
    /// Entries evicted to fit the shard's capacity budget.
    pub lru_evictions: u64,
    /// Entries evicted as too stale to use.
    pub staleness_evictions: u64,
    /// Entries currently stored on the shard.
    pub entries: u64,
    /// Bytes currently stored on the shard.
    pub used_bytes: u64,
}

impl ShardStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shard);
        for v in [
            self.read_locks,
            self.write_locks,
            self.read_waits,
            self.write_waits,
            self.lru_evictions,
            self.staleness_evictions,
            self.entries,
            self.used_bytes,
        ] {
            w.put_u64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<ShardStats> {
        Ok(ShardStats {
            shard: r.get_u32()?,
            read_locks: r.get_u64()?,
            write_locks: r.get_u64()?,
            read_waits: r.get_u64()?,
            write_waits: r.get_u64()?,
            lru_evictions: r.get_u64()?,
            staleness_evictions: r.get_u64()?,
            entries: r.get_u64()?,
            used_bytes: r.get_u64()?,
        })
    }
}

/// One latency histogram as carried on the wire (protocol v6): the scalar
/// summary plus the *nonzero* log2 buckets as sparse `(bucket index,
/// count)` pairs — a full 64-bucket array would mostly carry zeroes.
/// Mirrors `obs::HistogramSnapshot`; conversions live in `cache-server` so
/// this crate stays dependency-light.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramReport {
    /// The histogram's registry name (e.g. `server.req.get.us`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Sparse nonzero buckets: `(log2 bucket index, count)`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramReport {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
        w.put_u32(self.buckets.len() as u32);
        for (index, count) in &self.buckets {
            w.put_u8(*index);
            w.put_u64(*count);
        }
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<HistogramReport> {
        let name = r.get_str()?;
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let min = r.get_u64()?;
        let max = r.get_u64()?;
        let bucket_count = r.get_u32()? as usize;
        // A log2 histogram has at most 64 buckets; a larger count is a
        // corrupt or hostile frame.
        if bucket_count > 64 {
            return Err(WireError::TooLarge(bucket_count));
        }
        let mut buckets = Vec::with_capacity(bucket_count);
        for _ in 0..bucket_count {
            buckets.push((r.get_u8()?, r.get_u64()?));
        }
        Ok(HistogramReport {
            name,
            count,
            sum,
            min,
            max,
            buckets,
        })
    }
}

/// A node's full observability registry as carried on the wire (protocol
/// v6): every named counter, gauge, and latency histogram, sorted by name.
/// Mirrors `obs::MetricsSnapshot`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every latency histogram.
    pub histograms: Vec<HistogramReport>,
}

impl MetricsReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.counters.len() as u32);
        for (name, v) in &self.counters {
            w.put_str(name);
            w.put_u64(*v);
        }
        w.put_u32(self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            w.put_str(name);
            w.put_u64(*v as u64);
        }
        w.put_u32(self.histograms.len() as u32);
        for h in &self.histograms {
            h.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<MetricsReport> {
        // Each counter/gauge entry is at least 12 bytes, each histogram at
        // least 40; reject counts no legal frame could hold.
        let counter_count = r.get_u32()? as usize;
        if counter_count > crate::MAX_FRAME_BYTES / 12 {
            return Err(WireError::TooLarge(counter_count));
        }
        let mut counters = Vec::with_capacity(counter_count.min(1024));
        for _ in 0..counter_count {
            counters.push((r.get_str()?, r.get_u64()?));
        }
        let gauge_count = r.get_u32()? as usize;
        if gauge_count > crate::MAX_FRAME_BYTES / 12 {
            return Err(WireError::TooLarge(gauge_count));
        }
        let mut gauges = Vec::with_capacity(gauge_count.min(1024));
        for _ in 0..gauge_count {
            gauges.push((r.get_str()?, r.get_u64()? as i64));
        }
        let histogram_count = r.get_u32()? as usize;
        if histogram_count > crate::MAX_FRAME_BYTES / 40 {
            return Err(WireError::TooLarge(histogram_count));
        }
        let mut histograms = Vec::with_capacity(histogram_count.min(1024));
        for _ in 0..histogram_count {
            histograms.push(HistogramReport::decode(r)?);
        }
        Ok(MetricsReport {
            counters,
            gauges,
            histograms,
        })
    }
}

// Request opcodes (< 0x80).
const OP_PING: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_PUT: u8 = 0x03;
const OP_INVALIDATION_BATCH: u8 = 0x04;
const OP_EVICT_STALE: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_RESET_STATS: u8 = 0x07;
const OP_SEAL_STILL_VALID: u8 = 0x08;
const OP_SHARD_STATS: u8 = 0x09;
const OP_MULTI_GET: u8 = 0x0A;
const OP_MULTI_PUT: u8 = 0x0B;
const OP_RING_EPOCH: u8 = 0x0C;
const OP_METRICS: u8 = 0x0D;

// Response opcodes (>= 0x80).
const OP_PONG: u8 = 0x81;
const OP_HIT: u8 = 0x82;
const OP_MISS: u8 = 0x83;
const OP_PUT_ACK: u8 = 0x84;
const OP_INVALIDATION_ACK: u8 = 0x85;
const OP_STATS_SNAPSHOT: u8 = 0x86;
const OP_OK: u8 = 0x87;
const OP_SEALED: u8 = 0x88;
const OP_SHARD_STATS_SNAPSHOT: u8 = 0x89;
const OP_MULTI_GET_RESULT: u8 = 0x8A;
const OP_MULTI_PUT_ACK: u8 = 0x8B;
const OP_EPOCH_ACK: u8 = 0x8C;
const OP_WRONG_EPOCH: u8 = 0x8D;
const OP_METRICS_SNAPSHOT: u8 = 0x8E;
const OP_ERROR: u8 = 0xFF;

/// One store operation of a [`Request::MultiPut`] batch; field-for-field the
/// payload of a single [`Request::Put`].
#[derive(Debug, Clone, PartialEq)]
pub struct PutEntry {
    /// The cacheable call this value memoizes.
    pub key: CacheKey,
    /// The serialized result.
    pub value: Bytes,
    /// The range of timestamps over which the value is current.
    pub validity: ValidityInterval,
    /// The value's invalidation tags.
    pub tags: TagSet,
    /// The client's wall-clock time of the insert.
    pub now: WallClock,
}

impl PutEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_key(&self.key);
        w.put_bytes(&self.value);
        w.put_interval(self.validity);
        w.put_tagset(&self.tags);
        w.put_wallclock(self.now);
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<PutEntry> {
        Ok(PutEntry {
            key: r.get_key()?,
            value: r.get_value()?,
            validity: r.get_interval()?,
            tags: r.get_tagset()?,
            now: r.get_wallclock()?,
        })
    }
}

/// One position of a [`Response::MultiGetResult`]: the per-key outcome of a
/// scatter-gather lookup, mirroring the single-key
/// [`Response::Hit`]/[`Response::Miss`] pair.
#[derive(Debug, Clone, PartialEq)]
pub enum GetResult {
    /// The lookup found a matching version.
    Hit {
        /// The cached value.
        value: Bytes,
        /// The effective validity interval (still-valid entries bounded by
        /// the node's last processed invalidation, §4.2).
        validity: ValidityInterval,
        /// The validity interval exactly as stored (possibly unbounded).
        stored_validity: ValidityInterval,
        /// The entry's dependency tags.
        tags: TagSet,
    },
    /// The lookup found nothing usable.
    Miss {
        /// Why (§8.3 classification).
        kind: MissCode,
    },
}

impl GetResult {
    fn encode(&self, w: &mut Writer) {
        match self {
            GetResult::Miss { kind } => {
                w.put_u8(0);
                w.put_u8(kind.to_u8());
            }
            GetResult::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => {
                w.put_u8(1);
                w.put_bytes(value);
                w.put_interval(*validity);
                w.put_interval(*stored_validity);
                w.put_tagset(tags);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> crate::Result<GetResult> {
        match r.get_u8()? {
            0 => Ok(GetResult::Miss {
                kind: MissCode::from_u8(r.get_u8()?)?,
            }),
            1 => Ok(GetResult::Hit {
                value: r.get_value()?,
                validity: r.get_interval()?,
                stored_validity: r.get_interval()?,
                tags: r.get_tagset()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A request from the TxCache library to a cache node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / readiness probe; the nonce is echoed back.
    Ping {
        /// An arbitrary value echoed in the matching [`Response::Pong`].
        nonce: u64,
    },
    /// A versioned lookup (§4.1): the key plus the transaction's acceptable
    /// timestamp interval.
    VersionedGet {
        /// The cacheable call being looked up.
        key: CacheKey,
        /// Lowest timestamp in the transaction's pin set.
        pinset_lo: Timestamp,
        /// Highest timestamp in the transaction's pin set.
        pinset_hi: Timestamp,
        /// Earliest timestamp acceptable under the staleness limit alone
        /// (used only to classify misses).
        freshness_lo: Timestamp,
    },
    /// Store a computed value with its validity interval and dependencies.
    Put {
        /// The cacheable call this value memoizes.
        key: CacheKey,
        /// The serialized result.
        value: Bytes,
        /// The range of timestamps over which the value is current.
        validity: ValidityInterval,
        /// The value's invalidation tags.
        tags: TagSet,
        /// The client's wall-clock time of the insert.
        now: WallClock,
    },
    /// An ordered slice of the database's invalidation stream (§4.2) plus a
    /// heartbeat: all invalidations at or below `heartbeat` have been
    /// delivered once this batch is applied.
    InvalidationBatch {
        /// The invalidation events, in commit order.
        events: Vec<InvalidationEvent>,
        /// Timestamp through which the stream is now complete.
        heartbeat: Timestamp,
    },
    /// Eagerly evict entries whose validity ended before the horizon.
    EvictStale {
        /// No transaction can use entries that ended before this timestamp.
        min_useful_ts: Timestamp,
    },
    /// Fetch the node's counter snapshot.
    Stats,
    /// Fetch the node's per-shard lock-contention and eviction counters.
    ShardStats,
    /// Zero the node's hit/miss counters.
    ResetStats,
    /// Bound every still-valid entry at the node's current invalidation
    /// horizon. A client sends this after healing a broken connection: the
    /// node may have missed invalidation-stream messages while unreachable,
    /// so its still-valid entries must not be extended by later heartbeats
    /// (the reliable-multicast recovery rule of §4.2).
    SealStillValid,
    /// A scatter-gather batch of versioned lookups (protocol v4): every key
    /// of a transaction's read set routed to this node, sharing one pin-set
    /// interval, answered by a single [`Response::MultiGetResult`] — so a
    /// 16-key read set costs one round trip instead of sixteen.
    MultiGet {
        /// The ring epoch the client routed this batch with (protocol v5).
        /// A node that has been told a different epoch answers
        /// [`Response::WrongEpoch`] instead of serving misses for keys that
        /// moved. Zero means "unversioned": the check is skipped.
        epoch: u64,
        /// The cacheable calls being looked up, in request order.
        keys: Vec<CacheKey>,
        /// Lowest timestamp in the transaction's pin set.
        pinset_lo: Timestamp,
        /// Highest timestamp in the transaction's pin set.
        pinset_hi: Timestamp,
        /// Earliest timestamp acceptable under the staleness limit alone.
        freshness_lo: Timestamp,
    },
    /// A batch of stores (protocol v4), acknowledged as one
    /// [`Response::MultiPutAck`].
    MultiPut {
        /// The ring epoch the client routed this batch with (protocol v5);
        /// zero skips the check, see [`Request::MultiGet::epoch`].
        epoch: u64,
        /// The store operations, applied in order.
        entries: Vec<PutEntry>,
    },
    /// Announces the cluster's ring-membership epoch to a node (protocol
    /// v5). Nodes remember the highest epoch they have seen and use it to
    /// fence epoch-stamped [`Request::MultiGet`]/[`Request::MultiPut`]
    /// batches from clients still routing on an older ring.
    RingEpoch {
        /// The membership epoch being announced.
        epoch: u64,
    },
    /// Fetch the node's full observability registry (protocol v6): every
    /// named counter, gauge, and per-opcode latency histogram, answered by
    /// [`Response::MetricsSnapshot`]. Unlike [`Request::Stats`] — a fixed
    /// struct of cache counters — the registry is open-ended, so new
    /// metrics reach monitoring without a protocol change.
    Metrics,
}

impl Request {
    /// Every request opcode's metric label, indexed by
    /// [`Request::op_index`]. The client's `client.rtt.<label>.us` and the
    /// node's `server.req.<label>.us` histograms share these names, so the
    /// two scrapes line up (their difference is the network's share).
    pub const LABELS: [&'static str; 13] = [
        "ping",
        "get",
        "put",
        "multi_get",
        "multi_put",
        "inval_batch",
        "evict_stale",
        "stats",
        "shard_stats",
        "reset_stats",
        "seal",
        "ring_epoch",
        "metrics",
    ];

    /// This request's slot in [`Request::LABELS`] (and in any bank of
    /// per-opcode metrics).
    #[inline]
    #[must_use]
    pub fn op_index(&self) -> usize {
        match self {
            Request::Ping { .. } => 0,
            Request::VersionedGet { .. } => 1,
            Request::Put { .. } => 2,
            Request::MultiGet { .. } => 3,
            Request::MultiPut { .. } => 4,
            Request::InvalidationBatch { .. } => 5,
            Request::EvictStale { .. } => 6,
            Request::Stats => 7,
            Request::ShardStats => 8,
            Request::ResetStats => 9,
            Request::SealStillValid => 10,
            Request::RingEpoch { .. } => 11,
            Request::Metrics => 12,
        }
    }

    /// This request's metric label.
    #[inline]
    #[must_use]
    pub fn label(&self) -> &'static str {
        Request::LABELS[self.op_index()]
    }

    /// Encodes the request into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Request::Ping { nonce } => {
                w.put_u8(OP_PING);
                w.put_u64(*nonce);
            }
            Request::VersionedGet {
                key,
                pinset_lo,
                pinset_hi,
                freshness_lo,
            } => {
                w.put_u8(OP_GET);
                w.put_key(key);
                w.put_timestamp(*pinset_lo);
                w.put_timestamp(*pinset_hi);
                w.put_timestamp(*freshness_lo);
            }
            Request::Put {
                key,
                value,
                validity,
                tags,
                now,
            } => {
                w.put_u8(OP_PUT);
                w.put_key(key);
                w.put_bytes(value);
                w.put_interval(*validity);
                w.put_tagset(tags);
                w.put_wallclock(*now);
            }
            Request::InvalidationBatch { events, heartbeat } => {
                w.put_u8(OP_INVALIDATION_BATCH);
                w.put_u32(events.len() as u32);
                for e in events {
                    w.put_timestamp(e.timestamp);
                    w.put_tagset(&e.tags);
                }
                w.put_timestamp(*heartbeat);
            }
            Request::EvictStale { min_useful_ts } => {
                w.put_u8(OP_EVICT_STALE);
                w.put_timestamp(*min_useful_ts);
            }
            Request::Stats => w.put_u8(OP_STATS),
            Request::ShardStats => w.put_u8(OP_SHARD_STATS),
            Request::ResetStats => w.put_u8(OP_RESET_STATS),
            Request::SealStillValid => w.put_u8(OP_SEAL_STILL_VALID),
            Request::MultiGet {
                epoch,
                keys,
                pinset_lo,
                pinset_hi,
                freshness_lo,
            } => {
                w.put_u8(OP_MULTI_GET);
                w.put_u64(*epoch);
                w.put_u32(keys.len() as u32);
                for key in keys {
                    w.put_key(key);
                }
                w.put_timestamp(*pinset_lo);
                w.put_timestamp(*pinset_hi);
                w.put_timestamp(*freshness_lo);
            }
            Request::MultiPut { epoch, entries } => {
                w.put_u8(OP_MULTI_PUT);
                w.put_u64(*epoch);
                w.put_u32(entries.len() as u32);
                for entry in entries {
                    entry.encode(&mut w);
                }
            }
            Request::RingEpoch { epoch } => {
                w.put_u8(OP_RING_EPOCH);
                w.put_u64(*epoch);
            }
            Request::Metrics => w.put_u8(OP_METRICS),
        }
        w.into_vec()
    }

    /// Decodes a frame body into a request.
    pub fn decode(body: &[u8]) -> crate::Result<Request> {
        Request::decode_reader(Reader::new(body))
    }

    /// Decodes a frame body held in a shared buffer; value payloads come out
    /// as zero-copy slices of `body` instead of per-value allocations.
    pub fn decode_shared(body: &Bytes) -> crate::Result<Request> {
        Request::decode_reader(Reader::new_shared(body))
    }

    fn decode_reader(mut r: Reader<'_>) -> crate::Result<Request> {
        let version = r.get_u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        let op = r.get_u8()?;
        let request = match op {
            OP_PING => Request::Ping {
                nonce: r.get_u64()?,
            },
            OP_GET => Request::VersionedGet {
                key: r.get_key()?,
                pinset_lo: r.get_timestamp()?,
                pinset_hi: r.get_timestamp()?,
                freshness_lo: r.get_timestamp()?,
            },
            OP_PUT => Request::Put {
                key: r.get_key()?,
                value: r.get_value()?,
                validity: r.get_interval()?,
                tags: r.get_tagset()?,
                now: r.get_wallclock()?,
            },
            OP_INVALIDATION_BATCH => {
                let count = r.get_u32()? as usize;
                if count > crate::MAX_FRAME_BYTES / 8 {
                    return Err(WireError::TooLarge(count));
                }
                let mut events = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    events.push(InvalidationEvent {
                        timestamp: r.get_timestamp()?,
                        tags: r.get_tagset()?,
                    });
                }
                Request::InvalidationBatch {
                    events,
                    heartbeat: r.get_timestamp()?,
                }
            }
            OP_EVICT_STALE => Request::EvictStale {
                min_useful_ts: r.get_timestamp()?,
            },
            OP_STATS => Request::Stats,
            OP_SHARD_STATS => Request::ShardStats,
            OP_RESET_STATS => Request::ResetStats,
            OP_SEAL_STILL_VALID => Request::SealStillValid,
            OP_MULTI_GET => {
                let epoch = r.get_u64()?;
                let count = r.get_u32()? as usize;
                if count > crate::MAX_FRAME_BYTES / 8 {
                    return Err(WireError::TooLarge(count));
                }
                let mut keys = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    keys.push(r.get_key()?);
                }
                Request::MultiGet {
                    epoch,
                    keys,
                    pinset_lo: r.get_timestamp()?,
                    pinset_hi: r.get_timestamp()?,
                    freshness_lo: r.get_timestamp()?,
                }
            }
            OP_MULTI_PUT => {
                let epoch = r.get_u64()?;
                let count = r.get_u32()? as usize;
                if count > crate::MAX_FRAME_BYTES / 8 {
                    return Err(WireError::TooLarge(count));
                }
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    entries.push(PutEntry::decode(&mut r)?);
                }
                Request::MultiPut { epoch, entries }
            }
            OP_RING_EPOCH => Request::RingEpoch {
                epoch: r.get_u64()?,
            },
            OP_METRICS => Request::Metrics,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(request)
    }
}

/// A cache node's answer to one [`Request`]. Responses are returned in
/// request order, which is what makes client-side pipelining sound.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The nonce from the ping.
        nonce: u64,
    },
    /// The lookup found a matching version.
    Hit {
        /// The cached value.
        value: Bytes,
        /// The effective validity interval (still-valid entries bounded by
        /// the node's last processed invalidation, §4.2); the library narrows
        /// the pin set with this.
        validity: ValidityInterval,
        /// The validity interval exactly as stored (possibly unbounded);
        /// enclosing cacheable calls accumulate this one.
        stored_validity: ValidityInterval,
        /// The entry's dependency tags.
        tags: TagSet,
    },
    /// The lookup found nothing usable.
    Miss {
        /// Why (§8.3 classification).
        kind: MissCode,
    },
    /// A [`Request::Put`] was applied (or skipped as a duplicate).
    PutAck,
    /// A [`Request::InvalidationBatch`] was applied.
    InvalidationAck {
        /// Number of events processed from the batch.
        applied: u64,
    },
    /// A [`Request::SealStillValid`] was applied.
    Sealed {
        /// Number of still-valid entries that were bounded.
        sealed: u64,
    },
    /// The node's counters.
    StatsSnapshot(NodeStats),
    /// The node's per-shard lock-contention and eviction counters.
    ShardStatsSnapshot(Vec<ShardStats>),
    /// Per-key outcomes of a [`Request::MultiGet`], in the request's key
    /// order.
    MultiGetResult {
        /// One outcome per requested key.
        results: Vec<GetResult>,
    },
    /// A [`Request::MultiPut`] was applied.
    MultiPutAck {
        /// Number of entries stored (duplicates included — they are counted
        /// by the node's own `duplicate_insertions` stat).
        applied: u64,
    },
    /// A [`Request::RingEpoch`] announcement was absorbed.
    EpochAck {
        /// The highest membership epoch the node has now seen (at least the
        /// announced one; higher if another client announced a newer ring).
        epoch: u64,
    },
    /// An epoch-stamped batch was refused because the client routed it on a
    /// stale ring (protocol v5). A typed redirect: the client should refresh
    /// its ring view to at least `expected` and re-route, instead of
    /// mistaking relocated keys for misses.
    WrongEpoch {
        /// The membership epoch the node currently expects.
        expected: u64,
    },
    /// The node's full observability registry (protocol v6), answering
    /// [`Request::Metrics`].
    MetricsSnapshot(MetricsReport),
    /// Generic success for requests with no payload to return.
    Ok,
    /// The request failed; the connection remains usable unless the error is
    /// a version mismatch.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32);
        w.put_u8(PROTOCOL_VERSION);
        match self {
            Response::Pong { nonce } => {
                w.put_u8(OP_PONG);
                w.put_u64(*nonce);
            }
            Response::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => {
                w.put_u8(OP_HIT);
                w.put_bytes(value);
                w.put_interval(*validity);
                w.put_interval(*stored_validity);
                w.put_tagset(tags);
            }
            Response::Miss { kind } => {
                w.put_u8(OP_MISS);
                w.put_u8(kind.to_u8());
            }
            Response::PutAck => w.put_u8(OP_PUT_ACK),
            Response::InvalidationAck { applied } => {
                w.put_u8(OP_INVALIDATION_ACK);
                w.put_u64(*applied);
            }
            Response::Sealed { sealed } => {
                w.put_u8(OP_SEALED);
                w.put_u64(*sealed);
            }
            Response::StatsSnapshot(stats) => {
                w.put_u8(OP_STATS_SNAPSHOT);
                stats.encode(&mut w);
            }
            Response::ShardStatsSnapshot(shards) => {
                w.put_u8(OP_SHARD_STATS_SNAPSHOT);
                w.put_u32(shards.len() as u32);
                for shard in shards {
                    shard.encode(&mut w);
                }
            }
            Response::MultiGetResult { results } => {
                w.put_u8(OP_MULTI_GET_RESULT);
                w.put_u32(results.len() as u32);
                for result in results {
                    result.encode(&mut w);
                }
            }
            Response::MultiPutAck { applied } => {
                w.put_u8(OP_MULTI_PUT_ACK);
                w.put_u64(*applied);
            }
            Response::EpochAck { epoch } => {
                w.put_u8(OP_EPOCH_ACK);
                w.put_u64(*epoch);
            }
            Response::WrongEpoch { expected } => {
                w.put_u8(OP_WRONG_EPOCH);
                w.put_u64(*expected);
            }
            Response::MetricsSnapshot(report) => {
                w.put_u8(OP_METRICS_SNAPSHOT);
                report.encode(&mut w);
            }
            Response::Ok => w.put_u8(OP_OK),
            Response::Error { code, message } => {
                w.put_u8(OP_ERROR);
                w.put_u8(code.to_u8());
                w.put_str(message);
            }
        }
        w.into_vec()
    }

    /// Decodes a frame body into a response.
    pub fn decode(body: &[u8]) -> crate::Result<Response> {
        Response::decode_reader(Reader::new(body))
    }

    /// Decodes a frame body held in a shared buffer; hit values come out as
    /// zero-copy slices of `body` instead of per-value allocations.
    pub fn decode_shared(body: &Bytes) -> crate::Result<Response> {
        Response::decode_reader(Reader::new_shared(body))
    }

    fn decode_reader(mut r: Reader<'_>) -> crate::Result<Response> {
        let version = r.get_u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::Version { got: version });
        }
        let op = r.get_u8()?;
        let response = match op {
            OP_PONG => Response::Pong {
                nonce: r.get_u64()?,
            },
            OP_HIT => Response::Hit {
                value: r.get_value()?,
                validity: r.get_interval()?,
                stored_validity: r.get_interval()?,
                tags: r.get_tagset()?,
            },
            OP_MISS => Response::Miss {
                kind: MissCode::from_u8(r.get_u8()?)?,
            },
            OP_PUT_ACK => Response::PutAck,
            OP_INVALIDATION_ACK => Response::InvalidationAck {
                applied: r.get_u64()?,
            },
            OP_SEALED => Response::Sealed {
                sealed: r.get_u64()?,
            },
            OP_STATS_SNAPSHOT => Response::StatsSnapshot(NodeStats::decode(&mut r)?),
            OP_SHARD_STATS_SNAPSHOT => {
                let count = r.get_u32()? as usize;
                // Each shard entry is 68 bytes; reject counts no frame can hold.
                if count > crate::MAX_FRAME_BYTES / 68 {
                    return Err(WireError::TooLarge(count));
                }
                let mut shards = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    shards.push(ShardStats::decode(&mut r)?);
                }
                Response::ShardStatsSnapshot(shards)
            }
            OP_MULTI_GET_RESULT => {
                let count = r.get_u32()? as usize;
                if count > crate::MAX_FRAME_BYTES / 2 {
                    return Err(WireError::TooLarge(count));
                }
                let mut results = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    results.push(GetResult::decode(&mut r)?);
                }
                Response::MultiGetResult { results }
            }
            OP_MULTI_PUT_ACK => Response::MultiPutAck {
                applied: r.get_u64()?,
            },
            OP_EPOCH_ACK => Response::EpochAck {
                epoch: r.get_u64()?,
            },
            OP_WRONG_EPOCH => Response::WrongEpoch {
                expected: r.get_u64()?,
            },
            OP_METRICS_SNAPSHOT => Response::MetricsSnapshot(MetricsReport::decode(&mut r)?),
            OP_OK => Response::Ok,
            OP_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.get_u8()?)?,
                message: r.get_str()?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(response)
    }

    /// Converts an error frame into a [`WireError::Remote`], passing other
    /// responses through. Clients call this right after receiving.
    pub fn into_result(self) -> crate::Result<Response> {
        match self {
            Response::Error { code, message } => Err(WireError::Remote { code, message }),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtypes::InvalidationTag;

    fn tags() -> TagSet {
        [
            InvalidationTag::keyed("items", "id=7"),
            InvalidationTag::wildcard("users"),
        ]
        .into_iter()
        .collect()
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping { nonce: 99 },
            Request::VersionedGet {
                key: CacheKey::new("f", "[1]"),
                pinset_lo: Timestamp(3),
                pinset_hi: Timestamp(9),
                freshness_lo: Timestamp(1),
            },
            Request::Put {
                key: CacheKey::new("g", ""),
                value: Bytes::from(vec![1, 2, 3]),
                validity: ValidityInterval::unbounded(Timestamp(4)),
                tags: tags(),
                now: WallClock::from_secs(1),
            },
            Request::InvalidationBatch {
                events: vec![
                    InvalidationEvent {
                        timestamp: Timestamp(5),
                        tags: tags(),
                    },
                    InvalidationEvent {
                        timestamp: Timestamp(6),
                        tags: TagSet::new(),
                    },
                ],
                heartbeat: Timestamp(6),
            },
            Request::EvictStale {
                min_useful_ts: Timestamp(11),
            },
            Request::Stats,
            Request::ShardStats,
            Request::ResetStats,
            Request::SealStillValid,
            Request::MultiGet {
                epoch: 3,
                keys: vec![
                    CacheKey::new("f", "[1]"),
                    CacheKey::new("f", "[2]"),
                    CacheKey::new("g", ""),
                ],
                pinset_lo: Timestamp(3),
                pinset_hi: Timestamp(9),
                freshness_lo: Timestamp(1),
            },
            Request::MultiGet {
                epoch: 0,
                keys: Vec::new(),
                pinset_lo: Timestamp(1),
                pinset_hi: Timestamp(1),
                freshness_lo: Timestamp(1),
            },
            Request::RingEpoch { epoch: 42 },
            Request::Metrics,
            Request::MultiPut {
                epoch: 7,
                entries: vec![
                    PutEntry {
                        key: CacheKey::new("g", "[1]"),
                        value: Bytes::from(vec![4, 5]),
                        validity: ValidityInterval::unbounded(Timestamp(4)),
                        tags: tags(),
                        now: WallClock::from_secs(2),
                    },
                    PutEntry {
                        key: CacheKey::new("g", "[2]"),
                        value: Bytes::new(),
                        validity: ValidityInterval::bounded(Timestamp(1), Timestamp(2)).unwrap(),
                        tags: TagSet::new(),
                        now: WallClock::ZERO,
                    },
                ],
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong { nonce: 99 },
            Response::Hit {
                value: Bytes::from(vec![9; 32]),
                validity: ValidityInterval::bounded(Timestamp(1), Timestamp(5)).unwrap(),
                stored_validity: ValidityInterval::unbounded(Timestamp(1)),
                tags: tags(),
            },
            Response::Miss {
                kind: MissCode::Consistency,
            },
            Response::PutAck,
            Response::InvalidationAck { applied: 2 },
            Response::Sealed { sealed: 7 },
            Response::StatsSnapshot(NodeStats {
                hits: 5,
                history_floor_drops: 2,
                used_bytes: 1024,
                ..NodeStats::default()
            }),
            Response::ShardStatsSnapshot(vec![
                ShardStats {
                    shard: 0,
                    read_locks: 12,
                    write_locks: 3,
                    read_waits: 1,
                    write_waits: 0,
                    lru_evictions: 2,
                    staleness_evictions: 1,
                    entries: 9,
                    used_bytes: 512,
                },
                ShardStats::default(),
            ]),
            Response::ShardStatsSnapshot(Vec::new()),
            Response::MultiGetResult {
                results: vec![
                    GetResult::Hit {
                        value: Bytes::from(vec![1, 2, 3]),
                        validity: ValidityInterval::bounded(Timestamp(1), Timestamp(5)).unwrap(),
                        stored_validity: ValidityInterval::unbounded(Timestamp(1)),
                        tags: tags(),
                    },
                    GetResult::Miss {
                        kind: MissCode::Compulsory,
                    },
                ],
            },
            Response::MultiGetResult {
                results: Vec::new(),
            },
            Response::MultiPutAck { applied: 2 },
            Response::EpochAck { epoch: 42 },
            Response::WrongEpoch { expected: 43 },
            Response::MetricsSnapshot(MetricsReport {
                counters: vec![
                    ("server.conns.accepted".into(), 12),
                    ("server.slow_ops.captured".into(), 1),
                ],
                gauges: vec![("server.queue.depth".into(), -2)],
                histograms: vec![
                    HistogramReport {
                        name: "server.req.get.us".into(),
                        count: 3,
                        sum: 900,
                        min: 100,
                        max: 500,
                        buckets: vec![(6, 1), (8, 2)],
                    },
                    HistogramReport {
                        name: "server.req.put.us".into(),
                        count: 0,
                        sum: 0,
                        min: u64::MAX,
                        max: 0,
                        buckets: Vec::new(),
                    },
                ],
            }),
            Response::MetricsSnapshot(MetricsReport::default()),
            Response::Ok,
            Response::Error {
                code: ErrorCode::Malformed,
                message: "bad frame".into(),
            },
        ]
    }

    #[test]
    fn request_labels_are_distinct_and_cover_every_opcode() {
        let unique: std::collections::HashSet<&str> = Request::LABELS.iter().copied().collect();
        assert_eq!(unique.len(), Request::LABELS.len());
        let slots: std::collections::BTreeSet<usize> =
            all_requests().iter().map(Request::op_index).collect();
        assert_eq!(slots.len(), Request::LABELS.len(), "every slot is reached");
        assert_eq!(Request::Ping { nonce: 0 }.label(), "ping");
        assert_eq!(Request::Stats.label(), "stats");
        assert_eq!(Request::Metrics.label(), "metrics");
        assert_eq!(Request::SealStillValid.label(), "seal");
    }

    #[test]
    fn every_request_roundtrips() {
        for request in all_requests() {
            let body = request.encode();
            assert_eq!(Request::decode(&body).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for response in all_responses() {
            let body = response.encode();
            assert_eq!(Response::decode(&body).unwrap(), response, "{response:?}");
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut body = Request::Ping { nonce: 1 }.encode();
        body[0] = PROTOCOL_VERSION + 1;
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Version { got }) if got == PROTOCOL_VERSION + 1
        ));
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        let body = vec![PROTOCOL_VERSION, 0x77];
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::UnknownOpcode(0x77))
        ));
        let body = vec![PROTOCOL_VERSION, 0x10];
        assert!(matches!(
            Response::decode(&body),
            Err(WireError::UnknownOpcode(0x10))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Stats.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn error_responses_convert_to_remote_errors() {
        let err = Response::Error {
            code: ErrorCode::Internal,
            message: "boom".into(),
        };
        assert!(matches!(
            err.into_result(),
            Err(WireError::Remote {
                code: ErrorCode::Internal,
                ..
            })
        ));
        assert!(Response::Ok.into_result().is_ok());
    }
}
