//! # cache-server — the versioned application-data cache (§4)
//!
//! This crate implements the cache half of TxCache: in-memory cache nodes
//! that store *versioned* entries. Each entry is tagged with the validity
//! interval over which its value was the current result, and still-valid
//! entries carry invalidation tags describing their database dependencies.
//!
//! Key behaviours reproduced from the paper:
//!
//! * **Versioned lookups** (§4.1): a lookup names a key plus a range of
//!   acceptable timestamps (the transaction's pin-set bounds); the node
//!   returns the most recent version whose validity interval intersects the
//!   range, along with that interval.
//! * **Invalidation streams** (§4.2): nodes process the database's ordered
//!   per-commit invalidation messages, truncating the validity of matching
//!   still-valid entries at the commit timestamp. Still-valid entries are
//!   treated as valid only up to the last processed invalidation, which
//!   closes the update/insert race; an insert that arrives after its own
//!   invalidation is truncated on arrival.
//! * **Dual-granularity tags** (§4.2): keyed tags (`table:col=value`) and
//!   wildcard tags (`table:?`) on both the dependency and the update side.
//! * **Eviction** (§4.1): LRU under a per-node byte budget, plus eager
//!   removal of entries too stale to satisfy any transaction.
//! * **Consistent hashing** (§4): keys are partitioned across nodes; every
//!   client maps keys to nodes directly. Placement is an immutable,
//!   epoch-versioned [`RingView`] mapping each key to an ordered replica
//!   set (primary + R−1 ring successors). The in-process [`CacheCluster`]
//!   builds its ring once; runtime join/leave lives only in the networked
//!   client, `txcache::RemoteCluster`, the one membership implementation.
//! * **Miss classification** (§8.3): compulsory, staleness, capacity and
//!   consistency misses, used to regenerate Figure 8.
//!
//! # Concurrency
//!
//! Each node's store is split into key-hash shards, each behind its own
//! reader/writer lock ([`node`] module docs describe the full locking
//! protocol): lookups take one shard's shared lock, inserts and evictions
//! one shard's exclusive lock, and the invalidation stream applies in commit
//! order under a node-level sequencer that write-locks only the shards a
//! batch actually touches. Both consumers — the in-process
//! [`CacheCluster`] and the networked [`TxcachedServer`] — share their node
//! by reference, so concurrent application servers and connection handlers
//! scale with cores instead of queueing on one node-wide mutex. Per-shard
//! lock and eviction counters ([`CacheShardStats`]) make residual contention
//! observable locally and over the wire.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod entry;
mod event_loop;
pub mod node;
pub mod ring;
pub mod server;
mod shard;
pub mod stats;
pub mod telemetry;

pub use cluster::CacheCluster;
pub use entry::{CacheEntry, LookupOutcome, LookupRequest, MissKind};
pub use node::{CacheNode, NodeConfig};
pub use ring::{RingBuilder, RingView};
pub use server::{ServerStats, TxcachedServer};
pub use stats::{CacheShardStats, CacheStats};
pub use telemetry::snapshot_from_wire;
