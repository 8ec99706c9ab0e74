//! Pluggable cache transports: in-process or over the `wire` protocol.
//!
//! The paper's deployment puts cache nodes on their own machines behind a
//! memcached-like protocol (§4, §7); our reproduction historically linked
//! the cache into the application process. [`CacheBackend`] abstracts the
//! boundary so both deployments run the *same* client library:
//!
//! * [`cache_server::CacheCluster`] implements the trait directly — the
//!   original in-process configuration, still the default: a ring fixed at
//!   construction, with no lock of its own in front of the sharded nodes;
//! * [`RemoteCluster`] speaks the `wire` protocol to a set of `txcached`
//!   servers, with one pooled connection per consistent-hash-ring node.
//!
//! `RemoteCluster` is generic over a [`wire::Connector`]: production dials
//! real TCP ([`wire::TcpConnector`], the default type parameter), and the
//! chaos tests dial through an in-process [`wire::SimNet`] whose pipes
//! inject deterministic frame drops, duplicates, reorderings, resets, and
//! partitions. The client code — pooling, pipelining, degradation,
//! seal-on-heal — is identical either way, which is the point: the fault
//! injection exercises the code that runs in production.
//!
//! ## One funnel, one read loop, one shape adapter
//!
//! Everything `RemoteCluster` says to a node goes through one private
//! scatter–gather function, `funnel`: given `(node index, request)` pairs it
//! locks each node's pooled connection, heals it lazily, writes every frame,
//! and only then gathers the replies by correlation id — so a broadcast, or a
//! read set spread over many nodes, costs one round trip instead of one per
//! node. Nothing else takes a connection lock for I/O, which is what makes
//! these rules hold everywhere at once:
//!
//! * **Failures are absorbed, not returned.** Any transport error, timeout,
//!   error frame or wrong-shape reply degrades the operation to a cache miss
//!   (counted in [`RemoteCluster::degraded_ops`]), drops the connection for
//!   a lazy reconnect, and the application keeps running against the
//!   database (§4: a cache node that is down is just a miss). The exception
//!   is a correlation-id desync ([`wire::WireError::Desync`]): the stream is
//!   still frame-aligned, so only the awaited request degrades and the
//!   connection — with every other request multiplexed on it — is kept.
//! * **Locks are taken in ascending node order**, and a node stays locked
//!   from its scatter to its gather; one global order is what keeps two
//!   concurrent fan-outs from deadlocking.
//! * **Put acks are swept, never read for.** `Put`/`MultiPut` frames are
//!   written and left; their acks park in the [`FramedStream`] mailbox
//!   whenever a later reply is awaited on the same connection and are
//!   collected from there for free. Only when `MAX_PENDING_PUTS` are owed
//!   with none already received does an insert block on the wire — counted
//!   in [`RemoteCluster::put_stalls`].
//! * **A heal seals before it serves** (§4.2): the reconnect handshake runs
//!   ahead of the frame that triggered it.
//!
//! Placement goes through an immutable, epoch-versioned
//! [`cache_server::RingView`]: each key maps to an ordered replica set (the
//! ring primary plus R−1 distinct successors, R set by
//! [`RemoteOptions::replication`]), and writes fan out to the whole set.
//! Reads run one replica-round loop, `read_rounds`: try the preferred replica
//! and fall back, round by round, on a failure or a *compulsory* miss
//! ([`RemoteCluster::replica_fallbacks`]) — every other miss is final, since
//! fan-out writes mirror versions across the set. A fallback hit is copied to
//! the preferred replica ([`RemoteCluster::migration_fills`]), so still-valid
//! entries migrate to their new owner as they are read after a join, leave,
//! or heal. [`CacheBackend::lookup`] and [`CacheBackend::lookup_many`] are
//! that same loop and differ only in the frame a node's share travels in —
//! `VersionedGet` → `Hit | Miss` for the one-key read, epoch-stamped
//! `MultiGet` → `MultiGetResult` for a batch — which a two-arm adapter
//! (`GetShape`) hides from it.
//!
//! [`RemoteOptions::failover_threshold`] consecutive failures demote a node
//! to last in read order, while writes and broadcasts keep probing it: the
//! first frame a healed node answers promotes it back, with no restart of
//! clients or peers.
//!
//! Membership changes at runtime ([`RemoteCluster::join_node`] /
//! [`RemoteCluster::leave_node`], the workspace's one membership
//! implementation) publish the next ring epoch and announce
//! it to every node (`RingEpoch`). Epoch-stamped batches from a client still
//! routing on an older ring draw a typed [`wire::Response::WrongEpoch`]
//! redirect ([`RemoteCluster::wrong_epoch_redirects`]) instead of silently
//! missing on keys that moved.

#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used))]

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cache_server::{
    CacheCluster, CacheStats, LookupOutcome, LookupRequest, MissKind, RingBuilder, RingView,
};
use mvdb::InvalidationMessage;
use obs::{Histogram, MetricsSnapshot, Registry, StripedCounter};
use parking_lot::{Mutex, MutexGuard, RwLock};
use txtypes::{CacheKey, Error, Result, TagSet, Timestamp, ValidityInterval, WallClock};
use wire::{
    Connector, FramedStream, InvalidationEvent, PutEntry, Request, Response, TcpConnector,
    Transport,
};

use crate::config::BackendKind;

/// The cache transport the TxCache library talks through.
///
/// Both implementations expose the identical operation set, so every
/// transaction code path (and every test) runs unchanged on either. The
/// *batched* operations are the required methods — a transaction's read or
/// write set is the natural unit on the wire — and the single-key forms
/// are default wrappers over one-element batches, so every backend gets
/// the batched path for free and may override the singles with a fast
/// path.
pub trait CacheBackend: Send + Sync + std::fmt::Debug {
    /// Which kind of backend this is (for reporting and config assertions).
    fn kind(&self) -> BackendKind;

    /// Number of cache nodes behind this backend.
    fn node_count(&self) -> usize;

    /// Looks up a batch of keys sharing one pin-set interval, returning one
    /// outcome per key in request order (§4.1). The remote backend fans the
    /// batch out as one scatter-gather `MultiGet` per involved ring node,
    /// so it costs one round trip per node instead of one per key.
    fn lookup_many(&self, keys: &[CacheKey], request: &LookupRequest) -> Vec<LookupOutcome>;

    /// Looks up a single key: a one-element [`CacheBackend::lookup_many`]
    /// by default; backends may override with a single-key fast path.
    fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        sole_outcome(self.lookup_many(std::slice::from_ref(key), request))
    }

    /// Inserts a batch of computed values (§6.1). The remote backend ships
    /// one `MultiPut` frame per responsible node.
    fn insert_many(
        &self,
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        now: WallClock,
    );

    /// Inserts a single computed value: a one-element
    /// [`CacheBackend::insert_many`] by default; backends may override with
    /// a single-key fast path.
    fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        self.insert_many(vec![(key, value, validity, tags)], now);
    }

    /// Inserts that had to *block* collecting pipelined put acks (see
    /// [`crate::ClientStats::put_pipeline_stalls`]). Zero for backends
    /// without a put pipeline.
    fn put_stalls(&self) -> u64 {
        0
    }

    /// Reads retried on a further replica after the preferred one failed
    /// (see [`crate::ClientStats::replica_fallbacks`]). Zero for backends
    /// without replica fallback.
    fn replica_fallbacks(&self) -> u64 {
        0
    }

    /// Batches refused by a node because this client routed them on a stale
    /// ring epoch (see [`crate::ClientStats::wrong_epoch_redirects`]). Zero
    /// for backends without epoch fencing.
    fn wrong_epoch_redirects(&self) -> u64 {
        0
    }

    /// Delivers a commit-ordered slice of the invalidation stream to every
    /// node, then advances every node's heartbeat to `heartbeat` (§4.2). An
    /// empty batch with a newer heartbeat is a pure timestamp heartbeat.
    fn apply_invalidations(&self, batch: &[InvalidationMessage], heartbeat: Timestamp);

    /// Eagerly evicts entries no transaction can use anymore on every node.
    fn evict_stale(&self, min_useful_ts: Timestamp);

    /// Aggregated cache statistics across all nodes.
    fn stats(&self) -> CacheStats;

    /// Resets hit/miss counters on every node.
    fn reset_stats(&self);
}

impl CacheBackend for CacheCluster {
    fn kind(&self) -> BackendKind {
        BackendKind::InProcess
    }

    fn node_count(&self) -> usize {
        CacheCluster::node_count(self)
    }

    fn lookup_many(&self, keys: &[CacheKey], request: &LookupRequest) -> Vec<LookupOutcome> {
        keys.iter()
            .map(|key| CacheCluster::lookup(self, key, request))
            .collect()
    }

    fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        CacheCluster::lookup(self, key, request)
    }

    fn insert_many(
        &self,
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        now: WallClock,
    ) {
        for (key, value, validity, tags) in entries {
            CacheCluster::insert(self, key, value, validity, tags, now);
        }
    }

    fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        CacheCluster::insert(self, key, value, validity, tags, now);
    }

    fn apply_invalidations(&self, batch: &[InvalidationMessage], heartbeat: Timestamp) {
        for message in batch {
            self.apply_invalidation(message.timestamp, &message.tags);
        }
        self.note_timestamp(heartbeat);
    }

    fn evict_stale(&self, min_useful_ts: Timestamp) {
        CacheCluster::evict_stale(self, min_useful_ts);
    }

    fn stats(&self) -> CacheStats {
        CacheCluster::stats(self)
    }

    fn reset_stats(&self) {
        CacheCluster::reset_stats(self);
    }
}

/// Tuning for the remote backend's connections.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Per-operation I/O timeout. An expired timeout degrades the
    /// operation to a miss and drops the pooled connection.
    pub op_timeout: Duration,
    /// Timeout for establishing a connection to a node.
    pub connect_timeout: Duration,
    /// Minimum delay between reconnection attempts to a dead node. Within
    /// the cooldown, operations routed to the node fail fast (degrading to
    /// misses) instead of stalling every caller for `connect_timeout`.
    pub retry_cooldown: Duration,
    /// Replica-set size R: every key is written to its ring primary plus
    /// R−1 distinct successors, and reads fall back across them. 1 (the
    /// default) reproduces the unreplicated deployment exactly.
    pub replication: usize,
    /// Consecutive failed exchanges after which a node is demoted: reads
    /// prefer its successors until a successful frame promotes it back.
    pub failover_threshold: u32,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            retry_cooldown: Duration::from_secs(1),
            replication: 1,
            failover_threshold: 3,
        }
    }
}

/// Most `Put` acks a connection may leave uncollected. Unbounded pipelining
/// would eventually fill both transport buffer directions on an insert-heavy
/// burst (the server blocks writing acks nobody reads, then stops reading)
/// and stall until the op timeout; this window stays safely below any
/// practical socket-buffer size.
const MAX_PENDING_PUTS: u32 = 64;

/// The client's observability registry: the cluster's failure and
/// degradation counters, and one round-trip latency histogram per opcode,
/// recorded from just before a frame is written to just after its response
/// is decoded (connection healing is excluded — a reconnect is not a round
/// trip). Only *successful* exchanges are timed; failures degrade and show
/// in the counters instead. The hot path works through the cached handles
/// and never touches the registry lock.
struct ClientObs {
    registry: Registry,
    /// Indexed by [`Request::op_index`]; the same names as the node's
    /// per-opcode histograms, so `client.rtt.get.us` against
    /// `server.req.get.us` is the network's share of the latency.
    rtt_us: [Arc<Histogram>; Request::LABELS.len()],
    // Each documented on the `RemoteCluster` accessor that reads it.
    degraded: Arc<StripedCounter>,
    reconnects: Arc<StripedCounter>,
    put_stalls: Arc<StripedCounter>,
    replica_fallbacks: Arc<StripedCounter>,
    wrong_epoch_redirects: Arc<StripedCounter>,
    failovers: Arc<StripedCounter>,
    rejoins: Arc<StripedCounter>,
    migration_fills: Arc<StripedCounter>,
}

impl ClientObs {
    fn new() -> ClientObs {
        let registry = Registry::new();
        ClientObs {
            rtt_us: std::array::from_fn(|i| {
                registry.histogram(&format!("client.rtt.{}.us", Request::LABELS[i]))
            }),
            degraded: registry.counter("client.degraded.ops"),
            reconnects: registry.counter("client.reconnects"),
            put_stalls: registry.counter("client.put.stalls"),
            replica_fallbacks: registry.counter("client.replica.fallbacks"),
            wrong_epoch_redirects: registry.counter("client.wrong_epoch.redirects"),
            failovers: registry.counter("client.failovers"),
            rejoins: registry.counter("client.rejoins"),
            migration_fills: registry.counter("client.migration.fills"),
            registry,
        }
    }

    /// Records one completed round trip for the opcode slot.
    fn record(&self, op: usize, started: Instant) {
        self.rtt_us[op].record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
}

/// What became of one funnelled request.
enum Delivery {
    /// The node could not be reached or answered wrongly. The failure is
    /// already absorbed; the caller only degrades.
    Failed,
    /// A put, written: its ack is owed on the connection, to be collected by
    /// whichever conversation next reads it.
    Pipelined,
    /// The node's (non-error, fitting) reply.
    Replied(Response),
}

/// The frame shape a read's per-node share travels in — the only thing
/// `lookup` and `lookup_many` differ in. `Single` keeps the one-key read the
/// cheapest frame there is (no epoch, no counts); `Batch` carries any number
/// of keys and the ring epoch they were routed on.
#[derive(Clone, Copy)]
enum GetShape {
    /// `VersionedGet` → `Hit | Miss`.
    Single,
    /// `MultiGet` → `MultiGetResult`.
    Batch,
}

impl GetShape {
    /// The request carrying `keys[share]` to one node.
    fn frame(self, epoch: u64, keys: &[CacheKey], share: &[usize], at: &LookupRequest) -> Request {
        match (self, share) {
            (GetShape::Single, &[pos]) => Request::VersionedGet {
                key: keys[pos].clone(),
                pinset_lo: at.pinset_lo,
                pinset_hi: at.pinset_hi,
                freshness_lo: at.freshness_lo,
            },
            _ => Request::MultiGet {
                epoch,
                keys: share.iter().map(|&pos| keys[pos].clone()).collect(),
                pinset_lo: at.pinset_lo,
                pinset_hi: at.pinset_hi,
                freshness_lo: at.freshness_lo,
            },
        }
    }

    /// One outcome per key of the share, in request order, out of a reply
    /// that [`reply_fits`] accepted; a `Hit | Miss` reply is a one-element
    /// list.
    fn outcomes(response: Response) -> Vec<LookupOutcome> {
        match response {
            Response::MultiGetResult { results } => results.into_iter().map(Into::into).collect(),
            single => LookupOutcome::try_from(single).into_iter().collect(),
        }
    }
}

/// Whether a well-formed reply has a shape its request can be answered
/// with. The funnel treats a misfit like a transport failure — it is a
/// protocol bug on the node, and nothing later on the connection can be
/// trusted to line up. Only reads are checked: every other opcode's caller
/// ignores the reply body (`stats` filters its own).
fn reply_fits(request: &Request, response: &Response) -> bool {
    match (request, response) {
        (Request::VersionedGet { .. }, reply) => {
            matches!(reply, Response::Hit { .. } | Response::Miss { .. })
        }
        (Request::MultiGet { keys, .. }, Response::MultiGetResult { results }) => {
            results.len() == keys.len()
        }
        // A typed redirect, not a node failure: the read loop counts it.
        (Request::MultiGet { .. }, reply) => matches!(reply, Response::WrongEpoch { .. }),
        _ => true,
    }
}

fn unexpected_reply(request: &Request, response: &Response) -> wire::WireError {
    let op = request.label();
    io_error(
        ErrorKind::InvalidData,
        format!("unexpected {op} reply: {response:?}"),
    )
}

fn io_error(kind: ErrorKind, message: impl Into<String>) -> wire::WireError {
    wire::WireError::Io(std::io::Error::new(kind, message.into()))
}

/// A written request the funnel still owes a gather: its slot in the request
/// list, the node's held connection lock, the correlation id, the send time.
type InFlight<'a, T> = (usize, MutexGuard<'a, NodeConn<T>>, u64, Instant);

/// A live connection and the acks still owed on it. The two live and die
/// together: a dropped connection forgets its outstanding acks, a fresh one
/// starts with none.
struct Live<T> {
    framed: FramedStream<T>,
    /// `Put`/`MultiPut` frames written whose acks are not collected yet.
    pending_puts: u32,
}

/// One pooled node connection plus its reconnect state.
struct NodeConn<T> {
    /// The connection, or `None` until (re)connected.
    live: Option<Live<T>>,
    /// Whether this node has ever been connected. A connection established
    /// when this is already `true` is a *heal*: invalidation batches may
    /// have been lost while the node was unreachable, so the node is told to
    /// seal its still-valid entries before serving anything else.
    was_connected: bool,
    /// When the last failed connect attempt happened, for the cooldown.
    last_failure: Option<Instant>,
}

impl<T> NodeConn<T> {
    /// Drops the connection and starts the reconnect cooldown.
    fn mark_dead(&mut self) {
        self.live = None;
        self.last_failure = Some(Instant::now());
    }
}

struct RemoteNode<T> {
    addr: String,
    conn: Mutex<NodeConn<T>>,
    /// Consecutive failed exchanges; reset by any success. Crossing
    /// [`RemoteOptions::failover_threshold`] demotes the node.
    consecutive_failures: AtomicU32,
    /// Demoted: reads try this node last; writes and broadcasts keep
    /// probing it, and the first success promotes it back.
    down: AtomicBool,
}

impl<T> RemoteNode<T> {
    fn new(addr: &str) -> RemoteNode<T> {
        RemoteNode {
            addr: addr.to_string(),
            conn: Mutex::new(NodeConn {
                live: None,
                was_connected: false,
                last_failure: None,
            }),
            consecutive_failures: AtomicU32::new(0),
            down: AtomicBool::new(false),
        }
    }
}

/// The cluster's membership snapshot: the epoch-versioned ring view plus
/// the node handles, index-aligned with the view's node names (the ring
/// builder preserves order on add/remove, so the invariant survives
/// membership changes).
struct Topology<T> {
    view: Arc<RingView>,
    nodes: Vec<Arc<RemoteNode<T>>>,
}

/// A cache cluster reached over the wire protocol: one `txcached` server
/// per ring node, dialled through a [`Connector`] (real TCP by default).
pub struct RemoteCluster<C: Connector = TcpConnector> {
    connector: C,
    topology: RwLock<Topology<C::Conn>>,
    options: RemoteOptions,
    /// Mirror of the current view's epoch, readable without the topology
    /// lock (connection healing re-announces it).
    epoch: AtomicU64,
    /// Fault-injection mutation hook: when set, healed connections skip the
    /// §4.2 `SealStillValid` step. See
    /// [`RemoteCluster::disable_seal_on_heal_for_fault_injection`].
    seal_on_heal_disabled: AtomicBool,
    /// Failure counters and round-trip histograms ([`RemoteCluster::metrics`]).
    obs: ClientObs,
}

impl RemoteCluster<TcpConnector> {
    /// Connects to the given `txcached` TCP addresses with default socket
    /// options. Every address must accept the connection; one that does not
    /// fails the whole connect, so a misconfigured deployment is caught at
    /// startup rather than degrading silently forever.
    pub fn connect(addrs: &[String]) -> Result<RemoteCluster> {
        RemoteCluster::connect_with(addrs, RemoteOptions::default())
    }

    /// [`RemoteCluster::connect`] with explicit socket options.
    pub fn connect_with(addrs: &[String], options: RemoteOptions) -> Result<RemoteCluster> {
        RemoteCluster::connect_via(TcpConnector, addrs, options)
    }
}

impl<C: Connector> RemoteCluster<C> {
    /// Connects to the given addresses through an arbitrary [`Connector`] —
    /// the generic form [`RemoteCluster::connect`] wraps for TCP, and the
    /// entry point the chaos tests use with a [`wire::SimNet`].
    pub fn connect_via(
        connector: C,
        addrs: &[String],
        options: RemoteOptions,
    ) -> Result<RemoteCluster<C>> {
        if addrs.is_empty() {
            return Err(Error::Network("no cache node addresses given".into()));
        }
        let view = RingBuilder::new()
            .add_all(addrs.iter().cloned())
            .replication(options.replication)
            .build(1);
        let mut cluster = RemoteCluster {
            connector,
            topology: RwLock::new(Topology {
                view,
                nodes: Vec::new(),
            }),
            options,
            epoch: AtomicU64::new(1),
            seal_on_heal_disabled: AtomicBool::new(false),
            obs: ClientObs::new(),
        };
        let nodes: Result<Vec<_>> = addrs
            .iter()
            .map(|addr| cluster.connected_node(addr))
            .collect();
        cluster.topology.get_mut().nodes = nodes?;
        Ok(cluster)
    }

    /// The current ring-membership epoch (1 at connect; each
    /// [`RemoteCluster::join_node`]/[`RemoteCluster::leave_node`] bumps it).
    #[must_use]
    pub fn ring_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The replica-set size reads and writes are routed with.
    #[must_use]
    pub fn replication(&self) -> usize {
        self.topology.read().view.replication()
    }

    /// Operations that were absorbed as misses because a node was
    /// unreachable or timed out.
    #[must_use]
    pub fn degraded_ops(&self) -> u64 {
        self.obs.degraded.get()
    }

    /// Connections healed after a failure (the initial per-node connects at
    /// startup are not counted).
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.obs.reconnects.get()
    }

    /// Inserts that had to block collecting pipelined put acks because a
    /// node's pipeline window was full with none already received.
    #[must_use]
    pub fn put_stalls(&self) -> u64 {
        self.obs.put_stalls.get()
    }

    /// Keys whose read was served by (or retried on) a further replica
    /// after the preferred one failed.
    #[must_use]
    pub fn replica_fallbacks(&self) -> u64 {
        self.obs.replica_fallbacks.get()
    }

    /// Epoch-stamped batches refused by a node because this client routed
    /// them on a stale ring epoch.
    #[must_use]
    pub fn wrong_epoch_redirects(&self) -> u64 {
        self.obs.wrong_epoch_redirects.get()
    }

    /// Nodes demoted after [`RemoteOptions::failover_threshold`]
    /// consecutive failed exchanges.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.obs.failovers.get()
    }

    /// Demoted nodes promoted back to service by a successful exchange.
    #[must_use]
    pub fn rejoins(&self) -> u64 {
        self.obs.rejoins.get()
    }

    /// Still-valid entries copied to a key's preferred replica after a
    /// fallback hit (read-driven rebalancing after a join or heal).
    #[must_use]
    pub fn migration_fills(&self) -> u64 {
        self.obs.migration_fills.get()
    }

    /// A snapshot of the client's observability registry: per-opcode
    /// round-trip histograms (`client.rtt.<op>.us`, successful exchanges
    /// only, frame-write to response-decode on this side of the wire) and
    /// the cluster's failure and degradation counters, in one sorted
    /// namespace.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.registry.snapshot()
    }

    /// Drops every pooled connection and starts each node's reconnect
    /// cooldown, as a network partition would. Operations during the
    /// cooldown degrade to misses; the first operation after it heals the
    /// connection (sealing the node's still-valid entries first). Exposed
    /// for failure injection in tests and operational tooling.
    pub fn drop_connections(&self) {
        for node in &self.topology.read().nodes {
            node.conn.lock().mark_dead();
        }
    }

    /// **Fault-injection mutation hook — never call in production.**
    /// Hidden from the documented API for exactly that reason.
    ///
    /// Disables the §4.2 seal-on-heal step: reconnected nodes keep serving
    /// still-valid entries whose invalidations may have been lost during
    /// the partition, which violates transactional consistency. The chaos
    /// suite flips this to prove its history checker actually catches the
    /// resulting stale resurrection (a mutation test of the checker).
    #[doc(hidden)]
    pub fn disable_seal_on_heal_for_fault_injection(&self) {
        self.seal_on_heal_disabled.store(true, Ordering::SeqCst);
    }

    /// The node addresses, in ring order.
    #[must_use]
    pub fn addrs(&self) -> Vec<String> {
        self.topology
            .read()
            .nodes
            .iter()
            .map(|n| n.addr.clone())
            .collect()
    }

    /// Adds a `txcached` node to the ring at runtime: connects to it,
    /// publishes the next ring epoch, and announces the epoch to every
    /// node so stale-stamped batches are fenced. Returns the new epoch.
    pub fn join_node(&self, addr: &str) -> Result<u64> {
        let node = self.connected_node(addr)?;
        self.republish(|topology| {
            if topology.nodes.iter().any(|n| n.addr == addr) {
                return Err(Error::Network(format!("cache node {addr} already joined")));
            }
            topology.nodes.push(node);
            Ok(topology.view.builder().add(addr))
        })
    }

    /// Removes a node from the ring at runtime, publishing and announcing
    /// the next ring epoch. Its keys are served by the surviving replicas
    /// (re-cached on first miss). Returns the new epoch.
    pub fn leave_node(&self, addr: &str) -> Result<u64> {
        self.republish(|topology| {
            let Some(pos) = topology.nodes.iter().position(|n| n.addr == addr) else {
                return Err(Error::Network(format!("cache node {addr} is not joined")));
            };
            if topology.nodes.len() == 1 {
                return Err(Error::Network("cannot remove the last cache node".into()));
            }
            topology.nodes.remove(pos);
            Ok(topology.view.builder().remove(addr))
        })
    }

    /// Applies a membership edit (which keeps the node handles index-aligned
    /// with the ring it returns), publishes the result as the next ring
    /// epoch and announces that epoch to every node. Announcement failures
    /// are absorbed: an unreachable node learns the epoch when its
    /// connection heals (see [`RemoteCluster::dial`]).
    fn republish(
        &self,
        edit: impl FnOnce(&mut Topology<C::Conn>) -> Result<RingBuilder>,
    ) -> Result<u64> {
        let epoch = {
            let mut topology = self.topology.write();
            let next = topology.view.epoch() + 1;
            topology.view = edit(&mut topology)?.build(next);
            self.epoch.store(next, Ordering::SeqCst);
            next
        };
        self.broadcast(&Request::RingEpoch { epoch });
        Ok(epoch)
    }

    /// One coherent membership snapshot: the view and its node handles.
    fn snapshot(&self) -> Topology<C::Conn> {
        let topology = self.topology.read();
        Topology {
            view: Arc::clone(&topology.view),
            nodes: topology.nodes.clone(),
        }
    }

    /// Connects a node that is not part of the topology yet (startup, join).
    /// Nothing else can hold the fresh handle, so its connection state is
    /// reached without taking the lock.
    fn connected_node(&self, addr: &str) -> Result<Arc<RemoteNode<C::Conn>>> {
        let mut node = RemoteNode::new(addr);
        self.ensure_connected(addr, node.conn.get_mut())
            .map_err(|e| Error::Network(format!("cache node {addr}: {e}")))?;
        Ok(Arc::new(node))
    }

    /// Returns the node's live connection, establishing (or healing) it
    /// first if there is none.
    fn ensure_connected<'c>(
        &self,
        addr: &str,
        conn: &'c mut NodeConn<C::Conn>,
    ) -> wire::Result<&'c mut Live<C::Conn>> {
        if conn.live.is_none() {
            // Fail fast while the cooldown runs: one caller already paid the
            // connect timeout; everyone else degrades immediately instead of
            // queueing behind repeated connection attempts to a dead node.
            if conn
                .last_failure
                .is_some_and(|at| at.elapsed() < self.options.retry_cooldown)
            {
                return Err(io_error(
                    ErrorKind::ConnectionRefused,
                    "node in reconnect cooldown",
                ));
            }
            let heal = conn.was_connected;
            let framed = self
                .dial(addr, heal)
                .inspect_err(|_| conn.last_failure = Some(Instant::now()))?;
            conn.last_failure = None;
            conn.was_connected = true;
            if heal {
                self.obs.reconnects.bump();
            }
            conn.live = Some(Live {
                framed,
                pending_puts: 0,
            });
        }
        conn.live
            .as_mut()
            .ok_or_else(|| io_error(ErrorKind::NotConnected, "no live connection"))
    }

    /// Dials `addr` and runs the connect-time handshakes; `heal` says the
    /// node has been connected before.
    fn dial(&self, addr: &str, heal: bool) -> wire::Result<FramedStream<C::Conn>> {
        let stream = self.connector.connect(addr, self.options.connect_timeout)?;
        stream.set_io_timeout(Some(self.options.op_timeout))?;
        let mut framed = FramedStream::new(stream);
        let mut handshake = |request: Request, fits: fn(&Response) -> bool| {
            let response = framed.call(&request)?.into_result()?;
            if fits(&response) {
                Ok(())
            } else {
                Err(unexpected_reply(&request, &response))
            }
        };
        // A heal: the node may have missed invalidation batches while
        // unreachable. Before it serves anything, its still-valid entries
        // are sealed at its current invalidation horizon so a later
        // heartbeat cannot extend results whose invalidation was lost (the
        // reliable-multicast recovery rule of §4.2).
        if heal && !self.seal_on_heal_disabled.load(Ordering::SeqCst) {
            handshake(Request::SealStillValid, |r| {
                matches!(r, Response::Sealed { .. })
            })?;
        }
        // Tell the node which ring epoch this client routes with, so
        // epoch-stamped batches are fenced from the first frame (and a node
        // that was unreachable during a membership change catches up as soon
        // as it heals). Epoch 1 is the initial, never-changed membership:
        // announcing it would fence nothing (nodes treat an unannounced ring
        // as unfenced), so the handshake is skipped and the connect
        // conversation stays one round trip shorter until the first
        // join/leave.
        let epoch = self.epoch.load(Ordering::SeqCst);
        if epoch > 1 {
            handshake(Request::RingEpoch { epoch }, |r| {
                matches!(r, Response::EpochAck { .. })
            })?;
        }
        Ok(framed)
    }

    /// Sweeps put acks that already arrived (parked in the mailbox while
    /// some other response was being awaited) without touching the wire.
    /// Free: never blocks, never reads.
    fn sweep_parked_acks(&self, live: &mut Live<C::Conn>) -> wire::Result<()> {
        while live.pending_puts > 0 {
            let Some((_seq, response)) = live.framed.pop_mailbox() else {
                break;
            };
            self.absorb_put_ack(live, response)?;
        }
        Ok(())
    }

    /// Counts one collected put ack. A `WrongEpoch` means the write batch
    /// was refused (the entries were not stored) because this client
    /// stamped it with a stale ring epoch — counted so the redirect is
    /// visible, not silent.
    fn absorb_put_ack(&self, live: &mut Live<C::Conn>, response: Response) -> wire::Result<()> {
        if matches!(response.into_result()?, Response::WrongEpoch { .. }) {
            self.obs.wrong_epoch_redirects.bump();
        }
        live.pending_puts -= 1;
        Ok(())
    }

    /// Enforces the [`MAX_PENDING_PUTS`] window before writing another put.
    /// Sweeping the mailbox is free; only if the window is still full does
    /// the caller genuinely stall on the wire (a counted event), blocking
    /// until enough outstanding acks arrive.
    fn bound_put_window(&self, live: &mut Live<C::Conn>) -> wire::Result<()> {
        self.sweep_parked_acks(live)?;
        if live.pending_puts >= MAX_PENDING_PUTS {
            self.obs.put_stalls.bump();
        }
        while live.pending_puts >= MAX_PENDING_PUTS {
            let Some((_seq, response)) = live.framed.recv_matched()? else {
                return Err(io_error(
                    ErrorKind::UnexpectedEof,
                    "connection closed with puts outstanding",
                ));
            };
            self.absorb_put_ack(live, response)?;
        }
        Ok(())
    }

    /// Absorbs an operation failure: counts it and, unless it was a
    /// correlation-id desync, drops the pooled connection and charges the
    /// node's failover streak. A desynced stream is still frame-aligned (the
    /// offending frame was consumed whole), so only the awaited request
    /// degrades.
    fn absorb_failure(
        &self,
        node: &RemoteNode<C::Conn>,
        conn: &mut NodeConn<C::Conn>,
        error: &wire::WireError,
    ) {
        self.obs.degraded.bump();
        if !matches!(error, wire::WireError::Desync { .. }) {
            conn.mark_dead();
            // Crossing the failover threshold demotes the node: its
            // successors take over reads.
            let failures = node.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
            if failures >= self.options.failover_threshold
                && !node.down.swap(true, Ordering::Relaxed)
            {
                self.obs.failovers.bump();
            }
        }
    }

    /// The scatter–gather funnel (see the module docs): the only function
    /// that locks a [`NodeConn`] for I/O.
    ///
    /// `requests` pairs a node index (into `nodes`) with the frame to send
    /// it, in *ascending index order*. Scatter, per node: lock, heal the
    /// connection lazily, write the frame; a put stops there
    /// ([`Delivery::Pipelined`]) after bounding the ack window. Gather, per
    /// node still in flight: await the reply by correlation id, check it
    /// [fits](reply_fits), sweep the put acks that arrived ahead of it,
    /// record the round trip and credit the node's health. A failure at any
    /// step is [absorbed](RemoteCluster::absorb_failure) and the other
    /// nodes' conversations carry on.
    fn funnel<R: Borrow<Request>>(
        &self,
        nodes: &[Arc<RemoteNode<C::Conn>>],
        requests: &[(usize, R)],
    ) -> Vec<Delivery> {
        debug_assert!(requests.windows(2).all(|pair| pair[0].0 < pair[1].0));
        let mut deliveries: Vec<Delivery> = Vec::with_capacity(requests.len());
        // Every frame is written before any reply is awaited: the nodes work
        // concurrently and the call costs one round trip, not one per node.
        let mut in_flight: Vec<InFlight<'_, C::Conn>> = Vec::new();
        for (slot, (idx, request)) in requests.iter().enumerate() {
            let (node, request) = (&nodes[*idx], request.borrow());
            let pipelined = matches!(request, Request::Put { .. } | Request::MultiPut { .. });
            let mut conn = node.conn.lock();
            let sent = (|| -> wire::Result<(u64, Instant)> {
                let live = self.ensure_connected(&node.addr, &mut conn)?;
                if pipelined {
                    self.bound_put_window(live)?;
                }
                // A heal is not part of the round trip.
                let started = Instant::now();
                let seq = live.framed.send_request(request)?;
                live.pending_puts += u32::from(pipelined);
                Ok((seq, started))
            })();
            deliveries.push(match sent {
                Ok(_) if pipelined => Delivery::Pipelined,
                Ok((seq, started)) => {
                    in_flight.push((slot, conn, seq, started));
                    Delivery::Failed // until the gather says otherwise
                }
                Err(e) => {
                    self.absorb_failure(node, &mut conn, &e);
                    Delivery::Failed
                }
            });
        }
        for (slot, mut conn, seq, started) in in_flight {
            let (idx, request) = &requests[slot];
            let (node, request) = (&nodes[*idx], request.borrow());
            let received = (|| -> wire::Result<Response> {
                let live = conn
                    .live
                    .as_mut()
                    .ok_or_else(|| io_error(ErrorKind::NotConnected, "no live connection"))?;
                let response = live.framed.recv_for(seq)?.into_result()?;
                if !reply_fits(request, &response) {
                    return Err(unexpected_reply(request, &response));
                }
                // While this reply was awaited, put acks that arrived ahead
                // of it were parked in the mailbox; sweep them now so the
                // pipeline window shrinks without ever paying a dedicated
                // read for acks.
                self.sweep_parked_acks(live)?;
                Ok(response)
            })();
            match received {
                Ok(response) => {
                    self.obs.record(request.op_index(), started);
                    // Any answer ends the failure streak and promotes a
                    // demoted node back.
                    node.consecutive_failures.store(0, Ordering::Relaxed);
                    if node.down.swap(false, Ordering::Relaxed) {
                        self.obs.rejoins.bump();
                    }
                    deliveries[slot] = Delivery::Replied(response);
                }
                Err(e) => self.absorb_failure(node, &mut conn, &e),
            }
        }
        deliveries
    }

    /// Sends one request to every node in one funnel call — the fan-out used
    /// for invalidation batches and maintenance. Demoted nodes are included:
    /// broadcasts are the probe traffic that promotes a healed node back
    /// into service.
    fn broadcast(&self, request: &Request) -> Vec<Delivery> {
        let Topology { nodes, .. } = self.snapshot();
        let requests: Vec<(usize, &Request)> = (0..nodes.len()).map(|idx| (idx, request)).collect();
        self.funnel(&nodes, &requests)
    }

    /// Copies an entry served by a fallback replica to the key's preferred
    /// replica, with the sibling's *stored* validity and tags so the copy
    /// invalidates identically, at the LRU-coldest access time. This is the
    /// read-driven half of rebalancing: after a join or heal, still-valid
    /// entries flow to the new owner as they are read, and the double round
    /// trip disappears. Pipelined like any put; failures are absorbed.
    fn migration_fill(
        &self,
        nodes: &[Arc<RemoteNode<C::Conn>>],
        preferred: usize,
        key: &CacheKey,
        hit: &LookupOutcome,
    ) {
        let LookupOutcome::Hit {
            value,
            stored_validity,
            tags,
            ..
        } = hit
        else {
            return;
        };
        let put = Request::Put {
            key: key.clone(),
            value: value.clone(),
            validity: *stored_validity,
            tags: tags.clone(),
            now: WallClock::ZERO,
        };
        let sent = self.funnel(nodes, &[(preferred, put)]);
        if matches!(sent[..], [Delivery::Pipelined]) {
            self.obs.migration_fills.bump();
        }
    }

    /// The replica-round read loop behind both `lookup` and `lookup_many`;
    /// `shape` only picks the frame each node's share travels in.
    ///
    /// Round 0 routes every key to its preferred replica; keys whose node
    /// failed or compulsorily missed retry on their next replica in the
    /// following round. A compulsory miss means the replica simply never saw
    /// the key — a sibling may still hold it (it was the owner before a join
    /// or heal). Hits and every other miss kind are final: the replica *has*
    /// versions and none fit the interval, and fan-out writes mirror versions
    /// across the set, so siblings would answer identically. A key no
    /// replica could answer for stays the degraded miss it starts as.
    fn read_rounds(
        &self,
        keys: &[CacheKey],
        request: &LookupRequest,
        shape: GetShape,
    ) -> Vec<LookupOutcome> {
        let Topology { view, nodes } = self.snapshot();
        let orders: Vec<Vec<usize>> = keys
            .iter()
            .map(|key| self.read_order(&view, &nodes, key))
            .collect();
        let mut out: Vec<LookupOutcome> = keys
            .iter()
            .map(|_| LookupOutcome::Miss(DEGRADED_MISS))
            .collect();
        // Keys that hit a fallback replica: copied to the preferred one after.
        let mut fills: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        for attempt in 0..view.replication().max(1) {
            // Group this round's keys by the node each tries now; BTreeMap
            // iteration hands the funnel its nodes in ascending index order.
            let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &pos in &pending {
                if let Some(&idx) = orders[pos].get(attempt) {
                    by_node.entry(idx).or_default().push(pos);
                }
            }
            if by_node.is_empty() {
                break;
            }
            if attempt > 0 {
                let retried: u64 = by_node.values().map(|p| p.len() as u64).sum();
                self.obs.replica_fallbacks.add(retried);
            }
            let requests: Vec<(usize, Request)> = by_node
                .iter()
                .map(|(&idx, share)| (idx, shape.frame(view.epoch(), keys, share, request)))
                .collect();
            let replies = self.funnel(&nodes, &requests);
            pending = Vec::new();
            for (share, delivery) in by_node.values().zip(replies) {
                let results = match delivery {
                    // The node routes on a different ring epoch than this
                    // client: a typed redirect, not a node failure. The keys
                    // degrade (the replicas would refuse identically) until
                    // the client's ring view catches up.
                    Delivery::Replied(Response::WrongEpoch { .. }) => {
                        self.obs.wrong_epoch_redirects.bump();
                        continue;
                    }
                    Delivery::Replied(response) => GetShape::outcomes(response),
                    // The node's whole share goes to the next replica round.
                    _ => {
                        pending.extend_from_slice(share);
                        continue;
                    }
                };
                for (&pos, outcome) in share.iter().zip(results) {
                    let retry = matches!(outcome, LookupOutcome::Miss(MissKind::Compulsory))
                        && orders[pos].len() > attempt + 1;
                    if outcome.is_hit() && attempt > 0 {
                        fills.push(pos);
                    }
                    out[pos] = outcome;
                    if retry {
                        pending.push(pos);
                    }
                }
            }
        }
        for pos in fills {
            self.migration_fill(&nodes, orders[pos][0], &keys[pos], &out[pos]);
        }
        out
    }

    /// A key's replica indices in read-attempt order: ring order, with
    /// demoted nodes moved to the back (stable — their successors are
    /// effectively promoted while they keep serving as the last resort).
    fn read_order(
        &self,
        view: &RingView,
        nodes: &[Arc<RemoteNode<C::Conn>>],
        key: &CacheKey,
    ) -> Vec<usize> {
        let mut replicas = view.replicas_for(key);
        replicas.sort_by_key(|&idx| nodes[idx].down.load(Ordering::Relaxed));
        replicas
    }
}

impl<C: Connector> std::fmt::Debug for RemoteCluster<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topology = self.topology.read();
        f.debug_struct("RemoteCluster")
            .field("nodes", &topology.nodes.len())
            .field("epoch", &topology.view.epoch())
            .field("replication", &topology.view.replication())
            .field("degraded_ops", &self.degraded_ops())
            .finish()
    }
}

impl<C: Connector> CacheBackend for RemoteCluster<C> {
    fn kind(&self) -> BackendKind {
        BackendKind::Remote
    }

    fn node_count(&self) -> usize {
        self.topology.read().nodes.len()
    }

    fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        sole_outcome(self.read_rounds(std::slice::from_ref(key), request, GetShape::Single))
    }

    fn lookup_many(&self, keys: &[CacheKey], request: &LookupRequest) -> Vec<LookupOutcome> {
        self.read_rounds(keys, request, GetShape::Batch)
    }

    fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        let Topology { view, nodes } = self.snapshot();
        // Fan the write out to the full replica set — demoted nodes
        // included (a cheap, cooldown-gated probe that re-fills them the
        // moment they heal).
        let mut replicas = view.replicas_for(&key);
        replicas.sort_unstable();
        let put = Request::Put {
            key,
            value,
            validity,
            tags,
            now,
        };
        let requests: Vec<(usize, &Request)> = replicas.iter().map(|&idx| (idx, &put)).collect();
        self.funnel(&nodes, &requests);
    }

    fn insert_many(
        &self,
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        now: WallClock,
    ) {
        let Topology { view, nodes } = self.snapshot();
        let epoch = view.epoch();
        // Group the entries by node across the *full* replica set of each
        // key (replicated entries appear under several nodes). One
        // `MultiPut` is one pipelined ack, however many entries it carries.
        let mut by_node: BTreeMap<usize, Vec<PutEntry>> = BTreeMap::new();
        for (key, value, validity, tags) in &entries {
            for idx in view.replicas_for(key) {
                by_node.entry(idx).or_default().push(PutEntry {
                    key: key.clone(),
                    value: value.clone(),
                    validity: *validity,
                    tags: tags.clone(),
                    now,
                });
            }
        }
        let requests: Vec<(usize, Request)> = by_node
            .into_iter()
            .map(|(idx, entries)| (idx, Request::MultiPut { epoch, entries }))
            .collect();
        self.funnel(&nodes, &requests);
    }

    fn put_stalls(&self) -> u64 {
        RemoteCluster::put_stalls(self)
    }

    fn replica_fallbacks(&self) -> u64 {
        RemoteCluster::replica_fallbacks(self)
    }

    fn wrong_epoch_redirects(&self) -> u64 {
        RemoteCluster::wrong_epoch_redirects(self)
    }

    fn apply_invalidations(&self, batch: &[InvalidationMessage], heartbeat: Timestamp) {
        let events: Vec<InvalidationEvent> = batch
            .iter()
            .map(|m| InvalidationEvent {
                timestamp: m.timestamp,
                tags: m.tags.clone(),
            })
            .collect();
        self.broadcast(&Request::InvalidationBatch { events, heartbeat });
    }

    fn evict_stale(&self, min_useful_ts: Timestamp) {
        self.broadcast(&Request::EvictStale { min_useful_ts });
    }

    fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for delivery in self.broadcast(&Request::Stats) {
            if let Delivery::Replied(Response::StatsSnapshot(stats)) = delivery {
                total.merge(&stats.into());
            }
        }
        total
    }

    fn reset_stats(&self) {
        self.broadcast(&Request::ResetStats);
    }
}

/// The miss classification used when a node is unreachable. Capacity is the
/// closest §8.3 class — the cached data exists somewhere but this deployment
/// cannot produce it right now — and it keeps degraded operation from
/// polluting the compulsory/consistency analysis.
const DEGRADED_MISS: MissKind = MissKind::Capacity;

/// The outcome of a one-key batch. A backend that breaks the one-outcome-
/// per-key contract with an empty reply degrades the read instead of
/// panicking the application.
fn sole_outcome(mut outcomes: Vec<LookupOutcome>) -> LookupOutcome {
    outcomes.pop().unwrap_or(LookupOutcome::Miss(DEGRADED_MISS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_op_labels_are_distinct_and_indexed_consistently() {
        // One histogram per opcode, under the frozen `client.rtt.<op>.us`
        // names, each reached through the request's own slot.
        let obs = ClientObs::new();
        let snap = obs.registry.snapshot();
        assert_eq!(snap.histograms.len(), Request::LABELS.len());
        let multi_get = Request::MultiGet {
            epoch: 1,
            keys: Vec::new(),
            pinset_lo: Timestamp(0),
            pinset_hi: Timestamp(0),
            freshness_lo: Timestamp(0),
        };
        obs.record(multi_get.op_index(), Instant::now());
        let snap = obs.registry.snapshot();
        assert_eq!(snap.histogram("client.rtt.multi_get.us").unwrap().count, 1);
        assert_eq!(snap.histogram("client.rtt.get.us").unwrap().count, 0);
    }

    #[test]
    fn rtt_histograms_register_under_the_client_namespace() {
        let obs = ClientObs::new();
        obs.record(Request::Stats.op_index(), Instant::now());
        let snap = obs.registry.snapshot();
        let hist = snap
            .histogram("client.rtt.stats.us")
            .expect("registered at construction");
        assert_eq!(hist.count, 1);
        assert!(snap.histogram("client.rtt.get.us").is_some());
    }
}
