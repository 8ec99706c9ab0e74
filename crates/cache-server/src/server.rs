//! `txcached`: a cache node served over the `wire` protocol.
//!
//! The paper deploys cache nodes as standalone `txcached` processes that
//! application servers reach over a memcached-like protocol extended with
//! versioned lookups and an invalidation stream (§4, §7). This module is
//! that server, hosting one [`CacheNode`] behind the [`wire`] protocol,
//! generic over the transport.
//!
//! The server is parameterized by a [`wire::Listener`]: production binds a
//! real `TcpListener` ([`TxcachedServer::bind`]), served by the
//! readiness-driven event loop in [`crate::event_loop`] — one epoll reactor
//! thread plus a small worker pool, so thousands of idle connections cost
//! no threads. The chaos tests serve the *same* request logic over an
//! in-process [`wire::SimListener`] ([`TxcachedServer::serve`]), whose
//! condvar-based pipes cannot be polled: that path keeps the
//! thread-per-connection loop, so the full request/invalidation path runs
//! under deterministic fault injection — frame drops, duplicates,
//! reorderings, resets, partitions — without sockets.
//!
//! Design points:
//!
//! * **One request dispatcher, two connection models.** Both the event loop
//!   and the per-connection threads funnel every decoded request through
//!   [`apply_request`]. The node is internally sharded
//!   ([`crate::CacheNode`]): handlers hit its key-hash shards concurrently —
//!   lookups under shared locks, inserts under one shard's exclusive lock —
//!   instead of queueing on a node-wide mutex, so a many-connection server
//!   scales with cores. This is the same contention model as the in-process
//!   [`crate::CacheCluster`].
//! * **Server-side invalidation application**: an
//!   [`wire::Request::InvalidationBatch`] applies every event in commit order
//!   under the node's invalidation sequencer and then advances the node's
//!   heartbeat timestamp, exactly like the in-process delivery path.
//! * **Sequence echoing**: every response carries the sequence number of the
//!   request it answers (protocol v2), so clients detect duplicated or
//!   reordered frames as desyncs instead of attributing a response to the
//!   wrong request.
//! * **Graceful shutdown**: [`TxcachedServer::shutdown`] stops the accept
//!   loop, shuts every open connection down, and joins all threads; dropping
//!   the server does the same, so tests cannot leak threads.
//! * **Node-wide counters**: connections, requests and bytes are visible
//!   through [`TxcachedServer::stats`] as well as remotely via
//!   [`wire::Request::Stats`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use wire::{
    Closer, FramedStream, InvalidationEvent, Listener, PutEntry, Request, Response, Transport,
    WireError,
};

use crate::entry::LookupRequest;
use crate::node::{CacheNode, NodeConfig};
use crate::telemetry::{self, ServerObs};

/// Node-wide protocol counters (distinct from the cache's own
/// [`crate::CacheStats`], which count lookups/insertions/invalidations).
/// The per-request and per-read counters are cache-line-striped
/// [`obs::StripedCounter`]s, so concurrent connection handlers never
/// contend on one cache line just to tally bytes.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted since the server started. A plain atomic, not a
    /// striped counter: its `fetch_add` return value doubles as the new
    /// connection's id, which needs one totally ordered allocator.
    pub connections_accepted: AtomicU64,
    /// Connections that have finished.
    pub connections_closed: obs::StripedCounter,
    /// Requests served across all connections.
    pub requests: obs::StripedCounter,
    /// Bytes read from clients.
    pub bytes_in: obs::StripedCounter,
    /// Bytes written to clients.
    pub bytes_out: obs::StripedCounter,
    /// Frames that failed to decode (answered with an error frame).
    pub protocol_errors: obs::StripedCounter,
    /// Invalidation batches applied.
    pub invalidation_batches: obs::StripedCounter,
}

/// A plain snapshot of [`ServerCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections that have finished.
    pub connections_closed: u64,
    /// Requests served across all connections.
    pub requests: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
    /// Invalidation batches applied.
    pub invalidation_batches: u64,
}

impl ServerCounters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.get(),
            requests: self.requests.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            protocol_errors: self.protocol_errors.get(),
            invalidation_batches: self.invalidation_batches.get(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) node: CacheNode,
    pub(crate) counters: ServerCounters,
    /// Per-opcode latency histograms, queue gauges, and the slow-op flight
    /// recorder (see [`crate::telemetry`]).
    pub(crate) obs: ServerObs,
    /// Highest ring-membership epoch any client has announced (protocol
    /// v5). Zero until the first announcement: epoch checks are skipped.
    pub(crate) ring_epoch: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
    /// Closers for *currently open* connections, keyed by connection id, so
    /// shutdown can unblock their reads. Handlers remove their own entry on
    /// exit, so the map never outgrows the live connection count.
    pub(crate) open_conns: Mutex<HashMap<u64, Closer>>,
    pub(crate) handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running `txcached` server behind some [`Listener`] — a TCP address in
/// production ([`TxcachedServer::bind`]), a simulated one in the chaos tests
/// ([`TxcachedServer::serve`]).
pub struct TxcachedServer<L: Listener = TcpListener> {
    /// The bound TCP address, when the listener is a real socket.
    local_addr: Option<SocketAddr>,
    label: String,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    listener_closer: Closer,
    event_loop: Option<crate::event_loop::EventLoopHandle>,
    _listener: std::marker::PhantomData<fn() -> L>,
}

impl TxcachedServer<TcpListener> {
    /// Binds a TCP listener (use port 0 for an ephemeral port) and starts
    /// the readiness-driven event loop ([`crate::event_loop`]): one epoll
    /// reactor thread multiplexing every connection, plus a small worker
    /// pool executing requests against the sharded node. The hosted node
    /// is named `name` and configured by `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        name: impl Into<String>,
        config: NodeConfig,
    ) -> std::io::Result<TxcachedServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let label = Listener::local_label(&listener);
        let listener_closer = Listener::closer(&listener)?;
        let shared = Arc::new(Shared {
            obs: ServerObs::new(&config),
            node: CacheNode::new(name, config),
            counters: ServerCounters::default(),
            ring_epoch: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            open_conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let event_loop = crate::event_loop::spawn(listener, Arc::clone(&shared))?;
        Ok(TxcachedServer {
            local_addr: Some(local_addr),
            label,
            shared,
            accept: None,
            listener_closer,
            event_loop: Some(event_loop),
            _listener: std::marker::PhantomData,
        })
    }

    /// The TCP address the server is listening on.
    ///
    /// # Panics
    /// Never for servers built with [`TxcachedServer::bind`].
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr.expect("bind() always records the address")
    }
}

impl<L: Listener> TxcachedServer<L> {
    /// Starts the accept loop on an already-bound listener of any
    /// transport. This is the generic constructor the chaos tests use with
    /// a [`wire::SimListener`]; [`TxcachedServer::bind`] wraps it for TCP.
    pub fn serve(
        listener: L,
        name: impl Into<String>,
        config: NodeConfig,
    ) -> std::io::Result<TxcachedServer<L>> {
        let label = listener.local_label();
        let listener_closer = listener.closer()?;
        let shared = Arc::new(Shared {
            obs: ServerObs::new(&config),
            node: CacheNode::new(name, config),
            counters: ServerCounters::default(),
            ring_epoch: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            open_conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("txcached-accept-{label}"))
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(TxcachedServer {
            local_addr: None,
            label,
            shared,
            accept: Some(accept),
            listener_closer,
            event_loop: None,
            _listener: std::marker::PhantomData,
        })
    }

    /// A human-readable label of the listening address (works for every
    /// transport; see [`TxcachedServer::local_addr`] for the TCP address).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Node-wide protocol counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// The cache's own counters (hits, misses, invalidations, …).
    #[must_use]
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.shared.node.stats()
    }

    /// Per-shard lock-contention and eviction counters of the hosted node.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<crate::CacheShardStats> {
        self.shared.node.shard_stats()
    }

    /// Highest ring-membership epoch any client has announced (zero before
    /// the first [`wire::Request::RingEpoch`]).
    #[must_use]
    pub fn ring_epoch(&self) -> u64 {
        self.shared.ring_epoch.load(Ordering::SeqCst)
    }

    /// The full metrics snapshot: obs registry (per-opcode latency
    /// histograms, queue gauges, slow-op counters) merged with the
    /// node-wide protocol counters — the same data a
    /// [`wire::Request::Metrics`] returns over the wire.
    #[must_use]
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        telemetry::metrics_snapshot(&self.shared)
    }

    /// The slow-op flight recorder's current contents, oldest first.
    #[must_use]
    pub fn slow_ops(&self) -> Vec<obs::SlowOp> {
        self.shared.obs.slow_ops.dump()
    }

    /// Adjusts the slow-op capture threshold at runtime (microseconds).
    pub fn set_slow_op_threshold_us(&self, us: u64) {
        self.shared.obs.slow_ops.set_threshold_us(us);
    }

    /// Number of currently open connections.
    #[must_use]
    pub fn open_connection_count(&self) -> usize {
        self.shared.open_conns.lock().len()
    }

    /// Stops accepting, closes every open connection, and joins all threads.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(mut event_loop) = self.event_loop.take() {
            // The event-driven path: the wake pipe unblocks the reactor,
            // which tears every connection down itself before exiting.
            event_loop.shutdown();
        } else {
            self.listener_closer.close();
            if let Some(handle) = self.accept.take() {
                let _ = handle.join();
            }
        }
        for (_, closer) in self.shared.open_conns.lock().drain() {
            closer.close();
        }
        let handlers: Vec<JoinHandle<()>> = self.shared.handlers.lock().drain(..).collect();
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl<L: Listener> Drop for TxcachedServer<L> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<L: Listener> std::fmt::Debug for TxcachedServer<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxcachedServer")
            .field("addr", &self.label)
            .field("stats", &self.stats())
            .finish()
    }
}

fn accept_loop<L: Listener>(listener: &L, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failures (e.g. EMFILE under fd pressure)
                // must not busy-spin the accept thread.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let conn_id = shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        if let Ok(closer) = stream.closer() {
            shared.open_conns.lock().insert(conn_id, closer);
        }
        // Reap finished handler threads so the handle list tracks live
        // connections instead of growing for the server's lifetime.
        shared.handlers.lock().retain(|h| !h.is_finished());
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("txcached-conn".to_string())
            .spawn(move || handle_connection(conn_id, stream, &conn_shared));
        if let Ok(handle) = handle {
            shared.handlers.lock().push(handle);
        }
    }
}

/// A transport adapter that counts bytes into the node-wide counters.
struct CountingStream<'a, T> {
    inner: T,
    counters: &'a ServerCounters,
}

impl<T: Read> Read for CountingStream<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counters.bytes_in.add(n as u64);
        Ok(n)
    }
}

impl<T: Write> Write for CountingStream<'_, T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.bytes_out.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn handle_connection<T: Transport>(conn_id: u64, stream: T, shared: &Arc<Shared>) {
    let mut framed = FramedStream::new(CountingStream {
        inner: stream,
        counters: &shared.counters,
    });

    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // Frame-level errors desynchronize the stream: close. Body-level
        // decode errors leave the stream at a frame boundary: answer with an
        // error frame (echoing the request's sequence number) and keep
        // serving.
        let (seq, decoded) = match framed.recv_request() {
            Ok(Some(x)) => x,
            Ok(None) | Err(_) => break,
        };
        let response = match decoded {
            Ok(request) => {
                shared.counters.requests.bump();
                telemetry::apply_timed(shared, request, shared.obs.trace(seq))
            }
            Err(e) => {
                shared.counters.protocol_errors.bump();
                error_frame(&e)
            }
        };
        if framed.send_response(seq, &response).is_err() {
            break;
        }
    }

    // Release the registered closer now: leaving it in the registry would
    // keep the connection's resources alive and leak one entry per
    // connection.
    if let Some(closer) = shared.open_conns.lock().remove(&conn_id) {
        closer.close();
    }
    shared.counters.connections_closed.bump();
}

pub(crate) fn error_frame(e: &WireError) -> Response {
    let code = match e {
        WireError::Version { .. } => wire::ErrorCode::Version,
        _ => wire::ErrorCode::Malformed,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

pub(crate) fn apply_request(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Ping { nonce } => Response::Pong { nonce },
        Request::VersionedGet {
            key,
            pinset_lo,
            pinset_hi,
            freshness_lo,
        } => {
            let lookup = LookupRequest {
                pinset_lo,
                pinset_hi,
                freshness_lo,
            };
            shared.node.lookup(&key, &lookup).into()
        }
        Request::Put {
            key,
            value,
            validity,
            tags,
            now,
        } => {
            shared.node.insert(key, value, validity, tags, now);
            Response::PutAck
        }
        Request::MultiGet {
            epoch,
            keys,
            pinset_lo,
            pinset_hi,
            freshness_lo,
        } => {
            if let Some(expected) = stale_epoch(shared, epoch) {
                return Response::WrongEpoch { expected };
            }
            let lookup = LookupRequest {
                pinset_lo,
                pinset_hi,
                freshness_lo,
            };
            // One result per key, in request order — the client zips them
            // back onto its read set positionally.
            let results = keys
                .iter()
                .map(|key| shared.node.lookup(key, &lookup).into())
                .collect();
            Response::MultiGetResult { results }
        }
        Request::MultiPut { epoch, entries } => {
            if let Some(expected) = stale_epoch(shared, epoch) {
                return Response::WrongEpoch { expected };
            }
            let applied = entries.len() as u64;
            for PutEntry {
                key,
                value,
                validity,
                tags,
                now,
            } in entries
            {
                shared.node.insert(key, value, validity, tags, now);
            }
            Response::MultiPutAck { applied }
        }
        Request::InvalidationBatch { events, heartbeat } => {
            shared.counters.invalidation_batches.bump();
            // The whole batch applies under one acquisition of the node's
            // invalidation sequencer, so concurrent batches cannot
            // interleave their commit-ordered events.
            let applied = shared.node.apply_invalidation_batch(
                events
                    .into_iter()
                    .map(|InvalidationEvent { timestamp, tags }| (timestamp, tags)),
                heartbeat,
            );
            Response::InvalidationAck { applied }
        }
        Request::EvictStale { min_useful_ts } => {
            shared.node.evict_stale(min_useful_ts);
            Response::Ok
        }
        Request::Stats => Response::StatsSnapshot(shared.node.stats().into()),
        Request::ShardStats => Response::ShardStatsSnapshot(
            shared
                .node
                .shard_stats()
                .into_iter()
                .map(Into::into)
                .collect(),
        ),
        Request::ResetStats => {
            shared.node.reset_stats();
            Response::Ok
        }
        Request::SealStillValid => Response::Sealed {
            sealed: shared.node.seal_still_valid(),
        },
        Request::RingEpoch { epoch } => {
            // Remember the highest epoch ever announced; a racing older
            // announcement can never roll the fence back.
            let prev = shared.ring_epoch.fetch_max(epoch, Ordering::SeqCst);
            Response::EpochAck {
                epoch: prev.max(epoch),
            }
        }
        Request::Metrics => {
            Response::MetricsSnapshot(telemetry::to_wire(telemetry::metrics_snapshot(shared)))
        }
    }
}

/// Returns the node's expected epoch when an epoch-stamped batch must be
/// refused: both sides are versioned (non-zero) and they disagree.
fn stale_epoch(shared: &Shared, request_epoch: u64) -> Option<u64> {
    if request_epoch == 0 {
        return None;
    }
    let known = shared.ring_epoch.load(Ordering::SeqCst);
    (known != 0 && known != request_epoch).then_some(known)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::TcpStream;
    use txtypes::{CacheKey, InvalidationTag, TagSet, Timestamp, ValidityInterval, WallClock};
    use wire::MissCode;

    fn client(server: &TxcachedServer) -> FramedStream<TcpStream> {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        FramedStream::new(stream)
    }

    fn server() -> TxcachedServer {
        TxcachedServer::bind(
            "127.0.0.1:0",
            "test-node",
            NodeConfig {
                capacity_bytes: 1 << 20,
                ..NodeConfig::default()
            },
        )
        .unwrap()
    }

    fn tags(id: u64) -> TagSet {
        [InvalidationTag::keyed("items", format!("id={id}"))]
            .into_iter()
            .collect()
    }

    #[test]
    fn ping_put_get_roundtrip_over_tcp() {
        let mut srv = server();
        let mut conn = client(&srv);

        let pong = conn.call(&Request::Ping { nonce: 7 }).unwrap();
        assert_eq!(pong, Response::Pong { nonce: 7 });

        let key = CacheKey::new("f", "[1]");
        let put = conn
            .call(&Request::Put {
                key: key.clone(),
                value: Bytes::from_static(b"payload"),
                validity: ValidityInterval::unbounded(Timestamp(3)),
                tags: tags(1),
                now: WallClock::ZERO,
            })
            .unwrap();
        assert_eq!(put, Response::PutAck);

        let got = conn
            .call(&Request::VersionedGet {
                key,
                pinset_lo: Timestamp(3),
                pinset_hi: Timestamp(3),
                freshness_lo: Timestamp(3),
            })
            .unwrap();
        match got {
            Response::Hit { value, .. } => assert_eq!(&value[..], b"payload"),
            other => panic!("expected hit, got {other:?}"),
        }

        let miss = conn
            .call(&Request::VersionedGet {
                key: CacheKey::new("f", "[2]"),
                pinset_lo: Timestamp(3),
                pinset_hi: Timestamp(3),
                freshness_lo: Timestamp(3),
            })
            .unwrap();
        assert_eq!(
            miss,
            Response::Miss {
                kind: MissCode::Compulsory
            }
        );

        srv.shutdown();
        let stats = srv.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.requests, 4);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn the_same_server_runs_over_a_sim_transport() {
        let net = wire::SimNet::new(11);
        let listener = net.bind("node-0");
        let srv: TxcachedServer<wire::SimListener> = TxcachedServer::serve(
            listener,
            "sim-node",
            NodeConfig {
                capacity_bytes: 1 << 20,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let conn =
            wire::Connector::connect(&net, "node-0", std::time::Duration::from_secs(1)).unwrap();
        let mut framed = FramedStream::new(conn);
        let pong = framed.call(&Request::Ping { nonce: 42 }).unwrap();
        assert_eq!(pong, Response::Pong { nonce: 42 });
        assert_eq!(srv.label(), "sim://node-0");
        assert_eq!(srv.stats().requests, 1);
    }

    #[test]
    fn invalidation_batch_truncates_entries_and_advances_heartbeat() {
        let srv = server();
        let mut conn = client(&srv);
        let key = CacheKey::new("f", "[1]");
        conn.call(&Request::Put {
            key: key.clone(),
            value: Bytes::from_static(b"v"),
            validity: ValidityInterval::unbounded(Timestamp(3)),
            tags: tags(1),
            now: WallClock::ZERO,
        })
        .unwrap();

        let ack = conn
            .call(&Request::InvalidationBatch {
                events: vec![
                    InvalidationEvent {
                        timestamp: Timestamp(10),
                        tags: tags(1),
                    },
                    InvalidationEvent {
                        timestamp: Timestamp(11),
                        tags: tags(99),
                    },
                ],
                heartbeat: Timestamp(11),
            })
            .unwrap();
        assert_eq!(ack, Response::InvalidationAck { applied: 2 });

        // Truncated at 10: a lookup at 10 misses, a lookup at 9 hits.
        let miss = conn
            .call(&Request::VersionedGet {
                key: key.clone(),
                pinset_lo: Timestamp(10),
                pinset_hi: Timestamp(10),
                freshness_lo: Timestamp(10),
            })
            .unwrap();
        assert!(matches!(miss, Response::Miss { .. }));
        let hit = conn
            .call(&Request::VersionedGet {
                key,
                pinset_lo: Timestamp(9),
                pinset_hi: Timestamp(9),
                freshness_lo: Timestamp(9),
            })
            .unwrap();
        assert!(matches!(hit, Response::Hit { .. }));

        match conn.call(&Request::Stats).unwrap() {
            Response::StatsSnapshot(stats) => {
                assert_eq!(stats.invalidated_entries, 1);
                assert_eq!(stats.invalidation_messages, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(srv.stats().invalidation_batches, 1);
    }

    #[test]
    fn malformed_bodies_get_error_frames_but_keep_the_connection() {
        let srv = server();
        let mut conn = client(&srv);
        // A body with a sequence number and a bogus version byte.
        let mut body = 77u64.to_le_bytes().to_vec();
        body.extend_from_slice(&[99u8, 0x01]);
        wire::write_frame(conn.transport_mut(), &body).unwrap();
        // Read the raw error frame back: it echoes sequence 77.
        let reply = wire::read_frame(conn.transport_mut()).unwrap().unwrap();
        assert_eq!(&reply[..8], &77u64.to_le_bytes());
        match Response::decode(&reply[8..]).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, wire::ErrorCode::Version),
            other => panic!("expected error frame, got {other:?}"),
        }
        // The connection still works.
        let pong = conn.call(&Request::Ping { nonce: 1 }).unwrap();
        assert_eq!(pong, Response::Pong { nonce: 1 });
        assert_eq!(srv.stats().protocol_errors, 1);
    }

    #[test]
    fn closed_connections_release_their_registry_entries() {
        let srv = server();
        for _ in 0..5 {
            let mut conn = client(&srv);
            conn.call(&Request::Ping { nonce: 1 }).unwrap();
            drop(conn);
        }
        // Handlers notice the disconnect and remove their registry entries;
        // poll briefly since teardown is asynchronous.
        for _ in 0..100 {
            if srv.open_connection_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(
            srv.open_connection_count(),
            0,
            "registry must not leak closed connections"
        );
        assert_eq!(srv.stats().connections_closed, 5);
    }

    #[test]
    fn seal_still_valid_over_tcp() {
        let srv = server();
        let mut conn = client(&srv);
        conn.call(&Request::Put {
            key: CacheKey::new("f", "[1]"),
            value: Bytes::from_static(b"v"),
            validity: ValidityInterval::unbounded(Timestamp(3)),
            tags: tags(1),
            now: WallClock::ZERO,
        })
        .unwrap();
        let sealed = conn.call(&Request::SealStillValid).unwrap();
        assert_eq!(sealed, Response::Sealed { sealed: 1 });
        assert_eq!(srv.cache_stats().sealed_entries, 1);
    }

    #[test]
    fn shard_stats_surface_over_tcp() {
        let srv = server();
        let mut conn = client(&srv);
        for i in 0..16 {
            conn.call(&Request::Put {
                key: CacheKey::new("f", format!("[{i}]")),
                value: Bytes::from_static(b"v"),
                validity: ValidityInterval::unbounded(Timestamp(3)),
                tags: tags(i),
                now: WallClock::ZERO,
            })
            .unwrap();
        }
        conn.call(&Request::VersionedGet {
            key: CacheKey::new("f", "[0]"),
            pinset_lo: Timestamp(3),
            pinset_hi: Timestamp(3),
            freshness_lo: Timestamp(3),
        })
        .unwrap();
        match conn.call(&Request::ShardStats).unwrap() {
            Response::ShardStatsSnapshot(shards) => {
                assert_eq!(shards.len(), srv.shard_stats().len());
                let writes: u64 = shards.iter().map(|s| s.write_locks).sum();
                assert_eq!(writes, 16, "one exclusive acquisition per put");
                let reads: u64 = shards.iter().map(|s| s.read_locks).sum();
                assert_eq!(reads, 1, "one shared acquisition per get");
                let entries: u64 = shards.iter().map(|s| s.entries).sum();
                assert_eq!(entries, 16);
            }
            other => panic!("expected shard stats, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_disconnects_clients_and_is_idempotent() {
        let mut srv = server();
        let mut conn = client(&srv);
        conn.call(&Request::Ping { nonce: 1 }).unwrap();
        srv.shutdown();
        srv.shutdown();
        // The server side is gone: the next call fails or yields EOF.
        let result = conn.call(&Request::Ping { nonce: 2 });
        assert!(result.is_err());
    }

    #[test]
    fn shutdown_returns_while_pipelined_puts_are_in_flight() {
        // Workers write the reactor's wake pipe as each put completes, so a
        // shutdown that lands mid-burst races their wake bytes with its own.
        // Every shutdown must return; the watchdog fails the test instead of
        // letting a lost wake-up park it in `join` forever.
        const ROUNDS: usize = 300;
        let (progress_tx, progress_rx) = std::sync::mpsc::channel();
        let looper = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let mut srv = server();
                let mut conn = client(&srv);
                for i in 0..32 {
                    conn.send_request(&Request::Put {
                        key: CacheKey::new("f", format!("[{i}]")),
                        value: Bytes::from_static(b"v"),
                        validity: ValidityInterval::unbounded(Timestamp(1)),
                        tags: tags(i),
                        now: WallClock::ZERO,
                    })
                    .unwrap();
                }
                srv.shutdown();
                progress_tx.send(round).unwrap();
            }
        });
        for round in 0..ROUNDS {
            match progress_rx.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(done) => assert_eq!(done, round),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("shutdown hung for 5 s in round {round}")
                }
                // The loop thread panicked; joining it reports why.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        looper.join().expect("shutdown loop failed");
    }

    #[test]
    fn multiget_and_multiput_roundtrip_over_tcp() {
        let srv = server();
        let mut conn = client(&srv);
        let entries: Vec<wire::PutEntry> = (0..3)
            .map(|i| wire::PutEntry {
                key: CacheKey::new("f", format!("[{i}]")),
                value: Bytes::from(format!("v{i}").into_bytes()),
                validity: ValidityInterval::unbounded(Timestamp(3)),
                tags: tags(i),
                now: WallClock::ZERO,
            })
            .collect();
        let ack = conn.call(&Request::MultiPut { epoch: 0, entries }).unwrap();
        assert_eq!(ack, Response::MultiPutAck { applied: 3 });

        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::new("f", format!("[{i}]")))
            .collect();
        match conn
            .call(&Request::MultiGet {
                epoch: 0,
                keys,
                pinset_lo: Timestamp(3),
                pinset_hi: Timestamp(3),
                freshness_lo: Timestamp(3),
            })
            .unwrap()
        {
            Response::MultiGetResult { results } => {
                assert_eq!(results.len(), 4, "one result per key, in order");
                for (i, result) in results.iter().take(3).enumerate() {
                    match result {
                        wire::GetResult::Hit { value, .. } => {
                            assert_eq!(value.as_slice(), format!("v{i}").as_bytes());
                        }
                        other => panic!("expected hit for key {i}, got {other:?}"),
                    }
                }
                assert_eq!(
                    results[3],
                    wire::GetResult::Miss {
                        kind: MissCode::Compulsory
                    }
                );
            }
            other => panic!("expected multiget result, got {other:?}"),
        }
        assert_eq!(srv.cache_stats().insertions, 3);
    }

    #[test]
    fn ring_epoch_announcements_fence_stale_batches() {
        let srv = server();
        let mut conn = client(&srv);
        assert_eq!(srv.ring_epoch(), 0);

        // Unversioned batches are always served.
        let ok = conn
            .call(&Request::MultiGet {
                epoch: 0,
                keys: vec![CacheKey::new("f", "[0]")],
                pinset_lo: Timestamp(1),
                pinset_hi: Timestamp(1),
                freshness_lo: Timestamp(1),
            })
            .unwrap();
        assert!(matches!(ok, Response::MultiGetResult { .. }));

        // Announce epoch 4; a lower re-announcement cannot roll it back.
        let ack = conn.call(&Request::RingEpoch { epoch: 4 }).unwrap();
        assert_eq!(ack, Response::EpochAck { epoch: 4 });
        let ack = conn.call(&Request::RingEpoch { epoch: 2 }).unwrap();
        assert_eq!(ack, Response::EpochAck { epoch: 4 });
        assert_eq!(srv.ring_epoch(), 4);

        // A batch stamped with a different epoch gets the typed redirect.
        let redirected = conn
            .call(&Request::MultiGet {
                epoch: 3,
                keys: vec![CacheKey::new("f", "[0]")],
                pinset_lo: Timestamp(1),
                pinset_hi: Timestamp(1),
                freshness_lo: Timestamp(1),
            })
            .unwrap();
        assert_eq!(redirected, Response::WrongEpoch { expected: 4 });
        let redirected = conn
            .call(&Request::MultiPut {
                epoch: 9,
                entries: Vec::new(),
            })
            .unwrap();
        assert_eq!(redirected, Response::WrongEpoch { expected: 4 });

        // The matching epoch is served.
        let served = conn
            .call(&Request::MultiGet {
                epoch: 4,
                keys: vec![CacheKey::new("f", "[0]")],
                pinset_lo: Timestamp(1),
                pinset_hi: Timestamp(1),
                freshness_lo: Timestamp(1),
            })
            .unwrap();
        assert!(matches!(served, Response::MultiGetResult { .. }));
    }

    #[test]
    fn metrics_request_returns_per_opcode_latency_histograms() {
        let srv = server();
        let mut conn = client(&srv);
        for i in 0..8 {
            conn.call(&Request::Put {
                key: CacheKey::new("f", format!("[{i}]")),
                value: Bytes::from_static(b"v"),
                validity: ValidityInterval::unbounded(Timestamp(3)),
                tags: tags(i),
                now: WallClock::ZERO,
            })
            .unwrap();
        }
        conn.call(&Request::VersionedGet {
            key: CacheKey::new("f", "[0]"),
            pinset_lo: Timestamp(3),
            pinset_hi: Timestamp(3),
            freshness_lo: Timestamp(3),
        })
        .unwrap();

        let snap = match conn.call(&Request::Metrics).unwrap() {
            Response::MetricsSnapshot(report) => crate::telemetry::snapshot_from_wire(&report),
            other => panic!("expected metrics snapshot, got {other:?}"),
        };
        let puts = snap.histogram("server.req.put.us").unwrap();
        assert_eq!(puts.count, 8);
        assert!(puts.percentile(0.99) >= puts.percentile(0.50));
        let gets = snap.histogram("server.req.get.us").unwrap();
        assert_eq!(gets.count, 1);
        // The merged protocol counters ride along, and the local accessor
        // sees the same series.
        assert_eq!(snap.counter("server.conns.accepted"), Some(1));
        assert!(snap.counter("server.req.total").unwrap() >= 9);
        assert!(snap.gauge("server.queue.depth").is_some());
        let local = srv.metrics();
        assert_eq!(
            local.histogram("server.req.put.us").unwrap().count,
            puts.count
        );
    }

    #[test]
    fn metrics_disabled_mode_serves_requests_without_recording() {
        let srv = TxcachedServer::bind(
            "127.0.0.1:0",
            "test-node",
            NodeConfig {
                capacity_bytes: 1 << 20,
                metrics: false,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let mut conn = client(&srv);
        conn.call(&Request::Ping { nonce: 1 }).unwrap();
        let snap = match conn.call(&Request::Metrics).unwrap() {
            Response::MetricsSnapshot(report) => crate::telemetry::snapshot_from_wire(&report),
            other => panic!("expected metrics snapshot, got {other:?}"),
        };
        // No clock readings: the histograms exist but stay empty. The plain
        // protocol counters keep running.
        assert_eq!(snap.histogram("server.req.ping.us").unwrap().count, 0);
        assert!(snap.counter("server.req.total").unwrap() >= 1);
        assert_eq!(snap.gauge("server.queue.depth"), Some(0));
    }

    #[test]
    fn slow_op_ring_captures_an_artificially_delayed_request() {
        let srv = TxcachedServer::bind(
            "127.0.0.1:0",
            "test-node",
            NodeConfig {
                capacity_bytes: 1 << 20,
                // Every request is held for 2 ms, and anything over 1 ms is
                // captured: the ring must see the delayed op with its trail.
                inject_delay_us: 2_000,
                slow_op_threshold_us: 1_000,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let mut conn = client(&srv);
        conn.call(&Request::Ping { nonce: 9 }).unwrap();
        let ops = srv.slow_ops();
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.op, "ping");
        assert!(op.total_us >= 2_000, "total {}us", op.total_us);
        let labels: Vec<&str> = op.spans.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["queued", "injected_delay", "applied", "done"]);
        assert_eq!(
            srv.metrics().counter("server.slow_ops.captured"),
            Some(1),
            "capture count surfaces in the registry"
        );

        // Raising the threshold at runtime stops further captures.
        srv.set_slow_op_threshold_us(u64::MAX);
        conn.call(&Request::Ping { nonce: 10 }).unwrap();
        assert_eq!(srv.slow_ops().len(), 1);
    }

    #[test]
    fn many_in_flight_requests_multiplex_on_one_connection() {
        let srv = server();
        let mut conn = client(&srv);
        // Fire a burst of requests without reading, then collect the
        // responses newest-first: the pending table (not arrival order)
        // pairs each response to its request.
        let seqs: Vec<u64> = (0..32)
            .map(|i| conn.send_request(&Request::Ping { nonce: i }).unwrap())
            .collect();
        for (i, seq) in seqs.iter().enumerate().rev() {
            let response = conn.recv_for(*seq).unwrap();
            assert_eq!(response, Response::Pong { nonce: i as u64 });
        }
        assert_eq!(srv.stats().requests, 32);
    }

    #[test]
    fn concurrent_clients_share_one_node() {
        let srv = server();
        let addr = srv.local_addr();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let mut conn = FramedStream::new(TcpStream::connect(addr).unwrap());
                    for i in 0..25 {
                        let key = CacheKey::new("f", format!("[{t}:{i}]"));
                        conn.call(&Request::Put {
                            key: key.clone(),
                            value: Bytes::from(vec![t as u8; 16]),
                            validity: ValidityInterval::unbounded(Timestamp(1)),
                            tags: TagSet::new(),
                            now: WallClock::ZERO,
                        })
                        .unwrap();
                        let got = conn
                            .call(&Request::VersionedGet {
                                key,
                                pinset_lo: Timestamp(1),
                                pinset_hi: Timestamp(1),
                                freshness_lo: Timestamp(1),
                            })
                            .unwrap();
                        assert!(matches!(got, Response::Hit { .. }));
                    }
                });
            }
        });
        assert_eq!(srv.cache_stats().insertions, 100);
        assert_eq!(srv.cache_stats().hits, 100);
        assert_eq!(srv.stats().connections_accepted, 4);
    }
}
