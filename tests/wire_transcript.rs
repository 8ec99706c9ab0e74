//! Frozen wire transcript of `RemoteCluster`.
//!
//! A recording [`Connector`] wraps `SimNet` connections and folds every byte
//! the client writes — per node, in order, with a marker at each (re)connect
//! — into an FNV-1a digest. One scripted single-threaded run over three
//! nodes with R = 2 drives every `CacheBackend` operation, a runtime join
//! and leave, a sever + heal (the seal-on-heal handshake), fallback hits
//! (migration fills) and a put burst past the 64-deep ack window. The digest
//! also covers the outcomes the calls return, the cluster's failure counters
//! and the per-opcode `client.rtt.*` sample counts.
//!
//! `FROZEN_DIGEST` was computed by running this test at commit 116bede — the
//! last commit where `exchange`, `broadcast`, `lookup_many`, `insert`,
//! `insert_many` and `migration_fill` each hand-rolled their node
//! conversation — so any rework of `RemoteCluster`'s I/O must put the same
//! bytes on the wire and count the same events. Per-node digests are
//! combined in address order, so the digest constrains what each node is
//! sent and in which order, not how conversations with different nodes
//! interleave.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use txcache_repro::cache_server::{LookupOutcome, LookupRequest, NodeConfig, TxcachedServer};
use txcache_repro::mvdb::InvalidationMessage;
use txcache_repro::txcache::backend::{CacheBackend, RemoteCluster, RemoteOptions};
use txcache_repro::txtypes::{
    CacheKey, InvalidationTag, TagSet, Timestamp, ValidityInterval, WallClock,
};
use txcache_repro::wire::sim::{fnv1a, FNV_OFFSET};
use txcache_repro::wire::{Closer, Connector, SimConn, SimListener, SimNet, Transport};

const FROZEN_DIGEST: u64 = 0x1ae5_aaa4_2be6_a7e4;

/// Per-address digests of everything the client wrote.
type Tape = Arc<Mutex<BTreeMap<String, u64>>>;

fn record(tape: &Tape, addr: &str, bytes: &[u8]) {
    let mut tape = tape.lock().unwrap();
    fnv1a(tape.entry(addr.to_string()).or_insert(FNV_OFFSET), bytes);
}

#[derive(Debug, Clone)]
struct RecordingConnector {
    net: SimNet,
    tape: Tape,
}

#[derive(Debug)]
struct RecordingConn {
    inner: SimConn,
    addr: String,
    tape: Tape,
}

impl Connector for RecordingConnector {
    type Conn = RecordingConn;

    fn connect(&self, addr: &str, connect_timeout: Duration) -> std::io::Result<RecordingConn> {
        let inner = self.net.connect(addr, connect_timeout)?;
        record(&self.tape, addr, b"\0connect\0");
        Ok(RecordingConn {
            inner,
            addr: addr.to_string(),
            tape: Arc::clone(&self.tape),
        })
    }
}

impl Read for RecordingConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for RecordingConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        record(&self.tape, &self.addr, &buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for RecordingConn {
    fn closer(&self) -> std::io::Result<Closer> {
        self.inner.closer()
    }

    fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_io_timeout(timeout)
    }
}

fn key(i: usize) -> CacheKey {
    // Scrambled arguments: the ring hash keeps consecutive integers on one
    // arc, and the script wants every key range spread over all nodes.
    CacheKey::new(
        "f",
        format!("[{}]", (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

fn tag(i: usize) -> InvalidationTag {
    InvalidationTag::keyed("items", format!("id={i}"))
}

fn entry(i: usize, lower: u64) -> (CacheKey, Bytes, ValidityInterval, TagSet) {
    (
        key(i),
        Bytes::from(vec![i as u8; 8 + i % 5]),
        ValidityInterval::unbounded(Timestamp(lower)),
        [tag(i)].into_iter().collect(),
    )
}

fn serve(net: &SimNet, addr: &str) -> TxcachedServer<SimListener> {
    TxcachedServer::serve(
        net.bind(addr),
        addr.to_string(),
        NodeConfig {
            capacity_bytes: 4 << 20,
            ..NodeConfig::default()
        },
    )
    .unwrap()
}

/// The running digest of everything observable from outside the cluster.
struct Script {
    remote: RemoteCluster<RecordingConnector>,
    digest: u64,
}

impl Script {
    fn note(&mut self, line: &str) {
        fnv1a(&mut self.digest, line.as_bytes());
        fnv1a(&mut self.digest, b"\n");
    }

    fn note_outcome(&mut self, label: &str, outcome: &LookupOutcome) {
        let line = match outcome {
            LookupOutcome::Hit {
                value,
                validity,
                stored_validity,
                tags,
            } => format!("{label} hit {value:?} {validity:?} {stored_validity:?} {tags:?}"),
            LookupOutcome::Miss(_) => format!("{label} miss"),
        };
        self.note(&line);
    }

    fn lookup(&mut self, i: usize, ts: u64) {
        let outcome = self
            .remote
            .lookup(&key(i), &LookupRequest::at(Timestamp(ts)));
        self.note_outcome(&format!("lookup {i}@{ts}"), &outcome);
        // At 116bede a batched read kept a fallback round's first miss kind
        // where a single read reported the last (see
        // `batched_reads_classify_misses_like_single_reads`), so only the
        // single read's classification is frozen.
        self.note(&format!("{:?}", outcome.miss_kind()));
    }

    fn lookup_many(&mut self, range: std::ops::Range<usize>, ts: u64) {
        let keys: Vec<CacheKey> = range.clone().map(key).collect();
        let outcomes = self
            .remote
            .lookup_many(&keys, &LookupRequest::at(Timestamp(ts)));
        assert_eq!(outcomes.len(), keys.len());
        for (i, outcome) in range.zip(&outcomes) {
            self.note_outcome(&format!("lookup_many {i}@{ts}"), outcome);
        }
    }

    fn insert(&mut self, i: usize, lower: u64) {
        let (key, value, validity, tags) = entry(i, lower);
        self.remote
            .insert(key, value, validity, tags, WallClock::ZERO);
    }

    fn insert_many(&mut self, range: std::ops::Range<usize>, lower: u64) {
        self.remote
            .insert_many(range.map(|i| entry(i, lower)).collect(), WallClock::ZERO);
    }

    fn invalidate(&mut self, ids: &[usize], ts: u64) {
        let batch: Vec<InvalidationMessage> = ids
            .iter()
            .enumerate()
            .map(|(n, &i)| InvalidationMessage {
                timestamp: Timestamp(ts - (ids.len() - 1 - n) as u64),
                tags: [tag(i)].into_iter().collect(),
                committed_at: WallClock::ZERO,
            })
            .collect();
        self.remote.apply_invalidations(&batch, Timestamp(ts));
    }

    /// Folds the node statistics and every client counter; the `Stats`
    /// broadcast also sweeps every parked put ack, so each phase starts with
    /// an empty ack window.
    fn checkpoint(&mut self, label: &str) {
        let stats = self.remote.stats();
        self.note(&format!("{label} stats {stats:?}"));
        let r = &self.remote;
        let counters = format!(
            "{label} epoch {} degraded {} reconnects {} failovers {} rejoins {} fallbacks {} \
             fills {} stalls {} redirects {}",
            r.ring_epoch(),
            r.degraded_ops(),
            r.reconnects(),
            r.failovers(),
            r.rejoins(),
            r.replica_fallbacks(),
            r.migration_fills(),
            r.put_stalls(),
            r.wrong_epoch_redirects(),
        );
        self.note(&counters);
        for (name, hist) in self.remote.metrics().histograms {
            self.note(&format!("{label} {name} samples {}", hist.count));
        }
    }
}

#[test]
fn remote_cluster_wire_transcript_is_frozen() {
    let net = SimNet::new(16);
    let addrs: Vec<String> = (0..3).map(|i| format!("node-{i}")).collect();
    let mut servers: Vec<_> = addrs.iter().map(|addr| serve(&net, addr)).collect();
    servers.push(serve(&net, "node-3"));

    let tape: Tape = Arc::default();
    let connector = RecordingConnector {
        net: net.clone(),
        tape: Arc::clone(&tape),
    };
    let options = RemoteOptions {
        // Zero cooldown: refusals are instant in the sim, and a scripted
        // heal takes effect on the very next operation.
        retry_cooldown: Duration::ZERO,
        replication: 2,
        ..RemoteOptions::default()
    };
    let mut s = Script {
        remote: RemoteCluster::connect_via(connector, &addrs, options).unwrap(),
        digest: FNV_OFFSET,
    };

    // Single-key writes and reads, hits and (double-probed) compulsory
    // misses, then the same read set as one scatter-gather batch.
    for i in 0..12 {
        s.insert(i, 1);
    }
    s.invalidate(&[], 10);
    for i in 0..16 {
        s.lookup(i, 10);
    }
    s.lookup_many(0..16, 10);
    s.insert_many(12..20, 5);
    s.lookup_many(8..24, 10);
    s.checkpoint("filled");

    // The invalidation stream and maintenance broadcasts.
    s.invalidate(&[3, 4, 13], 14);
    for i in [3, 4, 5, 13] {
        s.lookup(i, 14);
        s.lookup(i, 10);
    }
    s.remote.evict_stale(Timestamp(12));
    s.lookup_many(0..20, 14);
    s.checkpoint("invalidated");
    s.remote.reset_stats();

    // Runtime membership: a join (epoch 2, announced), reads that migrate
    // entries to the new owner, epoch-stamped batches, and a leave.
    assert_eq!(s.remote.join_node("node-3").unwrap(), 2);
    s.lookup_many(0..20, 14);
    for i in 0..20 {
        s.lookup(i, 14);
    }
    s.insert_many(20..28, 14);
    s.lookup_many(16..30, 14);
    s.checkpoint("joined");
    assert_eq!(s.remote.leave_node("node-3").unwrap(), 3);
    s.lookup_many(0..30, 14);
    s.checkpoint("left");

    // A node crashes: its connection resets and redials are refused. Reads
    // fail over to the sibling replica, writes and broadcasts degrade, and
    // the node is demoted after three consecutive failures.
    net.partition("node-1");
    net.sever("node-1");
    for i in 0..10 {
        s.lookup(i, 14);
    }
    for i in 30..40 {
        s.insert(i, 14);
    }
    s.insert_many(40..46, 14);
    s.invalidate(&[5, 31], 18);
    s.lookup_many(0..46, 18);
    s.checkpoint("partitioned");

    // The heal: the first frame to the node is preceded by the seal and
    // epoch handshakes, and its first answer promotes it back. Entries
    // written while it was away come from the sibling and are copied over.
    net.heal("node-1");
    s.invalidate(&[], 20);
    s.checkpoint("healed");
    for i in 28..46 {
        s.lookup(i, 20);
    }
    s.lookup_many(0..46, 20);
    s.lookup_many(0..46, 20);
    s.checkpoint("migrated");

    // A put burst with no reads in between: once 64 acks are outstanding on
    // a node, every further put first blocks for one ack.
    for i in 100..300 {
        s.insert(i, 20);
    }
    s.checkpoint("burst");
    s.lookup_many(100..300, 20);
    s.checkpoint("end");

    let r = &s.remote;
    assert!(r.degraded_ops() > 0 && r.reconnects() == 1);
    assert!(r.failovers() == 1 && r.rejoins() == 1);
    assert!(r.replica_fallbacks() > 0 && r.migration_fills() > 0 && r.put_stalls() > 0);

    let mut digest = s.digest;
    for (addr, bytes) in tape.lock().unwrap().iter() {
        fnv1a(&mut digest, addr.as_bytes());
        fnv1a(&mut digest, &bytes.to_le_bytes());
    }
    for server in &mut servers {
        server.shutdown();
    }
    assert_eq!(
        digest, FROZEN_DIGEST,
        "RemoteCluster's wire transcript changed: digest {digest:#018x}"
    );
}

/// The one place the two read paths disagreed at 116bede: the preferred
/// replica never saw the key (compulsory miss, so the read falls back) and
/// the sibling holds only versions that no longer fit. `lookup` reported
/// the sibling's classification, `lookup_many` kept the compulsory one; now
/// both run the same loop and report the informative one.
#[test]
fn batched_reads_classify_misses_like_single_reads() {
    use txcache_repro::cache_server::{MissKind, RingBuilder};

    let net = SimNet::new(17);
    let addrs: Vec<String> = (0..2).map(|i| format!("node-{i}")).collect();
    let mut servers: Vec<_> = addrs.iter().map(|addr| serve(&net, addr)).collect();
    let options = RemoteOptions {
        retry_cooldown: Duration::ZERO,
        replication: 2,
        ..RemoteOptions::default()
    };
    let remote = RemoteCluster::connect_via(net.clone(), &addrs, options).unwrap();
    let view = RingBuilder::new()
        .add_all(addrs.iter().cloned())
        .replication(2)
        .build(1);
    let i = (0..)
        .find(|&i| view.replicas_for(&key(i)) == [0, 1])
        .unwrap();

    // The entry lands on the sibling only, and is invalidated there.
    net.partition("node-0");
    net.sever("node-0");
    let (k, value, validity, tags) = entry(i, 1);
    remote.insert(k.clone(), value, validity, tags.clone(), WallClock::ZERO);
    let invalidation = InvalidationMessage {
        timestamp: Timestamp(5),
        tags,
        committed_at: WallClock::ZERO,
    };
    remote.apply_invalidations(&[invalidation], Timestamp(5));
    net.heal("node-0");
    remote.apply_invalidations(&[], Timestamp(9));

    let request = LookupRequest::at(Timestamp(9));
    let single = remote.lookup(&k, &request).miss_kind();
    let batched = remote.lookup_many(&[k], &request)[0].miss_kind();
    assert_eq!(single, Some(MissKind::Staleness));
    assert_eq!(batched, single);
    assert_eq!(remote.replica_fallbacks(), 2, "both reads fell back");
    for server in &mut servers {
        server.shutdown();
    }
}
