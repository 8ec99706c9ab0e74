//! End-to-end tests of the networked cache tier: a real `mvdb` commit's
//! invalidation batch travelling over TCP to `txcached` nodes, degraded
//! operation when nodes die, and (for `ci.sh --net-smoke`) a consistency run
//! against an externally started server.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use txcache_repro::cache_server::{
    CacheCluster, LookupOutcome, LookupRequest, NodeConfig, TxcachedServer,
};
use txcache_repro::mvdb::{
    ColumnType, Database, DbConfig, Predicate, SelectQuery, TableSchema, Value,
};
use txcache_repro::pincushion::Pincushion;
use txcache_repro::txcache::backend::{CacheBackend, RemoteCluster, RemoteOptions};
use txcache_repro::txcache::{TxCache, TxCacheConfig};
use txcache_repro::txtypes::{
    CacheKey, SimClock, Staleness, TagSet, Timestamp, ValidityInterval, WallClock,
};

fn spawn_servers(n: usize) -> (Vec<TxcachedServer>, Vec<String>) {
    let servers: Vec<TxcachedServer> = (0..n)
        .map(|i| {
            TxcachedServer::bind(
                "127.0.0.1:0",
                format!("txcached-{i}"),
                NodeConfig {
                    capacity_bytes: 4 << 20,
                    ..NodeConfig::default()
                },
            )
            .expect("bind loopback txcached")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, addrs)
}

/// Waits until the nodes behind `backend` have applied `n` inserts in all.
/// Puts are pipelined, and the reactor may apply one connection's requests
/// out of arrival order (see `cache-server/src/event_loop.rs`), so a request
/// sent right behind a `Put` can overtake it. A test that reads back what it
/// just wrote waits here first; the assertions after it stay exact.
fn await_insertions(backend: &dyn CacheBackend, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let applied = backend.stats().insertions;
        if applied == n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "pipelined puts not applied: {applied} of {n} insertions"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A database commit's invalidation batch, pushed over TCP, must truncate
/// the validity interval of a still-valid entry on a remote node — the §4.2
/// contract, across a real server boundary.
#[test]
fn commit_invalidation_batch_truncates_remote_entry_validity() {
    let (_servers, addrs) = spawn_servers(2);
    let remote = RemoteCluster::connect(&addrs).unwrap();

    // A real database produces the invalidation: one row, then an update.
    let clock = SimClock::new();
    let db = Database::new(DbConfig::default(), clock.clone());
    db.create_table(
        TableSchema::new("items")
            .column("id", ColumnType::Int)
            .column("price", ColumnType::Int)
            .unique_index("id"),
    )
    .unwrap();
    db.bulk_load("items", vec![vec![Value::Int(1), Value::Int(10)]])
        .unwrap();
    let invalidations = db.subscribe_invalidations();
    let loaded_at = db.latest_timestamp();

    // Cache a still-valid (unbounded) entry that depends on the row.
    let key = CacheKey::new("get_item", "[1]");
    let tags: TagSet = [txtypes_tag("items", "id=1")].into_iter().collect();
    remote.insert(
        key.clone(),
        Bytes::from_static(b"price=10"),
        ValidityInterval::unbounded(loaded_at),
        tags,
        WallClock::ZERO,
    );
    // Let the pipelined `Put` apply first, so the batch below meets a
    // still-valid entry instead of racing the insert into §4.2's late-insert
    // path, which truncates the entry but counts no invalidation.
    await_insertions(&remote, 1);

    // Commit an update that touches the row.
    let txn = db.begin_rw().unwrap();
    db.update(
        txn,
        "items",
        &Predicate::eq("id", 1i64),
        &[("price".to_string(), Value::Int(42))],
    )
    .unwrap();
    let commit_ts = db.commit(txn).unwrap();

    // Push the commit's invalidation batch to the remote nodes.
    let batch: Vec<_> = invalidations.try_iter().collect();
    assert!(!batch.is_empty(), "the commit must publish an invalidation");
    remote.apply_invalidations(&batch, db.latest_timestamp());

    // The remote entry's validity is now truncated exactly at the commit.
    match remote.lookup(&key, &LookupRequest::at(loaded_at)) {
        LookupOutcome::Hit {
            stored_validity, ..
        } => {
            assert_eq!(
                stored_validity.upper,
                Some(commit_ts),
                "validity must end at the update's commit timestamp"
            );
        }
        other => panic!("expected hit below the truncation point, got {other:?}"),
    }
    // At or after the commit the old value is gone.
    assert!(
        !remote.lookup(&key, &LookupRequest::at(commit_ts)).is_hit(),
        "the stale value must not be served at the commit timestamp"
    );
    let stats = remote.stats();
    assert_eq!(stats.invalidated_entries, 1);
    assert_eq!(remote.degraded_ops(), 0);
}

fn txtypes_tag(table: &str, key: &str) -> txcache_repro::txtypes::InvalidationTag {
    txcache_repro::txtypes::InvalidationTag::keyed(table, key)
}

/// Killing every cache node must degrade lookups to misses — never block or
/// crash the application path.
#[test]
fn dead_nodes_degrade_to_misses() {
    let (mut servers, addrs) = spawn_servers(2);
    let remote = RemoteCluster::connect(&addrs).unwrap();
    let key = CacheKey::new("f", "[1]");
    remote.insert(
        key.clone(),
        Bytes::from_static(b"v"),
        ValidityInterval::unbounded(Timestamp(1)),
        TagSet::new(),
        WallClock::ZERO,
    );
    await_insertions(&remote, 1);
    assert!(remote
        .lookup(&key, &LookupRequest::at(Timestamp(1)))
        .is_hit());

    for server in &mut servers {
        server.shutdown();
    }
    drop(servers);

    // Lookups, inserts, and maintenance all absorb the failure.
    assert!(!remote
        .lookup(&key, &LookupRequest::at(Timestamp(1)))
        .is_hit());
    remote.insert(
        CacheKey::new("f", "[2]"),
        Bytes::from_static(b"w"),
        ValidityInterval::unbounded(Timestamp(1)),
        TagSet::new(),
        WallClock::ZERO,
    );
    remote.apply_invalidations(&[], Timestamp(5));
    remote.evict_stale(Timestamp(1));
    assert!(remote.degraded_ops() > 0, "degradation must be counted");
}

/// A healed connection must not let lost invalidations resurrect stale data:
/// on reconnect the node's still-valid entries are sealed at its current
/// invalidation horizon, so a later heartbeat cannot extend results whose
/// invalidation was dropped during the partition.
#[test]
fn healed_connection_seals_still_valid_entries() {
    let (_servers, addrs) = spawn_servers(1);
    let options = RemoteOptions {
        retry_cooldown: std::time::Duration::from_millis(50),
        ..RemoteOptions::default()
    };
    let remote = RemoteCluster::connect_with(&addrs, options).unwrap();

    let key = CacheKey::new("f", "[1]");
    let tags: TagSet = [txtypes_tag("items", "id=1")].into_iter().collect();
    remote.insert(
        key.clone(),
        Bytes::from_static(b"v"),
        ValidityInterval::unbounded(Timestamp(1)),
        tags.clone(),
        WallClock::ZERO,
    );
    await_insertions(&remote, 1);
    remote.apply_invalidations(&[], Timestamp(10));
    assert!(remote
        .lookup(&key, &LookupRequest::at(Timestamp(10)))
        .is_hit());

    // Partition: the connection drops, and an invalidation matching the
    // entry is published while the node is unreachable — the batch is lost.
    remote.drop_connections();
    let lost = txcache_repro::mvdb::InvalidationMessage {
        timestamp: Timestamp(15),
        tags,
        committed_at: WallClock::ZERO,
    };
    remote.apply_invalidations(&[lost], Timestamp(15));
    assert!(remote.degraded_ops() > 0, "the lost batch must be counted");

    // Heal after the cooldown. The reconnect seals the entry at the node's
    // horizon (ts 10), so the later heartbeat must NOT extend it past the
    // lost invalidation at ts 15.
    std::thread::sleep(std::time::Duration::from_millis(80));
    remote.apply_invalidations(&[], Timestamp(30));
    assert_eq!(remote.reconnects(), 1, "the heal must be counted");
    assert!(
        !remote
            .lookup(&key, &LookupRequest::at(Timestamp(20)))
            .is_hit(),
        "a sealed entry must not be served past the lost invalidation"
    );
    // Below the seal point the entry is still good.
    assert!(remote
        .lookup(&key, &LookupRequest::at(Timestamp(5)))
        .is_hit());
    assert_eq!(remote.stats().sealed_entries, 1);
}

/// Pipelined puts: many inserts followed by a lookup on the same connection
/// stay correctly framed (acks are drained in order before the lookup).
#[test]
fn pipelined_puts_then_lookup_stay_in_sync() {
    let (_servers, addrs) = spawn_servers(1);
    let remote = RemoteCluster::connect(&addrs).unwrap();
    for i in 0..100 {
        remote.insert(
            CacheKey::new("f", format!("[{i}]")),
            Bytes::from(vec![i as u8; 32]),
            ValidityInterval::unbounded(Timestamp(1)),
            TagSet::new(),
            WallClock::ZERO,
        );
    }
    for i in 0..100 {
        assert!(
            remote
                .lookup(
                    &CacheKey::new("f", format!("[{i}]")),
                    &LookupRequest::at(Timestamp(1))
                )
                .is_hit(),
            "key {i} must be present after pipelined puts"
        );
    }
    let stats = remote.stats();
    assert_eq!(stats.insertions, 100);
    assert_eq!(stats.hits, 100);
    assert_eq!(remote.degraded_ops(), 0);
}

/// A batched lookup whose read set is only partly cached must return hits
/// and misses positionally aligned with the request, and a batched
/// write-back of exactly the missed positions must convert them all to
/// hits. Run against both backends: the in-process cluster (the default
/// `lookup_many`/`insert_many` loops) and the remote cluster (scatter-gather
/// `MultiGet`/`MultiPut` frames over TCP).
#[test]
fn multiget_partial_hits_line_up_on_both_backends() {
    fn exercise(backend: &dyn CacheBackend, label: &str) {
        let keys: Vec<CacheKey> = (0..16)
            .map(|i| CacheKey::new("f", format!("[{i}]")))
            .collect();
        // Pre-fill only the even positions.
        for (i, key) in keys.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            backend.insert(
                key.clone(),
                Bytes::from(vec![i as u8; 8]),
                ValidityInterval::unbounded(Timestamp(1)),
                TagSet::new(),
                WallClock::ZERO,
            );
        }
        await_insertions(backend, 8);
        let request = LookupRequest::at(Timestamp(1));
        let outcomes = backend.lookup_many(&keys, &request);
        assert_eq!(outcomes.len(), keys.len(), "{label}: one outcome per key");
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                LookupOutcome::Hit { value, .. } if i % 2 == 0 => {
                    assert_eq!(value.as_ref(), &vec![i as u8; 8][..], "{label}: key {i}");
                }
                LookupOutcome::Miss(_) if i % 2 == 1 => {}
                other => panic!("{label}: position {i} mismatched: {other:?}"),
            }
        }
        // Batch write-back of exactly the missed positions.
        let fills: Vec<_> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(i, key)| {
                (
                    key.clone(),
                    Bytes::from(vec![i as u8; 8]),
                    ValidityInterval::unbounded(Timestamp(1)),
                    TagSet::new(),
                )
            })
            .collect();
        backend.insert_many(fills, WallClock::ZERO);
        await_insertions(backend, 16);
        for (i, outcome) in backend.lookup_many(&keys, &request).iter().enumerate() {
            match outcome {
                LookupOutcome::Hit { value, .. } => {
                    assert_eq!(value.as_ref(), &vec![i as u8; 8][..], "{label}: key {i}");
                }
                other => panic!("{label}: key {i} must hit after write-back: {other:?}"),
            }
        }
    }

    let in_process = CacheCluster::new(2, 4 << 20);
    exercise(&in_process, "in-process");

    let (_servers, addrs) = spawn_servers(2);
    let remote = RemoteCluster::connect(&addrs).unwrap();
    exercise(&remote, "remote");
    assert_eq!(
        remote.degraded_ops(),
        0,
        "loopback batches must not degrade"
    );
    let stats = remote.stats();
    assert_eq!(stats.insertions, 16, "8 puts + one 8-entry MultiPut");
}

/// Runtime membership over real TCP: a node joins the ring mid-flight (the
/// ring epoch bumps and is announced to every server), still-valid entries
/// migrate to their new owners as they are read, and a node leaves again
/// with the survivors picking its keys back up — no client or server
/// restarts anywhere.
#[test]
fn runtime_join_and_leave_republish_the_ring() {
    let (servers, addrs) = spawn_servers(3);
    let options = RemoteOptions {
        replication: 2,
        ..RemoteOptions::default()
    };
    // Start with two of the three servers in the ring.
    let remote = RemoteCluster::connect_with(&addrs[..2], options).unwrap();
    assert_eq!(remote.ring_epoch(), 1);
    assert_eq!(remote.node_count(), 2);

    // Enough keys that the joined node is certain to become some key's
    // preferred replica (each node owns a healthy share of the ring).
    let keys: Vec<CacheKey> = (0..256)
        .map(|i| CacheKey::new("f", format!("[{i}]")))
        .collect();
    let request = LookupRequest::at(Timestamp(1));
    for (i, key) in keys.iter().enumerate() {
        remote.insert(
            key.clone(),
            Bytes::from(vec![i as u8; 16]),
            ValidityInterval::unbounded(Timestamp(1)),
            TagSet::new(),
            WallClock::ZERO,
        );
    }
    await_insertions(&remote, 2 * keys.len() as u64);
    assert!(remote
        .lookup_many(&keys, &request)
        .iter()
        .all(|o| o.is_hit()));

    // Join the third node at runtime: epoch 2, announced everywhere.
    let epoch = remote.join_node(&addrs[2]).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(remote.node_count(), 3);
    for server in &servers {
        assert_eq!(
            server.ring_epoch(),
            2,
            "every node must learn the announced epoch"
        );
    }

    // Every key still hits: keys whose preferred replica moved to the cold
    // new node fall back to the sibling that held them — and get copied to
    // the new owner in the process.
    assert!(
        remote
            .lookup_many(&keys, &request)
            .iter()
            .all(|o| o.is_hit()),
        "old owners must keep serving moved keys after the join"
    );
    assert!(
        remote.migration_fills() > 0,
        "fallback hits must migrate entries to the joined node"
    );
    // Once migrated, the same batch is all first-hop hits — no new fills.
    let fills_after_migration = remote.migration_fills();
    await_insertions(&remote, 2 * keys.len() as u64 + fills_after_migration);
    assert!(remote
        .lookup_many(&keys, &request)
        .iter()
        .all(|o| o.is_hit()));
    assert_eq!(
        remote.migration_fills(),
        fills_after_migration,
        "a second pass must find every entry on its preferred replica"
    );

    // Leave: the ring shrinks back, epoch 3, and the survivors (every key
    // kept a replica on them) still serve everything.
    let epoch = remote.leave_node(&addrs[2]).unwrap();
    assert_eq!(epoch, 3);
    assert_eq!(remote.node_count(), 2);
    assert!(
        remote
            .lookup_many(&keys, &request)
            .iter()
            .all(|o| o.is_hit()),
        "the surviving replicas must serve every key after the leave"
    );
    assert_eq!(remote.degraded_ops(), 0, "no transport failures anywhere");
}

/// The typed stale-routing redirect over real TCP: after one client changes
/// the membership, a second client still routing (and stamping batches) on
/// the old ring epoch gets `WrongEpoch` redirects — counted, degraded to
/// misses, never silently misrouted — while unversioned single gets keep
/// working.
#[test]
fn stale_ring_clients_get_wrong_epoch_redirects() {
    let (_servers, addrs) = spawn_servers(3);
    let fresh = RemoteCluster::connect(&addrs[..2]).unwrap();
    let stale = RemoteCluster::connect(&addrs[..2]).unwrap();

    let keys: Vec<CacheKey> = (0..8)
        .map(|i| CacheKey::new("f", format!("[{i}]")))
        .collect();
    let request = LookupRequest::at(Timestamp(1));
    assert_eq!(stale.wrong_epoch_redirects(), 0);

    // The fresh client moves the membership to epoch 2 and announces it.
    fresh.join_node(&addrs[2]).unwrap();

    // The stale client's batches are stamped with epoch 1: refused with a
    // typed redirect, not served against the wrong ring.
    let outcomes = stale.lookup_many(&keys, &request);
    assert!(outcomes.iter().all(|o| !o.is_hit()));
    assert!(
        stale.wrong_epoch_redirects() > 0,
        "stale-stamped batches must draw WrongEpoch redirects"
    );
    assert_eq!(
        stale.reconnects(),
        0,
        "a redirect is not a node failure; connections must survive"
    );

    // Unversioned operations (single gets carry no epoch) still work on
    // the nodes the stale client knows about.
    stale.insert(
        keys[0].clone(),
        Bytes::from_static(b"v"),
        ValidityInterval::unbounded(Timestamp(1)),
        TagSet::new(),
        WallClock::ZERO,
    );
    await_insertions(&stale, 1);
    assert!(stale.lookup(&keys[0], &request).is_hit());
}

/// The full client-library stack over TCP: a TxCache bank whose cache tier
/// is remote, checked for snapshot consistency. With `TXCACHED_ADDRS` set
/// (comma-separated), runs against those servers — this is what
/// `ci.sh --net-smoke` drives against an externally started `txcached`;
/// otherwise loopback servers are spawned in-process.
#[test]
fn remote_backend_consistency_smoke() {
    let (servers, addrs) = match std::env::var("TXCACHED_ADDRS") {
        Ok(list) if !list.trim().is_empty() => (
            Vec::new(),
            list.split(',').map(|s| s.trim().to_string()).collect(),
        ),
        _ => spawn_servers(2),
    };
    let remote: Arc<dyn CacheBackend> = Arc::new(RemoteCluster::connect(&addrs).unwrap());

    let clock = SimClock::new();
    let db = Arc::new(Database::new(DbConfig::default(), clock.clone()));
    db.create_table(
        TableSchema::new("accounts")
            .column("id", ColumnType::Int)
            .column("balance", ColumnType::Int)
            .unique_index("id"),
    )
    .unwrap();
    db.bulk_load(
        "accounts",
        vec![
            vec![Value::Int(1), Value::Int(60)],
            vec![Value::Int(2), Value::Int(40)],
        ],
    )
    .unwrap();
    let pincushion = Arc::new(Pincushion::new(Default::default(), clock.clone()));
    let txcache = TxCache::with_backend(
        db,
        remote,
        pincushion,
        clock.clone(),
        TxCacheConfig::default(),
    );

    let balance = |tx: &mut txcache_repro::txcache::Transaction<'_>, account: i64| -> i64 {
        tx.cached("balance", &account, |tx| {
            let q = SelectQuery::table("accounts").filter(Predicate::eq("id", account));
            let r = tx.query(&q)?;
            Ok(r.get(0, "balance")?.as_int().unwrap_or(0))
        })
        .unwrap()
    };

    for round in 0..60 {
        // Transfer 5 back and forth.
        let amount = if round % 2 == 0 { 5i64 } else { -5i64 };
        let mut rw = txcache.begin_rw().unwrap();
        let q1 = SelectQuery::table("accounts").filter(Predicate::eq("id", 1i64));
        let a = rw
            .query(&q1)
            .unwrap()
            .get(0, "balance")
            .unwrap()
            .as_int()
            .unwrap();
        rw.update(
            "accounts",
            &Predicate::eq("id", 1i64),
            &[("balance".to_string(), Value::Int(a - amount))],
        )
        .unwrap();
        let q2 = SelectQuery::table("accounts").filter(Predicate::eq("id", 2i64));
        let b = rw
            .query(&q2)
            .unwrap()
            .get(0, "balance")
            .unwrap()
            .as_int()
            .unwrap();
        rw.update(
            "accounts",
            &Predicate::eq("id", 2i64),
            &[("balance".to_string(), Value::Int(b + amount))],
        )
        .unwrap();
        rw.commit().unwrap();
        clock.advance_micros(250_000);

        let mut ro = txcache.begin_ro(Staleness::seconds(30)).unwrap();
        let a = balance(&mut ro, 1);
        let b = balance(&mut ro, 2);
        ro.commit().unwrap();
        assert_eq!(a + b, 100, "round {round}: inconsistent snapshot over TCP");
    }
    let stats = txcache.stats();
    assert!(
        stats.cache_hits > 0,
        "the remote cache must serve hits: {stats:?}"
    );
    drop(servers);
}
