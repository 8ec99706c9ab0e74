//! End-to-end transactional-consistency tests (the paper's core guarantee):
//! everything a read-only transaction observes — whether it comes from the
//! cache or from the database — reflects a single snapshot.
//!
//! Every scenario runs twice: once with the in-process cache cluster and
//! once against real `txcached` TCP servers on loopback, through the same
//! `CacheBackend` abstraction the application sees. The scenarios and
//! assertions are identical — the wire protocol must not change semantics.

use std::sync::Arc;

use txcache_repro::cache_server::{CacheCluster, NodeConfig, TxcachedServer};
use txcache_repro::mvdb::{
    ColumnType, Database, DbConfig, Predicate, SelectQuery, TableSchema, Value,
};
use txcache_repro::pincushion::Pincushion;
use txcache_repro::txcache::backend::{CacheBackend, RemoteCluster};
use txcache_repro::txcache::{BackendKind, CacheMode, Transaction, TxCache, TxCacheConfig};
use txcache_repro::txtypes::{Result, SimClock, Staleness};

const TOTAL: i64 = 100;

struct Bank {
    txcache: Arc<TxCache>,
    clock: SimClock,
    /// Loopback `txcached` servers backing a remote deployment; kept alive
    /// for the duration of the test, shut down on drop.
    _servers: Vec<TxcachedServer>,
}

/// Builds the cache tier for the requested deployment kind.
fn build_backend(kind: BackendKind) -> (Arc<dyn CacheBackend>, Vec<TxcachedServer>) {
    match kind {
        BackendKind::InProcess => (Arc::new(CacheCluster::new(2, 4 << 20)), Vec::new()),
        BackendKind::Remote => {
            let servers: Vec<TxcachedServer> = (0..2)
                .map(|i| {
                    TxcachedServer::bind(
                        "127.0.0.1:0",
                        format!("txcached-{i}"),
                        NodeConfig {
                            capacity_bytes: 2 << 20,
                            ..NodeConfig::default()
                        },
                    )
                    .expect("bind loopback txcached")
                })
                .collect();
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let remote = RemoteCluster::connect(&addrs).expect("connect to loopback txcached");
            (Arc::new(remote), servers)
        }
    }
}

/// Builds a two-account "bank" whose invariant is balance(1) + balance(2) == 100.
fn bank(mode: CacheMode, kind: BackendKind) -> Bank {
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
            vec![Value::Int(2), Value::Int(TOTAL - 60)],
        ],
    )
    .unwrap();
    let (cache, servers) = build_backend(kind);
    let pincushion = Arc::new(Pincushion::new(Default::default(), clock.clone()));
    let txcache = Arc::new(TxCache::with_backend(
        db,
        cache,
        pincushion,
        clock.clone(),
        TxCacheConfig {
            mode,
            ..TxCacheConfig::default()
        },
    ));
    assert_eq!(txcache.config().backend, kind);
    Bank {
        txcache,
        clock,
        _servers: servers,
    }
}

impl Bank {
    /// Cached balance lookup for one account.
    fn balance(&self, tx: &mut Transaction<'_>, account: i64) -> Result<i64> {
        self.txcache_balance(tx, account)
    }

    fn txcache_balance(&self, tx: &mut Transaction<'_>, account: i64) -> Result<i64> {
        tx.cached("balance", &account, |tx| {
            let q = SelectQuery::table("accounts").filter(Predicate::eq("id", account));
            let r = tx.query(&q)?;
            Ok(r.get(0, "balance")?.as_int().unwrap_or(0))
        })
    }

    /// Transfers `amount` from account 1 to account 2 in a read/write
    /// transaction, retrying on write conflicts.
    fn transfer(&self, amount: i64) {
        loop {
            let mut tx = self.txcache.begin_rw().unwrap();
            let result = (|| -> Result<()> {
                let q1 = SelectQuery::table("accounts").filter(Predicate::eq("id", 1i64));
                let a = tx.query(&q1)?.get(0, "balance")?.as_int().unwrap_or(0);
                tx.update(
                    "accounts",
                    &Predicate::eq("id", 1i64),
                    &[("balance".to_string(), Value::Int(a - amount))],
                )?;
                let q2 = SelectQuery::table("accounts").filter(Predicate::eq("id", 2i64));
                let b = tx.query(&q2)?.get(0, "balance")?.as_int().unwrap_or(0);
                tx.update(
                    "accounts",
                    &Predicate::eq("id", 2i64),
                    &[("balance".to_string(), Value::Int(b + amount))],
                )?;
                Ok(())
            })();
            match result {
                Ok(()) => {
                    tx.commit().unwrap();
                    return;
                }
                Err(e) if e.is_retryable() => {
                    let _ = tx.abort();
                }
                Err(e) => panic!("transfer failed: {e}"),
            }
        }
    }
}

/// The invariant check: read both balances (through the cache) in one
/// read-only transaction and verify they sum to the constant total.
fn check_invariant(bank: &Bank, staleness: Staleness) -> (i64, i64) {
    let mut tx = bank.txcache.begin_ro(staleness).unwrap();
    let a = bank.balance(&mut tx, 1).unwrap();
    let b = bank.balance(&mut tx, 2).unwrap();
    tx.commit().unwrap();
    (a, b)
}

// ----------------------------------------------------------------------
// Scenario bodies, shared verbatim by both deployments.
// ----------------------------------------------------------------------

fn scenario_mixed_reads_see_a_single_snapshot(kind: BackendKind) {
    let bank = bank(CacheMode::Full, kind);
    // Interleave many transfers with reads at a generous staleness limit, so
    // reads frequently hit cached values produced at different times.
    for round in 0..200 {
        bank.transfer(if round % 2 == 0 { 5 } else { -5 });
        bank.clock.advance_micros(200_000);
        let (a, b) = check_invariant(&bank, Staleness::seconds(30));
        assert_eq!(
            a + b,
            TOTAL,
            "round {round}: transactional consistency violated: {a} + {b} != {TOTAL}"
        );
    }
    // The cache was actually exercised.
    let stats = bank.txcache.stats();
    assert!(stats.cache_hits > 0, "expected cache hits, got {stats:?}");
}

fn scenario_fresh_transactions_observe_latest_state(kind: BackendKind) {
    let bank = bank(CacheMode::Full, kind);
    bank.transfer(10);
    bank.clock.advance_secs(60);
    let (a, b) = check_invariant(&bank, Staleness::seconds(1));
    assert_eq!((a, b), (50, 50));
}

fn scenario_commit_timestamps_provide_causality(kind: BackendKind) {
    let bank = bank(CacheMode::Full, kind);

    // Warm the cache with the current balances.
    check_invariant(&bank, Staleness::seconds(30));

    // The user performs an update...
    bank.transfer(10);

    // ...and their next read must reflect it. Using the commit timestamp as a
    // freshness requirement (here: a tight staleness bound after advancing
    // the clock) guarantees the user does not see time move backwards.
    bank.clock.advance_secs(31);
    let (a, _) = check_invariant(&bank, Staleness::seconds(1));
    assert_eq!(a, 50, "user must observe their own committed transfer");

    // Other users with a loose staleness bound may still see the old,
    // consistent snapshot — that is allowed and expected.
    let (a2, b2) = check_invariant(&bank, Staleness::seconds(120));
    assert_eq!(a2 + b2, TOTAL);
}

fn scenario_disabled_mode_matches_database_exactly(kind: BackendKind) {
    let cached = bank(CacheMode::Full, kind);
    let direct = bank(CacheMode::Disabled, kind);
    for round in 0..20 {
        let amount = if round % 3 == 0 { 7 } else { -3 };
        cached.transfer(amount);
        direct.transfer(amount);
        cached.clock.advance_secs(40);
        direct.clock.advance_secs(40);
        let a = check_invariant(&cached, Staleness::seconds(1));
        let b = check_invariant(&direct, Staleness::seconds(1));
        assert_eq!(
            a, b,
            "cached and uncached deployments must agree on fresh reads"
        );
    }
}

/// `cached_many(name, args, f)` is N × `cached` paying one cache round trip:
/// two identical banks, one reading both balances as a batch and one call by
/// call, must agree on every result, commit report, pin set, library counter
/// and on what the cache nodes end up holding — through an all-miss round,
/// a partial hit, an invalidation and an all-hit round.
fn scenario_cached_many_equals_repeated_cached(kind: BackendKind) {
    let batched = bank(CacheMode::Full, kind);
    let serial = bank(CacheMode::Full, kind);
    let balance_of = |tx: &mut Transaction<'_>, account: i64| -> Result<i64> {
        let q = SelectQuery::table("accounts").filter(Predicate::eq("id", account));
        Ok(tx.query(&q)?.get(0, "balance")?.as_int().unwrap_or(0))
    };
    let read = |bank: &Bank, accounts: &[i64], batch: bool| {
        let mut tx = bank.txcache.begin_ro(Staleness::seconds(30)).unwrap();
        let balances: Vec<i64> = if batch {
            tx.cached_many("balance", accounts, |tx, i| balance_of(tx, accounts[i]))
                .unwrap()
        } else {
            accounts
                .iter()
                .map(|&a| tx.cached("balance", &a, |tx| balance_of(tx, a)).unwrap())
                .collect()
        };
        (balances, tx.pin_set_candidates(), tx.commit().unwrap())
    };
    let steps: [(&[i64], i64); 5] = [
        (&[2], 0),     // warm one of the two keys
        (&[1, 2], 5),  // a partial hit, then a transfer invalidates both
        (&[1, 2], 0),  // all misses
        (&[1, 2], -3), // all hits
        (&[2, 1], 0),  // stale hits or misses, in the other order
    ];
    for (step, (accounts, transfer)) in steps.into_iter().enumerate() {
        assert_eq!(
            read(&batched, accounts, true),
            read(&serial, accounts, false),
            "step {step}"
        );
        for bank in [&batched, &serial] {
            if transfer != 0 {
                bank.transfer(transfer);
            }
            bank.clock.advance_micros(200_000);
        }
    }
    assert_eq!(batched.txcache.stats(), serial.txcache.stats());
    assert!(batched.txcache.stats().cache_hits >= 3);
    assert_eq!(
        batched.txcache.cache().stats(),
        serial.txcache.cache().stats()
    );
}

// ----------------------------------------------------------------------
// In-process deployment.
// ----------------------------------------------------------------------

#[test]
fn cached_many_equals_repeated_cached() {
    scenario_cached_many_equals_repeated_cached(BackendKind::InProcess);
}

#[test]
fn reads_mixing_cache_and_database_see_a_single_snapshot() {
    scenario_mixed_reads_see_a_single_snapshot(BackendKind::InProcess);
}

#[test]
fn fresh_transactions_observe_the_latest_committed_state() {
    scenario_fresh_transactions_observe_latest_state(BackendKind::InProcess);
}

#[test]
fn commit_timestamps_provide_causality() {
    scenario_commit_timestamps_provide_causality(BackendKind::InProcess);
}

#[test]
fn disabled_mode_matches_database_results_exactly() {
    scenario_disabled_mode_matches_database_exactly(BackendKind::InProcess);
}

#[test]
fn read_only_transactions_reject_writes() {
    let bank = bank(CacheMode::Full, BackendKind::InProcess);
    let mut tx = bank.txcache.begin_ro(Staleness::seconds(30)).unwrap();
    let err = tx
        .update(
            "accounts",
            &Predicate::eq("id", 1i64),
            &[("balance".to_string(), Value::Int(0))],
        )
        .unwrap_err();
    assert!(err.to_string().contains("read-only"));
    tx.abort().unwrap();
}

// ----------------------------------------------------------------------
// Remote deployment: the same scenarios over loopback txcached servers.
// ----------------------------------------------------------------------

#[test]
fn remote_reads_mixing_cache_and_database_see_a_single_snapshot() {
    scenario_mixed_reads_see_a_single_snapshot(BackendKind::Remote);
}

#[test]
fn remote_fresh_transactions_observe_the_latest_committed_state() {
    scenario_fresh_transactions_observe_latest_state(BackendKind::Remote);
}

#[test]
fn remote_commit_timestamps_provide_causality() {
    scenario_commit_timestamps_provide_causality(BackendKind::Remote);
}

#[test]
fn remote_disabled_mode_matches_database_results_exactly() {
    scenario_disabled_mode_matches_database_exactly(BackendKind::Remote);
}

#[test]
fn remote_cached_many_equals_repeated_cached() {
    scenario_cached_many_equals_repeated_cached(BackendKind::Remote);
}
