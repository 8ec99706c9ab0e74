//! Property-based tests of the paper's core invariants: the validity-interval
//! algebra, dual-granularity tag matching, the cache server's lookup
//! contract, the codec, and the §6.2.1 pin-set invariants.

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;

use txcache_repro::cache_server::{CacheNode, LookupOutcome, LookupRequest, NodeConfig};
use txcache_repro::rubis::{BidInfo, CommentInfo, ItemDetails, RenderedPage, UserInfo};
use txcache_repro::txcache::codec;
use txcache_repro::txcache::PinSet;
use txcache_repro::txtypes::{
    CacheKey, IntervalSet, InvalidationTag, TagSet, Timestamp, ValidityInterval,
};

#[path = "support/value_corpus.rs"]
mod value_corpus;

/// The golden value-codec corpus, built once per test binary.
fn value_corpus_cases() -> &'static [(String, Vec<u8>)] {
    static CASES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    CASES.get_or_init(value_corpus::cases)
}

/// Decodes `bytes` as each type a RUBiS cacheable function returns. The
/// results are discarded: only a panic would fail the caller.
fn decode_as_every_rubis_result(bytes: &[u8]) {
    let _ = codec::decode::<Option<UserInfo>>(bytes);
    let _ = codec::decode::<Option<i64>>(bytes);
    let _ = codec::decode::<Option<ItemDetails>>(bytes);
    let _ = codec::decode::<Vec<BidInfo>>(bytes);
    let _ = codec::decode::<Vec<CommentInfo>>(bytes);
    let _ = codec::decode::<Vec<(i64, String)>>(bytes);
    let _ = codec::decode::<Vec<i64>>(bytes);
    let _ = codec::decode::<RenderedPage>(bytes);
}

fn interval_strategy() -> impl Strategy<Value = ValidityInterval> {
    (0u64..200, proptest::option::of(1u64..100)).prop_map(|(lo, width)| match width {
        Some(w) => ValidityInterval::bounded(Timestamp(lo), Timestamp(lo + w)).unwrap(),
        None => ValidityInterval::unbounded(Timestamp(lo)),
    })
}

proptest! {
    #[test]
    fn interval_intersection_is_commutative_and_sound(
        a in interval_strategy(),
        b in interval_strategy(),
        ts in 0u64..400,
    ) {
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        let ts = Timestamp(ts);
        let in_both = a.contains(ts) && b.contains(ts);
        let in_intersection = ab.is_some_and(|iv| iv.contains(ts));
        prop_assert_eq!(in_both, in_intersection);
    }

    #[test]
    fn truncation_never_extends_an_interval(
        a in interval_strategy(),
        cut in 0u64..400,
        ts in 0u64..400,
    ) {
        let cut = Timestamp(cut);
        let ts = Timestamp(ts);
        match a.truncate_at(cut) {
            Some(t) => {
                prop_assert!(t.lower == a.lower);
                if t.contains(ts) {
                    prop_assert!(a.contains(ts));
                    prop_assert!(ts < cut);
                }
            }
            None => prop_assert!(cut <= a.lower),
        }
    }

    #[test]
    fn interval_set_gap_never_overlaps_members(
        members in proptest::collection::vec(interval_strategy(), 0..6),
        within in interval_strategy(),
        ts in 0u64..400,
    ) {
        let set: IntervalSet = members.iter().copied().collect();
        let ts = Timestamp(ts);
        if let Some(gap) = set.gap_around(within, ts) {
            prop_assert!(gap.contains(ts));
            prop_assert!(within.contains(ts));
            // The gap must not contain any timestamp covered by the set; probe
            // a few representative points.
            for probe in [gap.lower, ts, gap.upper.map(Timestamp::prev).unwrap_or(Timestamp(399))] {
                if gap.contains(probe) {
                    prop_assert!(!set.contains(probe));
                }
            }
        } else {
            prop_assert!(set.contains(ts) || !within.contains(ts));
        }
    }

    #[test]
    fn tag_matching_is_reflexive_and_wildcards_subsume(
        table in "[a-c]{1}",
        key in "[a-d]{1}",
        other_key in "[a-d]{1}",
    ) {
        let keyed = InvalidationTag::keyed(&table, format!("id={key}"));
        let other = InvalidationTag::keyed(&table, format!("id={other_key}"));
        let wild = InvalidationTag::wildcard(&table);
        prop_assert!(keyed.matches(&keyed));
        prop_assert!(wild.matches(&keyed));
        prop_assert!(keyed.matches(&wild));
        prop_assert_eq!(keyed.matches(&other), key == other_key);

        let mut set = TagSet::new();
        set.insert(keyed.clone());
        set.insert(wild.clone());
        prop_assert_eq!(set.len(), 1, "wildcard subsumes keyed tags: {}", set);
    }

    #[test]
    fn cache_lookup_only_returns_entries_overlapping_the_request(
        entries in proptest::collection::vec((interval_strategy(), 0u64..5), 1..12),
        lo in 0u64..300,
        width in 0u64..50,
    ) {
        let node = CacheNode::new("prop", NodeConfig { capacity_bytes: 1 << 20, ..NodeConfig::default() });
        // Make "now" known so unbounded entries are usable.
        node.apply_invalidation(Timestamp(1_000), &TagSet::new());
        for (iv, k) in &entries {
            node.insert(
                CacheKey::new("f", format!("[{k}]")),
                Bytes::from_static(b"v"),
                *iv,
                TagSet::new(),
                txcache_repro::txtypes::WallClock::ZERO,
            );
        }
        let request = LookupRequest::range(Timestamp(lo), Timestamp(lo + width));
        for k in 0u64..5 {
            if let LookupOutcome::Hit { validity, .. } =
                node.lookup(&CacheKey::new("f", format!("[{k}]")), &request)
            {
                prop_assert!(validity.intersects_range(Timestamp(lo), Timestamp(lo + width)));
            }
        }
    }

    #[test]
    fn codec_roundtrips_arbitrary_structures(
        ints in proptest::collection::vec(any::<i64>(), 0..8),
        text in ".{0,40}",
        flag in any::<bool>(),
        opt in proptest::option::of(any::<u32>()),
    ) {
        txcache_repro::txcache::codec_struct! {
            #[derive(PartialEq, Debug)]
            struct Blob {
                ints: Vec<i64>,
                text: String,
                flag: bool,
                opt: Option<u32>,
            }
        }
        let blob = Blob { ints, text, flag, opt };
        let encoded = codec::encode(&blob);
        let decoded: Blob = codec::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, blob);
    }

    #[test]
    fn corrupt_cached_bytes_never_panic_the_decoder(
        random in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        // Cached values come back from a remote node: whatever bytes arrive,
        // decoding them as any RUBiS result type is a value or an error.
        decode_as_every_rubis_result(&random);
        for (i, (_, value)) in value_corpus_cases().iter().enumerate() {
            let mix = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 8;
            let cut = (mix % (value.len() as u64 + 1)) as usize;
            decode_as_every_rubis_result(&value[..cut]);
            if !value.is_empty() {
                let bit = (mix.rotate_left(29) % (value.len() as u64 * 8)) as usize;
                let mut flipped = value.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decode_as_every_rubis_result(&flipped);
            }
        }
    }

    #[test]
    fn pin_set_narrowing_preserves_invariant_one(
        candidates in proptest::collection::btree_set(0u64..100, 1..10),
        observations in proptest::collection::vec(interval_strategy(), 0..6),
    ) {
        // Invariant 1: after narrowing, every remaining candidate lies inside
        // every observed validity interval.
        let mut pin_set = PinSet::new(candidates.iter().map(|t| Timestamp(*t)), true);
        let mut observed: Vec<ValidityInterval> = Vec::new();
        for iv in observations {
            if pin_set.narrow(&iv) {
                observed.push(iv);
                for ts in pin_set.candidates() {
                    for seen in &observed {
                        prop_assert!(seen.contains(ts));
                    }
                }
            } else {
                // The transaction-level recovery path (re-pinning inside the
                // interval) is exercised in the integration tests; at the data
                // structure level an empty result simply stops the run.
                break;
            }
        }
    }
}

proptest! {
    /// §5.2 invariant: truncation only ever *shrinks* an interval — the
    /// result is a subset of the original (same lower bound, upper bound
    /// never later), probed across the whole timestamp range.
    #[test]
    fn truncation_never_widens_an_interval(
        a in interval_strategy(),
        cut in 0u64..400,
        probes in proptest::collection::vec(0u64..500, 1..8),
    ) {
        if let Some(t) = a.truncate_at(Timestamp(cut)) {
            prop_assert_eq!(t.lower, a.lower);
            match (t.upper, a.upper) {
                (None, Some(_)) => prop_assert!(false, "truncation unbounded a bounded interval"),
                (Some(tu), Some(au)) => prop_assert!(tu <= au),
                _ => {}
            }
            for p in probes {
                let p = Timestamp(p);
                if t.contains(p) {
                    prop_assert!(a.contains(p), "truncated interval gained {p}");
                }
            }
        }
    }

    /// mvdb validity invariant: the versions of one row carve time into
    /// disjoint intervals — at any pinned snapshot exactly one version is
    /// visible, it holds the ground-truth value as of that snapshot, and
    /// its reported validity interval contains the snapshot. Two snapshots
    /// separated by an update never report overlapping validity intervals.
    #[test]
    fn mvdb_row_versions_never_overlap_in_a_snapshot(
        updates in proptest::collection::vec(0i64..1000, 1..10),
    ) {
        use txcache_repro::mvdb::{
            ColumnType, Database, DbConfig, Predicate, SelectQuery, SnapshotId, TableSchema,
            Value,
        };
        use txcache_repro::txtypes::SimClock;

        let db = Database::new(DbConfig::default(), SimClock::new());
        db.create_table(
            TableSchema::new("items")
                .column("id", ColumnType::Int)
                .column("price", ColumnType::Int)
                .unique_index("id"),
        )
        .unwrap();
        db.bulk_load("items", vec![vec![Value::Int(1), Value::Int(-1)]])
            .unwrap();

        // Apply the updates, pinning a snapshot after each commit and
        // remembering the value it should observe.
        let mut pinned = vec![(db.pin_latest().0, -1i64)];
        for price in &updates {
            let txn = db.begin_rw().unwrap();
            db.update(
                txn,
                "items",
                &Predicate::eq("id", 1i64),
                &[("price".to_string(), Value::Int(*price))],
            )
            .unwrap();
            db.commit(txn).unwrap();
            pinned.push((db.pin_latest().0, *price));
        }

        // Query the row at every pinned snapshot.
        let query = SelectQuery::table("items").filter(Predicate::eq("id", 1i64));
        let mut observed: Vec<(i64, txcache_repro::txtypes::ValidityInterval)> = Vec::new();
        for (snap, expected) in &pinned {
            let token = db.begin_ro(Some(SnapshotId(snap.timestamp()))).unwrap();
            let result = db.query(token, &query).unwrap();
            db.commit(token).unwrap();
            prop_assert_eq!(result.len(), 1, "exactly one version visible per snapshot");
            let value = result.get(0, "price").unwrap().as_int().unwrap();
            prop_assert_eq!(value, *expected, "snapshot {} must see its own update", snap.timestamp());
            prop_assert!(
                result.validity.contains(snap.timestamp()),
                "validity {:?} must contain the snapshot {}",
                result.validity,
                snap.timestamp()
            );
            observed.push((value, result.validity));
        }

        // Results carrying different values live in disjoint intervals:
        // overlapping versions of the row never coexist in any snapshot.
        for (i, (va, ia)) in observed.iter().enumerate() {
            for (vb, ib) in observed.iter().skip(i + 1) {
                if va != vb {
                    prop_assert!(
                        ia.intersect(ib).is_none(),
                        "versions {va} ({ia:?}) and {vb} ({ib:?}) overlap"
                    );
                }
            }
        }
    }

    /// Planner equivalence invariant: every index-assisted plan (top-N
    /// pushdown, MIN/MAX endpoint probe, COUNT shortcut, IN-list and range
    /// probes, SUM/AVG folds, joins with an index-assisted outer side)
    /// returns the same rows as the forced sequential-scan reference plan at
    /// every pinned snapshot of a randomly mutated table — and, under the
    /// default predicate-before-visibility gate order, the bit-identical
    /// validity interval. Under the visibility-first ablation order the scan
    /// masks every dead version in the table while an index path only meets
    /// the ones in its key range, so there the index plan's validity must
    /// contain the scan's.
    #[test]
    fn index_assisted_plans_match_seq_scan_rows_and_validity(
        seed_rows in proptest::collection::vec((0i64..6, 0i64..6), 1..10),
        ops in proptest::collection::vec((0u8..4, 0i64..6, 0i64..6), 0..10),
        pivot in 0i64..6,
        limit in 1usize..5,
    ) {
        use txcache_repro::mvdb::{
            AccessPath, Aggregate, CmpOp, ColumnType, Database, DbConfig, ExecOptions, Predicate,
            SelectQuery, SnapshotId, SortOrder, TableSchema, Value,
        };
        use txcache_repro::txtypes::SimClock;

        for predicate_before_visibility in [true, false] {
            let config = DbConfig {
                exec: ExecOptions { predicate_before_visibility, ..ExecOptions::default() },
                ..DbConfig::default()
            };
            let db = Database::new(config, SimClock::new());
            db.create_table(
                TableSchema::new("t")
                    .column("id", ColumnType::Int)
                    .column("a", ColumnType::Int)
                    .column("c", ColumnType::Int)
                    .unique_index("id")
                    .index("a"),
            )
            .unwrap();
            // The joined table: `u.id` takes the values of `t.a`.
            db.create_table(
                TableSchema::new("u")
                    .column("id", ColumnType::Int)
                    .column("g", ColumnType::Int)
                    .unique_index("id"),
            )
            .unwrap();

            // Seed, then apply random committed inserts/updates/deletes, pinning
            // a snapshot after every commit so old versions stay reachable and
            // the index keeps entries for superseded/deleted versions.
            let mut next_id = 0i64;
            let rows: Vec<Vec<Value>> = seed_rows
                .iter()
                .map(|(a, c)| {
                    next_id += 1;
                    vec![Value::Int(next_id), Value::Int(*a), Value::Int(*c)]
                })
                .collect();
            db.bulk_load("t", rows).unwrap();
            db.bulk_load("u", (0..5i64).map(|i| vec![Value::Int(i), Value::Int(i % 2)]).collect())
                .unwrap();
            let mut pins = vec![db.pin_latest().0];
            for (kind, a, c) in &ops {
                let txn = db.begin_rw().unwrap();
                match kind % 4 {
                    0 => {
                        next_id += 1;
                        db.insert(
                            txn,
                            "t",
                            vec![Value::Int(next_id), Value::Int(*a), Value::Int(*c)],
                        )
                        .unwrap();
                    }
                    1 => {
                        let target = (*a % next_id.max(1)) + 1;
                        db.update(
                            txn,
                            "t",
                            &Predicate::eq("id", target),
                            &[("a".to_string(), Value::Int(*c)), ("c".to_string(), Value::Int(*a))],
                        )
                        .unwrap();
                    }
                    2 => {
                        let target = (*c % next_id.max(1)) + 1;
                        db.delete(txn, "t", &Predicate::eq("id", target)).unwrap();
                    }
                    _ => {
                        db.update(
                            txn,
                            "u",
                            &Predicate::eq("id", *a),
                            &[("g".to_string(), Value::Int(*c))],
                        )
                        .unwrap();
                    }
                }
                db.commit(txn).unwrap();
                pins.push(db.pin_latest().0);
            }

            let residual = Predicate::cmp("c", CmpOp::Ge, pivot);
            let a_range = Predicate::cmp("a", CmpOp::Ge, pivot);
            let queries = vec![
                // Top-N pushdown: ordered walks with and without residuals/bounds.
                SelectQuery::table("t").order_by("a", SortOrder::Asc).limit(limit),
                SelectQuery::table("t").order_by("a", SortOrder::Desc).limit(limit),
                SelectQuery::table("t")
                    .filter(residual.clone())
                    .order_by("a", SortOrder::Desc)
                    .limit(limit),
                SelectQuery::table("t")
                    .filter(a_range.clone())
                    .order_by("a", SortOrder::Asc)
                    .limit(limit),
                SelectQuery::table("t").order_by("a", SortOrder::Asc),
                SelectQuery::table("t")
                    .filter(Predicate::eq("a", pivot))
                    .order_by("id", SortOrder::Asc)
                    .limit(limit),
                // MIN/MAX endpoint probes, bare and range-bounded.
                SelectQuery::table("t").aggregate(Aggregate::Min("a".into())),
                SelectQuery::table("t")
                    .filter(residual.clone())
                    .aggregate(Aggregate::Max("a".into())),
                SelectQuery::table("t")
                    .filter(Predicate::cmp("a", CmpOp::Le, pivot))
                    .aggregate(Aggregate::Max("a".into())),
                // COUNT shortcut, bare and keyed.
                SelectQuery::table("t").aggregate(Aggregate::Count),
                SelectQuery::table("t")
                    .filter(Predicate::eq("a", pivot))
                    .aggregate(Aggregate::Count),
                // IN-list probes.
                SelectQuery::table("t")
                    .filter(Predicate::in_list("a", [pivot, pivot + 2]))
                    .order_by("id", SortOrder::Asc),
                SelectQuery::table("t").filter(Predicate::in_list("a", [pivot, pivot + 2])),
                // Bare range probe (rows come back in key order, not heap order).
                SelectQuery::table("t").filter(a_range.clone().and(residual.clone())),
                // Projected top-N.
                SelectQuery::table("t")
                    .select(vec!["c", "id"])
                    .order_by("a", SortOrder::Desc)
                    .limit(limit),
                // SUM/AVG folds over a range.
                SelectQuery::table("t")
                    .filter(a_range.clone())
                    .aggregate(Aggregate::Sum("c".into())),
                SelectQuery::table("t")
                    .filter(Predicate::cmp("a", CmpOp::Le, pivot))
                    .aggregate(Aggregate::Avg("c".into())),
                // Joins whose outer side is index-assisted (keyed and range).
                SelectQuery::table("t")
                    .filter(Predicate::eq("a", pivot))
                    .join("u", "a", "id")
                    .join_filter(Predicate::cmp("g", CmpOp::Le, pivot)),
                SelectQuery::table("t")
                    .filter(a_range.clone())
                    .join("u", "a", "id")
                    .aggregate(Aggregate::Count),
                SelectQuery::table("t").filter(a_range).join("u", "a", "id"),
            ];

            // The unconditional shapes must actually take the fast paths —
            // otherwise the equivalence below would be vacuous.
            prop_assert!(matches!(
                db.plan_for(&queries[0]).unwrap().access,
                AccessPath::IndexOrdered { .. }
            ));
            prop_assert!(matches!(
                db.plan_for(&queries[6]).unwrap().access,
                AccessPath::IndexEndpoint { max: false, .. }
            ));
            prop_assert!(matches!(
                db.plan_for(&queries[11]).unwrap().access,
                AccessPath::IndexIn { .. }
            ));
            for i in [13, 15, 19] {
                prop_assert!(matches!(
                    db.plan_for(&queries[i]).unwrap().access,
                    AccessPath::IndexRange { .. }
                ));
            }

            for snap in &pins {
                for q in &queries {
                    let plan = db.plan_for(q).unwrap();
                    let token = db.begin_ro(Some(SnapshotId(snap.timestamp()))).unwrap();
                    let mut natural = db.query(token, q).unwrap();
                    let mut forced = db.query(token, &q.clone().force_seq_scan()).unwrap();
                    db.commit(token).unwrap();
                    // A range probe without ORDER BY returns rows in key order,
                    // the scan in heap order: same rows, unspecified order.
                    if matches!(plan.access, AccessPath::IndexRange { .. }) && q.order_by.is_none() {
                        natural.rows.sort();
                        forced.rows.sort();
                    }
                    prop_assert_eq!(
                        &natural.rows,
                        &forced.rows,
                        "rows diverge at ts {} for plan {:?} ({:?})",
                        snap.timestamp(),
                        plan.access,
                        q
                    );
                    if predicate_before_visibility {
                        prop_assert_eq!(
                            natural.validity,
                            forced.validity,
                            "validity diverges at ts {} for plan {:?} ({:?})",
                            snap.timestamp(),
                            plan.access,
                            q
                        );
                    } else {
                        prop_assert_eq!(
                            natural.validity.intersect(&forced.validity),
                            Some(forced.validity),
                            "index plan's validity {:?} must contain the scan's at ts {} for plan {:?} ({:?})",
                            natural.validity,
                            snap.timestamp(),
                            plan.access,
                            q
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pin_set_invariant_two_holds_under_real_cache_guarantee() {
    // The cache only returns entries whose validity intersects the pin-set
    // bounds; verify the §6.2.1 argument on a concrete adversarial case where
    // the interval covers the bounds partially.
    let mut pin_set = PinSet::new([Timestamp(10), Timestamp(50)], false);
    let returned = ValidityInterval::bounded(Timestamp(40), Timestamp(60)).unwrap();
    assert!(returned.intersects_range(Timestamp(10), Timestamp(50)));
    assert!(
        pin_set.narrow(&returned),
        "an endpoint of the bounds lies in the interval"
    );
    assert_eq!(pin_set.candidates(), vec![Timestamp(50)]);
}

proptest! {
    /// Pin ownership: every database pin the library takes is handed to the
    /// pincushion or released on the spot, and the pincushion gives back
    /// exactly what it holds. Random interleavings of two overlapping
    /// read-only transactions (lazy or eager timestamps), cached reads that
    /// pin a snapshot, planted entries whose bounded validity falls between
    /// pin-set candidates (the `observe` re-pin), writes, commits, aborts,
    /// clock jumps and maintenance must leave no pin behind once everything
    /// has expired and been reaped.
    #[test]
    fn database_pins_balance_under_random_transaction_interleavings(
        ops in proptest::collection::vec((0u8..16, 0usize..4, 0u64..40), 8..80),
        eager in any::<bool>(),
    ) {
        use std::sync::Arc;
        use txcache_repro::cache_server::CacheCluster;
        use txcache_repro::mvdb::{
            ColumnType, Database, DbConfig, Predicate, SelectQuery, TableSchema, Value,
        };
        use txcache_repro::pincushion::{Pincushion, PincushionConfig};
        use txcache_repro::txcache::{TimestampPolicy, Transaction, TxCache, TxCacheConfig};
        use txcache_repro::txtypes::{Error, SimClock, Staleness, WallClock};

        let clock = SimClock::new();
        let db = Arc::new(Database::new(DbConfig::default(), clock.clone()));
        db.create_table(
            TableSchema::new("accounts")
                .column("id", ColumnType::Int)
                .column("balance", ColumnType::Int)
                .unique_index("id"),
        )
        .unwrap();
        let rows = (0..4).map(|id| vec![Value::Int(id), Value::Int(100)]).collect();
        db.bulk_load("accounts", rows).unwrap();
        let txcache = TxCache::new(
            Arc::clone(&db),
            Arc::new(CacheCluster::new(2, 1 << 20)),
            Arc::new(Pincushion::new(PincushionConfig::default(), clock.clone())),
            clock.clone(),
            TxCacheConfig {
                policy: if eager { TimestampPolicy::Eager } else { TimestampPolicy::Lazy },
                ..TxCacheConfig::default()
            },
        );
        let balance = |tx: &mut Transaction<'_>, account: i64| {
            tx.cached("balance", &account, |tx| {
                let q = SelectQuery::table("accounts").filter(Predicate::eq("id", account));
                Ok(tx.query(&q)?.get(0, "balance")?.as_int().unwrap_or(0))
            })
        };
        // Only ever served from entries the `plant` step put in the cache: a
        // miss fails the call and writes nothing back.
        let planted = |tx: &mut Transaction<'_>| {
            tx.cached("planted", &0i64, |_| {
                Err::<i64, _>(Error::InvalidState("nothing planted".into()))
            })
        };
        let staleness = [
            Staleness::Fresh,
            Staleness::seconds(30),
            Staleness::seconds(120),
            Staleness::seconds(120),
        ];

        let mut commits = vec![db.latest_timestamp()];
        let mut open: [Option<Transaction<'_>>; 2] = [None, None];
        for (op, account, n) in ops {
            let slot = &mut open[account % 2];
            let id = account as i64;
            match op {
                // Reads open their slot's transaction on demand.
                0..=4 => {
                    let tx = slot.get_or_insert_with(|| {
                        txcache.begin_ro(staleness[n as usize % 4]).unwrap()
                    });
                    if op < 2 {
                        balance(tx, id).unwrap();
                    } else {
                        drop(planted(tx));
                    }
                }
                5 | 6 => drop(slot.take().map(Transaction::commit)),
                7 => drop(slot.take().map(Transaction::abort)),
                8 | 9 => {
                    let mut rw = txcache.begin_rw().unwrap();
                    let set = [("balance".to_string(), Value::Int(n as i64))];
                    rw.update("accounts", &Predicate::eq("id", id), &set)
                        .unwrap();
                    commits.push(rw.commit().unwrap().timestamp);
                    // Past the pin-reuse threshold, so the next query pins
                    // this state instead of reusing an older snapshot.
                    clock.advance_secs(6);
                }
                10 | 11 => drop(clock.advance_secs(n)),
                12 => txcache.maintenance(),
                // Plant an entry valid strictly between the oldest and the
                // newest tracked snapshot: a transaction that starts with
                // both as candidates and none in between must re-pin.
                _ => {
                    let pins = txcache.pincushion();
                    let (Some(oldest), Some(newest)) = (pins.oldest(), pins.newest()) else {
                        continue;
                    };
                    let lower = commits.iter().find(|ts| **ts > oldest.timestamp);
                    let validity =
                        lower.and_then(|lo| ValidityInterval::bounded(*lo, newest.timestamp));
                    if let Some(validity) = validity {
                        let key = CacheKey::new("planted", codec::encode_hex(&0i64));
                        let value = codec::encode(&7i64);
                        txcache.cache().insert(
                            key,
                            value,
                            validity,
                            TagSet::new(),
                            WallClock::ZERO,
                        );
                    }
                }
            }
        }
        for tx in open.iter_mut().filter_map(Option::take) {
            tx.commit().unwrap();
        }
        clock.advance_micros(PincushionConfig::default().reap_after_micros + 1);
        txcache.maintenance();
        prop_assert_eq!(db.pinned_snapshots(), Vec::new());
        prop_assert_eq!(db.stats().pins, db.stats().unpins);
    }
}
