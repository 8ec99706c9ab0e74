//! Frozen-observables digest for the scan pipeline.
//!
//! A fixed mutation history (inserts, updates, deletes, a pin after every
//! commit, and one read/write transaction left open with pending rows) is
//! queried with a matrix covering every `AccessPath`, every result shape,
//! both join kinds, both `predicate_before_visibility` values and
//! `track_validity` on/off. Columns, rows (in order), validity interval,
//! sorted tags and per-query `PageCounts` of every result are folded into one
//! FNV-1a digest.
//!
//! `FROZEN_DIGEST` was computed by running this test at commit d750f0b — the
//! last commit with the five separate executor loops — so any refactor of
//! `exec.rs` must reproduce every observable bit for bit. The history's DML
//! predicates are deliberately keyed or unindexed only: range-targeted DML
//! changed its index-page charging (it used to charge none), which would
//! shift the buffer pool's hit/miss sequence.

use mvdb::{
    Aggregate, CmpOp, ColumnType, Database, DbConfig, ExecOptions, Predicate, QueryResult,
    SelectQuery, SnapshotId, SortOrder, TableSchema, TxnToken, Value,
};
use txtypes::SimClock;
use wire::sim::{fnv1a, FNV_OFFSET};

const FROZEN_DIGEST: u64 = 0x3dcd_1b0e_e40c_7b2c;

/// Tiny deterministic generator (no dependency on the vendored `rand`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % bound as u64) as i64
    }
}

fn item(id: i64, seller: i64, cat: Option<i64>, price: f64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(seller),
        cat.map_or(Value::Null, Value::Int),
        Value::Float(price),
    ]
}

fn set(column: &str, value: Value) -> Vec<(String, Value)> {
    vec![(column.to_string(), value)]
}

/// Builds the database and replays the fixed history. Returns the pins taken
/// after every commit and the still-open read/write transaction.
fn build(exec: ExecOptions) -> (Database, Vec<SnapshotId>, TxnToken) {
    let db = Database::new(
        DbConfig {
            buffer_pages: 6,
            rows_per_page: 4,
            exec,
            ..DbConfig::default()
        },
        SimClock::new(),
    );
    // `seller` is indexed and NULL-free (ORDER BY pushdown applies); `cat` is
    // indexed but holds NULLs (pushdown is gated off, endpoint probes are
    // not); `price` is unindexed.
    db.create_table(
        TableSchema::new("items")
            .column("id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .column("cat", ColumnType::Int)
            .column("price", ColumnType::Float)
            .unique_index("id")
            .index("seller")
            .index("cat"),
    )
    .unwrap();
    // `users.id` is indexed (index-nested-loop joins); `users.region` is not
    // (nested-loop scan joins).
    db.create_table(
        TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("region", ColumnType::Int)
            .column("name", ColumnType::Text)
            .unique_index("id"),
    )
    .unwrap();

    let mut rng = Lcg(0x5EED);
    let mut next_id = 0i64;
    let mut fresh_item = |rng: &mut Lcg| {
        next_id += 1;
        let cat = match rng.next(5) {
            0 => None,
            c => Some(c),
        };
        item(next_id, rng.next(6), cat, 5.0 * rng.next(20) as f64)
    };
    let rows: Vec<Vec<Value>> = (0..24).map(|_| fresh_item(&mut rng)).collect();
    db.bulk_load("items", rows).unwrap();
    db.bulk_load(
        "users",
        (0..6i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::text(format!("u{i}")),
                ]
            })
            .collect(),
    )
    .unwrap();

    let mut pins = vec![db.pin_latest().0];
    for step in 0..36 {
        let txn = db.begin_rw().unwrap();
        match step % 6 {
            0 => {
                db.insert(txn, "items", fresh_item(&mut rng)).unwrap();
            }
            1 => {
                let id = rng.next(24) + 1;
                db.update(
                    txn,
                    "items",
                    &Predicate::eq("id", id),
                    &set("seller", Value::Int(rng.next(6))),
                )
                .unwrap();
            }
            2 => {
                let (a, b) = (rng.next(30) + 1, rng.next(30) + 1);
                db.update(
                    txn,
                    "items",
                    &Predicate::in_list("id", [a, b]),
                    &set("cat", Value::Int(rng.next(5))),
                )
                .unwrap();
            }
            3 => {
                // Unindexed predicate: DML target selection by SeqScan.
                let price = 5.0 * rng.next(20) as f64;
                db.update(
                    txn,
                    "items",
                    &Predicate::cmp("price", CmpOp::Eq, price),
                    &set("price", Value::Float(price + 2.5)),
                )
                .unwrap();
            }
            4 => {
                let id = rng.next(30) + 1;
                db.delete(txn, "items", &Predicate::eq("id", id)).unwrap();
            }
            _ => {
                let id = rng.next(6);
                db.update(
                    txn,
                    "users",
                    &Predicate::eq("id", id),
                    &set("region", Value::Int(rng.next(4))),
                )
                .unwrap();
                db.update(
                    txn,
                    "items",
                    &Predicate::eq("seller", id).and(Predicate::cmp("price", CmpOp::Lt, 20.0)),
                    &set("cat", Value::Null),
                )
                .unwrap();
            }
        }
        db.commit(txn).unwrap();
        pins.push(db.pin_latest().0);
    }

    // One read/write transaction stays open with a pending insert, a pending
    // update and a pending delete; it queries through its own writes while
    // the pinned readers must not see them.
    let open = db.begin_rw().unwrap();
    db.insert(open, "items", item(900, 2, Some(3), 42.0))
        .unwrap();
    db.update(
        open,
        "items",
        &Predicate::eq("id", 3i64),
        &set("price", Value::Float(1.0)),
    )
    .unwrap();
    db.delete(open, "items", &Predicate::eq("id", 5i64))
        .unwrap();
    db.update(
        open,
        "users",
        &Predicate::eq("id", 1i64),
        &set("name", Value::text("pending")),
    )
    .unwrap();
    (db, pins, open)
}

fn matrix() -> Vec<SelectQuery> {
    let items = || SelectQuery::table("items");
    let seller_range =
        || Predicate::cmp("seller", CmpOp::Ge, 1i64).and(Predicate::cmp("seller", CmpOp::Le, 3i64));
    let cheap = || Predicate::cmp("price", CmpOp::Lt, 60.0);
    let mut qs = vec![
        // SeqScan.
        items(),
        items().filter(cheap()),
        // IndexEq (unique and non-unique), IndexIn (with an absent key).
        items().filter(Predicate::eq("id", 7i64)),
        items().filter(Predicate::eq("seller", 2i64).and(cheap())),
        items().filter(Predicate::in_list("seller", [4i64, 1, 4])),
        items().filter(Predicate::in_list("id", [3i64, 900, 12, 555])),
        // IndexRange, two-sided, one-sided, with residual.
        items().filter(seller_range()),
        items().filter(Predicate::cmp("cat", CmpOp::Gt, 2i64)),
        items().filter(seller_range().and(cheap())),
        // ORDER BY on the NULL-free indexed column: asc/desc ± LIMIT ± residual
        // ± absorbed bounds.
        items().order_by("seller", SortOrder::Asc),
        items().order_by("seller", SortOrder::Desc),
        items().order_by("seller", SortOrder::Asc).limit(5),
        items().order_by("seller", SortOrder::Desc).limit(3),
        items().order_by("id", SortOrder::Desc).limit(4),
        items().order_by("id", SortOrder::Asc).limit(0),
        items()
            .filter(cheap())
            .order_by("seller", SortOrder::Desc)
            .limit(4),
        items()
            .filter(seller_range())
            .order_by("seller", SortOrder::Asc)
            .limit(6),
        items()
            .filter(seller_range().and(cheap()))
            .order_by("seller", SortOrder::Desc),
        // ORDER BY that cannot push down: unindexed column, NULL-bearing
        // index, keyed base path, range on another column.
        items().order_by("price", SortOrder::Asc).limit(5),
        items().order_by("cat", SortOrder::Asc).limit(7),
        items().order_by("cat", SortOrder::Desc),
        items()
            .filter(Predicate::eq("seller", 3i64))
            .order_by("id", SortOrder::Desc)
            .limit(2),
        items()
            .filter(Predicate::in_list("seller", [0i64, 5]))
            .order_by("price", SortOrder::Desc),
        items()
            .filter(seller_range())
            .order_by("id", SortOrder::Asc)
            .limit(5),
        // LIMIT without ORDER BY.
        items().filter(cheap()).limit(3),
        // MIN/MAX: bare, bounded, residual, NULL-bearing, unindexed, keyed.
        items().aggregate(Aggregate::Min("seller".into())),
        items().aggregate(Aggregate::Max("seller".into())),
        items().aggregate(Aggregate::Max("id".into())),
        items()
            .filter(seller_range())
            .aggregate(Aggregate::Max("seller".into())),
        items()
            .filter(Predicate::cmp("seller", CmpOp::Ge, 2i64))
            .aggregate(Aggregate::Min("seller".into())),
        items()
            .filter(cheap())
            .aggregate(Aggregate::Max("seller".into())),
        items().aggregate(Aggregate::Min("cat".into())),
        items().aggregate(Aggregate::Max("cat".into())),
        items().aggregate(Aggregate::Min("price".into())),
        items()
            .filter(Predicate::eq("seller", 1i64))
            .aggregate(Aggregate::Max("id".into())),
        items()
            .filter(Predicate::eq("id", 4040i64))
            .aggregate(Aggregate::Min("id".into())),
        // COUNT: bare, keyed, IN, range.
        items().aggregate(Aggregate::Count),
        items()
            .filter(Predicate::eq("seller", 2i64))
            .aggregate(Aggregate::Count),
        items()
            .filter(Predicate::in_list("cat", [1i64, 3]))
            .aggregate(Aggregate::Count),
        items().filter(seller_range()).aggregate(Aggregate::Count),
        // SUM/AVG fold.
        items().aggregate(Aggregate::Sum("price".into())),
        items().aggregate(Aggregate::Avg("price".into())),
        items()
            .filter(seller_range())
            .aggregate(Aggregate::Sum("price".into())),
        items()
            .filter(Predicate::eq("seller", 77i64))
            .aggregate(Aggregate::Avg("price".into())),
        items().aggregate(Aggregate::Sum("cat".into())),
        // Projection, alone and over a top-N.
        items()
            .filter(Predicate::eq("seller", 4i64))
            .select(vec!["price", "id"]),
        items()
            .select(vec!["id", "seller"])
            .order_by("seller", SortOrder::Desc)
            .limit(4),
        items().filter(cheap()).select(vec!["cat"]),
        // Index-nested-loop join ± filter, join filter, ORDER BY, LIMIT,
        // projection, aggregates.
        items().join("users", "seller", "id"),
        items()
            .filter(Predicate::eq("cat", 2i64))
            .join("users", "seller", "id"),
        items()
            .filter(seller_range())
            .join("users", "seller", "id")
            .join_filter(Predicate::cmp("region", CmpOp::Le, 2i64)),
        items()
            .join("users", "seller", "id")
            .order_by("price", SortOrder::Desc)
            .limit(5),
        items()
            .join("users", "seller", "id")
            .order_by("users.name", SortOrder::Asc),
        items()
            .filter(cheap())
            .join("users", "seller", "id")
            .select(vec!["price", "name", "users.id"]),
        items().join("users", "seller", "id").limit(4),
        items()
            .join("users", "seller", "id")
            .aggregate(Aggregate::Count),
        items()
            .filter(Predicate::in_list("seller", [1i64, 2]))
            .join("users", "seller", "id")
            .aggregate(Aggregate::Sum("price".into())),
        items()
            .join("users", "seller", "id")
            .aggregate(Aggregate::Max("region".into())),
        items()
            .join("users", "seller", "id")
            .aggregate(Aggregate::Min("price".into())),
        // Nested-loop scan join (no index on users.region; NULL outer keys
        // are skipped) ± ORDER BY / COUNT.
        items().join("users", "cat", "region"),
        items()
            .filter(Predicate::eq("seller", 2i64))
            .join("users", "cat", "region")
            .order_by("users.id", SortOrder::Desc),
        items()
            .join("users", "cat", "region")
            .join_filter(Predicate::cmp("id", CmpOp::Ge, 2i64))
            .aggregate(Aggregate::Count),
        // Self-join through the unique index.
        items()
            .filter(Predicate::cmp("id", CmpOp::Le, 6i64))
            .join("items", "seller", "id"),
        // users as the outer table.
        SelectQuery::table("users")
            .order_by("id", SortOrder::Desc)
            .limit(2),
        SelectQuery::table("users")
            .filter(Predicate::eq("id", 1i64))
            .join("items", "id", "seller")
            .aggregate(Aggregate::Avg("price".into())),
    ];
    // The forced-SeqScan reference of every shape runs through the same
    // pipeline and is frozen too.
    let forced: Vec<SelectQuery> = qs.iter().map(|q| q.clone().force_seq_scan()).collect();
    qs.extend(forced);
    qs
}

fn fold(digest: &mut u64, label: &str, result: &QueryResult) {
    let mut tags = result.tags.tags().to_vec();
    tags.sort();
    let line = format!(
        "{label}|{:?}|{:?}|{:?}|{:?}|{}/{}\n",
        result.columns, result.rows, result.validity, tags, result.pages.hits, result.pages.misses
    );
    fnv1a(digest, line.as_bytes());
}

#[test]
fn scan_pipeline_observables_are_frozen() {
    let queries = matrix();
    // Non-vacuity: the matrix reaches every access path and both join kinds.
    let (db, _, open) = build(ExecOptions::default());
    let mut labels: Vec<String> = queries
        .iter()
        .map(|q| {
            let plan = db.plan_for(q).unwrap();
            let join = plan.join.map(|j| format!("{:?}", j.access));
            format!("{}+{}", plan.access.label(), join.as_deref().unwrap_or("-"))
        })
        .collect();
    db.abort(open).unwrap();
    labels.sort();
    labels.dedup();
    for want in [
        "seq_scan+-",
        "index_eq+-",
        "index_in+-",
        "index_range+-",
        "index_ordered+-",
        "index_endpoint+-",
        "seq_scan+IndexNestedLoop",
        "index_range+IndexNestedLoop",
        "seq_scan+NestedLoopScan",
        "index_eq+NestedLoopScan",
    ] {
        assert!(
            labels.iter().any(|l| l == want),
            "no query plans {want}: {labels:?}"
        );
    }

    let mut digest = FNV_OFFSET;
    let mut results = 0usize;
    for track_validity in [true, false] {
        for predicate_before_visibility in [true, false] {
            let exec = ExecOptions {
                track_validity,
                predicate_before_visibility,
            };
            let (db, pins, open) = build(exec);
            for (qi, q) in queries.iter().enumerate() {
                // Every pinned snapshot, then the open transaction (which
                // sees its own pending rows), then a fresh reader at latest.
                for pin in &pins {
                    let token = db.begin_ro(Some(*pin)).unwrap();
                    let r = db.query(token, q).unwrap();
                    db.commit(token).unwrap();
                    fold(
                        &mut digest,
                        &format!("{exec:?}#{qi}@{}", pin.timestamp()),
                        &r,
                    );
                    results += 1;
                }
                let r = db.query(open, q).unwrap();
                fold(&mut digest, &format!("{exec:?}#{qi}@open"), &r);
                let r = db.query_ro_once(q).unwrap().result;
                fold(&mut digest, &format!("{exec:?}#{qi}@latest"), &r);
                results += 2;
            }
            db.abort(open).unwrap();
        }
    }
    assert!(results > 15_000, "matrix shrank to {results} results");
    assert_eq!(
        digest, FROZEN_DIGEST,
        "scan-pipeline observables changed: digest {digest:#018x} over {results} results"
    );
}
