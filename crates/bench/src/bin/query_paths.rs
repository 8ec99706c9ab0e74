//! Index-assisted query fast-path microbenchmark and CI regression gate.
//!
//! Measures the planner's fast paths against the forced sequential-scan
//! reference on a RUBiS-shaped `items` table (unique `id`, secondary indexes
//! on `seller` and `category`):
//!
//! * **seq_topn**   — `ORDER BY id DESC LIMIT 10` with `force_seq_scan`:
//!   materialize every visible row, sort, truncate (the pre-fast-path plan);
//! * **index_topn** — the same query planned naturally (`IndexOrdered`):
//!   walk the `id` B-tree from the high end and stop after 10 visible rows;
//! * **endpoint_max** — `MAX(id)` as an `IndexEndpoint` probe;
//! * **count_eq**   — `COUNT(*) WHERE category = c` through the `IndexEq`
//!   probe plus the no-materialization COUNT loop;
//! * **in_list**    — `WHERE category IN (c, c+1, c+2)` as `IndexIn` probes.
//!
//! A last, ungated leg is §8.1's wall-clock comparison: a point query on a
//! tiny RUBiS database with validity tracking and invalidation tags on
//! (`tracking_on`) vs off (`tracking_off`). The paper reports no observable
//! difference; the ratio is printed and never enters the report.
//!
//! All legs produce answers with validity intervals identical to the
//! sequential scan (enforced by `tests/properties.rs`); this binary measures
//! the throughput side and doubles as the CI gate (`ci.sh --bench-smoke`).
//! The per-path rates are recorded as a [`SweepReport`] whose "thread"
//! column is the path index (1=seq_topn, 2=count_eq, 3=in_list,
//! 4=endpoint_max, 5=index_topn), so the standard baseline comparison gates
//! the tentpole `index_topn` leg. Independently of any baseline, the binary
//! fails if `index_topn` is not at least 3x faster than `seq_topn`.
//!
//! ```text
//! query_paths [--scale 0.01] [--requests N] [--quick] [--json PATH]
//!             [--baseline PATH] [--max-regress 0.2] [--min-speedup 3]
//! ```

use std::time::Instant;

use bench::{gate_failures, BenchArgs, SweepReport};
use mvdb::{
    AccessPath, Aggregate, ColumnType, Database, DbConfig, ExecOptions, Predicate, SelectQuery,
    SortOrder, TableSchema, Value,
};
use rubis::RubisScale;
use txtypes::SimClock;

const CATEGORIES: i64 = 20;
const TOP_N: usize = 10;

/// Builds the items table at `scale` (1.0 = 800k rows, the default 0.01 =
/// 8k) with the RUBiS secondary indexes the fast paths probe.
fn build_db(scale: f64) -> (Database, usize) {
    let rows = ((scale * 800_000.0) as usize).max(1_000);
    let db = Database::new(DbConfig::default(), SimClock::new());
    db.create_table(
        TableSchema::new("items")
            .column("id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .column("category", ColumnType::Int)
            .column("price", ColumnType::Int)
            .unique_index("id")
            .index("seller")
            .index("category"),
    )
    .expect("create items");
    let data: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Int(i + 1),
                Value::Int(i % (rows as i64 / 10).max(1)),
                Value::Int(i % CATEGORIES),
                Value::Int((i * 7) % 1_000),
            ]
        })
        .collect();
    db.bulk_load("items", data).expect("bulk load items");
    (db, rows)
}

/// Runs `ops` iterations of `make_query`, one read-only transaction each,
/// and returns the elapsed seconds.
fn run_queries(db: &Database, ops: usize, make_query: impl Fn(u64) -> SelectQuery) -> f64 {
    let started = Instant::now();
    for i in 0..ops as u64 {
        let q = make_query(i);
        let token = db.begin_ro(None).expect("begin ro");
        let result = db.query(token, &q).expect("query");
        db.commit(token).expect("commit ro");
        assert!(!result.rows.is_empty(), "every leg returns at least a row");
    }
    started.elapsed().as_secs_f64().max(1e-9)
}

/// Prints and returns a leg's rate in queries/s.
fn report_rate(label: &str, ops: usize, secs: f64) -> f64 {
    let rate = ops as f64 / secs;
    println!("    {label:<12} {rate:>12.0} q/s ({ops} queries)");
    rate
}

/// Runs one leg and prints its rate in queries/s.
fn drive(db: &Database, label: &str, ops: usize, make_query: impl Fn(u64) -> SelectQuery) -> f64 {
    report_rate(label, ops, run_queries(db, ops, make_query))
}

/// §8.1: the per-query cost of the database-side TxCache support, measured
/// as the rate of one RUBiS point query with the machinery off and on.
/// The two sides alternate in short rounds, so drift on a shared host lands
/// on both. Returns the on/off rate ratio.
fn validity_tracking_leg(requests: usize) -> f64 {
    const ROUNDS: usize = 10;
    let dbs = [false, true].map(|track_validity| {
        let db = Database::new(
            DbConfig {
                exec: ExecOptions {
                    track_validity,
                    ..ExecOptions::default()
                },
                ..DbConfig::default()
            },
            SimClock::new(),
        );
        rubis::create_tables(&db).expect("create rubis tables");
        rubis::populate(&db, &RubisScale::tiny(), 1).expect("populate rubis");
        db
    });
    let mut secs = [0.0; 2];
    for _ in 0..ROUNDS {
        for (side, db) in dbs.iter().enumerate() {
            secs[side] += run_queries(db, requests, |_| {
                SelectQuery::table("items").filter(Predicate::eq("id", 17i64))
            });
        }
    }
    let off = report_rate("tracking_off", ROUNDS * requests, secs[0]);
    let on = report_rate("tracking_on", ROUNDS * requests, secs[1]);
    on / off
}

fn topn_query() -> SelectQuery {
    SelectQuery::table("items")
        .select(vec!["id", "price"])
        .order_by("id", SortOrder::Desc)
        .limit(TOP_N)
}

fn main() {
    let args = BenchArgs::parse();
    let requests = args.requests.max(200);
    let (db, rows) = build_db(args.scale);
    println!(
        "query_paths: {rows} items, {CATEGORIES} categories, {requests} requests/leg \
         (seq leg {})",
        (requests / 20).max(50)
    );

    // The fast paths must actually be planned before measuring them —
    // otherwise the sweep silently compares seq scan against itself.
    let plan = |q: &SelectQuery| db.plan_for(q).expect("plan").access;
    assert!(matches!(
        plan(&topn_query()),
        AccessPath::IndexOrdered { .. }
    ));
    assert!(matches!(
        plan(&SelectQuery::table("items").aggregate(Aggregate::Max("id".into()))),
        AccessPath::IndexEndpoint { max: true, .. }
    ));
    assert!(matches!(
        plan(&SelectQuery::table("items").filter(Predicate::in_list("category", [1i64, 2, 3]))),
        AccessPath::IndexIn { .. }
    ));
    println!("  planner: index_ordered / index_endpoint / index_in confirmed\n  rates:");

    // The forced-scan leg materializes and sorts every visible row per
    // query; run fewer iterations so the full sweep stays fast.
    let seq_ops = (requests / 20).max(50);
    let seq_topn = drive(&db, "seq_topn", seq_ops, |_| topn_query().force_seq_scan());
    let count_eq = drive(&db, "count_eq", requests, |i| {
        SelectQuery::table("items")
            .filter(Predicate::eq("category", (i as i64) % CATEGORIES))
            .aggregate(Aggregate::Count)
    });
    let in_list = drive(&db, "in_list", requests, |i| {
        let c = (i as i64) % CATEGORIES;
        SelectQuery::table("items")
            .select(vec!["id"])
            .filter(Predicate::in_list(
                "category",
                [c, (c + 1) % CATEGORIES, (c + 2) % CATEGORIES],
            ))
    });
    let endpoint_max = drive(&db, "endpoint_max", requests, |_| {
        SelectQuery::table("items").aggregate(Aggregate::Max("id".into()))
    });
    let index_topn = drive(&db, "index_topn", requests, |_| topn_query());
    let tracking = validity_tracking_leg(requests);
    println!(
        "\n  §8.1 validity tracking on vs off: {tracking:.2}x the rate \
         (ungated; paper: no observable difference)"
    );

    // Hard floor, independent of any baseline file: top-N pushdown must beat
    // the forced sequential scan by at least 3x (or --min-speedup if set
    // higher). O(limit) vs O(rows) should clear this by orders of magnitude.
    let floor = args.min_speedup.max(3.0);
    let speedup = index_topn / seq_topn.max(1e-9);
    println!("\n  top-N pushdown speedup over forced seq scan: {speedup:.1}x (floor {floor:.1}x)");
    if speedup < floor {
        eprintln!("BENCH GATE FAILED: index_topn is only {speedup:.2}x seq_topn (floor {floor}x)");
        std::process::exit(1);
    }

    // "Thread" indices are path indices; index 5 (index_topn) is what the
    // baseline regression gate compares.
    let report = SweepReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        threads: vec![1, 2, 3, 4, 5],
        txn_per_sec: vec![seq_topn, count_eq, in_list, endpoint_max, index_topn],
    };
    if let Some(path) = &args.json_out {
        std::fs::write(path, report.to_json()).expect("failed to write sweep JSON");
        println!("  sweep written to {path}");
    }
    // The speedup floor is enforced above (it is a path ratio, not a thread
    // scaling ratio), so only the baseline comparison runs here.
    let failures = gate_failures(
        &BenchArgs {
            min_speedup: 0.0,
            ..args
        },
        &report,
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BENCH GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
