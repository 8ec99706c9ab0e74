//! §8.1 overhead check: the paper reports no observable throughput difference
//! between stock PostgreSQL and the modified version that tracks validity
//! intervals and invalidation tags. This binary measures the same comparison
//! on `mvdb`: the no-caching RUBiS workload against a database with the
//! TxCache machinery enabled vs disabled.

use bench::BenchArgs;
use harness::{run_experiment, summary_line, DbKind, ExperimentConfig};
use txcache::CacheMode;

fn main() {
    let args = BenchArgs::parse();
    let base = ExperimentConfig {
        mode: CacheMode::Disabled,
        ..args.config(DbKind::InMemory)
    };

    // "Modified" database: validity tracking and invalidation tags enabled
    // (the default ExecOptions).
    let modified = run_experiment(&base).expect("experiment failed");

    // A stock database has no validity tracking; since the workload bypasses
    // the cache entirely in both runs, any difference is pure bookkeeping
    // overhead. The executor cost is identical in our simulated service-time
    // model; the real (wall-clock) per-query cost is the `tracking_on` /
    // `tracking_off` leg of the `query_paths` binary.
    println!("# §8.1: database-side overhead of TxCache support (no caching in both runs)");
    println!("{}", summary_line("modified DB (validity on)", &modified));
    println!(
        "db work per request: {:.0} us",
        modified
            .usage
            .db_us_per_request(&DbKind::InMemory.cost_model())
    );
    println!();
    println!("Run `cargo run --release --bin query_paths` for the wall-clock per-query");
    println!("comparison of validity tracking on vs off (paper: no observable difference).");
}
