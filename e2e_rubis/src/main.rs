//! `e2e_rubis`: RUBiS through the real three-tier path, with a per-layer
//! time budget. See the README beside this package for every metric,
//! workload and check.
//!
//! ```text
//! e2e_rubis --workload W --seed N --seconds S --trace 0|1 [--requests N] [--out DIR]
//! e2e_rubis --summarize DIR
//! e2e_rubis --compare A.json[,A2.json..] B.json[,B2.json..] [--bounds BENCHMARK.json] [--exact]
//! e2e_rubis --check
//! ```

mod checks;
mod driver;
mod json;
mod layers;
mod measure;
mod report;
mod spans;
mod stack;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rubis::RubisScale;

use checks::{Check, ClosingState};
use driver::{Driver, Length, Workload, WORKLOADS};
use measure::{Snapshot, Window};
use report::{Host, RunResult};
use spans::Recorder;
use stack::{Stack, StackSpec};
use stats::{median, ratio};

/// Fraction of the paper's in-memory RUBiS data set: ≈8k users, 4 250 items,
/// 12 750 bids.
const SCALE_FACTOR: f64 = 0.05;
/// Per cache node; the whole working set fits (see the README on why there
/// is no under-capacity workload yet).
const NODE_CAPACITY_BYTES: usize = 32 << 20;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One run: a workload, a pass, a length.
struct RunConfig {
    workload: Workload,
    seed: u64,
    length: Length,
    trace: bool,
    scale: RubisScale,
    warmup: u64,
    audit_reads: u64,
    setup_repeats: usize,
    /// Scratch space for the WAL, inside the build directory.
    run_dir: PathBuf,
    /// Where to write the result file and the trace, if anywhere.
    out: Option<PathBuf>,
}

fn run(config: &RunConfig) -> Result<RunResult, String> {
    let w = &config.workload;
    let recorder = config.trace.then(|| Arc::new(Recorder::new()));
    let spec = StackSpec {
        scale: config.scale,
        seed: config.seed,
        cached: w.cached,
        node_capacity_bytes: NODE_CAPACITY_BYTES,
        wal_dir: config
            .run_dir
            .join(format!("{}-{}", w.name, std::process::id())),
    };

    // Set-up, several times over: the last one is kept and measured on.
    let mut setup_times = Vec::new();
    let mut stack = None;
    for _ in 0..config.setup_repeats {
        if let Some(previous) = stack.take() {
            Stack::close(previous);
        }
        let (built, seconds) = Stack::build(&spec, recorder.as_ref())?;
        setup_times.push(seconds);
        stack = Some(built);
    }
    let stack = stack.ok_or("setup_repeats must be at least 1")?;
    let setup_s = median(&setup_times);
    let host = Host::detect(&stack.wal_dir, format!("{:?}", stack.db_config.fsync));

    // Warm-up: fills the cache and finishes lazy set-up (id allocators,
    // first pins); the request stream continues into the window.
    let mut driver = Driver::new(w, &stack, config.seed);
    let warm_started = Instant::now();
    let warm = driver.run(&stack, Length::Requests(config.warmup), recorder.as_deref());
    let warmup_s = warm_started.elapsed().as_secs_f64();
    if let Some(e) = &warm.first_error {
        return Err(format!("warm-up request failed: {e}"));
    }

    // The measured window. The recorder is emptied on both sides of it, so
    // the window's spans index each other from 0; the warm-up's calls are
    // kept to bring the replay to the same cache state.
    let warm_calls = recorder.as_ref().map(|r| r.take().1);
    let before = Snapshot::take(&stack, true);
    let phase = driver.run(&stack, config.length, recorder.as_deref());
    let after = Snapshot::take(&stack, false);
    let peak_rss_mb = measure::peak_rss_mb();
    let window = Window { before, after };
    let traced = recorder.as_ref().map(|r| r.take());

    // Checks on the live system.
    let mut checks = vec![checks::snapshot_audit(
        &stack,
        &mut driver,
        config.seed,
        config.audit_reads,
        recorder.as_deref(),
    )];
    checks.extend(checks::health(&stack, &phase, &window));
    checks.extend(checks::shape(w, &phase, &window));

    // Close everything, then recover the WAL directory on its own.
    let closing = ClosingState::take(&stack, driver.last_acked_commit);
    let wal_dir = stack.close_keeping_wal();
    let (recovery, recover_s) = checks::recovery(&wal_dir, &closing);
    checks.push(recovery);
    stack::remove_dir(&wal_dir);
    let _ = std::fs::remove_dir(&config.run_dir);

    let attempted = phase.samples.len() as u64;
    let failed = phase.samples.iter().filter(|s| !s.ok).count() as u64;
    let exact = vec![
        ("hit_rate", window.hit_rate()),
        (
            "db_queries_per_txn",
            ratio(window.db_queries() as f64, attempted as f64),
        ),
        (
            "mvdb.wal_bytes_per_rw_txn",
            ratio(window.wal_bytes() as f64, window.rw_transactions() as f64),
        ),
    ];

    let mut budget = None;
    let mut window_spans = Vec::new();
    let metrics = match (warm_calls, traced) {
        (Some(mut calls), Some((spans, window_calls))) => {
            let window_start = calls.len();
            calls.extend(window_calls);
            let replay = layers::replay(&calls, window_start, NODE_CAPACITY_BYTES);
            let report = layers::per_layer(
                &phase,
                &window,
                &spans,
                &calls[window_start..],
                &replay,
                layers::Outside {
                    warmup_s,
                    recover_s,
                    leaked_pins: closing.leaked_pins,
                },
            );
            window_spans = spans;
            checks.extend(budget_checks(&report.budget));
            checks.push(Check::new(
                "replay_outcomes",
                replay.outcome_mismatches == 0,
                format!(
                    "{} of {} lookups answered differently by an in-process node replaying the same calls",
                    replay.outcome_mismatches, replay.node_lookups
                ),
            ));
            budget = Some(report.budget);
            report.metrics
        }
        _ => measure::end_to_end(&phase, &window, setup_s, peak_rss_mb),
    };

    let result = RunResult {
        workload: w.name.to_string(),
        seed: config.seed,
        trace: config.trace,
        length: match config.length {
            Length::Requests(n) => ("requests", n),
            Length::Time(t) => ("seconds", t.as_secs()),
        },
        host,
        attempted,
        failed,
        metrics,
        exact,
        checks,
        budget,
    };
    if let Some(out) = &config.out {
        std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let pass = u8::from(config.trace);
        let path = out.join(format!("{}.trace{pass}.json", w.name));
        std::fs::write(&path, result.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        if config.trace {
            let path = out.join(format!("trace_{}.jsonl", w.name));
            std::fs::write(&path, report::trace_jsonl(&window_spans))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(result)
}

/// The budget must account for the loop: no negative column, and the
/// columns within 5 % of the measured mean loop time.
fn budget_checks(budget: &layers::Budget) -> [Check; 2] {
    let gap = ratio(budget.sum(), budget.loop_us) - 1.0;
    let negative: Vec<String> = layers::Budget::COLUMNS
        .iter()
        .zip(budget.columns())
        .filter(|(_, v)| *v < 0.0)
        .map(|(name, v)| format!("{name} = {v:.2}"))
        .collect();
    [
        Check::new(
            "budget_sums_to_loop_time",
            gap.abs() <= 0.05,
            format!(
                "columns {:.2} us/txn vs loop {:.2} us/txn ({:+.2} %)",
                budget.sum(),
                budget.loop_us,
                gap * 100.0
            ),
        ),
        Check::new(
            "budget_no_negative_column",
            negative.is_empty(),
            if negative.is_empty() {
                "all columns >= 0".to_string()
            } else {
                negative.join(", ")
            },
        ),
    ]
}

/// Scratch space next to the executable, so everything the benchmark writes
/// stays inside the build directory of its checkout.
fn default_run_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("e2e_rubis_run"))
}

// ----------------------------------------------------------------------
// Command line
// ----------------------------------------------------------------------

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value_of(args, flag)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("{flag}: cannot parse '{v}'"))
        })
        .transpose()
}

fn measure_command(args: &[String]) -> Result<bool, String> {
    let name = value_of(args, "--workload").ok_or("--workload is required")?;
    let workload = driver::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; choose one of {names:?}")
    })?;
    let length = match parsed::<u64>(args, "--requests")? {
        Some(n) if n > 0 => Length::Requests(n),
        Some(_) => return Err("--requests must be positive".to_string()),
        None => Length::Time(Duration::from_secs(
            parsed::<u64>(args, "--seconds")?.unwrap_or(10).max(1),
        )),
    };
    let config = RunConfig {
        workload,
        seed: parsed(args, "--seed")?.unwrap_or(42),
        length,
        trace: match value_of(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
        scale: RubisScale::in_memory(SCALE_FACTOR),
        warmup: workload.warmup,
        audit_reads: checks::AUDIT_READS,
        setup_repeats: SETUP_REPEATS,
        run_dir: default_run_dir()?,
        out: value_of(args, "--out").map(PathBuf::from),
    };
    let result = run(&config)?;
    print!("{}", result.table());
    if let Some(budget) = &result.budget {
        print!("{}", budget.render(&result.workload));
    }
    println!("{}", result.contract_line());
    Ok(result.correct())
}

/// `--check`: all four workloads at tiny counts and a tiny data set, both
/// passes, every correctness check on, and the exact counts compared
/// between the passes.
fn check_command() -> Result<bool, String> {
    let run_dir = default_run_dir()?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let result = run(&RunConfig {
                workload,
                seed: 7,
                length: Length::Requests(600),
                trace,
                scale: RubisScale::tiny(),
                warmup: 1_800,
                audit_reads: 200,
                setup_repeats: 1,
                run_dir: run_dir.clone(),
                out: None,
            })?;
            for c in result.checks.iter().filter(|c| !c.ok) {
                println!(
                    "{} trace={} check {} FAILED: {}",
                    workload.name,
                    u8::from(trace),
                    c.name,
                    c.detail
                );
            }
            ok &= result.correct();
            passes.push(result);
        }
        let same = passes[0]
            .exact
            .iter()
            .zip(&passes[1].exact)
            .all(|(a, b)| a.1.to_bits() == b.1.to_bits());
        if !same {
            println!(
                "{} exact counts differ between passes: {:?} vs {:?}",
                workload.name, passes[0].exact, passes[1].exact
            );
        }
        ok &= same;
        println!(
            "{} check {}: {} checks, {} + {} interactions",
            workload.name,
            if passes.iter().all(RunResult::correct) && same {
                "ok"
            } else {
                "FAILED"
            },
            passes[0].checks.len() + passes[1].checks.len(),
            passes[0].attempted,
            passes[1].attempted
        );
    }
    Ok(ok)
}

fn split_paths(list: &str) -> Vec<PathBuf> {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .collect()
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let at = args.iter().position(|a| a == "--compare").unwrap_or(0);
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--compare takes two result sets (comma-separated files)".to_string());
    };
    let (a, b) = (split_paths(a), split_paths(b));
    let bounds = report::read_bounds(Path::new(
        value_of(args, "--bounds").unwrap_or("BENCHMARK.json"),
    ))?;
    fn as_refs(v: &[PathBuf]) -> Vec<&Path> {
        v.iter().map(PathBuf::as_path).collect()
    }
    let (text, mut ok) = report::compare(&as_refs(&a), &as_refs(&b), &bounds)?;
    print!("{text}");
    if args.iter().any(|a| a == "--exact") {
        let all: Vec<PathBuf> = a.iter().chain(&b).cloned().collect();
        let (text, exact_ok) = report::exact_counts_agree(&as_refs(&all))?;
        print!("{text}");
        ok &= exact_ok;
    }
    println!("compare: {}", if ok { "within bounds" } else { "FAILED" });
    Ok(ok)
}

fn summarize_command(args: &[String]) -> Result<bool, String> {
    let dir = PathBuf::from(value_of(args, "--summarize").ok_or("--summarize takes a directory")?);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".trace0.json") || n.ends_with(".trace1.json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no result files in {}", dir.display()));
    }
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let refs: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
    let (text, json, ok) = report::summarize(&refs, unix_time)?;
    print!("{text}");
    let path = dir.join(format!("BENCH_e2e_rubis_{unix_time}.json"));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("summary written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let outcome = if has("--check") {
        check_command()
    } else if has("--compare") {
        compare_command(&args)
    } else if has("--summarize") {
        summarize_command(&args)
    } else {
        measure_command(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e_rubis: {e}");
            ExitCode::from(2)
        }
    }
}
