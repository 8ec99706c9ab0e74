//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the paper's
//! evaluation (see the README sections "Regenerating the paper's figures" and,
//! for the bench gates, "Quickstart"). They accept a small set of command-line
//! flags so the full-scale experiments can be run when more time is available:
//!
//! * `--scale <f>`    — dataset scale factor (default 0.01 = 1% of the paper's sizes)
//! * `--requests <n>` — measured requests per experiment point (default 2000)
//! * `--quick`        — shrink everything for a fast smoke run
//!
//! `fig5_throughput` additionally supports the CI bench-smoke flags:
//!
//! * `--threads <list>`   — application-server thread counts (default 1,2,4,8,16)
//! * `--scaling-only`     — skip the figure panels, run only the thread sweep
//! * `--json <path>`      — write the thread-sweep results as JSON
//! * `--baseline <path>`  — compare against a checked-in JSON baseline and
//!   exit non-zero if throughput at the highest common thread count regressed
//! * `--max-regress <f>`  — allowed fractional regression (default 0.20)
//! * `--min-speedup <f>`  — required speedup at the highest thread count,
//!   enforced only when the host has that much hardware parallelism

#![forbid(unsafe_code)]

use harness::{DbKind, ExperimentConfig};

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Dataset scale factor relative to the paper's configuration.
    pub scale: f64,
    /// Measured requests per experiment point.
    pub requests: usize,
    /// Warm-up requests per experiment point.
    pub warmup: usize,
    /// Application-server thread counts for the concurrency sweep
    /// (`--threads 1,2,4,8,16`).
    pub threads: Vec<usize>,
    /// Run only the thread-scaling sweep (`--scaling-only`).
    pub scaling_only: bool,
    /// Write the thread-sweep results as JSON to this path (`--json`).
    pub json_out: Option<String>,
    /// Compare the sweep against this JSON baseline (`--baseline`).
    pub baseline: Option<String>,
    /// Allowed fractional throughput regression against the baseline
    /// (`--max-regress`, default 0.20).
    pub max_regress: f64,
    /// Required speedup at the highest thread count, enforced only when the
    /// host has at least that many CPUs (`--min-speedup`, default 0 = off).
    pub min_speedup: f64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.01,
            requests: 2_000,
            warmup: 1_200,
            threads: vec![1, 2, 4, 8, 16],
            scaling_only: false,
            json_out: None,
            baseline: None,
            max_regress: 0.20,
            min_speedup: 0.0,
        }
    }
}

impl BenchArgs {
    /// Parses the common flags from `std::env::args`, ignoring unknown
    /// arguments (binaries may add their own).
    #[must_use]
    pub fn parse() -> BenchArgs {
        let mut out = BenchArgs::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse() {
                        out.scale = v;
                    }
                    i += 1;
                }
                "--requests" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse() {
                        out.requests = v;
                    }
                    i += 1;
                }
                "--threads" if i + 1 < args.len() => {
                    let parsed: Vec<usize> = args[i + 1]
                        .split(',')
                        .filter_map(|t| t.trim().parse().ok())
                        .filter(|&t| t > 0)
                        .collect();
                    if !parsed.is_empty() {
                        out.threads = parsed;
                    }
                    i += 1;
                }
                "--quick" => {
                    out.scale = 0.004;
                    out.requests = 600;
                    out.warmup = 300;
                }
                "--scaling-only" => out.scaling_only = true,
                "--json" if i + 1 < args.len() => {
                    out.json_out = Some(args[i + 1].clone());
                    i += 1;
                }
                "--baseline" if i + 1 < args.len() => {
                    out.baseline = Some(args[i + 1].clone());
                    i += 1;
                }
                "--max-regress" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse::<f64>() {
                        out.max_regress = v.clamp(0.0, 1.0);
                    }
                    i += 1;
                }
                "--min-speedup" if i + 1 < args.len() => {
                    if let Ok(v) = args[i + 1].parse::<f64>() {
                        out.min_speedup = v.max(0.0);
                    }
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        out.warmup = out.warmup.min(out.requests);
        out
    }

    /// Builds an experiment configuration for `db_kind` with these sizes.
    #[must_use]
    pub fn config(&self, db_kind: DbKind) -> ExperimentConfig {
        ExperimentConfig {
            scale_factor: self.scale,
            requests: self.requests,
            warmup_requests: self.warmup,
            ..ExperimentConfig::new(db_kind)
        }
    }
}

/// Applies the CI bench gate to a sweep: regression against the baseline
/// file (absolute throughput is only compared when the host matches the
/// baseline's CPU count) and, on hosts with enough CPUs, the scaling floor.
/// Returns error strings; empty = pass. Shared by `fig5_throughput` and
/// `cache_scaling`.
#[must_use]
pub fn gate_failures(args: &BenchArgs, report: &SweepReport) -> Vec<String> {
    let mut failures = Vec::new();

    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .map(SweepReport::from_json)
        {
            Some(Some(baseline))
                if baseline.available_parallelism != report.available_parallelism =>
            {
                // Absolute txn/s only compares like with like: a baseline
                // recorded on a different machine class (e.g. the 1-CPU dev
                // container vs a 4-CPU hosted runner) would make the gate
                // flap. The --min-speedup ratio gate still applies there.
                println!(
                    "\n  bench gate: baseline was recorded with {} CPU(s), this host has {}; \
                     absolute-throughput comparison skipped",
                    baseline.available_parallelism, report.available_parallelism
                );
            }
            Some(Some(baseline)) => {
                let common = report
                    .threads
                    .iter()
                    .filter(|t| baseline.rate_at(**t).is_some())
                    .max()
                    .copied();
                match common {
                    Some(threads) => {
                        let old = baseline.rate_at(threads).unwrap_or(0.0);
                        let new = report.rate_at(threads).unwrap_or(0.0);
                        let floor = old * (1.0 - args.max_regress);
                        if new < floor {
                            failures.push(format!(
                                "throughput regression at {threads} threads: {new:.0} txn/s < \
                                 {floor:.0} (baseline {old:.0}, max regression {:.0}%)",
                                args.max_regress * 100.0
                            ));
                        } else {
                            println!(
                                "\n  bench gate: {new:.0} txn/s at {threads} threads vs baseline \
                                 {old:.0} (floor {floor:.0}) — ok"
                            );
                        }
                    }
                    None => failures.push(format!(
                        "baseline {path} shares no thread count with this run"
                    )),
                }
            }
            _ => failures.push(format!("could not read baseline {path}")),
        }
    }

    if args.min_speedup > 0.0 {
        let top = report.threads.iter().max().copied().unwrap_or(1);
        if report.available_parallelism >= top {
            match report.top_speedup() {
                Some(speedup) if speedup < args.min_speedup => failures.push(format!(
                    "speedup at {top} threads is {speedup:.2}x, below the {:.2}x floor",
                    args.min_speedup
                )),
                Some(speedup) => {
                    println!("  bench gate: speedup {speedup:.2}x at {top} threads — ok");
                }
                None => failures.push("cannot compute speedup (no 1-thread run)".into()),
            }
        } else {
            println!(
                "  bench gate: host has {} CPU(s) < {top} threads; speedup floor skipped",
                report.available_parallelism
            );
        }
    }

    failures
}

/// Formats a byte count as the paper writes cache sizes ("64MB", "1GB").
#[must_use]
pub fn format_size(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{}GB", bytes >> 30)
    } else {
        format!("{}MB", bytes >> 20)
    }
}

/// The thread-scaling sweep result serialized to / parsed from
/// `BENCH_fig5.json`. The format is a flat JSON object written and read by
/// the helpers below — no JSON dependency needed for the handful of numeric
/// fields the CI gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Hardware parallelism of the host that produced the numbers.
    pub available_parallelism: usize,
    /// Thread counts driven.
    pub threads: Vec<usize>,
    /// Measured aggregate throughput at each thread count.
    pub txn_per_sec: Vec<f64>,
}

impl SweepReport {
    /// Throughput measured at `threads`, if that count was driven.
    #[must_use]
    pub fn rate_at(&self, threads: usize) -> Option<f64> {
        self.threads
            .iter()
            .position(|&t| t == threads)
            .map(|i| self.txn_per_sec[i])
    }

    /// Speedup of the highest thread count over the single-thread run.
    #[must_use]
    pub fn top_speedup(&self) -> Option<f64> {
        let single = self.rate_at(1)?;
        let top = *self.threads.iter().max()?;
        let rate = self.rate_at(top)?;
        if single > 0.0 {
            Some(rate / single)
        } else {
            None
        }
    }

    /// Renders the report as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let threads: Vec<String> = self.threads.iter().map(ToString::to_string).collect();
        let rates: Vec<String> = self.txn_per_sec.iter().map(|r| format!("{r:.1}")).collect();
        format!(
            "{{\n  \"available_parallelism\": {},\n  \"threads\": [{}],\n  \"txn_per_sec\": [{}]\n}}\n",
            self.available_parallelism,
            threads.join(", "),
            rates.join(", ")
        )
    }

    /// Parses a report produced by [`to_json`](Self::to_json). Returns `None`
    /// if a required key is missing or the arrays disagree in length.
    #[must_use]
    pub fn from_json(text: &str) -> Option<SweepReport> {
        let threads: Vec<usize> = json_numbers(text, "threads")?
            .into_iter()
            .map(|v| v as usize)
            .collect();
        let txn_per_sec = json_numbers(text, "txn_per_sec")?;
        if threads.is_empty() || threads.len() != txn_per_sec.len() {
            return None;
        }
        let available_parallelism = json_number(text, "available_parallelism")? as usize;
        Some(SweepReport {
            available_parallelism,
            threads,
            txn_per_sec,
        })
    }
}

/// Extracts the array of numbers stored under `"key": [...]`.
fn json_numbers(text: &str, key: &str) -> Option<Vec<f64>> {
    let rest = after_key(text, key)?;
    let open = rest.find('[')?;
    let close = rest[open..].find(']')? + open;
    rest[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<f64>().ok())
        .collect()
}

/// Extracts the scalar number stored under `"key": n`.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let value: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let colon = text[at..].find(':')? + at + 1;
    Some(&text[colon..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_config() {
        let args = BenchArgs::default();
        let cfg = args.config(DbKind::InMemory);
        assert_eq!(cfg.requests, 2_000);
        assert!((cfg.scale_factor - 0.01).abs() < 1e-12);
        assert_eq!(args.threads, vec![1, 2, 4, 8, 16]);
        assert!(!args.scaling_only);
        assert!((args.max_regress - 0.20).abs() < 1e-12);
        assert_eq!(args.min_speedup, 0.0);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(format_size(64 << 20), "64MB");
        assert_eq!(format_size(9 << 30), "9GB");
    }

    #[test]
    fn sweep_report_round_trips_through_json() {
        let report = SweepReport {
            available_parallelism: 8,
            threads: vec![1, 4],
            txn_per_sec: vec![1000.5, 3200.0],
        };
        let json = report.to_json();
        let parsed = SweepReport::from_json(&json).unwrap();
        assert_eq!(parsed.available_parallelism, 8);
        assert_eq!(parsed.threads, vec![1, 4]);
        assert_eq!(parsed.rate_at(4), Some(3200.0));
        assert_eq!(parsed.rate_at(16), None);
        let speedup = parsed.top_speedup().unwrap();
        assert!((speedup - 3200.0 / 1000.5).abs() < 1e-9);
    }

    #[test]
    fn sweep_report_rejects_malformed_json() {
        assert!(SweepReport::from_json("{}").is_none());
        assert!(SweepReport::from_json("{\"threads\": [1], \"txn_per_sec\": []}").is_none());
        assert!(SweepReport::from_json("not json at all").is_none());
    }
}
