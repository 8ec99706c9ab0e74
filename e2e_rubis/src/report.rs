//! Result files: what one run writes, the summary of a set of runs
//! (`BENCH_e2e_rubis_<unix-time>.json`), and `--compare`, which applies the
//! bounds fixed in `BENCHMARK.json` to two sets of results.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::checks::Check;
use crate::json::{number, quote, Json};
use crate::layers::Budget;
use crate::measure::Metric;
use crate::spans::{Span, NO_PARENT};
use crate::stats::median;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub wal_fs: String,
    pub fsync_policy: String,
    pub commit: String,
}

impl Host {
    pub fn detect(wal_dir: &Path, fsync_policy: String) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            wal_fs: fs_type_of(wal_dir),
            fsync_policy,
            commit: std::env::var("E2E_RUBIS_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": {}, \"wal_fs\": {}, \"fsync_policy\": {}, \"commit\": {}, \"deployment\": \"in-process nodes over loopback\"}}",
            self.nproc,
            quote(&self.kernel),
            quote(&self.wal_fs),
            quote(&self.fsync_policy),
            quote(&self.commit)
        )
    }
}

/// File-system type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
fn fs_type_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Everything one run (one workload, one pass) produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// `"requests"` or `"seconds"`, and how many.
    pub length: (&'static str, u64),
    pub host: Host,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Count-derived values that repeat exactly for a seed and a request
    /// count, present in both passes.
    pub exact: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub budget: Option<Budget>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable lines: `workload metric value unit`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = if m.samples > 0 {
                format!("  n={}", m.samples)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{} {} {:.4} {}{samples}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "{} check {} {verdict}: {}",
                self.workload, c.name, c.detail
            );
        }
        out
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit),
                    m.samples
                )
            })
            .collect();
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(name, v)| format!("{}: {}", quote(name), number(*v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    quote(c.name),
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        let budget = self.budget.as_ref().map_or("null".to_string(), |b| {
            let columns: Vec<String> = Budget::COLUMNS
                .iter()
                .zip(b.columns())
                .map(|(name, v)| format!("{}: {}", quote(name), number(v)))
                .collect();
            format!(
                "{{\"unit\": \"us/txn\", \"loop\": {}, \"mvdb.fsync\": {}, \"columns\": {{{}}}}}",
                number(b.loop_us),
                number(b.mvdb_fsync),
                columns.join(", ")
            )
        });
        format!(
            "{{\n  \"benchmark\": \"e2e_rubis\",\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"length\": {{{}: {}}},\n  \"host\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"exact\": {{{}}},\n  \"budget\": {},\n  \"checks\": [\n{}\n  ]\n}}\n",
            quote(&self.workload),
            self.seed,
            u8::from(self.trace),
            quote(self.length.0),
            self.length.1,
            self.host.to_json(),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",\n"),
            exact.join(", "),
            budget,
            checks.join(",\n")
        )
    }
}

/// The spans of a window as JSON lines: name, start, end, parent, txn id.
pub fn trace_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"txn\": {}}}",
            quote(s.kind.name()),
            s.start_ns,
            s.end_ns,
            s.txn
        );
    }
    out
}

// ----------------------------------------------------------------------
// Reading results back
// ----------------------------------------------------------------------

/// One run as read from a result file.
#[derive(Debug, Clone)]
struct ReadRun {
    workload: String,
    trace: bool,
    fixed_requests: bool,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
    raw: Json,
}

fn read_run(v: &Json) -> Result<ReadRun, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks \"{k}\""));
    let numbers = |obj: &Json, inner: Option<&str>| -> BTreeMap<String, f64> {
        obj.as_obj()
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| {
                        let v = match inner {
                            Some(key) => v.get(key)?,
                            None => v,
                        };
                        Some((k.clone(), v.as_f64()?))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    Ok(ReadRun {
        workload: field("workload")?
            .as_str()
            .ok_or("\"workload\" is not a string")?
            .to_string(),
        trace: field("trace")?.as_f64() == Some(1.0),
        fixed_requests: field("length")?.get("requests").is_some(),
        correct: field("correct")? == &Json::Bool(true),
        metrics: numbers(field("metrics")?, Some("value")),
        exact: numbers(field("exact")?, None),
        raw: v.clone(),
    })
}

/// Reads a result file: either one run, or a summary holding `"runs"`.
fn read_runs(path: &Path) -> Result<Vec<ReadRun>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    match v.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().map(read_run).collect(),
        None => Ok(vec![read_run(&v)?]),
    }
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    v.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{} has no \"end_to_end\" list", path.display()))?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Median per (workload, metric) over the untraced runs of a set of files.
fn medians(paths: &[&Path]) -> Result<BTreeMap<(String, String), f64>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths {
        for run in read_runs(path)? {
            if run.trace {
                continue;
            }
            if !run.correct {
                return Err(format!(
                    "{}: workload {} failed its correctness checks",
                    path.display(),
                    run.workload
                ));
            }
            for (name, v) in run.metrics {
                values
                    .entry((run.workload.clone(), name))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values.into_iter().map(|(k, v)| (k, median(&v))).collect())
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when it is better).
pub fn worse_by(bound: &Bound, base: f64, candidate: f64) -> f64 {
    let delta = if bound.higher_is_better {
        base - candidate
    } else {
        candidate - base
    };
    delta / base.abs().max(f64::MIN_POSITIVE)
}

/// Applies the bounds to the medians of two result sets. Returns the report
/// and whether every metric of every workload stayed within its bound.
pub fn compare(
    base: &[&Path],
    candidate: &[&Path],
    bounds: &[Bound],
) -> Result<(String, bool), String> {
    let a = medians(base)?;
    let b = medians(candidate)?;
    let mut out = String::new();
    let mut ok = true;
    let mut compared = 0;
    for ((workload, metric), base_value) in &a {
        let Some(bound) = bounds.iter().find(|b| &b.name == metric) else {
            continue;
        };
        let Some(candidate_value) = b.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(
                out,
                "{workload} {metric}: missing from the second set  FAILED"
            );
            ok = false;
            continue;
        };
        let worse = worse_by(bound, *base_value, *candidate_value);
        let within = worse <= bound.bound;
        ok &= within;
        compared += 1;
        let _ = writeln!(
            out,
            "{workload} {metric}: {base_value:.4} -> {candidate_value:.4} ({:+.2} % worse, bound {:.0} %)  {}",
            worse * 100.0,
            bound.bound * 100.0,
            if within { "ok" } else { "FAILED" }
        );
    }
    if compared == 0 {
        return Err("the two result sets share no bounded metric".to_string());
    }
    Ok((out, ok))
}

/// The count-derived values must be bit-identical in every fixed-count run
/// of a workload, traced or not, in every file given.
pub fn exact_counts_agree(paths: &[&Path]) -> Result<(String, bool), String> {
    let mut seen: BTreeMap<(String, String), (f64, String)> = BTreeMap::new();
    let mut out = String::new();
    let mut ok = true;
    for path in paths {
        for run in read_runs(path)? {
            if !run.fixed_requests {
                continue;
            }
            for (name, v) in &run.exact {
                let key = (run.workload.clone(), name.clone());
                let label = format!("{} trace={}", path.display(), u8::from(run.trace));
                match seen.get(&key) {
                    None => {
                        seen.insert(key, (*v, label));
                    }
                    Some((first, first_label)) if first.to_bits() != v.to_bits() => {
                        ok = false;
                        let _ = writeln!(
                            out,
                            "{} {name}: {first} ({first_label}) != {v} ({label})  FAILED",
                            run.workload
                        );
                    }
                    Some(_) => {}
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "exact counts: {} (workload, metric) pairs {}",
        seen.len(),
        if ok {
            "identical in every run"
        } else {
            "DIFFER"
        }
    );
    Ok((out, ok))
}

/// Folds the per-run files of one `run_benchmark.sh` invocation into a
/// summary: derived ratios across runs, the cross-pass checks, and the
/// combined JSON document.
pub fn summarize(paths: &[&Path], unix_time: u64) -> Result<(String, String, bool), String> {
    let mut runs = Vec::new();
    for path in paths {
        runs.extend(read_runs(path)?);
    }
    let rate = |workload: &str, trace: bool| {
        runs.iter()
            .find(|r| r.workload == workload && r.trace == trace)
            .and_then(|r| {
                r.metrics
                    .get("txn_per_s")
                    .or_else(|| r.metrics.get("trace.txn_per_s"))
                    .copied()
            })
    };
    let mut text = String::new();
    let mut derived = Vec::new();
    let mut ok = runs.iter().all(|r| r.correct);
    for r in runs.iter().filter(|r| !r.correct) {
        let _ = writeln!(
            text,
            "{} trace={}: correctness checks FAILED",
            r.workload,
            u8::from(r.trace)
        );
    }
    if let (Some(cached), Some(uncached)) =
        (rate("rubis_bidding", false), rate("rubis_nocache", false))
    {
        let speedup = cached / uncached;
        let _ = writeln!(
            text,
            "derived cache_speedup {speedup:.4} ratio  (rubis_bidding {cached:.0} / rubis_nocache {uncached:.0} txn/s)"
        );
        derived.push(format!("\"cache_speedup\": {}", number(speedup)));
    }
    let workloads: Vec<String> = {
        let mut w: Vec<String> = runs.iter().map(|r| r.workload.clone()).collect();
        w.dedup();
        w
    };
    for workload in &workloads {
        if let (Some(untraced), Some(traced)) = (rate(workload, false), rate(workload, true)) {
            // Reported, not enforced: one traced and one untraced process
            // differ by a few percent either way on a shared host, so a
            // single pair cannot resolve an overhead of this size.
            let overhead = 1.0 - traced / untraced;
            let _ = writeln!(
                text,
                "{workload} trace.overhead_frac {overhead:.4} ratio  (traced {traced:.0} / untraced {untraced:.0} txn/s)  {}",
                if overhead <= 0.05 { "ok" } else { "above the 0.05 target" }
            );
            derived.push(format!(
                "{}: {}",
                quote(&format!("{workload}.trace.overhead_frac")),
                number(overhead)
            ));
        }
    }
    let (exact_text, exact_ok) = exact_counts_agree(paths)?;
    text.push_str(&exact_text);
    ok &= exact_ok;
    let host = runs
        .first()
        .and_then(|r| r.raw.get("host"))
        .map_or("null".to_string(), render);
    let run_docs: Vec<String> = runs.iter().map(|r| render(&r.raw)).collect();
    let json = format!(
        "{{\"benchmark\": \"e2e_rubis\", \"unix_time\": {unix_time}, \"correct\": {ok}, \"host\": {host}, \"derived\": {{{}}}, \"runs\": [\n{}\n]}}\n",
        derived.join(", "),
        run_docs.join(",\n")
    );
    Ok((text, json, ok))
}

/// Serializes a parsed value back to JSON text.
fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => number(*n),
        Json::Str(s) => quote(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("{}: {}", quote(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, trace: bool, txn_per_s: f64, hit_rate: f64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed: 42,
            trace,
            length: ("requests", 1000),
            host: Host {
                nproc: 2,
                kernel: "6.1".to_string(),
                wal_fs: "ext4".to_string(),
                fsync_policy: "GroupCommit { max_wait_us: 100 }".to_string(),
                commit: "abc".to_string(),
            },
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("txn_per_s", txn_per_s, "1/s").with_samples(1000),
                Metric::new("txn_p50_us", 1e6 / txn_per_s, "us").with_samples(1000),
            ],
            exact: vec![("hit_rate", hit_rate)],
            checks: vec![Check {
                name: "snapshot_audit",
                ok: true,
                detail: "0 \"violations\"".to_string(),
            }],
            budget: trace.then(Budget::default),
        }
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "txn_per_s".to_string(),
                higher_is_better: true,
                bound: 0.08,
            },
            Bound {
                name: "txn_p50_us".to_string(),
                higher_is_better: false,
                bound: 0.08,
            },
        ]
    }

    fn write(dir: &Path, name: &str, text: &str) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("e2e_rubis-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = result("w", false, 4000.5, 0.67).contract_line();
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("txn_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(4000.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn result_json_round_trips_through_compare() {
        let dir = scratch("compare");
        let a = write(&dir, "a.json", &result("w", false, 4000.0, 0.67).to_json());
        let same = write(
            &dir,
            "same.json",
            &result("w", false, 3900.0, 0.67).to_json(),
        );
        let slow = write(
            &dir,
            "slow.json",
            &result("w", false, 3000.0, 0.67).to_json(),
        );
        let (text, ok) = compare(&[&a], &[&same], &bounds()).unwrap();
        assert!(ok, "{text}");
        assert!(text.contains("w txn_per_s: 4000.0000 -> 3900.0000 (+2.50 % worse"));
        let (text, ok) = compare(&[&a], &[&slow], &bounds()).unwrap();
        assert!(!ok);
        assert!(text.contains("FAILED"));
        // Medians: one slow run among three does not fail the set.
        let (_, ok) = compare(&[&a], &[&same, &slow, &a], &bounds()).unwrap();
        assert!(ok);
        // Better is never a regression, whatever the size.
        let (_, ok) = compare(&[&slow], &[&a], &bounds()).unwrap();
        assert!(ok);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let b = bounds();
        assert!((worse_by(&b[0], 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(&b[0], 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(&b[1], 100.0, 110.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn summary_derives_ratios_and_checks_exact_counts_across_passes() {
        let dir = scratch("summary");
        let files = [
            write(
                &dir,
                "b0.json",
                &result("rubis_bidding", false, 4000.0, 0.67).to_json(),
            ),
            write(
                &dir,
                "b1.json",
                &result("rubis_bidding", true, 3900.0, 0.67).to_json(),
            ),
            write(
                &dir,
                "n0.json",
                &result("rubis_nocache", false, 8000.0, 0.0).to_json(),
            ),
        ];
        let paths: Vec<&Path> = files.iter().map(|p| p.as_path()).collect();
        let (text, json, ok) = summarize(&paths, 1_700_000_000).unwrap();
        assert!(ok, "{text}");
        assert!(text.contains("derived cache_speedup 0.5000"));
        assert!(text.contains("rubis_bidding trace.overhead_frac 0.0250"));
        let summary = write(&dir, "BENCH.json", &json);
        // The summary reads back as a result set.
        let (_, ok) = compare(&[&summary], &[&files[0], &files[2]], &bounds()).unwrap();
        assert!(ok);
        // A traced pass that saw another hit rate is caught.
        let odd = write(
            &dir,
            "b1.json",
            &result("rubis_bidding", true, 3900.0, 0.68).to_json(),
        );
        let (text, ok) = exact_counts_agree(&[&files[0], &odd]).unwrap();
        assert!(!ok);
        assert!(text.contains("hit_rate"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_lines_are_json() {
        let spans = [
            Span {
                kind: crate::spans::SpanKind::Interaction,
                start_ns: 5,
                end_ns: 50,
                parent: NO_PARENT,
                txn: 3,
            },
            Span {
                kind: crate::spans::SpanKind::Lookup,
                start_ns: 10,
                end_ns: 20,
                parent: 0,
                txn: 3,
            },
        ];
        let text = trace_jsonl(&spans);
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            lines[1].get("name").unwrap().as_str(),
            Some("backend.lookup")
        );
        assert_eq!(lines[1].get("txn").unwrap().as_f64(), Some(3.0));
    }
}
