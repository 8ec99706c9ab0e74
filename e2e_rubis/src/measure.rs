//! Before/after snapshots of the repository's own registries, and the
//! end-to-end metrics of a measured window.

use cache_server::CacheStats;
use mvdb::DbStats;
use obs::{HistogramSnapshot, MetricsSnapshot};
use txcache::ClientStats;

use crate::driver::{Phase, Sample};
use crate::stack::Stack;
use crate::stats::{hist_delta, percentile, ratio};

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and ratios of counters).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
        }
    }

    pub fn with_samples(mut self, samples: u64) -> Metric {
        self.samples = samples;
        self
    }
}

/// Every counter the layers already keep, read at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub client: ClientStats,
    pub cache: CacheStats,
    pub db: DbStats,
    pub db_metrics: MetricsSnapshot,
    pub wal_bytes: u64,
    pub degraded_ops: u64,
    /// `RemoteCluster::metrics`; empty on the no-caching baseline.
    pub remote: MetricsSnapshot,
    /// `TxcachedServer::metrics`, counters summed and histograms merged
    /// across the nodes.
    pub servers: MetricsSnapshot,
}

impl Snapshot {
    /// `opening` snapshots are taken *after* the `Stats` exchange that reads
    /// the node counters and closing ones *before* it, so the exchange
    /// itself never lands inside a window.
    pub fn take(stack: &Stack, opening: bool) -> Snapshot {
        let node_stats = || stack.txcache.cache().stats();
        let early = opening.then(node_stats);
        let mut servers = MetricsSnapshot::default();
        for server in &stack.servers {
            merge_metrics(&mut servers, &server.metrics());
        }
        let mut snapshot = Snapshot {
            client: stack.txcache.stats(),
            cache: CacheStats::default(),
            db: stack.db.stats(),
            db_metrics: stack.db.metrics(),
            wal_bytes: stack.db.wal_bytes(),
            degraded_ops: stack.remote.as_ref().map_or(0, |r| r.degraded_ops()),
            remote: stack
                .remote
                .as_ref()
                .map(|r| r.metrics())
                .unwrap_or_default(),
            servers,
        };
        snapshot.cache = early.unwrap_or_else(node_stats);
        snapshot
    }
}

/// Adds `other` into `into`: counters and gauges by name, histograms merged.
fn merge_metrics(into: &mut MetricsSnapshot, other: &MetricsSnapshot) {
    for (name, v) in &other.counters {
        match into.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += v,
            None => into.counters.push((name.clone(), *v)),
        }
    }
    for (name, v) in &other.gauges {
        match into.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += v,
            None => into.gauges.push((name.clone(), *v)),
        }
    }
    for (name, h) in &other.histograms {
        match into.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => total.merge(h),
            None => into.histograms.push((name.clone(), h.clone())),
        }
    }
}

/// A window's before/after pair.
#[derive(Debug, Clone)]
pub struct Window {
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Window {
    pub fn db_hist(&self, name: &str) -> HistogramSnapshot {
        hist_delta(&self.before.db_metrics, &self.after.db_metrics, name)
    }

    pub fn client_hist(&self, name: &str) -> HistogramSnapshot {
        hist_delta(&self.before.remote, &self.after.remote, name)
    }

    pub fn server_hist(&self, name: &str) -> HistogramSnapshot {
        hist_delta(&self.before.servers, &self.after.servers, name)
    }

    pub fn hit_rate(&self) -> f64 {
        ratio(
            (self.after.client.cache_hits - self.before.client.cache_hits) as f64,
            (self.after.client.cacheable_calls - self.before.client.cacheable_calls) as f64,
        )
    }

    pub fn db_queries(&self) -> u64 {
        self.after.client.db_queries - self.before.client.db_queries
    }

    pub fn rw_transactions(&self) -> u64 {
        self.after.client.rw_transactions - self.before.client.rw_transactions
    }

    pub fn wal_bytes(&self) -> u64 {
        self.after.wal_bytes - self.before.wal_bytes
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The selected successful samples' latencies, ascending.
fn sorted_latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut sorted: Vec<u64> = samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.latency_ns)
        .collect();
    sorted.sort_unstable();
    sorted
}

/// Exact p50 and p99 of the selected samples' latencies, in microseconds.
/// A percentile without ten samples beyond it is left out.
fn latency_percentiles(
    samples: &[Sample],
    prefix: &str,
    keep: impl Fn(&Sample) -> bool,
) -> Vec<Metric> {
    let sorted = sorted_latencies(samples, keep);
    [("p50", 0.50), ("p99", 0.99)]
        .into_iter()
        .filter_map(|(label, p)| {
            percentile(&sorted, p).map(|ns| {
                Metric::new(format!("{prefix}_{label}_us"), micros(ns), "us")
                    .with_samples(sorted.len() as u64)
            })
        })
        .collect()
}

/// Interactions completed per second of the window's wall time,
/// `pump_invalidations`, `maintenance` and `vacuum` included.
pub fn txn_per_s(phase: &Phase) -> f64 {
    ratio(phase.samples.len() as f64, phase.wall_ns as f64 / 1e9)
}

/// p50 of one interaction's latency, 0 when it has too few samples.
pub fn interaction_p50_us(phase: &Phase, interaction: rubis::Interaction) -> Metric {
    let sorted = sorted_latencies(&phase.samples, |s| s.interaction == interaction);
    Metric::new(
        format!("rubis.{}_p50_us", snake(&format!("{interaction:?}"))),
        percentile(&sorted, 0.50).map_or(0.0, micros),
        "us",
    )
    .with_samples(sorted.len() as u64)
}

/// `SearchItemsInCategory` → `search_items_in_category`.
fn snake(camel: &str) -> String {
    let mut out = String::new();
    for (i, c) in camel.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Latency percentiles by transaction type: `ro_p50_us`, `ro_p99_us`,
/// `rw_p50_us`, `rw_p99_us` (those with enough samples).
pub fn percentiles_by_type(phase: &Phase) -> Vec<Metric> {
    let mut out = latency_percentiles(&phase.samples, "ro", |s| s.interaction.is_read_only());
    out.extend(latency_percentiles(&phase.samples, "rw", |s| {
        !s.interaction.is_read_only()
    }));
    out
}

/// The metrics a user of the system sees, from an untraced window.
pub fn end_to_end(phase: &Phase, window: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let n = phase.samples.len() as u64;
    let mut out = vec![Metric::new("txn_per_s", txn_per_s(phase), "1/s").with_samples(n)];
    out.extend(latency_percentiles(&phase.samples, "txn", |_| true));
    out.extend(
        latency_percentiles(&phase.samples, "ro", |s| s.interaction.is_read_only())
            .into_iter()
            .filter(|m| m.name == "ro_p50_us"),
    );
    out.push(Metric::new(
        "db_queries_per_txn",
        ratio(window.db_queries() as f64, n as f64),
        "1/txn",
    ));
    out.push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    out.push(Metric::new("setup_s", setup_s, "s"));
    out
}

/// `VmHWM` of this process, in megabytes (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubis::Interaction;

    fn sample(latency_ns: u64, interaction: Interaction) -> Sample {
        Sample {
            latency_ns,
            interaction,
            ok: true,
            db_queries: 0,
            db_pages: 0,
        }
    }

    #[test]
    fn txn_per_s_is_interactions_over_wall_time_stalls_included() {
        let phase = Phase {
            wall_ns: 2_000_000_000,
            samples: vec![sample(50_000, Interaction::Home); 3_000],
            first_error: None,
        };
        assert_eq!(txn_per_s(&phase), 1_500.0);
    }

    #[test]
    fn percentiles_split_by_transaction_type_and_skip_thin_tails() {
        let mut samples: Vec<Sample> = (1..=2000)
            .map(|i| sample(i * 1_000, Interaction::ViewItem))
            .collect();
        samples.extend((1..=15).map(|i| sample(1_000_000 + i, Interaction::StoreBid)));
        let phase = Phase {
            wall_ns: 2000,
            samples,
            first_error: None,
        };
        let ro = latency_percentiles(&phase.samples, "ro", |s| s.interaction.is_read_only());
        assert_eq!(ro.len(), 2);
        assert_eq!((ro[0].name.as_str(), ro[0].value), ("ro_p50_us", 1000.0));
        assert_eq!((ro[1].name.as_str(), ro[1].value), ("ro_p99_us", 1980.0));
        assert_eq!(ro[0].samples, 2000);
        // 15 read/write samples: not even a median has ten samples beyond it.
        assert!(percentiles_by_type(&phase)
            .iter()
            .all(|m| m.name.starts_with("ro_")));
        assert_eq!(
            interaction_p50_us(&phase, Interaction::ViewItem).name,
            "rubis.view_item_p50_us"
        );
        assert_eq!(interaction_p50_us(&phase, Interaction::AboutMe).value, 0.0);
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
