//! Server-side observability: per-opcode latency histograms, queue-depth
//! gauges, and the slow-op flight recorder, built on the `obs` crate.
//!
//! Every request — whether it came through the epoll event loop or the
//! thread-per-connection path the chaos tests use — funnels through
//! [`apply_timed`], which times the dispatch, records the latency into the
//! opcode's histogram, and hands the trace to the [`obs::SlowOpRing`]. The
//! whole layer sits behind [`crate::NodeConfig::metrics`]: with metrics off
//! the server takes no clock readings at all (the no-op mode the
//! instrumentation-overhead benchmark compares against).
//!
//! Metric names follow the `component.subject.unit` scheme from the `obs`
//! crate docs: `server.req.<op>.us` for request latency,
//! `server.queue.depth` for undispatched work, `server.backpressure.pauses`
//! for paused reads, `server.slow_ops.captured` for the flight recorder.

use std::sync::Arc;

use obs::{Gauge, Histogram, MetricsSnapshot, Registry, SlowOpRing, StripedCounter, Trace};
use wire::{HistogramReport, MetricsReport, Request, Response};

use crate::node::NodeConfig;
use crate::server::{apply_request, Shared};

/// How many slow operations the flight recorder retains.
const SLOW_OP_RING_CAP: usize = 64;

/// The server's observability state, shared by every connection.
#[derive(Debug)]
pub(crate) struct ServerObs {
    /// With metrics off every per-request clock read is skipped; only the
    /// pre-existing relaxed counters keep running.
    pub(crate) enabled: bool,
    /// Test hook: hold every request for this many microseconds before
    /// dispatch, so tests can drive the slow-op recorder deterministically
    /// (the observability mirror of the chaos tests'
    /// `disable_seal_on_heal_for_fault_injection`).
    pub(crate) inject_delay_us: u64,
    pub(crate) registry: Registry,
    /// Cached handles, one per opcode (mixing a 4 µs ping with a 4 ms
    /// multiget in one distribution would hide both), indexed by
    /// [`Request::op_index`]: the hot path never touches the registry lock.
    req_us: [Arc<Histogram>; Request::LABELS.len()],
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) backpressure_pauses: Arc<StripedCounter>,
    slow_ops_captured: Arc<StripedCounter>,
    pub(crate) slow_ops: SlowOpRing,
}

impl ServerObs {
    pub(crate) fn new(config: &NodeConfig) -> ServerObs {
        let registry = Registry::new();
        let req_us = std::array::from_fn(|i| {
            registry.histogram(&format!("server.req.{}.us", Request::LABELS[i]))
        });
        let queue_depth = registry.gauge("server.queue.depth");
        let backpressure_pauses = registry.counter("server.backpressure.pauses");
        let slow_ops_captured = registry.counter("server.slow_ops.captured");
        ServerObs {
            enabled: config.metrics,
            inject_delay_us: config.inject_delay_us,
            registry,
            req_us,
            queue_depth,
            backpressure_pauses,
            slow_ops_captured,
            slow_ops: SlowOpRing::new(SLOW_OP_RING_CAP, config.slow_op_threshold_us),
        }
    }

    /// A trace for a freshly parsed request, or `None` when metrics are off
    /// (no clock read happens at all).
    pub(crate) fn trace(&self, seq: u64) -> Option<Trace> {
        self.enabled.then(|| Trace::start(seq))
    }

    /// Just the request arrival instant, or `None` when metrics are off.
    /// The event loop ships this 16-byte value to a worker and resumes the
    /// trace there ([`Trace::resume`]), keeping the span array off the
    /// reactor→worker channel.
    pub(crate) fn trace_start(&self) -> Option<std::time::Instant> {
        self.enabled.then(std::time::Instant::now)
    }
}

/// Dispatches a request with latency recording and slow-op capture. `trace`
/// is `None` when metrics are disabled (or, defensively, when a caller had
/// no trace to thread through); the request then dispatches untimed.
pub(crate) fn apply_timed(shared: &Shared, request: Request, trace: Option<Trace>) -> Response {
    let Some(mut trace) = trace else {
        return apply_request(shared, request);
    };
    if shared.obs.inject_delay_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(shared.obs.inject_delay_us));
        trace.span("injected_delay");
    }
    let op = request.op_index();
    let response = apply_request(shared, request);
    // One clock read serves the "applied" span, the latency histogram, and
    // the slow-op threshold check.
    let total_us = trace.elapsed_us();
    trace.span_at("applied", total_us);
    shared.obs.req_us[op].record(total_us);
    if shared
        .obs
        .slow_ops
        .observe_at(Request::LABELS[op], trace, total_us)
    {
        shared.obs.slow_ops_captured.bump();
    }
    response
}

/// The full metrics snapshot a `Metrics` request answers with: the obs
/// registry plus the node-wide protocol counters, merged into one sorted
/// namespace.
pub(crate) fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut snap = shared.obs.registry.snapshot();
    let s = &shared.counters;
    let accepted = s
        .connections_accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    snap.counters.extend([
        ("server.bytes.in".to_string(), s.bytes_in.get()),
        ("server.bytes.out".to_string(), s.bytes_out.get()),
        ("server.conns.accepted".to_string(), accepted),
        (
            "server.conns.closed".to_string(),
            s.connections_closed.get(),
        ),
        (
            "server.inval.batches".to_string(),
            s.invalidation_batches.get(),
        ),
        (
            "server.protocol.errors".to_string(),
            s.protocol_errors.get(),
        ),
        ("server.req.total".to_string(), s.requests.get()),
    ]);
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

/// Converts a registry snapshot into its wire mirror (sparse histogram
/// buckets; see [`wire::MetricsReport`]).
pub(crate) fn to_wire(snap: MetricsSnapshot) -> MetricsReport {
    MetricsReport {
        counters: snap.counters,
        gauges: snap.gauges,
        histograms: snap
            .histograms
            .into_iter()
            .map(|(name, h)| HistogramReport {
                name,
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                buckets: h.to_sparse(),
            })
            .collect(),
    }
}

/// Rebuilds a local snapshot from the wire mirror — the client-side decode
/// used by `txcached --metrics` and the obs-smoke test.
#[must_use]
pub fn snapshot_from_wire(report: &MetricsReport) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: report.counters.clone(),
        gauges: report.gauges.clone(),
        histograms: report
            .histograms
            .iter()
            .map(|h| {
                (
                    h.name.clone(),
                    obs::HistogramSnapshot::from_sparse(h.count, h.sum, h.min, h.max, &h.buckets),
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_labels_are_distinct_and_indexed_consistently() {
        // One histogram per opcode, under the frozen `server.req.<op>.us`
        // names, each reached through the request's own slot.
        let obs = ServerObs::new(&NodeConfig::default());
        let snap = obs.registry.snapshot();
        let per_op = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("server.req."))
            .count();
        assert_eq!(per_op, Request::LABELS.len());
        obs.req_us[Request::Metrics.op_index()].record(7);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.histogram("server.req.metrics.us").unwrap().count, 1);
        assert_eq!(snap.histogram("server.req.stats.us").unwrap().count, 0);
    }

    #[test]
    fn wire_roundtrip_preserves_the_snapshot() {
        let r = Registry::new();
        r.counter("server.conns.accepted").add(3);
        r.gauge("server.queue.depth").set(-1);
        for v in [10, 500, 90_000] {
            r.histogram("server.req.get.us").record(v);
        }
        let snap = r.snapshot();
        let back = snapshot_from_wire(&to_wire(snap.clone()));
        assert_eq!(back, snap);
    }
}
