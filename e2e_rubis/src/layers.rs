//! Per-layer metrics of a traced window, and the time budget.
//!
//! Three sources, as the README tabulates: *spans* recorded by the driver
//! and [`TimedBackend`](crate::spans::TimedBackend); *deltas* of the
//! registries the layers already keep; and a *replay* of the recorded call
//! stream against one layer alone (the wire codec; an in-process
//! `CacheCluster` of the same capacity).

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use cache_server::{CacheCluster, LookupOutcome, NodeConfig};
use rubis::Interaction;
use txcache::backend::CacheBackend;
use wire::{GetResult, InvalidationEvent, PutEntry, Request, Response};

use crate::driver::Phase;
use crate::measure::{interaction_p50_us, percentiles_by_type, txn_per_s, Metric, Window};
use crate::spans::{self_times_ns, Call, Span, SpanKind};
use crate::stack::CACHE_NODES;
use crate::stats::{counter_delta, ratio};

/// Where the mean loop time of one request went, in microseconds per
/// transaction. The columns partition the loop: they sum to `loop_us` up to
/// the driver's own bookkeeping between spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    pub loop_us: f64,
    pub core_self: f64,
    pub wire_transit: f64,
    pub wire_codec: f64,
    pub server_req: f64,
    pub mvdb_query: f64,
    pub mvdb_commit: f64,
    /// Part of `mvdb_commit` spent waiting for the WAL fsync.
    pub mvdb_fsync: f64,
    pub mvdb_vacuum: f64,
    pub core_backend_inval: f64,
    pub core_pump_maintenance: f64,
}

impl Budget {
    pub const COLUMNS: [&'static str; 9] = [
        "core.self",
        "wire.transit",
        "wire.codec",
        "server.req",
        "mvdb.query",
        "mvdb.commit",
        "mvdb.vacuum",
        "core.backend_inval",
        "core.pump+maintenance",
    ];

    pub fn columns(&self) -> [f64; 9] {
        [
            self.core_self,
            self.wire_transit,
            self.wire_codec,
            self.server_req,
            self.mvdb_query,
            self.mvdb_commit,
            self.mvdb_vacuum,
            self.core_backend_inval,
            self.core_pump_maintenance,
        ]
    }

    pub fn sum(&self) -> f64 {
        self.columns().iter().sum()
    }

    /// The table printed per workload.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "budget {workload}: mean loop time {:.2} us/txn, columns sum {:.2} us/txn ({:+.2} %)\n",
            self.loop_us,
            self.sum(),
            (ratio(self.sum(), self.loop_us) - 1.0) * 100.0
        );
        for (name, value) in Budget::COLUMNS.iter().zip(self.columns()) {
            let note = if *name == "mvdb.commit" {
                format!("   (of which fsync {:.2})", self.mvdb_fsync)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "budget {workload}:   {name:<22}{value:>10.2} us/txn{:>7.1} %{note}\n",
                ratio(value, self.loop_us) * 100.0
            ));
        }
        out
    }
}

/// Time the replayed call stream took in one layer alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub codec_lookup_ns: u64,
    pub codec_insert_ns: u64,
    pub codec_inval_ns: u64,
    pub frames: u64,
    pub node_lookup_ns: u64,
    pub node_lookups: u64,
    pub node_insert_ns: u64,
    pub node_inserts: u64,
    pub node_inval_ns: u64,
    pub node_inval_msgs: u64,
    /// Lookups whose hit/miss outcome on the replayed in-process node
    /// differs from what the `txcached` nodes answered.
    pub outcome_mismatches: u64,
}

/// The request and response frames one recorded call puts on the wire (per
/// node it is sent to). `outcomes` are a lookup's answers, from the node
/// the call was just replayed against.
fn frames_of(call: &Call, outcomes: &[LookupOutcome]) -> (Request, Response) {
    match call {
        Call::Lookup { keys, request, .. } if keys.len() == 1 => (
            Request::VersionedGet {
                key: keys[0].clone(),
                pinset_lo: request.pinset_lo,
                pinset_hi: request.pinset_hi,
                freshness_lo: request.freshness_lo,
            },
            match outcomes[0].clone() {
                LookupOutcome::Hit {
                    value,
                    validity,
                    stored_validity,
                    tags,
                } => Response::Hit {
                    value,
                    validity,
                    stored_validity,
                    tags,
                },
                LookupOutcome::Miss(kind) => Response::Miss { kind: kind.into() },
            },
        ),
        Call::Lookup { keys, request, .. } => (
            Request::MultiGet {
                epoch: 0,
                keys: keys.clone(),
                pinset_lo: request.pinset_lo,
                pinset_hi: request.pinset_hi,
                freshness_lo: request.freshness_lo,
            },
            Response::MultiGetResult {
                results: outcomes
                    .iter()
                    .cloned()
                    .map(|o| match o {
                        LookupOutcome::Hit {
                            value,
                            validity,
                            stored_validity,
                            tags,
                        } => GetResult::Hit {
                            value,
                            validity,
                            stored_validity,
                            tags,
                        },
                        LookupOutcome::Miss(kind) => GetResult::Miss { kind: kind.into() },
                    })
                    .collect(),
            },
        ),
        Call::Insert { entries, now } if entries.len() == 1 => {
            let (key, value, validity, tags) = entries[0].clone();
            (
                Request::Put {
                    key,
                    value,
                    validity,
                    tags,
                    now: *now,
                },
                Response::PutAck,
            )
        }
        Call::Insert { entries, now } => (
            Request::MultiPut {
                epoch: 0,
                entries: entries
                    .iter()
                    .cloned()
                    .map(|(key, value, validity, tags)| PutEntry {
                        key,
                        value,
                        validity,
                        tags,
                        now: *now,
                    })
                    .collect(),
            },
            Response::MultiPutAck {
                applied: entries.len() as u64,
            },
        ),
        Call::Invalidate { batch, heartbeat } => (
            Request::InvalidationBatch {
                events: batch
                    .iter()
                    .map(|m| InvalidationEvent {
                        timestamp: m.timestamp,
                        tags: m.tags.clone(),
                    })
                    .collect(),
                heartbeat: *heartbeat,
            },
            Response::InvalidationAck {
                applied: batch.len() as u64,
            },
        ),
        Call::EvictStale { min_useful_ts } => (
            Request::EvictStale {
                min_useful_ts: *min_useful_ts,
            },
            Response::Ok,
        ),
    }
}

/// Encodes and decodes one exchange as both ends of the wire do, returning
/// the nanoseconds it took.
fn codec_round_ns(request: &Request, response: &Response) -> u64 {
    let started = Instant::now();
    let request_frame = Bytes::from(black_box(request).encode());
    black_box(Request::decode_shared(&request_frame).expect("own frame decodes"));
    let response_frame = Bytes::from(black_box(response).encode());
    black_box(Response::decode_shared(&response_frame).expect("own frame decodes"));
    started.elapsed().as_nanos() as u64
}

/// Replays the recorded stream: every call warms an in-process cluster in
/// the order the library issued it, and the calls from `window_start` on
/// are timed.
pub fn replay(calls: &[Call], window_start: usize, node_capacity_bytes: usize) -> Replay {
    let cluster = CacheCluster::with_config(
        CACHE_NODES,
        NodeConfig {
            capacity_bytes: node_capacity_bytes,
            ..NodeConfig::default()
        },
    );
    let mut out = Replay::default();
    for (i, call) in calls.iter().enumerate() {
        let timed = i >= window_start;
        // The node first: a lookup's response frame carries what it answers.
        let mut outcomes = Vec::new();
        match call {
            Call::Lookup {
                keys,
                request,
                hits,
            } => {
                let started = Instant::now();
                outcomes = cluster.lookup_many(keys, request);
                if timed {
                    out.node_lookup_ns += started.elapsed().as_nanos() as u64;
                    out.node_lookups += keys.len() as u64;
                    out.outcome_mismatches += outcomes
                        .iter()
                        .zip(hits)
                        .filter(|(replayed, hit)| replayed.is_hit() != **hit)
                        .count() as u64;
                }
            }
            Call::Insert { entries, now } => {
                let entries = entries.clone();
                let count = entries.len() as u64;
                let started = Instant::now();
                cluster.insert_many(entries, *now);
                if timed {
                    out.node_insert_ns += started.elapsed().as_nanos() as u64;
                    out.node_inserts += count;
                }
            }
            Call::Invalidate { batch, heartbeat } => {
                let started = Instant::now();
                cluster.apply_invalidations(batch, *heartbeat);
                if timed {
                    out.node_inval_ns += started.elapsed().as_nanos() as u64;
                    out.node_inval_msgs += batch.len() as u64;
                }
            }
            Call::EvictStale { min_useful_ts } => {
                CacheBackend::evict_stale(&cluster, *min_useful_ts);
            }
        }
        if timed {
            let (request, response) = frames_of(call, &outcomes);
            let ns = codec_round_ns(&request, &response);
            match call {
                Call::Lookup { .. } => out.codec_lookup_ns += ns,
                Call::Insert { .. } => out.codec_insert_ns += ns,
                Call::Invalidate { .. } | Call::EvictStale { .. } => out.codec_inval_ns += ns,
            }
            out.frames += 2;
        }
    }
    out
}

/// Total duration of the window's spans of one kind, in nanoseconds.
fn span_total_ns(spans: &[Span], kind: SpanKind) -> u64 {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(Span::duration_ns)
        .sum()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Everything a traced window yields.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub budget: Budget,
}

/// What a run measures outside its window.
#[derive(Debug, Clone, Copy)]
pub struct Outside {
    pub warmup_s: f64,
    pub recover_s: f64,
    /// `ClosingState::leaked_pins`.
    pub leaked_pins: u64,
}

/// Derives the per-layer metrics and the budget. `spans` and `calls` are
/// the window's own (warm-up excluded); `replay` covers the same calls.
pub fn per_layer(
    phase: &Phase,
    window: &Window,
    spans: &[Span],
    calls: &[Call],
    replay: &Replay,
    outside: Outside,
) -> LayerReport {
    let txns = phase.samples.len() as f64;
    let per_txn = |total: f64| ratio(total, txns);
    let before = &window.before;
    let after = &window.after;
    let client =
        |f: fn(&txcache::ClientStats) -> u64| (f(&after.client) - f(&before.client)) as f64;
    let cache =
        |f: fn(&cache_server::CacheStats) -> u64| (f(&after.cache) - f(&before.cache)) as f64;
    let db = |f: fn(&mvdb::DbStats) -> u64| (f(&after.db) - f(&before.db)) as f64;

    // ---- spans -------------------------------------------------------
    let self_ns = self_times_ns(spans);
    let self_total = |kind: SpanKind| -> u64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, ns)| *ns)
            .sum()
    };
    let lookup_ns = span_total_ns(spans, SpanKind::Lookup);
    let insert_ns = span_total_ns(spans, SpanKind::Insert);
    let inval_ns =
        span_total_ns(spans, SpanKind::Invalidate) + span_total_ns(spans, SpanKind::EvictStale);
    let pump_self_ns = self_total(SpanKind::Pump);
    let maintenance_self_ns = self_total(SpanKind::Maintenance);
    let vacuum_ns = span_total_ns(spans, SpanKind::Vacuum);
    let interaction_self_ns = self_total(SpanKind::Interaction);

    let (lookup_calls, lookup_keys) = calls
        .iter()
        .filter_map(|c| match c {
            Call::Lookup { keys, .. } => Some(keys.len() as u64),
            _ => None,
        })
        .fold((0u64, 0u64), |(n, k), len| (n + 1, k + len));

    // ---- deltas ------------------------------------------------------
    let query = window.db_hist("db.query.us");
    let commit = window.db_hist("db.commit.us");
    let fsync = window.db_hist("db.fsync.us");
    let rtt = |op: &str| window.client_hist(&format!("client.rtt.{op}.us"));
    let req = |op: &str| window.server_hist(&format!("server.req.{op}.us"));
    // Exchanges the library waits for: their round trip minus the node's
    // arrival-to-applied time is what the wire, the kernel and the
    // reactor's hand-offs cost.
    const WAITED_OPS: [&str; 4] = ["get", "multi_get", "inval_batch", "evict_stale"];
    let (waited_rtt_us, waited_req_us, waited) =
        WAITED_OPS
            .iter()
            .fold((0u64, 0u64, 0u64), |(rtt_sum, req_sum, n), op| {
                let r = rtt(op);
                (rtt_sum + r.sum, req_sum + req(op).sum, n + r.count)
            });
    let server_reqs = counter_delta(&before.servers, &after.servers, "server.req.total") as f64;
    let plans: Vec<u64> = [
        "index_eq",
        "index_in",
        "index_range",
        "index_ordered",
        "index_endpoint",
        "seq_scan",
    ]
    .iter()
    .map(|p| {
        counter_delta(
            &before.db_metrics,
            &after.db_metrics,
            &format!("db.plan.{p}"),
        )
    })
    .collect();
    let misses = cache(|c| c.misses());
    let rw_txns = window.rw_transactions() as f64;
    let db_queries: u64 = phase.samples.iter().map(|s| u64::from(s.db_queries)).sum();
    let db_pages: u64 = phase.samples.iter().map(|s| u64::from(s.db_pages)).sum();

    // ---- budget ------------------------------------------------------
    // Blocking server time on the lookup path: gets only. Puts are
    // pipelined — the library does not wait for the node to apply them.
    let server_get_us = (req("get").sum + req("multi_get").sum) as f64;
    let codec_us = us(replay.codec_lookup_ns + replay.codec_insert_ns);
    let budget = Budget {
        loop_us: per_txn(us(phase.wall_ns)),
        core_self: per_txn(us(interaction_self_ns) - (query.sum + commit.sum) as f64),
        wire_transit: per_txn(us(lookup_ns + insert_ns) - server_get_us - codec_us),
        wire_codec: per_txn(codec_us),
        server_req: per_txn(server_get_us),
        mvdb_query: per_txn(query.sum as f64),
        mvdb_commit: per_txn(commit.sum as f64),
        mvdb_fsync: per_txn(fsync.sum as f64),
        mvdb_vacuum: per_txn(us(vacuum_ns)),
        core_backend_inval: per_txn(us(inval_ns)),
        core_pump_maintenance: per_txn(us(pump_self_ns + maintenance_self_ns)),
    };

    let m = Metric::new;
    let mut metrics = vec![
        // core: the client library.
        m("core.hit_rate", window.hit_rate(), "ratio"),
        m(
            "core.lookup_calls_per_txn",
            per_txn(lookup_calls as f64),
            "1/txn",
        ),
        m(
            "core.keys_per_lookup_call",
            ratio(lookup_keys as f64, lookup_calls as f64),
            "count",
        ),
        m(
            "core.backend_lookup_us_per_txn",
            per_txn(us(lookup_ns)),
            "us/txn",
        ),
        m(
            "core.backend_insert_us_per_txn",
            per_txn(us(insert_ns)),
            "us/txn",
        ),
        m(
            "core.backend_inval_us_per_txn",
            budget.core_backend_inval,
            "us/txn",
        ),
        m("core.pump_us_per_txn", per_txn(us(pump_self_ns)), "us/txn"),
        m(
            "core.maintenance_us_per_txn",
            per_txn(us(maintenance_self_ns)),
            "us/txn",
        ),
        m("core.self_us_per_txn", budget.core_self, "us/txn"),
        m(
            "core.new_pins_per_txn",
            per_txn(client(|c| c.new_pins)),
            "1/txn",
        ),
        m(
            "core.reused_pins_per_txn",
            per_txn(client(|c| c.reused_pins)),
            "1/txn",
        ),
        m(
            "core.put_pipeline_stalls",
            client(|c| c.put_pipeline_stalls),
            "count",
        ),
        m(
            "core.degraded_ops",
            (after.degraded_ops - before.degraded_ops) as f64,
            "count",
        ),
        m("core.leaked_pins", outside.leaked_pins as f64, "count"),
        // wire: the protocol and the loopback under it.
        m("wire.rtt_get_us_mean", rtt("get").mean(), "us").with_samples(rtt("get").count),
        m(
            "wire.rtt_get_us_p99",
            rtt("get").percentile(0.99) as f64,
            "us",
        )
        .with_samples(rtt("get").count),
        m("wire.rtt_multi_get_us_mean", rtt("multi_get").mean(), "us")
            .with_samples(rtt("multi_get").count),
        m("wire.rtt_put_us_mean", rtt("put").mean(), "us").with_samples(rtt("put").count),
        m(
            "wire.rtt_inval_batch_us_mean",
            rtt("inval_batch").mean(),
            "us",
        )
        .with_samples(rtt("inval_batch").count),
        m(
            "wire.transit_us_per_req",
            ratio(waited_rtt_us as f64 - waited_req_us as f64, waited as f64),
            "us",
        )
        .with_samples(waited),
        m(
            "wire.codec_ns_per_frame",
            ratio(
                (replay.codec_lookup_ns + replay.codec_insert_ns + replay.codec_inval_ns) as f64,
                replay.frames as f64,
            ),
            "ns",
        )
        .with_samples(replay.frames),
        m(
            "wire.bytes_in_per_req",
            ratio(
                counter_delta(&before.servers, &after.servers, "server.bytes.in") as f64,
                server_reqs,
            ),
            "B",
        ),
        m(
            "wire.bytes_out_per_req",
            ratio(
                counter_delta(&before.servers, &after.servers, "server.bytes.out") as f64,
                server_reqs,
            ),
            "B",
        ),
        // server: the txcached reactor and workers.
        m("server.req_get_us_mean", req("get").mean(), "us").with_samples(req("get").count),
        m("server.req_put_us_mean", req("put").mean(), "us").with_samples(req("put").count),
        m(
            "server.req_inval_batch_us_mean",
            req("inval_batch").mean(),
            "us",
        )
        .with_samples(req("inval_batch").count),
        m("server.reqs_per_txn", per_txn(server_reqs), "1/txn"),
        m(
            "server.backpressure_pauses",
            counter_delta(
                &before.servers,
                &after.servers,
                "server.backpressure.pauses",
            ) as f64,
            "count",
        ),
        m(
            "server.protocol_errors",
            counter_delta(&before.servers, &after.servers, "server.protocol.errors") as f64,
            "count",
        ),
        // node: the versioned store inside a cache node.
        m(
            "node.apply_ns_per_lookup",
            ratio(replay.node_lookup_ns as f64, replay.node_lookups as f64),
            "ns",
        )
        .with_samples(replay.node_lookups),
        m(
            "node.apply_ns_per_insert",
            ratio(replay.node_insert_ns as f64, replay.node_inserts as f64),
            "ns",
        )
        .with_samples(replay.node_inserts),
        m(
            "node.apply_ns_per_inval_msg",
            ratio(replay.node_inval_ns as f64, replay.node_inval_msgs as f64),
            "ns",
        )
        .with_samples(replay.node_inval_msgs),
        m(
            "node.miss_compulsory_frac",
            ratio(cache(|c| c.compulsory_misses), misses),
            "ratio",
        ),
        m(
            "node.miss_staleness_frac",
            ratio(cache(|c| c.staleness_misses), misses),
            "ratio",
        ),
        m(
            "node.miss_capacity_frac",
            ratio(cache(|c| c.capacity_misses), misses),
            "ratio",
        ),
        m(
            "node.miss_consistency_frac",
            ratio(cache(|c| c.consistency_misses), misses),
            "ratio",
        ),
        m(
            "node.invalidated_entries_per_commit",
            ratio(
                cache(|c| c.invalidated_entries),
                db(|d| d.invalidating_commits),
            ),
            "count",
        ),
        m(
            "node.lru_evictions_per_txn",
            per_txn(cache(|c| c.lru_evictions)),
            "1/txn",
        ),
        m("node.used_bytes", after.cache.used_bytes as f64, "B"),
        // mvdb: the database.
        m(
            "mvdb.db_queries_per_txn",
            per_txn(window.db_queries() as f64),
            "1/txn",
        ),
        m("mvdb.query_us_mean", query.mean(), "us").with_samples(query.count),
        m("mvdb.query_us_per_txn", budget.mvdb_query, "us/txn"),
        // Per read/write commit: the read-only ones (most of `db.commit.us`'s
        // samples) cost about nothing and would only dilute the mean.
        m(
            "mvdb.commit_us_mean",
            ratio(commit.sum as f64, rw_txns),
            "us",
        )
        .with_samples(window.rw_transactions()),
        m("mvdb.commit_us_per_txn", budget.mvdb_commit, "us/txn"),
        m("mvdb.fsync_us_mean", fsync.mean(), "us").with_samples(fsync.count),
        m(
            "mvdb.commits_per_fsync",
            ratio(db(|d| d.wal_appends), db(|d| d.wal_fsyncs)),
            "count",
        ),
        m(
            "mvdb.wal_bytes_per_rw_txn",
            ratio(window.wal_bytes() as f64, rw_txns),
            "B",
        ),
        m(
            "mvdb.pages_per_query",
            ratio(db_pages as f64, db_queries as f64),
            "count",
        ),
        m(
            "mvdb.plan_seq_scan_frac",
            ratio(plans[5] as f64, plans.iter().sum::<u64>() as f64),
            "ratio",
        ),
        m(
            "mvdb.inval_msgs_per_rw_txn",
            ratio(db(|d| d.invalidating_commits), rw_txns),
            "count",
        ),
        m("mvdb.vacuum_us_per_txn", budget.mvdb_vacuum, "us/txn")
            .with_samples(spans.iter().filter(|s| s.kind == SpanKind::Vacuum).count() as u64),
        m(
            "mvdb.vacuumed_versions_per_rw_txn",
            ratio(db(|d| d.vacuumed_versions), rw_txns),
            "count",
        ),
        m("mvdb.recover_s", outside.recover_s, "s"),
    ];
    // rubis: the application's interactions.
    for interaction in [
        Interaction::ViewItem,
        Interaction::SearchItemsInCategory,
        Interaction::AboutMe,
        Interaction::StoreBid,
    ] {
        metrics.push(interaction_p50_us(phase, interaction));
    }
    let by_type = percentiles_by_type(phase);
    for name in ["ro_p99_us", "rw_p50_us", "rw_p99_us"] {
        let found = by_type.iter().find(|m| m.name == name);
        metrics.push(Metric {
            name: format!("rubis.{name}"),
            value: found.map_or(0.0, |m| m.value),
            unit: "us",
            samples: found.map_or(0, |m| m.samples),
        });
    }
    metrics.push(
        m("trace.txn_per_s", txn_per_s(phase), "1/s").with_samples(phase.samples.len() as u64),
    );
    metrics.push(m("trace.spans_recorded", spans.len() as f64, "count"));
    metrics.push(m("trace.warmup_s", outside.warmup_s, "s"));
    LayerReport { metrics, budget }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_columns_sum_and_render() {
        let b = Budget {
            loop_us: 100.0,
            core_self: 10.0,
            wire_transit: 40.0,
            wire_codec: 5.0,
            server_req: 15.0,
            mvdb_query: 10.0,
            mvdb_commit: 12.0,
            mvdb_fsync: 8.0,
            mvdb_vacuum: 0.5,
            core_backend_inval: 5.0,
            core_pump_maintenance: 0.5,
        };
        assert_eq!(b.sum(), 98.0);
        let table = b.render("w");
        assert!(table.contains("columns sum 98.00 us/txn (-2.00 %)"));
        assert!(table.contains("of which fsync 8.00"));
        assert_eq!(table.lines().count(), 1 + Budget::COLUMNS.len());
    }
}
