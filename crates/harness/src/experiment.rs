//! Experiment configuration and execution.
//!
//! An experiment assembles a simulated cluster — one `mvdb` database, a set
//! of cache nodes, a pincushion, and the TxCache library — loads a RUBiS
//! dataset, warms the cache, drives the bidding workload for a configured
//! number of requests, and reports the measured hit rates, miss breakdown,
//! and modelled peak throughput.

use std::sync::Arc;

use cache_server::{CacheCluster, CacheStats};
use mvdb::{Database, DbConfig, ExecOptions};
use pincushion::{Pincushion, PincushionConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rubis::{ClientSession, RubisApp, RubisScale, WorkloadConfig};
use txcache::backend::{CacheBackend, RemoteCluster};
use txcache::{CacheMode, TimestampPolicy, TxCache, TxCacheConfig};
use txtypes::{Result, SimClock, Staleness};

use crate::costmodel::{Bottleneck, CostModel, ResourceUsage};

/// Which of the paper's two database configurations to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbKind {
    /// Working set fits in the buffer cache (§8: 850 MB database).
    InMemory,
    /// Database several times larger than the buffer cache (§8: 6 GB).
    DiskBound,
}

impl DbKind {
    /// The cost model matching this configuration.
    #[must_use]
    pub fn cost_model(self) -> CostModel {
        match self {
            DbKind::InMemory => CostModel::in_memory(),
            DbKind::DiskBound => CostModel::disk_bound(),
        }
    }

    /// The RUBiS scale for this configuration at the given scale factor.
    #[must_use]
    pub fn scale(self, factor: f64) -> RubisScale {
        match self {
            DbKind::InMemory => RubisScale::in_memory(factor),
            DbKind::DiskBound => RubisScale::disk_bound(factor),
        }
    }
}

/// Full description of one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Database configuration.
    pub db_kind: DbKind,
    /// Fraction of the paper's full-scale dataset to generate (and to scale
    /// cache sizes by). 1.0 reproduces the paper's sizes exactly.
    pub scale_factor: f64,
    /// Total cache capacity across all nodes, expressed at *full* scale in
    /// bytes (it is multiplied by `scale_factor` like the dataset).
    pub cache_bytes_full_scale: usize,
    /// Number of cache nodes.
    pub cache_nodes: usize,
    /// Cache mode (TxCache, no-consistency baseline, or no caching).
    pub mode: CacheMode,
    /// Timestamp selection policy (lazy, or eager for the ablation).
    pub policy: TimestampPolicy,
    /// Read-only transaction staleness limit.
    pub staleness: Staleness,
    /// Number of measured requests.
    pub requests: usize,
    /// Number of warm-up requests executed before measurement.
    pub warmup_requests: usize,
    /// Number of emulated client sessions.
    pub sessions: usize,
    /// Mean inter-arrival time between requests on the simulated clock, in
    /// microseconds. Together with the staleness limit this determines how
    /// many updates fall inside a staleness window.
    pub interarrival_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A reasonable default configuration for the given database kind,
    /// matching the paper's defaults (30-second staleness, 512 MB / 9 GB
    /// cache).
    #[must_use]
    pub fn new(db_kind: DbKind) -> ExperimentConfig {
        let cache_bytes_full_scale = match db_kind {
            DbKind::InMemory => 512 << 20,
            DbKind::DiskBound => 9 << 30,
        };
        ExperimentConfig {
            db_kind,
            scale_factor: 0.02,
            cache_bytes_full_scale,
            cache_nodes: db_kind.cost_model().cache_nodes,
            mode: CacheMode::Full,
            policy: TimestampPolicy::Lazy,
            staleness: Staleness::seconds(30),
            requests: 4_000,
            warmup_requests: 2_000,
            sessions: 64,
            interarrival_micros: 10_000,
            seed: 42,
        }
    }

    /// Scaled cache capacity in bytes.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        ((self.cache_bytes_full_scale as f64) * self.scale_factor) as usize
    }
}

/// A fully assembled simulated cluster.
pub struct SimCluster {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The database server.
    pub db: Arc<Database>,
    /// The cache tier — the in-process cluster by default, or a remote
    /// `txcached` deployment when built with [`SimCluster::build_remote`].
    pub cache: Arc<dyn CacheBackend>,
    /// The pincushion.
    pub pincushion: Arc<Pincushion>,
    /// The TxCache library instance shared by the web servers.
    pub txcache: Arc<TxCache>,
    /// The RUBiS application.
    pub app: RubisApp,
    /// The generated dataset's scale.
    pub scale: RubisScale,
}

impl SimCluster {
    /// Builds the cluster for `config` with the in-process cache backend and
    /// loads the RUBiS dataset.
    pub fn build(config: &ExperimentConfig) -> Result<SimCluster> {
        SimCluster::build_with(config, None)
    }

    /// Builds the cluster against an already-running set of `txcached`
    /// servers (one consistent-hash ring node per address). The servers'
    /// capacity is whatever they were started with; `config.cache_bytes()`
    /// is ignored in this mode.
    pub fn build_remote(config: &ExperimentConfig, addrs: &[String]) -> Result<SimCluster> {
        let backend: Arc<dyn CacheBackend> = Arc::new(RemoteCluster::connect(addrs)?);
        SimCluster::build_with(config, Some(backend))
    }

    fn build_with(
        config: &ExperimentConfig,
        backend: Option<Arc<dyn CacheBackend>>,
    ) -> Result<SimCluster> {
        let clock = SimClock::new();
        let scale = config.db_kind.scale(config.scale_factor);

        // Size the buffer pool: the in-memory configuration holds the whole
        // working set; the disk-bound configuration holds only a fraction.
        let rows_per_page = 32usize;
        let total_rows = scale.users
            + scale.total_items() * (1 + scale.bids_per_item)
            + scale.users * scale.comments_per_user
            + scale.active_items;
        let total_pages = (total_rows / rows_per_page).max(64);
        let buffer_pages = match config.db_kind {
            DbKind::InMemory => total_pages * 4,
            DbKind::DiskBound => (total_pages / 8).max(64),
        };

        let db = Arc::new(Database::new(
            DbConfig {
                buffer_pages,
                rows_per_page,
                wildcard_threshold: 64,
                exec: ExecOptions::default(),
                ..DbConfig::default()
            },
            clock.clone(),
        ));
        rubis::create_tables(&db)?;
        rubis::populate(&db, &scale, config.seed)?;

        let cache: Arc<dyn CacheBackend> = match backend {
            Some(backend) => backend,
            None => Arc::new(CacheCluster::with_total_capacity(
                config.cache_nodes,
                config.cache_bytes().max(1),
            )),
        };
        let pincushion = Arc::new(Pincushion::new(PincushionConfig::default(), clock.clone()));
        let txcache = Arc::new(TxCache::with_backend(
            Arc::clone(&db),
            Arc::clone(&cache),
            Arc::clone(&pincushion),
            clock.clone(),
            TxCacheConfig {
                mode: config.mode,
                policy: config.policy,
                ..TxCacheConfig::default()
            },
        ));
        let app = RubisApp::new(Arc::clone(&txcache));
        Ok(SimCluster {
            clock,
            db,
            cache,
            pincushion,
            txcache,
            app,
            scale,
        })
    }
}

/// The measured outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Modelled peak throughput of the cluster, in requests per second.
    pub peak_throughput: f64,
    /// Which tier saturates at peak load.
    pub bottleneck: Bottleneck,
    /// Cache hit rate over cacheable calls during measurement.
    pub hit_rate: f64,
    /// Aggregated resource usage during measurement.
    pub usage: ResourceUsage,
    /// Cache-cluster statistics during measurement (includes the §8.3 miss
    /// breakdown).
    pub cache_stats: CacheStats,
    /// Interactions that failed even after a retry (should be rare).
    pub failed_requests: u64,
    /// Interactions that needed a conflict retry.
    pub retried_requests: u64,
}

impl ExperimentResult {
    /// Speedup relative to another (baseline) result.
    #[must_use]
    pub fn speedup_over(&self, baseline: &ExperimentResult) -> f64 {
        if baseline.peak_throughput <= 0.0 {
            0.0
        } else {
            self.peak_throughput / baseline.peak_throughput
        }
    }
}

/// Runs one experiment point: build, warm up, measure.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentResult> {
    let cluster = SimCluster::build(config)?;
    let mut sessions: Vec<ClientSession> = (0..config.sessions)
        .map(|i| {
            ClientSession::new(
                config.seed.wrapping_add(i as u64 + 1),
                cluster.scale,
                WorkloadConfig {
                    staleness: config.staleness,
                    ..WorkloadConfig::default()
                },
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);

    let mut usage = ResourceUsage::default();
    let mut failed = 0u64;
    let mut retried = 0u64;

    let total = config.warmup_requests + config.requests;
    for i in 0..total {
        // Advance the simulated clock by an exponential inter-arrival time.
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        let dt = (-(config.interarrival_micros as f64) * u.ln()) as u64;
        cluster.clock.advance_micros(dt.max(1));

        // The driver loop owns invalidation delivery: pump the database's
        // stream to whichever cache backend is active (a no-op when nothing
        // committed since the last pump), standing in for the paper's
        // asynchronous multicast.
        cluster.txcache.pump_invalidations();

        // Periodic maintenance: reap pins, evict entries too stale to use.
        if i % 128 == 0 {
            cluster.txcache.maintenance();
        }

        let session = &mut sessions[i % config.sessions.max(1)];
        let interaction = session.next_interaction();
        let measuring = i >= config.warmup_requests;
        match session.run(&cluster.app, interaction) {
            Ok(report) => {
                if measuring {
                    usage.absorb(&report.commit);
                    if report.retried {
                        retried += 1;
                    }
                }
            }
            Err(_) => {
                if measuring {
                    failed += 1;
                }
            }
        }

        // Reset measurement counters at the warmup/measurement boundary (the
        // cache itself stays warm, as in the paper's snapshot-restore setup).
        if i + 1 == config.warmup_requests {
            cluster.cache.reset_stats();
        }
    }

    let model = config.db_kind.cost_model();
    let cache_stats = cluster.cache.stats();
    Ok(ExperimentResult {
        config: *config,
        peak_throughput: usage.peak_throughput(&model),
        bottleneck: usage.bottleneck(&model),
        hit_rate: usage.hit_rate(),
        usage,
        cache_stats,
        failed_requests: failed,
        retried_requests: retried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(mode: CacheMode) -> ExperimentConfig {
        ExperimentConfig {
            scale_factor: 0.002,
            requests: 300,
            warmup_requests: 150,
            sessions: 8,
            mode,
            ..ExperimentConfig::new(DbKind::InMemory)
        }
    }

    #[test]
    fn txcache_beats_the_no_cache_baseline() {
        let cached = run_experiment(&quick_config(CacheMode::Full)).unwrap();
        let baseline = run_experiment(&quick_config(CacheMode::Disabled)).unwrap();
        assert!(
            cached.hit_rate > 0.2,
            "hit rate {} too low",
            cached.hit_rate
        );
        assert!(
            cached.speedup_over(&baseline) > 1.2,
            "caching should speed things up: {} vs {}",
            cached.peak_throughput,
            baseline.peak_throughput
        );
        assert_eq!(baseline.hit_rate, 0.0);
        assert!(cached.failed_requests <= 3);
    }

    #[test]
    fn consistency_misses_are_a_small_fraction() {
        let result = run_experiment(&quick_config(CacheMode::Full)).unwrap();
        let misses = result.cache_stats.misses().max(1);
        let consistency_fraction = result.cache_stats.consistency_misses as f64 / misses as f64;
        assert!(
            consistency_fraction < 0.30,
            "consistency misses should be the rarest class, got {consistency_fraction}"
        );
    }

    #[test]
    fn cluster_builder_sizes_buffer_by_kind() {
        let in_mem = ExperimentConfig {
            scale_factor: 0.002,
            ..ExperimentConfig::new(DbKind::InMemory)
        };
        let cluster = SimCluster::build(&in_mem).unwrap();
        assert!(cluster.db.total_bytes() > 0);
        assert_eq!(in_mem.cache_bytes(), (512usize << 20) / 500);
    }
}
