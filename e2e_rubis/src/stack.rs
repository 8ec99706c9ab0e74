//! Assembles the real three-tier path from public APIs only: a durable
//! `mvdb` (group-committed WAL on the checkout's file system), the RUBiS
//! schema and data, two in-process `txcached` servers (epoll reactor over
//! real loopback TCP), a `RemoteCluster` with one connection per node, the
//! TxCache library and the RUBiS application on top.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cache_server::{CacheCluster, NodeConfig, TxcachedServer};
use mvdb::{Database, DbConfig};
use pincushion::{Pincushion, PincushionConfig};
use rubis::{RubisApp, RubisScale};
use txcache::backend::{CacheBackend, RemoteCluster};
use txcache::{CacheMode, TxCache, TxCacheConfig};
use txtypes::SimClock;

use crate::spans::{Recorder, TimedBackend};

/// Cache nodes in the cached workloads.
pub const CACHE_NODES: usize = 2;

/// What to build.
#[derive(Debug, Clone)]
pub struct StackSpec {
    /// Dataset size.
    pub scale: RubisScale,
    /// Seeds the dataset generator.
    pub seed: u64,
    /// `false` builds the paper's "no caching" baseline: `CacheMode::Disabled`
    /// and no cache servers at all, so nothing crosses the wire.
    pub cached: bool,
    /// Capacity of each cache node.
    pub node_capacity_bytes: usize,
    /// Where the WAL lives. Created here, removed by [`Stack::close`].
    pub wal_dir: PathBuf,
}

/// The assembled system.
pub struct Stack {
    pub clock: SimClock,
    pub db: Arc<Database>,
    pub servers: Vec<TxcachedServer>,
    /// `None` on the no-caching baseline.
    pub remote: Option<Arc<RemoteCluster>>,
    pub txcache: Arc<TxCache>,
    pub app: RubisApp,
    pub scale: RubisScale,
    pub db_config: DbConfig,
    pub wal_dir: PathBuf,
}

/// The database configuration of the paper's in-memory set-up: the buffer
/// pool holds the whole working set (sized as `harness::SimCluster` does).
pub fn db_config(scale: &RubisScale) -> DbConfig {
    let defaults = DbConfig::default();
    let total_rows = scale.users
        + scale.total_items() * (1 + scale.bids_per_item)
        + scale.users * scale.comments_per_user
        + scale.active_items;
    DbConfig {
        buffer_pages: (total_rows / defaults.rows_per_page).max(64) * 4,
        ..defaults
    }
}

impl Stack {
    /// Builds the whole path and returns it with the seconds it took. With
    /// a recorder, the library talks to the cluster through a
    /// [`TimedBackend`].
    pub fn build(
        spec: &StackSpec,
        recorder: Option<&Arc<Recorder>>,
    ) -> Result<(Stack, f64), String> {
        let started = Instant::now();
        let _ = std::fs::remove_dir_all(&spec.wal_dir);
        let clock = SimClock::new();
        let db_config = db_config(&spec.scale);
        let db = Arc::new(
            Database::open_durable(&spec.wal_dir, db_config, clock.clone())
                .map_err(|e| format!("open_durable {}: {e}", spec.wal_dir.display()))?,
        );
        rubis::create_tables(&db).map_err(|e| format!("create_tables: {e}"))?;
        rubis::populate(&db, &spec.scale, spec.seed).map_err(|e| format!("populate: {e}"))?;

        let mut servers = Vec::new();
        let mut remote = None;
        let mut backend: Arc<dyn CacheBackend> = if spec.cached {
            for i in 0..CACHE_NODES {
                let config = NodeConfig {
                    capacity_bytes: spec.node_capacity_bytes,
                    ..NodeConfig::default()
                };
                servers.push(
                    TxcachedServer::bind("127.0.0.1:0", format!("txcached-{i}"), config)
                        .map_err(|e| format!("bind txcached-{i}: {e}"))?,
                );
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let cluster =
                Arc::new(RemoteCluster::connect(&addrs).map_err(|e| format!("connect: {e}"))?);
            remote = Some(Arc::clone(&cluster));
            cluster
        } else {
            // The library still needs a backend to hand invalidations to; an
            // empty in-process node keeps them off the wire.
            Arc::new(CacheCluster::new(1, 1 << 20))
        };
        if let Some(recorder) = recorder {
            backend = Arc::new(TimedBackend::new(backend, Arc::clone(recorder)));
        }
        let pincushion = Arc::new(Pincushion::new(PincushionConfig::default(), clock.clone()));
        let txcache = Arc::new(TxCache::with_backend(
            Arc::clone(&db),
            backend,
            pincushion,
            clock.clone(),
            TxCacheConfig {
                mode: if spec.cached {
                    CacheMode::Full
                } else {
                    CacheMode::Disabled
                },
                ..TxCacheConfig::default()
            },
        ));
        let app = RubisApp::new(Arc::clone(&txcache));
        let stack = Stack {
            clock,
            db,
            servers,
            remote,
            txcache,
            app,
            scale: spec.scale,
            db_config,
            wal_dir: spec.wal_dir.clone(),
        };
        Ok((stack, started.elapsed().as_secs_f64()))
    }

    /// Stops the servers, closes every connection and the database, and
    /// removes the WAL directory.
    pub fn close(self) {
        let wal_dir = self.close_keeping_wal();
        remove_dir(&wal_dir);
    }

    /// As [`Stack::close`], but leaves the WAL directory for a recovery.
    pub fn close_keeping_wal(self) -> PathBuf {
        let Stack {
            db,
            mut servers,
            remote,
            txcache,
            app,
            wal_dir,
            ..
        } = self;
        drop(app);
        drop(txcache);
        drop(remote);
        for server in &mut servers {
            server.shutdown();
        }
        drop(servers);
        drop(db);
        wal_dir
    }
}

/// Removes a run directory; a leftover is reported, not fatal.
pub fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: could not remove {}: {e}", dir.display());
        }
    }
}
