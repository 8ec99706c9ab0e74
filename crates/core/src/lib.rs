//! # txcache — transactional consistency and automatic management for an
//! application data cache
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! TxCache client library (Ports et al., OSDI 2010). It sits between an
//! application, a [`mvdb::Database`] (our stand-in for the paper's modified
//! PostgreSQL), a [`cache_server::CacheCluster`] and a
//! [`pincushion::Pincushion`], and provides:
//!
//! * the Figure-2 programming model — `BEGIN-RO(staleness)` / `BEGIN-RW` /
//!   `COMMIT` / `ABORT` and cacheable functions;
//! * **transactional consistency**: everything a read-only transaction sees,
//!   whether from the cache or the database, reflects one (possibly slightly
//!   stale) snapshot;
//! * **lazy timestamp selection** via a pin set of candidate serialization
//!   points (§6.2), with the eager alternative available for ablation;
//! * **automatic cache management**: keys are derived from the function name
//!   and arguments, results are inserted with the validity interval and
//!   invalidation tags accumulated from their database reads, and entries are
//!   invalidated automatically by the database's invalidation stream;
//! * **nested cacheable calls** with per-frame accumulation (§6.3).
//!
//! ```
//! use std::sync::Arc;
//! use cache_server::CacheCluster;
//! use mvdb::{ColumnType, Database, Predicate, SelectQuery, TableSchema, Value};
//! use pincushion::Pincushion;
//! use txcache::{TxCache, TxCacheConfig};
//! use txtypes::{SimClock, Staleness};
//!
//! // Wire up the components (one database, one cache cluster, a pincushion).
//! let clock = SimClock::new();
//! let db = Arc::new(Database::new(mvdb::DbConfig::default(), clock.clone()));
//! db.create_table(
//!     TableSchema::new("users")
//!         .column("id", ColumnType::Int)
//!         .column("name", ColumnType::Text)
//!         .unique_index("id"),
//! ).unwrap();
//! db.bulk_load("users", vec![vec![Value::Int(1), Value::text("alice")]]).unwrap();
//! let cache = Arc::new(CacheCluster::new(2, 1 << 20));
//! let pc = Arc::new(Pincushion::new(Default::default(), clock.clone()));
//! let txcache = TxCache::new(db, cache, pc, clock, TxCacheConfig::default());
//!
//! // A cacheable function's arguments and result implement `codec::Codec`:
//! // the primitives, `String`, `Vec`, `Option` and tuples do, and
//! // `codec_struct!` derives it for a plain struct.
//! txcache::codec_struct! {
//!     #[derive(Debug, PartialEq)]
//!     struct User { id: i64, name: String }
//! }
//!
//! // A read-only transaction with a 30-second staleness limit.
//! let mut tx = txcache.begin_ro(Staleness::seconds(30)).unwrap();
//! let user: User = tx.cached("get_user", &1i64, |tx| {
//!     let q = SelectQuery::table("users").filter(Predicate::eq("id", 1i64));
//!     let r = tx.query(&q)?;
//!     let name = r.get(0, "name")?.as_text().unwrap_or_default().to_string();
//!     Ok(User { id: 1, name })
//! }).unwrap();
//! assert_eq!(user.name, "alice");
//! tx.commit().unwrap();
//!
//! // The same call in a new transaction is served from the cache.
//! let mut tx = txcache.begin_ro(Staleness::seconds(30)).unwrap();
//! let again: User = tx.cached("get_user", &1i64, |_| unreachable!("cache hit expected")).unwrap();
//! assert_eq!(again, user);
//! tx.commit().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod codec;
pub mod config;
pub mod handle;
pub mod pinset;
pub mod stats;
pub mod transaction;

pub use backend::{CacheBackend, RemoteCluster, RemoteOptions};
pub use config::{BackendKind, CacheMode, TimestampPolicy, TxCacheConfig};
pub use handle::TxCache;
pub use pinset::PinSet;
pub use stats::{AtomicClientStats, ClientStats, CommitInfo};
pub use transaction::Transaction;
