//! Client-library configuration.

/// How the library uses the cache. The non-default modes exist to reproduce
//  the baselines in the paper's evaluation (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Normal TxCache operation: transactionally consistent caching.
    Full,
    /// The "No consistency" baseline of Figure 5(a): cached values are used
    /// whenever they were valid at any point within the staleness limit,
    /// ignoring whether they are mutually consistent.
    NoConsistency,
    /// The "No caching" baseline: every cacheable call executes against the
    /// database.
    Disabled,
}

/// When a read-only transaction's timestamp is chosen (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestampPolicy {
    /// Choose lazily, narrowing a pin set as cached values and query results
    /// are observed (the paper's design).
    Lazy,
    /// Choose a single timestamp when the transaction begins (the
    /// straightforward alternative §6.2 argues against); used for ablation.
    Eager,
}

/// Which cache transport the library uses (§4, §7).
///
/// The addresses and socket options of a remote deployment are not part of
/// this config (it stays `Copy`); they are supplied when the backend itself
/// is built, e.g. via
/// [`RemoteCluster::connect`](crate::backend::RemoteCluster::connect). The
/// kind recorded here is kept consistent with the active backend by
/// [`TxCache::with_backend`](crate::TxCache::with_backend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The cache cluster is linked into the application process and reached
    /// by direct method calls (the historical configuration).
    #[default]
    InProcess,
    /// Cache nodes are separate `txcached` TCP servers reached over the
    /// `wire` protocol (the paper's deployment).
    Remote,
}

/// Configuration of the TxCache client library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxCacheConfig {
    /// Cache usage mode.
    pub mode: CacheMode,
    /// Cache transport kind (recorded for reporting; the backend object
    /// itself decides).
    pub backend: BackendKind,
    /// Timestamp selection policy.
    pub policy: TimestampPolicy,
    /// If the newest pinned snapshot is older than this many microseconds,
    /// prefer pinning a fresh snapshot over reusing it (the "5 second" rule
    /// of §6.2, balancing snapshot count against data freshness).
    pub pin_reuse_threshold_micros: u64,
}

impl Default for TxCacheConfig {
    fn default() -> Self {
        TxCacheConfig {
            mode: CacheMode::Full,
            backend: BackendKind::InProcess,
            policy: TimestampPolicy::Lazy,
            pin_reuse_threshold_micros: 5_000_000,
        }
    }
}

impl TxCacheConfig {
    /// Convenience constructor for the "no caching" baseline.
    #[must_use]
    pub fn disabled() -> TxCacheConfig {
        TxCacheConfig {
            mode: CacheMode::Disabled,
            ..TxCacheConfig::default()
        }
    }

    /// Convenience constructor for the "no consistency" baseline.
    #[must_use]
    pub fn no_consistency() -> TxCacheConfig {
        TxCacheConfig {
            mode: CacheMode::NoConsistency,
            ..TxCacheConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = TxCacheConfig::default();
        assert_eq!(c.mode, CacheMode::Full);
        assert_eq!(c.backend, BackendKind::InProcess);
        assert_eq!(c.policy, TimestampPolicy::Lazy);
        assert_eq!(c.pin_reuse_threshold_micros, 5_000_000);
    }

    #[test]
    fn baseline_constructors() {
        assert_eq!(TxCacheConfig::disabled().mode, CacheMode::Disabled);
        assert_eq!(
            TxCacheConfig::no_consistency().mode,
            CacheMode::NoConsistency
        );
    }
}
