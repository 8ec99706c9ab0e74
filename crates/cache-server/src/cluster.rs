//! A fixed cluster of cache nodes behind a consistent-hash ring.
//!
//! [`CacheCluster`] is the in-process cache tier the TxCache library can
//! talk to: it routes lookups and inserts to each key's *replica set*
//! (primary + R−1 ring successors, see [`RingView`]), fans invalidation
//! messages out to every node (standing in for the paper's reliable
//! multicast), and aggregates statistics. Nodes are internally sharded
//! ([`CacheNode`]), so the cluster holds them directly — no wrapper locks:
//! concurrent application servers contend only when they touch the same
//! *shard* of the same node, and lookups on distinct keys proceed under
//! shared or disjoint shard locks.
//!
//! The ring is built once, with the cluster, and never changes: no method
//! takes a cluster-level lock. Runtime membership (join, leave, epoch
//! fencing and read-driven migration) belongs to the networked tier alone —
//! `txcache::RemoteCluster` is the one membership implementation.

use std::sync::Arc;

use bytes::Bytes;
use txtypes::{CacheKey, TagSet, Timestamp, ValidityInterval, WallClock};

use crate::entry::{LookupOutcome, LookupRequest};
use crate::node::{CacheNode, NodeConfig};
use crate::ring::{RingBuilder, RingView};
use crate::stats::CacheStats;

/// A fixed set of cache nodes plus the ring that places keys on them.
pub struct CacheCluster {
    view: Arc<RingView>,
    /// One node per ring member, in view order: `replicas_for` indexes
    /// this list directly.
    nodes: Vec<Arc<CacheNode>>,
}

impl CacheCluster {
    /// Creates a cluster of `node_count` unreplicated nodes, each with
    /// `capacity_bytes` of memory. The paper's experiments vary the *total*
    /// cache size; use [`CacheCluster::with_total_capacity`] for that.
    #[must_use]
    pub fn new(node_count: usize, capacity_bytes: usize) -> CacheCluster {
        CacheCluster::with_config(
            node_count,
            NodeConfig {
                capacity_bytes,
                ..NodeConfig::default()
            },
        )
    }

    /// Creates a cluster of `node_count` nodes sharing one node
    /// configuration (capacity, shard count, history limit), without
    /// replication (R = 1).
    #[must_use]
    pub fn with_config(node_count: usize, config: NodeConfig) -> CacheCluster {
        CacheCluster::with_replication(node_count, 1, config)
    }

    /// Creates a cluster whose keys are placed on `replication` nodes each:
    /// the ring primary plus R−1 distinct successors. Writes fan out to the
    /// whole replica set; reads try the replicas in ring order.
    #[must_use]
    pub fn with_replication(
        node_count: usize,
        replication: usize,
        config: NodeConfig,
    ) -> CacheCluster {
        let names: Vec<String> = (0..node_count.max(1))
            .map(|i| format!("cache-{i}"))
            .collect();
        let nodes = names
            .iter()
            .map(|name| Arc::new(CacheNode::new(name.clone(), config)))
            .collect();
        let view = RingBuilder::new()
            .add_all(names)
            .replication(replication)
            .build(1);
        CacheCluster { view, nodes }
    }

    /// Creates a cluster whose per-node capacity divides `total_bytes`
    /// evenly.
    #[must_use]
    pub fn with_total_capacity(node_count: usize, total_bytes: usize) -> CacheCluster {
        let node_count = node_count.max(1);
        CacheCluster::new(node_count, total_bytes / node_count)
    }

    /// Number of nodes on the ring.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The replica-set size keys are placed with.
    #[must_use]
    pub fn replication(&self) -> usize {
        self.view.replication()
    }

    /// Every node, in ring-view order (diagnostics and tests).
    #[must_use]
    pub fn nodes(&self) -> Vec<Arc<CacheNode>> {
        self.nodes.clone()
    }

    /// Looks up a key on its replica set: the primary first, then (only on
    /// a miss) each ring successor. Returns the first hit, or the last
    /// replica's miss.
    pub fn lookup(&self, key: &CacheKey, request: &LookupRequest) -> LookupOutcome {
        let replicas = self.view.replicas_for(key);
        let (&last, rest) = replicas.split_last().expect("non-empty replica set");
        for &idx in rest {
            let outcome = self.nodes[idx].lookup(key, request);
            if outcome.is_hit() {
                return outcome;
            }
        }
        self.nodes[last].lookup(key, request)
    }

    /// Inserts a value on every node of the key's replica set.
    pub fn insert(
        &self,
        key: CacheKey,
        value: Bytes,
        validity: ValidityInterval,
        tags: TagSet,
        now: WallClock,
    ) {
        let replicas = self.view.replicas_for(&key);
        let (&last, rest) = replicas.split_last().expect("non-empty replica set");
        for &idx in rest {
            self.nodes[idx].insert(key.clone(), value.clone(), validity, tags.clone(), now);
        }
        self.nodes[last].insert(key, value, validity, tags, now);
    }

    /// Delivers one invalidation-stream message to every node (the
    /// multicast of §4.2). Messages must be applied in commit order.
    pub fn apply_invalidation(&self, timestamp: Timestamp, tags: &TagSet) {
        for node in &self.nodes {
            node.apply_invalidation(timestamp, tags);
        }
    }

    /// Propagates a timestamp heartbeat to every node: all invalidations up
    /// to `ts` have been delivered, so still-valid entries may be served for
    /// lookups up to `ts`.
    pub fn note_timestamp(&self, ts: Timestamp) {
        for node in &self.nodes {
            node.note_timestamp(ts);
        }
    }

    /// Eagerly evicts entries that ended before `min_useful_ts` on every
    /// node.
    pub fn evict_stale(&self, min_useful_ts: Timestamp) {
        for node in &self.nodes {
            node.evict_stale(min_useful_ts);
        }
    }

    /// Aggregated statistics across all nodes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for node in &self.nodes {
            total.merge(&node.stats());
        }
        total
    }

    /// Resets hit/miss counters on every node.
    pub fn reset_stats(&self) {
        for node in &self.nodes {
            node.reset_stats();
        }
    }

    /// Total bytes of cached data across the cluster.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.used_bytes()).sum()
    }

    /// Total number of entries across the cluster.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.nodes.iter().map(|n| n.entry_count()).sum()
    }
}

impl std::fmt::Debug for CacheCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheCluster")
            .field("nodes", &self.node_count())
            .field("replication", &self.replication())
            .field("entries", &self.entry_count())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtypes::InvalidationTag;

    fn key(i: u64) -> CacheKey {
        CacheKey::new("f", format!("[{i}]"))
    }

    fn cluster() -> CacheCluster {
        CacheCluster::new(3, 1 << 20)
    }

    #[test]
    fn insert_and_lookup_route_to_same_node() {
        let c = cluster();
        for i in 0..50 {
            c.insert(
                key(i),
                Bytes::from(vec![i as u8; 8]),
                ValidityInterval::unbounded(Timestamp(1)),
                TagSet::new(),
                WallClock::ZERO,
            );
        }
        for i in 0..50 {
            assert!(c.lookup(&key(i), &LookupRequest::at(Timestamp(1))).is_hit());
        }
        let stats = c.stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.insertions, 50);
        assert!(c.used_bytes() > 0);
        assert_eq!(c.entry_count(), 50);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.replication(), 1);
    }

    #[test]
    fn replicated_inserts_land_on_every_replica() {
        let c = CacheCluster::with_replication(
            3,
            2,
            NodeConfig {
                capacity_bytes: 1 << 20,
                ..NodeConfig::default()
            },
        );
        assert_eq!(c.replication(), 2);
        for i in 0..40 {
            c.insert(
                key(i),
                Bytes::from_static(b"v"),
                ValidityInterval::unbounded(Timestamp(1)),
                TagSet::new(),
                WallClock::ZERO,
            );
        }
        // Every key stored twice: once on its primary, once on a successor.
        assert_eq!(c.entry_count(), 80);
        assert_eq!(c.stats().insertions, 80);
        for i in 0..40 {
            assert!(c.lookup(&key(i), &LookupRequest::at(Timestamp(1))).is_hit());
        }
    }

    #[test]
    fn invalidations_reach_every_node() {
        let c = cluster();
        for i in 0..30 {
            c.insert(
                key(i),
                Bytes::from_static(b"v"),
                ValidityInterval::unbounded(Timestamp(1)),
                [InvalidationTag::keyed("items", format!("id={i}"))]
                    .into_iter()
                    .collect(),
                WallClock::ZERO,
            );
        }
        // Invalidate a single item: exactly one entry somewhere is affected.
        c.apply_invalidation(
            Timestamp(10),
            &[InvalidationTag::keyed("items", "id=7")]
                .into_iter()
                .collect(),
        );
        assert_eq!(c.stats().invalidated_entries, 1);
        // Every node processed the message.
        assert_eq!(c.stats().invalidation_messages, 3);
        // The invalidated key now misses at ts 10.
        assert!(!c
            .lookup(&key(7), &LookupRequest::range(Timestamp(10), Timestamp(10)))
            .is_hit());
    }

    #[test]
    fn stale_eviction_and_reset() {
        let c = cluster();
        c.insert(
            key(1),
            Bytes::from_static(b"old"),
            ValidityInterval::bounded(Timestamp(1), Timestamp(5)).unwrap(),
            TagSet::new(),
            WallClock::ZERO,
        );
        c.evict_stale(Timestamp(10));
        assert_eq!(c.entry_count(), 0);
        c.reset_stats();
        assert_eq!(c.stats().lookups(), 0);
    }

    #[test]
    fn with_total_capacity_divides_evenly() {
        let c = CacheCluster::with_total_capacity(4, 4 << 20);
        assert_eq!(c.node_count(), 4);
        let debug = format!("{c:?}");
        assert!(debug.contains("CacheCluster"));
    }

    #[test]
    fn cluster_exposes_nodes_and_their_shards() {
        let c = cluster();
        c.insert(
            key(1),
            Bytes::from_static(b"v"),
            ValidityInterval::unbounded(Timestamp(1)),
            TagSet::new(),
            WallClock::ZERO,
        );
        let nodes = c.nodes();
        assert_eq!(nodes.len(), 3);
        assert_eq!(
            nodes.iter().filter(|n| n.entry_count() == 1).count(),
            1,
            "exactly one node owns the single entry"
        );
        let writes: u64 = nodes
            .iter()
            .flat_map(|n| n.shard_stats())
            .map(|s| s.write_locks)
            .sum();
        assert_eq!(writes, 1);
    }
}
