//! Consistent hashing with replica sets and epoch-versioned views (§4).
//!
//! Cached data is partitioned across cache nodes with consistent hashing so
//! that adding or removing a node relocates only a small fraction of the
//! keys. Unlike a DHT, every client knows the full node list and can map a
//! key to its nodes directly.
//!
//! Two types split the job:
//!
//! * [`RingView`] is an **immutable, epoch-versioned snapshot** of the
//!   ring. It maps a key to an *ordered replica set*: the primary owner
//!   plus the next `replication - 1` distinct ring successors. Views are
//!   shared (`Arc`) between readers; membership changes never mutate a
//!   published view.
//! * [`RingBuilder`] constructs the next view: seed it from the current
//!   one, `add`/`remove` nodes, and `build(epoch)` the successor. The
//!   epoch is the fencing token the wire protocol (v5) carries so a client
//!   routing on a stale view gets a typed `WrongEpoch` redirect instead of
//!   silent misses.

use std::collections::BTreeMap;
use std::sync::Arc;

use txtypes::key::stable_hash_of;
use txtypes::CacheKey;

/// Virtual points per node on the ring.
const VNODES: usize = 64;

/// An immutable snapshot of the consistent-hash ring at one membership
/// epoch.
#[derive(Debug)]
pub struct RingView {
    /// The fencing token of this membership generation.
    epoch: u64,
    /// hash point → node index.
    points: BTreeMap<u64, usize>,
    node_names: Vec<String>,
    /// Replica-set size R: primary + R−1 distinct ring successors.
    replication: usize,
}

impl RingView {
    /// The membership epoch this view was built at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes on the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_names.len()
    }

    /// Returns `true` if the view has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_names.is_empty()
    }

    /// The replica-set size R the view was built with (clamped to the node
    /// count when fewer nodes exist).
    #[must_use]
    pub fn replication(&self) -> usize {
        self.replication.min(self.node_names.len()).max(1)
    }

    /// The node names, in membership order (indexes returned by
    /// [`replicas_for`](Self::replicas_for) refer to this list).
    #[must_use]
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// The ordered replica set for `key`: the primary owner first, then the
    /// next distinct nodes in ring order, `replication` entries in total
    /// (fewer only if the ring has fewer nodes).
    ///
    /// # Panics
    /// Panics if the view is empty; build views with at least one node.
    #[must_use]
    pub fn replicas_for(&self, key: &CacheKey) -> Vec<usize> {
        assert!(!self.is_empty(), "ring view has no nodes");
        let want = self.replication();
        let h = key.stable_hash();
        let mut replicas = Vec::with_capacity(want);
        // Walk the ring clockwise from the key's hash point, wrapping once,
        // collecting distinct nodes until the replica set is full.
        for (_, &idx) in self.points.range(h..).chain(self.points.range(..h)) {
            if !replicas.contains(&idx) {
                replicas.push(idx);
                if replicas.len() == want {
                    break;
                }
            }
        }
        replicas
    }

    /// Starts building this view's successor: same nodes and replication
    /// factor.
    #[must_use]
    pub fn builder(&self) -> RingBuilder {
        RingBuilder {
            node_names: self.node_names.clone(),
            replication: self.replication,
        }
    }
}

/// Constructs the next [`RingView`]. Seed a builder from scratch
/// ([`RingBuilder::new`]) or from the current view
/// ([`RingView::builder`]), adjust membership with
/// [`add`](Self::add)/[`remove`](Self::remove), then
/// [`build`](Self::build) the immutable view at its epoch.
#[derive(Debug, Clone)]
pub struct RingBuilder {
    node_names: Vec<String>,
    replication: usize,
}

impl Default for RingBuilder {
    fn default() -> Self {
        RingBuilder::new()
    }
}

impl RingBuilder {
    /// An empty builder with no replication (R = 1).
    #[must_use]
    pub fn new() -> RingBuilder {
        RingBuilder {
            node_names: Vec::new(),
            replication: 1,
        }
    }

    /// Sets the replica-set size R (min 1).
    #[must_use]
    pub fn replication(mut self, replication: usize) -> RingBuilder {
        self.replication = replication.max(1);
        self
    }

    /// Adds a node. Adding a name already on the ring is a no-op, so
    /// membership changes are idempotent.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder verb, not arithmetic
    pub fn add(mut self, name: impl Into<String>) -> RingBuilder {
        let name = name.into();
        if !self.node_names.contains(&name) {
            self.node_names.push(name);
        }
        self
    }

    /// Adds every node of an iterator, in order.
    #[must_use]
    pub fn add_all<I, S>(mut self, names: I) -> RingBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for name in names {
            self = self.add(name);
        }
        self
    }

    /// Removes a node by name (a no-op if absent). The surviving nodes keep
    /// their relative order, so view indexes stay aligned with any node
    /// list maintained in parallel.
    #[must_use]
    pub fn remove(mut self, name: &str) -> RingBuilder {
        self.node_names.retain(|n| n != name);
        self
    }

    /// Builds the immutable view at `epoch`. The epoch is chosen by the
    /// cluster publishing the view — monotonically increasing per cluster,
    /// so it can act as the wire protocol's fencing token.
    #[must_use]
    pub fn build(self, epoch: u64) -> Arc<RingView> {
        let mut points = BTreeMap::new();
        for (idx, name) in self.node_names.iter().enumerate() {
            for r in 0..VNODES {
                let point = stable_hash_of(&(name.as_str(), r));
                points.insert(point, idx);
            }
        }
        Arc::new(RingView {
            epoch,
            points,
            node_names: self.node_names,
            replication: self.replication,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<CacheKey> {
        (0..n)
            .map(|i| CacheKey::new("f", format!("[{i}]")))
            .collect()
    }

    fn view3() -> Arc<RingView> {
        RingBuilder::new().add_all(["a", "b", "c"]).build(1)
    }

    #[test]
    fn placement_is_deterministic() {
        let ring = view3();
        for k in keys(50) {
            assert_eq!(ring.replicas_for(&k), ring.replicas_for(&k));
        }
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
        assert_eq!(ring.node_names().len(), 3);
        assert_eq!(ring.epoch(), 1);
    }

    #[test]
    fn keys_spread_across_nodes() {
        let ring = view3();
        let mut counts = [0usize; 3];
        for k in keys(3000) {
            counts[ring.replicas_for(&k)[0]] += 1;
        }
        for c in counts {
            assert!(
                c > 300,
                "each node should receive a reasonable share, got {c}"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_only_a_fraction_of_keys() {
        let ring3 = view3();
        let ring4 = ring3.builder().add("d").build(2);
        assert_eq!(ring4.epoch(), 2);
        let ks = keys(4000);
        let moved = ks
            .iter()
            .filter(|k| {
                let before = &ring3.node_names()[ring3.replicas_for(k)[0]];
                let after = &ring4.node_names()[ring4.replicas_for(k)[0]];
                before != after
            })
            .count();
        // Ideally ~1/4 of keys move; allow generous slack but far below 1/2.
        assert!(
            moved < ks.len() / 2,
            "only a fraction of keys should move, moved {moved}/{}",
            ks.len()
        );
        assert!(moved > 0);
    }

    #[test]
    fn removing_a_node_reroutes_only_its_keys() {
        let ring3 = view3();
        let ring2 = ring3.builder().remove("b").build(2);
        assert_eq!(ring2.len(), 2);
        // Survivors keep their relative order: a stays index 0, c becomes 1.
        assert_eq!(ring2.node_names(), &["a".to_string(), "c".to_string()]);
        for k in keys(2000) {
            let before = &ring3.node_names()[ring3.replicas_for(&k)[0]];
            let after = &ring2.node_names()[ring2.replicas_for(&k)[0]];
            if before != "b" {
                assert_eq!(before, after, "keys not owned by b must not move");
            } else {
                assert_ne!(after, "b");
            }
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_ordered() {
        let ring = RingBuilder::new()
            .add_all(["a", "b", "c", "d"])
            .replication(3)
            .build(1);
        for k in keys(500) {
            let replicas = ring.replicas_for(&k);
            assert_eq!(replicas.len(), 3);
            let mut sorted = replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replica set must be distinct nodes");
        }
    }

    #[test]
    fn replication_clamps_to_the_node_count() {
        let ring = RingBuilder::new().add("only").replication(3).build(1);
        assert_eq!(ring.replication(), 1);
        for k in keys(20) {
            assert_eq!(ring.replicas_for(&k), vec![0]);
        }
    }

    #[test]
    fn adding_a_replica_target_preserves_primaries() {
        // The replica walk must not perturb primary placement: R only
        // appends successors.
        let r1 = RingBuilder::new().add_all(["a", "b", "c"]).build(1);
        let r2 = RingBuilder::new()
            .add_all(["a", "b", "c"])
            .replication(2)
            .build(1);
        for k in keys(500) {
            assert_eq!(r2.replicas_for(&k)[0], r1.replicas_for(&k)[0]);
        }
    }

    #[test]
    fn duplicate_adds_are_idempotent() {
        let ring = RingBuilder::new().add("a").add("a").add("b").build(1);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn empty_view_panics_on_lookup() {
        let ring = RingBuilder::new().build(1);
        let _ = ring.replicas_for(&CacheKey::new("f", "[]"));
    }
}
