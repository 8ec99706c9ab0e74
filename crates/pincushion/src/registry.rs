//! The pinned-snapshot table and its maintenance operations.

use std::collections::btree_map::{BTreeMap, Entry};

use parking_lot::Mutex;
use txtypes::{SimClock, Staleness, Timestamp, WallClock};

/// One entry in the pincushion's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedSnapshot {
    /// The snapshot's identifier: the commit timestamp of the last
    /// transaction visible to it.
    pub timestamp: Timestamp,
    /// Wall-clock time at which the snapshot was pinned (as reported by the
    /// database).
    pub pinned_at: WallClock,
    /// Number of running transactions that might be using the snapshot.
    pub in_use: usize,
}

/// Configuration of the pincushion.
#[derive(Debug, Clone, Copy)]
pub struct PincushionConfig {
    /// Unused snapshots older than this many microseconds are reaped (the
    /// database is asked to `UNPIN` them).
    pub reap_after_micros: u64,
}

impl Default for PincushionConfig {
    fn default() -> Self {
        PincushionConfig {
            // The paper keeps snapshots around on the order of the largest
            // staleness limit in use; two minutes is ample for every
            // experiment in §8.
            reap_after_micros: 120 * 1_000_000,
        }
    }
}

/// Operation counters for the pincushion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PincushionStats {
    /// `fresh_pins` requests served.
    pub queries: u64,
    /// Snapshots registered.
    pub registrations: u64,
    /// Snapshots reaped (handed back to the caller to `UNPIN`).
    pub reaped: u64,
}

struct Inner {
    pins: BTreeMap<Timestamp, PinnedSnapshot>,
    stats: PincushionStats,
}

/// The pincushion service.
pub struct Pincushion {
    inner: Mutex<Inner>,
    config: PincushionConfig,
    clock: SimClock,
}

impl Pincushion {
    /// Creates an empty pincushion using the shared simulated clock.
    #[must_use]
    pub fn new(config: PincushionConfig, clock: SimClock) -> Pincushion {
        Pincushion {
            inner: Mutex::new(Inner {
                pins: BTreeMap::new(),
                stats: PincushionStats::default(),
            }),
            config,
            clock,
        }
    }

    /// Creates a pincushion with default configuration and a private clock.
    #[must_use]
    pub fn with_defaults() -> Pincushion {
        Pincushion::new(PincushionConfig::default(), SimClock::new())
    }

    /// Returns every pinned snapshot fresh enough for `staleness`, newest
    /// first, and marks each as possibly in use by one more transaction.
    ///
    /// The library calls this at `BEGIN-RO`; the result seeds the
    /// transaction's pin set.
    pub fn fresh_pins(&self, staleness: Staleness) -> Vec<PinnedSnapshot> {
        let now = self.clock.now();
        let earliest = staleness.earliest_acceptable(now);
        let mut inner = self.inner.lock();
        inner.stats.queries += 1;
        let mut fresh: Vec<PinnedSnapshot> = inner
            .pins
            .values_mut()
            .filter(|p| p.pinned_at >= earliest)
            .map(|p| {
                p.in_use += 1;
                *p
            })
            .collect();
        fresh.sort_by_key(|p| std::cmp::Reverse(p.timestamp));
        fresh
    }

    /// Registers a snapshot the library just pinned on the database, counting
    /// the registering transaction as one user of it. Returns `true` if the
    /// timestamp was already tracked: the pincushion holds exactly one
    /// database pin per tracked timestamp (the one [`Pincushion::reap`]
    /// hands back), so the caller's pin is then a duplicate it must `UNPIN`
    /// itself.
    pub fn register(&self, timestamp: Timestamp, pinned_at: WallClock) -> bool {
        let mut inner = self.inner.lock();
        inner.stats.registrations += 1;
        match inner.pins.entry(timestamp) {
            Entry::Occupied(mut tracked) => {
                tracked.get_mut().in_use += 1;
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(PinnedSnapshot {
                    timestamp,
                    pinned_at,
                    in_use: 1,
                });
                false
            }
        }
    }

    /// Releases one use of every snapshot in `timestamps`; called when a
    /// transaction finishes. Unknown timestamps are ignored (they may already
    /// have been reaped).
    pub fn release(&self, timestamps: &[Timestamp]) {
        let mut inner = self.inner.lock();
        for ts in timestamps {
            if let Some(p) = inner.pins.get_mut(ts) {
                p.in_use = p.in_use.saturating_sub(1);
            }
        }
    }

    /// Scans for unused snapshots older than the reap threshold and removes
    /// them from the table. Returns the removed timestamps so the caller can
    /// issue `UNPIN` commands to the database.
    pub fn reap(&self) -> Vec<Timestamp> {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let cutoff = now
            .as_micros()
            .saturating_sub(self.config.reap_after_micros);
        let doomed: Vec<Timestamp> = inner
            .pins
            .values()
            .filter(|p| p.in_use == 0 && p.pinned_at.as_micros() < cutoff)
            .map(|p| p.timestamp)
            .collect();
        for ts in &doomed {
            inner.pins.remove(ts);
        }
        inner.stats.reaped += doomed.len() as u64;
        doomed
    }

    /// The most recently pinned snapshot, if any.
    #[must_use]
    pub fn newest(&self) -> Option<PinnedSnapshot> {
        self.inner.lock().pins.values().next_back().copied()
    }

    /// The oldest snapshot still tracked, if any. Unlike
    /// [`fresh_pins`](Self::fresh_pins) this does not mark the snapshot as in
    /// use; it exists for maintenance tasks (cache staleness eviction) that
    /// only need a horizon.
    #[must_use]
    pub fn oldest(&self) -> Option<PinnedSnapshot> {
        self.inner.lock().pins.values().next().copied()
    }

    /// Number of snapshots currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().pins.len()
    }

    /// Returns `true` if no snapshots are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> PincushionStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc_with_clock() -> (Pincushion, SimClock) {
        let clock = SimClock::new();
        (
            Pincushion::new(PincushionConfig::default(), clock.clone()),
            clock,
        )
    }

    #[test]
    fn register_and_query_fresh_pins() {
        let (pc, clock) = pc_with_clock();
        pc.register(Timestamp(5), clock.now());
        clock.advance_secs(10);
        pc.register(Timestamp(9), clock.now());
        clock.advance_secs(10);

        // 30-second staleness sees both, newest first.
        let fresh = pc.fresh_pins(Staleness::seconds(30));
        assert_eq!(
            fresh.iter().map(|p| p.timestamp).collect::<Vec<_>>(),
            vec![Timestamp(9), Timestamp(5)]
        );
        // 15-second staleness sees only the newer one.
        let fresh = pc.fresh_pins(Staleness::seconds(15));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].timestamp, Timestamp(9));
        // Fresh (zero staleness) sees nothing pinned in the past.
        assert!(pc.fresh_pins(Staleness::Fresh).is_empty());
        assert_eq!(pc.stats().queries, 3);
        assert_eq!(pc.stats().registrations, 2);
    }

    #[test]
    fn fresh_pins_marks_snapshots_in_use() {
        let (pc, clock) = pc_with_clock();
        pc.register(Timestamp(5), clock.now());
        let fresh = pc.fresh_pins(Staleness::seconds(30));
        // register() counted one use, fresh_pins another.
        assert_eq!(fresh[0].in_use, 2);
        pc.release(&[Timestamp(5), Timestamp(5)]);
        let again = pc.fresh_pins(Staleness::seconds(30));
        assert_eq!(again[0].in_use, 1);
        // Releasing an unknown timestamp is harmless.
        pc.release(&[Timestamp(999)]);
    }

    #[test]
    fn reap_removes_only_old_unused_snapshots() {
        let (pc, clock) = pc_with_clock();
        pc.register(Timestamp(5), clock.now()); // in_use = 1
        pc.register(Timestamp(9), clock.now());
        pc.release(&[Timestamp(9)]); // now unused
        clock.advance_secs(300);
        pc.register(Timestamp(20), clock.now());
        pc.release(&[Timestamp(20)]); // unused but recent

        let reaped = pc.reap();
        assert_eq!(reaped, vec![Timestamp(9)], "only the old, unused snapshot");
        assert_eq!(pc.len(), 2);
        assert_eq!(pc.stats().reaped, 1);

        // Once the old in-use snapshot is released it is reaped too.
        pc.release(&[Timestamp(5)]);
        assert_eq!(pc.reap(), vec![Timestamp(5)]);
    }

    #[test]
    fn newest_and_emptiness() {
        let (pc, clock) = pc_with_clock();
        assert!(pc.is_empty());
        assert!(pc.newest().is_none());
        pc.register(Timestamp(5), clock.now());
        pc.register(Timestamp(9), clock.now());
        assert_eq!(pc.newest().unwrap().timestamp, Timestamp(9));
        assert_eq!(pc.oldest().unwrap().timestamp, Timestamp(5));
        assert_eq!(pc.len(), 2);
    }

    #[test]
    fn registering_same_snapshot_twice_increments_usage() {
        let (pc, clock) = pc_with_clock();
        assert!(!pc.register(Timestamp(5), clock.now()));
        assert!(pc.register(Timestamp(5), clock.now()), "already tracked");
        assert_eq!(pc.newest().unwrap().in_use, 2);
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn with_defaults_constructs() {
        let pc = Pincushion::with_defaults();
        assert!(pc.is_empty());
    }
}
