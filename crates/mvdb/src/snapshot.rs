//! Pinned snapshots (§5.1).
//!
//! The paper adds a `PIN` command to the database: it assigns an identifier
//! to the snapshot a read-only transaction runs at, and guarantees the
//! database state visible to that snapshot is retained until a matching
//! `UNPIN`. A pinned snapshot is identified by the commit timestamp of the
//! last transaction visible to it, which makes it trivially ordered with
//! respect to update transactions and other snapshots.

use std::collections::BTreeMap;

use txtypes::{Error, Result, Timestamp};

/// Identifier of a pinned snapshot: the commit timestamp of the last
/// transaction visible to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub Timestamp);

impl SnapshotId {
    /// The snapshot's timestamp.
    #[must_use]
    pub fn timestamp(self) -> Timestamp {
        self.0
    }
}

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snap:{}", self.0.as_u64())
    }
}

/// Reference-counted registry of pinned snapshots inside the database.
///
/// The vacuum process consults [`PinRegistry::horizon`] to decide which dead
/// tuple versions may be reclaimed: anything invisible to the oldest pin (and
/// to the oldest running transaction, handled by the caller) is garbage.
#[derive(Debug, Default)]
pub struct PinRegistry {
    pins: BTreeMap<Timestamp, usize>,
}

impl PinRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> PinRegistry {
        PinRegistry::default()
    }

    /// Pins a snapshot (incrementing its reference count) and returns its id.
    pub fn pin(&mut self, ts: Timestamp) -> SnapshotId {
        *self.pins.entry(ts).or_insert(0) += 1;
        SnapshotId(ts)
    }

    /// Releases one reference to a pinned snapshot.
    pub fn unpin(&mut self, id: SnapshotId) -> Result<()> {
        match self.pins.get_mut(&id.0) {
            Some(count) if *count > 1 => {
                *count -= 1;
                Ok(())
            }
            Some(_) => {
                self.pins.remove(&id.0);
                Ok(())
            }
            None => Err(Error::SnapshotUnavailable(format!(
                "snapshot {id} is not pinned"
            ))),
        }
    }

    /// Returns `true` if the given timestamp is currently pinned.
    #[must_use]
    pub fn is_pinned(&self, ts: Timestamp) -> bool {
        self.pins.contains_key(&ts)
    }

    /// The oldest pinned timestamp, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<Timestamp> {
        self.pins.keys().next().copied()
    }

    /// The vacuum horizon implied by the pins alone: versions dead before
    /// this timestamp are invisible to every pinned snapshot. When nothing is
    /// pinned, the supplied `latest` timestamp is the horizon.
    #[must_use]
    pub fn horizon(&self, latest: Timestamp) -> Timestamp {
        self.oldest().unwrap_or(latest)
    }

    /// Number of distinct pinned snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// Returns `true` if no snapshots are pinned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }

    /// The currently pinned timestamps, oldest first.
    #[must_use]
    pub fn pinned_timestamps(&self) -> Vec<Timestamp> {
        self.pins.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_refcounting() {
        let mut r = PinRegistry::new();
        let a = r.pin(Timestamp(5));
        let b = r.pin(Timestamp(5));
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        r.unpin(a).unwrap();
        assert!(r.is_pinned(Timestamp(5)));
        r.unpin(b).unwrap();
        assert!(!r.is_pinned(Timestamp(5)));
        assert!(r.unpin(a).is_err());
    }

    #[test]
    fn horizon_is_oldest_pin_or_latest() {
        let mut r = PinRegistry::new();
        assert_eq!(r.horizon(Timestamp(50)), Timestamp(50));
        r.pin(Timestamp(10));
        r.pin(Timestamp(30));
        assert_eq!(r.horizon(Timestamp(50)), Timestamp(10));
        assert_eq!(r.oldest(), Some(Timestamp(10)));
        assert_eq!(r.pinned_timestamps(), vec![Timestamp(10), Timestamp(30)]);
    }

    #[test]
    fn display_and_accessors() {
        let id = SnapshotId(Timestamp(7));
        assert_eq!(id.to_string(), "snap:7");
        assert_eq!(id.timestamp(), Timestamp(7));
        assert!(PinRegistry::new().is_empty());
    }
}
