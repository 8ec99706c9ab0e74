//! Tuple versions and visibility.
//!
//! Every row in the database is represented by a chain of immutable tuple
//! versions. A version carries the commit stamp of the transaction that
//! created it and, once superseded or deleted, the stamp of the transaction
//! that deleted it. This is the same representation multiversion concurrency
//! control engines (PostgreSQL's `xmin`/`xmax`) use to implement snapshot
//! isolation, and it is precisely the information the paper's modified
//! database reuses to compute validity intervals (§5.1–5.2).

use txtypes::{Timestamp, ValidityInterval};

/// A logical row identity, stable across versions of the same row.
pub type RowId = u64;

/// An in-progress transaction identifier.
pub type TxnId = u64;

/// The creation/deletion stamp on a tuple version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Produced by a transaction that committed at the given timestamp.
    Committed(Timestamp),
    /// Produced by a transaction that is still in progress.
    Pending(TxnId),
    /// Produced by a transaction that aborted; the version is garbage.
    Aborted,
}

impl Stamp {
    /// Returns the commit timestamp if the stamp is committed.
    #[must_use]
    pub fn committed_at(&self) -> Option<Timestamp> {
        match self {
            Stamp::Committed(ts) => Some(*ts),
            _ => None,
        }
    }

    /// Returns `true` if the stamp belongs to the given in-progress
    /// transaction.
    #[must_use]
    pub fn is_pending_of(&self, txn: TxnId) -> bool {
        matches!(self, Stamp::Pending(id) if *id == txn)
    }
}

/// One version of a row.
#[derive(Debug, Clone)]
pub struct TupleVersion {
    /// The logical row this version belongs to.
    pub row_id: RowId,
    /// The column values of this version.
    pub values: Vec<crate::value::Value>,
    /// Stamp of the transaction that created the version.
    pub created: Stamp,
    /// Stamp of the transaction that deleted or superseded the version, if
    /// any.
    pub deleted: Option<Stamp>,
}

impl TupleVersion {
    /// Creates a fresh, live version created by an in-progress transaction.
    #[must_use]
    pub fn pending(row_id: RowId, values: Vec<crate::value::Value>, txn: TxnId) -> TupleVersion {
        TupleVersion {
            row_id,
            values,
            created: Stamp::Pending(txn),
            deleted: None,
        }
    }

    /// Creates a committed version; used when bulk-loading initial data.
    #[must_use]
    pub fn committed(
        row_id: RowId,
        values: Vec<crate::value::Value>,
        at: Timestamp,
    ) -> TupleVersion {
        TupleVersion {
            row_id,
            values,
            created: Stamp::Committed(at),
            deleted: None,
        }
    }

    /// Snapshot-isolation visibility check: is this version visible to a
    /// transaction reading at `snapshot_ts` with (optional) own id `me`?
    ///
    /// A version is visible if it was created by a transaction that committed
    /// at or before the snapshot (or by the reader itself), and it has not
    /// been deleted by such a transaction.
    #[must_use]
    pub fn visible_to(&self, snapshot_ts: Timestamp, me: Option<TxnId>) -> bool {
        let created_visible = match self.created {
            Stamp::Committed(ts) => ts <= snapshot_ts,
            Stamp::Pending(id) => me == Some(id),
            Stamp::Aborted => false,
        };
        if !created_visible {
            return false;
        }
        match self.deleted {
            None => true,
            Some(Stamp::Committed(ts)) => ts > snapshot_ts,
            Some(Stamp::Pending(id)) => me != Some(id),
            Some(Stamp::Aborted) => true,
        }
    }

    /// The validity interval of this version considering only *committed*
    /// state: `[created, deleted)` where both bounds come from committed
    /// transactions. Returns `None` if the creating transaction has not
    /// committed (the version does not yet correspond to any database state).
    ///
    /// Pending deletions are ignored: until the deleting transaction commits,
    /// the version is still the current one.
    #[must_use]
    pub fn committed_validity(&self) -> Option<ValidityInterval> {
        let lower = self.created.committed_at()?;
        match self.deleted.and_then(|s| s.committed_at()) {
            Some(upper) => ValidityInterval::bounded(lower, upper),
            None => Some(ValidityInterval::unbounded(lower)),
        }
    }

    /// Returns `true` if the version is dead to every snapshot at or after
    /// `horizon` (deleted by a transaction that committed at or before the
    /// horizon) or was created by an aborted transaction. Such versions can be
    /// reclaimed by the vacuum process.
    #[must_use]
    pub fn is_garbage_before(&self, horizon: Timestamp) -> bool {
        if matches!(self.created, Stamp::Aborted) {
            return true;
        }
        matches!(self.deleted, Some(Stamp::Committed(ts)) if ts <= horizon)
    }

    /// Approximate in-memory size of the version, for buffer-page accounting.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(|v| v.size_bytes()).sum::<usize>() + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn vals() -> Vec<Value> {
        vec![Value::Int(1), Value::text("x")]
    }

    #[test]
    fn committed_version_visibility() {
        let mut v = TupleVersion::committed(1, vals(), Timestamp(10));
        assert!(!v.visible_to(Timestamp(9), None));
        assert!(v.visible_to(Timestamp(10), None));
        assert!(v.visible_to(Timestamp(100), None));

        v.deleted = Some(Stamp::Committed(Timestamp(20)));
        assert!(v.visible_to(Timestamp(19), None));
        assert!(!v.visible_to(Timestamp(20), None));
    }

    #[test]
    fn pending_versions_visible_only_to_owner() {
        let v = TupleVersion::pending(1, vals(), 7);
        assert!(!v.visible_to(Timestamp(100), None));
        assert!(!v.visible_to(Timestamp(100), Some(8)));
        assert!(v.visible_to(Timestamp(100), Some(7)));
    }

    #[test]
    fn pending_delete_hides_only_from_owner() {
        let mut v = TupleVersion::committed(1, vals(), Timestamp(10));
        v.deleted = Some(Stamp::Pending(7));
        assert!(v.visible_to(Timestamp(50), None), "others still see it");
        assert!(
            !v.visible_to(Timestamp(50), Some(7)),
            "owner no longer sees it"
        );
    }

    #[test]
    fn aborted_creation_is_never_visible() {
        let mut v = TupleVersion::pending(1, vals(), 7);
        v.created = Stamp::Aborted;
        assert!(!v.visible_to(Timestamp(100), Some(7)));
        // An aborted deletion leaves the version live.
        let mut w = TupleVersion::committed(1, vals(), Timestamp(10));
        w.deleted = Some(Stamp::Aborted);
        assert!(w.visible_to(Timestamp(50), None));
    }

    #[test]
    fn committed_validity_intervals() {
        let mut v = TupleVersion::committed(1, vals(), Timestamp(10));
        assert_eq!(
            v.committed_validity(),
            Some(ValidityInterval::unbounded(Timestamp(10)))
        );
        v.deleted = Some(Stamp::Committed(Timestamp(20)));
        assert_eq!(
            v.committed_validity(),
            ValidityInterval::bounded(Timestamp(10), Timestamp(20))
        );
        // Pending delete does not bound the committed validity.
        v.deleted = Some(Stamp::Pending(3));
        assert_eq!(
            v.committed_validity(),
            Some(ValidityInterval::unbounded(Timestamp(10)))
        );
        // Pending creation has no committed validity at all.
        let p = TupleVersion::pending(1, vals(), 3);
        assert_eq!(p.committed_validity(), None);
    }

    #[test]
    fn garbage_detection() {
        let mut v = TupleVersion::committed(1, vals(), Timestamp(10));
        assert!(!v.is_garbage_before(Timestamp(100)));
        v.deleted = Some(Stamp::Committed(Timestamp(20)));
        assert!(v.is_garbage_before(Timestamp(20)));
        assert!(!v.is_garbage_before(Timestamp(19)));
        let mut a = TupleVersion::pending(2, vals(), 9);
        a.created = Stamp::Aborted;
        assert!(a.is_garbage_before(Timestamp::ZERO));
    }

    #[test]
    fn size_accounting() {
        let v = TupleVersion::committed(1, vals(), Timestamp(1));
        assert!(v.size_bytes() > 32);
    }
}
