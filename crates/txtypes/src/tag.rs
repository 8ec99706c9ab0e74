//! Dual-granularity invalidation tags (§4.2, §5.3).
//!
//! Every still-valid cache entry carries a set of invalidation tags describing
//! which parts of the database it depends on. A tag has two parts: a table
//! name and an optional index-key description. Queries that perform an index
//! equality lookup receive a keyed tag (`USERS:NAME=ALICE`); queries that scan
//! a table (sequentially or by index range) receive a wildcard tag
//! (`USERS:?`). At update time the database emits the tags of the tuples it
//! touched, and a keyed tag matches either the identical keyed tag or the
//! table's wildcard.

use std::fmt;

/// A single invalidation tag: a table plus an optional key description.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvalidationTag {
    /// The table the dependency is on.
    pub table: String,
    /// `Some(column=value)` for an index-equality dependency, `None` for a
    /// wildcard (whole-table) dependency.
    pub key: Option<String>,
}

impl InvalidationTag {
    /// Creates a keyed tag, e.g. `users:name=alice`.
    #[must_use]
    pub fn keyed(table: impl Into<String>, key: impl Into<String>) -> InvalidationTag {
        InvalidationTag {
            table: table.into(),
            key: Some(key.into()),
        }
    }

    /// Creates a wildcard tag covering the whole table, e.g. `users:?`.
    #[must_use]
    pub fn wildcard(table: impl Into<String>) -> InvalidationTag {
        InvalidationTag {
            table: table.into(),
            key: None,
        }
    }

    /// Returns `true` if this is a wildcard (whole-table) tag.
    #[must_use]
    pub fn is_wildcard(&self) -> bool {
        self.key.is_none()
    }

    /// Returns `true` if an update carrying tag `update` invalidates a cached
    /// object that depends on `self`.
    ///
    /// Matching is symmetric in granularity: a wildcard on either side matches
    /// any tag on the same table; two keyed tags match only if the keys are
    /// equal.
    #[must_use]
    pub fn matches(&self, update: &InvalidationTag) -> bool {
        if self.table != update.table {
            return false;
        }
        match (&self.key, &update.key) {
            (None, _) | (_, None) => true,
            (Some(a), Some(b)) => a == b,
        }
    }
}

impl fmt::Display for InvalidationTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.key {
            Some(k) => write!(f, "{}:{}", self.table, k),
            None => write!(f, "{}:?", self.table),
        }
    }
}

/// A set of invalidation tags.
///
/// Tag sets are small (one or a few tags per query, a handful per cached
/// object), so a sorted `Vec` with deduplication is both compact and cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagSet {
    tags: Vec<InvalidationTag>,
}

impl TagSet {
    /// Creates an empty tag set.
    #[must_use]
    pub fn new() -> TagSet {
        TagSet::default()
    }

    /// Returns `true` if the set holds no tags.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Returns the number of tags in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Returns the tags in sorted order.
    #[must_use]
    pub fn tags(&self) -> &[InvalidationTag] {
        &self.tags
    }

    /// Inserts a tag, keeping the set deduplicated.
    ///
    /// Inserting a wildcard tag for a table subsumes (removes) any keyed tags
    /// already present for that table; inserting a keyed tag when the table's
    /// wildcard is already present is a no-op. This mirrors the database-side
    /// aggregation of "a transaction that modifies most of a table" (§5.3).
    pub fn insert(&mut self, tag: InvalidationTag) {
        if tag.is_wildcard() {
            self.tags.retain(|t| t.table != tag.table);
        } else if self
            .tags
            .iter()
            .any(|t| t.table == tag.table && t.is_wildcard())
        {
            return;
        }
        if let Err(pos) = self.tags.binary_search(&tag) {
            self.tags.insert(pos, tag);
        }
    }

    /// Merges another tag set into this one.
    pub fn merge(&mut self, other: &TagSet) {
        for tag in &other.tags {
            self.insert(tag.clone());
        }
    }

    /// Returns `true` if any tag in this (dependency) set is matched by any
    /// tag in the `update` set.
    #[must_use]
    pub fn intersects(&self, update: &TagSet) -> bool {
        self.tags
            .iter()
            .any(|dep| update.tags.iter().any(|upd| dep.matches(upd)))
    }

    /// Iterates over the tags.
    pub fn iter(&self) -> impl Iterator<Item = &InvalidationTag> {
        self.tags.iter()
    }
}

impl FromIterator<InvalidationTag> for TagSet {
    fn from_iter<T: IntoIterator<Item = InvalidationTag>>(iter: T) -> Self {
        let mut s = TagSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl fmt::Display for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_and_wildcard_display() {
        assert_eq!(
            InvalidationTag::keyed("users", "name=alice").to_string(),
            "users:name=alice"
        );
        assert_eq!(InvalidationTag::wildcard("users").to_string(), "users:?");
    }

    #[test]
    fn matching_rules() {
        let keyed = InvalidationTag::keyed("users", "id=1");
        let other_key = InvalidationTag::keyed("users", "id=2");
        let wild = InvalidationTag::wildcard("users");
        let other_table = InvalidationTag::keyed("items", "id=1");

        assert!(keyed.matches(&keyed));
        assert!(!keyed.matches(&other_key));
        assert!(
            keyed.matches(&wild),
            "wildcard update hits keyed dependency"
        );
        assert!(
            wild.matches(&keyed),
            "wildcard dependency hit by keyed update"
        );
        assert!(wild.matches(&wild));
        assert!(!keyed.matches(&other_table));
    }

    #[test]
    fn tagset_insert_dedups() {
        let mut s = TagSet::new();
        s.insert(InvalidationTag::keyed("users", "id=1"));
        s.insert(InvalidationTag::keyed("users", "id=1"));
        s.insert(InvalidationTag::keyed("users", "id=2"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tagset_wildcard_subsumes_keyed() {
        let mut s = TagSet::new();
        s.insert(InvalidationTag::keyed("users", "id=1"));
        s.insert(InvalidationTag::keyed("users", "id=2"));
        s.insert(InvalidationTag::keyed("items", "id=9"));
        s.insert(InvalidationTag::wildcard("users"));
        assert_eq!(s.len(), 2);
        assert!(s.tags().contains(&InvalidationTag::wildcard("users")));
        // Keyed tag after wildcard is a no-op.
        s.insert(InvalidationTag::keyed("users", "id=3"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tagset_intersects() {
        let deps: TagSet = [
            InvalidationTag::keyed("users", "id=1"),
            InvalidationTag::keyed("items", "id=7"),
        ]
        .into_iter()
        .collect();
        let update_hit: TagSet = [InvalidationTag::keyed("items", "id=7")]
            .into_iter()
            .collect();
        let update_miss: TagSet = [InvalidationTag::keyed("items", "id=8")]
            .into_iter()
            .collect();
        let update_wild: TagSet = [InvalidationTag::wildcard("users")].into_iter().collect();
        assert!(deps.intersects(&update_hit));
        assert!(!deps.intersects(&update_miss));
        assert!(deps.intersects(&update_wild));
        assert!(!deps.intersects(&TagSet::new()));
    }

    #[test]
    fn tagset_merge_and_iter() {
        let mut a: TagSet = [InvalidationTag::keyed("users", "id=1")]
            .into_iter()
            .collect();
        let b: TagSet = [
            InvalidationTag::keyed("users", "id=2"),
            InvalidationTag::wildcard("bids"),
        ]
        .into_iter()
        .collect();
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().count(), 3);
    }
}
