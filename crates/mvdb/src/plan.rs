//! Query planning and invalidation-tag assignment (§5.3).
//!
//! The planner picks an access method for the outer table and for the joined
//! table (if any). The access method determines the invalidation tags the
//! query receives: index equality and IN-list probes yield keyed
//! `TABLE:COL=VALUE` tags (one per probed key), while sequential scans,
//! index range scans, and the ordered/endpoint fast paths yield the wildcard
//! `TABLE:?` tag, exactly as described in the paper. Tags for index-nested-
//! loop joins are produced at execution time, one keyed tag per probed join
//! key.
//!
//! Access paths form a cost lattice — `IndexEq` ≻ `IndexIn` ≻ `IndexRange` ≻
//! `SeqScan` — and after the base choice the planner *upgrades* SeqScan (or a
//! same-column IndexRange, whose bounds it absorbs) to `IndexOrdered` for
//! ORDER BY pushdown or `IndexEndpoint` for MIN/MAX probes when the relevant
//! column is indexed. Keyed paths are never downgraded: their tags are
//! sharper, which matters more to the cache tier than saving a sort.

use txtypes::{Error, InvalidationTag, Result, TagSet};

use crate::query::{Aggregate, CmpOp, Join, Predicate, SelectQuery, SortOrder};
use crate::table::Table;
use crate::value::Value;

/// How the executor will fetch candidate tuples from a table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Probe an index for a single key.
    IndexEq {
        /// Indexed column.
        column: String,
        /// Key value.
        value: Value,
    },
    /// Probe an index once per IN-list member, emitting one keyed tag per
    /// probed key. `values` are deduplicated, NULL-free, and sorted at plan
    /// time so probe order (and page accounting) is deterministic.
    IndexIn {
        /// Indexed column.
        column: String,
        /// Distinct non-NULL keys to probe.
        values: Vec<Value>,
    },
    /// Walk an index between two optional (inclusive) bounds.
    IndexRange {
        /// Indexed column.
        column: String,
        /// Lower bound, if any.
        lo: Option<Value>,
        /// Upper bound, if any.
        hi: Option<Value>,
    },
    /// Walk an index in sort order for ORDER BY (+ LIMIT) pushdown, visiting
    /// key groups lazily so the executor can stop after `limit` visible rows.
    /// Bounds are absorbed from a same-column range predicate, if any.
    IndexOrdered {
        /// Indexed column (the ORDER BY column).
        column: String,
        /// Walk direction.
        order: SortOrder,
        /// Lower bound, if any (inclusive).
        lo: Option<Value>,
        /// Upper bound, if any (inclusive).
        hi: Option<Value>,
    },
    /// Walk an index from one end to answer MIN/MAX on the indexed column,
    /// stopping at the first key group with a visible matching row.
    IndexEndpoint {
        /// Indexed column (the aggregate's column).
        column: String,
        /// `true` for MAX (walk from the high end), `false` for MIN.
        max: bool,
        /// Lower bound, if any (inclusive).
        lo: Option<Value>,
        /// Upper bound, if any (inclusive).
        hi: Option<Value>,
    },
    /// Scan the whole heap.
    SeqScan,
}

/// The keyed `TABLE:COLUMN=VALUE` tag (§5.3) of one index entry: what a probe
/// of that key depends on, and what a write to a row filed under it
/// invalidates.
pub(crate) fn keyed_tag(table: &str, column: &str, value: &Value) -> InvalidationTag {
    InvalidationTag::keyed(table, format!("{}={}", column, value.render_key()))
}

impl AccessPath {
    /// The invalidation tags this access method contributes for `table`
    /// (§5.3): keyed for index equality and per probed IN-list key, wildcard
    /// otherwise.
    #[must_use]
    pub fn invalidation_tags(&self, table: &str) -> Vec<InvalidationTag> {
        match self {
            AccessPath::IndexEq { column, value } => vec![keyed_tag(table, column, value)],
            AccessPath::IndexIn { column, values } => {
                values.iter().map(|v| keyed_tag(table, column, v)).collect()
            }
            AccessPath::IndexRange { .. }
            | AccessPath::IndexOrdered { .. }
            | AccessPath::IndexEndpoint { .. }
            | AccessPath::SeqScan => vec![InvalidationTag::wildcard(table)],
        }
    }

    /// Short label for observability counters (`db.plan.<label>`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AccessPath::IndexEq { .. } => "index_eq",
            AccessPath::IndexIn { .. } => "index_in",
            AccessPath::IndexRange { .. } => "index_range",
            AccessPath::IndexOrdered { .. } => "index_ordered",
            AccessPath::IndexEndpoint { .. } => "index_endpoint",
            AccessPath::SeqScan => "seq_scan",
        }
    }
}

/// How the inner table of a join is accessed for each outer row.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAccess {
    /// Probe an index on the inner join column with the outer row's key.
    IndexNestedLoop,
    /// Scan the inner table for each outer row (only when no index exists).
    NestedLoopScan,
}

/// The planned join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The join specification from the query.
    pub join: Join,
    /// The chosen inner access method.
    pub access: JoinAccess,
}

/// A fully planned query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The outer table.
    pub table: String,
    /// Outer access method.
    pub access: AccessPath,
    /// The full outer predicate (the executor re-checks it even when an index
    /// provided the equality, which keeps correctness independent of the
    /// access path).
    pub predicate: Predicate,
    /// Planned join, if the query has one.
    pub join: Option<JoinPlan>,
    /// The original query (projection, ordering, limit, aggregate).
    pub query: SelectQuery,
    /// Tags known at plan time (outer access + wildcard for scanned joins).
    pub base_tags: TagSet,
}

/// Plans `query` against the given tables.
///
/// `outer` must be the table named by `query.table`; `inner` must be present
/// iff the query has a join and must match the joined table.
pub fn plan_query(query: &SelectQuery, outer: &Table, inner: Option<&Table>) -> Result<QueryPlan> {
    if outer.schema().name != query.table {
        return Err(Error::Query(format!(
            "planner given table '{}' for query over '{}'",
            outer.schema().name,
            query.table
        )));
    }
    let access = if query.force_seq_scan {
        AccessPath::SeqScan
    } else {
        upgrade_access_path(choose_access_path(&query.predicate, outer), query, outer)
    };
    let mut base_tags = TagSet::new();
    for tag in access.invalidation_tags(&query.table) {
        base_tags.insert(tag);
    }

    let join = match (&query.join, inner) {
        (None, _) => None,
        (Some(join), Some(inner_table)) => {
            if inner_table.schema().name != join.table {
                return Err(Error::Query(format!(
                    "planner given inner table '{}' for join over '{}'",
                    inner_table.schema().name,
                    join.table
                )));
            }
            // Validate join columns exist.
            outer.schema().column_index(&join.left_column)?;
            inner_table.schema().column_index(&join.right_column)?;
            let access = if inner_table.has_index_on(&join.right_column) {
                JoinAccess::IndexNestedLoop
            } else {
                base_tags.insert(InvalidationTag::wildcard(&join.table));
                JoinAccess::NestedLoopScan
            };
            Some(JoinPlan {
                join: join.clone(),
                access,
            })
        }
        (Some(join), None) => {
            return Err(Error::Query(format!(
                "query joins '{}' but no inner table was supplied",
                join.table
            )))
        }
    };

    Ok(QueryPlan {
        table: query.table.clone(),
        access,
        predicate: query.predicate.clone(),
        join,
        query: query.clone(),
        base_tags,
    })
}

/// Upgrades a base access path to an order-aware fast path when the query
/// shape allows it.
///
/// `IndexOrdered` replaces SeqScan (or an IndexRange on the ORDER BY column,
/// absorbing its bounds) for no-join, no-aggregate queries ordering by an
/// indexed column — gated on the index holding no NULL sort keys, because
/// NULLs sort first in a materialized sort but are invisible to the index.
/// `IndexEndpoint` does the same for MIN/MAX aggregates on an indexed column;
/// it needs no NULL gate since both the index walk and the reference scan
/// ignore NULLs when computing MIN/MAX. Keyed paths (IndexEq/IndexIn) are
/// never replaced: their tags are sharper.
fn upgrade_access_path(base: AccessPath, query: &SelectQuery, table: &Table) -> AccessPath {
    if query.join.is_some() {
        return base;
    }
    // Bounds the base path already commits to, if it is replaceable for
    // walks over `column`; `None` means "keep the base path".
    let absorbable = |column: &str| -> Option<(Option<Value>, Option<Value>)> {
        match &base {
            AccessPath::SeqScan => Some((None, None)),
            AccessPath::IndexRange { column: c, lo, hi } if c == column => {
                Some((lo.clone(), hi.clone()))
            }
            _ => None,
        }
    };
    match &query.aggregate {
        Some(Aggregate::Min(col)) | Some(Aggregate::Max(col)) => {
            if table.has_index_on(col) {
                if let Some((lo, hi)) = absorbable(col) {
                    return AccessPath::IndexEndpoint {
                        column: col.clone(),
                        max: matches!(query.aggregate, Some(Aggregate::Max(_))),
                        lo,
                        hi,
                    };
                }
            }
            base
        }
        Some(_) => base,
        None => {
            if let Some((col, order)) = &query.order_by {
                if table.has_index_on(col) && table.index_null_count(col) == 0 {
                    if let Some((lo, hi)) = absorbable(col) {
                        return AccessPath::IndexOrdered {
                            column: col.clone(),
                            order: *order,
                            lo,
                            hi,
                        };
                    }
                }
            }
            base
        }
    }
}

/// Picks the cheapest access path supported by the predicate and the table's
/// indexes: index equality beats IN-list probes beats index range beats
/// sequential scan.
///
/// Exposed so the DML path (UPDATE/DELETE) can locate target rows the same
/// way SELECT does.
pub fn choose_access_path(predicate: &Predicate, table: &Table) -> AccessPath {
    let conjuncts = predicate.conjuncts();

    // Prefer an equality on an indexed column.
    for p in &conjuncts {
        if let Predicate::Cmp {
            column,
            op: CmpOp::Eq,
            value,
        } = p
        {
            if table.has_index_on(column) && !value.is_null() {
                return AccessPath::IndexEq {
                    column: column.clone(),
                    value: value.clone(),
                };
            }
        }
    }

    // Then an IN-list on an indexed column: one probe (and one keyed tag)
    // per distinct non-NULL member.
    for p in &conjuncts {
        if let Predicate::In { column, values } = p {
            if table.has_index_on(column) {
                let mut keys: Vec<Value> =
                    values.iter().filter(|v| !v.is_null()).cloned().collect();
                keys.sort();
                keys.dedup();
                return AccessPath::IndexIn {
                    column: column.clone(),
                    values: keys,
                };
            }
        }
    }

    // Otherwise look for range conditions on a single indexed column.
    for p in &conjuncts {
        if let Predicate::Cmp { column, op, value } = p {
            if !table.has_index_on(column) || value.is_null() {
                continue;
            }
            let (mut lo, mut hi) = (None, None);
            match op {
                CmpOp::Gt | CmpOp::Ge => lo = Some(value.clone()),
                CmpOp::Lt | CmpOp::Le => hi = Some(value.clone()),
                _ => continue,
            }
            // Try to find the matching opposite bound on the same column.
            for q in &conjuncts {
                if let Predicate::Cmp {
                    column: c2,
                    op: op2,
                    value: v2,
                } = q
                {
                    if c2 == column {
                        match op2 {
                            CmpOp::Gt | CmpOp::Ge if lo.is_none() => lo = Some(v2.clone()),
                            CmpOp::Lt | CmpOp::Le if hi.is_none() => hi = Some(v2.clone()),
                            _ => {}
                        }
                    }
                }
            }
            return AccessPath::IndexRange {
                column: column.clone(),
                lo,
                hi,
            };
        }
    }

    AccessPath::SeqScan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::ColumnType;

    fn items_table() -> Table {
        let schema = TableSchema::new("items")
            .column("id", ColumnType::Int)
            .column("seller", ColumnType::Int)
            .column("category", ColumnType::Int)
            .column("price", ColumnType::Float)
            .unique_index("id")
            .index("category");
        Table::new(schema, 16).unwrap()
    }

    fn users_table() -> Table {
        let schema = TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("region", ColumnType::Int)
            .unique_index("id");
        Table::new(schema, 16).unwrap()
    }

    #[test]
    fn equality_on_indexed_column_uses_index_eq() {
        let t = items_table();
        let q = SelectQuery::table("items").filter(Predicate::eq("id", 42i64));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEq {
                column: "id".into(),
                value: Value::Int(42)
            }
        );
        assert_eq!(
            plan.base_tags.tags(),
            &[InvalidationTag::keyed("items", "id=42")]
        );
    }

    #[test]
    fn equality_on_unindexed_column_falls_back_to_scan() {
        let t = items_table();
        let q = SelectQuery::table("items").filter(Predicate::eq("price", 10.0));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
        assert_eq!(plan.base_tags.tags(), &[InvalidationTag::wildcard("items")]);
    }

    #[test]
    fn range_on_indexed_column_uses_index_range_with_wildcard_tag() {
        let t = items_table();
        let q = SelectQuery::table("items").filter(
            Predicate::cmp("category", CmpOp::Ge, 3i64).and(Predicate::cmp(
                "category",
                CmpOp::Le,
                5i64,
            )),
        );
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                column: "category".into(),
                lo: Some(Value::Int(3)),
                hi: Some(Value::Int(5)),
            }
        );
        assert_eq!(plan.base_tags.tags(), &[InvalidationTag::wildcard("items")]);
    }

    #[test]
    fn equality_preferred_over_range() {
        let t = items_table();
        let q = SelectQuery::table("items")
            .filter(Predicate::cmp("category", CmpOp::Ge, 3i64).and(Predicate::eq("id", 7i64)));
        let plan = plan_query(&q, &t, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexEq { .. }));
    }

    #[test]
    fn join_with_inner_index_plans_index_nested_loop() {
        let items = items_table();
        let users = users_table();
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("category", 3i64))
            .join("users", "seller", "id");
        let plan = plan_query(&q, &items, Some(&users)).unwrap();
        let join = plan.join.unwrap();
        assert_eq!(join.access, JoinAccess::IndexNestedLoop);
        // No wildcard tag for users at plan time; keyed tags come at exec time.
        assert!(!plan
            .base_tags
            .tags()
            .contains(&InvalidationTag::wildcard("users")));
    }

    #[test]
    fn join_without_inner_index_gets_wildcard_tag() {
        let items = items_table();
        let users_schema = TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("region", ColumnType::Int);
        let users = Table::new(users_schema, 16).unwrap();
        let q = SelectQuery::table("items").join("users", "seller", "id");
        let plan = plan_query(&q, &items, Some(&users)).unwrap();
        assert_eq!(plan.join.unwrap().access, JoinAccess::NestedLoopScan);
        assert!(plan
            .base_tags
            .tags()
            .contains(&InvalidationTag::wildcard("users")));
    }

    #[test]
    fn planner_rejects_mismatched_tables() {
        let items = items_table();
        let users = users_table();
        let q = SelectQuery::table("items");
        assert!(plan_query(&q, &users, None).is_err());
        let qj = SelectQuery::table("items").join("users", "seller", "id");
        assert!(plan_query(&qj, &items, None).is_err());
        assert!(plan_query(&qj, &items, Some(&items)).is_err());
    }

    #[test]
    fn join_on_missing_column_is_rejected() {
        let items = items_table();
        let users = users_table();
        let q = SelectQuery::table("items").join("users", "nope", "id");
        assert!(plan_query(&q, &items, Some(&users)).is_err());
    }

    #[test]
    fn in_list_on_indexed_column_probes_with_keyed_tags() {
        let t = items_table();
        let q = SelectQuery::table("items").filter(
            Predicate::in_list("category", [5i64, 3, 5, 3]).and(Predicate::eq("price", 1.0)),
        );
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexIn {
                column: "category".into(),
                values: vec![Value::Int(3), Value::Int(5)],
            }
        );
        let mut tags = plan.base_tags.tags().to_vec();
        tags.sort();
        let mut want = vec![
            InvalidationTag::keyed("items", "category=3"),
            InvalidationTag::keyed("items", "category=5"),
        ];
        want.sort();
        assert_eq!(tags, want);
    }

    #[test]
    fn in_list_drops_null_members_and_eq_still_wins() {
        let t = items_table();
        let q = SelectQuery::table("items")
            .filter(Predicate::in_list("category", [Value::Int(3), Value::Null]));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexIn {
                column: "category".into(),
                values: vec![Value::Int(3)],
            }
        );
        let q = SelectQuery::table("items")
            .filter(Predicate::in_list("category", [3i64, 4]).and(Predicate::eq("id", 7i64)));
        let plan = plan_query(&q, &t, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexEq { .. }));
    }

    #[test]
    fn in_list_on_unindexed_column_falls_back_to_scan() {
        let t = items_table();
        let q = SelectQuery::table("items").filter(Predicate::in_list("price", [1.0, 2.0]));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
    }

    #[test]
    fn order_by_indexed_column_upgrades_to_index_ordered() {
        let t = items_table();
        let q = SelectQuery::table("items")
            .order_by("category", SortOrder::Desc)
            .limit(10);
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexOrdered {
                column: "category".into(),
                order: SortOrder::Desc,
                lo: None,
                hi: None,
            }
        );
        assert_eq!(plan.base_tags.tags(), &[InvalidationTag::wildcard("items")]);
    }

    #[test]
    fn index_ordered_absorbs_same_column_range_bounds() {
        let t = items_table();
        let q = SelectQuery::table("items")
            .filter(
                Predicate::cmp("category", CmpOp::Ge, 3i64).and(Predicate::cmp(
                    "category",
                    CmpOp::Le,
                    5i64,
                )),
            )
            .order_by("category", SortOrder::Asc);
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexOrdered {
                column: "category".into(),
                order: SortOrder::Asc,
                lo: Some(Value::Int(3)),
                hi: Some(Value::Int(5)),
            }
        );
    }

    #[test]
    fn order_by_upgrade_gated_on_null_free_index() {
        use crate::tuple::TupleVersion;
        use txtypes::Timestamp;
        let mut t = items_table();
        let row = t.allocate_row_id();
        t.insert_version(TupleVersion::committed(
            row,
            vec![Value::Int(1), Value::Int(1), Value::Null, Value::Float(1.0)],
            Timestamp(1),
        ))
        .unwrap();
        let q = SelectQuery::table("items").order_by("category", SortOrder::Asc);
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
        // NULL-free indexed column still upgrades.
        let q = SelectQuery::table("items").order_by("id", SortOrder::Asc);
        let plan = plan_query(&q, &t, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexOrdered { .. }));
    }

    #[test]
    fn order_by_does_not_downgrade_keyed_paths_or_joins() {
        let items = items_table();
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("category", 3i64))
            .order_by("id", SortOrder::Asc)
            .limit(5);
        let plan = plan_query(&q, &items, None).unwrap();
        assert!(matches!(plan.access, AccessPath::IndexEq { .. }));

        let users = users_table();
        let qj = SelectQuery::table("items")
            .join("users", "seller", "id")
            .order_by("id", SortOrder::Asc);
        let plan = plan_query(&qj, &items, Some(&users)).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
    }

    #[test]
    fn min_max_on_indexed_column_upgrades_to_endpoint() {
        let t = items_table();
        let q = SelectQuery::table("items").aggregate(Aggregate::Max("id".into()));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEndpoint {
                column: "id".into(),
                max: true,
                lo: None,
                hi: None,
            }
        );
        let q = SelectQuery::table("items")
            .filter(Predicate::cmp("category", CmpOp::Ge, 2i64))
            .aggregate(Aggregate::Min("category".into()));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEndpoint {
                column: "category".into(),
                max: false,
                lo: Some(Value::Int(2)),
                hi: None,
            }
        );
        // MIN/MAX on an unindexed column keeps the base path.
        let q = SelectQuery::table("items").aggregate(Aggregate::Min("price".into()));
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
    }

    #[test]
    fn force_seq_scan_bypasses_every_fast_path() {
        let t = items_table();
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("id", 1i64))
            .order_by("id", SortOrder::Asc)
            .force_seq_scan();
        let plan = plan_query(&q, &t, None).unwrap();
        assert_eq!(plan.access, AccessPath::SeqScan);
        assert_eq!(plan.base_tags.tags(), &[InvalidationTag::wildcard("items")]);
    }
}
