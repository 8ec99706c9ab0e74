//! The query AST.
//!
//! The engine supports the query shapes the RUBiS and wiki workloads need:
//! single-table selects with conjunctive/disjunctive comparison predicates, an
//! optional equi-join against a second table, projection, ordering, limits,
//! and simple aggregates. This is deliberately not a SQL parser — queries are
//! built programmatically — but the plan/execute split and the
//! validity/invalidation bookkeeping are faithful to the paper.

use txtypes::{Error, Result};

use crate::schema::TableSchema;
use crate::value::Value;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Applies the operator to two values.
    #[must_use]
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

/// A row predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Compare a column against a constant.
    Cmp {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Membership in a list of constants (`column IN (v1, v2, ...)`).
    In {
        /// Column name.
        column: String,
        /// Candidate values. NULL members never match (SQL semantics).
        values: Vec<Value>,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column = value`.
    #[must_use]
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor for a comparison.
    #[must_use]
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Convenience constructor for `column IN (values)`.
    #[must_use]
    pub fn in_list(
        column: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Predicate {
        Predicate::In {
            column: column.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Conjunction of two predicates, flattening nested `And`s.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Evaluates the predicate against a row described by `schema`.
    ///
    /// Unknown columns are an error (they indicate a query/schema mismatch,
    /// not a missing value).
    pub fn eval(&self, schema: &TableSchema, row: &[Value]) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { column, op, value } => {
                let idx = schema.column_index(column)?;
                let cell = row
                    .get(idx)
                    .ok_or_else(|| Error::Query(format!("row too short for column '{column}'")))?;
                if cell.is_null() || value.is_null() {
                    // SQL three-valued logic collapsed to false.
                    return Ok(false);
                }
                Ok(op.eval(cell, value))
            }
            Predicate::In { column, values } => {
                let idx = schema.column_index(column)?;
                let cell = row
                    .get(idx)
                    .ok_or_else(|| Error::Query(format!("row too short for column '{column}'")))?;
                if cell.is_null() {
                    // NULL IN (...) is unknown; collapsed to false.
                    return Ok(false);
                }
                Ok(values.iter().any(|v| !v.is_null() && v == cell))
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(schema, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(schema, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.eval(schema, row)?),
        }
    }

    /// Collects the conjunctive top-level comparisons, used by the planner to
    /// find indexable conditions.
    #[must_use]
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            Predicate::True => Vec::new(),
            other => vec![other],
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// An aggregate function over the result rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    Count,
    /// `SUM(column)`.
    Sum(String),
    /// `MIN(column)`.
    Min(String),
    /// `MAX(column)`.
    Max(String),
    /// `AVG(column)`.
    Avg(String),
}

/// An inner equi-join against a second table.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The inner (joined) table.
    pub table: String,
    /// Join column on the outer table.
    pub left_column: String,
    /// Join column on the inner table.
    pub right_column: String,
    /// Additional predicate on inner-table columns.
    pub predicate: Predicate,
}

/// A select query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// The outer table.
    pub table: String,
    /// Predicate over outer-table columns.
    pub predicate: Predicate,
    /// Optional inner equi-join.
    pub join: Option<Join>,
    /// Columns to return (`None` means all columns of the outer table plus,
    /// if joined, all columns of the inner table).
    pub projection: Option<Vec<String>>,
    /// Optional ordering, applied before `limit`.
    pub order_by: Option<(String, SortOrder)>,
    /// Optional row limit.
    pub limit: Option<usize>,
    /// Optional aggregate; when present the result is a single row.
    pub aggregate: Option<Aggregate>,
    /// Forces the planner to use a sequential scan for the outer table.
    /// Used by tests (and diagnostics) to compare an index-assisted plan
    /// against the reference scan plan; never set by applications.
    pub force_seq_scan: bool,
}

impl SelectQuery {
    /// Starts building a query over `table`.
    #[must_use]
    pub fn table(table: impl Into<String>) -> SelectQuery {
        SelectQuery {
            table: table.into(),
            predicate: Predicate::True,
            join: None,
            projection: None,
            order_by: None,
            limit: None,
            aggregate: None,
            force_seq_scan: false,
        }
    }

    /// Sets the predicate (replacing any previous one).
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> SelectQuery {
        self.predicate = predicate;
        self
    }

    /// Adds an equality filter on `column`, conjoined with any existing
    /// predicate.
    #[must_use]
    pub fn filter_eq(mut self, column: impl Into<String>, value: impl Into<Value>) -> SelectQuery {
        self.predicate = std::mem::replace(&mut self.predicate, Predicate::True)
            .and(Predicate::eq(column, value));
        self
    }

    /// Adds an inner equi-join.
    #[must_use]
    pub fn join(
        mut self,
        table: impl Into<String>,
        left_column: impl Into<String>,
        right_column: impl Into<String>,
    ) -> SelectQuery {
        self.join = Some(Join {
            table: table.into(),
            left_column: left_column.into(),
            right_column: right_column.into(),
            predicate: Predicate::True,
        });
        self
    }

    /// Sets a predicate on the joined table.
    #[must_use]
    pub fn join_filter(mut self, predicate: Predicate) -> SelectQuery {
        if let Some(join) = &mut self.join {
            join.predicate = std::mem::replace(&mut join.predicate, Predicate::True).and(predicate);
        }
        self
    }

    /// Restricts the returned columns.
    #[must_use]
    pub fn select(mut self, columns: Vec<&str>) -> SelectQuery {
        self.projection = Some(columns.into_iter().map(String::from).collect());
        self
    }

    /// Sets the ordering column and direction.
    #[must_use]
    pub fn order_by(mut self, column: impl Into<String>, order: SortOrder) -> SelectQuery {
        self.order_by = Some((column.into(), order));
        self
    }

    /// Sets the row limit.
    #[must_use]
    pub fn limit(mut self, limit: usize) -> SelectQuery {
        self.limit = Some(limit);
        self
    }

    /// Turns the query into an aggregate query.
    #[must_use]
    pub fn aggregate(mut self, aggregate: Aggregate) -> SelectQuery {
        self.aggregate = Some(aggregate);
        self
    }

    /// Forces the outer table to be read with a sequential scan, disabling
    /// every index-assisted access path. The result (rows and validity
    /// interval) must be identical to the planner's choice; tests rely on
    /// this to prove the fast paths sound.
    #[must_use]
    pub fn force_seq_scan(mut self) -> SelectQuery {
        self.force_seq_scan = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::ColumnType;

    fn schema() -> TableSchema {
        TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("rating", ColumnType::Int)
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.eval(&Value::text("b"), &Value::text("a")));
    }

    #[test]
    fn predicate_eval_basic() {
        let s = schema();
        let row = vec![Value::Int(1), Value::text("alice"), Value::Int(5)];
        assert!(Predicate::eq("id", 1i64).eval(&s, &row).unwrap());
        assert!(!Predicate::eq("id", 2i64).eval(&s, &row).unwrap());
        assert!(Predicate::cmp("rating", CmpOp::Ge, 3i64)
            .eval(&s, &row)
            .unwrap());
        assert!(Predicate::True.eval(&s, &row).unwrap());
        assert!(Predicate::eq("missing", 1i64).eval(&s, &row).is_err());
    }

    #[test]
    fn predicate_eval_compound() {
        let s = schema();
        let row = vec![Value::Int(1), Value::text("alice"), Value::Int(5)];
        let p = Predicate::eq("id", 1i64).and(Predicate::cmp("rating", CmpOp::Gt, 3i64));
        assert!(p.eval(&s, &row).unwrap());
        let q = Predicate::Or(vec![
            Predicate::eq("id", 9i64),
            Predicate::eq("name", "alice"),
        ]);
        assert!(q.eval(&s, &row).unwrap());
        let n = Predicate::Not(Box::new(Predicate::eq("id", 1i64)));
        assert!(!n.eval(&s, &row).unwrap());
    }

    #[test]
    fn in_list_matches_membership_and_ignores_nulls() {
        let s = schema();
        let row = vec![Value::Int(1), Value::text("alice"), Value::Int(5)];
        assert!(Predicate::in_list("rating", [4i64, 5, 6])
            .eval(&s, &row)
            .unwrap());
        assert!(!Predicate::in_list("rating", [1i64, 2])
            .eval(&s, &row)
            .unwrap());
        // NULL members never match, and an empty list matches nothing.
        let with_null = Predicate::In {
            column: "rating".into(),
            values: vec![Value::Null, Value::Int(5)],
        };
        assert!(with_null.eval(&s, &row).unwrap());
        let only_null = Predicate::In {
            column: "rating".into(),
            values: vec![Value::Null],
        };
        assert!(!only_null.eval(&s, &row).unwrap());
        assert!(!Predicate::in_list("rating", Vec::<i64>::new())
            .eval(&s, &row)
            .unwrap());
        // A NULL cell is never IN anything.
        let null_row = vec![Value::Int(1), Value::text("a"), Value::Null];
        assert!(!Predicate::in_list("rating", [5i64])
            .eval(&s, &null_row)
            .unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let row = vec![Value::Int(1), Value::Null, Value::Int(5)];
        assert!(!Predicate::eq("name", "alice").eval(&s, &row).unwrap());
        assert!(!Predicate::cmp("name", CmpOp::Ne, "alice")
            .eval(&s, &row)
            .unwrap());
    }

    #[test]
    fn and_flattens_and_conjuncts_collects() {
        let p = Predicate::eq("a", 1i64)
            .and(Predicate::eq("b", 2i64))
            .and(Predicate::eq("c", 3i64));
        assert_eq!(p.conjuncts().len(), 3);
        assert_eq!(Predicate::True.conjuncts().len(), 0);
        // True is the identity.
        assert_eq!(
            Predicate::True.and(Predicate::eq("a", 1i64)),
            Predicate::eq("a", 1i64)
        );
    }

    #[test]
    fn query_builder_composes() {
        let q = SelectQuery::table("items")
            .filter(Predicate::eq("category", 3i64))
            .join("users", "seller", "id")
            .join_filter(Predicate::eq("region", 2i64))
            .select(vec!["id", "name"])
            .order_by("id", SortOrder::Desc)
            .limit(20);
        assert_eq!(q.table, "items");
        assert!(q.join.is_some());
        assert_eq!(q.projection.as_ref().unwrap().len(), 2);
        assert_eq!(q.limit, Some(20));
    }

    #[test]
    fn filter_eq_accumulates() {
        let q = SelectQuery::table("t")
            .filter_eq("a", 1i64)
            .filter_eq("b", 2i64);
        assert_eq!(q.predicate.conjuncts().len(), 2);
    }
}
