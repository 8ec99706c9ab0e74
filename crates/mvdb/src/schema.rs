//! Table schemas and index definitions.

use txtypes::{Error, Result};

use crate::value::{ColumnType, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

/// An index definition. All indexes are single-column; that is all the RUBiS
/// and wiki schemas need, and it keeps the planner's invalidation-tag rules
/// (§5.3) easy to follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique within the table).
    pub name: String,
    /// The indexed column.
    pub column: String,
    /// Whether the index enforces uniqueness of non-NULL keys.
    pub unique: bool,
}

/// A table schema: columns plus secondary indexes.
///
/// Every table has an implicit, unique, integer primary key column which must
/// be listed first; the data generator and applications follow this
/// convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Secondary index definitions.
    pub indexes: Vec<IndexDef>,
}

impl TableSchema {
    /// Starts building a schema for `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Adds a column.
    #[must_use]
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> TableSchema {
        self.columns.push(ColumnDef {
            name: name.into(),
            ty,
        });
        self
    }

    /// Adds a non-unique secondary index on `column`.
    #[must_use]
    pub fn index(mut self, column: impl Into<String>) -> TableSchema {
        let column = column.into();
        self.indexes.push(IndexDef {
            name: format!("{}_{}_idx", self.name, column),
            column,
            unique: false,
        });
        self
    }

    /// Adds a unique secondary index on `column`.
    #[must_use]
    pub fn unique_index(mut self, column: impl Into<String>) -> TableSchema {
        let column = column.into();
        self.indexes.push(IndexDef {
            name: format!("{}_{}_key", self.name, column),
            column,
            unique: true,
        });
        self
    }

    /// Returns the position of `column`, or a schema error.
    pub fn column_index(&self, column: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| {
                Error::Schema(format!("no column '{}' in table '{}'", column, self.name))
            })
    }

    /// Returns the index definition covering `column`, if any.
    #[must_use]
    pub fn index_on(&self, column: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|ix| ix.column == column)
    }

    /// Validates a row against the schema: arity and column types.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::Schema(format!(
                "table '{}' expects {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, val) in self.columns.iter().zip(row) {
            if !col.ty.accepts(val) {
                return Err(Error::Schema(format!(
                    "column '{}.{}' does not accept value {}",
                    self.name, col.name, val
                )));
            }
        }
        Ok(())
    }

    /// Validates the schema itself: at least one column, unique column names,
    /// and indexes referencing existing columns.
    pub fn validate(&self) -> Result<()> {
        if self.columns.is_empty() {
            return Err(Error::Schema(format!(
                "table '{}' has no columns",
                self.name
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::Schema(format!(
                    "duplicate column '{}' in table '{}'",
                    c.name, self.name
                )));
            }
        }
        for ix in &self.indexes {
            if self.column_index(&ix.column).is_err() {
                return Err(Error::Schema(format!(
                    "index '{}' references missing column '{}'",
                    ix.name, ix.column
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users() -> TableSchema {
        TableSchema::new("users")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("rating", ColumnType::Int)
            .unique_index("id")
            .index("name")
    }

    #[test]
    fn builder_and_lookup() {
        let s = users();
        assert_eq!(s.columns.len(), 3);
        assert_eq!(s.column_index("name").unwrap(), 1);
        assert!(s.column_index("missing").is_err());
        assert!(s.index_on("id").unwrap().unique);
        assert!(!s.index_on("name").unwrap().unique);
        assert!(s.index_on("rating").is_none());
    }

    #[test]
    fn validate_row_checks_arity_and_types() {
        let s = users();
        assert!(s
            .validate_row(&[Value::Int(1), Value::text("alice"), Value::Int(5)])
            .is_ok());
        assert!(s.validate_row(&[Value::Int(1)]).is_err());
        assert!(s
            .validate_row(&[Value::text("x"), Value::text("alice"), Value::Int(5)])
            .is_err());
        // NULL is accepted anywhere.
        assert!(s
            .validate_row(&[Value::Int(1), Value::Null, Value::Null])
            .is_ok());
    }

    #[test]
    fn validate_schema() {
        assert!(users().validate().is_ok());
        assert!(TableSchema::new("empty").validate().is_err());
        let dup = TableSchema::new("t")
            .column("a", ColumnType::Int)
            .column("a", ColumnType::Int);
        assert!(dup.validate().is_err());
        let bad_ix = TableSchema::new("t")
            .column("a", ColumnType::Int)
            .index("b");
        assert!(bad_ix.validate().is_err());
    }
}
