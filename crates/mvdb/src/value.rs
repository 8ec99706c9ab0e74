//! Column values.
//!
//! The database stores dynamically-typed rows. The value set is intentionally
//! small — integers, floats, text, booleans and NULL — which covers the RUBiS
//! and wiki schemas used in the evaluation.

use std::cmp::Ordering;
use std::fmt;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for text values.
    #[must_use]
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Returns the integer payload, if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, accepting `Int` as well.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the text payload, if this is a `Text`.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns `true` if the value is NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory size in bytes, used by the simulated buffer
    /// manager and the cache's memory accounting.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len() + 8,
        }
    }

    /// Renders the value for use inside an invalidation tag or cache key.
    /// The rendering is canonical: equal values render identically.
    #[must_use]
    pub fn render_key(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v:?}"),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// Discriminant rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Returns `true` if `value` is acceptable for a column of this type
    /// (NULL is always acceptable).
    #[must_use]
    pub fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::text("hi").as_text(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::text("hi").as_int(), None);
    }

    #[test]
    fn ordering_within_and_across_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::text("a") < Value::text("b"));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Null < Value::Int(0));
        assert_eq!(Value::Int(3), Value::Int(3));
    }

    #[test]
    fn int_float_equality_is_consistent_with_ordering() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn render_key_is_canonical() {
        assert_eq!(Value::Int(42).render_key(), "42");
        assert_eq!(Value::text("Alice").render_key(), "Alice");
        assert_eq!(Value::Bool(false).render_key(), "false");
    }

    #[test]
    fn column_type_accepts() {
        assert!(ColumnType::Int.accepts(&Value::Int(1)));
        assert!(!ColumnType::Int.accepts(&Value::text("x")));
        assert!(ColumnType::Float.accepts(&Value::Int(1)));
        assert!(ColumnType::Text.accepts(&Value::Null));
        assert!(ColumnType::Bool.accepts(&Value::Bool(true)));
    }

    #[test]
    fn from_conversions_and_sizes() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert!(Value::text("hello").size_bytes() >= 5);
        assert_eq!(Value::Int(1).size_bytes(), 8);
    }
}
