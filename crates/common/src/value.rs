//! SQL-ish scalar values.
//!
//! The engine supports three physical types: 64-bit integers (also used for
//! dates, stored as days since 1970-01-01), doubles, and UTF-8 strings.
//! Strings are reference counted so that cloning a row out of an MVCC version
//! chain is cheap.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::hash::{hash_bytes, hash_f64, hash_i64};
use crate::schema::DataType;

/// [`Value::hash64`] of `Value::Null`.
pub const NULL_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// A scalar value flowing through the storage and query engines.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    /// 64-bit signed integer (also backs the `Date` logical type).
    Int(i64),
    /// 64-bit IEEE float. Compared via total order (NaN sorts last).
    Double(f64),
    /// UTF-8 string, cheaply cloneable.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The physical type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int64),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, erroring on any other variant.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::InvalidArgument(format!("expected Int, got {other}"))),
        }
    }

    /// Double payload, widening integers (SQL numeric coercion).
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(Error::InvalidArgument(format!("expected Double, got {other}"))),
        }
    }

    /// String payload, erroring on any other variant.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::InvalidArgument(format!("expected Str, got {other}"))),
        }
    }

    /// A stable 64-bit hash of the value, consistent with `Eq`.
    ///
    /// Used by shard keys and by the global secondary-index hash tables
    /// (which store only hashes, never values — paper §4.1).
    pub fn hash64(&self) -> u64 {
        match self {
            Value::Null => NULL_HASH,
            Value::Int(v) => hash_i64(*v),
            Value::Double(v) => hash_f64(*v),
            Value::Str(s) => hash_bytes(s.as_bytes()),
        }
    }

    /// Total-order comparison used by sort keys and min/max metadata.
    /// NULL < Int/Double (numerics inter-compare) < Str; NaN sorts after
    /// every other double.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Double(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
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
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Double(3.0)), Ordering::Equal);
        assert!(Value::Int(3) < Value::Double(3.5));
        assert!(Value::Double(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_sorts_last_among_doubles() {
        assert!(Value::Double(f64::NAN) > Value::Double(f64::INFINITY));
    }

    #[test]
    fn hash_consistent_with_eq() {
        // Cross-type numeric equality must imply equal hashes.
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_eq!(Value::Int(3).hash64(), Value::Double(3.0).hash64());
        // -0.0 sorts before 0.0 under the total order (distinct values),
        // but they may still collide on hash; only a == b => h(a) == h(b) is required.
        assert!(Value::Double(-0.0) < Value::Double(0.0));
        assert_ne!(Value::Int(1).hash64(), Value::Int(2).hash64());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Int(7).as_double().unwrap(), 7.0);
        assert_eq!(Value::str("x").as_str().unwrap(), "x");
        assert!(Value::str("x").as_int().is_err());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
