//! The dynamic value type of the Cmm VM and runtime.

use std::fmt;

/// A runtime value: a 64-bit integer (also booleans and handles) or a
/// 64-bit float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer / boolean / handle.
    Int(i64),
    /// IEEE double.
    Float(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float (the type checker prevents this in
    /// well-typed programs).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(f) => panic!("expected int, found float {f}"),
        }
    }

    /// True if the value is "truthy" (nonzero int).
    pub fn is_true(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }

    /// Bit-stable encoding for queues and atomics.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(f) => f.to_bits(),
        }
    }

    /// Decodes [`Value::to_bits`] given the expected kind.
    pub fn from_bits(bits: u64, is_float: bool) -> Value {
        if is_float {
            Value::Float(f64::from_bits(bits))
        } else {
            Value::Int(bits as i64)
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(i64::from(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        for v in [Value::Int(-5), Value::Int(i64::MAX), Value::Float(2.5)] {
            let is_float = matches!(v, Value::Float(_));
            assert_eq!(Value::from_bits(v.to_bits(), is_float), v);
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_true());
        assert!(!Value::Int(0).is_true());
        assert!(Value::Float(0.5).is_true());
        assert!(!Value::Float(0.0).is_true());
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_panics_on_float() {
        Value::Float(1.0).as_int();
    }
}
