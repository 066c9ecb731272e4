//! The scalar value domain shared by the Gamma and dataflow interpreters.
//!
//! Both execution models must evaluate the *same* expression semantics for
//! differential equivalence testing to be meaningful, so the value domain
//! and every operation on it live here, beneath both models.
//!
//! Semantics choices:
//!
//! * Integer arithmetic is **wrapping** (two's complement), keeping
//!   evaluation total so random programs generated by property tests cannot
//!   abort an engine mid-run. Division/remainder by zero are the only
//!   arithmetic errors.
//! * Floats are wrapped in [`OrdF64`] so values are `Eq + Ord + Hash` and can
//!   live in multisets; NaNs are normalised to a single bit pattern and sort
//!   greater than all other floats.
//! * Comparisons between mismatched types are a [`ValueError::Type`] rather
//!   than a panic; Gamma treats a failing condition evaluation as "reaction
//!   not enabled" while the dataflow engine surfaces it as a fault.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A 64-bit float with total ordering, usable as a multiset element.
///
/// NaN is normalised to the canonical quiet NaN so that equal-looking values
/// hash equally; the total order is the IEEE-754 `totalOrd`-style order with
/// NaN greatest. Serialised as raw bits: JSON has no NaN/−0.0, and snapshot
/// round-trips must be lossless.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(f64);

impl Serialize for OrdF64 {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(self.0.to_bits())
    }
}

impl<'de> Deserialize<'de> for OrdF64 {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bits = u64::deserialize(deserializer)?;
        Ok(OrdF64::new(f64::from_bits(bits)))
    }
}

impl OrdF64 {
    /// Wrap a float, normalising NaN to a canonical bit pattern.
    #[inline]
    pub fn new(x: f64) -> Self {
        if x.is_nan() {
            OrdF64(f64::NAN)
        } else {
            OrdF64(x)
        }
    }

    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    #[inline]
    fn key(self) -> u64 {
        // Map to a monotone integer key: flip sign bit for positives, invert
        // for negatives. NaN (canonical) maps above +inf.
        let bits = self.0.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl std::hash::Hash for OrdF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}
impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A runtime value carried by dataflow tokens and Gamma multiset elements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer with wrapping arithmetic.
    Int(i64),
    /// Boolean; Gamma control signals are the integers 0/1 in the paper, but
    /// a genuine boolean type keeps the frontend honest. Coercion rules are
    /// in [`Value::truthiness`].
    Bool(bool),
    /// Ordered 64-bit float.
    Float(OrdF64),
    /// Immutable interned-ish string (cheap to clone).
    Str(Arc<str>),
}

/// Errors produced by value operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueError {
    /// Operand types do not fit the operator (e.g. `true * 3`).
    Type {
        /// Operator name for diagnostics.
        op: Cow<'static, str>,
        /// Rendered operand list.
        operands: String,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::Type { op, operands } => {
                write!(f, "type error: `{op}` not defined on {operands}")
            }
            ValueError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for ValueError {}

/// Binary operators common to both execution models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition / float addition / string concatenation.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division; `DivisionByZero` on zero divisor.
    Div,
    /// Remainder; `DivisionByZero` on zero divisor.
    Rem,
    /// Minimum (total order on each type).
    Min,
    /// Maximum.
    Max,
    /// Logical/bitwise and (bools and ints).
    And,
    /// Logical/bitwise or.
    Or,
    /// Logical/bitwise xor.
    Xor,
}

/// Comparison operators; always produce [`Value::Bool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (bools) / bitwise not (ints).
    Not,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        };
        f.write_str(s)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

impl CmpOp {
    /// The comparison with operand order swapped (`a op b` == `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// The logical negation (`!(a op b)` == `a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

impl Value {
    /// Integer constructor.
    #[inline]
    pub fn int(x: i64) -> Value {
        Value::Int(x)
    }

    /// Boolean constructor.
    #[inline]
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// Float constructor (NaN-normalising).
    #[inline]
    pub fn float(x: f64) -> Value {
        Value::Float(OrdF64::new(x))
    }

    /// String constructor.
    #[inline]
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The integer inside, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Control-signal truthiness. The paper encodes steer control operands
    /// as `1`/`0` (see reaction R16: `if id2 == 1`); a real boolean or a
    /// nonzero integer both count as true, anything else as false.
    #[inline]
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(x) => Some(*x != 0),
            _ => None,
        }
    }

    /// Short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    fn type_err(op: impl Into<Cow<'static, str>>, operands: &[&Value]) -> ValueError {
        let mut s = String::new();
        for (i, v) in operands.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{v} : {}", v.type_name()));
        }
        ValueError::Type {
            op: op.into(),
            operands: s,
        }
    }

    /// Apply a binary operator.
    pub fn binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, ValueError> {
        use BinOp::*;
        use Value::*;
        Ok(match (op, a, b) {
            (Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
            (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
            (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
            (Div, Int(_), Int(0)) | (Rem, Int(_), Int(0)) => {
                return Err(ValueError::DivisionByZero)
            }
            // i64::MIN / -1 overflows; wrap like the other ops.
            (Div, Int(x), Int(y)) => Int(x.wrapping_div(*y)),
            (Rem, Int(x), Int(y)) => Int(x.wrapping_rem(*y)),
            (Min, Int(x), Int(y)) => Int(*x.min(y)),
            (Max, Int(x), Int(y)) => Int(*x.max(y)),
            (And, Int(x), Int(y)) => Int(x & y),
            (Or, Int(x), Int(y)) => Int(x | y),
            (Xor, Int(x), Int(y)) => Int(x ^ y),

            (Add, Float(x), Float(y)) => Value::float(x.get() + y.get()),
            (Sub, Float(x), Float(y)) => Value::float(x.get() - y.get()),
            (Mul, Float(x), Float(y)) => Value::float(x.get() * y.get()),
            (Div, Float(x), Float(y)) => Value::float(x.get() / y.get()),
            (Rem, Float(x), Float(y)) => Value::float(x.get() % y.get()),
            (Min, Float(x), Float(y)) => Float(*x.min(y)),
            (Max, Float(x), Float(y)) => Float(*x.max(y)),

            (And, Bool(x), Bool(y)) => Bool(*x && *y),
            (Or, Bool(x), Bool(y)) => Bool(*x || *y),
            (Xor, Bool(x), Bool(y)) => Bool(*x ^ *y),
            (Min, Bool(x), Bool(y)) => Bool(*x && *y),
            (Max, Bool(x), Bool(y)) => Bool(*x || *y),

            (Add, Str(x), Str(y)) => {
                let mut s = String::with_capacity(x.len() + y.len());
                s.push_str(x);
                s.push_str(y);
                Value::str(s)
            }
            (Min, Str(x), Str(y)) => Str(x.clone().min(y.clone())),
            (Max, Str(x), Str(y)) => Str(x.clone().max(y.clone())),

            _ => return Err(Value::type_err(op.to_string(), &[a, b])),
        })
    }

    /// Apply a comparison operator. Operands must have the same type except
    /// `Int`/`Float` never mix (no implicit numeric coercion: conversions
    /// are the frontend's job and implicit widening would let the two
    /// engines disagree on hash identity).
    pub fn cmp_op(op: CmpOp, a: &Value, b: &Value) -> Result<Value, ValueError> {
        let ord = match (a, b) {
            (Value::Int(x), Value::Int(y)) => x.cmp(y),
            (Value::Float(x), Value::Float(y)) => x.cmp(y),
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            _ => return Err(Value::type_err(op.to_string(), &[a, b])),
        };
        let b = match op {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
        };
        Ok(Value::Bool(b))
    }

    /// Apply a unary operator.
    pub fn unop(op: UnOp, a: &Value) -> Result<Value, ValueError> {
        Ok(match (op, a) {
            (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
            (UnOp::Neg, Value::Float(x)) => Value::float(-x.get()),
            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
            (UnOp::Not, Value::Int(x)) => Value::Int(!x),
            _ => return Err(Value::type_err(op.to_string(), &[a])),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}
impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::Int(x as i64)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_wraps() {
        let max = Value::int(i64::MAX);
        let one = Value::int(1);
        assert_eq!(
            Value::binop(BinOp::Add, &max, &one).unwrap(),
            Value::int(i64::MIN)
        );
        assert_eq!(
            Value::binop(BinOp::Mul, &max, &Value::int(2)).unwrap(),
            Value::int(-2)
        );
        let min = Value::int(i64::MIN);
        assert_eq!(
            Value::binop(BinOp::Div, &min, &Value::int(-1)).unwrap(),
            Value::int(i64::MIN)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            Value::binop(BinOp::Div, &Value::int(3), &Value::int(0)),
            Err(ValueError::DivisionByZero)
        );
        assert_eq!(
            Value::binop(BinOp::Rem, &Value::int(3), &Value::int(0)),
            Err(ValueError::DivisionByZero)
        );
    }

    #[test]
    fn comparisons_return_bools() {
        assert_eq!(
            Value::cmp_op(CmpOp::Lt, &Value::int(1), &Value::int(2)).unwrap(),
            Value::bool(true)
        );
        assert_eq!(
            Value::cmp_op(CmpOp::Ge, &Value::int(1), &Value::int(2)).unwrap(),
            Value::bool(false)
        );
        assert_eq!(
            Value::cmp_op(CmpOp::Eq, &Value::str("a"), &Value::str("a")).unwrap(),
            Value::bool(true)
        );
    }

    #[test]
    fn mixed_type_comparison_is_type_error() {
        assert!(Value::cmp_op(CmpOp::Lt, &Value::int(1), &Value::bool(true)).is_err());
        assert!(Value::cmp_op(CmpOp::Eq, &Value::int(1), &Value::float(1.0)).is_err());
    }

    #[test]
    fn truthiness_matches_paper_encoding() {
        // Paper's steers test `id2 == 1` on integer control signals.
        assert_eq!(Value::int(1).truthiness(), Some(true));
        assert_eq!(Value::int(0).truthiness(), Some(false));
        assert_eq!(Value::int(-7).truthiness(), Some(true));
        assert_eq!(Value::bool(true).truthiness(), Some(true));
        assert_eq!(Value::str("x").truthiness(), None);
    }

    #[test]
    #[allow(clippy::zero_divided_by_zero)]
    fn nan_is_normalised_and_self_equal() {
        let a = Value::float(f64::NAN);
        let b = Value::float(0.0 / 0.0);
        assert_eq!(a, b);
        // NaN sorts above everything.
        assert_eq!(
            Value::cmp_op(CmpOp::Gt, &a, &Value::float(f64::INFINITY)).unwrap(),
            Value::bool(true)
        );
    }

    #[test]
    fn negative_zero_orders_below_positive_zero() {
        let nz = OrdF64::new(-0.0);
        let pz = OrdF64::new(0.0);
        assert!(nz < pz, "total order distinguishes -0.0 and +0.0");
    }

    #[test]
    fn string_concat() {
        assert_eq!(
            Value::binop(BinOp::Add, &Value::str("ab"), &Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
    }

    #[test]
    fn min_max() {
        assert_eq!(
            Value::binop(BinOp::Min, &Value::int(3), &Value::int(-2)).unwrap(),
            Value::int(-2)
        );
        assert_eq!(
            Value::binop(BinOp::Max, &Value::float(1.5), &Value::float(2.5)).unwrap(),
            Value::float(2.5)
        );
    }

    #[test]
    fn unops() {
        assert_eq!(
            Value::unop(UnOp::Neg, &Value::int(5)).unwrap(),
            Value::int(-5)
        );
        assert_eq!(
            Value::unop(UnOp::Not, &Value::bool(false)).unwrap(),
            Value::bool(true)
        );
        assert_eq!(
            Value::unop(UnOp::Not, &Value::int(0)).unwrap(),
            Value::int(-1)
        );
        assert!(Value::unop(UnOp::Neg, &Value::str("x")).is_err());
    }

    #[test]
    fn cmp_flip_and_negate_are_involutions_pointwise() {
        use CmpOp::*;
        for op in [Lt, Le, Gt, Ge, Eq, Ne] {
            for (a, b) in [(1, 2), (2, 1), (2, 2)] {
                let (a, b) = (Value::int(a), Value::int(b));
                let direct = Value::cmp_op(op, &a, &b).unwrap();
                let flipped = Value::cmp_op(op.flip(), &b, &a).unwrap();
                assert_eq!(direct, flipped, "{op} flip mismatch on {a},{b}");
                let negated = Value::cmp_op(op.negate(), &a, &b).unwrap();
                assert_eq!(
                    direct.as_bool().unwrap(),
                    !negated.as_bool().unwrap(),
                    "{op} negate mismatch"
                );
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(-3).to_string(), "-3");
        assert_eq!(Value::bool(true).to_string(), "true");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
    }
}
