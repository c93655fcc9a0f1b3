//! Element types and the Table 1 type-name catalogue.
//!
//! Paper Table 1 lists 24 matched TYPENAME → C-type pairs for which the
//! runtime provides explicit calls (`xbrtime_int_put`, `xbrtime_double_get`,
//! …). Rust collapses several C types onto one machine type; the catalogue
//! below records every paper name, its C type, and the Rust substitute.
//! Substitutions (documented in DESIGN.md): `long double` → `f64` (Rust has
//! no extended-precision float) and `char` → `i8` (C `char` is signed on
//! RISC-V Linux).

use std::fmt::Debug;

/// Element types transferable through the symmetric heap.
///
/// The bound set makes elements plain old data: any bit pattern produced by
/// a (possibly racy, caller-contract-violating) one-sided transfer is still
/// a valid value, so misuse can corrupt *data*, never memory safety.
pub trait XbrType: Copy + Send + Sync + PartialEq + Debug + Default + 'static {}

impl XbrType for i8 {}
impl XbrType for u8 {}
impl XbrType for i16 {}
impl XbrType for u16 {}
impl XbrType for i32 {}
impl XbrType for u32 {}
impl XbrType for i64 {}
impl XbrType for u64 {}
impl XbrType for isize {}
impl XbrType for usize {}
impl XbrType for f32 {}
impl XbrType for f64 {}

/// Arithmetic reductions available for every Table 1 type (paper §4.4:
/// *"our reduction implementation supports sum, product, min, and max
/// operations for all types"*).
pub trait XbrNumeric: XbrType {
    /// Addition (wrapping for integers, IEEE for floats).
    fn red_sum(a: Self, b: Self) -> Self;
    /// Multiplication (wrapping for integers).
    fn red_prod(a: Self, b: Self) -> Self;
    /// Minimum.
    fn red_min(a: Self, b: Self) -> Self;
    /// Maximum.
    fn red_max(a: Self, b: Self) -> Self;
}

/// Bitwise reductions, available for non-floating-point types only
/// (paper §4.4: *"bitwise AND, bitwise OR, and bitwise XOR are supported
/// for non-floating point types"*).
pub trait XbrBitwise: XbrNumeric {
    /// Bitwise AND.
    fn red_and(a: Self, b: Self) -> Self;
    /// Bitwise OR.
    fn red_or(a: Self, b: Self) -> Self;
    /// Bitwise XOR.
    fn red_xor(a: Self, b: Self) -> Self;
}

macro_rules! impl_numeric_int {
    ($($t:ty),*) => {$(
        impl XbrNumeric for $t {
            #[inline] fn red_sum(a: Self, b: Self) -> Self { a.wrapping_add(b) }
            #[inline] fn red_prod(a: Self, b: Self) -> Self { a.wrapping_mul(b) }
            #[inline] fn red_min(a: Self, b: Self) -> Self { a.min(b) }
            #[inline] fn red_max(a: Self, b: Self) -> Self { a.max(b) }
        }
        impl XbrBitwise for $t {
            #[inline] fn red_and(a: Self, b: Self) -> Self { a & b }
            #[inline] fn red_or(a: Self, b: Self) -> Self { a | b }
            #[inline] fn red_xor(a: Self, b: Self) -> Self { a ^ b }
        }
    )*};
}

impl_numeric_int!(i8, u8, i16, u16, i32, u32, i64, u64, isize, usize);

macro_rules! impl_numeric_float {
    ($($t:ty),*) => {$(
        impl XbrNumeric for $t {
            #[inline] fn red_sum(a: Self, b: Self) -> Self { a + b }
            #[inline] fn red_prod(a: Self, b: Self) -> Self { a * b }
            #[inline] fn red_min(a: Self, b: Self) -> Self { a.min(b) }
            #[inline] fn red_max(a: Self, b: Self) -> Self { a.max(b) }
        }
    )*};
}

impl_numeric_float!(f32, f64);

/// A reduction operator selector, matching the `_OP` suffix of the paper's
/// `xbrtime_TYPENAME_reduce_OP` calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Bitwise AND (non-floating-point types only).
    And,
    /// Bitwise OR (non-floating-point types only).
    Or,
    /// Bitwise XOR (non-floating-point types only).
    Xor,
}

impl ReduceOp {
    /// Operators valid for every type.
    pub const ARITHMETIC: [ReduceOp; 4] =
        [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];
    /// Operators valid only for non-floating-point types.
    pub const BITWISE: [ReduceOp; 3] = [ReduceOp::And, ReduceOp::Or, ReduceOp::Xor];

    /// The combining function for a numeric type, or `None` for a bitwise
    /// op requested on a type that only implements [`XbrNumeric`].
    pub fn combiner<T: XbrNumeric>(self) -> Option<fn(T, T) -> T> {
        match self {
            ReduceOp::Sum => Some(T::red_sum),
            ReduceOp::Prod => Some(T::red_prod),
            ReduceOp::Min => Some(T::red_min),
            ReduceOp::Max => Some(T::red_max),
            _ => None,
        }
    }
}

/// Evaluate `$body` with `$f` bound to named operator `$op`'s combiner
/// for `$t`: the one [`ReduceOp`] dispatch behind every named reduction.
/// Each arm binds a fn item (`T::red_sum`, …), not the `fn` pointer
/// [`ReduceOp::combiner`] returns, so the fold loop its body reaches
/// inlines the combiner. A bitwise `$op` panics unless the `bitwise` form,
/// for [`XbrBitwise`] types, is used.
macro_rules! with_combiner {
    (bitwise $op:expr, |$f:ident: $t:ty| $body:expr) => {{
        use $crate::types::{ReduceOp::*, XbrBitwise};
        match $op {
            And => {
                let $f = <$t as XbrBitwise>::red_and;
                $body
            }
            Or => {
                let $f = <$t as XbrBitwise>::red_or;
                $body
            }
            Xor => {
                let $f = <$t as XbrBitwise>::red_xor;
                $body
            }
            op => $crate::types::with_combiner!(op, |$f: $t| $body),
        }
    }};
    ($op:expr, |$f:ident: $t:ty| $body:expr) => {{
        use $crate::types::{ReduceOp::*, XbrNumeric};
        match $op {
            Sum => {
                let $f = <$t as XbrNumeric>::red_sum;
                $body
            }
            Prod => {
                let $f = <$t as XbrNumeric>::red_prod;
                $body
            }
            Min => {
                let $f = <$t as XbrNumeric>::red_min;
                $body
            }
            Max => {
                let $f = <$t as XbrNumeric>::red_max;
                $body
            }
            op => panic!(
                "reduction operator {op:?} is bitwise: use reduce_bitwise \
                 (non-floating-point types), or a *_with form with a combiner"
            ),
        }
    }};
}
pub(crate) use with_combiner;

/// One row of paper Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TypeEntry {
    /// The TYPENAME used in function names (`int`, `ulonglong`, …).
    pub type_name: &'static str,
    /// The C type the paper pairs it with.
    pub c_type: &'static str,
    /// The Rust type this reproduction uses.
    pub rust_type: &'static str,
    /// Element size in bytes on RV64.
    pub size: usize,
    /// Whether bitwise reductions are available (non-floating-point).
    pub bitwise: bool,
}

/// The full Table 1 catalogue: all 24 matched type names.
pub const TABLE1: [TypeEntry; 24] = [
    TypeEntry {
        type_name: "float",
        c_type: "float",
        rust_type: "f32",
        size: 4,
        bitwise: false,
    },
    TypeEntry {
        type_name: "double",
        c_type: "double",
        rust_type: "f64",
        size: 8,
        bitwise: false,
    },
    TypeEntry {
        type_name: "longdouble",
        c_type: "long double",
        rust_type: "f64",
        size: 8,
        bitwise: false,
    },
    TypeEntry {
        type_name: "char",
        c_type: "char",
        rust_type: "i8",
        size: 1,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uchar",
        c_type: "unsigned char",
        rust_type: "u8",
        size: 1,
        bitwise: true,
    },
    TypeEntry {
        type_name: "schar",
        c_type: "signed char",
        rust_type: "i8",
        size: 1,
        bitwise: true,
    },
    TypeEntry {
        type_name: "ushort",
        c_type: "unsigned short",
        rust_type: "u16",
        size: 2,
        bitwise: true,
    },
    TypeEntry {
        type_name: "short",
        c_type: "short",
        rust_type: "i16",
        size: 2,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uint",
        c_type: "unsigned int",
        rust_type: "u32",
        size: 4,
        bitwise: true,
    },
    TypeEntry {
        type_name: "int",
        c_type: "int",
        rust_type: "i32",
        size: 4,
        bitwise: true,
    },
    TypeEntry {
        type_name: "ulong",
        c_type: "unsigned long",
        rust_type: "u64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "long",
        c_type: "long",
        rust_type: "i64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "ulonglong",
        c_type: "unsigned long long",
        rust_type: "u64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "longlong",
        c_type: "long long",
        rust_type: "i64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uint8",
        c_type: "uint8_t",
        rust_type: "u8",
        size: 1,
        bitwise: true,
    },
    TypeEntry {
        type_name: "int8",
        c_type: "int8_t",
        rust_type: "i8",
        size: 1,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uint16",
        c_type: "uint16_t",
        rust_type: "u16",
        size: 2,
        bitwise: true,
    },
    TypeEntry {
        type_name: "int16",
        c_type: "int16_t",
        rust_type: "i16",
        size: 2,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uint32",
        c_type: "uint32_t",
        rust_type: "u32",
        size: 4,
        bitwise: true,
    },
    TypeEntry {
        type_name: "int32",
        c_type: "int32_t",
        rust_type: "i32",
        size: 4,
        bitwise: true,
    },
    TypeEntry {
        type_name: "uint64",
        c_type: "uint64_t",
        rust_type: "u64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "int64",
        c_type: "int64_t",
        rust_type: "i64",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "size",
        c_type: "size_t",
        rust_type: "usize",
        size: 8,
        bitwise: true,
    },
    TypeEntry {
        type_name: "ptrdiff",
        c_type: "ptrdiff_t",
        rust_type: "isize",
        size: 8,
        bitwise: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_24_unique_names() {
        assert_eq!(TABLE1.len(), 24);
        let mut names: Vec<_> = TABLE1.iter().map(|e| e.type_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "type names must be unique");
    }

    #[test]
    fn floats_are_not_bitwise() {
        for e in TABLE1 {
            let is_float = matches!(e.type_name, "float" | "double" | "longdouble");
            assert_eq!(!e.bitwise, is_float, "{}", e.type_name);
        }
    }

    #[test]
    fn sizes_match_rv64() {
        for e in TABLE1 {
            let expect = match e.rust_type {
                "i8" | "u8" => 1,
                "i16" | "u16" => 2,
                "i32" | "u32" | "f32" => 4,
                _ => 8,
            };
            assert_eq!(e.size, expect, "{}", e.type_name);
        }
    }

    #[test]
    fn reduce_ops_integer() {
        assert_eq!(<i32 as XbrNumeric>::red_sum(i32::MAX, 1), i32::MIN); // wrapping
        assert_eq!(<u8 as XbrNumeric>::red_prod(16, 16), 0); // wrapping
        assert_eq!(<i64 as XbrNumeric>::red_min(-5, 3), -5);
        assert_eq!(<u16 as XbrBitwise>::red_and(0xFF00, 0x0FF0), 0x0F00);
        assert_eq!(<u16 as XbrBitwise>::red_or(0xFF00, 0x0FF0), 0xFFF0);
        assert_eq!(<u16 as XbrBitwise>::red_xor(0xFF00, 0x0FF0), 0xF0F0);
    }

    #[test]
    fn reduce_ops_float() {
        assert_eq!(<f64 as XbrNumeric>::red_sum(1.5, 2.5), 4.0);
        assert_eq!(<f32 as XbrNumeric>::red_max(-1.0, 2.0), 2.0);
        // f64 does not implement XbrBitwise; the combiner returns None.
        assert!(ReduceOp::And.combiner::<f64>().is_none());
        assert!(ReduceOp::Sum.combiner::<f64>().is_some());
    }

    #[test]
    fn combiner_dispatch() {
        let x = with_combiner!(bitwise ReduceOp::Xor, |f: u32| f(0b1010, 0b0110));
        assert_eq!(x, 0b1100);
        let g = ReduceOp::Max.combiner::<f32>().unwrap();
        assert_eq!(g(1.0, 7.0), 7.0);
        assert_eq!(with_combiner!(ReduceOp::Max, |f: f32| f(1.0, 7.0)), 7.0);
    }
}
