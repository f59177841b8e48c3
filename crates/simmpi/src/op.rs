//! Reduction operations (`MPI_Op` analog) applied element-wise on byte
//! buffers.
//!
//! Like datatypes, op handles are sparse 32-bit codes so a bit-flipped
//! handle almost always fails validation (`MPI_ERR_OP`), and a handle that
//! happens to land on another valid op silently computes the wrong
//! reduction — producing `WRONG_ANS`-style outcomes, as in the paper.

use crate::datatype::{Complex64, Datatype, MpiType};
use crate::error::MpiError;

/// Reduction operations supported by the simulated runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum (`MPI_SUM`).
    Sum,
    /// Element-wise product (`MPI_PROD`).
    Prod,
    /// Element-wise maximum (`MPI_MAX`).
    Max,
    /// Element-wise minimum (`MPI_MIN`).
    Min,
    /// Logical AND over integers (`MPI_LAND`).
    Land,
    /// Logical OR over integers (`MPI_LOR`).
    Lor,
    /// Bitwise AND over integers (`MPI_BAND`).
    Band,
    /// Bitwise OR over integers (`MPI_BOR`).
    Bor,
}

/// All ops in handle order.
pub const ALL_OPS: [ReduceOp; 8] = [
    ReduceOp::Sum,
    ReduceOp::Prod,
    ReduceOp::Max,
    ReduceOp::Min,
    ReduceOp::Land,
    ReduceOp::Lor,
    ReduceOp::Band,
    ReduceOp::Bor,
];

const OP_HANDLE_BASE: u32 = 0x9E00_5A20;
const OP_HANDLE_STRIDE: u32 = 0x15;

impl ReduceOp {
    /// The opaque handle for this op.
    pub fn handle(self) -> u32 {
        let idx = ALL_OPS.iter().position(|o| *o == self).unwrap() as u32;
        OP_HANDLE_BASE + idx * OP_HANDLE_STRIDE
    }

    /// Decode a handle, validating it as the library does.
    pub fn from_handle(handle: u32) -> Result<ReduceOp, MpiError> {
        if handle < OP_HANDLE_BASE {
            return Err(MpiError::Op);
        }
        let off = handle - OP_HANDLE_BASE;
        if !off.is_multiple_of(OP_HANDLE_STRIDE) {
            return Err(MpiError::Op);
        }
        let idx = (off / OP_HANDLE_STRIDE) as usize;
        ALL_OPS.get(idx).copied().ok_or(MpiError::Op)
    }

    /// Short name (`sum`, `prod`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
            ReduceOp::Land => "land",
            ReduceOp::Lor => "lor",
            ReduceOp::Band => "band",
            ReduceOp::Bor => "bor",
        }
    }
}

#[allow(clippy::too_many_arguments)] // one slot per op family keeps dispatch flat
fn combine_scalar<T: MpiType + PartialOrd>(
    op: ReduceOp,
    a: T,
    b: T,
    add: impl Fn(T, T) -> T,
    mul: impl Fn(T, T) -> T,
    to_bool: impl Fn(T) -> bool,
    from_bool: impl Fn(bool) -> T,
    band: Option<impl Fn(T, T) -> T>,
    bor: Option<impl Fn(T, T) -> T>,
) -> Result<T, MpiError> {
    Ok(match op {
        ReduceOp::Sum => add(a, b),
        ReduceOp::Prod => mul(a, b),
        ReduceOp::Max => {
            if b > a {
                b
            } else {
                a
            }
        }
        ReduceOp::Min => {
            if b < a {
                b
            } else {
                a
            }
        }
        ReduceOp::Land => from_bool(to_bool(a) && to_bool(b)),
        ReduceOp::Lor => from_bool(to_bool(a) || to_bool(b)),
        ReduceOp::Band => band.ok_or(MpiError::Op)?(a, b),
        ReduceOp::Bor => bor.ok_or(MpiError::Op)?(a, b),
    })
}

macro_rules! reduce_int {
    ($ty:ty, $op:expr, $acc:expr, $other:expr) => {{
        reduce_typed::<$ty>($acc, $other, |a, b| {
            combine_scalar(
                $op,
                a,
                b,
                |a, b| a.wrapping_add(b),
                |a, b| a.wrapping_mul(b),
                |a| a != 0,
                |b| b as $ty,
                Some(|a: $ty, b: $ty| a & b),
                Some(|a: $ty, b: $ty| a | b),
            )
        })
    }};
}

/// `x`, or the one quiet NaN of its width if `x` is a NaN. Rust leaves the
/// sign and payload of an arithmetic NaN unspecified: x86 returns the first
/// operand's NaN when both are NaN, and the compiler may commute `+` and
/// `*`. In a complex product `0·∞ + ∞·NaN` adds `0·∞`'s `0xFFF8…` to the
/// other term's `0x7FF8…`, and two inlinings of the same code gave either.
/// A sum or product therefore writes one fixed NaN; no other value changes.
trait QuietNan: Copy {
    fn quiet_nan(self) -> Self;
}

impl QuietNan for f32 {
    fn quiet_nan(self) -> f32 {
        if self.is_nan() {
            f32::from_bits(0x7FC0_0000)
        } else {
            self
        }
    }
}

impl QuietNan for f64 {
    fn quiet_nan(self) -> f64 {
        if self.is_nan() {
            f64::from_bits(0x7FF8_0000_0000_0000)
        } else {
            self
        }
    }
}

impl QuietNan for Complex64 {
    fn quiet_nan(self) -> Complex64 {
        Complex64::new(self.re.quiet_nan(), self.im.quiet_nan())
    }
}

macro_rules! reduce_float {
    ($ty:ty, $op:expr, $acc:expr, $other:expr) => {{
        reduce_typed::<$ty>($acc, $other, |a, b| {
            combine_scalar(
                $op,
                a,
                b,
                |a, b| (a + b).quiet_nan(),
                |a, b| (a * b).quiet_nan(),
                |a| a != 0.0,
                |b| if b { 1.0 } else { 0.0 },
                None::<fn($ty, $ty) -> $ty>,
                None::<fn($ty, $ty) -> $ty>,
            )
        })
    }};
}

/// `acc[i] = f(acc[i], other[i])`, one element at a time, in place. The
/// op/type compatibility `f` checks depends on the op and the type alone,
/// so when it fails it fails on the first element, before anything of
/// `acc` is written.
fn reduce_typed<T: MpiType>(
    acc: &mut [u8],
    other: &[u8],
    f: impl Fn(T, T) -> Result<T, MpiError>,
) -> Result<(), MpiError> {
    let w = T::DTYPE.size();
    for (a, b) in acc.chunks_exact_mut(w).zip(other.chunks_exact(w)) {
        let (mut x, mut y) = (T::default(), T::default());
        T::read_bytes(a, std::slice::from_mut(&mut x));
        T::read_bytes(b, std::slice::from_mut(&mut y));
        T::write_into(&[f(x, y)?], a);
    }
    Ok(())
}

/// Apply `acc[i] = op(acc[i], other[i])` element-wise, interpreting both
/// byte buffers as arrays of `dtype`.
///
/// The two buffers must have equal length and a length that is a multiple
/// of the element size; the collective protocol guarantees this when
/// parameters are healthy, and reports [`MpiError::Protocol`] otherwise.
/// Bitwise/logical ops on floating types return [`MpiError::Op`], matching
/// the MPI standard's op/type compatibility rules.
pub fn apply_op(
    op: ReduceOp,
    dtype: Datatype,
    acc: &mut [u8],
    other: &[u8],
) -> Result<(), MpiError> {
    if acc.len() != other.len() || !acc.len().is_multiple_of(dtype.size()) {
        return Err(MpiError::Protocol);
    }
    match dtype {
        Datatype::Byte => reduce_int!(u8, op, acc, other),
        Datatype::Int32 => reduce_int!(i32, op, acc, other),
        Datatype::Int64 => reduce_int!(i64, op, acc, other),
        Datatype::UInt32 => reduce_int!(u32, op, acc, other),
        Datatype::UInt64 => reduce_int!(u64, op, acc, other),
        Datatype::Float32 => reduce_float!(f32, op, acc, other),
        Datatype::Float64 => reduce_float!(f64, op, acc, other),
        Datatype::Complex128 => reduce_complex(op, acc, other),
    }
}

fn reduce_complex(op: ReduceOp, acc: &mut [u8], other: &[u8]) -> Result<(), MpiError> {
    reduce_typed::<Complex64>(acc, other, |a, b| combine_complex(op, a, b))
}

fn combine_complex(op: ReduceOp, a: Complex64, b: Complex64) -> Result<Complex64, MpiError> {
    match op {
        ReduceOp::Sum => Ok((a + b).quiet_nan()),
        ReduceOp::Prod => Ok((a * b).quiet_nan()),
        // MPI defines only SUM/PROD for complex; anything else is an
        // op/type mismatch.
        _ => Err(MpiError::Op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of_f64(v: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        f64::write_bytes(v, &mut out);
        out
    }

    fn f64_of_bytes(b: &[u8]) -> Vec<f64> {
        let mut out = vec![0.0; b.len() / 8];
        f64::read_bytes(b, &mut out);
        out
    }

    #[test]
    fn op_handle_roundtrip() {
        for op in ALL_OPS {
            assert_eq!(ReduceOp::from_handle(op.handle()), Ok(op));
        }
        assert_eq!(ReduceOp::from_handle(7), Err(MpiError::Op));
    }

    #[test]
    fn sum_f64() {
        let mut a = bytes_of_f64(&[1.0, 2.0]);
        let b = bytes_of_f64(&[0.5, -2.0]);
        apply_op(ReduceOp::Sum, Datatype::Float64, &mut a, &b).unwrap();
        assert_eq!(f64_of_bytes(&a), vec![1.5, 0.0]);
    }

    #[test]
    fn max_min_i32() {
        let mut a = Vec::new();
        i32::write_bytes(&[3, -7], &mut a);
        let mut b = Vec::new();
        i32::write_bytes(&[1, 5], &mut b);
        let mut acc = a.clone();
        apply_op(ReduceOp::Max, Datatype::Int32, &mut acc, &b).unwrap();
        let mut out = [0i32; 2];
        i32::read_bytes(&acc, &mut out);
        assert_eq!(out, [3, 5]);
        let mut acc = a.clone();
        apply_op(ReduceOp::Min, Datatype::Int32, &mut acc, &b).unwrap();
        i32::read_bytes(&acc, &mut out);
        assert_eq!(out, [1, -7]);
    }

    #[test]
    fn logical_ops_i32() {
        let mut acc = Vec::new();
        i32::write_bytes(&[1, 0, 7], &mut acc);
        let mut b = Vec::new();
        i32::write_bytes(&[1, 1, 0], &mut b);
        apply_op(ReduceOp::Land, Datatype::Int32, &mut acc, &b).unwrap();
        let mut out = [0i32; 3];
        i32::read_bytes(&acc, &mut out);
        assert_eq!(out, [1, 0, 0]);
    }

    #[test]
    fn bitwise_on_float_rejected() {
        let mut a = bytes_of_f64(&[1.0]);
        let b = bytes_of_f64(&[2.0]);
        assert_eq!(
            apply_op(ReduceOp::Band, Datatype::Float64, &mut a, &b),
            Err(MpiError::Op)
        );
    }

    #[test]
    fn complex_sum() {
        let mut a = Vec::new();
        Complex64::write_bytes(&[Complex64::new(1.0, 2.0)], &mut a);
        let mut b = Vec::new();
        Complex64::write_bytes(&[Complex64::new(-1.0, 0.5)], &mut b);
        apply_op(ReduceOp::Sum, Datatype::Complex128, &mut a, &b).unwrap();
        let mut out = [Complex64::default(); 1];
        Complex64::read_bytes(&a, &mut out);
        assert_eq!(out[0], Complex64::new(0.0, 2.5));
        assert_eq!(
            apply_op(ReduceOp::Max, Datatype::Complex128, &mut a, &b),
            Err(MpiError::Op)
        );
    }

    #[test]
    fn length_mismatch_is_protocol_error() {
        let mut a = bytes_of_f64(&[1.0]);
        let b = bytes_of_f64(&[1.0, 2.0]);
        assert_eq!(
            apply_op(ReduceOp::Sum, Datatype::Float64, &mut a, &b),
            Err(MpiError::Protocol)
        );
    }

    /// The decode / combine / encode reduction `reduce_typed` replaced:
    /// both operands decoded into fresh vectors, combined, re-encoded.
    /// The macros resolve `reduce_typed` where they expand, so inside
    /// [`legacy_apply_op`] they call this copy.
    fn reduce_typed<T: MpiType>(
        acc: &mut [u8],
        other: &[u8],
        f: impl Fn(T, T) -> Result<T, MpiError>,
    ) -> Result<(), MpiError> {
        let w = T::DTYPE.size();
        let n = acc.len() / w;
        let mut a = vec![T::default(); n];
        let mut b = vec![T::default(); n];
        T::read_bytes(acc, &mut a);
        T::read_bytes(other, &mut b);
        for i in 0..n {
            a[i] = f(a[i], b[i])?;
        }
        let mut out = Vec::with_capacity(acc.len());
        T::write_bytes(&a, &mut out);
        acc.copy_from_slice(&out);
        Ok(())
    }

    /// [`apply_op`] over the legacy [`reduce_typed`].
    fn legacy_apply_op(
        op: ReduceOp,
        dtype: Datatype,
        acc: &mut [u8],
        other: &[u8],
    ) -> Result<(), MpiError> {
        if acc.len() != other.len() || !acc.len().is_multiple_of(dtype.size()) {
            return Err(MpiError::Protocol);
        }
        match dtype {
            Datatype::Byte => reduce_int!(u8, op, acc, other),
            Datatype::Int32 => reduce_int!(i32, op, acc, other),
            Datatype::Int64 => reduce_int!(i64, op, acc, other),
            Datatype::UInt32 => reduce_int!(u32, op, acc, other),
            Datatype::UInt64 => reduce_int!(u64, op, acc, other),
            Datatype::Float32 => reduce_float!(f32, op, acc, other),
            Datatype::Float64 => reduce_float!(f64, op, acc, other),
            Datatype::Complex128 => {
                reduce_typed::<Complex64>(acc, other, |a, b| combine_complex(op, a, b))
            }
        }
    }

    /// One element's bytes: a special value of `dtype` (NaN, ±0.0, ±∞,
    /// `i32::MIN`, extremes that wrap when multiplied) or random bits.
    fn element(dtype: Datatype, x: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let pick = (x >> 56) as usize;
        match dtype {
            Datatype::Float32 => {
                let sp = [
                    f32::NAN,
                    0.0,
                    -0.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::MAX,
                    -1.5,
                ];
                let v = sp
                    .get(pick % 12)
                    .copied()
                    .unwrap_or(f32::from_bits(x as u32));
                f32::write_bytes(&[v], &mut out);
            }
            Datatype::Float64 | Datatype::Complex128 => {
                let sp = [
                    f64::NAN,
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MAX,
                    -1.5,
                ];
                for half in 0..dtype.size() / 8 {
                    let y = x.rotate_left(17 * half as u32);
                    let v = sp.get((y >> 56) as usize % 12).copied();
                    f64::write_bytes(&[v.unwrap_or(f64::from_bits(y))], &mut out);
                }
            }
            _ => {
                let sp: [i64; 6] = [i32::MIN as i64, i64::MIN, -1, 0, 1, i32::MAX as i64];
                let v = sp.get(pick % 10).copied().unwrap_or(x as i64);
                out.extend_from_slice(&v.to_le_bytes()[..dtype.size()]);
            }
        }
        out
    }

    #[test]
    fn in_place_reduction_matches_decode_combine_encode() {
        let mut state = 0x5EED_0F0Bu64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..20 {
            for dtype in crate::datatype::ALL_DATATYPES {
                for op in ALL_OPS {
                    for n in 0..10 {
                        let mut operand = |n: usize| -> Vec<u8> {
                            (0..n).flat_map(|_| element(dtype, next())).collect()
                        };
                        let (acc0, other) = (operand(n), operand(n));
                        let (mut new, mut old) = (acc0.clone(), acc0.clone());
                        let got = apply_op(op, dtype, &mut new, &other);
                        let want = legacy_apply_op(op, dtype, &mut old, &other);
                        assert_eq!(got, want, "{op:?} {dtype:?} n={n}");
                        assert_eq!(new, old, "{op:?} {dtype:?} n={n}");
                        if want.is_err() {
                            assert_eq!(new, acc0, "{op:?} {dtype:?} n={n}: acc touched");
                        }
                        // Length mismatches: one element more, one byte less.
                        for short in [
                            operand(n + 1),
                            other[..other.len().saturating_sub(1)].to_vec(),
                        ] {
                            if short.len() == other.len() {
                                continue;
                            }
                            let (mut new, mut old) = (acc0.clone(), acc0.clone());
                            let got = apply_op(op, dtype, &mut new, &short);
                            assert_eq!(got, Err(MpiError::Protocol));
                            assert_eq!(got, legacy_apply_op(op, dtype, &mut old, &short));
                            assert_eq!(new, acc0);
                        }
                        // Equal lengths, but not a whole number of elements.
                        if dtype.size() > 1 {
                            let (mut ragged, mut tail) = (acc0.clone(), other.clone());
                            ragged.push(0x5A);
                            tail.push(0xA5);
                            let got = apply_op(op, dtype, &mut ragged, &tail);
                            assert_eq!(got, Err(MpiError::Protocol));
                            assert_eq!(ragged[..acc0.len()], acc0[..]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_sum_or_product_writes_one_nan() {
        let (mut acc, mut other) = (Vec::new(), Vec::new());
        Complex64::write_bytes(&[Complex64::new(0.0, f64::INFINITY)], &mut acc);
        Complex64::write_bytes(&[Complex64::new(f64::NAN, f64::INFINITY)], &mut other);
        apply_op(ReduceOp::Prod, Datatype::Complex128, &mut acc, &other).unwrap();
        let mut out = [Complex64::default()];
        Complex64::read_bytes(&acc, &mut out);
        assert_eq!(out[0].im.to_bits(), 0x7FF8_0000_0000_0000);
        for (a, b) in [(f64::INFINITY, f64::NEG_INFINITY), (-f64::NAN, 1.0)] {
            let (mut acc, mut other) = (Vec::new(), Vec::new());
            f64::write_bytes(&[a], &mut acc);
            f64::write_bytes(&[b], &mut other);
            apply_op(ReduceOp::Sum, Datatype::Float64, &mut acc, &other).unwrap();
            assert_eq!(acc, 0x7FF8_0000_0000_0000u64.to_le_bytes());
        }
        let (mut acc, mut other) = (Vec::new(), Vec::new());
        f32::write_bytes(&[-f32::NAN], &mut acc);
        f32::write_bytes(&[2.0], &mut other);
        apply_op(ReduceOp::Prod, Datatype::Float32, &mut acc, &other).unwrap();
        assert_eq!(acc, 0x7FC0_0000u32.to_le_bytes());
    }

    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        let mut a = Vec::new();
        i32::write_bytes(&[i32::MAX], &mut a);
        let mut b = Vec::new();
        i32::write_bytes(&[1], &mut b);
        apply_op(ReduceOp::Sum, Datatype::Int32, &mut a, &b).unwrap();
        let mut out = [0i32; 1];
        i32::read_bytes(&a, &mut out);
        assert_eq!(out[0], i32::MIN);
    }
}
