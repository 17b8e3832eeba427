//! What each operator of `inst.rs`'s `operators!` tables computes and which
//! cost class it belongs to — the table's second half, and the only
//! definition of the scalar semantics. The optimizer's constant folder
//! (`nzomp-opt`, `simplify.rs`) and both execution tiers (`nzomp-vgpu`,
//! through the `RtVal` adapters of its `ops.rs`) call these methods, so
//! folding an operation at compile time and executing it on the device are
//! one function — what the paper's co-design rests on (§III-F/G). No `match`
//! here has a wildcard arm: a new table row does not compile until it is
//! given a meaning and a class.

use crate::inst::{AtomicOp, BinOp, CastKind, Intrinsic, Pred, UnOp};
use crate::types::Ty;

/// What an arithmetic operator costs to execute (the vGPU charges by class)
/// and the domain it computes in: `Alu` operators have an integer meaning,
/// the other two a float one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    Alu,
    Fp,
    /// sqrt / sin / cos / exp / log.
    Transcendental,
}

impl BinOp {
    #[inline]
    pub fn class(self) -> OpClass {
        use BinOp::*;
        match self {
            Add | Sub | Mul | SDiv | SRem | UDiv | URem | And | Or | Xor => OpClass::Alu,
            Shl | LShr | AShr | SMin | SMax => OpClass::Alu,
            FAdd | FSub | FMul | FDiv | FMin | FMax => OpClass::Fp,
        }
    }

    #[inline]
    pub fn is_float(self) -> bool {
        self.class() != OpClass::Alu
    }

    /// The integer meaning: 64-bit wrapping two's complement, shift amounts
    /// masked to 6 bits, unsigned operators on the bit pattern. `None` where
    /// there is no result: division or remainder by zero (the device traps,
    /// the folder leaves the instruction alone) and every float operator.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> Option<i64> {
        use BinOp::*;
        Some(match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            SDiv | SRem | UDiv | URem if b == 0 => return None,
            // INT_MIN / -1 overflows in two's complement; wrapping keeps it.
            SDiv => a.wrapping_div(b),
            SRem => a.wrapping_rem(b),
            UDiv => ((a as u64) / (b as u64)) as i64,
            URem => ((a as u64) % (b as u64)) as i64,
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a.wrapping_shl(b as u32 & 63),
            LShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
            AShr => a.wrapping_shr(b as u32 & 63),
            SMin => a.min(b),
            SMax => a.max(b),
            FAdd | FSub | FMul | FDiv | FMin | FMax => return None,
        })
    }

    /// The float meaning: IEEE-754 double (division by zero is an infinity
    /// or a NaN, never a trap). `None` for every integer operator.
    #[inline]
    pub fn eval_float(self, a: f64, b: f64) -> Option<f64> {
        use BinOp::*;
        Some(match self {
            FAdd => a + b,
            FSub => a - b,
            FMul => a * b,
            FDiv => a / b,
            FMin => a.min(b),
            FMax => a.max(b),
            Add | Sub | Mul | SDiv | SRem | UDiv | URem | And | Or | Xor => return None,
            Shl | LShr | AShr | SMin | SMax => return None,
        })
    }
}

impl UnOp {
    #[inline]
    pub fn class(self) -> OpClass {
        match self {
            UnOp::Neg | UnOp::Not => OpClass::Alu,
            UnOp::FNeg | UnOp::FAbs => OpClass::Fp,
            UnOp::Sqrt | UnOp::Sin | UnOp::Cos | UnOp::Exp | UnOp::Log => OpClass::Transcendental,
        }
    }

    #[inline]
    pub fn is_float(self) -> bool {
        self.class() != OpClass::Alu
    }

    /// The integer meaning (wrapping); `None` for every float operator.
    #[inline]
    pub fn eval_int(self, a: i64) -> Option<i64> {
        use UnOp::*;
        match self {
            Neg => Some(a.wrapping_neg()),
            Not => Some(!a),
            FNeg | FAbs | Sqrt | Sin | Cos | Exp | Log => None,
        }
    }

    /// The float meaning; `None` for every integer operator.
    #[inline]
    pub fn eval_float(self, a: f64) -> Option<f64> {
        use UnOp::*;
        Some(match self {
            FNeg => -a,
            FAbs => a.abs(),
            Sqrt => a.sqrt(),
            Sin => a.sin(),
            Cos => a.cos(),
            Exp => a.exp(),
            Log => a.ln(),
            Neg | Not => return None,
        })
    }
}

/// The scalar rule behind each [`CastKind`]. The kinds differ in domain
/// (int → int, int → float, float → int), so the caller picks the rule by
/// kind and supplies the operand in that domain; `PtrCast` keeps the bits
/// and has no rule here (what it changes is the device's pointer tag).
impl CastKind {
    /// `IntCast`: truncate to the width of `to`, then sign-extend.
    #[inline]
    pub fn int_cast(to: Ty, v: i64) -> i64 {
        match to {
            Ty::I1 => v & 1,
            Ty::I8 => v as i8 as i64,
            Ty::I32 => v as i32 as i64,
            Ty::I64 | Ty::F64 | Ty::Ptr => v,
        }
    }

    /// `ZExtCast`: keep the low bits of the width of `to`.
    #[inline]
    pub fn zext_cast(to: Ty, v: i64) -> i64 {
        match to {
            Ty::I1 => v & 1,
            Ty::I8 => v & 0xff,
            Ty::I32 => v & 0xffff_ffff,
            Ty::I64 | Ty::F64 | Ty::Ptr => v,
        }
    }

    /// `SiToFp`: nearest double.
    #[inline]
    pub fn si_to_fp(v: i64) -> f64 {
        v as f64
    }

    /// `FpToSi`: round toward zero, saturating at the `i64` range; NaN is 0.
    #[inline]
    pub fn fp_to_si(v: f64) -> i64 {
        v as i64
    }
}

impl Pred {
    /// Integer (and pointer) compare on the raw bit pattern, signedness
    /// taken from the predicate.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Slt => a < b,
            Pred::Sle => a <= b,
            Pred::Sgt => a > b,
            Pred::Sge => a >= b,
            Pred::Ult => (a as u64) < (b as u64),
            Pred::Ule => (a as u64) <= (b as u64),
            Pred::Ugt => (a as u64) > (b as u64),
            Pred::Uge => (a as u64) >= (b as u64),
        }
    }

    /// IEEE compare: the signed / unsigned predicate pairs collapse, and
    /// every predicate but `Ne` is false on a NaN operand.
    #[inline]
    pub fn eval_float(self, a: f64, b: f64) -> bool {
        match self {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Slt | Pred::Ult => a < b,
            Pred::Sle | Pred::Ule => a <= b,
            Pred::Sgt | Pred::Ugt => a > b,
            Pred::Sge | Pred::Uge => a >= b,
        }
    }
}

impl AtomicOp {
    /// The binary operator a read-modify-write applies to (value found,
    /// operand) on an integer or a float location. `None` for an exchange,
    /// which stores its operand as it is.
    #[inline]
    pub fn combiner(self, float: bool) -> Option<BinOp> {
        Some(match (self, float) {
            (AtomicOp::Add, false) => BinOp::Add,
            (AtomicOp::Add, true) => BinOp::FAdd,
            (AtomicOp::Max, false) => BinOp::SMax,
            (AtomicOp::Max, true) => BinOp::FMax,
            (AtomicOp::Min, false) => BinOp::SMin,
            (AtomicOp::Min, true) => BinOp::FMin,
            (AtomicOp::Exchange, _) => return None,
        })
    }
}

impl Intrinsic {
    /// `(operand count, result type, pure)`, one row per intrinsic.
    #[inline]
    fn signature(self) -> (usize, Option<Ty>, bool) {
        use Intrinsic::*;
        match self {
            ThreadId | BlockId | BlockDim | GridDim => (0, Some(Ty::I64), true),
            AlignedBarrier | Barrier | AssertFail => (0, None, false),
            Assume(()) => (1, None, true),
            Malloc => (1, Some(Ty::Ptr), false),
            Free => (1, None, false),
        }
    }

    /// How many operands the intrinsic takes (checked by the verifier).
    #[inline]
    pub fn arity(self) -> usize {
        self.signature().0
    }

    /// Result type, or `None` for a void intrinsic.
    #[inline]
    pub fn result_ty(self) -> Option<Ty> {
        self.signature().1
    }

    /// Does executing it have no effect beyond producing its result?
    #[inline]
    pub fn is_pure(self) -> bool {
        self.signature().2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_wraps() {
        assert_eq!(BinOp::Add.eval_int(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinOp::Mul.eval_int(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(BinOp::Sub.eval_int(i64::MIN, 1), Some(i64::MAX));
        // INT_MIN / -1 overflows in two's complement; wrapping keeps it.
        assert_eq!(BinOp::SDiv.eval_int(i64::MIN, -1), Some(i64::MIN));
        assert_eq!(BinOp::SRem.eval_int(i64::MIN, -1), Some(0));
    }

    #[test]
    fn div_rem_by_zero_trap() {
        for op in [BinOp::SDiv, BinOp::SRem, BinOp::UDiv, BinOp::URem] {
            assert_eq!(op.eval_int(7, 0), None, "{op:?}");
        }
        // Float division by zero is IEEE, not a trap.
        assert_eq!(BinOp::FDiv.eval_float(1.0, 0.0), Some(f64::INFINITY));
    }

    #[test]
    fn unsigned_div_uses_bit_pattern() {
        assert_eq!(BinOp::UDiv.eval_int(-2, 2), Some(((u64::MAX - 1) / 2) as i64));
        assert_eq!(BinOp::URem.eval_int(-1, 10), Some((u64::MAX % 10) as i64));
    }

    #[test]
    fn shifts_mask_amount_to_six_bits() {
        // Shift by 64 == shift by 0 after the & 63 mask.
        assert_eq!(BinOp::Shl.eval_int(1, 64), Some(1));
        assert_eq!(BinOp::Shl.eval_int(1, 65), Some(2));
        // Logical vs arithmetic right shift on a negative value.
        assert_eq!(BinOp::LShr.eval_int(-1, 1), Some((u64::MAX >> 1) as i64));
        assert_eq!(BinOp::AShr.eval_int(-1, 1), Some(-1));
    }

    #[test]
    fn float_min_max_and_neg() {
        assert_eq!(BinOp::FMin.eval_float(-0.0, 1.0).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(UnOp::FNeg.eval_float(0.0).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(UnOp::FAbs.eval_float(-2.5), Some(2.5));
        assert_eq!(UnOp::Neg.eval_int(i64::MIN), Some(i64::MIN));
    }

    #[test]
    fn int_casts_truncate_and_extend() {
        // IntCast sign-extends from the target width.
        assert_eq!(CastKind::int_cast(Ty::I8, 0x1ff), -1);
        assert_eq!(CastKind::int_cast(Ty::I32, 0x1_8000_0000), -0x8000_0000);
        assert_eq!(CastKind::int_cast(Ty::I1, 3), 1);
        // ZExtCast keeps only the low bits.
        assert_eq!(CastKind::zext_cast(Ty::I8, -1), 0xff);
        assert_eq!(CastKind::zext_cast(Ty::I32, -1), 0xffff_ffff);
        assert_eq!(CastKind::zext_cast(Ty::I64, -1), -1);
    }

    #[test]
    fn fp_int_conversions_saturate_like_rust() {
        assert_eq!(CastKind::fp_to_si(1e300), i64::MAX);
        assert_eq!(CastKind::fp_to_si(f64::NAN), 0);
        assert_eq!(CastKind::si_to_fp(1 << 53), 9007199254740992.0);
    }

    #[test]
    fn nan_compares_are_all_false_except_ne() {
        let nan = f64::NAN;
        for pred in [Pred::Eq, Pred::Slt, Pred::Sle, Pred::Sgt, Pred::Sge] {
            assert!(!pred.eval_float(nan, nan), "{pred:?}");
        }
        assert!(Pred::Ne.eval_float(nan, nan));
    }

    #[test]
    fn signed_vs_unsigned_predicates() {
        assert!(Pred::Slt.eval_int(-1, 1));
        assert!(Pred::Ugt.eval_int(-1, 1)); // -1 is u64::MAX unsigned
        // Float compares collapse the signedness distinction.
        assert!(Pred::Ult.eval_float(-1.0, 1.0));
    }

    /// Every operator has exactly one of the two meanings, and its class
    /// says which.
    #[test]
    fn class_names_the_domain() {
        for &op in BinOp::ALL {
            assert_eq!(op.eval_int(6, 3).is_some(), !op.is_float(), "{op:?}");
            assert_eq!(op.eval_float(6.0, 3.0).is_some(), op.is_float(), "{op:?}");
        }
        for &op in UnOp::ALL {
            assert_eq!(op.eval_int(6).is_some(), !op.is_float(), "{op:?}");
            assert_eq!(op.eval_float(6.0).is_some(), op.is_float(), "{op:?}");
        }
    }
}
