//! Device adapters over the operator semantics of `nzomp_ir::ops`.
//!
//! What an operator computes is defined once, in `nzomp-ir`, and the
//! optimizer's constant folder calls the same methods — so a folded value
//! and an executed one are the same function's result. What is left here is
//! what only the device knows: how an operand reaches the operator's
//! domain, that an integer operation without a result is a
//! [`TrapKind::DivByZero`], the address-space tag a `PtrCast` carries, and
//! fault-injected load corruption, and the value an atomic stores. There
//! are two forms. The interpreter
//! (`interp.rs`) runs the tagged one, where a dynamically typed [`RtVal`]
//! coerces to the domain (`as_i` / `as_f`). The bytecode tier (`bytecode/`)
//! runs the untagged one (`bits_*`), where a register is raw bits and the
//! operator's static class says how to read them — sound only on images
//! that pass the verifier's value-domain rule ([`nzomp_ir::verify_domains`]),
//! the only kind the device lowers.

use nzomp_ir::inst::{AtomicOp, BinOp, CastKind, Pred, UnOp};
use nzomp_ir::Ty;

use crate::error::TrapKind;
use crate::gmem::rtval_from_bits;
use crate::memory::DevPtr;
use crate::value::RtVal;

/// Binary arithmetic in the domain the operator's class names. The one
/// operation without a result is an integer divide or remainder by zero.
#[inline]
pub(crate) fn exec_bin(op: BinOp, a: RtVal, b: RtVal) -> Result<RtVal, TrapKind> {
    let v = if op.is_float() {
        op.eval_float(a.as_f(), b.as_f()).map(RtVal::F)
    } else {
        op.eval_int(a.as_i(), b.as_i()).map(RtVal::I)
    };
    v.ok_or(TrapKind::DivByZero)
}

/// Unary arithmetic. Every operator has exactly one of the two meanings, so
/// the operand never passes through unchanged.
#[inline]
pub(crate) fn exec_un(op: UnOp, a: RtVal) -> RtVal {
    let v = if op.is_float() {
        op.eval_float(a.as_f()).map(RtVal::F)
    } else {
        op.eval_int(a.as_i()).map(RtVal::I)
    };
    v.unwrap_or(a)
}

#[inline]
pub(crate) fn exec_cast(kind: CastKind, to: Ty, a: RtVal) -> RtVal {
    match kind {
        CastKind::IntCast => RtVal::I(CastKind::int_cast(to, a.as_i())),
        CastKind::ZExtCast => RtVal::I(CastKind::zext_cast(to, a.as_i())),
        CastKind::SiToFp => RtVal::F(CastKind::si_to_fp(a.as_i())),
        CastKind::FpToSi => RtVal::I(CastKind::fp_to_si(a.as_f())),
        CastKind::PtrCast => {
            if to == Ty::Ptr {
                RtVal::P(DevPtr(a.as_i() as u64))
            } else {
                RtVal::I(a.as_ptr().0 as i64)
            }
        }
    }
}

/// Comparison. `float` selects IEEE semantics; integer compares go through
/// the raw bit pattern (pointers compare by address and tag).
#[inline]
pub(crate) fn exec_cmp(pred: Pred, float: bool, a: RtVal, b: RtVal) -> bool {
    if float {
        pred.eval_float(a.as_f(), b.as_f())
    } else {
        pred.eval_int(a.to_bits(), b.to_bits())
    }
}

/// [`exec_bin`] on register bits, read in the operator's domain.
#[inline]
pub(crate) fn bits_bin(op: BinOp, a: u64, b: u64) -> Result<u64, TrapKind> {
    let v = if op.is_float() {
        op.eval_float(f64::from_bits(a), f64::from_bits(b)).map(f64::to_bits)
    } else {
        op.eval_int(a as i64, b as i64).map(|v| v as u64)
    };
    v.ok_or(TrapKind::DivByZero)
}

/// [`exec_un`] on register bits.
#[inline]
pub(crate) fn bits_un(op: UnOp, a: u64) -> u64 {
    let v = if op.is_float() {
        op.eval_float(f64::from_bits(a)).map(f64::to_bits)
    } else {
        op.eval_int(a as i64).map(|v| v as u64)
    };
    v.unwrap_or(a)
}

/// [`exec_cast`] on register bits. A `PtrCast` keeps the bits (the tag it
/// changes exists only in the tagged form).
#[inline]
pub(crate) fn bits_cast(kind: CastKind, to: Ty, a: u64) -> u64 {
    match kind {
        CastKind::IntCast => CastKind::int_cast(to, a as i64) as u64,
        CastKind::ZExtCast => CastKind::zext_cast(to, a as i64) as u64,
        CastKind::SiToFp => CastKind::si_to_fp(a as i64).to_bits(),
        CastKind::FpToSi => CastKind::fp_to_si(f64::from_bits(a)) as u64,
        CastKind::PtrCast => a,
    }
}

/// [`exec_cmp`] on register bits.
#[inline]
pub(crate) fn bits_cmp(pred: Pred, float: bool, a: u64, b: u64) -> bool {
    if float {
        pred.eval_float(f64::from_bits(a), f64::from_bits(b))
    } else {
        pred.eval_int(a as i64, b as i64)
    }
}

/// The value an atomic read-modify-write of type `ty` stores, for both
/// tiers: its callers are `TeamExec::atomic` (the one direct-mode atomic),
/// the buffered view and wave-ordered replay, so all three agree bit for
/// bit. The operation's binary operator over the value found and the
/// operand — none of them can trap — or, for an exchange, the operand as
/// it is. Out of line on purpose: inlined, it plants a second
/// copy of `exec_bin`'s switch in the bytecode dispatch loop, which costs
/// `exec_seq` a fifth of its throughput (the codegen cliff of
/// docs/exec-tiers.md).
#[inline(never)]
pub(crate) fn combine_atomic(op: AtomicOp, ty: Ty, old: RtVal, v: RtVal) -> RtVal {
    let bin = op.combiner(ty.is_float());
    bin.and_then(|bin| exec_bin(bin, old, v).ok()).unwrap_or(v)
}

/// Apply a [`crate::faults::FaultAction::CorruptLoad`] mask, keeping the
/// value's type (the same bit-reinterpretation rule typed loads use).
#[inline]
pub(crate) fn corrupt_value(v: RtVal, xor: u64, ty: Ty) -> RtVal {
    rtval_from_bits(v.to_bits() ^ xor as i64, ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptr_cast_round_trips_bits() {
        let p = exec_cast(CastKind::PtrCast, Ty::Ptr, RtVal::I(0x1234));
        assert_eq!(p, RtVal::P(DevPtr(0x1234)));
        assert_eq!(exec_cast(CastKind::PtrCast, Ty::I64, p), RtVal::I(0x1234));
    }

    #[test]
    fn corrupt_value_preserves_type() {
        assert_eq!(corrupt_value(RtVal::I(0), 0xff, Ty::I64), RtVal::I(0xff));
        assert!(matches!(corrupt_value(RtVal::F(1.0), 1, Ty::F64), RtVal::F(_)));
        assert!(matches!(corrupt_value(RtVal::P(DevPtr(8)), 1, Ty::Ptr), RtVal::P(_)));
        // XOR with 0 is the identity on the bit pattern.
        assert_eq!(corrupt_value(RtVal::F(2.5), 0, Ty::F64), RtVal::F(2.5));
    }
}
