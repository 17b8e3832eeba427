//! SSA operands.

use crate::func::BlockId;
use crate::global::GlobalId;
use crate::inst::InstId;
use crate::types::Ty;

/// A use of an SSA value: either the result of an instruction, a function
/// parameter, or an immediate constant. `Operand` is `Copy` so rewriting
/// passes can freely replace uses.
///
/// Equality is *bitwise* for float constants (`NaN == NaN`,
/// `0.0 != -0.0`): the printer/parser round-trip contract
/// (`parse(print(m)) == m`, see `docs/ir-format.md`) needs module equality
/// to be an equivalence relation over every representable constant, which
/// IEEE `==` is not.
#[derive(Clone, Copy, Debug)]
pub enum Operand {
    /// Result of instruction `InstId` in the same function.
    Inst(InstId),
    /// The `n`-th parameter of the enclosing function.
    Param(u32),
    /// Integer constant of the given type (value stored sign-extended).
    ConstI(i64, Ty),
    /// Floating-point constant.
    ConstF(f64),
    /// Address of a module global.
    Global(GlobalId),
    /// Address of a function (for indirect calls / outlined parallel bodies).
    Func(crate::module::FuncRef),
}

impl PartialEq for Operand {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Operand::Inst(a), Operand::Inst(b)) => a == b,
            (Operand::Param(a), Operand::Param(b)) => a == b,
            (Operand::ConstI(a, at), Operand::ConstI(b, bt)) => a == b && at == bt,
            // Bitwise: distinguishes -0.0 from 0.0 and makes NaN reflexive.
            (Operand::ConstF(a), Operand::ConstF(b)) => a.to_bits() == b.to_bits(),
            (Operand::Global(a), Operand::Global(b)) => a == b,
            (Operand::Func(a), Operand::Func(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Operand {}

/// Agrees with `==` above: float constants hash by their bits.
impl std::hash::Hash for Operand {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Operand::Inst(InstId(n)) | Operand::Param(n) => n.hash(h),
            Operand::Global(GlobalId(n)) | Operand::Func(crate::module::FuncRef(n)) => n.hash(h),
            Operand::ConstI(a, t) => (a, t).hash(h),
            Operand::ConstF(a) => a.to_bits().hash(h),
        }
    }
}

impl Operand {
    /// Null pointer constant.
    pub const NULL: Operand = Operand::ConstI(0, Ty::Ptr);

    /// `true` constant.
    pub const TRUE: Operand = Operand::ConstI(1, Ty::I1);

    /// `false` constant.
    pub const FALSE: Operand = Operand::ConstI(0, Ty::I1);

    pub fn i64(v: i64) -> Operand {
        Operand::ConstI(v, Ty::I64)
    }

    pub fn i32(v: i32) -> Operand {
        Operand::ConstI(v as i64, Ty::I32)
    }

    pub fn f64(v: f64) -> Operand {
        Operand::ConstF(v)
    }

    pub fn bool_(v: bool) -> Operand {
        Operand::ConstI(v as i64, Ty::I1)
    }

    /// Returns the integer value if this is an integer constant.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Operand::ConstI(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float value if this is a float constant.
    pub fn as_const_f64(&self) -> Option<f64> {
        match self {
            Operand::ConstF(v) => Some(*v),
            _ => None,
        }
    }

    /// Is this any kind of constant (including globals/function addresses,
    /// which are link-time constants)?
    pub fn is_constant(&self) -> bool {
        !matches!(self, Operand::Inst(_) | Operand::Param(_))
    }
}

/// An incoming edge of a phi node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhiIncoming {
    pub pred: BlockId,
    pub value: Operand,
}
