//! Instructions and block terminators.

use crate::func::BlockId;
use crate::types::Ty;
use crate::value::{Operand, PhiIncoming};

/// Dense index of an instruction within its function's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declares an operator enum once. The variant list, `ALL`, `mnemonic()`
/// and `from_mnemonic()` all come from the one `Variant = "spelling"` table,
/// so the printer, the parser and the fuzz generator's coverage labels
/// cannot drift from the enum (or from each other). What each row computes
/// and costs is `ops.rs`, the one evaluator the optimizer and the device
/// share.
macro_rules! operators {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident $(($payload:tt))? = $mnemonic:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant $(($payload))?,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant $(($payload))?,)+];

            /// The operator's spelling in the text format (`docs/ir-format.md`).
            #[inline]
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$variant $(($payload))? => $mnemonic,)+
                }
            }

            /// Inverse of [`Self::mnemonic`].
            pub fn from_mnemonic(s: &str) -> Option<$name> {
                match s {
                    $($mnemonic => Some($name::$variant $(($payload))?),)+
                    _ => None,
                }
            }
        }
    };
}

operators! {
    /// Integer / float binary operators. Integer semantics are 64-bit wrapping
    /// two's complement regardless of the nominal type.
    BinOp {
        Add = "Add",
        Sub = "Sub",
        Mul = "Mul",
        SDiv = "SDiv",
        SRem = "SRem",
        UDiv = "UDiv",
        URem = "URem",
        And = "And",
        Or = "Or",
        Xor = "Xor",
        Shl = "Shl",
        LShr = "LShr",
        AShr = "AShr",
        SMin = "SMin",
        SMax = "SMax",
        FAdd = "FAdd",
        FSub = "FSub",
        FMul = "FMul",
        FDiv = "FDiv",
        FMin = "FMin",
        FMax = "FMax",
    }
}

operators! {
    /// Unary operators (transcendentals are intrinsic-like but modeled as unops
    /// since they are pure).
    UnOp {
        Neg = "Neg",
        Not = "Not",
        FNeg = "FNeg",
        FAbs = "FAbs",
        Sqrt = "Sqrt",
        Sin = "Sin",
        Cos = "Cos",
        Exp = "Exp",
        Log = "Log",
    }
}

operators! {
    /// Cast kinds between the scalar types.
    CastKind {
        /// Integer-to-integer resize (sign-extends when widening from a signed
        /// narrower value; truncates when narrowing).
        IntCast = "IntCast",
        /// Zero-extending integer resize.
        ZExtCast = "ZExtCast",
        /// Signed int -> f64.
        SiToFp = "SiToFp",
        /// f64 -> signed int (round toward zero).
        FpToSi = "FpToSi",
        /// Reinterpret pointer as i64 or back.
        PtrCast = "PtrCast",
    }
}

operators! {
    /// Comparison predicates. Apply to ints, floats, or pointers depending on
    /// the operand type recorded on the instruction.
    Pred {
        Eq = "Eq",
        Ne = "Ne",
        Slt = "Slt",
        Sle = "Sle",
        Sgt = "Sgt",
        Sge = "Sge",
        Ult = "Ult",
        Ule = "Ule",
        Ugt = "Ugt",
        Uge = "Uge",
    }
}

operators! {
    /// Read-modify-write atomic operations.
    AtomicOp {
        Add = "Add",
        Max = "Max",
        Min = "Min",
        Exchange = "Exchange",
    }
}

operators! {
    /// GPU / runtime intrinsics. These are the only operations with
    /// target-specific semantics; everything the paper's optimizations reason
    /// about (barrier alignment, thread identity, assumptions) is explicit here.
    Intrinsic {
        /// Hardware thread id within the team (i64).
        ThreadId = "thread.id",
        /// Team (block) id within the grid (i64).
        BlockId = "block.id",
        /// Number of threads per team (i64).
        BlockDim = "block.dim",
        /// Number of teams in the grid (i64).
        GridDim = "grid.dim",
        /// Team-wide barrier that every thread of the team is guaranteed to
        /// reach (paper §III-G / Fig. 6: `ext_aligned_barrier`). Removable by
        /// the aligned-barrier-elimination pass (§IV-D).
        AlignedBarrier = "barrier.aligned",
        /// Team-wide barrier that may be reached from divergent control flow
        /// (e.g. the generic-mode state machine). Never removed.
        Barrier = "barrier",
        /// Compiler assumption: the i1 operand is true (paper §III-G). In debug
        /// builds the vGPU verifies it; in release it is free.
        Assume(()) = "assume",
        /// Abort kernel execution with an assertion failure.
        AssertFail = "assert.fail",
        /// Device-side heap allocation (fallback of the shared-memory stack).
        Malloc = "malloc",
        /// Device-side heap free.
        Free = "free",
    }
}

/// One instruction. Instructions that produce a value have a well-defined
/// result type (see [`Inst::result_ty`]); the rest are `void`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    Bin {
        op: BinOp,
        ty: Ty,
        lhs: Operand,
        rhs: Operand,
    },
    Un {
        op: UnOp,
        ty: Ty,
        arg: Operand,
    },
    Cast {
        kind: CastKind,
        to: Ty,
        arg: Operand,
    },
    Cmp {
        pred: Pred,
        ty: Ty,
        lhs: Operand,
        rhs: Operand,
    },
    Select {
        ty: Ty,
        cond: Operand,
        if_true: Operand,
        if_false: Operand,
    },
    /// Load `ty.size()` bytes from `ptr`.
    Load {
        ty: Ty,
        ptr: Operand,
    },
    /// Store `ty.size()` bytes of `value` to `ptr`.
    Store {
        ty: Ty,
        ptr: Operand,
        value: Operand,
    },
    /// `base + offset` in bytes (the GEP of this IR).
    PtrAdd {
        base: Operand,
        offset: Operand,
    },
    /// Reserve `size` bytes of per-thread local memory. Always in the entry
    /// block (the builder enforces this).
    Alloca {
        size: u64,
    },
    /// Direct or indirect call. `callee` is `Operand::Func` for direct
    /// calls; anything else is an indirect call through a function pointer.
    Call {
        callee: Operand,
        args: Vec<Operand>,
        ret: Option<Ty>,
    },
    /// Atomic read-modify-write; returns the previous value.
    Atomic {
        op: AtomicOp,
        ty: Ty,
        ptr: Operand,
        value: Operand,
    },
    /// Atomic compare-and-swap; returns the previous value.
    Cas {
        ty: Ty,
        ptr: Operand,
        expected: Operand,
        new: Operand,
    },
    Intr {
        intr: Intrinsic,
        args: Vec<Operand>,
    },
    Phi {
        ty: Ty,
        incomings: Vec<PhiIncoming>,
    },
}

/// The one listing of each variant's operand fields, in use order: `$body`
/// runs with `$ops` bound to an iterator over them. `$on` is an `Inst` or
/// `Term` behind `&` or `&mut`; match ergonomics then make the items
/// `&Operand` or `&mut Operand`, so `for_each_operand()` and
/// `map_operands()` are both this listing, and neither allocates.
macro_rules! each_operand {
    (inst $on:expr, |$ops:ident| $body:expr) => {
        match $on {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                let $ops = [lhs, rhs].into_iter();
                $body
            }
            Inst::Un { arg, .. } | Inst::Cast { arg, .. } => {
                let $ops = [arg].into_iter();
                $body
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                let $ops = [cond, if_true, if_false].into_iter();
                $body
            }
            Inst::Load { ptr, .. } => {
                let $ops = [ptr].into_iter();
                $body
            }
            Inst::Store { ptr, value, .. } | Inst::Atomic { ptr, value, .. } => {
                let $ops = [ptr, value].into_iter();
                $body
            }
            Inst::PtrAdd { base, offset } => {
                let $ops = [base, offset].into_iter();
                $body
            }
            Inst::Alloca { .. } => {
                let $ops = std::iter::empty();
                $body
            }
            Inst::Call { callee, args, .. } => {
                let $ops = std::iter::once(callee).chain(args);
                $body
            }
            Inst::Cas {
                ptr, expected, new, ..
            } => {
                let $ops = [ptr, expected, new].into_iter();
                $body
            }
            Inst::Intr { args, .. } => {
                let $ops = args.into_iter();
                $body
            }
            Inst::Phi { incomings, .. } => {
                let $ops = incomings.into_iter().map(|PhiIncoming { value, .. }| value);
                $body
            }
        }
    };
    (term $on:expr, |$ops:ident| $body:expr) => {
        match $on {
            Term::CondBr { cond: v, .. } | Term::Ret(Some(v)) => {
                let $ops = std::iter::once(v);
                $body
            }
            Term::Br(_) | Term::Ret(None) | Term::Unreachable => {
                let $ops = std::iter::empty();
                $body
            }
        }
    };
}

impl Inst {
    /// Result type, or `None` for void instructions.
    pub fn result_ty(&self) -> Option<Ty> {
        match self {
            Inst::Bin { ty, .. } | Inst::Un { ty, .. } => Some(*ty),
            Inst::Cast { to, .. } => Some(*to),
            Inst::Cmp { .. } => Some(Ty::I1),
            Inst::Select { ty, .. } => Some(*ty),
            Inst::Load { ty, .. } => Some(*ty),
            Inst::Store { .. } => None,
            Inst::PtrAdd { .. } | Inst::Alloca { .. } => Some(Ty::Ptr),
            Inst::Call { ret, .. } => *ret,
            Inst::Atomic { ty, .. } | Inst::Cas { ty, .. } => Some(*ty),
            Inst::Intr { intr, .. } => intr.result_ty(),
            Inst::Phi { ty, .. } => Some(*ty),
        }
    }

    /// Does executing this instruction read or write memory, synchronize, or
    /// otherwise have an effect beyond producing its result? Loads count:
    /// they observe shared state (this is the conservative side used by the
    /// barrier-elimination pass).
    pub fn has_side_effects(&self) -> bool {
        match self {
            Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::Call { .. }
            | Inst::Atomic { .. }
            | Inst::Cas { .. } => true,
            Inst::Intr { intr, .. } => !intr.is_pure(),
            _ => false,
        }
    }

    /// Call `f` on every operand use, in use order (phi incomings by
    /// value; their predecessors are not operands).
    #[inline]
    pub fn for_each_operand(&self, f: impl FnMut(Operand)) {
        each_operand!(inst self, |ops| ops.copied().for_each(f));
    }

    /// Apply `f` to every operand use in place (including phi incomings).
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        each_operand!(inst self, |ops| ops.for_each(|o: &mut Operand| *o = f(*o)));
    }

    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }
}

/// Block terminators.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    Br(BlockId),
    CondBr {
        cond: Operand,
        if_true: BlockId,
        if_false: BlockId,
    },
    Ret(Option<Operand>),
    Unreachable,
}

/// The successors of a terminator: at most two blocks, held inline. Reads
/// as a slice and iterates by value, so walking a CFG edge costs no heap
/// allocation.
#[derive(Clone, Copy, Debug)]
pub struct Succs {
    blocks: [BlockId; 2],
    len: usize,
}

impl std::ops::Deref for Succs {
    type Target = [BlockId];

    #[inline]
    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len]
    }
}

impl IntoIterator for Succs {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len)
    }
}

impl Term {
    /// Successor blocks in order.
    #[inline]
    pub fn succs(&self) -> Succs {
        let (blocks, len) = match self {
            Term::Br(b) => ([*b, *b], 1),
            Term::CondBr {
                if_true, if_false, ..
            } => ([*if_true, *if_false], 2),
            Term::Ret(_) | Term::Unreachable => ([BlockId::ENTRY; 2], 0),
        };
        Succs { blocks, len }
    }

    /// Call `f` on every operand use.
    #[inline]
    pub fn for_each_operand(&self, f: impl FnMut(Operand)) {
        each_operand!(term self, |ops| ops.copied().for_each(f));
    }

    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        each_operand!(term self, |ops| ops.for_each(|o: &mut Operand| *o = f(*o)));
    }
}
