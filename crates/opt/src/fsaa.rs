//! Field-sensitive access analysis (paper §IV-B1).
//!
//! For every *analyzable object* — an internal global or a stack allocation
//! — collect all memory accesses binned by byte offset and size, including:
//!
//! * **maybe-writes** through conditional pointers (the Fig. 7b broadcast
//!   idiom stores through `select(cond, &field, &dummy)`);
//! * **pseudo-writes** derived from `assume(load(p) == k)` patterns — the
//!   assumed-memory-content extension (§IV-B3);
//! * **unknown accesses** (dynamic offset), binned separately so the
//!   zero-initialization deduction can still fire ("even if we cannot
//!   predict the offset of each access precisely we still can deduce that a
//!   load ... is effectively resulting in a zero value", §IV-B1);
//! * escape facts: whether the object's address leaks into memory, calls or
//!   integer casts — escaped objects cannot be reasoned about.

use std::collections::HashMap;

use nzomp_ir::inst::{Inst, InstId, Intrinsic, Pred};
use nzomp_ir::{BlockId, Function, Module, Operand, Space, Ty};

/// An analyzable memory object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectId {
    Global(u32),
    Alloca { func: u32, inst: u32 },
}

/// Abstract value a write stores (the fold lattice).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FoldVal {
    Int(i64, Ty),
    Float(f64),
    Func(u32),
    /// Invariant hardware intrinsics (§IV-B4): rematerializable anywhere.
    BlockDim,
    GridDim,
    /// A function parameter (§IV-B4: "we further can propagate ...
    /// function arguments through memory"). Only valid when the reading
    /// load is in the same function as every such write.
    Param(u32),
    /// Unknown.
    Bottom,
}

impl FoldVal {
    pub fn is_zero(&self) -> bool {
        matches!(self, FoldVal::Int(0, _))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write.
    Rmw,
    /// Pseudo-write from an `assume(load == k)` (§IV-B3).
    AssumeEq,
}

/// One access to one object.
#[derive(Clone, Debug)]
pub struct Access {
    pub func: u32,
    pub block: BlockId,
    /// Position within the block's instruction list.
    pub pos: usize,
    pub inst: InstId,
    pub kind: AccessKind,
    /// Byte offset within the object; `None` if dynamic.
    pub offset: Option<u64>,
    pub size: u64,
    /// Value written (writes/pseudo-writes only).
    pub value: Option<FoldVal>,
    /// The access may target a different object instead (conditional
    /// pointer): it cannot serve as a *dominating* definition but its value
    /// still participates in the merge.
    pub maybe: bool,
}

/// Per-object access summary.
#[derive(Clone, Debug, Default)]
pub struct ObjectInfo {
    pub accesses: Vec<Access>,
    /// Address escaped (stored, passed to a call, cast to int, returned).
    pub escaped: bool,
    pub space: Option<Space>,
    /// Object is all-zero before the kernel's first write (shared memory
    /// and zero-initialized globals).
    pub zero_init: bool,
}

/// Module-wide analysis result.
#[derive(Debug, Default)]
pub struct Fsaa {
    pub objects: HashMap<ObjectId, ObjectInfo>,
}

/// Result of resolving a pointer operand.
#[derive(Clone, Debug, Default)]
struct PtrTargets {
    targets: Vec<(ObjectId, Option<u64>)>,
    unknown: bool,
}

impl PtrTargets {
    fn unknown() -> PtrTargets {
        PtrTargets {
            targets: Vec::new(),
            unknown: true,
        }
    }
}

/// Resolve which objects `op` can point to (with constant offsets where
/// possible). `depth` guards against pathological chains.
fn resolve_ptr(f: &Function, fidx: u32, op: Operand, depth: usize) -> PtrTargets {
    if depth > 24 {
        return PtrTargets::unknown();
    }
    match op {
        Operand::Global(g) => PtrTargets {
            targets: vec![(ObjectId::Global(g.0), Some(0))],
            unknown: false,
        },
        Operand::ConstI(0, Ty::Ptr) => PtrTargets::default(), // null: no object
        Operand::Inst(i) => match f.inst(i) {
            Inst::Alloca { .. } => PtrTargets {
                targets: vec![(
                    ObjectId::Alloca {
                        func: fidx,
                        inst: i.0,
                    },
                    Some(0),
                )],
                unknown: false,
            },
            Inst::PtrAdd { base, offset } => {
                let mut t = resolve_ptr(f, fidx, *base, depth + 1);
                match offset.as_const_int() {
                    Some(off) if off >= 0 => {
                        for (_, o) in &mut t.targets {
                            *o = o.and_then(|v| v.checked_add(off as u64));
                        }
                    }
                    _ => {
                        for (_, o) in &mut t.targets {
                            *o = None;
                        }
                    }
                }
                t
            }
            Inst::Select {
                if_true, if_false, ..
            } => {
                let mut a = resolve_ptr(f, fidx, *if_true, depth + 1);
                let b = resolve_ptr(f, fidx, *if_false, depth + 1);
                a.unknown |= b.unknown;
                for t in b.targets {
                    if !a.targets.contains(&t) {
                        a.targets.push(t);
                    }
                }
                a
            }
            // Loads, calls, casts, phis: unknown provenance.
            _ => PtrTargets::unknown(),
        },
        _ => PtrTargets::unknown(),
    }
}

/// Abstract value of an operand (for write values), following one level of
/// defining instructions for the invariant intrinsics (§IV-B4).
pub fn fold_val(f: &Function, op: Operand, invariant_prop: bool) -> FoldVal {
    match op {
        Operand::ConstI(v, ty) => FoldVal::Int(v, ty),
        Operand::ConstF(v) => FoldVal::Float(v),
        Operand::Func(fr) => FoldVal::Func(fr.0),
        Operand::Param(p) if invariant_prop => FoldVal::Param(p),
        Operand::Inst(i) if invariant_prop => match f.inst(i) {
            Inst::Intr {
                intr: Intrinsic::BlockDim,
                ..
            } => FoldVal::BlockDim,
            Inst::Intr {
                intr: Intrinsic::GridDim,
                ..
            } => FoldVal::GridDim,
            _ => FoldVal::Bottom,
        },
        _ => FoldVal::Bottom,
    }
}

/// Does `op` (recursively) use a pointer into an analyzable object in a
/// non-dereferencing position? Used for escape marking.
fn mark_escapes(f: &Function, fidx: u32, op: Operand, fsaa: &mut Fsaa) {
    let t = resolve_ptr(f, fidx, op, 0);
    for (obj, _) in t.targets {
        fsaa.objects.entry(obj).or_default().escaped = true;
    }
}

/// Build the analysis over live (non-declaration) functions.
pub fn build(module: &Module, assumed_content: bool, invariant_prop: bool) -> Fsaa {
    let mut fsaa = Fsaa::default();

    // Seed object metadata for globals.
    for (gi, g) in module.globals.iter().enumerate() {
        let info = fsaa.objects.entry(ObjectId::Global(gi as u32)).or_default();
        info.space = Some(g.space);
        info.zero_init = match g.space {
            // Shared memory is zeroed at team start in the vGPU; the
            // runtime additionally writes its NULLs explicitly (§III-C).
            Space::Shared => matches!(g.init, nzomp_ir::Init::Zero),
            Space::Global | Space::Constant => matches!(g.init, nzomp_ir::Init::Zero),
            Space::Local => false,
        };
        // Constant-space objects are handled by plain constant folding.
    }

    for (fidx, f) in module.funcs.iter().enumerate() {
        if f.is_declaration() {
            continue;
        }
        let fidx = fidx as u32;
        for (bid, block) in f.iter_blocks() {
            for (pos, &iid) in block.insts.iter().enumerate() {
                let inst = f.inst(iid);
                match inst {
                    Inst::Load { ty, ptr } => {
                        let t = resolve_ptr(f, fidx, *ptr, 0);
                        record(&mut fsaa, f, fidx, bid, pos, iid, &t, AccessKind::Read, ty.size(), None);
                        if t.unknown {
                            // A load through an unknown pointer may read any
                            // escaped object; escape already covers that.
                        }
                    }
                    Inst::Store { ty, ptr, value } => {
                        let t = resolve_ptr(f, fidx, *ptr, 0);
                        let v = fold_val(f, *value, invariant_prop);
                        record(
                            &mut fsaa,
                            f,
                            fidx,
                            bid,
                            pos,
                            iid,
                            &t,
                            AccessKind::Write,
                            ty.size(),
                            Some(v),
                        );
                        // The stored *value* escapes if it is an object address.
                        mark_escapes(f, fidx, *value, &mut fsaa);
                    }
                    Inst::Atomic { ty, ptr, value, .. } => {
                        let t = resolve_ptr(f, fidx, *ptr, 0);
                        record(
                            &mut fsaa,
                            f,
                            fidx,
                            bid,
                            pos,
                            iid,
                            &t,
                            AccessKind::Rmw,
                            ty.size(),
                            Some(FoldVal::Bottom),
                        );
                        mark_escapes(f, fidx, *value, &mut fsaa);
                    }
                    Inst::Cas {
                        ty,
                        ptr,
                        expected,
                        new,
                    } => {
                        let t = resolve_ptr(f, fidx, *ptr, 0);
                        record(
                            &mut fsaa,
                            f,
                            fidx,
                            bid,
                            pos,
                            iid,
                            &t,
                            AccessKind::Rmw,
                            ty.size(),
                            Some(FoldVal::Bottom),
                        );
                        mark_escapes(f, fidx, *expected, &mut fsaa);
                        mark_escapes(f, fidx, *new, &mut fsaa);
                    }
                    Inst::Call { callee, args, .. } => {
                        // Object addresses passed to calls escape (we rely
                        // on inlining to expose the common paths; what stays
                        // outlined is treated conservatively).
                        for a in args {
                            mark_escapes(f, fidx, *a, &mut fsaa);
                        }
                        let _ = callee;
                    }
                    Inst::Intr { intr, args } => {
                        if *intr == Intrinsic::Assume(()) && assumed_content {
                            if let Some(acc) = assume_pseudo_write(f, fidx, bid, pos, iid, args, invariant_prop)
                            {
                                let obj = acc.0;
                                fsaa.objects.entry(obj).or_default().accesses.push(acc.1);
                                continue;
                            }
                        }
                        for a in args {
                            // free(ptr) etc.: conservatively escape.
                            if !matches!(intr, Intrinsic::Assume(())) {
                                mark_escapes(f, fidx, *a, &mut fsaa);
                            }
                        }
                    }
                    Inst::Cast {
                        kind: nzomp_ir::CastKind::PtrCast,
                        arg,
                        ..
                    } => {
                        // Address observed as an integer: escape.
                        mark_escapes(f, fidx, *arg, &mut fsaa);
                    }
                    Inst::Phi { incomings, .. } => {
                        // Pointer-typed phis: conservatively escape their
                        // object inputs (we do not track flow through phis).
                        for inc in incomings {
                            mark_escapes(f, fidx, inc.value, &mut fsaa);
                        }
                    }
                    _ => {}
                }
            }
            block
                .term
                .for_each_operand(|op| mark_escapes(f, fidx, op, &mut fsaa));
        }
    }
    fsaa
}

#[allow(clippy::too_many_arguments)]
fn record(
    fsaa: &mut Fsaa,
    _f: &Function,
    fidx: u32,
    block: BlockId,
    pos: usize,
    inst: InstId,
    targets: &PtrTargets,
    kind: AccessKind,
    size: u64,
    value: Option<FoldVal>,
) {
    let maybe = targets.targets.len() > 1 || targets.unknown;
    for (obj, off) in &targets.targets {
        let info = fsaa.objects.entry(*obj).or_default();
        info.accesses.push(Access {
            func: fidx,
            block,
            pos,
            inst,
            kind,
            offset: *off,
            size,
            value,
            maybe,
        });
    }
    if targets.unknown {
        // Accesses through unknown pointers affect escaped objects only;
        // escape marking happens where the pointer leaked.
    }
}

/// Recognize `%v = load ty, p ; %c = cmp eq %v, X ; assume(%c)` and turn it
/// into a pseudo-write of `X` at the assume's location (§IV-B3, Fig. 8b).
fn assume_pseudo_write(
    f: &Function,
    fidx: u32,
    block: BlockId,
    pos: usize,
    iid: InstId,
    args: &[Operand],
    invariant_prop: bool,
) -> Option<(ObjectId, Access)> {
    let Operand::Inst(cmp_id) = args[0] else {
        return None;
    };
    let Inst::Cmp {
        pred: Pred::Eq,
        lhs,
        rhs,
        ..
    } = f.inst(cmp_id)
    else {
        return None;
    };
    // Either side may be the load.
    let (load_side, val_side) = match (lhs, rhs) {
        (Operand::Inst(l), v) if matches!(f.inst(*l), Inst::Load { .. }) => (*l, *v),
        (v, Operand::Inst(l)) if matches!(f.inst(*l), Inst::Load { .. }) => (*l, *v),
        _ => return None,
    };
    let Inst::Load { ty, ptr } = f.inst(load_side) else {
        return None;
    };
    let t = resolve_ptr(f, fidx, *ptr, 0);
    if t.unknown || t.targets.len() != 1 {
        return None;
    }
    let (obj, off) = t.targets[0];
    let off = off?;
    let value = fold_val(f, val_side, invariant_prop);
    if value == FoldVal::Bottom {
        return None;
    }
    Some((
        obj,
        Access {
            func: fidx,
            block,
            pos,
            inst: iid,
            kind: AccessKind::AssumeEq,
            offset: Some(off),
            size: ty.size(),
            value: Some(value),
            maybe: false,
        },
    ))
}
