//! The value-class rule: which values of a module are integer bits and
//! which are float bits.
//!
//! The IR types its instructions but not its operands, so nothing stops a
//! module from feeding an integer to `fadd` or a double to a branch. A
//! dynamically tagged executor converts at such a use (the vGPU's
//! interpreter does); an executor that keeps only the bits cannot. This
//! rule proves, once per module, that no such use exists — that every
//! operand a running instruction reads is in the domain its operator
//! computes in — so the untagged engine and the tagged one cannot disagree.
//!
//! A value's class is the set of representations it may hold at run time:
//! integer bits (pointers included) or float bits. Each instruction
//! produces a class fixed by its operator and type; phis, selects,
//! direct-call results and `ret` operands join theirs to a fixpoint. A
//! module fails when a value may hold float bits on one path and integer
//! bits on another, or when an operand's class is not one its reader
//! accepts:
//!
//! * float operators, `fptosi`, float compares and non-exchange float
//!   atomics read float bits;
//! * integer operators, the other casts, pointers, conditions and the
//!   `malloc` / `free` / `assume` operands read integer bits;
//! * integer compares, stored values, compare-and-swap operands and
//!   exchanges accept either (they move bits);
//! * a direct call's arguments match its callee's parameter types, and an
//!   indirect call's arguments match those of every defined function of
//!   its arity (any of them may be the target).
//!
//! A value that never receives a class (a phi of nothing but itself, the
//! result of a call to a function that returns nothing) is zero, which
//! reads the same in both domains, so it satisfies every reader. Only the
//! code blocks list is checked: arena entries no block lists never run.

use crate::func::Function;
use crate::inst::{AtomicOp, CastKind, Inst, Intrinsic, Term};
use crate::module::Module;
use crate::types::Ty;
use crate::value::Operand;
use crate::verify::VerifyError;

/// The set of representations a value may hold at run time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Class(u8);

impl Class {
    /// Never assigned: the value is zero.
    const NONE: Class = Class(0);
    /// Integer or pointer bits: what an integer reader accepts.
    const BITS: Class = Class(1);
    const FLOAT: Class = Class(2);

    fn float_if(float: bool) -> Class {
        if float {
            Class::FLOAT
        } else {
            Class::BITS
        }
    }

    /// What a value produced at type `ty`, or a parameter of type `ty`,
    /// holds: float bits exactly when it is `f64`.
    fn of_ty(ty: Ty) -> Class {
        Class::float_if(ty.is_float())
    }

    fn join(self, other: Class) -> Class {
        Class(self.0 | other.0)
    }

    /// Is every representation `self` may hold also one of `other`'s?
    fn within(self, other: Class) -> bool {
        self.0 & !other.0 == 0
    }

    /// Float bits on one path, integer bits on another.
    fn is_mixed(self) -> bool {
        !self.within(Class::FLOAT) && !self.within(Class::BITS)
    }

    fn name(self) -> &'static str {
        if self.is_mixed() {
            "integer or float"
        } else if self.within(Class::BITS) {
            "integer"
        } else {
            "float"
        }
    }
}

/// The class a reader demands of an operand.
#[derive(Clone, Copy)]
enum Want {
    Int,
    Float,
    Any,
}

impl Want {
    fn float_if(float: bool) -> Want {
        if float {
            Want::Float
        } else {
            Want::Int
        }
    }

    fn of_param(ty: Ty) -> Want {
        Want::float_if(ty.is_float())
    }

    fn accepts(self, c: Class) -> bool {
        match self {
            Want::Int => c.within(Class::BITS),
            Want::Float => c.within(Class::FLOAT),
            Want::Any => !c.is_mixed(),
        }
    }
}

/// One function's classes.
#[derive(Clone, Debug)]
struct FnClasses {
    params: Vec<Class>,
    /// Per arena instruction (results of unlisted ones stay `NONE`).
    insts: Vec<Class>,
    /// The join of the function's `ret` operands.
    ret: Class,
}

/// Every value class of a module that passed the rule.
#[derive(Clone, Debug)]
struct Classes {
    funcs: Vec<FnClasses>,
}

impl Classes {
    /// The class of `op` as read inside function `func`.
    fn operand(&self, func: usize, op: Operand) -> Class {
        let Some(f) = self.funcs.get(func) else { return Class::NONE };
        match op {
            Operand::Inst(i) => f.insts.get(i.index()).copied().unwrap_or_default(),
            Operand::Param(p) => f.params.get(p as usize).copied().unwrap_or_default(),
            Operand::ConstI(..) | Operand::Global(_) | Operand::Func(_) => Class::BITS,
            Operand::ConstF(_) => Class::FLOAT,
        }
    }

    fn ret(&self, func: usize) -> Class {
        self.funcs.get(func).map_or(Class::NONE, |f| f.ret)
    }
}

/// Run the rule over `m`: the first function and instruction that reads an
/// operand outside its operator's domain (or holds a value whose class
/// depends on the path), if any.
pub fn value_classes(m: &Module) -> Result<(), VerifyError> {
    classes(m).map(drop)
}

/// The value classes of `m`, if it passes the rule.
fn classes(m: &Module) -> Result<Classes, VerifyError> {
    let mut cl = Classes {
        funcs: m
            .funcs
            .iter()
            .map(|f| FnClasses {
                params: f.params.iter().map(|&t| Class::of_ty(t)).collect(),
                insts: vec![Class::NONE; f.insts.len()],
                ret: Class::NONE,
            })
            .collect(),
    };
    // Defined functions by arity: the candidates of an indirect call.
    let mut by_arity: Vec<Vec<usize>> = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate().filter(|(_, f)| !f.is_declaration()) {
        let n = f.params.len();
        if by_arity.len() <= n {
            by_arity.resize_with(n + 1, Vec::new);
        }
        by_arity[n].push(fi);
    }
    let candidates = |n: usize| by_arity.get(n).map_or(&[][..], |v| &v[..]);

    // Classes only grow (a join is a union of two bits), so this ends.
    let mut changed = true;
    while changed {
        changed = false;
        for (fi, f) in m.funcs.iter().enumerate() {
            for block in &f.blocks {
                for &iid in &block.insts {
                    let Some(inst) = f.insts.get(iid.index()) else { continue };
                    let c = produced(&cl, fi, inst, candidates);
                    let slot = &mut cl.funcs[fi].insts[iid.index()];
                    if !c.within(*slot) {
                        *slot = slot.join(c);
                        changed = true;
                    }
                }
                if let Term::Ret(Some(v)) = block.term {
                    let c = cl.operand(fi, v);
                    let ret = &mut cl.funcs[fi].ret;
                    if !c.within(*ret) {
                        *ret = ret.join(c);
                        changed = true;
                    }
                }
            }
        }
    }

    for (fi, f) in m.funcs.iter().enumerate() {
        check_function(m, &cl, fi, f, candidates)?;
    }
    Ok(cl)
}

/// The class of the value `inst` produces, from the classes known so far.
fn produced<'c>(
    cl: &Classes,
    fi: usize,
    inst: &Inst,
    candidates: impl Fn(usize) -> &'c [usize],
) -> Class {
    match inst {
        Inst::Bin { op, .. } => Class::float_if(op.is_float()),
        Inst::Un { op, .. } => Class::float_if(op.is_float()),
        Inst::Cast { kind, .. } => match kind {
            CastKind::SiToFp => Class::FLOAT,
            CastKind::IntCast | CastKind::ZExtCast | CastKind::FpToSi | CastKind::PtrCast => Class::BITS,
        },
        Inst::Cmp { .. } => Class::BITS,
        Inst::Select { if_true, if_false, .. } => {
            cl.operand(fi, *if_true).join(cl.operand(fi, *if_false))
        }
        Inst::Load { ty, .. } | Inst::Atomic { ty, .. } | Inst::Cas { ty, .. } => Class::of_ty(*ty),
        Inst::Store { .. } => Class::NONE,
        Inst::PtrAdd { .. } | Inst::Alloca { .. } => Class::BITS,
        Inst::Call { ret: None, .. } => Class::NONE,
        Inst::Call { callee: Operand::Func(g), .. } => cl.ret(g.0 as usize),
        Inst::Call { args, .. } => candidates(args.len())
            .iter()
            .fold(Class::NONE, |c, &g| c.join(cl.ret(g))),
        Inst::Intr { intr, .. } => match intr {
            Intrinsic::ThreadId
            | Intrinsic::BlockId
            | Intrinsic::BlockDim
            | Intrinsic::GridDim
            | Intrinsic::Malloc => Class::BITS,
            Intrinsic::AlignedBarrier
            | Intrinsic::Barrier
            | Intrinsic::AssertFail
            | Intrinsic::Assume(())
            | Intrinsic::Free => Class::NONE,
        },
        Inst::Phi { incomings, .. } => incomings
            .iter()
            .fold(Class::NONE, |c, inc| c.join(cl.operand(fi, inc.value))),
    }
}

/// Check every operand the listed code of `f` reads against its reader.
fn check_function<'c>(
    m: &Module,
    cl: &Classes,
    fi: usize,
    f: &Function,
    candidates: impl Fn(usize) -> &'c [usize],
) -> Result<(), VerifyError> {
    let fail = |at: String, message: String| VerifyError {
        func: f.name.clone(),
        message: format!("{at}: {message}"),
    };
    let read = |at: &dyn Fn() -> String, op: Operand, want: Want| {
        let c = cl.operand(fi, op);
        if want.accepts(c) {
            return Ok(());
        }
        let wanted = match want {
            Want::Int => "integer",
            Want::Float => "float",
            Want::Any => "one class of",
        };
        Err(fail(at(), format!("reads {} bits where {wanted} bits are required", c.name())))
    };
    for (bi, block) in f.blocks.iter().enumerate() {
        for &iid in &block.insts {
            let Some(inst) = f.insts.get(iid.index()) else { continue };
            let at = || format!("%{} ({}) in bb{bi}", iid.0, inst_name(inst));
            let result = cl.funcs[fi].insts[iid.index()];
            if result.is_mixed() {
                return Err(fail(at(), "holds integer or float bits depending on the path".into()));
            }
            match inst {
                Inst::Bin { op, lhs, rhs, .. } => {
                    read(&at, *lhs, Want::float_if(op.is_float()))?;
                    read(&at, *rhs, Want::float_if(op.is_float()))?;
                }
                Inst::Un { op, arg, .. } => read(&at, *arg, Want::float_if(op.is_float()))?,
                Inst::Cast { kind, arg, .. } => {
                    read(&at, *arg, Want::float_if(*kind == CastKind::FpToSi))?
                }
                Inst::Cmp { ty, lhs, rhs, .. } => {
                    let want = if ty.is_float() { Want::Float } else { Want::Any };
                    read(&at, *lhs, want)?;
                    read(&at, *rhs, want)?;
                }
                Inst::Select { cond, .. } => read(&at, *cond, Want::Int)?,
                Inst::Load { ptr, .. } => read(&at, *ptr, Want::Int)?,
                Inst::Store { ptr, value, .. } => {
                    read(&at, *ptr, Want::Int)?;
                    read(&at, *value, Want::Any)?;
                }
                Inst::PtrAdd { base, offset } => {
                    read(&at, *base, Want::Int)?;
                    read(&at, *offset, Want::Int)?;
                }
                Inst::Alloca { .. } | Inst::Phi { .. } => {}
                Inst::Call { callee: Operand::Func(g), args, .. } => {
                    // A missing, undefined or wrong-arity callee traps
                    // before any argument is read.
                    if let Some(g) = m.funcs.get(g.0 as usize) {
                        if !g.is_declaration() && g.params.len() == args.len() {
                            for (a, &ty) in args.iter().zip(&g.params) {
                                read(&at, *a, Want::of_param(ty))?;
                            }
                        }
                    }
                }
                Inst::Call { callee, args, .. } => {
                    read(&at, *callee, Want::Int)?;
                    for &g in candidates(args.len()) {
                        for (a, &ty) in args.iter().zip(&m.funcs[g].params) {
                            read(&at, *a, Want::of_param(ty))?;
                        }
                    }
                }
                Inst::Atomic { op, ty, ptr, value } => {
                    read(&at, *ptr, Want::Int)?;
                    let want = match op {
                        AtomicOp::Exchange => Want::Any,
                        AtomicOp::Add | AtomicOp::Max | AtomicOp::Min => Want::float_if(ty.is_float()),
                    };
                    read(&at, *value, want)?;
                }
                Inst::Cas { ptr, expected, new, .. } => {
                    read(&at, *ptr, Want::Int)?;
                    read(&at, *expected, Want::Any)?;
                    read(&at, *new, Want::Any)?;
                }
                Inst::Intr { args, .. } => {
                    for a in args {
                        read(&at, *a, Want::Int)?;
                    }
                }
            }
        }
        let at = || format!("terminator of bb{bi}");
        match block.term {
            Term::CondBr { cond, .. } => read(&at, cond, Want::Int)?,
            Term::Ret(Some(v)) => read(&at, v, Want::Any)?,
            Term::Br(_) | Term::Ret(None) | Term::Unreachable => {}
        }
    }
    if cl.funcs[fi].ret.is_mixed() {
        return Err(fail("return value".into(), "holds integer or float bits depending on the path".into()));
    }
    Ok(())
}

fn inst_name(inst: &Inst) -> &'static str {
    match inst {
        Inst::Bin { op, .. } => op.mnemonic(),
        Inst::Un { op, .. } => op.mnemonic(),
        Inst::Cast { kind, .. } => kind.mnemonic(),
        Inst::Cmp { ty, .. } if ty.is_float() => "fcmp",
        Inst::Cmp { .. } => "icmp",
        Inst::Select { .. } => "select",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::PtrAdd { .. } => "ptradd",
        Inst::Alloca { .. } => "alloca",
        Inst::Call { .. } => "call",
        Inst::Atomic { .. } => "atomic",
        Inst::Cas { .. } => "cas",
        Inst::Intr { intr, .. } => intr.mnemonic(),
        Inst::Phi { .. } => "phi",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::BinOp;

    /// A module of one function `@k(params)` whose body `body` builds.
    fn one(params: Vec<Ty>, body: impl FnOnce(&mut FuncBuilder)) -> Module {
        let mut m = Module::new("m");
        let mut b = FuncBuilder::new("k", params, None);
        body(&mut b);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn refused(m: &Module) -> String {
        value_classes(m).unwrap_err().to_string()
    }

    #[test]
    fn integer_and_pointer_bits_are_one_class() {
        let m = one(vec![Ty::Ptr, Ty::I64], |b| {
            // A pointer offset by a pointer, an integer used as a pointer,
            // and a double stored through an `i64` store: bits move as bits.
            let p = b.ptr_add(Operand::Param(0), Operand::Param(0));
            let x = b.load(Ty::F64, Operand::Param(1));
            b.store(Ty::I64, p, x);
            b.atomic(AtomicOp::Exchange, Ty::I64, p, x);
        });
        let cl = classes(&m).unwrap();
        assert_eq!(cl.operand(0, Operand::Param(0)), Class::BITS);
        assert_eq!(cl.operand(0, Operand::f64(1.0)), Class::FLOAT);
    }

    #[test]
    fn an_operand_outside_its_operators_domain_is_named() {
        let m = one(vec![Ty::I64], |b| {
            b.fadd(Operand::Param(0), Operand::f64(1.0));
        });
        assert_eq!(
            refused(&m),
            "verify error in @k: %0 (FAdd) in bb0: reads integer bits where float bits are required"
        );
        let m = one(vec![Ty::Ptr], |b| {
            b.atomic(AtomicOp::Add, Ty::F64, Operand::Param(0), Operand::i64(1));
        });
        assert!(refused(&m).contains("%0 (atomic) in bb0: reads integer bits"));
    }

    #[test]
    fn a_class_that_depends_on_the_path_fails() {
        let m = one(vec![Ty::I64], |b| {
            let (t, f, join) = (b.new_block(), b.new_block(), b.new_block());
            b.cond_br(Operand::Param(0), t, f);
            for bb in [t, f] {
                b.switch_to(bb);
                b.br(join);
            }
            b.switch_to(join);
            b.phi(Ty::F64, vec![(t, Operand::f64(1.0)), (f, Operand::i64(1))]);
        });
        assert!(refused(&m).contains("(phi) in bb3: holds integer or float bits"));
    }

    #[test]
    fn a_value_never_assigned_satisfies_every_reader() {
        let m = one(vec![], |b| {
            let (head, body) = (b.new_block(), b.new_block());
            b.br(head);
            b.switch_to(head);
            let v = b.phi(Ty::F64, vec![]);
            b.phi_add_incoming(v, head, v);
            b.fadd(v, Operand::f64(1.0));
            b.bin(BinOp::Add, Ty::I64, v, Operand::i64(1));
            b.br(body);
            b.switch_to(body);
        });
        let never = Operand::Inst(crate::InstId(0));
        assert_eq!(classes(&m).unwrap().operand(0, never), Class::NONE);
    }

    /// Calls: a result has its callee's return class, a direct call's
    /// arguments are held to its callee's parameters, and an indirect
    /// call's to every defined function of its arity.
    #[test]
    fn calls_carry_classes_across_functions() {
        let mut m = Module::new("m");
        let mut g = FuncBuilder::new("half", vec![Ty::F64], Some(Ty::F64));
        let h = g.fmul(Operand::Param(0), Operand::f64(0.5));
        g.ret(Some(h));
        let half = Operand::Func(m.add_function(g.finish()));
        let mut k = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let r = k.call(half, vec![Operand::f64(3.0)], Some(Ty::F64)).unwrap();
        k.fadd(r, r);
        k.ret(None);
        m.add_function(k.finish());
        assert!(value_classes(&m).is_ok());

        let mut bad = m.clone();
        bad.funcs[1].map_operands(|op| if op == Operand::f64(3.0) { Operand::i64(3) } else { op });
        assert!(refused(&bad).contains("@k: %0 (call) in bb0: reads integer bits"));

        // `@k` itself has arity 1 with a pointer parameter, so an indirect
        // call with a double argument cannot be proved.
        let mut ind = m.clone();
        let mut k2 = FuncBuilder::new("k2", vec![Ty::Ptr], None);
        k2.call(Operand::Param(0), vec![Operand::f64(1.0)], Some(Ty::F64));
        k2.ret(None);
        ind.add_function(k2.finish());
        assert!(refused(&ind).contains("@k2: %0 (call) in bb0: reads float bits"));
    }
}
