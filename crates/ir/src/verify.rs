//! IR verifier. Run after construction and between passes in debug
//! builds; catches malformed CFGs, dangling references, type mismatches
//! and operands outside their reader's value domain early. The vGPU runs
//! it once per loaded image and refuses every launch of a module it
//! rejects.

use std::collections::HashSet;
use std::fmt;

use crate::func::{BlockId, Function};
use crate::inst::{AtomicOp, CastKind, Inst, Term};
use crate::module::Module;
use crate::types::Ty;
use crate::value::Operand;

#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub func: String,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(func: &Function, message: impl Into<String>) -> VerifyError {
    VerifyError {
        func: func.name.clone(),
        message: message.into(),
    }
}

/// A fallible per-operand check as an operand visitor: `ok` keeps the first
/// error and later operands are skipped.
fn first_error<'a>(
    ok: &'a mut Result<(), VerifyError>,
    mut check: impl FnMut(Operand) -> Result<(), VerifyError> + 'a,
) -> impl FnMut(Operand) + 'a {
    move |op| {
        if ok.is_ok() {
            *ok = check(op);
        }
    }
}

fn check_operand(f: &Function, m: Option<&Module>, op: Operand) -> Result<(), VerifyError> {
    match op {
        Operand::Inst(i) => {
            if i.index() >= f.insts.len() {
                return Err(err(f, format!("operand references missing inst %{}", i.0)));
            }
            if f.insts[i.index()].result_ty().is_none() {
                return Err(err(f, format!("operand references void inst %{}", i.0)));
            }
        }
        Operand::Param(p) if p as usize >= f.params.len() => {
            return Err(err(f, format!("operand references missing param {p}")));
        }
        Operand::Global(g) => {
            if let Some(m) = m {
                if g.index() >= m.globals.len() {
                    return Err(err(f, format!("operand references missing global {}", g.0)));
                }
            }
        }
        Operand::Func(fr) => {
            if let Some(m) = m {
                if fr.index() >= m.funcs.len() {
                    return Err(err(f, format!("operand references missing func {}", fr.0)));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Verify one function. With a module, also checks cross-references and
/// direct-call signatures.
pub fn verify_function(f: &Function, m: Option<&Module>) -> Result<(), VerifyError> {
    if f.is_declaration() {
        return Ok(());
    }
    if f.blocks.is_empty() {
        return Err(err(f, "defined function with no blocks"));
    }
    let nblocks = f.blocks.len() as u32;
    // No instruction may be listed in more than one block.
    let mut seen = vec![false; f.insts.len()];
    for (bid, block) in f.iter_blocks() {
        let mut in_phi_prefix = true;
        for &iid in &block.insts {
            if iid.index() >= f.insts.len() {
                return Err(err(f, format!("bb{} lists missing inst %{}", bid.0, iid.0)));
            }
            if seen[iid.index()] {
                return Err(err(f, format!("inst %{} listed twice", iid.0)));
            }
            seen[iid.index()] = true;
            let inst = f.inst(iid);
            if inst.is_phi() {
                // Function entry has no incoming edge to choose a value.
                if bid == BlockId::ENTRY {
                    return Err(err(f, format!("phi %{} at function entry", iid.0)));
                }
                if !in_phi_prefix {
                    return Err(err(f, format!("phi %{} not at start of bb{}", iid.0, bid.0)));
                }
            } else {
                in_phi_prefix = false;
            }
            let mut ok = Ok(());
            inst.for_each_operand(first_error(&mut ok, |op| check_operand(f, m, op)));
            ok?;
            // Phi incomings must name existing blocks.
            if let Inst::Phi { incomings, .. } = inst {
                for inc in incomings {
                    if inc.pred.0 >= nblocks {
                        return Err(err(
                            f,
                            format!("phi %{} has incoming from missing bb{}", iid.0, inc.pred.0),
                        ));
                    }
                }
            }
            // Intrinsics: the operand count is fixed per intrinsic.
            if let Inst::Intr { intr, args } = inst {
                let (want, found) = (intr.arity(), args.len());
                if found != want {
                    let name = intr.mnemonic();
                    let what = format!("%{}: {name} takes {want} operand(s), found {found}", iid.0);
                    return Err(err(f, what));
                }
            }
            // Direct calls: check arity/signature against the module.
            if let (Inst::Call { callee: Operand::Func(fr), args, ret }, Some(m)) = (inst, m) {
                let callee_f = m.func(*fr);
                if callee_f.params.len() != args.len() {
                    return Err(err(
                        f,
                        format!(
                            "call to @{} with {} args, expected {}",
                            callee_f.name,
                            args.len(),
                            callee_f.params.len()
                        ),
                    ));
                }
                if callee_f.ret != *ret {
                    return Err(err(
                        f,
                        format!(
                            "call to @{} returns {:?}, call site expects {:?}",
                            callee_f.name, callee_f.ret, ret
                        ),
                    ));
                }
            }
        }
        for target in block.term.succs() {
            if target.0 >= nblocks {
                return Err(err(f, format!("bb{} branches to missing bb{}", bid.0, target.0)));
            }
        }
        let mut ok = Ok(());
        block.term.for_each_operand(first_error(&mut ok, |op| check_operand(f, m, op)));
        ok?;
        if let Term::Ret(v) = &block.term {
            match (v, f.ret) {
                (Some(_), None) => return Err(err(f, "ret with value in void function")),
                (None, Some(_)) => return Err(err(f, "ret void in non-void function")),
                _ => {}
            }
        }
    }
    verify_ssa_dominance(f)?;

    // Phi incoming edges must match actual predecessors.
    let preds = crate::analysis::cfg::predecessors(f);
    for (bid, block) in f.iter_blocks() {
        for &iid in &block.insts {
            if let Inst::Phi { incomings, .. } = f.inst(iid) {
                let bp = &preds[bid.index()];
                for inc in incomings {
                    if !bp.contains(&inc.pred) {
                        return Err(err(
                            f,
                            format!(
                                "phi %{} in bb{} has incoming from non-predecessor bb{}",
                                iid.0, bid.0, inc.pred.0
                            ),
                        ));
                    }
                }
                for p in bp {
                    if !incomings.iter().any(|i| i.pred == *p) {
                        return Err(err(
                            f,
                            format!(
                                "phi %{} in bb{} missing incoming for predecessor bb{}",
                                iid.0, bid.0, p.0
                            ),
                        ));
                    }
                }
                // A predecessor may appear at most once; duplicates make
                // the materialized value depend on list order.
                for (i, inc) in incomings.iter().enumerate() {
                    if incomings[..i].iter().any(|e| e.pred == inc.pred) {
                        return Err(err(
                            f,
                            format!(
                                "phi %{} in bb{} has duplicate incoming for bb{}",
                                iid.0, bid.0, inc.pred.0
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// SSA dominance: every use must be dominated by its definition. Catches
/// the easy-to-make builder mistake of referencing a value computed later
/// in a loop header from a phi's initial incoming.
fn verify_ssa_dominance(f: &Function) -> Result<(), VerifyError> {
    use crate::analysis::{cfg, dom::DomTree};
    let dt = DomTree::compute(f);
    let reach = cfg::reachable(f);
    // def location per inst: (block, position). Phis count as position 0.
    let mut def_at: Vec<Option<(BlockId, usize)>> = vec![None; f.insts.len()];
    for (bid, block) in f.iter_blocks() {
        for (pos, &iid) in block.insts.iter().enumerate() {
            def_at[iid.index()] = Some((bid, pos));
        }
    }
    let check_use = |op: Operand, bid: BlockId, pos: usize| -> Result<(), VerifyError> {
        let Operand::Inst(v) = op else { return Ok(()) };
        let Some((db, dp)) = def_at[v.index()] else {
            return Err(err(f, format!("use of %{} which is in no block", v.0)));
        };
        let ok = if db == bid { dp < pos } else { dt.dominates(db, bid) };
        if !ok {
            return Err(err(
                f,
                format!("use of %{} in bb{} not dominated by its definition in bb{}", v.0, bid.0, db.0),
            ));
        }
        Ok(())
    };
    for (bid, block) in f.iter_blocks() {
        if !reach[bid.index()] {
            continue;
        }
        for (pos, &iid) in block.insts.iter().enumerate() {
            match f.inst(iid) {
                Inst::Phi { incomings, .. } => {
                    // Incomings must be available at the end of their pred.
                    for inc in incomings {
                        if !reach[inc.pred.index()] {
                            continue;
                        }
                        if let Operand::Inst(v) = inc.value {
                            let Some((db, _)) = def_at[v.index()] else {
                                return Err(err(
                                    f,
                                    format!("phi %{} uses %{} which is in no block", iid.0, v.0),
                                ));
                            };
                            if !dt.dominates(db, inc.pred) {
                                return Err(err(
                                    f,
                                    format!(
                                        "phi %{} incoming %{} from bb{} not dominated by its definition in bb{}",
                                        iid.0, v.0, inc.pred.0, db.0
                                    ),
                                ));
                            }
                        }
                    }
                }
                inst => {
                    let mut ok = Ok(());
                    inst.for_each_operand(first_error(&mut ok, |op| check_use(op, bid, pos)));
                    ok?;
                }
            }
        }
        let end = block.insts.len();
        let mut ok = Ok(());
        block.term.for_each_operand(first_error(&mut ok, |op| check_use(op, bid, end)));
        ok?;
    }
    Ok(())
}

/// Is `s` a symbol name the text format can carry (`docs/ir-format.md`):
/// non-empty, from `[A-Za-z0-9_.$-]`? Anything else could not be told apart
/// from the punctuation around it once printed.
pub fn is_symbol_name(s: &str) -> bool {
    let ok = |c: u8| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'$' | b'-');
    !s.is_empty() && s.bytes().all(ok)
}

/// Is `s` a module name the text format can carry: one non-empty line with
/// no surrounding whitespace (the parser trims it)?
pub fn is_module_name(s: &str) -> bool {
    !s.is_empty() && s.trim() == s && !s.contains(['\n', '\r'])
}

/// Every name must survive printing: `print_module` writes names verbatim
/// and refers to globals and functions by name alone, so a name holding a
/// line break or punctuation, or one name on two symbols, would print as a
/// different module — its text would no longer identify it.
pub fn verify_names(m: &Module) -> Result<(), VerifyError> {
    let bad = |message: String| VerifyError {
        func: "<module>".into(),
        message,
    };
    if !is_module_name(&m.name) {
        return Err(bad(format!("module name {:?} cannot be printed", m.name)));
    }
    let globals = m.globals.iter().map(|g| g.name.as_str());
    let mut seen = HashSet::with_capacity(m.globals.len() + m.funcs.len());
    for name in globals.chain(m.funcs.iter().map(|f| f.name.as_str())) {
        if !is_symbol_name(name) {
            return Err(bad(format!("symbol name {name:?} cannot be printed")));
        }
        if !seen.insert(name) {
            return Err(bad(format!("symbol @{name} is defined twice")));
        }
    }
    Ok(())
}

/// The bits a value holds at run time: float bits for `f64`, integer bits
/// for every other type (pointers included).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Domain {
    Int,
    Float,
}

impl Domain {
    fn float_if(float: bool) -> Domain {
        if float {
            Domain::Float
        } else {
            Domain::Int
        }
    }

    fn of(ty: Ty) -> Domain {
        Domain::float_if(ty.is_float())
    }

    fn name(self) -> &'static str {
        match self {
            Domain::Int => "integer",
            Domain::Float => "float",
        }
    }

    /// The domains a cast of `kind` reads and produces.
    fn of_cast(kind: CastKind) -> (Domain, Domain) {
        match kind {
            CastKind::SiToFp => (Domain::Int, Domain::Float),
            CastKind::FpToSi => (Domain::Float, Domain::Int),
            CastKind::IntCast | CastKind::ZExtCast | CastKind::PtrCast => (Domain::Int, Domain::Int),
        }
    }

    /// The domain of `op` as read in `f`; `None` for a reference to a
    /// missing parameter or instruction, or to one that produces nothing
    /// (only malformed IR has those, and they read the same in both).
    fn held(f: &Function, op: Operand) -> Option<Domain> {
        match op {
            Operand::Inst(i) => match f.insts.get(i.index())? {
                Inst::Bin { op, .. } => Some(Domain::float_if(op.is_float())),
                Inst::Un { op, .. } => Some(Domain::float_if(op.is_float())),
                Inst::Cast { kind, .. } => Some(Domain::of_cast(*kind).1),
                inst => inst.result_ty().map(Domain::of),
            },
            Operand::Param(p) => f.params.get(p as usize).copied().map(Domain::of),
            Operand::ConstF(_) => Some(Domain::Float),
            Operand::ConstI(..) | Operand::Global(_) | Operand::Func(_) => Some(Domain::Int),
        }
    }
}

/// `Err` naming `at()` when it reads bits of `held` where `want` bits are
/// required.
fn expect(
    f: &Function,
    at: impl FnOnce() -> String,
    held: Option<Domain>,
    want: Domain,
) -> Result<(), VerifyError> {
    match held {
        Some(held) if held != want => {
            let (held, want) = (held.name(), want.name());
            Err(err(f, format!("{}: reads {held} bits where {want} bits are required", at())))
        }
        _ => Ok(()),
    }
}

/// The functions a call of `callee` with `n` arguments may run and read
/// arguments for: the direct callee if it is defined with arity `n`, or,
/// for an indirect call, every defined function of arity `n`.
fn callees(m: &Module, callee: Operand, n: usize) -> impl Iterator<Item = &Function> {
    let (direct, any) = match callee {
        Operand::Func(g) => (m.funcs.get(g.index()), &[][..]),
        _ => (None, &m.funcs[..]),
    };
    direct.into_iter().chain(any).filter(move |g| !g.is_declaration() && g.params.len() == n)
}

/// The value-domain rule: every operand the listed code of `m` reads holds
/// the bits its reader computes in, so an executor that keeps only the
/// bits and one that tags them and converts at a mismatched use cannot
/// disagree (docs/ir-format.md, "Value domains"). Operators fix the
/// domain of what they produce and read; phis, selects, calls and `ret`
/// hold their declared type's, and so must what flows into them.
/// One pass, no allocation unless it fails, and no panic on malformed IR.
pub fn verify_domains(m: &Module) -> Result<(), VerifyError> {
    use Domain::{Float, Int};
    for f in &m.funcs {
        for (bi, block) in f.blocks.iter().enumerate() {
            for &iid in &block.insts {
                let Some(inst) = f.insts.get(iid.index()) else { continue };
                let at = || format!("%{} ({}) in bb{bi}", iid.0, inst_name(inst));
                let read = |op, want| expect(f, at, Domain::held(f, op), want);
                // What no arm reads — integer compare operands, stored
                // values, compare-and-swap operands, exchanged values —
                // moves bits of either domain.
                match inst {
                    Inst::Bin { op, lhs, rhs, .. } => {
                        read(*lhs, Domain::float_if(op.is_float()))?;
                        read(*rhs, Domain::float_if(op.is_float()))?;
                    }
                    Inst::Un { op, arg, .. } => read(*arg, Domain::float_if(op.is_float()))?,
                    Inst::Cast { kind, arg, .. } => read(*arg, Domain::of_cast(*kind).0)?,
                    Inst::Cmp { ty, lhs, rhs, .. } if ty.is_float() => {
                        read(*lhs, Float)?;
                        read(*rhs, Float)?;
                    }
                    Inst::Select { ty, cond, if_true, if_false } => {
                        read(*cond, Int)?;
                        read(*if_true, Domain::of(*ty))?;
                        read(*if_false, Domain::of(*ty))?;
                    }
                    Inst::Phi { ty, incomings } => {
                        for inc in incomings {
                            read(inc.value, Domain::of(*ty))?;
                        }
                    }
                    Inst::Load { ptr, .. } | Inst::Store { ptr, .. } | Inst::Cas { ptr, .. } => {
                        read(*ptr, Int)?
                    }
                    Inst::PtrAdd { base, offset } => {
                        read(*base, Int)?;
                        read(*offset, Int)?;
                    }
                    Inst::Atomic { op, ty, ptr, value } => {
                        read(*ptr, Int)?;
                        if *op != AtomicOp::Exchange {
                            read(*value, Domain::of(*ty))?;
                        }
                    }
                    Inst::Intr { args, .. } => {
                        for &a in args {
                            read(a, Int)?;
                        }
                    }
                    Inst::Call { callee, args, ret } => {
                        if !matches!(callee, Operand::Func(_)) {
                            read(*callee, Int)?;
                        }
                        for g in callees(m, *callee, args.len()) {
                            for (&a, &ty) in args.iter().zip(&g.params) {
                                read(a, Domain::of(ty))?;
                            }
                            // A callee returning nothing leaves the result
                            // as it was in both tiers.
                            if let Some(want) = ret {
                                expect(f, at, g.ret.map(Domain::of), Domain::of(*want))?;
                            }
                        }
                    }
                    Inst::Cmp { .. } | Inst::Alloca { .. } => {}
                }
            }
            let at = || format!("terminator of bb{bi}");
            match (&block.term, f.ret) {
                (Term::CondBr { cond, .. }, _) => expect(f, at, Domain::held(f, *cond), Int)?,
                (Term::Ret(Some(v)), Some(ty)) => {
                    expect(f, at, Domain::held(f, *v), Domain::of(ty))?
                }
                (Term::Ret(Some(_)), None) => return Err(err(f, "ret with value in void function")),
                (Term::Br(_) | Term::Ret(None) | Term::Unreachable, _) => {}
            }
        }
    }
    Ok(())
}

/// The name an error gives `inst`'s operator.
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

/// Verify all functions of a module plus kernel metadata, then the value
/// domains of what they read ([`verify_domains`]).
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    verify_names(m)?;
    for f in &m.funcs {
        verify_function(f, Some(m))?;
    }
    for k in &m.kernels {
        if k.func.index() >= m.funcs.len() {
            return Err(VerifyError {
                func: "<module>".into(),
                message: format!("kernel references missing func {}", k.func.0),
            });
        }
        if m.func(k.func).is_declaration() {
            return Err(VerifyError {
                func: m.func(k.func).name.clone(),
                message: "kernel entry is a declaration".into(),
            });
        }
    }
    verify_domains(m)
}
