//! Local simplification: constant folding (including loads of constant
//! globals — how the §III-F/G configuration flags reach the optimizer),
//! branch folding, phi simplification, unreachable-block removal, block
//! merging, and dead-code elimination.

use nzomp_ir::analysis::cfg;
use nzomp_ir::inst::{BinOp, CastKind, Inst, InstId, Intrinsic, Pred, Term, UnOp};
use nzomp_ir::value::PhiIncoming;
use nzomp_ir::{BlockId, Function, Global, Module, Operand, Ty};

/// Run simplification over every defined function. Returns whether anything
/// changed.
pub fn run(module: &mut Module) -> bool {
    let mut changed = false;
    // Constant globals are read-only inputs to the folder.
    let Module { funcs, globals, .. } = module;
    for f in funcs.iter_mut() {
        if f.is_declaration() {
            continue;
        }
        changed |= simplify_function(f, globals) != Simplified::Unchanged;
    }
    changed
}

/// Rounds one [`simplify_function`] call may spend. A compile-time budget,
/// not a convergence proof: a chain of dependent folds in walk order folds
/// in one round, but a cascade through phis and branches takes a round per
/// level, and how deep that runs is up to the input.
const MAX_ROUNDS: usize = 16;

/// What one [`simplify_function`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simplified {
    /// Already at the fixpoint; the function was not touched.
    Unchanged,
    /// Changed, and a further round found nothing left to do.
    Converged,
    /// Still changing when the round budget ran out. A caller iterating
    /// to a fixpoint (the pass manager's groups) resumes from here.
    OutOfRounds,
}

/// Iterate local simplifications on one function to a fixpoint, or until
/// [`MAX_ROUNDS`] are spent. Every round is linear in the function:
/// one arena walk per step, dense replacement tables, one reachability
/// and one predecessor-count computation.
pub fn simplify_function(f: &mut Function, globals: &[Global]) -> Simplified {
    simplify_with(f, globals, fold_insts)
}

/// The buffers one [`simplify_function`] call hands to every round.
/// Simplification never appends to the arena, so each is sized once.
#[derive(Default)]
struct Scratch {
    /// Replacement table, one slot per arena entry, allocated by the first
    /// step with something to replace and all `None` between steps.
    repl: Vec<Option<Operand>>,
    /// DCE's live set and worklist.
    live: Vec<bool>,
    work: Vec<InstId>,
}

/// The fold step a round starts with: [`fold_insts`], or the reference a
/// test holds it to.
type FoldStep = fn(&mut Function, &[Global], &mut Vec<Option<Operand>>) -> bool;

fn simplify_with(f: &mut Function, globals: &[Global], fold: FoldStep) -> Simplified {
    let mut s = Scratch::default();
    let mut any = false;
    for _ in 0..MAX_ROUNDS {
        let mut changed = fold(f, globals, &mut s.repl);
        changed |= fold_branches(f);
        // Neither of the next two steps changes which blocks are reachable.
        let reach = cfg::reachable(f);
        changed |= remove_unreachable(f, &reach);
        changed |= simplify_phis(f, &mut s.repl);
        changed |= merge_blocks(f, reach);
        changed |= dce(f, &mut s.live, &mut s.work);
        if !changed {
            return if any {
                Simplified::Converged
            } else {
                Simplified::Unchanged
            };
        }
        any = true;
    }
    Simplified::OutOfRounds
}

// ---------------------------------------------------------------------------
// constant folding
// ---------------------------------------------------------------------------

/// Fold every listed instruction in one walk. Each instruction's operands
/// are first resolved through the folds made so far in the walk, so a
/// chain of dependent folds in walk order collapses here rather than one
/// level per round.
fn fold_insts(f: &mut Function, globals: &[Global], repl: &mut Vec<Option<Operand>>) -> bool {
    let mut folded = false;
    for bi in 0..f.blocks.len() {
        for k in 0..f.blocks[bi].insts.len() {
            let iid = f.blocks[bi].insts[k];
            if folded {
                f.insts[iid.index()].map_operands(|op| resolve(repl, op));
            }
            if let Some(rep) = fold_one(f, iid, globals) {
                if repl.is_empty() {
                    repl.resize(f.insts.len(), None);
                }
                repl[iid.index()] = Some(rep);
                folded = true;
            }
        }
    }
    if folded {
        // Uses before their definition in walk order, terminators and dead
        // arena entries.
        apply_replacements(f, repl);
        repl.fill(None);
    }
    folded
}

/// Try to fold instruction `iid` into an operand.
fn fold_one(f: &Function, iid: InstId, globals: &[Global]) -> Option<Operand> {
    let inst = f.inst(iid);
    match inst {
        Inst::Bin { op, ty, lhs, rhs } => fold_bin(*op, *ty, *lhs, *rhs),
        Inst::Un { op, ty, arg } => fold_un(*op, *ty, *arg),
        Inst::Cast { kind, to, arg } => fold_cast(*kind, *to, *arg),
        Inst::Cmp { pred, ty, lhs, rhs } => fold_cmp(*pred, *ty, *lhs, *rhs),
        Inst::Select {
            cond,
            if_true,
            if_false,
            ..
        } => {
            if let Some(c) = cond.as_const_int() {
                return Some(if c != 0 { *if_true } else { *if_false });
            }
            if if_true == if_false {
                return Some(*if_true);
            }
            None
        }
        Inst::PtrAdd { base, offset } => {
            if offset.as_const_int() == Some(0) {
                return Some(*base);
            }
            None
        }
        Inst::Load { ty, ptr } => {
            // Loads of constant globals fold at compile time — the
            // mechanism behind the oversubscription/debug flag globals
            // (§III-F: "emit constant globals that the runtime will 'read'
            // at compile time via constant propagation").
            let (g, off) = match ptr {
                Operand::Global(g) => (*g, 0u64),
                Operand::Inst(pid) => match f.inst(*pid) {
                    Inst::PtrAdd {
                        base: Operand::Global(g),
                        offset,
                    } => (*g, offset.as_const_int()? as u64),
                    _ => return None,
                },
                _ => return None,
            };
            let global = globals.get(g.index()).filter(|g| g.constant)?;
            if off + ty.size() > global.size {
                return None;
            }
            let bits = global.init.read_int(off, ty.size());
            Some(match ty {
                Ty::F64 => Operand::ConstF(f64::from_bits(bits as u64)),
                _ => Operand::ConstI(bits, *ty),
            })
        }
        Inst::Phi { incomings, .. } => {
            // All incomings identical (possibly via self-reference).
            let mut val: Option<Operand> = None;
            for inc in incomings {
                if inc.value == Operand::Inst(iid) {
                    continue;
                }
                match val {
                    None => val = Some(inc.value),
                    Some(v) if v == inc.value => {}
                    _ => return None,
                }
            }
            val
        }
        _ => None,
    }
}

// What an operator computes is `nzomp_ir::ops`, the evaluator the device
// executes through; the four functions below only move constants in and out
// of it. An operation it gives no result for (a zero divisor, an operator in
// the wrong domain) is simply not folded.

fn fold_bin(op: BinOp, ty: Ty, lhs: Operand, rhs: Operand) -> Option<Operand> {
    if op.is_float() {
        // Float identities are unsafe in general (signed zero, NaN); skip.
        let v = op.eval_float(lhs.as_const_f64()?, rhs.as_const_f64()?)?;
        return Some(Operand::ConstF(v));
    }
    let il = lhs.as_const_int();
    let ir = rhs.as_const_int();
    if let (Some(a), Some(b)) = (il, ir) {
        return Some(Operand::ConstI(op.eval_int(a, b)?, ty));
    }
    // Identities (one constant side).
    match (op, il, ir) {
        (BinOp::Add, Some(0), _) => Some(rhs),
        (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => Some(lhs),
        (BinOp::Mul, Some(1), _) => Some(rhs),
        (BinOp::Mul, _, Some(1)) | (BinOp::SDiv, _, Some(1)) => Some(lhs),
        (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => Some(Operand::ConstI(0, ty)),
        (BinOp::And, Some(0), _) | (BinOp::And, _, Some(0)) => Some(Operand::ConstI(0, ty)),
        (BinOp::Or, Some(0), _) | (BinOp::Xor, Some(0), _) => Some(rhs),
        (BinOp::Or, _, Some(0)) | (BinOp::Xor, _, Some(0)) => Some(lhs),
        (BinOp::Shl, _, Some(0)) | (BinOp::LShr, _, Some(0)) | (BinOp::AShr, _, Some(0)) => {
            Some(lhs)
        }
        _ => None,
    }
}

fn fold_un(op: UnOp, ty: Ty, a: Operand) -> Option<Operand> {
    if op.is_float() {
        Some(Operand::ConstF(op.eval_float(a.as_const_f64()?)?))
    } else {
        Some(Operand::ConstI(op.eval_int(a.as_const_int()?)?, ty))
    }
}

fn fold_cast(kind: CastKind, to: Ty, a: Operand) -> Option<Operand> {
    Some(match kind {
        CastKind::IntCast => Operand::ConstI(CastKind::int_cast(to, a.as_const_int()?), to),
        CastKind::ZExtCast => Operand::ConstI(CastKind::zext_cast(to, a.as_const_int()?), to),
        CastKind::SiToFp => Operand::ConstF(CastKind::si_to_fp(a.as_const_int()?)),
        CastKind::FpToSi => Operand::ConstI(CastKind::fp_to_si(a.as_const_f64()?), to),
        CastKind::PtrCast => Operand::ConstI(a.as_const_int()?, to),
    })
}

fn fold_cmp(pred: Pred, ty: Ty, lhs: Operand, rhs: Operand) -> Option<Operand> {
    Some(Operand::bool_(if ty.is_float() {
        pred.eval_float(lhs.as_const_f64()?, rhs.as_const_f64()?)
    } else {
        pred.eval_int(lhs.as_const_int()?, rhs.as_const_int()?)
    }))
}

/// Apply a replacement table — one slot per arena entry, `Some` where the
/// instruction's result is to be replaced — to all uses, resolving chains.
pub fn apply_replacements(f: &mut Function, map: &[Option<Operand>]) {
    f.map_operands(|op| resolve(map, op));
}

/// `op` after the replacements in `map`, following chains.
fn resolve(map: &[Option<Operand>], mut op: Operand) -> Operand {
    let mut hops = 0;
    while let Operand::Inst(i) = op {
        match map.get(i.index()).copied().flatten() {
            Some(next) if next != op => {
                op = next;
                hops += 1;
                if hops > 64 {
                    break;
                }
            }
            _ => break,
        }
    }
    op
}

// ---------------------------------------------------------------------------
// CFG simplification
// ---------------------------------------------------------------------------

fn fold_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let new_term = match &f.blocks[bi].term {
            Term::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                if if_true == if_false {
                    Some(Term::Br(*if_true))
                } else if let Some(c) = cond.as_const_int() {
                    Some(Term::Br(if c != 0 { *if_true } else { *if_false }))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(t) = new_term {
            // Fix phis in the no-longer-successor block.
            let old_succs = f.blocks[bi].term.succs();
            f.blocks[bi].term = t;
            let new_succs = f.blocks[bi].term.succs();
            for s in old_succs {
                if !new_succs.contains(&s) {
                    remove_phi_incomings(f, s, BlockId(bi as u32));
                }
            }
            changed = true;
        }
    }
    changed
}

/// Call `each` on the incoming list of every phi at the head of `block`.
fn for_each_phi(f: &mut Function, block: BlockId, mut each: impl FnMut(&mut Vec<PhiIncoming>)) {
    let Function { blocks, insts, .. } = f;
    for &iid in &blocks[block.index()].insts {
        let Inst::Phi { incomings, .. } = &mut insts[iid.index()] else {
            break;
        };
        each(incomings);
    }
}

fn remove_phi_incomings(f: &mut Function, block: BlockId, pred: BlockId) {
    for_each_phi(f, block, |incomings| incomings.retain(|i| i.pred != pred));
}

/// The edge `from -> block` now leaves `to` instead: re-point the phis.
pub(crate) fn retarget_phi_incomings(f: &mut Function, block: BlockId, from: BlockId, to: BlockId) {
    for_each_phi(f, block, |incomings| {
        for inc in incomings.iter_mut().filter(|i| i.pred == from) {
            inc.pred = to;
        }
    });
}

/// Empty every block outside `reach`, the blocks reachable from the entry.
fn remove_unreachable(f: &mut Function, reach: &[bool]) -> bool {
    let mut changed = false;
    for (bi, r) in reach.iter().enumerate() {
        if *r {
            continue;
        }
        if !f.blocks[bi].insts.is_empty() || f.blocks[bi].term != Term::Unreachable {
            // Remove this block's contribution to reachable phis.
            for (si, sr) in reach.iter().enumerate() {
                if *sr {
                    remove_phi_incomings(f, BlockId(si as u32), BlockId(bi as u32));
                }
            }
            f.blocks[bi].insts.clear();
            f.blocks[bi].term = Term::Unreachable;
            changed = true;
        }
    }
    changed
}

fn simplify_phis(f: &mut Function, map: &mut Vec<Option<Operand>>) -> bool {
    // Align phi incomings with actual predecessors, then fold trivial phis.
    let mut trivial = false;
    let mut changed = false;
    let Function { blocks, insts, .. } = &mut *f;
    let arena = insts.len();
    for (bi, block) in blocks.iter().enumerate() {
        let here = BlockId(bi as u32);
        for &iid in &block.insts {
            let Inst::Phi { incomings, .. } = &mut insts[iid.index()] else {
                break;
            };
            let before = incomings.len();
            // A predecessor is a block whose terminator names this one.
            incomings.retain(|i| {
                blocks
                    .get(i.pred.index())
                    .is_some_and(|p| p.term.succs().contains(&here))
            });
            changed |= incomings.len() != before;
            if let [only] = incomings.as_slice() {
                if map.is_empty() {
                    map.resize(arena, None);
                }
                map[iid.index()] = Some(only.value);
                trivial = true;
            }
        }
    }
    if trivial {
        // Chains among phis resolve transitively in apply_replacements.
        apply_replacements(f, map);
        // Drop the trivial phis from their blocks.
        for block in &mut f.blocks {
            block.insts.retain(|i| map[i.index()].is_none());
        }
        map.fill(None);
        changed = true;
    }
    changed
}

/// Merge every block into its unique predecessor where that predecessor
/// branches nowhere else. Linear: predecessor counts are computed once,
/// and they and `reach` (the blocks reachable from the entry) are kept
/// current across merges. Merging `b` into `a` hands `b`'s out-edges to
/// `a` — every successor of `b` trades the predecessor `b` for `a`, so
/// its count stands — and leaves `b` empty, unreachable and without
/// predecessors. No other block's eligibility moves, so the scan stays on
/// `a` while it keeps absorbing its successor and never needs to look
/// back.
fn merge_blocks(f: &mut Function, mut reach: Vec<bool>) -> bool {
    let mut npreds = cfg::pred_counts(f);
    let mut changed = false;
    for ai in 0..f.blocks.len() {
        if !reach[ai] {
            continue;
        }
        let a = BlockId(ai as u32);
        while let Term::Br(b) = f.blocks[ai].term {
            let bi = b.index();
            if bi == ai || npreds[bi] != 1 {
                break;
            }
            // No phis in the target (trivial ones were folded already).
            if f.blocks[bi].insts.first().is_some_and(|&i| f.inst(i).is_phi()) {
                break;
            }
            // Merge B into A.
            let b_insts = std::mem::take(&mut f.blocks[bi].insts);
            let b_term = std::mem::replace(&mut f.blocks[bi].term, Term::Unreachable);
            // Phis in B's successors must re-point their incoming edge.
            for s in b_term.succs() {
                retarget_phi_incomings(f, s, b, a);
            }
            npreds[bi] = 0;
            reach[bi] = false;
            f.blocks[ai].insts.extend(b_insts);
            f.blocks[ai].term = b_term;
            changed = true;
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// dead code elimination
// ---------------------------------------------------------------------------

/// Remove instructions whose results are unused and which have no side
/// effects. `assume(true)` and `assume(<constant>)` are also dropped.
/// `live` and `work` are the caller's buffers; `work` is left empty.
fn dce(f: &mut Function, live: &mut Vec<bool>, work: &mut Vec<InstId>) -> bool {
    live.clear();
    live.resize(f.insts.len(), false);

    let mark = |op: Operand, live: &mut Vec<bool>, work: &mut Vec<InstId>| {
        if let Operand::Inst(i) = op {
            if !live[i.index()] {
                live[i.index()] = true;
                work.push(i);
            }
        }
    };

    for block in &f.blocks {
        for &iid in &block.insts {
            let inst = f.inst(iid);
            let rooted = match inst {
                Inst::Intr {
                    intr: Intrinsic::Assume(()),
                    args,
                } => {
                    // Constant assumes are informationless.
                    !matches!(args[0], Operand::ConstI(..))
                }
                // An unused load is removable: it observes memory but
                // modifies nothing (dropping it only forgoes a potential
                // trap, which dead code is allowed to do).
                Inst::Load { .. } => false,
                _ => inst.has_side_effects(),
            };
            if rooted && !live[iid.index()] {
                live[iid.index()] = true;
                work.push(iid);
            }
        }
        block.term.for_each_operand(|op| mark(op, live, work));
    }
    while let Some(iid) = work.pop() {
        f.inst(iid).for_each_operand(|op| mark(op, live, work));
    }
    let mut changed = false;
    for block in &mut f.blocks {
        let before = block.insts.len();
        block.insts.retain(|i| live[i.index()]);
        changed |= block.insts.len() != before;
    }
    changed
}

#[cfg(test)]
mod tests {
    //! The linear `merge_blocks`, the dense `apply_replacements` and the
    //! one-walk `fold_insts` against the forms they replaced, kept here as
    //! references: the same function out (`==`; for the fold, the same
    //! listed code), on hand shapes, on seeded generator modules and on
    //! every linked proxy.

    use std::collections::HashMap;

    use nzomp_integration::gen;
    use nzomp_ir::FuncBuilder;

    use super::*;

    /// Reference: recompute predecessors and reachability and restart the
    /// scan from block 0 after every single merge.
    fn merge_blocks_restart(f: &mut Function) -> bool {
        let mut changed = false;
        loop {
            let preds = cfg::predecessors(f);
            let reach = cfg::reachable(f);
            let mut merged = false;
            for ai in 0..f.blocks.len() {
                if !reach[ai] {
                    continue;
                }
                let Term::Br(b) = f.blocks[ai].term else {
                    continue;
                };
                let bi = b.index();
                if bi == ai || preds[bi].len() != 1 {
                    continue;
                }
                let has_phi = f.blocks[bi]
                    .insts
                    .first()
                    .map(|&i| f.inst(i).is_phi())
                    .unwrap_or(false);
                if has_phi {
                    continue;
                }
                let b_insts = std::mem::take(&mut f.blocks[bi].insts);
                let b_term = std::mem::replace(&mut f.blocks[bi].term, Term::Unreachable);
                for s in b_term.succs() {
                    let insts: Vec<InstId> = f.block(s).insts.clone();
                    for iid in insts {
                        if let Inst::Phi { incomings, .. } = f.inst_mut(iid) {
                            for inc in incomings.iter_mut() {
                                if inc.pred == b {
                                    inc.pred = BlockId(ai as u32);
                                }
                            }
                        } else {
                            break;
                        }
                    }
                }
                f.blocks[ai].insts.extend(b_insts);
                f.blocks[ai].term = b_term;
                merged = true;
                changed = true;
                break; // recompute preds
            }
            if !merged {
                break;
            }
        }
        changed
    }

    /// Reference: fold what folds given the operands as they stand, and
    /// apply the table once at the end — one level of a dependent chain
    /// per round.
    fn fold_insts_per_round(
        f: &mut Function,
        globals: &[Global],
        _: &mut Vec<Option<Operand>>,
    ) -> bool {
        let mut map: Vec<Option<Operand>> = Vec::new();
        for block in &f.blocks {
            for &iid in &block.insts {
                if let Some(rep) = fold_one(f, iid, globals) {
                    if map.is_empty() {
                        map.resize(f.insts.len(), None);
                    }
                    map[iid.index()] = Some(rep);
                }
            }
        }
        if map.is_empty() {
            return false;
        }
        apply_replacements(f, &map);
        true
    }

    /// Reference: the replacement table as a hash map probed per operand.
    fn apply_replacements_hashed(f: &mut Function, map: &HashMap<InstId, Operand>) {
        let resolve = |mut op: Operand| -> Operand {
            let mut hops = 0;
            while let Operand::Inst(i) = op {
                match map.get(&i) {
                    Some(&next) if next != op => {
                        op = next;
                        hops += 1;
                        if hops > 64 {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            op
        };
        for inst in &mut f.insts {
            inst.map_operands(resolve);
        }
        for block in &mut f.blocks {
            block.term.map_operands(resolve);
        }
    }

    /// Both merges on copies of `f`: same verdict, same function. Returns
    /// the merged function and the verdict.
    fn merges_agree(f: &Function) -> (Function, bool) {
        let (mut linear, mut restart) = (f.clone(), f.clone());
        let changed = merge_blocks(&mut linear, cfg::reachable(f));
        assert_eq!(changed, merge_blocks_restart(&mut restart), "@{}", f.name);
        assert_eq!(linear, restart, "@{}", f.name);
        (linear, changed)
    }

    /// Both replacement forms on copies of `f`, for the same pairs.
    fn replacements_agree(f: &Function, pairs: &[(InstId, Operand)]) -> Function {
        let (mut dense, mut hashed) = (f.clone(), f.clone());
        let mut table = vec![None; f.insts.len()];
        for &(i, op) in pairs {
            table[i.index()] = Some(op);
        }
        apply_replacements(&mut dense, &table);
        apply_replacements_hashed(&mut hashed, &pairs.iter().copied().collect());
        assert_eq!(dense, hashed, "@{}", f.name);
        dense
    }

    /// `n` blocks, each storing its own index through the pointer
    /// parameter; the caller wires the terminators.
    fn blocks(n: usize, wire: impl FnOnce(&mut FuncBuilder, &[BlockId])) -> Function {
        let mut b = FuncBuilder::new("shape", vec![Ty::Ptr, Ty::I1], None);
        let mut ids = vec![b.current_block()];
        ids.extend((1..n).map(|_| b.new_block()));
        for (i, &id) in ids.iter().enumerate() {
            b.switch_to(id);
            b.store(Ty::I64, b.param(0), Operand::i64(i as i64));
        }
        wire(&mut b, &ids);
        b.finish()
    }

    fn wire(b: &mut FuncBuilder, from: BlockId, term: Term) {
        b.switch_to(from);
        match term {
            Term::Br(t) => b.br(t),
            Term::CondBr {
                cond,
                if_true,
                if_false,
            } => b.cond_br(cond, if_true, if_false),
            Term::Ret(v) => b.ret(v),
            Term::Unreachable => b.unreachable(),
        }
    }

    fn cond(if_true: BlockId, if_false: BlockId) -> Term {
        Term::CondBr {
            cond: Operand::Param(1),
            if_true,
            if_false,
        }
    }

    #[test]
    fn linear_merge_matches_restart_merge_on_hand_shapes() {
        // Chain 0 -> 1 -> 2 -> 3: all four end up in block 0, in order.
        let chain = blocks(4, |b, id| {
            for w in id.windows(2) {
                wire(b, w[0], Term::Br(w[1]));
            }
            wire(b, id[3], Term::Ret(None));
        });
        let (merged, changed) = merges_agree(&chain);
        assert!(changed);
        assert_eq!(merged.blocks[0].insts.len(), 4);
        assert_eq!(merged.blocks[0].term, Term::Ret(None));
        assert!(merged.blocks[1..].iter().all(|b| b.insts.is_empty()));

        // The same chain against the index order: 0 -> 3 -> 2 -> 1.
        let (merged, _) = merges_agree(&blocks(4, |b, id| {
            wire(b, id[0], Term::Br(id[3]));
            wire(b, id[3], Term::Br(id[2]));
            wire(b, id[2], Term::Br(id[1]));
            wire(b, id[1], Term::Ret(None));
        }));
        assert_eq!(merged.blocks[0].insts.len(), 4);

        // Diamond with a tail: only join -> tail merges.
        let (merged, _) = merges_agree(&blocks(5, |b, id| {
            wire(b, id[0], cond(id[1], id[2]));
            wire(b, id[1], Term::Br(id[3]));
            wire(b, id[2], Term::Br(id[3]));
            wire(b, id[3], Term::Br(id[4]));
            wire(b, id[4], Term::Ret(None));
        }));
        assert_eq!(merged.blocks[3].insts.len(), 2);
        assert_eq!(merged.blocks[1].term, Term::Br(BlockId(3)));

        // Self-loops: 1 spins on itself, 3 branches to itself only.
        merges_agree(&blocks(4, |b, id| {
            wire(b, id[0], Term::Br(id[1]));
            wire(b, id[1], cond(id[1], id[2]));
            wire(b, id[2], Term::Br(id[3]));
            wire(b, id[3], Term::Br(id[3]));
        }));

        // A loop whose latch merges back into its header's chain, and a
        // two-block cycle through the entry.
        merges_agree(&blocks(4, |b, id| {
            wire(b, id[0], Term::Br(id[1]));
            wire(b, id[1], Term::Br(id[2]));
            wire(b, id[2], cond(id[1], id[3]));
            wire(b, id[3], Term::Ret(None));
        }));
        merges_agree(&blocks(2, |b, id| {
            wire(b, id[0], Term::Br(id[1]));
            wire(b, id[1], Term::Br(id[0]));
        }));

        // An unreachable, not yet cleared predecessor keeps 1 from merging
        // into 0; the unreachable chain 2 -> 3 is left alone too.
        let (_, changed) = merges_agree(&blocks(4, |b, id| {
            wire(b, id[0], Term::Br(id[1]));
            wire(b, id[1], Term::Ret(None));
            wire(b, id[2], Term::Br(id[3]));
            wire(b, id[3], Term::Br(id[1]));
        }));
        assert!(!changed);

        // A phi in the successor of the merged block follows the edge.
        let (merged, _) = merges_agree(&blocks(5, |b, id| {
            wire(b, id[0], cond(id[1], id[3]));
            wire(b, id[1], Term::Br(id[2]));
            wire(b, id[2], Term::Br(id[4]));
            wire(b, id[3], Term::Br(id[4]));
            b.switch_to(id[4]);
            let v = b.phi(Ty::I64, vec![(id[2], Operand::i64(1)), (id[3], Operand::i64(2))]);
            b.store(Ty::I64, b.param(0), v);
            b.ret(None);
        }));
        let phi_preds: Vec<BlockId> = merged
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Phi { incomings, .. } => Some(incomings.iter().map(|i| i.pred).collect()),
                _ => None,
            })
            .unwrap();
        assert_eq!(phi_preds, [BlockId(1), BlockId(3)]);
    }

    /// One simplify round at a time over `m` (inlined first, which is where
    /// the long branch chains come from), checking the replaced steps
    /// against their references wherever they run. Returns how many merge
    /// steps merged and how many replacements were applied.
    fn steps_agree(m: &mut Module) -> (usize, usize) {
        let (mut merges, mut replaced) = (0, 0);
        crate::inline::run(m);
        let Module { funcs, globals, .. } = m;
        for f in funcs.iter_mut().filter(|f| !f.is_declaration()) {
            for _ in 0..MAX_ROUNDS {
                let folds: Vec<(InstId, Operand)> = f
                    .blocks
                    .iter()
                    .flat_map(|b| &b.insts)
                    .filter_map(|&i| Some((i, fold_one(f, i, globals)?)))
                    .collect();
                replaced += folds.len();
                *f = replacements_agree(f, &folds);
                let mut changed = !folds.is_empty();
                changed |= fold_branches(f);
                changed |= remove_unreachable(f, &cfg::reachable(f));
                changed |= simplify_phis(f, &mut Vec::new());
                let (merged, did) = merges_agree(f);
                *f = merged;
                merges += did as usize;
                changed |= did | dce(f, &mut Vec::new(), &mut Vec::new());
                if !changed {
                    break;
                }
            }
        }
        nzomp_ir::verify_module(m).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        (merges, replaced)
    }

    #[test]
    fn linear_steps_match_references_on_seeded_modules() {
        let (mut merges, mut replaced) = (0, 0);
        for seed in 0..256 {
            let (m, r) = steps_agree(&mut gen::generate(seed).module);
            merges += m;
            replaced += r;
        }
        assert!(merges >= 100 && replaced >= 1000, "{merges} merges, {replaced} folds");
    }

    /// The same over what the pipeline really feeds simplify: every proxy
    /// linked against its runtime, under every configuration.
    #[test]
    fn linear_steps_match_references_on_linked_proxies() {
        use nzomp::pipeline::link_only;
        use nzomp::BuildConfig;
        use nzomp_proxies::{all_proxies, build_for_config};

        for p in all_proxies() {
            for cfg in BuildConfig::ALL {
                let app = build_for_config(p.as_ref(), cfg);
                let mut linked = link_only(app, cfg, &cfg.rt_config()).unwrap();
                let (merges, _) = steps_agree(&mut linked);
                // Inlining the runtime is what leaves chains to merge.
                assert!(merges > 0 || cfg.runtime().is_none(), "{} under {cfg:?}", p.name());
            }
        }
    }

    /// `a` and `b` have the same blocks and, at every id a block lists,
    /// the same instruction — up to the type of an integer constant where
    /// `tags` is false. Entries no block lists may differ: the walk
    /// resolves an instruction's operands before a later fold in the same
    /// round leaves it dead, where the reference had dropped it unresolved.
    fn same_code(a: &Function, b: &Function, tags: bool) -> bool {
        let untagged = |i: &Inst| {
            let mut i = i.clone();
            if !tags {
                i.map_operands(|op| match op {
                    Operand::ConstI(v, _) => Operand::ConstI(v, Ty::I64),
                    op => op,
                });
            }
            i
        };
        a.blocks == b.blocks
            && a.insts.len() == b.insts.len()
            && a.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .all(|&i| untagged(a.inst(i)) == untagged(b.inst(i)))
    }

    /// `simplify_function` with the one-walk fold and with the per-round
    /// reference on copies of every function of `m` (inlined first), called
    /// until it stops running out of rounds: the same verdicts, and the
    /// same code after each call up to constant tags. Returns how many
    /// calls changed something, and whether every tag agreed too.
    fn folds_agree(m: &mut Module) -> (usize, bool) {
        crate::inline::run(m);
        let Module { funcs, globals, .. } = m;
        let (mut changed, mut tags) = (0, true);
        for f in funcs.iter_mut().filter(|f| !f.is_declaration()) {
            let (mut walk, mut per_round) = (f.clone(), f.clone());
            loop {
                let verdict = simplify_with(&mut walk, globals, fold_insts);
                let reference = simplify_with(&mut per_round, globals, fold_insts_per_round);
                assert_eq!(verdict, reference, "@{}", f.name);
                let name = &f.name;
                assert!(same_code(&walk, &per_round, false), "@{name}: {walk:?} vs {per_round:?}");
                tags &= same_code(&walk, &per_round, true);
                changed += (verdict != Simplified::Unchanged) as usize;
                if verdict != Simplified::OutOfRounds {
                    break;
                }
            }
        }
        (changed, tags)
    }

    #[test]
    fn one_walk_fold_matches_per_round_fold_on_seeded_modules() {
        let (mut changed, mut retagged) = (0, Vec::new());
        for seed in 0..256 {
            let (n, tags) = folds_agree(&mut gen::generate(seed).module);
            changed += n;
            if !tags {
                retagged.push(seed);
            }
        }
        assert!(changed >= 256, "{changed} functions simplified");
        // The generator feeds an `i32` value to an `i64 shl` by a constant
        // 0 here. Once both operands are constants the walk evaluates the
        // shift to `i64 8`; the reference meets the identity first, a round
        // before the `i32` operand folds, and forwards it as `i32 8`. The
        // same bits, and a tag only ill-typed input can make differ.
        assert_eq!(retagged, [238]);
    }

    #[test]
    fn one_walk_fold_matches_per_round_fold_on_linked_proxies() {
        use nzomp::pipeline::link_only;
        use nzomp::BuildConfig;
        use nzomp_proxies::{all_proxies, build_for_config};

        for p in all_proxies() {
            for cfg in BuildConfig::ALL {
                let app = build_for_config(p.as_ref(), cfg);
                let mut linked = link_only(app, cfg, &cfg.rt_config()).unwrap();
                let (changed, tags) = folds_agree(&mut linked);
                assert!(tags, "{} under {cfg:?}", p.name());
                assert!(changed > 0 || cfg.runtime().is_none(), "{} under {cfg:?}", p.name());
            }
        }
    }

    /// A chain of 40 dependent `add`s, each on the one before, stored.
    fn add_chain(depth: i64) -> Function {
        let mut b = FuncBuilder::new("chain", vec![Ty::Ptr], None);
        let mut v = Operand::i64(0);
        for i in 0..depth {
            v = b.add(v, Operand::i64(i));
        }
        b.store(Ty::I64, b.param(0), v);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn a_dependent_chain_in_walk_order_folds_in_one_call() {
        let mut walk = add_chain(40);
        let mut per_round = walk.clone();
        assert_eq!(simplify_function(&mut walk, &[]), Simplified::Converged);
        let stored = |f: &Function| {
            let live: Vec<&Inst> =
                f.blocks.iter().flat_map(|b| &b.insts).map(|&i| f.inst(i)).collect();
            match live[..] {
                [Inst::Store { value, .. }] => *value,
                _ => panic!("{live:?}"),
            }
        };
        assert_eq!(stored(&walk), Operand::i64((0..40).sum()));
        // The reference peels one add per round, so one call cannot finish.
        let reference = simplify_with(&mut per_round, &[], fold_insts_per_round);
        assert_eq!(reference, Simplified::OutOfRounds);
    }
}
