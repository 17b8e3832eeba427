//! IR → bytecode lowering.
//!
//! Lowering translates verified modules only: `Image` lowers a module once
//! `verify_module` has accepted it, so every instruction a block lists,
//! every operand, direct-call arity, intrinsic operand, branch target and
//! phi incoming it reads is there, every phi leads its block and none sits
//! at function entry, and every operand holds the bits its reader computes
//! in (the value-domain rule, which the untagged register file needs).
//! What verified IR can still reach stays a trap op: a direct call of a
//! declaration, `assert.fail`, `unreachable`, and the body of a
//! declaration launched as a kernel. The validation gate ([`validated`])
//! holds every index the dispatch loop reads unchecked, whatever the
//! lowerer produced.

use std::collections::HashMap;

use nzomp_ir::inst::{BinOp, Inst, InstId, Intrinsic, Pred, Term};
use nzomp_ir::{BlockId, Function, Module, Operand};

use crate::error::TrapKind;
use crate::exec::{is_runtime_fn, malformed, GlobalLayout};
use crate::memory::DevPtr;

use super::{BcFunc, BcModule, Edge, Op, Src};

/// Lower every function of `module`, which `verify_module` accepted.
/// `layout` resolves global operands to their device addresses (fixed at
/// device load, like the layout itself); `live` is the image's live-result
/// table (`Image::live_results`), which each atomic op carries its entry
/// of. `Err` when a lowered function fails the validation gate: a bug in
/// lowering, which every launch of the image refuses with, on either tier.
pub(crate) fn lower_module(module: &Module, layout: &GlobalLayout, live: &[Box<[bool]>]) -> Result<BcModule, TrapKind> {
    let funcs = module
        .funcs
        .iter()
        .zip(live)
        .map(|(f, live)| {
            let gate = || malformed(format!("internal error: the bytecode of @{} fails its validation gate", f.name));
            validated(lower_func(module, layout, f, live), f.params.len() as u32)
                .filter(|bc| calls_fit(module, bc))
                .ok_or_else(gate)
        })
        .collect::<Result<_, _>>()?;
    Ok(BcModule { funcs })
}

struct FnLowerer<'m> {
    module: &'m Module,
    layout: &'m GlobalLayout,
    func: &'m Function,
    /// Value slot per arena instruction (0 = dead-result scratch; listed
    /// results follow the parameter slots `1..=params`).
    slot_of: Vec<u32>,
    /// The function's entry of the live-result table.
    live: &'m [bool],
    ops: Vec<Op>,
    locs: Vec<(u32, u32)>,
    traps: Vec<TrapKind>,
    /// `(from block, target block)` per edge index, resolved once every
    /// block's op offset is known.
    pending: Vec<(BlockId, BlockId)>,
    /// First post-phi op offset per block.
    block_start: Vec<u32>,
    /// The frame template under construction, one entry per value slot:
    /// the scratch slot, the parameters and the instruction results first
    /// (zero), then the interned immediate operands, each already in the
    /// dedicated slot `cnum` appended for it, so every operand is a plain
    /// slot read. `const_of` dedups by bits.
    regs0: Vec<u64>,
    const_of: HashMap<u64, u32>,
}

/// A function of `params` parameters whose every execution traps with
/// `t` on its first step. Its template still reserves the parameter
/// slots, which a launch writes before that step.
fn trap_only(t: TrapKind, params: usize) -> BcFunc {
    BcFunc {
        ops: vec![Op::TrapBare { t: 0 }],
        locs: vec![(0, 0)],
        edges: Vec::new(),
        traps: vec![t],
        regs0: vec![0; 1 + params],
    }
}

fn lower_func<'m>(
    module: &'m Module,
    layout: &'m GlobalLayout,
    func: &'m Function,
    live: &'m [bool],
) -> BcFunc {
    if func.blocks.is_empty() {
        // Declaration (or stripped body): executing it meets the
        // interpreter's missing-entry-block trap on the first step.
        let t = malformed(format!("frame in @{} references missing bb0", func.name));
        return trap_only(t, func.params.len());
    }

    let mut slot_of = vec![0u32; func.insts.len()];
    // Slot 0: shared dead-result scratch; slots 1..=params: the parameters.
    let mut n_slots = 1 + func.params.len() as u32;
    for (i, u) in listed_uses(func).into_iter().enumerate() {
        if u {
            slot_of[i] = n_slots;
            n_slots += 1;
        }
    }
    let mut lw = FnLowerer {
        module,
        layout,
        func,
        slot_of,
        live,
        ops: Vec::new(),
        locs: Vec::new(),
        traps: Vec::new(),
        pending: Vec::new(),
        block_start: Vec::new(),
        regs0: vec![0; n_slots as usize],
        const_of: HashMap::new(),
    };

    for (bi, block) in func.blocks.iter().enumerate() {
        let b = bi as u32;
        // Leading phis lower to no op (each edge into the block moves
        // them), so the block starts at its first other instruction.
        lw.block_start.push(lw.ops.len() as u32);
        for &iid in &block.insts {
            lw.lower_inst(b, iid, &func.insts[iid.index()]);
        }
        lw.lower_term(b, &block.term);
    }

    // Resolve branch targets and phi moves now that every block's op
    // offset is known.
    let pending = std::mem::take(&mut lw.pending);
    let edges = pending.into_iter().map(|(from, target)| lw.resolve_edge(from, target)).collect();
    BcFunc {
        ops: lw.ops,
        locs: lw.locs,
        edges,
        traps: lw.traps,
        regs0: lw.regs0,
    }
}

/// Which instruction results code that can run references: operands of
/// the instructions some block lists (phi incomings included) and of the
/// terminators. Only these get a value slot, so a frame's register file
/// is sized by the code that runs, not by the arena, whose dead entries
/// no block lists. A referenced result whose instruction is itself
/// unlisted keeps a slot that stays zero, as the interpreter's does.
fn listed_uses(func: &Function) -> Vec<bool> {
    let mut used = vec![false; func.insts.len()];
    let mut mark = |op: Operand| {
        if let Operand::Inst(i) = op {
            if let Some(u) = used.get_mut(i.index()) {
                *u = true;
            }
        }
    };
    for block in &func.blocks {
        for &iid in &block.insts {
            func.insts[iid.index()].for_each_operand(&mut mark);
        }
        block.term.for_each_operand(&mut mark);
    }
    used
}

/// Validation gate for the dispatch loop's unchecked accesses: every
/// operand and destination slot a function can name must be in range of
/// its frame template `regs0`, which every frame copies, and the template
/// must hold a slot for each of its `params` parameters (slots
/// `1..=params`), which every call and launch writes. `getv` / `setv`
/// rely on this to skip per-access bounds checks — verify once at
/// lowering, dispatch unchecked. The lowerer above never produces an
/// out-of-range index; the gate makes the dispatch loop's soundness
/// independent of that claim. A function that fails refuses every launch
/// of its image.
fn validated(f: BcFunc, params: u32) -> Option<BcFunc> {
    let n_slots = f.regs0.len() as u32;
    let src_ok = |s: &Src| s.0 < n_slots;
    let dst_ok = |d: u32| d < n_slots;
    let op_ok = |op: &Op| match op {
        Op::Add { a, b, dst }
        | Op::Sub { a, b, dst }
        | Op::Mul { a, b, dst }
        | Op::SDiv { a, b, dst }
        | Op::SRem { a, b, dst }
        | Op::UDiv { a, b, dst }
        | Op::URem { a, b, dst }
        | Op::And { a, b, dst }
        | Op::Or { a, b, dst }
        | Op::Xor { a, b, dst }
        | Op::Shl { a, b, dst }
        | Op::LShr { a, b, dst }
        | Op::AShr { a, b, dst }
        | Op::SMin { a, b, dst }
        | Op::SMax { a, b, dst }
        | Op::FAdd { a, b, dst }
        | Op::FSub { a, b, dst }
        | Op::FMul { a, b, dst }
        | Op::FDiv { a, b, dst }
        | Op::FMin { a, b, dst }
        | Op::FMax { a, b, dst }
        | Op::ICmpEq { a, b, dst }
        | Op::ICmpNe { a, b, dst }
        | Op::ICmpSlt { a, b, dst }
        | Op::ICmpSle { a, b, dst }
        | Op::ICmpSgt { a, b, dst }
        | Op::ICmpSge { a, b, dst }
        | Op::ICmpUlt { a, b, dst }
        | Op::ICmpUle { a, b, dst }
        | Op::ICmpUgt { a, b, dst }
        | Op::ICmpUge { a, b, dst }
        | Op::FCmp { a, b, dst, .. }
        | Op::PtrAdd { a, b, dst } => src_ok(a) && src_ok(b) && dst_ok(*dst),
        Op::Un { a, dst, .. } | Op::Cast { a, dst, .. } | Op::Load { p: a, dst, .. } => {
            src_ok(a) && dst_ok(*dst)
        }
        Op::Select { c, t, f, dst } => src_ok(c) && src_ok(t) && src_ok(f) && dst_ok(*dst),
        Op::Store { p, v, .. } => src_ok(p) && src_ok(v),
        Op::Alloca { dst, .. } => dst_ok(*dst),
        Op::Call { args, ret_dst, .. } => {
            args.iter().all(src_ok) && ret_dst.is_none_or(dst_ok)
        }
        Op::CallInd {
            callee,
            args,
            ret_dst,
        } => src_ok(callee) && args.iter().all(src_ok) && ret_dst.is_none_or(dst_ok),
        Op::Atomic { p, v, dst, .. } => src_ok(p) && src_ok(v) && dst_ok(*dst),
        Op::Cas { p, e, n, dst, .. } => {
            src_ok(p) && src_ok(e) && src_ok(n) && dst_ok(*dst)
        }
        Op::ThreadId { dst } | Op::TeamId { dst } | Op::BlockDim { dst } | Op::GridDim { dst } => {
            dst_ok(*dst)
        }
        Op::Malloc { size, dst } => src_ok(size) && dst_ok(*dst),
        Op::Free { p } | Op::Assume { c: p } | Op::CondBr { c: p, .. } => src_ok(p),
        Op::Ret { v } => v.as_ref().is_none_or(src_ok),
        Op::Barrier { .. } | Op::Br { .. } | Op::TrapBare { .. } | Op::TrapInst { .. } => true,
    };
    let n_ops = f.ops.len() as u32;
    let n_edges = f.edges.len() as u32;
    let edges_ok = f
        .edges
        .iter()
        .all(|e| e.pc < n_ops && e.moves.iter().all(|(d, s)| dst_ok(*d) && src_ok(s)));
    // The op fetch is unchecked too, so `pc` must never be able to reach
    // `ops.len()`: the entry (op 0) and every branch target are in range,
    // every edge index resolves, and the final op never falls through
    // (each block ends with a terminator, so sequential execution always
    // meets a jump, return or trap before running off the end).
    let eix_ok = |e: u32| e < n_edges;
    let flow_ok = |op: &Op| match op {
        Op::Br { edge } => eix_ok(*edge),
        Op::CondBr { t, f, .. } => eix_ok(*t) && eix_ok(*f),
        _ => true,
    };
    let end_ok = matches!(
        f.ops.last(),
        Some(Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. })
            | Some(Op::TrapBare { .. } | Op::TrapInst { .. })
    );
    (n_slots > params && end_ok && edges_ok && f.ops.iter().all(|o| op_ok(o) && flow_ok(o))).then_some(f)
}

/// The gate's cross-function half: every direct call of `f` names a
/// function of the module and passes exactly its parameter count, the
/// slots [`validated`] held the callee's template to, so the dispatch
/// loop indexes the target and writes the arguments unchecked.
fn calls_fit(module: &Module, f: &BcFunc) -> bool {
    f.ops.iter().all(|op| match op {
        Op::Call { target, args, .. } => {
            module.funcs.get(*target as usize).is_some_and(|g| g.params.len() == args.len())
        }
        _ => true,
    })
}

/// The op of binary operator `op`: the one map from [`BinOp`] onto the
/// dispatch loop's per-operator ops.
fn binary(op: BinOp, a: Src, b: Src, dst: u32) -> Op {
    match op {
        BinOp::Add => Op::Add { a, b, dst },
        BinOp::Sub => Op::Sub { a, b, dst },
        BinOp::Mul => Op::Mul { a, b, dst },
        BinOp::SDiv => Op::SDiv { a, b, dst },
        BinOp::SRem => Op::SRem { a, b, dst },
        BinOp::UDiv => Op::UDiv { a, b, dst },
        BinOp::URem => Op::URem { a, b, dst },
        BinOp::And => Op::And { a, b, dst },
        BinOp::Or => Op::Or { a, b, dst },
        BinOp::Xor => Op::Xor { a, b, dst },
        BinOp::Shl => Op::Shl { a, b, dst },
        BinOp::LShr => Op::LShr { a, b, dst },
        BinOp::AShr => Op::AShr { a, b, dst },
        BinOp::SMin => Op::SMin { a, b, dst },
        BinOp::SMax => Op::SMax { a, b, dst },
        BinOp::FAdd => Op::FAdd { a, b, dst },
        BinOp::FSub => Op::FSub { a, b, dst },
        BinOp::FMul => Op::FMul { a, b, dst },
        BinOp::FDiv => Op::FDiv { a, b, dst },
        BinOp::FMin => Op::FMin { a, b, dst },
        BinOp::FMax => Op::FMax { a, b, dst },
    }
}

/// The op of a compare by `pred`, in IEEE semantics when `float`: the one
/// map from [`Pred`] onto the per-predicate integer ops, and the one
/// float compare.
fn compare(pred: Pred, float: bool, a: Src, b: Src, dst: u32) -> Op {
    if float {
        return Op::FCmp { pred, a, b, dst };
    }
    match pred {
        Pred::Eq => Op::ICmpEq { a, b, dst },
        Pred::Ne => Op::ICmpNe { a, b, dst },
        Pred::Slt => Op::ICmpSlt { a, b, dst },
        Pred::Sle => Op::ICmpSle { a, b, dst },
        Pred::Sgt => Op::ICmpSgt { a, b, dst },
        Pred::Sge => Op::ICmpSge { a, b, dst },
        Pred::Ult => Op::ICmpUlt { a, b, dst },
        Pred::Ule => Op::ICmpUle { a, b, dst },
        Pred::Ugt => Op::ICmpUgt { a, b, dst },
        Pred::Uge => Op::ICmpUge { a, b, dst },
    }
}

impl<'m> FnLowerer<'m> {
    fn emit(&mut self, op: Op, loc: (u32, u32)) {
        self.ops.push(op);
        self.locs.push(loc);
    }

    fn add_trap(&mut self, k: TrapKind) -> u32 {
        self.traps.push(k);
        (self.traps.len() - 1) as u32
    }

    /// Allocate an edge index for `from → target`, resolved after layout.
    fn new_edge(&mut self, from: BlockId, target: BlockId) -> u32 {
        self.pending.push((from, target));
        (self.pending.len() - 1) as u32
    }

    /// Intern an immediate into a dedicated value slot (dedup by bits) of
    /// the frame template, so the operand is a plain slot read.
    fn cnum(&mut self, bits: u64) -> Src {
        let next = self.regs0.len() as u32;
        let slot = *self.const_of.entry(bits).or_insert(next);
        if slot == next {
            self.regs0.push(bits);
        }
        Src(slot)
    }

    /// Pre-translate one operand (the interpreter's `eval`, done once).
    fn src(&mut self, op: Operand) -> Src {
        match op {
            Operand::Inst(i) => Src(self.slot_of[i.index()]),
            Operand::Param(p) => Src(1 + p),
            Operand::ConstI(v, _) => self.cnum(v as u64),
            Operand::ConstF(v) => self.cnum(v.to_bits()),
            Operand::Global(g) => self.cnum(self.layout.addr_of[g.index()].0),
            Operand::Func(f) => self.cnum(DevPtr::func(f.0).0),
        }
    }

    fn srcs(&mut self, args: &[Operand]) -> Box<[Src]> {
        args.iter().map(|a| self.src(*a)).collect()
    }

    fn lower_inst(&mut self, b: u32, iid: InstId, inst: &Inst) {
        let loc = (b, iid.0);
        let dst = self.slot_of[iid.index()];
        match inst {
            Inst::Bin { op, lhs, rhs, .. } => {
                let a = self.src(*lhs);
                let bb = self.src(*rhs);
                self.emit(binary(*op, a, bb, dst), loc);
            }
            Inst::Un { op, arg, .. } => {
                let a = self.src(*arg);
                self.emit(Op::Un { op: *op, a, dst }, loc);
            }
            Inst::Cast { kind, to, arg } => {
                let a = self.src(*arg);
                self.emit(
                    Op::Cast {
                        kind: *kind,
                        to: *to,
                        a,
                        dst,
                    },
                    loc,
                );
            }
            Inst::Cmp { pred, ty, lhs, rhs } => {
                let a = self.src(*lhs);
                let bb = self.src(*rhs);
                self.emit(compare(*pred, ty.is_float(), a, bb, dst), loc);
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                let c = self.src(*cond);
                let t = self.src(*if_true);
                let f = self.src(*if_false);
                self.emit(Op::Select { c, t, f, dst }, loc);
            }
            Inst::Load { ty, ptr } => {
                let p = self.src(*ptr);
                self.emit(Op::Load { ty: *ty, p, dst }, loc);
            }
            Inst::Store { ty, ptr, value } => {
                let p = self.src(*ptr);
                let v = self.src(*value);
                self.emit(Op::Store { ty: *ty, p, v }, loc);
            }
            Inst::PtrAdd { base, offset } => {
                let a = self.src(*base);
                let bb = self.src(*offset);
                self.emit(Op::PtrAdd { a, b: bb, dst }, loc);
            }
            Inst::Alloca { size } => self.emit(Op::Alloca { size: *size, dst }, loc),
            Inst::Call { callee, args, ret } => {
                let ret_dst = ret.is_some().then_some(dst);
                match callee {
                    Operand::Func(f) => {
                        // A declaration traps before charging call cost or
                        // evaluating args, as in the interpreter, so an
                        // eager trap op is observationally identical.
                        let g = self.module.func(*f);
                        if g.is_declaration() {
                            let t = self.add_trap(TrapKind::UnresolvedCall(g.name.clone()));
                            self.emit(Op::TrapInst { t }, loc);
                            return;
                        }
                        let runtime = is_runtime_fn(&g.name);
                        let args = self.srcs(args);
                        self.emit(
                            Op::Call {
                                target: f.0,
                                args,
                                ret_dst,
                                runtime,
                            },
                            loc,
                        );
                    }
                    other => {
                        let callee = self.src(*other);
                        let args = self.srcs(args);
                        self.emit(
                            Op::CallInd {
                                callee,
                                args,
                                ret_dst,
                            },
                            loc,
                        );
                    }
                }
            }
            Inst::Atomic { op, ty, ptr, value } => {
                let p = self.src(*ptr);
                let v = self.src(*value);
                let used = self.live[iid.index()];
                self.emit(
                    Op::Atomic {
                        op: *op,
                        ty: *ty,
                        p,
                        v,
                        dst,
                        used,
                    },
                    loc,
                );
            }
            Inst::Cas {
                ty,
                ptr,
                expected,
                new,
            } => {
                let p = self.src(*ptr);
                let e = self.src(*expected);
                let n = self.src(*new);
                self.emit(
                    Op::Cas {
                        ty: *ty,
                        p,
                        e,
                        n,
                        dst,
                    },
                    loc,
                );
            }
            Inst::Intr { intr, args } => match intr {
                Intrinsic::ThreadId => self.emit(Op::ThreadId { dst }, loc),
                Intrinsic::BlockId => self.emit(Op::TeamId { dst }, loc),
                Intrinsic::BlockDim => self.emit(Op::BlockDim { dst }, loc),
                Intrinsic::GridDim => self.emit(Op::GridDim { dst }, loc),
                Intrinsic::AlignedBarrier => self.emit(Op::Barrier { aligned: true }, loc),
                Intrinsic::Barrier => self.emit(Op::Barrier { aligned: false }, loc),
                Intrinsic::Assume(()) => {
                    let c = self.src(args[0]);
                    self.emit(Op::Assume { c }, loc);
                }
                Intrinsic::AssertFail => {
                    let t = self.add_trap(TrapKind::AssertFail);
                    self.emit(Op::TrapInst { t }, loc);
                }
                Intrinsic::Malloc => {
                    let size = self.src(args[0]);
                    self.emit(Op::Malloc { size, dst }, loc);
                }
                Intrinsic::Free => {
                    let p = self.src(args[0]);
                    self.emit(Op::Free { p }, loc);
                }
            },
            // Materialized by the edges into its block (`resolve_edge`).
            Inst::Phi { .. } => {}
        }
    }

    fn lower_term(&mut self, b: u32, term: &Term) {
        let from = BlockId(b);
        match term {
            Term::Br(t) => {
                let edge = self.new_edge(from, *t);
                self.emit(Op::Br { edge }, (b, 0));
            }
            Term::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.src(*cond);
                let t = self.new_edge(from, *if_true);
                let f = self.new_edge(from, *if_false);
                self.emit(Op::CondBr { c, t, f }, (b, 0));
            }
            Term::Ret(v) => {
                let v = v.map(|op| self.src(op));
                self.emit(Op::Ret { v }, (b, 0));
            }
            Term::Unreachable => {
                // Terminator-position trap: no instruction accounting.
                let t = self.add_trap(TrapKind::AssertFail);
                self.emit(Op::TrapBare { t }, (b, 0));
            }
        }
    }

    /// Resolve `from → target`: branch offset plus the phi parallel-move
    /// list, one move per leading phi of the target (the verifier gives
    /// each exactly one incoming per predecessor).
    fn resolve_edge(&mut self, from: BlockId, target: BlockId) -> Edge {
        let mut moves: Vec<(u32, Src)> = Vec::new();
        for &iid in &self.func.blocks[target.index()].insts {
            let Inst::Phi { incomings, .. } = &self.func.insts[iid.index()] else {
                break;
            };
            for inc in incomings.iter().filter(|i| i.pred == from) {
                let s = self.src(inc.value);
                moves.push((self.slot_of[iid.index()], s));
            }
        }
        Edge {
            pc: self.block_start[target.index()],
            moves: moves.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::mem::discriminant;

    use nzomp_ir::{FuncBuilder, Ty};

    use super::*;
    use crate::Image;

    /// `out[0] = tid + 1`: three listed instructions.
    fn store_tid_plus_one() -> Function {
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let tid = b.thread_id();
        let x = b.add(tid, Operand::i64(1));
        b.store(Ty::I64, Operand::Param(0), x);
        b.ret(None);
        b.finish()
    }

    fn lowered(f: Function) -> BcFunc {
        let mut m = Module::new("slots");
        m.add_function(f);
        let image = Image::new(m);
        lower_module(&image.module, &GlobalLayout::default(), image.live_results()).unwrap().funcs.remove(0)
    }

    /// Arena entries no block lists — here a chain of adds, each reading
    /// the one before and the first reading a live result — get no slot:
    /// the register file is the listed code's alone.
    #[test]
    fn unlisted_arena_entries_get_no_value_slot() {
        let live = store_tid_plus_one();
        let mut padded = live.clone();
        let mut prev = Operand::Inst(InstId(1));
        for _ in 0..16 {
            let dead = Inst::Bin { op: BinOp::Add, ty: Ty::I64, lhs: prev, rhs: Operand::i64(2) };
            prev = Operand::Inst(padded.add_inst(dead));
        }
        assert_eq!(padded.live_inst_count(), live.live_inst_count());
        // Slot 0, the parameter, `tid`, `x` and the interned `1`.
        assert_eq!(lowered(live).regs0.len(), 5);
        assert_eq!(lowered(padded).regs0.len(), 5);
    }

    /// Every binary operator and every compare, integer and float, lowers
    /// to its own op: no two share a variant, so none is dispatched on a
    /// second operand. The float compares share the one `FCmp`, which
    /// keeps its predicate.
    #[test]
    fn every_operator_lowers_to_its_own_op() {
        let (a, b, dst) = (Src(1), Src(2), 3);
        let mut seen = HashSet::new();
        for &op in BinOp::ALL {
            let lowered = binary(op, a, b, dst);
            assert!(seen.insert(discriminant(&lowered)), "{op:?} shares an op");
        }
        for &pred in Pred::ALL {
            let lowered = compare(pred, false, a, b, dst);
            assert!(seen.insert(discriminant(&lowered)), "integer {pred:?} shares an op");
            assert!(matches!(compare(pred, true, a, b, dst), Op::FCmp { pred: p, .. } if p == pred));
        }
        assert!(seen.insert(discriminant(&compare(Pred::Eq, true, a, b, dst))));
        assert_eq!(seen.len(), BinOp::ALL.len() + Pred::ALL.len() + 1);
    }

    /// The gate's cross-function half holds a direct call to its callee's
    /// parameter count: lowering passes it, and one argument short fails.
    #[test]
    fn the_gate_refuses_a_direct_call_of_the_wrong_arity() {
        let mut m = Module::new("calls");
        let mut h = FuncBuilder::new("h", vec![Ty::I64], None);
        h.ret(None);
        let h = m.add_function(h.finish());
        let mut k = FuncBuilder::new("k", vec![], None);
        k.call(Operand::Func(h), vec![Operand::i64(1)], None);
        k.ret(None);
        m.add_function(k.finish());
        let image = Image::new(m.clone());
        let mut k = lower_module(&m, &GlobalLayout::default(), image.live_results()).unwrap().funcs.remove(1);
        assert!(calls_fit(&m, &k));
        for op in &mut k.ops {
            if let Op::Call { args, .. } = op {
                *args = Box::new([]);
            }
        }
        assert!(!calls_fit(&m, &k));
    }

    /// The gate refuses a function naming a slot past its frame template,
    /// or whose template has no slot for each parameter — every launch of
    /// the image is then refused — and passes the same function with every
    /// slot in range.
    #[test]
    fn the_validation_gate_refuses_out_of_range_indexes() {
        let f = lowered(store_tid_plus_one());
        let (n_slots, params) = (f.regs0.len() as u32, 1);
        let with_store = |p: Src, v: Src| {
            let mut g = f.clone();
            let store = g.ops.iter_mut().find(|o| matches!(o, Op::Store { .. })).unwrap();
            *store = Op::Store { ty: Ty::I64, p, v };
            g
        };
        assert!(validated(with_store(Src(params), Src(n_slots - 1)), params).is_some());
        assert!(validated(with_store(Src(params), Src(n_slots)), params).is_none());
        assert!(validated(with_store(Src(n_slots), Src(1)), params).is_none());
        let bare = |slots: usize| BcFunc { regs0: vec![0; slots], ..trap_only(TrapKind::AssertFail, 0) };
        assert!(validated(bare(1 + params as usize), params).is_some());
        assert!(validated(bare(params as usize), params).is_none());
    }
}
