//! IR → bytecode lowering.
//!
//! Lowering translates well-formed modules only. The shapes the
//! interpreter meets as `MalformedIr` / `BadLaunch` / `BadIndirectCall`
//! traps — a listed instruction missing from the arena, a phi after a
//! non-phi or at function entry, an operand naming a missing instruction,
//! global or parameter, a direct call of a missing function or with the
//! wrong arity, `malloc` / `free` / `assume` without an operand, a branch
//! to a missing block, a phi with no incoming for an edge into its block —
//! make [`lower_module`] return `None` wherever in the module's listed
//! code they sit, and the device runs the module on the interpreter, which
//! raises those traps itself. The verifier rejects every one of them.
//! What verified IR can reach otherwise stays a
//! trap op: a direct call of a declaration, `assert.fail`, `unreachable`,
//! and the body of a declaration launched as a kernel.
//!
//! Lowering also refuses a module that fails the verifier's value-domain
//! rule ([`nzomp_ir::verify_domains`]): the register file holds bits
//! without a tag, which is only the tagged interpreter's behaviour when
//! every operand is read in the domain it was produced in.

use std::collections::HashMap;

use nzomp_ir::inst::{Inst, InstId, Intrinsic, Term};
use nzomp_ir::{BlockId, Function, Module, Operand};

use crate::error::TrapKind;
use crate::exec::{is_runtime_fn, malformed, GlobalLayout};
use crate::memory::DevPtr;

use super::{BcFunc, BcModule, Edge, Op, Src};

/// Lower every function of `module`. `layout` resolves global operands to
/// their device addresses (fixed at device load, like the layout itself);
/// `live` is the image's live-result table (`Image::live_results`), which
/// each atomic op carries its entry of. `None` when the module is malformed
/// (see the module docs) or fails the value-domain rule: the module then
/// runs on the tagged interpreter.
pub(crate) fn lower_module(module: &Module, layout: &GlobalLayout, live: &[Box<[bool]>]) -> Option<BcModule> {
    nzomp_ir::verify_domains(module).ok()?;
    let funcs = module
        .funcs
        .iter()
        .zip(live)
        .map(|(f, live)| lower_func(module, layout, f, live))
        .collect::<Option<_>>()?;
    Some(BcModule { funcs })
}

struct FnLowerer<'m> {
    module: &'m Module,
    layout: &'m GlobalLayout,
    func: &'m Function,
    /// Value slot per arena instruction (0 = dead-result scratch).
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
    /// instruction results first (zero), then the interned immediate
    /// operands, each already in the dedicated slot `cnum` appended for
    /// it, so operands stay plain `Src::Reg` reads. `const_of` dedups by
    /// bits.
    regs0: Vec<u64>,
    const_of: HashMap<u64, u32>,
}

/// A function whose every execution traps with `t` on its first step.
fn trap_only(t: TrapKind) -> BcFunc {
    BcFunc {
        ops: vec![Op::TrapBare { t: 0 }],
        locs: vec![(0, 0)],
        edges: Vec::new(),
        traps: vec![t],
        regs0: vec![0],
    }
}

fn lower_func<'m>(
    module: &'m Module,
    layout: &'m GlobalLayout,
    func: &'m Function,
    live: &'m [bool],
) -> Option<BcFunc> {
    if func.blocks.is_empty() {
        // Declaration (or stripped body): executing it meets the
        // interpreter's missing-entry-block trap on the first step.
        return Some(trap_only(malformed(format!("frame in @{} references missing bb0", func.name))));
    }

    let mut slot_of = vec![0u32; func.insts.len()];
    let mut n_slots = 1u32; // slot 0: shared dead-result scratch
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

    let is_phi = |iid: &InstId| func.insts.get(iid.index()).is_some_and(Inst::is_phi);
    // Function entry is bb0's first op: a phi there has no edge to
    // materialize it.
    if func.blocks[0].insts.first().is_some_and(is_phi) {
        return None;
    }
    for (bi, block) in func.blocks.iter().enumerate() {
        let b = bi as u32;
        // Leading phis are materialized by incoming edges; the block body
        // starts at the first entry that is not a leading phi, and any
        // later phi is one after a non-phi.
        let body_start = block.insts.iter().take_while(|i| is_phi(i)).count();
        lw.block_start.push(lw.ops.len() as u32);
        for &iid in &block.insts[body_start..] {
            lw.lower_inst(b, iid, func.insts.get(iid.index())?)?;
        }
        lw.lower_term(b, &block.term)?;
    }

    // Resolve branch targets and phi moves now that every block's op
    // offset is known.
    let pending = std::mem::take(&mut lw.pending);
    let edges = pending
        .into_iter()
        .map(|(from, target)| lw.resolve_edge(from, target))
        .collect::<Option<_>>()?;

    validated(
        BcFunc {
            ops: lw.ops,
            locs: lw.locs,
            edges,
            traps: lw.traps,
            regs0: lw.regs0,
        },
        func.params.len() as u32,
    )
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
        for inst in block.insts.iter().filter_map(|i| func.insts.get(i.index())) {
            inst.for_each_operand(&mut mark);
        }
        block.term.for_each_operand(&mut mark);
    }
    used
}

/// Validation gate for the dispatch loop's unchecked accesses: every
/// `Src::Reg` index and every destination slot a function of `params`
/// parameters can name must be in range of its frame template `regs0`,
/// which every frame copies, and every `Src::Arg` index below `params`,
/// the argument count every frame of it is entered with (launch, direct
/// calls at lowering and indirect calls at dispatch each check arity).
/// `getv` / `setv` rely on this to skip per-access bounds checks — verify
/// once at lowering, dispatch unchecked. The lowerer above never produces
/// an out-of-range index; the gate makes the dispatch loop's soundness
/// independent of that claim. A function that fails refuses the module,
/// which then runs on the interpreter.
fn validated(f: BcFunc, params: u32) -> Option<BcFunc> {
    let n_slots = f.regs0.len() as u32;
    let src_ok = |s: &Src| match *s {
        Src::Reg(i) => i < n_slots,
        Src::Arg(i) => i < params,
    };
    let dst_ok = |d: u32| d < n_slots;
    let op_ok = |op: &Op| match op {
        Op::Bin { a, b, dst, .. } | Op::Cmp { a, b, dst, .. } | Op::PtrAdd { a, b, dst } => {
            src_ok(a) && src_ok(b) && dst_ok(*dst)
        }
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
    (n_slots > 0 && end_ok && edges_ok && f.ops.iter().all(|o| op_ok(o) && flow_ok(o))).then_some(f)
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
    /// the frame template, so the operand is a plain `Reg`.
    fn cnum(&mut self, bits: u64) -> Src {
        let next = self.regs0.len() as u32;
        let slot = *self.const_of.entry(bits).or_insert(next);
        if slot == next {
            self.regs0.push(bits);
        }
        Src::Reg(slot)
    }

    /// Pre-translate one operand (the interpreter's `eval`, done once);
    /// `None` when it names a missing instruction, parameter or global.
    fn src(&mut self, op: Operand) -> Option<Src> {
        Some(match op {
            Operand::Inst(i) => Src::Reg(*self.slot_of.get(i.index())?),
            Operand::Param(p) if (p as usize) < self.func.params.len() => Src::Arg(p),
            Operand::Param(_) => return None,
            Operand::ConstI(v, _) => self.cnum(v as u64),
            Operand::ConstF(v) => self.cnum(v.to_bits()),
            Operand::Global(g) => self.cnum(self.layout.addr_of.get(g.index())?.0),
            Operand::Func(f) => self.cnum(DevPtr::func(f.0).0),
        })
    }

    fn srcs(&mut self, args: &[Operand]) -> Option<Box<[Src]>> {
        args.iter().map(|a| self.src(*a)).collect()
    }

    /// Lower one listed instruction; `None` refuses the module.
    fn lower_inst(&mut self, b: u32, iid: InstId, inst: &Inst) -> Option<()> {
        let loc = (b, iid.0);
        let dst = self.slot_of[iid.index()];
        match inst {
            Inst::Bin { op, lhs, rhs, .. } => {
                let a = self.src(*lhs)?;
                let bb = self.src(*rhs)?;
                self.emit(Op::Bin { op: *op, a, b: bb, dst }, loc);
            }
            Inst::Un { op, arg, .. } => {
                let a = self.src(*arg)?;
                self.emit(Op::Un { op: *op, a, dst }, loc);
            }
            Inst::Cast { kind, to, arg } => {
                let a = self.src(*arg)?;
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
                let a = self.src(*lhs)?;
                let bb = self.src(*rhs)?;
                self.emit(
                    Op::Cmp {
                        pred: *pred,
                        float: ty.is_float(),
                        a,
                        b: bb,
                        dst,
                    },
                    loc,
                );
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                let c = self.src(*cond)?;
                let t = self.src(*if_true)?;
                let f = self.src(*if_false)?;
                self.emit(Op::Select { c, t, f, dst }, loc);
            }
            Inst::Load { ty, ptr } => {
                let p = self.src(*ptr)?;
                self.emit(Op::Load { ty: *ty, p, dst }, loc);
            }
            Inst::Store { ty, ptr, value } => {
                let p = self.src(*ptr)?;
                let v = self.src(*value)?;
                self.emit(Op::Store { ty: *ty, p, v }, loc);
            }
            Inst::PtrAdd { base, offset } => {
                let a = self.src(*base)?;
                let bb = self.src(*offset)?;
                self.emit(Op::PtrAdd { a, b: bb, dst }, loc);
            }
            Inst::Alloca { size } => {
                self.emit(
                    Op::Alloca {
                        size: (*size + 7) & !7,
                        dst,
                    },
                    loc,
                );
            }
            Inst::Call { callee, args, ret } => {
                let ret_dst = ret.is_some().then_some(dst);
                match callee {
                    Operand::Func(f) => {
                        // A declaration is checked before arity, as the
                        // interpreter does, and traps before charging call
                        // cost or evaluating args, so an eager trap op is
                        // observationally identical.
                        let g = self.module.funcs.get(f.0 as usize)?;
                        if g.is_declaration() {
                            let t = self.add_trap(TrapKind::UnresolvedCall(g.name.clone()));
                            self.emit(Op::TrapInst { t }, loc);
                            return Some(());
                        }
                        if g.params.len() != args.len() {
                            return None;
                        }
                        let runtime = is_runtime_fn(&g.name);
                        let args = self.srcs(args)?;
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
                        let callee = self.src(*other)?;
                        let args = self.srcs(args)?;
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
                let p = self.src(*ptr)?;
                let v = self.src(*value)?;
                let used = self.live.get(iid.index()).copied().unwrap_or(true);
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
                let p = self.src(*ptr)?;
                let e = self.src(*expected)?;
                let n = self.src(*new)?;
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
                    let c = self.src(*args.first()?)?;
                    self.emit(Op::Assume { c }, loc);
                }
                Intrinsic::AssertFail => {
                    let t = self.add_trap(TrapKind::AssertFail);
                    self.emit(Op::TrapInst { t }, loc);
                }
                Intrinsic::Malloc => {
                    let size = self.src(*args.first()?)?;
                    self.emit(Op::Malloc { size, dst }, loc);
                }
                Intrinsic::Free => {
                    let p = self.src(*args.first()?)?;
                    self.emit(Op::Free { p }, loc);
                }
            },
            // A phi after a non-phi: leading phis never reach here.
            Inst::Phi { .. } => return None,
        }
        Some(())
    }

    fn lower_term(&mut self, b: u32, term: &Term) -> Option<()> {
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
                let c = self.src(*cond)?;
                let t = self.new_edge(from, *if_true);
                let f = self.new_edge(from, *if_false);
                self.emit(Op::CondBr { c, t, f }, (b, 0));
            }
            Term::Ret(v) => {
                let v = match v {
                    Some(op) => Some(self.src(*op)?),
                    None => None,
                };
                self.emit(Op::Ret { v }, (b, 0));
            }
            Term::Unreachable => {
                // Terminator-position trap: no instruction accounting.
                let t = self.add_trap(TrapKind::AssertFail);
                self.emit(Op::TrapBare { t }, (b, 0));
            }
        }
        Some(())
    }

    /// Resolve `from → target`: branch offset plus the phi parallel-move
    /// list. `None` when the target block is missing or one of its
    /// leading phis has no incoming for `from`.
    fn resolve_edge(&mut self, from: BlockId, target: BlockId) -> Option<Edge> {
        let block = self.func.blocks.get(target.index())?;
        let mut moves: Vec<(u32, Src)> = Vec::new();
        for &iid in &block.insts {
            // Every listed entry is in the arena: lowering the block's
            // body checked that.
            let Some(Inst::Phi { incomings, .. }) = self.func.insts.get(iid.index()) else {
                break;
            };
            let inc = incomings.iter().find(|i| i.pred == from)?;
            let s = self.src(inc.value)?;
            moves.push((self.slot_of[iid.index()], s));
        }
        Some(Edge {
            pc: self.block_start[target.index()],
            moves: moves.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use nzomp_ir::inst::BinOp;
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
        // Slot 0, `tid`, `x` and the interned `1`.
        assert_eq!(lowered(live).regs0.len(), 4);
        assert_eq!(lowered(padded).regs0.len(), 4);
    }

    /// The gate refuses a function naming a slot past its frame template
    /// or an argument past its parameter count — the module then runs on
    /// the interpreter — and passes the same function with both in range.
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
        assert!(validated(with_store(Src::Arg(0), Src::Reg(n_slots - 1)), params).is_some());
        assert!(validated(with_store(Src::Arg(0), Src::Reg(n_slots)), params).is_none());
        assert!(validated(with_store(Src::Arg(params), Src::Reg(1)), params).is_none());
        assert!(validated(with_store(Src::Arg(params), Src::Reg(n_slots)), params).is_none());
    }
}
