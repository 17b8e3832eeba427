//! IR → bytecode lowering.
//!
//! Lowering never fails: malformed shapes (the ones the verifier rejects
//! but a hand-built module can still carry) are embedded as trap ops or
//! trap operands that reproduce the interpreter's exact `MalformedIr`
//! message at the exact execution point where the interpreter would meet
//! them. That keeps the malformed-IR trap-message pins — and every other
//! differential suite — valid across tiers.
//!
//! Static direct-call checks (missing target, declaration, arity) are the
//! one class the interpreter performs per execution that lowering resolves
//! eagerly; since the outcome cannot depend on runtime state, the lowered
//! [`Op::TrapInst`] fires identically.
//!
//! What lowering does refuse is a module the value-class rule
//! (`nzomp_ir::analysis::class`) cannot prove: the register file holds bits
//! without a tag, which is only the tagged interpreter's behaviour when
//! every operand is read in the domain it was produced in. The device runs
//! such a module on the interpreter instead.

use std::collections::HashMap;

use nzomp_ir::analysis::class::{value_classes, Class, Classes};
use nzomp_ir::inst::{Inst, InstId, Intrinsic, Term};
use nzomp_ir::{BlockId, Function, Module, Operand};

use crate::error::TrapKind;
use crate::exec::{is_runtime_fn, malformed, used_results, GlobalLayout};
use crate::memory::DevPtr;
use crate::sanitize::REGION_RELEASE_FNS;

use super::{BcFunc, BcModule, Edge, FuncMeta, Op, Src};

/// Lower every function of `module`. `layout` resolves global operands to
/// their device addresses (fixed at device load, like the layout itself).
/// `None` when the value-class rule fails the module, or when a call that
/// can reach an allocator release function passes arguments whose
/// pointer/integer tags (which the sanitizer's release hook keys on) the
/// rule leaves open: the module then runs on the tagged interpreter.
pub(crate) fn lower_module(module: &Module, layout: &GlobalLayout) -> Option<BcModule> {
    let classes = value_classes(module).ok()?;
    let release: Vec<u32> = module
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_declaration() && REGION_RELEASE_FNS.contains(&f.name.as_str()))
        .map(|(i, _)| i as u32)
        .collect();
    let meta = module
        .funcs
        .iter()
        .map(|f| FuncMeta {
            name: f.name.clone(),
            params: f.params.len() as u32,
            is_decl: f.is_declaration(),
            runtime: is_runtime_fn(&f.name),
        })
        .collect();
    let ctx = Ctx { module, layout, classes: &classes, release: &release };
    let funcs = (0..module.funcs.len())
        .map(|fi| lower_func(&ctx, fi))
        .collect::<Option<_>>()?;
    Some(BcModule { funcs, meta })
}

/// What lowering one function reads of the whole module.
struct Ctx<'m> {
    module: &'m Module,
    layout: &'m GlobalLayout,
    classes: &'m Classes,
    /// Defined allocator release functions (`REGION_RELEASE_FNS`).
    release: &'m [u32],
}

struct FnLowerer<'m> {
    ctx: &'m Ctx<'m>,
    /// Index of `func` in the module.
    fi: usize,
    func: &'m Function,
    /// Value slot per arena instruction (0 = dead-result scratch).
    slot_of: Vec<u32>,
    used: Vec<bool>,
    ops: Vec<Op>,
    locs: Vec<(u32, u32)>,
    traps: Vec<TrapKind>,
    edges: Vec<Edge>,
    /// `(edge index, from block, target block)` fixups resolved once every
    /// block's op offset is known.
    pending: Vec<(usize, BlockId, BlockId)>,
    /// First post-phi op offset per block.
    block_start: Vec<u32>,
    /// The frame template under construction, one entry per value slot:
    /// instruction results first (zero), then the interned immediate
    /// operands, each already in the dedicated slot `cnum` appended for
    /// it, so operands stay plain `Src::Reg` reads. `const_of` dedups by
    /// bits.
    regs0: Vec<u64>,
    const_of: HashMap<u64, u32>,
    /// Call ops whose first two arguments are a pointer and an integer.
    ptr_size_calls: Vec<u32>,
    /// A call that may reach a release function passes arguments whose
    /// tags the class rule leaves open.
    open_tags: bool,
}

/// A function whose every execution traps with `t` on its first step.
fn trap_only(t: TrapKind) -> BcFunc {
    BcFunc {
        ops: vec![Op::TrapBare { t: 0 }],
        locs: vec![(0, 0)],
        edges: Vec::new(),
        traps: vec![t],
        regs0: vec![0],
        ptr_size_calls: Box::new([]),
        entry: 0,
    }
}

fn lower_func(ctx: &Ctx<'_>, fi: usize) -> Option<BcFunc> {
    let func = &ctx.module.funcs[fi];
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
    // An atomic's merge validation keys on the arena-wide map, as the
    // interpreter's does, so validation counts match across tiers.
    let used = used_results(func);

    let mut lw = FnLowerer {
        ctx,
        fi,
        func,
        slot_of,
        used,
        ops: Vec::new(),
        locs: Vec::new(),
        traps: Vec::new(),
        edges: Vec::new(),
        pending: Vec::new(),
        block_start: Vec::new(),
        regs0: vec![0; n_slots as usize],
        const_of: HashMap::new(),
        ptr_size_calls: Vec::new(),
        open_tags: false,
    };

    for (bi, block) in func.blocks.iter().enumerate() {
        let b = bi as u32;
        // Leading phis are materialized by incoming edges; the block body
        // starts at the first entry that is not a live leading phi.
        let mut body_start = 0usize;
        while body_start < block.insts.len() {
            let iid = block.insts[body_start];
            match func.insts.get(iid.index()) {
                Some(inst) if inst.is_phi() => body_start += 1,
                _ => break,
            }
        }
        lw.block_start.push(lw.ops.len() as u32);
        let mut terminated = false;
        for idx in body_start..block.insts.len() {
            let iid = block.insts[idx];
            match func.insts.get(iid.index()) {
                None => {
                    // Listed instruction missing from the arena: trap
                    // before any instruction accounting (the interpreter's
                    // step fails its arena lookup pre-charge).
                    let t = lw.add_trap(malformed(format!(
                        "bb{} in @{} lists missing inst %{}",
                        b, func.name, iid.0
                    )));
                    lw.emit(Op::TrapBare { t }, (b, iid.0));
                    terminated = true;
                    break;
                }
                Some(inst) if inst.is_phi() => {
                    let t = lw.add_trap(malformed("phi executed directly (phi after non-phi)"));
                    lw.emit(Op::TrapInst { t }, (b, iid.0));
                    terminated = true;
                    break;
                }
                Some(inst) => {
                    if lw.lower_inst(b, iid, inst) {
                        terminated = true;
                        break;
                    }
                }
            }
        }
        if !terminated {
            lw.lower_term(b, &block.term);
        }
    }

    // Function entry: direct entry starts at instruction index 0, *before*
    // any leading phi — stepping onto a live phi is the interpreter's
    // phi-executed-directly trap, charged as an instruction.
    let entry = match func.blocks[0].insts.first() {
        Some(&iid0) => match func.insts.get(iid0.index()) {
            Some(inst) if inst.is_phi() => {
                let pc = lw.ops.len() as u32;
                let t = lw.add_trap(malformed("phi executed directly (phi after non-phi)"));
                lw.emit(Op::TrapInst { t }, (0, iid0.0));
                pc
            }
            // Missing arena entries fall through to the body's listing
            // trap at block_start; plain instructions start the body.
            _ => lw.block_start[0],
        },
        None => lw.block_start[0],
    };

    // Resolve branch targets and phi moves now that every block's op
    // offset is known.
    let pending = std::mem::take(&mut lw.pending);
    for (ei, from, target) in pending {
        let edge = lw.resolve_edge(from, target);
        if let Some(slot) = lw.edges.get_mut(ei) {
            *slot = edge;
        }
    }

    if lw.open_tags {
        return None;
    }
    Some(validated(BcFunc {
        ops: lw.ops,
        locs: lw.locs,
        edges: lw.edges,
        traps: lw.traps,
        regs0: lw.regs0,
        ptr_size_calls: lw.ptr_size_calls.into_boxed_slice(),
        entry,
    }))
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

/// Validation gate for the dispatch loop's unchecked register file: every
/// `Src::Reg` index and every destination slot a function can name must
/// be in range of its frame template `regs0`, which every frame copies. `getv` / `setv` rely on
/// this to skip per-access bounds checks — verify once at lowering,
/// dispatch unchecked. The lowerer above never produces an out-of-range
/// index; the gate makes the dispatch loop's soundness independent of
/// that claim. A function that fails is replaced by a trap-only body
/// (never observed in practice).
fn validated(f: BcFunc) -> BcFunc {
    let n_slots = f.regs0.len() as u32;
    let src_ok = |s: &Src| match *s {
        Src::Reg(i) => i < n_slots,
        // Bounds-checked at dispatch (arity varies; traps are lazy).
        Src::Arg(_) | Src::Trap(_) => true,
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
        Op::Free { p } => src_ok(p),
        Op::CondBr { c, .. } => src_ok(c),
        Op::Assume { c } => c.as_ref().is_none_or(src_ok),
        Op::Ret { v } => v.as_ref().is_none_or(src_ok),
        Op::Barrier { .. } | Op::Br { .. } | Op::TrapBare { .. } | Op::TrapInst { .. } => true,
    };
    let n_ops = f.ops.len() as u32;
    let n_edges = f.edges.len() as u32;
    let edges_ok = f.edges.iter().all(|e| match e {
        Edge::Go { pc, moves } => {
            *pc < n_ops && moves.iter().all(|(d, s)| dst_ok(*d) && src_ok(s))
        }
        Edge::Trap(_) => true,
    });
    // The op fetch is unchecked too, so `pc` must never be able to reach
    // `ops.len()`: the entry and every branch target are in range, every
    // edge index resolves, and the final op never falls through (each
    // block ends with a terminator, so sequential execution always meets
    // a jump, return or trap before running off the end).
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
    if n_slots > 0
        && f.entry < n_ops
        && end_ok
        && edges_ok
        && f.ops.iter().all(|o| op_ok(o) && flow_ok(o))
    {
        return f;
    }
    trap_only(malformed("bytecode validation failed: value index out of range"))
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

    /// Allocate an edge slot for `from → target`, resolved after layout.
    fn new_edge(&mut self, from: BlockId, target: BlockId) -> u32 {
        let ei = self.edges.len();
        self.edges.push(Edge::Go {
            pc: 0,
            moves: Box::new([]),
        });
        self.pending.push((ei, from, target));
        ei as u32
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

    /// Record what the sanitizer's release hook needs of the call at the
    /// next op, whose arguments are `args`, when it may reach one of
    /// `targets` among the release functions: the tagged engine releases
    /// exactly when the first argument is a pointer and the second an
    /// integer. A value that is never assigned is zero, and releasing
    /// from a null pointer or for zero bytes retires nothing, so such a
    /// value may count either way.
    fn note_release_args(&mut self, args: &[Operand], mut targets: impl FnMut(&Function) -> bool) {
        let m = self.ctx.module;
        if !self.ctx.release.iter().any(|&g| targets(&m.funcs[g as usize])) {
            return;
        }
        let class = |i: usize| args.get(i).map_or(Class::NONE, |a| self.ctx.classes.operand(self.fi, *a));
        let (p, size) = (class(0), class(1));
        if args.len() >= 2 && p.within(Class::PTR) && size.within(Class::INT) {
            self.ptr_size_calls.push(self.ops.len() as u32);
        } else if args.len() >= 2 && Class::PTR.within(p) && Class::INT.within(size) {
            self.open_tags = true;
        }
    }

    /// Pre-translate one operand (the interpreter's `eval`, done once).
    fn src(&mut self, op: Operand) -> Src {
        match op {
            Operand::Inst(i) => {
                if i.index() < self.slot_of.len() {
                    Src::Reg(self.slot_of[i.index()])
                } else {
                    let t = self.add_trap(malformed(format!(
                        "operand references missing inst %{}",
                        i.0
                    )));
                    Src::Trap(t)
                }
            }
            Operand::Param(p) => Src::Arg(p),
            Operand::ConstI(v, _) => self.cnum(v as u64),
            Operand::ConstF(v) => self.cnum(v.to_bits()),
            Operand::Global(g) => match self.ctx.layout.addr_of.get(g.index()) {
                Some(&p) => self.cnum(p.0),
                None => {
                    let t = self.add_trap(malformed(format!(
                        "operand references missing global {}",
                        g.0
                    )));
                    Src::Trap(t)
                }
            },
            Operand::Func(f) => self.cnum(DevPtr::func(f.0).0),
        }
    }

    fn srcs(&mut self, args: &[Operand]) -> Box<[Src]> {
        args.iter().map(|a| self.src(*a)).collect()
    }

    /// Lower one instruction. Returns `true` when the op unconditionally
    /// traps (the rest of the block is unreachable).
    fn lower_inst(&mut self, b: u32, iid: InstId, inst: &Inst) -> bool {
        let loc = (b, iid.0);
        let dst = self.slot_of.get(iid.index()).copied().unwrap_or(0);
        match inst {
            Inst::Bin { op, lhs, rhs, .. } => {
                let a = self.src(*lhs);
                let bb = self.src(*rhs);
                self.emit(Op::Bin { op: *op, a, b: bb, dst }, loc);
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
                        // Static checks — the interpreter performs these
                        // before charging call cost or evaluating args, so
                        // an eager trap op is observationally identical.
                        let Some(g) = self.ctx.module.funcs.get(f.0 as usize) else {
                            let t = self.add_trap(TrapKind::BadIndirectCall);
                            self.emit(Op::TrapInst { t }, loc);
                            return true;
                        };
                        if g.is_declaration() {
                            let t = self.add_trap(TrapKind::UnresolvedCall(g.name.clone()));
                            self.emit(Op::TrapInst { t }, loc);
                            return true;
                        }
                        if g.params.len() != args.len() {
                            let t = self.add_trap(TrapKind::BadLaunch(format!(
                                "call of @{} with {} args (expects {})",
                                g.name,
                                args.len(),
                                g.params.len()
                            )));
                            self.emit(Op::TrapInst { t }, loc);
                            return true;
                        }
                        let runtime = is_runtime_fn(&g.name);
                        self.note_release_args(args, |r| std::ptr::eq(r, g));
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
                        self.note_release_args(args, |r| r.params.len() == args.len());
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
                let used = self.used.get(iid.index()).copied().unwrap_or(true);
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
                    // A missing operand traps only when assume checking is
                    // on — the dispatch loop decides, like the interpreter.
                    let c = args.first().map(|a| self.src(*a));
                    self.emit(Op::Assume { c }, loc);
                }
                Intrinsic::AssertFail => {
                    let t = self.add_trap(TrapKind::AssertFail);
                    self.emit(Op::TrapInst { t }, loc);
                    return true;
                }
                Intrinsic::Malloc => match args.first() {
                    None => {
                        let t =
                            self.add_trap(malformed("malloc intrinsic with no operand"));
                        self.emit(Op::TrapInst { t }, loc);
                        return true;
                    }
                    Some(a) => {
                        let size = self.src(*a);
                        self.emit(Op::Malloc { size, dst }, loc);
                    }
                },
                Intrinsic::Free => match args.first() {
                    None => {
                        let t = self.add_trap(malformed("free intrinsic with no operand"));
                        self.emit(Op::TrapInst { t }, loc);
                        return true;
                    }
                    Some(a) => {
                        let p = self.src(*a);
                        self.emit(Op::Free { p }, loc);
                    }
                },
            },
            Inst::Phi { .. } => {
                // Callers filter phis; defensive parity with the
                // interpreter's direct-phi trap.
                let t = self.add_trap(malformed("phi executed directly (phi after non-phi)"));
                self.emit(Op::TrapInst { t }, loc);
                return true;
            }
        }
        false
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
                let v = v.as_ref().map(|op| self.src(*op));
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
    /// list, reproducing the interpreter's jump scan (including where in
    /// the scan each malformed shape traps).
    fn resolve_edge(&mut self, from: BlockId, target: BlockId) -> Edge {
        let Some(block) = self.func.blocks.get(target.index()) else {
            let t = self.add_trap(malformed(format!(
                "branch in @{} targets missing bb{}",
                self.func.name, target.0
            )));
            return Edge::Trap(t);
        };
        let mut moves: Vec<(u32, Src)> = Vec::new();
        for &iid in &block.insts {
            match self.func.insts.get(iid.index()) {
                None => {
                    let t = self.add_trap(malformed(format!(
                        "bb{} in @{} lists missing inst %{}",
                        target.0, self.func.name, iid.0
                    )));
                    moves.push((0, Src::Trap(t)));
                    break;
                }
                Some(Inst::Phi { incomings, .. }) => {
                    match incomings.iter().find(|i| i.pred == from) {
                        None => {
                            let t = self.add_trap(malformed(format!(
                                "phi %{} in @{} bb{} missing incoming for bb{}",
                                iid.0, self.func.name, target.0, from.0
                            )));
                            moves.push((0, Src::Trap(t)));
                            break;
                        }
                        Some(inc) => {
                            let s = self.src(inc.value);
                            let slot = self.slot_of.get(iid.index()).copied().unwrap_or(0);
                            moves.push((slot, s));
                        }
                    }
                }
                Some(_) => break,
            }
        }
        let pc = self
            .block_start
            .get(target.index())
            .copied()
            .unwrap_or_default();
        Edge::Go {
            pc,
            moves: moves.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use nzomp_ir::inst::BinOp;
    use nzomp_ir::{FuncBuilder, Ty};

    use super::*;

    /// `out[0] = tid + 1`: three listed instructions.
    fn store_tid_plus_one() -> Function {
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let tid = b.thread_id();
        let x = b.add(tid, Operand::i64(1));
        b.store(Ty::I64, Operand::Param(0), x);
        b.ret(None);
        b.finish()
    }

    fn slots(f: Function) -> usize {
        let mut m = Module::new("slots");
        m.add_function(f);
        lower_module(&m, &GlobalLayout::default()).unwrap().funcs[0].regs0.len()
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
        assert_eq!(slots(live), 4);
        assert_eq!(slots(padded), 4);
    }
}
