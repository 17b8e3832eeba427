//! The tree-walking team interpreter — the reference [`ExecBackend`].
//!
//! Threads run in thread-id order until they hit a barrier, finish, or
//! trap (the scheduling itself lives in [`crate::exec::TeamExec`]). This
//! backend steps IR instructions directly: each step resolves the current
//! frame, block and instruction and dispatches on the instruction kind.
//! It is deliberately simple — the semantic reference the bytecode tier
//! (`crate::bytecode`) must match bit for bit; see `docs/exec-tiers.md`.

use nzomp_ir::inst::{Inst, InstId, Intrinsic, Term};
use nzomp_ir::{BlockId, Function, OpClass, Operand, Ty};

use crate::cost;
use crate::error::TrapKind;
use crate::exec::{malformed, ExecBackend, Status, TeamExec, ThreadCtx};
use crate::memory::DevPtr;
use crate::ops::{corrupt_value, exec_bin, exec_cast, exec_cmp, exec_un};
use crate::sanitize::{AccessKind, IrLoc};
use crate::value::RtVal;

/// One call frame.
#[derive(Debug)]
pub struct Frame {
    func: u32,
    block: BlockId,
    inst_idx: usize,
    regs: Vec<RtVal>,
    args: Vec<RtVal>,
    /// Caller instruction that receives the return value.
    ret_dst: Option<InstId>,
    /// Thread-local stack watermark to restore on return.
    local_base: u64,
}

/// The tree-walking interpreter backend (unit — all state lives in the
/// [`TeamExec`] and the per-thread [`Frame`]s).
pub struct InterpBackend;

impl<'a> ExecBackend<'a> for InterpBackend {
    type Frame = Frame;

    fn kernel_frame(
        exec: &TeamExec<'a, Self>,
        kernel: u32,
        args: &[RtVal],
        spent: Option<Frame>,
    ) -> Result<Frame, TrapKind> {
        let Some(func) = exec.module.funcs.get(kernel as usize) else {
            return Err(malformed(format!("kernel index {kernel} out of range")));
        };
        // A spent kernel frame lends its two vectors; every field is set.
        let (mut regs, mut argv) = spent.map(|s| (s.regs, s.args)).unwrap_or_default();
        regs.clear();
        regs.resize(func.insts.len(), RtVal::I(0));
        argv.clear();
        argv.extend_from_slice(args);
        Ok(Frame {
            func: kernel,
            block: BlockId::ENTRY,
            inst_idx: 0,
            regs,
            args: argv,
            ret_dst: None,
            local_base: 0,
        })
    }

    fn run_thread(
        exec: &mut TeamExec<'a, Self>,
        thread: &mut ThreadCtx<Frame>,
    ) -> Result<(), TrapKind> {
        while thread.status == Status::Running {
            if exec.fuel == 0 {
                return Err(TrapKind::FuelExhausted);
            }
            exec.fuel -= 1;
            // Fault hook: a single compare against a sentinel when no
            // injection targets this thread.
            if thread.steps >= thread.next_fault_step {
                exec.trigger_faults(thread)?;
            }
            thread.steps += 1;
            exec.counters.dispatched += 1;
            exec.step(thread)?;
        }
        Ok(())
    }
}

impl<'a> TeamExec<'a, InterpBackend> {
    fn cur_func(&self, thread: &ThreadCtx<Frame>) -> Result<&'a Function, TrapKind> {
        let Some(f) = thread.frames.last() else {
            return Err(malformed("live thread has no frame"));
        };
        let m: &'a nzomp_ir::Module = self.module;
        m.funcs
            .get(f.func as usize)
            .ok_or_else(|| malformed(format!("frame references missing function {}", f.func)))
    }

    /// Sanitizer hook at an instruction: compute the [`IrLoc`] from the
    /// live frame and forward. Free (one pointer test) when disarmed.
    #[inline]
    fn san_at(
        &mut self,
        thread: &ThreadCtx<Frame>,
        iid: InstId,
        kind: AccessKind,
        p: DevPtr,
        size: u64,
    ) {
        if !self.san_armed() {
            return;
        }
        let Some(loc) = loc_of(thread, iid) else { return };
        self.san_record(thread.tid, loc, kind, p, size);
    }

    /// Execute one instruction or the block terminator.
    fn step(&mut self, thread: &mut ThreadCtx<Frame>) -> Result<(), TrapKind> {
        let func = self.cur_func(thread)?;
        let Some(frame) = thread.frames.last() else {
            return Err(malformed("live thread has no frame"));
        };
        let Some(block) = func.blocks.get(frame.block.index()) else {
            return Err(malformed(format!(
                "frame in @{} references missing bb{}",
                func.name, frame.block.0
            )));
        };
        if frame.inst_idx >= block.insts.len() {
            let term: &'a Term = &block.term;
            return self.step_term(thread, term);
        }
        let iid = block.insts[frame.inst_idx];
        let inst: &'a Inst = &func.insts[iid.index()];
        self.counters.instructions += 1;
        thread.cycles += cost::ISSUE;
        thread.busy_cycles += cost::ISSUE;
        self.exec_inst(thread, iid, inst)
    }

    fn eval(&self, thread: &ThreadCtx<Frame>, op: Operand) -> Result<RtVal, TrapKind> {
        let Some(frame) = thread.frames.last() else {
            return Err(malformed("operand evaluated with no frame"));
        };
        Ok(match op {
            Operand::Inst(i) => frame.regs[i.index()],
            Operand::Param(p) => frame.args[p as usize],
            Operand::ConstI(v, ty) => {
                if ty == Ty::Ptr {
                    RtVal::P(DevPtr(v as u64))
                } else {
                    RtVal::I(v)
                }
            }
            Operand::ConstF(v) => RtVal::F(v),
            Operand::Global(g) => RtVal::P(self.layout.addr_of[g.index()]),
            Operand::Func(f) => RtVal::P(DevPtr::func(f.0)),
        })
    }

    fn set_reg(&self, thread: &mut ThreadCtx<Frame>, id: InstId, v: RtVal) -> Result<(), TrapKind> {
        let Some(frame) = thread.frames.last_mut() else {
            return Err(malformed("register written with no frame"));
        };
        frame.regs[id.index()] = v;
        Ok(())
    }

    /// Charge an arithmetic operator by its class; anything but plain ALU
    /// work counts as a flop.
    #[inline]
    fn charge_class(&mut self, thread: &mut ThreadCtx<Frame>, class: OpClass) {
        if class != OpClass::Alu {
            self.counters.flops += 1;
        }
        thread.cycles += cost::class(class);
        thread.busy_cycles += cost::class(class);
    }

    // ---- instruction dispatch ---------------------------------------------

    fn exec_inst(
        &mut self,
        thread: &mut ThreadCtx<Frame>,
        iid: InstId,
        inst: &Inst,
    ) -> Result<(), TrapKind> {
        // Advance past this instruction up-front; control transfers
        // (calls/barriers) rely on the frame already pointing at the next
        // instruction.
        {
            let Some(frame) = thread.frames.last_mut() else {
                return Err(malformed("instruction executed with no frame"));
            };
            frame.inst_idx += 1;
        }

        match inst {
            Inst::Bin { op, lhs, rhs, .. } => {
                let a = self.eval(thread, *lhs)?;
                let b = self.eval(thread, *rhs)?;
                let v = exec_bin(*op, a, b)?;
                self.charge_class(thread, op.class());
                self.set_reg(thread, iid, v)?;
            }
            Inst::Un { op, arg, .. } => {
                let a = self.eval(thread, *arg)?;
                let v = exec_un(*op, a);
                self.charge_class(thread, op.class());
                self.set_reg(thread, iid, v)?;
            }
            Inst::Cast { kind, to, arg } => {
                let a = self.eval(thread, *arg)?;
                let v = exec_cast(*kind, *to, a);
                thread.cycles += cost::ALU;
                thread.busy_cycles += cost::ALU;
                self.set_reg(thread, iid, v)?;
            }
            Inst::Cmp { pred, ty, lhs, rhs } => {
                let a = self.eval(thread, *lhs)?;
                let b = self.eval(thread, *rhs)?;
                let v = exec_cmp(*pred, ty.is_float(), a, b);
                thread.cycles += cost::ALU;
                thread.busy_cycles += cost::ALU;
                self.set_reg(thread, iid, RtVal::I(v as i64))?;
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                let c = self.eval(thread, *cond)?.as_bool();
                let v = if c {
                    self.eval(thread, *if_true)?
                } else {
                    self.eval(thread, *if_false)?
                };
                thread.cycles += cost::ALU;
                thread.busy_cycles += cost::ALU;
                self.set_reg(thread, iid, v)?;
            }
            Inst::Load { ty, ptr } => {
                let p = self.eval(thread, *ptr)?.as_ptr();
                let c = cost::mem(p.segment());
                thread.cycles += c;
                thread.busy_cycles += c;
                thread.mem_cycles += c;
                let mut v = self.load_typed(thread, p, *ty)?;
                self.san_at(thread, iid, AccessKind::Read, p, ty.size());
                if let Some(xor) = thread.corrupt_next_load.take() {
                    v = corrupt_value(v, xor, *ty);
                }
                self.set_reg(thread, iid, v)?;
            }
            Inst::Store { ty, ptr, value } => {
                let p = self.eval(thread, *ptr)?.as_ptr();
                let v = self.eval(thread, *value)?;
                let c = cost::mem(p.segment());
                thread.cycles += c;
                thread.busy_cycles += c;
                thread.mem_cycles += c;
                self.mem_write(thread, p, ty.size(), v.to_bits())?;
                self.san_at(thread, iid, AccessKind::Write, p, ty.size());
            }
            Inst::PtrAdd { base, offset } => {
                let b = self.eval(thread, *base)?.as_ptr();
                let o = self.eval(thread, *offset)?.as_i();
                thread.cycles += cost::ALU;
                thread.busy_cycles += cost::ALU;
                self.set_reg(thread, iid, RtVal::P(b.add_bytes(o)))?;
            }
            Inst::Alloca { size } => {
                let off = thread.alloca(*size)?;
                self.set_reg(thread, iid, RtVal::P(DevPtr::local(thread.tid, off)))?;
            }
            Inst::Call { callee, args, ret } => {
                self.exec_call(thread, iid, *callee, args, ret.is_some())?;
            }
            Inst::Atomic { op, ty, ptr, value } => {
                let p = self.eval(thread, *ptr)?.as_ptr();
                let v = self.eval(thread, *value)?;
                let live = thread
                    .frames
                    .last()
                    .and_then(|f| self.live_results.get(f.func as usize)?.get(iid.index()).copied())
                    .unwrap_or(true);
                thread.cycles += cost::ATOMIC;
                thread.busy_cycles += cost::ATOMIC;
                thread.mem_cycles += cost::ATOMIC;
                let old = self.atomic(thread, *op, *ty, p, v, live)?;
                self.set_reg(thread, iid, old)?;
                self.san_at(thread, iid, AccessKind::Atomic, p, ty.size());
            }
            Inst::Cas {
                ty,
                ptr,
                expected,
                new,
            } => {
                let p = self.eval(thread, *ptr)?.as_ptr();
                let e = self.eval(thread, *expected)?;
                let n = self.eval(thread, *new)?;
                thread.cycles += cost::ATOMIC;
                thread.busy_cycles += cost::ATOMIC;
                thread.mem_cycles += cost::ATOMIC;
                let old = self.cas(thread, *ty, p, e.to_bits(), n.to_bits())?;
                self.set_reg(thread, iid, old)?;
                self.san_at(thread, iid, AccessKind::Atomic, p, ty.size());
            }
            Inst::Intr { intr, args } => {
                self.exec_intr(thread, iid, *intr, args)?;
            }
            // Materialized by the edge into its block (`jump`), which
            // steps past every leading phi, and the verifier keeps every
            // phi leading: never stepped onto.
            Inst::Phi { .. } => {}
        }
        Ok(())
    }

    fn exec_call(
        &mut self,
        thread: &mut ThreadCtx<Frame>,
        iid: InstId,
        callee: Operand,
        args: &[Operand],
        has_ret: bool,
    ) -> Result<(), TrapKind> {
        let (p, indirect) = match callee {
            Operand::Func(f) => (DevPtr::func(f.0), false),
            other => (self.eval(thread, other)?.as_ptr(), true),
        };
        let target = self.call_target(p, args.len())?;
        thread.cycles += cost::CALL;
        thread.busy_cycles += cost::CALL;
        if indirect {
            thread.cycles += cost::INDIRECT_CALL;
            thread.busy_cycles += cost::INDIRECT_CALL;
        }
        let argv: Vec<RtVal> = args
            .iter()
            .map(|a| self.eval(thread, *a))
            .collect::<Result<_, _>>()?;
        if let [addr, size, ..] = argv[..] {
            self.san_on_call(target, addr.to_bits() as u64, size.to_bits() as u64);
        }
        let nregs = self.module.funcs.get(target as usize).map_or(0, |f| f.insts.len());
        let frame = Frame {
            func: target,
            block: BlockId::ENTRY,
            inst_idx: 0,
            regs: vec![RtVal::I(0); nregs],
            args: argv,
            ret_dst: has_ret.then_some(iid),
            local_base: thread.local_top,
        };
        thread.frames.push(frame);
        Ok(())
    }

    fn exec_intr(
        &mut self,
        thread: &mut ThreadCtx<Frame>,
        iid: InstId,
        intr: Intrinsic,
        args: &[Operand],
    ) -> Result<(), TrapKind> {
        match intr {
            Intrinsic::ThreadId => {
                let v = RtVal::I(thread.tid as i64);
                self.set_reg(thread, iid, v)?;
            }
            Intrinsic::BlockId => {
                let v = RtVal::I(self.team_id as i64);
                self.set_reg(thread, iid, v)?;
            }
            Intrinsic::BlockDim => {
                let v = RtVal::I(self.nthreads as i64);
                self.set_reg(thread, iid, v)?;
            }
            Intrinsic::GridDim => {
                let v = RtVal::I(self.num_teams as i64);
                self.set_reg(thread, iid, v)?;
            }
            Intrinsic::AlignedBarrier | Intrinsic::Barrier => {
                let site = loc_of(thread, iid);
                self.arrive(thread, matches!(intr, Intrinsic::AlignedBarrier), move || site);
            }
            Intrinsic::Assume(()) => {
                if self.check_assumes {
                    let c = self.eval(thread, args[0])?.as_bool();
                    if !c {
                        return Err(TrapKind::AssumeViolated);
                    }
                }
            }
            Intrinsic::AssertFail => return Err(TrapKind::AssertFail),
            Intrinsic::Malloc => {
                let size = self.eval(thread, args[0])?.as_i();
                thread.cycles += cost::MALLOC;
                thread.busy_cycles += cost::MALLOC;
                thread.mem_cycles += cost::MALLOC;
                let p = self.malloc(size)?;
                self.set_reg(thread, iid, RtVal::P(p))?;
            }
            Intrinsic::Free => {
                let p = self.eval(thread, args[0])?.as_ptr();
                self.free(p)?;
            }
        }
        Ok(())
    }

    fn step_term(&mut self, thread: &mut ThreadCtx<Frame>, term: &Term) -> Result<(), TrapKind> {
        match term {
            Term::Br(target) => self.jump(thread, *target),
            Term::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.eval(thread, *cond)?.as_bool();
                thread.cycles += cost::ALU;
                thread.busy_cycles += cost::ALU;
                let t = if c { *if_true } else { *if_false };
                self.jump(thread, t)
            }
            Term::Ret(v) => {
                let val = match v {
                    Some(op) => Some(self.eval(thread, *op)?),
                    None => None,
                };
                let Some(frame) = thread.frames.pop() else {
                    return Err(malformed("return with no frame"));
                };
                thread.local_top = frame.local_base;
                match thread.frames.last_mut() {
                    None => {
                        // The kernel frame has returned: it stays on the
                        // stack for the team to hand on.
                        thread.frames.push(frame);
                        thread.status = Status::Done;
                    }
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (frame.ret_dst, val) {
                            caller.regs[dst.index()] = v;
                        }
                    }
                }
                Ok(())
            }
            Term::Unreachable => Err(TrapKind::AssertFail),
        }
    }

    /// Transfer control to `target`, materializing its phi nodes with
    /// parallel-copy semantics.
    fn jump(&mut self, thread: &mut ThreadCtx<Frame>, target: BlockId) -> Result<(), TrapKind> {
        let func = self.cur_func(thread)?;
        let Some(frame) = thread.frames.last() else {
            return Err(malformed("branch with no frame"));
        };
        let from = frame.block;
        // Evaluate all phi inputs before writing any. The verifier gives
        // each leading phi exactly one incoming per predecessor.
        let mut writes: Vec<(InstId, RtVal)> = Vec::new();
        for &iid in &func.blocks[target.index()].insts {
            let Inst::Phi { incomings, .. } = &func.insts[iid.index()] else {
                break;
            };
            for inc in incomings.iter().filter(|i| i.pred == from) {
                writes.push((iid, self.eval(thread, inc.value)?));
            }
        }
        let Some(frame) = thread.frames.last_mut() else {
            return Err(malformed("branch with no frame"));
        };
        frame.block = target;
        frame.inst_idx = writes.len();
        self.counters.instructions += writes.len() as u64;
        for (iid, v) in writes {
            frame.regs[iid.index()] = v;
        }
        Ok(())
    }
}

/// The IR site of instruction `iid` in the thread's live frame.
fn loc_of(thread: &ThreadCtx<Frame>, iid: InstId) -> Option<IrLoc> {
    thread.frames.last().map(|f| IrLoc {
        func: f.func,
        block: f.block.0,
        inst: iid.0,
    })
}
