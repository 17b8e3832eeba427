//! Ergonomic construction of functions.

use crate::func::{Block, BlockId, FnAttrs, Function, Linkage};
use crate::inst::{AtomicOp, BinOp, CastKind, Inst, InstId, Intrinsic, Pred, Term, UnOp};
use crate::types::Ty;
use crate::value::{Operand, PhiIncoming};

/// Builder for one function. Instructions are appended to the *current*
/// block; `switch_to` moves the insertion point. The finished function is
/// obtained with [`FuncBuilder::finish`].
pub struct FuncBuilder {
    func: Function,
    cur: BlockId,
}

impl FuncBuilder {
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> FuncBuilder {
        let func = Function {
            name: name.into(),
            params,
            ret,
            blocks: vec![Block::new()],
            insts: Vec::new(),
            attrs: FnAttrs::default(),
            linkage: Linkage::External,
        };
        FuncBuilder {
            func,
            cur: BlockId::ENTRY,
        }
    }

    pub fn attrs_mut(&mut self) -> &mut FnAttrs {
        &mut self.func.attrs
    }

    pub fn set_linkage(&mut self, l: Linkage) {
        self.func.linkage = l;
    }

    /// `n`-th parameter as an operand.
    pub fn param(&self, n: u32) -> Operand {
        assert!(
            (n as usize) < self.func.params.len(),
            "param {} out of range in {}",
            n,
            self.func.name
        );
        Operand::Param(n)
    }

    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    fn push(&mut self, inst: Inst) -> InstId {
        let id = self.func.add_inst(inst);
        self.func.blocks[self.cur.index()].insts.push(id);
        id
    }

    fn push_val(&mut self, inst: Inst) -> Operand {
        Operand::Inst(self.push(inst))
    }

    // ---- arithmetic -----------------------------------------------------

    pub fn bin(&mut self, op: BinOp, ty: Ty, lhs: Operand, rhs: Operand) -> Operand {
        self.push_val(Inst::Bin { op, ty, lhs, rhs })
    }

    pub fn add(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Add, Ty::I64, lhs, rhs)
    }

    pub fn sub(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Sub, Ty::I64, lhs, rhs)
    }

    pub fn mul(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Mul, Ty::I64, lhs, rhs)
    }

    pub fn sdiv(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::SDiv, Ty::I64, lhs, rhs)
    }

    pub fn srem(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::SRem, Ty::I64, lhs, rhs)
    }

    pub fn and(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::And, Ty::I64, lhs, rhs)
    }

    pub fn or(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Or, Ty::I64, lhs, rhs)
    }

    pub fn shl(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::Shl, Ty::I64, lhs, rhs)
    }

    pub fn fadd(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::FAdd, Ty::F64, lhs, rhs)
    }

    pub fn fsub(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::FSub, Ty::F64, lhs, rhs)
    }

    pub fn fmul(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::FMul, Ty::F64, lhs, rhs)
    }

    pub fn fdiv(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.bin(BinOp::FDiv, Ty::F64, lhs, rhs)
    }

    pub fn un(&mut self, op: UnOp, ty: Ty, arg: Operand) -> Operand {
        self.push_val(Inst::Un { op, ty, arg })
    }

    pub fn sqrt(&mut self, arg: Operand) -> Operand {
        self.un(UnOp::Sqrt, Ty::F64, arg)
    }

    pub fn cast(&mut self, kind: CastKind, to: Ty, arg: Operand) -> Operand {
        self.push_val(Inst::Cast { kind, to, arg })
    }

    pub fn si_to_fp(&mut self, arg: Operand) -> Operand {
        self.cast(CastKind::SiToFp, Ty::F64, arg)
    }

    pub fn fp_to_si(&mut self, arg: Operand) -> Operand {
        self.cast(CastKind::FpToSi, Ty::I64, arg)
    }

    // ---- comparisons / select -------------------------------------------

    pub fn cmp(&mut self, pred: Pred, ty: Ty, lhs: Operand, rhs: Operand) -> Operand {
        self.push_val(Inst::Cmp { pred, ty, lhs, rhs })
    }

    pub fn icmp_eq(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.cmp(Pred::Eq, Ty::I64, lhs, rhs)
    }

    pub fn icmp_ne(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.cmp(Pred::Ne, Ty::I64, lhs, rhs)
    }

    pub fn icmp_slt(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.cmp(Pred::Slt, Ty::I64, lhs, rhs)
    }

    pub fn icmp_sge(&mut self, lhs: Operand, rhs: Operand) -> Operand {
        self.cmp(Pred::Sge, Ty::I64, lhs, rhs)
    }

    pub fn select(&mut self, ty: Ty, cond: Operand, t: Operand, f: Operand) -> Operand {
        self.push_val(Inst::Select {
            ty,
            cond,
            if_true: t,
            if_false: f,
        })
    }

    // ---- memory ----------------------------------------------------------

    pub fn load(&mut self, ty: Ty, ptr: Operand) -> Operand {
        self.push_val(Inst::Load { ty, ptr })
    }

    pub fn store(&mut self, ty: Ty, ptr: Operand, value: Operand) {
        self.push(Inst::Store { ty, ptr, value });
    }

    pub fn ptr_add(&mut self, base: Operand, offset: Operand) -> Operand {
        self.push_val(Inst::PtrAdd { base, offset })
    }

    /// `base + idx * scale` — the common array-indexing GEP.
    pub fn gep(&mut self, base: Operand, idx: Operand, scale: u64) -> Operand {
        let off = self.mul(idx, Operand::i64(scale as i64));
        self.ptr_add(base, off)
    }

    /// Allocate `size` bytes of thread-local memory. Placed in the entry
    /// block regardless of the current insertion point so that the lifetime
    /// covers the whole function (as LLVM requires for static allocas).
    pub fn alloca(&mut self, size: u64) -> Operand {
        let id = self.func.add_inst(Inst::Alloca { size });
        // Insert after any existing allocas at the top of the entry block.
        let entry = &self.func.blocks[BlockId::ENTRY.index()];
        let pos = entry
            .insts
            .iter()
            .position(|i| !matches!(self.func.insts[i.index()], Inst::Alloca { .. }))
            .unwrap_or(entry.insts.len());
        self.func.blocks[BlockId::ENTRY.index()].insts.insert(pos, id);
        Operand::Inst(id)
    }

    pub fn atomic(&mut self, op: AtomicOp, ty: Ty, ptr: Operand, value: Operand) -> Operand {
        self.push_val(Inst::Atomic { op, ty, ptr, value })
    }

    pub fn atomic_add(&mut self, ty: Ty, ptr: Operand, value: Operand) -> Operand {
        self.atomic(AtomicOp::Add, ty, ptr, value)
    }

    pub fn cas(&mut self, ty: Ty, ptr: Operand, expected: Operand, new: Operand) -> Operand {
        self.push_val(Inst::Cas {
            ty,
            ptr,
            expected,
            new,
        })
    }

    // ---- calls / intrinsics ----------------------------------------------

    pub fn call(&mut self, callee: Operand, args: Vec<Operand>, ret: Option<Ty>) -> Option<Operand> {
        let id = self.push(Inst::Call { callee, args, ret });
        ret.map(|_| Operand::Inst(id))
    }

    pub fn intr(&mut self, intr: Intrinsic, args: Vec<Operand>) -> Option<Operand> {
        let id = self.push(Inst::Intr { intr, args });
        intr.result_ty().map(|_| Operand::Inst(id))
    }

    /// Like [`intr`](FuncBuilder::intr) for intrinsics that always produce
    /// a result.
    fn intr_val(&mut self, intr: Intrinsic, args: Vec<Operand>) -> Operand {
        let id = self.push(Inst::Intr { intr, args });
        Operand::Inst(id)
    }

    pub fn thread_id(&mut self) -> Operand {
        self.intr_val(Intrinsic::ThreadId, vec![])
    }

    pub fn block_id(&mut self) -> Operand {
        self.intr_val(Intrinsic::BlockId, vec![])
    }

    pub fn block_dim(&mut self) -> Operand {
        self.intr_val(Intrinsic::BlockDim, vec![])
    }

    pub fn grid_dim(&mut self) -> Operand {
        self.intr_val(Intrinsic::GridDim, vec![])
    }

    pub fn aligned_barrier(&mut self) {
        self.intr(Intrinsic::AlignedBarrier, vec![]);
    }

    pub fn barrier(&mut self) {
        self.intr(Intrinsic::Barrier, vec![]);
    }

    pub fn assume(&mut self, cond: Operand) {
        self.intr(Intrinsic::Assume(()), vec![cond]);
    }

    pub fn malloc(&mut self, size: Operand) -> Operand {
        self.intr_val(Intrinsic::Malloc, vec![size])
    }

    pub fn free(&mut self, ptr: Operand) {
        self.intr(Intrinsic::Free, vec![ptr]);
    }

    pub fn assert_fail(&mut self) {
        self.intr(Intrinsic::AssertFail, vec![]);
    }

    pub fn phi(&mut self, ty: Ty, incomings: Vec<(BlockId, Operand)>) -> Operand {
        let incomings = incomings
            .into_iter()
            .map(|(pred, value)| PhiIncoming { pred, value })
            .collect();
        // Phis must precede non-phi instructions in their block.
        let id = self.func.add_inst(Inst::Phi { ty, incomings });
        let blk = &self.func.blocks[self.cur.index()];
        let pos = blk
            .insts
            .iter()
            .position(|i| !self.func.insts[i.index()].is_phi())
            .unwrap_or(blk.insts.len());
        self.func.blocks[self.cur.index()].insts.insert(pos, id);
        Operand::Inst(id)
    }

    /// Add a later-filled incoming edge to an existing phi.
    pub fn phi_add_incoming(&mut self, phi: Operand, pred: BlockId, value: Operand) {
        let Operand::Inst(id) = phi else {
            panic!("phi_add_incoming on non-instruction")
        };
        match self.func.inst_mut(id) {
            Inst::Phi { incomings, .. } => incomings.push(PhiIncoming { pred, value }),
            _ => panic!("phi_add_incoming on non-phi"),
        }
    }

    // ---- terminators -----------------------------------------------------

    pub fn br(&mut self, target: BlockId) {
        self.func.blocks[self.cur.index()].term = Term::Br(target);
    }

    pub fn cond_br(&mut self, cond: Operand, if_true: BlockId, if_false: BlockId) {
        self.func.blocks[self.cur.index()].term = Term::CondBr {
            cond,
            if_true,
            if_false,
        };
    }

    pub fn ret(&mut self, value: Option<Operand>) {
        self.func.blocks[self.cur.index()].term = Term::Ret(value);
    }

    pub fn unreachable(&mut self) {
        self.func.blocks[self.cur.index()].term = Term::Unreachable;
    }

    pub fn finish(self) -> Function {
        self.func
    }
}

/// Build a simple loop `for (i = lo; i < hi; i += step) body(i)`.
///
/// `body` receives the builder and the induction variable and must leave the
/// insertion point in a block that falls through (it must not install a
/// terminator in its final block). Returns after the loop with the insertion
/// point in the exit block.
pub fn build_counted_loop(
    b: &mut FuncBuilder,
    lo: Operand,
    hi: Operand,
    step: Operand,
    body: impl FnOnce(&mut FuncBuilder, Operand),
) {
    let preheader = b.current_block();
    let header = b.new_block();
    let body_bb = b.new_block();
    let exit = b.new_block();

    b.br(header);
    b.switch_to(header);
    let iv = b.phi(Ty::I64, vec![(preheader, lo)]);
    let cond = b.icmp_slt(iv, hi);
    b.cond_br(cond, body_bb, exit);

    b.switch_to(body_bb);
    body(b, iv);
    let next = b.add(iv, step);
    let latch = b.current_block();
    b.br(header);
    b.phi_add_incoming(iv, latch, next);

    b.switch_to(exit);
}
