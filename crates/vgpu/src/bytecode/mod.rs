//! The bytecode execution tier: a register-allocated, pre-resolved program
//! form and its linear dispatch loop.
//!
//! Lowering (`lower.rs`) runs once per module and moves every per-step
//! lookup the interpreter performs out of the hot loop:
//!
//! * **Register allocation** — SSA results that code a block lists (or a
//!   terminator) uses get a dense value slot; dead results share one
//!   scratch slot. Frames carry a flat `Vec<RtVal>` sized to the slot
//!   count instead of the instruction arena.
//! * **Pre-translated operands** ([`Src`]) — instruction results become
//!   slot reads, params become argument reads, constants (including
//!   resolved global addresses and function pointers) are immediate
//!   values. Operands the interpreter would reject at evaluation time
//!   become [`Src::Trap`] entries that reproduce the exact trap lazily.
//! * **Pre-resolved control flow** ([`Edge`]) — branch targets are op
//!   offsets and phi materialization is a pre-computed parallel move list;
//!   the superinstruction shape (operand fetch fused into each op,
//!   branch plus phi-moves fused into each edge) is what removes the
//!   per-step arena/block/operand chasing.
//!
//! The dispatch loop keeps the interpreter's observable behavior *bit for
//! bit*: one op is one fuel unit and one step, fault polls and step
//! budget checks fire at identical op counts, cycle/instruction accounting
//! uses the same [`cost`](crate::cost) table in the same
//! order, and malformed shapes trap with the interpreter's exact messages
//! at the exact op where the interpreter would meet them (lowering never
//! fails eagerly). See `docs/exec-tiers.md` for the full contract.

mod lower;

pub(crate) use lower::lower_module;

use nzomp_ir::inst::{AtomicOp, BinOp, CastKind, Pred, UnOp};
use nzomp_ir::{OpClass, Ty};

use crate::cost;
use crate::error::TrapKind;
use crate::exec::{malformed, ExecBackend, Status, TeamExec, ThreadCtx};
use crate::gmem::{rtval_from_bits, GlobalMem};
use crate::memory::{DevPtr, Segment};
use crate::ops::{combine_atomic, corrupt_value, exec_bin, exec_cast, exec_cmp, exec_un};
use crate::sanitize::{AccessKind, IrLoc};
use crate::value::RtVal;

/// A pre-translated operand. Resolution that the interpreter performs per
/// evaluation (arena lookup, constant tagging, global address lookup) has
/// already happened; what remains is a slot read, an argument read, or a
/// lazily-reproduced evaluation trap. Immediates (constants, resolved
/// globals, function pointers) have no variant of their own: lowering
/// interns each into a dedicated value slot that frame setup pre-fills
/// (see [`BcFunc::regs0`]), so the overwhelmingly common operand kind is
/// `Reg` and the read compiles to a compare plus an unchecked load — a
/// third operand kind turns this match into an indirect jump per operand,
/// which measurably drags the dispatch loop.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// Value slot in the current frame.
    Reg(u32),
    /// Function argument `n` (bounds-checked at read, like the
    /// interpreter's param lookup — callees can be entered with any arity
    /// through indirect calls of hand-built modules).
    Arg(u32),
    /// Evaluating this operand traps (e.g. it references a missing arena
    /// instruction). Index into [`BcFunc::traps`]. Lazy: the trap fires
    /// only if and when the operand is actually evaluated.
    Trap(u32),
}

/// A resolved control-flow edge: where to go and which phi moves to
/// materialize (parallel-copy semantics, evaluated in phi listing order).
#[derive(Clone, Debug)]
pub(crate) enum Edge {
    Go {
        /// Target op offset (the target block's first post-phi op).
        pc: u32,
        /// `(dst_slot, src)` per leading phi of the target block. A
        /// malformed phi (missing incoming / missing arena entry) appears
        /// as a [`Src::Trap`] move at its listing position, so traps
        /// interleave with prior phi evaluations exactly as in the
        /// interpreter's jump scan.
        moves: Box<[(u32, Src)]>,
    },
    /// Taking this edge traps (branch to a missing block).
    Trap(u32),
}

/// One bytecode op. Each op corresponds to exactly one interpreter step —
/// one fuel unit, one fault-poll point — so cross-tier step counts align.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Bin { op: BinOp, a: Src, b: Src, dst: u32 },
    Un { op: UnOp, a: Src, dst: u32 },
    Cast { kind: CastKind, to: Ty, a: Src, dst: u32 },
    Cmp { pred: Pred, float: bool, a: Src, b: Src, dst: u32 },
    Select { c: Src, t: Src, f: Src, dst: u32 },
    Load { ty: Ty, p: Src, dst: u32 },
    Store { ty: Ty, p: Src, v: Src },
    PtrAdd { a: Src, b: Src, dst: u32 },
    /// `size` is pre-aligned to 8 bytes at lowering.
    Alloca { size: u64, dst: u32 },
    /// Direct call, statically resolved and checked at lowering.
    Call {
        target: u32,
        args: Box<[Src]>,
        ret_dst: Option<u32>,
        runtime: bool,
    },
    /// Indirect call; the callee is resolved and checked at dispatch.
    CallInd {
        callee: Src,
        args: Box<[Src]>,
        ret_dst: Option<u32>,
    },
    Atomic {
        op: AtomicOp,
        ty: Ty,
        p: Src,
        v: Src,
        dst: u32,
        /// Whether the result register is live (pre-computed from the
        /// used-results map; buffered global atomics validate their
        /// observed value at the wave merge exactly when it is).
        used: bool,
    },
    Cas { ty: Ty, p: Src, e: Src, n: Src, dst: u32 },
    ThreadId { dst: u32 },
    TeamId { dst: u32 },
    BlockDim { dst: u32 },
    GridDim { dst: u32 },
    Barrier { aligned: bool },
    /// `None` reproduces the interpreter's missing-operand trap — but only
    /// when assume checking is enabled, exactly like the interpreter.
    Assume { c: Option<Src> },
    Malloc { size: Src, dst: u32 },
    Free { p: Src },
    Br { edge: u32 },
    CondBr { c: Src, t: u32, f: u32 },
    Ret { v: Option<Src> },
    /// Trap without instruction accounting (terminator-position traps and
    /// pre-issue malformed shapes: missing blocks, missing arena entries).
    TrapBare { t: u32 },
    /// Trap *as* an instruction: charge issue + count the instruction,
    /// then trap (e.g. direct call of a declaration, phi executed
    /// directly, `assert.fail`).
    TrapInst { t: u32 },
}

/// One lowered function.
#[derive(Clone, Debug)]
pub(crate) struct BcFunc {
    pub ops: Vec<Op>,
    /// `(block, inst)` IR position per op — the sanitizer's [`IrLoc`]
    /// side table (consulted only when sanitizing is armed).
    pub locs: Vec<(u32, u32)>,
    pub edges: Vec<Edge>,
    /// Pre-built trap values (malformed-IR messages, static call errors).
    pub traps: Vec<TrapKind>,
    /// The register file a frame of this function starts from, one entry
    /// per value slot (slot 0 is the shared dead-result scratch): zero,
    /// except that every interned immediate operand already sits in its
    /// dedicated slot (disjoint from every instruction-result slot), so
    /// operands reference immediates as plain [`Src::Reg`] reads and
    /// frame setup is one copy.
    pub regs0: Vec<RtVal>,
    /// Entry op offset.
    pub entry: u32,
}

/// Per-function call metadata for indirect-call checks at dispatch.
#[derive(Clone, Debug)]
pub(crate) struct FuncMeta {
    pub name: String,
    pub params: u32,
    pub is_decl: bool,
    /// OpenMP runtime entry point (`__kmpc*` / `omp_*`) — counted as a
    /// runtime call.
    pub runtime: bool,
}

/// A whole module lowered to bytecode. Pure function of the IR module and
/// the device's global layout, so the device caches it across launches.
#[derive(Clone, Debug)]
pub(crate) struct BcModule {
    pub funcs: Vec<BcFunc>,
    pub meta: Vec<FuncMeta>,
}

/// One bytecode call frame.
#[derive(Debug)]
pub(crate) struct BcFrame {
    func: u32,
    pc: u32,
    regs: Vec<RtVal>,
    args: Vec<RtVal>,
    /// Caller value slot that receives the return value.
    ret_dst: Option<u32>,
    /// Thread-local stack watermark to restore on return.
    local_base: u64,
}

/// The bytecode backend: a shared reference to the lowered module.
pub(crate) struct BcBackend<'a> {
    pub bc: &'a BcModule,
}

/// Fast operand read. Returns `None` for [`Src::Trap`] and
/// out-of-range indexes; [`getv_err`] reconstructs the exact trap on
/// that cold path. Keeping the hot return at 16 bytes (vs. a
/// `Result<_, TrapKind>` at 40) matters: this runs 1–3× per op.
#[inline(always)]
fn getv(regs: &[RtVal], frame: &BcFrame, s: &Src) -> Option<RtVal> {
    match *s {
        // SAFETY: every `Reg` index a lowered function can name is
        // range-checked against the function's slot count by the
        // validation gate in `lower.rs` (`validated`), and a frame's
        // register file is always a copy of the function's `regs0`, one
        // entry per slot. Verified once at lowering,
        // dispatched unchecked (the JVM/Wasm layout). `Arg` stays
        // checked: callee arity varies at runtime through indirect calls.
        Src::Reg(i) => {
            debug_assert!((i as usize) < regs.len());
            Some(unsafe { *regs.get_unchecked(i as usize) })
        }
        Src::Arg(i) => frame.args.get(i as usize).copied(),
        Src::Trap(_) => None,
    }
}

/// The slow half of [`getv`]: rebuild the trap a failed read stands for.
#[cold]
fn getv_err(traps: &[TrapKind], s: &Src) -> TrapKind {
    match *s {
        Src::Reg(_) => malformed("bytecode register out of range"),
        Src::Arg(i) => malformed(format!("operand references missing param {i}")),
        Src::Trap(t) => trap_at(traps, t),
    }
}

/// A fresh frame register file: a copy of the function's template.
fn fresh_regs(f: &BcFunc) -> Vec<RtVal> {
    f.regs0.clone()
}

#[inline(always)]
fn setv(regs: &mut [RtVal], i: u32, v: RtVal) {
    // The dead-result scratch (slot 0) absorbs every dead write.
    // SAFETY: destination slots are range-checked against the slot count
    // by the validation gate in `lower.rs` (`validated`), and a frame's
    // register file is always a copy of the function's `regs0`.
    debug_assert!((i as usize) < regs.len());
    unsafe { *regs.get_unchecked_mut(i as usize) = v }
}

#[cold]
fn trap_at(traps: &[TrapKind], t: u32) -> TrapKind {
    traps
        .get(t as usize)
        .cloned()
        .unwrap_or_else(|| malformed("bytecode trap index out of range"))
}

#[inline]
fn loc_of(cur: &BcFunc, func: u32, opi: usize) -> IrLoc {
    let (block, inst) = cur.locs.get(opi).copied().unwrap_or((0, 0));
    IrLoc { func, block, inst }
}

impl<'a> ExecBackend<'a> for BcBackend<'a> {
    type Frame = BcFrame;

    fn kernel_frame(
        exec: &TeamExec<'a, Self>,
        kernel: u32,
        args: &[RtVal],
        spent: Option<BcFrame>,
    ) -> Result<BcFrame, TrapKind> {
        let Some(f) = exec.backend.bc.funcs.get(kernel as usize) else {
            return Err(malformed(format!("kernel index {kernel} out of range")));
        };
        // A spent kernel frame lends its two vectors; every field is set.
        let (mut regs, mut argv) = spent.map(|s| (s.regs, s.args)).unwrap_or_default();
        regs.clear();
        regs.extend_from_slice(&f.regs0);
        argv.clear();
        argv.extend_from_slice(args);
        Ok(BcFrame {
            func: kernel,
            pc: f.entry,
            regs,
            args: argv,
            ret_dst: None,
            local_base: 0,
        })
    }

    fn run_thread(
        exec: &mut TeamExec<'a, Self>,
        thread: &mut ThreadCtx<BcFrame>,
    ) -> Result<(), TrapKind> {
        let bc: &'a BcModule = exec.backend.bc;
        let Some(mut frame) = thread.frames.pop() else {
            return Err(malformed("live thread has no frame"));
        };
        let mut cur: &'a BcFunc = match bc.funcs.get(frame.func as usize) {
            Some(f) => f,
            None => {
                let e = malformed(format!("frame references missing function {}", frame.func));
                thread.frames.push(frame);
                return Err(e);
            }
        };
        // Hoisted views of the current function's tables: plain slice
        // locals (re-set on call/return) so the dispatch loop never
        // reloads the `BcFunc` fields per op.
        let mut ops: &'a [Op] = &cur.ops;
        let mut traps: &'a [TrapKind] = &cur.traps;
        let mut edges: &'a [Edge] = &cur.edges;

        // Reusable phi parallel-copy buffer (no per-branch allocation).
        let mut movebuf: Vec<RtVal> = Vec::new();

        // The live frame's value slots, held as a plain local for the
        // whole run (restored into the frame at every exit, call and
        // return) so slot reads/writes don't round-trip the frame struct.
        let mut regs: Vec<RtVal> = std::mem::take(&mut frame.regs);

        // Hot accounting state, cached in locals for the whole run: the
        // compiler cannot keep these in registers on its own because every
        // memory helper takes `&mut exec` / `&thread`. `sync!` writes the
        // exact values back at every exit (trap, barrier, return) and the
        // step counter is synced before the fault-poll slow path, so no
        // observable state ever lags. (`next_fault` is a read cache of
        // `thread.next_fault_step`, reloaded after each poll — the poll is
        // its only writer.)
        // The op cursor is a raw pointer rather than an index: `Op` is 40
        // bytes, so an indexed fetch pays a multiply on every dispatch,
        // while a pointer is a plain load + bump. It is rebased whenever
        // `ops` changes (call/return) and folded back to an index by
        // `cur_pc!` at every (cold) exit.
        // SAFETY: `frame.pc` is always in range for `ops` — it is either a
        // validated entry pc or a resume point stored by this loop, and the
        // validation gate in `lower.rs` guarantees neither a `Call` nor a
        // `Barrier` can be the last op (the last op is a terminator), so a
        // stored "next op" index never reaches `ops.len()`.
        debug_assert!((frame.pc as usize) < ops.len());
        let mut op_ptr: *const Op = unsafe { ops.as_ptr().add(frame.pc as usize) };
        macro_rules! cur_pc {
            () => {
                ((op_ptr as usize - ops.as_ptr() as usize) / std::mem::size_of::<Op>()) as u32
            };
        }
        // Fuel, the step counter and the dispatch counter all advance by
        // exactly one per dispatched op, so the loop carries a single
        // progress counter `n` (ops whose fuel is consumed this run) with
        // precomputed trip points instead of three live counters.
        let fuel0 = exec.fuel;
        let steps0 = thread.steps;
        let dispatched0 = exec.counters.dispatched;
        let mut n: u64 = 0;
        let mut fault_at = thread.next_fault_step.saturating_sub(steps0);
        let mut instructions = exec.counters.instructions;
        let mut flops = exec.counters.flops;
        // `busy_cycles` advances in lockstep with `cycles` inside a run, so
        // deriving it at exit drops an add from every issue/charge.
        let cycles0 = thread.cycles;
        let busy0 = thread.busy_cycles;
        let mut cycles = cycles0;
        let mut memc = thread.mem_cycles;

        macro_rules! sync {
            () => {{
                exec.fuel = fuel0 - n;
                thread.steps = steps0 + n;
                exec.counters.dispatched = dispatched0 + n;
                exec.counters.instructions = instructions;
                exec.counters.flops = flops;
                thread.cycles = cycles;
                thread.busy_cycles = busy0 + (cycles - cycles0);
                thread.mem_cycles = memc;
            }};
        }
        // Exit with an error. A single epilogue below the dispatch loop
        // performs the frame restore and counter write-back — keeping ~30
        // trap sites down to one `break` each keeps the loop body small
        // (code bloat in the exits measurably degrades hot-path codegen).
        macro_rules! fail {
            ($e:expr) => {{
                break ($e, false);
            }};
        }
        macro_rules! try_v {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(k) => fail!(k),
                }
            };
        }
        // Operand read with the trap rebuilt off the hot path.
        macro_rules! readv {
            ($s:expr) => {{
                let s = $s;
                match getv(&regs, &frame, s) {
                    Some(v) => v,
                    None => fail!(getv_err(traps, s)),
                }
            }};
        }
        // Instruction accounting (instruction-position ops only;
        // terminators charge nothing, exactly like the interpreter).
        macro_rules! issue {
            () => {{
                instructions += 1;
                cycles += cost::ISSUE;
            }};
        }
        macro_rules! charge {
            ($c:expr) => {{
                cycles += $c;
            }};
        }
        macro_rules! charge_mem {
            ($c:expr) => {{
                let c = $c;
                cycles += c;
                memc += c;
            }};
        }
        // Take a resolved edge: materialize phi moves (evaluate all, then
        // write all), count them, and jump.
        macro_rules! follow {
            ($ei:expr) => {{
                // SAFETY: edge indexes are range-checked by the
                // validation gate in `lower.rs`.
                debug_assert!(($ei as usize) < edges.len());
                match unsafe { edges.get_unchecked($ei as usize) } {
                    Edge::Go { pc: target, moves } => {
                        // Parallel copy: all reads precede all writes. One-
                        // and two-move edges (the overwhelming majority of
                        // phi rotations) stay out of the spill buffer.
                        match &moves[..] {
                            [] => {}
                            [(d, s)] => {
                                let v = readv!(s);
                                setv(&mut regs, *d, v);
                                instructions += 1;
                            }
                            [(d0, s0), (d1, s1)] => {
                                let v0 = readv!(s0);
                                let v1 = readv!(s1);
                                setv(&mut regs, *d0, v0);
                                setv(&mut regs, *d1, v1);
                                instructions += 2;
                            }
                            moves => {
                                // Unlabeled `fail!` can't cross an inner
                                // loop, so record the bad operand and trap
                                // after the `for` instead.
                                movebuf.clear();
                                let mut bad: Option<&Src> = None;
                                for (_, s) in moves.iter() {
                                    match getv(&regs, &frame, s) {
                                        Some(v) => movebuf.push(v),
                                        None => {
                                            bad = Some(s);
                                            break;
                                        }
                                    }
                                }
                                if let Some(s) = bad {
                                    fail!(getv_err(traps, s));
                                }
                                for ((d, _), v) in moves.iter().zip(movebuf.iter()) {
                                    setv(&mut regs, *d, *v);
                                }
                                instructions += moves.len() as u64;
                            }
                        }
                        // SAFETY: edge targets are range-checked by the
                        // validation gate in `lower.rs`.
                        debug_assert!((*target as usize) < ops.len());
                        op_ptr = unsafe { ops.as_ptr().add(*target as usize) };
                    }
                    Edge::Trap(t) => fail!(trap_at(traps, *t)),
                }
            }};
        }

        // Step prologue — identical, op for op, to the interpreter's
        // run_thread: fuel check, fault poll against the step counter,
        // then dispatch.
        macro_rules! prologue {
            () => {{
                if n == fuel0 {
                    fail!(TrapKind::FuelExhausted);
                }
                n += 1; // this op's fuel is spent even if the poll traps
                if n > fault_at {
                    // Poll runs between the fuel charge and the
                    // step/dispatch increments, so a trap here leaves
                    // `steps` and `dispatched` one short of `n` — the
                    // epilogue corrects by the `at_poll` flag.
                    match exec.poll_fault(thread, steps0, n) {
                        Ok(fa) => fault_at = fa,
                        Err(k) => break (k, true),
                    }
                }
            }};
        }

        let (err, at_poll): (TrapKind, bool) = loop {
            prologue!();
            // SAFETY: the validation gate in `lower.rs` guarantees the
            // cursor can never reach one past the end: the entry and every
            // branch target are in range and the last op never falls
            // through, so the post-increment cursor is at most one-past-end
            // (legal to form) and is only dereferenced while in range.
            debug_assert!(ops.as_ptr_range().contains(&op_ptr));
            let op = unsafe { &*op_ptr };
            op_ptr = unsafe { op_ptr.add(1) };

            match op {
                Op::Bin { op, a, b, dst } => {
                    issue!();
                    let av = readv!(a);
                    let bv = readv!(b);
                    let v = try_v!(exec_bin(*op, av, bv));
                    if op.is_float() {
                        flops += 1;
                        charge!(cost::FP);
                    } else {
                        charge!(cost::ALU);
                    }
                    setv(&mut regs, *dst, v);
                }
                Op::Un { op, a, dst } => {
                    issue!();
                    let av = readv!(a);
                    let v = exec_un(*op, av);
                    let class = op.class();
                    if class != OpClass::Alu {
                        flops += 1;
                    }
                    charge!(cost::class(class));
                    setv(&mut regs, *dst, v);
                }
                Op::Cast { kind, to, a, dst } => {
                    issue!();
                    let av = readv!(a);
                    let v = exec_cast(*kind, *to, av);
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, v);
                }
                Op::Cmp {
                    pred,
                    float,
                    a,
                    b,
                    dst,
                } => {
                    issue!();
                    let av = readv!(a);
                    let bv = readv!(b);
                    let v = exec_cmp(*pred, *float, av, bv);
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, RtVal::I(v as i64));
                }
                Op::Select { c, t, f, dst } => {
                    issue!();
                    let cv = readv!(c).as_bool();
                    let v = if cv {
                        readv!(t)
                    } else {
                        readv!(f)
                    };
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, v);
                }
                Op::Load { ty, p, dst } => {
                    issue!();
                    let pv = readv!(p).as_ptr();
                    charge_mem!(cost::mem(pv.segment()));
                    let bits = try_v!(exec.mem_read(thread, pv, ty.size()));
                    let mut v = rtval_from_bits(bits, *ty);
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Read, pv, ty.size());
                    }
                    if let Some(xor) = thread.corrupt_next_load.take() {
                        v = corrupt_value(v, xor, *ty);
                    }
                    setv(&mut regs, *dst, v);
                }
                Op::Store { ty, p, v } => {
                    issue!();
                    let pv = readv!(p).as_ptr();
                    let vv = readv!(v);
                    charge_mem!(cost::mem(pv.segment()));
                    try_v!(exec.mem_write(thread, pv, ty.size(), vv.to_bits()));
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Write, pv, ty.size());
                    }
                }
                Op::PtrAdd { a, b, dst } => {
                    issue!();
                    let base = readv!(a).as_ptr();
                    let off = readv!(b).as_i();
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, RtVal::P(base.add_bytes(off)));
                }
                Op::Alloca { size, dst } => {
                    issue!();
                    let off = thread.local_top;
                    thread.local_top += size;
                    thread.local.grow_to(thread.local_top as usize);
                    setv(&mut regs, *dst, RtVal::P(DevPtr::local(thread.tid, off as u32)));
                }
                Op::Call {
                    target,
                    args,
                    ret_dst,
                    runtime,
                } => {
                    issue!();
                    charge!(cost::CALL);
                    if *runtime {
                        exec.counters.runtime_calls += 1;
                    }
                    let Some(callee) = bc.funcs.get(*target as usize) else {
                        fail!(TrapKind::BadIndirectCall);
                    };
                    let mut argv = Vec::with_capacity(args.len());
                    let mut bad: Option<&Src> = None;
                    for s in args.iter() {
                        match getv(&regs, &frame, s) {
                            Some(v) => argv.push(v),
                            None => {
                                bad = Some(s);
                                break;
                            }
                        }
                    }
                    if let Some(s) = bad {
                        fail!(getv_err(traps, s));
                    }
                    exec.san_on_call(*target, &argv);
                    let new_frame = BcFrame {
                        func: *target,
                        pc: callee.entry,
                        regs: fresh_regs(callee),
                        args: argv,
                        ret_dst: *ret_dst,
                        local_base: thread.local_top,
                    };
                    frame.pc = cur_pc!();
                    frame.regs = regs;
                    thread.frames.push(std::mem::replace(&mut frame, new_frame));
                    regs = std::mem::take(&mut frame.regs);
                    cur = callee;
                    ops = &cur.ops;
                    traps = &cur.traps;
                    edges = &cur.edges;
                    // SAFETY: `frame.pc` is the callee's validated entry.
                    debug_assert!((frame.pc as usize) < ops.len());
                    op_ptr = unsafe { ops.as_ptr().add(frame.pc as usize) };
                }
                Op::CallInd {
                    callee,
                    args,
                    ret_dst,
                } => {
                    issue!();
                    let cp = readv!(callee).as_ptr();
                    if cp.segment() != Segment::Func {
                        fail!(TrapKind::BadIndirectCall);
                    }
                    let target = cp.offset() as u32;
                    let Some(m) = bc.meta.get(target as usize) else {
                        fail!(TrapKind::BadIndirectCall);
                    };
                    if m.is_decl {
                        fail!(TrapKind::UnresolvedCall(m.name.clone()));
                    }
                    if m.params as usize != args.len() {
                        fail!(TrapKind::BadLaunch(format!(
                            "call of @{} with {} args (expects {})",
                            m.name,
                            args.len(),
                            m.params
                        )));
                    }
                    charge!(cost::CALL);
                    charge!(cost::INDIRECT_CALL);
                    if m.runtime {
                        exec.counters.runtime_calls += 1;
                    }
                    let Some(callee_fn) = bc.funcs.get(target as usize) else {
                        fail!(TrapKind::BadIndirectCall);
                    };
                    let mut argv = Vec::with_capacity(args.len());
                    let mut bad: Option<&Src> = None;
                    for s in args.iter() {
                        match getv(&regs, &frame, s) {
                            Some(v) => argv.push(v),
                            None => {
                                bad = Some(s);
                                break;
                            }
                        }
                    }
                    if let Some(s) = bad {
                        fail!(getv_err(traps, s));
                    }
                    exec.san_on_call(target, &argv);
                    let new_frame = BcFrame {
                        func: target,
                        pc: callee_fn.entry,
                        regs: fresh_regs(callee_fn),
                        args: argv,
                        ret_dst: *ret_dst,
                        local_base: thread.local_top,
                    };
                    frame.pc = cur_pc!();
                    frame.regs = regs;
                    thread.frames.push(std::mem::replace(&mut frame, new_frame));
                    regs = std::mem::take(&mut frame.regs);
                    cur = callee_fn;
                    ops = &cur.ops;
                    traps = &cur.traps;
                    edges = &cur.edges;
                    // SAFETY: `frame.pc` is the callee's validated entry.
                    debug_assert!((frame.pc as usize) < ops.len());
                    op_ptr = unsafe { ops.as_ptr().add(frame.pc as usize) };
                }
                Op::Atomic {
                    op,
                    ty,
                    p,
                    v,
                    dst,
                    used,
                } => {
                    issue!();
                    let pv = readv!(p).as_ptr();
                    let vv = readv!(v);
                    charge_mem!(cost::ATOMIC);
                    if pv.segment() == Segment::Global {
                        exec.counters.global_accesses += 2;
                        let result_used = match &exec.global {
                            GlobalMem::Direct { .. } => true,
                            GlobalMem::Buffered(_) => *used,
                        };
                        let old =
                            try_v!(exec.global.atomic(*op, *ty, pv.offset(), vv, result_used));
                        setv(&mut regs, *dst, old);
                    } else {
                        let old = try_v!(exec.load_typed(thread, pv, *ty));
                        let new = combine_atomic(*op, *ty, old, vv);
                        try_v!(exec.mem_write(thread, pv, ty.size(), new.to_bits()));
                        setv(&mut regs, *dst, old);
                    }
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Atomic, pv, ty.size());
                    }
                }
                Op::Cas { ty, p, e, n, dst } => {
                    issue!();
                    let pv = readv!(p).as_ptr();
                    let ev = readv!(e);
                    let nv = readv!(n);
                    charge_mem!(cost::ATOMIC);
                    if pv.segment() == Segment::Global {
                        exec.counters.global_accesses += 1;
                        let (old, stored) =
                            try_v!(exec.global.cas(*ty, pv.offset(), ev.to_bits(), nv.to_bits()));
                        if stored {
                            exec.counters.global_accesses += 1;
                        }
                        setv(&mut regs, *dst, old);
                    } else {
                        let old = try_v!(exec.load_typed(thread, pv, *ty));
                        if old.to_bits() == ev.to_bits() {
                            try_v!(exec.mem_write(thread, pv, ty.size(), nv.to_bits()));
                        }
                        setv(&mut regs, *dst, old);
                    }
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Atomic, pv, ty.size());
                    }
                }
                Op::ThreadId { dst } => {
                    issue!();
                    setv(&mut regs, *dst, RtVal::I(thread.tid as i64));
                }
                Op::TeamId { dst } => {
                    issue!();
                    setv(&mut regs, *dst, RtVal::I(exec.team_id as i64));
                }
                Op::BlockDim { dst } => {
                    issue!();
                    setv(&mut regs, *dst, RtVal::I(exec.nthreads as i64));
                }
                Op::GridDim { dst } => {
                    issue!();
                    setv(&mut regs, *dst, RtVal::I(exec.num_teams as i64));
                }
                Op::Barrier { aligned } => {
                    issue!();
                    if thread.drop_next_barrier {
                        // Injected fault: sail past the barrier; the team
                        // scheduler observes the broken promise downstream.
                        thread.drop_next_barrier = false;
                    } else {
                        if exec.san_armed() {
                            thread.barrier_site = Some(loc_of(cur, frame.func, cur_pc!() as usize - 1));
                        }
                        thread.status = Status::AtBarrier { aligned: *aligned };
                        frame.pc = cur_pc!();
                        frame.regs = regs;
                        sync!();
                        thread.frames.push(frame);
                        return Ok(());
                    }
                }
                Op::Assume { c } => {
                    issue!();
                    if exec.check_assumes {
                        let Some(s) = c else {
                            fail!(malformed("assume intrinsic with no operand"));
                        };
                        let cv = readv!(s).as_bool();
                        if !cv {
                            fail!(TrapKind::AssumeViolated);
                        }
                    }
                }
                Op::Malloc { size, dst } => {
                    issue!();
                    let sz = readv!(size).as_i().max(0) as u64;
                    charge_mem!(cost::MALLOC);
                    exec.counters.device_mallocs += 1;
                    let off = try_v!(exec.heap_alloc(sz));
                    setv(&mut regs, *dst, RtVal::P(DevPtr::global(off as u32)));
                }
                Op::Free { p } => {
                    issue!();
                    let pv = readv!(p).as_ptr();
                    if !pv.is_null() {
                        try_v!(exec.heap_free(pv));
                    }
                }
                Op::Br { edge } => {
                    follow!(*edge);
                }
                Op::CondBr { c, t, f } => {
                    let cv = readv!(c).as_bool();
                    charge!(cost::ALU);
                    follow!(if cv { *t } else { *f });
                }
                Op::Ret { v } => {
                    let val = match v {
                        Some(s) => Some(readv!(s)),
                        None => None,
                    };
                    thread.local_top = frame.local_base;
                    match thread.frames.pop() {
                        None => {
                            // The kernel frame has returned: it stays on
                            // the stack for the team to hand on.
                            frame.regs = regs;
                            thread.frames.push(frame);
                            thread.status = Status::Done;
                            sync!();
                            return Ok(());
                        }
                        Some(parent) => {
                            let ret_dst = frame.ret_dst;
                            frame = parent;
                            regs = std::mem::take(&mut frame.regs);
                            cur = match bc.funcs.get(frame.func as usize) {
                                Some(f) => f,
                                None => {
                                    // Can't reach the shared epilogue: the
                                    // cursor is stale (it indexes the
                                    // callee's ops) and the parent's stored
                                    // resume pc must survive untouched, so
                                    // this cold path exits by hand.
                                    let e = malformed(format!(
                                        "frame references missing function {}",
                                        frame.func
                                    ));
                                    frame.regs = regs;
                                    sync!();
                                    thread.frames.push(frame);
                                    return Err(e);
                                }
                            };
                            ops = &cur.ops;
                            traps = &cur.traps;
                            edges = &cur.edges;
                            // SAFETY: the resume pc was stored by this loop
                            // from this function's own ops, and a `Call` is
                            // never the last op (the validation gate puts a
                            // terminator there), so it is in range.
                            debug_assert!((frame.pc as usize) < ops.len());
                            op_ptr = unsafe { ops.as_ptr().add(frame.pc as usize) };
                            if let (Some(d), Some(v)) = (ret_dst, val) {
                                setv(&mut regs, d, v);
                            }
                        }
                    }
                }
                Op::TrapBare { t } => {
                    fail!(trap_at(traps, *t));
                }
                Op::TrapInst { t } => {
                    issue!();
                    fail!(trap_at(traps, *t));
                }
            }
        };
        // The one trap exit: restore the live frame and write the exact
        // counters back. A fault-poll trap spent this op's fuel but never
        // reached the step/dispatch increments.
        frame.pc = cur_pc!();
        frame.regs = regs;
        let done = if at_poll { n - 1 } else { n };
        exec.fuel = fuel0 - n;
        thread.steps = steps0 + done;
        exec.counters.dispatched = dispatched0 + done;
        exec.counters.instructions = instructions;
        exec.counters.flops = flops;
        thread.cycles = cycles;
        thread.busy_cycles = busy0 + (cycles - cycles0);
        thread.mem_cycles = memc;
        thread.frames.push(frame);
        Err(err)
    }
}
