//! The bytecode execution tier: a register-allocated, pre-resolved program
//! form and its linear dispatch loop.
//!
//! Lowering (`lower.rs`) runs once per module and moves every per-step
//! lookup the interpreter performs out of the hot loop:
//!
//! * **Register allocation** — a function's parameters are its slots
//!   `1..=params`, and SSA results that code a block lists (or a
//!   terminator) uses get the dense slots after them; dead results share
//!   the scratch slot 0. Frames carry a flat `Vec<u64>` sized to the slot
//!   count instead of the instruction arena, and a call or launch writes
//!   its arguments into it.
//! * **Registers are bits** — a slot holds a value's raw 64 bits with no
//!   type tag, be it a parameter, a result or an immediate. Each op reads
//!   them in the domain its operator's static class names (`ops::bits_*`,
//!   over the same `nzomp_ir` rules the interpreter's tagged adapters
//!   use), loads and stores move the bits as they are, and `RtVal` appears
//!   only at the edges: launch arguments (converted once per thread in
//!   `kernel_frame`) and the operand and result of an atomic, which
//!   [`TeamExec::atomic`] performs for both tiers. The sanitizer's release
//!   hook reads a call's first two arguments as bits on both tiers
//!   ([`TeamExec::san_on_call`]; here the callee's slots 1 and 2), so it
//!   needs no tag. That is the interpreter's behaviour exactly when every
//!   operand is read in the domain it was produced in, which is what the
//!   verifier's value-domain rule ([`nzomp_ir::verify_domains`]) checks.
//!   Only verified modules are lowered, and `Device::launch` refuses an
//!   argument whose tag contradicts its parameter, on both tiers.
//! * **Pre-translated operands** ([`Src`]) — every operand is one slot
//!   read: an instruction result's slot, a parameter's slot, or the slot
//!   an immediate (a constant, a resolved global address, a function
//!   pointer) is interned into.
//! * **One op per operator** — every binary operator and every integer
//!   predicate is its own [`Op`] variant (lowering's `binary` and
//!   `compare` are the one map onto them), so the jump on the op tag is
//!   the only dispatch a step takes: each arm calls the `nzomp_ir`
//!   evaluator with a constant operator, whose inner `match` folds away.
//!   Float compares keep their predicate in one `FCmp`; unary operators
//!   and casts keep theirs too, being rare and mostly libm calls.
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
//! order, and the traps verified IR can reach (a direct call of a
//! declaration, `assert.fail`, `unreachable`, an indirect call's checks)
//! carry the interpreter's exact kinds and messages. What an op does to
//! the machine — memory, atomics, barrier arrival, the device heap, a
//! call's checks — is not this loop's code: it calls the same
//! [`TeamExec`] methods the interpreter does, and only decodes operands,
//! charges cycles and writes results. Malformed IR is not lowered at
//! all: every launch of an image the verifier rejects is refused. See
//! `docs/exec-tiers.md` for the full contract.

mod lower;

pub(crate) use lower::lower_module;

use nzomp_ir::inst::{AtomicOp, BinOp, CastKind, Pred, UnOp};
use nzomp_ir::{OpClass, Ty};

use crate::cost;
use crate::error::TrapKind;
use crate::exec::{malformed, ExecBackend, Status, TeamExec, ThreadCtx};
use crate::gmem::rtval_from_bits;
use crate::memory::DevPtr;
use crate::ops::{bits_bin, bits_cast, bits_cmp, bits_un};
use crate::sanitize::{AccessKind, IrLoc};
use crate::value::RtVal;

/// A pre-translated operand: a value slot of the current frame.
/// Resolution that the interpreter performs per evaluation (arena lookup,
/// parameter lookup, constant tagging, global address lookup) has already
/// happened. Parameter `p` is slot `1 + p`, which a call or launch writes,
/// and each immediate (constant, resolved global, function pointer) has a
/// dedicated slot that frame setup pre-fills (see [`BcFunc::regs0`]), so
/// the read is one unchecked load with no operand kind to branch on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Src(pub u32);

/// A resolved control-flow edge: where to go and which phi moves to
/// materialize (parallel-copy semantics, evaluated in phi listing order).
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    /// Target op offset (the target block's first post-phi op).
    pub pc: u32,
    /// `(dst_slot, src)` per leading phi of the target block.
    pub moves: Box<[(u32, Src)]>,
}

/// One bytecode op. Each op corresponds to exactly one interpreter step —
/// one fuel unit, one fault-poll point — so cross-tier step counts align.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    // One op per binary operator, in `BinOp::ALL` order, and one per
    // integer predicate, in `Pred::ALL` order: the op tag names the
    // operator, so one indirect jump reaches its code. Lowering's
    // `binary` and `compare` are the one map onto them.
    Add { a: Src, b: Src, dst: u32 },
    Sub { a: Src, b: Src, dst: u32 },
    Mul { a: Src, b: Src, dst: u32 },
    SDiv { a: Src, b: Src, dst: u32 },
    SRem { a: Src, b: Src, dst: u32 },
    UDiv { a: Src, b: Src, dst: u32 },
    URem { a: Src, b: Src, dst: u32 },
    And { a: Src, b: Src, dst: u32 },
    Or { a: Src, b: Src, dst: u32 },
    Xor { a: Src, b: Src, dst: u32 },
    Shl { a: Src, b: Src, dst: u32 },
    LShr { a: Src, b: Src, dst: u32 },
    AShr { a: Src, b: Src, dst: u32 },
    SMin { a: Src, b: Src, dst: u32 },
    SMax { a: Src, b: Src, dst: u32 },
    FAdd { a: Src, b: Src, dst: u32 },
    FSub { a: Src, b: Src, dst: u32 },
    FMul { a: Src, b: Src, dst: u32 },
    FDiv { a: Src, b: Src, dst: u32 },
    FMin { a: Src, b: Src, dst: u32 },
    FMax { a: Src, b: Src, dst: u32 },
    ICmpEq { a: Src, b: Src, dst: u32 },
    ICmpNe { a: Src, b: Src, dst: u32 },
    ICmpSlt { a: Src, b: Src, dst: u32 },
    ICmpSle { a: Src, b: Src, dst: u32 },
    ICmpSgt { a: Src, b: Src, dst: u32 },
    ICmpSge { a: Src, b: Src, dst: u32 },
    ICmpUlt { a: Src, b: Src, dst: u32 },
    ICmpUle { a: Src, b: Src, dst: u32 },
    ICmpUgt { a: Src, b: Src, dst: u32 },
    ICmpUge { a: Src, b: Src, dst: u32 },
    /// A float compare: rare enough (well under 1 % of dispatches) to keep
    /// its predicate as an operand.
    FCmp { pred: Pred, a: Src, b: Src, dst: u32 },
    Un { op: UnOp, a: Src, dst: u32 },
    Cast { kind: CastKind, to: Ty, a: Src, dst: u32 },
    Select { c: Src, t: Src, f: Src, dst: u32 },
    Load { ty: Ty, p: Src, dst: u32 },
    Store { ty: Ty, p: Src, v: Src },
    PtrAdd { a: Src, b: Src, dst: u32 },
    /// `size` as the IR states it; [`ThreadCtx::alloca`] aligns and
    /// bounds it.
    Alloca { size: u64, dst: u32 },
    /// Direct call, statically resolved; the gate checks its arity and
    /// target.
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
        /// Whether the result register is live (the image's live-result
        /// table, `Image::live_results`; buffered global atomics validate
        /// their observed value at the wave merge exactly when it is).
        used: bool,
    },
    Cas { ty: Ty, p: Src, e: Src, n: Src, dst: u32 },
    ThreadId { dst: u32 },
    TeamId { dst: u32 },
    BlockDim { dst: u32 },
    GridDim { dst: u32 },
    Barrier { aligned: bool },
    Assume { c: Src },
    Malloc { size: Src, dst: u32 },
    Free { p: Src },
    Br { edge: u32 },
    CondBr { c: Src, t: u32, f: u32 },
    Ret { v: Option<Src> },
    /// Trap without instruction accounting (`unreachable`, and the first
    /// step of a declaration's body).
    TrapBare { t: u32 },
    /// Trap *as* an instruction: charge issue + count the instruction,
    /// then trap (a direct call of a declaration, `assert.fail`).
    TrapInst { t: u32 },
}

const _: () = assert!(size_of::<Op>() == 32);

/// One lowered function.
#[derive(Clone, Debug)]
pub(crate) struct BcFunc {
    pub ops: Vec<Op>,
    /// `(block, inst)` IR position per op — the sanitizer's [`IrLoc`]
    /// side table (consulted only when sanitizing is armed).
    pub locs: Vec<(u32, u32)>,
    pub edges: Vec<Edge>,
    /// Pre-built trap values of the trap ops.
    pub traps: Vec<TrapKind>,
    /// The register file a frame of this function starts from, one entry
    /// per value slot (slot 0 is the shared dead-result scratch, slots
    /// `1..=params` the parameters): zero, except that every interned
    /// immediate operand already sits in its dedicated slot (after every
    /// parameter and instruction-result slot), so operands reference
    /// immediates as plain slot reads and frame setup is one copy plus
    /// the arguments.
    pub regs0: Vec<u64>,
}

/// A whole module lowered to bytecode. Pure function of the IR module and
/// the device's global layout, so the device caches it across launches.
/// One [`BcFunc`] per function of the module, at the function's index.
#[derive(Clone, Debug)]
pub(crate) struct BcModule {
    pub funcs: Vec<BcFunc>,
}

/// One bytecode call frame.
#[derive(Debug)]
pub(crate) struct BcFrame<'a> {
    /// The function this frame runs.
    code: &'a BcFunc,
    /// Its index in the module (the sanitizer's [`IrLoc`]).
    func: u32,
    pc: u32,
    regs: Vec<u64>,
    /// Caller value slot that receives the return value.
    ret_dst: Option<u32>,
    /// Thread-local stack watermark to restore on return.
    local_base: u64,
}

/// The bytecode backend: a shared reference to the lowered module.
pub(crate) struct BcBackend<'a> {
    pub bc: &'a BcModule,
}

/// Operand read; runs 1–3× per op.
#[inline(always)]
fn getv(regs: &[u64], s: &Src) -> u64 {
    // SAFETY: every operand slot a lowered function can name is
    // range-checked against the function's slot count by the validation
    // gate in `lower.rs` (`validated`), and a frame's register file is
    // always a copy of the function's `regs0`, one entry per slot.
    // Verified once at lowering, dispatched unchecked (the JVM/Wasm
    // layout).
    debug_assert!((s.0 as usize) < regs.len());
    unsafe { *regs.get_unchecked(s.0 as usize) }
}

#[inline(always)]
fn setv(regs: &mut [u64], i: u32, v: u64) {
    // The dead-result scratch (slot 0) absorbs every dead write.
    // SAFETY: destination slots are range-checked against the slot count
    // by the validation gate in `lower.rs` (`validated`), and a frame's
    // register file is always a copy of the function's `regs0`. An
    // argument's slot `1 + i` is a parameter slot of the callee, which
    // the gate holds below its slot count: `calls_fit` gives a direct call
    // exactly its callee's parameters, and `TeamExec::call_target` an
    // indirect one.
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
    type Frame = BcFrame<'a>;

    fn kernel_frame(
        exec: &TeamExec<'a, Self>,
        kernel: u32,
        args: &[RtVal],
        spent: Option<BcFrame<'a>>,
    ) -> Result<BcFrame<'a>, TrapKind> {
        let Some(f) = exec.backend.bc.funcs.get(kernel as usize) else {
            return Err(malformed(format!("kernel index {kernel} out of range")));
        };
        // A spent kernel frame lends its register file; every field is
        // set. The launch checked the argument count, and the gate holds
        // a slot for each parameter.
        let mut regs = spent.map(|s| s.regs).unwrap_or_default();
        regs.clear();
        regs.extend_from_slice(&f.regs0);
        for (r, a) in regs.iter_mut().skip(1).zip(args) {
            *r = a.to_bits() as u64;
        }
        Ok(BcFrame {
            code: f,
            func: kernel,
            pc: 0,
            regs,
            ret_dst: None,
            local_base: 0,
        })
    }

    fn run_thread(
        exec: &mut TeamExec<'a, Self>,
        thread: &mut ThreadCtx<BcFrame<'a>>,
    ) -> Result<(), TrapKind> {
        let bc: &'a BcModule = exec.backend.bc;
        let Some(mut frame) = thread.frames.pop() else {
            return Err(malformed("live thread has no frame"));
        };
        let mut cur: &'a BcFunc = frame.code;
        // Hoisted views of the current function's tables: plain slice
        // locals (re-set on call/return) so the dispatch loop never
        // reloads the `BcFunc` fields per op.
        let mut ops: &'a [Op] = &cur.ops;
        let mut traps: &'a [TrapKind] = &cur.traps;
        let mut edges: &'a [Edge] = &cur.edges;

        // Reusable phi parallel-copy buffer (no per-branch allocation).
        let mut movebuf: Vec<u64> = Vec::new();

        // The live frame's value slots, held as a plain local for the
        // whole run (restored into the frame at every exit, call and
        // return) so slot reads/writes don't round-trip the frame struct.
        let mut regs: Vec<u64> = std::mem::take(&mut frame.regs);

        // Hot accounting state, cached in locals for the whole run: the
        // compiler cannot keep these in registers on its own because every
        // memory helper takes `&mut exec` / `&thread`. `sync!` writes the
        // exact values back at every exit (trap, barrier, return) and the
        // step counter is synced before the fault-poll slow path, so no
        // observable state ever lags. (`next_fault` is a read cache of
        // `thread.next_fault_step`, reloaded after each poll — the poll is
        // its only writer.)
        // The op cursor is a raw pointer rather than an index: a pointer
        // is a plain load + bump per dispatch, and with the 32-byte `Op`
        // an index cursor still read `exec_seq` 2.8 % lower (5 of 6 pairs
        // lost) and `serve_heavy` 0.9 % lower in the median. It is
        // rebased whenever `ops` changes (call/return) and folded back to
        // an index by `cur_pc!` at every (cold) exit.
        // SAFETY: `frame.pc` is always in range for `ops` — it is either
        // the entry (op 0; the gate holds `ops` non-empty) or a resume
        // point stored by this loop, and the
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
        // performs the frame restore and counter write-back — keeping ~20
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
        macro_rules! readv {
            ($s:expr) => {
                getv(&regs, $s)
            };
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
        // A binary operator or a compare, its operator a constant at each
        // use, so the evaluator's inner `match` folds away and one jump on
        // the op tag reaches the operator's code. One body for every arm:
        // issue, both reads, the evaluation (a zero divisor traps here,
        // issued but uncharged), the charge and the write, in the
        // interpreter's order.
        macro_rules! arith {
            ($a:expr, $b:expr, $dst:expr, $eval:expr, $flop:expr) => {{
                issue!();
                let av = readv!($a);
                let bv = readv!($b);
                let v = try_v!($eval(av, bv));
                if $flop {
                    flops += 1;
                    charge!(cost::FP);
                } else {
                    charge!(cost::ALU);
                }
                setv(&mut regs, *$dst, v);
            }};
        }
        macro_rules! binary {
            ($op:expr, $a:expr, $b:expr, $dst:expr) => {
                arith!($a, $b, $dst, |x, y| bits_bin($op, x, y), $op.is_float())
            };
        }
        macro_rules! compare {
            ($pred:expr, $float:expr, $a:expr, $b:expr, $dst:expr) => {
                arith!($a, $b, $dst, |x, y| Ok::<_, TrapKind>(bits_cmp($pred, $float, x, y) as u64), false)
            };
        }
        // Take a resolved edge: materialize phi moves (evaluate all, then
        // write all), count them, and jump.
        macro_rules! follow {
            ($ei:expr) => {{
                // SAFETY: edge indexes are range-checked by the
                // validation gate in `lower.rs`.
                debug_assert!(($ei as usize) < edges.len());
                let Edge { pc: target, moves } = unsafe { edges.get_unchecked($ei as usize) };
                // Parallel copy: all reads precede all writes. One- and
                // two-move edges (the overwhelming majority of phi
                // rotations) stay out of the spill buffer.
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
                        movebuf.clear();
                        movebuf.extend(moves.iter().map(|(_, s)| readv!(s)));
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
            }};
        }

        // Call `$callee` (function `$target`) with `$args` read in the
        // caller's frame and written to the callee's parameter slots
        // `1..=params`: the sanitizer's release hook sees the first two,
        // the caller's frame is saved, and the callee's op 0 runs next.
        macro_rules! enter {
            ($target:expr, $callee:expr, $args:expr, $ret_dst:expr) => {{
                let callee: &'a BcFunc = $callee;
                let mut callee_regs = callee.regs0.clone();
                for (i, s) in $args.iter().enumerate() {
                    setv(&mut callee_regs, i as u32 + 1, readv!(s));
                }
                if exec.san_armed() && $args.len() >= 2 {
                    if let [_, addr, size, ..] = callee_regs[..] {
                        exec.san_on_call($target, addr, size);
                    }
                }
                let new_frame = BcFrame {
                    code: callee,
                    func: $target,
                    pc: 0,
                    regs: callee_regs,
                    ret_dst: $ret_dst,
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
                // A function's entry is its op 0.
                op_ptr = ops.as_ptr();
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
                Op::Add { a, b, dst } => binary!(BinOp::Add, a, b, dst),
                Op::Sub { a, b, dst } => binary!(BinOp::Sub, a, b, dst),
                Op::Mul { a, b, dst } => binary!(BinOp::Mul, a, b, dst),
                Op::SDiv { a, b, dst } => binary!(BinOp::SDiv, a, b, dst),
                Op::SRem { a, b, dst } => binary!(BinOp::SRem, a, b, dst),
                Op::UDiv { a, b, dst } => binary!(BinOp::UDiv, a, b, dst),
                Op::URem { a, b, dst } => binary!(BinOp::URem, a, b, dst),
                Op::And { a, b, dst } => binary!(BinOp::And, a, b, dst),
                Op::Or { a, b, dst } => binary!(BinOp::Or, a, b, dst),
                Op::Xor { a, b, dst } => binary!(BinOp::Xor, a, b, dst),
                Op::Shl { a, b, dst } => binary!(BinOp::Shl, a, b, dst),
                Op::LShr { a, b, dst } => binary!(BinOp::LShr, a, b, dst),
                Op::AShr { a, b, dst } => binary!(BinOp::AShr, a, b, dst),
                Op::SMin { a, b, dst } => binary!(BinOp::SMin, a, b, dst),
                Op::SMax { a, b, dst } => binary!(BinOp::SMax, a, b, dst),
                Op::FAdd { a, b, dst } => binary!(BinOp::FAdd, a, b, dst),
                Op::FSub { a, b, dst } => binary!(BinOp::FSub, a, b, dst),
                Op::FMul { a, b, dst } => binary!(BinOp::FMul, a, b, dst),
                Op::FDiv { a, b, dst } => binary!(BinOp::FDiv, a, b, dst),
                Op::FMin { a, b, dst } => binary!(BinOp::FMin, a, b, dst),
                Op::FMax { a, b, dst } => binary!(BinOp::FMax, a, b, dst),
                Op::ICmpEq { a, b, dst } => compare!(Pred::Eq, false, a, b, dst),
                Op::ICmpNe { a, b, dst } => compare!(Pred::Ne, false, a, b, dst),
                Op::ICmpSlt { a, b, dst } => compare!(Pred::Slt, false, a, b, dst),
                Op::ICmpSle { a, b, dst } => compare!(Pred::Sle, false, a, b, dst),
                Op::ICmpSgt { a, b, dst } => compare!(Pred::Sgt, false, a, b, dst),
                Op::ICmpSge { a, b, dst } => compare!(Pred::Sge, false, a, b, dst),
                Op::ICmpUlt { a, b, dst } => compare!(Pred::Ult, false, a, b, dst),
                Op::ICmpUle { a, b, dst } => compare!(Pred::Ule, false, a, b, dst),
                Op::ICmpUgt { a, b, dst } => compare!(Pred::Ugt, false, a, b, dst),
                Op::ICmpUge { a, b, dst } => compare!(Pred::Uge, false, a, b, dst),
                Op::FCmp { pred, a, b, dst } => compare!(*pred, true, a, b, dst),
                Op::Un { op, a, dst } => {
                    issue!();
                    let av = readv!(a);
                    let v = bits_un(*op, av);
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
                    let v = bits_cast(*kind, *to, av);
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, v);
                }
                Op::Select { c, t, f, dst } => {
                    issue!();
                    let cv = readv!(c) != 0;
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
                    let pv = DevPtr(readv!(p));
                    charge_mem!(cost::mem(pv.segment()));
                    let mut v = try_v!(exec.mem_read(thread, pv, ty.size())) as u64;
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Read, pv, ty.size());
                    }
                    if let Some(xor) = thread.corrupt_next_load.take() {
                        v ^= xor;
                    }
                    setv(&mut regs, *dst, v);
                }
                Op::Store { ty, p, v } => {
                    issue!();
                    let pv = DevPtr(readv!(p));
                    let vv = readv!(v);
                    charge_mem!(cost::mem(pv.segment()));
                    try_v!(exec.mem_write(thread, pv, ty.size(), vv as i64));
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Write, pv, ty.size());
                    }
                }
                Op::PtrAdd { a, b, dst } => {
                    issue!();
                    let base = DevPtr(readv!(a));
                    let off = readv!(b) as i64;
                    charge!(cost::ALU);
                    setv(&mut regs, *dst, base.add_bytes(off).0);
                }
                Op::Alloca { size, dst } => {
                    issue!();
                    let off = try_v!(thread.alloca(*size));
                    setv(&mut regs, *dst, DevPtr::local(thread.tid, off).0);
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
                    // The gate's `calls_fit` holds every direct target
                    // to a function of the module.
                    enter!(*target, &bc.funcs[*target as usize], args, *ret_dst);
                }
                Op::CallInd {
                    callee,
                    args,
                    ret_dst,
                } => {
                    issue!();
                    let target = try_v!(exec.call_target(DevPtr(readv!(callee)), args.len()));
                    charge!(cost::CALL);
                    charge!(cost::INDIRECT_CALL);
                    // `call_target` returns only a defined function's index.
                    enter!(target, &bc.funcs[target as usize], args, *ret_dst);
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
                    let pv = DevPtr(readv!(p));
                    // The operand as the tagged engine would combine it:
                    // the domain rule puts it in the domain of `ty` unless
                    // the op is an exchange, which stores its bits as
                    // they are.
                    let vv = rtval_from_bits(readv!(v) as i64, *ty);
                    charge_mem!(cost::ATOMIC);
                    let old = try_v!(exec.atomic(thread, *op, *ty, pv, vv, *used));
                    setv(&mut regs, *dst, old.to_bits() as u64);
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Atomic, pv, ty.size());
                    }
                }
                Op::Cas { ty, p, e, n, dst } => {
                    issue!();
                    let pv = DevPtr(readv!(p));
                    let ev = readv!(e) as i64;
                    let nv = readv!(n) as i64;
                    charge_mem!(cost::ATOMIC);
                    let old = try_v!(exec.cas(thread, *ty, pv, ev, nv));
                    setv(&mut regs, *dst, old.to_bits() as u64);
                    if exec.san_armed() {
                        let loc = loc_of(cur, frame.func, cur_pc!() as usize - 1);
                        exec.san_record(thread.tid, loc, AccessKind::Atomic, pv, ty.size());
                    }
                }
                Op::ThreadId { dst } => {
                    issue!();
                    setv(&mut regs, *dst, thread.tid as u64);
                }
                Op::TeamId { dst } => {
                    issue!();
                    setv(&mut regs, *dst, exec.team_id as u64);
                }
                Op::BlockDim { dst } => {
                    issue!();
                    setv(&mut regs, *dst, exec.nthreads as u64);
                }
                Op::GridDim { dst } => {
                    issue!();
                    setv(&mut regs, *dst, exec.num_teams as u64);
                }
                Op::Barrier { aligned } => {
                    issue!();
                    let (func, pc) = (frame.func, cur_pc!());
                    if exec.arrive(thread, *aligned, move || Some(loc_of(cur, func, pc as usize - 1))) {
                        frame.pc = pc;
                        frame.regs = regs;
                        sync!();
                        thread.frames.push(frame);
                        return Ok(());
                    }
                }
                Op::Assume { c } => {
                    issue!();
                    if exec.check_assumes && readv!(c) == 0 {
                        fail!(TrapKind::AssumeViolated);
                    }
                }
                Op::Malloc { size, dst } => {
                    issue!();
                    let sz = readv!(size) as i64;
                    charge_mem!(cost::MALLOC);
                    let p = try_v!(exec.malloc(sz));
                    setv(&mut regs, *dst, p.0);
                }
                Op::Free { p } => {
                    issue!();
                    try_v!(exec.free(DevPtr(readv!(p))));
                }
                Op::Br { edge } => {
                    follow!(*edge);
                }
                Op::CondBr { c, t, f } => {
                    let cv = readv!(c) != 0;
                    charge!(cost::ALU);
                    follow!(if cv { *t } else { *f });
                }
                Op::Ret { v } => {
                    let val = v.map(|s| readv!(&s));
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
                            cur = frame.code;
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
