//! The co-designed OpenMP GPU device runtime (paper §III), built from
//! scratch as an IR library.
//!
//! Design points reproduced one-for-one:
//!
//! * **SPMD-mode flag** in static shared memory, set once during
//!   initialization by the main thread and never changed; the mode is also
//!   passed *by value* so optimized builds never read it (§III-A).
//! * **Team ICV state** in static shared memory, initialized by the main
//!   thread with conditional-pointer writes (Fig. 7b) followed by an aligned
//!   barrier and `assume`s of the written values (Fig. 8b) so the compiler
//!   can fold later reads (§III-B, §IV-B3).
//! * **Thread states**: a pointer array in shared memory, NULLed by each
//!   thread at init; individual thread ICV states are only allocated when a
//!   nested data environment is entered, from the shared-memory stack
//!   (§III-C).
//! * **Shared-memory stack** with device-`malloc` fallback (§III-D).
//! * **Combined worksharing loops** following the `noChunkImpl` pseudocode
//!   of Fig. 5, with the oversubscription flags lowered to constant globals
//!   that break the loops at compile time (§III-F).
//! * **Zero-overhead debugging**: a constant `debug_kind` global guards
//!   assertion and tracing paths; in release builds they fold away and
//!   assertions become assumptions (§III-G).

use nzomp_ir::{
    FuncBuilder, Function, Global, GlobalId, Init, Module, Operand, Pred, Space, Ty,
};

use crate::abi::{self, team_state as ts, thread_state as th};
use crate::helpers::{
    align8, array_slot_ptr, assume_field_eq, call_val, callee, cond_write, define_all, field_ptr,
};

/// Global ids of the runtime state, needed while building function bodies.
struct Ctx {
    is_spmd: GlobalId,
    team_state: GlobalId,
    thread_states: GlobalId,
    stack: GlobalId,
    stack_top: GlobalId,
    dummy: GlobalId,
    debug_kind: GlobalId,
    teams_oversub: GlobalId,
    threads_oversub: GlobalId,
    trace_count: GlobalId,
}

/// Build the modern runtime module. The three configuration globals carry
/// their default initialisers; the crate root patches them on the copy a
/// compile links.
pub fn build() -> Module {
    let mut m = Module::new("nzomp-rt-modern");

    let ctx = Ctx {
        is_spmd: m.add_global(Global::new(abi::G_IS_SPMD, Space::Shared, 8, Init::Zero)),
        team_state: m.add_global(Global::new(
            abi::G_TEAM_STATE,
            Space::Shared,
            ts::SIZE,
            Init::Zero,
        )),
        thread_states: m.add_global(Global::new(
            abi::G_THREAD_STATES,
            Space::Shared,
            8 * abi::MAX_THREADS,
            Init::Zero,
        )),
        stack: m.add_global(Global::new(
            abi::G_SMEM_STACK,
            Space::Shared,
            abi::SMEM_STACK_SIZE,
            Init::Zero,
        )),
        stack_top: m.add_global(Global::new(
            abi::G_SMEM_STACK_TOP,
            Space::Shared,
            8,
            Init::Zero,
        )),
        dummy: m.add_global(Global::new(
            abi::G_COND_WRITE_DUMMY,
            Space::Shared,
            8,
            Init::Zero,
        )),
        // The compile-time configuration globals (§III-F/G): constant space,
        // value set by the "compiler driver" at link time.
        debug_kind: m.add_global(Global::constant(
            abi::G_DEBUG_KIND,
            Space::Constant,
            8,
            Init::I64(0),
        )),
        teams_oversub: m.add_global(Global::constant(
            abi::G_ASSUME_TEAMS_OVERSUB,
            Space::Constant,
            8,
            Init::I64(0),
        )),
        threads_oversub: m.add_global(Global::constant(
            abi::G_ASSUME_THREADS_OVERSUB,
            Space::Constant,
            8,
            Init::I64(0),
        )),
        trace_count: m.add_global(Global::new(
            abi::G_TRACE_COUNT,
            Space::Global,
            8,
            Init::Zero,
        )),
    };

    // Every entry point, in declaration order (function indices, and so
    // every printed module, depend on it); all are declared before any body
    // is built, so bodies can reference each other.
    define_all(&mut m, &[
        (abi::NZOMP_TRACE, &|_| build_trace(&ctx)),
        (abi::NZOMP_ASSERT, &|m| build_assert(m, &ctx)),
        (abi::SYNCTHREADS_ALIGNED, &|_| build_syncthreads_aligned()),
        (abi::KMPC_BARRIER, &|m| build_kmpc_barrier(m, &ctx)),
        (abi::TARGET_INIT, &|m| build_target_init(m, &ctx)),
        (abi::TARGET_DEINIT, &|m| build_target_deinit(m, &ctx)),
        (abi::OMP_GET_THREAD_NUM, &|m| build_get_thread_num(m, &ctx)),
        (abi::OMP_GET_NUM_THREADS, &|m| build_get_num_threads(m, &ctx)),
        (abi::OMP_GET_LEVEL, &|m| build_get_level(m, &ctx)),
        (abi::OMP_GET_TEAM_NUM, &build_get_team_num),
        (abi::OMP_GET_NUM_TEAMS, &build_get_num_teams),
        (abi::ALLOC_SHARED, &|m| build_alloc_shared(m, &ctx)),
        (abi::FREE_SHARED, &|m| build_free_shared(m, &ctx)),
        (abi::PARALLEL_51, &|m| build_parallel_51(m, &ctx)),
        (abi::PARALLEL_SPMD, &build_parallel_spmd),
        (abi::WORKER_LOOP, &|m| build_worker_loop(m, &ctx)),
        (abi::DIST_PAR_FOR_LOOP, &|m| build_dist_par_for(m, &ctx)),
        (abi::FOR_STATIC_LOOP, &|m| build_for_static_loop(m, &ctx)),
        (abi::DISTRIBUTE_STATIC_LOOP, &|m| build_distribute_static_loop(m, &ctx)),
    ]);

    if let Err(e) = nzomp_ir::verify_module(&m) {
        unreachable!("modern runtime verifies: {e}");
    }
    m
}

// ---------------------------------------------------------------------------
// Debug machinery (§III-G)
// ---------------------------------------------------------------------------

/// `__nzomp_trace`: in builds with function tracing enabled, count runtime
/// entries in a global counter; otherwise trivially dead.
fn build_trace(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::NZOMP_TRACE, vec![], None);
    b.attrs_mut().always_inline = true;
    let dk = b.load(Ty::I64, Operand::Global(ctx.debug_kind));
    let bit = b.and(dk, Operand::i64(abi::DEBUG_FUNCTION_TRACING));
    let on = b.icmp_ne(bit, Operand::i64(0));
    let trace_bb = b.new_block();
    let done = b.new_block();
    b.cond_br(on, trace_bb, done);
    b.switch_to(trace_bb);
    b.atomic_add(Ty::I64, Operand::Global(ctx.trace_count), Operand::i64(1));
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

/// `__nzomp_assert(cond)`: with assertions enabled, verify and abort on
/// failure; in release the condition becomes a compiler assumption
/// ("if not, thus in release mode, the condition will automatically become
/// an assumption", §III-G).
fn build_assert(m: &Module, ctx: &Ctx) -> Function {
    let _ = m;
    let mut b = FuncBuilder::new(abi::NZOMP_ASSERT, vec![Ty::I1], None);
    b.attrs_mut().always_inline = true;
    let cond = b.param(0);
    let dk = b.load(Ty::I64, Operand::Global(ctx.debug_kind));
    let bit = b.and(dk, Operand::i64(abi::DEBUG_ASSERTIONS));
    let on = b.icmp_ne(bit, Operand::i64(0));
    let check = b.new_block();
    let relax = b.new_block();
    let fail = b.new_block();
    let done = b.new_block();
    b.cond_br(on, check, relax);
    b.switch_to(check);
    b.cond_br(cond, done, fail);
    b.switch_to(fail);
    b.assert_fail();
    b.unreachable();
    b.switch_to(relax);
    b.assume(cond);
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

/// The aligned barrier of Fig. 6: annotated `ext_aligned_barrier` and
/// `ext_no_call_asm`.
fn build_syncthreads_aligned() -> Function {
    let mut b = FuncBuilder::new(abi::SYNCTHREADS_ALIGNED, vec![], None);
    b.attrs_mut().aligned_barrier = true;
    b.attrs_mut().no_call_asm = true;
    // The body is inline assembly in the real runtime (Fig. 6): the
    // compiler cannot look inside; the `ext_aligned_barrier` /
    // `ext_no_call_asm` assumptions are all it has (§IV-C).
    b.attrs_mut().no_inline = true;
    b.aligned_barrier();
    b.ret(None);
    b.finish()
}

/// `__kmpc_barrier`: mode-dependent — aligned in SPMD mode (all threads
/// reach it), divergence-tolerant otherwise. Once the SPMD flag folds, the
/// aligned form remains and becomes eligible for elimination (§IV-D).
fn build_kmpc_barrier(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::KMPC_BARRIER, vec![], None);
    b.attrs_mut().always_inline = true;
    let spmd = b.load(Ty::I64, Operand::Global(ctx.is_spmd));
    let is_spmd = b.icmp_ne(spmd, Operand::i64(0));
    let al = b.new_block();
    let un = b.new_block();
    let done = b.new_block();
    b.cond_br(is_spmd, al, un);
    b.switch_to(al);
    b.call(callee(m, abi::SYNCTHREADS_ALIGNED), vec![], None);
    b.br(done);
    b.switch_to(un);
    b.barrier();
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

// ---------------------------------------------------------------------------
// Kernel init / deinit (§III-A, §III-B, §III-C)
// ---------------------------------------------------------------------------

/// `__kmpc_target_init(mode) -> i64`.
///
/// SPMD mode: all threads call it; the main thread broadcasts the SPMD flag
/// and team ICV state through conditional-pointer writes, an aligned barrier
/// publishes them, and assumes pin the values for the optimizer. Returns 0.
///
/// Generic mode: thread 0 becomes the main thread (returns 0) after
/// initializing state; all other threads enter the worker state machine and
/// return 1 when the kernel is done (the caller then jumps to the exit).
fn build_target_init(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::TARGET_INIT, vec![Ty::I64], Some(Ty::I64));
    let mode = b.param(0);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let tid = b.thread_id();
    let is_main = b.icmp_eq(tid, Operand::i64(0));

    let spmd_bb = b.new_block();
    let generic_bb = b.new_block();
    let is_spmd_mode = b.icmp_eq(mode, Operand::i64(abi::MODE_SPMD));
    b.cond_br(is_spmd_mode, spmd_bb, generic_bb);

    // ---- SPMD path ------------------------------------------------------
    b.switch_to(spmd_bb);
    let bdim = b.block_dim();
    cond_write(&mut b, ctx.dummy, Operand::Global(ctx.is_spmd), mode, Ty::I64, is_main);
    let p_nth = field_ptr(&mut b, ctx.team_state, ts::NTHREADS);
    cond_write(&mut b, ctx.dummy, p_nth, bdim, Ty::I64, is_main);
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    cond_write(&mut b, ctx.dummy, p_lvl, Operand::i64(1), Ty::I64, is_main);
    let p_act = field_ptr(&mut b, ctx.team_state, ts::ACTIVE_LEVELS);
    cond_write(&mut b, ctx.dummy, p_act, Operand::i64(1), Ty::I64, is_main);
    let p_hts = field_ptr(&mut b, ctx.team_state, ts::HAS_THREAD_STATE);
    cond_write(&mut b, ctx.dummy, p_hts, Operand::i64(0), Ty::I64, is_main);
    cond_write(
        &mut b,
        ctx.dummy,
        Operand::Global(ctx.stack_top),
        Operand::i64(0),
        Ty::I64,
        is_main,
    );
    // Each thread clears its own thread-state pointer (§III-C).
    let slot = array_slot_ptr(&mut b, ctx.thread_states, 0, tid, 8);
    b.store(Ty::Ptr, slot, Operand::NULL);
    b.call(callee(m, abi::SYNCTHREADS_ALIGNED), vec![], None);
    // Fig. 8b: post-broadcast assumptions.
    assume_field_eq(&mut b, Operand::Global(ctx.is_spmd), Ty::I64, mode);
    let p_lvl2 = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    assume_field_eq(&mut b, p_lvl2, Ty::I64, Operand::i64(1));
    let p_nth2 = field_ptr(&mut b, ctx.team_state, ts::NTHREADS);
    let bdim2 = b.block_dim();
    assume_field_eq(&mut b, p_nth2, Ty::I64, bdim2);
    let p_hts2 = field_ptr(&mut b, ctx.team_state, ts::HAS_THREAD_STATE);
    assume_field_eq(&mut b, p_hts2, Ty::I64, Operand::i64(0));
    b.ret(Some(Operand::i64(0)));

    // ---- generic path ----------------------------------------------------
    b.switch_to(generic_bb);
    let main_bb = b.new_block();
    let worker_bb = b.new_block();
    b.cond_br(is_main, main_bb, worker_bb);

    b.switch_to(main_bb);
    // Only the main thread runs here; plain stores suffice (workers are
    // parked at the state-machine barrier before they read any state).
    b.store(Ty::I64, Operand::Global(ctx.is_spmd), Operand::i64(0));
    let bdim3 = b.block_dim();
    let p = field_ptr(&mut b, ctx.team_state, ts::NTHREADS);
    b.store(Ty::I64, p, bdim3);
    let p = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    b.store(Ty::I64, p, Operand::i64(0));
    let p = field_ptr(&mut b, ctx.team_state, ts::ACTIVE_LEVELS);
    b.store(Ty::I64, p, Operand::i64(0));
    let p = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_FN);
    b.store(Ty::Ptr, p, Operand::NULL);
    let p = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_ARGS);
    b.store(Ty::Ptr, p, Operand::NULL);
    let p = field_ptr(&mut b, ctx.team_state, ts::HAS_THREAD_STATE);
    b.store(Ty::I64, p, Operand::i64(0));
    b.store(Ty::I64, Operand::Global(ctx.stack_top), Operand::i64(0));
    let slot = array_slot_ptr(&mut b, ctx.thread_states, 0, tid, 8);
    b.store(Ty::Ptr, slot, Operand::NULL);
    b.ret(Some(Operand::i64(0)));

    b.switch_to(worker_bb);
    let slot = array_slot_ptr(&mut b, ctx.thread_states, 0, tid, 8);
    b.store(Ty::Ptr, slot, Operand::NULL);
    b.call(callee(m, abi::WORKER_LOOP), vec![], None);
    b.ret(Some(Operand::i64(1)));

    b.finish()
}

/// `__kmpc_target_deinit(mode)`: in generic mode the main thread signals
/// worker termination (NULL work function + barrier); SPMD mode needs
/// nothing, so optimized SPMD kernels lose the whole call.
fn build_target_deinit(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::TARGET_DEINIT, vec![Ty::I64], None);
    let mode = b.param(0);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let generic_bb = b.new_block();
    let done = b.new_block();
    let is_spmd_mode = b.icmp_eq(mode, Operand::i64(abi::MODE_SPMD));
    b.cond_br(is_spmd_mode, done, generic_bb);
    b.switch_to(generic_bb);
    let p = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_FN);
    b.store(Ty::Ptr, p, Operand::NULL);
    b.barrier(); // wake workers so they observe the termination signal
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

// ---------------------------------------------------------------------------
// ICV queries
// ---------------------------------------------------------------------------

/// Load this thread's thread-state pointer (NULL when it only uses the team
/// state — the common case the optimizer folds to NULL, §IV-B1).
fn load_thread_state(b: &mut FuncBuilder, ctx: &Ctx, tid: Operand) -> Operand {
    let slot = array_slot_ptr(b, ctx.thread_states, 0, tid, 8);
    b.load(Ty::Ptr, slot)
}

fn build_get_thread_num(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_THREAD_NUM, vec![], Some(Ty::I64));
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let tid = b.thread_id();
    let tstate = load_thread_state(&mut b, ctx, tid);
    let has = b.cmp(Pred::Ne, Ty::Ptr, tstate, Operand::NULL);
    let from_ts = b.new_block();
    let from_team = b.new_block();
    b.cond_br(has, from_ts, from_team);
    b.switch_to(from_ts);
    let p = b.ptr_add(tstate, Operand::i64(th::THREAD_NUM as i64));
    let v = b.load(Ty::I64, p);
    b.ret(Some(v));
    b.switch_to(from_team);
    // No individual state: the thread num is the hardware thread id at
    // level <= 1, and 0 in (serialized) deeper regions.
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    let lvl = b.load(Ty::I64, p_lvl);
    let deep = b.cmp(Pred::Sgt, Ty::I64, lvl, Operand::i64(1));
    let r = b.select(Ty::I64, deep, Operand::i64(0), tid);
    b.ret(Some(r));
    b.finish()
}

fn build_get_num_threads(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_NUM_THREADS, vec![], Some(Ty::I64));
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let tid = b.thread_id();
    let tstate = load_thread_state(&mut b, ctx, tid);
    let has = b.cmp(Pred::Ne, Ty::Ptr, tstate, Operand::NULL);
    let from_ts = b.new_block();
    let from_team = b.new_block();
    b.cond_br(has, from_ts, from_team);
    b.switch_to(from_ts);
    let p = b.ptr_add(tstate, Operand::i64(th::NTHREADS as i64));
    let v = b.load(Ty::I64, p);
    b.ret(Some(v));
    b.switch_to(from_team);
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    let lvl = b.load(Ty::I64, p_lvl);
    let in_parallel = b.icmp_eq(lvl, Operand::i64(1));
    let p_nth = field_ptr(&mut b, ctx.team_state, ts::NTHREADS);
    let nth = b.load(Ty::I64, p_nth);
    let r = b.select(Ty::I64, in_parallel, nth, Operand::i64(1));
    b.ret(Some(r));
    b.finish()
}

fn build_get_level(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_LEVEL, vec![], Some(Ty::I64));
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let tid = b.thread_id();
    let tstate = load_thread_state(&mut b, ctx, tid);
    let has = b.cmp(Pred::Ne, Ty::Ptr, tstate, Operand::NULL);
    let from_ts = b.new_block();
    let from_team = b.new_block();
    b.cond_br(has, from_ts, from_team);
    b.switch_to(from_ts);
    let p = b.ptr_add(tstate, Operand::i64(th::LEVELS as i64));
    let v = b.load(Ty::I64, p);
    b.ret(Some(v));
    b.switch_to(from_team);
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    let lvl = b.load(Ty::I64, p_lvl);
    b.ret(Some(lvl));
    b.finish()
}

fn build_get_team_num(m: &Module) -> Function {
    let _ = m;
    let mut b = FuncBuilder::new(abi::OMP_GET_TEAM_NUM, vec![], Some(Ty::I64));
    b.attrs_mut().always_inline = true;
    b.attrs_mut().read_none = true;
    let v = b.block_id();
    b.ret(Some(v));
    b.finish()
}

fn build_get_num_teams(m: &Module) -> Function {
    let _ = m;
    let mut b = FuncBuilder::new(abi::OMP_GET_NUM_TEAMS, vec![], Some(Ty::I64));
    b.attrs_mut().always_inline = true;
    b.attrs_mut().read_none = true;
    let v = b.grid_dim();
    b.ret(Some(v));
    b.finish()
}

// ---------------------------------------------------------------------------
// Shared-memory stack (§III-D)
// ---------------------------------------------------------------------------

fn build_alloc_shared(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::ALLOC_SHARED, vec![Ty::I64], Some(Ty::Ptr));
    // Kept outlined so globalization elimination (§IV-A2) can recognize and
    // demote the allocation; LLVM likewise treats __kmpc_alloc_shared as a
    // known runtime call rather than inlining it away.
    b.attrs_mut().no_inline = true;
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let size = b.param(0);
    let sz = align8(&mut b, size);
    let old = b.atomic_add(Ty::I64, Operand::Global(ctx.stack_top), sz);
    let end = b.add(old, sz);
    let fits = b.cmp(
        Pred::Sle,
        Ty::I64,
        end,
        Operand::i64(abi::SMEM_STACK_SIZE as i64),
    );
    let hit = b.new_block();
    let miss = b.new_block();
    b.cond_br(fits, hit, miss);
    b.switch_to(hit);
    let p = b.ptr_add(Operand::Global(ctx.stack), old);
    b.ret(Some(p));
    // Stack full: undo the reservation and fall back to global memory.
    b.switch_to(miss);
    let neg = b.sub(Operand::i64(0), sz);
    b.atomic_add(Ty::I64, Operand::Global(ctx.stack_top), neg);
    let hp = b.malloc(sz);
    b.ret(Some(hp));
    b.finish()
}

fn build_free_shared(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::FREE_SHARED, vec![Ty::Ptr, Ty::I64], None);
    b.attrs_mut().no_inline = true;
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let ptr = b.param(0);
    let size = b.param(1);
    let sz = align8(&mut b, size);
    let p_int = b.cast(nzomp_ir::CastKind::PtrCast, Ty::I64, ptr);
    let base_int = b.cast(
        nzomp_ir::CastKind::PtrCast,
        Ty::I64,
        Operand::Global(ctx.stack),
    );
    let end_int = b.add(base_int, Operand::i64(abi::SMEM_STACK_SIZE as i64));
    let ge = b.cmp(Pred::Uge, Ty::I64, p_int, base_int);
    let lt = b.cmp(Pred::Ult, Ty::I64, p_int, end_int);
    let in_stack = b.and(ge, lt);
    let in_stack = b.icmp_ne(in_stack, Operand::i64(0));
    let pop = b.new_block();
    let heap = b.new_block();
    let done = b.new_block();
    b.cond_br(in_stack, pop, heap);
    b.switch_to(pop);
    let neg = b.sub(Operand::i64(0), sz);
    b.atomic_add(Ty::I64, Operand::Global(ctx.stack_top), neg);
    b.br(done);
    b.switch_to(heap);
    b.free(ptr);
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

// ---------------------------------------------------------------------------
// Parallel regions (§II-C state machine; §III-C nesting)
// ---------------------------------------------------------------------------

/// `__kmpc_parallel_51(fn, args)`.
///
/// * Called from the sequential (level-0) main thread of a generic-mode
///   kernel: broadcast the work function to the state machine, participate,
///   join.
/// * Called from inside an active parallel region: *serialized* nested
///   parallel — allocate an individual thread ICV state from the shared
///   stack (Fig. 3/4), run the body alone, pop the state. This is the case
///   the paper "strongly discourages" because it defeats state elimination.
fn build_parallel_51(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::PARALLEL_51, vec![Ty::Ptr, Ty::Ptr], None);
    let work_fn = b.param(0);
    let work_args = b.param(1);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let lvl = call_val(&mut b, callee(m, abi::OMP_GET_LEVEL), vec![], Ty::I64);
    let team_wide = b.icmp_eq(lvl, Operand::i64(0));
    let wide_bb = b.new_block();
    let nested_bb = b.new_block();
    b.cond_br(team_wide, wide_bb, nested_bb);

    // Team-wide: only the generic-mode main thread reaches this path.
    b.switch_to(wide_bb);
    let p_args = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_ARGS);
    b.store(Ty::Ptr, p_args, work_args);
    let p_fn = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_FN);
    b.store(Ty::Ptr, p_fn, work_fn);
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    b.store(Ty::I64, p_lvl, Operand::i64(1));
    b.barrier(); // release workers
    b.call(work_fn, vec![work_args], None); // main participates
    b.barrier(); // join workers
    let p_lvl = field_ptr(&mut b, ctx.team_state, ts::LEVELS);
    b.store(Ty::I64, p_lvl, Operand::i64(0));
    b.ret(None);

    // Nested: serialized with an individual thread ICV state.
    b.switch_to(nested_bb);
    let tid = b.thread_id();
    let tstate = call_val(
        &mut b,
        callee(m, abi::ALLOC_SHARED),
        vec![Operand::i64(th::SIZE as i64)],
        Ty::Ptr,
    );
    let slot = array_slot_ptr(&mut b, ctx.thread_states, 0, tid, 8);
    let prev = b.load(Ty::Ptr, slot);
    let p = b.ptr_add(tstate, Operand::i64(th::PREV as i64));
    b.store(Ty::Ptr, p, prev);
    let p = b.ptr_add(tstate, Operand::i64(th::THREAD_NUM as i64));
    b.store(Ty::I64, p, Operand::i64(0));
    let p = b.ptr_add(tstate, Operand::i64(th::NTHREADS as i64));
    b.store(Ty::I64, p, Operand::i64(1));
    let lvl1 = b.add(lvl, Operand::i64(1));
    let p = b.ptr_add(tstate, Operand::i64(th::LEVELS as i64));
    b.store(Ty::I64, p, lvl1);
    b.store(Ty::Ptr, slot, tstate);
    let p_hts = field_ptr(&mut b, ctx.team_state, ts::HAS_THREAD_STATE);
    b.store(Ty::I64, p_hts, Operand::i64(1));
    b.call(work_fn, vec![work_args], None);
    b.store(Ty::Ptr, slot, prev);
    b.call(
        callee(m, abi::FREE_SHARED),
        vec![tstate, Operand::i64(th::SIZE as i64)],
        None,
    );
    b.ret(None);
    b.finish()
}

/// SPMD-mode parallel region: all threads are already active; a pair of
/// barriers separates the (guarded) sequential parts from the region — the
/// barriers the paper notes "cannot always be removed" (§VII) but often can
/// (§IV-D).
fn build_parallel_spmd(m: &Module) -> Function {
    let mut b = FuncBuilder::new(abi::PARALLEL_SPMD, vec![Ty::Ptr, Ty::Ptr], None);
    let work_fn = b.param(0);
    let work_args = b.param(1);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    b.call(callee(m, abi::SYNCTHREADS_ALIGNED), vec![], None);
    b.call(work_fn, vec![work_args], None);
    b.call(callee(m, abi::SYNCTHREADS_ALIGNED), vec![], None);
    b.ret(None);
    b.finish()
}

/// The generic-mode worker state machine (Bertolli et al., paper §II-C).
fn build_worker_loop(m: &Module, ctx: &Ctx) -> Function {
    let _ = m;
    let mut b = FuncBuilder::new(abi::WORKER_LOOP, vec![], None);
    let head = b.new_block();
    let work = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    b.barrier(); // wait for work (or termination)
    let p_fn = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_FN);
    let f = b.load(Ty::Ptr, p_fn);
    let live = b.cmp(Pred::Ne, Ty::Ptr, f, Operand::NULL);
    b.cond_br(live, work, exit);
    b.switch_to(work);
    let p_args = field_ptr(&mut b, ctx.team_state, ts::PARALLEL_ARGS);
    let args = b.load(Ty::Ptr, p_args);
    b.call(f, vec![args], None);
    b.barrier(); // join
    b.br(head);
    b.switch_to(exit);
    b.ret(None);
    b.finish()
}

// ---------------------------------------------------------------------------
// Worksharing loops (§III-F, Fig. 5)
// ---------------------------------------------------------------------------

/// Shared shape of the `noChunkImpl` pseudo-code (Fig. 5): cover the
/// iteration space from `start` with `stride`, breaking the loop when the
/// oversubscription flag (a compile-time constant global) says each
/// thread/team executes at most one iteration.
fn no_chunk_loop(
    b: &mut FuncBuilder,
    m: &Module,
    body: Operand,
    args: Operand,
    niters: Operand,
    start: Operand,
    stride: Operand,
    oversub_flag: GlobalId,
) {
    let entry = b.current_block();
    let loop_bb = b.new_block();
    let latch = b.new_block();
    let oversub_bb = b.new_block();
    let exit = b.new_block();

    let in_range = b.cmp(Pred::Slt, Ty::I64, start, niters);
    b.cond_br(in_range, loop_bb, exit);

    b.switch_to(loop_bb);
    let iv = b.phi(Ty::I64, vec![(entry, start)]);
    b.call(body, vec![iv, args], None);
    let next = b.add(iv, stride);
    // "User assumptions to avoid the loop" (Fig. 5).
    let flag = b.load(Ty::I64, Operand::Global(oversub_flag));
    let oversub = b.icmp_ne(flag, Operand::i64(0));
    b.cond_br(oversub, oversub_bb, latch);

    b.switch_to(oversub_bb);
    // The flag asserts every thread runs at most one iteration; verify in
    // debug builds, assume in release (§III-F: "after asserting that the
    // condition actually holds at runtime").
    let done = b.cmp(Pred::Sge, Ty::I64, next, niters);
    b.call(callee(m, abi::NZOMP_ASSERT), vec![done], None);
    b.br(exit);

    b.switch_to(latch);
    let more = b.cmp(Pred::Slt, Ty::I64, next, niters);
    b.cond_br(more, loop_bb, exit);
    b.phi_add_incoming(iv, latch, next);

    b.switch_to(exit);
}

/// Combined `distribute parallel for` (the common SPMD case): CUDA-style
/// grid-stride distribution `iv = bid*nthreads+tid; stride = total`.
fn build_dist_par_for(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(
        abi::DIST_PAR_FOR_LOOP,
        vec![Ty::Ptr, Ty::Ptr, Ty::I64],
        None,
    );
    let body = b.param(0);
    let args = b.param(1);
    let niters = b.param(2);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    // The iteration mapping consults the runtime's ICV layer; the
    // field-sensitive/assumed-content/invariant analyses (§IV-B) fold these
    // queries down to the hardware registers.
    let tid = call_val(&mut b, callee(m, abi::OMP_GET_THREAD_NUM), vec![], Ty::I64);
    let nth = call_val(&mut b, callee(m, abi::OMP_GET_NUM_THREADS), vec![], Ty::I64);
    let bid = call_val(&mut b, callee(m, abi::OMP_GET_TEAM_NUM), vec![], Ty::I64);
    let nbl = call_val(&mut b, callee(m, abi::OMP_GET_NUM_TEAMS), vec![], Ty::I64);
    let base = b.mul(bid, nth);
    let start = b.add(base, tid);
    let stride = b.mul(nbl, nth);
    no_chunk_loop(&mut b, m, body, args, niters, start, stride, ctx.threads_oversub);
    b.ret(None);
    b.finish()
}

/// `for` worksharing inside an active parallel region. Uses the ICV queries
/// (which the optimizer folds to hardware intrinsics in the common case)
/// and ends with the implicit worksharing barrier unless `nowait`.
fn build_for_static_loop(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(
        abi::FOR_STATIC_LOOP,
        vec![Ty::Ptr, Ty::Ptr, Ty::I64, Ty::I64],
        None,
    );
    let body = b.param(0);
    let args = b.param(1);
    let niters = b.param(2);
    let nowait = b.param(3);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let start = call_val(&mut b, callee(m, abi::OMP_GET_THREAD_NUM), vec![], Ty::I64);
    let stride = call_val(&mut b, callee(m, abi::OMP_GET_NUM_THREADS), vec![], Ty::I64);
    no_chunk_loop(&mut b, m, body, args, niters, start, stride, ctx.threads_oversub);
    let skip = b.icmp_ne(nowait, Operand::i64(0));
    let bar = b.new_block();
    let done = b.new_block();
    b.cond_br(skip, done, bar);
    b.switch_to(bar);
    b.call(callee(m, abi::KMPC_BARRIER), vec![], None);
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

/// `distribute` across teams (generic-mode main threads).
fn build_distribute_static_loop(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(
        abi::DISTRIBUTE_STATIC_LOOP,
        vec![Ty::Ptr, Ty::Ptr, Ty::I64],
        None,
    );
    let body = b.param(0);
    let args = b.param(1);
    let niters = b.param(2);
    b.call(callee(m, abi::NZOMP_TRACE), vec![], None);
    let bid = b.block_id();
    let nbl = b.grid_dim();
    no_chunk_loop(&mut b, m, body, args, niters, bid, nbl, ctx.teams_oversub);
    b.ret(None);
    b.finish()
}
