//! The legacy ("Old RT") device runtime — a faithful caricature of the
//! pre-paper LLVM OpenMP GPU runtime the evaluation compares against.
//!
//! Its *design* is what defeats the optimizer, independent of how many
//! passes run (the paper's co-design argument inverted):
//!
//! * every thread writes a per-thread task descriptor into a 2,336-byte
//!   shared-memory device state at init — dynamic offsets, non-constant
//!   values, so field-sensitive analysis cannot fold the later reads;
//! * ICV queries (`omp_get_thread_num`, …) read those descriptors from
//!   shared memory on every call;
//! * worksharing bounds travel through memory (`for_static_init` writes
//!   lb/ub/stride through pointers the caller must alloca) instead of the
//!   callback scheme of Fig. 5;
//! * broadcast writes use conditional *execution* (Fig. 7a) with no
//!   assumptions, so dominance-based content tracking fails (§IV-B3);
//! * every barrier is the divergence-tolerant kind, which the aligned
//!   barrier elimination of §IV-D must conservatively keep;
//! * kernels that globalize locals get a 5,952-byte data-sharing stack
//!   (2,336 + 5,952 = 8,288 bytes — the Old-RT XSBench SMem of Fig. 11).

use nzomp_ir::{FuncBuilder, Function, Global, GlobalId, Init, Module, Operand, Pred, Space, Ty};

use crate::abi::{self, old_state as os};
use crate::helpers::{align8, call_val, callee, define_all, field_ptr, imin};

struct Ctx {
    state: GlobalId,
    ds_stack: Option<GlobalId>,
    ds_top: Option<GlobalId>,
}

/// Build the legacy runtime. `needs_data_sharing` reserves the
/// data-sharing stack used by variable globalization. The legacy runtime
/// has no compile-time feature globals.
pub fn build(needs_data_sharing: bool) -> Module {
    let mut m = Module::new("nzomp-rt-legacy");
    let state = m.add_global(Global::new(
        abi::G_OLD_STATE,
        Space::Shared,
        os::SIZE,
        Init::Zero,
    ));
    let (ds_stack, ds_top) = if needs_data_sharing {
        (
            Some(m.add_global(Global::new(
                abi::G_OLD_DS_STACK,
                Space::Shared,
                abi::OLD_DS_STACK_SIZE,
                Init::Zero,
            ))),
            Some(m.add_global(Global::new(abi::G_OLD_DS_TOP, Space::Shared, 8, Init::Zero))),
        )
    } else {
        (None, None)
    };
    let ctx = Ctx {
        state,
        ds_stack,
        ds_top,
    };

    // Every entry point, in declaration order (function indices, and so
    // every printed module, depend on it); all are declared before any body
    // is built, so bodies can reference each other.
    define_all(&mut m, &[
        (abi::OLD_TARGET_INIT, &|m| build_init(m, &ctx)),
        (abi::OLD_TARGET_DEINIT, &|_| build_deinit(&ctx)),
        (abi::OLD_WORKER_LOOP, &|_| build_worker_loop(&ctx)),
        (abi::OLD_PARALLEL_PREPARE, &|_| build_prepare_parallel(&ctx)),
        (abi::OLD_PARALLEL_END, &|_| build_end_parallel(&ctx)),
        (abi::OMP_GET_THREAD_NUM, &|_| build_get_thread_num(&ctx)),
        (abi::OMP_GET_NUM_THREADS, &|_| build_get_num_threads(&ctx)),
        (abi::OMP_GET_LEVEL, &|_| build_get_level(&ctx)),
        (abi::OMP_GET_TEAM_NUM, &|_| build_get_team_num()),
        (abi::OMP_GET_NUM_TEAMS, &|_| build_get_num_teams()),
        (abi::OLD_FOR_STATIC_INIT, &|m| build_for_static_init(m, &ctx)),
        (abi::OLD_FOR_STATIC_FINI, &|_| build_for_static_fini()),
        (abi::OLD_DISTRIBUTE_INIT, &|_| build_distribute_init(&ctx)),
        (abi::OLD_BARRIER, &|_| build_barrier()),
        (abi::OLD_DATA_SHARING_PUSH, &|_| build_ds_push(&ctx)),
        (abi::OLD_DATA_SHARING_POP, &|_| build_ds_pop(&ctx)),
    ]);

    if let Err(e) = nzomp_ir::verify_module(&m) {
        unreachable!("legacy runtime verifies: {e}");
    }
    m
}

/// Pointer to thread `tid`'s task descriptor.
fn descriptor_ptr(b: &mut FuncBuilder, ctx: &Ctx, tid: Operand) -> Operand {
    let base = field_ptr(b, ctx.state, os::DESCRIPTORS);
    b.gep(base, tid, os::DESCRIPTOR_STRIDE)
}

/// `__kmpc_kernel_init_old(mode) -> i64` (1 = finished worker).
fn build_init(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_TARGET_INIT, vec![Ty::I64], Some(Ty::I64));
    let mode = b.param(0);
    let tid = b.thread_id();
    // Every thread materializes its task descriptor (stores its own id and
    // an "inactive" flag). Dynamic offset + non-constant value: unfoldable.
    let desc = descriptor_ptr(&mut b, ctx, tid);
    b.store(Ty::I64, desc, tid);
    let flag = b.ptr_add(desc, Operand::i64(8));
    b.store(Ty::I8, flag, Operand::ConstI(0, Ty::I8));
    // Main thread writes the team header — conditional *execution*
    // (Fig. 7a), the form dominance analysis cannot see through.
    let is_main = b.icmp_eq(tid, Operand::i64(0));
    let hdr = b.new_block();
    let after_hdr = b.new_block();
    b.cond_br(is_main, hdr, after_hdr);
    b.switch_to(hdr);
    let bdim = b.block_dim();
    let p = field_ptr(&mut b, ctx.state, os::NTHREADS);
    b.store(Ty::I64, p, bdim);
    let p = field_ptr(&mut b, ctx.state, os::LEVELS);
    // SPMD kernels start inside the (implicit) parallel region.
    let is_spmd = b.icmp_eq(mode, Operand::i64(abi::MODE_SPMD));
    let lvl0 = b.select(Ty::I64, is_spmd, Operand::i64(1), Operand::i64(0));
    b.store(Ty::I64, p, lvl0);
    let p = field_ptr(&mut b, ctx.state, os::PARALLEL_FN);
    b.store(Ty::Ptr, p, Operand::NULL);
    if let Some(top) = ctx.ds_top {
        b.store(Ty::I64, Operand::Global(top), Operand::i64(0));
    }
    b.br(after_hdr);
    b.switch_to(after_hdr);
    b.barrier(); // publish (divergence-tolerant barrier, never aligned)

    let spmd_done = b.new_block();
    let generic_bb = b.new_block();
    let is_spmd2 = b.icmp_eq(mode, Operand::i64(abi::MODE_SPMD));
    b.cond_br(is_spmd2, spmd_done, generic_bb);
    b.switch_to(spmd_done);
    b.ret(Some(Operand::i64(0)));

    b.switch_to(generic_bb);
    let main_bb = b.new_block();
    let worker_bb = b.new_block();
    let is_main2 = b.icmp_eq(tid, Operand::i64(0));
    b.cond_br(is_main2, main_bb, worker_bb);
    b.switch_to(main_bb);
    b.ret(Some(Operand::i64(0)));
    b.switch_to(worker_bb);
    b.call(callee(m, abi::OLD_WORKER_LOOP), vec![], None);
    b.ret(Some(Operand::i64(1)));
    b.finish()
}

fn build_deinit(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_TARGET_DEINIT, vec![Ty::I64], None);
    let mode = b.param(0);
    let generic_bb = b.new_block();
    let done = b.new_block();
    let is_spmd = b.icmp_eq(mode, Operand::i64(abi::MODE_SPMD));
    b.cond_br(is_spmd, done, generic_bb);
    b.switch_to(generic_bb);
    let p = field_ptr(&mut b, ctx.state, os::PARALLEL_FN);
    b.store(Ty::Ptr, p, Operand::NULL);
    b.barrier();
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    b.finish()
}

fn build_worker_loop(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_WORKER_LOOP, vec![], None);
    let head = b.new_block();
    let work = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    b.barrier();
    let p_fn = field_ptr(&mut b, ctx.state, os::PARALLEL_FN);
    let f = b.load(Ty::Ptr, p_fn);
    let live = b.cmp(Pred::Ne, Ty::Ptr, f, Operand::NULL);
    b.cond_br(live, work, exit);
    b.switch_to(work);
    // Bookkeeping the old runtime did per parallel region: mark the
    // descriptor active, run, mark inactive.
    let tid = b.thread_id();
    let desc = descriptor_ptr(&mut b, ctx, tid);
    let flag = b.ptr_add(desc, Operand::i64(8));
    b.store(Ty::I8, flag, Operand::ConstI(1, Ty::I8));
    let p_args = field_ptr(&mut b, ctx.state, os::PARALLEL_ARGS);
    let args = b.load(Ty::Ptr, p_args);
    b.call(f, vec![args], None);
    let flag2 = b.ptr_add(desc, Operand::i64(8));
    b.store(Ty::I8, flag2, Operand::ConstI(0, Ty::I8));
    b.barrier();
    b.br(head);
    b.switch_to(exit);
    b.ret(None);
    b.finish()
}

fn build_prepare_parallel(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_PARALLEL_PREPARE, vec![Ty::Ptr, Ty::Ptr], None);
    let f = b.param(0);
    let args = b.param(1);
    let p = field_ptr(&mut b, ctx.state, os::PARALLEL_ARGS);
    b.store(Ty::Ptr, p, args);
    let p = field_ptr(&mut b, ctx.state, os::PARALLEL_FN);
    b.store(Ty::Ptr, p, f);
    let p = field_ptr(&mut b, ctx.state, os::LEVELS);
    b.store(Ty::I64, p, Operand::i64(1));
    b.ret(None);
    b.finish()
}

fn build_end_parallel(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_PARALLEL_END, vec![], None);
    let p = field_ptr(&mut b, ctx.state, os::LEVELS);
    b.store(Ty::I64, p, Operand::i64(0));
    let p = field_ptr(&mut b, ctx.state, os::PARALLEL_FN);
    b.store(Ty::Ptr, p, Operand::NULL);
    b.ret(None);
    b.finish()
}

/// `omp_get_thread_num`: a shared-memory load of the task descriptor on
/// every call — the overhead the co-designed runtime folds to a register.
fn build_get_thread_num(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_THREAD_NUM, vec![], Some(Ty::I64));
    let tid = b.thread_id();
    let desc = descriptor_ptr(&mut b, ctx, tid);
    let v = b.load(Ty::I64, desc);
    b.ret(Some(v));
    b.finish()
}

fn build_get_num_threads(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_NUM_THREADS, vec![], Some(Ty::I64));
    let p_lvl = field_ptr(&mut b, ctx.state, os::LEVELS);
    let lvl = b.load(Ty::I64, p_lvl);
    let in_par = b.icmp_eq(lvl, Operand::i64(1));
    let p = field_ptr(&mut b, ctx.state, os::NTHREADS);
    let nth = b.load(Ty::I64, p);
    let r = b.select(Ty::I64, in_par, nth, Operand::i64(1));
    b.ret(Some(r));
    b.finish()
}

fn build_get_level(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_LEVEL, vec![], Some(Ty::I64));
    let p = field_ptr(&mut b, ctx.state, os::LEVELS);
    let v = b.load(Ty::I64, p);
    b.ret(Some(v));
    b.finish()
}

fn build_get_team_num() -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_TEAM_NUM, vec![], Some(Ty::I64));
    let v = b.block_id();
    b.ret(Some(v));
    b.finish()
}

fn build_get_num_teams() -> Function {
    let mut b = FuncBuilder::new(abi::OMP_GET_NUM_TEAMS, vec![], Some(Ty::I64));
    let v = b.grid_dim();
    b.ret(Some(v));
    b.finish()
}

/// `for_static_init`: static (blocked) schedule with bounds written through
/// memory — the host-runtime-compatible API the paper's combined scheme
/// deliberately breaks with (§III-F).
fn build_for_static_init(m: &Module, ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(
        abi::OLD_FOR_STATIC_INIT,
        vec![Ty::Ptr, Ty::Ptr, Ty::Ptr, Ty::I64],
        None,
    );
    let lb = b.param(0);
    let ub = b.param(1);
    let st = b.param(2);
    let niters = b.param(3);
    let tn = call_val(&mut b, callee(m, abi::OMP_GET_THREAD_NUM), vec![], Ty::I64);
    let p = field_ptr(&mut b, ctx.state, os::NTHREADS);
    let nth = b.load(Ty::I64, p);
    let nth_m1 = b.add(nth, Operand::i64(-1));
    let num = b.add(niters, nth_m1);
    let chunk = b.sdiv(num, nth);
    let lo = b.mul(tn, chunk);
    let hi0 = b.add(lo, chunk);
    let hi = imin(&mut b, hi0, niters);
    b.store(Ty::I64, lb, lo);
    b.store(Ty::I64, ub, hi);
    b.store(Ty::I64, st, Operand::i64(1));
    b.ret(None);
    b.finish()
}

fn build_for_static_fini() -> Function {
    let mut b = FuncBuilder::new(abi::OLD_FOR_STATIC_FINI, vec![], None);
    b.barrier();
    b.ret(None);
    b.finish()
}

fn build_distribute_init(ctx: &Ctx) -> Function {
    let _ = ctx;
    let mut b = FuncBuilder::new(
        abi::OLD_DISTRIBUTE_INIT,
        vec![Ty::Ptr, Ty::Ptr, Ty::Ptr, Ty::I64],
        None,
    );
    let lb = b.param(0);
    let ub = b.param(1);
    let st = b.param(2);
    let niters = b.param(3);
    let bid = b.block_id();
    let nteams = b.grid_dim();
    let nt_m1 = b.add(nteams, Operand::i64(-1));
    let num = b.add(niters, nt_m1);
    let chunk = b.sdiv(num, nteams);
    let lo = b.mul(bid, chunk);
    let hi0 = b.add(lo, chunk);
    let hi = imin(&mut b, hi0, niters);
    b.store(Ty::I64, lb, lo);
    b.store(Ty::I64, ub, hi);
    b.store(Ty::I64, st, Operand::i64(1));
    b.ret(None);
    b.finish()
}

fn build_barrier() -> Function {
    let mut b = FuncBuilder::new(abi::OLD_BARRIER, vec![], None);
    b.barrier();
    b.ret(None);
    b.finish()
}

/// Globalization support: bump-allocate from the shared data-sharing stack,
/// falling back to device malloc (or going straight to malloc when the
/// kernel reserved no stack).
fn build_ds_push(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_DATA_SHARING_PUSH, vec![Ty::I64], Some(Ty::Ptr));
    b.attrs_mut().no_inline = true;
    let size = b.param(0);
    let sz = align8(&mut b, size);
    match (ctx.ds_stack, ctx.ds_top) {
        (Some(stack), Some(top)) => {
            let old = b.atomic_add(Ty::I64, Operand::Global(top), sz);
            let end = b.add(old, sz);
            let fits = b.cmp(
                Pred::Sle,
                Ty::I64,
                end,
                Operand::i64(abi::OLD_DS_STACK_SIZE as i64),
            );
            let hit = b.new_block();
            let miss = b.new_block();
            b.cond_br(fits, hit, miss);
            b.switch_to(hit);
            let p = b.ptr_add(Operand::Global(stack), old);
            b.ret(Some(p));
            b.switch_to(miss);
            let neg = b.sub(Operand::i64(0), sz);
            b.atomic_add(Ty::I64, Operand::Global(top), neg);
            let hp = b.malloc(sz);
            b.ret(Some(hp));
        }
        _ => {
            let hp = b.malloc(sz);
            b.ret(Some(hp));
        }
    }
    b.finish()
}

fn build_ds_pop(ctx: &Ctx) -> Function {
    let mut b = FuncBuilder::new(abi::OLD_DATA_SHARING_POP, vec![Ty::Ptr, Ty::I64], None);
    b.attrs_mut().no_inline = true;
    let ptr = b.param(0);
    let size = b.param(1);
    let sz = align8(&mut b, size);
    match (ctx.ds_stack, ctx.ds_top) {
        (Some(stack), Some(top)) => {
            let p_int = b.cast(nzomp_ir::CastKind::PtrCast, Ty::I64, ptr);
            let base_int = b.cast(
                nzomp_ir::CastKind::PtrCast,
                Ty::I64,
                Operand::Global(stack),
            );
            let end_int = b.add(base_int, Operand::i64(abi::OLD_DS_STACK_SIZE as i64));
            let ge = b.cmp(Pred::Uge, Ty::I64, p_int, base_int);
            let lt = b.cmp(Pred::Ult, Ty::I64, p_int, end_int);
            let both = b.and(ge, lt);
            let in_stack = b.icmp_ne(both, Operand::i64(0));
            let pop = b.new_block();
            let heap = b.new_block();
            let done = b.new_block();
            b.cond_br(in_stack, pop, heap);
            b.switch_to(pop);
            let neg = b.sub(Operand::i64(0), sz);
            b.atomic_add(Ty::I64, Operand::Global(top), neg);
            b.br(done);
            b.switch_to(heap);
            b.free(ptr);
            b.br(done);
            b.switch_to(done);
            b.ret(None);
        }
        _ => {
            b.free(ptr);
            b.ret(None);
        }
    }
    b.finish()
}
