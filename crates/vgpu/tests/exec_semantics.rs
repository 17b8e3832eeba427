//! Instruction-level semantics of the interpreter: each operator class,
//! trap conditions, counters and occupancy bookkeeping.
//! One run setting suffices: the corpus crosses every operator with the
//! run axes.

use nzomp_ir::{
    BinOp, CastKind, ExecMode, FuncBuilder, Global, Init, Module, Operand, Pred, Space, Ty, UnOp,
};
use nzomp_vgpu::cost::{MAX_THREADS_PER_SM, SMEM_PER_SM};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, TrapKind};

/// Run a single-thread kernel computing one i64 and storing it to out[0].
fn run_i64(build: impl FnOnce(&mut FuncBuilder) -> Operand) -> i64 {
    let mut m = Module::new("t");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = build(&mut b);
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
    dev.read_i64(out, 1).unwrap()[0]
}

fn run_f64(build: impl FnOnce(&mut FuncBuilder) -> Operand) -> f64 {
    let mut m = Module::new("t");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = build(&mut b);
    b.store(Ty::F64, b.param(0), v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
    dev.read_f64(out, 1).unwrap()[0]
}

fn run_trap(build: impl FnOnce(&mut FuncBuilder)) -> TrapKind {
    let mut m = Module::new("t");
    let mut b = FuncBuilder::new("k", vec![], None);
    build(&mut b);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    dev.launch("k", Launch::new(1, 1), &[]).unwrap_err().kind
}

#[test]
fn integer_binops() {
    assert_eq!(run_i64(|b| b.add(Operand::i64(3), Operand::i64(4))), 7);
    assert_eq!(run_i64(|b| b.sub(Operand::i64(3), Operand::i64(4))), -1);
    assert_eq!(run_i64(|b| b.mul(Operand::i64(-3), Operand::i64(4))), -12);
    assert_eq!(run_i64(|b| b.sdiv(Operand::i64(-7), Operand::i64(2))), -3);
    assert_eq!(run_i64(|b| b.srem(Operand::i64(-7), Operand::i64(2))), -1);
    assert_eq!(
        run_i64(|b| b.bin(BinOp::UDiv, Ty::I64, Operand::i64(-1), Operand::i64(2))),
        (u64::MAX / 2) as i64
    );
    assert_eq!(run_i64(|b| b.and(Operand::i64(0b1100), Operand::i64(0b1010))), 0b1000);
    assert_eq!(run_i64(|b| b.or(Operand::i64(0b1100), Operand::i64(0b1010))), 0b1110);
    assert_eq!(
        run_i64(|b| b.bin(BinOp::Xor, Ty::I64, Operand::i64(0b1100), Operand::i64(0b1010))),
        0b0110
    );
    assert_eq!(run_i64(|b| b.shl(Operand::i64(1), Operand::i64(40))), 1 << 40);
    assert_eq!(
        run_i64(|b| b.bin(BinOp::AShr, Ty::I64, Operand::i64(-8), Operand::i64(1))),
        -4
    );
    assert_eq!(
        run_i64(|b| b.bin(BinOp::LShr, Ty::I64, Operand::i64(-1), Operand::i64(63))),
        1
    );
    assert_eq!(
        run_i64(|b| b.bin(BinOp::SMin, Ty::I64, Operand::i64(-5), Operand::i64(2))),
        -5
    );
    assert_eq!(
        run_i64(|b| b.bin(BinOp::SMax, Ty::I64, Operand::i64(-5), Operand::i64(2))),
        2
    );
    // Wrapping.
    assert_eq!(
        run_i64(|b| b.add(Operand::i64(i64::MAX), Operand::i64(1))),
        i64::MIN
    );
}

#[test]
fn float_ops() {
    assert_eq!(run_f64(|b| b.fadd(Operand::f64(1.5), Operand::f64(2.5))), 4.0);
    assert_eq!(run_f64(|b| b.fsub(Operand::f64(1.5), Operand::f64(2.5))), -1.0);
    assert_eq!(run_f64(|b| b.fmul(Operand::f64(1.5), Operand::f64(2.0))), 3.0);
    assert_eq!(run_f64(|b| b.fdiv(Operand::f64(3.0), Operand::f64(2.0))), 1.5);
    assert_eq!(run_f64(|b| b.sqrt(Operand::f64(16.0))), 4.0);
    assert_eq!(run_f64(|b| b.un(UnOp::FAbs, Ty::F64, Operand::f64(-2.0))), 2.0);
    assert_eq!(run_f64(|b| b.un(UnOp::FNeg, Ty::F64, Operand::f64(2.0))), -2.0);
    assert_eq!(run_f64(|b| b.un(UnOp::Sin, Ty::F64, Operand::f64(0.5))), 0.5f64.sin());
    assert_eq!(run_f64(|b| b.un(UnOp::Cos, Ty::F64, Operand::f64(0.5))), 0.5f64.cos());
    assert_eq!(run_f64(|b| b.un(UnOp::Exp, Ty::F64, Operand::f64(1.0))), 1.0f64.exp());
    assert_eq!(run_f64(|b| b.un(UnOp::Log, Ty::F64, Operand::f64(2.0))), 2.0f64.ln());
}

#[test]
fn casts() {
    assert_eq!(
        run_i64(|b| b.cast(CastKind::IntCast, Ty::I8, Operand::i64(0x1ff))),
        -1 // 0xff sign-extended
    );
    assert_eq!(
        run_i64(|b| b.cast(CastKind::ZExtCast, Ty::I8, Operand::i64(0x1ff))),
        0xff
    );
    assert_eq!(
        run_i64(|b| b.cast(CastKind::IntCast, Ty::I32, Operand::i64(0x1_0000_0001))),
        1
    );
    assert_eq!(run_i64(|b| b.fp_to_si(Operand::f64(-2.9))), -2);
    assert_eq!(run_f64(|b| b.si_to_fp(Operand::i64(7))), 7.0);
}

#[test]
fn comparisons() {
    assert_eq!(run_i64(|b| b.cmp(Pred::Slt, Ty::I64, Operand::i64(-1), Operand::i64(0))), 1);
    assert_eq!(run_i64(|b| b.cmp(Pred::Ult, Ty::I64, Operand::i64(-1), Operand::i64(0))), 0);
    assert_eq!(run_i64(|b| b.cmp(Pred::Eq, Ty::F64, Operand::f64(1.0), Operand::f64(1.0))), 1);
    assert_eq!(
        run_i64(|b| {
            let nan = b.fdiv(Operand::f64(0.0), Operand::f64(0.0));
            b.cmp(Pred::Eq, Ty::F64, nan, nan)
        }),
        0,
        "NaN != NaN"
    );
}

#[test]
fn select_and_narrow_memory() {
    assert_eq!(
        run_i64(|b| b.select(Ty::I64, Operand::TRUE, Operand::i64(1), Operand::i64(2))),
        1
    );
    // i32 store/load roundtrip: upper bits do not leak.
    assert_eq!(
        run_i64(|b| {
            let slot = b.alloca(8);
            b.store(Ty::I64, slot, Operand::i64(-1));
            b.store(Ty::I32, slot, Operand::i64(5));
            b.load(Ty::I64, slot)
        }),
        // Lower 4 bytes overwritten with 5; upper 4 remain 0xffffffff.
        (0xffff_ffffu64 as i64) << 32 | 5
    );
}

#[test]
fn division_by_zero_traps() {
    assert_eq!(
        run_trap(|b| {
            b.sdiv(Operand::i64(1), Operand::i64(0));
        }),
        TrapKind::DivByZero
    );
}

#[test]
fn null_deref_traps() {
    assert_eq!(
        run_trap(|b| {
            b.load(Ty::I64, Operand::NULL);
        }),
        TrapKind::NullDeref
    );
}

#[test]
fn fuel_exhaustion_traps() {
    let mut m = Module::new("spin");
    let mut b = FuncBuilder::new("k", vec![], None);
    let entry = b.current_block();
    let lp = b.new_block();
    b.br(lp);
    b.switch_to(lp);
    let p = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let n = b.add(p, Operand::i64(1));
    b.phi_add_incoming(p, lp, n);
    b.br(lp);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let cfg = DeviceConfig {
        max_steps: 10_000,
        ..DeviceConfig::default()
    };
    let mut dev = Device::load(m, cfg);
    let err = dev.launch("k", Launch::new(1, 1), &[]).unwrap_err();
    assert_eq!(err.kind, TrapKind::FuelExhausted);
}

#[test]
fn atomics_are_correct_under_contention() {
    let mut m = Module::new("at");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let old = b.atomic_add(Ty::I64, b.param(0), Operand::i64(1));
    // Also CAS a flag from 0 to 1 exactly once across the team.
    let flag = b.ptr_add(b.param(0), Operand::i64(8));
    let prev = b.cas(Ty::I64, flag, Operand::i64(0), Operand::i64(1));
    let won = b.icmp_eq(prev, Operand::i64(0));
    let w = b.cast(CastKind::ZExtCast, Ty::I64, won);
    let winners = b.ptr_add(b.param(0), Operand::i64(16));
    b.atomic_add(Ty::I64, winners, w);
    let _ = old;
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let buf = dev.alloc(24);
    dev.launch("k", Launch::new(2, 32), &[RtVal::P(buf)]).unwrap();
    let vals = dev.read_i64(buf, 3).unwrap();
    assert_eq!(vals[0], 64, "every thread incremented once");
    assert_eq!(vals[1], 1, "flag set");
    assert_eq!(vals[2], 1, "exactly one CAS winner");
}

#[test]
fn intrinsic_ids_are_consistent() {
    let mut m = Module::new("ids");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let bid = b.block_id();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();
    let gl = b.mul(bid, bdim);
    let g = b.add(gl, tid);
    let slot = b.gep(b.param(0), g, 8);
    // global id * 1000 + gdim
    let v = b.mul(g, Operand::i64(1000));
    let v = b.add(v, gdim);
    b.store(Ty::I64, slot, v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let buf = dev.alloc(8 * 12);
    dev.launch("k", Launch::new(3, 4), &[RtVal::P(buf)]).unwrap();
    let got = dev.read_i64(buf, 12).unwrap();
    for (g, v) in got.iter().enumerate() {
        assert_eq!(*v, g as i64 * 1000 + 3);
    }
}

#[test]
fn function_calls_and_returns() {
    let mut m = Module::new("fns");
    let mut cb = FuncBuilder::new("twice", vec![Ty::I64], Some(Ty::I64));
    let v = cb.mul(cb.param(0), Operand::i64(2));
    cb.ret(Some(v));
    let twice = m.add_function(cb.finish());
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let a = b.call(Operand::Func(twice), vec![Operand::i64(21)], Some(Ty::I64)).unwrap();
    let c = b.call(Operand::Func(twice), vec![a], Some(Ty::I64)).unwrap();
    b.store(Ty::I64, b.param(0), c);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 84);
}

#[test]
fn recursion_uses_per_frame_registers() {
    // fib(10) through naive recursion exercises frame save/restore.
    let mut m = Module::new("fib");
    let fib_ref = nzomp_ir::module::FuncRef(0);
    let mut b = FuncBuilder::new("fib", vec![Ty::I64], Some(Ty::I64));
    let n = b.param(0);
    let base = b.icmp_slt(n, Operand::i64(2));
    let ret_base = b.new_block();
    let rec = b.new_block();
    b.cond_br(base, ret_base, rec);
    b.switch_to(ret_base);
    b.ret(Some(n));
    b.switch_to(rec);
    let n1 = b.sub(n, Operand::i64(1));
    let n2 = b.sub(n, Operand::i64(2));
    let f1 = b.call(Operand::Func(fib_ref), vec![n1], Some(Ty::I64)).unwrap();
    let f2 = b.call(Operand::Func(fib_ref), vec![n2], Some(Ty::I64)).unwrap();
    let s = b.add(f1, f2);
    b.ret(Some(s));
    let fib = m.add_function(b.finish());
    assert_eq!(fib, fib_ref);
    let mut kb = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = kb.call(Operand::Func(fib), vec![Operand::i64(10)], Some(Ty::I64)).unwrap();
    kb.store(Ty::I64, kb.param(0), v);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 55);
}

#[test]
fn metrics_counters_are_exact_for_straight_line() {
    let mut m = Module::new("cnt");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = b.load(Ty::F64, b.param(0));
    let w = b.fmul(v, v);
    b.store(Ty::F64, b.param(0), w);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let buf = dev.alloc(8);
    dev.write_f64(buf, &[3.0]).unwrap();
    let metrics = dev.launch("k", Launch::new(1, 1), &[RtVal::P(buf)]).unwrap();
    assert_eq!(metrics.instructions, 3);
    assert_eq!(metrics.flops, 1);
    assert_eq!(metrics.global_accesses, 2);
    assert_eq!(dev.read_f64(buf, 1).unwrap()[0], 9.0);
}

#[test]
fn dynamic_shared_memory_counts_against_occupancy() {
    let mut m = Module::new("dsm");
    let mut b = FuncBuilder::new("k", vec![], None);
    let x = b.add(Operand::i64(1), Operand::i64(1));
    let _ = b.mul(x, x);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let plain = dev
        .launch("k", Launch::new(4, 32), &[])
        .unwrap();
    let fat = dev
        .launch(
            "k",
            Launch {
                teams: 4,
                threads_per_team: 32,
                dyn_smem_bytes: 64 * 1024,
            },
            &[],
        )
        .unwrap();
    assert!(fat.teams_per_sm < plain.teams_per_sm);
    assert_eq!(fat.dyn_smem_bytes, 64 * 1024);
}

/// A shape no SM can hold is a typed `BadLaunch`, decided before anything
/// is sized from it: a launch at each limit runs, one past it is refused,
/// and neither `u32::MAX` threads nor `u64::MAX` bytes of shared memory
/// overflows or allocates.
#[test]
fn launch_shapes_past_an_sm_are_refused() {
    let mut m = Module::new("shape");
    // Static shared memory counts against the limit with the dynamic.
    m.add_global(Global::new("s", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![], None);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut dev = Device::load(m, DeviceConfig::default());
    let mut launch = |threads_per_team, dyn_smem_bytes| {
        dev.launch("k", Launch { teams: 2, threads_per_team, dyn_smem_bytes }, &[])
    };
    let widest = launch(MAX_THREADS_PER_SM, 0).unwrap();
    assert_eq!(widest.threads_per_team, MAX_THREADS_PER_SM);
    let fullest = launch(1, SMEM_PER_SM - 8).unwrap();
    assert_eq!(fullest.smem_bytes + fullest.dyn_smem_bytes, SMEM_PER_SM);
    for (threads, dyn_smem) in [
        (MAX_THREADS_PER_SM + 1, 0),
        (u32::MAX, 0),
        (1, SMEM_PER_SM - 7),
        (1, 1 << 40),
        (1, u64::MAX),
    ] {
        let err = launch(threads, dyn_smem).unwrap_err();
        assert!(
            matches!(err.kind, TrapKind::BadLaunch(_)),
            "{threads} threads, {dyn_smem} B: {err}"
        );
    }
}

/// A grid of `u32::MAX` teams is a shape an SM can hold: it runs, with
/// state kept per wave rather than per team, until the step budget is
/// spent — a typed `FuelExhausted` at the same team and thread on one
/// worker and on two, after the few waves the budget pays for.
#[test]
fn a_grid_of_u32_max_teams_spends_the_step_budget() {
    let mut m = Module::new("grid");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let slot = b.gep(b.param(0), tid, 8);
    let team = b.block_id();
    b.store(Ty::I64, slot, team);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let traps: Vec<_> = [1, 2]
        .map(|workers| {
            let cfg = DeviceConfig { max_steps: 10_000, ..DeviceConfig::default() };
            let mut dev = Device::load(m.clone(), cfg);
            dev.set_worker_threads(workers);
            let out = dev.alloc(8 * 16);
            let err = dev.launch("k", Launch::new(u32::MAX, 16), &[RtVal::P(out)]).unwrap_err();
            assert_eq!(err.kind, TrapKind::FuelExhausted, "{workers} workers: {err}");
            if let Some(w) = dev.last_wave_stats() {
                assert!(w.teams < 1_000, "{workers} workers ran {w:?}");
            }
            (err, dev.global_bytes().to_vec())
        })
        .into();
    assert_eq!(traps[0], traps[1]);
}

/// Register demand is remembered per kernel, not per device: two kernels
/// of one module launched on one device — in either order, and again —
/// report what a fresh device reports for each. `fat`'s demand comes from
/// its callee, so the memo must cover the whole call tree of *that* kernel.
#[test]
fn register_demand_is_remembered_per_kernel() {
    let mut m = Module::new("two");
    let mut wb = FuncBuilder::new("wide", vec![Ty::I64], Some(Ty::I64));
    let x = wb.param(0);
    let terms: Vec<Operand> = (1..=12).map(|k| wb.mul(x, Operand::i64(k))).collect();
    let sum = terms[1..].iter().fold(terms[0], |acc, t| wb.add(acc, *t));
    wb.ret(Some(sum));
    let wide = m.add_function(wb.finish());
    for (name, call_wide) in [("lean", false), ("fat", true)] {
        let mut b = FuncBuilder::new(name, vec![Ty::Ptr], None);
        let tid = b.thread_id();
        let v = if call_wide {
            b.call(Operand::Func(wide), vec![tid], Some(Ty::I64)).unwrap()
        } else {
            tid
        };
        let slot = b.gep(b.param(0), tid, 8);
        b.store(Ty::I64, slot, v);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
    }
    nzomp_ir::verify_module(&m).unwrap();

    let load = || Device::load(m.clone(), DeviceConfig::default());
    let regs = |dev: &mut Device, kernel: &str| {
        let out = dev.alloc(8 * 4);
        dev.launch(kernel, Launch::new(1, 4), &[RtVal::P(out)]).unwrap().regs_per_thread
    };
    let lean = regs(&mut load(), "lean");
    let fat = regs(&mut load(), "fat");
    assert!(fat > lean, "the two kernels must differ ({lean} vs {fat} registers)");

    for order in [["lean", "fat"], ["fat", "lean"]] {
        let mut dev = load();
        for kernel in order.iter().chain(&order) {
            let want = if *kernel == "fat" { fat } else { lean };
            assert_eq!(regs(&mut dev, kernel), want, "@{kernel} after {order:?}");
        }
    }
}
