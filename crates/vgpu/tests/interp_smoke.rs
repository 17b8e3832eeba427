//! End-to-end interpreter smoke tests: hand-built IR kernels executed on the
//! virtual device.
//! One run setting suffices: the corpus and `parallel_determinism` cross
//! the run axes.

use nzomp_ir::builder::build_counted_loop;
use nzomp_ir::{ExecMode, FuncBuilder, Global, Init, Module, Operand, Space, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, TrapKind};

/// CUDA-style grid-stride vector add: `out[i] = a[i] + b[i]`.
fn build_vecadd() -> Module {
    let mut m = Module::new("vecadd");
    let mut b = FuncBuilder::new(
        "vecadd",
        vec![Ty::Ptr, Ty::Ptr, Ty::Ptr, Ty::I64],
        None,
    );
    let (a, bb, out, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let tid = b.thread_id();
    let bid = b.block_id();
    let bdim = b.block_dim();
    let gdim = b.grid_dim();
    let base = b.mul(bid, bdim);
    let start = b.add(base, tid);
    let stride = b.mul(bdim, gdim);
    build_counted_loop(&mut b, start, n, stride, |b, i| {
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let po = b.gep(out, i, 8);
        let va = b.load(Ty::F64, pa);
        let vb = b.load(Ty::F64, pb);
        let sum = b.fadd(va, vb);
        b.store(Ty::F64, po, sum);
    });
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

#[test]
fn vecadd_runs_and_matches() {
    let m = build_vecadd();
    let mut dev = Device::load(m, DeviceConfig::default());
    let n = 1000usize;
    let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
    let pa = dev.alloc_f64(&a);
    let pb = dev.alloc_f64(&b);
    let po = dev.alloc((n * 8) as u64);
    let metrics = dev
        .launch(
            "vecadd",
            Launch::new(4, 64),
            &[RtVal::P(pa), RtVal::P(pb), RtVal::P(po), RtVal::I(n as i64)],
        )
        .unwrap();
    let out = dev.read_f64(po, n).unwrap();
    for i in 0..n {
        assert_eq!(out[i], (i + i * 2) as f64, "index {i}");
    }
    assert!(metrics.instructions > 0);
    assert!(metrics.cycles > 0);
    assert!(metrics.global_accesses >= 3 * n as u64);
    assert_eq!(metrics.smem_bytes, 0);
}

#[test]
fn vecadd_deterministic_cycles() {
    let run = || {
        let m = build_vecadd();
        let mut dev = Device::load(m, DeviceConfig::default());
        let a = vec![1.0; 256];
        let pa = dev.alloc_f64(&a);
        let pb = dev.alloc_f64(&a);
        let po = dev.alloc(256 * 8);
        dev.launch(
            "vecadd",
            Launch::new(2, 32),
            &[RtVal::P(pa), RtVal::P(pb), RtVal::P(po), RtVal::I(256)],
        )
        .unwrap()
        .cycles
    };
    assert_eq!(run(), run());
}

/// Barrier alignment: all threads reach the barrier; kernel completes.
#[test]
fn barrier_releases_all_threads() {
    let mut m = Module::new("bar");
    m.add_global(Global::new("buf", Space::Shared, 8 * 64, Init::Zero));
    let g = m.find_global("buf").unwrap();
    let mut b = FuncBuilder::new("bar", vec![Ty::Ptr], None);
    let out = b.param(0);
    let tid = b.thread_id();
    // buf[tid] = tid; barrier; out[tid] = buf[63 - tid]
    let slot = b.gep(Operand::Global(g), tid, 8);
    b.store(Ty::I64, slot, tid);
    b.aligned_barrier();
    let rev = b.sub(Operand::i64(63), tid);
    let other = b.gep(Operand::Global(g), rev, 8);
    let v = b.load(Ty::I64, other);
    let oslot = b.gep(out, tid, 8);
    b.store(Ty::I64, oslot, v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();

    let mut dev = Device::load(m, DeviceConfig::default());
    let po = dev.alloc(8 * 64);
    let metrics = dev
        .launch("bar", Launch::new(1, 64), &[RtVal::P(po)])
        .unwrap();
    let out = dev.read_i64(po, 64).unwrap();
    for t in 0..64 {
        assert_eq!(out[t], 63 - t as i64);
    }
    assert_eq!(metrics.barriers, 1);
    assert_eq!(metrics.smem_bytes, 8 * 64);
}

/// Cross-thread access to local memory must trap (the globalization hazard).
#[test]
fn cross_thread_local_access_traps() {
    let mut m = Module::new("xlocal");
    m.add_global(Global::new("slot", Space::Shared, 8, Init::Zero));
    let g = m.find_global("slot").unwrap();
    let mut b = FuncBuilder::new("xlocal", vec![], None);
    let tid = b.thread_id();
    let local = b.alloca(8);
    b.store(Ty::I64, local, tid);
    // Thread 0 publishes its *local* pointer; all threads then read through
    // it after a barrier — thread 1 must trap.
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let t_bb = b.new_block();
    let join = b.new_block();
    b.cond_br(is0, t_bb, join);
    b.switch_to(t_bb);
    b.store(Ty::Ptr, Operand::Global(g), local);
    b.br(join);
    b.switch_to(join);
    b.barrier();
    let p = b.load(Ty::Ptr, Operand::Global(g));
    let _v = b.load(Ty::I64, p);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();

    let mut dev = Device::load(m, DeviceConfig::default());
    let err = dev.launch("xlocal", Launch::new(1, 2), &[]).unwrap_err();
    assert!(matches!(
        err.kind,
        TrapKind::CrossThreadLocalAccess { owner: 0, .. }
    ));
}

/// An aligned barrier not reached by all threads deadlocks deterministically.
#[test]
fn lone_barrier_deadlocks() {
    let mut m = Module::new("dead");
    let mut b = FuncBuilder::new("dead", vec![], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let wait = b.new_block();
    let done = b.new_block();
    b.cond_br(is0, wait, done);
    b.switch_to(wait);
    b.aligned_barrier();
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    let mut dev = Device::load(m, DeviceConfig::default());
    let err = dev.launch("dead", Launch::new(1, 2), &[]).unwrap_err();
    assert_eq!(err.kind, TrapKind::BarrierDeadlock);
}

/// Device malloc + free round trip, and OOM detection.
#[test]
fn device_malloc_roundtrip() {
    let mut m = Module::new("mall");
    let mut b = FuncBuilder::new("mall", vec![Ty::Ptr], None);
    let out = b.param(0);
    let p = b.malloc(Operand::i64(16));
    b.store(Ty::I64, p, Operand::i64(1234));
    let v = b.load(Ty::I64, p);
    b.store(Ty::I64, out, v);
    b.free(p);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    let mut dev = Device::load(m, DeviceConfig::default());
    let po = dev.alloc(8);
    let metrics = dev
        .launch("mall", Launch::new(1, 1), &[RtVal::P(po)])
        .unwrap();
    assert_eq!(dev.read_i64(po, 1).unwrap()[0], 1234);
    assert_eq!(metrics.device_mallocs, 1);
}

/// Assume checking traps in debug configs and is free in release configs.
#[test]
fn assume_checked_only_in_debug() {
    let build = || {
        let mut m = Module::new("asm");
        let mut b = FuncBuilder::new("asm", vec![Ty::I64], None);
        let x = b.param(0);
        let c = b.icmp_eq(x, Operand::i64(42));
        b.assume(c);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        m
    };
    let mut debug_dev = Device::load(build(), DeviceConfig::default());
    let err = debug_dev
        .launch("asm", Launch::new(1, 1), &[RtVal::I(7)])
        .unwrap_err();
    assert_eq!(err.kind, TrapKind::AssumeViolated);

    let release_cfg = DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    };
    let mut rel_dev = Device::load(build(), release_cfg);
    rel_dev
        .launch("asm", Launch::new(1, 1), &[RtVal::I(7)])
        .unwrap();
}

/// Occupancy: shared-memory-hungry kernels take more waves and more time.
#[test]
fn occupancy_penalizes_shared_memory() {
    let build = |smem: u64| {
        let mut m = Module::new("occ");
        if smem > 0 {
            m.add_global(Global::new("pad", Space::Shared, smem, Init::Zero));
        }
        let mut b = FuncBuilder::new("occ", vec![], None);
        // A little work so team cycles are nonzero.
        let x = b.add(Operand::i64(1), Operand::i64(2));
        let _ = b.mul(x, x);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        m
    };
    let run = |smem: u64| {
        let mut dev = Device::load(build(smem), DeviceConfig::default());
        dev.launch("occ", Launch::new(256, 64), &[]).unwrap()
    };
    let lean = run(0);
    let fat = run(48 * 1024);
    assert!(fat.waves > lean.waves, "{} vs {}", fat.waves, lean.waves);
    assert!(fat.cycles > lean.cycles);
}
