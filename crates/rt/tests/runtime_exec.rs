//! Behavioral tests: hand-lowered kernels (what the frontend will emit)
//! linked against each runtime and executed on the virtual GPU. These pin
//! down the runtime semantics before any optimization runs.
//! One run setting suffices — `parallel_runtime` crosses worker counts on
//! both runtimes, `parallel_determinism` the sanitizer — except for the
//! nested parallel's serialized ICV state, whose release meets the
//! sanitizer only here: that test runs with it off and on.

use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_rt::{abi, build_runtime, declare_api, RtConfig, RuntimeFlavor};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, Sanitize, TrapKind};

fn link_rt(mut app: Module, flavor: RuntimeFlavor, cfg: &RtConfig) -> Module {
    let rt = build_runtime(flavor, cfg, true);
    nzomp_ir::link::link(&mut app, rt).expect("link");
    nzomp_ir::verify_module(&app).expect("verify");
    app
}

/// Modern-runtime SPMD kernel:
/// `target teams distribute parallel for: out[i] = 2*i`.
fn modern_spmd_module() -> Module {
    let mut m = Module::new("app");
    // Outlined loop body: body(iv, argsptr); *argsptr holds `out`.
    let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
    let iv = bb.param(0);
    let args = bb.param(1);
    let out = bb.load(Ty::Ptr, args);
    let slot = bb.gep(out, iv, 8);
    let v = bb.mul(iv, Operand::i64(2));
    bb.store(Ty::I64, slot, v);
    bb.ret(None);
    let body = m.add_function(bb.finish());

    let init = declare_api(&mut m, abi::TARGET_INIT);
    let deinit = declare_api(&mut m, abi::TARGET_DEINIT);
    let loop_fn = declare_api(&mut m, abi::DIST_PAR_FOR_LOOP);

    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr, Ty::I64], None);
    let out = kb.param(0);
    let n = kb.param(1);
    let _ = kb.call(
        Operand::Func(init),
        vec![Operand::i64(abi::MODE_SPMD)],
        Some(Ty::I64),
    );
    // Each thread passes its own args copy (SPMD: private is fine).
    let args = kb.alloca(8);
    kb.store(Ty::Ptr, args, out);
    kb.call(
        Operand::Func(loop_fn),
        vec![Operand::Func(body), args, n],
        None,
    );
    kb.call(
        Operand::Func(deinit),
        vec![Operand::i64(abi::MODE_SPMD)],
        None,
    );
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Spmd);
    m
}

#[test]
fn modern_spmd_distribute_parallel_for() {
    let m = link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &RtConfig::default());
    let mut dev = Device::load(m, DeviceConfig::default());
    let n = 1000i64;
    let out = dev.alloc(8 * n as u64);
    let metrics = dev
        .launch("kernel", Launch::new(4, 32), &[RtVal::P(out), RtVal::I(n)])
        .unwrap();
    let got = dev.read_i64(out, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(got[i], 2 * i as i64);
    }
    // Unoptimized: runtime calls and the runtime's shared state are there.
    assert!(metrics.runtime_calls > 0);
    assert_eq!(metrics.smem_bytes, 11304, "modern RT static smem");
}

/// Iteration-space coverage for arbitrary (teams, threads, n): every
/// iteration executed exactly once (atomic increment per index).
#[test]
fn modern_worksharing_covers_iteration_space() {
    for (teams, threads, n) in [(1u32, 1u32, 7i64), (2, 8, 64), (3, 5, 17), (4, 32, 100)] {
        let mut m = Module::new("cover");
        let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
        let iv = bb.param(0);
        let args = bb.param(1);
        let out = bb.load(Ty::Ptr, args);
        let slot = bb.gep(out, iv, 8);
        bb.atomic_add(Ty::I64, slot, Operand::i64(1));
        bb.ret(None);
        let body = m.add_function(bb.finish());
        let init = declare_api(&mut m, abi::TARGET_INIT);
        let loop_fn = declare_api(&mut m, abi::DIST_PAR_FOR_LOOP);
        let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr, Ty::I64], None);
        let out = kb.param(0);
        let n_arg = kb.param(1);
        kb.call(
            Operand::Func(init),
            vec![Operand::i64(abi::MODE_SPMD)],
            Some(Ty::I64),
        );
        let args = kb.alloca(8);
        kb.store(Ty::Ptr, args, out);
        kb.call(
            Operand::Func(loop_fn),
            vec![Operand::Func(body), args, n_arg],
            None,
        );
        kb.ret(None);
        let k = m.add_function(kb.finish());
        m.add_kernel(k, ExecMode::Spmd);
        let m = link_rt(m, RuntimeFlavor::Modern, &RtConfig::default());
        let mut dev = Device::load(m, DeviceConfig::default());
        let out = dev.alloc(8 * n as u64);
        dev.launch(
            "kernel",
            Launch::new(teams, threads),
            &[RtVal::P(out), RtVal::I(n)],
        )
        .unwrap();
        let got = dev.read_i64(out, n as usize).unwrap();
        assert!(
            got.iter().all(|&c| c == 1),
            "coverage {teams}x{threads} n={n}: {got:?}"
        );
    }
}

/// Generic-mode kernel with the state machine: `parallel` from sequential
/// main-thread code. Parallel args must be globalized (alloc_shared).
fn modern_generic_module() -> Module {
    let mut m = Module::new("app");
    let mut bb = FuncBuilder::new("par_body", vec![Ty::Ptr], None);
    let args = bb.param(0);
    let gtn = declare_api(&mut m, abi::OMP_GET_THREAD_NUM);
    let out = bb.load(Ty::Ptr, args);
    let tn = bb.call(Operand::Func(gtn), vec![], Some(Ty::I64)).unwrap();
    let slot = bb.gep(out, tn, 8);
    let v = bb.add(tn, Operand::i64(100));
    bb.store(Ty::I64, slot, v);
    bb.ret(None);
    let body = m.add_function(bb.finish());

    let init = declare_api(&mut m, abi::TARGET_INIT);
    let deinit = declare_api(&mut m, abi::TARGET_DEINIT);
    let par = declare_api(&mut m, abi::PARALLEL_51);
    let alloc = declare_api(&mut m, abi::ALLOC_SHARED);
    let freesh = declare_api(&mut m, abi::FREE_SHARED);

    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr], None);
    let out = kb.param(0);
    let ec = kb
        .call(
            Operand::Func(init),
            vec![Operand::i64(abi::MODE_GENERIC)],
            Some(Ty::I64),
        )
        .unwrap();
    let is_worker = kb.icmp_ne(ec, Operand::i64(0));
    let main_bb = kb.new_block();
    let exit_bb = kb.new_block();
    kb.cond_br(is_worker, exit_bb, main_bb);
    kb.switch_to(main_bb);
    // Globalized parallel args (workers must be able to read them).
    let args = kb
        .call(Operand::Func(alloc), vec![Operand::i64(8)], Some(Ty::Ptr))
        .unwrap();
    kb.store(Ty::Ptr, args, out);
    kb.call(Operand::Func(par), vec![Operand::Func(body), args], None);
    kb.call(Operand::Func(freesh), vec![args, Operand::i64(8)], None);
    kb.call(
        Operand::Func(deinit),
        vec![Operand::i64(abi::MODE_GENERIC)],
        None,
    );
    kb.br(exit_bb);
    kb.switch_to(exit_bb);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Generic);
    m
}

#[test]
fn modern_generic_state_machine_parallel() {
    let m = link_rt(modern_generic_module(), RuntimeFlavor::Modern, &RtConfig::default());
    let mut dev = Device::load(m, DeviceConfig::default());
    let threads = 16u32;
    let out = dev.alloc(8 * threads as u64);
    let metrics = dev
        .launch("kernel", Launch::new(2, threads), &[RtVal::P(out)])
        .unwrap();
    let got = dev.read_i64(out, threads as usize).unwrap();
    for t in 0..threads as usize {
        assert_eq!(got[t], t as i64 + 100, "thread {t}");
    }
    // The state machine costs barriers.
    assert!(metrics.barriers >= 4);
}

/// Nested parallel (paper Fig. 4): the inner region is serialized with an
/// individual thread ICV state; omp_get_thread_num() == 0 and level == 2
/// inside.
#[test]
fn modern_nested_parallel_is_serialized() {
    let mut m = Module::new("nested");
    let gtn = declare_api(&mut m, abi::OMP_GET_THREAD_NUM);
    let glvl = declare_api(&mut m, abi::OMP_GET_LEVEL);
    let gnth = declare_api(&mut m, abi::OMP_GET_NUM_THREADS);
    let par = declare_api(&mut m, abi::PARALLEL_51);

    // inner body: record (thread_num, level, num_threads) for the hardware
    // thread that ran it.
    let mut ib = FuncBuilder::new("inner", vec![Ty::Ptr], None);
    let args = ib.param(0);
    let out = ib.load(Ty::Ptr, args);
    let hw = ib.thread_id();
    let tn = ib.call(Operand::Func(gtn), vec![], Some(Ty::I64)).unwrap();
    let lv = ib.call(Operand::Func(glvl), vec![], Some(Ty::I64)).unwrap();
    let nt = ib.call(Operand::Func(gnth), vec![], Some(Ty::I64)).unwrap();
    let base = ib.mul(hw, Operand::i64(24));
    let p0 = ib.ptr_add(out, base);
    ib.store(Ty::I64, p0, tn);
    let p1 = ib.ptr_add(p0, Operand::i64(8));
    ib.store(Ty::I64, p1, lv);
    let p2 = ib.ptr_add(p0, Operand::i64(16));
    ib.store(Ty::I64, p2, nt);
    ib.ret(None);
    let inner = m.add_function(ib.finish());

    // outer body: each thread starts a nested parallel.
    let mut ob = FuncBuilder::new("outer", vec![Ty::Ptr], None);
    let args = ob.param(0);
    ob.call(Operand::Func(par), vec![Operand::Func(inner), args], None);
    ob.ret(None);
    let outer = m.add_function(ob.finish());

    let init = declare_api(&mut m, abi::TARGET_INIT);
    let deinit = declare_api(&mut m, abi::TARGET_DEINIT);
    let alloc = declare_api(&mut m, abi::ALLOC_SHARED);

    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr], None);
    let out = kb.param(0);
    let ec = kb
        .call(
            Operand::Func(init),
            vec![Operand::i64(abi::MODE_GENERIC)],
            Some(Ty::I64),
        )
        .unwrap();
    let is_worker = kb.icmp_ne(ec, Operand::i64(0));
    let main_bb = kb.new_block();
    let exit_bb = kb.new_block();
    kb.cond_br(is_worker, exit_bb, main_bb);
    kb.switch_to(main_bb);
    let args = kb
        .call(Operand::Func(alloc), vec![Operand::i64(8)], Some(Ty::Ptr))
        .unwrap();
    kb.store(Ty::Ptr, args, out);
    kb.call(Operand::Func(par), vec![Operand::Func(outer), args], None);
    kb.call(
        Operand::Func(deinit),
        vec![Operand::i64(abi::MODE_GENERIC)],
        None,
    );
    kb.br(exit_bb);
    kb.switch_to(exit_bb);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Generic);

    let m = link_rt(m, RuntimeFlavor::Modern, &RtConfig::default());
    for sanitize in [Sanitize::Off, Sanitize::Report] {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        dev.set_sanitize(sanitize);
        let threads = 8u32;
        let out = dev.alloc(24 * threads as u64);
        dev.launch("kernel", Launch::new(1, threads), &[RtVal::P(out)])
            .unwrap();
        let got = dev.read_i64(out, 3 * threads as usize).unwrap();
        for t in 0..threads as usize {
            assert_eq!(got[3 * t], 0, "nested thread_num (thread {t}, {sanitize:?})");
            assert_eq!(got[3 * t + 1], 2, "nested level (thread {t}, {sanitize:?})");
            assert_eq!(got[3 * t + 2], 1, "nested num_threads (thread {t}, {sanitize:?})");
        }
    }
}

/// Legacy runtime SPMD-style kernel using distribute + for_static_init with
/// memory-carried bounds.
fn legacy_spmd_module() -> Module {
    let mut m = Module::new("legacy-app");
    let init = declare_api(&mut m, abi::OLD_TARGET_INIT);
    let deinit = declare_api(&mut m, abi::OLD_TARGET_DEINIT);
    let dist = declare_api(&mut m, abi::OLD_DISTRIBUTE_INIT);
    let fsi = declare_api(&mut m, abi::OLD_FOR_STATIC_INIT);
    let fini = declare_api(&mut m, abi::OLD_FOR_STATIC_FINI);

    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr, Ty::I64], None);
    let out = kb.param(0);
    let n = kb.param(1);
    kb.call(
        Operand::Func(init),
        vec![Operand::i64(abi::MODE_SPMD)],
        Some(Ty::I64),
    );
    // Memory-carried bounds: the old API shape.
    let lb = kb.alloca(8);
    let ub = kb.alloca(8);
    let st = kb.alloca(8);
    kb.call(Operand::Func(dist), vec![lb, ub, st, n], None);
    let tlo = kb.load(Ty::I64, lb);
    let thi = kb.load(Ty::I64, ub);
    let tspan = kb.sub(thi, tlo);
    let lb2 = kb.alloca(8);
    let ub2 = kb.alloca(8);
    let st2 = kb.alloca(8);
    kb.call(Operand::Func(fsi), vec![lb2, ub2, st2, tspan], None);
    let lo_rel = kb.load(Ty::I64, lb2);
    let hi_rel = kb.load(Ty::I64, ub2);
    let lo = kb.add(tlo, lo_rel);
    let hi = kb.add(tlo, hi_rel);
    nzomp_ir::builder::build_counted_loop(&mut kb, lo, hi, Operand::i64(1), |kb, i| {
        let slot = kb.gep(out, i, 8);
        let v = kb.mul(i, Operand::i64(3));
        kb.store(Ty::I64, slot, v);
    });
    kb.call(Operand::Func(fini), vec![], None);
    kb.call(
        Operand::Func(deinit),
        vec![Operand::i64(abi::MODE_SPMD)],
        None,
    );
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Spmd);
    m
}

#[test]
fn legacy_spmd_worksharing() {
    let m = link_rt(legacy_spmd_module(), RuntimeFlavor::Legacy, &RtConfig::default());
    let mut dev = Device::load(m, DeviceConfig::default());
    let n = 300i64;
    let out = dev.alloc(8 * n as u64);
    let metrics = dev
        .launch("kernel", Launch::new(3, 10), &[RtVal::P(out), RtVal::I(n)])
        .unwrap();
    let got = dev.read_i64(out, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(got[i], 3 * i as i64, "index {i}");
    }
    // Legacy with data sharing: 2336 + 5944 + 8 bytes of shared state.
    assert_eq!(metrics.smem_bytes, 8288);
}

/// Legacy generic-mode parallel through the old state machine.
#[test]
fn legacy_generic_state_machine() {
    let mut m = Module::new("legacy-gen");
    let gtn = declare_api(&mut m, abi::OMP_GET_THREAD_NUM);
    let mut bb = FuncBuilder::new("par_body", vec![Ty::Ptr], None);
    let args = bb.param(0);
    let out = bb.load(Ty::Ptr, args);
    let tn = bb.call(Operand::Func(gtn), vec![], Some(Ty::I64)).unwrap();
    let slot = bb.gep(out, tn, 8);
    let v = bb.add(tn, Operand::i64(7));
    bb.store(Ty::I64, slot, v);
    bb.ret(None);
    let body = m.add_function(bb.finish());

    let init = declare_api(&mut m, abi::OLD_TARGET_INIT);
    let deinit = declare_api(&mut m, abi::OLD_TARGET_DEINIT);
    let prep = declare_api(&mut m, abi::OLD_PARALLEL_PREPARE);
    let endp = declare_api(&mut m, abi::OLD_PARALLEL_END);
    let bar = declare_api(&mut m, abi::OLD_BARRIER);
    let push = declare_api(&mut m, abi::OLD_DATA_SHARING_PUSH);
    let pop = declare_api(&mut m, abi::OLD_DATA_SHARING_POP);

    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr], None);
    let out = kb.param(0);
    let ec = kb
        .call(
            Operand::Func(init),
            vec![Operand::i64(abi::MODE_GENERIC)],
            Some(Ty::I64),
        )
        .unwrap();
    let is_worker = kb.icmp_ne(ec, Operand::i64(0));
    let main_bb = kb.new_block();
    let exit_bb = kb.new_block();
    kb.cond_br(is_worker, exit_bb, main_bb);
    kb.switch_to(main_bb);
    let args = kb
        .call(Operand::Func(push), vec![Operand::i64(8)], Some(Ty::Ptr))
        .unwrap();
    kb.store(Ty::Ptr, args, out);
    kb.call(Operand::Func(prep), vec![Operand::Func(body), args], None);
    kb.call(Operand::Func(bar), vec![], None); // release workers
    kb.call(Operand::Func(body), vec![args], None); // main participates
    kb.call(Operand::Func(bar), vec![], None); // join
    kb.call(Operand::Func(endp), vec![], None);
    kb.call(Operand::Func(pop), vec![args, Operand::i64(8)], None);
    kb.call(
        Operand::Func(deinit),
        vec![Operand::i64(abi::MODE_GENERIC)],
        None,
    );
    kb.br(exit_bb);
    kb.switch_to(exit_bb);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Generic);

    let m = link_rt(m, RuntimeFlavor::Legacy, &RtConfig::default());
    let mut dev = Device::load(m, DeviceConfig::default());
    let threads = 12u32;
    let out = dev.alloc(8 * threads as u64);
    dev.launch("kernel", Launch::new(1, threads), &[RtVal::P(out)])
        .unwrap();
    let got = dev.read_i64(out, threads as usize).unwrap();
    for t in 0..threads as usize {
        assert_eq!(got[t], t as i64 + 7, "thread {t}");
    }
}

/// Debug build: the oversubscription assumption is *verified* (paper §III-F
/// "after asserting that the condition actually holds at runtime").
#[test]
fn oversubscription_assumption_checked_in_debug() {
    let cfg = RtConfig {
        debug_kind: abi::DEBUG_ASSERTIONS,
        assume_threads_oversubscription: true,
        ..RtConfig::default()
    };
    // 2 teams x 4 threads = 8 slots, but 100 iterations: assumption is false.
    let m = link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &cfg);
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8 * 100);
    let err = dev
        .launch("kernel", Launch::new(2, 4), &[RtVal::P(out), RtVal::I(100)])
        .unwrap_err();
    assert_eq!(err.kind, TrapKind::AssertFail);

    // With enough threads the assumption holds and the kernel passes.
    let m2 = link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &cfg);
    let mut dev2 = Device::load(m2, DeviceConfig::default());
    let out2 = dev2.alloc(8 * 100);
    dev2.launch("kernel", Launch::new(4, 32), &[RtVal::P(out2), RtVal::I(100)])
        .unwrap();
}

/// Function tracing (debug): runtime entries are counted; release: zero.
#[test]
fn function_tracing_counts_runtime_entries() {
    let cfg = RtConfig {
        debug_kind: abi::DEBUG_FUNCTION_TRACING,
        ..RtConfig::default()
    };
    let m = link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &cfg);
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8 * 10);
    dev.launch("kernel", Launch::new(1, 4), &[RtVal::P(out), RtVal::I(10)])
        .unwrap();
    let addr = dev.global_addr(abi::G_TRACE_COUNT).unwrap();
    let count = dev.read_i64(addr, 1).unwrap()[0];
    assert!(count > 0, "trace counter should have fired, got {count}");

    let m2 = link_rt(
        modern_spmd_module(),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
    );
    let mut dev2 = Device::load(m2, DeviceConfig::default());
    let out2 = dev2.alloc(8 * 10);
    dev2.launch("kernel", Launch::new(1, 4), &[RtVal::P(out2), RtVal::I(10)])
        .unwrap();
    let addr2 = dev2.global_addr(abi::G_TRACE_COUNT).unwrap();
    assert_eq!(dev2.read_i64(addr2, 1).unwrap()[0], 0);
}

/// Shared-memory stack exhaustion falls back to device malloc (§III-D).
#[test]
fn alloc_shared_falls_back_to_malloc() {
    let mut m = Module::new("fallback");
    let alloc = declare_api(&mut m, abi::ALLOC_SHARED);
    let freesh = declare_api(&mut m, abi::FREE_SHARED);
    let init = declare_api(&mut m, abi::TARGET_INIT);
    let mut kb = FuncBuilder::new("kernel", vec![Ty::Ptr], None);
    let out = kb.param(0);
    kb.call(
        Operand::Func(init),
        vec![Operand::i64(abi::MODE_SPMD)],
        Some(Ty::I64),
    );
    // Allocate more than SMEM_STACK_SIZE in one go: must fall back.
    let big = Operand::i64((abi::SMEM_STACK_SIZE + 4096) as i64);
    let p = kb
        .call(Operand::Func(alloc), vec![big], Some(Ty::Ptr))
        .unwrap();
    kb.store(Ty::I64, p, Operand::i64(77));
    let v = kb.load(Ty::I64, p);
    kb.store(Ty::I64, out, v);
    kb.call(Operand::Func(freesh), vec![p, big], None);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let m = link_rt(m, RuntimeFlavor::Modern, &RtConfig::default());
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    let metrics = dev
        .launch("kernel", Launch::new(1, 1), &[RtVal::P(out)])
        .unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 77);
    assert_eq!(metrics.device_mallocs, 1, "fell back to device malloc");
}
