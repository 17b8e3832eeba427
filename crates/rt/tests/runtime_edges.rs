//! Edge cases of the device runtimes: ICV queries per mode, worksharing
//! degenerate shapes, shared-stack LIFO behavior.
//! One run setting suffices — `parallel_runtime` crosses worker counts on
//! both runtimes, `parallel_determinism` the sanitizer — except for
//! freeing shared memory nothing touched, which meets the sanitizer only
//! here: that test runs with it off and on.

use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_rt::{abi, build_runtime, declare_api, RtConfig, RuntimeFlavor};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, Sanitize};

fn link_modern(mut app: Module) -> Module {
    let rt = build_runtime(RuntimeFlavor::Modern, &RtConfig::default(), true);
    nzomp_ir::link::link(&mut app, rt).unwrap();
    nzomp_ir::verify_module(&app).unwrap();
    app
}

/// ICV queries from an SPMD kernel: thread_num == hw tid, num_threads ==
/// block dim, level == 1, team/num_teams == grid coordinates.
#[test]
fn icv_queries_in_spmd_mode() {
    let mut m = Module::new("icv");
    let init = declare_api(&mut m, abi::TARGET_INIT);
    let fns = [
        abi::OMP_GET_THREAD_NUM,
        abi::OMP_GET_NUM_THREADS,
        abi::OMP_GET_LEVEL,
        abi::OMP_GET_TEAM_NUM,
        abi::OMP_GET_NUM_TEAMS,
    ]
    .map(|n| declare_api(&mut m, n));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
    let tid = b.thread_id();
    let bid = b.block_id();
    let bdim = b.block_dim();
    let tmp = b.mul(bid, bdim);
    let gid = b.add(tmp, tid);
    let base = b.mul(gid, Operand::i64(5 * 8));
    let out = b.ptr_add(b.param(0), base);
    for (i, f) in fns.iter().enumerate() {
        let v = b.call(Operand::Func(*f), vec![], Some(Ty::I64)).unwrap();
        let slot = b.ptr_add(out, Operand::i64(i as i64 * 8));
        b.store(Ty::I64, slot, v);
    }
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let m = link_modern(m);
    let mut dev = Device::load(m, DeviceConfig::default());
    let (teams, threads) = (3u32, 4u32);
    let buf = dev.alloc(5 * 8 * (teams * threads) as u64);
    dev.launch("k", Launch::new(teams, threads), &[RtVal::P(buf)]).unwrap();
    let vals = dev.read_i64(buf, 5 * (teams * threads) as usize).unwrap();
    for team in 0..teams as i64 {
        for t in 0..threads as i64 {
            let g = (team * threads as i64 + t) as usize;
            assert_eq!(vals[g * 5], t, "thread_num");
            assert_eq!(vals[g * 5 + 1], threads as i64, "num_threads");
            assert_eq!(vals[g * 5 + 2], 1, "level");
            assert_eq!(vals[g * 5 + 3], team, "team_num");
            assert_eq!(vals[g * 5 + 4], teams as i64, "num_teams");
        }
    }
}

/// Worksharing with zero iterations executes nothing and terminates.
#[test]
fn worksharing_zero_iterations() {
    let mut m = Module::new("zero");
    let init = declare_api(&mut m, abi::TARGET_INIT);
    let ws = declare_api(&mut m, abi::DIST_PAR_FOR_LOOP);
    let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
    let args = bb.param(1);
    let p = bb.load(Ty::Ptr, args);
    bb.atomic_add(Ty::I64, p, Operand::i64(1));
    bb.ret(None);
    let body = m.add_function(bb.finish());
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
    let a = b.alloca(8);
    b.store(Ty::Ptr, a, b.param(0));
    b.call(Operand::Func(ws), vec![Operand::Func(body), a, Operand::i64(0)], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let m = link_modern(m);
    let mut dev = Device::load(m, DeviceConfig::default());
    let buf = dev.alloc(8);
    dev.launch("k", Launch::new(2, 8), &[RtVal::P(buf)]).unwrap();
    assert_eq!(dev.read_i64(buf, 1).unwrap()[0], 0);
}

/// One thread, one team, many iterations: the grid-stride loop handles the
/// degenerate launch.
#[test]
fn worksharing_single_thread_many_iters() {
    let mut m = Module::new("one");
    let init = declare_api(&mut m, abi::TARGET_INIT);
    let ws = declare_api(&mut m, abi::DIST_PAR_FOR_LOOP);
    let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
    let iv = bb.param(0);
    let args = bb.param(1);
    let p = bb.load(Ty::Ptr, args);
    let slot = bb.gep(p, iv, 8);
    bb.store(Ty::I64, slot, iv);
    bb.ret(None);
    let body = m.add_function(bb.finish());
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
    let a = b.alloca(8);
    b.store(Ty::Ptr, a, b.param(0));
    b.call(Operand::Func(ws), vec![Operand::Func(body), a, b.param(1)], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let m = link_modern(m);
    let mut dev = Device::load(m, DeviceConfig::default());
    let n = 37i64;
    let buf = dev.alloc(8 * n as u64);
    dev.launch("k", Launch::new(1, 1), &[RtVal::P(buf), RtVal::I(n)]).unwrap();
    let vals = dev.read_i64(buf, n as usize).unwrap();
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, i as i64);
    }
}

/// Shared stack is LIFO: alloc/free pairs reuse the same storage.
#[test]
fn shared_stack_is_lifo() {
    let mut m = Module::new("lifo");
    let init = declare_api(&mut m, abi::TARGET_INIT);
    let alloc = declare_api(&mut m, abi::ALLOC_SHARED);
    let freesh = declare_api(&mut m, abi::FREE_SHARED);
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
    let p1 = b.call(Operand::Func(alloc), vec![Operand::i64(16)], Some(Ty::Ptr)).unwrap();
    b.call(Operand::Func(freesh), vec![p1, Operand::i64(16)], None);
    let p2 = b.call(Operand::Func(alloc), vec![Operand::i64(16)], Some(Ty::Ptr)).unwrap();
    b.call(Operand::Func(freesh), vec![p2, Operand::i64(16)], None);
    // LIFO reuse: same address both times.
    let i1 = b.cast(nzomp_ir::CastKind::PtrCast, Ty::I64, p1);
    let i2 = b.cast(nzomp_ir::CastKind::PtrCast, Ty::I64, p2);
    let same = b.icmp_eq(i1, i2);
    let v = b.select(Ty::I64, same, Operand::i64(1), Operand::i64(0));
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let m = link_modern(m);
    for sanitize in [Sanitize::Off, Sanitize::Report] {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        dev.set_sanitize(sanitize);
        let out = dev.alloc(8);
        dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
        assert_eq!(dev.read_i64(out, 1).unwrap()[0], 1, "{sanitize:?}");
    }
}

/// The legacy runtime without data sharing builds a smaller image and
/// `data_sharing_push` falls back to device malloc.
#[test]
fn legacy_without_data_sharing_uses_malloc() {
    let mut m = Module::new("nods");
    let init = declare_api(&mut m, abi::OLD_TARGET_INIT);
    let push = declare_api(&mut m, abi::OLD_DATA_SHARING_PUSH);
    let pop = declare_api(&mut m, abi::OLD_DATA_SHARING_POP);
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
    let p = b.call(Operand::Func(push), vec![Operand::i64(32)], Some(Ty::Ptr)).unwrap();
    b.store(Ty::I64, p, Operand::i64(11));
    let v = b.load(Ty::I64, p);
    b.store(Ty::I64, b.param(0), v);
    b.call(Operand::Func(pop), vec![p, Operand::i64(32)], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let rt = build_runtime(RuntimeFlavor::Legacy, &RtConfig::default(), false);
    nzomp_ir::link::link(&mut m, rt).unwrap();
    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(8);
    let metrics = dev.launch("k", Launch::new(1, 1), &[RtVal::P(out)]).unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 11);
    assert_eq!(metrics.smem_bytes, 2336, "no DS stack reserved");
    assert_eq!(metrics.device_mallocs, 1, "push fell back to malloc");
}

/// The modern runtime's static shared-memory footprint is exactly the
/// paper's 11,304 bytes (Fig. 11, "New RT (Nightly)").
#[test]
fn modern_runtime_footprint_matches_paper() {
    let rt = build_runtime(RuntimeFlavor::Modern, &RtConfig::default(), true);
    assert_eq!(rt.shared_memory_bytes(), 11304);
    let legacy_ds = build_runtime(RuntimeFlavor::Legacy, &RtConfig::default(), true);
    assert_eq!(legacy_ds.shared_memory_bytes(), 8288);
    let legacy = build_runtime(RuntimeFlavor::Legacy, &RtConfig::default(), false);
    assert_eq!(legacy.shared_memory_bytes(), 2336);
}

/// Config constants are baked into the image.
#[test]
fn rt_config_becomes_constant_globals() {
    let cfg = RtConfig {
        debug_kind: 3,
        assume_teams_oversubscription: true,
        assume_threads_oversubscription: false,
    };
    let rt = build_runtime(RuntimeFlavor::Modern, &cfg, false);
    let dk = rt.find_global(abi::G_DEBUG_KIND).unwrap();
    assert_eq!(rt.global(dk).init.read_int(0, 8), 3);
    assert!(rt.global(dk).constant);
    let t = rt.find_global(abi::G_ASSUME_TEAMS_OVERSUB).unwrap();
    assert_eq!(rt.global(t).init.read_int(0, 8), 1);
    let th = rt.find_global(abi::G_ASSUME_THREADS_OVERSUB).unwrap();
    assert_eq!(rt.global(th).init.read_int(0, 8), 0);
}

/// Both runtime libraries survive a textual print → parse round trip and
/// still execute correctly afterwards (the parser is a full peer of the
/// printer).
#[test]
fn runtimes_roundtrip_through_text() {
    for flavor in [RuntimeFlavor::Modern, RuntimeFlavor::Legacy] {
        let rt = build_runtime(flavor, &RtConfig::default(), true);
        let text = nzomp_ir::printer::print_module(&rt);
        let rt2 = nzomp_ir::parser::parse_module(&text)
            .unwrap_or_else(|e| panic!("{flavor:?}: {e}"));
        nzomp_ir::verify_module(&rt2).unwrap();
        assert_eq!(rt.shared_memory_bytes(), rt2.shared_memory_bytes());
        assert_eq!(rt.funcs.len(), rt2.funcs.len());
        assert_eq!(rt.live_inst_count(), rt2.live_inst_count());
    }
}

/// A parsed-back application module executes identically to the original.
#[test]
fn parsed_module_executes_identically() {
    let app = {
        let mut m = Module::new("rt-app");
        let init = declare_api(&mut m, abi::TARGET_INIT);
        let ws = declare_api(&mut m, abi::DIST_PAR_FOR_LOOP);
        let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
        let iv = bb.param(0);
        let args = bb.param(1);
        let p = bb.load(Ty::Ptr, args);
        let slot = bb.gep(p, iv, 8);
        let v = bb.mul(iv, iv);
        bb.store(Ty::I64, slot, v);
        bb.ret(None);
        let body = m.add_function(bb.finish());
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
        b.call(Operand::Func(init), vec![Operand::i64(abi::MODE_SPMD)], Some(Ty::I64));
        let a = b.alloca(8);
        b.store(Ty::Ptr, a, b.param(0));
        b.call(Operand::Func(ws), vec![Operand::Func(body), a, b.param(1)], None);
        b.ret(None);
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        link_modern(m)
    };
    let text = nzomp_ir::printer::print_module(&app);
    let app2 = nzomp_ir::parser::parse_module(&text).unwrap();

    let run = |m: Module| {
        let mut dev = Device::load(m, DeviceConfig::default());
        let n = 40i64;
        let buf = dev.alloc(8 * n as u64);
        let metrics = dev
            .launch("k", Launch::new(2, 10), &[RtVal::P(buf), RtVal::I(n)])
            .unwrap();
        (dev.read_i64(buf, n as usize).unwrap(), metrics.cycles)
    };
    let (v1, c1) = run(app);
    let (v2, c2) = run(app2);
    assert_eq!(v1, v2);
    assert_eq!(c1, c2, "identical cost too");
    for (i, v) in v1.iter().enumerate() {
        assert_eq!(*v, (i * i) as i64);
    }
}
