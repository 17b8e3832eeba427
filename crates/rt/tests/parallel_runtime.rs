//! Runtime-level parallel determinism: kernels linked against *both*
//! device runtimes execute bit-identically at any worker-thread count.
//!
//! This is the interesting runtime property behind `docs/parallel-vgpu.md`:
//! the runtimes' shared state (team stack pointer, ICVs) lives in
//! `Shared` space — team-private — so buffered parallel execution never
//! sees cross-team runtime traffic; the only Global-space runtime cell is
//! the debug trace counter, which is accumulated with a result-unused
//! atomic add and merges exactly.
//! The sanitizer stays off: `parallel_determinism` holds sanitized
//! execution to unsanitized for both runtimes' proxies.

use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_rt::{abi, build_runtime, declare_api, RtConfig, RuntimeFlavor};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};

fn link_rt(mut app: Module, flavor: RuntimeFlavor, cfg: &RtConfig) -> Module {
    let rt = build_runtime(flavor, cfg, true);
    nzomp_ir::link::link(&mut app, rt).expect("link");
    nzomp_ir::verify_module(&app).expect("verify");
    app
}

/// `target teams distribute parallel for: out[i] = 3*i + 1`, the standard
/// modern-runtime lowering shape.
fn modern_spmd_module() -> Module {
    let mut m = Module::new("par_rt");
    let mut bb = FuncBuilder::new("body", vec![Ty::I64, Ty::Ptr], None);
    let iv = bb.param(0);
    let args = bb.param(1);
    let out = bb.load(Ty::Ptr, args);
    let slot = bb.gep(out, iv, 8);
    let v3 = bb.mul(iv, Operand::i64(3));
    let v = bb.add(v3, Operand::i64(1));
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
    let args = kb.alloca(8);
    kb.store(Ty::Ptr, args, out);
    kb.call(Operand::Func(loop_fn), vec![Operand::Func(body), args, n], None);
    kb.call(Operand::Func(deinit), vec![Operand::i64(abi::MODE_SPMD)], None);
    kb.ret(None);
    let k = m.add_function(kb.finish());
    m.add_kernel(k, ExecMode::Spmd);
    m
}

/// The same loop through the legacy API: distribute + for_static_init
/// with memory-carried bounds (worksharing state in team-shared memory).
fn legacy_spmd_module() -> Module {
    let mut m = Module::new("par_rt_legacy");
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
        let v3 = kb.mul(i, Operand::i64(3));
        let v = kb.add(v3, Operand::i64(1));
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

const N: i64 = 500;

/// Launch a pre-linked module at `workers` threads; return the full
/// metrics cycle count and the complete global image, after asserting
/// the loop really computed `out[i] = 3*i + 1`.
fn run(m: &Module, workers: usize) -> (u64, Vec<u8>) {
    let mut dev = Device::load(m.clone(), DeviceConfig::default());
    dev.set_worker_threads(workers);
    let out = dev.alloc(8 * N as u64);
    let metrics = dev
        .launch("kernel", Launch::new(16, 32), &[RtVal::P(out), RtVal::I(N)])
        .unwrap();
    let got = dev.read_i64(out, N as usize).unwrap();
    for (i, v) in got.iter().enumerate() {
        assert_eq!(*v, 3 * i as i64 + 1, "index {i} wrong");
    }
    (metrics.cycles, dev.global_bytes().to_vec())
}

/// Both runtime flavors, release builds: identical cycles and identical
/// global images at 1 / 2 / 8 workers.
#[test]
fn runtimes_parallel_deterministic() {
    let cfg = RtConfig::default();
    for (name, m) in [
        ("modern", link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &cfg)),
        ("legacy", link_rt(legacy_spmd_module(), RuntimeFlavor::Legacy, &cfg)),
    ] {
        let base = run(&m, 1);
        for workers in [2usize, 8] {
            assert_eq!(run(&m, workers), base, "{name} diverges at {workers} workers");
        }
    }
}

/// Debug builds route every runtime call through the Global-space trace
/// counter — the one shared-by-design runtime cell. Its atomic traffic
/// must merge identically too.
#[test]
fn debug_trace_counter_parallel_deterministic() {
    let cfg = RtConfig {
        debug_kind: abi::DEBUG_ASSERTIONS | abi::DEBUG_FUNCTION_TRACING,
        ..RtConfig::default()
    };
    let m = link_rt(modern_spmd_module(), RuntimeFlavor::Modern, &cfg);
    let base = run(&m, 1);
    for workers in [2usize, 8] {
        assert_eq!(
            run(&m, workers),
            base,
            "trace counter diverges at {workers} workers"
        );
    }
}
