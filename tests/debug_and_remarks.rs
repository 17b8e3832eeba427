//! Debug-mode parity, failure injection, and optimization remarks
//! (the `-Rpass[-missed]=openmp-opt` diagnostics of paper §VII).
//! One run setting suffices: this pins compiled code and its remarks;
//! `differential` holds debug builds to release on every run axis.

use nzomp::opt::RemarkKind;
use nzomp::pipeline::compile_with;
use nzomp::BuildConfig;
use nzomp_proxies::xsbench::XSBench;
use nzomp_proxies::{build_for_config, quick_device, verify_output, Proxy};
use nzomp_rt::abi;
use nzomp_vgpu::{Device, DeviceConfig};

/// Debug builds (assertions + tracing) produce bit-identical results to
/// release builds — the checks observe, they do not perturb.
#[test]
fn debug_builds_match_release_results() {
    let p = XSBench::small();
    let cfg = BuildConfig::NewRtNoAssumptions;

    let release = {
        let out = nzomp::compile(build_for_config(&p, cfg), cfg).unwrap();
        let mut dev = Device::load(out.module, quick_device());
        let prep = p.prepare(&mut dev);
        dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
        dev.read_f64(prep.out_ptr, prep.expected.len()).unwrap()
    };

    let debug = {
        let rt_cfg = nzomp_rt::RtConfig {
            debug_kind: abi::DEBUG_ASSERTIONS | abi::DEBUG_FUNCTION_TRACING,
            ..cfg.rt_config()
        };
        let out = compile_with(build_for_config(&p, cfg), cfg, rt_cfg, cfg.pass_options()).unwrap();
        let dev_cfg = DeviceConfig {
            check_assumes: true,
            ..DeviceConfig::default()
        };
        let mut dev = Device::load(out.module, dev_cfg);
        let prep = p.prepare(&mut dev);
        let metrics = dev
            .launch(p.kernel_name(), prep.launch, &prep.args)
            .expect("debug build runs with assumptions verified");
        verify_output(&dev, &prep).unwrap();
        // Debug keeps the runtime state (assumes are checked, not dropped).
        assert!(metrics.smem_bytes > 0, "debug build must keep state");
        dev.read_f64(prep.out_ptr, prep.expected.len()).unwrap()
    };

    assert_eq!(release, debug);
}

/// Debug builds cost more than release builds — and that cost vanishes in
/// release because the paths are *statically* dead (§III-G).
#[test]
fn debug_overhead_exists_and_release_is_free() {
    let p = XSBench::small();
    let cfg = BuildConfig::NewRtNoAssumptions;
    let run = |debug_kind: i64, check: bool| {
        let rt_cfg = nzomp_rt::RtConfig {
            debug_kind,
            ..cfg.rt_config()
        };
        let out = compile_with(build_for_config(&p, cfg), cfg, rt_cfg, cfg.pass_options()).unwrap();
        let dev_cfg = DeviceConfig {
            check_assumes: check,
            ..DeviceConfig::default()
        };
        let mut dev = Device::load(out.module, dev_cfg);
        let prep = p.prepare(&mut dev);
        dev.launch(p.kernel_name(), prep.launch, &prep.args)
            .unwrap()
            .cycles
    };
    let release = run(0, false);
    let debug = run(abi::DEBUG_ASSERTIONS | abi::DEBUG_FUNCTION_TRACING, true);
    assert!(debug > release, "debug {debug} !> release {release}");
}

/// State elimination reports what it did (passed remarks), and kernels that
/// defeat SPMDization report why (missed remarks) — §VII.
#[test]
fn remarks_report_passes_and_misses() {
    // Passed: XSBench under the full pipeline folds runtime state.
    let p = XSBench::small();
    let out = nzomp::compile(
        build_for_config(&p, BuildConfig::NewRtNoAssumptions),
        BuildConfig::NewRtNoAssumptions,
    )
    .unwrap();
    let passed = out.remarks.of(RemarkKind::Passed, "openmp-opt");
    assert!(
        passed.iter().any(|r| r.message.contains("folded load")),
        "expected fold remarks, got:\n{}",
        out.remarks
    );
    assert!(
        passed.iter().any(|r| r.message.contains("pruned")),
        "expected prune remark"
    );

    // Missed: a generic kernel with a side-effecting sequential region
    // cannot be SPMDized.
    let mut m = nzomp_ir::Module::new("stubborn");
    nzomp_front::generic_kernel(
        &mut m,
        nzomp_front::RuntimeFlavor::Modern,
        "stubborn",
        &[nzomp_ir::Ty::Ptr, nzomp_ir::Ty::I64],
        |ctx, p| {
            let out = p[0];
            let n = p[1];
            // Sequential store to *global* memory: must be guarded, so the
            // recompute-based SPMDization refuses.
            ctx.b().store(nzomp_ir::Ty::I64, out, nzomp_ir::Operand::i64(1));
            ctx.parallel_for(&[(out, nzomp_ir::Ty::Ptr)], n, |_m, b, iv, caps| {
                let slot = b.gep(caps[0], iv, 8);
                b.store(nzomp_ir::Ty::I64, slot, iv);
            });
        },
    );
    let out = nzomp::compile(m, BuildConfig::NewRtNoAssumptions).unwrap();
    let missed = out.remarks.of(RemarkKind::Missed, "openmp-opt");
    assert!(
        missed
            .iter()
            .any(|r| r.message.contains("cannot be moved to SPMD mode")),
        "expected SPMDization miss, got:\n{}",
        out.remarks
    );
}

/// Failure injection: an out-of-bounds access traps with a precise report
/// instead of corrupting the simulation.
#[test]
fn out_of_bounds_traps_cleanly() {
    use nzomp_front::cuda;
    use nzomp_ir::{Operand, Ty};
    use nzomp_vgpu::{RtVal, TrapKind};

    let mut m = nzomp_ir::Module::new("oob");
    cuda::grid_stride_kernel(
        &mut m,
        "oob",
        &[Ty::Ptr, Ty::I64],
        |_b, p| p[1],
        |_m, b, iv, p| {
            // Deliberately index one past the end.
            let bad = b.add(iv, p[1]);
            let slot = b.gep(p[0], bad, 8);
            b.store(Ty::F64, slot, Operand::f64(1.0));
        },
    );
    let mut dev = Device::load(m, quick_device());
    let buf = dev.alloc(8 * 4);
    let err = dev
        .launch("oob", nzomp_vgpu::device::Launch::new(1, 4), &[RtVal::P(buf), RtVal::I(4)]);
    // The very last host allocation may leave room in the global region;
    // what matters is that *if* it traps it traps cleanly, and with an
    // empty device it must trap.
    match err {
        Err(e) => assert!(matches!(e.kind, TrapKind::OutOfBounds)),
        Ok(_) => panic!("expected out-of-bounds trap"),
    }
}
