//! End-to-end optimizer tests: the paper's headline claims, in miniature.
//!
//! * Full pipeline + modern runtime on an SPMD kernel ⇒ zero runtime
//!   calls, zero shared memory, no barriers — near-zero overhead (§V).
//! * Baseline ("nightly") pipeline ⇒ the state stays (the 11,304 B SMem of
//!   Fig. 11).
//! * SPMDization removes the generic-mode state machine (§IV-A3).
//! * Ablations degrade in the expected directions (Fig. 13).
//!
//! One run setting suffices: optimized proxies cross the run axes in
//! `parallel_determinism` and `opt_preserves_sync`.

use nzomp_front::{cuda, generic_kernel, spmd_kernel_for, RuntimeFlavor};
use nzomp_ir::{Module, Operand, Ty};
use nzomp_opt::{optimize_module, Ablation, PassOptions};
use nzomp_rt::{build_runtime, RtConfig};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, KernelMetrics, RtVal};

fn saxpy_app(flavor: RuntimeFlavor) -> Module {
    let mut app = Module::new("app");
    spmd_kernel_for(
        &mut app,
        flavor,
        "saxpy",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let va = b.load(Ty::F64, pa);
            let v = b.fmul(va, Operand::f64(2.5));
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    app
}

fn compile(mut app: Module, flavor: RuntimeFlavor, rt_cfg: &RtConfig, opts: &PassOptions) -> Module {
    let rt = build_runtime(flavor, rt_cfg, true);
    nzomp_ir::link::link(&mut app, rt).unwrap();
    optimize_module(&mut app, opts);
    nzomp_ir::verify_module(&app).unwrap();
    app
}

fn run_saxpy(m: Module, check_assumes: bool) -> KernelMetrics {
    let cfg = DeviceConfig {
        check_assumes,
        ..DeviceConfig::default()
    };
    let mut dev = Device::load(m, cfg);
    let n = 2048i64;
    let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let pa = dev.alloc_f64(&a);
    let po = dev.alloc(8 * n as u64);
    let metrics = dev
        .launch(
            "saxpy",
            Launch::new(8, 64),
            &[RtVal::P(pa), RtVal::P(po), RtVal::I(n)],
        )
        .unwrap();
    let out = dev.read_f64(po, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(out[i], i as f64 * 2.5, "index {i}");
    }
    metrics
}

/// The headline: full pipeline drives the SPMD kernel to zero runtime
/// overhead — no runtime calls, no shared memory, no barriers.
#[test]
fn full_pipeline_reaches_near_zero_overhead() {
    let m = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    );
    let metrics = run_saxpy(m, false);
    assert_eq!(metrics.runtime_calls, 0, "runtime calls remain");
    assert_eq!(metrics.smem_bytes, 0, "shared state remains");
    assert_eq!(metrics.barriers, 0, "barriers remain");
    assert_eq!(metrics.device_mallocs, 0);
}

/// Optimized OpenMP is within a whisker of hand-written CUDA.
#[test]
fn optimized_openmp_approaches_cuda() {
    let omp = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    );
    let m_omp = run_saxpy(omp, false);

    let mut cu = Module::new("cu");
    cuda::grid_stride_kernel(
        &mut cu,
        "saxpy",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let va = b.load(Ty::F64, pa);
            let v = b.fmul(va, Operand::f64(2.5));
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    let m_cu = run_saxpy(cu, false);

    let ratio = m_omp.cycles as f64 / m_cu.cycles as f64;
    assert!(
        ratio < 1.10,
        "optimized OpenMP {} vs CUDA {} cycles (ratio {ratio:.3})",
        m_omp.cycles,
        m_cu.cycles
    );
}

/// Baseline ("nightly") pipeline cannot remove the modern runtime's state:
/// SMem stays at the full 11,304 bytes and runtime work remains.
#[test]
fn baseline_pipeline_keeps_state() {
    let m = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::baseline(),
    );
    let metrics = run_saxpy(m, true);
    assert_eq!(metrics.smem_bytes, 11304);
    assert!(metrics.barriers > 0);
}

/// Full vs baseline vs unoptimized: strictly decreasing cost.
#[test]
fn pipelines_order_costs() {
    let unopt = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::none(),
    );
    let base = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::baseline(),
    );
    let full = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    );
    let c_unopt = run_saxpy(unopt, true).cycles;
    let c_base = run_saxpy(base, true).cycles;
    let c_full = run_saxpy(full, false).cycles;
    assert!(c_base <= c_unopt, "baseline {c_base} vs unopt {c_unopt}");
    assert!(c_full < c_base, "full {c_full} vs baseline {c_base}");
}

/// Ablating FSAA (which implies all of §IV-B) keeps the shared state alive.
#[test]
fn ablation_fsaa_keeps_state() {
    let m = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full_without(Ablation::Fsaa),
    );
    let metrics = run_saxpy(m, false);
    assert!(metrics.smem_bytes > 0, "state should survive without FSAA");
}

/// Ablating barrier elimination keeps at least the init barrier.
#[test]
fn ablation_barrier_elim_keeps_barriers() {
    let m = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full_without(Ablation::BarrierElim),
    );
    let metrics = run_saxpy(m, false);
    assert!(metrics.barriers > 0);
}

/// Every ablation still computes correct results and costs at least as much
/// as the full pipeline.
#[test]
fn ablations_are_correct_and_never_faster() {
    let full = run_saxpy(
        compile(
            saxpy_app(RuntimeFlavor::Modern),
            RuntimeFlavor::Modern,
            &RtConfig::default(),
            &PassOptions::full(),
        ),
        false,
    )
    .cycles;
    for ab in Ablation::ALL {
        let m = compile(
            saxpy_app(RuntimeFlavor::Modern),
            RuntimeFlavor::Modern,
            &RtConfig::default(),
            &PassOptions::full_without(ab),
        );
        let metrics = run_saxpy(m, false);
        assert!(
            metrics.cycles >= full,
            "{ab:?}: {} < full {}",
            metrics.cycles,
            full
        );
    }
}

/// SPMDization converts a generic-mode kernel (sequential prologue plus one
/// `parallel for`) to SPMD and the state machine disappears.
#[test]
fn spmdization_removes_state_machine() {
    let build = || {
        let mut app = Module::new("app");
        generic_kernel(
            &mut app,
            RuntimeFlavor::Modern,
            "genk",
            &[Ty::Ptr, Ty::I64],
            |ctx, params| {
                let out = params[0];
                let n = params[1];
                ctx.parallel_for(&[(out, Ty::Ptr)], n, |_m, b, iv, caps| {
                    let slot = b.gep(caps[0], iv, 8);
                    let v = b.mul(iv, Operand::i64(7));
                    b.store(Ty::I64, slot, v);
                });
            },
        );
        app
    };
    let run = |m: Module| {
        let mut dev = Device::load(
            m,
            DeviceConfig {
                check_assumes: false,
                ..DeviceConfig::default()
            },
        );
        let n = 333i64;
        let po = dev.alloc(8 * n as u64);
        let metrics = dev
            .launch("genk", Launch::new(2, 16), &[RtVal::P(po), RtVal::I(n)])
            .unwrap();
        let got = dev.read_i64(po, n as usize).unwrap();
        for i in 0..n as usize {
            assert_eq!(got[i], 7 * i as i64);
        }
        metrics
    };

    let unopt = run(compile(
        build(),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::none(),
    ));
    let full = run(compile(
        build(),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    ));
    assert!(
        full.cycles < unopt.cycles / 2,
        "SPMDization should cut the state machine: {} vs {}",
        full.cycles,
        unopt.cycles
    );
}

/// Nested parallelism defeats state elimination (the paper "strongly
/// discourages" it): shared state must survive the full pipeline.
#[test]
fn nested_parallel_defeats_state_elimination() {
    let mut app = Module::new("app");
    generic_kernel(
        &mut app,
        RuntimeFlavor::Modern,
        "nested",
        &[Ty::Ptr, Ty::I64],
        |ctx, params| {
            let out = params[0];
            let n = params[1];
            ctx.parallel_for(&[(out, Ty::Ptr)], n, |m, b, iv, caps| {
                // Inner (nested) parallel region: serialized at runtime.
                let out = caps[0];
                let par = nzomp_rt::declare_api(m, nzomp_rt::abi::PARALLEL_51);
                let inner_name = format!("inner.{}", iv == Operand::i64(0));
                let mut ib = nzomp_ir::FuncBuilder::new(
                    format!("{inner_name}.{}", m.funcs.len()),
                    vec![Ty::Ptr],
                    None,
                );
                let args = ib.param(0);
                let slot_iv = ib.load(Ty::I64, args);
                let o = ib.ptr_add(args, Operand::i64(8));
                let p = ib.load(Ty::Ptr, o);
                let slot = ib.gep(p, slot_iv, 8);
                let v = ib.mul(slot_iv, Operand::i64(3));
                ib.store(Ty::I64, slot, v);
                ib.ret(None);
                let inner = m.add_function(ib.finish());
                let a = b.alloca(16);
                b.store(Ty::I64, a, iv);
                let a2 = b.ptr_add(a, Operand::i64(8));
                b.store(Ty::Ptr, a2, out);
                b.call(Operand::Func(par), vec![Operand::Func(inner), a], None);
            });
        },
    );
    let m = compile(
        app,
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    );
    let mut dev = Device::load(
        m,
        DeviceConfig {
            check_assumes: false,
            ..DeviceConfig::default()
        },
    );
    let n = 16i64;
    let po = dev.alloc(8 * n as u64);
    let metrics = dev
        .launch("nested", Launch::new(1, 4), &[RtVal::P(po), RtVal::I(n)])
        .unwrap();
    let got = dev.read_i64(po, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(got[i], 3 * i as i64);
    }
    assert!(
        metrics.smem_bytes > 0,
        "nested parallel must keep runtime state alive"
    );
}

/// Oversubscription assumptions reduce register pressure (§V-B: "they
/// reduce the live register count as there is no loop carried state").
#[test]
fn oversubscription_reduces_registers() {
    let plain = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig::default(),
        &PassOptions::full(),
    );
    let assumed = compile(
        saxpy_app(RuntimeFlavor::Modern),
        RuntimeFlavor::Modern,
        &RtConfig {
            assume_threads_oversubscription: true,
            ..RtConfig::default()
        },
        &PassOptions::full(),
    );
    let run = |m: Module| {
        let mut dev = Device::load(
            m,
            DeviceConfig {
                check_assumes: false,
                ..DeviceConfig::default()
            },
        );
        let n = 512i64; // 8 teams x 64 threads = 512: assumption holds
        let a = vec![1.0f64; n as usize];
        let pa = dev.alloc_f64(&a);
        let po = dev.alloc(8 * n as u64);
        dev.launch(
            "saxpy",
            Launch::new(8, 64),
            &[RtVal::P(pa), RtVal::P(po), RtVal::I(n)],
        )
        .unwrap()
    };
    let m_plain = run(plain);
    let m_assumed = run(assumed);
    assert!(
        m_assumed.regs_per_thread < m_plain.regs_per_thread,
        "assumed {} !< plain {}",
        m_assumed.regs_per_thread,
        m_plain.regs_per_thread
    );
    assert!(m_assumed.cycles <= m_plain.cycles);
}
