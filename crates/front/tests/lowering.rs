//! Frontend lowering tests: directives → IR → executed on the vGPU against
//! both runtimes, results checked against host references.
//! One run setting suffices: this pins lowering; executing lowered
//! proxies across the run axes is `parallel_determinism`'s.

use nzomp_front::{cuda, generic_kernel, spmd_kernel_for, RuntimeFlavor};
use nzomp_ir::{Module, Operand, Ty};
use nzomp_rt::{build_runtime, RtConfig};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};

fn compile(mut app: Module, flavor: RuntimeFlavor) -> Module {
    let rt = build_runtime(flavor, &RtConfig::default(), true);
    nzomp_ir::link::link(&mut app, rt).unwrap();
    nzomp_ir::verify_module(&app).unwrap();
    app
}

/// `out[i] = a[i] * 3 + 1` through the combined directive, both flavors.
#[test]
fn spmd_combined_directive_both_flavors() {
    for flavor in [RuntimeFlavor::Modern, RuntimeFlavor::Legacy] {
        let mut app = Module::new("app");
        spmd_kernel_for(
            &mut app,
            flavor,
            "saxpyish",
            &[Ty::Ptr, Ty::Ptr, Ty::I64],
            |_b, params| params[2],
            |_m, b, iv, params| {
                let pa = b.gep(params[0], iv, 8);
                let va = b.load(Ty::I64, pa);
                let t = b.mul(va, Operand::i64(3));
                let v = b.add(t, Operand::i64(1));
                let po = b.gep(params[1], iv, 8);
                b.store(Ty::I64, po, v);
            },
        );
        let m = compile(app, flavor);
        let mut dev = Device::load(m, DeviceConfig::default());
        let n = 257i64;
        let a: Vec<i64> = (0..n).map(|i| i * i % 91).collect();
        let pa = dev.alloc_i64(&a);
        let po = dev.alloc(8 * n as u64);
        dev.launch(
            "saxpyish",
            Launch::new(3, 17),
            &[RtVal::P(pa), RtVal::P(po), RtVal::I(n)],
        )
        .unwrap();
        let got = dev.read_i64(po, n as usize).unwrap();
        for i in 0..n as usize {
            assert_eq!(got[i], a[i] * 3 + 1, "{flavor:?} index {i}");
        }
    }
}

/// Generic kernel: sequential prologue + `parallel for`, both flavors.
#[test]
fn generic_parallel_for_both_flavors() {
    for flavor in [RuntimeFlavor::Modern, RuntimeFlavor::Legacy] {
        let mut app = Module::new("app");
        generic_kernel(
            &mut app,
            flavor,
            "genk",
            &[Ty::Ptr, Ty::I64],
            |ctx, params| {
                let out = params[0];
                let n = params[1];
                // Sequential: out[n] = 42 (main thread only).
                let slot = ctx.b().gep(out, n, 8);
                ctx.b().store(Ty::I64, slot, Operand::i64(42));
                // parallel for i in 0..n: out[i] = i + 5
                ctx.parallel_for(&[(out, Ty::Ptr)], n, |_m, b, iv, caps| {
                    let slot = b.gep(caps[0], iv, 8);
                    let v = b.add(iv, Operand::i64(5));
                    b.store(Ty::I64, slot, v);
                });
            },
        );
        let m = compile(app, flavor);
        let mut dev = Device::load(m, DeviceConfig::default());
        let n = 37i64;
        let po = dev.alloc(8 * (n as u64 + 1));
        dev.launch("genk", Launch::new(2, 8), &[RtVal::P(po), RtVal::I(n)])
            .unwrap();
        let got = dev.read_i64(po, n as usize + 1).unwrap();
        for i in 0..n as usize {
            assert_eq!(got[i], i as i64 + 5, "{flavor:?} index {i}");
        }
        assert_eq!(got[n as usize], 42, "{flavor:?} sequential store");
    }
}

/// Two parallel regions in one generic kernel share the state machine.
#[test]
fn generic_two_parallel_regions() {
    let mut app = Module::new("app");
    generic_kernel(
        &mut app,
        RuntimeFlavor::Modern,
        "two_regions",
        &[Ty::Ptr, Ty::I64],
        |ctx, params| {
            let out = params[0];
            let n = params[1];
            ctx.parallel_for(&[(out, Ty::Ptr)], n, |_m, b, iv, caps| {
                let slot = b.gep(caps[0], iv, 8);
                b.store(Ty::I64, slot, iv);
            });
            ctx.parallel_for(&[(out, Ty::Ptr)], n, |_m, b, iv, caps| {
                let slot = b.gep(caps[0], iv, 8);
                let v = b.load(Ty::I64, slot);
                let v2 = b.mul(v, Operand::i64(10));
                b.store(Ty::I64, slot, v2);
            });
        },
    );
    let m = compile(app, RuntimeFlavor::Modern);
    let mut dev = Device::load(m, DeviceConfig::default());
    let n = 23i64;
    let po = dev.alloc(8 * n as u64);
    dev.launch("two_regions", Launch::new(1, 6), &[RtVal::P(po), RtVal::I(n)])
        .unwrap();
    let got = dev.read_i64(po, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(got[i], 10 * i as i64);
    }
}

/// CUDA baseline kernels compute the same results with zero runtime calls
/// and zero shared memory.
#[test]
fn cuda_baseline_is_runtime_free() {
    let mut app = Module::new("app");
    cuda::grid_stride_kernel(
        &mut app,
        "cu",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let va = b.load(Ty::I64, pa);
            let v = b.mul(va, Operand::i64(3));
            let v = b.add(v, Operand::i64(1));
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::I64, po, v);
        },
    );
    nzomp_ir::verify_module(&app).unwrap();
    let mut dev = Device::load(app, DeviceConfig::default());
    let n = 257i64;
    let a: Vec<i64> = (0..n).map(|i| i * i % 91).collect();
    let pa = dev.alloc_i64(&a);
    let po = dev.alloc(8 * n as u64);
    let metrics = dev
        .launch("cu", Launch::new(3, 17), &[RtVal::P(pa), RtVal::P(po), RtVal::I(n)])
        .unwrap();
    let got = dev.read_i64(po, n as usize).unwrap();
    for i in 0..n as usize {
        assert_eq!(got[i], a[i] * 3 + 1);
    }
    assert_eq!(metrics.runtime_calls, 0);
    assert_eq!(metrics.smem_bytes, 0);
    assert_eq!(metrics.barriers, 0);
}

/// OpenMP (unoptimized) vs CUDA on identical work: OpenMP must be slower
/// and hungrier — the starting point of the paper.
#[test]
fn unoptimized_openmp_costs_more_than_cuda() {
    let body = |_m: &mut Module, b: &mut nzomp_ir::FuncBuilder, iv: Operand, p: &[Operand]| {
        let pa = b.gep(p[0], iv, 8);
        let va = b.load(Ty::F64, pa);
        let v = b.fmul(va, Operand::f64(1.5));
        let po = b.gep(p[1], iv, 8);
        b.store(Ty::F64, po, v);
    };

    let mut omp = Module::new("omp");
    spmd_kernel_for(
        &mut omp,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        body,
    );
    let omp = compile(omp, RuntimeFlavor::Modern);

    let mut cu = Module::new("cu");
    cuda::grid_stride_kernel(&mut cu, "k", &[Ty::Ptr, Ty::Ptr, Ty::I64], |_b, p| p[2], body);

    let run = |m: Module| {
        let mut dev = Device::load(m, DeviceConfig::default());
        let n = 4096i64;
        let a = vec![2.0f64; n as usize];
        let pa = dev.alloc_f64(&a);
        let po = dev.alloc(8 * n as u64);
        let metrics = dev
            .launch("k", Launch::new(8, 64), &[RtVal::P(pa), RtVal::P(po), RtVal::I(n)])
            .unwrap();
        assert_eq!(dev.read_f64(po, 1).unwrap()[0], 3.0);
        metrics
    };
    let m_omp = run(omp);
    let m_cu = run(cu);
    assert!(
        m_omp.cycles > m_cu.cycles,
        "OpenMP {} <= CUDA {} cycles",
        m_omp.cycles,
        m_cu.cycles
    );
    assert!(m_omp.smem_bytes > 0 && m_cu.smem_bytes == 0);
    assert!(m_omp.runtime_calls > 0 && m_cu.runtime_calls == 0);
}
