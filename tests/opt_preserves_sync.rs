//! Optimizer synchronization-preservation differential suite.
//!
//! The §IV pipeline — and barrier elimination (§IV-D) in particular — may
//! only remove synchronization that is provably redundant. This suite
//! machine-checks that contract with the vGPU sanitizer:
//!
//! 1. Every proxy is sanitizer-clean (zero races, zero divergences) when
//!    compiled unoptimized, through the full pipeline, and under each
//!    single-pass Fig.-13 ablation — at 1 and at 8 worker threads — with
//!    outputs still verifying against the host reference.
//! 2. A hand-built kernel whose single aligned barrier orders a
//!    cross-thread shared-memory exchange keeps that barrier through the
//!    full pipeline (pinned via `nzomp_opt::barrier::count_aligned_barriers`)
//!    while a redundant back-to-back barrier in the same kernel is
//!    removed — and deleting the load-bearing barrier by hand makes the
//!    sanitizer report, proving the pin is not vacuous.
//! Always sanitized (report-only): the verdict is what is under test.

use nzomp::pipeline::compile_with;
use nzomp::BuildConfig;
use nzomp_ir::{ExecMode, FuncBuilder, Global, Init, Module, Operand, Space, Ty};
use nzomp_opt::barrier::count_aligned_barriers;
use nzomp_opt::{optimize_module, Ablation, PassOptions};
use nzomp_proxies::{all_proxies, build_for_config, quick_device, verify_output};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, Sanitize};

/// `(label, options)` for every pipeline variant the contract covers:
/// unoptimized, the full §IV pipeline, and each single-pass ablation.
fn variants() -> Vec<(String, PassOptions)> {
    let mut v = vec![
        ("none".to_string(), PassOptions::none()),
        ("full".to_string(), PassOptions::full()),
    ];
    for ab in Ablation::ALL {
        v.push((format!("full \\ {}", ab.label()), PassOptions::full_without(ab)));
    }
    v
}

#[test]
fn proxies_stay_sanitizer_clean_under_every_pipeline_variant() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    for p in all_proxies() {
        for (label, opts) in variants() {
            let out = compile_with(build_for_config(p.as_ref(), cfg), cfg, cfg.rt_config(), opts)
                .unwrap_or_else(|e| panic!("{} [{label}]: compile failed: {e}", p.name()));
            for workers in [1usize, 8] {
                let mut dev = Device::load(out.module.clone(), quick_device());
                dev.set_sanitize(Sanitize::Report);
                dev.set_worker_threads(workers);
                let prep = p.prepare(&mut dev);
                dev.launch(p.kernel_name(), prep.launch, &prep.args)
                    .unwrap_or_else(|e| {
                        panic!("{} [{label}] @{workers} workers: launch failed: {e}", p.name())
                    });
                let counts = dev.sanitizer_counts();
                assert_eq!(
                    counts,
                    (0, 0),
                    "{} [{label}] @{workers} workers is not sanitizer-clean: {:?}",
                    p.name(),
                    dev.sanitizer_reports()
                        .iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                );
                verify_output(&dev, &prep).unwrap_or_else(|e| {
                    panic!("{} [{label}] @{workers} workers: output mismatch: {e}", p.name())
                });
            }
        }
    }
}

/// Neighbor-exchange kernel: each thread publishes to its own shared slot,
/// synchronizes, reads its neighbor's slot, and stores the value to its
/// global output slot. The barrier orders the cross-thread write→read, so
/// it is load-bearing. `extra_barrier` adds a provably redundant
/// back-to-back barrier; `with_barrier: false` omits the load-bearing one.
fn exchange_kernel(with_barrier: bool, extra_barrier: bool) -> Module {
    let mut m = Module::new("exchange");
    m.add_global(Global::new("slots", Space::Shared, 8 * 8, Init::Zero));
    let slots = m.find_global("slots").unwrap();
    let mut b = FuncBuilder::new("xchg", vec![Ty::Ptr], None);
    let out = b.param(0);
    let tid = b.thread_id();
    let dim = b.block_dim();
    let own_off = b.mul(tid, Operand::i64(8));
    let own = b.ptr_add(Operand::Global(slots), own_off);
    let v = b.mul(tid, Operand::i64(3));
    b.store(Ty::I64, own, v);
    if with_barrier {
        b.aligned_barrier();
    }
    if extra_barrier {
        b.aligned_barrier();
    }
    let next = b.add(tid, Operand::i64(1));
    let peer = b.srem(next, dim);
    let peer_off = b.mul(peer, Operand::i64(8));
    let pp = b.ptr_add(Operand::Global(slots), peer_off);
    let got = b.load(Ty::I64, pp);
    let po = b.gep(out, tid, 8);
    b.store(Ty::I64, po, got);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// Run the exchange kernel sanitized at 8 threads; return
/// `(races, output correct)`.
fn run_exchange(m: Module) -> (u64, bool) {
    let threads = 8u32;
    let mut dev = Device::load(m, DeviceConfig::default());
    dev.set_sanitize(Sanitize::Report);
    let out = dev.alloc(8 * threads as u64);
    dev.launch("xchg", Launch::new(1, threads), &[RtVal::P(out)])
        .unwrap();
    let got = dev.read_i64(out, threads as usize).unwrap();
    let ok = (0..threads as i64).all(|t| got[t as usize] == ((t + 1) % threads as i64) * 3);
    (dev.sanitizer_counts().0, ok)
}

#[test]
fn barrier_elim_keeps_the_load_bearing_barrier() {
    let mut m = exchange_kernel(true, true);
    let f = m.kernels[0].func.index();
    assert_eq!(count_aligned_barriers(&m.funcs[f]), 2, "before optimization");

    let _remarks = optimize_module(&mut m, &PassOptions::full());
    assert_eq!(
        count_aligned_barriers(&m.funcs[f]),
        1,
        "the redundant back-to-back barrier must go, the load-bearing one must stay"
    );

    let (races, ok) = run_exchange(m);
    assert_eq!(races, 0, "optimized exchange kernel must stay race-free");
    assert!(ok, "optimized exchange kernel must stay correct");
}

#[test]
fn removing_the_barrier_by_hand_is_reported() {
    // The pin above is meaningful only if the barrier really orders the
    // exchange: without it the sanitizer must see the write→read race.
    let (races, _) = run_exchange(exchange_kernel(false, false));
    assert!(races >= 1, "barrier-less exchange must race");
}
