//! Pin test: an armed [`FaultPlan`] is stateless across launches.
//!
//! The consumed-site cursor (which site a thread fires next) lives in the
//! per-thread context that is rebuilt every launch, so launching twice
//! under the same armed plan injects the identical campaign twice —
//! fault seeds are independent between launches. A regression here would
//! silently skew every multi-launch fault campaign (the second launch
//! would run cleaner than seeded), so each facet is pinned separately.
//! The sanitizer stays off: `parallel_determinism` runs the fault
//! campaigns sanitized too.

use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    Device, DeviceConfig, FaultAction, FaultPlan, FaultSite, RtVal, TrapKind,
};

/// `out[tid] = a[tid] + 1`, padded with arithmetic so step-targeted sites
/// land inside the body.
fn module() -> Module {
    let mut m = Module::new("relaunch");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::Ptr], None);
    let tid = b.thread_id();
    let off = b.mul(tid, Operand::i64(8));
    let pa = b.ptr_add(b.param(0), off);
    let x = b.load(Ty::F64, pa);
    let mut v = b.fadd(x, Operand::f64(1.0));
    for _ in 0..8 {
        v = b.fadd(v, Operand::f64(0.0));
    }
    let po = b.ptr_add(b.param(1), off);
    b.store(Ty::F64, po, v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

fn device() -> (Device, nzomp_vgpu::DevPtr, nzomp_vgpu::DevPtr) {
    let mut dev = Device::load(module(), DeviceConfig::default());
    let pa = dev.alloc_f64(&[1.0, 2.0, 3.0, 4.0]);
    let po = dev.alloc(32);
    (dev, pa, po)
}

/// A trap site fires at the same coordinates on every launch — the
/// cursor is not consumed by the first launch.
#[test]
fn trap_site_fires_identically_on_relaunch() {
    let (mut dev, pa, po) = device();
    dev.set_fault_plan(FaultPlan {
        seed: 0,
        sites: vec![FaultSite {
            team: 0,
            thread: 2,
            after_steps: 5,
            action: FaultAction::Trap(TrapKind::AssertFail),
        }],
        fuel_limit: None,
        heap_limit: None,
        device_sites: vec![],
    });
    let launch = Launch::new(1, 4);
    let args = [RtVal::P(pa), RtVal::P(po)];
    let first = dev.launch("k", launch, &args).unwrap_err();
    let second = dev.launch("k", launch, &args).unwrap_err();
    assert_eq!(first, second, "second launch saw a different campaign");
    assert_eq!(first.kind, TrapKind::AssertFail);
    assert_eq!((first.team, first.thread), (0, 2));
}

/// A corrupt-load site (which does not abort the launch) also re-fires:
/// both launches produce the identically corrupted output.
#[test]
fn corrupt_load_refires_on_relaunch() {
    let (mut dev, pa, po) = device();
    dev.set_fault_plan(FaultPlan {
        seed: 0,
        sites: vec![FaultSite {
            team: 0,
            thread: 1,
            after_steps: 0,
            action: FaultAction::CorruptLoad { xor: 1 << 52 },
        }],
        fuel_limit: None,
        heap_limit: None,
        device_sites: vec![],
    });
    let launch = Launch::new(1, 4);
    let args = [RtVal::P(pa), RtVal::P(po)];

    dev.launch("k", launch, &args).unwrap();
    let first = dev.read_f64(po, 4).unwrap();
    // The corruption must actually have landed, or this test is vacuous.
    assert_ne!(first[1].to_bits(), 3.0f64.to_bits(), "fault was inert");

    dev.launch("k", launch, &args).unwrap();
    let second = dev.read_f64(po, 4).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&first),
        bits(&second),
        "second launch was injected differently"
    );
}

/// Fuel-limit plans re-apply the full budget each launch (the remaining
/// fuel of launch 1 must not leak into launch 2).
#[test]
fn fuel_limit_resets_between_launches() {
    let (mut dev, pa, po) = device();
    // Enough fuel for one full launch of 4 threads, but not for two if
    // the budget leaked across launches.
    dev.set_fault_plan(FaultPlan {
        seed: 0,
        sites: vec![],
        fuel_limit: Some(80),
        heap_limit: None,
        device_sites: vec![],
    });
    let launch = Launch::new(1, 4);
    let args = [RtVal::P(pa), RtVal::P(po)];
    let first = dev.launch("k", launch, &args);
    let second = dev.launch("k", launch, &args);
    assert_eq!(
        first.is_ok(),
        second.is_ok(),
        "step budget leaked across launches: {first:?} vs {second:?}"
    );
    if let (Err(a), Err(b)) = (&first, &second) {
        assert_eq!(a, b);
    }
}

/// The whole relaunch story holds in parallel execution too.
#[test]
fn relaunch_identical_across_worker_counts() {
    let outcomes: Vec<_> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let (mut dev, pa, po) = device();
            dev.set_worker_threads(workers);
            dev.set_fault_plan(FaultPlan::from_seed(7, 2, 4));
            let launch = Launch::new(2, 4);
            let args = [RtVal::P(pa), RtVal::P(po)];
            let r1 = dev.launch("k", launch, &args).map(|m| m.cycles);
            let r2 = dev.launch("k", launch, &args).map(|m| m.cycles);
            (r1, r2, dev.global_bytes().to_vec())
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1], "worker count changed the campaign");
}
