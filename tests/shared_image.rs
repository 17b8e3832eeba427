//! A device created from a shared [`Image`] is a freshly loaded device.
//!
//! `Device::from_image` is the one constructor and the host runtime hands
//! one `Arc<Image>` to every bind, rebind and failover of a compiled image
//! (DESIGN.md §4d), so two things must hold for every module: what a
//! device derives lazily and leaves in the image (sanitizer tables,
//! bytecode, register demands) serves the next device exactly as its own
//! would, whichever tier filled it first; and nothing a launch does —
//! writes to initialised globals, device `malloc` — reaches the image the
//! next device starts from.

use std::sync::Arc;

use nzomp::BuildConfig;
use nzomp_integration::{
    assert_alike, assert_same, compiled, observe_launch, observe_proxy, tier_axes, ProxyOutcome,
};
use nzomp_ir::{ExecMode, FuncBuilder, Global, Init, Module, Operand, Space, Ty};
use nzomp_proxies::{all_proxies, quick_device};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    Device, ExecTier, FaultAction, FaultPlan, FaultSite, Image, RtVal, RunConfig, TrapKind,
};

fn other_tier(run: RunConfig) -> RunConfig {
    let tier = match run.tier {
        ExecTier::Interp => ExecTier::Bytecode,
        ExecTier::Bytecode => ExecTier::Interp,
    };
    RunConfig { tier, ..run }
}

/// For each tier and run axis: three devices over one image — the first
/// on the *other* tier, so what it leaves in the image is read by a
/// device that would have derived it differently, the second on the
/// configured tier, the third finding every lazy part filled — and a
/// device loaded from a clone of the module. `observe` returns everything
/// observable about one launch on the device it is given; all four must
/// agree, every device must start from the same memory, and the
/// configurations must agree with each other (tiers and axes are
/// bit-identical by contract). Returns the reference observation.
fn shared_equals_fresh(what: &str, module: &Module, observe: impl Fn(Device) -> ProxyOutcome) -> ProxyOutcome {
    assert_alike(what, &tier_axes(), |run| {
        let image = Arc::new(Image::new(module.clone()));
        let fresh = Device::load_with(module.clone(), quick_device(), run);
        let initial = fresh.global_bytes().to_vec();
        let fresh = observe(fresh);
        for (nth, run) in [other_tier(run), run, run].into_iter().enumerate() {
            let dev = Device::from_image(Arc::clone(&image), quick_device(), run);
            assert_eq!(dev.global_bytes(), initial, "{what}: device {nth} of the image starts dirty ({run:?})");
            assert_same(&format!("{what}: device {nth} of the image ({run:?})"), &fresh, &observe(dev));
        }
        fresh
    })
}

/// Every proxy, clean and under seeded fault plans that trap it (a null
/// dereference mid-team, a step budget that runs out in a later team):
/// outputs, the whole memory image, `KernelMetrics` (`cycles`, `waves` and
/// `regs_per_thread` included) or the typed trap, and the sanitizer's
/// verdict and reports.
#[test]
fn every_proxy_runs_alike_on_a_shared_image() {
    let traps = std::cell::Cell::new(0);
    for p in all_proxies() {
        let module = compiled(p.as_ref(), BuildConfig::NewRtNoAssumptions);
        for fault_seed in [None, Some(1), Some(4)] {
            shared_equals_fresh(&format!("{} (faults {fault_seed:?})", p.name()), &module, |dev| {
                let o = observe_proxy(p.as_ref(), dev, fault_seed);
                traps.set(traps.get() + usize::from(o.result.is_err()));
                o
            });
        }
    }
    assert!(traps.get() >= 4 * 8 * 5, "the fault plans barely fire: {} traps", traps.get());
}

/// `out[tid] = tally++ + lut` through a heap cell: every thread bumps an
/// initialised global-space global, reads a constant-space one, and
/// allocates on the device heap without freeing.
fn tally_module() -> Module {
    let mut m = Module::new("tally");
    // 11 initialised bytes of 16: the tail is zero-filled.
    let init = Init::Bytes(vec![7, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]);
    let tally = m.add_global(Global::new("tally", Space::Global, 16, init));
    let lut = m.add_global(Global::constant("lut", Space::Constant, 8, Init::I64(5)));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);
    let old = b.atomic_add(Ty::I64, Operand::Global(tally), Operand::i64(1));
    let c = b.load(Ty::I64, Operand::Global(lut));
    let cell = b.malloc(Operand::i64(16));
    let sum = b.add(old, c);
    b.store(Ty::I64, cell, sum);
    let v = b.load(Ty::I64, cell);
    let slot = b.gep(b.param(0), gid, 8);
    b.store(Ty::I64, slot, v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// The launch that must not leak into the image: the second and third
/// device find `tally` at 7 and an empty heap again.
#[test]
fn a_launch_leaves_no_trace_in_the_image() {
    let launch = Launch::new(2, 4);
    // A trap in the second team's third thread: five threads' bumps and
    // heap cells are in memory when the launch fails.
    let site = FaultSite { team: 1, thread: 2, after_steps: 5, action: FaultAction::Trap(TrapKind::OutOfBounds) };
    let faulty = FaultPlan { sites: vec![site], ..FaultPlan::default() };
    for plan in [None, Some(faulty)] {
        let o = shared_equals_fresh("tally", &tally_module(), |mut dev| {
            if let Some(p) = &plan {
                dev.set_fault_plan(p.clone());
            }
            let out = dev.alloc(8 * 8);
            observe_launch(&mut dev, "k", launch, &[RtVal::P(out)], (out, 8))
        });
        assert_eq!(o.result.err().map(|e| (e.team, e.thread)), plan.as_ref().map(|_| (1, 2)));
    }
    // And the launch does what the test thinks it does.
    let mut dev = Device::load(tally_module(), quick_device());
    let out = dev.alloc(8 * 8);
    dev.launch("k", launch, &[RtVal::P(out)]).unwrap();
    assert_eq!(dev.read_i64(out, 8).unwrap(), [12, 13, 14, 15, 16, 17, 18, 19]);
    let tally = dev.global_addr("tally").unwrap();
    assert_eq!(dev.read_i64(tally, 2).unwrap(), [15, 0x03_02_01]);
}
