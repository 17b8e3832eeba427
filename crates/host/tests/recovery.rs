//! The recovery contract of the offload host runtime: transient faults
//! retry to a clean result, a stall is a typed transient trap, a runaway
//! kernel is a program error that is never retried, device loss
//! fails over to a replacement vGPU whose journal replay reproduces the
//! clean run bit-for-bit, and a shrinking fleet degrades gracefully down
//! to a typed `FleetLost` — never a panic, never a wrong answer.
//! One run setting suffices: `recovery_chaos` crosses the run axes.

mod common;

use common::{input, quick, scale_add_app, scale_add_expected};
use nzomp::BuildConfig;
use nzomp_host::{Host, HostError, RecoveryPolicy, RegionArg};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    DeviceConfig, DeviceFaultKind, DeviceFaultSite, ExecTier, FaultPlan, RtVal, RunConfig, Sanitize,
    TrapKind,
};

const N: usize = 64;

fn launch() -> Launch {
    Launch {
        teams: 4,
        threads_per_team: 16,
        dyn_smem_bytes: 0,
    }
}

fn region_args() -> Vec<RegionArg> {
    vec![
        RegionArg::To(nzomp_host::f64_bytes(&input(N))),
        RegionArg::From(8 * N as u64),
        RegionArg::Scalar(RtVal::I(N as i64)),
    ]
}

fn device_plan(sites: &[(u64, DeviceFaultKind)]) -> FaultPlan {
    FaultPlan {
        device_sites: sites
            .iter()
            .map(|&(after_ops, kind)| DeviceFaultSite { after_ops, kind })
            .collect(),
        ..FaultPlan::default()
    }
}

fn host(n_devices: usize) -> Host {
    let mut h = Host::new(quick(), n_devices);
    h.set_worker_threads(1);
    h
}

/// Everything observable about one region run on device 0.
fn run_clean() -> (Vec<u64>, nzomp_vgpu::KernelMetrics, Vec<u8>) {
    let mut h = host(1);
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = h.stream();
    let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    h.sync().unwrap();
    (
        h.buf_bits(region.bufs[1].unwrap()).unwrap(),
        h.take_metrics(region.ticket).unwrap(),
        h.device(region.device).unwrap().global_bytes().to_vec(),
    )
}

/// A one-shot memcpy fault under recovery retries to a result
/// bit-identical to the clean run.
#[test]
fn transient_memcpy_fault_retries_to_clean_result() {
    let clean = run_clean();
    let mut h = host(1);
    h.set_recovery(Some(RecoveryPolicy::default()));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::MemcpyFail)]))
        .unwrap();
    let s = h.stream();
    let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    h.sync().unwrap();

    let m = h.recovery_metrics();
    assert_eq!(m.retries, 1, "exactly one transient retry");
    assert_eq!(m.failovers, 0);
    assert!(m.backoff_cycles > 0, "retry charged modeled backoff");
    assert_eq!(h.buf_bits(region.bufs[1].unwrap()).unwrap(), clean.0);
    assert_eq!(h.take_metrics(region.ticket).unwrap(), clean.1);
    assert_eq!(h.device(0).unwrap().global_bytes(), clean.2.as_slice());
}

/// A stalled launch is a typed, transient trap; under recovery the retry
/// (the stall site is one-shot) completes the region cleanly.
#[test]
fn stalled_launch_trips_watchdog_and_retries() {
    // Without recovery: the stall surfaces as the launch's trap.
    let mut h = host(1);
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::StallLaunch)]))
        .unwrap();
    let s = h.stream();
    h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    match h.sync() {
        Err(HostError::Exec(e)) => {
            assert_eq!(e.func, "k");
            assert!(matches!(e.kind, TrapKind::Stalled { fuel } if fuel > 0), "{e}");
        }
        other => panic!("expected a stalled launch, got {other:?}"),
    }

    // With recovery: retried to the clean result.
    let clean = run_clean();
    let mut h = host(1);
    h.set_recovery(Some(RecoveryPolicy::default()));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::StallLaunch)]))
        .unwrap();
    let s = h.stream();
    let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    h.sync().unwrap();
    let m = h.recovery_metrics();
    assert_eq!(m.watchdog_trips, 1);
    assert_eq!(m.retries, 1);
    assert_eq!(h.buf_bits(region.bufs[1].unwrap()).unwrap(), clean.0);
}

/// A kernel that outruns its step budget is a program error: the device
/// is deterministic, so a retry would exhaust the same budget again.
/// Under recovery it surfaces at once, and nothing is retried.
#[test]
fn runaway_kernel_is_a_program_error_and_never_retried() {
    let mut h = Host::new(DeviceConfig { max_steps: 10, ..quick() }, 1);
    h.set_recovery(Some(RecoveryPolicy::default()));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    let s = h.stream();
    h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    match h.sync() {
        Err(HostError::Exec(e)) => assert_eq!(e.kind, TrapKind::FuelExhausted, "{e}"),
        other => panic!("expected an exhausted step budget, got {other:?}"),
    }
    let m = h.recovery_metrics();
    assert_eq!((m.retries, m.watchdog_trips, m.failovers), (0, 0, 0));
}

/// Device loss mid-drain: the host quarantines the dead device, binds a
/// replacement, replays the journal, and finishes with outputs, metrics,
/// and a device global-memory image bit-identical to the clean run.
#[test]
fn device_loss_fails_over_and_replays_bit_identically() {
    let clean = run_clean();
    let mut h = host(1);
    h.set_recovery(Some(RecoveryPolicy::default()));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    // after_ops=1: the input upload (op 0) completes; the launch (op 1)
    // hits the loss — the journal already holds allocations and the
    // upload.
    h.set_device_faults(0, device_plan(&[(1, DeviceFaultKind::Lost)]))
        .unwrap();
    let s = h.stream();
    let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    h.sync().unwrap();

    let m = h.recovery_metrics();
    assert_eq!(m.failovers, 1);
    assert_eq!(m.quarantines, 1);
    assert!(m.replayed_ops >= 3, "allocs + upload replayed, got {}", m.replayed_ops);
    assert_eq!(h.buf_bits(region.bufs[1].unwrap()).unwrap(), clean.0, "output bits");
    assert_eq!(h.take_metrics(region.ticket).unwrap(), clean.1, "kernel metrics");
    assert_eq!(
        h.device(0).unwrap().global_bytes(),
        clean.2.as_slice(),
        "device global-memory image"
    );
    assert_eq!(
        h.buf_f64(region.bufs[1].unwrap()).unwrap(),
        scale_add_expected(&input(N))
    );
    assert!(!h.quarantined(0), "the slot carries the replacement, not a tombstone");
}

/// A failover replacement is created from the host's one device and run
/// configuration, like the device it replaces: whatever was pinned — at
/// construction or through a setter — it reports after the swap. Every
/// pin is a non-default value, so a replacement built from
/// `RunConfig::default()` or `DeviceConfig::default()` fails here.
#[test]
fn failover_replacement_inherits_the_hosts_pins() {
    let run = RunConfig { sanitize: Sanitize::Report, ..RunConfig::default() };
    let mut h = Host::with_run(DeviceConfig { max_steps: 1 << 40, ..quick() }, 1, run);
    h.set_exec_tier(ExecTier::Interp);
    h.set_worker_threads(3);
    h.set_recovery(Some(RecoveryPolicy::default()));
    let pinned = RunConfig { workers: 3, tier: ExecTier::Interp, sanitize: Sanitize::Report };
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    assert_eq!(h.device(0).unwrap().run_config(), pinned, "the first device");
    h.set_device_faults(0, device_plan(&[(1, DeviceFaultKind::Lost)]))
        .unwrap();
    let s = h.stream();
    let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    h.sync().unwrap();
    assert_eq!(h.recovery_metrics().failovers, 1, "the campaign must force a failover");

    let d = h.device(0).unwrap();
    assert!(!d.is_lost(), "slot 0 holds the replacement");
    assert_eq!(d.run_config(), pinned);
    assert_eq!(d.exec_tier(), ExecTier::Interp);
    assert_eq!(d.worker_threads(), 3);
    assert_eq!(d.config.max_steps, 1 << 40);
    assert_eq!(
        h.buf_f64(region.bufs[1].unwrap()).unwrap(),
        scale_add_expected(&input(N))
    );
}

/// When the last device dies with no failover budget, the outcome is the
/// typed `FleetLost` — and stays that way for later regions.
#[test]
fn all_devices_lost_is_typed_fleet_loss() {
    let mut h = host(1);
    h.set_eager(true);
    h.set_recovery(Some(RecoveryPolicy {
        max_failovers: 0,
        ..RecoveryPolicy::default()
    }));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::Lost)]))
        .unwrap();
    let s = h.stream();
    match h.enqueue_region(&[s], img, "k", launch(), region_args()) {
        Err(HostError::FleetLost { devices }) => assert_eq!(devices, 1),
        other => panic!("expected fleet loss, got {other:?}"),
    }
    assert_eq!(h.live_devices(), 0);
    // Every later placement fails the same typed way.
    match h.enqueue_region(&[s], img, "k", launch(), region_args()) {
        Err(HostError::FleetLost { devices }) => assert_eq!(devices, 1),
        other => panic!("expected fleet loss, got {other:?}"),
    }
}

/// With a second healthy device, losing the first (budget spent) degrades
/// the fleet: the loss surfaces once, the slot is quarantined, and the
/// scheduler routes every subsequent region to the survivor.
#[test]
fn quarantined_device_is_excluded_and_fleet_degrades() {
    let mut h = host(2);
    h.set_eager(true);
    h.set_recovery(Some(RecoveryPolicy {
        max_failovers: 0,
        ..RecoveryPolicy::default()
    }));
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::Lost)]))
        .unwrap();
    let s = h.stream();
    // Round-robin places the first region on device 0 — which dies.
    match h.enqueue_region(&[s], img, "k", launch(), region_args()) {
        Err(HostError::Exec(e)) => assert_eq!(e.kind, TrapKind::DeviceLost),
        other => panic!("expected the surfaced device loss, got {other:?}"),
    }
    assert!(h.quarantined(0));
    assert_eq!(h.live_devices(), 1);
    // The degraded fleet keeps serving — every region lands on device 1
    // and produces the reference result.
    for _ in 0..3 {
        let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
        assert_eq!(region.device, 1, "quarantined device scheduled");
        assert_eq!(
            h.buf_f64(region.bufs[1].unwrap()).unwrap(),
            scale_add_expected(&input(N))
        );
    }
}

/// With recovery disabled the runtime behaves exactly as before this
/// subsystem existed: the first device fault aborts the drain as a typed
/// error, nothing retries, nothing is journaled.
#[test]
fn recovery_disabled_surfaces_faults_unchanged() {
    let mut h = host(1);
    let img = h
        .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
        .unwrap();
    h.bind_image(0, img).unwrap();
    h.set_device_faults(0, device_plan(&[(0, DeviceFaultKind::Lost)]))
        .unwrap();
    let s = h.stream();
    h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
    match h.sync() {
        Err(HostError::Exec(e)) => assert_eq!(e.kind, TrapKind::DeviceLost),
        other => panic!("expected the raw device loss, got {other:?}"),
    }
    let m = h.recovery_metrics();
    assert_eq!(*m, nzomp_host::RecoveryMetrics::default(), "no recovery activity");
}

/// The recovered path reproduces the clean run under both scheduling
/// policies and several fleet sizes — the single-region shape of the
/// chaos suite's claim, asserted here with explicit seeds.
#[test]
fn failover_is_bit_identical_across_policies_and_fleets() {
    let clean = run_clean();
    for policy in [nzomp_host::SchedPolicy::RoundRobin, nzomp_host::SchedPolicy::LeastLoaded] {
        for devices in [1usize, 2, 4] {
            let mut h = host(devices);
            h.set_policy(policy);
            h.set_recovery(Some(RecoveryPolicy::default()));
            let img = h
                .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
                .unwrap();
            // Kill whichever device the scheduler will pick first (both
            // policies start at index 0 on an idle fleet).
            h.bind_image(0, img).unwrap();
            h.set_device_faults(0, device_plan(&[(1, DeviceFaultKind::Lost)]))
                .unwrap();
            let s = h.stream();
            let region = h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
            assert_eq!(region.device, 0);
            h.sync().unwrap();
            assert_eq!(
                h.buf_bits(region.bufs[1].unwrap()).unwrap(),
                clean.0,
                "policy {policy:?} devices {devices}"
            );
            assert_eq!(h.take_metrics(region.ticket).unwrap(), clean.1);
            assert_eq!(h.device(0).unwrap().global_bytes(), clean.2.as_slice());
            assert_eq!(h.recovery_metrics().failovers, 1);
        }
    }
}

/// A device fault that strikes the zero-fill of a *reused* pool block —
/// a device write issued inside `data_enter`, not by the stream drain —
/// is recovered like any other device write: a transient memcpy fault
/// retries in place, a lost device fails over and replays. Either way
/// the second region ends bit-identical to the fault-free run and the
/// pool stays balanced: the faulted block is reused, not leaked.
#[test]
fn fault_on_reused_block_zero_fill_recovers_without_leaking() {
    // Two regions back to back: the second maps into the blocks the
    // first released. The fault site is armed between them, so op 0 of
    // the plan is the first zero-fill.
    let run = |fault: Option<DeviceFaultKind>| {
        let mut h = host(1);
        h.set_recovery(Some(RecoveryPolicy::default()));
        let img = h
            .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
            .unwrap();
        let s = h.stream();
        h.enqueue_region(&[s], img, "k", launch(), region_args()).unwrap();
        h.sync().unwrap();
        if let Some(kind) = fault {
            h.set_device_faults(0, device_plan(&[(0, kind)])).unwrap();
        }
        let region = h
            .enqueue_region(&[s], img, "k", launch(), region_args())
            .unwrap_or_else(|e| panic!("{fault:?}: zero-fill fault escaped recovery: {e}"));
        h.sync().unwrap();
        let dev = h.stats().devices[0].clone();
        (
            h.buf_bits(region.bufs[1].unwrap()).unwrap(),
            h.take_metrics(region.ticket).unwrap(),
            h.device(0).unwrap().global_bytes().to_vec(),
            (dev.pool_allocs, dev.pool_reuse_hits, dev.pool_in_use),
            h.recovery_metrics().clone(),
        )
    };

    let clean = run(None);
    assert_eq!(clean.3, (2, 2, 0), "second region reuses both blocks");

    let retried = run(Some(DeviceFaultKind::MemcpyFail));
    assert_eq!((retried.4.retries, retried.4.failovers), (1, 0));
    let failed_over = run(Some(DeviceFaultKind::Lost));
    assert_eq!(failed_over.4.failovers, 1);
    for (name, got) in [("MemcpyFail", &retried), ("Lost", &failed_over)] {
        assert_eq!(got.0, clean.0, "{name}: output bits");
        assert_eq!(got.1, clean.1, "{name}: kernel metrics");
        assert_eq!(got.2, clean.2, "{name}: device memory image");
        assert_eq!(got.3, clean.3, "{name}: pool leaked or grew");
    }
}

/// `Host::read_present` is a device read like any other: with recovery
/// armed a transient memcpy fault on it retries in place and a lost
/// device fails over and replays, both to the bytes of the fault-free
/// run — it used to call the device outside the recovery path and
/// surface the raw fault.
#[test]
fn read_present_recovers_like_every_other_memcpy() {
    use nzomp_host::{KArg, MapKind, MapSpec};
    let len = 8 * N as u64;
    let run = |fault: Option<DeviceFaultKind>| {
        let mut h = host(1);
        h.set_recovery(Some(RecoveryPolicy::default()));
        let img = h
            .load_image(scale_add_app(), BuildConfig::NewRtNoAssumptions)
            .unwrap();
        h.bind_image(0, img).unwrap();
        let s = h.stream();
        let a = h.register_f64(&input(N));
        let out = h.register_zeros(len);
        h.data_enter(s, 0, &[MapSpec::whole(a, len, MapKind::To), MapSpec::whole(out, len, MapKind::From)])
            .unwrap();
        let args = [KArg::Buf(a), KArg::Buf(out), KArg::Val(RtVal::I(N as i64))];
        h.enqueue_launch(s, 0, "k", launch(), &args).unwrap();
        h.sync().unwrap();
        // The result lives on the device only; the fault is armed so that
        // op 0 of the plan is the read under test.
        if let Some(kind) = fault {
            h.set_device_faults(0, device_plan(&[(0, kind)])).unwrap();
        }
        let bytes = h
            .read_present(0, out, 0, len)
            .unwrap_or_else(|e| panic!("{fault:?}: read_present escaped recovery: {e}"));
        (bytes, h.recovery_metrics().clone())
    };

    let (clean, _) = run(None);
    assert_eq!(nzomp_host::bytes_to_f64(&clean), scale_add_expected(&input(N)));
    let (retried, m) = run(Some(DeviceFaultKind::MemcpyFail));
    assert_eq!((m.retries, m.failovers), (1, 0));
    assert_eq!(retried, clean, "transient fault retried to the clean bytes");
    let (failed_over, m) = run(Some(DeviceFaultKind::Lost));
    assert_eq!(m.failovers, 1);
    assert!(m.replayed_ops >= 4, "allocs, upload and launch replayed, got {}", m.replayed_ops);
    assert_eq!(failed_over, clean, "lost device failed over to the clean bytes");
}
