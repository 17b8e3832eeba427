//! Integration suite of the serving engine: admission order, typed
//! rejections, fair rotation, single-flight compilation, fault
//! isolation, session state, and the trace-replay determinism gate
//! across worker counts and execution tiers.

use std::rc::Rc;

use nzomp::BuildConfig;
use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_ir::{Module, Operand, Ty};
use nzomp_serve::trace::{replay, Trace, TraceOp};
use nzomp_serve::{
    Outcome, RejectReason, ReqArg, RequestSpec, Serve, ServeConfig, ServeError, TenantConfig,
    TenantId,
};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::GLOBAL_SPACE_BYTES;
use nzomp_vgpu::{DeviceConfig, ExecTier, RtVal};

const N: usize = 32;

fn quick() -> DeviceConfig {
    DeviceConfig { check_assumes: false, ..DeviceConfig::default() }
}

fn launch() -> Launch {
    Launch { teams: 2, threads_per_team: 16, dyn_smem_bytes: 0 }
}

/// `out[i] = a[i] * 2 + i` — the workspace's standard clean kernel.
fn scale_app() -> Rc<Module> {
    scale_app_by(2.0)
}

/// `out[i] = a[i] * k + i`: one immediate apart per `k`.
fn scale_app_by(k: f64) -> Rc<Module> {
    let mut m = Module::new("serve_scale");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        move |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let two = b.fmul(x, Operand::f64(k));
            let i_f = b.si_to_fp(iv);
            let v = b.fadd(two, i_f);
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    Rc::new(m)
}

/// `out[i] = i / d` — integer division, so `d == 0` is a deterministic
/// `DivByZero` trap on every lane.
fn div_app() -> Rc<Module> {
    let mut m = Module::new("serve_div");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "d",
        &[Ty::Ptr, Ty::I64, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let q = b.sdiv(iv, p[1]);
            let po = b.gep(p[0], iv, 8);
            b.store(Ty::I64, po, q);
        },
    );
    Rc::new(m)
}

/// `state[i] += 1.0` — persistent session state the tenant accumulates
/// into across requests.
fn accum_app() -> Rc<Module> {
    let mut m = Module::new("serve_accum");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "acc",
        &[Ty::Ptr, Ty::I64],
        |_b, p| p[1],
        |_m, b, iv, p| {
            let ps = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, ps);
            let v = b.fadd(x, Operand::f64(1.0));
            b.store(Ty::F64, ps, v);
        },
    );
    Rc::new(m)
}

fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect()
}

fn expected(input: &[f64]) -> Vec<f64> {
    input.iter().enumerate().map(|(i, x)| x * 2.0 + i as f64).collect()
}

fn scale_req(module: &Rc<Module>, inp: Rc<Vec<u8>>) -> RequestSpec {
    RequestSpec {
        module: module.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "k".into(),
        launch: launch(),
        args: vec![
            ReqArg::In(inp),
            ReqArg::Out(8 * N as u64),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    }
}

fn div_req(module: &Rc<Module>, divisor: i64) -> RequestSpec {
    RequestSpec {
        module: module.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "d".into(),
        launch: launch(),
        args: vec![
            ReqArg::Out(8 * N as u64),
            ReqArg::Scalar(RtVal::I(divisor)),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    }
}

fn cfg(devices: usize) -> ServeConfig {
    let mut c = ServeConfig::new(devices);
    c.dev_cfg = quick();
    c.worker_threads = Some(1);
    c
}

#[test]
fn completes_a_request_end_to_end() {
    let mut serve = Serve::new(cfg(2));
    let t = serve.add_tenant("t0", TenantConfig::default());
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let r = serve.submit(t, scale_req(&app, inp)).unwrap();
    serve.drain();
    match serve.outcome(r) {
        Some(Outcome::Completed { outputs, cycles, finished, started, .. }) => {
            assert!(*cycles > 0 && finished > started);
            let (idx, bytes) = &outputs[0];
            assert_eq!(*idx, 1, "the Out arg is kernel parameter 1");
            assert_eq!(nzomp_host::bytes_to_f64(bytes), expected(&input(N)));
        }
        o => panic!("expected completion, got {o:?}"),
    }
    let m = serve.metrics();
    assert_eq!((m.submitted, m.admitted, m.completed, m.faulted), (1, 1, 1, 0));
    assert!(m.makespan_cycles > 0);
    // The quota reservation was fully released at completion.
    assert_eq!(serve.tenant_rows()[0].peak_bytes, 8 * N as u64 * 2);
}

#[test]
fn admission_checks_run_in_documented_order() {
    // Saturation outranks backlog and quota: a request over all three
    // limits reports Saturated.
    let mut c = cfg(1);
    c.global_max_in_flight = 1;
    let mut serve = Serve::new(c);
    let t = serve.add_tenant("t0", TenantConfig::new(8 * N as u64 * 2, 1));
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let r0 = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    let r1 = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    assert!(matches!(
        serve.outcome(r1),
        Some(Outcome::Rejected { reason: RejectReason::Saturated { in_flight: 1, limit: 1 }, .. })
    ));

    // Backlog next: widen the global window, keep the tenant window at 1.
    let mut c = cfg(1);
    c.global_max_in_flight = 100;
    let mut serve = Serve::new(c);
    let t = serve.add_tenant("t0", TenantConfig::new(u64::MAX, 1));
    let r0b = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    let r1b = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    assert!(matches!(
        serve.outcome(r1b),
        Some(Outcome::Rejected { reason: RejectReason::TenantBacklog { in_flight: 1, limit: 1 }, .. })
    ));

    // Quota last: wide windows, tight bytes.
    let need = 8 * N as u64 * 2; // In + Out
    let mut serve = Serve::new(cfg(1));
    let t = serve.add_tenant("t0", TenantConfig::new(need + need / 2, 100));
    let r0c = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    let r1c = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    match serve.outcome(r1c) {
        Some(Outcome::Rejected { reason: RejectReason::QuotaExceeded { needed, in_use, quota }, .. }) => {
            assert_eq!((*needed, *in_use, *quota), (need, need, need + need / 2));
        }
        o => panic!("expected quota rejection, got {o:?}"),
    }

    // Rejections never disturb the admitted work.
    serve.drain();
    assert!(serve.outcome(r0c).is_some_and(Outcome::is_completed));
    let _ = (r0, r0b);
}

#[test]
fn window_reopens_after_drain() {
    let mut c = cfg(1);
    c.global_max_in_flight = 1;
    let mut serve = Serve::new(c);
    let t = serve.add_tenant("t0", TenantConfig::default());
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let r0 = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    let r1 = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    assert!(matches!(serve.outcome(r1), Some(Outcome::Rejected { .. })));
    serve.drain();
    // The in-flight window drained; the next request is admitted.
    let r2 = serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    serve.drain();
    assert!(serve.outcome(r0).is_some_and(Outcome::is_completed));
    assert!(serve.outcome(r2).is_some_and(Outcome::is_completed));
    assert_eq!(serve.metrics().rejected_saturated, 1);
    // A drained service holds no request spec: completed and rejected
    // requests alike dropped their module and argument references, so a
    // long-lived service does not accumulate them.
    assert_eq!(Rc::strong_count(&inp), 1, "a retired request still holds its input");
    assert_eq!(Rc::strong_count(&app), 1, "a retired request still holds its module");
}

#[test]
fn dispatch_rotates_fairly_over_tenants() {
    let mut c = cfg(1);
    c.seed = 0; // fairness cursor starts at tenant 0
    let mut serve = Serve::new(c);
    let a = serve.add_tenant("a", TenantConfig::default());
    let b = serve.add_tenant("b", TenantConfig::default());
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push((0u32, serve.submit_at(0, a, scale_req(&app, inp.clone())).unwrap()));
    }
    for _ in 0..3 {
        ids.push((1u32, serve.submit_at(0, b, scale_req(&app, inp.clone())).unwrap()));
    }
    serve.drain();
    // Order the six requests by modeled start cycle: one device, so
    // starts are distinct, and the rotation must alternate a b a b a b
    // rather than clearing tenant a's backlog first.
    let mut by_start: Vec<(u64, u32)> = ids
        .iter()
        .map(|(tenant, r)| match serve.outcome(*r) {
            Some(Outcome::Completed { started, .. }) => (*started, *tenant),
            o => panic!("expected completion, got {o:?}"),
        })
        .collect();
    by_start.sort_unstable();
    let order: Vec<u32> = by_start.iter().map(|(_, t)| *t).collect();
    assert_eq!(order, vec![0, 1, 0, 1, 0, 1], "seeded rotation interleaves tenants");
}

#[test]
fn single_flight_compile_dedup() {
    // Six tenants submit the same module fingerprint: exactly one
    // pipeline run, five cache hits.
    let mut serve = Serve::new(cfg(2));
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    for i in 0..6 {
        let t = serve.add_tenant(&format!("t{i}"), TenantConfig::default());
        serve.submit(t, scale_req(&app, inp.clone())).unwrap();
    }
    serve.drain();
    let stats = serve.host_stats();
    assert_eq!((stats.compile_hits, stats.compile_misses), (5, 1));
    assert_eq!(serve.metrics().completed, 6);
    // A structurally identical module through a different Rc still
    // single-flights — the cache keys on the fingerprint, not identity.
    let t = serve.add_tenant("t6", TenantConfig::default());
    serve.submit(t, scale_req(&scale_app(), inp)).unwrap();
    serve.drain();
    let stats = serve.host_stats();
    assert_eq!((stats.compile_hits, stats.compile_misses), (6, 1));
}

/// The other side of single-flight: modules one immediate apart are two
/// images, and each tenant is served its own kernel's result.
#[test]
fn modules_one_immediate_apart_never_share_an_image() {
    let mut serve = Serve::new(cfg(2));
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let reqs: Vec<_> = [2.0, 3.0]
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let t = serve.add_tenant(&format!("t{i}"), TenantConfig::default());
            serve.submit(t, scale_req(&scale_app_by(*k), inp.clone())).unwrap()
        })
        .collect();
    serve.drain();
    let stats = serve.host_stats();
    assert_eq!((stats.compile_hits, stats.compile_misses, stats.images), (0, 2, 2));
    let out = |r| match serve.outcome(r) {
        Some(Outcome::Completed { outputs, .. }) => nzomp_host::bytes_to_f64(&outputs[0].1),
        other => panic!("expected completion, got {other:?}"),
    };
    assert_eq!(out(reqs[0]), expected(&input(N)));
    let by_three: Vec<f64> = input(N).iter().enumerate().map(|(i, x)| x * 3.0 + i as f64).collect();
    assert_eq!(out(reqs[1]), by_three);
}

#[test]
fn faults_are_typed_and_do_not_disturb_other_tenants() {
    let mut serve = Serve::new(cfg(2));
    let good = serve.add_tenant("good", TenantConfig::default());
    let bad = serve.add_tenant("bad", TenantConfig::default());
    let scale = scale_app();
    let div = div_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let rf = serve.submit(bad, div_req(&div, 0)).unwrap();
    let rg = serve.submit(good, scale_req(&scale, inp.clone())).unwrap();
    let rb2 = serve.submit(bad, div_req(&div, 3)).unwrap();
    serve.drain();
    match serve.outcome(rf) {
        Some(Outcome::Faulted { device, error, .. }) => {
            assert!(device.is_some());
            assert!(error.contains("division by zero"), "unexpected error: {error}");
        }
        o => panic!("expected fault, got {o:?}"),
    }
    // The good tenant's request and the bad tenant's *next* request both
    // complete: a trap poisons one request, not a device or a tenant.
    match serve.outcome(rg) {
        Some(Outcome::Completed { outputs, .. }) => {
            assert_eq!(nzomp_host::bytes_to_f64(&outputs[0].1), expected(&input(N)));
        }
        o => panic!("expected completion, got {o:?}"),
    }
    match serve.outcome(rb2) {
        Some(Outcome::Completed { outputs, .. }) => {
            let vals = nzomp_host::bytes_to_bits(&outputs[0].1);
            assert_eq!(vals[7], 7 / 3);
        }
        o => panic!("expected completion, got {o:?}"),
    }
    let m = serve.metrics();
    assert_eq!((m.completed, m.faulted), (2, 1));
}

#[test]
fn session_state_accumulates_across_requests() {
    let mut serve = Serve::new(cfg(1));
    let t = serve.add_tenant("t0", TenantConfig::default());
    let app = accum_app();
    let state = serve.session_map(t, vec![0u8; 8 * N]).unwrap();
    let acc_req = || RequestSpec {
        module: app.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "acc".into(),
        launch: launch(),
        args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
    };
    serve.submit(t, acc_req()).unwrap();
    serve.submit(t, acc_req()).unwrap();
    serve.drain();
    assert_eq!(serve.metrics().completed, 2);
    let bytes = serve.session_read(t, state).unwrap();
    assert_eq!(nzomp_host::bytes_to_f64(&bytes), vec![2.0; N], "both increments persisted");
    // Unmapping writes back and invalidates the handle.
    serve.session_unmap(t, state).unwrap();
    assert!(matches!(
        serve.session_read(t, state),
        Err(ServeError::UnknownSession { .. })
    ));
}

/// A session buffer that leaves a device is counted once, as what moved
/// it: a migration when its tenant's next request runs on the other
/// device, an eviction when a rebind or an unmap writes it back.
#[test]
fn evictions_and_migrations_are_each_counted_once() {
    let (scale, accum) = (scale_app(), accum_app());
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let mut c = cfg(2);
    c.policy = nzomp_host::SchedPolicy::RoundRobin;
    let mut serve = Serve::new(c);
    let t = serve.add_tenant("t", TenantConfig::default());
    let state = serve.session_map(t, vec![0u8; 8 * N]).unwrap();
    let acc = RequestSpec {
        module: accum.clone(),
        kernel: "acc".into(),
        args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
        ..scale_req(&scale, inp.clone())
    };
    let other = scale_req(&scale, inp.clone());
    let mut moved = Vec::new();
    // Round-robin: the accumulate on device 0, then on device 1 (a
    // migration), the scale kernel rebinding device 0 (nothing resident)
    // and device 1 (an eviction), the accumulate on device 0 again (the
    // buffer enters from the host), and an unmap (an eviction).
    for spec in [acc.clone(), acc.clone(), other.clone(), other, acc] {
        serve.submit(t, spec).unwrap();
        serve.drain();
        moved.push((serve.metrics().evictions, serve.metrics().migrations));
    }
    assert_eq!(nzomp_host::bytes_to_f64(&serve.session_read(t, state).unwrap()), vec![3.0; N]);
    serve.session_unmap(t, state).unwrap();
    moved.push((serve.metrics().evictions, serve.metrics().migrations));
    assert_eq!(moved, [(0, 0), (0, 1), (0, 1), (1, 1), (1, 1), (2, 1)]);
    assert_eq!(serve.metrics().completed, 5);
}

/// A session buffer unmapped while a request naming it is still queued
/// is the tenant's error, typed, decided before any host call — the
/// engine used to launch the kernel with a null in the pointer slot and
/// blame the tenant's kernel for the dereference.
#[test]
fn request_queued_behind_a_session_unmap_faults_typed_and_never_launches() {
    let mut serve = Serve::new(cfg(1));
    let t = serve.add_tenant("t0", TenantConfig::default());
    let app = accum_app();
    let state = serve.session_map(t, vec![0u8; 8 * N]).unwrap();
    let acc_req = || RequestSpec {
        module: app.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "acc".into(),
        launch: launch(),
        args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
    };
    // One device: the first request dispatches at once, the second queues.
    let first = serve.submit(t, acc_req()).unwrap();
    let second = serve.submit(t, acc_req()).unwrap();
    serve.session_unmap(t, state).unwrap();
    serve.drain();

    assert!(serve.outcome(first).unwrap().is_completed());
    match serve.outcome(second) {
        Some(Outcome::Faulted { device: None, error, .. }) => assert_eq!(
            *error,
            ServeError::UnknownSession { tenant: t.0, buf: state.idx }.to_string()
        ),
        o => panic!("expected a typed unknown-session fault, got {o:?}"),
    }
    assert_eq!(serve.host_stats().devices[0].launches, 1, "the stale request never reached the device");
    assert_eq!((serve.metrics().completed, serve.metrics().faulted), (1, 1));
}

#[test]
fn cross_tenant_session_references_are_refused() {
    let mut serve = Serve::new(cfg(1));
    let a = serve.add_tenant("a", TenantConfig::default());
    let b = serve.add_tenant("b", TenantConfig::default());
    let sa = serve.session_map(a, vec![1u8; 64]).unwrap();
    // Tenant b cannot read, unmap, or submit against a's buffer.
    assert!(matches!(serve.session_read(b, sa), Err(ServeError::CrossTenant { owner: 0, caller: 1 })));
    assert!(matches!(serve.session_unmap(b, sa), Err(ServeError::CrossTenant { .. })));
    let spec = RequestSpec {
        module: accum_app(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "acc".into(),
        launch: launch(),
        args: vec![ReqArg::Session(sa), ReqArg::Scalar(RtVal::I(8))],
    };
    assert!(matches!(serve.submit(b, spec), Err(ServeError::CrossTenant { .. })));
    // The refusal consumed nothing: a's state is intact and b admitted 0.
    assert_eq!(serve.session_read(a, sa).unwrap(), vec![1u8; 64]);
    assert_eq!(serve.metrics().submitted, 0);
}

#[test]
fn session_maps_are_quota_charged() {
    let mut serve = Serve::new(cfg(1));
    let t = serve.add_tenant("t0", TenantConfig::new(100, 16));
    let _s0 = serve.session_map(t, vec![0u8; 80]).unwrap();
    match serve.session_map(t, vec![0u8; 40]) {
        Err(ServeError::SessionQuota { needed: 40, in_use: 80, quota: 100, .. }) => {}
        o => panic!("expected session quota error, got {o:?}"),
    }
}

/// Hostile sizes: a request whose buffer sizes overflow `u64` — summed
/// with each other, or with what the tenant already holds — is a typed
/// quota rejection, never a panic, a wrapped sum that slips under the
/// quota, or a device allocation. The offender is charged nothing and
/// nobody else notices.
#[test]
fn overflowing_request_footprint_is_a_typed_quota_rejection() {
    let need = 8 * N as u64 * 2; // In + Out of one scale request
    let mut serve = Serve::new(cfg(2));
    let good = serve.add_tenant("good", TenantConfig::default());
    let hostile = serve.add_tenant("hostile", TenantConfig::new(2 * need, 16));
    let unlimited = serve.add_tenant("unlimited", TenantConfig::default());
    let app = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let bomb = |sizes: &[u64]| RequestSpec {
        args: sizes.iter().map(|n| ReqArg::Out(*n)).chain([ReqArg::Scalar(RtVal::I(0))]).collect(),
        ..scale_req(&app, inp.clone())
    };
    let quota_rejection = |serve: &Serve, r| match serve.outcome(r) {
        Some(Outcome::Rejected { reason: RejectReason::QuotaExceeded { needed, in_use, quota }, .. }) => {
            (*needed, *in_use, *quota)
        }
        o => panic!("expected a quota rejection, got {o:?}"),
    };

    let rg = serve.submit(good, scale_req(&app, inp.clone())).unwrap();
    // The two sizes wrap to 0, which would fit any quota.
    let rh = serve.submit(hostile, bomb(&[1 << 63, 1 << 63])).unwrap();
    assert_eq!(quota_rejection(&serve, rh), (u64::MAX, 0, 2 * need));
    // No quota is large enough for a footprint that does not fit in `u64`
    // (an unlimited tenant's limit is what a device can address)...
    let ru = serve.submit(unlimited, bomb(&[1 << 63, 1 << 63])).unwrap();
    assert_eq!(quota_rejection(&serve, ru), (u64::MAX, 0, GLOBAL_SPACE_BYTES));
    // ...or for one that only overflows on top of what is in flight.
    let ru_ok = serve.submit(unlimited, scale_req(&app, inp.clone())).unwrap();
    let ru2 = serve.submit(unlimited, bomb(&[u64::MAX - 100])).unwrap();
    assert_eq!(quota_rejection(&serve, ru2), (u64::MAX - 100, need, GLOBAL_SPACE_BYTES));

    // The offender was charged nothing: its whole quota is still there.
    let rh1 = serve.submit(hostile, scale_req(&app, inp.clone())).unwrap();
    let rh2 = serve.submit(hostile, scale_req(&app, inp.clone())).unwrap();
    serve.drain();
    for r in [rg, ru_ok, rh1, rh2] {
        match serve.outcome(r) {
            Some(Outcome::Completed { outputs, .. }) => {
                assert_eq!(nzomp_host::bytes_to_f64(&outputs[0].1), expected(&input(N)));
            }
            o => panic!("expected completion, got {o:?}"),
        }
    }
    let rows = serve.tenant_rows();
    assert_eq!((rows[1].rejected_quota, rows[1].completed, rows[1].peak_bytes), (1, 2, 2 * need));
    assert_eq!((rows[2].rejected_quota, rows[2].completed, rows[2].peak_bytes), (2, 1, need));
    assert_eq!((rows[0].rejected(), rows[0].completed), (0, 1));
    let m = serve.metrics();
    assert_eq!((m.submitted, m.admitted, m.completed, m.rejected_quota), (7, 4, 4, 3));
}

/// Hostile sizes, the other kind: a claim that fits `u64` and an unlimited
/// quota but that no device can address (offsets are 32 bits). It is a typed
/// rejection at admission — nothing compiled, mapped or allocated for it, in
/// the host or on a device — and the tenant next to it cannot tell the
/// hostile requests were ever made.
#[test]
fn unaddressable_footprint_is_rejected_before_anything_is_allocated() {
    let (scale, accum) = (scale_app(), accum_app());
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    // What `good` observes of a run in which `hostile` submits `claims`
    // between each of its requests, and what the host did in that run.
    let run = |claims: &[u64]| {
        let mut serve = Serve::new(cfg(2));
        let good = serve.add_tenant("good", TenantConfig::default());
        let hostile = serve.add_tenant("hostile", TenantConfig::default());
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut goods = Vec::new();
        for _ in 0..3 {
            let acc = RequestSpec {
                module: accum.clone(),
                kernel: "acc".into(),
                args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
                ..scale_req(&scale, inp.clone())
            };
            for spec in [acc, scale_req(&scale, inp.clone())] {
                for &n in claims {
                    let bomb = RequestSpec {
                        args: vec![ReqArg::In(inp.clone()), ReqArg::Out(n), ReqArg::Scalar(RtVal::I(0))],
                        ..scale_req(&scale_app_by(n as f64), inp.clone())
                    };
                    let r = serve.submit(hostile, bomb).unwrap();
                    let want = RejectReason::QuotaExceeded {
                        needed: n + 8 * N as u64,
                        in_use: 0,
                        quota: GLOBAL_SPACE_BYTES,
                    };
                    assert!(
                        matches!(serve.outcome(r), Some(Outcome::Rejected { reason, .. }) if *reason == want),
                        "claim of {n} bytes: {:?}",
                        serve.outcome(r)
                    );
                }
                goods.push(serve.submit(good, spec).unwrap());
            }
        }
        serve.drain();
        let outcomes: Vec<Outcome> = goods.iter().map(|r| serve.outcome(*r).unwrap().clone()).collect();
        assert!(outcomes.iter().all(Outcome::is_completed), "{outcomes:?}");
        let snap = nzomp_serve::trace::snapshot(&mut serve).unwrap();
        assert_eq!(snap.rows[1].rejected_quota, 6 * claims.len() as u64);
        (outcomes, snap.rows[0].clone(), snap.session_images[0].clone(), serve.host_stats())
    };
    // The smallest claim that cannot fit, the 8 GiB of the report, and the
    // largest that still sums in `u64`.
    let alone = run(&[]);
    let beside = run(&[GLOBAL_SPACE_BYTES - 8 * N as u64 + 1, 1 << 33, u64::MAX - 8 * N as u64]);
    assert_eq!(alone, beside);
}

/// Hostile shapes: a launch no SM can hold — more threads than an SM has,
/// or more shared memory, up to `u64::MAX` bytes — ends `Faulted` with the
/// device's typed `BadLaunch` instead of taking the service down, and the
/// tenant beside it cannot tell the requests were ever made.
#[test]
fn launch_shapes_past_an_sm_fault_typed_and_leave_neighbours_alone() {
    let (scale, accum) = (scale_app(), accum_app());
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    // The good tenant's row and session image in a run where `hostile`
    // submits one request per shape between each pair of its own.
    let run = |shapes: &[Launch]| {
        let mut serve = Serve::new(cfg(2));
        let good = serve.add_tenant("good", TenantConfig::default());
        let hostile = serve.add_tenant("hostile", TenantConfig::default());
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut refused = Vec::new();
        for _ in 0..3 {
            let acc = RequestSpec {
                module: accum.clone(),
                kernel: "acc".into(),
                args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
                ..scale_req(&scale, inp.clone())
            };
            serve.submit(good, acc).unwrap();
            for &launch in shapes {
                let bomb = RequestSpec { launch, ..scale_req(&scale, inp.clone()) };
                refused.push(serve.submit(hostile, bomb).unwrap());
            }
            serve.submit(good, scale_req(&scale, inp.clone())).unwrap();
        }
        serve.drain();
        for r in refused {
            match serve.outcome(r) {
                Some(Outcome::Faulted { error, .. }) => assert!(error.contains("bad launch"), "{error}"),
                o => panic!("expected a BadLaunch fault, got {o:?}"),
            }
        }
        let snap = nzomp_serve::trace::snapshot(&mut serve).unwrap();
        assert_eq!(snap.rows[0].completed, 6);
        (snap.rows[0].clone(), snap.session_images[0].clone())
    };
    let shapes = [
        Launch { threads_per_team: u32::MAX, ..launch() },
        Launch { dyn_smem_bytes: 1 << 40, ..launch() },
        Launch { dyn_smem_bytes: u64::MAX, ..launch() },
    ];
    assert_eq!(run(&[]), run(&shapes));
}

/// A grid of `u32::MAX` teams is a shape an SM can hold, so it runs: a
/// launch keeps state per wave, not per team, so the request spends the
/// step budget and ends `Faulted` on it, on one worker and on two — and
/// the tenant beside it cannot tell it was ever made.
#[test]
fn a_grid_of_u32_max_teams_faults_on_fuel_and_leaves_neighbours_alone() {
    let (scale, accum) = (scale_app(), accum_app());
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));
    let run = |workers: usize, bomb: bool| {
        let mut c = cfg(2);
        c.dev_cfg.max_steps = 20_000;
        c.worker_threads = Some(workers);
        let mut serve = Serve::new(c);
        let good = serve.add_tenant("good", TenantConfig::default());
        let hostile = serve.add_tenant("hostile", TenantConfig::default());
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut bombs = Vec::new();
        for _ in 0..2 {
            let acc = RequestSpec {
                module: accum.clone(),
                kernel: "acc".into(),
                args: vec![ReqArg::Session(state), ReqArg::Scalar(RtVal::I(N as i64))],
                ..scale_req(&scale, inp.clone())
            };
            serve.submit(good, acc).unwrap();
            if bomb {
                let grid = Launch { teams: u32::MAX, ..launch() };
                let req = RequestSpec { launch: grid, ..scale_req(&scale, inp.clone()) };
                bombs.push(serve.submit(hostile, req).unwrap());
            }
            serve.submit(good, scale_req(&scale, inp.clone())).unwrap();
        }
        serve.drain();
        for r in bombs {
            match serve.outcome(r) {
                Some(Outcome::Faulted { error, .. }) => {
                    assert!(error.contains("step budget exhausted"), "{error}")
                }
                o => panic!("expected a fuel fault, got {o:?}"),
            }
        }
        let snap = nzomp_serve::trace::snapshot(&mut serve).unwrap();
        assert_eq!(snap.rows[0].completed, 4);
        (snap.rows[0].clone(), snap.session_images[0].clone())
    };
    let alone = run(1, false);
    assert_eq!(alone, run(1, true));
    assert_eq!(alone, run(2, true));
}

/// The tentpole determinism gate: one mixed trace — 8 tenants, 4
/// devices, clean, faulting, and quota-rejected requests, session state —
/// replays bit-identically across runs, worker counts {1, 8}, and both
/// execution tiers.
#[test]
fn trace_replays_bit_identically_across_axes() {
    let scale = scale_app();
    let div = div_app();
    let accum = accum_app();
    let inp = Rc::new(nzomp_host::f64_bytes(&input(N)));

    let mut trace = Trace::new();
    for i in 0..8 {
        // Tenant 4's backlog window and tenant 5's quota are only wide
        // enough for one request in flight — their bursts draw typed
        // backlog and quota rejections respectively.
        let cfg = match i {
            4 => TenantConfig::new(u64::MAX, 1),
            5 => TenantConfig::new(8 * N as u64 * 2, 64),
            _ => TenantConfig::default(),
        };
        trace.push(TraceOp::Tenant { name: format!("t{i}"), cfg });
    }
    // Tenants 0 and 1 carry session state.
    trace.push(TraceOp::Map { tenant: 0, bytes: vec![0u8; 8 * N] });
    trace.push(TraceOp::Map { tenant: 1, bytes: vec![0u8; 8 * N] });
    let acc_spec = |tenant: u32| RequestSpec {
        module: accum.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "acc".into(),
        launch: launch(),
        args: vec![
            ReqArg::Session(nzomp_serve::SBuf { tenant: TenantId(tenant), idx: 0 }),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    };
    // Six same-timestamp bursts: all eight tenants submit at once, with
    // extras that provably overrun each limit — tenant 4 doubles up past
    // its backlog window, tenant 5 past its quota, and four tenant-6
    // extras fill the global window so tenant 7's second request hits
    // saturation. Tenant 3 trips div-by-zero faults on rounds 0 and 3.
    for round in 0..6u64 {
        let at = round * 150;
        for tenant in 0..8u32 {
            let spec = match (tenant, round % 2) {
                (3, _) => div_req(&div, if round % 3 == 0 { 0 } else { 2 }),
                (0, 0) => acc_spec(0),
                (1, 1) => acc_spec(1),
                _ => scale_req(&scale, inp.clone()),
            };
            trace.push(TraceOp::Submit { at, tenant, spec });
            if tenant == 4 || tenant == 5 {
                trace.push(TraceOp::Submit { at, tenant, spec: scale_req(&scale, inp.clone()) });
            }
        }
        for tenant in [6, 6, 6, 6, 7] {
            trace.push(TraceOp::Submit { at, tenant, spec: scale_req(&scale, inp.clone()) });
        }
    }
    trace.push(TraceOp::Drain);

    let base = {
        let mut c = cfg(4);
        c.global_max_in_flight = 12;
        c
    };
    let one = replay(&trace, &base).unwrap();
    let submits = trace.ops.iter().filter(|op| matches!(op, TraceOp::Submit { .. })).count();
    assert_eq!(one.metrics.submitted, submits as u64, "every submission is accounted for");
    assert!(one.outcomes.iter().all(Option::is_some), "every submission has an outcome");
    // Single-flight at trace scale: three distinct modules, three
    // pipeline runs, everything else a cache hit.
    assert_eq!(one.compile.1, 3, "one compile per distinct module: {:?}", one.compile);

    // The trace exercised every outcome class, including all three
    // typed rejection reasons.
    assert!(one.metrics.completed > 0 && one.metrics.faulted > 0, "{:?}", one.metrics);
    assert!(one.metrics.rejected_quota > 0, "{:?}", one.metrics);
    assert!(one.metrics.rejected_backlog > 0, "{:?}", one.metrics);
    assert!(one.metrics.rejected_saturated > 0, "{:?}", one.metrics);
    // Session state survived the run and is part of the snapshot.
    assert!(one.session_images[0][0].1.iter().any(|b| *b != 0));

    // Same config, second run: bit-identical.
    let two = replay(&trace, &base).unwrap();
    assert_eq!(one, two, "same-config replay must be bit-identical");

    // Worker-count axis.
    let mut w8 = base.clone();
    w8.worker_threads = Some(8);
    assert_eq!(one, replay(&trace, &w8).unwrap(), "replay differs across worker counts");

    // Exec-tier axis.
    let mut interp = base.clone();
    interp.exec_tier = Some(ExecTier::Interp);
    let mut bytecode = base.clone();
    bytecode.exec_tier = Some(ExecTier::Bytecode);
    assert_eq!(
        replay(&trace, &interp).unwrap(),
        replay(&trace, &bytecode).unwrap(),
        "replay differs across execution tiers"
    );
}
