//! Tenant-isolation suite of the serving layer: two tenants mapping the
//! same logical host range get disjoint device allocations and can never
//! observe each other's bytes, quota exhaustion in one tenant leaves every
//! other tenant's in-flight work untouched, and a hostile tenant's
//! generated, mutated, misshapen and quota-edge requests each end in one
//! typed outcome without changing what its neighbour computes. The replay
//! test crosses workers {1, 8} and both tiers; one sanitizer setting
//! suffices: serve adds no device code, and `ServeConfig` has no sanitizer
//! field.

use std::rc::Rc;

use nzomp::BuildConfig;
use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_integration::corpus::{corpus_texts, mutate_text};
use nzomp_integration::assert_counters_agree;
use nzomp_integration::gen::{generate, parse_launch_comment, LaunchMeta};
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::{Global, Init, Module, Operand, Space, Ty};
use nzomp_serve::trace::{self, Replayed, Trace, TraceOp};
use nzomp_serve::{
    Outcome, RejectReason, ReqArg, ReqId, RequestSpec, SBuf, Serve, ServeConfig, ServeError,
    TenantConfig, TenantId,
};
use nzomp_vgpu::cost::{MAX_THREADS_PER_SM, SMEM_PER_SM};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{DeviceConfig, RtVal};

const N: usize = 24;

fn quick() -> DeviceConfig {
    DeviceConfig { check_assumes: false, ..DeviceConfig::default() }
}

fn launch() -> Launch {
    Launch { teams: 2, threads_per_team: 12, dyn_smem_bytes: 0 }
}

/// [`trace::replay`], its snapshot's counters checked.
fn replay(t: &Trace, cfg: &ServeConfig) -> Result<Replayed, ServeError> {
    let snap = trace::replay(t, cfg)?;
    assert_counters_agree(&snap);
    Ok(snap)
}

/// `state[i] = (f64) c` — a writer whose output identifies its tenant.
fn writer_app() -> Rc<Module> {
    let mut m = Module::new("serve_writer");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "w",
        &[Ty::Ptr, Ty::I64, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let v = b.si_to_fp(p[1]);
            let ps = b.gep(p[0], iv, 8);
            b.store(Ty::F64, ps, v);
        },
    );
    Rc::new(m)
}

/// `out[i] = a[i] * 2 + i` — the standard clean kernel.
fn scale_app() -> Rc<Module> {
    let mut m = Module::new("serve_iso_scale");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let two = b.fmul(x, Operand::f64(2.0));
            let i_f = b.si_to_fp(iv);
            let v = b.fadd(two, i_f);
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    Rc::new(m)
}

/// The writer with `state[i] = c + 1.0` for an `i64` parameter `c`: an
/// `fadd` of integer bits, which the value-domain rule (`verify_domains`,
/// run by `verify_module` at the link stage) refuses at the door.
fn ill_classed_req() -> RequestSpec {
    let mut m = Module::new("serve_ill_classed");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "w",
        &[Ty::Ptr, Ty::I64, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let v = b.fadd(p[1], Operand::f64(1.0));
            let ps = b.gep(p[0], iv, 8);
            b.store(Ty::F64, ps, v);
        },
    );
    RequestSpec {
        module: Rc::new(m),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "w".into(),
        launch: launch(),
        args: vec![
            ReqArg::Out(8 * N as u64),
            ReqArg::Scalar(RtVal::I(3)),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    }
}

fn write_req(module: &Rc<Module>, state: SBuf, value: i64) -> RequestSpec {
    RequestSpec {
        module: module.clone(),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "w".into(),
        launch: launch(),
        args: vec![
            ReqArg::Session(state),
            ReqArg::Scalar(RtVal::I(value)),
            ReqArg::Scalar(RtVal::I(N as i64)),
        ],
    }
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

fn cfg(devices: usize) -> ServeConfig {
    let mut c = ServeConfig::new(devices);
    c.dev_cfg = quick();
    c
}

/// Two tenants map byte-identical host ranges; the device allocations
/// behind them are disjoint, and each tenant reads back only its own
/// writes.
#[test]
fn same_host_range_maps_to_disjoint_device_memory() {
    let mut serve = Serve::new(cfg(1));
    let a = serve.add_tenant("a", TenantConfig::default());
    let b = serve.add_tenant("b", TenantConfig::default());
    // The same logical range: identical bytes, identical length.
    let shared = vec![0u8; 8 * N];
    let sa = serve.session_map(a, shared.clone()).unwrap();
    let sb = serve.session_map(b, shared).unwrap();

    let w = writer_app();
    let ra = serve.submit(a, write_req(&w, sa, 7)).unwrap();
    let rb = serve.submit(b, write_req(&w, sb, 9)).unwrap();
    serve.drain();

    // Both live on the one device simultaneously (same image, no
    // eviction) at non-overlapping device addresses.
    let ptr = |r| match serve.outcome(r) {
        Some(Outcome::Completed { arg_ptrs, device, .. }) => {
            assert_eq!(*device, 0);
            arg_ptrs[0].unwrap()
        }
        o => panic!("expected completion, got {o:?}"),
    };
    let (pa, pb) = (ptr(ra), ptr(rb));
    assert_ne!(pa, pb);
    let len = 8 * N as u64;
    assert!(
        pa + len <= pb || pb + len <= pa,
        "device ranges overlap: [{pa}, {}) vs [{pb}, {})",
        pa + len,
        pb + len
    );

    // Each tenant observes exactly its own writes — nothing leaked
    // through the shared device.
    let fa: Vec<f64> = serve
        .session_read(a, sa)
        .unwrap()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let fb: Vec<f64> = serve
        .session_read(b, sb)
        .unwrap()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    assert_eq!(fa, vec![7.0; N]);
    assert_eq!(fb, vec![9.0; N]);
}

/// Exhausting one tenant's quota rejects *that tenant's* overflow with a
/// typed outcome while every other tenant's in-flight work runs to
/// completion unchanged.
#[test]
fn quota_exhaustion_is_contained_to_the_offending_tenant() {
    let mut serve = Serve::new(cfg(2));
    let scale = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(
        &(0..N).map(|i| i as f64 * 0.25).collect::<Vec<_>>(),
    ));
    let footprint = 8 * N as u64 * 2; // In + Out
    let poor = serve.add_tenant("poor", TenantConfig::new(footprint, 16));
    let rich = serve.add_tenant("rich", TenantConfig::default());

    let p0 = serve.submit(poor, scale_req(&scale, inp.clone())).unwrap();
    let r0 = serve.submit(rich, scale_req(&scale, inp.clone())).unwrap();
    // Overflow the poor tenant while both in-flight requests are live.
    let p1 = serve.submit(poor, scale_req(&scale, inp.clone())).unwrap();
    let r1 = serve.submit(rich, scale_req(&scale, inp.clone())).unwrap();
    serve.drain();

    match serve.outcome(p1) {
        Some(Outcome::Rejected { reason: RejectReason::QuotaExceeded { needed, in_use, quota }, .. }) => {
            assert_eq!((*needed, *in_use, *quota), (footprint, footprint, footprint));
        }
        o => panic!("expected quota rejection, got {o:?}"),
    }
    // Everyone else — including the poor tenant's admitted request —
    // completed with correct bytes.
    let expect: Vec<f64> = (0..N).map(|i| (i as f64 * 0.25) * 2.0 + i as f64).collect();
    for r in [p0, r0, r1] {
        match serve.outcome(r) {
            Some(Outcome::Completed { outputs, .. }) => {
                assert_eq!(nzomp_host::bytes_to_f64(&outputs[0].1), expect);
            }
            o => panic!("expected completion, got {o:?}"),
        }
    }
    let m = serve.metrics();
    assert_eq!((m.completed, m.rejected_quota, m.faulted), (3, 1, 0));
    // The poor tenant's quota ledger drained back to its session-free
    // baseline — rejections and completions both release correctly.
    assert_eq!(serve.tenant_rows()[0].peak_bytes, footprint);
}

/// Session images — each tenant's device memory — replay bit-identically
/// together with outcomes and metrics, including when the engine pins
/// different worker counts and execution tiers.
#[test]
fn tenant_memory_images_replay_bit_identically() {
    let w = writer_app();
    let scale = scale_app();
    let inp = Rc::new(nzomp_host::f64_bytes(
        &(0..N).map(|i| i as f64 - 4.0).collect::<Vec<_>>(),
    ));

    let mut trace = Trace::new();
    for i in 0..4 {
        trace.push(TraceOp::Tenant { name: format!("t{i}"), cfg: TenantConfig::default() });
        trace.push(TraceOp::Map { tenant: i, bytes: vec![0u8; 8 * N] });
    }
    for (round, at) in [0u64, 90, 180].iter().enumerate() {
        for tenant in 0..4u32 {
            let state = SBuf { tenant: TenantId(tenant), idx: 0 };
            let spec = if (tenant as usize + round) % 2 == 0 {
                write_req(&w, state, (tenant as i64 + 1) * 10 + round as i64)
            } else {
                scale_req(&scale, inp.clone())
            };
            trace.push(TraceOp::Submit { at: *at, tenant, spec });
        }
    }
    trace.push(TraceOp::Drain);

    let base = cfg(2);
    let one = replay(&trace, &base).unwrap();
    let two = replay(&trace, &base).unwrap();
    assert_eq!(one, two, "same-config replay diverged");
    assert_eq!(one.session_images.len(), 4);
    assert!(one.session_images.iter().all(|t| !t.is_empty()));

    let mut w1 = base.clone();
    w1.worker_threads = Some(1);
    let mut w8 = base.clone();
    w8.worker_threads = Some(8);
    assert_eq!(
        replay(&trace, &w1).unwrap(),
        replay(&trace, &w8).unwrap(),
        "session images diverged across worker counts"
    );

    let mut interp = base.clone();
    interp.exec_tier = Some(nzomp_vgpu::ExecTier::Interp);
    let mut bytecode = base.clone();
    bytecode.exec_tier = Some(nzomp_vgpu::ExecTier::Bytecode);
    assert_eq!(
        replay(&trace, &interp).unwrap(),
        replay(&trace, &bytecode).unwrap(),
        "session images diverged across execution tiers"
    );
}

/// The hostile tenant's device-memory quota.
const HOSTILE_QUOTA: u64 = 1 << 16;

/// Modeled cycles between two submissions: every request has retired
/// before the next arrives, so the hostile tenant's volume never fills the
/// global window its neighbour shares, and its quota is free again.
const GAP: u64 = 1 << 24;

/// How a hostile request must end.
#[derive(Clone, Copy, Debug)]
enum Want {
    /// Any typed outcome: a mutated module may be refused by the compiler,
    /// trap on the device, or run.
    Typed,
    Completed,
    /// Faulted with an error containing this text.
    Faulted(&'static str),
    /// Rejected at admission as needing this many bytes, with nothing in
    /// use.
    OverQuota(u64),
}

/// `module`'s kernel `@k` built for CUDA, over one fresh buffer, launched
/// as `meta` says — the IR fuzzer's launch of a generated kernel.
fn generated_req(module: Module, meta: LaunchMeta) -> RequestSpec {
    RequestSpec {
        module: Rc::new(module),
        config: BuildConfig::Cuda,
        kernel: "k".into(),
        launch: Launch::new(meta.teams, meta.threads),
        args: vec![ReqArg::Out(meta.buf_bytes)],
    }
}

/// What the hostile tenant submits: generator modules, the first seeded
/// mutation of each `gen-*.nzir` corpus file that still parses, a kernel
/// that fails the value-domain rule, launch shapes past what a device
/// runs, and footprints at the quota's edge.
fn hostile_requests(scale: &Rc<Module>, inp: &Rc<Vec<u8>>) -> Vec<(Want, RequestSpec)> {
    let mut reqs = Vec::new();
    for seed in 0..4 {
        let g = generate(seed);
        let meta = parse_launch_comment(&g.launch_comment()).unwrap();
        reqs.push((Want::Completed, generated_req(g.module, meta)));
    }
    let corpus = corpus_texts().unwrap();
    for (_, text) in corpus.iter().filter(|(name, _)| name.starts_with("gen-")) {
        let parsed = (0..64u64).find_map(|seed| {
            let mutated = mutate_text(text, seed);
            let m = parse_module_strict(&mutated).ok()?;
            let meta = parse_launch_comment(&mutated).or_else(|| parse_launch_comment(text))?;
            Some(generated_req(m, meta))
        });
        reqs.push((Want::Typed, parsed.expect("no mutation of a corpus file parses")));
    }
    // Refused before it is compiled, naming the function and instruction,
    // rather than run on the interpreter of the device both tenants share.
    let refused = "after link: verify error in @w.omp_outlined.body.0: %5 (FAdd) in bb0: \
                   reads integer bits where float bits are required";
    reqs.push((Want::Faulted(refused), ill_classed_req()));
    let shaped = |launch| RequestSpec { launch, ..scale_req(scale, inp.clone()) };
    let grid = Launch { teams: u32::MAX, ..launch() };
    reqs.push((Want::Faulted("step budget exhausted"), shaped(grid)));
    let wide = Launch { threads_per_team: MAX_THREADS_PER_SM + 1, ..launch() };
    reqs.push((Want::Faulted("bad launch"), shaped(wide)));
    let fat = Launch { dyn_smem_bytes: SMEM_PER_SM + 1, ..launch() };
    reqs.push((Want::Faulted("bad launch"), shaped(fat)));
    // The scale kernel's arguments with an output of `out` bytes, then
    // `scratch` buffers past the ones it reads.
    let sized = |out: u64, scratch: &[u64]| {
        let mut args =
            vec![ReqArg::In(inp.clone()), ReqArg::Out(out), ReqArg::Scalar(RtVal::I(N as i64))];
        args.extend(scratch.iter().map(|&n| ReqArg::Scratch(n)));
        RequestSpec { args, ..scale_req(scale, inp.clone()) }
    };
    let room = HOSTILE_QUOTA - inp.len() as u64;
    reqs.push((Want::Completed, sized(room, &[])));
    reqs.push((Want::OverQuota(HOSTILE_QUOTA + 1), sized(room + 1, &[])));
    reqs.push((Want::OverQuota(u64::MAX), sized(8 * N as u64, &[u64::MAX / 2, u64::MAX / 2])));
    reqs.push((Want::Faulted("zero-length map"), sized(8 * N as u64, &[0])));
    reqs
}

/// A hostile tenant submits, through `Serve::submit_at`, generator
/// modules and parsing mutations of the corpus (compiled for CUDA), a
/// kernel that adds a float to an integer parameter, a grid
/// of `u32::MAX` teams under a small step budget, launches past an SM's
/// threads and shared memory, a zero-length scratch buffer, and footprints
/// of exactly its quota, one byte more, and a sum past `u64`. Every request ends in exactly one
/// typed outcome, and the well-behaved tenant beside it computes the same
/// outputs and session image as in a run without it; only its latency may
/// move.
#[test]
fn hostile_tenant_ends_typed_and_leaves_its_neighbour_alone() {
    let (w, scale) = (writer_app(), scale_app());
    let inp = Rc::new(nzomp_host::f64_bytes(
        &(0..N).map(|i| i as f64 + 0.5).collect::<Vec<_>>(),
    ));
    let run = |hostile: &[(Want, RequestSpec)]| {
        let mut c = cfg(2);
        c.dev_cfg.max_steps = 1_000_000;
        let mut serve = Serve::new(c);
        let good = serve.add_tenant("good", TenantConfig::default());
        let evil = serve.add_tenant("evil", TenantConfig::new(HOSTILE_QUOTA, usize::MAX));
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut at = 0;
        let mut submit = |serve: &mut Serve, t, spec| {
            at += GAP;
            serve.submit_at(at, t, spec).unwrap()
        };
        const ROUNDS: usize = 6;
        let mut goods = Vec::new();
        let mut evils: Vec<(Want, ReqId)> = Vec::new();
        let mut bombs = hostile.iter();
        for round in 0..ROUNDS {
            goods.push(submit(&mut serve, good, write_req(&w, state, round as i64 + 1)));
            for (want, spec) in bombs.by_ref().take(hostile.len().div_ceil(ROUNDS)) {
                evils.push((*want, submit(&mut serve, evil, spec.clone())));
            }
            goods.push(submit(&mut serve, good, scale_req(&scale, inp.clone())));
        }
        serve.drain();

        assert!(serve.outcomes().iter().all(Option::is_some), "a request has no outcome");
        let m = serve.metrics();
        assert_eq!(m.submitted, m.completed + m.faulted + m.rejected(), "{m:?}");
        for (i, (want, r)) in evils.iter().enumerate() {
            let got = serve.outcome(*r).unwrap();
            let ok = match (want, got) {
                (Want::Typed, _) => true,
                (Want::Completed, Outcome::Completed { .. }) => true,
                (Want::Faulted(text), Outcome::Faulted { error, .. }) => error.contains(text),
                (Want::OverQuota(n), Outcome::Rejected { reason, .. }) => {
                    let quota = HOSTILE_QUOTA;
                    *reason == RejectReason::QuotaExceeded { needed: *n, in_use: 0, quota }
                }
                _ => false,
            };
            assert!(ok, "hostile request {i}: wanted {want:?}, got {got:?}");
        }
        let outputs: Vec<_> = goods
            .iter()
            .map(|r| match serve.outcome(*r) {
                Some(Outcome::Completed { outputs, .. }) => outputs.clone(),
                o => panic!("the neighbour's request did not complete: {o:?}"),
            })
            .collect();
        (outputs, serve.session_image(good).unwrap())
    };
    let hostile = hostile_requests(&scale, &inp);
    assert_eq!(run(&[]), run(&hostile));
}

/// `out[i] = g[i]; g[i] = i` over global-space globals of `sizes` bytes:
/// the kernel reads the first and writes the last.
fn big_statics_req(sizes: &[u64]) -> RequestSpec {
    let mut m = Module::new("serve_big_statics");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "b",
        &[Ty::Ptr, Ty::I64],
        |_b, p| p[1],
        |m, b, iv, p| {
            let globals: Vec<_> = (sizes.iter().enumerate())
                .map(|(i, &size)| Global::new(format!("big{i}"), Space::Global, size, Init::I64(7)))
                .map(|g| Operand::Global(m.add_global(g)))
                .collect();
            let pg = b.gep(globals[0], iv, 8);
            let x = b.load(Ty::I64, pg);
            let pw = b.gep(globals[globals.len() - 1], iv, 8);
            b.store(Ty::I64, pw, iv);
            let po = b.gep(p[0], iv, 8);
            b.store(Ty::I64, po, x);
        },
    );
    RequestSpec {
        module: Rc::new(m),
        config: BuildConfig::NewRtNoAssumptions,
        kernel: "b".into(),
        launch: launch(),
        args: vec![ReqArg::Out(8 * N as u64), ReqArg::Scalar(RtVal::I(N as i64))],
    }
}

/// A tenant whose module declares global statics no device holds — a
/// 2^40-byte global, a 2^33-byte one, two that together pass 4 GiB —
/// submits through `Serve::submit_at`: each request faults with a bad
/// launch that names the global and its segment, no device allocates the
/// statics, and the well-behaved tenant beside it computes the same
/// outputs and session image as in a run without it.
#[test]
fn statics_past_the_global_segment_fault_and_leave_the_neighbour_alone() {
    let (w, scale) = (writer_app(), scale_app());
    let inp = Rc::new(nzomp_host::f64_bytes(&(0..N).map(|i| i as f64).collect::<Vec<_>>()));
    let hostile = [
        (big_statics_req(&[1 << 40]), "@big0 (1099511627776 B) does not fit the global segment"),
        (big_statics_req(&[1 << 33]), "@big0 (8589934592 B) does not fit the global segment"),
        (big_statics_req(&[3 << 30, 3 << 30]), "@big1 (3221225472 B) does not fit the global segment"),
    ];
    let run = |hostile: &[(RequestSpec, &str)]| {
        let mut serve = Serve::new(cfg(2));
        let good = serve.add_tenant("good", TenantConfig::default());
        let evil = serve.add_tenant("evil", TenantConfig::default());
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut at = 0;
        let mut submit = |serve: &mut Serve, t, spec| {
            at += GAP;
            serve.submit_at(at, t, spec).unwrap()
        };
        let mut goods = Vec::new();
        let mut evils = Vec::new();
        for round in 0..3 {
            goods.push(submit(&mut serve, good, write_req(&w, state, round + 1)));
            if let Some((spec, want)) = hostile.get(round as usize) {
                evils.push((*want, submit(&mut serve, evil, spec.clone())));
            }
            goods.push(submit(&mut serve, good, scale_req(&scale, inp.clone())));
        }
        serve.drain();
        for (want, r) in evils {
            match serve.outcome(r) {
                Some(Outcome::Faulted { error, .. }) if error.contains("bad launch") && error.contains(want) => {}
                o => panic!("wanted a bad launch naming {want:?}, got {o:?}"),
            }
        }
        let outputs: Vec<_> = goods
            .iter()
            .map(|r| match serve.outcome(*r) {
                Some(Outcome::Completed { outputs, .. }) => outputs.clone(),
                o => panic!("the neighbour's request did not complete: {o:?}"),
            })
            .collect();
        (outputs, serve.session_image(good).unwrap())
    };
    assert_eq!(run(&[]), run(&hostile));
}
