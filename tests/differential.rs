//! Differential execution harness: the same computation run under
//! legacy-vs-modern runtime, SPMD-vs-generic lowering, debug-vs-release,
//! and direct-`Device`-vs-`nzomp-host` offload must produce
//! **bit-identical** outputs on clean runs; under injected faults every
//! outcome is a typed `ExecError` (never a process panic) and is exactly
//! reproducible per seed — on both execution paths. Every clean
//! comparison holds on each of [`AXES`].

use nzomp::pipeline::compile_with;
use nzomp::BuildConfig;
use nzomp_front::RuntimeFlavor;
use nzomp_integration::{
    assert_alike, assert_same, compiled, observe_launch, observe_proxy, run_proxy_host_outcome,
    run_proxy_outcome, AXES,
};
use nzomp_ir::{Operand, Ty};
use nzomp_proxies::{
    all_proxies, build_for_config, compile_for_config, quick_device, HostShape, Proxy,
};
use nzomp_rt::abi;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, FaultPlan, RtVal, RunConfig};

/// Launch the proxy under `cfg` and return the output buffer as raw bits
/// (NaN-safe comparison). `None` for the paper's "n/a" cells.
fn run_clean(p: &dyn Proxy, cfg: BuildConfig) -> Option<Vec<u64>> {
    if cfg == BuildConfig::NewRt && !p.supports_oversubscription() {
        return None;
    }
    let what = format!("{} {cfg:?}", p.name());
    let module = compiled(p, cfg);
    let outcome = assert_alike(&what, &AXES, |run| run_proxy_outcome(p, &module, run, None));
    outcome.result.unwrap();
    outcome.out_bits
}

/// Legacy-vs-modern runtime (and the native CUDA baseline): all five
/// proxies agree bitwise across every build configuration.
#[test]
fn clean_runs_bit_identical_across_runtimes() {
    use BuildConfig::*;
    for p in all_proxies() {
        let base = run_clean(p.as_ref(), OldRtNightly).unwrap();
        for cfg in [NewRtNightly, NewRtNoAssumptions, NewRt, Cuda] {
            if let Some(bits) = run_clean(p.as_ref(), cfg) {
                assert_eq!(bits, base, "{} output differs under {:?}", p.name(), cfg);
            }
        }
    }
}

/// Debug-vs-release: assertions + tracing + checked assumptions observe,
/// they never perturb results — on every proxy, on every run axis.
#[test]
fn clean_runs_bit_identical_debug_vs_release() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    for p in all_proxies() {
        let release = run_clean(p.as_ref(), cfg).unwrap();

        let rt_cfg = nzomp_rt::RtConfig {
            debug_kind: abi::DEBUG_ASSERTIONS | abi::DEBUG_FUNCTION_TRACING,
            ..cfg.rt_config()
        };
        let out =
            compile_with(build_for_config(p.as_ref(), cfg), cfg, rt_cfg, cfg.pass_options())
                .unwrap();
        let dev_cfg = DeviceConfig {
            check_assumes: true,
            ..DeviceConfig::default()
        };
        let debug = assert_alike(&format!("{} debug build", p.name()), &AXES, |run| {
            observe_proxy(p.as_ref(), Device::load_with(out.module.clone(), dev_cfg.clone(), run), None)
        });
        assert_eq!(debug.out_bits, Some(release), "{}: debug build perturbed results", p.name());
    }
}

/// SPMD-vs-generic lowering of the same `out[i] = 2*a[i] + i` loop agree
/// bitwise after the full pipeline, on every run axis.
#[test]
fn spmd_and_generic_lowerings_agree() {
    let n = 64usize;
    let input: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 7.0).collect();
    let body = |_m: &mut nzomp_ir::Module,
                b: &mut nzomp_ir::FuncBuilder,
                iv: Operand,
                p: &[Operand]| {
        let pa = b.gep(p[0], iv, 8);
        let x = b.load(Ty::F64, pa);
        let two_x = b.fadd(x, x);
        let i_f = b.si_to_fp(iv);
        let v = b.fadd(two_x, i_f);
        let po = b.gep(p[1], iv, 8);
        b.store(Ty::F64, po, v);
    };

    let run = |m: nzomp_ir::Module| -> Option<Vec<u64>> {
        let what = m.name.clone();
        let module = nzomp::compile(m, BuildConfig::NewRtNoAssumptions).unwrap().module;
        let o = assert_alike(&what, &AXES, |run| {
            let mut dev = Device::load_with(module.clone(), quick_device(), run);
            let pa = dev.alloc_f64(&input);
            let po = dev.alloc(8 * n as u64);
            let args = [RtVal::P(pa), RtVal::P(po), RtVal::I(n as i64)];
            observe_launch(&mut dev, "k", Launch::new(2, 8), &args, (po, n))
        });
        o.out_bits
    };

    let mut spmd = nzomp_ir::Module::new("diff_spmd");
    nzomp_front::spmd_kernel_for(
        &mut spmd,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        body,
    );

    let mut generic = nzomp_ir::Module::new("diff_generic");
    nzomp_front::generic_kernel(
        &mut generic,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |ctx, p| {
            let (a, out, n) = (p[0], p[1], p[2]);
            ctx.parallel_for(&[(a, Ty::Ptr), (out, Ty::Ptr)], n, |m, b, iv, caps| {
                body(m, b, iv, &[caps[0], caps[1]]);
            });
        },
    );

    let spmd = run(spmd);
    assert!(spmd.is_some(), "SPMD lowering trapped");
    assert_eq!(spmd, run(generic), "SPMD and generic lowerings disagree");
}

/// Faulted runs are deterministic: the same seed on the same proxy yields
/// the same outcome — same trap (kind, team, thread, func) or same output,
/// same memory image.
#[test]
fn faulted_runs_reproduce_per_seed() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let proxies = all_proxies();
    let modules: Vec<_> = proxies.iter().map(|p| compiled(p.as_ref(), cfg)).collect();
    let mut trapped = 0usize;
    for seed in 1..=10u64 {
        for (p, module) in proxies.iter().zip(&modules) {
            let what = format!("{} seed {seed} reproduced", p.name());
            let first = assert_alike(&what, &[RunConfig::default(); 2], |run| {
                run_proxy_outcome(p.as_ref(), module, run, Some(seed))
            });
            trapped += usize::from(first.result.is_err());
        }
    }
    // The seed derivation is biased toward early steps, so a healthy
    // fraction of the 50 campaigns must actually trap.
    assert!(trapped > 0, "no seed produced a trap — injection is inert");
}

/// The offload shapes the host runtime must prove observationally
/// equivalent: a single stream, four streams under a non-trivial drain
/// seed, and a two-device fleet.
fn host_shapes() -> [HostShape; 3] {
    [
        HostShape::default(),
        HostShape {
            streams: 4,
            drain_seed: 0xdead_beef,
            ..HostShape::default()
        },
        HostShape {
            devices: 2,
            ..HostShape::default()
        },
    ]
}

/// Every proxy routed through the `nzomp-host` runtime — present table,
/// async streams, scheduler — observes *exactly* what the direct
/// `Device` path observes: same metrics, same output bits, same global
/// memory image, byte for byte, under every offload shape and run axis.
#[test]
fn host_runtime_bit_identical_to_direct_device_path() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    for p in all_proxies() {
        let module = compiled(p.as_ref(), cfg);
        let direct = assert_alike(p.name(), &AXES, |run| {
            let direct = run_proxy_outcome(p.as_ref(), &module, run, None);
            for shape in host_shapes() {
                let host = run_proxy_host_outcome(p.as_ref(), cfg, run, None, &shape);
                let what = format!("{} through the host under {shape:?} @{run:?}", p.name());
                assert_same(&what, &direct, &host);
            }
            direct
        });
        assert!(direct.result.is_ok(), "{}: direct run trapped", p.name());
    }
}

/// Fault campaigns through the host runtime: with the same seeded plan
/// armed, the offload path reaches the exact same outcome as the direct
/// path — the same typed trap (kind, team, thread, func) with the same
/// partially-mutated global image, or the same clean bits — on every run
/// axis. 5 proxies x 6 seeds = 30 campaigns, and a healthy fraction must
/// actually trap.
#[test]
fn host_runtime_fault_campaigns_match_direct_path() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let proxies = all_proxies();
    let modules: Vec<_> = proxies.iter().map(|p| compiled(p.as_ref(), cfg)).collect();
    let shape = HostShape::default();
    let mut campaigns = 0usize;
    let mut trapped = 0usize;
    for seed in 1..=6u64 {
        for (p, module) in proxies.iter().zip(&modules) {
            let what = format!("{} seed {seed}", p.name());
            let direct = assert_alike(&what, &AXES, |run| {
                let direct = run_proxy_outcome(p.as_ref(), module, run, Some(seed));
                let host = run_proxy_host_outcome(p.as_ref(), cfg, run, Some(seed), &shape);
                assert_same(&format!("{what}: host path under faults @{run:?}"), &direct, &host);
                direct
            });
            campaigns += 1;
            trapped += usize::from(direct.result.is_err());
        }
    }
    assert!(campaigns >= 25, "only {campaigns} fault campaigns ran");
    assert!(trapped > 0, "no campaign trapped — injection is inert");
}

/// An armed-then-cleared fault plan leaves no residue: the device returns
/// to clean, correct execution.
#[test]
fn clearing_fault_plan_restores_clean_execution() {
    let p = &all_proxies()[0];
    let cfg = BuildConfig::NewRtNoAssumptions;
    let out = compile_for_config(p.as_ref(), cfg).unwrap();
    let mut dev = Device::load(out.module, quick_device());
    let prep = p.prepare(&mut dev);

    dev.set_fault_plan(FaultPlan::from_seed(3, prep.launch.teams, prep.launch.threads_per_team));
    let _ = dev.launch(p.kernel_name(), prep.launch, &prep.args);

    dev.clear_fault_plan();
    dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
    nzomp_proxies::verify_output(&dev, &prep).unwrap();
}
