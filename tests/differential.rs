//! Differential execution harness: the same computation run under
//! legacy-vs-modern runtime, SPMD-vs-generic lowering, debug-vs-release,
//! and direct-`Device`-vs-`nzomp-host` offload must produce
//! **bit-identical** outputs on clean runs; under injected faults every
//! outcome is a typed [`ExecError`] (never a process panic) and is exactly
//! reproducible per seed — on both execution paths.

use nzomp::pipeline::compile_with;
use nzomp::BuildConfig;
use nzomp_front::RuntimeFlavor;
use nzomp_integration::{env_run, run_proxy_host_outcome, run_proxy_outcome};
use nzomp_ir::{Operand, Ty};
use nzomp_proxies::{
    all_proxies, build_for_config, compile_for_config, quick_device, HostShape, Proxy,
};
use nzomp_rt::abi;
use nzomp_vgpu::{Device, DeviceConfig, ExecError, FaultPlan, RunConfig};

/// This suite crosses build configurations and execution paths, not run
/// axes: one worker, tier and sanitizer as the environment asks.
fn sequential() -> RunConfig {
    env_run(1)
}

/// Launch the proxy under `cfg` and return the output buffer as raw bits
/// (NaN-safe comparison). `None` for the paper's "n/a" cells.
fn run_clean(p: &dyn Proxy, cfg: BuildConfig) -> Option<Vec<u64>> {
    if cfg == BuildConfig::NewRt && !p.supports_oversubscription() {
        return None;
    }
    let outcome = run_proxy_outcome(p, cfg, sequential(), None);
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
/// they never perturb results — on every proxy.
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
        let mut dev = Device::load(out.module, dev_cfg);
        let prep = p.prepare(&mut dev);
        dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
        let debug: Vec<u64> = dev
            .read_f64(prep.out_ptr, prep.expected.len())
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(debug, release, "{}: debug build perturbed results", p.name());
    }
}

/// SPMD-vs-generic lowering of the same `out[i] = 2*a[i] + i` loop agree
/// bitwise after the full pipeline.
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

    let run = |m: nzomp_ir::Module| -> Vec<u64> {
        let out = nzomp::compile(m, BuildConfig::NewRtNoAssumptions).unwrap();
        let mut dev = Device::load(out.module, quick_device());
        let pa = dev.alloc_f64(&input);
        let po = dev.alloc(8 * n as u64);
        use nzomp_vgpu::RtVal;
        dev.launch(
            "k",
            nzomp_vgpu::device::Launch::new(2, 8),
            &[RtVal::P(pa), RtVal::P(po), RtVal::I(n as i64)],
        )
        .unwrap();
        dev.read_f64(po, n)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
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

    assert_eq!(run(spmd), run(generic), "SPMD and generic lowerings disagree");
}

/// One faulted run, returning either the output bits or the typed error.
fn run_faulted(p: &dyn Proxy, seed: u64) -> Result<Vec<u64>, ExecError> {
    let outcome = run_proxy_outcome(p, BuildConfig::NewRtNoAssumptions, sequential(), Some(seed));
    outcome.result?;
    Ok(outcome.out_bits.unwrap_or_default())
}

/// Faulted runs are deterministic: the same seed on the same proxy yields
/// the same outcome — same trap (kind, team, thread, func) or same output.
#[test]
fn faulted_runs_reproduce_per_seed() {
    let proxies = all_proxies();
    let mut trapped = 0usize;
    for seed in 1..=10u64 {
        for p in &proxies {
            let first = run_faulted(p.as_ref(), seed);
            let second = run_faulted(p.as_ref(), seed);
            assert_eq!(
                first,
                second,
                "{} seed {} not reproducible",
                p.name(),
                seed
            );
            if first.is_err() {
                trapped += 1;
            }
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
/// memory image, byte for byte, under every offload shape.
#[test]
fn host_runtime_bit_identical_to_direct_device_path() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    for p in all_proxies() {
        let direct = run_proxy_outcome(p.as_ref(), cfg, sequential(), None);
        assert!(direct.result.is_ok(), "{}: direct run trapped", p.name());
        for shape in host_shapes() {
            let host = run_proxy_host_outcome(p.as_ref(), cfg, sequential(), None, &shape);
            assert_eq!(
                host,
                direct,
                "{} diverges through the host runtime under {:?}",
                p.name(),
                shape
            );
        }
    }
}

/// Fault campaigns through the host runtime: with the same seeded plan
/// armed, the offload path reaches the exact same outcome as the direct
/// path — the same typed trap (kind, team, thread, func) with the same
/// partially-mutated global image, or the same clean bits. 5 proxies x 6
/// seeds = 30 campaigns, and a healthy fraction must actually trap.
#[test]
fn host_runtime_fault_campaigns_match_direct_path() {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let proxies = all_proxies();
    let shape = HostShape::default();
    let mut campaigns = 0usize;
    let mut trapped = 0usize;
    for seed in 1..=6u64 {
        for p in &proxies {
            let direct = run_proxy_outcome(p.as_ref(), cfg, sequential(), Some(seed));
            let host = run_proxy_host_outcome(p.as_ref(), cfg, sequential(), Some(seed), &shape);
            assert_eq!(
                host,
                direct,
                "{} seed {}: host path diverges from direct path under faults",
                p.name(),
                seed
            );
            campaigns += 1;
            if host.result.is_err() {
                trapped += 1;
            }
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
