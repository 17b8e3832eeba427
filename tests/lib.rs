//! Integration-test crate: all tests live in `tests/*.rs`.
//!
//! This lib is the one differential harness. A launch is observed in one
//! shape, [`ProxyOutcome`], taken on a device ([`observe_launch`]) or
//! through the host runtime ([`observe_region`]); [`alike`] runs a
//! scenario under a list of [`RunConfig`]s and names the first field in
//! which a run differs from the first one.
//!
//! Nothing reads the environment. A suite that claims the run axes crosses
//! [`AXES`] through the comparator, and everything else runs
//! `RunConfig::default()`. The tier is not in [`AXES`]: a suite that
//! compares against the interpreter crosses [`TIERS`] too.

pub mod corpus;
pub mod gen;

use gen::LaunchMeta;
use nzomp::BuildConfig;
use nzomp_host::{
    Host, HostError, RecoveryMetrics, RecoveryPolicy, Region, SchedPolicy, StreamId,
};
use nzomp_ir::Module;
use nzomp_proxies::{build_for_config, compile_for_config, quick_device, Proxy};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    DevPtr, Device, ExecError, ExecTier, FaultPlan, KernelMetrics, RtVal, RunConfig, Sanitize,
};

const fn axis(workers: usize, sanitize: Sanitize) -> RunConfig {
    RunConfig { workers, tier: ExecTier::Bytecode, sanitize }
}

/// The run axes: workers {1, 8} × sanitizer {Off, Report}, on bytecode.
/// The first — one worker, unsanitized — is the reference.
pub const AXES: [RunConfig; 4] = [
    axis(1, Sanitize::Off),
    axis(8, Sanitize::Off),
    axis(1, Sanitize::Report),
    axis(8, Sanitize::Report),
];

/// The oracle first, then the engine.
pub const TIERS: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Bytecode];

/// [`AXES`] on each of [`TIERS`].
pub fn tier_axes() -> Vec<RunConfig> {
    TIERS.iter().flat_map(|&tier| AXES.map(|run| RunConfig { tier, ..run })).collect()
}

/// Everything observable about one launch. `PartialEq` makes
/// "bit-identical" a one-line assertion: metrics compare field by field
/// (cycles, waves, counters), traps compare as typed errors, and the
/// global-memory image compares byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct ProxyOutcome {
    /// Kernel metrics on success, the typed trap otherwise.
    pub result: Result<KernelMetrics, ExecError>,
    /// Output region as raw f64 bits (NaN-safe), when the launch succeeded.
    pub out_bits: Option<Vec<u64>>,
    /// The entire device global-memory image after the launch — inputs,
    /// outputs, runtime state, heap; nothing can hide a divergence here.
    pub global: Vec<u8>,
    /// Sanitizer verdict `(races, divergences)` — `(0, 0)` when the run
    /// was unsanitized.
    pub san_counts: (u64, u64),
    /// Rendered sanitizer reports.
    pub san_reports: Vec<String>,
}

fn observed(
    result: Result<KernelMetrics, ExecError>,
    out_bits: Option<Vec<u64>>,
    dev: &Device,
) -> ProxyOutcome {
    ProxyOutcome {
        result,
        out_bits,
        global: dev.global_bytes().to_vec(),
        san_counts: dev.sanitizer_counts(),
        san_reports: dev.sanitizer_reports().iter().map(|r| r.to_string()).collect(),
    }
}

/// Launch `kernel` on `dev` and observe it; `out` is `(address, words)` of
/// the output region, read back when the launch succeeds.
pub fn observe_launch(
    dev: &mut Device,
    kernel: &str,
    launch: Launch,
    args: &[RtVal],
    out: (DevPtr, usize),
) -> ProxyOutcome {
    let result = dev.launch(kernel, launch, args);
    let out_bits = result.is_ok().then(|| {
        let words = dev.read_f64(out.0, out.1).expect("output region out of bounds");
        words.iter().map(|v| v.to_bits()).collect()
    });
    observed(result, out_bits, dev)
}

/// The same observation of a region the host has drained: its launch
/// ticket, argument `out_arg`'s buffer, and the device it landed on.
pub fn observe_region(host: &Host, region: &Region, out_arg: usize) -> ProxyOutcome {
    let result = host
        .ticket_result(region.ticket)
        .unwrap()
        .expect("launch op never executed")
        .clone();
    let out_bits = result.is_ok().then(|| {
        let buf = region.bufs.get(out_arg).copied().flatten();
        host.buf_bits(buf.expect("output argument is not a buffer")).unwrap()
    });
    observed(result, out_bits, host.device(region.device).expect("region device is loaded"))
}

/// Prepare `p`'s buffers on `dev`, optionally arm the seeded fault plan,
/// launch once and observe.
pub fn observe_proxy(p: &dyn Proxy, mut dev: Device, fault_seed: Option<u64>) -> ProxyOutcome {
    let prep = p.prepare(&mut dev);
    if let Some(seed) = fault_seed {
        let plan = FaultPlan::from_seed(seed, prep.launch.teams, prep.launch.threads_per_team);
        dev.set_fault_plan(plan);
    }
    let out = (prep.out_ptr, prep.expected.len());
    observe_launch(&mut dev, p.kernel_name(), prep.launch, &prep.args, out)
}

/// A generated kernel `@k` (one pointer to a fresh buffer) launched as
/// `meta` says, and observed.
pub fn observe_generated(mut dev: Device, meta: LaunchMeta) -> ProxyOutcome {
    let buf = dev.alloc(meta.buf_bytes);
    let out = (DevPtr(buf.0 + meta.out_off), meta.out_slots);
    observe_launch(&mut dev, "k", Launch::new(meta.teams, meta.threads), &[RtVal::P(buf)], out)
}

/// [`observe_proxy`] of `p`'s compiled `module` on a quick device running
/// `run`.
pub fn run_proxy_outcome(
    p: &dyn Proxy,
    module: &Module,
    run: RunConfig,
    fault_seed: Option<u64>,
) -> ProxyOutcome {
    observe_proxy(p, Device::load_with(module.clone(), quick_device(), run), fault_seed)
}

/// `p` compiled under `cfg` (panics on compile errors: test context).
pub fn compiled(p: &dyn Proxy, cfg: BuildConfig) -> Module {
    compile_for_config(p, cfg).unwrap().module
}

/// How to shape a run through the `nzomp-host` offload runtime
/// ([`run_proxy_host_outcome`]): how many stream ids the region is handed
/// and how many devices the scheduler may place on. The default is the
/// minimal shape (1 stream id, 1 device); every other shape must be
/// observationally identical, which the differential suite checks.
#[derive(Clone, Copy, Debug)]
pub struct HostShape {
    pub streams: usize,
    pub devices: usize,
}

impl Default for HostShape {
    fn default() -> HostShape {
        HostShape { streams: 1, devices: 1 }
    }
}

/// The same run through the `nzomp-host` offload runtime: map the region
/// through the present table, hand it `shape.streams` stream ids, let the
/// scheduler place it across `shape.devices` vGPUs, and observe it. On a
/// clean run this must equal [`run_proxy_outcome`] bit for bit — the host
/// runtime's differential contract.
pub fn run_proxy_host_outcome(
    p: &dyn Proxy,
    cfg: BuildConfig,
    run: RunConfig,
    fault_seed: Option<u64>,
    shape: &HostShape,
) -> ProxyOutcome {
    let mut host = Host::with_run(quick_device(), shape.devices, run);
    let img = host.load_image(build_for_config(p, cfg), cfg).unwrap();
    let hp = p.host_prepare();
    if let Some(seed) = fault_seed {
        let plan = FaultPlan::from_seed(seed, hp.launch.teams, hp.launch.threads_per_team);
        for dev in 0..shape.devices.max(1) {
            host.set_device_faults(dev, plan.clone()).unwrap();
        }
    }
    let streams: Vec<StreamId> = (0..shape.streams.max(1)).map(|_| host.stream()).collect();
    let region = host
        .enqueue_region(&streams, img, p.kernel_name(), hp.launch, hp.args)
        .unwrap();
    if let Err(e) = host.sync() {
        // A trap aborts the drain with `HostError::Exec` and parks the same
        // typed error in the launch ticket; anything else is a harness bug.
        assert!(matches!(e, HostError::Exec(_)), "host sync failed: {e}");
    }
    observe_region(&host, &region, hp.out_arg)
}

/// Mix a device index into a campaign seed so every fleet member runs a
/// distinct (but reproducible) fault schedule.
fn device_seed(seed: u64, dev: usize) -> u64 {
    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(dev as u64 + 1))
}

/// `p`'s region through a host of `devices` vGPUs running `run`, with
/// recovery armed and a seeded device-fault campaign on every fleet
/// member. The sync *must* succeed — recovery's whole claim. Returns the
/// observation and what recovery did.
pub fn run_recovered(
    p: &dyn Proxy,
    devices: usize,
    policy: SchedPolicy,
    seed: u64,
    run: RunConfig,
) -> (ProxyOutcome, RecoveryMetrics) {
    let cfg = BuildConfig::NewRtNoAssumptions;
    let mut host = Host::with_run(quick_device(), devices, run);
    host.set_policy(policy);
    // Generous failover budget: a campaign may kill a replacement's
    // predecessor several times over (sites re-fire per plan, devices
    // don't — replacements are healthy).
    host.set_recovery(Some(RecoveryPolicy {
        max_failovers: 16,
        ..RecoveryPolicy::default()
    }));
    let img = host.load_image(build_for_config(p, cfg), cfg).unwrap();
    let hp = p.host_prepare();
    for dev in 0..devices {
        host.bind_image(dev, img).unwrap();
        host.set_device_faults(dev, FaultPlan::device_campaign(device_seed(seed, dev)))
            .unwrap();
    }
    let streams: Vec<StreamId> = vec![host.stream()];
    let region = host
        .enqueue_region(&streams, img, p.kernel_name(), hp.launch, hp.args)
        .unwrap();
    host.sync().unwrap_or_else(|e| {
        panic!(
            "recovery failed to absorb the campaign ({} devices={devices} \
             policy={policy:?} seed={seed} {run:?}): {e}",
            p.name()
        )
    });
    (observe_region(&host, &region, hp.out_arg), host.recovery_metrics().clone())
}

/// Run `scenario` under each of `runs` and hold every outcome to the
/// first one's; `Err` names `what`, the two configurations and the first
/// field that differs. Across the sanitize axis the sanitizer's own
/// verdict — its counts and reports, and the two `KernelMetrics` fields
/// that repeat them — is left out, and held instead to the first run of
/// the same mode. Returns the first run's outcome.
pub fn alike(
    what: &str,
    runs: &[RunConfig],
    mut scenario: impl FnMut(RunConfig) -> ProxyOutcome,
) -> Result<ProxyOutcome, String> {
    // The first run of each sanitize mode; `refs[0]` is the reference.
    let mut refs: Vec<(RunConfig, ProxyOutcome)> = Vec::new();
    for &run in runs {
        let got = scenario(run);
        let check = |(r, base): &(RunConfig, ProxyOutcome)| {
            let field = first_difference(base, &got, r.sanitize == run.sanitize);
            field.map_or(Ok(()), |f| Err(format!("{what}: {run:?} differs from {r:?} in {f}")))
        };
        refs.first().map_or(Ok(()), check)?;
        match refs.iter().find(|(r, _)| r.sanitize == run.sanitize) {
            Some(same) => check(same)?,
            None => refs.push((run, got)),
        }
    }
    Ok(refs.swap_remove(0).1)
}

/// [`alike`], panicking with its message.
pub fn assert_alike(
    what: &str,
    runs: &[RunConfig],
    scenario: impl FnMut(RunConfig) -> ProxyOutcome,
) -> ProxyOutcome {
    alike(what, runs, scenario).unwrap_or_else(|e| panic!("{e}"))
}

/// Hold `got` to `base` in every field, naming the first that differs.
pub fn assert_same(what: &str, base: &ProxyOutcome, got: &ProxyOutcome) {
    if let Some(field) = first_difference(base, got, true) {
        panic!("{what}: differs in {field}");
    }
}

/// The first field in which `got` differs from `base`; the sanitizer's
/// verdict counts only if `verdict`.
fn first_difference(base: &ProxyOutcome, got: &ProxyOutcome, verdict: bool) -> Option<String> {
    let result = |o: &ProxyOutcome| match &o.result {
        Ok(m) if !verdict => Ok(KernelMetrics { sanitizer_races: 0, sanitizer_divergences: 0, ..m.clone() }),
        r => r.clone(),
    };
    let (a, b) = (result(base), result(got));
    if a != b {
        return Some(match (&a, &b) {
            (Ok(x), Ok(y)) => {
                let (x, y) = (format!("{x:#?}"), format!("{y:#?}"));
                let (l, r) = x.lines().zip(y.lines()).find(|(l, r)| l != r).unwrap_or_default();
                format!("metrics: `{}` vs `{}`", l.trim(), r.trim())
            }
            _ => format!("result: {a:?} vs {b:?}"),
        });
    }
    fn at<T: PartialEq>(a: &[T], b: &[T]) -> String {
        match a.iter().zip(b).position(|(x, y)| x != y) {
            Some(i) => format!("at [{i}]"),
            None => format!("in length ({} vs {})", a.len(), b.len()),
        }
    }
    let bits = |o: &ProxyOutcome| o.out_bits.clone().unwrap_or_default();
    if base.out_bits != got.out_bits {
        return Some(format!("out_bits {}", at(&bits(base), &bits(got))));
    }
    if base.global != got.global {
        return Some(format!("global {}", at(&base.global, &got.global)));
    }
    if verdict && base.san_counts != got.san_counts {
        return Some(format!("san_counts: {:?} vs {:?}", base.san_counts, got.san_counts));
    }
    if verdict && base.san_reports != got.san_reports {
        return Some(format!("san_reports {}", at(&base.san_reports, &got.san_reports)));
    }
    None
}
