//! Integration-test crate: all tests live in `tests/*.rs`.
//!
//! This lib holds the shared differential-execution harness: one way to
//! compile a proxy, run it on a device under a chosen [`RunConfig`]
//! (and optionally an armed fault plan), and capture *everything*
//! observable about the launch — so the differential tests (PR 1) and the
//! parallel-determinism tests compare outcomes through the same lens.
//!
//! Every suite starts from `RunConfig::from_env()` ([`env_run`]) and
//! overrides only the axes its matrix crosses, so each CI environment
//! pass (workers × sanitizer) multiplies every matrix by the axes it
//! leaves alone. The tier is not an environment axis: a suite that
//! compares against the interpreter names `ExecTier::Interp` itself.

pub mod corpus;
pub mod gen;

use nzomp::BuildConfig;
use nzomp_host::{Host, HostError, StreamId};
use nzomp_proxies::{build_for_config, compile_for_config, quick_device, HostShape, Proxy};
use nzomp_vgpu::{Device, ExecError, FaultPlan, KernelMetrics, RunConfig};

/// The environment's run configuration at `workers` host threads — where
/// every matrix that crosses or pins the worker axis starts from.
pub fn env_run(workers: usize) -> RunConfig {
    RunConfig { workers, ..RunConfig::from_env() }
}

/// Everything observable about one proxy launch. `PartialEq` makes
/// "bit-identical" a one-line assertion: metrics compare field by field
/// (cycles, waves, counters), traps compare as typed errors, and the
/// global-memory image compares byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct ProxyOutcome {
    /// Kernel metrics on success, the typed trap otherwise.
    pub result: Result<KernelMetrics, ExecError>,
    /// Output buffer as raw f64 bits (NaN-safe), when the launch succeeded.
    pub out_bits: Option<Vec<u64>>,
    /// The entire device global-memory image after the launch — inputs,
    /// outputs, runtime state, heap; nothing can hide a divergence here.
    pub global: Vec<u8>,
    /// Sanitizer verdict `(races, divergences)` — `(0, 0)` when the run
    /// pinned `Sanitize::Off`, so the field compares as equal between two
    /// unsanitized runs; outcomes that differ in the sanitize axis compare
    /// field by field, leaving this one and `san_reports` out.
    pub san_counts: (u64, u64),
    /// Rendered sanitizer reports; the determinism matrix requires the
    /// exact same text at every worker count.
    pub san_reports: Vec<String>,
}

/// Compile `p` under `cfg`, load it onto a quick device running under
/// `run` (all three axes pinned by the caller), optionally arm the seeded
/// fault plan, launch once, and capture the outcome. Panics on compile
/// errors (test context).
pub fn run_proxy_outcome(
    p: &dyn Proxy,
    cfg: BuildConfig,
    run: RunConfig,
    fault_seed: Option<u64>,
) -> ProxyOutcome {
    let out = compile_for_config(p, cfg).unwrap();
    observe_proxy(p, Device::load_with(out.module, quick_device(), run), fault_seed)
}

/// [`run_proxy_outcome`] on a device the caller built — however it was
/// built, from whatever image: prepare `p`'s buffers on it, optionally arm
/// the seeded fault plan, launch once, capture the outcome.
pub fn observe_proxy(p: &dyn Proxy, mut dev: Device, fault_seed: Option<u64>) -> ProxyOutcome {
    let prep = p.prepare(&mut dev);
    if let Some(seed) = fault_seed {
        dev.set_fault_plan(FaultPlan::from_seed(
            seed,
            prep.launch.teams,
            prep.launch.threads_per_team,
        ));
    }
    let result = dev.launch(p.kernel_name(), prep.launch, &prep.args);
    let out_bits = result.as_ref().ok().map(|_| {
        dev.read_f64(prep.out_ptr, prep.expected.len())
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    });
    ProxyOutcome {
        result,
        out_bits,
        global: dev.global_bytes().to_vec(),
        san_counts: dev.sanitizer_counts(),
        san_reports: dev
            .sanitizer_reports()
            .iter()
            .map(|r| r.to_string())
            .collect(),
    }
}

/// The same observation, taken through the `nzomp-host` offload runtime
/// instead of driving the [`Device`] directly: map the region through the
/// present table, carry transfers and the launch on `shape.streams` async
/// streams, let the scheduler place it across `shape.devices` vGPUs, and
/// capture the outcome *of the device the region landed on*. On a clean
/// run this must equal [`run_proxy_outcome`]'s observation bit for bit —
/// that equivalence is the host runtime's differential contract.
pub fn run_proxy_host_outcome(
    p: &dyn Proxy,
    cfg: BuildConfig,
    run: RunConfig,
    fault_seed: Option<u64>,
    shape: &HostShape,
) -> ProxyOutcome {
    let mut host = Host::with_run(quick_device(), shape.devices, run);
    host.set_policy(shape.policy);
    host.set_drain_seed(shape.drain_seed);
    let img = host.load_image(build_for_config(p, cfg), cfg).unwrap();
    let hp = p.host_prepare();
    let out_arg = hp.out_arg;
    if let Some(seed) = fault_seed {
        host.set_fault_plan(FaultPlan::from_seed(
            seed,
            hp.launch.teams,
            hp.launch.threads_per_team,
        ));
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
    let result = host
        .ticket_result(region.ticket)
        .unwrap()
        .expect("launch op never executed")
        .clone();
    let out_bits = if result.is_ok() {
        let buf = region
            .bufs
            .get(out_arg)
            .copied()
            .flatten()
            .expect("output argument is not a buffer");
        Some(host.buf_bits(buf).unwrap())
    } else {
        None
    };
    let dev = host.device(region.device).expect("region device is loaded");
    ProxyOutcome {
        result,
        out_bits,
        global: dev.global_bytes().to_vec(),
        san_counts: dev.sanitizer_counts(),
        san_reports: dev
            .sanitizer_reports()
            .iter()
            .map(|r| r.to_string())
            .collect(),
    }
}
