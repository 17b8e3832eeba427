//! `nzomp-proxies` — the five HPC proxy applications of the paper's
//! evaluation (§V-A), each in an OpenMP variant (lowered through
//! `nzomp-front` against either runtime) and a native CUDA-style variant.
//!
//! | proxy | paper's characterization | our kernel |
//! |---|---|---|
//! | [`xsbench`] | memory-bound macroscopic cross-section lookup (OpenMC) | binary search + gather/interpolate over nuclide grids |
//! | [`rsbench`] | compute-bound multipole alternative | pole-window evaluation with heavy f64/transcendental arithmetic |
//! | [`gridmini`] | lattice QCD (SU(3)) — GFlops metric | complex 3×3 matrix multiply per site |
//! | [`testsnap`] | SNAP force kernel (LAMMPS) — grind time | neighbor-loop bispectrum-style polynomial accumulation |
//! | [`minifmm`] | fast multipole method, irregular dual-tree | per-cell P2P interactions with variable lists and a non-inlined interaction routine |
//!
//! Workloads are synthetic (seeded `rand`) but preserve the operative
//! traits: arithmetic intensity, memory behavior, irregularity, and — for
//! the legacy runtime — whether the kernel needs variable globalization.

pub mod gridmini;
pub mod minifmm;
pub mod rsbench;
pub mod testsnap;
pub mod xsbench;

use nzomp::{BuildConfig, CompileError, CompileOutput};
use nzomp_front::RuntimeFlavor;
use nzomp_host::{RegionArg, SchedPolicy};
use nzomp_ir::Module;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::{Device, DeviceConfig, ExecError, KernelMetrics, RtVal};

/// Which kernel variant to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    Omp(RuntimeFlavor),
    Cuda,
}

/// Device-side data plus launch/verification info for one run.
pub struct Prepared {
    pub launch: Launch,
    pub args: Vec<RtVal>,
    /// Output buffer to compare against `expected`.
    pub out_ptr: DevPtr,
    pub expected: Vec<f64>,
    /// Relative tolerance for verification.
    pub tol: f64,
}

/// Declarative description of a proxy's target region — the map clauses
/// in kernel-parameter order plus the host reference. Both execution
/// paths (the direct `Device` one and the `nzomp-host` offload one)
/// derive from this, which is what makes them allocate device memory in
/// identical order and therefore produce bit-identical device images.
pub struct HostPrepared {
    pub launch: Launch,
    /// One entry per kernel parameter.
    pub args: Vec<RegionArg>,
    /// Index (into `args`) of the output buffer to verify.
    pub out_arg: usize,
    pub expected: Vec<f64>,
    /// Relative tolerance for verification.
    pub tol: f64,
}

/// A proxy application.
pub trait Proxy {
    fn name(&self) -> &'static str;

    fn kernel_name(&self) -> &'static str {
        "kernel"
    }

    /// Build the application module for one kernel variant.
    fn build(&self, kind: KernelKind) -> Module;

    /// Generate inputs, compute the host reference, and describe the
    /// target region's map clauses.
    fn host_prepare(&self) -> HostPrepared;

    /// Upload inputs directly to a device (the baseline path benches and
    /// differential tests compare the host runtime against). Derived
    /// from [`Proxy::host_prepare`] so both paths allocate identically.
    fn prepare(&self, dev: &mut Device) -> Prepared {
        direct_prepare(dev, self.host_prepare())
    }

    /// Whether the launch covers the iteration space so the
    /// oversubscription assumptions (§III-F) are valid. Proxies returning
    /// `false` show "n/a" in the `New RT` column, as in the paper's tables.
    fn supports_oversubscription(&self) -> bool {
        true
    }
}

/// Materialize a [`HostPrepared`] region directly on a device: allocate
/// every buffer in argument order (`map(to:)` data uploaded, outputs and
/// scratch zero-filled by construction) — exactly what the per-proxy
/// `prepare` implementations did before the host runtime existed.
pub fn direct_prepare(dev: &mut Device, hp: HostPrepared) -> Prepared {
    let mut args = Vec::with_capacity(hp.args.len());
    let mut out_ptr = DevPtr::NULL;
    for (i, arg) in hp.args.iter().enumerate() {
        let val = match arg {
            RegionArg::To(bytes) => {
                let p = dev.alloc(bytes.len() as u64);
                if dev.write_bytes(p, bytes).is_err() {
                    unreachable!("freshly allocated region is in bounds");
                }
                RtVal::P(p)
            }
            RegionArg::From(n) | RegionArg::Alloc(n) => RtVal::P(dev.alloc(*n)),
            RegionArg::Scalar(v) => *v,
        };
        if i == hp.out_arg {
            if let RtVal::P(p) = val {
                out_ptr = p;
            }
        }
        args.push(val);
    }
    Prepared {
        launch: hp.launch,
        args,
        out_ptr,
        expected: hp.expected,
        tol: hp.tol,
    }
}

/// Result of one configured run.
pub struct RunResult {
    pub metrics: KernelMetrics,
    pub remarks: nzomp::opt::Remarks,
}

/// Build the proxy's module for an evaluation configuration.
pub fn build_for_config(proxy: &dyn Proxy, cfg: BuildConfig) -> Module {
    match cfg.runtime() {
        Some(flavor) => proxy.build(KernelKind::Omp(flavor)),
        None => proxy.build(KernelKind::Cuda),
    }
}

/// Compile the proxy under `cfg` (release).
pub fn compile_for_config(
    proxy: &dyn Proxy,
    cfg: BuildConfig,
) -> Result<CompileOutput, CompileError> {
    nzomp::compile(build_for_config(proxy, cfg), cfg)
}

/// Compile + run + verify the proxy under `cfg`. Returns
/// `Err(NotApplicable)` for config/proxy combinations the paper marks
/// "n/a" (assumptions that do not hold for the kernel).
pub fn run_config(
    proxy: &dyn Proxy,
    cfg: BuildConfig,
    dev_cfg: &DeviceConfig,
) -> Result<RunResult, RunError> {
    if cfg == BuildConfig::NewRt && !proxy.supports_oversubscription() {
        return Err(RunError::NotApplicable);
    }
    let out = compile_for_config(proxy, cfg).map_err(RunError::Compile)?;
    let mut dev = Device::load(out.module, dev_cfg.clone());
    let prep = proxy.prepare(&mut dev);
    let metrics = dev
        .launch(proxy.kernel_name(), prep.launch, &prep.args)
        .map_err(RunError::Exec)?;
    verify_output(&dev, &prep).map_err(RunError::Verify)?;
    Ok(RunResult {
        metrics,
        remarks: out.remarks,
    })
}

/// How to shape a run through the `nzomp-host` offload runtime
/// (`run_proxy_host_outcome` in `tests/lib.rs` drives it): how many async
/// streams carry the transfers, how many devices the scheduler may place
/// on, the placement policy, and the drain seed. The defaults are
/// the minimal shape (1 stream, 1 device) — every other shape must be
/// observationally identical, which the differential suite checks.
#[derive(Clone, Copy, Debug)]
pub struct HostShape {
    pub streams: usize,
    pub devices: usize,
    pub policy: SchedPolicy,
    pub drain_seed: u64,
}

impl Default for HostShape {
    fn default() -> HostShape {
        HostShape {
            streams: 1,
            devices: 1,
            policy: SchedPolicy::RoundRobin,
            drain_seed: 0,
        }
    }
}

/// Compare an output vector with the host reference.
pub fn verify_values(got: &[f64], expected: &[f64], tol: f64) -> Result<(), String> {
    for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
        let denom = e.abs().max(1.0);
        if ((g - e).abs() / denom) > tol {
            return Err(format!("output[{i}]: got {g}, expected {e}"));
        }
    }
    Ok(())
}

/// Compare the device output buffer with the host reference.
pub fn verify_output(dev: &Device, prep: &Prepared) -> Result<(), String> {
    let got = dev
        .read_f64(prep.out_ptr, prep.expected.len())
        .map_err(|e| format!("host readback failed: {e}"))?;
    verify_values(&got, &prep.expected, prep.tol)
}

#[derive(Debug)]
pub enum RunError {
    /// Configuration not valid for this proxy (paper's "n/a" cells).
    NotApplicable,
    Compile(CompileError),
    Exec(ExecError),
    Verify(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NotApplicable => write!(f, "n/a"),
            RunError::Compile(e) => write!(f, "compile failed: {e}"),
            RunError::Exec(e) => write!(f, "device trap: {e}"),
            RunError::Verify(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A device sized for quick interpreter runs (tests); benches use
/// `DeviceConfig::default()`.
pub fn quick_device() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

/// All five proxies, boxed, in the paper's presentation order.
pub fn all_proxies() -> Vec<Box<dyn Proxy>> {
    vec![
        Box::new(xsbench::XSBench::small()),
        Box::new(rsbench::RSBench::small()),
        Box::new(testsnap::TestSnap::small()),
        Box::new(minifmm::MiniFmm::small()),
        Box::new(gridmini::GridMini::small()),
    ]
}
