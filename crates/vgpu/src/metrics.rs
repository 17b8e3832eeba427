//! Kernel execution metrics — the columns of the paper's Fig. 11 plus
//! counters used by tests and the ablation analysis.

use std::sync::Arc;

/// Metrics of one kernel launch.
///
/// `PartialEq` is part of the parallel-execution contract: the
/// determinism tests assert metrics from an N-worker launch compare equal
/// to the sequential baseline, field for field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelMetrics {
    /// The kernel's name, shared with the loaded image (a clone copies no
    /// bytes).
    pub kernel_name: Arc<str>,
    pub teams: u32,
    pub threads_per_team: u32,

    /// Register estimate per thread (max-live SSA values + ABI base).
    pub regs_per_thread: u32,
    /// Static shared memory per team in bytes (retained shared globals).
    pub smem_bytes: u64,
    /// Dynamic shared memory requested at launch.
    pub dyn_smem_bytes: u64,

    /// Resident teams per SM under the occupancy model.
    pub teams_per_sm: u32,
    /// Number of waves the grid was executed in.
    pub waves: u32,
    /// Total simulated kernel cycles (sum over waves of the slowest team).
    pub cycles: u64,
    /// `cycles` converted through the device clock.
    pub time_ms: f64,

    /// Dynamic instruction count over all threads.
    pub instructions: u64,
    /// Backend dispatch steps over all threads (one per fuel unit). Equal
    /// across execution tiers by contract: one bytecode op per interpreter
    /// step.
    pub dispatched: u64,
    /// Barriers executed (per-thread arrivals are counted once per release).
    pub barriers: u64,
    /// Loads+stores by space.
    pub global_accesses: u64,
    pub shared_accesses: u64,
    pub local_accesses: u64,
    /// Device-side malloc calls.
    pub device_mallocs: u64,
    /// Calls into runtime entry points (`__kmpc_*` / `omp_*`).
    pub runtime_calls: u64,
    /// Floating point operations executed (for GFlops reporting, Fig. 12).
    pub flops: u64,

    /// Data races found by the sanitizer (0 when sanitizing is off; the
    /// sanitizer never changes any other field).
    pub sanitizer_races: u64,
    /// Divergent aligned-barrier releases found by the sanitizer.
    pub sanitizer_divergences: u64,
}

impl KernelMetrics {
    /// GFlops/s under the simulated clock — the Fig. 12 metric.
    pub fn gflops(&self) -> f64 {
        if self.time_ms <= 0.0 {
            return 0.0;
        }
        (self.flops as f64) / (self.time_ms * 1e-3) / 1e9
    }
}
