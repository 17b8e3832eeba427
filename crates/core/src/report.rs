//! Reporting helpers: the Fig. 11-style per-config rows and relative
//! performance calculations used by the figure harness and examples.

use nzomp_vgpu::KernelMetrics;

use crate::config::BuildConfig;

/// One row of a Fig. 11-style table.
#[derive(Clone, Debug)]
pub struct ConfigRow {
    pub config: BuildConfig,
    pub metrics: KernelMetrics,
}

impl ConfigRow {
    /// `Build | Kernel Time | #Regs | SMem` (the paper's Fig. 11 columns).
    pub fn fig11_row(&self) -> String {
        format!(
            "{:<26} | {:>12} | {:>5} | {:>8}",
            self.config.label(),
            format_time(self.metrics.time_ms),
            self.metrics.regs_per_thread,
            format_bytes(self.metrics.smem_bytes + self.metrics.dyn_smem_bytes),
        )
    }
}

/// Header matching [`ConfigRow::fig11_row`].
pub fn fig11_header() -> String {
    format!(
        "{:<26} | {:>12} | {:>5} | {:>8}",
        "Build", "Kernel Time", "#Regs", "SMem"
    )
}

/// Speedup of each row relative to `baseline` (higher is better) — the
/// Fig. 10/12 bar heights.
///
/// `None` when the ratio is undefined: the baseline row is absent, its
/// time is zero (a degenerate run), or the row's own time is zero. NaN
/// never leaks into reports — renderers print "n/a" instead.
pub fn relative_performance(
    rows: &[ConfigRow],
    baseline: BuildConfig,
) -> Vec<(BuildConfig, Option<f64>)> {
    let base = rows
        .iter()
        .find(|r| r.config == baseline)
        .map(|r| r.metrics.time_ms)
        .filter(|t| *t > 0.0);
    rows.iter()
        .map(|r| {
            let speedup = match base {
                Some(b) if r.metrics.time_ms > 0.0 => Some(b / r.metrics.time_ms),
                _ => None,
            };
            (r.config, speedup)
        })
        .collect()
}

pub fn format_time(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.3} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.3} ms")
    } else {
        format!("{:.1} us", ms * 1000.0)
    }
}

pub fn format_bytes(b: u64) -> String {
    format!("{b} B")
}

/// Simple ASCII bar for the Fig. 10/12 style charts in the harness output.
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value * scale).round() as usize).min(80);
    "#".repeat(n.max(1))
}
