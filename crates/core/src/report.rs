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

/// One proxy's sanitizer-overhead measurement: verdict counts plus the
/// wall time of a plain and a sanitized launch of the same binary.
#[derive(Clone, Debug, PartialEq)]
pub struct SanitizerRow {
    pub name: String,
    pub races: u64,
    pub divergences: u64,
    pub plain_ns: u128,
    pub sanitized_ns: u128,
}

impl SanitizerRow {
    /// `clean` iff the sanitized launch reported nothing.
    pub fn is_clean(&self) -> bool {
        self.races == 0 && self.divergences == 0
    }

    /// Wall-time cost of shadow tracking (sanitized / plain), or `None`
    /// when the plain run time is degenerate — same NaN-free policy as
    /// [`relative_performance`].
    pub fn overhead(&self) -> Option<f64> {
        (self.plain_ns > 0).then(|| self.sanitized_ns as f64 / self.plain_ns as f64)
    }
}

/// Render a sanitizer sweep as an aligned ASCII table: one row per proxy
/// with its verdict, both wall times, and the tracking overhead.
pub fn sanitizer_table(rows: &[SanitizerRow]) -> String {
    let mut s = format!(
        "{:<10} | {:>8} | {:>12} | {:>12} | {:>8}\n",
        "proxy", "verdict", "plain", "sanitized", "overhead"
    );
    for row in rows {
        let verdict = if row.is_clean() {
            "clean".to_string()
        } else {
            format!("{}r/{}d", row.races, row.divergences)
        };
        let plain = format_time(row.plain_ns as f64 / 1e6);
        let sanitized = format_time(row.sanitized_ns as f64 / 1e6);
        match row.overhead() {
            Some(v) => s.push_str(&format!(
                "{:<10} | {:>8} | {:>12} | {:>12} | {:>7.2}x\n",
                row.name, verdict, plain, sanitized, v
            )),
            None => s.push_str(&format!(
                "{:<10} | {:>8} | {:>12} | {:>12} | {:>8}\n",
                row.name, verdict, plain, sanitized, "n/a"
            )),
        }
    }
    s
}

/// One tenant's record of a multi-tenant serving run: per-outcome counts,
/// latency percentiles in modeled cycles, and the peak device-memory
/// footprint the tenant's quota saw.
///
/// Plain data on purpose: the core crate cannot depend on the serving
/// layer, so `nzomp-serve` fills these fields from its own metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeRow {
    pub tenant: String,
    pub submitted: u64,
    pub completed: u64,
    pub faulted: u64,
    pub rejected_quota: u64,
    pub rejected_backlog: u64,
    pub rejected_saturated: u64,
    /// Median completed-request latency in modeled cycles.
    pub p50_cycles: u64,
    /// 99th-percentile completed-request latency in modeled cycles.
    pub p99_cycles: u64,
    /// Peak device bytes charged against the tenant's quota.
    pub peak_bytes: u64,
}

impl ServeRow {
    /// Total typed rejections (quota + backlog + saturation).
    pub fn rejected(&self) -> u64 {
        self.rejected_quota + self.rejected_backlog + self.rejected_saturated
    }
}

/// Nearest-rank percentile of a **sorted ascending** latency series.
/// `None` when the series is empty or `p` is outside `(0, 100]` — the
/// same no-NaN/no-panic policy as [`relative_performance`].
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_table_renders_verdict_and_overhead() {
        let rows = [
            SanitizerRow {
                name: "xsbench".into(),
                races: 0,
                divergences: 0,
                plain_ns: 1_000_000,
                sanitized_ns: 1_500_000,
            },
            SanitizerRow {
                name: "broken".into(),
                races: 2,
                divergences: 1,
                plain_ns: 0,
                sanitized_ns: 5,
            },
        ];
        let table = sanitizer_table(&rows);
        assert!(table.contains("clean"), "{table}");
        assert!(table.contains("1.50x"), "{table}");
        assert!(table.contains("2r/1d"), "{table}");
        assert!(table.contains("n/a"), "{table}");
        assert_eq!(table.lines().count(), 3, "{table}");
    }

    #[test]
    fn percentile_is_nearest_rank_and_total_on_empty_or_bad_p() {
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(100));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 1.0), Some(10));
        assert_eq!(percentile(&[42], 50.0), Some(42));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&s, 101.0), None);
        assert_eq!(percentile(&s, f64::NAN), None);
    }
}
