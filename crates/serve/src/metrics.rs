//! Service-wide counters — the serving analogue of
//! [`nzomp_host::RecoveryMetrics`]: plain data, `Eq`-comparable, so the
//! trace-replay determinism gate can assert bit-identity over them.

use std::collections::BTreeMap;

/// Everything the serving layer counts across a run. All plain `u64`s;
/// equality over the whole struct is part of the replay contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Requests presented to `submit`, admitted or not.
    pub submitted: u64,
    /// Requests past admission (queued or dispatched).
    pub admitted: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Admitted requests that ended in a typed fault.
    pub faulted: u64,
    /// Rejections by reason — the three admission checks in order.
    pub rejected_saturated: u64,
    pub rejected_backlog: u64,
    pub rejected_quota: u64,
    /// Session buffers written back and unmapped to rebind a device to a
    /// different kernel image.
    pub evictions: u64,
    /// Session buffers moved between devices to follow their tenant's
    /// placement.
    pub migrations: u64,
    /// Serve-clock cycle at which `drain` retired the last request.
    pub makespan_cycles: u64,
}

impl ServeMetrics {
    /// Total typed rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_saturated + self.rejected_backlog + self.rejected_quota
    }
}

/// One tenant's record of a serving run: per-outcome counts, latency
/// percentiles in modeled cycles, and the peak device-memory footprint the
/// tenant's quota saw. Plain data, filled by [`crate::Serve::tenant_rows`]
/// and compared whole by the replay gate.
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

/// Nearest-rank percentile of a latency series held as a count per
/// distinct latency: the smallest latency whose cumulative count reaches
/// rank `ceil(p / 100 · total)`. `None` when the series is empty or `p` is
/// outside `(0, 100]` — no NaN, no panic.
pub(crate) fn percentile(counts: &BTreeMap<u64, u64>, p: f64) -> Option<u64> {
    let total: u64 = counts.values().sum();
    if total == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (((p / 100.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    counts.iter().find_map(|(&latency, &n)| {
        seen += n;
        (seen >= rank).then_some(latency)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, TenantConfig};

    fn counts(series: &[u64]) -> BTreeMap<u64, u64> {
        let mut c = BTreeMap::new();
        for &l in series {
            *c.entry(l).or_insert(0) += 1;
        }
        c
    }

    #[test]
    fn percentile_is_nearest_rank_and_total_on_empty_or_bad_p() {
        let s = counts(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(100));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 1.0), Some(10));
        assert_eq!(percentile(&counts(&[42]), 50.0), Some(42));
        assert_eq!(percentile(&counts(&[]), 50.0), None);
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&s, 101.0), None);
        assert_eq!(percentile(&s, f64::NAN), None);
    }

    /// A tenant's record grows with the distinct latencies, not with the
    /// completions, and answers what sorting every latency would.
    #[test]
    fn a_latency_record_is_one_entry_per_distinct_latency() {
        let mut s = Session::new("t".into(), TenantConfig::default());
        let series: Vec<u64> = (0..10_000u64).map(|i| 1_000 + 10 * (i % 13).min(6)).collect();
        for &l in &series {
            s.record_completion(l);
        }
        assert_eq!((s.completed, s.latencies.len()), (10_000, 7));
        let mut sorted = series;
        sorted.sort_unstable();
        for p in [50.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            assert_eq!(percentile(&s.latencies, p), Some(sorted[rank - 1]), "p{p}");
        }
    }
}
