//! Service-wide counters — the serving analogue of
//! [`nzomp_host::RecoveryMetrics`]: plain data, `Eq`-comparable, so the
//! trace-replay determinism gate can assert bit-identity over them.

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
