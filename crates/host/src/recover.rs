//! Recovery policy and metrics — retry budgets, deterministic backoff,
//! and the counters the chaos report prints.
//!
//! The policy decides what [`crate::Host`] does with a failed device
//! operation, dispatching on [`crate::error::ErrorClass`]:
//!
//! * **Transient** (memcpy fault, stalled launch): back
//!   off and retry the same operation on the same device, up to
//!   [`RecoveryPolicy::transient_retries`] times per operation.
//! * **Permanent** (`DeviceLost`): quarantine the dead device, bind a
//!   replacement, replay the slot's op journal (`DeviceSlot::journal`), and
//!   retry — up to [`RecoveryPolicy::max_failovers`] times per host.
//! * **Program**: surface immediately; a retry would reproduce it.
//!
//! Backoff is measured in *modeled* cycles, not wall clock, and is
//! derived from a seed — two runs with the same seed charge the same
//! backoff, so recovery never perturbs the bit-identity discipline.

/// Retry/failover budgets and the seeded backoff schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per operation for transient errors (same device).
    pub transient_retries: u32,
    /// Device replacements per host before a lost slot is retired.
    pub max_failovers: u32,
    /// Base backoff charge in modeled cycles; attempt `n` charges
    /// `base << (n-1)` plus seeded jitter in `[0, base)`.
    pub backoff_base: u64,
    /// Seed of the jitter term — deterministic per (seed, attempt).
    pub backoff_seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            transient_retries: 3,
            max_failovers: 4,
            backoff_base: 1000,
            backoff_seed: 0,
        }
    }
}

/// SplitMix64 — the same generator the fault planner uses, local because
/// `nzomp_vgpu::faults::Mix` is private.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RecoveryPolicy {
    /// Modeled-cycle charge of retry attempt `attempt` (1-based):
    /// exponential in the attempt number with seeded jitter. Pure —
    /// the same (policy, attempt) always charges the same cycles.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        // checked_shl caps runaway attempt counts instead of wrapping.
        let exp = self.backoff_base.checked_shl(shift).unwrap_or(u64::MAX);
        let jitter = splitmix(self.backoff_seed ^ u64::from(attempt)) % self.backoff_base.max(1);
        exp.saturating_add(jitter)
    }
}

/// Counters of everything the recovery layer did — surfaced via
/// [`crate::Host::recovery_metrics`] and [`crate::HostStats`], and
/// reported by `nzbench` as `host.retries` / `host.failovers` /
/// `host.replayed_ops`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Transient retries performed (each after a backoff charge).
    pub retries: u64,
    /// How many of those retries answered a stalled launch
    /// ([`nzomp_vgpu::TrapKind::Stalled`]).
    pub watchdog_trips: u64,
    /// Replacement devices bound after `DeviceLost`.
    pub failovers: u64,
    /// Dead devices quarantined (== failovers + retired slots).
    pub quarantines: u64,
    /// Journal effects re-executed on replacement devices.
    pub replayed_ops: u64,
    /// Total modeled-cycle backoff charged.
    pub backoff_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = RecoveryPolicy::default();
        for attempt in 1..=5 {
            assert_eq!(
                p.backoff_cycles(attempt),
                p.backoff_cycles(attempt),
                "backoff must be pure"
            );
        }
        // The exponential term dominates the jitter: attempt n+1 charges
        // at least as much as attempt n once the doubling outpaces base.
        assert!(p.backoff_cycles(3) > p.backoff_cycles(1));
        // Different seeds change only the jitter, within [0, base).
        let q = RecoveryPolicy { backoff_seed: 7, ..p.clone() };
        let (a, b) = (p.backoff_cycles(2), q.backoff_cycles(2));
        assert!(a.abs_diff(b) < p.backoff_base);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RecoveryPolicy {
            backoff_base: u64::MAX / 2,
            ..RecoveryPolicy::default()
        };
        // Would overflow a plain shift; must cap, not wrap or panic.
        assert!(p.backoff_cycles(40) >= p.backoff_cycles(1));
        let _ = p.backoff_cycles(u32::MAX);
    }
}
