//! Multi-device scheduling: device slots, kernel-image registry, and
//! launch-placement policies.

use std::sync::Arc;

use nzomp_vgpu::{Device, FaultPlan, Image};

use crate::map::PresentTable;
use crate::pool::DevicePool;
use crate::stream::DevOp;

/// Handle of a compiled kernel image in the host's registry: a compile
/// cache slot, never reused, so an evicted id names no image at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageId(pub u64);

/// How [`crate::Host::enqueue_region`] places launches across devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict rotation over the fleet.
    #[default]
    RoundRobin,
    /// The device with the fewest pending launches (ties broken by the
    /// least queued-but-undrained work, then by least simulated
    /// cycles executed so far, then by lowest index).
    LeastLoaded,
}

/// One registered virtual GPU plus its host-side shadow state. The
/// device itself is created lazily when an image is first placed on the
/// slot; re-placing a different image resets the device (fresh memory)
/// and with it the present table, pool, and journal.
pub(crate) struct DeviceSlot {
    pub dev: Option<Device>,
    /// What `dev` runs (was last bound to), and its loaded form, which
    /// the slot keeps for the failover replacement.
    pub image: Option<(ImageId, Arc<Image>)>,
    pub table: PresentTable,
    pub pool: DevicePool,
    /// Launches enqueued but not yet executed (LeastLoaded's signal).
    pub pending: u64,
    /// Operations on this device (memcpys, frees, launches) queued but
    /// not yet drained. `pending` alone misses the transfer
    /// work already committed to a device, so placement under concurrent
    /// enqueue used to send a launch to a device with a deep memcpy
    /// backlog; LeastLoaded now breaks `pending` ties on this count.
    pub queued_ops: u64,
    /// Simulated cycles of every launch executed on this device — the
    /// per-device makespan input of the multi-device scaling model.
    pub executed_cycles: u64,
    /// Launches executed on this device.
    pub launches: u64,
    /// The slot is retired: its device was lost and the failover budget
    /// is exhausted. The scheduler never places work here; only an
    /// explicit `bind_image` revives it.
    pub quarantined: bool,
    /// The fault plan of *this* slot's device (chaos campaigns), armed
    /// at bind. Deliberately not re-armed
    /// on a failover replacement — the replacement models healthy
    /// hardware.
    pub device_plan: Option<FaultPlan>,
    /// The op journal, the redo log behind device-loss recovery: while
    /// recovery is armed, every `DevOp` that succeeded since the image was
    /// bound, in device order; failover runs them again, through the same
    /// door, on a replacement device. Cleared on rebind to a different image
    /// (device memory is reset, so the history describes nothing reachable).
    ///
    /// Replay is sound (`docs/robustness.md`, "Recovery policy and op
    /// journal") because `Device::alloc` is a pure bump allocator — the kept
    /// [`DevOp::Grow`]s reproduce the *identical* pointers on a fresh device
    /// of the same image, so the present table, pool and every translated
    /// kernel argument stay valid ([`crate::HostError::Replay`] on
    /// divergence) — and the device engine is deterministic, so the kept
    /// launches reproduce memory, metrics and sanitizer verdicts bit for
    /// bit. Pool frees are *not* kept: a free only moves a block to the
    /// host-side free list, and the pool object survives the failover.
    pub journal: Vec<DevOp>,
}

impl DeviceSlot {
    pub fn new() -> DeviceSlot {
        DeviceSlot {
            dev: None,
            image: None,
            table: PresentTable::new(),
            pool: DevicePool::new(),
            pending: 0,
            queued_ops: 0,
            executed_cycles: 0,
            launches: 0,
            quarantined: false,
            device_plan: None,
            journal: Vec::new(),
        }
    }
}

/// Pick a device for the next launch, skipping quarantined slots. `None`
/// iff every slot is quarantined — the caller surfaces
/// [`crate::HostError::FleetLost`].
pub(crate) fn pick_device(
    policy: SchedPolicy,
    slots: &[DeviceSlot],
    rr_next: &mut usize,
) -> Option<usize> {
    match policy {
        SchedPolicy::RoundRobin => {
            let n = slots.len();
            for k in 0..n {
                let d = (*rr_next + k) % n;
                if !slots[d].quarantined {
                    *rr_next = (d + 1) % n;
                    return Some(d);
                }
            }
            None
        }
        SchedPolicy::LeastLoaded => slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.quarantined)
            .min_by_key(|(i, s)| (s.pending, s.queued_ops, s.executed_cycles, *i))
            .map(|(i, _)| i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<DeviceSlot> {
        (0..n).map(|_| DeviceSlot::new()).collect()
    }

    #[test]
    fn least_loaded_breaks_ties_by_cycles_then_index() {
        let mut slots = fleet(3);
        // Same pending everywhere: the cycle tie-break decides.
        slots[0].executed_cycles = 500;
        slots[1].executed_cycles = 100;
        slots[2].executed_cycles = 100;
        let mut rr = 0;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(1),
            "equal cycles resolve to the lowest index"
        );
        // Pending dominates cycles.
        slots[1].pending = 2;
        slots[2].pending = 2;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(0),
            "fewest pending wins even with the most cycles"
        );
        // Full tie: lowest index.
        let slots = fleet(4);
        assert_eq!(pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr), Some(0));
    }

    /// The satellite fix: queued-but-undrained stream work (transfers,
    /// frees) counts toward a device's load, not just enqueued launches
    /// and completed cycles. The full corrected tie-break order is
    /// `pending > queued_ops > executed_cycles > index`.
    #[test]
    fn least_loaded_counts_queued_stream_work() {
        let mut rr = 0;
        let mut slots = fleet(3);
        // No launches pending anywhere, but slot 0 has a deep memcpy
        // backlog: a fresh enqueue must avoid it.
        slots[0].queued_ops = 6;
        slots[1].queued_ops = 2;
        slots[2].queued_ops = 2;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(1),
            "queued stream work breaks the pending tie; equal backlogs fall to index"
        );
        // Queued work dominates executed cycles (history never outranks
        // committed-but-undrained work)...
        slots[1].executed_cycles = 9_999;
        slots[2].queued_ops = 3;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(1),
            "least queued work wins regardless of cycle history"
        );
        // ...but pending launches dominate queued transfer work.
        slots[1].pending = 1;
        slots[2].pending = 1;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(0),
            "fewest pending launches still outranks everything"
        );
    }

    #[test]
    fn quarantined_slots_are_never_picked() {
        let mut slots = fleet(3);
        slots[1].quarantined = true;
        let mut rr = 0;
        // Round-robin skips slot 1 but keeps rotating over the survivors.
        let picks: Vec<_> = (0..4)
            .map(|_| pick_device(SchedPolicy::RoundRobin, &slots, &mut rr))
            .collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
        // Least-loaded ignores the quarantined slot even when it looks
        // idle.
        slots[0].pending = 9;
        slots[2].pending = 9;
        let mut rr = 0;
        assert_eq!(
            pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr),
            Some(0)
        );
    }

    #[test]
    fn all_quarantined_is_none_not_a_panic() {
        let mut slots = fleet(2);
        slots[0].quarantined = true;
        slots[1].quarantined = true;
        let mut rr = 0;
        assert_eq!(pick_device(SchedPolicy::RoundRobin, &slots, &mut rr), None);
        assert_eq!(pick_device(SchedPolicy::LeastLoaded, &slots, &mut rr), None);
    }

    #[test]
    fn round_robin_preserves_rotation_without_quarantine() {
        let slots = fleet(3);
        let mut rr = 0;
        let picks: Vec<_> = (0..6)
            .map(|_| pick_device(SchedPolicy::RoundRobin, &slots, &mut rr))
            .collect();
        assert_eq!(
            picks,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]
        );
    }
}
