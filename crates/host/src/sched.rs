//! Multi-device scheduling: device slots, kernel-image registry, and
//! launch-placement policies.

use std::sync::Arc;

use nzomp_vgpu::{Device, DeviceState, FaultPlan, Image};

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
    /// The device with the fewest launches in the host's queue (ties
    /// broken by the fewest queued operations of any kind, then by least
    /// simulated cycles executed so far, then by lowest index).
    LeastLoaded,
}

/// One registered virtual GPU plus its host-side shadow state. The
/// device itself is created lazily when an image is first placed on the
/// slot; re-placing a different image resets the device (fresh memory)
/// and with it the present table, pool, checkpoint and journal.
pub(crate) struct DeviceSlot {
    pub dev: Option<Device>,
    /// What `dev` runs (was last bound to), and its loaded form, which
    /// the slot keeps for the failover replacement.
    pub image: Option<(ImageId, Arc<Image>)>,
    pub table: PresentTable,
    pub pool: DevicePool,
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
    /// The device's state after the last launch the recovery layer kept,
    /// with this slot's `executed_cycles` and `launches` as they were
    /// then: where failover starts a replacement device. `None` until a
    /// launch succeeds under recovery after a bind (a replacement then
    /// starts from the image's fresh memory).
    pub checkpoint: Option<Checkpoint>,
    /// The op journal, the tail of the redo log behind device-loss
    /// recovery: while recovery is armed, every `DevOp` that changed the
    /// device since its checkpoint (or, before the first one, since the
    /// image was bound), in device order. A kept launch saves a new
    /// checkpoint and empties it, so it holds the current region's
    /// allocations, zero-fills and uploads. Failover restores the
    /// checkpoint on a replacement device and runs the journal again,
    /// through the same door.
    ///
    /// Replay is sound (`docs/robustness.md`, "Recovery policy and op
    /// journal") because `Device::alloc` is a pure bump allocator — the
    /// kept [`DevOp::Grow`]s reproduce the *identical* pointers over the
    /// checkpoint's memory, so the present table, pool and every translated
    /// kernel argument stay valid ([`crate::HostError::Replay`] on
    /// divergence). Read-backs and pool frees are *not* kept: neither
    /// changes device memory (a free only moves a block to the host-side
    /// free list, and the pool object survives the failover).
    pub journal: Vec<DevOp>,
}

impl DeviceSlot {
    pub fn new() -> DeviceSlot {
        DeviceSlot {
            dev: None,
            image: None,
            table: PresentTable::new(),
            pool: DevicePool::new(),
            executed_cycles: 0,
            launches: 0,
            quarantined: false,
            device_plan: None,
            checkpoint: None,
            journal: Vec::new(),
        }
    }
}

/// A saved device state and the slot's launch totals at the save.
#[derive(Default)]
pub(crate) struct Checkpoint {
    pub state: DeviceState,
    pub executed_cycles: u64,
    pub launches: u64,
}

/// Pick a device for the next launch, skipping quarantined slots. `None`
/// iff every slot is quarantined — the caller surfaces
/// [`crate::HostError::FleetLost`]. `backlog(d)` is device `d`'s
/// `(launches, operations)` waiting in the host's queue
/// ([`crate::stream::backlog`]): the work committed to it but not yet
/// run, which LeastLoaded ranks first.
pub(crate) fn pick_device(
    policy: SchedPolicy,
    slots: &[DeviceSlot],
    backlog: impl Fn(usize) -> (u64, u64),
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
            .min_by_key(|&(i, s)| {
                let (launches, ops) = backlog(i);
                (launches, ops, s.executed_cycles, i)
            })
            .map(|(i, _)| i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<DeviceSlot> {
        (0..n).map(|_| DeviceSlot::new()).collect()
    }

    /// LeastLoaded over `slots` with per-device `(launches, ops)` queued.
    fn least_loaded(slots: &[DeviceSlot], queued: &[(u64, u64)]) -> Option<usize> {
        let backlog = |d: usize| queued.get(d).copied().unwrap_or_default();
        pick_device(SchedPolicy::LeastLoaded, slots, backlog, &mut 0)
    }

    fn round_robin(slots: &[DeviceSlot], rr: &mut usize) -> Option<usize> {
        pick_device(SchedPolicy::RoundRobin, slots, |_| (0, 0), rr)
    }

    #[test]
    fn least_loaded_breaks_ties_by_cycles_then_index() {
        let mut slots = fleet(3);
        // Nothing queued anywhere: the cycle tie-break decides.
        slots[0].executed_cycles = 500;
        slots[1].executed_cycles = 100;
        slots[2].executed_cycles = 100;
        assert_eq!(least_loaded(&slots, &[]), Some(1), "equal cycles resolve to the lowest index");
        // Queued launches dominate cycles.
        assert_eq!(
            least_loaded(&slots, &[(0, 0), (2, 2), (2, 2)]),
            Some(0),
            "fewest queued launches wins even with the most cycles"
        );
        // Full tie: lowest index.
        assert_eq!(least_loaded(&fleet(4), &[]), Some(0));
    }

    /// Queued-but-undrained work of any kind (transfers, frees) counts
    /// toward a device's load, not just queued launches and completed
    /// cycles. The full tie-break order is
    /// `launches > operations > executed_cycles > index`.
    #[test]
    fn least_loaded_counts_queued_stream_work() {
        let mut slots = fleet(3);
        // No launches queued anywhere, but slot 0 has a deep memcpy
        // backlog: a fresh enqueue must avoid it.
        assert_eq!(
            least_loaded(&slots, &[(0, 6), (0, 2), (0, 2)]),
            Some(1),
            "queued work breaks the launch tie; equal backlogs fall to index"
        );
        // Queued work dominates executed cycles (history never outranks
        // committed-but-undrained work)...
        slots[1].executed_cycles = 9_999;
        assert_eq!(
            least_loaded(&slots, &[(0, 6), (0, 2), (0, 3)]),
            Some(1),
            "least queued work wins regardless of cycle history"
        );
        // ...but queued launches dominate queued transfer work.
        assert_eq!(
            least_loaded(&slots, &[(0, 6), (1, 2), (1, 3)]),
            Some(0),
            "fewest queued launches still outranks everything"
        );
    }

    #[test]
    fn quarantined_slots_are_never_picked() {
        let mut slots = fleet(3);
        slots[1].quarantined = true;
        let mut rr = 0;
        // Round-robin skips slot 1 but keeps rotating over the survivors.
        let picks: Vec<_> = (0..4).map(|_| round_robin(&slots, &mut rr)).collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
        // Least-loaded ignores the quarantined slot even when it looks
        // idle.
        assert_eq!(least_loaded(&slots, &[(9, 9), (0, 0), (9, 9)]), Some(0));
    }

    #[test]
    fn all_quarantined_is_none_not_a_panic() {
        let mut slots = fleet(2);
        slots[0].quarantined = true;
        slots[1].quarantined = true;
        assert_eq!(round_robin(&slots, &mut 0), None);
        assert_eq!(least_loaded(&slots, &[]), None);
    }

    #[test]
    fn round_robin_preserves_rotation_without_quarantine() {
        let slots = fleet(3);
        let mut rr = 0;
        let picks: Vec<_> = (0..6).map(|_| round_robin(&slots, &mut rr)).collect();
        assert_eq!(picks, vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]);
    }
}
