//! The op journal — the redo log behind device-loss recovery.
//!
//! The host cannot snapshot a virtual GPU (a real one even less), but it
//! does not need to: every byte of device state a target region produces
//! is the result of a *deterministic* sequence of [`DevOp`]s. While
//! recovery is armed, [`crate::Host`] keeps every `DevOp` that succeeded,
//! per device slot, in the order the device saw them, and after a
//! `DeviceLost` fault runs them again — through the same function that
//! ran them the first time — on a replacement device.
//!
//! Two properties make that sound (see `docs/robustness.md`):
//!
//! * `Device::alloc` is a pure bump allocator, so the kept
//!   [`DevOp::Grow`]s reproduce the *identical* device pointers on a
//!   fresh device of the same image — the present table, pool, and every
//!   already-translated kernel argument stay valid without rewriting
//!   (checked: [`crate::HostError::Replay`] on divergence).
//! * The device interpreter is deterministic, so the kept launches
//!   reproduce bit-identical memory, metrics, and sanitizer verdicts —
//!   the chaos suite's recovered-equals-clean claim.
//!
//! Pool frees are deliberately *not* kept: freeing only moves a block to
//! the host-side free list and touches no device memory, and the pool
//! object itself survives the failover.

use crate::stream::DevOp;

/// The per-device-slot redo log. Cleared when the slot is rebound to a
/// (different) image — a rebind resets device memory, so the history no
/// longer describes reachable state.
#[derive(Default)]
pub struct OpJournal {
    pub ops: Vec<DevOp>,
}

impl OpJournal {
    pub fn new() -> OpJournal {
        OpJournal::default()
    }

    pub fn push(&mut self, op: DevOp) {
        self.ops.push(op);
    }

    pub fn clear(&mut self) {
        self.ops.clear();
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}
