//! Global-memory views: the seam between sequential and parallel team
//! execution.
//!
//! A [`TeamExec`](crate::exec::TeamExec) accesses device global memory
//! through a [`GlobalMem`]:
//!
//! * [`GlobalMem::Direct`] writes straight through to the device's master
//!   region (and owns the heap allocator) — this is the sequential
//!   interpreter's behavior, bit for bit.
//! * [`GlobalMem::Buffered`] gives the team a private copy-on-write *view*
//!   of the master region taken at wave start. Reads and writes hit the
//!   view (so a team observes its own stores), while every globally
//!   visible interaction — plain loads, plain stores, atomic RMWs,
//!   compare-and-swaps — is appended to an ordered [`GlobalEffect`] log.
//!   After the wave, the device replays each team's log onto the master
//!   region **in team-index order**, which makes the merged memory image
//!   identical to what the sequential interpreter produces — for *any*
//!   kernel (see `docs/parallel-vgpu.md` for the contract and how it is
//!   enforced).
//!
//! Atomics are logged as *operations*, not resulting values: replay
//! re-applies `add`/`min`/`max`/`cas` against the then-current master
//! state in team order. Floating-point atomic adds therefore combine in
//! exactly the sequential order — bit-identical results even though f64
//! addition is not associative.
//!
//! Every *observation* a team makes of global memory is validated by the
//! merge against the master state at the team's sequential position:
//!
//! * plain loads log the value read (deduplicated through a byte-granular
//!   sync mask, so re-reads of already-validated or self-written bytes
//!   cost no log entry);
//! * `cas` logs the old value it branched on;
//! * an atomic RMW logs its observed old value, and validates it whenever
//!   the result register is *live* (referenced by any operand in the
//!   function). The extremely common reduction idiom — `atomic.add` with
//!   a discarded result — skips validation and stays fully parallel,
//!   while the fetch-add index-allocation idiom
//!   (`idx = atomic_add(&counter, 1); buf[idx] = ...`) validates and
//!   serializes exactly as far as contention requires.
//!
//! On any validation mismatch (another team got there first, sequentially
//! speaking) the team's buffered effects are rolled back wholesale and the
//! team is re-run in direct mode, which reproduces the exact sequential
//! behavior. This is optimistic concurrency: contaminated teams serialize,
//! independent teams scale.
//!
//! Device `malloc`/`free` mutate the shared heap and hand out offsets that
//! depend on every prior allocation, so they cannot be buffered: in
//! buffered mode they raise the internal
//! [`TrapKind::ParallelBailout`](crate::error::TrapKind) signal and the
//! device re-runs that team sequentially (direct mode supports them
//! natively). The bailout never escapes [`crate::Device::launch`].
//!
//! The observation-validation contract is also what makes the
//! [sanitizer](crate::sanitize) worker-count independent: a team whose
//! buffered run *merges* observed exactly the values sequential execution
//! would have shown it, so its control flow — and therefore its recorded
//! access trace and race/divergence verdict — is identical to the
//! sequential run's; a team that fails validation is re-run in direct
//! mode and contributes the re-run's verdict. Either way the launch-level
//! fold (ascending team order) sees the same per-team states at any
//! worker count.

use std::collections::HashMap;

use nzomp_ir::inst::AtomicOp;
use nzomp_ir::Ty;

use crate::error::TrapKind;
use crate::exec::HeapState;
use crate::memory::Region;
use crate::ops::combine_atomic;
use crate::value::RtVal;

/// Reinterpret raw load bits as a typed runtime value — the single
/// conversion rule shared by the interpreter's `load_typed`, buffered
/// atomics, and effect replay.
pub(crate) fn rtval_from_bits(bits: i64, ty: Ty) -> RtVal {
    match ty {
        Ty::F64 => RtVal::F(f64::from_bits(bits as u64)),
        Ty::Ptr => RtVal::P(crate::memory::DevPtr(bits as u64)),
        _ => RtVal::I(bits),
    }
}

/// One buffered global-memory interaction. Replayed onto the master
/// region in team-index order ("wave-ordered merge").
#[derive(Clone, Debug)]
pub enum GlobalEffect {
    /// A plain load: `observed` is what the team's view held. Replay
    /// validates it against the master — a mismatch means the team read a
    /// location some lower-indexed team wrote this wave, so its execution
    /// diverged from the sequential order and it must be re-run.
    Load { off: u64, size: u64, observed: i64 },
    /// A plain store of `size` bytes.
    Store { off: u64, size: u64, value: i64 },
    /// An atomic read-modify-write. The operand is kept as a typed value:
    /// `combine_atomic` converts `I`/`F` operands differently, and replay
    /// must combine exactly as execution did. `observed` is the old value
    /// (bits) the team saw in its view; `validate` is set when the result
    /// register is live, i.e. the observed value could have steered the
    /// team's behavior.
    Atomic {
        op: AtomicOp,
        ty: Ty,
        off: u64,
        operand: RtVal,
        observed: i64,
        validate: bool,
    },
    /// A compare-and-swap. Always validated: the success of the swap (and
    /// with it the access counters) depends on the observed old value even
    /// when the result register is dead.
    Cas {
        ty: Ty,
        off: u64,
        expected: i64,
        new: i64,
        observed: i64,
    },
}

impl GlobalEffect {
    /// Whether the wave-ordered merge must check the observed value
    /// against the master before committing this team's effects.
    ///
    /// Plain loads and `cas` always validate. Atomic RMWs validate
    /// exactly when their result register is live (`validate`): a dead
    /// result cannot steer behavior, so reductions replay without
    /// validation — which is what keeps contended accumulation fully
    /// parallel.
    fn needs_validation(&self) -> bool {
        match self {
            GlobalEffect::Load { .. } => true,
            GlobalEffect::Store { .. } => false,
            GlobalEffect::Atomic { validate, .. } => *validate,
            GlobalEffect::Cas { .. } => true,
        }
    }
}

/// Copy-on-write chunk granularity (bytes). Also the granularity of one
/// [`SyncMask`] bitmask word (one bit per byte).
const CHUNK: usize = 64;

/// A team's private view of global memory: an immutable borrow of the
/// wave-start master image plus a sparse overlay of written chunks. Teams
/// that write little share the master bytes instead of each cloning the
/// full region (the master is only read during a wave, so the borrow is
/// sound and `Sync`).
#[derive(Debug)]
pub struct CowRegion<'a> {
    base: &'a [u8],
    overlay: HashMap<u64, Box<[u8; CHUNK]>>,
}

impl<'a> CowRegion<'a> {
    pub fn new(base: &'a [u8]) -> CowRegion<'a> {
        CowRegion {
            base,
            overlay: HashMap::new(),
        }
    }

    pub fn read(&self, off: u64, size: u64) -> Result<i64, TrapKind> {
        let end = off.checked_add(size).ok_or(TrapKind::OutOfBounds)?;
        if end as usize > self.base.len() || size > 8 {
            return Err(TrapKind::OutOfBounds);
        }
        if size == 0 {
            return Ok(0);
        }
        // A read touches at most two chunks; resolve each overlay entry
        // once (read-heavy kernels mostly miss the overlay entirely and
        // fall through to the shared base image).
        let c0 = off / CHUNK as u64;
        let c1 = (end - 1) / CHUNK as u64;
        let ch0 = self.overlay.get(&c0);
        let ch1 = if c1 == c0 { ch0 } else { self.overlay.get(&c1) };
        let mut buf = [0u8; 8];
        if ch0.is_none() && ch1.is_none() {
            buf[..size as usize].copy_from_slice(&self.base[off as usize..end as usize]);
            return Ok(i64::from_le_bytes(buf));
        }
        for i in 0..size {
            let o = off + i;
            let ch = if o / CHUNK as u64 == c0 { ch0 } else { ch1 };
            buf[i as usize] = match ch {
                Some(c) => c[(o % CHUNK as u64) as usize],
                // Bounds-checked above.
                None => self.base.get(o as usize).copied().unwrap_or(0),
            };
        }
        Ok(i64::from_le_bytes(buf))
    }

    pub fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        let end = off.checked_add(size).ok_or(TrapKind::OutOfBounds)?;
        if end as usize > self.base.len() || size > 8 {
            return Err(TrapKind::OutOfBounds);
        }
        let base = self.base;
        let bytes = value.to_le_bytes();
        for i in 0..size {
            let o = off + i;
            let ci = o / CHUNK as u64;
            let chunk = self.overlay.entry(ci).or_insert_with(|| {
                let mut c = Box::new([0u8; CHUNK]);
                let start = ci as usize * CHUNK;
                let copy = (base.len().saturating_sub(start)).min(CHUNK);
                c[..copy].copy_from_slice(&base[start..start + copy]);
                c
            });
            chunk[(o % CHUNK as u64) as usize] = bytes[i as usize];
        }
        Ok(())
    }
}

/// Byte-granular set of global offsets whose view value provably equals
/// the replay master at the team's current log position — read-validated
/// bytes, self-written bytes, and bytes after a validated (or
/// value-independent) atomic. Reads of fully synced ranges would always
/// re-validate successfully, so they are not logged again; this bounds the
/// effect log by *unique bytes touched*, not dynamic access count.
#[derive(Debug, Default)]
struct SyncMask {
    chunks: HashMap<u64, u64>,
}

impl SyncMask {
    /// The (chunk index, byte bitmask) pairs a `size <= 8` range covers —
    /// one pair, or two when the range crosses a chunk boundary.
    fn masks(off: u64, size: u64) -> [(u64, u64); 2] {
        let end = off + size.max(1) - 1;
        let (c0, c1) = (off / 64, end / 64);
        if c0 == c1 {
            let mask = (((1u128 << size) - 1) << (off % 64)) as u64;
            [(c0, mask), (c0, 0)]
        } else {
            let n0 = 64 - off % 64;
            let mask0 = (((1u128 << n0) - 1) << (off % 64)) as u64;
            let mask1 = ((1u128 << (size - n0)) - 1) as u64;
            [(c0, mask0), (c1, mask1)]
        }
    }

    fn covered(&self, off: u64, size: u64) -> bool {
        SyncMask::masks(off, size).iter().all(|&(c, mask)| {
            mask == 0 || self.chunks.get(&c).is_some_and(|m| m & mask == mask)
        })
    }

    fn set(&mut self, off: u64, size: u64) {
        for (c, mask) in SyncMask::masks(off, size) {
            if mask != 0 {
                *self.chunks.entry(c).or_insert(0) |= mask;
            }
        }
    }

    fn clear(&mut self, off: u64, size: u64) {
        for (c, mask) in SyncMask::masks(off, size) {
            if mask != 0 {
                if let Some(m) = self.chunks.get_mut(&c) {
                    *m &= !mask;
                }
            }
        }
    }
}

/// Per-team buffered view of global memory (parallel execution).
#[derive(Debug)]
pub struct BufferedGlobal<'a> {
    /// Copy-on-write view over the wave-start master image. The team reads
    /// and writes here, so it observes its own effects.
    view: CowRegion<'a>,
    /// Ordered log of globally visible interactions, for the merge.
    pub log: Vec<GlobalEffect>,
    synced: SyncMask,
}

impl<'a> BufferedGlobal<'a> {
    /// `base` is the master region's bytes at wave start (immutable for
    /// the duration of the wave).
    pub fn new(base: &'a [u8]) -> BufferedGlobal<'a> {
        BufferedGlobal {
            view: CowRegion::new(base),
            log: Vec::new(),
            synced: SyncMask::default(),
        }
    }

    fn read(&mut self, off: u64, size: u64) -> Result<i64, TrapKind> {
        let v = self.view.read(off, size)?;
        if !self.synced.covered(off, size) {
            self.log.push(GlobalEffect::Load {
                off,
                size,
                observed: v,
            });
            self.synced.set(off, size);
        }
        Ok(v)
    }

    fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        self.view.write(off, size, value)?;
        self.log.push(GlobalEffect::Store { off, size, value });
        self.synced.set(off, size);
        Ok(())
    }

    fn atomic(
        &mut self,
        op: AtomicOp,
        ty: Ty,
        off: u64,
        v: RtVal,
        result_used: bool,
    ) -> Result<RtVal, TrapKind> {
        let size = ty.size();
        let old = rtval_from_bits(self.view.read(off, size)?, ty);
        self.view
            .write(off, size, combine_atomic(op, ty, old, v).to_bits())?;
        self.log.push(GlobalEffect::Atomic {
            op,
            ty,
            off,
            operand: v,
            observed: old.to_bits(),
            validate: result_used,
        });
        if result_used || matches!(op, AtomicOp::Exchange) {
            // Validated (commits only if observed == master) or exchange
            // (result independent of the old value): view == replay master
            // afterwards.
            self.synced.set(off, size);
        } else {
            // Unvalidated add/min/max: replay combines against the
            // *master* old value, which may differ from the view's — any
            // later read of these bytes must be logged and validated.
            self.synced.clear(off, size);
        }
        Ok(old)
    }

    fn cas(&mut self, ty: Ty, off: u64, expected: i64, new: i64) -> Result<(RtVal, bool), TrapKind> {
        let size = ty.size();
        let old = rtval_from_bits(self.view.read(off, size)?, ty);
        let stored = old.to_bits() == expected;
        if stored {
            self.view.write(off, size, new)?;
        }
        self.log.push(GlobalEffect::Cas {
            ty,
            off,
            expected,
            new,
            observed: old.to_bits(),
        });
        self.synced.set(off, size);
        Ok((old, stored))
    }
}

/// How a team reaches device global memory (and the heap allocator).
#[derive(Debug)]
pub enum GlobalMem<'a> {
    /// Write-through to the device master region; sequential semantics.
    Direct {
        region: &'a mut Region,
        heap: &'a mut HeapState,
    },
    /// View-and-log; parallel semantics (merged after the wave).
    Buffered(BufferedGlobal<'a>),
}

impl GlobalMem<'_> {
    pub fn read(&mut self, off: u64, size: u64) -> Result<i64, TrapKind> {
        match self {
            GlobalMem::Direct { region, .. } => region.read(off, size),
            GlobalMem::Buffered(b) => b.read(off, size),
        }
    }

    pub fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        match self {
            GlobalMem::Direct { region, .. } => region.write(off, size, value),
            GlobalMem::Buffered(b) => b.write(off, size, value),
        }
    }

    /// Atomic RMW: returns the old (typed) value the team observes.
    /// `result_used` reports whether the instruction's result register is
    /// live — buffered execution validates the observed value at merge
    /// exactly when it is.
    pub fn atomic(
        &mut self,
        op: AtomicOp,
        ty: Ty,
        off: u64,
        v: RtVal,
        result_used: bool,
    ) -> Result<RtVal, TrapKind> {
        let size = ty.size();
        match self {
            GlobalMem::Direct { region, .. } => {
                let old = rtval_from_bits(region.read(off, size)?, ty);
                region.write(off, size, combine_atomic(op, ty, old, v).to_bits())?;
                Ok(old)
            }
            GlobalMem::Buffered(b) => b.atomic(op, ty, off, v, result_used),
        }
    }

    /// Compare-and-swap: returns `(old, stored)`.
    pub fn cas(
        &mut self,
        ty: Ty,
        off: u64,
        expected: i64,
        new: i64,
    ) -> Result<(RtVal, bool), TrapKind> {
        let size = ty.size();
        match self {
            GlobalMem::Direct { region, .. } => {
                let old = rtval_from_bits(region.read(off, size)?, ty);
                let stored = old.to_bits() == expected;
                if stored {
                    region.write(off, size, new)?;
                }
                Ok((old, stored))
            }
            GlobalMem::Buffered(b) => b.cas(ty, off, expected, new),
        }
    }
}

/// Replay one team's effect log onto `region`, validating observed values
/// where the effect demands it. Returns `Ok(true)` if every validated
/// effect saw the value the team observed (all effects applied),
/// `Ok(false)` on the first mismatch. When `undo` is provided, every write
/// records the bytes it overwrites so the caller can roll the region back.
fn replay(
    region: &mut Region,
    log: &[GlobalEffect],
    mut undo: Option<&mut Vec<(u64, u64, i64)>>,
) -> Result<bool, TrapKind> {
    for eff in log {
        match *eff {
            GlobalEffect::Load {
                off,
                size,
                observed,
            } => {
                if region.read(off, size)? != observed {
                    return Ok(false);
                }
            }
            GlobalEffect::Store { off, size, value } => {
                if let Some(u) = undo.as_deref_mut() {
                    u.push((off, size, region.read(off, size)?));
                }
                region.write(off, size, value)?;
            }
            GlobalEffect::Atomic {
                op,
                ty,
                off,
                operand,
                observed,
                validate,
            } => {
                let size = ty.size();
                let bits = region.read(off, size)?;
                if validate && bits != observed {
                    return Ok(false);
                }
                if let Some(u) = undo.as_deref_mut() {
                    u.push((off, size, bits));
                }
                let old = rtval_from_bits(bits, ty);
                region.write(off, size, combine_atomic(op, ty, old, operand).to_bits())?;
            }
            GlobalEffect::Cas {
                ty,
                off,
                expected,
                new,
                observed,
            } => {
                let size = ty.size();
                let old = region.read(off, size)?;
                if old != observed {
                    return Ok(false);
                }
                if old == expected {
                    if let Some(u) = undo.as_deref_mut() {
                        u.push((off, size, old));
                    }
                    region.write(off, size, new)?;
                }
            }
        }
    }
    Ok(true)
}

/// Restore the bytes an aborted replay overwrote, newest first.
fn rollback(region: &mut Region, undo: &[(u64, u64, i64)]) -> Result<(), TrapKind> {
    for &(off, size, bits) in undo.iter().rev() {
        region.write(off, size, bits)?;
    }
    Ok(())
}

/// Replay one team's effect log onto the master region ("wave-ordered
/// merge"). Returns `Ok(true)` if the team's effects were committed;
/// `Ok(false)` if a validated observation (plain load, CAS, or a
/// live-result atomic) saw a stale value during execution — the master is
/// then rolled back to its pre-merge state via the undo log (no
/// full-region copying) and the caller re-runs the team sequentially.
///
/// Offsets were bounds-checked against the team's view (same length as the
/// master, which only ever grows), so `Err` is unreachable in practice; it
/// surfaces as a typed trap rather than a panic, per crate policy.
pub(crate) fn apply_effects(master: &mut Region, log: &[GlobalEffect]) -> Result<bool, TrapKind> {
    if !log.iter().any(|e| e.needs_validation()) {
        // Nothing can abort mid-log: replay straight onto the master.
        return replay(master, log, None);
    }
    let mut undo = Vec::new();
    match replay(master, log, Some(&mut undo)) {
        Ok(true) => Ok(true),
        Ok(false) => {
            rollback(master, &undo)?;
            Ok(false)
        }
        Err(kind) => {
            // Already failing the whole launch; best-effort restore.
            let _ = rollback(master, &undo);
            Err(kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_region_reads_base_until_written() {
        let base: Vec<u8> = (0..200u8).collect();
        let mut cow = CowRegion::new(&base);
        assert_eq!(cow.read(10, 1).unwrap(), 10);
        cow.write(10, 1, 0x55).unwrap();
        assert_eq!(cow.read(10, 1).unwrap(), 0x55);
        // Neighboring bytes in the same chunk keep their base values.
        assert_eq!(cow.read(9, 1).unwrap(), 9);
        assert_eq!(cow.read(11, 1).unwrap(), 11);
        // Multi-byte write spanning a chunk boundary.
        cow.write(63, 2, 0x0201).unwrap();
        assert_eq!(cow.read(63, 2).unwrap(), 0x0201);
        assert!(cow.read(199, 2).is_err());
        assert!(cow.write(200, 1, 0).is_err());
    }

    #[test]
    fn sync_mask_set_clear_covered() {
        let mut m = SyncMask::default();
        assert!(!m.covered(0, 8));
        m.set(0, 8);
        assert!(m.covered(0, 8));
        assert!(m.covered(2, 4));
        assert!(!m.covered(6, 4)); // bytes 8..10 unset
        m.clear(4, 2);
        assert!(!m.covered(0, 8));
        assert!(m.covered(0, 4));
        // Across a 64-byte chunk boundary.
        m.set(60, 8);
        assert!(m.covered(60, 8));
    }

    #[test]
    fn rollback_restores_master_on_mismatch() {
        let mut master = Region::with_size(32);
        master.write(0, 8, 7).unwrap();
        master.write(8, 8, 9).unwrap();
        let before = master.bytes.clone();
        // A log whose later load observation mismatches the master.
        let log = vec![
            GlobalEffect::Store {
                off: 0,
                size: 8,
                value: 100,
            },
            GlobalEffect::Atomic {
                op: AtomicOp::Add,
                ty: Ty::I64,
                off: 8,
                operand: RtVal::I(1),
                observed: 9,
                validate: false,
            },
            GlobalEffect::Load {
                off: 16,
                size: 8,
                observed: 42, // master holds 0 — stale observation
            },
        ];
        assert_eq!(apply_effects(&mut master, &log), Ok(false));
        assert_eq!(
            master.bytes, before,
            "failed merge must leave master untouched"
        );
    }
}
