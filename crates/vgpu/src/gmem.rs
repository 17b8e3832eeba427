//! Global-memory views: the seam between sequential and parallel team
//! execution.
//!
//! A [`TeamExec`](crate::exec::TeamExec) accesses device global memory
//! through a [`GlobalMem`]:
//!
//! * [`GlobalMem::Direct`] writes straight through to the device's master
//!   region (and owns the heap allocator) — sequential execution, bit for
//!   bit.
//! * [`GlobalMem::Buffered`] gives the team a private copy-on-write *view*
//!   of the master region taken at wave start. Reads and writes hit the
//!   view (so a team observes its own stores), while every globally
//!   visible interaction — plain loads, plain stores, atomic RMWs,
//!   compare-and-swaps — is appended to an ordered [`GlobalEffect`] log.
//!   After the wave, the device replays each team's log onto the master
//!   region **in team-index order**, which makes the merged memory image
//!   identical to what the sequential interpreter produces — for *any*
//!   kernel (see `docs/parallel-vgpu.md` for the contract and how it is
//!   enforced). The view's state is flat and the worker's, not the
//!   team's: one [`WaveScratch`] per worker thread, indexed by chunk,
//!   handed from team to team.
//!
//! `GlobalMem` itself reads and writes; atomics are the buffered view's
//! alone (`BufferedGlobal::atomic`, `BufferedGlobal::cas`). A direct
//! atomic needs no view of its own: `TeamExec::atomic` and `TeamExec::cas`
//! perform it as a read, a combine and a write through `GlobalMem`, the
//! same code they run for shared and local memory.
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

use std::ops::Range;

use nzomp_ir::inst::AtomicOp;
use nzomp_ir::Ty;

use crate::error::TrapKind;
use crate::exec::HeapState;
use crate::memory::{load_le, store_le, Region};
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
///
/// 16 bytes: a team logs one per first-touched word, so the two plain
/// variants carry a 32-bit offset (device pointers have no more) and an
/// 8-bit size inline, and the rare atomic payloads sit behind a `Box`.
#[derive(Clone, Debug)]
pub enum GlobalEffect {
    /// A plain load: `observed` is what the team's view held. Replay
    /// validates it against the master — a mismatch means the team read a
    /// location some lower-indexed team wrote this wave, so its execution
    /// diverged from the sequential order and it must be re-run.
    Load { off: u32, size: u8, observed: i64 },
    /// A plain store of `size` bytes.
    Store { off: u32, size: u8, value: i64 },
    /// An atomic read-modify-write.
    Atomic(Box<AtomicEffect>),
    /// A compare-and-swap. Always validated: the success of the swap (and
    /// with it the access counters) depends on the observed old value even
    /// when the result register is dead.
    Cas(Box<CasEffect>),
}

/// Payload of [`GlobalEffect::Atomic`]. The operand is kept as a typed
/// value: `combine_atomic` converts `I`/`F` operands differently, and
/// replay must combine exactly as execution did. `observed` is the old
/// value (bits) the team saw in its view; `validate` is set when the
/// result register is live, i.e. the observed value could have steered the
/// team's behavior.
#[derive(Clone, Copy, Debug)]
pub struct AtomicEffect {
    pub op: AtomicOp,
    pub ty: Ty,
    pub off: u64,
    pub operand: RtVal,
    pub observed: i64,
    pub validate: bool,
}

/// Payload of [`GlobalEffect::Cas`].
#[derive(Clone, Copy, Debug)]
pub struct CasEffect {
    pub ty: Ty,
    pub off: u64,
    pub expected: i64,
    pub new: i64,
    pub observed: i64,
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
            GlobalEffect::Atomic(a) => a.validate,
            GlobalEffect::Cas(_) => true,
        }
    }
}

/// Copy-on-write chunk granularity (bytes). Also the width of one sync
/// mask (one bit per byte).
const CHUNK: usize = 64;

/// What a team knows about one 64-byte chunk of the wave-start image.
#[derive(Clone, Copy, Debug, Default)]
struct ChunkRec {
    /// Bytes whose view value provably equals the replay master at the
    /// team's current log position — read-validated bytes, self-written
    /// bytes, and bytes after a validated (or value-independent) atomic.
    /// Reads of fully synced ranges would always re-validate successfully,
    /// so they are not logged again; this bounds the effect log by *unique
    /// bytes touched*, not dynamic access count.
    synced: u64,
    /// Index of the team's private copy in [`WaveScratch::copies`];
    /// 0 = not written, the chunk still reads from the shared base.
    slot: u32,
}

/// The byte bitmask of `n <= 8` bytes starting at byte `lo` of a chunk.
fn byte_mask(lo: usize, n: usize) -> u64 {
    ((1u64 << n) - 1) << lo
}

/// The `(chunk, first byte within it, byte count)` pieces a `size <= 8`
/// range falls into: one, two when the range crosses a chunk boundary,
/// none when it is empty.
fn pieces(off: u64, size: u64) -> impl Iterator<Item = (usize, usize, usize)> {
    let (ci, lo) = (off as usize / CHUNK, off as usize % CHUNK);
    let n0 = (size as usize).min(CHUNK - lo);
    [(ci, lo, n0), (ci + 1, 0, size as usize - n0)]
        .into_iter()
        .filter(|&(_, _, n)| n != 0)
}

/// A worker's flat view state: one `ChunkRec` per chunk of the
/// wave-start image, reached by index, and the private copies of written
/// chunks in one vector. Teams that write little share the master bytes
/// instead of each cloning the region (the master is only read during a
/// wave, so the borrow is sound and `Sync`).
///
/// The tables outlive a team: the worker hands the same scratch to one
/// team after another, and [`BufferedGlobal::new`] puts back exactly the
/// records the previous team changed — set-up and tear-down cost what the
/// team touched, never the size of the region.
///
/// Aligned so that two workers' scratches, neighbours in one vector,
/// share no cache line: every logged effect writes a length in here.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WaveScratch {
    /// Covers the base image (`ceil(len / 64)` records) whenever a team
    /// runs; all-default outside the chunks listed in `touched`.
    recs: Vec<ChunkRec>,
    /// `copies[0]` is never read: slot 0 means "no private copy".
    copies: Vec<[u8; CHUNK]>,
    /// Chunks whose record the current team changed.
    touched: Vec<u32>,
    /// The effect logs of the teams this worker ran in the current wave,
    /// back to back: one buffer that keeps its capacity, not one
    /// allocation per team.
    log: Vec<GlobalEffect>,
}

impl WaveScratch {
    /// A new wave: the previous wave's logs have been merged.
    pub(crate) fn start_wave(&mut self) {
        self.log.clear();
    }

    /// The worker's log of the current wave; a team's part of it is the
    /// range [`BufferedGlobal::finish`] returned.
    pub fn log(&self) -> &[GlobalEffect] {
        &self.log
    }

    /// Forget the previous team and cover a base image of `len` bytes.
    fn reset(&mut self, len: usize) {
        for ci in self.touched.drain(..) {
            self.recs[ci as usize] = ChunkRec::default();
        }
        self.copies.truncate(1);
        if self.copies.is_empty() {
            self.copies.push([0; CHUNK]);
        }
        // The master only ever grows (device malloc in a direct re-run).
        let chunks = len.div_ceil(CHUNK);
        if self.recs.len() < chunks {
            self.recs.resize(chunks, ChunkRec::default());
        }
    }

    /// The record of chunk `ci`, about to be changed: the first change
    /// enters the chunk in the list the next `reset` walks.
    fn dirty(&mut self, ci: usize) -> &mut ChunkRec {
        let rec = &mut self.recs[ci];
        if rec.synced == 0 && rec.slot == 0 {
            self.touched.push(ci as u32);
        }
        rec
    }

    /// The sync mask and the private copy of chunk `ci`, copied from
    /// `base` at the first write.
    fn private(&mut self, base: &[u8], ci: usize) -> (&mut u64, &mut [u8; CHUNK]) {
        if self.recs[ci].slot == 0 {
            let slot = self.copies.len() as u32;
            self.dirty(ci).slot = slot;
            let src = &base[ci * CHUNK..base.len().min((ci + 1) * CHUNK)];
            let mut copy = [0; CHUNK];
            copy[..src.len()].copy_from_slice(src);
            self.copies.push(copy);
        }
        let rec = &mut self.recs[ci];
        (&mut rec.synced, &mut self.copies[rec.slot as usize])
    }

    /// The view's `n` bytes at byte `lo` of chunk `ci`, whose record
    /// names `slot`.
    fn bytes<'s>(&'s self, base: &'s [u8], slot: u32, ci: usize, lo: usize, n: usize) -> &'s [u8] {
        match slot {
            0 => &base[ci * CHUNK + lo..][..n],
            slot => &self.copies[slot as usize][lo..lo + n],
        }
    }

    /// The view's value of an in-bounds range, any alignment.
    fn peek(&self, base: &[u8], off: u64, size: u64) -> i64 {
        let mut buf = [0u8; 8];
        let mut at = 0;
        for (ci, lo, n) in pieces(off, size) {
            buf[at..at + n].copy_from_slice(self.bytes(base, self.recs[ci].slot, ci, lo, n));
            at += n;
        }
        i64::from_le_bytes(buf)
    }

    /// Store to the view (in-bounds range, any alignment).
    fn poke(&mut self, base: &[u8], off: u64, size: u64, value: i64) {
        let bytes = value.to_le_bytes();
        let mut at = 0;
        for (ci, lo, n) in pieces(off, size) {
            self.private(base, ci).1[lo..lo + n].copy_from_slice(&bytes[at..at + n]);
            at += n;
        }
    }

    /// Whether every byte of the range is synced.
    fn covered(&self, off: u64, size: u64) -> bool {
        pieces(off, size).all(|(ci, lo, n)| self.recs[ci].synced & byte_mask(lo, n) == byte_mask(lo, n))
    }

    /// Mark the range synced (`on`) or not.
    fn sync(&mut self, off: u64, size: u64, on: bool) {
        for (ci, lo, n) in pieces(off, size) {
            if on {
                self.dirty(ci).synced |= byte_mask(lo, n);
            } else {
                self.recs[ci].synced &= !byte_mask(lo, n);
            }
        }
    }
}

/// Per-team buffered view of global memory (parallel execution): the
/// wave-start master image and the worker's scratch, which holds what this
/// team changed of it and, from `start` on, the team's ordered log of
/// globally visible interactions for the merge to replay. The team reads
/// and writes the view, so it observes its own effects.
#[derive(Debug)]
pub struct BufferedGlobal<'a> {
    base: &'a [u8],
    scratch: &'a mut WaveScratch,
    start: usize,
    /// How many of the team's effects need validation at the merge.
    validated: usize,
}

/// What a finished team hands the merge: where its effects sit in
/// [`WaveScratch::log`], how many of them the merge validates, and how
/// many chunks the team copied.
#[derive(Clone, Debug, Default)]
pub struct TeamLog {
    pub effects: Range<usize>,
    pub validated: usize,
    pub private_chunks: usize,
}

impl<'a> BufferedGlobal<'a> {
    /// `base` is the master region's bytes at wave start (immutable for
    /// the duration of the wave); `scratch` is the running worker's, in
    /// whatever state its previous team left it.
    pub fn new(base: &'a [u8], scratch: &'a mut WaveScratch) -> BufferedGlobal<'a> {
        // Device pointers carry 32 offset bits, so no access reaches past
        // them and every logged offset fits the effect's `u32`.
        let base = &base[..base.len().min(u32::MAX as usize)];
        scratch.reset(base.len());
        BufferedGlobal {
            base,
            start: scratch.log.len(),
            scratch,
            validated: 0,
        }
    }

    pub fn finish(self) -> TeamLog {
        TeamLog {
            effects: self.start..self.scratch.log.len(),
            validated: self.validated,
            private_chunks: self.scratch.copies.len() - 1,
        }
    }

    fn log(&mut self, effect: GlobalEffect) {
        self.validated += usize::from(effect.needs_validation());
        self.scratch.log.push(effect);
    }

    /// The bounds rule of both views (`Region::read` states it too).
    fn check(&self, off: u64, size: u64) -> Result<(), TrapKind> {
        match off.checked_add(size) {
            Some(end) if end <= self.base.len() as u64 && size <= 8 => Ok(()),
            _ => Err(TrapKind::OutOfBounds),
        }
    }

    // The four accessors stay out of line, and `GlobalMem::read`/`write`
    // with them. An in-bounds direct access never reaches `GlobalMem`:
    // `TeamExec::mem_read`'s in-line hit moves the bytes itself. A
    // buffered one is counted there and calls `GlobalMem::read` straight
    // away, a test and a jump here. Only the cold door's rare accesses
    // (out of bounds, owner bits) take the `Direct` arm, which then pays
    // no prologue for this one (the codegen
    // cliff of docs/exec-tiers.md: `exec_seq` read 3–4 % lower with
    // `read`/`write`, or with `atomic`/`cas`, left to the inliner).
    #[inline(never)]
    fn read(&mut self, off: u64, size: u64) -> Result<i64, TrapKind> {
        self.check(off, size)?;
        let (ci, lo, n) = (off as usize / CHUNK, off as usize % CHUNK, size as usize);
        if n == 0 || lo + n > CHUNK {
            // Reads nothing, or crosses a chunk boundary.
            let v = self.scratch.peek(self.base, off, size);
            if !self.scratch.covered(off, size) {
                self.log_load(off, size, v);
                self.scratch.sync(off, size, true);
            }
            return Ok(v);
        }
        let rec = self.scratch.recs[ci];
        let v = load_le(self.scratch.bytes(self.base, rec.slot, ci, lo, n));
        let mask = byte_mask(lo, n);
        if rec.synced & mask != mask {
            self.log_load(off, size, v);
            self.scratch.dirty(ci).synced |= mask;
        }
        Ok(v)
    }

    fn log_load(&mut self, off: u64, size: u64, observed: i64) {
        self.log(GlobalEffect::Load {
            off: off as u32,
            size: size as u8,
            observed,
        });
    }

    #[inline(never)]
    fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        self.check(off, size)?;
        let (ci, lo, n) = (off as usize / CHUNK, off as usize % CHUNK, size as usize);
        if n != 0 && lo + n <= CHUNK {
            let (synced, copy) = self.scratch.private(self.base, ci);
            store_le(&mut copy[lo..lo + n], value);
            *synced |= byte_mask(lo, n);
        } else {
            self.scratch.poke(self.base, off, size, value);
            self.scratch.sync(off, size, true);
        }
        self.log(GlobalEffect::Store {
            off: off as u32,
            size: size as u8,
            value,
        });
        Ok(())
    }

    /// Atomic RMW at `off`: returns the old value the team observes.
    /// `live` reports whether the result is read — the merge validates the
    /// observed value exactly when it is.
    #[inline(never)]
    pub(crate) fn atomic(
        &mut self,
        op: AtomicOp,
        ty: Ty,
        off: u64,
        v: RtVal,
        live: bool,
    ) -> Result<RtVal, TrapKind> {
        let size = ty.size();
        self.check(off, size)?;
        let old = rtval_from_bits(self.scratch.peek(self.base, off, size), ty);
        self.scratch
            .poke(self.base, off, size, combine_atomic(op, ty, old, v).to_bits());
        self.log(GlobalEffect::Atomic(Box::new(AtomicEffect {
            op,
            ty,
            off,
            operand: v,
            observed: old.to_bits(),
            validate: live,
        })));
        // Validated (commits only if observed == master) or exchange
        // (result independent of the old value): view == replay master
        // afterwards. An unvalidated add/min/max replays against the
        // *master* old value, which may differ from the view's — any later
        // read of these bytes must be logged and validated.
        self.scratch
            .sync(off, size, live || matches!(op, AtomicOp::Exchange));
        Ok(old)
    }

    /// Compare-and-swap at `off`: returns `(old, stored)`.
    #[inline(never)]
    pub(crate) fn cas(&mut self, ty: Ty, off: u64, expected: i64, new: i64) -> Result<(RtVal, bool), TrapKind> {
        let size = ty.size();
        self.check(off, size)?;
        let old = rtval_from_bits(self.scratch.peek(self.base, off, size), ty);
        let stored = old.to_bits() == expected;
        if stored {
            self.scratch.poke(self.base, off, size, new);
        }
        self.log(GlobalEffect::Cas(Box::new(CasEffect {
            ty,
            off,
            expected,
            new,
            observed: old.to_bits(),
        })));
        self.scratch.sync(off, size, true);
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
    #[inline(never)]
    pub fn read(&mut self, off: u64, size: u64) -> Result<i64, TrapKind> {
        match self {
            GlobalMem::Direct { region, .. } => region.read(off, size),
            GlobalMem::Buffered(b) => b.read(off, size),
        }
    }

    #[inline(never)]
    pub fn write(&mut self, off: u64, size: u64, value: i64) -> Result<(), TrapKind> {
        match self {
            GlobalMem::Direct { region, .. } => region.write(off, size, value),
            GlobalMem::Buffered(b) => b.write(off, size, value),
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
                if region.read(off.into(), size.into())? != observed {
                    return Ok(false);
                }
            }
            GlobalEffect::Store { off, size, value } => {
                let (off, size) = (off.into(), size.into());
                if let Some(u) = undo.as_deref_mut() {
                    u.push((off, size, region.read(off, size)?));
                }
                region.write(off, size, value)?;
            }
            GlobalEffect::Atomic(ref a) => {
                let AtomicEffect {
                    op,
                    ty,
                    off,
                    operand,
                    observed,
                    validate,
                } = **a;
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
            GlobalEffect::Cas(ref c) => {
                let CasEffect {
                    ty,
                    off,
                    expected,
                    new,
                    observed,
                } = **c;
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
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn cow_region_reads_base_until_written() {
        let base: Vec<u8> = (0..200u8).collect();
        let mut scratch = WaveScratch::default();
        let mut view = BufferedGlobal::new(&base, &mut scratch);
        assert_eq!(view.read(10, 1).unwrap(), 10);
        view.write(10, 1, 0x55).unwrap();
        assert_eq!(view.read(10, 1).unwrap(), 0x55);
        // Neighboring bytes in the same chunk keep their base values.
        assert_eq!(view.read(9, 1).unwrap(), 9);
        assert_eq!(view.read(11, 1).unwrap(), 11);
        // Multi-byte write spanning a chunk boundary.
        view.write(63, 2, 0x0201).unwrap();
        assert_eq!(view.read(63, 2).unwrap(), 0x0201);
        assert_eq!(view.read(62, 4).unwrap(), 0x41_02_01_3e);
        assert!(view.read(199, 2).is_err());
        assert!(view.write(200, 1, 0).is_err());
        // The last chunk is 8 bytes of base and zero fill: writing one
        // byte of it copies the other seven.
        view.write(199, 1, 0x77).unwrap();
        assert_eq!(view.read(192, 8).unwrap() as u64, 0x77c6_c5c4_c3c2_c1c0);
        // Three chunks written, and nothing of it reached the base.
        assert_eq!(view.finish().private_chunks, 3);
        assert_eq!(base[10], 10);
    }

    #[test]
    fn sync_mask_set_clear_covered() {
        let mut m = WaveScratch::default();
        m.reset(128);
        assert!(!m.covered(0, 8));
        m.sync(0, 8, true);
        assert!(m.covered(0, 8));
        assert!(m.covered(2, 4));
        assert!(!m.covered(6, 4)); // bytes 8..10 unset
        m.sync(4, 2, false);
        assert!(!m.covered(0, 8));
        assert!(m.covered(0, 4));
        // Across a 64-byte chunk boundary.
        m.sync(60, 8, true);
        assert!(m.covered(60, 8));
        assert!(!m.covered(64, 8));
        // The next team starts from nothing.
        m.reset(128);
        assert!(!m.covered(0, 1) && !m.covered(60, 8));
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
            GlobalEffect::Atomic(Box::new(AtomicEffect {
                op: AtomicOp::Add,
                ty: Ty::I64,
                off: 8,
                operand: RtVal::I(1),
                observed: 9,
                validate: false,
            })),
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

    #[test]
    fn an_effect_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<GlobalEffect>(), 16);
    }

    /// One worker, two teams: the second finds no private chunk and no
    /// synced byte of the first, so its first load of a byte the first
    /// team stored reads — and logs — the base value.
    #[test]
    fn a_scratch_carries_nothing_from_one_team_to_the_next() {
        let base = vec![3u8; 300];
        let mut scratch = WaveScratch::default();
        let mut first = BufferedGlobal::new(&base, &mut scratch);
        first.write(8, 8, -1).unwrap();
        first.write(62, 4, 0x0a0b_0c0d).unwrap();
        assert_eq!(first.read(16, 1).unwrap(), 3);
        first.atomic(AtomicOp::Add, Ty::I64, 128, RtVal::I(5), false).unwrap();
        let first = first.finish();
        assert_eq!((first.effects.clone(), first.validated, first.private_chunks), (0..4, 1, 3));

        let mut second = BufferedGlobal::new(&base, &mut scratch);
        assert_eq!(second.read(8, 8).unwrap(), 0x0303_0303_0303_0303);
        assert_eq!(second.read(62, 4).unwrap(), 0x0303_0303);
        assert_eq!(second.read(16, 1).unwrap(), 3);
        assert_eq!(second.read(128, 8).unwrap(), 0x0303_0303_0303_0303);
        let second = second.finish();
        // The same wave: the second team's log follows the first's.
        assert_eq!((second.effects.clone(), second.validated, second.private_chunks), (4..8, 4, 0));
        assert!(matches!(
            scratch.log()[second.effects],
            [
                GlobalEffect::Load { off: 8, size: 8, observed: 0x0303_0303_0303_0303 },
                GlobalEffect::Load { off: 62, size: 4, observed: 0x0303_0303 },
                GlobalEffect::Load { off: 16, size: 1, observed: 3 },
                GlobalEffect::Load { off: 128, size: 8, observed: 0x0303_0303_0303_0303 },
            ]
        ));
        scratch.start_wave();
        assert!(scratch.log().is_empty());
    }

    // ---- buffered ≡ direct ----------------------------------------------------

    /// 1-, 4- and 8-byte loads and stores at every offset that ends at,
    /// starts at or straddles the first 64-byte chunk boundary — the
    /// fixed-width single-chunk paths and the split path beside them —
    /// read what the direct view reads, and the merged log leaves the
    /// direct view's bytes.
    #[test]
    fn accesses_around_a_chunk_boundary_are_direct() {
        let image: Vec<u8> = (0..192u8).map(|i| i.wrapping_mul(29) ^ 0x5a).collect();
        for size in [1u64, 4, 8] {
            for off in CHUNK as u64 - size - 1..=CHUNK as u64 + 1 {
                let accesses = [
                    Access::Load { off, size },
                    Access::Store { off, size, value: -0x0123_4567_89ab_cdef },
                    Access::Load { off, size },
                    Access::Load { off: off - 1, size },
                    Access::Store { off: off + 1, size, value: 0x1122_3344_5566_7788 },
                    Access::Load { off, size },
                ];
                let mut direct = Region { bytes: image.clone() };
                let mut heap = HeapState { live_allocs: Default::default(), limit: 0 };
                let mut mem = GlobalMem::Direct { region: &mut direct, heap: &mut heap };
                let want: Vec<_> = accesses.iter().map(|a| perform(&mut mem, a)).collect();

                let mut scratch = WaveScratch::default();
                let mut mem = GlobalMem::Buffered(BufferedGlobal::new(&image, &mut scratch));
                let got: Vec<_> = accesses.iter().map(|a| perform(&mut mem, a)).collect();
                assert_eq!(got, want, "{size} bytes at {off}");
                let GlobalMem::Buffered(view) = mem else { unreachable!() };
                let team = view.finish();
                let mut master = Region { bytes: image.clone() };
                assert_eq!(apply_effects(&mut master, &scratch.log()[team.effects]), Ok(true));
                assert_eq!(master.bytes, direct.bytes, "{size} bytes at {off}");
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Access {
        Load { off: u64, size: u64 },
        Store { off: u64, size: u64, value: i64 },
        Atomic { op: AtomicOp, ty: Ty, off: u64, operand: i64, live: bool },
        /// `hit`: expect what is there (the swap stores) instead of `expected`.
        Cas { ty: Ty, off: u64, expected: i64, new: i64, hit: bool },
    }

    /// A region that ends inside a chunk.
    const LEN: usize = 203;

    /// Anywhere, around the first chunk boundary, and around the end of
    /// the region (the last in-range bytes and past them).
    fn arb_off() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..LEN as u64, 61u64..=67, LEN as u64 - 9..LEN as u64 + 3, Just(u64::MAX - 3)]
    }

    fn arb_ty() -> impl Strategy<Value = Ty> {
        prop::sample::select(vec![Ty::I8, Ty::I32, Ty::I64, Ty::F64])
    }

    fn arb_access() -> impl Strategy<Value = Access> {
        let size = || prop::sample::select(vec![1u64, 4, 8, 0, 9]);
        let op = prop::sample::select(vec![AtomicOp::Add, AtomicOp::Min, AtomicOp::Max, AtomicOp::Exchange]);
        prop_oneof![
            3 => (arb_off(), size()).prop_map(|(off, size)| Access::Load { off, size }),
            3 => (arb_off(), size(), any::<i64>()).prop_map(|(off, size, value)| Access::Store { off, size, value }),
            2 => (op, arb_ty(), arb_off(), -4i64..4, any::<bool>())
                .prop_map(|(op, ty, off, operand, live)| Access::Atomic { op, ty, off, operand, live }),
            1 => (arb_ty(), arb_off(), any::<i64>(), any::<i64>(), any::<bool>())
                .prop_map(|(ty, off, expected, new, hit)| Access::Cas { ty, off, expected, new, hit }),
        ]
    }

    /// What a team sees of one access: the value it gets back, or the trap.
    fn perform(mem: &mut GlobalMem<'_>, a: &Access) -> Result<(i64, bool), TrapKind> {
        match *a {
            Access::Load { off, size } => mem.read(off, size).map(|v| (v, false)),
            Access::Store { off, size, value } => mem.write(off, size, value).map(|()| (0, false)),
            Access::Atomic { op, ty, off, operand, live } => {
                let v = if ty.is_float() { RtVal::F(operand as f64 * 0.5) } else { RtVal::I(operand) };
                let old = match mem {
                    GlobalMem::Buffered(view) => view.atomic(op, ty, off, v, live)?,
                    // What `TeamExec::atomic` does in direct mode (held to it
                    // by `exec.rs`'s `a_direct_atomic_is_a_read_a_combine_and_a_write_on_every_segment`).
                    GlobalMem::Direct { .. } => {
                        let old = rtval_from_bits(mem.read(off, ty.size())?, ty);
                        mem.write(off, ty.size(), combine_atomic(op, ty, old, v).to_bits())?;
                        old
                    }
                };
                Ok((old.to_bits(), false))
            }
            Access::Cas { ty, off, expected, new, hit } => {
                let expected = match mem.read(off, ty.size()) {
                    Ok(there) if hit => there,
                    _ => expected,
                };
                match mem {
                    GlobalMem::Buffered(view) => view.cas(ty, off, expected, new).map(|(old, stored)| (old.to_bits(), stored)),
                    // What `TeamExec::cas` does in direct mode (held to it
                    // by the same test).
                    GlobalMem::Direct { .. } => {
                        let old = mem.read(off, ty.size())?;
                        let stored = old == expected;
                        if stored {
                            mem.write(off, ty.size(), new)?;
                        }
                        Ok((old, stored))
                    }
                }
            }
        }
    }

    proptest! {
        /// Whatever a team does to global memory, the buffered view hands
        /// it the values and traps the direct one does, and its merged log
        /// leaves the bytes the direct run leaves. With a byte the team
        /// loaded changed under it, the merge refuses and restores.
        #[test]
        fn buffered_is_direct(
            image in prop::collection::vec(any::<u8>(), LEN..LEN + 1),
            accesses in prop::collection::vec(arb_access(), 1..60),
        ) {
            let mut direct = Region { bytes: image.clone() };
            let mut heap = HeapState { live_allocs: Default::default(), limit: 0 };
            let mut mem = GlobalMem::Direct { region: &mut direct, heap: &mut heap };
            let want: Vec<_> = accesses.iter().map(|a| perform(&mut mem, a)).collect();

            let mut scratch = WaveScratch::default();
            let mut mem = GlobalMem::Buffered(BufferedGlobal::new(&image, &mut scratch));
            let got: Vec<_> = accesses.iter().map(|a| perform(&mut mem, a)).collect();
            prop_assert_eq!(&got, &want);
            let GlobalMem::Buffered(view) = mem else { unreachable!() };
            let team = view.finish();
            let log = &scratch.log()[team.effects];
            prop_assert_eq!(team.validated, log.iter().filter(|e| e.needs_validation()).count());

            let mut master = Region { bytes: image.clone() };
            prop_assert_eq!(apply_effects(&mut master, log), Ok(true));
            prop_assert_eq!(&master.bytes, &direct.bytes);

            // A lower-indexed team got to a byte this one loaded before
            // writing it.
            let mut written = [false; LEN];
            let loaded = log.iter().find_map(|e| {
                let (off, size) = match *e {
                    GlobalEffect::Load { off, size, .. } => {
                        return (off as usize..off as usize + size as usize).find(|&at| !written[at]);
                    }
                    GlobalEffect::Store { off, size, .. } => (off as usize, size as usize),
                    GlobalEffect::Atomic(ref a) => (a.off as usize, a.ty.size() as usize),
                    GlobalEffect::Cas(ref c) => (c.off as usize, c.ty.size() as usize),
                };
                written[off..off + size].fill(true);
                None
            });
            if let Some(at) = loaded {
                let mut master = Region { bytes: image.clone() };
                master.bytes[at] ^= 0x80;
                let before = master.bytes.clone();
                prop_assert_eq!(apply_effects(&mut master, log), Ok(false));
                prop_assert_eq!(&master.bytes, &before);
            }
        }
    }
}
