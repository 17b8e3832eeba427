//! The ref-counted present table: `map(to/from/tofrom/alloc/release/
//! delete)` semantics with nested `target data` environments.
//!
//! This is the host half of the paper's nested data environments
//! (§III-C, `crates/rt/src/abi.rs`): the device runtime walks its ICV
//! environment chain, the host runtime keeps the mirror structure — which
//! host ranges are *present* on the device, at which device address, and
//! how many enclosing data environments still reference them.
//!
//! Semantics follow OpenMP 5.1 / libomptarget:
//!
//! * **enter** (`to`/`tofrom`/`from`/`alloc`): if a containing entry is
//!   present, its refcount is incremented and **no transfer happens**
//!   (presence wins). Otherwise device memory is pool-allocated and, for
//!   `to`/`tofrom`, the host bytes are copied in.
//! * **exit** (`from`/`tofrom`/`release`/`delete`): the containing
//!   entry's refcount is decremented; `from`/`tofrom` copy device→host
//!   only when the count reaches zero (outermost exit); at zero the block
//!   returns to the pool. `delete` forces the count to zero without any
//!   transfer.
//! * A range that **partially overlaps** a present entry (neither
//!   contained nor disjoint) is a typed [`MapError::PartialOverlap`].
//!
//! The table only decides; [`crate::Host`] performs. An enter is
//! [`PresentTable::enter_present`] (count a reference to a present range),
//! else the pool's pick, its op run through the host's one door to the
//! device, and [`PresentTable::insert`] once that op landed — a faulted op
//! leaves the table as it was. [`PresentTable::prepare_exit`] takes its
//! refcount decision at once and *describes* the copy-back and the free,
//! which the host's queue performs later. Every decision is taken in
//! driver program order, so deferring the byte movement cannot perturb
//! device memory layout.

use nzomp_vgpu::memory::DevPtr;

use crate::error::MapError;
use crate::slab::Key;

/// Id of a registered host buffer (see [`crate::Host::register_bytes`]):
/// a slot of the host's buffer slab and its generation, so an id kept past
/// the buffer's release names nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufId(pub Key);

/// A map clause kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// `map(to:)` — copy host→device at entry.
    To,
    /// `map(from:)` — allocate at entry, copy device→host at outermost exit.
    From,
    /// `map(tofrom:)` — both.
    ToFrom,
    /// `map(alloc:)` — device-only storage, no transfers.
    Alloc,
    /// `map(release:)` — exit-only: decrement, no transfer.
    Release,
    /// `map(delete:)` — exit-only: force the count to zero, no transfer.
    Delete,
}

/// One map clause: a byte range of a host buffer plus its kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapSpec {
    pub buf: BufId,
    pub off: u64,
    pub len: u64,
    pub kind: MapKind,
}

impl MapSpec {
    pub fn new(buf: BufId, off: u64, len: u64, kind: MapKind) -> MapSpec {
        MapSpec { buf, off, len, kind }
    }

    /// Whole-buffer map of `len` bytes.
    pub fn whole(buf: BufId, len: u64, kind: MapKind) -> MapSpec {
        MapSpec::new(buf, 0, len, kind)
    }
}

/// One present-table entry: a mapped range and its device block.
#[derive(Clone, Copy, Debug)]
pub struct PresentEntry {
    pub buf: BufId,
    pub off: u64,
    pub len: u64,
    pub dev_ptr: DevPtr,
    /// How many data environments currently reference the range.
    pub refs: u32,
}

/// The per-device present table.
#[derive(Default)]
pub struct PresentTable {
    entries: Vec<PresentEntry>,
    /// Host→device transfers issued (presence suppresses repeats — see
    /// `nested_data_environments_transfer_at_outermost_exit_only`).
    pub transfers_to: u64,
    /// Device→host transfers issued.
    pub transfers_from: u64,
}

/// What the caller must still do after [`PresentTable::prepare_exit`]:
/// copy the device range back to the host (outermost `from`) and/or
/// return the block to the pool — in that order.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExitAction {
    /// `(device address of the spec range, host offset, length)`.
    pub copy: Option<(DevPtr, u64, u64)>,
    /// Block to free once any copy has been performed.
    pub free: Option<DevPtr>,
}

/// Relation of a requested range to an entry.
enum Overlap {
    Disjoint,
    Contained,
    Partial,
}

fn classify(e: &PresentEntry, buf: BufId, off: u64, len: u64) -> Overlap {
    let (new_end, e_end) = (off.saturating_add(len), e.off.saturating_add(e.len));
    if e.buf != buf || new_end <= e.off || e_end <= off {
        return Overlap::Disjoint;
    }
    if e.off <= off && new_end <= e_end {
        return Overlap::Contained;
    }
    Overlap::Partial
}

impl PresentTable {
    pub fn new() -> PresentTable {
        PresentTable::default()
    }

    /// All live entries (diagnostics and the property-test shadow check).
    pub fn entries(&self) -> &[PresentEntry] {
        &self.entries
    }

    /// Find the entry containing `(buf, off, len)`, or the typed error.
    fn find(&self, buf: BufId, off: u64, len: u64) -> Result<usize, MapError> {
        for (i, e) in self.entries.iter().enumerate() {
            match classify(e, buf, off, len) {
                Overlap::Contained => return Ok(i),
                Overlap::Partial => {
                    return Err(MapError::PartialOverlap {
                        buf,
                        new: (off, len),
                        existing: (e.off, e.len),
                    })
                }
                Overlap::Disjoint => {}
            }
        }
        Err(MapError::NotPresent { buf, off, len })
    }

    /// Device address of host location `(buf, off)` — for launch-argument
    /// translation. The offset within the mapped range is preserved.
    pub fn lookup(&self, buf: BufId, off: u64) -> Result<DevPtr, MapError> {
        let i = self.find(buf, off, 1)?;
        let e = &self.entries[i];
        Ok(e.dev_ptr.add_bytes((off - e.off) as i64))
    }

    /// Phase one of an enter: check `spec` against the host buffer
    /// (`host_len` bytes) and, when a containing entry is present, count
    /// the reference and return the spec range's device address — no
    /// transfer (presence wins). `Ok(None)`: the range is absent, and the
    /// caller allocates it and [`PresentTable::insert`]s it.
    pub fn enter_present(&mut self, spec: MapSpec, host_len: u64) -> Result<Option<DevPtr>, MapError> {
        if spec.len == 0 {
            return Err(MapError::Misuse("zero-length map range"));
        }
        if matches!(spec.kind, MapKind::Release | MapKind::Delete) {
            return Err(MapError::Misuse("release/delete are exit-only map kinds"));
        }
        if spec.off.saturating_add(spec.len) > host_len {
            return Err(MapError::HostRange {
                buf: spec.buf,
                off: spec.off,
                len: spec.len,
                buf_len: host_len,
            });
        }
        match self.find(spec.buf, spec.off, spec.len) {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.refs += 1;
                Ok(Some(e.dev_ptr.add_bytes((spec.off - e.off) as i64)))
            }
            Err(MapError::NotPresent { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Phase two of an enter that found `spec` absent: record it at
    /// `dev_ptr`, a block whose allocation has landed. Returns whether a
    /// host→device copy is owed (a fresh `to`/`tofrom` entry).
    pub fn insert(&mut self, spec: MapSpec, dev_ptr: DevPtr) -> bool {
        self.entries.push(PresentEntry {
            buf: spec.buf,
            off: spec.off,
            len: spec.len,
            dev_ptr,
            refs: 1,
        });
        let copy = matches!(spec.kind, MapKind::To | MapKind::ToFrom);
        self.transfers_to += u64::from(copy);
        copy
    }

    /// Phase one of an exit: decide the refcount outcome now (in driver
    /// program order) and describe the deferred work. The entry is
    /// removed from the table when the count hits zero — the caller owns
    /// the copy/free described by the returned [`ExitAction`].
    pub fn prepare_exit(&mut self, spec: MapSpec) -> Result<ExitAction, MapError> {
        if spec.len == 0 {
            return Err(MapError::Misuse("zero-length map range"));
        }
        if matches!(spec.kind, MapKind::To | MapKind::Alloc) {
            return Err(MapError::Misuse("to/alloc are enter-only map kinds"));
        }
        let i = self.find(spec.buf, spec.off, spec.len)?;
        let e = &mut self.entries[i];
        if spec.kind == MapKind::Delete {
            e.refs = 1; // force the decrement below to hit zero
        }
        e.refs -= 1;
        if e.refs > 0 {
            return Ok(ExitAction::default());
        }
        let entry = self.entries.remove(i);
        let copy = (matches!(spec.kind, MapKind::From | MapKind::ToFrom)).then(|| {
            self.transfers_from += 1;
            (
                entry.dev_ptr.add_bytes((spec.off - entry.off) as i64),
                spec.off,
                spec.len,
            )
        });
        Ok(ExitAction {
            copy,
            free: Some(entry.dev_ptr),
        })
    }
}
