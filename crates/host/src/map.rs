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
//! The table operations are split in two phases so the async stream layer
//! can defer byte movement without perturbing device memory layout:
//! [`PresentTable::enter_alloc`] / [`PresentTable::prepare_exit`] mutate
//! the table (refcounts, pool allocation, entry removal) synchronously —
//! in driver program order — and merely *describe* the transfer, which
//! the stream executor performs later. The combined [`PresentTable::enter`]
//! / [`PresentTable::exit`] perform everything immediately (the semantic
//! reference, used by the property tests).

use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::{Device, ExecError};

use crate::error::MapError;
use crate::pool::DevicePool;
use crate::stream::DevOp;

/// Id of a registered host buffer (see [`crate::Host::register_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufId(pub u32);

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

/// What [`PresentTable::enter_alloc`] decided and did.
pub struct EnterAction {
    /// Device address of the spec range.
    pub ptr: DevPtr,
    /// A host→device copy is owed (fresh `to`/`tofrom` entry).
    pub copy: bool,
    /// What the step did to device memory: the fresh allocation or the
    /// reused block's zero-fill. `None` for a pure refcount bump.
    pub did: Option<DevOp>,
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

    /// Phase one of an enter: refcount or allocate, **no transfer**.
    pub fn enter_alloc(
        &mut self,
        spec: MapSpec,
        dev: &mut Device,
        pool: &mut DevicePool,
        host_len: u64,
    ) -> Result<EnterAction, MapStepError> {
        if spec.len == 0 {
            return Err(MapError::Misuse("zero-length map range").into());
        }
        if matches!(spec.kind, MapKind::Release | MapKind::Delete) {
            return Err(MapError::Misuse("release/delete are exit-only map kinds").into());
        }
        if spec.off.saturating_add(spec.len) > host_len {
            return Err(MapError::HostRange {
                buf: spec.buf,
                off: spec.off,
                len: spec.len,
                buf_len: host_len,
            }
            .into());
        }
        match self.find(spec.buf, spec.off, spec.len) {
            Ok(i) => {
                // Present: refcount up, no transfer (presence wins).
                let e = &mut self.entries[i];
                e.refs += 1;
                Ok(EnterAction {
                    ptr: e.dev_ptr.add_bytes((spec.off - e.off) as i64),
                    copy: false,
                    did: None,
                })
            }
            Err(MapError::NotPresent { .. }) => {
                let (dev_ptr, did) = pool.alloc(dev, spec.len).map_err(MapStepError::Exec)?;
                self.entries.push(PresentEntry {
                    buf: spec.buf,
                    off: spec.off,
                    len: spec.len,
                    dev_ptr,
                    refs: 1,
                });
                let copy = matches!(spec.kind, MapKind::To | MapKind::ToFrom);
                if copy {
                    self.transfers_to += 1;
                }
                Ok(EnterAction { ptr: dev_ptr, copy, did: Some(did) })
            }
            Err(e) => Err(e.into()),
        }
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

    /// Immediate-mode enter: [`PresentTable::enter_alloc`] plus the
    /// host→device copy it describes. Returns the device address.
    pub fn enter(
        &mut self,
        spec: MapSpec,
        dev: &mut Device,
        pool: &mut DevicePool,
        host: &[u8],
    ) -> Result<DevPtr, MapStepError> {
        let entered = self.enter_alloc(spec, dev, pool, host.len() as u64)?;
        if entered.copy {
            let bytes = &host[spec.off as usize..(spec.off + spec.len) as usize];
            dev.write_bytes(entered.ptr, bytes).map_err(MapStepError::Exec)?;
        }
        Ok(entered.ptr)
    }

    /// Immediate-mode exit: [`PresentTable::prepare_exit`] plus the copy
    /// and free it describes.
    pub fn exit(
        &mut self,
        spec: MapSpec,
        dev: &mut Device,
        pool: &mut DevicePool,
        host: &mut [u8],
    ) -> Result<(), MapStepError> {
        let action = self.prepare_exit(spec)?;
        if let Some((dev_ptr, host_off, len)) = action.copy {
            let bytes = dev
                .read_bytes(dev_ptr, len as usize)
                .map_err(MapStepError::Exec)?;
            host[host_off as usize..(host_off + len) as usize].copy_from_slice(&bytes);
        }
        if let Some(ptr) = action.free {
            pool.free(ptr);
        }
        Ok(())
    }
}

/// A mapping step fails either as table misuse ([`MapError`]) or as a
/// device-side memcpy trap ([`ExecError`]).
#[derive(Debug)]
pub enum MapStepError {
    Map(MapError),
    Exec(ExecError),
}

impl From<MapError> for MapStepError {
    fn from(e: MapError) -> MapStepError {
        MapStepError::Map(e)
    }
}
