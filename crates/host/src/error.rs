//! Typed, panic-free errors of the offload host runtime.
//!
//! [`HostError`] folds every failure class a host-side offload operation
//! can hit — compile pipeline failures, device traps, mapping-table
//! misuse, and unknown handles — into one error the drivers (and
//! the differential harness) can inspect, log, and continue past, in the
//! same spirit as [`nzomp::CompileError`] and [`nzomp_vgpu::ExecError`]
//! (the PR 1 robustness contract).

use std::fmt;

use nzomp::CompileError;
use nzomp_vgpu::{ExecError, TrapKind};

use crate::map::BufId;
use crate::stream::Ticket;

/// Why a mapping-table operation was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum MapError {
    /// A new map range partially overlaps an existing present-table entry
    /// (neither contained in it nor disjoint from it) — the libomptarget
    /// "trying to map a partially overlapping buffer" condition.
    PartialOverlap {
        buf: BufId,
        new: (u64, u64),
        existing: (u64, u64),
    },
    /// A `from`/`release`/`delete` (or a launch argument lookup) named a
    /// range with no containing present-table entry.
    NotPresent { buf: BufId, off: u64, len: u64 },
    /// The map range lies outside its host buffer.
    HostRange {
        buf: BufId,
        off: u64,
        len: u64,
        buf_len: u64,
    },
    /// API misuse caught at the call site (zero-length map, an exit-only
    /// map kind passed to `enter`, ...).
    Misuse(&'static str),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::PartialOverlap { buf, new, existing } => write!(
                f,
                "map range [{}, {}) of buffer {} partially overlaps mapped [{}, {})",
                new.0,
                new.0 + new.1,
                buf.0,
                existing.0,
                existing.0 + existing.1
            ),
            MapError::NotPresent { buf, off, len } => write!(
                f,
                "range [{off}, {}) of buffer {} is not present on the device",
                off + len,
                buf.0
            ),
            MapError::HostRange { buf, off, len, buf_len } => write!(
                f,
                "range [{off}, {}) exceeds buffer {} of {buf_len} bytes",
                off + len,
                buf.0
            ),
            MapError::Misuse(m) => write!(f, "invalid mapping operation: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A stream id the host never handed out, or a launch ticket it never
/// handed out or has since retired.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    UnknownStream(u32),
    UnknownTicket(Ticket),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            StreamError::UnknownTicket(t) => write!(f, "unknown launch ticket {}", t.0),
        }
    }
}

impl std::error::Error for StreamError {}

/// Why [`crate::Host::retire`] or [`crate::Host::unregister`] refused to
/// free what it was handed: the host still has work or state that names
/// it. Nothing was freed.
#[derive(Clone, Debug, PartialEq)]
pub enum InUse {
    /// A queued operation reads or writes the buffer: sync first.
    Queued(BufId),
    /// A present-table entry maps the buffer on `device`: exit its maps
    /// first.
    Mapped { buf: BufId, device: usize },
    /// The launch has not run: sync first.
    Pending(Ticket),
}

impl fmt::Display for InUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InUse::Queued(b) => write!(f, "host buffer {} is named by a queued operation", b.0),
            InUse::Mapped { buf, device } => {
                write!(f, "host buffer {} is mapped on device {device}", buf.0)
            }
            InUse::Pending(t) => write!(f, "launch ticket {} has not run", t.0),
        }
    }
}

/// Any failure of the offload host runtime. Never a panic: drivers match
/// on the class and decide whether to retry, skip, or surface.
#[derive(Debug)]
pub enum HostError {
    /// The compile pipeline refused the application module.
    Compile(CompileError),
    /// A device trap during a launch (or a host-side memcpy out of
    /// bounds) — the launch's ticket also records it.
    Exec(ExecError),
    /// Present-table / mapping misuse.
    Map(MapError),
    /// An unknown stream id or launch ticket.
    Stream(StreamError),
    /// A device index outside the registered fleet.
    NoDevice { device: usize, devices: usize },
    /// An image id that was never produced by `load_image`, or whose
    /// entry the compile cache has since evicted.
    UnknownImage(u64),
    /// A host buffer id that was never registered, or whose buffer has
    /// since been released.
    UnknownBuffer(BufId),
    /// Every slot of a host id space (`what`: buffers or launch tickets)
    /// is live, so no id can be minted.
    IdsExhausted(&'static str),
    /// A release was refused: the host still uses what it names.
    InUse(InUse),
    /// Every device in the fleet has been lost and quarantined; there is
    /// nothing left to fail over to. The typed terminal outcome of
    /// graceful degradation — never a panic.
    FleetLost { devices: usize },
    /// [`crate::Host::bind_image`] would reload a device that still has
    /// work queued: the queued operations were translated against the old
    /// device's memory and name the old image's kernels. Nothing changed —
    /// [`crate::Host::sync`], then bind again.
    DeviceBusy { device: usize, queued_ops: u64, pending_launches: u64 },
    /// Journal replay on a replacement device diverged from the recorded
    /// history (an internal recovery invariant broke). Carries a
    /// diagnostic; always a program error, never retried.
    Replay(String),
}

/// Coarse failure classes the recovery layer dispatches on — the
/// classification promised by the [`HostError`] doc above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying on the same device after backoff: transient memcpy
    /// faults and stalled launches (a stall can be contention).
    Transient,
    /// The device is gone; retrying on it is pointless. Fail over to a
    /// replacement (or surface `FleetLost` when none remains).
    Permanent,
    /// The program (or the host API caller) is wrong: compile errors,
    /// genuine kernel traps, mapping misuse. Retrying would reproduce the
    /// identical failure — surface immediately.
    Program,
}

impl HostError {
    /// Classify for the recovery policy: retry ([`ErrorClass::Transient`]),
    /// fail over ([`ErrorClass::Permanent`]), or surface
    /// ([`ErrorClass::Program`]).
    pub fn class(&self) -> ErrorClass {
        match self {
            HostError::Exec(e) => match e.kind {
                TrapKind::DeviceLost => ErrorClass::Permanent,
                TrapKind::MemcpyFault | TrapKind::Stalled { .. } => ErrorClass::Transient,
                _ => ErrorClass::Program,
            },
            HostError::FleetLost { .. } => ErrorClass::Permanent,
            HostError::Compile(_)
            | HostError::Map(_)
            | HostError::Stream(_)
            | HostError::NoDevice { .. }
            | HostError::UnknownImage(_)
            | HostError::UnknownBuffer(_)
            | HostError::IdsExhausted(_)
            | HostError::InUse(_)
            | HostError::DeviceBusy { .. }
            | HostError::Replay(_) => ErrorClass::Program,
        }
    }

    /// Whether a retry of the same operation can possibly succeed
    /// (on the same device for [`ErrorClass::Transient`], on a
    /// replacement for [`ErrorClass::Permanent`] device loss).
    pub fn is_retryable(&self) -> bool {
        match self.class() {
            ErrorClass::Transient => true,
            // Device loss is recoverable by failover; fleet exhaustion is
            // not — there is no device left to retry on.
            ErrorClass::Permanent => !matches!(self, HostError::FleetLost { .. }),
            ErrorClass::Program => false,
        }
    }
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Compile(e) => write!(f, "offload compile failed: {e}"),
            HostError::Exec(e) => write!(f, "offload launch trapped: {e}"),
            HostError::Map(e) => write!(f, "offload mapping failed: {e}"),
            HostError::Stream(e) => write!(f, "offload stream failed: {e}"),
            HostError::NoDevice { device, devices } => {
                write!(f, "device {device} out of range ({devices} registered)")
            }
            HostError::UnknownImage(i) => write!(f, "unknown kernel image {i}"),
            HostError::UnknownBuffer(b) => write!(f, "unknown host buffer {}", b.0),
            HostError::IdsExhausted(what) => write!(f, "every {what} id is in use"),
            HostError::InUse(e) => write!(f, "release refused: {e}"),
            HostError::FleetLost { devices } => {
                write!(f, "all {devices} device(s) lost; offload fleet exhausted")
            }
            HostError::DeviceBusy { device, queued_ops, pending_launches } => write!(
                f,
                "device {device} cannot be rebound with {queued_ops} operation(s) queued \
                 and {pending_launches} launch(es) pending; sync first"
            ),
            HostError::Replay(m) => write!(f, "recovery replay diverged: {m}"),
        }
    }
}

impl From<CompileError> for HostError {
    fn from(e: CompileError) -> HostError {
        HostError::Compile(e)
    }
}

impl From<ExecError> for HostError {
    fn from(e: ExecError) -> HostError {
        HostError::Exec(e)
    }
}

impl From<MapError> for HostError {
    fn from(e: MapError) -> HostError {
        HostError::Map(e)
    }
}

impl From<StreamError> for HostError {
    fn from(e: StreamError) -> HostError {
        HostError::Stream(e)
    }
}

impl std::error::Error for HostError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(kind: TrapKind) -> HostError {
        HostError::Exec(ExecError {
            kind,
            team: 0,
            thread: 0,
            func: "k".into(),
        })
    }

    /// Every `HostError` variant (and every `TrapKind` under `Exec`)
    /// lands in exactly the class the recovery policy expects. This is
    /// the exhaustive contract test for the "drivers match on the class"
    /// promise of the `HostError` doc.
    #[test]
    fn every_variant_classifies_as_documented() {
        use crate::slab::Key;
        use ErrorClass::*;
        let key = |slot| Key { slot, gen: 0 };

        // Transient: the retry-worthy device hiccups.
        for e in [
            exec(TrapKind::MemcpyFault),
            exec(TrapKind::Stalled { fuel: 100 }),
        ] {
            assert_eq!(e.class(), Transient, "{e}");
            assert!(e.is_retryable(), "{e}");
        }

        // Permanent: device gone (retryable by failover), fleet gone
        // (terminal).
        let lost = exec(TrapKind::DeviceLost);
        assert_eq!(lost.class(), Permanent);
        assert!(lost.is_retryable(), "device loss recovers via failover");
        let fleet = HostError::FleetLost { devices: 4 };
        assert_eq!(fleet.class(), Permanent);
        assert!(!fleet.is_retryable(), "nothing left to fail over to");

        // Program: genuine kernel traps — retrying reproduces them.
        for kind in [
            TrapKind::OutOfBounds,
            TrapKind::NullDeref,
            TrapKind::CrossThreadLocalAccess { owner: 0, accessor: 1 },
            TrapKind::BadIndirectCall,
            TrapKind::UnresolvedCall("f".into()),
            TrapKind::AssumeViolated,
            TrapKind::AssertFail,
            TrapKind::BarrierDeadlock,
            TrapKind::FuelExhausted,
            TrapKind::DivByZero,
            TrapKind::OutOfMemory,
            TrapKind::BadFree,
            TrapKind::BadLaunch("m".into()),
            TrapKind::MalformedIr("m".into()),
        ] {
            let e = exec(kind);
            assert_eq!(e.class(), Program, "{e}");
            assert!(!e.is_retryable(), "{e}");
        }

        // Program: host-side misuse and pipeline failures.
        for e in [
            HostError::Map(MapError::Misuse("zero-length map")),
            HostError::Stream(StreamError::UnknownStream(7)),
            HostError::Stream(StreamError::UnknownTicket(Ticket(key(2)))),
            HostError::NoDevice { device: 9, devices: 2 },
            HostError::UnknownImage(3),
            HostError::UnknownBuffer(BufId(key(5))),
            HostError::IdsExhausted("host buffer"),
            HostError::InUse(InUse::Queued(BufId(key(1)))),
            HostError::InUse(InUse::Mapped { buf: BufId(key(1)), device: 0 }),
            HostError::InUse(InUse::Pending(Ticket(key(3)))),
            HostError::DeviceBusy { device: 0, queued_ops: 3, pending_launches: 1 },
            HostError::Replay("ptr mismatch".into()),
        ] {
            assert_eq!(e.class(), Program, "{e}");
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn new_variants_display() {
        let fl = HostError::FleetLost { devices: 4 };
        assert_eq!(fl.to_string(), "all 4 device(s) lost; offload fleet exhausted");
        let r = HostError::Replay("grow returned 0x40, journal says 0x80".into());
        assert_eq!(
            r.to_string(),
            "recovery replay diverged: grow returned 0x40, journal says 0x80"
        );
    }
}
