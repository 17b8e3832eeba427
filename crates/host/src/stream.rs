//! The host's op queue: memcpys, launches and pool frees, run in the
//! order they were enqueued.
//!
//! A host has one FIFO. [`crate::Host::sync`] pops and runs its ops in
//! enqueue order and stops at the first error, leaving the rest queued.
//! Mapping decisions (refcounts, device allocation, launch argument
//! translation) are taken at *enqueue* time in driver program order, so
//! the queue holds nothing but byte movement and launches, and draining
//! it is bit-identical to eager (enqueue-time) execution. The
//! differential suite proves this on every proxy.

use std::collections::VecDeque;
use std::sync::Arc;

use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::RtVal;

use crate::map::BufId;
use crate::slab::Key;

/// A validated name for the host's queue, minted by
/// [`crate::Host::stream`]. Every id names the same queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamId(pub u32);

/// Handle for retrieving the result of an enqueued launch after `sync`: a
/// slot of the host's ticket slab and its generation, so a ticket kept
/// past its region's retirement names nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(pub Key);

/// A kernel launch argument, host-side: buffer references are translated
/// to device addresses through the present table when the launch is
/// enqueued (the buffer must be mapped by then).
#[derive(Clone, Debug)]
pub enum KArg {
    /// Device address of host buffer byte 0.
    Buf(BufId),
    /// A plain scalar.
    Val(RtVal),
}

/// One operation on a device slot's [`nzomp_vgpu::Device`] — the value
/// the queue holds, [`crate::Host`]'s one door executes, and the journal
/// keeps for failover to execute again (allocations, zero-fills and
/// uploads only: a launch is kept as a checkpoint, a read-back not at
/// all). Device addresses were resolved when it was built.
pub enum DevOp {
    /// `Device::alloc(size)` returned `at` (a fresh pool block). Bump
    /// allocation is deterministic, so running it again on a replacement
    /// device restored to the same checkpoint must return `at` again —
    /// checked.
    Grow { size: u64, at: DevPtr },
    /// Zero-fill a reused pool block before it is handed out.
    Zero { ptr: DevPtr, len: u64 },
    /// Land `bytes` at `ptr`.
    Write { ptr: DevPtr, bytes: Payload },
    /// Launch a kernel, named by the bound image's shared name; the
    /// outcome (metrics or the trap) lands in `ticket` every time it runs,
    /// the last (retried) run winning.
    Launch {
        kernel: Arc<str>,
        launch: Launch,
        args: Vec<RtVal>,
        ticket: Ticket,
    },
    /// Copy `len` device bytes back into host buffer `buf` at `off`.
    ReadBack {
        src: DevPtr,
        buf: BufId,
        off: u64,
        len: u64,
    },
}

/// The bytes of a [`DevOp::Write`].
pub enum Payload {
    /// `len` bytes of host buffer `buf` at `off`, read when the op runs: a
    /// first execution uploads straight from the buffer.
    Host { buf: BufId, off: u64, len: u64 },
    /// The bytes themselves: what the journal keeps, because the host
    /// buffer they came from may be overwritten before a replay needs them.
    Owned(Vec<u8>),
}

impl std::fmt::Display for DevOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DevOp::Grow { size, at } => write!(f, "alloc({size}) at {at:?}"),
            DevOp::Zero { ptr, len } => write!(f, "zero-fill of {len} bytes at {ptr:?}"),
            DevOp::Write { ptr, bytes: Payload::Host { buf, len, .. } } => {
                write!(f, "write of {len} bytes of buffer {} at {ptr:?}", buf.0)
            }
            DevOp::Write { ptr, bytes: Payload::Owned(bytes) } => {
                write!(f, "write of {} bytes at {ptr:?}", bytes.len())
            }
            DevOp::Launch { kernel, .. } => write!(f, "launch @{kernel}"),
            DevOp::ReadBack { src, buf, len, .. } => {
                write!(f, "readback of {len} bytes at {src:?} into buffer {}", buf.0)
            }
        }
    }
}

/// One queued operation: executing it runs a [`DevOp`] or returns a block
/// to the pool — every mapping decision was taken at enqueue time.
pub(crate) enum Op {
    /// A device operation complete at enqueue time: an upload (of the
    /// bytes its host buffer holds when it runs), a launch, a read-back.
    Dev { dev: usize, op: DevOp },
    /// Return an unmapped block to the device's pool. Deferred behind any
    /// read-back of the same range so the copy reads intact bytes.
    PoolFree { dev: usize, ptr: DevPtr },
}

impl Op {
    /// The device slot the operation touches.
    fn device(&self) -> usize {
        match self {
            Op::Dev { dev, .. } | Op::PoolFree { dev, .. } => *dev,
        }
    }

    /// Whether running the operation reads or writes host buffer `b`.
    pub(crate) fn names(&self, b: BufId) -> bool {
        match self {
            Op::Dev { op: DevOp::Write { bytes: Payload::Host { buf, .. }, .. } | DevOp::ReadBack { buf, .. }, .. } => {
                *buf == b
            }
            _ => false,
        }
    }
}

/// Device `dev`'s backlog in `queue`: `(launches, operations)` enqueued
/// for it and not yet run — the load LeastLoaded places by, what
/// [`crate::HostError::DeviceBusy`] reports, and what
/// [`crate::DeviceStats`] shows. The queue is the one record of it.
pub(crate) fn backlog(queue: &VecDeque<Op>, dev: usize) -> (u64, u64) {
    let launch = |op: &Op| matches!(op, Op::Dev { op: DevOp::Launch { .. }, .. });
    queue
        .iter()
        .filter(|op| op.device() == dev)
        .fold((0, 0), |(launches, ops), op| (launches + u64::from(launch(op)), ops + 1))
}
