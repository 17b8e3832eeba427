//! Async streams: ordered queues of memcpy / launch / callback operations
//! with events and cross-stream dependencies.
//!
//! A stream is a FIFO; operations on one stream execute in enqueue order.
//! Across streams the only ordering is through events: a stream whose head
//! is an [`Op::Wait`] stalls until some stream has executed the matching
//! [`Op::Record`]. The executor ([`crate::Host::sync`]) drains all streams
//! with a **seeded round-robin** schedule: deterministic for a given seed,
//! and — because mapping decisions (refcounts, device allocation, launch
//! argument translation) are taken at *enqueue* time in driver program
//! order, leaving streams nothing but byte movement and launches — every
//! seed produces results bit-identical to eager (enqueue-time) execution.
//! The differential suite proves this on every proxy.

use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::RtVal;

use crate::map::BufId;

/// Handle of a stream created by [`crate::Host::stream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamId(pub u32);

/// Handle of an event created by [`crate::Host::event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventId(pub u32);

/// Handle for retrieving the result of an enqueued launch after `sync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(pub u32);

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

/// One stream operation. Device addresses were resolved at enqueue time;
/// executing an op only moves bytes, launches, or touches events.
pub(crate) enum Op {
    /// Copy `len` bytes of host buffer `buf` at `off` to device memory.
    MemcpyTo {
        dev: usize,
        dst: DevPtr,
        buf: BufId,
        off: u64,
        len: u64,
    },
    /// Copy `len` device bytes back into host buffer `buf` at `off`.
    MemcpyFrom {
        dev: usize,
        src: DevPtr,
        buf: BufId,
        off: u64,
        len: u64,
    },
    /// Return an unmapped block to the device's pool. Deferred behind any
    /// `MemcpyFrom` of the same range so the copy reads intact bytes.
    PoolFree { dev: usize, ptr: DevPtr },
    /// Launch a kernel; the outcome lands in `ticket`.
    Launch {
        dev: usize,
        kernel: String,
        launch: Launch,
        args: Vec<RtVal>,
        ticket: Ticket,
    },
    /// Signal an event.
    Record(EventId),
    /// Block the stream until the event is signaled.
    Wait(EventId),
    /// Host-side callback (ordering probe, notification, ...).
    Callback(Box<dyn FnOnce()>),
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::MemcpyTo { dev, buf, off, len, .. } => {
                write!(f, "MemcpyTo(dev{dev}, buf{}[{off}..+{len}])", buf.0)
            }
            Op::MemcpyFrom { dev, buf, off, len, .. } => {
                write!(f, "MemcpyFrom(dev{dev}, buf{}[{off}..+{len}])", buf.0)
            }
            Op::PoolFree { dev, ptr } => write!(f, "PoolFree(dev{dev}, {:#x})", ptr.0),
            Op::Launch { dev, kernel, .. } => write!(f, "Launch(dev{dev}, @{kernel})"),
            Op::Record(e) => write!(f, "Record({})", e.0),
            Op::Wait(e) => write!(f, "Wait({})", e.0),
            Op::Callback(_) => write!(f, "Callback"),
        }
    }
}
