//! Execution errors and traps.

use std::fmt;

/// Reasons a thread (and therefore the kernel) can trap.
#[derive(Clone, Debug, PartialEq)]
pub enum TrapKind {
    /// Memory access outside a live region.
    OutOfBounds,
    /// Dereference of the null pointer.
    NullDeref,
    /// A thread dereferenced another thread's `Local`-space pointer — the
    /// hazard globalization (paper §IV-A2) guards against.
    CrossThreadLocalAccess { owner: u32, accessor: u32 },
    /// Indirect call through a non-function pointer.
    BadIndirectCall,
    /// Call of an unresolved declaration.
    UnresolvedCall(String),
    /// `assume` operand evaluated to false (checked in debug executions,
    /// paper §III-G: assumptions "are implicitly checked in debug runs").
    AssumeViolated,
    /// Explicit `assert.fail` (runtime assertion, §III-G).
    AssertFail,
    /// Threads deadlocked: some waiting at a barrier that can never be
    /// satisfied (e.g. after other threads exited).
    BarrierDeadlock,
    /// Step budget exhausted (runaway kernel).
    FuelExhausted,
    /// Division by zero.
    DivByZero,
    /// Device heap exhausted.
    OutOfMemory,
    /// Free of a pointer that was not allocated by malloc.
    BadFree,
    /// Kernel argument count/type mismatch at launch.
    BadLaunch(String),
    /// The interpreter met IR the verifier would have rejected (e.g. a phi
    /// with no incoming for the taken edge). Well-linked modules never hit
    /// this — `nzomp::pipeline` verifies at link time — but a hand-built
    /// module loaded directly onto a device degrades to this typed error
    /// instead of aborting the process.
    MalformedIr(String),
    /// The device vanished mid-operation (injected by a
    /// [`crate::faults::DeviceFaultKind::Lost`] site, modeling a GPU
    /// falling off the bus / an Xid-style fatal fault). Once lost, every
    /// subsequent host-visible operation on the device returns this trap
    /// until a fresh device replaces it — recovery is the host runtime's
    /// job (`nzomp-host`), never the interpreter's.
    DeviceLost,
    /// The launch made no progress within its step budget — a hang the
    /// host runtime classifies as transient and may retry. Injected by
    /// [`crate::faults::DeviceFaultKind::StallLaunch`]; carries the step
    /// budget that was in effect so the reproducer is in the message.
    Stalled { fuel: u64 },
    /// A transient host<->device memcpy failure (injected by
    /// [`crate::faults::DeviceFaultKind::MemcpyFail`]): the transfer did
    /// not happen, device memory is unchanged, and — faults being
    /// one-shot — an immediate retry succeeds.
    MemcpyFault,
    /// Internal control-flow signal of the parallel engine: the team
    /// executed an operation that cannot be buffered (device
    /// `malloc`/`free`) and must be re-run in direct/sequential mode.
    /// `Device::launch` always intercepts it; user code never observes it.
    #[doc(hidden)]
    ParallelBailout,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::OutOfBounds => write!(f, "out-of-bounds memory access"),
            TrapKind::NullDeref => write!(f, "null pointer dereference"),
            TrapKind::CrossThreadLocalAccess { owner, accessor } => write!(
                f,
                "thread {accessor} dereferenced local memory of thread {owner}"
            ),
            TrapKind::BadIndirectCall => write!(f, "indirect call through non-function pointer"),
            TrapKind::UnresolvedCall(n) => write!(f, "call of unresolved declaration @{n}"),
            TrapKind::AssumeViolated => write!(f, "assume() operand was false"),
            TrapKind::AssertFail => write!(f, "device assertion failed"),
            TrapKind::BarrierDeadlock => write!(f, "barrier deadlock"),
            TrapKind::FuelExhausted => write!(f, "step budget exhausted"),
            TrapKind::DivByZero => write!(f, "integer division by zero"),
            TrapKind::OutOfMemory => write!(f, "device heap exhausted"),
            TrapKind::BadFree => write!(f, "free() of unknown pointer"),
            TrapKind::BadLaunch(m) => write!(f, "bad launch: {m}"),
            TrapKind::MalformedIr(m) => write!(f, "malformed IR reached the interpreter: {m}"),
            TrapKind::DeviceLost => write!(f, "device lost"),
            TrapKind::Stalled { fuel } => write!(
                f,
                "kernel stalled: watchdog fired after {fuel} steps without completion"
            ),
            TrapKind::MemcpyFault => write!(f, "transient memcpy failure"),
            TrapKind::ParallelBailout => {
                write!(f, "internal: team requires sequential re-execution")
            }
        }
    }
}

/// A trap with location context.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecError {
    pub kind: TrapKind,
    pub team: u32,
    pub thread: u32,
    pub func: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trap in team {} thread {} (@{}): {}",
            self.team, self.thread, self.func, self.kind
        )
    }
}

impl std::error::Error for ExecError {}
