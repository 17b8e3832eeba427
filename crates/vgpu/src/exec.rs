//! The execution-backend seam: everything about running one team that is
//! *not* opcode dispatch.
//!
//! A [`TeamExec`] owns the team-local machine state — shared memory, the
//! global-memory view, cycle/event counters, the fuel budget, the fault
//! plan, and the sanitizer — performs every effect an op has on it
//! (memory accesses, atomics, compare-and-swap, barrier arrival, the
//! device heap, call checks), and drives the run-to-synchronization-point
//! scheduler, which recycles one thread context from each returned thread
//! to the next. How one thread actually steps through a kernel — decoding
//! operands, charging cycles, writing results, control flow — is
//! delegated to an [`ExecBackend`]:
//!
//! * [`crate::interp::InterpBackend`] — the tree-walking reference
//!   interpreter, stepping IR instructions directly;
//! * `bytecode::BcBackend` — the register-allocated bytecode
//!   tier, dispatching pre-lowered ops.
//!
//! The backend contract (see `docs/exec-tiers.md`) is exact, not
//! approximate: one dispatched op costs one fuel unit and one step, fault
//! polls fire on the step counter *before* the step executes, trap kinds
//! and messages are identical for identical programs, and every sanitizer
//! hook sees the same accesses at the same [`IrLoc`]s. That is what lets
//! the wave engine (`par.rs`), fault campaigns, and all differential
//! suites treat the tier as an invisible knob.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use nzomp_ir::inst::AtomicOp;
use nzomp_ir::{Module, Ty};

use crate::bytecode::{BcBackend, BcModule};
use crate::cost;
use crate::device::{Image, Launch};
use crate::error::TrapKind;
use crate::faults::{FaultAction, FaultPlan, FaultSite};
use crate::gmem::{rtval_from_bits, GlobalMem};
use crate::interp::InterpBackend;
use crate::memory::{load_le, store_le, DevPtr, Region, Segment, LOCAL_STACK_BYTES};
use crate::ops::combine_atomic;
use crate::sanitize::{AccessKind, BarrierArrival, IrLoc, ModuleSan, TeamSan};
use crate::value::RtVal;

/// Typed error for a declaration's body and for engine-invariant
/// violations; an image the verifier rejects never runs. Never a process
/// abort.
pub(crate) fn malformed(msg: impl Into<String>) -> TrapKind {
    TrapKind::MalformedIr(msg.into())
}

/// Which execution backend a launch runs on. Both tiers are bit-identical
/// by contract; `Bytecode` trades a one-time lowering pass for a much
/// faster per-op dispatch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTier {
    /// Tree-walking IR interpreter (the semantic reference).
    Interp,
    /// Register-allocated, pre-resolved bytecode (see `crate::bytecode`).
    Bytecode,
}

/// Where each module global lives on the device.
#[derive(Clone, Debug, Default)]
pub struct GlobalLayout {
    /// Encoded base address per `GlobalId` index.
    pub addr_of: Vec<DevPtr>,
    /// Bytes of statically allocated shared memory per team.
    pub shared_size: u64,
    /// Bytes of the global segment occupied by global-space globals.
    pub global_static_size: u64,
    /// Bytes of the constant segment.
    pub const_size: u64,
}

/// Device-heap allocator state (bump allocation into the global region).
#[derive(Debug, Default)]
pub struct HeapState {
    pub live_allocs: HashMap<u64, u64>, // offset -> size
    pub limit: u64,
}

/// Everything a team runs under that is fixed for the whole launch. Built
/// once by `Device::launch` and shared immutably by every team — and, on
/// the parallel path, by every worker thread (all borrows are `Sync`).
pub(crate) struct LaunchCtx<'a> {
    pub image: &'a Image,
    /// Lowered bytecode when the launch runs on the bytecode tier; `None`
    /// runs it on the interpreter, the oracle, which only a launch that
    /// asks for it reaches. The tier decides only how operands are decoded
    /// and control flows; every effect is [`TeamExec`]'s, so both tiers
    /// produce bit-identical runs.
    pub bc: Option<&'a BcModule>,
    pub faults: Option<&'a FaultPlan>,
    pub check_assumes: bool,
    /// Kernel function index within the module.
    pub kernel: u32,
    pub args: &'a [RtVal],
    pub launch: Launch,
    /// Static plus dynamic shared memory per team, in bytes.
    pub shared_total: u64,
    /// `Some` arms the per-team sanitizer.
    pub san: Option<&'a Arc<ModuleSan>>,
}

/// Whether a call to `name` counts as a runtime call
/// ([`Counters::runtime_calls`]): the OpenMP device runtime's entry points
/// and the user-facing `omp_*` API.
#[inline]
pub(crate) fn is_runtime_fn(name: &str) -> bool {
    name.starts_with("__kmpc") || name.starts_with("omp_")
}

/// Event counters aggregated into [`crate::KernelMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub barriers: u64,
    pub global_accesses: u64,
    pub shared_accesses: u64,
    pub local_accesses: u64,
    pub device_mallocs: u64,
    pub runtime_calls: u64,
    pub flops: u64,
    /// Backend dispatches (fuel units consumed). One per interpreter step
    /// or bytecode op — identical across tiers and worker counts by the
    /// 1-op-per-step contract; the tier-equivalence suites compare it.
    pub dispatched: u64,
}

impl Counters {
    /// Accumulate another team's counters. Plain integer sums, so the
    /// total is independent of accumulation order — a prerequisite for
    /// parallel execution reporting the exact sequential metrics.
    pub fn add(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.barriers += other.barriers;
        self.global_accesses += other.global_accesses;
        self.shared_accesses += other.shared_accesses;
        self.local_accesses += other.local_accesses;
        self.device_mallocs += other.device_mallocs;
        self.runtime_calls += other.runtime_calls;
        self.flops += other.flops;
        self.dispatched += other.dispatched;
    }
}

/// Thread run state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Running,
    AtBarrier { aligned: bool },
    Done,
}

/// One hardware thread, generic over the backend's call-frame type.
#[derive(Debug)]
pub struct ThreadCtx<F> {
    pub tid: u32,
    pub(crate) frames: Vec<F>,
    pub status: Status,
    pub cycles: u64,
    /// Cycles of actual work (never overwritten by barrier synchronization,
    /// unlike `cycles`); denominator of the team memory fraction.
    pub busy_cycles: u64,
    /// Portion of the busy cycles spent on memory operations — the part
    /// occupancy can hide (see the latency model in `Device::launch`).
    pub mem_cycles: u64,
    pub(crate) local: Region,
    pub(crate) local_top: u64,
    /// Instructions this thread has executed (drives fault triggers).
    pub(crate) steps: u64,
    /// Injected faults aimed at this thread, sorted by trigger step;
    /// `fault_idx` is the next one to fire.
    pub(crate) faults: Vec<FaultSite>,
    pub(crate) fault_idx: usize,
    /// Step count at which the next fault fires (`u64::MAX` = never) —
    /// the only word the hot loop compares when injection is disabled.
    pub(crate) next_fault_step: u64,
    /// Armed by [`FaultAction::CorruptLoad`]: XOR mask for the next load.
    pub(crate) corrupt_next_load: Option<u64>,
    /// Armed by [`FaultAction::DropBarrierArrival`]: skip the next barrier.
    pub(crate) drop_next_barrier: bool,
    /// IR site of the barrier this thread is waiting at (recorded only
    /// when the sanitizer is armed; feeds the divergence check).
    pub(crate) barrier_site: Option<IrLoc>,
}

impl<F> Default for ThreadCtx<F> {
    fn default() -> Self {
        ThreadCtx {
            tid: 0,
            frames: Vec::new(),
            status: Status::Done,
            cycles: 0,
            busy_cycles: 0,
            mem_cycles: 0,
            local: Region::default(),
            local_top: 0,
            steps: 0,
            faults: Vec::new(),
            fault_idx: 0,
            next_fault_step: u64::MAX,
            corrupt_next_load: None,
            drop_next_barrier: false,
            barrier_site: None,
        }
    }
}

impl<F> ThreadCtx<F> {
    /// Reserve `size` bytes, rounded up to 8, on the thread's local stack
    /// and return their offset — both tiers' `alloca`. A reservation that
    /// would end past [`LOCAL_STACK_BYTES`] is `OutOfMemory`, and reserves
    /// nothing.
    pub(crate) fn alloca(&mut self, size: u64) -> Result<u32, TrapKind> {
        let off = self.local_top;
        let top = size
            .checked_next_multiple_of(8)
            .and_then(|aligned| off.checked_add(aligned))
            .filter(|&top| top <= LOCAL_STACK_BYTES)
            .ok_or(TrapKind::OutOfMemory)?;
        self.local_top = top;
        self.local.grow_to(top as usize);
        Ok(off as u32)
    }
}

/// Step count of the thread's next pending fault (`u64::MAX` = never).
pub(crate) fn next_trigger<F>(thread: &ThreadCtx<F>) -> u64 {
    thread
        .faults
        .get(thread.fault_idx)
        .map_or(u64::MAX, |s| s.after_steps)
}

/// One execution backend: owns how a single thread steps through a kernel.
///
/// The contract every implementation must honor, bit for bit:
///
/// * **Fuel and steps.** Each dispatched operation first checks
///   `exec.fuel == 0` (trapping [`TrapKind::FuelExhausted`]), decrements
///   the fuel, polls pending faults against `thread.steps`, increments
///   `thread.steps` and `exec.counters.dispatched`, and only then
///   executes. Fault sites therefore fire at identical op counts on every
///   backend.
/// * **Traps.** Identical programs produce identical [`TrapKind`]s —
///   including `MalformedIr` message strings — at identical step counts.
/// * **Accounting.** Instruction counters, per-op cycle charges from
///   the [`cost`] table, and the memory-cycle split match the reference
///   interpreter exactly.
/// * **Effects.** A backend decodes an op's operands, charges its cycles
///   and writes its result; what the op does to the machine is a
///   `TeamExec` method both tiers call — `mem_read` / `mem_write`,
///   `atomic`, `cas`, `arrive` (barriers), `malloc` / `free`,
///   `call_target` (a call's checks) and `san_on_call` — so buffered
///   (parallel) execution logs the same effects and traps carry the same
///   messages. Memory accesses reach `TeamExec::san_record` with the same
///   [`IrLoc`]s.
pub trait ExecBackend<'a>: Sized {
    /// Backend-specific call-frame representation.
    type Frame: std::fmt::Debug;

    /// Build the kernel entry frame (validating the kernel index) — in
    /// the storage of `spent`, the kernel frame of a thread of this team
    /// that has returned, when the team has one to hand on.
    fn kernel_frame(
        exec: &TeamExec<'a, Self>,
        kernel: u32,
        args: &[RtVal],
        spent: Option<Self::Frame>,
    ) -> Result<Self::Frame, TrapKind>;

    /// Run one thread until it blocks at a barrier, finishes, or traps.
    /// A thread that finishes ([`Status::Done`]) leaves its kernel frame
    /// as the only entry of `thread.frames`.
    fn run_thread(
        exec: &mut TeamExec<'a, Self>,
        thread: &mut ThreadCtx<Self::Frame>,
    ) -> Result<(), TrapKind>;
}

/// Executes one team to completion over a pluggable [`ExecBackend`].
///
/// All team-local state — shared memory, the cycle/event counters, the
/// remaining fuel — is *owned*, and in buffered mode the copy-on-write
/// view of global memory is the running worker's own
/// scratch, borrowed exclusively, so a `TeamExec` built over a
/// [`GlobalMem::Buffered`] view is `Send` and can run on a worker thread;
/// the shared borrows (`module`, `layout`, `constant`, `faults`,
/// and the buffered view's wave-start base image) are all `Sync`.
pub struct TeamExec<'a, B: ExecBackend<'a>> {
    pub module: &'a Module,
    pub check_assumes: bool,
    pub team_id: u32,
    pub num_teams: u32,
    pub nthreads: u32,
    pub shared: Region,
    pub layout: &'a GlobalLayout,
    /// Global-memory view: write-through (sequential) or snapshot-and-log
    /// (parallel). See [`crate::gmem`].
    pub global: GlobalMem<'a>,
    pub constant: &'a Region,
    /// Event counters for this team alone; the device sums them.
    pub counters: Counters,
    /// Remaining step budget. The device threads the leftover into the
    /// next team (sequential) or reconciles budgets at the wave merge
    /// (parallel).
    pub fuel: u64,
    /// Active fault-injection plan (`None` in production runs; the hot
    /// loop then degenerates to one always-false integer compare).
    pub faults: Option<&'a FaultPlan>,
    /// Data-race/divergence sanitizer state (`None` in production runs;
    /// every hook then degenerates to one pointer test — the same
    /// zero-cost-when-disabled shape as `faults`).
    pub(crate) san: Option<Box<TeamSan>>,
    /// Per function, per arena instruction, whether the result is read by
    /// some operand ([`Image::live_results`]): the `live` flag the
    /// interpreter hands [`TeamExec::atomic`] (lowering bakes it into each
    /// atomic op).
    pub(crate) live_results: &'a [Box<[bool]>],
    /// The backend's own state (e.g. the lowered bytecode module).
    pub(crate) backend: B,
}

impl<'a, B: ExecBackend<'a>> TeamExec<'a, B> {
    /// Team `team_id` of the launch `ctx` describes, over `global` with
    /// `fuel` steps left.
    pub(crate) fn with_backend(
        backend: B,
        ctx: &LaunchCtx<'a>,
        team_id: u32,
        global: GlobalMem<'a>,
        fuel: u64,
    ) -> TeamExec<'a, B> {
        let image = ctx.image;
        TeamExec {
            module: &image.module,
            check_assumes: ctx.check_assumes,
            team_id,
            num_teams: ctx.launch.teams,
            nthreads: ctx.launch.threads_per_team,
            shared: Region::with_size(ctx.shared_total as usize),
            layout: &image.layout,
            global,
            constant: &image.constant,
            counters: Counters::default(),
            fuel,
            faults: ctx.faults,
            san: ctx.san.map(|m| Box::new(TeamSan::new(team_id, Arc::clone(m)))),
            live_results: image.live_results(),
            backend,
        }
    }

    /// Sanitizer hook: mirror one executed memory access into the shadow.
    /// Backends compute the [`IrLoc`] (guarded by [`TeamExec::san_armed`]
    /// so the lookup is free when sanitizing is off).
    #[inline]
    pub(crate) fn san_record(
        &mut self,
        tid: u32,
        loc: IrLoc,
        kind: AccessKind,
        p: DevPtr,
        size: u64,
    ) {
        let Some(san) = self.san.as_deref_mut() else { return };
        san.record_access(self.module, tid, kind, loc, p.segment(), p.offset(), size);
    }

    /// Whether the sanitizer is armed (backends skip loc bookkeeping
    /// entirely when it is not).
    #[inline]
    pub(crate) fn san_armed(&self) -> bool {
        self.san.is_some()
    }

    /// Sanitizer hook at a (direct or indirect) call of `target` whose
    /// first two arguments, read as bits, are `addr` and `size`: a call of
    /// an allocator release entry point (`sanitize::REGION_RELEASE_FNS`)
    /// retires the shadow of `[addr, addr + round8(max(size, 0)))` in
    /// `addr`'s segment (ownership transfer). Both tiers call it, so a
    /// release is a fact of its callee, whatever the arguments' tags.
    #[inline]
    pub(crate) fn san_on_call(&mut self, target: u32, addr: u64, size: u64) {
        let Some(san) = self.san.as_deref_mut() else { return };
        if san.is_release_fn(target) {
            let p = DevPtr(addr);
            let aligned = ((size as i64).max(0) as u64).next_multiple_of(8);
            san.on_region_release(p.segment(), p.offset(), aligned);
        }
    }

    /// Run the launch's kernel and tear down into what the device needs
    /// from a finished team. The sanitizer state survives a trapping run.
    fn finish(mut self, ctx: &LaunchCtx<'a>) -> TeamOutcome<'a> {
        let result = self.run(ctx.kernel, ctx.args);
        TeamOutcome {
            result,
            counters: self.counters,
            fuel_left: self.fuel,
            san: self.san,
            global: self.global,
        }
    }

    /// Run the kernel function with `args` on every thread of the team.
    /// Returns `(cycles, mem_cycles)`: `cycles` is the slowest thread's
    /// total; `mem_cycles` is the memory share of the team's critical
    /// path, estimated work-weighted as `cycles * Σ mem_i / Σ busy_i`
    /// (robust against irregular per-thread work and barrier-synchronized
    /// counters).
    pub fn run(&mut self, kernel: u32, args: &[RtVal]) -> Result<(u64, u64), (TrapKind, u32)> {
        // Threads are built in thread-id order and each runs until it
        // waits at a barrier, returns or traps. A thread that returns is
        // folded into the team totals on the spot, and its whole context —
        // kernel frame, frame stack, local memory — becomes the next
        // thread's. Only threads waiting at a barrier are kept, in
        // thread-id order, so a team whose threads never wait for each
        // other (the shape SPMD-ization and barrier elimination produce)
        // runs in one context.
        let mut team = TeamTotals::default();
        let mut live: Vec<ThreadCtx<B::Frame>> = Vec::new();
        let mut thread = ThreadCtx::default();
        for tid in 0..self.nthreads {
            self.recycle(&mut thread, tid, kernel, args)?;
            B::run_thread(self, &mut thread).map_err(|kind| (kind, tid))?;
            if thread.status == Status::Done {
                team.retire(&thread);
            } else {
                live.push(std::mem::take(&mut thread));
            }
        }
        let mut progressed = true;
        while let Some(first) = live.first() {
            if live.iter().all(|t| matches!(t.status, Status::AtBarrier { .. })) {
                let aligned_wait = |t: &ThreadCtx<B::Frame>| t.status == Status::AtBarrier { aligned: true };
                // An *aligned* barrier promises that every thread of the
                // team reaches it; if some threads already exited, that
                // promise is broken (miscompile or bad user code) — trap.
                if team.done > 0 && live.iter().any(aligned_wait) {
                    if let Some(san) = self.san.as_deref_mut() {
                        san.on_aligned_subset(self.module, &barrier_arrivals(&live), team.done);
                    }
                    return Err((TrapKind::BarrierDeadlock, first.tid));
                }
                // Release the barrier: synchronize cycle counters.
                let cost = if live.iter().all(aligned_wait) {
                    cost::BARRIER_ALIGNED
                } else {
                    cost::BARRIER_UNALIGNED
                };
                // Sanitizer: check arrival uniformity, then open a new
                // barrier epoch (every release synchronizes the live
                // threads, aligned or not).
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_barrier_release(self.module, &barrier_arrivals(&live));
                }
                let max_cycles = live.iter().map(|t| t.cycles).max().unwrap_or(0);
                for t in &mut live {
                    t.cycles = max_cycles + cost;
                    t.busy_cycles += cost;
                    t.status = Status::Running;
                }
                self.counters.barriers += 1;
            } else if !progressed {
                // Some threads wait forever: mismatched barrier.
                return Err((TrapKind::BarrierDeadlock, first.tid));
            }
            progressed = false;
            for thread in &mut live {
                if thread.status == Status::Running {
                    progressed = true;
                    B::run_thread(self, thread).map_err(|kind| (kind, thread.tid))?;
                    if thread.status == Status::Done {
                        team.retire(thread);
                    }
                }
            }
            live.retain(|t| t.status != Status::Done);
        }
        let mem = if team.busy == 0 {
            0
        } else {
            (team.cycles as f64 * (team.mem as f64 / team.busy as f64).min(1.0)) as u64
        };
        Ok((team.cycles, mem))
    }

    /// Make `thread` thread `tid`'s context, in the storage of what it
    /// holds — a returned thread's context, or an empty one. Every field
    /// starts fresh by construction except the storage handed on: the
    /// frame stack (whose kernel frame lends its vectors to the new one)
    /// and the local-memory buffer, emptied.
    fn recycle(
        &self,
        thread: &mut ThreadCtx<B::Frame>,
        tid: u32,
        kernel: u32,
        args: &[RtVal],
    ) -> Result<(), (TrapKind, u32)> {
        let spent = thread.frames.pop();
        let frame = B::kernel_frame(self, kernel, args, spent).map_err(|kind| (kind, 0))?;
        let mut frames = std::mem::take(&mut thread.frames);
        frames.clear();
        frames.push(frame);
        let mut local = std::mem::take(&mut thread.local);
        local.bytes.clear();
        let faults = self.faults.map(|p| p.sites_for(self.team_id, tid)).unwrap_or_default();
        *thread = ThreadCtx {
            tid,
            frames,
            local,
            status: Status::Running,
            next_fault_step: faults.first().map_or(u64::MAX, |s| s.after_steps),
            faults,
            ..ThreadCtx::default()
        };
        Ok(())
    }

    /// Fire every pending fault whose trigger step has been reached.
    pub(crate) fn trigger_faults(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
    ) -> Result<(), TrapKind> {
        while let Some(site) = thread.faults.get(thread.fault_idx) {
            if site.after_steps > thread.steps {
                break;
            }
            let action = site.action.clone();
            thread.fault_idx += 1;
            match action {
                FaultAction::Trap(kind) => {
                    thread.next_fault_step = next_trigger(thread);
                    return Err(kind);
                }
                FaultAction::CorruptLoad { xor } => thread.corrupt_next_load = Some(xor),
                FaultAction::DropBarrierArrival => thread.drop_next_barrier = true,
            }
        }
        thread.next_fault_step = next_trigger(thread);
        Ok(())
    }

    /// Fault-poll slow path for dispatch loops that track progress as a
    /// single counter `n` over a `steps0` base: syncs the step counter,
    /// runs the poll, and returns the next trigger point relative to
    /// `steps0`. `#[cold]` keeps it out of the hot loop's code layout.
    #[cold]
    pub(crate) fn poll_fault(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
        steps0: u64,
        n: u64,
    ) -> Result<u64, TrapKind> {
        thread.steps = steps0 + (n - 1);
        self.trigger_faults(thread)?;
        Ok(thread.next_fault_step.saturating_sub(steps0))
    }

    // ---- memory ----------------------------------------------------------
    //
    // One door to memory, with the hit in line. `mem_read` and `mem_write`
    // are inlined into both tiers' loops and test one word: the pointer's
    // tag and owner (`ptr.0 >> 32`). Direct global memory, shared memory
    // and the thread's own local memory each have one such word, and an
    // in-bounds access of at most 8 bytes there is one fixed-width move and
    // one count. A buffered view's global access is counted and handed to
    // `GlobalMem`, which keeps the view's log. Everything else — null,
    // constant, function pointers, another thread's local memory, owner
    // bits on a global or shared pointer, out of bounds, a width past 8
    // bytes, an unknown tag — goes through the cold door, which holds the
    // whole rule and so every trap with its kind and message.

    #[inline(always)]
    pub(crate) fn mem_read(
        &mut self,
        thread: &ThreadCtx<B::Frame>,
        ptr: DevPtr,
        size: u64,
    ) -> Result<i64, TrapKind> {
        let word = ptr.0 >> 32;
        let (bytes, count) = if word == GLOBAL_WORD {
            match &self.global {
                GlobalMem::Direct { region, .. } => (&region.bytes, &mut self.counters.global_accesses),
                GlobalMem::Buffered(_) => {
                    self.counters.global_accesses += 1;
                    return self.global.read(ptr.offset(), size);
                }
            }
        } else if word == SHARED_WORD {
            (&self.shared.bytes, &mut self.counters.shared_accesses)
        } else if word == local_word(thread.tid) {
            (&thread.local.bytes, &mut self.counters.local_accesses)
        } else {
            return self.mem_read_door(thread, ptr, size);
        };
        match hit(ptr, size).and_then(|range| bytes.get(range)) {
            Some(bytes) => {
                *count += 1;
                Ok(load_le(bytes))
            }
            None => self.mem_read_door(thread, ptr, size),
        }
    }

    #[inline(always)]
    pub(crate) fn mem_write(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
        ptr: DevPtr,
        size: u64,
        value: i64,
    ) -> Result<(), TrapKind> {
        let word = ptr.0 >> 32;
        let (bytes, count) = if word == GLOBAL_WORD {
            match &mut self.global {
                GlobalMem::Direct { region, .. } => (&mut region.bytes, &mut self.counters.global_accesses),
                GlobalMem::Buffered(_) => {
                    self.counters.global_accesses += 1;
                    return self.global.write(ptr.offset(), size, value);
                }
            }
        } else if word == SHARED_WORD {
            (&mut self.shared.bytes, &mut self.counters.shared_accesses)
        } else if word == local_word(thread.tid) {
            (&mut thread.local.bytes, &mut self.counters.local_accesses)
        } else {
            return self.mem_write_door(thread, ptr, size, value);
        };
        match hit(ptr, size).and_then(|range| bytes.get_mut(range)) {
            Some(bytes) => {
                *count += 1;
                store_le(bytes, value);
                Ok(())
            }
            None => self.mem_write_door(thread, ptr, size, value),
        }
    }

    /// The cold door of [`TeamExec::mem_read`]: the whole rule, for every
    /// access the hit does not serve.
    #[cold]
    #[inline(never)]
    fn mem_read_door(&mut self, thread: &ThreadCtx<B::Frame>, ptr: DevPtr, size: u64) -> Result<i64, TrapKind> {
        match ptr.segment() {
            Segment::Null => Err(TrapKind::NullDeref),
            Segment::Global => {
                self.counters.global_accesses += 1;
                self.global.read(ptr.offset(), size)
            }
            Segment::Shared => {
                self.counters.shared_accesses += 1;
                self.shared.read(ptr.offset(), size)
            }
            Segment::Local => {
                if ptr.owner() != thread.tid {
                    return Err(TrapKind::CrossThreadLocalAccess {
                        owner: ptr.owner(),
                        accessor: thread.tid,
                    });
                }
                self.counters.local_accesses += 1;
                thread.local.read(ptr.offset(), size)
            }
            Segment::Constant => self.constant.read(ptr.offset(), size),
            Segment::Func => Err(TrapKind::OutOfBounds),
        }
    }

    /// The cold door of [`TeamExec::mem_write`].
    #[cold]
    #[inline(never)]
    fn mem_write_door(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
        ptr: DevPtr,
        size: u64,
        value: i64,
    ) -> Result<(), TrapKind> {
        match ptr.segment() {
            Segment::Null => Err(TrapKind::NullDeref),
            Segment::Global => {
                self.counters.global_accesses += 1;
                self.global.write(ptr.offset(), size, value)
            }
            Segment::Shared => {
                self.counters.shared_accesses += 1;
                self.shared.write(ptr.offset(), size, value)
            }
            Segment::Local => {
                if ptr.owner() != thread.tid {
                    return Err(TrapKind::CrossThreadLocalAccess {
                        owner: ptr.owner(),
                        accessor: thread.tid,
                    });
                }
                self.counters.local_accesses += 1;
                thread.local.write(ptr.offset(), size, value)
            }
            Segment::Constant => Err(TrapKind::OutOfBounds),
            Segment::Func => Err(TrapKind::OutOfBounds),
        }
    }

    pub(crate) fn load_typed(
        &mut self,
        thread: &ThreadCtx<B::Frame>,
        ptr: DevPtr,
        ty: nzomp_ir::Ty,
    ) -> Result<RtVal, TrapKind> {
        let bits = self.mem_read(thread, ptr, ty.size())?;
        Ok(rtval_from_bits(bits, ty))
    }

    // ---- effects ---------------------------------------------------------
    //
    // A backend decodes an op's operands, charges its cycles and writes its
    // result; what the op does to the machine is one of the helpers below,
    // the same code on both tiers. Each stays out of line but `arrive`:
    // inlined, a helper plants a second copy of its switches in the
    // bytecode dispatch loop (the codegen cliff of docs/exec-tiers.md).

    /// Atomic read-modify-write of the `ty` at `p` with operand `v`;
    /// returns the old value. In global memory it is two accesses. A
    /// buffered view logs the operation for the wave-ordered merge, which
    /// validates the old value the team observed when `live` (the result is
    /// read by some operand: a dead result cannot steer the team); in every
    /// other case it is a read, [`combine_atomic`] and a write.
    #[inline(never)]
    pub(crate) fn atomic(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
        op: AtomicOp,
        ty: Ty,
        p: DevPtr,
        v: RtVal,
        live: bool,
    ) -> Result<RtVal, TrapKind> {
        if let (Segment::Global, GlobalMem::Buffered(view)) = (p.segment(), &mut self.global) {
            self.counters.global_accesses += 2;
            return view.atomic(op, ty, p.offset(), v, live);
        }
        let old = self.load_typed(thread, p, ty)?;
        self.mem_write(thread, p, ty.size(), combine_atomic(op, ty, old, v).to_bits())?;
        Ok(old)
    }

    /// Compare-and-swap of the `ty` at `p`: stores `new` when the bits
    /// there equal `expected`, and returns the old value. In global memory
    /// it is one access, two when it stores. A buffered view logs it, and
    /// the merge validates the value it observed.
    #[inline(never)]
    pub(crate) fn cas(
        &mut self,
        thread: &mut ThreadCtx<B::Frame>,
        ty: Ty,
        p: DevPtr,
        expected: i64,
        new: i64,
    ) -> Result<RtVal, TrapKind> {
        if let (Segment::Global, GlobalMem::Buffered(view)) = (p.segment(), &mut self.global) {
            let (old, stored) = view.cas(ty, p.offset(), expected, new)?;
            self.counters.global_accesses += 1 + u64::from(stored);
            return Ok(old);
        }
        let old = self.load_typed(thread, p, ty)?;
        if old.to_bits() == expected {
            self.mem_write(thread, p, ty.size(), new)?;
        }
        Ok(old)
    }

    /// A thread's arrival at a barrier (`aligned`: one every thread of the
    /// team promises to reach). An injected dropped arrival
    /// ([`FaultAction::DropBarrierArrival`]) lets it sail past once — the
    /// scheduler then meets the broken promise downstream; otherwise it
    /// parks, and an armed sanitizer records `site()` for its divergence
    /// check. Returns whether the thread parked.
    ///
    /// Inlined, unlike its neighbours: it has no switch to plant, and as a
    /// call it moved one of the dispatch loop's issue counters out of its
    /// register, which cost `exec_seq` ≈ 4 % in paired runs.
    #[inline(always)]
    pub(crate) fn arrive(
        &self,
        thread: &mut ThreadCtx<B::Frame>,
        aligned: bool,
        site: impl FnOnce() -> Option<IrLoc>,
    ) -> bool {
        if std::mem::take(&mut thread.drop_next_barrier) {
            return false;
        }
        if self.san_armed() {
            thread.barrier_site = site();
        }
        thread.status = Status::AtBarrier { aligned };
        true
    }

    /// The `malloc` intrinsic: an 8-byte-aligned bump allocation of `size`
    /// bytes (none when negative) in the device heap. Heap offsets depend
    /// on every prior allocation, so it cannot be buffered: a buffered team
    /// signals [`TrapKind::ParallelBailout`] and the engine re-runs it in
    /// direct mode.
    #[inline(never)]
    pub(crate) fn malloc(&mut self, size: i64) -> Result<DevPtr, TrapKind> {
        self.counters.device_mallocs += 1;
        let GlobalMem::Direct { region, heap } = &mut self.global else {
            return Err(TrapKind::ParallelBailout);
        };
        let aligned = (size.max(0) as u64 + 7) & !7;
        let off = region.len() as u64;
        if off + aligned > heap.limit {
            return Err(TrapKind::OutOfMemory);
        }
        region.grow_to((off + aligned) as usize);
        heap.live_allocs.insert(off, aligned);
        Ok(DevPtr::global(off as u32))
    }

    /// The `free` intrinsic: nothing for a null pointer, otherwise the end
    /// of the allocation `p` starts ([`TrapKind::BadFree`] if none does).
    /// Like `malloc`, not buffered.
    #[inline(never)]
    pub(crate) fn free(&mut self, p: DevPtr) -> Result<(), TrapKind> {
        if p.is_null() {
            return Ok(());
        }
        let GlobalMem::Direct { heap, .. } = &mut self.global else {
            return Err(TrapKind::ParallelBailout);
        };
        if heap.live_allocs.remove(&p.offset()).is_none() {
            return Err(TrapKind::BadFree);
        }
        Ok(())
    }

    /// The function a call with `nargs` arguments runs: `callee` is the
    /// function pointer an indirect call reads, or `DevPtr::func` of a
    /// direct call's callee. Traps [`TrapKind::BadIndirectCall`] for
    /// anything but a pointer to a function of the module,
    /// [`TrapKind::UnresolvedCall`] for a declaration and
    /// [`TrapKind::BadLaunch`] for the wrong arity; a call of the device
    /// runtime counts in [`Counters::runtime_calls`].
    #[inline(never)]
    pub(crate) fn call_target(&mut self, callee: DevPtr, nargs: usize) -> Result<u32, TrapKind> {
        let target = callee.offset() as u32;
        let func = match self.module.funcs.get(target as usize) {
            Some(func) if callee.segment() == Segment::Func => func,
            _ => return Err(TrapKind::BadIndirectCall),
        };
        if func.is_declaration() {
            return Err(TrapKind::UnresolvedCall(func.name.clone()));
        }
        if func.params.len() != nargs {
            return Err(TrapKind::BadLaunch(format!(
                "call of @{} with {} args (expects {})",
                func.name,
                nargs,
                func.params.len()
            )));
        }
        if is_runtime_fn(&func.name) {
            self.counters.runtime_calls += 1;
        }
        Ok(target)
    }
}

/// The tag-and-owner word (`ptr.0 >> 32`) of a direct global pointer and
/// of a shared pointer: both carry owner 0.
const GLOBAL_WORD: u64 = DevPtr::global(0).0 >> 32;
const SHARED_WORD: u64 = DevPtr::shared(0).0 >> 32;

/// The tag-and-owner word of thread `tid`'s own local pointers. A launch
/// holds thread ids below `cost::MAX_THREADS_PER_SM`, inside the 24 owner
/// bits, so no other thread's pointer has this word.
#[inline(always)]
fn local_word(tid: u32) -> u64 {
    DevPtr::local(tid, 0).0 >> 32
}

/// The byte range of an access the hit serves: at most 8 bytes (a value's
/// widest) from `ptr`'s 32-bit offset, so the end cannot wrap. The region
/// still has to hold it.
#[inline(always)]
fn hit(ptr: DevPtr, size: u64) -> Option<Range<usize>> {
    let off = ptr.offset() as usize;
    (size <= 8).then(|| off..off + size as usize)
}

/// What a team keeps of its returned threads: the slowest one's cycles,
/// the sums of busy and memory cycles, and how many have returned.
#[derive(Default)]
struct TeamTotals {
    cycles: u64,
    busy: u64,
    mem: u64,
    done: usize,
}

impl TeamTotals {
    fn retire<F>(&mut self, t: &ThreadCtx<F>) {
        self.cycles = self.cycles.max(t.cycles);
        self.busy += t.busy_cycles;
        self.mem += t.mem_cycles;
        self.done += 1;
    }
}

/// Arrival snapshot of the live (waiting) threads, for the sanitizer's
/// divergence checks.
fn barrier_arrivals<F>(live: &[ThreadCtx<F>]) -> Vec<BarrierArrival> {
    live.iter()
        .map(|th| BarrierArrival {
            tid: th.tid,
            aligned: matches!(th.status, Status::AtBarrier { aligned: true }),
            site: th.barrier_site,
        })
        .collect()
}

/// One team's `(cycles, mem cycles)`, or its trap `(kind, thread)`.
pub(crate) type TeamResult = Result<(u64, u64), (TrapKind, u32)>;

/// What a finished team leaves behind.
pub(crate) struct TeamOutcome<'a> {
    pub result: TeamResult,
    pub counters: Counters,
    pub fuel_left: u64,
    pub san: Option<Box<TeamSan>>,
    /// The global view handed in — a buffered view carries its effect log.
    pub global: GlobalMem<'a>,
}

/// A [`TeamExec`] over whichever backend the launch selected — the concrete
/// seam the device and wave engine construct. An enum (rather than a trait
/// object) because `run` consumes `self` and because both variants stay
/// fully monomorphized on the hot path.
pub(crate) enum TeamEngine<'a> {
    Interp(TeamExec<'a, InterpBackend>),
    Bytecode(TeamExec<'a, BcBackend<'a>>),
}

impl<'a> TeamEngine<'a> {
    /// Build a team executor on the bytecode tier when the launch carries a
    /// lowered module, on the interpreter otherwise.
    pub fn new(ctx: &LaunchCtx<'a>, team: u32, global: GlobalMem<'a>, fuel: u64) -> TeamEngine<'a> {
        match ctx.bc {
            Some(bc) => {
                TeamEngine::Bytecode(TeamExec::with_backend(BcBackend { bc }, ctx, team, global, fuel))
            }
            None => TeamEngine::Interp(TeamExec::with_backend(InterpBackend, ctx, team, global, fuel)),
        }
    }

    /// Run the team to completion (or its trap).
    pub fn run(self, ctx: &LaunchCtx<'a>) -> TeamOutcome<'a> {
        match self {
            TeamEngine::Interp(e) => e.finish(ctx),
            TeamEngine::Bytecode(e) => e.finish(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::{BufferedGlobal, WaveScratch};

    /// On every segment a direct-mode atomic is a read, [`combine_atomic`]
    /// and a write, and a compare-and-swap a read and, when the bits match,
    /// a write, each access counted in that segment's counter and no other.
    /// `gmem.rs`'s `buffered_is_direct` restates this path as its oracle;
    /// this test holds it to `TeamExec`.
    #[test]
    fn a_direct_atomic_is_a_read_a_combine_and_a_write_on_every_segment() {
        let (module, layout, constant) = (Module::default(), GlobalLayout::default(), Region::with_size(16));
        let (mut global, mut heap) = (Region::with_size(16), HeapState::default());
        let mut exec = TeamExec {
            module: &module,
            check_assumes: false,
            team_id: 0,
            num_teams: 1,
            nthreads: 4,
            shared: Region::with_size(16),
            layout: &layout,
            global: GlobalMem::Direct { region: &mut global, heap: &mut heap },
            constant: &constant,
            counters: Counters::default(),
            fuel: 0,
            faults: None,
            san: None,
            live_results: &[],
            backend: InterpBackend,
        };
        let mut t = ThreadCtx::<crate::interp::Frame> { tid: 3, local: Region::with_size(16), ..Default::default() };
        // The counters after `n` more accesses to `p`'s segment.
        let counted = |c: &Counters, p: DevPtr, n: u64| {
            let mut c = c.clone();
            match p.segment() {
                Segment::Global => c.global_accesses += n,
                Segment::Shared => c.shared_accesses += n,
                _ => c.local_accesses += n,
            }
            c
        };
        let rmws = [
            (AtomicOp::Add, Ty::I32, RtVal::I(5)),
            (AtomicOp::Min, Ty::I8, RtVal::I(-7)),
            (AtomicOp::Exchange, Ty::I64, RtVal::I(-2)),
            (AtomicOp::Max, Ty::F64, RtVal::F(0.5)),
        ];
        for p in [DevPtr::global(8), DevPtr::shared(8), DevPtr::local(3, 8)] {
            exec.mem_write(&mut t, p, 8, 0x4010_0000_0000_0003).unwrap();
            for (op, ty, v) in rmws {
                let (there, before) = (exec.mem_read(&t, p, ty.size()).unwrap(), exec.counters.clone());
                let old = exec.atomic(&mut t, op, ty, p, v, false).unwrap();
                assert_eq!((old.to_bits(), &exec.counters), (there, &counted(&before, p, 2)), "{op:?} {ty:?} at {p:?}");
                let want = combine_atomic(op, ty, old, v).to_bits() & (u64::MAX >> (64 - 8 * ty.size())) as i64;
                assert_eq!(exec.mem_read(&t, p, ty.size()), Ok(want), "{op:?} {ty:?} at {p:?}");
            }
            for (flip, stores) in [(1, false), (0, true)] {
                let (there, before) = (exec.mem_read(&t, p, 8).unwrap(), exec.counters.clone());
                let old = exec.cas(&mut t, Ty::I64, p, there ^ flip, 9).unwrap();
                let want = counted(&before, p, 1 + u64::from(stores));
                assert_eq!((old.to_bits(), &exec.counters), (there, &want), "CAS at {p:?}");
                assert_eq!(exec.mem_read(&t, p, 8), Ok(if stores { 9 } else { there }), "CAS at {p:?}");
            }
        }
        let traps = [(DevPtr::NULL, TrapKind::NullDeref), (DevPtr::constant(8), TrapKind::OutOfBounds)];
        for (p, trap) in traps {
            assert_eq!(exec.atomic(&mut t, AtomicOp::Add, Ty::I32, p, RtVal::I(1), false), Err(trap.clone()));
            assert_eq!(exec.cas(&mut t, Ty::I32, p, 0, 1), Err(trap));
        }
        let foreign = Err(TrapKind::CrossThreadLocalAccess { owner: 2, accessor: 3 });
        assert_eq!(exec.cas(&mut t, Ty::I32, DevPtr::local(2, 8), 0, 1), foreign);
    }

    /// A team of four threads over `global`, with `shared` and `constant`
    /// memory and nothing else armed.
    fn team<'a>(
        module: &'a Module,
        layout: &'a GlobalLayout,
        global: GlobalMem<'a>,
        shared: Region,
        constant: &'a Region,
    ) -> TeamExec<'a, InterpBackend> {
        TeamExec {
            module,
            check_assumes: false,
            team_id: 0,
            num_teams: 1,
            nthreads: 4,
            shared,
            layout,
            global,
            constant,
            counters: Counters::default(),
            fuel: 0,
            faults: None,
            san: None,
            live_results: &[],
            backend: InterpBackend,
        }
    }

    /// The memory rule `mem_read` and `mem_write` are held to, restated
    /// over plain regions: the segment's region (`Region::read`/`write`,
    /// a buffered view through `GlobalMem`), that segment's counter, and
    /// the cold door's traps.
    struct Rule<'a> {
        global: GlobalMem<'a>,
        shared: Region,
        local: Region,
        constant: Region,
        counters: Counters,
    }

    impl Rule<'_> {
        /// A load (`store` is `None`) or a store; a store reads as 0.
        fn access(&mut self, tid: u32, p: DevPtr, size: u64, store: Option<i64>) -> Result<i64, TrapKind> {
            let (off, c) = (p.offset(), &mut self.counters);
            let region = |r: &mut Region| match store {
                None => r.read(off, size),
                Some(v) => r.write(off, size, v).map(|()| 0),
            };
            match (p.segment(), store) {
                (Segment::Null, _) => Err(TrapKind::NullDeref),
                (Segment::Func, _) | (Segment::Constant, Some(_)) => Err(TrapKind::OutOfBounds),
                (Segment::Constant, None) => region(&mut self.constant),
                (Segment::Global, _) => {
                    c.global_accesses += 1;
                    match store {
                        None => self.global.read(off, size),
                        Some(v) => self.global.write(off, size, v).map(|()| 0),
                    }
                }
                (Segment::Shared, _) => {
                    c.shared_accesses += 1;
                    region(&mut self.shared)
                }
                (Segment::Local, _) if p.owner() != tid => {
                    Err(TrapKind::CrossThreadLocalAccess { owner: p.owner(), accessor: tid })
                }
                (Segment::Local, _) => {
                    c.local_accesses += 1;
                    region(&mut self.local)
                }
            }
        }
    }

    /// The in-line hit and the cold door together equal [`Rule`] for
    /// every kind of pointer — null, direct and buffered global, global
    /// and shared with owner bits, shared, the thread's own local memory,
    /// another thread's, constant, function, an unknown tag — at offset 0,
    /// at every offset from 9 bytes before a region's end to 1 past it,
    /// and at `u32::MAX`, for every width from 0 to 9 bytes and `u64::MAX`:
    /// each load and store returns the same value or trap, and leaves the
    /// same counters and the same bytes (a buffered view: the same log).
    /// Both tiers reach memory only through these two methods, so the
    /// tier differential cannot see a fault in the hit; this test can.
    #[test]
    fn the_hit_and_the_door_are_the_memory_rule() {
        const TID: u32 = 3;
        let fill = |len: u8, salt: u8| Region { bytes: (0..len).map(|i| i.wrapping_mul(31) ^ salt).collect() };
        let (global0, shared0, local0, constant) = (fill(40, 0x11), fill(24, 0x22), fill(16, 0x33), fill(32, 0x44));
        // Each kind of pointer, and the length of the region it reaches.
        let kinds: [(&str, fn(u32) -> DevPtr, usize); 10] = [
            ("null", |off| DevPtr::new(Segment::Null, 0, off), 16),
            ("global", DevPtr::global, 40),
            ("global, owner 5", |off| DevPtr::new(Segment::Global, 5, off), 40),
            ("shared", DevPtr::shared, 24),
            ("shared, owner 1", |off| DevPtr::new(Segment::Shared, 1, off), 24),
            ("own local", |off| DevPtr::local(TID, off), 16),
            ("local of thread 2", |off| DevPtr::local(2, off), 16),
            ("constant", DevPtr::constant, 32),
            ("func", DevPtr::func, 16),
            ("tag 0x7f", |off| DevPtr(0x7f << 56 | u64::from(off)), 16),
        ];
        assert_eq!(DevPtr(0x7f << 56).segment(), Segment::Null, "an unknown tag reads as null");
        let sizes: Vec<u64> = (0..=9).chain([u64::MAX]).collect();
        let (module, layout) = (Module::default(), GlobalLayout::default());
        for buffered in [false, true] {
            let (mut global, mut heap) = (global0.clone(), HeapState::default());
            let (mut rule_global, mut rule_heap) = (global0.clone(), HeapState::default());
            let (mut scratch, mut rule_scratch) = (WaveScratch::default(), WaveScratch::default());
            let (view, rule_view) = if buffered {
                (
                    GlobalMem::Buffered(BufferedGlobal::new(&global0.bytes, &mut scratch)),
                    GlobalMem::Buffered(BufferedGlobal::new(&global0.bytes, &mut rule_scratch)),
                )
            } else {
                (
                    GlobalMem::Direct { region: &mut global, heap: &mut heap },
                    GlobalMem::Direct { region: &mut rule_global, heap: &mut rule_heap },
                )
            };
            let mut exec = team(&module, &layout, view, shared0.clone(), &constant);
            let mut t = ThreadCtx::<crate::interp::Frame> { tid: TID, local: local0.clone(), ..Default::default() };
            let mut rule = Rule {
                global: rule_view,
                shared: shared0.clone(),
                local: local0.clone(),
                constant: constant.clone(),
                counters: Counters::default(),
            };
            for (kind, ptr, len) in kinds {
                let offsets = [0, u32::MAX].into_iter().chain(len as u32 - 9..=len as u32 + 1);
                for (off, &size) in offsets.flat_map(|off| sizes.iter().map(move |size| (off, size))) {
                    let (p, what) = (ptr(off), format!("{kind} at {off}, {size} B, buffered: {buffered}"));
                    let got = exec.mem_read(&t, p, size);
                    assert_eq!(got, rule.access(TID, p, size, None), "load of {what}");
                    let value = 0x0102_0304_0506_0708 ^ i64::from(off) << 16 ^ size as i64;
                    let got = exec.mem_write(&mut t, p, size, value).map(|()| 0);
                    assert_eq!(got, rule.access(TID, p, size, Some(value)), "store of {what}");
                    assert_eq!(exec.counters, rule.counters, "counters after {what}");
                    assert_eq!((&exec.shared.bytes, &t.local.bytes), (&rule.shared.bytes, &rule.local.bytes), "{what}");
                    if let (GlobalMem::Direct { region, .. }, GlobalMem::Direct { region: want, .. }) =
                        (&exec.global, &rule.global)
                    {
                        assert_eq!(region.bytes, want.bytes, "global bytes after {what}");
                    }
                }
            }
            assert_eq!(exec.constant.bytes, constant.bytes, "constant memory is never written");
            if let (GlobalMem::Buffered(view), GlobalMem::Buffered(rule_view)) = (exec.global, rule.global) {
                let (team, rule_team) = (view.finish(), rule_view.finish());
                let logs = (&scratch.log()[team.effects], &rule_scratch.log()[rule_team.effects]);
                assert_eq!(format!("{:?}", logs.0), format!("{:?}", logs.1), "the buffered view's log");
            }
        }
    }
}
