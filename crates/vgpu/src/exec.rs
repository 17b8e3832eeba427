//! The execution-backend seam: everything about running one team that is
//! *not* opcode dispatch.
//!
//! A [`TeamExec`] owns the team-local machine state — shared memory, the
//! global-memory view, cycle/event counters, the fuel budget, the fault
//! plan, and the sanitizer — and drives the run-to-synchronization-point
//! scheduler, which recycles one thread context from each returned thread
//! to the next. How one thread actually steps through a kernel is
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
use std::sync::Arc;

use nzomp_ir::{Function, Module, Operand};

use crate::bytecode::{BcBackend, BcModule};
use crate::cost;
use crate::device::{Image, Launch};
use crate::error::TrapKind;
use crate::faults::{FaultAction, FaultPlan, FaultSite};
use crate::gmem::{rtval_from_bits, GlobalMem};
use crate::interp::InterpBackend;
use crate::memory::{DevPtr, Region, Segment};
use crate::sanitize::{AccessKind, BarrierArrival, IrLoc, ModuleSan, TeamSan};
use crate::value::RtVal;

/// Typed error for states only reachable through IR the verifier rejects
/// (or engine-invariant violations). Never a process abort.
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
    /// Lowered bytecode when the launch runs on the bytecode tier
    /// (`None` = interpreter tier). Both tiers produce bit-identical runs.
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

/// Step count of the thread's next pending fault (`u64::MAX` = never).
pub(crate) fn next_trigger<F>(thread: &ThreadCtx<F>) -> u64 {
    thread
        .faults
        .get(thread.fault_idx)
        .map_or(u64::MAX, |s| s.after_steps)
}

/// Which instruction results of `func` are referenced by at least one
/// operand (instructions, phi incomings, or block terminators).
pub(crate) fn used_results(func: &Function) -> Vec<bool> {
    let mut used = vec![false; func.insts.len()];
    let mut mark = |op: Operand| {
        if let Operand::Inst(i) = op {
            if let Some(u) = used.get_mut(i.index()) {
                *u = true;
            }
        }
    };
    for inst in &func.insts {
        inst.for_each_operand(&mut mark);
    }
    for block in &func.blocks {
        block.term.for_each_operand(&mut mark);
    }
    used
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
/// * **Sanitizer and effects.** Memory accesses reach
///   `TeamExec::san_record` with the same [`IrLoc`]s, and global-memory
///   traffic goes through [`TeamExec::global`] so buffered (parallel)
///   execution logs the same effects.
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
    /// Per-function cache of which instruction results are referenced by
    /// any operand — computed lazily, only consulted by buffered global
    /// atomics to decide whether their observed old value needs merge
    /// validation (a dead result cannot steer behavior).
    result_used: HashMap<u32, Vec<bool>>,
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
            result_used: HashMap::new(),
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

    /// Sanitizer hook at a (direct or indirect) call, after argument
    /// evaluation: allocator release entry points retire the freed
    /// range's shadow (ownership transfer — see
    /// `sanitize::REGION_RELEASE_FNS`).
    #[inline]
    pub(crate) fn san_on_call(&mut self, target: u32, argv: &[RtVal]) {
        let Some(san) = self.san.as_deref_mut() else { return };
        if san.is_release_fn(target) {
            if let (Some(&RtVal::P(p)), Some(&RtVal::I(sz))) = (argv.first(), argv.get(1)) {
                let aligned = (sz.max(0) as u64).next_multiple_of(8);
                san.on_region_release(p.segment(), p.offset(), aligned);
            }
        }
    }

    /// Whether instruction `iid` of function `func_idx` has a live result.
    /// Lazily computes (and caches) the per-function used-result map;
    /// unknown functions or out-of-range ids answer `true` (conservative:
    /// validate).
    pub(crate) fn result_is_used(&mut self, func_idx: u32, iid: nzomp_ir::inst::InstId) -> bool {
        let module = self.module;
        let used = self.result_used.entry(func_idx).or_insert_with(|| {
            module
                .funcs
                .get(func_idx as usize)
                .map(used_results)
                .unwrap_or_default()
        });
        used.get(iid.index()).copied().unwrap_or(true)
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
    /// frame stack (whose kernel frame lends its register file and
    /// argument copy to the new one) and the local-memory buffer, emptied.
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

    pub(crate) fn mem_read(
        &mut self,
        thread: &ThreadCtx<B::Frame>,
        ptr: DevPtr,
        size: u64,
    ) -> Result<i64, TrapKind> {
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

    pub(crate) fn mem_write(
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

    /// Device-heap bump allocation — the `Malloc` intrinsic's shared core.
    /// Heap offsets depend on every prior allocation, so malloc cannot be
    /// buffered: a buffered team signals [`TrapKind::ParallelBailout`] and
    /// the engine re-runs it in direct mode.
    pub(crate) fn heap_alloc(&mut self, size: u64) -> Result<u64, TrapKind> {
        let GlobalMem::Direct { region, heap } = &mut self.global else {
            return Err(TrapKind::ParallelBailout);
        };
        let aligned = (size + 7) & !7;
        let off = region.len() as u64;
        if off + aligned > heap.limit {
            return Err(TrapKind::OutOfMemory);
        }
        region.grow_to((off + aligned) as usize);
        heap.live_allocs.insert(off, aligned);
        Ok(off)
    }

    /// The `Free` intrinsic's shared core (after the null check).
    pub(crate) fn heap_free(&mut self, p: DevPtr) -> Result<(), TrapKind> {
        let GlobalMem::Direct { heap, .. } = &mut self.global else {
            return Err(TrapKind::ParallelBailout);
        };
        if heap.live_allocs.remove(&p.offset()).is_none() {
            return Err(TrapKind::BadFree);
        }
        Ok(())
    }
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
