//! The device: module loading, host-side memory management, kernel launch.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::analysis::liveness;
use nzomp_ir::module::FuncRef;
use nzomp_ir::{verify_module, Function, Module, Operand, Space, VerifyError};

use crate::bytecode::{lower_module, BcModule};
use crate::cost::{self, DeviceConfig};
use crate::error::{ExecError, TrapKind};
use crate::exec::{Counters, ExecTier, GlobalLayout, HeapState, LaunchCtx, TeamEngine, TeamOutcome};
use crate::faults::{DeviceFaultKind, FaultPlan};
use crate::gmem::{apply_effects, GlobalMem, WaveScratch};
use crate::memory::{DevPtr, Region};
use crate::metrics::KernelMetrics;
use crate::par::run_wave;
use crate::run::{RunConfig, Sanitize};
use crate::sanitize::{LaunchSan, ModuleSan, SanReport};
use crate::value::RtVal;

/// Host-side memcpy errors carry a synthetic function name so the one
/// [`ExecError`] type (and its `Display`) covers both device traps and
/// host accesses; `team`/`thread` are 0 because no device thread ran.
fn host_err(kind: TrapKind, op: &str) -> ExecError {
    ExecError {
        kind,
        team: 0,
        thread: 0,
        func: format!("<host {op}>"),
    }
}

/// Launch parameters.
#[derive(Clone, Copy, Debug)]
pub struct Launch {
    pub teams: u32,
    pub threads_per_team: u32,
    /// Extra dynamic shared memory per team (paper §III-D: "the runtime
    /// also supports the use of dynamic shared memory").
    pub dyn_smem_bytes: u64,
}

impl Launch {
    pub fn new(teams: u32, threads_per_team: u32) -> Launch {
        Launch {
            teams,
            threads_per_team,
            dyn_smem_bytes: 0,
        }
    }
}

/// What the wave engine did in one multi-worker launch
/// ([`Device::last_wave_stats`]). Every count is exact and a pure function
/// of program, inputs and wave size — equal at every worker count ≥ 2 —
/// and none is part of [`KernelMetrics`], which must equal the one-worker
/// run's. A launch that traps counts the teams up to and including the
/// trapping one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    pub waves: u64,
    /// Teams that reached the merge; each is one of `merged`,
    /// `rerun_validation`, `rerun_fuel`, `bailed`.
    pub teams: u64,
    /// Teams whose buffered run committed.
    pub merged: u64,
    /// Teams re-run because a validated observation was stale.
    pub rerun_validation: u64,
    /// Teams re-run because they used more fuel than was left at their turn.
    pub rerun_fuel: u64,
    /// Teams re-run because they touched the device heap.
    pub bailed: u64,
    /// Effect-log entries of those teams' buffered runs, and how many of
    /// them the merge validates against the master.
    pub effects: u64,
    pub validated: u64,
    /// 64-byte chunks those teams copied privately.
    pub private_chunks: u64,
}

/// A loaded module: the verifier's verdict on it, and everything that is a
/// pure function of it — layout, initial memory, and the lazily derived
/// sanitizer tables, live-result table, bytecode and kernels (shared name,
/// register demand). Built once by [`Image::new`], shared (`Arc`) by every
/// device created from it, borrowed by every launch, never invalidated.
/// Which device fills a lazy part first cannot matter: each is a pure
/// function of the module.
///
/// An image is a verified module. [`Image::new`] runs
/// [`nzomp_ir::verify_module`] once, and every launch of an image it
/// rejects is refused with the verifier's message
/// ([`TrapKind::MalformedIr`]), on either tier, before any thread runs.
pub struct Image {
    pub(crate) module: Module,
    /// What `verify_module` said of `module`.
    verdict: Result<(), VerifyError>,
    pub(crate) layout: GlobalLayout,
    /// Initializer image of the global-space globals: the bytes a fresh
    /// device's global memory starts from.
    global_init: Vec<u8>,
    /// The constant segment. Device code cannot write it (a store there
    /// traps), so devices read the image's own copy.
    pub(crate) constant: Region,
    /// What the sanitizer skips and hooks in this module, worked out at
    /// the first sanitized launch.
    san: OnceLock<Arc<ModuleSan>>,
    /// Per function, which instruction results some operand reads, worked
    /// out at the first launch: what both tiers tell a buffered atomic.
    live: OnceLock<Box<[Box<[bool]>]>>,
    /// The bytecode image, lowered at the first launch of a verified
    /// module on either tier (see [`Image::bytecode`]).
    bc: OnceLock<Result<BcModule, TrapKind>>,
    /// Per function index, what launching it as a kernel needs, worked
    /// out at its first launch.
    kernels: Vec<OnceLock<Kernel>>,
    /// Every function index ordered by name, sorted at the first lookup: a
    /// launch finds its kernel by binary search, not by a scan of the
    /// module.
    by_name: OnceLock<Box<[u32]>>,
}

/// A function as a kernel: its name, shared with the launch ops a host
/// queues for it, and its register demand.
struct Kernel {
    name: Arc<str>,
    regs: u32,
}

impl Image {
    /// Lay `module` out in device memory and render its initial bytes.
    ///
    /// Global- and constant-space globals get their initializer images;
    /// shared-space globals are *not* statically initialized (real shared
    /// memory is undefined at kernel start — the runtime initializes what
    /// it needs in `__kmpc_target_init`, exactly as in the paper §III).
    /// A module the verifier rejects still loads; its launches are refused.
    pub fn new(module: Module) -> Image {
        let mut layout = GlobalLayout {
            addr_of: Vec::with_capacity(module.globals.len()),
            ..GlobalLayout::default()
        };
        // 8-byte aligned bump allocation per segment.
        fn place(top: &mut u64, size: u64) -> u32 {
            let at = (*top + 7) & !7;
            *top = at + size;
            at as u32
        }
        for g in &module.globals {
            layout.addr_of.push(match g.space {
                Space::Global => DevPtr::global(place(&mut layout.global_static_size, g.size)),
                Space::Constant => DevPtr::constant(place(&mut layout.const_size, g.size)),
                // Local-space globals make no sense; treat as shared so
                // they at least have storage.
                Space::Shared | Space::Local => DevPtr::shared(place(&mut layout.shared_size, g.size)),
            });
        }

        let mut global_init = vec![0; layout.global_static_size as usize];
        let mut constant = Region::with_size(layout.const_size as usize);
        for (g, addr) in module.globals.iter().zip(&layout.addr_of) {
            let bytes = match g.space {
                Space::Global => &mut global_init,
                Space::Constant => &mut constant.bytes,
                _ => continue,
            };
            let at = addr.offset() as usize;
            if let Some(dst) = bytes.get_mut(at..at + g.size as usize) {
                g.init.fill(dst);
            }
        }
        Image {
            kernels: module.funcs.iter().map(|_| OnceLock::new()).collect(),
            verdict: verify_module(&module),
            module,
            layout,
            global_init,
            constant,
            san: OnceLock::new(),
            live: OnceLock::new(),
            bc: OnceLock::new(),
            by_name: OnceLock::new(),
        }
    }

    fn sanitizer(&self) -> &Arc<ModuleSan> {
        self.san
            .get_or_init(|| Arc::new(ModuleSan::new(&self.module, &self.layout.addr_of)))
    }

    /// Per function index, per arena instruction, whether an operand of
    /// the function (an instruction's, a phi incoming's or a terminator's)
    /// reads the result. A buffered global atomic validates the old value
    /// it observed exactly when its result is live (`gmem.rs`), so both
    /// tiers read this one table.
    pub(crate) fn live_results(&self) -> &[Box<[bool]>] {
        self.live.get_or_init(|| self.module.funcs.iter().map(live_results_of).collect())
    }

    /// The lowered module, or the refusal every launch of this image
    /// returns on either tier: the verifier's rejection, or a function
    /// that failed lowering's validation gate (an internal error). Both
    /// tiers ask, so an image a launch refuses on one it refuses on the
    /// other.
    fn bytecode(&self) -> Result<&BcModule, TrapKind> {
        if let Err(e) = &self.verdict {
            return Err(TrapKind::MalformedIr(e.to_string()));
        }
        self.bc
            .get_or_init(|| lower_module(&self.module, &self.layout, self.live_results()))
            .as_ref()
            .map_err(TrapKind::clone)
    }

    /// Registers are allocated for the whole call tree on a GPU (no real
    /// call stack): the maximum over every function reachable from the
    /// kernel.
    fn kernel(&self, kernel: FuncRef) -> &Kernel {
        self.kernels[kernel.index()].get_or_init(|| {
            let func = self.module.func(kernel);
            let live = CallGraph::build(&self.module).reachable_from(&[kernel]);
            let regs = self
                .module
                .funcs
                .iter()
                .zip(live)
                .filter(|(f, live)| *live && !f.is_declaration())
                .map(|(f, _)| liveness::register_estimate(f))
                .max()
                .unwrap_or_else(|| liveness::register_estimate(func));
            Kernel { name: Arc::from(func.name.as_str()), regs }
        })
    }

    /// The function named `name`, resolved through the image's name index.
    /// Names are unique in a verified module, and only a verified module
    /// launches.
    fn resolve(&self, name: &str) -> Option<FuncRef> {
        let funcs = &self.module.funcs;
        let name_of = |i: u32| funcs[i as usize].name.as_str();
        let order = self.by_name.get_or_init(|| {
            let mut order: Vec<u32> = (0..funcs.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| name_of(a).cmp(name_of(b)));
            order.into_boxed_slice()
        });
        let at = order.partition_point(|&i| name_of(i) < name);
        order.get(at).filter(|&&i| name_of(i) == name).map(|&i| FuncRef(i))
    }

    /// The shared name of kernel `name` — what a host's launch op holds, so
    /// that queueing a launch copies no bytes — or `None` if the module has
    /// no such function.
    pub fn kernel_name(&self, name: &str) -> Option<Arc<str>> {
        let f = self.resolve(name)?;
        Some(Arc::clone(&self.kernel(f).name))
    }
}

/// One entry of [`Image::live_results`].
fn live_results_of(func: &Function) -> Box<[bool]> {
    let mut live = vec![false; func.insts.len()];
    let mut mark = |op: Operand| {
        if let Operand::Inst(i) = op {
            if let Some(u) = live.get_mut(i.index()) {
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
    live.into_boxed_slice()
}

/// Everything a memcpy or a launch changes on a [`Device`]: global memory
/// (the device heap included), the heap allocator, and what the last
/// launch left for the host to read (sanitizer outcome, wave stats).
/// [`Device::save_state`] fills one and [`Device::restore_state`] puts it
/// back on a device of the same image — a copy inside the simulator, not
/// a modeled transfer: neither ticks the device-fault clock, charges a
/// cycle or reads a fault plan. How a host checkpoints a device it may
/// have to replace.
#[derive(Default)]
pub struct DeviceState {
    image: Option<Arc<Image>>,
    global: Vec<u8>,
    heap: HeapState,
    last_san: Option<LaunchSan>,
    last_wave: Option<WaveStats>,
}

/// A loaded module plus device memory. Global memory persists across
/// launches (like a real device), so hosts can upload inputs once and run
/// several kernels.
pub struct Device {
    pub config: DeviceConfig,
    image: Arc<Image>,
    global: Region,
    heap: HeapState,
    /// Armed fault-injection plan applied to every subsequent launch
    /// (`None` in production: the interpreter hot loop then performs a
    /// single always-false compare per instruction).
    faults: Option<FaultPlan>,
    /// Worker threads, execution tier and sanitizer mode of subsequent
    /// launches. No setting changes any observable launch outcome.
    run: RunConfig,
    /// Sanitizer outcome of the most recent launch (kept even when the
    /// launch trapped).
    last_san: Option<LaunchSan>,
    /// What the wave engine did in the most recent multi-worker launch.
    last_wave: Option<WaveStats>,
    /// Host-visible device operations performed (memcpys + launches) —
    /// the trigger clock of [`crate::faults::DeviceFaultSite`]s. Reset
    /// when a plan is (re-)armed so seeded campaigns reproduce.
    dev_ops: u64,
    /// One consumed flag per armed `device_sites` entry.
    dev_sites_fired: Vec<bool>,
    /// The device vanished (a [`DeviceFaultKind::Lost`] site fired):
    /// every further memcpy/launch returns [`TrapKind::DeviceLost`].
    lost: bool,
}

impl Device {
    /// Load `module` onto a device with the given configuration, running
    /// [`RunConfig::default`].
    pub fn load(module: Module, config: DeviceConfig) -> Device {
        Device::load_with(module, config, RunConfig::default())
    }

    /// [`Device::load`] under an explicit run configuration.
    pub fn load_with(module: Module, config: DeviceConfig, run: RunConfig) -> Device {
        Device::from_image(Arc::new(Image::new(module)), config, run)
    }

    /// A fresh device over a loaded `image` — the one constructor: global
    /// memory is a copy of the image's initial bytes, the heap is empty,
    /// no fault plan is armed. How a host runtime creates every device
    /// (under its own run configuration), so binding an image again costs
    /// the memory, not the load.
    pub fn from_image(image: Arc<Image>, config: DeviceConfig, run: RunConfig) -> Device {
        let heap = HeapState {
            live_allocs: Default::default(),
            limit: image.layout.global_static_size + cost::HEAP_BYTES,
        };
        Device {
            config,
            global: Region { bytes: image.global_init.clone() },
            image,
            heap,
            faults: None,
            run,
            last_san: None,
            last_wave: None,
            dev_ops: 0,
            dev_sites_fired: Vec::new(),
            lost: false,
        }
    }

    /// How subsequent launches execute.
    pub fn run_config(&self) -> RunConfig {
        self.run
    }

    /// Select the execution tier for subsequent launches. Bytecode is the
    /// default and the only tier a configuration reaches; this exists to
    /// name the interpreter — the oracle differential tests and the
    /// benchmark ladder compare against. Switching tiers never changes any
    /// observable launch outcome — see `docs/exec-tiers.md`.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.run.tier = tier;
    }

    pub fn exec_tier(&self) -> ExecTier {
        self.run.tier
    }

    /// Set the number of host worker threads used to execute the teams of
    /// a wave concurrently. `1` runs the exact sequential interpreter code
    /// path; any `n` produces bit-identical results (memory, metrics,
    /// traps) — see `docs/parallel-vgpu.md` for the contract.
    pub fn set_worker_threads(&mut self, n: usize) {
        self.run.workers = n.max(1);
    }

    pub fn worker_threads(&self) -> usize {
        self.run.workers
    }

    /// Select the sanitizer mode for subsequent launches. Findings never
    /// change a launch's result: they are counted in its metrics and kept
    /// in [`Device::sanitizer_reports`].
    pub fn set_sanitize(&mut self, mode: Sanitize) {
        self.run.sanitize = mode;
    }

    /// Sanitizer findings of the most recent launch, in deterministic
    /// (ascending-team fold) order. Empty when clean — or when sanitizing
    /// is off. Kept even when the launch trapped.
    pub fn sanitizer_reports(&self) -> &[SanReport] {
        self.last_san
            .as_ref()
            .map(|l| l.reports.as_slice())
            .unwrap_or(&[])
    }

    /// `(data races, barrier divergences)` of the most recent launch,
    /// including findings beyond the report retention cap.
    pub fn sanitizer_counts(&self) -> (u64, u64) {
        self.last_san
            .as_ref()
            .map(|l| (l.races, l.divergences))
            .unwrap_or((0, 0))
    }

    /// What the wave engine did in the most recent launch that ran on it
    /// (more than one worker and more than one team); `None` before the
    /// first. Kept even when the launch trapped.
    pub fn last_wave_stats(&self) -> Option<WaveStats> {
        self.last_wave
    }

    /// Raw bytes of device global memory — the determinism tests compare
    /// the entire image bit for bit across worker counts.
    pub fn global_bytes(&self) -> &[u8] {
        &self.global.bytes
    }

    /// Copy this device's [`DeviceState`] into `into`, reusing its
    /// buffers: once they have grown to fit, a save allocates nothing.
    pub fn save_state(&self, into: &mut DeviceState) {
        if !into.image.as_ref().is_some_and(|i| Arc::ptr_eq(i, &self.image)) {
            into.image = Some(Arc::clone(&self.image));
        }
        into.global.clone_from(&self.global.bytes);
        into.heap.live_allocs.clone_from(&self.heap.live_allocs);
        into.heap.limit = self.heap.limit;
        into.last_san.clone_from(&self.last_san);
        into.last_wave = self.last_wave;
    }

    /// Put a saved [`DeviceState`] back: afterwards memory, heap and the
    /// last launch's outcome read as they did on the device it was saved
    /// from. `false`, with nothing changed, if that device ran another
    /// image (or nothing was saved).
    #[must_use]
    pub fn restore_state(&mut self, from: &DeviceState) -> bool {
        if !from.image.as_ref().is_some_and(|i| Arc::ptr_eq(i, &self.image)) {
            return false;
        }
        self.global.bytes.clone_from(&from.global);
        self.heap.live_allocs.clone_from(&from.heap.live_allocs);
        self.heap.limit = from.heap.limit;
        self.last_san.clone_from(&from.last_san);
        self.last_wave = from.last_wave;
        true
    }

    pub fn module(&self) -> &Module {
        &self.image.module
    }

    /// Arm a fault-injection plan; every subsequent launch executes under
    /// it until another is armed. An empty plan ([`FaultPlan::none`])
    /// disarms.
    ///
    /// (Re-)arming resets the device-fault clock: the op counter, the
    /// consumed-site flags, and the `lost` latch — a test hook that makes
    /// seeded campaigns replayable on one device. A real host never
    /// resurrects hardware this way; it binds a replacement device.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.dev_ops = 0;
        self.lost = false;
        self.dev_sites_fired = vec![false; plan.device_sites.len()];
        self.faults = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Whether the device has been lost to a [`DeviceFaultKind::Lost`]
    /// site. Lost devices fail every memcpy/launch with
    /// [`TrapKind::DeviceLost`].
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// The step budget the next launch runs under: the device's
    /// `max_steps`, capped by the armed plan's `fuel_limit` — a plan can
    /// only shrink it.
    fn effective_fuel(&self) -> u64 {
        let limit = self.faults.as_ref().and_then(|p| p.fuel_limit);
        limit.unwrap_or(u64::MAX).min(self.config.max_steps)
    }

    /// Device-fault poll, run at the entry of every host-visible device
    /// operation (memcpy, launch) *before* it mutates anything — faulted
    /// ops are atomic: they either complete or leave no trace. Returns
    /// the trap to raise, if a site fires (or the device is already
    /// lost). With no plan armed this is two always-false branches.
    fn poll_device_fault(&mut self, is_launch: bool) -> Option<TrapKind> {
        if self.lost {
            return Some(TrapKind::DeviceLost);
        }
        let plan = self.faults.as_ref()?;
        if plan.device_sites.is_empty() {
            return None;
        }
        let op = self.dev_ops;
        self.dev_ops += 1;
        // First unconsumed site whose trigger index has passed and whose
        // kind applies to this op class fires; `Lost` applies to every
        // class and latches.
        for (i, site) in plan.device_sites.iter().enumerate() {
            if self.dev_sites_fired.get(i).copied().unwrap_or(true) || site.after_ops > op {
                continue;
            }
            let applies = match site.kind {
                DeviceFaultKind::Lost => true,
                DeviceFaultKind::StallLaunch => is_launch,
                DeviceFaultKind::MemcpyFail => !is_launch,
            };
            if !applies {
                continue;
            }
            self.dev_sites_fired[i] = true;
            return Some(match site.kind {
                DeviceFaultKind::Lost => {
                    self.lost = true;
                    TrapKind::DeviceLost
                }
                DeviceFaultKind::StallLaunch => TrapKind::Stalled {
                    fuel: self.effective_fuel(),
                },
                DeviceFaultKind::MemcpyFail => TrapKind::MemcpyFault,
            });
        }
        None
    }

    /// The entry of the raw memcpy primitives: the device-fault poll
    /// (same synthetic `<host read>` / `<host write>` context as
    /// [`host_err`]), then the bounds check of `len` bytes at `ptr`.
    fn host_memcpy(&mut self, op: &str, ptr: DevPtr, len: usize) -> Result<Range<usize>, ExecError> {
        if let Some(kind) = self.poll_device_fault(false) {
            return Err(host_err(kind, op));
        }
        self.host_range(op, ptr, len, 1)
    }

    /// Host-side allocation in device global memory.
    pub fn alloc(&mut self, size: u64) -> DevPtr {
        let aligned = (size + 7) & !7;
        let off = (self.global.len() as u64 + 7) & !7;
        self.global.grow_to((off + aligned) as usize);
        DevPtr::global(off as u32)
    }

    /// Allocate and upload a little-endian `f64` slice (a lost device drops the upload).
    pub fn alloc_f64(&mut self, data: &[f64]) -> DevPtr {
        let p = self.alloc((data.len() * 8) as u64);
        let _ = self.write_f64(p, data);
        p
    }

    pub fn alloc_i64(&mut self, data: &[i64]) -> DevPtr {
        let p = self.alloc((data.len() * 8) as u64);
        let _ = self.write_i64(p, data);
        p
    }

    /// The one checked path under every host memcpy: a latched-lost device
    /// answers `DeviceLost`, then the whole `n × size`-byte range is bounds-
    /// checked before a byte moves. Reads the latch only: the device-fault
    /// clock ticks in the raw byte copies alone (`host_memcpy`; campaigns
    /// count those).
    fn host_range(&self, op: &str, ptr: DevPtr, n: usize, size: usize) -> Result<Range<usize>, ExecError> {
        if self.lost {
            return Err(host_err(TrapKind::DeviceLost, op));
        }
        let off = ptr.offset() as usize;
        n.checked_mul(size)
            .and_then(|len| off.checked_add(len))
            .filter(|end| *end <= self.global.bytes.len())
            .map(|end| off..end)
            .ok_or_else(|| host_err(TrapKind::OutOfBounds, op))
    }

    fn write_le<T: Copy, const N: usize>(&mut self, ptr: DevPtr, data: &[T], le: impl Fn(T) -> [u8; N]) -> Result<(), ExecError> {
        let range = self.host_range("write", ptr, data.len(), N)?;
        for (dst, v) in self.global.bytes[range].as_chunks_mut::<N>().0.iter_mut().zip(data) {
            *dst = le(*v);
        }
        Ok(())
    }

    fn read_le<T, const N: usize>(&self, ptr: DevPtr, len: usize, le: impl Fn([u8; N]) -> T) -> Result<Vec<T>, ExecError> {
        let range = self.host_range("read", ptr, len, N)?;
        Ok(self.global.bytes[range].as_chunks::<N>().0.iter().map(|b| le(*b)).collect())
    }

    /// Host→device memcpy. Errors (typed, never a panic) if any part of
    /// the destination lies outside device global memory.
    pub fn write_f64(&mut self, ptr: DevPtr, data: &[f64]) -> Result<(), ExecError> {
        self.write_le(ptr, data, f64::to_le_bytes)
    }

    pub fn write_i64(&mut self, ptr: DevPtr, data: &[i64]) -> Result<(), ExecError> {
        self.write_le(ptr, data, i64::to_le_bytes)
    }

    pub fn write_i32(&mut self, ptr: DevPtr, data: &[i32]) -> Result<(), ExecError> {
        self.write_le(ptr, data, i32::to_le_bytes)
    }

    pub fn write_ptr(&mut self, ptr: DevPtr, value: DevPtr) -> Result<(), ExecError> {
        self.write_le(ptr, &[value.0], u64::to_le_bytes)
    }

    /// Raw host→device memcpy — the transfer primitive of the offload
    /// host runtime (`nzomp-host`), which moves opaque byte images rather
    /// than typed slices.
    pub fn write_bytes(&mut self, ptr: DevPtr, data: &[u8]) -> Result<(), ExecError> {
        let range = self.host_memcpy("write", ptr, data.len())?;
        self.global.bytes[range].copy_from_slice(data);
        Ok(())
    }

    /// [`Device::write_bytes`] of `len` zero bytes, without the bytes.
    pub fn zero_bytes(&mut self, ptr: DevPtr, len: usize) -> Result<(), ExecError> {
        let range = self.host_memcpy("write", ptr, len)?;
        self.global.bytes[range].fill(0);
        Ok(())
    }

    /// Raw device→host memcpy; typed out-of-bounds error instead of a
    /// panic. `&mut` because the device-fault clock ticks on every
    /// host-visible transfer, even reads.
    pub fn read_bytes(&mut self, ptr: DevPtr, len: usize) -> Result<Vec<u8>, ExecError> {
        let range = self.host_memcpy("read", ptr, len)?;
        Ok(self.global.bytes[range].to_vec())
    }

    /// [`Device::read_bytes`] of `dst.len()` bytes into `dst`.
    pub fn read_into(&mut self, ptr: DevPtr, dst: &mut [u8]) -> Result<(), ExecError> {
        let range = self.host_memcpy("read", ptr, dst.len())?;
        dst.copy_from_slice(&self.global.bytes[range]);
        Ok(())
    }

    /// Device→host memcpy; typed out-of-bounds error instead of a panic.
    pub fn read_f64(&self, ptr: DevPtr, len: usize) -> Result<Vec<f64>, ExecError> {
        self.read_le(ptr, len, f64::from_le_bytes)
    }

    pub fn read_i64(&self, ptr: DevPtr, len: usize) -> Result<Vec<i64>, ExecError> {
        self.read_le(ptr, len, i64::from_le_bytes)
    }

    pub fn read_i32(&self, ptr: DevPtr, len: usize) -> Result<Vec<i32>, ExecError> {
        self.read_le(ptr, len, i32::from_le_bytes)
    }

    /// Address of a named global (host access to device state).
    pub fn global_addr(&self, name: &str) -> Option<DevPtr> {
        self.image
            .module
            .find_global(name)
            .map(|g| self.image.layout.addr_of[g.index()])
    }

    /// Launch a kernel by name. Returns metrics on success; `ExecError` on
    /// any device trap.
    pub fn launch(
        &mut self,
        kernel: &str,
        launch: Launch,
        args: &[RtVal],
    ) -> Result<KernelMetrics, ExecError> {
        let refuse = |kind| ExecError { kind, team: 0, thread: 0, func: kernel.to_string() };
        if let Some(kind) = self.poll_device_fault(true) {
            return Err(refuse(kind));
        }
        let bc = self.image.bytecode().map_err(refuse)?;
        let func_ref = self
            .image
            .resolve(kernel)
            .ok_or_else(|| refuse(TrapKind::BadLaunch(format!("no kernel @{kernel}"))))?;
        let func = self.image.module.func(func_ref);
        if func.params.len() != args.len() {
            let msg = format!("kernel @{kernel} takes {} args, got {}", func.params.len(), args.len());
            return Err(refuse(TrapKind::BadLaunch(msg)));
        }
        // The bytecode tier's registers are untagged bits, read in the
        // domain the verifier gave each parameter: float exactly for `f64`.
        for (i, (ty, arg)) in func.params.iter().zip(args).enumerate() {
            if ty.is_float() != matches!(arg, RtVal::F(_)) {
                let msg = format!("kernel @{kernel} parameter {i} is {ty}, got {arg:?}");
                return Err(refuse(TrapKind::BadLaunch(msg)));
            }
        }
        // A shape no SM can hold is refused before anything is sized from it.
        let smem = self.image.layout.shared_size;
        let shared_total = match smem.checked_add(launch.dyn_smem_bytes) {
            Some(s) if s <= cost::SMEM_PER_SM && launch.threads_per_team <= cost::MAX_THREADS_PER_SM => s,
            _ => {
                let msg = format!(
                    "{} threads and {smem} + {} B of shared memory per team exceed an SM ({} threads, {} B)",
                    launch.threads_per_team,
                    launch.dyn_smem_bytes,
                    cost::MAX_THREADS_PER_SM,
                    cost::SMEM_PER_SM
                );
                return Err(refuse(TrapKind::BadLaunch(msg)));
            }
        };
        let regs = self.image.kernel(func_ref).regs;

        // Occupancy is computed up front: the wave chunking drives *both*
        // the parallel team engine (which wave a team runs in) and the
        // cycle aggregation, so they can never disagree. Teams fold into
        // it as they retire, so nothing is sized by the grid.
        let tps = cost::teams_per_sm(regs, launch.threads_per_team, shared_total.max(1));
        let mut waves = Waves::new(cost::wave_size(tps), cost::latency_exposure(tps));

        // A fault plan can shrink the step budget and the device heap
        // for this launch; the heap limit is restored afterwards (even on
        // a trap) so one faulted launch does not poison the next.
        let mut fuel = self.effective_fuel();
        let saved_heap_limit = self.heap.limit;
        if let Some(budget) = self.faults.as_ref().and_then(|p| p.heap_limit) {
            self.heap.limit = (self.global.len() as u64).saturating_add(budget);
        }
        // Sanitizer launch state: folded team by team in ascending order
        // (both execution paths), stored on the device even when the
        // launch traps — reports must survive the error return.
        let mut lsan = (self.run.sanitize != Sanitize::Off).then(LaunchSan::default);
        let ctx = LaunchCtx {
            image: &self.image,
            bc: match self.run.tier {
                ExecTier::Bytecode => Some(bc),
                ExecTier::Interp => None,
            },
            faults: self.faults.as_ref(),
            check_assumes: self.config.check_assumes,
            kernel: func_ref.0,
            args,
            launch,
            shared_total,
            san: lsan.is_some().then(|| self.image.sanitizer()),
        };
        let outcome = if self.run.workers <= 1 || launch.teams <= 1 {
            run_teams_sequential(&ctx, &mut self.global, &mut self.heap, &mut waves, &mut fuel, &mut lsan)
        } else {
            let workers = self.run.workers;
            let (global, heap) = (&mut self.global, &mut self.heap);
            let (outcome, stats) = run_teams_parallel(&ctx, global, heap, &mut waves, workers, &mut fuel, &mut lsan);
            self.last_wave = Some(stats);
            outcome
        };
        self.heap.limit = saved_heap_limit;
        let (races, divergences) = lsan.as_ref().map(|l| (l.races, l.divergences)).unwrap_or((0, 0));
        self.last_san = lsan;
        let counters = match outcome {
            Ok(counters) => counters,
            Err((kind, team, thread)) => {
                return Err(ExecError {
                    kind,
                    team,
                    thread,
                    func: kernel.to_string(),
                })
            }
        };

        let (cycles_total, waves) = waves.finish();
        let time_ms = cycles_total as f64 / (cost::CLOCK_GHZ * 1e6);

        Ok(KernelMetrics {
            teams: launch.teams,
            threads_per_team: launch.threads_per_team,
            regs_per_thread: regs,
            smem_bytes: smem,
            dyn_smem_bytes: launch.dyn_smem_bytes,
            teams_per_sm: tps,
            waves,
            cycles: cycles_total,
            time_ms,
            instructions: counters.instructions,
            dispatched: counters.dispatched,
            barriers: counters.barriers,
            global_accesses: counters.global_accesses,
            shared_accesses: counters.shared_accesses,
            local_accesses: counters.local_accesses,
            device_mallocs: counters.device_mallocs,
            runtime_calls: counters.runtime_calls,
            flops: counters.flops,
            sanitizer_races: races,
            sanitizer_divergences: divergences,
        })
    }
}

/// The occupancy / wave model, folded team by team: teams are issued in
/// launch order, one wave of `size` at a time, and each wave lasts as long
/// as its slowest team. A team's effective duration exposes its memory
/// cycles in inverse proportion to how many teams the SM keeps resident
/// (latency hiding) — `exposure`, known before the first team runs.
struct Waves {
    size: usize,
    exposure: f64,
    /// Teams retired into the open wave, and the slowest of them.
    open: usize,
    slowest: u64,
    cycles: u64,
    count: u32,
}

impl Waves {
    fn new(size: usize, exposure: f64) -> Waves {
        Waves { size: size.max(1), exposure, open: 0, slowest: 0, cycles: 0, count: 0 }
    }

    /// Fold in the next team's `(cycles, mem cycles)`.
    fn retire(&mut self, (total, mem): (u64, u64)) {
        let compute = total.saturating_sub(mem);
        self.slowest = self.slowest.max(compute + (mem as f64 * self.exposure) as u64);
        self.open += 1;
        if self.open == self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        self.cycles += self.slowest;
        self.count += 1;
        self.open = 0;
        self.slowest = 0;
    }

    /// `(kernel cycles, waves)` once every team has retired.
    fn finish(mut self) -> (u64, u32) {
        if self.open > 0 {
            self.close();
        }
        (self.cycles, self.count)
    }
}

/// Run one team write-through against the master region with `fuel`
/// steps left — the sequential path's unit of work, and the parallel
/// path's re-run of a team whose buffered execution could not merge.
fn run_team_direct<'a>(
    ctx: &LaunchCtx<'a>,
    global: &'a mut Region,
    heap: &'a mut HeapState,
    team: u32,
    fuel: u64,
) -> TeamOutcome<'a> {
    TeamEngine::new(ctx, team, GlobalMem::Direct { region: global, heap }, fuel).run(ctx)
}

/// The sequential interpreter path: teams run one after another,
/// write-through to the master region, with the shared fuel budget
/// threaded team to team. One worker thread takes exactly this path — it
/// is the semantic reference the parallel engine must match.
fn run_teams_sequential(
    ctx: &LaunchCtx<'_>,
    global: &mut Region,
    heap: &mut HeapState,
    waves: &mut Waves,
    fuel: &mut u64,
    lsan: &mut Option<LaunchSan>,
) -> TeamsOutcome {
    let mut totals = Counters::default();
    for team in 0..ctx.launch.teams {
        let run = run_team_direct(ctx, global, heap, team, *fuel);
        // Fold before the trap check: a trapping team's findings up
        // to the trap are still reported (sequential first-trap
        // semantics — later teams never run, so never fold).
        if let (Some(ls), Some(s)) = (lsan.as_mut(), run.san) {
            ls.fold_team(&ctx.image.module, *s);
        }
        totals.add(&run.counters);
        *fuel = run.fuel_left;
        waves.retire(run.result.map_err(|(kind, thread)| (kind, team, thread))?);
    }
    Ok(totals)
}

/// The parallel path: teams of each occupancy wave (`wave_size` teams) run
/// concurrently on `workers` threads against snapshots of global memory,
/// then their effect logs are replayed onto the master region in ascending
/// team order ("wave-ordered merge"). The merge also reconciles the shared
/// fuel budget and re-runs (in direct mode, with the exact remaining
/// budget) any team that overdrew it or bailed out on an unbufferable
/// operation — so memory, counters, and traps are bit-identical to
/// [`run_teams_sequential`]. See `docs/parallel-vgpu.md`.
fn run_teams_parallel(
    ctx: &LaunchCtx<'_>,
    global: &mut Region,
    heap: &mut HeapState,
    waves: &mut Waves,
    workers: usize,
    fuel: &mut u64,
    lsan: &mut Option<LaunchSan>,
) -> (TeamsOutcome, WaveStats) {
    let teams = ctx.launch.teams;
    let mut totals = Counters::default();
    let mut stats = WaveStats::default();
    // One per worker, for the whole launch.
    let mut scratch: Vec<WaveScratch> = (0..workers).map(|_| WaveScratch::default()).collect();
    let mut first = 0;
    while first < teams {
        let wave = first..first.saturating_add(waves.size as u32).min(teams);
        first = wave.end;
        let runs = run_wave(ctx, global, wave.clone(), *fuel, &mut scratch);
        stats.waves += 1;
        for (run, team) in runs.into_iter().zip(wave) {
            stats.teams += 1;
            let effects = &scratch[run.worker].log()[run.log.effects.clone()];
            stats.effects += effects.len() as u64;
            stats.validated += run.log.validated as u64;
            stats.private_chunks += run.log.private_chunks as u64;
            // A team merges its buffered outcome only if, at its
            // (sequential) turn, it (a) fits the remaining fuel budget
            // — otherwise sequential execution would have trapped
            // FuelExhausted partway through; (b) did not touch the
            // device heap (unbufferable); and (c) every validated
            // observation — plain global loads, CAS old values, and
            // live-result atomic RMWs — matched what the master
            // actually held, so its execution was uncontaminated.
            // Any failing team is re-executed in direct mode with the
            // exact remaining budget, which reproduces the sequential
            // outcome including partial effects.
            let merged = if run.steps > *fuel {
                stats.rerun_fuel += 1;
                false
            } else if run.bailed() {
                stats.bailed += 1;
                false
            } else {
                match apply_effects(global, effects) {
                    Ok(true) => {
                        stats.merged += 1;
                        true
                    }
                    Ok(false) => {
                        stats.rerun_validation += 1;
                        false
                    }
                    Err(kind) => return (Err((kind, team, 0)), stats),
                }
            };
            // Wave-ordered merge: a trapping team still publishes the
            // effects it performed before the trap (direct mode wrote
            // them through), and later teams never merge — exactly the
            // sequential first-trap-wins behavior.
            let (result, counters, steps, san) = if merged {
                // A merged team's buffered access trace is identical
                // to the sequential one (every observation validated),
                // so its sanitizer verdict carries over unchanged.
                (run.result, run.counters, run.steps, run.san)
            } else {
                let rerun = run_team_direct(ctx, global, heap, team, *fuel);
                (rerun.result, rerun.counters, *fuel - rerun.fuel_left, rerun.san)
            };
            // Ascending-team fold at the merge position — the same
            // order and state as the sequential path.
            if let (Some(ls), Some(s)) = (lsan.as_mut(), san) {
                ls.fold_team(&ctx.image.module, *s);
            }
            totals.add(&counters);
            *fuel -= steps;
            match result {
                Ok(cycles) => waves.retire(cycles),
                Err((kind, thread)) => return (Err((kind, team, thread)), stats),
            }
        }
    }
    (Ok(totals), stats)
}

/// The summed counters on success (every team retired into the launch's
/// [`Waves`]); `(trap, team, thread)` on the first (lowest-team-index) trap.
type TeamsOutcome = Result<Counters, (TrapKind, u32, u32)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DeviceFaultSite;
    use nzomp_ir::{ExecMode, FuncBuilder, Function, Operand, Ty};

    /// A saved state put back on a fresh device of the same image reads
    /// as the device it was saved from: memory, the next bump allocation,
    /// the device heap, the last launch's sanitizer findings and wave
    /// stats. Restoring ticks no device-fault clock (saving cannot: it
    /// borrows the device shared), and a device of another image refuses
    /// the state.
    #[test]
    fn a_restored_state_reads_as_the_saved_device_and_ticks_no_fault_clock() {
        // Every thread writes its id to `out[0]` and to `out[1 + tid]`:
        // the first store races, so the sanitizer has findings to keep.
        let mut m = Module::new("state");
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let tid = b.thread_id();
        b.store(Ty::I64, b.param(0), tid);
        let off = b.add(tid, Operand::i64(1));
        let off = b.mul(off, Operand::i64(8));
        let p = b.ptr_add(b.param(0), off);
        b.store(Ty::I64, p, tid);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        let image = Arc::new(Image::new(m));
        let run = RunConfig { workers: 2, sanitize: Sanitize::Report, ..RunConfig::default() };
        let fresh = || Device::from_image(Arc::clone(&image), DeviceConfig::default(), run);
        let mut dev = fresh();
        let out = dev.alloc(72);
        dev.launch("k", Launch::new(2, 4), &[RtVal::P(out)]).unwrap();
        // What a device-side `malloc` the kernel never freed leaves behind.
        dev.heap.live_allocs.insert(dev.global.len() as u64, 8);
        let mut state = DeviceState::default();
        dev.save_state(&mut state);

        let mut other = Device::load(Module::new("other"), DeviceConfig::default());
        assert!(!other.restore_state(&state), "a state of another image");
        let mut again = fresh();
        assert!(!again.restore_state(&DeviceState::default()), "a state never saved");
        let fail_next_memcpy = DeviceFaultSite { after_ops: 0, kind: DeviceFaultKind::MemcpyFail };
        again.set_fault_plan(FaultPlan { device_sites: vec![fail_next_memcpy], ..FaultPlan::default() });
        assert!(again.restore_state(&state));
        assert_eq!(again.global_bytes(), dev.global_bytes());
        assert_eq!((&again.heap.live_allocs, again.heap.limit), (&dev.heap.live_allocs, dev.heap.limit));
        assert!(!dev.sanitizer_reports().is_empty());
        assert_eq!(again.sanitizer_reports(), dev.sanitizer_reports());
        assert_eq!(again.sanitizer_counts(), dev.sanitizer_counts());
        assert!(again.last_wave_stats().is_some());
        assert_eq!(again.last_wave_stats(), dev.last_wave_stats());
        assert_eq!(again.alloc(8), dev.alloc(8));
        let fault = again.write_bytes(out, &[0; 8]).unwrap_err();
        assert_eq!(fault.kind, TrapKind::MemcpyFault, "op 0 of the plan is still ahead");
    }

    /// The name index answers as the scan it replaced: the function of a
    /// name, and nothing for a name the module lacks, whether it sorts
    /// before, between or after the others. Names are unique in a module
    /// the verifier accepts, and one that repeats a name is refused at
    /// launch with the verifier's message, on either tier.
    #[test]
    fn the_name_index_answers_as_find_func() {
        let mut m = Module::new("names");
        for name in ["m", "b", "k", "a", "zz", "__kmpc"] {
            m.add_function(Function::declaration(name, vec![], None));
        }
        let image = Image::new(m.clone());
        assert_eq!(image.verdict, Ok(()));
        for name in ["m", "b", "k", "a", "zz", "__kmpc", "", "0", "c", "z", "zzz", "B"] {
            assert_eq!(image.resolve(name), m.find_func(name), "{name:?}");
        }

        m.add_function(Function::declaration("b", vec![], None));
        let refusal = TrapKind::MalformedIr("verify error in @<module>: symbol @b is defined twice".into());
        for tier in [ExecTier::Interp, ExecTier::Bytecode] {
            let mut dev = Device::load(m.clone(), DeviceConfig::default());
            dev.set_exec_tier(tier);
            let err = dev.launch("b", Launch::new(1, 1), &[]).unwrap_err();
            assert_eq!(err, ExecError { kind: refusal.clone(), team: 0, thread: 0, func: "b".into() }, "{tier:?}");
        }
    }
}
