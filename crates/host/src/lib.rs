//! `nzomp-host` — a libomptarget-style offload host runtime over one or
//! more [`nzomp_vgpu::Device`]s.
//!
//! The paper's near-zero-overhead claim is about the *device* runtime;
//! this crate supplies the layer a real deployment would wrap around it:
//!
//! * a ref-counted **present table** per device implementing OpenMP
//!   `map(to/from/tofrom/alloc/release/delete)` semantics with nested
//!   `target data` environments and a reusing device-memory pool
//!   ([`map`], [`pool`]);
//! * **one op queue** — memcpy / launch / pool-free operations deferred
//!   to [`Host::sync`], which runs them in the order they were enqueued,
//!   bit-identical to eager execution ([`stream`]);
//! * a **multi-device scheduler** — N virtual GPUs behind round-robin or
//!   least-loaded placement, with the compile cache as the per-host
//!   kernel-image registry, so repeated launches skip the pipeline
//!   entirely ([`sched`], [`Host::load_image`]).
//!
//! Every failure is a typed [`HostError`]; the crate is panic-free by the
//! same contract (and clippy gate) as the rest of the workspace.
//!
//! See `docs/host-runtime.md` for the design rationale and the
//! bit-identity argument.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod map;
pub mod pool;
pub mod recover;
pub mod sched;
mod slab;
pub mod stream;

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use nzomp::{BuildConfig, CompileCache, CompileOutput};
use nzomp_ir::Module;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::DevPtr;
use nzomp_vgpu::{
    Device, DeviceConfig, ExecError, ExecTier, FaultPlan, Image, KernelMetrics, RtVal, RunConfig,
};

pub use error::{ErrorClass, HostError, InUse, MapError, StreamError};
pub use map::{BufId, MapKind, MapSpec, PresentTable};
pub use pool::DevicePool;
pub use recover::{RecoveryMetrics, RecoveryPolicy};
pub use sched::{ImageId, SchedPolicy};
pub use slab::Key;
pub use stream::{KArg, StreamId, Ticket};

use error::{MapError as ME, StreamError as SE};
use nzomp_vgpu::TrapKind;
use sched::{pick_device, Checkpoint, DeviceSlot};
use slab::Slab;
use stream::{backlog, DevOp, Op, Payload};

/// Encode `f64` values as the device byte image `Device::write_f64`
/// produces (IEEE bits, little-endian).
pub fn f64_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Encode `i64` values as device bytes.
pub fn i64_bytes(v: &[i64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode a device/host byte image back into `f64`s.
pub fn bytes_to_f64(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| {
            f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
        })
        .collect()
}

/// Decode a byte image into raw 64-bit words (bit-exact comparisons).
pub fn bytes_to_bits(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| {
            u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
        })
        .collect()
}

/// Declarative description of one argument of a `#pragma omp target`
/// region, in kernel-parameter order. [`Host::enqueue_region`] registers
/// the host buffers, enters the maps, launches, and exits — the driver
/// never touches device pointers.
#[derive(Clone, Debug)]
pub enum RegionArg {
    /// `map(to:)` — these bytes are the kernel's input.
    To(Vec<u8>),
    /// `map(from:)` — a fresh output buffer of this many bytes, copied
    /// back at region exit.
    From(u64),
    /// `map(alloc:)` — device-only scratch of this many bytes.
    Alloc(u64),
    /// A firstprivate scalar.
    Scalar(RtVal),
}

/// Handle of an enqueued target region: the launch ticket, the device it
/// was placed on, and per kernel parameter (`None` for scalars) the host
/// buffer registered for it and the device address it was mapped at,
/// captured while the region's maps were live. The host holds the ticket
/// and the buffers until [`Host::retire`] hands back the launch result
/// and the outputs and frees them.
#[derive(Clone, Debug)]
pub struct Region {
    pub ticket: Ticket,
    pub device: usize,
    pub bufs: Vec<Option<BufId>>,
    pub ptrs: Vec<Option<DevPtr>>,
}

/// What [`Host::retire`] hands back of a finished region.
#[derive(Debug)]
pub struct Retired {
    /// The launch's metrics, or its trap.
    pub result: Result<KernelMetrics, ExecError>,
    /// `(kernel-parameter index, bytes)` of every [`RegionArg::From`]
    /// argument, in parameter order.
    pub outputs: Vec<(usize, Vec<u8>)>,
}

/// A registered host buffer.
struct HostBuf {
    bytes: Vec<u8>,
    /// Registered by a region for a [`RegionArg::From`] argument: one of
    /// the outputs [`Host::retire`] hands back.
    output: bool,
}

/// Per-device slice of a [`HostStats`] snapshot: the load signals the
/// scheduler keys on plus pool and transfer counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Launches executed on this device.
    pub launches: u64,
    /// Simulated cycles of every launch executed here.
    pub executed_cycles: u64,
    /// Launches enqueued but not yet drained.
    pub pending_launches: u64,
    /// Operations on this device queued but not yet drained.
    pub queued_ops: u64,
    /// Retired by the recovery layer.
    pub quarantined: bool,
    /// Fresh pool allocations on this device.
    pub pool_allocs: u64,
    /// Pool blocks served by reuse (zero-filled) instead of fresh allocs.
    pub pool_reuse_hits: u64,
    /// Bytes currently mapped on this device.
    pub pool_in_use: u64,
    /// Host→device transfers issued.
    pub transfers_to: u64,
    /// Device→host transfers issued.
    pub transfers_from: u64,
}

/// Consolidated host-runtime observability snapshot from [`Host::stats`]:
/// the one stats surface for layers above the host (`nzomp-serve`,
/// `nzbench`) — compile cache, recovery work, and per-device state in
/// one place.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Compilations served from the compile cache.
    pub compile_hits: u64,
    /// Compilations that ran the real pipeline.
    pub compile_misses: u64,
    /// Distinct compiled images held by the cache: at most
    /// [`nzomp::pipeline::CACHE_ENTRIES`], unless the devices run more.
    pub images: usize,
    /// Everything the recovery layer did so far.
    pub recovery: RecoveryMetrics,
    /// Total queued operations executed (eager + drained).
    pub ops_executed: u64,
    /// Host buffers registered and not yet released.
    pub bufs_held: usize,
    /// Buffer slots ever handed out: what the buffer table is sized by.
    /// Released slots are reused, so a host that retires its regions
    /// holds as many as it ever had live at once.
    pub buf_slots: usize,
    /// Launch tickets minted and not yet retired.
    pub tickets_held: usize,
    /// Ticket slots ever handed out, reused like buffer slots.
    pub ticket_slots: usize,
    /// One entry per device slot, in fleet order.
    pub devices: Vec<DeviceStats>,
}

/// The offload host runtime: device fleet, image registry, host buffers,
/// the op queue, and launch tickets.
pub struct Host {
    dev_cfg: DeviceConfig,
    policy: SchedPolicy,
    slots: Vec<DeviceSlot>,
    rr_next: usize,

    /// The image registry and the one store of loaded images, bounded: an
    /// [`ImageId`] is a slot of this cache.
    cache: CompileCache,

    /// Registered host buffers, until released ([`Host::retire`],
    /// [`Host::unregister`]).
    bufs: Slab<HostBuf>,
    /// Deferred operations, in the order they were enqueued.
    queue: VecDeque<Op>,
    /// Stream ids handed out so far; every one names `queue`.
    streams: u32,
    /// Per launch, `None` until it ran, then its metrics or trap; until
    /// [`Host::retire`].
    tickets: Slab<Option<Result<KernelMetrics, ExecError>>>,

    eager: bool,
    ops_executed: u64,
    /// How every current and future device runs. One value for the whole
    /// fleet matters for recovery: journal replay and failover
    /// re-execution happen on replacement devices, which are created from
    /// it like the device they replace.
    run: RunConfig,

    /// `Some` enables the recovery layer (journaling, retries, failover);
    /// `None` is the PR 5 fast path, byte-for-byte.
    recovery: Option<RecoveryPolicy>,
    rmetrics: RecoveryMetrics,
}

impl Host {
    /// A host over `n_devices` virtual GPUs (at least one) of identical
    /// shape, running [`RunConfig::default`]. Devices are created lazily
    /// when an image is bound.
    pub fn new(dev_cfg: DeviceConfig, n_devices: usize) -> Host {
        Host::with_run(dev_cfg, n_devices, RunConfig::default())
    }

    /// [`Host::new`] under an explicit run configuration.
    pub fn with_run(dev_cfg: DeviceConfig, n_devices: usize, run: RunConfig) -> Host {
        Host {
            dev_cfg,
            policy: SchedPolicy::default(),
            slots: (0..n_devices.max(1)).map(|_| DeviceSlot::new()).collect(),
            rr_next: 0,
            cache: CompileCache::new(),
            bufs: Slab::default(),
            queue: VecDeque::new(),
            streams: 0,
            tickets: Slab::default(),
            eager: false,
            ops_executed: 0,
            run,
            recovery: None,
            rmetrics: RecoveryMetrics::default(),
        }
    }

    pub fn set_policy(&mut self, policy: SchedPolicy) {
        self.policy = policy;
    }

    /// Eager mode executes every operation at enqueue time instead of
    /// deferring to [`Host::sync`] — the semantic reference the deferred
    /// queue is differentially tested against. Set before enqueuing.
    pub fn set_eager(&mut self, eager: bool) {
        self.eager = eager;
    }

    // ---- image registry -------------------------------------------------

    /// Compile `app` under `config` (or reuse the cached image when this
    /// module/config pair was compiled before) and register it.
    pub fn load_image(&mut self, app: Module, config: BuildConfig) -> Result<ImageId, HostError> {
        Ok(ImageId(self.cache.compile_slot(app, config)? as u64))
    }

    /// [`Host::load_image`] of a module the caller keeps in an `Rc`: the
    /// same id and the same hit/miss counts, and submitting the same `Rc`
    /// again skips the clone, the name check and the structural compare
    /// ([`CompileCache::compile_slot_rc`]).
    pub fn load_image_rc(&mut self, app: &Rc<Module>, config: BuildConfig) -> Result<ImageId, HostError> {
        Ok(ImageId(self.cache.compile_slot_rc(app, config)? as u64))
    }

    /// The compiled image (module + remarks + pass timings) behind an id;
    /// `None` once the cache evicted it.
    pub fn image(&self, img: ImageId) -> Option<&CompileOutput> {
        self.cache.output(img.0 as usize)
    }

    /// The image slot `dev` is running: `Some` iff it holds a live,
    /// non-quarantined device — exactly when [`Host::bind_image`] of that
    /// image keeps the device (and its memory) instead of reloading it.
    pub fn bound_image(&self, dev: usize) -> Option<ImageId> {
        let slot = self.slots.get(dev)?;
        let (img, _) = slot.image.as_ref()?;
        (slot.dev.is_some() && !slot.quarantined).then_some(*img)
    }

    /// Ensure device slot `dev` runs image `img`, (re)creating the device
    /// if the slot is empty or held a different image. A reload resets
    /// the slot's present table, pool, checkpoint and journal: a fresh
    /// device's memory over the image's loaded form, which is shared with
    /// every other device running it. Work still queued for the old device
    /// would run against the new one's memory and kernels, so a reload
    /// under queued work is refused ([`HostError::DeviceBusy`]) with
    /// nothing changed: [`Host::sync`] first.
    /// Binding revives a quarantined slot — the explicit opt-in to reuse
    /// a retired slot after the fleet degraded.
    pub fn bind_image(&mut self, dev: usize, img: ImageId) -> Result<(), HostError> {
        let slot = self.slot(dev)?;
        if self.bound_image(dev) == Some(img) {
            return Ok(());
        }
        let (pending_launches, queued_ops) = backlog(&self.queue, dev);
        if queued_ops > 0 {
            return Err(HostError::DeviceBusy { device: dev, queued_ops, pending_launches });
        }
        let plan = slot.device_plan.clone();
        let image = self.loaded_image(img)?;
        let d = self.new_device(&image, plan);
        let slot = self.slot_mut(dev)?;
        slot.dev = Some(d);
        slot.image = Some((img, image));
        slot.table = PresentTable::new();
        slot.pool = DevicePool::new();
        slot.checkpoint = None;
        slot.journal.clear();
        slot.quarantined = false;
        Ok(())
    }

    /// The loaded form of image `img`, which the cache keeps with the
    /// entry (loading it at the first bind). An `Image` is a pure function
    /// of the compiled module, so whether it was kept changes how long a
    /// bind takes and nothing else. An evicted id is
    /// [`HostError::UnknownImage`].
    fn loaded_image(&mut self, img: ImageId) -> Result<Arc<Image>, HostError> {
        self.cache.loaded(img.0 as usize).ok_or(HostError::UnknownImage(img.0))
    }

    // ---- host buffers ---------------------------------------------------

    /// Hold `bytes` as a host buffer until [`Host::unregister`]. Ids are
    /// slots that released buffers hand back, each under a new
    /// generation. With every one of the 2³² − 1 slots live the bytes are
    /// dropped and the id names nothing: every call taking it is
    /// [`HostError::UnknownBuffer`].
    pub fn register_bytes(&mut self, bytes: Vec<u8>) -> BufId {
        self.register(bytes, false).unwrap_or(BufId(Key::NONE))
    }

    fn register(&mut self, bytes: Vec<u8>, output: bool) -> Result<BufId, HostError> {
        let key = self.bufs.insert(HostBuf { bytes, output });
        key.map(BufId).ok_or(HostError::IdsExhausted("host buffer"))
    }

    pub fn register_f64(&mut self, v: &[f64]) -> BufId {
        self.register_bytes(f64_bytes(v))
    }

    pub fn register_zeros(&mut self, len: u64) -> BufId {
        self.register_bytes(vec![0u8; len as usize])
    }

    pub fn buf_bytes(&self, b: BufId) -> Result<&[u8], HostError> {
        self.bufs
            .get(b.0)
            .map(|h| h.bytes.as_slice())
            .ok_or(HostError::UnknownBuffer(b))
    }

    /// Move a buffer's bytes out, leaving it registered and empty.
    pub fn take_buf(&mut self, b: BufId) -> Result<Vec<u8>, HostError> {
        self.bufs
            .get_mut(b.0)
            .map(|h| std::mem::take(&mut h.bytes))
            .ok_or(HostError::UnknownBuffer(b))
    }

    /// Release a buffer: move its bytes out and free its id, which names
    /// nothing from then on. Refused ([`HostError::InUse`]) while a
    /// queued operation or a present-table entry names the buffer.
    pub fn unregister(&mut self, b: BufId) -> Result<Vec<u8>, HostError> {
        self.check_unused(b)?;
        Ok(self.bufs.remove(b.0).map(|h| h.bytes).unwrap_or_default())
    }

    /// `Ok` iff `b` is registered and nothing the host still runs or maps
    /// names it.
    fn check_unused(&self, b: BufId) -> Result<(), HostError> {
        self.buf_bytes(b)?;
        if self.queue.iter().any(|op| op.names(b)) {
            return Err(HostError::InUse(InUse::Queued(b)));
        }
        match self.present_on(b) {
            Some(device) => Err(HostError::InUse(InUse::Mapped { buf: b, device })),
            None => Ok(()),
        }
    }

    /// The buffer decoded as `f64`s (post-`sync` result readback).
    pub fn buf_f64(&self, b: BufId) -> Result<Vec<f64>, HostError> {
        Ok(bytes_to_f64(self.buf_bytes(b)?))
    }

    /// The buffer as raw 64-bit words (bit-exact comparisons).
    pub fn buf_bits(&self, b: BufId) -> Result<Vec<u64>, HostError> {
        Ok(bytes_to_bits(self.buf_bytes(b)?))
    }

    // ---- the queue ------------------------------------------------------

    /// A validated name for the host's queue: the operations that take a
    /// [`StreamId`] check it, and every id enqueues on the same queue.
    pub fn stream(&mut self) -> StreamId {
        let id = StreamId(self.streams);
        self.streams = self.streams.saturating_add(1);
        id
    }

    // ---- mapping --------------------------------------------------------

    /// Enter map clauses on device `dev` (a `target data` begin / `target
    /// enter data`). Table state — refcounts, device allocation — updates
    /// immediately in program order; the host→device copies owed by fresh
    /// `to`/`tofrom` entries are enqueued.
    pub fn data_enter(&mut self, s: StreamId, dev: usize, maps: &[MapSpec]) -> Result<(), HostError> {
        self.check_stream(s)?;
        maps.iter().try_for_each(|spec| self.enter(dev, *spec).map(|_| ()))
    }

    /// One [`Host::data_enter`] clause; returns the device address of the
    /// spec range.
    fn enter(&mut self, dev: usize, spec: MapSpec) -> Result<DevPtr, HostError> {
        let host_len = self.buf_bytes(spec.buf)?.len() as u64;
        let slot = self.slot_mut(dev)?;
        let dev_len = slot.dev.as_ref().ok_or(NO_IMAGE)?.global_bytes().len() as u64;
        if let Some(ptr) = slot.table.enter_present(spec, host_len).map_err(HostError::Map)? {
            return Ok(ptr);
        }
        // Handing a block out — its zero-fill or its allocation — is a
        // device op like any other. Pool and table take the block only
        // once it landed, so a failed attempt leaves both as they were.
        let block = slot.pool.pick(spec.len, dev_len)?;
        self.issue(dev, block.op())?;
        let slot = self.slot_mut(dev)?;
        slot.pool.take(block);
        if slot.table.insert(spec, block.ptr) {
            let bytes = Payload::Host { buf: spec.buf, off: spec.off, len: spec.len };
            self.enqueue_op(Op::Dev { dev, op: DevOp::Write { ptr: block.ptr, bytes } })?;
        }
        Ok(block.ptr)
    }

    /// Exit map clauses on device `dev`. Refcounts decide immediately (in
    /// program order); outermost `from`/`tofrom` copies and pool releases
    /// are enqueued — the free behind its copy.
    pub fn data_exit(&mut self, s: StreamId, dev: usize, maps: &[MapSpec]) -> Result<(), HostError> {
        self.check_stream(s)?;
        maps.iter().try_for_each(|spec| self.exit(dev, *spec))
    }

    /// One [`Host::data_exit`] clause.
    fn exit(&mut self, dev: usize, spec: MapSpec) -> Result<(), HostError> {
        self.buf_bytes(spec.buf)?;
        let action = self.slot_mut(dev)?.table.prepare_exit(spec).map_err(HostError::Map)?;
        if let Some((src, host_off, len)) = action.copy {
            let op = DevOp::ReadBack { src, buf: spec.buf, off: host_off, len };
            self.enqueue_op(Op::Dev { dev, op })?;
        }
        match action.free {
            Some(ptr) => self.enqueue_op(Op::PoolFree { dev, ptr }),
            None => Ok(()),
        }
    }

    /// Bring `len` bytes of a mapped host range up to date from device
    /// `dev` without exiting the map (a `target update from`), and return
    /// them — the non-destructive readback a serving layer needs for
    /// tenant-visible session state (a `from` exit would release the
    /// entry). The range must be present on device `dev`.
    pub fn read_present(
        &mut self,
        dev: usize,
        buf: BufId,
        off: u64,
        len: u64,
    ) -> Result<Vec<u8>, HostError> {
        let src = self.dev_addr(dev, buf, off)?;
        self.issue(dev, DevOp::ReadBack { src, buf, off, len })?;
        Ok(self.buf_bytes(buf)?[off as usize..(off + len) as usize].to_vec())
    }

    /// Device address of a mapped host location (diagnostics, tests).
    pub fn dev_addr(&self, dev: usize, buf: BufId, off: u64) -> Result<DevPtr, HostError> {
        self.slot(dev)?.table.lookup(buf, off).map_err(HostError::Map)
    }

    /// The first device whose present table maps any range of `buf`: where
    /// the buffer lives, read off the tables that decide it.
    pub fn present_on(&self, buf: BufId) -> Option<usize> {
        self.slots.iter().position(|s| s.table.entries().iter().any(|e| e.buf == buf))
    }

    // ---- launches -------------------------------------------------------

    /// Enqueue a kernel launch. Buffer arguments are translated to
    /// device addresses through `dev`'s present table now (the maps must
    /// already be entered); the returned ticket holds the metrics (or the
    /// trap) after [`Host::sync`].
    pub fn enqueue_launch(
        &mut self,
        s: StreamId,
        dev: usize,
        kernel: &str,
        launch: Launch,
        args: &[KArg],
    ) -> Result<Ticket, HostError> {
        self.check_stream(s)?;
        let table = &self.slot(dev)?.table;
        let vals = args
            .iter()
            .map(|a| match a {
                KArg::Buf(b) => table.lookup(*b, 0).map(RtVal::P).map_err(HostError::Map),
                KArg::Val(v) => Ok(*v),
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.launch_on(dev, kernel, launch, vals)
    }

    /// Enqueue a launch whose arguments are already device values. A
    /// launch that does not end up queued (a bad device, or an eager one
    /// that failed) hands no ticket out and keeps none.
    fn launch_on(
        &mut self,
        dev: usize,
        kernel: &str,
        launch: Launch,
        args: Vec<RtVal>,
    ) -> Result<Ticket, HostError> {
        // The bound image's shared name, so neither the op nor the
        // metrics copy it. A name the image lacks fails at the launch,
        // like any unknown kernel.
        let kernel = self
            .slot(dev)?
            .image
            .as_ref()
            .and_then(|(_, image)| image.kernel_name(kernel))
            .unwrap_or_else(|| Arc::from(kernel));
        let ticket = Ticket(self.tickets.insert(None).ok_or(HostError::IdsExhausted("launch ticket"))?);
        let op = DevOp::Launch { kernel, launch, args, ticket };
        if let Err(e) = self.enqueue_op(Op::Dev { dev, op }) {
            self.tickets.remove(ticket.0);
            return Err(e);
        }
        Ok(ticket)
    }

    /// Pick the device the scheduler would place the next launch on,
    /// advancing round-robin state. Skips quarantined slots; `None` iff
    /// the whole fleet is quarantined. Public so drivers layered above
    /// the host (the `nzomp-serve` admission engine) can reuse the
    /// placement policies instead of reimplementing them.
    pub fn pick_device(&mut self) -> Option<usize> {
        let queue = &self.queue;
        pick_device(self.policy, &self.slots, |d| backlog(queue, d), &mut self.rr_next)
    }

    /// Enqueue a whole `#pragma omp target` region where the scheduler
    /// says: pick a device (per [`SchedPolicy`]), bind the image, and
    /// drive the region there with [`Host::enqueue_region_on`]. Every id
    /// in `streams` is checked; the region rides the first.
    pub fn enqueue_region(
        &mut self,
        streams: &[StreamId],
        img: ImageId,
        kernel: &str,
        launch: Launch,
        args: Vec<RegionArg>,
    ) -> Result<Region, HostError> {
        let Some(&s) = streams.first() else {
            return Err(HostError::Map(ME::Misuse("enqueue_region needs at least one stream")));
        };
        streams.iter().try_for_each(|s| self.check_stream(*s))?;
        // Quarantined slots are excluded; an empty live fleet is the typed
        // terminal outcome of graceful degradation.
        let dev = self.pick_device().ok_or(HostError::FleetLost {
            devices: self.slots.len(),
        })?;
        self.bind_image(dev, img)?;
        self.enqueue_region_on(s, dev, kernel, launch, args)
    }

    /// Drive a target region on device `dev`, whose bound image holds
    /// `kernel`: buffers are registered and mapped in argument order (so
    /// device memory layout matches the direct `Device::alloc` path), then
    /// the launch and the exits are enqueued behind the uploads. The one
    /// region driver — placement is the caller's
    /// ([`Host::enqueue_region`], the `nzomp-serve` engine). The region's
    /// buffers and ticket stay held until [`Host::retire`].
    pub fn enqueue_region_on(
        &mut self,
        s: StreamId,
        dev: usize,
        kernel: &str,
        launch: Launch,
        args: Vec<RegionArg>,
    ) -> Result<Region, HostError> {
        self.check_stream(s)?;
        let queued = self.queue.len();

        // Enter in argument order — this fixes the device memory layout.
        let mut vals = Vec::with_capacity(args.len());
        let mut bufs = Vec::with_capacity(args.len());
        let mut ptrs = Vec::with_capacity(args.len());
        let mut exits = Vec::new();
        let enter_and_launch = || {
            for arg in args {
                let (bytes, enter, exit) = match arg {
                    RegionArg::To(bytes) => (bytes, MapKind::To, MapKind::Release),
                    RegionArg::From(len) => (vec![0u8; len as usize], MapKind::From, MapKind::From),
                    RegionArg::Alloc(len) => (vec![0u8; len as usize], MapKind::Alloc, MapKind::Release),
                    RegionArg::Scalar(v) => {
                        vals.push(v);
                        bufs.push(None);
                        ptrs.push(None);
                        continue;
                    }
                };
                let len = bytes.len() as u64;
                let b = self.register(bytes, enter == MapKind::From)?;
                bufs.push(Some(b));
                let ptr = self.enter(dev, MapSpec::whole(b, len, enter))?;
                exits.push(MapSpec::whole(b, len, exit));
                vals.push(RtVal::P(ptr));
                ptrs.push(Some(ptr));
            }
            self.launch_on(dev, kernel, launch, vals)
        };
        let ticket = match enter_and_launch() {
            Ok(ticket) => ticket,
            Err(e) => {
                // The caller never learns these buffers: drop the uploads
                // still queued for them, release what the region entered
                // without copying back, and free the buffers.
                self.queue.truncate(queued);
                for x in exits {
                    self.exit(dev, MapSpec { kind: MapKind::Release, ..x })?;
                }
                for b in bufs.into_iter().flatten() {
                    self.bufs.remove(b.0);
                }
                return Err(e);
            }
        };
        self.data_exit(s, dev, &exits)?;
        Ok(Region { ticket, device: dev, bufs, ptrs })
    }

    /// Consume a finished region: hand back its launch result and move out
    /// the bytes of its [`RegionArg::From`] buffers, then free every
    /// buffer and the ticket for reuse — their ids name nothing after.
    /// Refused with nothing freed ([`HostError::InUse`]) while a queued
    /// operation or a present-table entry names one of its buffers or the
    /// launch has not run: [`Host::sync`] first.
    ///
    /// What the launch left on the device lives on in the slot's
    /// checkpoint, so a later failover restores it; the host journals
    /// nothing that names a retired buffer or ticket.
    pub fn retire(&mut self, region: Region) -> Result<Retired, HostError> {
        let held = region.bufs.iter().flatten();
        held.clone().try_for_each(|b| self.check_unused(*b))?;
        if self.ticket_result(region.ticket)?.is_none() {
            return Err(HostError::InUse(InUse::Pending(region.ticket)));
        }
        let result = self
            .tickets
            .remove(region.ticket.0)
            .flatten()
            .ok_or(HostError::Stream(SE::UnknownTicket(region.ticket)))?;
        // Sized exactly: a caller may keep the outputs for long.
        let n = held.filter(|b| self.bufs.get(b.0).is_some_and(|h| h.output)).count();
        let mut outputs = Vec::with_capacity(n);
        for (i, b) in region.bufs.iter().enumerate() {
            if let Some(h) = b.and_then(|b| self.bufs.remove(b.0)) {
                if h.output {
                    outputs.push((i, h.bytes));
                }
            }
        }
        Ok(Retired { result, outputs })
    }

    // ---- the executor ---------------------------------------------------

    /// Run the queued operations in the order they were enqueued. An
    /// operation leaves the queue before it runs, so on the first failure
    /// the failed one is gone, its error is returned, and the operations
    /// behind it stay queued for the next call.
    pub fn sync(&mut self) -> Result<(), HostError> {
        while let Some(op) = self.queue.pop_front() {
            self.execute_op(op)?;
        }
        Ok(())
    }

    fn enqueue_op(&mut self, op: Op) -> Result<(), HostError> {
        if self.eager {
            return self.execute_op(op);
        }
        self.queue.push_back(op);
        Ok(())
    }

    fn execute_op(&mut self, op: Op) -> Result<(), HostError> {
        self.ops_executed += 1;
        match op {
            Op::PoolFree { dev, ptr } => {
                self.slot_mut(dev)?.pool.free(ptr);
                Ok(())
            }
            Op::Dev { dev, op } => self.issue(dev, op),
        }
    }

    // ---- the one door to the device -------------------------------------

    /// Run `op` on slot `dev`'s [`Device`] — the only code of this file
    /// that calls one, and so the only copy of the launch bookkeeping. A
    /// first execution ([`Host::issue`]) and a failover replay
    /// ([`Host::replay_journal`]) are both this function over the same
    /// value. An `op` that fails leaves no trace (device operations are
    /// atomic), so running it again is exact.
    fn dev_op(&mut self, dev: usize, op: &DevOp) -> Result<(), HostError> {
        let devices = self.slots.len();
        let slot = self
            .slots
            .get_mut(dev)
            .ok_or(HostError::NoDevice { device: dev, devices })?;
        let d = slot.dev.as_mut().ok_or(NO_IMAGE)?;
        match op {
            DevOp::Grow { size, at } => {
                let p = d.alloc(*size);
                if p != *at {
                    return Err(HostError::Replay(format!("alloc({size}) returned {p:?}, not {at:?}")));
                }
            }
            DevOp::Zero { ptr, len } => d.zero_bytes(*ptr, *len as usize)?,
            DevOp::Write { ptr, bytes } => {
                let bytes = match bytes {
                    Payload::Host { buf, off, len } => host_range(&mut self.bufs, *buf, *off, *len)?,
                    Payload::Owned(bytes) => bytes.as_slice(),
                };
                d.write_bytes(*ptr, bytes)?
            }
            DevOp::ReadBack { src, buf, off, len } => {
                d.read_into(*src, host_range(&mut self.bufs, *buf, *off, *len)?)?
            }
            DevOp::Launch { kernel, launch, args, ticket } => {
                let res = d.launch(kernel, *launch, args);
                if let Ok(m) = &res {
                    slot.executed_cycles += m.cycles;
                    slot.launches += 1;
                }
                // A trap surfaces as it is and aborts the drain: remaining
                // operations (including result readbacks) stay queued,
                // exactly as the direct harness stops at a failed
                // `Device::launch`.
                let failed = res.as_ref().err().map(|e| HostError::Exec(e.clone()));
                // Every run records its outcome; the last one wins —
                // after a successful retry the ticket holds the metrics.
                // (A ticket lives until its region retires, which waits
                // for the launch; failover restores launches, never runs
                // them again.)
                if let Some(t) = self.tickets.get_mut(ticket.0) {
                    *t = Some(res);
                }
                return failed.map_or(Ok(()), Err);
            }
        }
        Ok(())
    }

    /// First execution of a [`DevOp`]: through the door under the
    /// recovery policy, then kept for replay.
    fn issue(&mut self, dev: usize, op: DevOp) -> Result<(), HostError> {
        self.recoverable(dev, &op)?;
        self.keep(dev, op)
    }

    /// Keep a [`DevOp`] that succeeded on slot `dev` — iff recovery is
    /// armed, the only reader being failover. A launch is kept as a
    /// checkpoint of the state it left, which ends the journal; a
    /// read-back changes no device state and is not kept. An upload is
    /// kept as the bytes it wrote: the host buffer may change before a
    /// replay.
    fn keep(&mut self, dev: usize, op: DevOp) -> Result<(), HostError> {
        if self.recovery.is_none() {
            return Ok(());
        }
        let op = match op {
            DevOp::Write { ptr, bytes: Payload::Host { buf, off, len } } => {
                let bytes = host_range(&mut self.bufs, buf, off, len)?.to_vec();
                DevOp::Write { ptr, bytes: Payload::Owned(bytes) }
            }
            DevOp::ReadBack { .. } => return Ok(()),
            DevOp::Launch { .. } => {
                let slot = self.slot_mut(dev)?;
                let d = slot.dev.as_ref().ok_or(NO_IMAGE)?;
                let cp = slot.checkpoint.get_or_insert_with(Checkpoint::default);
                d.save_state(&mut cp.state);
                cp.executed_cycles = slot.executed_cycles;
                cp.launches = slot.launches;
                slot.journal.clear();
                return Ok(());
            }
            op => op,
        };
        self.slot_mut(dev)?.journal.push(op);
        Ok(())
    }

    // ---- recovery -------------------------------------------------------

    /// Run `op` through the door on slot `dev` under the armed
    /// [`RecoveryPolicy`] (a single attempt when none is armed):
    /// transient errors back off (modeled cycles) and retry in place;
    /// `DeviceLost` fails over to a replacement device, restores the last
    /// checkpoint and replays the journal since; program errors surface
    /// unchanged. A failed op leaves no trace, so running it again is
    /// exact.
    fn recoverable(&mut self, dev: usize, op: &DevOp) -> Result<(), HostError> {
        let Some(policy) = self.recovery.clone() else {
            return self.dev_op(dev, op);
        };
        let mut transient_attempts: u32 = 0;
        loop {
            let Err(e) = self.dev_op(dev, op) else {
                return Ok(());
            };
            match e.class() {
                ErrorClass::Transient if transient_attempts < policy.transient_retries => {
                    transient_attempts += 1;
                    self.rmetrics.retries += 1;
                    if matches!(e, HostError::Exec(ExecError { kind: TrapKind::Stalled { .. }, .. })) {
                        self.rmetrics.watchdog_trips += 1;
                    }
                    self.rmetrics.backoff_cycles += policy.backoff_cycles(transient_attempts);
                }
                ErrorClass::Permanent if !matches!(e, HostError::FleetLost { .. }) => {
                    // `?` surfaces budget exhaustion / replay divergence;
                    // on success the loop retries the step on the fresh
                    // device with a reset transient budget.
                    self.failover(dev, &policy)?;
                    transient_attempts = 0;
                }
                _ => return Err(e),
            }
        }
    }

    /// Replace the lost device in slot `dev`: quarantine the dead one,
    /// bind a fresh vGPU of the same image (no fault plan — the
    /// replacement models healthy hardware, so the slot's chaos campaign
    /// is not re-armed), restore the slot's checkpoint on it, and replay
    /// the journal since, so present table, pool, and already-translated
    /// kernel arguments stay valid verbatim. The replacement holds what
    /// the lost device held, silent faults included. When the failover
    /// budget is spent the slot is retired instead and the loss surfaces
    /// (typed, never a panic).
    fn failover(&mut self, dev: usize, policy: &RecoveryPolicy) -> Result<(), HostError> {
        self.rmetrics.quarantines += 1;
        if self.rmetrics.failovers >= u64::from(policy.max_failovers) {
            let devices = self.slots.len();
            let slot = self.slot_mut(dev)?;
            slot.quarantined = true;
            slot.dev = None;
            if self.slots.iter().all(|s| s.quarantined) {
                return Err(HostError::FleetLost { devices });
            }
            return Err(HostError::Exec(ExecError {
                kind: TrapKind::DeviceLost,
                team: 0,
                thread: 0,
                func: "<failover budget exhausted>".to_string(),
            }));
        }
        self.rmetrics.failovers += 1;

        let Some((_, image)) = &self.slot(dev)?.image else {
            return Err(HostError::Replay("failover on a slot with no image".to_string()));
        };
        let mut d = self.new_device(image, None);
        let slot = self.slot_mut(dev)?;
        // The totals as they were at the checkpoint: the journal since
        // holds no launch, so the recovered totals equal a clean run's.
        let (cycles, launches) = match &slot.checkpoint {
            Some(cp) if !d.restore_state(&cp.state) => {
                return Err(HostError::Replay("checkpoint of another image".to_string()))
            }
            Some(cp) => (cp.executed_cycles, cp.launches),
            None => (0, 0),
        };
        slot.dev = Some(d);
        slot.device_plan = None;
        slot.executed_cycles = cycles;
        slot.launches = launches;
        self.replay_journal(dev)
    }

    /// Run the slot's journal again on its replacement device, restored
    /// to the checkpoint, through the door that ran it the first time.
    /// Bump allocation reproduces every pointer (checked) and the journal
    /// holds no launch, so the device ends as the lost one was. Kept
    /// operations all succeeded originally, so a failure here is a broken
    /// invariant, not a recoverable fault: a typed [`HostError::Replay`].
    fn replay_journal(&mut self, dev: usize) -> Result<(), HostError> {
        // Replay keeps nothing, so the ops are lent out for its duration
        // and handed back whatever it returns — copying them would copy
        // every byte uploaded since the checkpoint, on every failover.
        let ops = std::mem::take(&mut self.slot_mut(dev)?.journal);
        let replayed = ops.iter().try_for_each(|op| {
            self.rmetrics.replayed_ops += 1;
            self.dev_op(dev, op).map_err(|e| match e {
                HostError::Replay(_) => e,
                e => HostError::Replay(format!("{op} diverged: {e}")),
            })
        });
        self.slot_mut(dev)?.journal = ops;
        replayed
    }

    // ---- results and observability --------------------------------------

    /// The outcome of an enqueued launch: `Ok(None)` while still pending,
    /// `Ok(Some(_))` once executed (metrics or the trap).
    pub fn ticket_result(&self, t: Ticket) -> Result<Option<&Result<KernelMetrics, ExecError>>, HostError> {
        self.tickets
            .get(t.0)
            .map(|o| o.as_ref())
            .ok_or(HostError::Stream(SE::UnknownTicket(t)))
    }

    /// The metrics of a completed launch; a trap or a still-pending ticket
    /// is a typed error.
    pub fn take_metrics(&self, t: Ticket) -> Result<KernelMetrics, HostError> {
        match self.ticket_result(t)? {
            Some(Ok(m)) => Ok(*m),
            Some(Err(e)) => Err(HostError::Exec(e.clone())),
            None => Err(HostError::Stream(SE::UnknownTicket(t))),
        }
    }

    /// The device in slot `i`, if an image has been bound.
    pub fn device(&self, i: usize) -> Option<&Device> {
        self.slots.get(i).and_then(|s| s.dev.as_ref())
    }

    /// One consolidated snapshot of everything the host runtime counts:
    /// compile-cache hits/misses (repeated launches of a registered image
    /// cost zero pipeline runs), the recovery layer's work, and the
    /// per-device load/pool/transfer state. This is the stats surface
    /// `nzomp-serve` and `nzbench` report from, so neither reaches into
    /// crate internals.
    pub fn stats(&self) -> HostStats {
        HostStats {
            compile_hits: self.cache.hits,
            compile_misses: self.cache.misses,
            images: self.cache.len(),
            recovery: self.rmetrics.clone(),
            ops_executed: self.ops_executed,
            bufs_held: self.bufs.len(),
            buf_slots: self.bufs.slots(),
            tickets_held: self.tickets.len(),
            ticket_slots: self.tickets.slots(),
            devices: self
                .slots
                .iter()
                .enumerate()
                .map(|(d, s)| {
                    let (pending_launches, queued_ops) = backlog(&self.queue, d);
                    DeviceStats {
                        launches: s.launches,
                        executed_cycles: s.executed_cycles,
                        pending_launches,
                        queued_ops,
                        quarantined: s.quarantined,
                        pool_allocs: s.pool.device_allocs,
                        pool_reuse_hits: s.pool.reuse_hits,
                        pool_in_use: s.pool.in_use(),
                        transfers_to: s.table.transfers_to,
                        transfers_from: s.table.transfers_from,
                    }
                })
                .collect(),
        }
    }

    /// Pin the worker-thread count of every current and future device
    /// ([`Host::new`] runs one).
    pub fn set_worker_threads(&mut self, n: usize) {
        self.run.workers = n.max(1);
        for s in &mut self.slots {
            if let Some(d) = s.dev.as_mut() {
                d.set_worker_threads(n);
            }
        }
    }

    /// Pin the execution tier of every current and future device — how a
    /// test runs a host on the interpreter, the oracle (every host is on
    /// bytecode otherwise: no configuration selects a tier). The pin
    /// survives failover: replacement devices — and therefore journal
    /// replays — run the same tier as the device they replace, keeping
    /// recovery bit-identical to the original execution.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.run.tier = tier;
        for s in &mut self.slots {
            if let Some(d) = s.dev.as_mut() {
                d.set_exec_tier(tier);
            }
        }
    }

    /// Arm the fault plan of device slot `dev` — the one plan a device
    /// runs under, and how a chaos campaign kills one device of a fleet.
    /// Applied to the slot's device now (if one is bound) and at every
    /// future bind; [`FaultPlan::none`] disarms. Failover replacements
    /// are *not* re-armed: the replacement models healthy hardware.
    pub fn set_device_faults(&mut self, dev: usize, plan: FaultPlan) -> Result<(), HostError> {
        let slot = self.slot_mut(dev)?;
        if let Some(d) = slot.dev.as_mut() {
            d.set_fault_plan(plan.clone());
        }
        slot.device_plan = Some(plan);
        Ok(())
    }

    /// Enable (`Some`) or disable (`None`) the recovery layer. Enabling
    /// turns on op journaling, transient retries with seeded backoff, and
    /// `DeviceLost` failover; disabled (the default) the host behaves
    /// exactly as the PR 5 runtime. Set before enqueuing — the journal
    /// only records while recovery is armed.
    pub fn set_recovery(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// Everything the recovery layer did so far.
    pub fn recovery_metrics(&self) -> &RecoveryMetrics {
        &self.rmetrics
    }

    /// Whether slot `i` has been retired by the recovery layer.
    pub fn quarantined(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(|s| s.quarantined)
    }

    /// Slots still eligible for scheduling (fleet size after degradation).
    pub fn live_devices(&self) -> usize {
        self.slots.iter().filter(|s| !s.quarantined).count()
    }

    // ---- internals ------------------------------------------------------

    /// A fresh vGPU running `image` under the host's device and run
    /// configuration with the slot's `plan` armed — the one constructor
    /// behind both [`Host::bind_image`] and failover.
    fn new_device(&self, image: &Arc<Image>, plan: Option<FaultPlan>) -> Device {
        let mut d = Device::from_image(Arc::clone(image), self.dev_cfg.clone(), self.run);
        if let Some(p) = plan {
            d.set_fault_plan(p);
        }
        d
    }

    fn check_stream(&self, s: StreamId) -> Result<(), HostError> {
        if s.0 < self.streams {
            Ok(())
        } else {
            Err(HostError::Stream(SE::UnknownStream(s.0)))
        }
    }

    fn slot(&self, dev: usize) -> Result<&DeviceSlot, HostError> {
        let devices = self.slots.len();
        self.slots.get(dev).ok_or(HostError::NoDevice { device: dev, devices })
    }

    fn slot_mut(&mut self, dev: usize) -> Result<&mut DeviceSlot, HostError> {
        let devices = self.slots.len();
        self.slots
            .get_mut(dev)
            .ok_or(HostError::NoDevice { device: dev, devices })
    }
}

/// A device operation named a slot no image was bound to.
const NO_IMAGE: HostError = HostError::Map(ME::Misuse("no image bound to device (bind_image first)"));

/// `len` bytes of host buffer `buf` at `off`.
fn host_range(bufs: &mut Slab<HostBuf>, buf: BufId, off: u64, len: u64) -> Result<&mut [u8], HostError> {
    let host = &mut bufs.get_mut(buf.0).ok_or(HostError::UnknownBuffer(buf))?.bytes;
    let buf_len = host.len() as u64;
    off.checked_add(len)
        .and_then(|end| host.get_mut(off as usize..end as usize))
        .ok_or(HostError::Map(ME::HostRange { buf, off, len, buf_len }))
}
