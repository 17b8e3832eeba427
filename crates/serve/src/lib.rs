//! `nzomp-serve` — a multi-tenant offload service over [`nzomp_host`]:
//! the front door that admits target-region requests from many
//! concurrent tenants and drives them through one shared device fleet.
//!
//! The layer adds exactly what `nzomp-host` stops short of:
//!
//! * **per-tenant sessions** — namespaced buffer handles ([`SBuf`]) with
//!   byte-granular device-memory quotas; a tenant can never name, read,
//!   or collide with another tenant's memory ([`session`]);
//! * **admission control** — bounded per-tenant and global in-flight
//!   windows checked in a fixed order (saturation → backlog → quota), so
//!   every refusal is a typed [`Outcome::Rejected`], never a panic, and
//!   replays identically ([`outcome`]);
//! * **fair, least-loaded placement** — a seeded rotating cursor picks
//!   the next tenant; [`nzomp_host::Host::pick_device`] (the `sched.rs`
//!   policies, quarantine-aware) picks the device;
//! * **single-flight compilation** — every dispatch goes through the
//!   host's compile cache, keyed on the module itself, so N tenants
//!   submitting equal modules cost exactly one pipeline run;
//! * **deterministic replay** — the engine is a single-threaded
//!   simulation over modeled cycles: a recorded request trace replays
//!   bit-identically (outcomes, session memory images, metrics) across
//!   runs, worker counts, and execution tiers ([`trace`]).
//!
//! Time is *modeled*: the serve clock advances only through request
//! submit timestamps and kernel cycle counts, exactly like the host
//! runtime's makespan model, which is what makes every decision — and
//! therefore every latency percentile — replayable. See
//! `docs/serving.md` for the architecture and the determinism argument.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod metrics;
pub mod outcome;
pub mod session;
pub mod trace;

use std::collections::BTreeMap;
use std::rc::Rc;

use nzomp::BuildConfig;
use nzomp_host::{
    BufId, Host, HostError, HostStats, ImageId, MapError, MapKind, MapSpec, RegionArg, SchedPolicy,
    StreamId,
};
use nzomp_ir::Module;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{DevPtr, DeviceConfig, ExecTier, RtVal};

pub use metrics::{ServeMetrics, ServeRow};
pub use outcome::{Outcome, RejectReason, ServeError};
pub use session::TenantConfig;

use metrics::percentile;
use session::{Queued, Session, SessionBuf};

/// Handle of a registered tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Handle of a submitted request — the index into [`Serve::outcomes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u32);

/// Handle of a session-mapped buffer. Carries its owner so cross-tenant
/// references are structurally detectable before any host call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SBuf {
    pub tenant: TenantId,
    pub idx: u32,
}

/// One kernel argument of a request, in kernel-parameter order.
#[derive(Clone, Debug)]
pub enum ReqArg {
    /// `map(to:)` input bytes. `Rc` so recorded traces share storage
    /// with the live submission.
    In(Rc<Vec<u8>>),
    /// `map(from:)` output of this many bytes, returned in
    /// [`Outcome::Completed`].
    Out(u64),
    /// `map(alloc:)` device-only scratch of this many bytes.
    Scratch(u64),
    /// A firstprivate scalar.
    Scalar(RtVal),
    /// A session buffer mapped `tofrom` for the request and left
    /// device-resident afterwards — the tenant's persistent state.
    Session(SBuf),
}

impl ReqArg {
    /// Device bytes this argument charges against the tenant's quota at
    /// admission. Session buffers were charged when mapped.
    fn quota_bytes(&self) -> u64 {
        match self {
            ReqArg::In(b) => b.len() as u64,
            ReqArg::Out(n) | ReqArg::Scratch(n) => *n,
            ReqArg::Scalar(_) | ReqArg::Session(_) => 0,
        }
    }
}

/// One target-region request: which kernel of which module to run, with
/// which arguments.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    pub module: Rc<Module>,
    pub config: BuildConfig,
    pub kernel: String,
    pub launch: Launch,
    pub args: Vec<ReqArg>,
}

/// Service-wide knobs fixed at construction.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Devices in the fleet.
    pub devices: usize,
    pub dev_cfg: DeviceConfig,
    /// Placement policy over non-quarantined slots.
    pub policy: SchedPolicy,
    /// Queued + dispatched requests across every tenant — the global
    /// backpressure window.
    pub global_max_in_flight: usize,
    /// Seeds the fairness cursor.
    pub seed: u64,
    /// Pin every device's worker-thread count; `None` = one worker.
    pub worker_threads: Option<usize>,
    /// Pin every device's execution tier: `Some(ExecTier::Interp)` runs
    /// the service on the oracle for a differential test. `None` is
    /// bytecode; no configuration selects a tier.
    pub exec_tier: Option<ExecTier>,
}

impl ServeConfig {
    pub fn new(devices: usize) -> ServeConfig {
        ServeConfig {
            devices,
            dev_cfg: DeviceConfig::default(),
            policy: SchedPolicy::LeastLoaded,
            global_max_in_flight: 64,
            seed: 0x5e12_7e00,
            worker_threads: None,
            exec_tier: None,
        }
    }
}

/// A dispatched request awaiting its modeled completion: the prebuilt
/// outcome plus what completing it must release.
struct Active {
    req: ReqId,
    tenant: TenantId,
    /// Quota bytes reserved at admission, released at completion.
    bytes: u64,
    submitted_at: u64,
    outcome: Outcome,
}

/// The serving engine. Single-threaded and deterministic by
/// construction: requests execute in admission order, time is modeled,
/// and the only scheduling freedom — which tenant goes next, which
/// device hosts it — is derived from the seed and the load counters.
pub struct Serve {
    host: Host,
    cfg: ServeConfig,
    sessions: Vec<Session>,
    outcomes: Vec<Option<Outcome>>,
    /// Dispatched requests keyed by `(modeled finish cycle, dispatch
    /// sequence)` — the deterministic completion order.
    active: BTreeMap<(u64, u32), Active>,
    seq: u32,
    /// Modeled cycle each device becomes free.
    dev_free: Vec<u64>,
    /// Fair-share rotation cursor over tenants.
    cursor: usize,
    /// The serve clock, in modeled cycles.
    clock: u64,
    stream: StreamId,
    metrics: ServeMetrics,
}

impl Serve {
    pub fn new(cfg: ServeConfig) -> Serve {
        let mut host = Host::new(cfg.dev_cfg.clone(), cfg.devices);
        host.set_policy(cfg.policy);
        if let Some(w) = cfg.worker_threads {
            host.set_worker_threads(w);
        }
        if let Some(t) = cfg.exec_tier {
            host.set_exec_tier(t);
        }
        let stream = host.stream();
        let devices = cfg.devices;
        Serve {
            host,
            sessions: Vec::new(),
            outcomes: Vec::new(),
            active: BTreeMap::new(),
            seq: 0,
            dev_free: vec![0; devices],
            cursor: cfg.seed as usize,
            clock: 0,
            stream,
            metrics: ServeMetrics::default(),
            cfg,
        }
    }

    // ---- tenants and sessions -------------------------------------------

    /// Register a tenant with its quota and backlog limits.
    pub fn add_tenant(&mut self, name: &str, cfg: TenantConfig) -> TenantId {
        self.sessions.push(Session::new(name.to_string(), cfg));
        TenantId((self.sessions.len() - 1) as u32)
    }

    pub fn num_tenants(&self) -> usize {
        self.sessions.len()
    }

    fn session(&self, t: TenantId) -> Result<&Session, ServeError> {
        self.sessions.get(t.0 as usize).ok_or(ServeError::UnknownTenant(t.0))
    }

    fn session_mut(&mut self, t: TenantId) -> Result<&mut Session, ServeError> {
        self.sessions.get_mut(t.0 as usize).ok_or(ServeError::UnknownTenant(t.0))
    }

    /// Map persistent session state: host bytes the tenant's requests can
    /// reference via [`ReqArg::Session`] across many submissions. Charged
    /// against the quota until [`Serve::session_unmap`]. Device residency
    /// is lazy — established by the first dispatched request that names
    /// the buffer.
    pub fn session_map(&mut self, t: TenantId, bytes: Vec<u8>) -> Result<SBuf, ServeError> {
        let len = bytes.len() as u64;
        let s = self.session(t)?;
        if s.used_bytes.saturating_add(len) > s.cfg.mem_quota {
            return Err(ServeError::SessionQuota {
                tenant: t.0,
                needed: len,
                in_use: s.used_bytes,
                quota: s.cfg.mem_quota,
            });
        }
        let buf = self.host.register_bytes(bytes);
        let s = self.session_mut(t)?;
        s.charge(len);
        s.bufs.push(SessionBuf { buf, len, resident: None, unmapped: false });
        let idx = (s.bufs.len() - 1) as u32;
        Ok(SBuf { tenant: t, idx })
    }

    fn sbuf_info(&self, caller: TenantId, sb: SBuf) -> Result<(BufId, u64, Option<usize>), ServeError> {
        if sb.tenant != caller {
            return Err(ServeError::CrossTenant { owner: sb.tenant.0, caller: caller.0 });
        }
        let s = self.session(caller)?;
        match s.bufs.get(sb.idx as usize) {
            Some(b) if !b.unmapped => Ok((b.buf, b.len, b.resident)),
            _ => Err(ServeError::UnknownSession { tenant: caller.0, buf: sb.idx }),
        }
    }

    fn sbuf_mut(&mut self, sb: SBuf) -> Option<&mut SessionBuf> {
        self.sessions.get_mut(sb.tenant.0 as usize)?.bufs.get_mut(sb.idx as usize)
    }

    /// Current bytes of a session buffer — the device copy when resident,
    /// the host copy otherwise. Non-destructive (the map survives).
    pub fn session_read(&mut self, t: TenantId, sb: SBuf) -> Result<Vec<u8>, ServeError> {
        let (buf, len, resident) = self.sbuf_info(t, sb)?;
        match resident {
            Some(dev) => self
                .host
                .read_present(dev, buf, 0, len)
                .map_err(|e| ServeError::Host(e.to_string())),
            None => self
                .host
                .buf_bytes(buf)
                .map(|b| b.to_vec())
                .map_err(|e| ServeError::Host(e.to_string())),
        }
    }

    /// Write back (if resident), unmap, and release the quota charge of a
    /// session buffer.
    pub fn session_unmap(&mut self, t: TenantId, sb: SBuf) -> Result<(), ServeError> {
        let (buf, len, resident) = self.sbuf_info(t, sb)?;
        if let Some(dev) = resident {
            self.evict(dev, buf, len).map_err(|e| ServeError::Host(e.to_string()))?;
            self.metrics.evictions += 1;
        }
        self.session_mut(t)?.release(len);
        if let Some(b) = self.sbuf_mut(sb) {
            b.resident = None;
            b.unmapped = true;
        }
        Ok(())
    }

    // ---- submission and admission ---------------------------------------

    /// Submit at the current serve clock.
    pub fn submit(&mut self, t: TenantId, spec: RequestSpec) -> Result<ReqId, ServeError> {
        let now = self.clock;
        self.submit_at(now, t, spec)
    }

    /// Submit a request at modeled cycle `at` (clamped forward to the
    /// serve clock — time never rewinds). Admission checks run in fixed
    /// order: global saturation, tenant backlog, tenant quota. The
    /// returned id always gains exactly one [`Outcome`]; only API misuse
    /// (unknown tenant, foreign session buffer) is an `Err`.
    pub fn submit_at(&mut self, at: u64, t: TenantId, spec: RequestSpec) -> Result<ReqId, ServeError> {
        // Control-plane validation first: a malformed request is a typed
        // error, not an outcome.
        self.session(t)?;
        for a in &spec.args {
            if let ReqArg::Session(sb) = a {
                self.sbuf_info(t, *sb)?;
            }
        }
        let now = at.max(self.clock);
        self.advance(now);

        let req = ReqId(self.outcomes.len() as u32);
        self.outcomes.push(None);
        self.metrics.submitted += 1;
        if let Some(s) = self.sessions.get_mut(t.0 as usize) {
            s.submitted += 1;
        }

        // 1. Global saturation.
        let global_in_flight =
            self.active.len() + self.sessions.iter().map(|s| s.queued.len()).sum::<usize>();
        if global_in_flight >= self.cfg.global_max_in_flight {
            return Ok(self.reject(
                req,
                t,
                now,
                RejectReason::Saturated { in_flight: global_in_flight, limit: self.cfg.global_max_in_flight },
            ));
        }
        // 2. Tenant backlog.
        let (in_flight, limit, used, quota) = {
            let s = self.session(t)?;
            // No device can address more than its pointer encoding spans,
            // whatever the tenant was granted — refused here, before any
            // host or device byte is allocated for the claim.
            let quota = s.cfg.mem_quota.min(nzomp_vgpu::memory::GLOBAL_SPACE_BYTES);
            (s.in_flight(), s.cfg.max_in_flight, s.used_bytes, quota)
        };
        if in_flight >= limit {
            return Ok(self.reject(req, t, now, RejectReason::TenantBacklog { in_flight, limit }));
        }
        // 3. Quota. Sizes are tenant input: a footprint (or a total) that
        // overflows `u64` fits no quota, not even an unlimited one.
        let footprint = spec.args.iter().try_fold(0u64, |n, a| n.checked_add(a.quota_bytes()));
        let fits = |n: &u64| used.checked_add(*n).is_some_and(|total| total <= quota);
        let Some(needed) = footprint.filter(fits) else {
            let needed = footprint.unwrap_or(u64::MAX);
            return Ok(self.reject(
                req,
                t,
                now,
                RejectReason::QuotaExceeded { needed, in_use: used, quota },
            ));
        };

        self.metrics.admitted += 1;
        if let Some(s) = self.sessions.get_mut(t.0 as usize) {
            s.charge(needed);
            s.queued.push_back(Queued { req, spec, submitted_at: now, bytes: needed });
        }
        self.pump(now);
        Ok(req)
    }

    fn reject(&mut self, req: ReqId, t: TenantId, at: u64, reason: RejectReason) -> ReqId {
        match &reason {
            RejectReason::Saturated { .. } => {
                self.metrics.rejected_saturated += 1;
                if let Some(s) = self.sessions.get_mut(t.0 as usize) {
                    s.rejected_saturated += 1;
                }
            }
            RejectReason::TenantBacklog { .. } => {
                self.metrics.rejected_backlog += 1;
                if let Some(s) = self.sessions.get_mut(t.0 as usize) {
                    s.rejected_backlog += 1;
                }
            }
            RejectReason::QuotaExceeded { .. } => {
                self.metrics.rejected_quota += 1;
                if let Some(s) = self.sessions.get_mut(t.0 as usize) {
                    s.rejected_quota += 1;
                }
            }
        }
        if let Some(o) = self.outcomes.get_mut(req.0 as usize) {
            *o = Some(Outcome::Rejected { at, reason });
        }
        req
    }

    // ---- the modeled-time engine ----------------------------------------

    /// Retire every dispatched request whose modeled finish is ≤ `t`,
    /// pumping the queues as device slots free up, then move the clock
    /// to `t`.
    fn advance(&mut self, t: u64) {
        while let Some((&(fin, _), _)) = self.active.first_key_value() {
            if fin > t {
                break;
            }
            let Some(((fin, _), done)) = self.active.pop_first() else {
                break;
            };
            self.clock = self.clock.max(fin);
            self.complete(done);
            let now = self.clock;
            self.pump(now);
        }
        self.clock = self.clock.max(t);
    }

    fn complete(&mut self, done: Active) {
        if let Some(s) = self.sessions.get_mut(done.tenant.0 as usize) {
            s.release(done.bytes);
            s.active = s.active.saturating_sub(1);
            match &done.outcome {
                Outcome::Completed { finished, .. } => {
                    s.completed += 1;
                    s.latencies.push(finished.saturating_sub(done.submitted_at));
                    self.metrics.completed += 1;
                }
                Outcome::Faulted { .. } => {
                    s.faulted += 1;
                    self.metrics.faulted += 1;
                }
                Outcome::Rejected { .. } => {}
            }
        }
        if let Some(o) = self.outcomes.get_mut(done.req.0 as usize) {
            *o = Some(done.outcome);
        }
    }

    /// Dispatch queued requests while device slots are free, rotating
    /// fairly over tenants from the seeded cursor. With the whole fleet
    /// quarantined every queued request faults out — typed, terminal,
    /// and drain always terminates.
    fn pump(&mut self, now: u64) {
        let n = self.sessions.len();
        if n == 0 {
            return;
        }
        if self.host.live_devices() == 0 {
            let queued: Vec<(TenantId, Queued)> = self
                .sessions
                .iter_mut()
                .enumerate()
                .flat_map(|(t, s)| {
                    s.queued.drain(..).map(move |q| (TenantId(t as u32), q)).collect::<Vec<_>>()
                })
                .collect();
            for (t, q) in queued {
                if let Some(s) = self.sessions.get_mut(t.0 as usize) {
                    s.active += 1;
                }
                self.fault(&q, t, None, now, "fleet lost: every device is quarantined".to_string());
            }
            return;
        }
        while self.active.len() < self.host.live_devices() {
            let mut picked = None;
            for k in 0..n {
                let t = (self.cursor + k) % n;
                if self.sessions.get(t).is_some_and(|s| !s.queued.is_empty()) {
                    picked = Some(t);
                    break;
                }
            }
            let Some(t) = picked else { break };
            self.cursor = (t + 1) % n;
            let Some(q) = self.sessions.get_mut(t).and_then(|s| {
                s.active += 1;
                s.queued.pop_front()
            }) else {
                break;
            };
            self.dispatch(q, TenantId(t as u32), now);
        }
    }

    /// Record a terminal fault for `q` as an immediately-retiring
    /// active entry, so quota release and counters flow through the one
    /// completion path.
    fn fault(&mut self, q: &Queued, t: TenantId, device: Option<usize>, now: u64, error: String) {
        let seq = self.seq;
        self.seq += 1;
        self.active.insert(
            (now, seq),
            Active {
                req: q.req,
                tenant: t,
                bytes: q.bytes,
                submitted_at: q.submitted_at,
                outcome: Outcome::Faulted { device, started: now, finished: now, error },
            },
        );
    }

    // ---- dispatch: the request's actual device work ---------------------

    /// Run one admitted request end-to-end on the host runtime. Device
    /// work executes *now* in admission order (which is what keeps the
    /// engine deterministic); only the completion — quota release and
    /// outcome publication — is deferred to the modeled finish cycle.
    fn dispatch(&mut self, q: Queued, t: TenantId, now: u64) {
        // A session buffer may have been unmapped while the request was
        // queued: the tenant's error, typed, before any host call.
        let stale = q.spec.args.iter().find_map(|a| match a {
            ReqArg::Session(sb) => self.sbuf_info(t, *sb).err(),
            _ => None,
        });
        if let Some(e) = stale {
            self.fault(&q, t, None, now, e.to_string());
            return;
        }
        // Single-flight compile: the host cache keys on the module
        // (structural `==`) + config, so every tenant after the first
        // hits — and an `Rc` it has resolved before is a lookup.
        let img = match self.host.load_image_rc(&q.spec.module, q.spec.config) {
            Ok(i) => i,
            Err(e) => {
                self.fault(&q, t, None, now, e.to_string());
                return;
            }
        };
        let Some(dev) = self.host.pick_device() else {
            self.fault(&q, t, None, now, "fleet lost: every device is quarantined".to_string());
            return;
        };
        if let Err(e) = self.make_resident(dev, img) {
            self.fault(&q, t, Some(dev), now, e.to_string());
            return;
        }
        if let Err(e) = self.run_on_device(&q, t, dev, now) {
            self.fault(&q, t, Some(dev), now, e.to_string());
        }
    }

    /// Ensure `dev` runs `img`, writing back and evicting every session
    /// buffer resident there first when the bind will reload the device
    /// (a reload resets its present table and memory) — the host's call,
    /// asked through [`Host::bound_image`].
    fn make_resident(&mut self, dev: usize, img: ImageId) -> Result<(), HostError> {
        if self.host.bound_image(dev) == Some(img) {
            return Ok(());
        }
        let mut on_dev = Vec::new();
        for (s, t) in self.sessions.iter().zip(0..) {
            for (b, idx) in s.bufs.iter().zip(0..) {
                if b.resident == Some(dev) {
                    on_dev.push((SBuf { tenant: TenantId(t), idx }, b.buf, b.len));
                }
            }
        }
        for (sb, buf, len) in on_dev {
            self.evict(dev, buf, len)?;
            self.metrics.evictions += 1;
            if let Some(b) = self.sbuf_mut(sb) {
                b.resident = None;
            }
        }
        self.host.bind_image(dev, img)
    }

    /// Write a resident buffer back to its host storage and unmap it. The
    /// caller counts it, as an eviction or a migration.
    fn evict(&mut self, dev: usize, buf: BufId, len: u64) -> Result<(), HostError> {
        self.host.data_exit(self.stream, dev, &[MapSpec::whole(buf, len, MapKind::ToFrom)])?;
        self.host.sync()
    }

    /// Device address of session buffer `sb` on `dev`, mapping it there
    /// first if need be — after writing it back off any other device:
    /// residency is exclusive.
    fn resident_on(&mut self, dev: usize, t: TenantId, sb: SBuf) -> Result<DevPtr, HostError> {
        // `dispatch` checked the handle; nothing since could unmap it.
        let (buf, len, resident) = self
            .sbuf_info(t, sb)
            .map_err(|_| HostError::Map(MapError::Misuse("session buffer unmapped during dispatch")))?;
        if resident != Some(dev) {
            if let Some(from) = resident {
                self.evict(from, buf, len)?;
                self.metrics.migrations += 1;
            }
            self.host
                .data_enter(self.stream, dev, &[MapSpec::whole(buf, len, MapKind::ToFrom)])?;
            if let Some(b) = self.sbuf_mut(sb) {
                b.resident = Some(dev);
            }
        }
        self.host.dev_addr(dev, buf, 0)
    }

    /// What of a request is the service's own: make its session arguments
    /// resident, lower the rest to the host's region arguments, drive the
    /// region through [`Host::enqueue_region_on`], drain, and build the
    /// outcome.
    fn run_on_device(&mut self, q: &Queued, t: TenantId, dev: usize, now: u64) -> Result<(), HostError> {
        let spec = &q.spec;
        // The device address behind each argument is the isolation
        // evidence in the outcome. A resident session buffer's argument
        // *is* its device address; the region reports the rest.
        let mut arg_ptrs: Vec<Option<u64>> = Vec::with_capacity(spec.args.len());
        let mut args = Vec::with_capacity(spec.args.len());
        let mut outs: Vec<usize> = Vec::new();
        for (i, a) in spec.args.iter().enumerate() {
            let mut ptr = None;
            args.push(match a {
                ReqArg::In(bytes) => RegionArg::To((**bytes).clone()),
                ReqArg::Out(len) => {
                    outs.push(i);
                    RegionArg::From(*len)
                }
                ReqArg::Scratch(len) => RegionArg::Alloc(*len),
                ReqArg::Scalar(v) => RegionArg::Scalar(*v),
                ReqArg::Session(sb) => {
                    let p = self.resident_on(dev, t, *sb)?;
                    ptr = Some(p.0);
                    RegionArg::Scalar(RtVal::P(p))
                }
            });
            arg_ptrs.push(ptr);
        }
        let region = self
            .host
            .enqueue_region_on(self.stream, dev, &spec.kernel, spec.launch, args)?;
        for (ptr, mapped) in arg_ptrs.iter_mut().zip(&region.ptrs) {
            *ptr = ptr.or(mapped.map(|p| p.0));
        }

        // Drain to completion. A trap stops the drain with the rest of the
        // request's ops still queued; keep draining so device memory is
        // released and the queue is empty for the next dispatch — the
        // first error is the request's fault. A failing `sync` has
        // consumed the op that failed, so every pass shortens the queue.
        let mut first_err: Option<String> = None;
        while let Err(e) = self.host.sync() {
            first_err.get_or_insert_with(|| e.to_string());
        }

        let started = now.max(self.dev_free.get(dev).copied().unwrap_or(0));
        let outcome = match (self.host.take_metrics(region.ticket), first_err) {
            (Ok(m), None) => {
                let finished = started + m.cycles;
                // Each output moves out of its host buffer, which nothing
                // reads again. An exact-size iterator: outcomes are
                // retained, and a grown `Vec` would keep its spare
                // capacity per request.
                let outputs = outs
                    .iter()
                    .map(|&i| {
                        let b = region.bufs.get(i).copied().flatten();
                        (i, b.and_then(|b| self.host.take_buf(b).ok()).unwrap_or_default())
                    })
                    .collect();
                Outcome::Completed {
                    device: dev,
                    started,
                    finished,
                    cycles: m.cycles,
                    outputs,
                    arg_ptrs,
                }
            }
            (Ok(_), Some(e)) => {
                Outcome::Faulted { device: Some(dev), started, finished: started, error: e }
            }
            (Err(e), first) => Outcome::Faulted {
                device: Some(dev),
                started,
                finished: started,
                error: first.unwrap_or_else(|| e.to_string()),
            },
        };
        let finished = match &outcome {
            Outcome::Completed { finished, .. } | Outcome::Faulted { finished, .. } => *finished,
            Outcome::Rejected { at, .. } => *at,
        };
        if let Some(f) = self.dev_free.get_mut(dev) {
            *f = finished;
        }
        let seq = self.seq;
        self.seq += 1;
        self.active.insert(
            (finished, seq),
            Active { req: q.req, tenant: t, bytes: q.bytes, submitted_at: q.submitted_at, outcome },
        );
        Ok(())
    }

    // ---- draining and observability -------------------------------------

    /// Run the engine until every admitted request has an outcome,
    /// recording the makespan. Always terminates: every dispatch — clean,
    /// trapped, or fleet-lost — retires through the active set.
    pub fn drain(&mut self) {
        loop {
            if let Some((&(fin, _), _)) = self.active.first_key_value() {
                self.advance(fin);
                continue;
            }
            if self.sessions.iter().any(|s| !s.queued.is_empty()) {
                let now = self.clock;
                self.pump(now);
                continue;
            }
            break;
        }
        self.metrics.makespan_cycles = self.clock;
    }

    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The outcome of a request — `None` while still queued or in flight.
    pub fn outcome(&self, r: ReqId) -> Option<&Outcome> {
        self.outcomes.get(r.0 as usize).and_then(|o| o.as_ref())
    }

    /// Every outcome slot, by request id.
    pub fn outcomes(&self) -> &[Option<Outcome>] {
        &self.outcomes
    }

    /// The host runtime's consolidated counters (compile cache,
    /// recovery, per-device load) — the single-flight evidence.
    pub fn host_stats(&self) -> HostStats {
        self.host.stats()
    }

    /// Per-tenant report rows (sorted-latency percentiles, peak quota
    /// footprint) — part of the replay snapshot.
    pub fn tenant_rows(&self) -> Vec<ServeRow> {
        self.sessions
            .iter()
            .map(|s| {
                let mut lat = s.latencies.clone();
                lat.sort_unstable();
                ServeRow {
                    tenant: s.name.clone(),
                    submitted: s.submitted,
                    completed: s.completed,
                    faulted: s.faulted,
                    rejected_quota: s.rejected_quota,
                    rejected_backlog: s.rejected_backlog,
                    rejected_saturated: s.rejected_saturated,
                    p50_cycles: percentile(&lat, 50.0).unwrap_or(0),
                    p99_cycles: percentile(&lat, 99.0).unwrap_or(0),
                    peak_bytes: s.peak_bytes,
                }
            })
            .collect()
    }

    /// Final bytes of every live session buffer of `t` — the per-tenant
    /// device memory image the replay contract compares.
    pub fn session_image(&mut self, t: TenantId) -> Result<Vec<(u32, Vec<u8>)>, ServeError> {
        let live: Vec<u32> = self
            .session(t)?
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.unmapped)
            .map(|(i, _)| i as u32)
            .collect();
        let mut out = Vec::with_capacity(live.len());
        for idx in live {
            let bytes = self.session_read(t, SBuf { tenant: t, idx })?;
            out.push((idx, bytes));
        }
        Ok(out)
    }
}
