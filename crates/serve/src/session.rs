//! Per-tenant session state: the namespaced present-table view, the
//! byte-granular quota ledger, and the tenant's slice of every service
//! counter.

use std::collections::{BTreeMap, VecDeque};

use nzomp_host::BufId;

use crate::{ReqId, RequestSpec};

/// Per-tenant limits fixed at registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Device bytes the tenant may hold at once: session maps plus the
    /// buffer footprint of every in-flight request.
    pub mem_quota: u64,
    /// Queued + dispatched requests the tenant may have at once.
    pub max_in_flight: usize,
}

impl TenantConfig {
    pub fn new(mem_quota: u64, max_in_flight: usize) -> TenantConfig {
        TenantConfig { mem_quota, max_in_flight }
    }
}

impl Default for TenantConfig {
    /// Effectively unlimited — tests and benches tighten what they probe.
    fn default() -> TenantConfig {
        TenantConfig { mem_quota: u64::MAX, max_in_flight: usize::MAX }
    }
}

/// One session-mapped buffer: host storage registered with the host
/// runtime. Where it lives is the host's present tables' answer
/// ([`nzomp_host::Host::present_on`]): residency is lazy — established by
/// the first dispatched request that names the buffer — and exclusive:
/// migrating writes back and unmaps first. An unmapped buffer's host bytes
/// are released; its entry stays, `unmapped`, so its handle never names a
/// later buffer.
pub(crate) struct SessionBuf {
    pub buf: BufId,
    pub len: u64,
    pub unmapped: bool,
}

/// An admitted request waiting for a device slot. The queue owns the
/// spec, so dispatch consumes it: a retired request leaves nothing of its
/// arguments behind in a long-lived service.
pub(crate) struct Queued {
    pub req: ReqId,
    pub spec: RequestSpec,
    /// Modeled cycle of admission — the latency origin.
    pub submitted_at: u64,
    /// Quota bytes reserved at admission, released at completion.
    pub bytes: u64,
}

/// One tenant: quota ledger, session buffers, admission queue, and
/// outcome counters. The namespace boundary is structural — a tenant's
/// requests can only name `SBuf` handles this session issued, and the
/// engine validates ownership before any host call.
pub(crate) struct Session {
    pub name: String,
    pub cfg: TenantConfig,
    /// Bytes currently charged: live session maps + in-flight request
    /// reservations.
    pub used_bytes: u64,
    pub peak_bytes: u64,
    pub bufs: Vec<SessionBuf>,
    /// Admitted requests not yet dispatched, oldest first.
    pub queued: VecDeque<Queued>,
    /// Dispatched requests whose modeled completion has not arrived.
    pub active: usize,
    pub submitted: u64,
    pub completed: u64,
    pub faulted: u64,
    pub rejected_saturated: u64,
    pub rejected_backlog: u64,
    pub rejected_quota: u64,
    /// How many completed requests took each modeled submit→finish
    /// latency: one entry per distinct latency, however many complete.
    pub latencies: BTreeMap<u64, u64>,
}

impl Session {
    pub fn new(name: String, cfg: TenantConfig) -> Session {
        Session {
            name,
            cfg,
            used_bytes: 0,
            peak_bytes: 0,
            bufs: Vec::new(),
            queued: VecDeque::new(),
            active: 0,
            submitted: 0,
            completed: 0,
            faulted: 0,
            rejected_saturated: 0,
            rejected_backlog: 0,
            rejected_quota: 0,
            latencies: BTreeMap::new(),
        }
    }

    /// Count a completed request that took `cycles` modeled cycles.
    pub fn record_completion(&mut self, cycles: u64) {
        self.completed += 1;
        *self.latencies.entry(cycles).or_insert(0) += 1;
    }

    /// Queued + dispatched — what the per-tenant backlog check limits.
    pub fn in_flight(&self) -> usize {
        self.queued.len() + self.active
    }

    /// Charge `bytes` against the quota, tracking the high-water mark.
    pub fn charge(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_add(bytes);
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
    }

    /// Release a prior charge (never underflows — a release without a
    /// matching charge is an engine bug we refuse to turn into a wrap).
    pub fn release(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }
}
