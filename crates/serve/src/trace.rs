//! Request traces and the replay determinism gate.
//!
//! A [`Trace`] is the full external input of a serving run — tenant
//! registrations, session maps, timed submissions, drains. [`replay`]
//! runs one against a fresh engine and snapshots everything observable:
//! per-request outcomes, per-tenant session memory images, tenant report
//! rows, service metrics, and compile-cache counters. The determinism
//! contract is `replay(trace, cfg) == replay(trace, cfg)` — bit-identical
//! across runs, worker counts ({1, 8}), and execution tiers — which the
//! serve suites assert.

use crate::metrics::{ServeMetrics, ServeRow};
use crate::outcome::{Outcome, ServeError};
use crate::session::TenantConfig;
use crate::{RequestSpec, SBuf, Serve, ServeConfig, TenantId};

/// One externally-visible serving operation. Tenant and session-buffer
/// references are positional (registration order), so a trace is
/// self-contained and replays against a fresh engine.
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// Register tenant number `len(tenants so far)`.
    Tenant { name: String, cfg: TenantConfig },
    /// Map a session buffer for tenant `tenant` (handles are issued in
    /// order: the i-th `Map` of a tenant yields `SBuf { tenant, idx: i }`).
    Map { tenant: u32, bytes: Vec<u8> },
    /// Submit a request at modeled cycle `at`.
    Submit { at: u64, tenant: u32, spec: RequestSpec },
    /// Unmap a session buffer.
    Unmap { tenant: u32, buf: u32 },
    /// Run the engine until every admitted request has retired.
    Drain,
}

/// A recorded run: the ops in submission order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub ops: Vec<TraceOp>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }
}

/// Everything observable about one serving run. `PartialEq` over the
/// whole struct is the replay gate: two snapshots are equal iff the runs
/// were bit-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct Replayed {
    /// Outcome per request, in submission order (always `Some` after the
    /// final drain; kept optional so a partial snapshot is representable).
    pub outcomes: Vec<Option<Outcome>>,
    pub metrics: ServeMetrics,
    pub rows: Vec<ServeRow>,
    /// Per tenant: `(session-buffer index, final bytes)` of every live
    /// session buffer — the device memory image of the tenant's state.
    pub session_images: Vec<Vec<(u32, Vec<u8>)>>,
    /// `(compile-cache hits, misses)` — the single-flight evidence.
    pub compile: (u64, u64),
}

/// Apply a trace to a fresh engine built from `cfg`, ending with a drain,
/// and snapshot the run. An `Err` means the trace itself is malformed
/// (references a tenant or buffer it never created) — a well-formed trace
/// can never start erroring on replay.
pub fn replay(trace: &Trace, cfg: &ServeConfig) -> Result<Replayed, ServeError> {
    let mut serve = Serve::new(cfg.clone());
    for op in &trace.ops {
        match op {
            TraceOp::Tenant { name, cfg } => {
                serve.add_tenant(name, *cfg);
            }
            TraceOp::Map { tenant, bytes } => {
                serve.session_map(TenantId(*tenant), bytes.clone())?;
            }
            TraceOp::Submit { at, tenant, spec } => {
                serve.submit_at(*at, TenantId(*tenant), spec.clone())?;
            }
            TraceOp::Unmap { tenant, buf } => {
                let t = TenantId(*tenant);
                serve.session_unmap(t, SBuf { tenant: t, idx: *buf })?;
            }
            TraceOp::Drain => serve.drain(),
        }
    }
    serve.drain();
    snapshot(&mut serve)
}

/// Snapshot a drained engine (shared by [`replay`] and live runs that
/// recorded their own trace).
pub fn snapshot(serve: &mut Serve) -> Result<Replayed, ServeError> {
    let mut session_images = Vec::with_capacity(serve.num_tenants());
    for t in 0..serve.num_tenants() {
        session_images.push(serve.session_image(TenantId(t as u32))?);
    }
    let host = serve.host_stats();
    Ok(Replayed {
        outcomes: serve.outcomes().to_vec(),
        metrics: serve.metrics().clone(),
        rows: serve.tenant_rows(),
        session_images,
        compile: (host.compile_hits, host.compile_misses),
    })
}
