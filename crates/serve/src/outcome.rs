//! Typed per-request outcomes and control-plane errors of the serving
//! layer. Every way a request can end — admitted and completed, admitted
//! and trapped, or refused at the door — is a value, never a panic,
//! extending the PR 1 robustness contract one layer up.

use std::fmt;

/// Why the admission controller refused a request. Checks run in the
/// documented order — global saturation, then tenant backlog, then
/// quota — so a request over several limits always reports the same
/// reason on replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global in-flight window (queued + dispatched across every
    /// tenant) is full — fleet-wide backpressure.
    Saturated { in_flight: usize, limit: usize },
    /// The tenant's own in-flight window is full — per-tenant
    /// backpressure, so one noisy tenant cannot consume the global
    /// window.
    TenantBacklog { in_flight: usize, limit: usize },
    /// Admitting the request's buffers would exceed the tenant's
    /// byte-granular device-memory quota.
    QuotaExceeded { needed: u64, in_use: u64, quota: u64 },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Saturated { in_flight, limit } => {
                write!(f, "service saturated: {in_flight} in flight of a {limit} global window")
            }
            RejectReason::TenantBacklog { in_flight, limit } => {
                write!(f, "tenant backlog full: {in_flight} in flight of a {limit} tenant window")
            }
            RejectReason::QuotaExceeded { needed, in_use, quota } => write!(
                f,
                "quota exceeded: request needs {needed} B with {in_use} B in use of a {quota} B quota"
            ),
        }
    }
}

/// How one request ended. Exactly one outcome is recorded per
/// [`crate::ReqId`]; all times are modeled cycles on the serve clock.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Refused at admission — no device work happened, no quota was
    /// charged.
    Rejected { at: u64, reason: RejectReason },
    /// Ran to completion on `device`.
    Completed {
        device: usize,
        /// When the device started the request (admission order + device
        /// availability under the open-loop model).
        started: u64,
        /// `started + cycles` — when the quota reservation was released.
        finished: u64,
        /// Modeled kernel cycles (identical across worker counts and
        /// exec tiers by the vGPU bit-identity contract, so serve
        /// latencies replay across every axis).
        cycles: u64,
        /// `(kernel-parameter index, bytes)` of every `Out` argument.
        outputs: Vec<(usize, Vec<u8>)>,
        /// Device address of each kernel argument (`None` for scalars) —
        /// what the isolation suite checks for disjointness.
        arg_ptrs: Vec<Option<u64>>,
    },
    /// Admitted but failed: a device trap, a compile refusal, or a lost
    /// fleet. Carries the rendered [`nzomp_host::HostError`].
    Faulted {
        /// `None` when the request never reached a device (compile
        /// refusal, fleet lost).
        device: Option<usize>,
        started: u64,
        finished: u64,
        error: String,
    },
}

impl Outcome {
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// A control-plane misuse of the serving API: naming a tenant or session
/// buffer that does not exist, touching another tenant's buffer, or
/// over-mapping a session. Distinct from [`Outcome::Rejected`] — these
/// are caller bugs surfaced as typed errors, not load-dependent
/// admission decisions, so a trace that replays cleanly can never start
/// returning them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    UnknownTenant(u32),
    UnknownSession { tenant: u32, buf: u32 },
    /// A request referenced a session buffer owned by a different
    /// tenant — the namespace isolation boundary.
    CrossTenant { owner: u32, caller: u32 },
    /// `session_map` would push the tenant past its quota. Session maps
    /// are control-plane (the caller holds the handle), so the refusal
    /// is an error, unlike the per-request [`RejectReason::QuotaExceeded`]
    /// outcome.
    SessionQuota { tenant: u32, needed: u64, in_use: u64, quota: u64 },
    /// A host-runtime failure outside any request (session readback or
    /// eviction), rendered.
    Host(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::UnknownSession { tenant, buf } => {
                write!(f, "tenant {tenant} has no session buffer {buf}")
            }
            ServeError::CrossTenant { owner, caller } => write!(
                f,
                "tenant {caller} referenced a session buffer owned by tenant {owner}"
            ),
            ServeError::SessionQuota { tenant, needed, in_use, quota } => write!(
                f,
                "tenant {tenant} session map of {needed} B exceeds quota ({in_use} B in use of {quota} B)"
            ),
            ServeError::Host(e) => write!(f, "host runtime failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
