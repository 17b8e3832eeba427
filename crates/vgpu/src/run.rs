//! The run configuration: the three execution axes that never change a
//! result — host worker threads, execution tier, sanitizer mode — as one
//! value. Nothing reads it from the environment: a run is configured
//! through the API or runs [`RunConfig::default`].
//!
//! Every layer holds exactly one [`RunConfig`]: a [`crate::Device`]
//! launches under its own, a host runtime hands its own to every device it
//! creates. Precedence (DESIGN.md, "Run configuration"): an explicit setter
//! on a device wins over the pin of the host or service that owns it, which
//! wins over the default.

use crate::exec::ExecTier;

/// Data-race & barrier-divergence sanitizer mode (`docs/sanitizer.md`).
/// Sanitizing never changes results, traps, cycles, or the pre-existing
/// metrics; `Strict` additionally turns the findings of an otherwise clean
/// launch into a [`crate::TrapKind::SanitizerViolation`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Sanitize {
    #[default]
    Off,
    /// Shadow-track every access and report findings.
    Report,
    /// Report, and trap a clean launch that has findings.
    Strict,
}

/// How launches execute. Every combination produces bit-identical
/// observables (memory image, metrics, traps, sanitizer verdicts) — see
/// `docs/parallel-vgpu.md`, `docs/exec-tiers.md`, `docs/sanitizer.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Host worker threads executing the teams of a wave concurrently
    /// (`1` = the exact sequential code path).
    pub workers: usize,
    pub tier: ExecTier,
    pub sanitize: Sanitize,
}

impl Default for RunConfig {
    /// One worker, the bytecode engine, sanitizer off.
    fn default() -> RunConfig {
        RunConfig {
            workers: 1,
            tier: ExecTier::Bytecode,
            sanitize: Sanitize::Off,
        }
    }
}
