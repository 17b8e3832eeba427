//! The run configuration: the three execution axes that never change a
//! result — host worker threads, execution tier, sanitizer mode — as one
//! value, with the one reader of their environment variables.
//!
//! Every layer holds exactly one [`RunConfig`]: a [`crate::Device`]
//! launches under its own, a host runtime hands its own to every device it
//! creates. Precedence (DESIGN.md, "Run configuration"): an explicit setter
//! on a device wins over the pin of the host or service that owns it, which
//! wins over the environment, which wins over the default.

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
    /// One worker, the reference interpreter, sanitizer off.
    fn default() -> RunConfig {
        RunConfig {
            workers: 1,
            tier: ExecTier::Interp,
            sanitize: Sanitize::Off,
        }
    }
}

impl RunConfig {
    /// The configuration the process environment asks for:
    /// `NZOMP_VGPU_THREADS`, `NZOMP_EXEC_TIER`, `NZOMP_SANITIZE`, each
    /// falling back to its default when unset or unrecognized.
    pub fn from_env() -> RunConfig {
        let threads = std::env::var("NZOMP_VGPU_THREADS").ok();
        let tier = std::env::var("NZOMP_EXEC_TIER").ok();
        let sanitize = std::env::var("NZOMP_SANITIZE").ok();
        RunConfig::parse(threads.as_deref(), tier.as_deref(), sanitize.as_deref())
    }

    /// [`RunConfig::from_env`] over the three variables' values (`None` =
    /// unset). Surrounding whitespace is ignored. Threads: an integer
    /// `>= 1`. Tier: `bytecode` (any case); anything else is the
    /// interpreter. Sanitize: `1`, `true` or `on` (any case) report,
    /// `strict` reports and traps; anything else is off.
    pub fn parse(threads: Option<&str>, tier: Option<&str>, sanitize: Option<&str>) -> RunConfig {
        let default = RunConfig::default();
        RunConfig {
            workers: threads
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(default.workers),
            tier: match tier.map(str::trim) {
                Some(v) if v.eq_ignore_ascii_case("bytecode") => ExecTier::Bytecode,
                _ => default.tier,
            },
            sanitize: match sanitize.map(str::trim) {
                Some("strict") => Sanitize::Strict,
                Some(v) if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on") => {
                    Sanitize::Report
                }
                _ => default.sanitize,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_documented_spelling() {
        let d = RunConfig::default();
        assert_eq!(RunConfig::parse(None, None, None), d);
        assert_eq!(
            d,
            RunConfig { workers: 1, tier: ExecTier::Interp, sanitize: Sanitize::Off }
        );

        for (text, workers) in [
            ("8", 8),
            (" 8 ", 8),
            ("1", 1),
            ("0", 1),
            ("-1", 1),
            ("", 1),
            ("many", 1),
            ("2.5", 1),
        ] {
            assert_eq!(
                RunConfig::parse(Some(text), None, None),
                RunConfig { workers, ..d },
                "NZOMP_VGPU_THREADS={text:?}"
            );
        }

        for (text, tier) in [
            ("bytecode", ExecTier::Bytecode),
            ("BYTECODE", ExecTier::Bytecode),
            (" Bytecode ", ExecTier::Bytecode),
            ("interp", ExecTier::Interp),
            ("jit", ExecTier::Interp),
            ("", ExecTier::Interp),
        ] {
            assert_eq!(
                RunConfig::parse(None, Some(text), None),
                RunConfig { tier, ..d },
                "NZOMP_EXEC_TIER={text:?}"
            );
        }

        for (text, sanitize) in [
            ("1", Sanitize::Report),
            ("true", Sanitize::Report),
            ("TRUE", Sanitize::Report),
            ("on", Sanitize::Report),
            (" On ", Sanitize::Report),
            ("strict", Sanitize::Strict),
            (" strict ", Sanitize::Strict),
            // `strict` is case-sensitive, as it always was.
            ("STRICT", Sanitize::Off),
            ("0", Sanitize::Off),
            ("false", Sanitize::Off),
            ("off", Sanitize::Off),
            ("yes", Sanitize::Off),
            ("", Sanitize::Off),
        ] {
            assert_eq!(
                RunConfig::parse(None, None, Some(text)),
                RunConfig { sanitize, ..d },
                "NZOMP_SANITIZE={text:?}"
            );
        }

        // The axes are independent.
        assert_eq!(
            RunConfig::parse(Some("4"), Some("bytecode"), Some("strict")),
            RunConfig { workers: 4, tier: ExecTier::Bytecode, sanitize: Sanitize::Strict }
        );
    }
}
