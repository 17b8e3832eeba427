//! The run configuration: the three execution axes that never change a
//! result — host worker threads, execution tier, sanitizer mode — as one
//! value, with the one reader of the two environment variables. The tier
//! has none: it is bytecode unless code names the interpreter, the oracle
//! the differential tests compare against.
//!
//! Every layer holds exactly one [`RunConfig`]: a [`crate::Device`]
//! launches under its own, a host runtime hands its own to every device it
//! creates. Precedence (DESIGN.md, "Run configuration"): an explicit setter
//! on a device wins over the pin of the host or service that owns it, which
//! wins over the environment (workers and sanitizer only), which wins over
//! the default.

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

impl RunConfig {
    /// The configuration the process environment asks for:
    /// `NZOMP_VGPU_THREADS` and `NZOMP_SANITIZE`, each falling back to its
    /// default when unset or unrecognized.
    pub fn from_env() -> RunConfig {
        let threads = std::env::var("NZOMP_VGPU_THREADS").ok();
        let sanitize = std::env::var("NZOMP_SANITIZE").ok();
        RunConfig::parse(threads.as_deref(), sanitize.as_deref())
    }

    /// [`RunConfig::from_env`] over the two variables' values (`None` =
    /// unset). Surrounding whitespace is ignored. Threads: an integer
    /// `>= 1`. Sanitize: `1`, `true` or `on` report, `strict` reports and
    /// traps (words in any case); anything else is off.
    pub fn parse(threads: Option<&str>, sanitize: Option<&str>) -> RunConfig {
        let default = RunConfig::default();
        RunConfig {
            workers: threads
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(default.workers),
            sanitize: match sanitize.map(str::trim) {
                Some(v) if v.eq_ignore_ascii_case("strict") => Sanitize::Strict,
                Some(v) if v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on") => {
                    Sanitize::Report
                }
                _ => default.sanitize,
            },
            ..default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_documented_spelling() {
        let d = RunConfig::default();
        assert_eq!(RunConfig::parse(None, None), d);
        assert_eq!(
            d,
            RunConfig { workers: 1, tier: ExecTier::Bytecode, sanitize: Sanitize::Off }
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
                RunConfig::parse(Some(text), None),
                RunConfig { workers, ..d },
                "NZOMP_VGPU_THREADS={text:?}"
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
            ("STRICT", Sanitize::Strict),
            ("0", Sanitize::Off),
            ("false", Sanitize::Off),
            ("off", Sanitize::Off),
            ("yes", Sanitize::Off),
            ("", Sanitize::Off),
        ] {
            assert_eq!(
                RunConfig::parse(None, Some(text)),
                RunConfig { sanitize, ..d },
                "NZOMP_SANITIZE={text:?}"
            );
        }

        // The axes are independent, and no environment value moves the tier.
        assert_eq!(
            RunConfig::parse(Some("4"), Some("strict")),
            RunConfig { workers: 4, tier: ExecTier::Bytecode, sanitize: Sanitize::Strict }
        );
    }
}
