//! Optimization remarks — the reproduction of
//! `-Rpass=openmp-opt` / `-Rpass-missed=openmp-opt` (paper §VII: "we provide
//! compiler diagnostics for missed optimizations").

use std::fmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemarkKind {
    /// An optimization fired.
    Passed,
    /// An optimization was applicable but blocked; the message says why.
    Missed,
}

#[derive(Clone, Debug)]
pub struct Remark {
    pub kind: RemarkKind,
    /// Pass name, e.g. `"spmdization"`.
    pub pass: &'static str,
    /// Function the remark refers to.
    pub func: String,
    pub message: String,
}

impl fmt::Display for Remark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            RemarkKind::Passed => "remark",
            RemarkKind::Missed => "missed",
        };
        write!(f, "[{k}:{}] @{}: {}", self.pass, self.func, self.message)
    }
}

/// Collected remarks for one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct Remarks {
    pub entries: Vec<Remark>,
}

impl Remarks {
    pub fn passed(&mut self, pass: &'static str, func: &str, message: impl Into<String>) {
        self.entries.push(Remark {
            kind: RemarkKind::Passed,
            pass,
            func: func.to_string(),
            message: message.into(),
        });
    }

    pub fn missed(&mut self, pass: &'static str, func: &str, message: impl Into<String>) {
        self.entries.push(Remark {
            kind: RemarkKind::Missed,
            pass,
            func: func.to_string(),
            message: message.into(),
        });
    }

    /// All remarks of a kind for a pass (test helper).
    pub fn of(&self, kind: RemarkKind, pass: &str) -> Vec<&Remark> {
        self.entries
            .iter()
            .filter(|r| r.kind == kind && r.pass == pass)
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deterministic emission order: stable sort by function, pass, kind,
    /// message, then drop exact duplicates. Pass-internal iteration order
    /// (e.g. hash-map walks over analysis objects) must never leak into
    /// remark-based tests or diagnostics output; the pass manager calls
    /// this once after the pipeline finishes.
    pub fn normalize(&mut self) {
        fn kind_rank(k: RemarkKind) -> u8 {
            match k {
                RemarkKind::Passed => 0,
                RemarkKind::Missed => 1,
            }
        }
        self.entries.sort_by(|a, b| {
            (&a.func, a.pass, kind_rank(a.kind), &a.message).cmp(&(
                &b.func,
                b.pass,
                kind_rank(b.kind),
                &b.message,
            ))
        });
        self.entries
            .dedup_by(|a, b| a.kind == b.kind && a.pass == b.pass && a.func == b.func && a.message == b.message);
    }
}

impl fmt::Display for Remarks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.entries {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}
