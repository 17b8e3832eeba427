//! `nzomp` — the user-facing facade: build configurations, the compile
//! pipeline (frontend output → runtime link → optimization → device image)
//! and launch/reporting helpers.
//!
//! The five [`BuildConfig`]s are the columns of the paper's evaluation
//! (Fig. 10–12):
//!
//! | config | runtime | pipeline | notes |
//! |---|---|---|---|
//! | `OldRtNightly` | legacy | baseline | the pre-paper status quo |
//! | `NewRtNightly` | modern | baseline | new runtime before the §IV passes — reproduces the paper's nightly regression (bigger SMem, no wins) |
//! | `NewRtNoAssumptions` | modern | full §IV | co-design without user assumptions |
//! | `NewRt` | modern | full §IV | plus oversubscription assumptions (§III-F) |
//! | `Cuda` | none | generic folding | the native baseline |
//!
//! Panic-free by policy: pipeline failures are typed [`CompileError`]s,
//! never process aborts. The lint gate below enforces it (tests exempt).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod pipeline;
pub mod report;

pub use config::BuildConfig;
pub use pipeline::{compile, module_fingerprint, CompileCache, CompileError, CompileOutput};
pub use report::ConfigRow;

pub use nzomp_front as front;
pub use nzomp_ir as ir;
pub use nzomp_opt as opt;
pub use nzomp_rt as rt;
pub use nzomp_vgpu as vgpu;
