//! Build configurations — the evaluation columns of the paper.

use nzomp_opt::PassOptions;
use nzomp_rt::{RtConfig, RuntimeFlavor};

/// One compiler/runtime configuration of the evaluation (Fig. 10–12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BuildConfig {
    /// Legacy runtime + pre-paper ("nightly") pipeline.
    OldRtNightly,
    /// Co-designed runtime + pre-paper pipeline: the state the paper
    /// observed in LLVM nightly, including the shared-memory regression.
    NewRtNightly,
    /// Co-designed runtime + full §IV pipeline, no user assumptions.
    NewRtNoAssumptions,
    /// Co-designed runtime + full §IV pipeline + oversubscription
    /// assumptions (§III-F). Only valid when the launch actually covers the
    /// iteration space (checked at runtime in debug builds).
    NewRt,
    /// Hand-written CUDA-style kernel, no OpenMP runtime.
    Cuda,
}

impl BuildConfig {
    /// All OpenMP configs plus the CUDA baseline, in evaluation order.
    pub const ALL: [BuildConfig; 5] = [
        BuildConfig::OldRtNightly,
        BuildConfig::NewRtNightly,
        BuildConfig::NewRtNoAssumptions,
        BuildConfig::NewRt,
        BuildConfig::Cuda,
    ];

    pub fn label(self) -> &'static str {
        match self {
            BuildConfig::OldRtNightly => "Old RT (Nightly)",
            BuildConfig::NewRtNightly => "New RT (Nightly)",
            BuildConfig::NewRtNoAssumptions => "New RT - w/o Assumptions",
            BuildConfig::NewRt => "New RT",
            BuildConfig::Cuda => "CUDA (NVCC)",
        }
    }

    /// Which device runtime to link (None for CUDA).
    pub fn runtime(self) -> Option<RuntimeFlavor> {
        match self {
            BuildConfig::OldRtNightly => Some(RuntimeFlavor::Legacy),
            BuildConfig::NewRtNightly
            | BuildConfig::NewRtNoAssumptions
            | BuildConfig::NewRt => Some(RuntimeFlavor::Modern),
            BuildConfig::Cuda => None,
        }
    }

    /// Runtime compile-time configuration (debug off; assumptions per
    /// config).
    pub fn rt_config(self) -> RtConfig {
        RtConfig {
            debug_kind: 0,
            assume_teams_oversubscription: self == BuildConfig::NewRt,
            assume_threads_oversubscription: self == BuildConfig::NewRt,
        }
    }

    /// Optimization pipeline for this configuration.
    pub fn pass_options(self) -> PassOptions {
        match self {
            BuildConfig::OldRtNightly | BuildConfig::NewRtNightly => PassOptions::baseline(),
            BuildConfig::NewRtNoAssumptions | BuildConfig::NewRt => PassOptions::full(),
            // CUDA kernels get the generic folding every compiler performs.
            BuildConfig::Cuda => PassOptions::baseline(),
        }
    }
}
