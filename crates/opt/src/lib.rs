//! `nzomp-opt` — the OpenMP-aware optimization pipeline (paper §IV).
//!
//! The pipeline mirrors LLVM's `openmp-opt` plus the passes this paper
//! added. Each §IV feature has its own switch in [`PassOptions`] so the
//! Fig. 13 ablation ("one optimization disabled at a time") is a first-class
//! operation:
//!
//! | switch | paper | effect |
//! |---|---|---|
//! | `fsaa` | §IV-B1 | field-sensitive access analysis: offset/size-binned accesses, zero-init folding, dead-store elimination, state pruning |
//! | `reach_dom` | §IV-B2 | lifetime-aware interprocedural reachability & dominance (folds across non-inlined calls) |
//! | `assumed_content` | §IV-B3 | `assume(load(x) == k)` after broadcast barriers becomes a pseudo-write for the analysis |
//! | `invariant_prop` | §IV-B4 | grid-dimension intrinsics and other invariant values propagate through memory |
//! | `aligned_exec` | §IV-C | exclusive/aligned execution contexts: lets dominance reasoning cross barriers and recognizes attribute-aligned barriers |
//! | `barrier_elim` | §IV-D | removes redundant aligned barriers (incl. implicit kernel entry/exit) |
//!
//! The pre-existing LLVM capabilities (§IV-A: internalization,
//! globalization elimination, SPMDization) plus standard folding and
//! inlining form the *baseline* pipeline — the "Nightly" columns of the
//! evaluation run with exactly that. No configuration takes them apart, so
//! they share the one `baseline` switch.
//!
//! A pass must degrade to "no change", never abort: `unwrap`/`expect` are
//! denied crate-wide (tests are exempt).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analyses;
pub mod barrier;
pub mod fold;
pub mod fsaa;
pub mod globalize;
pub mod inline;
pub mod pass;
pub mod pipeline;
pub mod prune;
pub mod remarks;
pub mod simplify;
pub mod spmdize;

use nzomp_ir::Module;
pub use analyses::{Analyses, CacheStats};
pub use pass::Pass;
pub use pipeline::{IrStats, PassManager, PassStat, PassTimings, Pipeline, Stage, VerifyFailure};
pub use remarks::{Remark, RemarkKind, Remarks};

/// Feature switches for the pipeline. See the crate docs for the mapping to
/// the paper's sections.
#[derive(Clone, Debug)]
pub struct PassOptions {
    /// The pre-paper LLVM pipeline as one unit: internalization, SPMDization
    /// and globalization elimination (§IV-A), inlining, and local folding /
    /// CFG simplification. Off means no pass runs at all (`-O0`).
    pub baseline: bool,
    // -- this paper (§IV-B..D) --
    /// Also removes shared-state globals once all their accesses folded away.
    pub fsaa: bool,
    pub reach_dom: bool,
    pub assumed_content: bool,
    pub invariant_prop: bool,
    pub aligned_exec: bool,
    pub barrier_elim: bool,
    /// Drop `assume`s after the fixpoint (release builds) so the stores
    /// feeding them can die. Debug builds keep them (they are checked).
    pub drop_assumes: bool,
}

impl PassOptions {
    /// No optimization at all (`-O0`).
    ///
    /// The **only** exhaustive struct literal among the constructors: a new
    /// switch added to [`PassOptions`] fails to compile right here, and the
    /// derived constructors below ([`baseline`](PassOptions::baseline) →
    /// [`full`](PassOptions::full) → [`full_without`](PassOptions::full_without))
    /// inherit it via struct update, so it cannot be forgotten in one of
    /// them.
    pub fn none() -> PassOptions {
        PassOptions {
            baseline: false,
            fsaa: false,
            reach_dom: false,
            assumed_content: false,
            invariant_prop: false,
            aligned_exec: false,
            barrier_elim: false,
            drop_assumes: false,
        }
    }

    /// The pre-paper pipeline: what LLVM nightly did *before* this work's
    /// passes landed. Used for the "Old RT (Nightly)" and "New RT (Nightly)"
    /// configurations.
    pub fn baseline() -> PassOptions {
        PassOptions {
            baseline: true,
            ..PassOptions::none()
        }
    }

    /// The full co-designed pipeline (§IV): baseline plus every paper pass.
    pub fn full() -> PassOptions {
        PassOptions {
            fsaa: true,
            reach_dom: true,
            assumed_content: true,
            invariant_prop: true,
            aligned_exec: true,
            barrier_elim: true,
            drop_assumes: true,
            ..PassOptions::baseline()
        }
    }

    /// Full pipeline with one §IV feature disabled — the Fig. 13 ablation.
    pub fn full_without(feature: Ablation) -> PassOptions {
        let mut o = PassOptions::full();
        o.disable(feature);
        o
    }

    /// Turn one §IV feature off, respecting the dependency structure of the
    /// paper's analyses (usable on any options value, e.g. by the bench
    /// harness to stack ablations).
    pub fn disable(&mut self, feature: Ablation) {
        match feature {
            // §IV-B1 is the base of every §IV-B analysis: removing it
            // removes them all (paper §V-C).
            Ablation::Fsaa => {
                self.fsaa = false;
                self.reach_dom = false;
                self.assumed_content = false;
                self.invariant_prop = false;
            }
            Ablation::ReachDom => self.reach_dom = false,
            Ablation::AssumedContent => self.assumed_content = false,
            Ablation::InvariantProp => self.invariant_prop = false,
            Ablation::AlignedExec => self.aligned_exec = false,
            Ablation::BarrierElim => self.barrier_elim = false,
        }
    }
}

/// The §IV features that can be individually ablated (Fig. 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    Fsaa,
    ReachDom,
    AssumedContent,
    InvariantProp,
    AlignedExec,
    BarrierElim,
}

impl Ablation {
    pub const ALL: [Ablation; 6] = [
        Ablation::Fsaa,
        Ablation::ReachDom,
        Ablation::AssumedContent,
        Ablation::InvariantProp,
        Ablation::AlignedExec,
        Ablation::BarrierElim,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Ablation::Fsaa => "w/o field-sensitive access analysis (IV-B1)",
            Ablation::ReachDom => "w/o reachability & dominance (IV-B2)",
            Ablation::AssumedContent => "w/o assumed memory content (IV-B3)",
            Ablation::InvariantProp => "w/o invariant value propagation (IV-B4)",
            Ablation::AlignedExec => "w/o exclusive & aligned execution (IV-C)",
            Ablation::BarrierElim => "w/o aligned barrier elimination (IV-D)",
        }
    }
}

/// Run the configured pipeline over `module` in place. Returns remarks
/// (the `-Rpass=openmp-opt` analogue, §VII).
pub fn optimize_module(module: &mut Module, opts: &PassOptions) -> Remarks {
    optimize_module_timed(module, opts).0
}

/// Like [`optimize_module`], also returning the per-pass profile and
/// analysis-memo counters (the `-ftime-report` analogue; see
/// [`PassTimings`]).
pub fn optimize_module_timed(module: &mut Module, opts: &PassOptions) -> (Remarks, PassTimings) {
    optimize_module_with_caching(module, opts, true)
}

/// [`optimize_module_timed`] with the analysis memo optionally never
/// storing — every query computes afresh. Results are identical either way
/// (`tests/golden_ir.rs` holds both modes to the same goldens); only the
/// profile differs.
pub fn optimize_module_with_caching(
    module: &mut Module,
    opts: &PassOptions,
    caching: bool,
) -> (Remarks, PassTimings) {
    let mut remarks = Remarks::default();
    let mut pm = pipeline::PassManager::new();
    pm.analyses.set_caching(caching);
    let timings = pm.run(Pipeline::for_options(opts), module, opts, &mut remarks);
    remarks.normalize();
    if timings.verify_failure.is_none() {
        debug_assert_eq!(nzomp_ir::verify_module(module), Ok(()));
    }
    (remarks, timings)
}
