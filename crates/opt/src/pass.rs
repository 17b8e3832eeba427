//! The `ModulePass` abstraction: every transformation in the pipeline —
//! `inline`, `simplify`, `fold`, `prune`, `globalize`, `spmdize`,
//! `barrier` (with the aligned-exec/reach-dom reasoning of `fsaa` riding
//! inside `fold`/`barrier` via their [`PassOptions`] switches) — runs
//! behind one trait so the pass manager can schedule, time, and
//! cache-invalidate uniformly (the mini analogue of LLVM's new-pass-manager
//! `PassInfoMixin`).
//!
//! A pass returns a [`PassEffect`]: whether it changed the module, which
//! functions it touched, and which analyses survived — the
//! [`PreservedAnalyses`] contract that keeps e.g. dominator trees cached
//! across a barrier-only deletion.

use nzomp_ir::analysis::{AnalysisKind, AnalysisManager, PreservedAnalyses, Touched};
use nzomp_ir::Module;

use crate::remarks::Remarks;
use crate::{barrier, fold, globalize, inline, prune, simplify, spmdize, PassOptions};

/// What a pass did to the module, for invalidation and instrumentation.
pub struct PassEffect {
    /// Did the IR change at all? Drives fixpoint convergence.
    pub changed: bool,
    /// Analyses that remain valid *for the touched functions*.
    pub preserved: PreservedAnalyses,
    /// Functions the pass mutated.
    pub touched: Touched,
}

impl PassEffect {
    /// Nothing changed; every cache survives.
    pub fn unchanged() -> PassEffect {
        PassEffect {
            changed: false,
            preserved: PreservedAnalyses::all(),
            touched: Touched::None,
        }
    }

    /// Build an effect from a collected touched-function list, preserving
    /// `preserved` on those functions. An empty list with `changed` still
    /// invalidates conservatively (the pass mutated something it did not
    /// attribute to a function).
    pub fn from_touched(changed: bool, touched: Vec<u32>, preserved: PreservedAnalyses) -> PassEffect {
        if !changed {
            return PassEffect::unchanged();
        }
        let touched = if touched.is_empty() {
            Touched::All
        } else {
            Touched::Funcs(touched)
        };
        PassEffect {
            changed,
            preserved,
            touched,
        }
    }
}

/// One module-level transformation in the pipeline.
pub trait ModulePass {
    /// Stable short name (timings key, `CompileError::Verify` stage name).
    fn name(&self) -> &'static str;

    fn run(
        &mut self,
        m: &mut Module,
        am: &mut AnalysisManager,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect;
}

// ---------------------------------------------------------------------------
// concrete passes
// ---------------------------------------------------------------------------

/// §IV-A1 aggressive internalization. Only flips linkage — no cached
/// analysis reads linkage, so everything is preserved.
pub struct Internalize;

impl ModulePass for Internalize {
    fn name(&self) -> &'static str {
        "internalize"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        _opts: &PassOptions,
        _remarks: &mut Remarks,
    ) -> PassEffect {
        let changed = m.internalize();
        PassEffect {
            changed,
            preserved: PreservedAnalyses::all(),
            touched: Touched::None,
        }
    }
}

/// §IV-A3 SPMDization (rewrites kernel execution modes and runtime calls).
pub struct Spmdize;

impl ModulePass for Spmdize {
    fn name(&self) -> &'static str {
        "spmdize"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect {
        let changed = spmdize::run(m, opts, remarks);
        PassEffect {
            changed,
            preserved: PreservedAnalyses::none(),
            touched: if changed { Touched::All } else { Touched::None },
        }
    }
}

/// Strip bodies of functions unreachable from any kernel. Consumes the
/// cached call graph instead of rebuilding it.
pub struct GlobalDce;

impl ModulePass for GlobalDce {
    fn name(&self) -> &'static str {
        "global-dce"
    }

    fn run(
        &mut self,
        m: &mut Module,
        am: &mut AnalysisManager,
        _opts: &PassOptions,
        _remarks: &mut Remarks,
    ) -> PassEffect {
        let cg = am.callgraph(m);
        let mut touched = Vec::new();
        let changed = prune::global_dce_with(m, &cg, &mut touched);
        PassEffect::from_touched(changed, touched, PreservedAnalyses::none())
    }
}

/// Function inlining (builds its own per-round call graph: it mutates the
/// module between rounds, so the cached one would go stale mid-pass).
pub struct Inline;

impl ModulePass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        opts: &PassOptions,
        _remarks: &mut Remarks,
    ) -> PassEffect {
        let mut touched = Vec::new();
        let changed = inline::run_collect(m, opts.inline_budget, &mut touched);
        PassEffect::from_touched(changed, touched, PreservedAnalyses::none())
    }
}

/// Local folding / CFG simplification / DCE.
pub struct Simplify;

impl ModulePass for Simplify {
    fn name(&self) -> &'static str {
        "simplify"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        opts: &PassOptions,
        _remarks: &mut Remarks,
    ) -> PassEffect {
        let mut touched = Vec::new();
        let changed = simplify::run_collect(m, opts, &mut touched);
        PassEffect::from_touched(changed, touched, PreservedAnalyses::none())
    }
}

/// §IV-A2 globalization elimination.
pub struct Globalize;

impl ModulePass for Globalize {
    fn name(&self) -> &'static str {
        "globalize-elim"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect {
        let changed = globalize::run(m, opts, remarks);
        PassEffect {
            changed,
            preserved: PreservedAnalyses::none(),
            touched: if changed { Touched::All } else { Touched::None },
        }
    }
}

/// §IV-B interprocedural state folding + dead-store elimination (the FSAA
/// family: field-sensitive access analysis, reach/dom, assumed content,
/// invariant propagation — gated by their `PassOptions` switches).
///
/// Folding replaces operands and rewrites instructions in place; DSE drops
/// instructions from blocks. Neither changes any terminator, so the CFG
/// and dominator trees survive. Liveness does not (uses change), and the
/// call graph does not either: folding a function-pointer load can turn an
/// indirect call site into a direct one.
pub struct Fold;

impl ModulePass for Fold {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(
        &mut self,
        m: &mut Module,
        am: &mut AnalysisManager,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect {
        let mut touched = Vec::new();
        let changed = fold::run_with(m, am, opts, remarks, &mut touched);
        PassEffect::from_touched(
            changed,
            touched,
            PreservedAnalyses::none()
                .preserve(AnalysisKind::Cfg)
                .preserve(AnalysisKind::Dominators),
        )
    }
}

/// §IV-D aligned barrier elimination. Only deletes barrier intrinsics and
/// barrier-like calls — block structure and terminators are untouched, so
/// the CFG and dominators stay cached (the motivating example for the
/// preserved-analyses API).
pub struct BarrierElim;

impl ModulePass for BarrierElim {
    fn name(&self) -> &'static str {
        "barrier-elim"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect {
        let mut touched = Vec::new();
        let changed = barrier::run_collect(m, opts, remarks, &mut touched);
        PassEffect::from_touched(
            changed,
            touched,
            PreservedAnalyses::none()
                .preserve(AnalysisKind::Cfg)
                .preserve(AnalysisKind::Dominators),
        )
    }
}

/// Post-fixpoint assumption removal (release builds, §III-G). Deletes
/// `assume` intrinsics only — CFG and dominators survive.
pub struct DropAssumes;

impl ModulePass for DropAssumes {
    fn name(&self) -> &'static str {
        "drop-assumes"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        _opts: &PassOptions,
        _remarks: &mut Remarks,
    ) -> PassEffect {
        let mut touched = Vec::new();
        let changed = prune::drop_assumes_collect(m, &mut touched);
        PassEffect::from_touched(
            changed,
            touched,
            PreservedAnalyses::none()
                .preserve(AnalysisKind::Cfg)
                .preserve(AnalysisKind::Dominators),
        )
    }
}

/// Dead-global pruning (the SMem-to-0B step). Only remaps `Operand::Global`
/// indices; no cached analysis reads globals, so everything is preserved —
/// the epochs still advance (the bodies did change) and the caches are
/// re-stamped rather than dropped.
pub struct PruneDeadGlobals;

impl ModulePass for PruneDeadGlobals {
    fn name(&self) -> &'static str {
        "prune-globals"
    }

    fn run(
        &mut self,
        m: &mut Module,
        _am: &mut AnalysisManager,
        _opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassEffect {
        let changed = prune::prune_dead_globals(m, remarks);
        PassEffect {
            changed,
            preserved: PreservedAnalyses::all(),
            touched: if changed { Touched::All } else { Touched::None },
        }
    }
}
