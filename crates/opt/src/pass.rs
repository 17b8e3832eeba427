//! A pass is a name and a function. The ten values below are every
//! transformation the pipeline schedules — `inline`, `simplify`, `fold`,
//! `prune`, `globalize`, `spmdize`, `barrier` (with the aligned-exec /
//! reach-dom reasoning of `fsaa` riding inside `fold`/`barrier` via their
//! [`PassOptions`] switches) — each one the pass module's own entry point,
//! the same function `tests/passes_unit.rs` calls.
//!
//! The function returns whether it changed the module, exactly: the
//! executor drops the analysis memo on `true`, keeps it on `false`, and
//! fixpoint groups converge on it (`tests/analysis_cache.rs` holds every
//! pass to `changed == (module != module_before)`).

use nzomp_ir::Module;

use crate::analyses::Analyses;
use crate::remarks::Remarks;
use crate::{barrier, fold, globalize, inline, prune, simplify, spmdize, PassOptions};

/// One module-level transformation in the pipeline.
#[derive(Clone, Copy)]
pub struct Pass {
    /// Stable short name (timings key, `CompileError::Verify` stage name).
    pub name: &'static str,
    pub run: fn(&mut Module, &mut Analyses, &PassOptions, &mut Remarks) -> bool,
}

/// §IV-A1 aggressive internalization (only flips linkage).
pub const INTERNALIZE: Pass = Pass {
    name: "internalize",
    run: |m, _, _, _| m.internalize(),
};

/// §IV-A3 SPMDization (rewrites kernel execution modes and runtime calls).
pub const SPMDIZE: Pass = Pass {
    name: "spmdize",
    run: |m, _, o, r| spmdize::run(m, o, r),
};

/// Strip bodies of functions unreachable from any kernel.
pub const GLOBAL_DCE: Pass = Pass {
    name: "global-dce",
    run: |m, a, _, _| prune::global_dce(m, a),
};

/// Function inlining (builds its own per-round call graph: it mutates the
/// module between rounds, so a memoized one would go stale mid-pass).
pub const INLINE: Pass = Pass {
    name: "inline",
    run: |m, _, _, _| inline::run(m),
};

/// Local folding / CFG simplification / DCE.
pub const SIMPLIFY: Pass = Pass {
    name: "simplify",
    run: |m, _, _, _| simplify::run(m),
};

/// §IV-A2 globalization elimination.
pub const GLOBALIZE: Pass = Pass {
    name: "globalize-elim",
    run: |m, _, o, r| globalize::run(m, o, r),
};

/// §IV-B interprocedural state folding + dead-store elimination (the FSAA
/// family: field-sensitive access analysis, reach/dom, assumed content,
/// invariant propagation — gated by their `PassOptions` switches).
pub const FOLD: Pass = Pass {
    name: "fold",
    run: fold::run,
};

/// §IV-D aligned barrier elimination.
pub const BARRIER_ELIM: Pass = Pass {
    name: "barrier-elim",
    run: |m, _, o, r| barrier::run(m, o, r),
};

/// Post-fixpoint assumption removal (release builds, §III-G).
pub const DROP_ASSUMES: Pass = Pass {
    name: "drop-assumes",
    run: |m, _, _, _| prune::drop_assumes(m),
};

/// Dead-global pruning (the SMem-to-0B step).
pub const PRUNE_DEAD_GLOBALS: Pass = Pass {
    name: "prune-globals",
    run: |m, _, _, r| prune::prune_dead_globals(m, r),
};
