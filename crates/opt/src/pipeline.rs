//! The declarative pass pipeline and its instrumented executor.
//!
//! [`Pipeline::for_options`] turns a [`PassOptions`] into an ordered list
//! of [`Stage`]s (single passes and fixpoint groups), so the Fig. 13
//! ablations are literally "this pass is absent from the list". The
//! executor hands one [`Analyses`] memo to every pass, empties it after
//! every pass execution that changed the module, and records per-pass wall
//! time, run counts, changed verdicts, and IR deltas into [`PassTimings`]
//! (the `-ftime-report` analogue).
//!
//! Builds with `debug_assertions` (every `cargo test` run) verify the
//! module after every single pass execution and name the offending pass
//! on failure — the first thing to read when a pipeline change breaks a
//! golden. Release builds verify once, after the pipeline.

use std::time::{Duration, Instant};

use nzomp_ir::verify::VerifyError;
use nzomp_ir::Module;

use crate::analyses::{Analyses, CacheStats};
use crate::pass::{
    Pass, BARRIER_ELIM, DROP_ASSUMES, FOLD, GLOBALIZE, GLOBAL_DCE, INLINE, INTERNALIZE,
    PRUNE_DEAD_GLOBALS, SIMPLIFY, SPMDIZE,
};
use crate::remarks::Remarks;
use crate::PassOptions;

/// One pass inside a fixpoint group.
pub struct PassEntry {
    pub pass: Pass,
    /// Whether this pass's changed-verdict counts toward convergence.
    /// Cleanup passes (`global-dce`) run every iteration but must not keep
    /// the loop alive on their own.
    pub drives_fixpoint: bool,
}

/// A pipeline element.
pub enum Stage {
    /// Run one pass once.
    Pass(Pass),
    /// Iterate a pass group until no driving pass reports a change, at
    /// most `max_iters` times.
    Fixpoint {
        passes: Vec<PassEntry>,
        max_iters: usize,
        /// Run the group only if the immediately preceding stage changed
        /// the module (the post-`drop-assumes` cleanup round).
        gated_on_prev: bool,
    },
}

/// Iteration cap of the interprocedural fixpoint groups.
const MAX_ITERATIONS: usize = 8;

/// An ordered list of stages — what `optimize_module` executes.
pub struct Pipeline {
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Build the pipeline a [`PassOptions`] describes. Disabled switches
    /// simply do not contribute their passes, which is exactly how the
    /// Fig. 13 ablations drop one optimization at a time.
    pub fn for_options(opts: &PassOptions) -> Pipeline {
        let mut stages: Vec<Stage> = Vec::new();
        if !opts.baseline {
            return Pipeline { stages };
        }

        stages.push(Stage::Pass(INTERNALIZE));
        stages.push(Stage::Pass(SPMDIZE));
        stages.push(Stage::Pass(GLOBAL_DCE));

        // Inline + local folding to expose the runtime internals to
        // analysis (bounded warm-up round).
        stages.push(Stage::Fixpoint {
            passes: vec![driver(INLINE), driver(SIMPLIFY), cleanup(GLOBAL_DCE)],
            max_iters: 3,
            gated_on_prev: false,
        });

        stages.push(Stage::Pass(GLOBALIZE));

        // Interprocedural fixpoint: fold runtime state, kill dead stores,
        // remove redundant barriers, repeat.
        let mut main: Vec<PassEntry> = Vec::new();
        if opts.fsaa {
            main.push(driver(FOLD));
        }
        main.push(driver(SIMPLIFY));
        main.push(driver(INLINE));
        if opts.barrier_elim {
            main.push(driver(BARRIER_ELIM));
        }
        main.push(cleanup(GLOBAL_DCE));
        stages.push(Stage::Fixpoint {
            passes: main,
            max_iters: MAX_ITERATIONS,
            gated_on_prev: false,
        });

        if opts.drop_assumes {
            stages.push(Stage::Pass(DROP_ASSUMES));
            // One more round so stores feeding the assumes can die — only
            // when assumes were actually dropped (no inlining here: the
            // module is already flat).
            let mut post: Vec<PassEntry> = Vec::new();
            if opts.fsaa {
                post.push(driver(FOLD));
            }
            post.push(driver(SIMPLIFY));
            if opts.barrier_elim {
                post.push(driver(BARRIER_ELIM));
            }
            post.push(cleanup(GLOBAL_DCE));
            stages.push(Stage::Fixpoint {
                passes: post,
                max_iters: MAX_ITERATIONS,
                gated_on_prev: true,
            });
        }

        if opts.fsaa {
            stages.push(Stage::Pass(PRUNE_DEAD_GLOBALS));
        }
        stages.push(Stage::Pass(GLOBAL_DCE));

        Pipeline { stages }
    }
}

fn driver(pass: Pass) -> PassEntry {
    PassEntry {
        pass,
        drives_fixpoint: true,
    }
}

fn cleanup(pass: Pass) -> PassEntry {
    PassEntry {
        pass,
        drives_fixpoint: false,
    }
}

// ---------------------------------------------------------------------------
// instrumentation
// ---------------------------------------------------------------------------

/// IR size snapshot; each pass run's deltas are the difference of two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrStats {
    pub insts: usize,
    pub blocks: usize,
    pub globals: usize,
    pub barriers: usize,
}

impl IrStats {
    pub fn of(m: &Module) -> IrStats {
        IrStats {
            insts: m.live_inst_count(),
            blocks: m.funcs.iter().map(|f| f.blocks.len()).sum(),
            globals: m.globals.len(),
            barriers: m
                .funcs
                .iter()
                .filter(|f| !f.is_declaration())
                .map(crate::barrier::count_aligned_barriers)
                .sum(),
        }
    }
}

/// Aggregated per-pass instrumentation, keyed by pass name.
#[derive(Clone, Debug, Default)]
pub struct PassStat {
    pub name: &'static str,
    /// Number of executions (fixpoint passes run many times).
    pub runs: u64,
    /// Executions that reported a change.
    pub changed_runs: u64,
    /// Total wall time across all executions.
    pub wall: Duration,
    /// Cumulative IR deltas (after − before, summed over executions).
    pub insts_delta: i64,
    pub blocks_delta: i64,
    pub globals_delta: i64,
    pub barriers_delta: i64,
}

/// A pass broke the module (caught by per-pass verification).
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyFailure {
    /// Name of the offending pass.
    pub pass: &'static str,
    pub err: VerifyError,
}

/// The compile-time observability record of one `optimize_module` run —
/// per-pass profile plus the analysis memo's counters (`-ftime-report` +
/// cache diagnostics).
#[derive(Clone, Debug, Default)]
pub struct PassTimings {
    /// Per-pass stats in first-execution order.
    pub passes: Vec<PassStat>,
    /// Queries the analysis memo answered (hits) and computed (misses).
    pub cache: CacheStats,
    /// Total optimizer wall time.
    pub total: Duration,
    /// Set when per-pass verification caught a broken pass; the pipeline
    /// stops at that point.
    pub verify_failure: Option<VerifyFailure>,
}

impl PassTimings {
    fn stat_mut(&mut self, name: &'static str) -> &mut PassStat {
        if let Some(i) = self.passes.iter().position(|p| p.name == name) {
            return &mut self.passes[i];
        }
        self.passes.push(PassStat {
            name,
            ..PassStat::default()
        });
        let last = self.passes.len() - 1;
        &mut self.passes[last]
    }
}

// ---------------------------------------------------------------------------
// executor
// ---------------------------------------------------------------------------

/// Executor state for one pipeline run.
pub struct PassManager {
    pub analyses: Analyses,
    timings: PassTimings,
    verify_each: bool,
    /// Did the most recently executed stage change the module?
    prev_changed: bool,
    /// The module as the last pass left it — the next pass's "before".
    stats: IrStats,
}

impl PassManager {
    /// Verifies after every pass exactly when `debug_assertions` are on.
    pub fn new() -> PassManager {
        PassManager::with_verify_each(cfg!(debug_assertions))
    }

    /// `verify_each`: run the module verifier after every pass execution and
    /// stop at the first pass that breaks the module.
    pub fn with_verify_each(verify_each: bool) -> PassManager {
        PassManager {
            analyses: Analyses::new(),
            timings: PassTimings::default(),
            verify_each,
            prev_changed: false,
            stats: IrStats::default(),
        }
    }

    /// Run the whole pipeline; returns the instrumentation record.
    pub fn run(
        mut self,
        pipeline: Pipeline,
        module: &mut Module,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> PassTimings {
        let start = Instant::now();
        self.stats = IrStats::of(module);
        'stages: for stage in pipeline.stages {
            match stage {
                Stage::Pass(pass) => {
                    let changed = self.run_one(pass, module, opts, remarks);
                    self.prev_changed = changed;
                    if self.timings.verify_failure.is_some() {
                        break 'stages;
                    }
                }
                Stage::Fixpoint {
                    passes,
                    max_iters,
                    gated_on_prev,
                } => {
                    if gated_on_prev && !self.prev_changed {
                        continue;
                    }
                    let mut any = false;
                    for _ in 0..max_iters {
                        let mut changed = false;
                        for entry in &passes {
                            let c = self.run_one(entry.pass, module, opts, remarks);
                            if self.timings.verify_failure.is_some() {
                                break 'stages;
                            }
                            if entry.drives_fixpoint {
                                changed |= c;
                            }
                        }
                        any |= changed;
                        if !changed {
                            break;
                        }
                    }
                    self.prev_changed = any;
                }
            }
        }
        self.timings.cache = self.analyses.stats();
        self.timings.total = start.elapsed();
        self.timings
    }

    /// Run one pass once: time it, forget every memoized analysis if it
    /// changed the module, record deltas, and (optionally) verify the
    /// module it left behind.
    fn run_one(
        &mut self,
        pass: Pass,
        module: &mut Module,
        opts: &PassOptions,
        remarks: &mut Remarks,
    ) -> bool {
        let t0 = Instant::now();
        let changed = (pass.run)(module, &mut self.analyses, opts, remarks);
        let wall = t0.elapsed();
        // Nothing touches the module between passes, so one walk per
        // changing pass serves as its "after" and the next one's "before".
        let before = self.stats;
        if changed {
            self.analyses.clear();
            self.stats = IrStats::of(module);
        } else {
            debug_assert_eq!(
                IrStats::of(module),
                before,
                "{} changed the module and reported no change",
                pass.name
            );
        }
        let after = self.stats;

        let stat = self.timings.stat_mut(pass.name);
        stat.runs += 1;
        if changed {
            stat.changed_runs += 1;
        }
        stat.wall += wall;
        stat.insts_delta += after.insts as i64 - before.insts as i64;
        stat.blocks_delta += after.blocks as i64 - before.blocks as i64;
        stat.globals_delta += after.globals as i64 - before.globals as i64;
        stat.barriers_delta += after.barriers as i64 - before.barriers as i64;

        if self.verify_each {
            if let Err(err) = nzomp_ir::verify_module(module) {
                self.timings.verify_failure = Some(VerifyFailure {
                    pass: pass.name,
                    err,
                });
            }
        }
        changed
    }
}

impl Default for PassManager {
    fn default() -> PassManager {
        PassManager::new()
    }
}
