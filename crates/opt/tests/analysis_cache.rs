//! The one contract between a pass and the executor, and the one rule of
//! the analysis memo, held through the real [`PassManager`]:
//!
//! (a) a pass returns `true` exactly when it changed the module
//!     (`changed == (module != module_before)`), and
//! (b) the memo is emptied after every pass execution that returned `true`
//!     and by nothing else, so whatever it holds equals a fresh computation.
//!
//! A pass is a `fn`, so both checks are passes themselves: [`CHECKED`]
//! wraps each of the ten passes in (a), and [`PROBE`] asks the memo for
//! every analysis — priming it for whichever pass runs next — and compares
//! each answer with a from-scratch run.

use nzomp::pipeline::link_only;
use nzomp::BuildConfig;
use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::analysis::dom::DomTree;
use nzomp_ir::module::FuncRef;
use nzomp_ir::{ExecMode, FuncBuilder, Function, Module, Operand, Ty};
use nzomp_opt::pass::{
    BARRIER_ELIM, DROP_ASSUMES, FOLD, GLOBALIZE, GLOBAL_DCE, INLINE, INTERNALIZE,
    PRUNE_DEAD_GLOBALS, SIMPLIFY, SPMDIZE,
};
use nzomp_opt::{
    Ablation, Analyses, CacheStats, Pass, PassManager, PassOptions, Pipeline, Remarks, Stage,
};
use nzomp_proxies::{all_proxies, build_for_config};
use proptest::prelude::*;

/// The ten passes, in the order the property test's indices draw them.
const PASSES: [Pass; 10] = [
    INTERNALIZE,
    SPMDIZE,
    GLOBAL_DCE,
    INLINE,
    SIMPLIFY,
    GLOBALIZE,
    FOLD,
    BARRIER_ELIM,
    DROP_ASSUMES,
    PRUNE_DEAD_GLOBALS,
];

/// `PASSES[I]`, held to contract (a).
fn checked<const I: usize>(
    m: &mut Module,
    analyses: &mut Analyses,
    opts: &PassOptions,
    remarks: &mut Remarks,
) -> bool {
    let before = m.clone();
    let changed = (PASSES[I].run)(m, analyses, opts, remarks);
    assert_eq!(
        changed,
        *m != before,
        "{} returned {changed} and the module says otherwise",
        PASSES[I].name
    );
    changed
}

macro_rules! checked_passes {
    ($($i:literal)*) => {
        [$(Pass { name: PASSES[$i].name, run: checked::<$i> }),*]
    };
}

/// `PASSES`, each under its own name and wrapped in [`checked`].
const CHECKED: [Pass; 10] = checked_passes!(0 1 2 3 4 5 6 7 8 9);

fn checked_version(pass: Pass) -> Pass {
    let i = PASSES
        .iter()
        .position(|p| p.name == pass.name)
        .expect("the pipeline schedules only the ten passes");
    CHECKED[i]
}

/// Contract (b): every analysis the memo hands out equals a fresh
/// computation. Changes nothing, so the memo it leaves primed is what the
/// next pass's verdict keeps or drops.
const PROBE: Pass = Pass {
    name: "probe",
    run: probe,
};

fn probe(m: &mut Module, analyses: &mut Analyses, _: &PassOptions, _: &mut Remarks) -> bool {
    for (fi, f) in m.funcs.iter().enumerate() {
        if f.is_declaration() {
            continue;
        }
        assert_eq!(
            *analyses.dominators(m, fi as u32),
            DomTree::compute(f),
            "stale dominators for {}",
            f.name
        );
    }
    assert_eq!(
        *analyses.callgraph(m),
        CallGraph::build(m),
        "stale call graph"
    );
    false
}

/// Build one function of the given shape. Shapes: 0 = straight-line,
/// 1 = one diamond, 2 = two chained diamonds.
fn build_func(
    name: &str,
    shape: u8,
    seed: i64,
    callee: Option<FuncRef>,
    with_barrier: bool,
    with_assume: bool,
) -> Function {
    let mut b = FuncBuilder::new(name, vec![Ty::Ptr, Ty::I64], None);
    let p0 = b.param(0);
    let p1 = b.param(1);
    if with_barrier {
        b.aligned_barrier();
    }
    if with_assume {
        let c = b.icmp_sge(p1, Operand::i64(0));
        b.assume(c);
    }
    if let Some(fr) = callee {
        b.call(Operand::Func(fr), vec![p0, p1], None);
    }
    let diamonds = match shape {
        0 => 0,
        1 => 1,
        _ => 2,
    };
    let x = b.add(p1, Operand::i64(seed));
    let y = b.mul(x, Operand::i64(3));
    b.store(Ty::I64, p0, y);
    for d in 0..diamonds {
        let t = b.new_block();
        let e = b.new_block();
        let done = b.new_block();
        let c = b.icmp_slt(p1, Operand::i64(seed + d));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.store(Ty::I64, p0, Operand::i64(d));
        b.br(done);
        b.switch_to(e);
        b.store(Ty::I64, p0, Operand::i64(d + 10));
        b.br(done);
        b.switch_to(done);
    }
    b.ret(None);
    b.finish()
}

/// Assemble a module: a kernel calling a chain of helpers (last shape is
/// the deepest callee), so inlining and global DCE have real work.
fn build_module(shapes: &[u8], seeds: &[i64], with_barrier: bool, with_assume: bool) -> Module {
    let mut m = Module::new("prop");
    let mut next: Option<FuncRef> = None;
    for i in (0..shapes.len()).rev() {
        let is_kernel = i == 0;
        let f = build_func(
            &format!("f{i}"),
            shapes[i],
            seeds[i % seeds.len()],
            next,
            with_barrier && is_kernel,
            with_assume && is_kernel,
        );
        next = Some(m.add_function(f));
    }
    m.add_kernel(next.expect("at least one function"), ExecMode::Spmd);
    m
}

proptest! {
    #[test]
    fn cached_analyses_match_fresh_recomputation(
        shapes in prop::collection::vec(0..3u8, 1..4),
        seeds in prop::collection::vec(0i64..100, 1..4),
        with_barrier: bool,
        with_assume: bool,
        passes in prop::collection::vec(0..10u8, 1..12),
    ) {
        let mut m = build_module(&shapes, &seeds, with_barrier, with_assume);
        prop_assert_eq!(nzomp_ir::verify_module(&m), Ok(()));

        let mut stages = vec![Stage::Pass(PROBE)];
        for &pi in &passes {
            stages.push(Stage::Pass(CHECKED[pi as usize]));
            stages.push(Stage::Pass(PROBE));
        }
        let timings = PassManager::with_verify_each(true).run(
            Pipeline { stages },
            &mut m,
            &PassOptions::full(),
            &mut Remarks::default(),
        );
        prop_assert_eq!(timings.verify_failure, None);
    }
}

/// Contract (a) on the pipelines that ship: every proxy under every
/// configuration and every Fig. 13 ablation, through the stage list
/// `Pipeline::for_options` builds, with each pass swapped for its checked
/// version.
#[test]
fn every_pass_reports_change_exactly_on_every_proxy_pipeline() {
    let mut variants = vec![None];
    variants.extend(Ablation::ALL.map(Some));
    for p in all_proxies() {
        for cfg in BuildConfig::ALL {
            let linked =
                link_only(build_for_config(p.as_ref(), cfg), cfg, &cfg.rt_config()).unwrap();
            for ab in &variants {
                let mut opts = cfg.pass_options();
                if let Some(ab) = ab {
                    opts.disable(*ab);
                }
                let mut pipeline = Pipeline::for_options(&opts);
                for stage in &mut pipeline.stages {
                    match stage {
                        Stage::Pass(pass) => *pass = checked_version(*pass),
                        Stage::Fixpoint { passes, .. } => {
                            for entry in passes {
                                entry.pass = checked_version(entry.pass);
                            }
                        }
                    }
                }
                let mut m = linked.clone();
                let timings =
                    PassManager::new().run(pipeline, &mut m, &opts, &mut Remarks::default());
                assert_eq!(
                    timings.verify_failure,
                    None,
                    "{} {cfg:?} without {ab:?}",
                    p.name()
                );
            }
        }
    }
}

/// The rule of the memo, read off the counters the executor reports: a
/// pass that changes the module empties it, one that does not keeps it,
/// and with caching off nothing is ever kept.
#[test]
fn a_changing_pass_empties_the_memo_and_an_unchanged_one_keeps_it() {
    const QUERY: Pass = Pass {
        name: "query",
        run: |m, analyses, _, _| {
            analyses.dominators(m, 0);
            analyses.callgraph(m);
            false
        },
    };
    let run = |caching: bool| {
        // `simplify` folds `2 + 3` on its first run and finds nothing on
        // its second.
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        let five = b.add(Operand::i64(2), Operand::i64(3));
        b.store(Ty::I64, b.param(0), five);
        b.ret(None);
        let mut m = Module::new("t");
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        let stages = [QUERY, SIMPLIFY, QUERY, SIMPLIFY, QUERY]
            .map(Stage::Pass)
            .into();
        let mut pm = PassManager::new();
        pm.analyses.set_caching(caching);
        let timings = pm.run(
            Pipeline { stages },
            &mut m,
            &PassOptions::full(),
            &mut Remarks::default(),
        );
        let simplify = &timings.passes[1];
        assert_eq!(
            (simplify.name, simplify.runs, simplify.changed_runs),
            ("simplify", 2, 1)
        );
        timings.cache
    };
    let kept_once = CacheStats {
        dom_hits: 1,
        dom_misses: 2,
        callgraph_hits: 1,
        callgraph_misses: 2,
    };
    assert_eq!(run(true), kept_once);
    let never_kept = CacheStats {
        dom_hits: 0,
        dom_misses: 3,
        callgraph_hits: 0,
        callgraph_misses: 3,
    };
    assert_eq!(run(false), never_kept);
}
