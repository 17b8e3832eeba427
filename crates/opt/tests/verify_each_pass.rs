//! Per-pass verification pins a pipeline break to the pass that caused
//! it: the executor verifies the module after every single pass execution,
//! stops the pipeline on the first failure, and records the offending
//! pass's name in `PassTimings::verify_failure` (which the compile pipeline
//! surfaces as `CompileError::Verify { stage: <pass> }`). It is on exactly
//! when `debug_assertions` are; the tests below arm and disarm it through
//! the constructor.

use nzomp_ir::inst::Term;
use nzomp_ir::{BlockId, ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_opt::pass::{GLOBAL_DCE, SIMPLIFY};
use nzomp_opt::pipeline::{PassManager, Pipeline, Stage};
use nzomp_opt::{Analyses, Pass, PassOptions, Remarks};

fn tiny_module() -> Module {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    let p0 = b.param(0);
    let p1 = b.param(1);
    let v = b.add(p1, Operand::i64(1));
    b.store(Ty::I64, p0, v);
    b.ret(None);
    let mut m = Module::new("t");
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

/// A deliberately broken pass: points the entry terminator at a block
/// that does not exist.
const SABOTEUR: Pass = Pass {
    name: "saboteur",
    run: sabotage,
};

fn sabotage(m: &mut Module, _: &mut Analyses, _: &PassOptions, _: &mut Remarks) -> bool {
    m.funcs[0].blocks[0].term = Term::Br(BlockId(999));
    true
}

#[test]
fn verify_each_pass_names_the_offending_pass_and_stops() {
    // -- armed: the saboteur is caught, named, and the pipeline stops --
    let mut m = tiny_module();
    let pipeline = Pipeline {
        stages: vec![
            Stage::Pass(SIMPLIFY),
            Stage::Pass(SABOTEUR),
            // Must never run: the pipeline stops at the failure.
            Stage::Pass(GLOBAL_DCE),
        ],
    };
    let mut remarks = Remarks::default();
    let pm = PassManager::with_verify_each(true);
    let timings = pm.run(pipeline, &mut m, &PassOptions::full(), &mut remarks);

    let vf = timings
        .verify_failure
        .as_ref()
        .expect("the broken module must be caught between passes");
    assert_eq!(vf.pass, "saboteur", "failure must name the offending pass, got {vf:?}");
    assert!(
        timings.passes.iter().all(|p| p.name != "global-dce"),
        "pipeline must stop at the failing pass: {:?}",
        timings.passes
    );
    // The healthy pass before the saboteur ran and verified clean.
    assert!(timings.passes.iter().any(|p| p.name == "simplify" && p.runs == 1));

    // -- disarmed: no per-pass attribution; only the caller's final
    // post-pipeline verify would catch the break --
    let mut m = tiny_module();
    let pipeline = Pipeline {
        stages: vec![Stage::Pass(SABOTEUR)],
    };
    let mut remarks = Remarks::default();
    let pm = PassManager::with_verify_each(false);
    let timings = pm.run(pipeline, &mut m, &PassOptions::full(), &mut remarks);
    assert!(timings.verify_failure.is_none());
    assert!(nzomp_ir::verify_module(&m).is_err());
}

/// The default follows the build: every `cargo test` run verifies between
/// passes, a release build does not.
#[test]
fn default_follows_debug_assertions() {
    let mut m = tiny_module();
    let pipeline = Pipeline {
        stages: vec![Stage::Pass(SABOTEUR)],
    };
    let mut remarks = Remarks::default();
    let timings = PassManager::new().run(pipeline, &mut m, &PassOptions::full(), &mut remarks);
    assert_eq!(timings.verify_failure.is_some(), cfg!(debug_assertions));
}
