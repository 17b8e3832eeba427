//! Whole-module pruning: unreachable functions, post-fixpoint assumption
//! removal, and dead-global elimination (how the optimized SPMD kernels of
//! the paper reach **0 B** of shared memory in Fig. 11).

use std::collections::HashSet;

use nzomp_ir::global::GlobalId;
use nzomp_ir::inst::{Inst, Intrinsic};
use nzomp_ir::module::FuncRef;
use nzomp_ir::{Module, Operand};

use crate::analyses::Analyses;
use crate::remarks::Remarks;

/// Strip bodies of functions unreachable from any kernel (indices stay
/// stable; the husks become declarations and cost nothing — their storage
/// is released, not kept for a body that never comes back).
pub fn global_dce(module: &mut Module, analyses: &mut Analyses) -> bool {
    let roots: Vec<FuncRef> = module.kernels.iter().map(|k| k.func).collect();
    if roots.is_empty() {
        return false;
    }
    let live = analyses.callgraph(module).reachable_from(&roots);
    let mut changed = false;
    for (f, live) in module.funcs.iter_mut().zip(live) {
        if !live && !f.is_declaration() {
            f.blocks = Vec::new();
            f.insts = Vec::new();
            changed = true;
        }
    }
    changed
}

/// Remove all `assume` intrinsics (release builds, after the folding
/// fixpoint): their information has been consumed; keeping them would keep
/// the loads that feed them alive and block state death.
pub fn drop_assumes(module: &mut Module) -> bool {
    let mut changed = false;
    for f in module.funcs.iter_mut() {
        let insts = &f.insts;
        for block in &mut f.blocks {
            let before = block.insts.len();
            block.insts.retain(|&iid| {
                !matches!(
                    insts[iid.index()],
                    Inst::Intr {
                        intr: Intrinsic::Assume(()),
                        ..
                    }
                )
            });
            changed |= block.insts.len() != before;
        }
    }
    changed
}

/// Delete globals with no remaining references in live code, remapping
/// `Operand::Global` indices. This is the step that drives the SMem column
/// to zero once the runtime state folded away.
pub fn prune_dead_globals(module: &mut Module, remarks: &mut Remarks) -> bool {
    let mut referenced: HashSet<u32> = HashSet::new();
    let mut note = |op: Operand| {
        if let Operand::Global(g) = op {
            referenced.insert(g.0);
        }
    };
    for f in &module.funcs {
        for block in &f.blocks {
            for &iid in &block.insts {
                f.inst(iid).for_each_operand(&mut note);
            }
            block.term.for_each_operand(&mut note);
        }
    }
    let n = module.globals.len();
    let dead: Vec<u32> = (0..n as u32).filter(|g| !referenced.contains(g)).collect();
    if dead.is_empty() {
        return false;
    }
    // Build the remap and shrink the table.
    let mut remap: Vec<Option<u32>> = vec![None; n];
    let mut new_globals = Vec::with_capacity(n - dead.len());
    for (gi, g) in module.globals.drain(..).enumerate() {
        if referenced.contains(&(gi as u32)) {
            remap[gi] = Some(new_globals.len() as u32);
            new_globals.push(g);
        }
    }
    let pruned = n - new_globals.len();
    module.globals = new_globals;
    for f in &mut module.funcs {
        let fix = |op: Operand| -> Operand {
            match op {
                // Instructions still sitting in the arena but no longer
                // listed in any block may reference pruned globals; they are
                // dead, so any placeholder works.
                Operand::Global(g) => match remap[g.index()] {
                    Some(ng) => Operand::Global(GlobalId(ng)),
                    None => Operand::NULL,
                },
                other => other,
            }
        };
        f.map_operands(fix);
    }
    remarks.passed(
        "openmp-opt",
        "<module>",
        format!("pruned {pruned} dead global(s) (runtime state eliminated)"),
    );
    true
}
