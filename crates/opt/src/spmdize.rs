//! SPMDization (paper §IV-A3): convert eligible generic-mode kernels to
//! SPMD mode, removing the state machine entirely.
//!
//! Eligibility: every instruction of the kernel body is recomputable by all
//! threads (pure, loads, stores to thread-private memory) or is one of the
//! whitelisted runtime interactions (init/deinit, globalization of the
//! parallel arguments, the parallel fork itself). The transform then:
//!
//! * flips the init/deinit mode argument to SPMD (the worker branch folds
//!   away once the constant propagates through the inlined init);
//! * demotes the parallel-argument globalization to thread-private stack
//!   (every thread recomputes its own copy — the "recompute" strategy the
//!   paper describes; guarded execution is the alternative);
//! * retargets `__kmpc_parallel_51` to the SPMD fork `__kmpc_parallel_spmd`.
//!
//! Ineligible kernels get a missed-optimization remark
//! (`-Rpass-missed=openmp-opt`, §VII).

use std::collections::HashSet;

use nzomp_ir::inst::{Inst, InstId, Intrinsic};
use nzomp_ir::{ExecMode, Module, Operand};
use nzomp_rt::abi;

use crate::remarks::Remarks;
use crate::PassOptions;

pub fn run(module: &mut Module, _opts: &PassOptions, remarks: &mut Remarks) -> bool {
    let mut changed = false;
    let kernels: Vec<(u32, ExecMode)> = module
        .kernels
        .iter()
        .map(|k| (k.func.0, k.exec_mode))
        .collect();
    for (fidx, mode) in kernels {
        if mode != ExecMode::Generic {
            continue;
        }
        match check_eligibility(module, fidx) {
            Ok(plan) => {
                if !apply(module, fidx, &plan) {
                    continue;
                }
                changed = true;
                let name = module.funcs[fidx as usize].name.clone();
                module.set_exec_mode(nzomp_ir::module::FuncRef(fidx), ExecMode::Spmd);
                remarks.passed(
                    "openmp-opt",
                    &name,
                    "transformed generic-mode kernel to SPMD mode",
                );
            }
            Err(reason) => {
                let name = module.funcs[fidx as usize].name.clone();
                remarks.missed(
                    "openmp-opt",
                    &name,
                    format!("kernel cannot be moved to SPMD mode: {reason}"),
                );
            }
        }
    }
    changed
}

/// What to rewrite if the kernel is eligible.
struct Plan {
    init_calls: Vec<InstId>,
    deinit_calls: Vec<InstId>,
    parallel_calls: Vec<InstId>,
    alloc_shared_calls: Vec<(InstId, u64)>,
    free_shared_calls: Vec<InstId>,
}

fn check_eligibility(module: &Module, fidx: u32) -> Result<Plan, String> {
    let f = &module.funcs[fidx as usize];
    let mut plan = Plan {
        init_calls: vec![],
        deinit_calls: vec![],
        parallel_calls: vec![],
        alloc_shared_calls: vec![],
        free_shared_calls: vec![],
    };
    // Results of allocas / demoted alloc_shared: legal store targets.
    let mut private_ptrs: HashSet<InstId> = HashSet::new();

    for block in &f.blocks {
        for &iid in &block.insts {
            match f.inst(iid) {
                Inst::Alloca { .. } => {
                    private_ptrs.insert(iid);
                }
                Inst::PtrAdd { base, .. } => {
                    if let Operand::Inst(b) = base {
                        if private_ptrs.contains(b) {
                            private_ptrs.insert(iid);
                        }
                    }
                }
                Inst::Store { ptr, .. } => {
                    let ok = match ptr {
                        Operand::Inst(p) => private_ptrs.contains(p),
                        _ => false,
                    };
                    if !ok {
                        return Err("sequential store to possibly-shared memory".into());
                    }
                }
                Inst::Atomic { .. } | Inst::Cas { .. } => {
                    return Err("sequential atomic operation".into());
                }
                Inst::Intr { intr, .. } => match intr {
                    Intrinsic::AlignedBarrier | Intrinsic::Barrier => {
                        return Err("explicit barrier in sequential region".into());
                    }
                    Intrinsic::Malloc | Intrinsic::Free | Intrinsic::AssertFail => {
                        return Err("side-effecting intrinsic in sequential region".into());
                    }
                    _ => {}
                },
                Inst::Call { callee, args, .. } => {
                    let Operand::Func(t) = callee else {
                        return Err("indirect call in sequential region".into());
                    };
                    let callee_name = module.funcs[t.index()].name.as_str();
                    match callee_name {
                        n if n == abi::TARGET_INIT => {
                            if args[0].as_const_int() != Some(abi::MODE_GENERIC) {
                                return Err("unexpected init mode".into());
                            }
                            plan.init_calls.push(iid);
                        }
                        n if n == abi::TARGET_DEINIT => plan.deinit_calls.push(iid),
                        n if n == abi::PARALLEL_51 => {
                            plan.parallel_calls.push(iid);
                        }
                        n if n == abi::ALLOC_SHARED => {
                            let Some(size) = args[0].as_const_int() else {
                                return Err("globalization with dynamic size".into());
                            };
                            plan.alloc_shared_calls.push((iid, size as u64));
                            private_ptrs.insert(iid);
                        }
                        n if n == abi::FREE_SHARED => plan.free_shared_calls.push(iid),
                        n if n == abi::NZOMP_TRACE => {}
                        // Team-uniform queries are safely recomputable.
                        n if n == abi::OMP_GET_TEAM_NUM || n == abi::OMP_GET_NUM_TEAMS => {}
                        other => {
                            return Err(format!(
                                "call to @{other} with unknown side effects in sequential region"
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if plan.parallel_calls.is_empty() {
        return Err("no parallel region to promote".into());
    }
    if plan.init_calls.is_empty() {
        return Err("kernel has no target_init call".into());
    }
    Ok(plan)
}

/// Returns false (module untouched) when the modern runtime is not linked —
/// a generic-mode kernel without `__kmpc_parallel_spmd` cannot be promoted.
fn apply(module: &mut Module, fidx: u32, plan: &Plan) -> bool {
    let Some(spmd_fork) = module.find_func(abi::PARALLEL_SPMD) else {
        return false;
    };
    let f = &mut module.funcs[fidx as usize];
    for &iid in &plan.init_calls {
        if let Inst::Call { args, .. } = f.inst_mut(iid) {
            args[0] = Operand::i64(abi::MODE_SPMD);
        }
    }
    for &iid in &plan.deinit_calls {
        if let Inst::Call { args, .. } = f.inst_mut(iid) {
            args[0] = Operand::i64(abi::MODE_SPMD);
        }
    }
    for &iid in &plan.parallel_calls {
        if let Inst::Call { callee, .. } = f.inst_mut(iid) {
            *callee = Operand::Func(spmd_fork);
        }
    }
    for &(iid, size) in &plan.alloc_shared_calls {
        // Demote globalization to thread-private memory: each thread
        // recomputes the captured values into its own copy.
        f.insts[iid.index()] = Inst::Alloca { size };
    }
    // free_shared of a demoted pointer is a no-op; drop the calls.
    let drop: HashSet<InstId> = plan.free_shared_calls.iter().copied().collect();
    for block in &mut f.blocks {
        block.insts.retain(|i| !drop.contains(i));
    }
    true
}
