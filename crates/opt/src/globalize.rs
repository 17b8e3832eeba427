//! Globalization elimination (paper §IV-A2): demote `__kmpc_alloc_shared`
//! allocations back to thread-private stack when the memory provably never
//! leaves the allocating thread — the frontend globalizes conservatively,
//! the optimizer un-does it where analysis allows.

use std::collections::HashSet;

use nzomp_ir::inst::{Inst, InstId};
use nzomp_ir::{Module, Operand};
use nzomp_rt::abi;

use crate::remarks::Remarks;
use crate::PassOptions;

pub fn run(module: &mut Module, _opts: &PassOptions, remarks: &mut Remarks) -> bool {
    let Some(alloc_fn) = module.find_func(abi::ALLOC_SHARED) else {
        return false;
    };
    let free_fn = module.find_func(abi::FREE_SHARED);
    let mut changed = false;

    for fidx in 0..module.funcs.len() {
        if module.funcs[fidx].is_declaration() {
            continue;
        }
        let candidates: Vec<(InstId, u64)> = {
            let f = &module.funcs[fidx];
            f.blocks
                .iter()
                .flat_map(|b| b.insts.iter().copied())
                .filter_map(|iid| match f.inst(iid) {
                    Inst::Call {
                        callee: Operand::Func(t),
                        args,
                        ..
                    } if *t == alloc_fn => args[0].as_const_int().map(|s| (iid, s as u64)),
                    _ => None,
                })
                .collect()
        };
        for (alloc_id, size) in candidates {
            let f = &module.funcs[fidx];
            // Derived pointer set.
            let mut derived: HashSet<InstId> = HashSet::new();
            derived.insert(alloc_id);
            let mut grew = true;
            while grew {
                grew = false;
                for block in &f.blocks {
                    for &iid in &block.insts {
                        if derived.contains(&iid) {
                            continue;
                        }
                        if let Inst::PtrAdd {
                            base: Operand::Inst(b),
                            ..
                        } = f.inst(iid)
                        {
                            if derived.contains(b) {
                                derived.insert(iid);
                                grew = true;
                            }
                        }
                    }
                }
            }
            // Every use of a derived pointer must keep it thread-private.
            let mut frees: Vec<InstId> = Vec::new();
            let mut ok = true;
            'scan: for block in &f.blocks {
                for &iid in &block.insts {
                    let inst = f.inst(iid);
                    let uses_derived = |op: &Operand| {
                        matches!(op, Operand::Inst(i) if derived.contains(i))
                    };
                    match inst {
                        Inst::Load { ptr, .. } => {
                            let _ = ptr; // loading through it is fine
                        }
                        Inst::Store { ptr, value, .. } => {
                            if uses_derived(value) {
                                ok = false; // address escapes into memory
                                break 'scan;
                            }
                            let _ = ptr;
                        }
                        Inst::Call {
                            callee: Operand::Func(t),
                            args,
                            ..
                        } if Some(*t) == free_fn => {
                            if uses_derived(&args[0]) {
                                frees.push(iid);
                            }
                        }
                        Inst::Call { args, .. } => {
                            if args.iter().any(|a| uses_derived(a)) {
                                ok = false; // passed to another function
                                break 'scan;
                            }
                        }
                        Inst::Atomic { value, .. } => {
                            if uses_derived(value) {
                                ok = false;
                                break 'scan;
                            }
                        }
                        Inst::Cas { expected, new, .. } => {
                            if uses_derived(expected) || uses_derived(new) {
                                ok = false;
                                break 'scan;
                            }
                        }
                        Inst::Select {
                            if_true, if_false, ..
                        } => {
                            if uses_derived(if_true) || uses_derived(if_false) {
                                ok = false; // flows where we do not track
                                break 'scan;
                            }
                        }
                        Inst::Phi { incomings, .. } => {
                            if incomings.iter().any(|i| uses_derived(&i.value)) {
                                ok = false;
                                break 'scan;
                            }
                        }
                        Inst::Cast { arg, .. } => {
                            if uses_derived(arg) {
                                ok = false; // observed as integer
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
                block.term.for_each_operand(|op| {
                    ok &= !matches!(op, Operand::Inst(i) if derived.contains(&i));
                });
                if !ok {
                    break 'scan;
                }
            }
            if !ok {
                remarks.missed(
                    "openmp-opt",
                    &module.funcs[fidx].name.clone(),
                    "globalized allocation escapes the allocating thread",
                );
                continue;
            }
            let f = &mut module.funcs[fidx];
            f.insts[alloc_id.index()] = Inst::Alloca { size };
            let drop: HashSet<InstId> = frees.into_iter().collect();
            for block in &mut f.blocks {
                block.insts.retain(|i| !drop.contains(i));
            }
            changed = true;
            remarks.passed(
                "openmp-opt",
                &module.funcs[fidx].name.clone(),
                "moved globalized allocation back to thread-private memory",
            );
        }
    }
    changed
}
