//! Aligned barrier elimination (paper §IV-D).
//!
//! "Our barrier elimination pass detects consecutive aligned barriers in
//! the same basic block that do not have non-thread-local side-effects in
//! between them. During this identification process we also consider the
//! kernel entry and exit as implicit aligned barriers."
//!
//! Loads do not block removal (they do not modify state another thread
//! could observe); stores, atomics and unresolved calls do. A call to a
//! function carrying the `ext_aligned_barrier` + `ext_no_call_asm`
//! assumptions (Fig. 6) itself counts as an aligned barrier when the
//! aligned-execution analysis (§IV-C) is enabled.
//!
//! # Preservation contract
//!
//! This pass may only remove a barrier that is *redundant*: between it and
//! the adjacent synchronization point (another aligned barrier, or the
//! implicit kernel entry/exit barrier) there is no non-thread-local side
//! effect, so removing it cannot change the happens-before relation of any
//! pair of memory accesses. Every barrier ordering a cross-thread
//! write→read must survive. The contract is machine-checked two ways:
//! the vGPU sanitizer (`nzomp-vgpu::sanitize`) verifies every proxy stays
//! race-free after the full pipeline and under each Fig.-13 ablation
//! (`tests/opt_preserves_sync.rs`), and a hand-built kernel whose single
//! barrier is load-bearing pins — via [`count_aligned_barriers`] — that
//! the pass keeps it.

use std::collections::HashSet;

use nzomp_ir::inst::{Inst, InstId, Intrinsic};
use nzomp_ir::{Function, Module, Operand, Term};

/// Does `ptr` provably point into this thread's private stack (an alloca,
/// possibly through constant-offset arithmetic)?
fn is_thread_local_ptr(f: &Function, ptr: Operand) -> bool {
    let mut cur = ptr;
    for _ in 0..16 {
        match cur {
            Operand::Inst(i) => match f.inst(i) {
                Inst::Alloca { .. } => return true,
                Inst::PtrAdd { base, .. } => cur = *base,
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

use crate::remarks::Remarks;
use crate::PassOptions;

/// Number of explicit aligned-barrier intrinsics in `f` — the observable
/// the preservation-contract tests pin before and after optimization.
pub fn count_aligned_barriers(f: &Function) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|&&iid| {
            matches!(
                f.inst(iid),
                Inst::Intr {
                    intr: Intrinsic::AlignedBarrier,
                    ..
                }
            )
        })
        .count()
}

pub fn run(module: &mut Module, opts: &PassOptions, remarks: &mut Remarks) -> bool {
    let kernel_funcs: HashSet<u32> = module.kernels.iter().map(|k| k.func.0).collect();
    let mut changed = false;
    for fidx in 0..module.funcs.len() {
        let is_kernel = kernel_funcs.contains(&(fidx as u32));
        // Classify calls before borrowing mutably.
        let barrier_like: Vec<InstId> = {
            let f = &module.funcs[fidx];
            if f.is_declaration() {
                continue;
            }
            f.blocks
                .iter()
                .flat_map(|b| b.insts.iter().copied())
                .filter(|&iid| {
                    if !opts.aligned_exec {
                        return false;
                    }
                    if let Inst::Call {
                        callee: Operand::Func(t),
                        ..
                    } = f.inst(iid)
                    {
                        let callee = &module.funcs[t.index()];
                        callee.attrs.aligned_barrier && callee.attrs.no_call_asm
                    } else {
                        false
                    }
                })
                .collect()
        };
        let barrier_like: HashSet<InstId> = barrier_like.into_iter().collect();

        let f = &mut module.funcs[fidx];
        let mut removed = 0usize;
        for bi in 0..f.blocks.len() {
            let ids: Vec<InstId> = f.blocks[bi].insts.clone();
            let mut to_remove: HashSet<InstId> = HashSet::new();
            // `pending` means: execution state is already synchronized at
            // this point (either a previous aligned barrier with nothing
            // observable since, or the kernel entry).
            let mut pending: Option<Option<InstId>> = if is_kernel && bi == 0 {
                Some(None) // implicit entry barrier
            } else {
                None
            };
            for &iid in &ids {
                let inst = &f.insts[iid.index()];
                let is_aligned_barrier = matches!(
                    inst,
                    Inst::Intr {
                        intr: Intrinsic::AlignedBarrier,
                        ..
                    }
                ) || barrier_like.contains(&iid);
                if is_aligned_barrier {
                    if pending.is_some() {
                        to_remove.insert(iid);
                        // The earlier synchronization point stays pending.
                    } else {
                        pending = Some(Some(iid));
                    }
                    continue;
                }
                let blocking = match inst {
                    // Only *non-thread-local* side effects matter (§IV-D):
                    // stores to thread-private stack slots cannot be
                    // observed by any other thread.
                    Inst::Store { ptr, .. } => !is_thread_local_ptr(f, *ptr),
                    Inst::Atomic { .. } | Inst::Cas { .. } => true,
                    Inst::Call { .. } => true, // unresolved effects
                    Inst::Intr { intr, .. } => matches!(
                        intr,
                        Intrinsic::Barrier
                            | Intrinsic::Malloc
                            | Intrinsic::Free
                            | Intrinsic::AssertFail
                    ),
                    _ => false,
                };
                if blocking {
                    pending = None;
                }
            }
            // Kernel exit counts as an implicit aligned barrier: a trailing
            // aligned barrier with no effects after it is redundant.
            if is_kernel {
                if let (Term::Ret(_), Some(Some(b))) = (&f.blocks[bi].term, pending) {
                    to_remove.insert(b);
                }
            }
            if !to_remove.is_empty() {
                // Only remove actual barrier intrinsics / barrier-like calls.
                f.blocks[bi].insts.retain(|i| !to_remove.contains(i));
                removed += to_remove.len();
            }
        }
        if removed > 0 {
            changed = true;
            remarks.passed(
                "openmp-opt",
                &module.funcs[fidx].name.clone(),
                format!("eliminated {removed} redundant aligned barrier(s)"),
            );
        }
    }
    changed
}
