//! SSA liveness and register-pressure estimation.
//!
//! The virtual GPU reports a "#Regs" metric per kernel (Fig. 11 of the
//! paper) computed as the maximum number of simultaneously-live SSA values
//! in the final, optimized kernel plus a fixed ABI reserve. Eliminating
//! runtime state and loop-carried values (e.g. via the oversubscription
//! assumptions, §III-F) lowers this number exactly as the paper describes.

use std::collections::HashSet;

use crate::func::{BlockId, Function};
use crate::inst::Inst;
use crate::value::Operand;

/// A live "value key": instruction result or parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    Inst(u32),
    Param(u32),
}

fn key_of(op: Operand) -> Option<Key> {
    match op {
        Operand::Inst(i) => Some(Key::Inst(i.0)),
        Operand::Param(p) => Some(Key::Param(p)),
        _ => None,
    }
}

/// Result of the liveness computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    /// Per-block live-out sets (over both insts and params).
    live_out_sizes: Vec<usize>,
    /// Maximum live-set size at any program point.
    pub max_live: usize,
}

/// Compute liveness for `f`.
pub fn compute(f: &Function) -> Liveness {
    let nb = f.blocks.len();
    let mut live_in: Vec<HashSet<Key>> = vec![HashSet::new(); nb];
    let mut live_out: Vec<HashSet<Key>> = vec![HashSet::new(); nb];

    // Iterate to fixpoint (backward dataflow).
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nb).rev() {
            let b = BlockId(bi as u32);
            let block = f.block(b);
            // live-out = union over successors of (live-in(s) minus s's phi
            // defs) plus the phi incomings contributed along this edge.
            let mut out: HashSet<Key> = HashSet::new();
            for s in block.term.succs() {
                // A branch to a missing block — IR the verifier rejects,
                // which a device still launches into a typed trap —
                // contributes nothing.
                let Some(succ) = f.blocks.get(s.index()) else { continue };
                for k in &live_in[s.index()] {
                    out.insert(*k);
                }
                for &iid in &succ.insts {
                    match f.insts.get(iid.index()) {
                        Some(Inst::Phi { incomings, .. }) => {
                            out.remove(&Key::Inst(iid.0));
                            for inc in incomings {
                                if inc.pred == b {
                                    if let Some(k) = key_of(inc.value) {
                                        out.insert(k);
                                    }
                                }
                            }
                        }
                        _ => break,
                    }
                }
            }
            // live-in = (live-out minus defs) plus uses, walked backward.
            let mut cur = out.clone();
            block.term.for_each_operand(|op| cur.extend(key_of(op)));
            for &iid in block.insts.iter().rev() {
                // A listed instruction missing from the arena (IR the
                // verifier rejects) defines and uses nothing.
                let Some(inst) = f.insts.get(iid.index()) else { continue };
                cur.remove(&Key::Inst(iid.0));
                if !inst.is_phi() {
                    inst.for_each_operand(|op| cur.extend(key_of(op)));
                }
            }
            // Phi defs are live-in (they are defined "at the block start"),
            // so add them back.
            for &iid in &block.insts {
                if f.insts.get(iid.index()).is_some_and(Inst::is_phi) {
                    cur.insert(Key::Inst(iid.0));
                } else {
                    break;
                }
            }
            if cur != live_in[bi] || out != live_out[bi] {
                live_in[bi] = cur;
                live_out[bi] = out;
                changed = true;
            }
        }
    }

    // Max pressure: walk each block forward tracking the live set.
    let mut max_live = 0usize;
    for (bi, block) in f.blocks.iter().enumerate() {
        // Recompute backward death points within the block.
        let mut live: HashSet<Key> = live_out[bi].clone();
        max_live = max_live.max(live.len());
        block.term.for_each_operand(|op| live.extend(key_of(op)));
        max_live = max_live.max(live.len());
        for &iid in block.insts.iter().rev() {
            let Some(inst) = f.insts.get(iid.index()) else { continue };
            live.remove(&Key::Inst(iid.0));
            if !inst.is_phi() {
                inst.for_each_operand(|op| live.extend(key_of(op)));
            }
            max_live = max_live.max(live.len());
        }
    }
    let live_out_sizes = live_out.iter().map(|s| s.len()).collect();
    Liveness {
        live_out_sizes,
        max_live,
    }
}

/// Register estimate for a kernel entry function: max-live SSA values plus a
/// small fixed ABI/base reserve (grid bookkeeping, stack pointer…).
pub fn register_estimate(f: &Function) -> u32 {
    const ABI_BASE: u32 = 16;
    compute(f).max_live as u32 + ABI_BASE
}
