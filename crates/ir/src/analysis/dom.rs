//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm). Used by the
//! lifetime-aware reachability & dominance analysis (paper §IV-B2) and the
//! verifier of SSA dominance in debug builds.

use crate::analysis::cfg;
use crate::func::{BlockId, Function};

/// Immediate-dominator table. Unreachable blocks have `idom == None` and
/// `None` for the entry as well (the entry dominates itself implicitly).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
}

impl DomTree {
    pub fn compute(f: &Function) -> DomTree {
        let rpo = cfg::reverse_post_order(f);
        // RPO index per block (usize::MAX for unreachable).
        let mut order = vec![usize::MAX; f.blocks.len()];
        for (i, b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }
        let preds = cfg::predecessors(f);
        let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
        if f.blocks.is_empty() {
            return DomTree { idom };
        }
        idom[BlockId::ENTRY.index()] = Some(BlockId::ENTRY);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self_intersect(&idom, &order, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's idom is conventionally itself; normalize to None for the
        // public API (entry has no strict dominator).
        DomTree { idom }
    }

    /// Immediate dominator (None for the entry block and unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(d) if d != b => Some(d),
            Some(_) => None, // entry
            None => None,
        }
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Does block `a` dominate block `b`? (Reflexive.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn self_intersect(
    idom: &[Option<BlockId>],
    order: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    // Both walks stay within processed (reachable) blocks, whose idoms are
    // always set; a `None` cannot occur, and degrading to the other finger
    // just terminates the loop at the current meeting point.
    while a != b {
        while order[a.index()] > order[b.index()] {
            a = idom[a.index()].unwrap_or(b);
        }
        while order[b.index()] > order[a.index()] {
            b = idom[b.index()].unwrap_or(a);
        }
    }
    a
}
