//! Control-flow-graph helpers: predecessors, reachability, orderings.

use crate::func::{Block, BlockId, Function};

/// The distinct blocks `block` branches to (a conditional branch with both
/// arms on one block is one edge).
fn edges(block: &Block) -> impl Iterator<Item = BlockId> {
    let succs = block.term.succs();
    let distinct = if succs.len() == 2 && succs[0] == succs[1] { 1 } else { succs.len() };
    succs.into_iter().take(distinct)
}

/// Number of distinct predecessors of each block.
pub fn pred_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0; f.blocks.len()];
    for succ in f.blocks.iter().flat_map(edges) {
        counts[succ.index()] += 1;
    }
    counts
}

/// Predecessor lists indexed by block: `preds[b]` is the slice of distinct
/// predecessors of block `b`, in block order. One flat list behind an
/// offset table, so building it costs a fixed number of allocations however
/// many blocks there are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Preds {
    /// `list[start[b]..start[b + 1]]` are the predecessors of block `b`.
    start: Vec<u32>,
    list: Vec<BlockId>,
}

impl std::ops::Index<usize> for Preds {
    type Output = [BlockId];

    fn index(&self, block: usize) -> &[BlockId] {
        &self.list[self.start[block] as usize..self.start[block + 1] as usize]
    }
}

/// Predecessor lists of every block of `f`.
pub fn predecessors(f: &Function) -> Preds {
    // Counts become offsets; each count's slot then serves as its block's
    // fill cursor.
    let mut cursor = pred_counts(f);
    let mut start = Vec::with_capacity(cursor.len() + 1);
    let mut total = 0;
    for slot in &mut cursor {
        start.push(total);
        total += std::mem::replace(slot, total);
    }
    start.push(total);
    let mut list = vec![BlockId::ENTRY; total as usize];
    for (bid, block) in f.iter_blocks() {
        for succ in edges(block) {
            list[cursor[succ.index()] as usize] = bid;
            cursor[succ.index()] += 1;
        }
    }
    Preds { start, list }
}

/// Blocks reachable from entry, as a bitset-like bool vec.
pub fn reachable(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if f.blocks.is_empty() {
        return seen;
    }
    let mut stack = vec![BlockId::ENTRY];
    seen[BlockId::ENTRY.index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.succs() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Reverse post-order of the reachable CFG (entry first).
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    let mut post = Vec::with_capacity(f.blocks.len());
    let mut state = vec![0u8; f.blocks.len()]; // 0 unseen, 1 open, 2 done
    if f.blocks.is_empty() {
        return post;
    }
    // Iterative DFS with explicit successor cursor to get true post-order.
    let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
    state[BlockId::ENTRY.index()] = 1;
    while let Some(top) = stack.last_mut() {
        let b = top.0;
        let succs = f.block(b).term.succs();
        if top.1 < succs.len() {
            let s = succs[top.1];
            top.1 += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Can execution starting at block `from` reach block `to`? (Trivially true
/// when `from == to` only if `to` is in a cycle or equals `from` — here we
/// use the inclusive convention: `from == to` returns true.)
pub fn block_reaches(f: &Function, from: BlockId, to: BlockId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.succs() {
            if s == to {
                return true;
            }
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}
