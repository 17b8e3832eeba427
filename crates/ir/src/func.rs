//! Functions and basic blocks.

use crate::inst::{Inst, InstId, Term};
use crate::types::Ty;
use crate::value::Operand;

/// Dense index of a basic block within its function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    pub const ENTRY: BlockId = BlockId(0);

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: instruction list plus mandatory terminator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Block {
    pub insts: Vec<InstId>,
    pub term: Term,
}

impl Block {
    pub fn new() -> Block {
        Block {
            insts: Vec::new(),
            term: Term::Unreachable,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// Symbol linkage. `Internal` functions may be freely specialized and
/// removed; `External` ones must be preserved unless internalized first
/// (paper §IV-A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Linkage {
    Internal,
    External,
}

/// Function attributes. These carry the OpenMP 5.1 `assumes` extensions the
/// paper attaches to runtime code (Fig. 6), plus inlining control.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FnAttrs {
    /// `ext_aligned_barrier`: every barrier this function executes is
    /// aligned, i.e. reached by all threads of the team together.
    pub aligned_barrier: bool,
    /// `ext_no_call_asm`: the function will not transfer execution to
    /// another (unknown) function.
    pub no_call_asm: bool,
    /// Inliner must inline every call site of this function.
    pub always_inline: bool,
    /// Inliner must not inline this function.
    pub no_inline: bool,
    /// Function does not access memory visible to other threads (pure up to
    /// local state). Used for runtime helpers like id computations.
    pub read_none: bool,
}

/// A function: parameter types, optional return, block/instruction arenas.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
    /// Block 0 is the entry. Blocks may become unreachable after
    /// transformations; `analysis::cfg` recomputes reachability on demand.
    pub blocks: Vec<Block>,
    /// Instruction arena; blocks refer into it by [`InstId`]. Dead entries
    /// are tolerated (they are skipped because no block lists them).
    pub insts: Vec<Inst>,
    pub attrs: FnAttrs,
    pub linkage: Linkage,
}

impl Function {
    /// Create a declaration (no body) — resolved at link time.
    pub fn declaration(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            blocks: Vec::new(),
            insts: Vec::new(),
            attrs: FnAttrs::default(),
            linkage: Linkage::External,
        }
    }

    pub fn is_declaration(&self) -> bool {
        self.blocks.is_empty()
    }

    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Append a fresh empty block and return its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Append an instruction to the arena (not to any block).
    pub fn add_inst(&mut self, inst: Inst) -> InstId {
        self.insts.push(inst);
        InstId((self.insts.len() - 1) as u32)
    }

    /// Iterate `(BlockId, &Block)` in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Number of instructions currently listed in blocks (live code size).
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Apply `f` to every operand use in the function: the whole arena
    /// (dead entries included) and every terminator.
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        for inst in &mut self.insts {
            inst.map_operands(&mut f);
        }
        for block in &mut self.blocks {
            block.term.map_operands(&mut f);
        }
    }

    /// Is the instruction arena in *normal form*: exactly the live
    /// instructions, stored in block-traversal order? Normal form is what
    /// the textual format can represent losslessly — the parser produces
    /// it, and `parse(print(f)) == f` holds exactly iff `f` is normalized
    /// (see [`Function::renumber`] and `docs/ir-format.md`).
    pub fn is_normalized(&self) -> bool {
        let mut next = 0u32;
        for b in &self.blocks {
            for &iid in &b.insts {
                if iid.0 != next {
                    return false;
                }
                next += 1;
            }
        }
        next as usize == self.insts.len()
    }

    /// Rewrite the instruction arena into normal form: dense ids in
    /// block-traversal order, dead (unlisted) entries dropped, every
    /// operand remapped. Returns whether anything changed. Transformation
    /// passes leave holes and out-of-order entries behind; renumbering is
    /// how a module becomes exactly representable in the text format.
    pub fn renumber(&mut self) -> bool {
        if self.is_normalized() {
            return false;
        }
        let mut order: Vec<InstId> = Vec::with_capacity(self.insts.len());
        for b in &self.blocks {
            order.extend_from_slice(&b.insts);
        }
        let mut map: Vec<Option<InstId>> = vec![None; self.insts.len()];
        for (new, old) in order.iter().enumerate() {
            map[old.index()] = Some(InstId(new as u32));
        }
        // A malformed module may reference an unlisted (dead) instruction;
        // leave such operands unchanged rather than abort — the verifier is
        // the place that reports them.
        let remap = |op: Operand| -> Operand {
            match op {
                Operand::Inst(i) => match map.get(i.index()).copied().flatten() {
                    Some(n) => Operand::Inst(n),
                    None => op,
                },
                other => other,
            }
        };
        let mut insts: Vec<Inst> = Vec::with_capacity(order.len());
        for old in &order {
            let mut inst = self.insts[old.index()].clone();
            inst.map_operands(remap);
            insts.push(inst);
        }
        let mut next = 0u32;
        for b in &mut self.blocks {
            for iid in &mut b.insts {
                *iid = InstId(next);
                next += 1;
            }
            b.term.map_operands(remap);
        }
        self.insts = insts;
        true
    }
}
