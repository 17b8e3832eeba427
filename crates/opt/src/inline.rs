//! Function inlining. Exposing the runtime's internals to the folding
//! passes is what makes "you only pay for what you use" work: once
//! `__kmpc_target_init` and the worksharing loops are inlined into the
//! kernel, their state accesses become analyzable and their mode parameters
//! become constants.

use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::inst::{Inst, InstId, Term};
use nzomp_ir::{BlockId, Function, Module, Operand, Ty};

/// A callee of at most this many live instructions is inlined without an
/// `always_inline` attribute.
const BUDGET: usize = 256;

/// Inline eligible call sites across the module. Returns true if anything
/// was inlined.
pub fn run(module: &mut Module) -> bool {
    let mut changed = false;
    // Bound total growth to keep the fixpoint loop tame.
    let mut size = module.live_inst_count();
    let max_size = size * 16 + 50_000;

    for _ in 0..8 {
        let cg = CallGraph::build(module);
        let mut did = false;
        for caller_idx in 0..module.funcs.len() {
            if module.funcs[caller_idx].is_declaration() {
                continue;
            }
            loop {
                if size > max_size {
                    return changed;
                }
                let Some((block, pos, callee_idx)) =
                    find_inlinable_call(module, caller_idx, &cg)
                else {
                    break;
                };
                let before = module.funcs[caller_idx].live_inst_count();
                inline_call(module, caller_idx, block, pos, callee_idx);
                size = size - before + module.funcs[caller_idx].live_inst_count();
                did = true;
                changed = true;
            }
        }
        if !did {
            break;
        }
    }
    changed
}

/// Find the first call site in `caller` that should be inlined.
fn find_inlinable_call(
    module: &Module,
    caller_idx: usize,
    cg: &CallGraph,
) -> Option<(BlockId, usize, usize)> {
    let caller = &module.funcs[caller_idx];
    for (bid, block) in caller.iter_blocks() {
        for (pos, &iid) in block.insts.iter().enumerate() {
            if let Inst::Call {
                callee: Operand::Func(target),
                ..
            } = caller.inst(iid)
            {
                let callee = module.func(*target);
                if callee.is_declaration()
                    || callee.attrs.no_inline
                    || target.index() == caller_idx
                    || cg.maybe_recursive(*target)
                {
                    continue;
                }
                let size = callee.live_inst_count();
                if callee.attrs.always_inline || size <= BUDGET {
                    return Some((bid, pos, target.index()));
                }
            }
        }
    }
    None
}

/// Inline the call at `caller.blocks[block].insts[pos]`.
fn inline_call(
    module: &mut Module,
    caller_idx: usize,
    block: BlockId,
    pos: usize,
    callee_idx: usize,
) {
    // A function is never inlined into itself, so the two are disjoint.
    let (caller, callee) = if caller_idx < callee_idx {
        let (lo, hi) = module.funcs.split_at_mut(callee_idx);
        (&mut lo[caller_idx], &hi[0])
    } else {
        let (lo, hi) = module.funcs.split_at_mut(caller_idx);
        (&mut hi[0], &lo[callee_idx])
    };

    let call_id = caller.block(block).insts[pos];
    let (call_args, _call_ret) = match caller.inst(call_id) {
        Inst::Call { args, ret, .. } => (args.clone(), *ret),
        _ => unreachable!("inline target is a call"),
    };

    let inst_off = caller.insts.len() as u32;
    let block_off = caller.blocks.len() as u32;

    // Copy callee instructions, remapping operands:
    //   params -> call arguments, inst ids -> shifted, blocks -> shifted.
    let remap_op = |op: Operand| -> Operand {
        match op {
            Operand::Param(p) => call_args[p as usize],
            Operand::Inst(i) => Operand::Inst(InstId(i.0 + inst_off)),
            other => other,
        }
    };
    for inst in &callee.insts {
        let mut ni = inst.clone();
        ni.map_operands(remap_op);
        if let Inst::Phi { incomings, .. } = &mut ni {
            for inc in incomings {
                inc.pred = BlockId(inc.pred.0 + block_off);
            }
        }
        caller.insts.push(ni);
    }

    // Split the call block: tail (everything after the call) moves to a new
    // continuation block which inherits the original terminator.
    let tail: Vec<InstId> = caller.blocks[block.index()].insts[pos + 1..].to_vec();
    caller.blocks[block.index()].insts.truncate(pos); // drops the call inst

    // Append callee blocks; collect return values.
    let mut ret_values: Vec<(BlockId, Option<Operand>)> = Vec::new();
    for (cbid, cblock) in callee.iter_blocks() {
        let nbid = BlockId(cbid.0 + block_off);
        let insts: Vec<InstId> = cblock
            .insts
            .iter()
            .map(|i| InstId(i.0 + inst_off))
            .collect();
        let term = match &cblock.term {
            Term::Br(t) => Term::Br(BlockId(t.0 + block_off)),
            Term::CondBr {
                cond,
                if_true,
                if_false,
            } => Term::CondBr {
                cond: remap_op(*cond),
                if_true: BlockId(if_true.0 + block_off),
                if_false: BlockId(if_false.0 + block_off),
            },
            Term::Ret(v) => {
                ret_values.push((nbid, v.map(remap_op)));
                Term::Unreachable // patched below to branch to the continuation
            }
            Term::Unreachable => Term::Unreachable,
        };
        debug_assert_eq!(nbid.index(), caller.blocks.len());
        caller.blocks.push(nzomp_ir::Block { insts, term });
    }

    // Continuation block.
    let cont = caller.add_block();
    let orig_term = std::mem::replace(&mut caller.blocks[block.index()].term, Term::Br(BlockId(block_off)));
    caller.blocks[cont.index()].insts = tail;
    caller.blocks[cont.index()].term = orig_term;
    // Successor phis that referenced `block` now come from `cont`.
    for s in caller.blocks[cont.index()].term.succs() {
        crate::simplify::retarget_phi_incomings(caller, s, block, cont);
    }

    // Patch return blocks to branch to the continuation; materialize the
    // return value (phi if several returns).
    let ret_op: Option<Operand> = match ret_values.len() {
        0 => None,
        1 => {
            let (rb, v) = ret_values[0];
            caller.blocks[rb.index()].term = Term::Br(cont);
            v
        }
        _ => {
            let ty = callee.ret.unwrap_or(Ty::I64);
            let incomings: Vec<nzomp_ir::value::PhiIncoming> = ret_values
                .iter()
                .filter_map(|(rb, v)| {
                    v.map(|value| nzomp_ir::value::PhiIncoming { pred: *rb, value })
                })
                .collect();
            for (rb, _) in &ret_values {
                caller.blocks[rb.index()].term = Term::Br(cont);
            }
            if callee.ret.is_some() {
                let phi = caller.add_inst(Inst::Phi { ty, incomings });
                caller.blocks[cont.index()].insts.insert(0, phi);
                Some(Operand::Inst(phi))
            } else {
                None
            }
        }
    };

    // Replace uses of the call result.
    if let Some(rv) = ret_op {
        let call = Operand::Inst(call_id);
        caller.map_operands(|op| if op == call { rv } else { op });
    }

    // Hoist inlined allocas into the caller entry so they execute once
    // (LLVM's static-alloca semantics) even if the call site is in a loop.
    hoist_allocas(caller);
}

fn hoist_allocas(caller: &mut Function) {
    let Function { blocks, insts, .. } = caller;
    let is_alloca = |i: &InstId| matches!(insts[i.index()], Inst::Alloca { .. });
    let Some((entry, rest)) = blocks.split_first_mut() else {
        return;
    };
    let mut hoist: Vec<InstId> = Vec::new();
    for block in rest {
        if block.insts.iter().any(is_alloca) {
            hoist.extend(block.insts.iter().copied().filter(is_alloca));
            block.insts.retain(|i| !is_alloca(i));
        }
    }
    if !hoist.is_empty() {
        let at = entry
            .insts
            .iter()
            .position(|i| !is_alloca(i))
            .unwrap_or(entry.insts.len());
        entry.insts.splice(at..at, hoist);
    }
}
