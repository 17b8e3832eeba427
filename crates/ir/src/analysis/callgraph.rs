//! Call graph over a module, including conservative treatment of indirect
//! calls via the address-taken set (needed by the interprocedural analyses
//! of §IV-B2, which must account for "unknown callers and callees").
//!
//! Every table is dense, indexed by [`FuncRef::index`].

use crate::inst::Inst;
use crate::module::{FuncRef, Module};
use crate::value::Operand;

#[derive(Debug, PartialEq, Eq)]
pub struct CallGraph {
    /// Direct call edges caller -> callees (deduped, first-call order).
    pub callees: Vec<Vec<FuncRef>>,
    /// Inverse edges, callers in function order.
    pub callers: Vec<Vec<FuncRef>>,
    /// Functions whose address escapes into data / indirect calls.
    pub address_taken: Vec<bool>,
    /// The same functions as a list, in the order their addresses were
    /// first seen.
    pub address_taken_list: Vec<FuncRef>,
    /// The functions whose address each function takes (deduped).
    pub takes_address_of: Vec<Vec<FuncRef>>,
    /// Functions containing at least one indirect call.
    pub has_indirect_call: Vec<bool>,
}

impl CallGraph {
    pub fn build(m: &Module) -> CallGraph {
        let n = m.funcs.len();
        let mut callees: Vec<Vec<FuncRef>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<FuncRef>> = vec![Vec::new(); n];
        let mut address_taken = vec![false; n];
        let mut address_taken_list = Vec::new();
        let mut takes_address_of: Vec<Vec<FuncRef>> = vec![Vec::new(); n];
        let mut has_indirect_call = vec![false; n];
        // A listed instruction missing from the arena and a function
        // reference past the module — IR the verifier rejects, which a
        // device still launches into a typed trap — contribute nothing.
        let mut take_address = |i: usize, fr: FuncRef| {
            let Some(taken) = address_taken.get_mut(fr.index()) else { return };
            if !std::mem::replace(taken, true) {
                address_taken_list.push(fr);
            }
            if !takes_address_of[i].contains(&fr) {
                takes_address_of[i].push(fr);
            }
        };
        for (i, f) in m.funcs.iter().enumerate() {
            let me = FuncRef(i as u32);
            for block in &f.blocks {
                for inst in block.insts.iter().filter_map(|iid| f.insts.get(iid.index())) {
                    if let Inst::Call { callee, args, .. } = inst {
                        match callee {
                            Operand::Func(target) if target.index() < n => {
                                let list = &mut callees[i];
                                if !list.contains(target) {
                                    list.push(*target);
                                }
                                let rlist = &mut callers[target.index()];
                                if !rlist.contains(&me) {
                                    rlist.push(me);
                                }
                            }
                            Operand::Func(_) => {}
                            _ => has_indirect_call[i] = true,
                        }
                        // A function passed *as an argument* is address-taken.
                        for a in args {
                            if let Operand::Func(fr) = a {
                                take_address(i, *fr);
                            }
                        }
                    } else {
                        inst.for_each_operand(|op| {
                            if let Operand::Func(fr) = op {
                                take_address(i, fr);
                            }
                        });
                    }
                }
            }
        }
        CallGraph {
            callees,
            callers,
            address_taken,
            address_taken_list,
            takes_address_of,
            has_indirect_call,
        }
    }

    /// All functions transitively reachable from `roots` through direct
    /// calls and taken addresses, plus (conservatively) every address-taken
    /// function and what it reaches if any reachable function performs an
    /// indirect call — as a bitset indexed by [`FuncRef::index`]. One walk
    /// marks one set, so each function is visited at most once.
    pub fn reachable_from(&self, roots: &[FuncRef]) -> Vec<bool> {
        let mut seen = vec![false; self.callees.len()];
        let mut stack: Vec<FuncRef> = roots.to_vec();
        let mut pulled_address_taken = false;
        while let Some(f) = stack.pop() {
            if std::mem::replace(&mut seen[f.index()], true) {
                continue;
            }
            if self.has_indirect_call[f.index()] && !pulled_address_taken {
                // An indirect call may land on any address-taken function.
                pulled_address_taken = true;
                stack.extend(self.address_taken_list.iter().filter(|fr| !seen[fr.index()]));
            }
            // Functions whose address f takes escape there.
            let edges = self.callees[f.index()].iter().chain(&self.takes_address_of[f.index()]);
            stack.extend(edges.filter(|fr| !seen[fr.index()]));
        }
        seen
    }

    /// Is `f` potentially recursive (participates in a directed cycle of
    /// direct calls, or performs indirect calls while being address-taken)?
    pub fn maybe_recursive(&self, f: FuncRef) -> bool {
        if self.address_taken[f.index()] && self.has_indirect_call[f.index()] {
            return true;
        }
        // DFS from f looking for a path back to f.
        let mut seen = vec![false; self.callees.len()];
        let mut stack: Vec<FuncRef> = self.callees[f.index()].clone();
        while let Some(c) = stack.pop() {
            if c == f {
                return true;
            }
            if !std::mem::replace(&mut seen[c.index()], true) {
                stack.extend(self.callees[c.index()].iter().copied());
            }
        }
        false
    }
}
