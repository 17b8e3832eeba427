//! Call graph over a module, including conservative treatment of indirect
//! calls via the address-taken set (needed by the interprocedural analyses
//! of §IV-B2, which must account for "unknown callers and callees").

use std::collections::{HashMap, HashSet};

use crate::inst::Inst;
use crate::module::{FuncRef, Module};
use crate::value::Operand;

#[derive(Debug, PartialEq, Eq)]
pub struct CallGraph {
    /// Direct call edges caller -> callees (deduped).
    pub callees: HashMap<FuncRef, Vec<FuncRef>>,
    /// Inverse edges.
    pub callers: HashMap<FuncRef, Vec<FuncRef>>,
    /// Functions whose address escapes into data / indirect calls.
    pub address_taken: HashSet<FuncRef>,
    /// Functions containing at least one indirect call.
    pub has_indirect_call: HashSet<FuncRef>,
}

impl CallGraph {
    pub fn build(m: &Module) -> CallGraph {
        let mut callees: HashMap<FuncRef, Vec<FuncRef>> = HashMap::new();
        let mut callers: HashMap<FuncRef, Vec<FuncRef>> = HashMap::new();
        let mut address_taken = HashSet::new();
        let mut has_indirect_call = HashSet::new();

        for (i, f) in m.funcs.iter().enumerate() {
            let me = FuncRef(i as u32);
            for (_bid, block) in f.iter_blocks() {
                for &iid in &block.insts {
                    let inst = f.inst(iid);
                    if let Inst::Call { callee, args, .. } = inst {
                        match callee {
                            Operand::Func(target) => {
                                let list = callees.entry(me).or_default();
                                if !list.contains(target) {
                                    list.push(*target);
                                }
                                let rlist = callers.entry(*target).or_default();
                                if !rlist.contains(&me) {
                                    rlist.push(me);
                                }
                            }
                            _ => {
                                has_indirect_call.insert(me);
                            }
                        }
                        // A function passed *as an argument* is address-taken.
                        for a in args {
                            if let Operand::Func(fr) = a {
                                address_taken.insert(*fr);
                            }
                        }
                    } else {
                        inst.for_each_operand(|op| {
                            if let Operand::Func(fr) = op {
                                address_taken.insert(fr);
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
            has_indirect_call,
        }
    }

    /// All functions transitively reachable from `roots` through direct
    /// calls, plus (conservatively) every address-taken function if any
    /// reachable function performs an indirect call.
    pub fn reachable_from(&self, m: &Module, roots: &[FuncRef]) -> HashSet<FuncRef> {
        let mut seen: HashSet<FuncRef> = HashSet::new();
        let mut stack: Vec<FuncRef> = roots.to_vec();
        let mut saw_indirect = false;
        while let Some(f) = stack.pop() {
            if !seen.insert(f) {
                continue;
            }
            if self.has_indirect_call.contains(&f) {
                saw_indirect = true;
            }
            if let Some(cs) = self.callees.get(&f) {
                stack.extend(cs.iter().copied());
            }
            // Address-taken functions referenced inside f also escape there.
            let func = m.func(f);
            for block in &func.blocks {
                for &iid in &block.insts {
                    func.inst(iid).for_each_operand(|op| {
                        if let Operand::Func(fr) = op {
                            if self.address_taken.contains(&fr) && !seen.contains(&fr) {
                                stack.push(fr);
                            }
                        }
                    });
                }
            }
        }
        if saw_indirect {
            for fr in &self.address_taken {
                if !seen.contains(fr) {
                    // Pull in the whole closure below them too.
                    let more = self.reachable_from(m, &[*fr]);
                    seen.extend(more);
                }
            }
        }
        seen
    }

    /// Is `f` potentially recursive (participates in a directed cycle of
    /// direct calls, or performs indirect calls while being address-taken)?
    pub fn maybe_recursive(&self, f: FuncRef) -> bool {
        if self.address_taken.contains(&f) && self.has_indirect_call.contains(&f) {
            return true;
        }
        // DFS from f looking for a path back to f.
        let mut seen = HashSet::new();
        let mut stack: Vec<FuncRef> = self.callees.get(&f).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            if c == f {
                return true;
            }
            if seen.insert(c) {
                if let Some(cs) = self.callees.get(&c) {
                    stack.extend(cs.iter().copied());
                }
            }
        }
        false
    }
}
