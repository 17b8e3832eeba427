//! The memo one pipeline run keeps of the two analyses a pass asks for:
//! the dominator tree of a function (`fold`) and the module's call graph
//! (`fold`, `global-dce`). Both are computed on first request and kept
//! until a pass changes the module — [`Analyses::clear`], which the
//! executor calls after every pass execution that returns `true`. That
//! `bool` is the whole contract between a pass and the memo.

use std::rc::Rc;

use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::analysis::dom::DomTree;
use nzomp_ir::Module;

/// Queries answered from the memo (hits) and by computing (misses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub dom_hits: u64,
    pub dom_misses: u64,
    pub callgraph_hits: u64,
    pub callgraph_misses: u64,
}

impl CacheStats {
    pub fn total_hits(&self) -> u64 {
        self.dom_hits + self.callgraph_hits
    }

    pub fn total_misses(&self) -> u64 {
        self.dom_misses + self.callgraph_misses
    }
}

/// Create one per pipeline run and hand it to every pass.
#[derive(Default)]
pub struct Analyses {
    /// Indexed by function; grown on demand.
    doms: Vec<Option<Rc<DomTree>>>,
    callgraph: Option<Rc<CallGraph>>,
    stats: CacheStats,
    /// When true nothing is stored and every query computes.
    uncached: bool,
}

impl Analyses {
    pub fn new() -> Analyses {
        Analyses::default()
    }

    /// `false` empties the memo and stops it storing: every query computes
    /// afresh. This is the reference `tests/golden_ir.rs` holds the
    /// memoized pipeline to.
    pub fn set_caching(&mut self, on: bool) {
        self.uncached = !on;
        if !on {
            self.clear();
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Forget everything: the module changed.
    pub fn clear(&mut self) {
        self.doms.clear();
        self.callgraph = None;
    }

    /// Dominator tree of function `f`.
    pub fn dominators(&mut self, m: &Module, f: u32) -> Rc<DomTree> {
        let i = f as usize;
        if let Some(Some(dt)) = self.doms.get(i) {
            self.stats.dom_hits += 1;
            return Rc::clone(dt);
        }
        self.stats.dom_misses += 1;
        let dt = Rc::new(DomTree::compute(&m.funcs[i]));
        if !self.uncached {
            if self.doms.len() <= i {
                self.doms.resize(i + 1, None);
            }
            self.doms[i] = Some(Rc::clone(&dt));
        }
        dt
    }

    /// The module's call graph.
    pub fn callgraph(&mut self, m: &Module) -> Rc<CallGraph> {
        if let Some(cg) = &self.callgraph {
            self.stats.callgraph_hits += 1;
            return Rc::clone(cg);
        }
        self.stats.callgraph_misses += 1;
        let cg = Rc::new(CallGraph::build(m));
        if !self.uncached {
            self.callgraph = Some(Rc::clone(&cg));
        }
        cg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nzomp_ir::{FuncBuilder, Operand, Ty};

    fn tiny_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
        let p = b.param(0);
        let v = b.add(p, Operand::i64(1));
        b.ret(Some(v));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn repeated_queries_hit() {
        let m = tiny_module();
        let mut a = Analyses::new();
        let d1 = a.dominators(&m, 0);
        let d2 = a.dominators(&m, 0);
        assert!(Rc::ptr_eq(&d1, &d2));
        let c1 = a.callgraph(&m);
        let c2 = a.callgraph(&m);
        assert!(Rc::ptr_eq(&c1, &c2));
        let want = CacheStats {
            dom_hits: 1,
            dom_misses: 1,
            callgraph_hits: 1,
            callgraph_misses: 1,
        };
        assert_eq!(a.stats(), want);
    }

    #[test]
    fn clear_forgets_everything() {
        let m = tiny_module();
        let mut a = Analyses::new();
        a.dominators(&m, 0);
        a.callgraph(&m);
        a.clear();
        a.dominators(&m, 0);
        a.callgraph(&m);
        assert_eq!((a.stats().total_hits(), a.stats().total_misses()), (0, 4));
    }

    #[test]
    fn disabled_caching_always_recomputes() {
        let m = tiny_module();
        let mut a = Analyses::new();
        a.dominators(&m, 0);
        a.set_caching(false);
        let d1 = a.dominators(&m, 0);
        let d2 = a.dominators(&m, 0);
        assert!(!Rc::ptr_eq(&d1, &d2));
        a.callgraph(&m);
        a.callgraph(&m);
        assert_eq!((a.stats().total_hits(), a.stats().total_misses()), (0, 5));
    }
}
