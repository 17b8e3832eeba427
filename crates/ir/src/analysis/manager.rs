//! Analysis manager: epoch-keyed caching of per-function analyses (CFG
//! predecessors, dominators, liveness) and module-level ones (call graph),
//! with a `PreservedAnalyses`-style invalidation API — the mini version of
//! LLVM's new-pass-manager `AnalysisManager` that the paper's `openmp-opt`
//! lives in.
//!
//! Each function carries a modification *epoch*; cached results are stamped
//! with the epoch they were computed at and hit only while the stamps match.
//! After a pass runs, [`AnalysisManager::invalidate`] bumps the epochs of
//! the functions the pass touched and either drops cached results or — for
//! analyses the pass declared preserved — re-stamps them to the new epoch.
//! A pass that only deletes barriers therefore keeps dominators cached.
//!
//! Function indices must stay stable for the lifetime of the cache (the
//! optimizer's `global_dce` strips bodies in place and never reorders
//! `Module::funcs`, so they do).

use std::rc::Rc;

use crate::analysis::callgraph::CallGraph;
use crate::analysis::dom::DomTree;
use crate::analysis::liveness::{self, Liveness};
use crate::analysis::cfg;
use crate::module::Module;

/// The analyses the manager knows how to cache and invalidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisKind {
    /// CFG predecessor lists.
    Cfg,
    /// Dominator tree.
    Dominators,
    /// SSA liveness / register-pressure estimate.
    Liveness,
    /// Module-level call graph.
    CallGraph,
}

impl AnalysisKind {
    pub const ALL: [AnalysisKind; 4] = [
        AnalysisKind::Cfg,
        AnalysisKind::Dominators,
        AnalysisKind::Liveness,
        AnalysisKind::CallGraph,
    ];

    fn bit(self) -> u8 {
        match self {
            AnalysisKind::Cfg => 1 << 0,
            AnalysisKind::Dominators => 1 << 1,
            AnalysisKind::Liveness => 1 << 2,
            AnalysisKind::CallGraph => 1 << 3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            AnalysisKind::Cfg => "cfg",
            AnalysisKind::Dominators => "dominators",
            AnalysisKind::Liveness => "liveness",
            AnalysisKind::CallGraph => "callgraph",
        }
    }
}

/// What a pass promises it left intact — the LLVM `PreservedAnalyses`
/// analogue. Preservation applies to the functions the pass *touched*;
/// untouched functions keep their caches regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreservedAnalyses {
    mask: u8,
}

impl PreservedAnalyses {
    /// The pass changed nothing the caches care about.
    pub fn all() -> PreservedAnalyses {
        PreservedAnalyses { mask: u8::MAX }
    }

    /// The pass may have invalidated everything (the conservative default).
    pub fn none() -> PreservedAnalyses {
        PreservedAnalyses { mask: 0 }
    }

    /// Mark one analysis as preserved (builder-style).
    pub fn preserve(mut self, kind: AnalysisKind) -> PreservedAnalyses {
        self.mask |= kind.bit();
        self
    }

    pub fn preserves(&self, kind: AnalysisKind) -> bool {
        self.mask & kind.bit() != 0
    }
}

/// Which functions a pass mutated, for targeted invalidation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Touched {
    /// The pass changed nothing (all caches survive untouched).
    None,
    /// Only these function indices changed.
    Funcs(Vec<u32>),
    /// Assume every function changed (the conservative default).
    All,
}

/// Hit/miss counters per analysis kind, for compile-time observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: [u64; 4],
    pub misses: [u64; 4],
}

impl CacheStats {
    pub fn hits_of(&self, kind: AnalysisKind) -> u64 {
        self.hits[kind_index(kind)]
    }

    pub fn misses_of(&self, kind: AnalysisKind) -> u64 {
        self.misses[kind_index(kind)]
    }

    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }
}

fn kind_index(kind: AnalysisKind) -> usize {
    match kind {
        AnalysisKind::Cfg => 0,
        AnalysisKind::Dominators => 1,
        AnalysisKind::Liveness => 2,
        AnalysisKind::CallGraph => 3,
    }
}

/// One cached per-function result, stamped with the epoch it was computed at.
struct Cached<T> {
    epoch: u64,
    value: Rc<T>,
}

/// The manager. Create one per `optimize_module` run and thread it through
/// every pass; query analyses lazily via the getters.
#[derive(Default)]
pub struct AnalysisManager {
    /// Per-function modification epoch (bumped on invalidation).
    func_epoch: Vec<u64>,
    /// Module-level epoch (any function change bumps it — the call graph
    /// depends on every body).
    module_epoch: u64,
    preds: Vec<Option<Cached<cfg::Preds>>>,
    doms: Vec<Option<Cached<DomTree>>>,
    live: Vec<Option<Cached<Liveness>>>,
    callgraph: Option<Cached<CallGraph>>,
    stats: CacheStats,
    /// When false every query recomputes (for measuring the cache win).
    caching: bool,
}

impl AnalysisManager {
    pub fn new() -> AnalysisManager {
        AnalysisManager {
            caching: true,
            ..AnalysisManager::default()
        }
    }

    /// Disable/enable caching (stats still collected); used by the compile
    /// profiler to measure the speedup caching buys.
    pub fn set_caching(&mut self, on: bool) {
        self.caching = on;
        if !on {
            self.preds.iter_mut().for_each(|c| *c = None);
            self.doms.iter_mut().for_each(|c| *c = None);
            self.live.iter_mut().for_each(|c| *c = None);
            self.callgraph = None;
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Grow the per-function tables to the module's function count (new
    /// functions start at epoch 0 with empty caches).
    fn ensure(&mut self, m: &Module) {
        let n = m.funcs.len();
        if self.func_epoch.len() < n {
            self.func_epoch.resize(n, 0);
            self.preds.resize_with(n, || None);
            self.doms.resize_with(n, || None);
            self.live.resize_with(n, || None);
        }
    }

    /// CFG predecessor lists of function `f` (cached).
    pub fn predecessors(&mut self, m: &Module, f: u32) -> Rc<cfg::Preds> {
        self.ensure(m);
        let epoch = self.func_epoch[f as usize];
        let slot = &mut self.preds[f as usize];
        if let Some(c) = slot {
            if c.epoch == epoch {
                self.stats.hits[kind_index(AnalysisKind::Cfg)] += 1;
                return Rc::clone(&c.value);
            }
        }
        self.stats.misses[kind_index(AnalysisKind::Cfg)] += 1;
        let value = Rc::new(cfg::predecessors(&m.funcs[f as usize]));
        if self.caching {
            *slot = Some(Cached { epoch, value: Rc::clone(&value) });
        }
        value
    }

    /// Dominator tree of function `f` (cached).
    pub fn dominators(&mut self, m: &Module, f: u32) -> Rc<DomTree> {
        self.ensure(m);
        let epoch = self.func_epoch[f as usize];
        let slot = &mut self.doms[f as usize];
        if let Some(c) = slot {
            if c.epoch == epoch {
                self.stats.hits[kind_index(AnalysisKind::Dominators)] += 1;
                return Rc::clone(&c.value);
            }
        }
        self.stats.misses[kind_index(AnalysisKind::Dominators)] += 1;
        let value = Rc::new(DomTree::compute(&m.funcs[f as usize]));
        if self.caching {
            *slot = Some(Cached { epoch, value: Rc::clone(&value) });
        }
        value
    }

    /// Liveness of function `f` (cached).
    pub fn liveness(&mut self, m: &Module, f: u32) -> Rc<Liveness> {
        self.ensure(m);
        let epoch = self.func_epoch[f as usize];
        let slot = &mut self.live[f as usize];
        if let Some(c) = slot {
            if c.epoch == epoch {
                self.stats.hits[kind_index(AnalysisKind::Liveness)] += 1;
                return Rc::clone(&c.value);
            }
        }
        self.stats.misses[kind_index(AnalysisKind::Liveness)] += 1;
        let value = Rc::new(liveness::compute(&m.funcs[f as usize]));
        if self.caching {
            *slot = Some(Cached { epoch, value: Rc::clone(&value) });
        }
        value
    }

    /// Module call graph (cached at module granularity).
    pub fn callgraph(&mut self, m: &Module) -> Rc<CallGraph> {
        self.ensure(m);
        if let Some(c) = &self.callgraph {
            if c.epoch == self.module_epoch {
                self.stats.hits[kind_index(AnalysisKind::CallGraph)] += 1;
                return Rc::clone(&c.value);
            }
        }
        self.stats.misses[kind_index(AnalysisKind::CallGraph)] += 1;
        let value = Rc::new(CallGraph::build(m));
        if self.caching {
            self.callgraph = Some(Cached {
                epoch: self.module_epoch,
                value: Rc::clone(&value),
            });
        }
        value
    }

    /// Record that a pass mutated `touched` functions while preserving the
    /// analyses in `preserved`: bump the touched functions' epochs, drop
    /// their non-preserved caches, and re-stamp preserved ones so they keep
    /// hitting at the new epoch.
    pub fn invalidate(&mut self, m: &Module, touched: &Touched, preserved: &PreservedAnalyses) {
        self.ensure(m);
        let idxs: Vec<usize> = match touched {
            Touched::None => return,
            Touched::Funcs(fs) => fs.iter().map(|&f| f as usize).collect(),
            Touched::All => (0..self.func_epoch.len()).collect(),
        };
        for &i in &idxs {
            if i >= self.func_epoch.len() {
                continue;
            }
            self.func_epoch[i] += 1;
            let epoch = self.func_epoch[i];
            restamp(&mut self.preds[i], epoch, preserved.preserves(AnalysisKind::Cfg));
            restamp(&mut self.doms[i], epoch, preserved.preserves(AnalysisKind::Dominators));
            restamp(&mut self.live[i], epoch, preserved.preserves(AnalysisKind::Liveness));
        }
        // Any body change invalidates the module-level view unless the pass
        // promised the call structure survived.
        self.module_epoch += 1;
        restamp(
            &mut self.callgraph,
            self.module_epoch,
            preserved.preserves(AnalysisKind::CallGraph),
        );
    }
}

/// Keep a cached entry alive at `epoch` when preserved, drop it otherwise.
fn restamp<T>(slot: &mut Option<Cached<T>>, epoch: u64, preserved: bool) {
    match slot {
        Some(c) if preserved => c.epoch = epoch,
        _ => *slot = None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncBuilder, Operand, Ty};

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
        let mut am = AnalysisManager::new();
        let d1 = am.dominators(&m, 0);
        let d2 = am.dominators(&m, 0);
        assert!(Rc::ptr_eq(&d1, &d2));
        assert_eq!(am.stats().hits_of(AnalysisKind::Dominators), 1);
        assert_eq!(am.stats().misses_of(AnalysisKind::Dominators), 1);
    }

    #[test]
    fn invalidation_drops_unpreserved_and_keeps_preserved() {
        let m = tiny_module();
        let mut am = AnalysisManager::new();
        am.dominators(&m, 0);
        am.liveness(&m, 0);
        // A barrier-deleting pass: dominators survive, liveness does not.
        let pa = PreservedAnalyses::none().preserve(AnalysisKind::Dominators);
        am.invalidate(&m, &Touched::Funcs(vec![0]), &pa);
        am.dominators(&m, 0);
        am.liveness(&m, 0);
        assert_eq!(am.stats().hits_of(AnalysisKind::Dominators), 1);
        assert_eq!(am.stats().misses_of(AnalysisKind::Liveness), 2);
    }

    #[test]
    fn untouched_functions_keep_caches() {
        let mut m = tiny_module();
        let mut b = FuncBuilder::new("g", vec![], Some(Ty::I64));
        let v = b.add(Operand::i64(2), Operand::i64(3));
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut am = AnalysisManager::new();
        am.dominators(&m, 0);
        am.dominators(&m, 1);
        am.invalidate(&m, &Touched::Funcs(vec![1]), &PreservedAnalyses::none());
        am.dominators(&m, 0); // hit: untouched
        am.dominators(&m, 1); // miss: invalidated
        assert_eq!(am.stats().hits_of(AnalysisKind::Dominators), 1);
        assert_eq!(am.stats().misses_of(AnalysisKind::Dominators), 3);
    }

    #[test]
    fn callgraph_restamps_when_preserved() {
        let m = tiny_module();
        let mut am = AnalysisManager::new();
        am.callgraph(&m);
        let pa = PreservedAnalyses::none().preserve(AnalysisKind::CallGraph);
        am.invalidate(&m, &Touched::All, &pa);
        am.callgraph(&m);
        assert_eq!(am.stats().hits_of(AnalysisKind::CallGraph), 1);
        am.invalidate(&m, &Touched::All, &PreservedAnalyses::none());
        am.callgraph(&m);
        assert_eq!(am.stats().misses_of(AnalysisKind::CallGraph), 2);
    }

    #[test]
    fn disabled_caching_always_recomputes() {
        let m = tiny_module();
        let mut am = AnalysisManager::new();
        am.set_caching(false);
        am.dominators(&m, 0);
        am.dominators(&m, 0);
        assert_eq!(am.stats().hits_of(AnalysisKind::Dominators), 0);
        assert_eq!(am.stats().misses_of(AnalysisKind::Dominators), 2);
    }
}
