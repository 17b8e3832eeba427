//! Interprocedural conditional value propagation (paper §IV-B): fold loads
//! of runtime state using the field-sensitive access analysis, then kill
//! the stores that no longer have readers.
//!
//! The folding rule implements the paper's machinery with one deliberate
//! simplification: a load folds when **all potentially-interfering writes
//! store the same abstract value** and either (a) the object is
//! zero-initialized and every write stores zero (the thread-states-array
//! rule of §IV-B1), or (b) some non-conditional write *dominates* the load
//! — intra-procedurally through the dominator tree, inter-procedurally
//! through the lifetime-aware scheme of §IV-B2 (every call path into the
//! load's function passes a dominated call site). Because all writes agree
//! on the value, intervening writes never change the answer, which is why
//! kill-analysis is unnecessary.

use std::collections::{HashMap, HashSet};

use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::inst::{Inst, InstId, Intrinsic};
use nzomp_ir::{Module, Operand, Space, Ty};

use crate::analyses::Analyses;
use crate::fsaa::{self, AccessKind, FoldVal, Fsaa, ObjectId};
use crate::remarks::Remarks;
use crate::PassOptions;

/// Call sites per callee, indexed by callee: `(caller, block, pos,
/// is_direct)`; indirect calls recorded under every address-taken function.
/// Built once per folding round (the module is immutable during the
/// decision phase) instead of once per dominance query.
type CallSites = Vec<Vec<(u32, nzomp_ir::BlockId, usize, bool)>>;

fn build_call_sites(module: &Module, cg: &CallGraph) -> CallSites {
    let mut call_sites: CallSites = vec![Vec::new(); module.funcs.len()];
    for (fi, f) in module.funcs.iter().enumerate() {
        for (bid, block) in f.iter_blocks() {
            for (pos, &iid) in block.insts.iter().enumerate() {
                if let Inst::Call { callee, .. } = f.inst(iid) {
                    match callee {
                        Operand::Func(t) => call_sites[t.index()].push((fi as u32, bid, pos, true)),
                        _ => {
                            for at in &cg.address_taken_list {
                                call_sites[at.index()].push((fi as u32, bid, pos, false));
                            }
                        }
                    }
                }
            }
        }
    }
    call_sites
}

/// Run one folding + DSE round. Returns true if anything changed.
/// Dominators and the call graph are asked of `memo` lazily (only
/// functions with fold candidates pay for them).
pub fn run(
    module: &mut Module,
    memo: &mut Analyses,
    opts: &PassOptions,
    remarks: &mut Remarks,
) -> bool {
    let mut analysis = fsaa::build(module, opts.assumed_content, opts.invariant_prop);
    let folded = fold_loads(module, opts, &analysis, memo, remarks);
    if folded {
        // Folding changed function bodies; what DSE reads must see them.
        analysis = fsaa::build(module, opts.assumed_content, opts.invariant_prop);
    }
    dead_store_elim(module, &analysis, remarks) | folded
}

// ---------------------------------------------------------------------------
// load folding
// ---------------------------------------------------------------------------

struct LoadSite {
    func: u32,
    block: nzomp_ir::BlockId,
    pos: usize,
    inst: InstId,
    ty: Ty,
    obj: ObjectId,
    offset: Option<u64>,
}

fn fold_loads(
    module: &mut Module,
    opts: &PassOptions,
    analysis: &Fsaa,
    memo: &mut Analyses,
    remarks: &mut Remarks,
) -> bool {
    let cg = memo.callgraph(module);
    // Built lazily by the first inter-procedural dominance query, then
    // shared by every site in this round.
    let mut call_sites: Option<CallSites> = None;
    // Collect fold candidates: loads recorded as single-object reads.
    let mut sites: Vec<LoadSite> = Vec::new();
    for (obj, info) in &analysis.objects {
        for a in &info.accesses {
            if a.kind == AccessKind::Read && !a.maybe {
                let f = &module.funcs[a.func as usize];
                if let Inst::Load { ty, .. } = f.inst(a.inst) {
                    sites.push(LoadSite {
                        func: a.func,
                        block: a.block,
                        pos: a.pos,
                        inst: a.inst,
                        ty: *ty,
                        obj: *obj,
                        offset: a.offset,
                    });
                }
            }
        }
    }

    // Per-function replacement maps (constants) and in-place rewrites
    // (rematerialized intrinsics).
    let mut const_repl: HashMap<u32, Vec<Option<Operand>>> = HashMap::new();
    let mut replace = |site: &LoadSite, op: Operand| {
        let arena = module.funcs[site.func as usize].insts.len();
        const_repl.entry(site.func).or_insert_with(|| vec![None; arena])[site.inst.index()] =
            Some(op);
    };
    let mut remat: Vec<(u32, InstId, Intrinsic)> = Vec::new();

    for site in &sites {
        let Some(val) = fold_load(site, opts, analysis, memo, &cg, &mut call_sites, module)
        else {
            continue;
        };
        let fname = module.funcs[site.func as usize].name.clone();
        match val {
            FoldVal::Int(v, _) => {
                let op = if site.ty == Ty::Ptr {
                    Operand::ConstI(v, Ty::Ptr)
                } else {
                    Operand::ConstI(v, site.ty)
                };
                replace(site, op);
                remarks.passed(
                    "openmp-opt",
                    &fname,
                    format!("folded load of {:?} to constant {v}", site.obj),
                );
            }
            FoldVal::Float(v) => replace(site, Operand::ConstF(v)),
            FoldVal::Func(fr) => {
                replace(site, Operand::Func(nzomp_ir::module::FuncRef(fr)));
                remarks.passed(
                    "openmp-opt",
                    &fname,
                    format!("folded load of {:?} to function pointer", site.obj),
                );
            }
            FoldVal::BlockDim => remat.push((site.func, site.inst, Intrinsic::BlockDim)),
            FoldVal::GridDim => remat.push((site.func, site.inst, Intrinsic::GridDim)),
            FoldVal::Param(p) => replace(site, Operand::Param(p)),
            FoldVal::Bottom => {}
        }
    }

    let mut changed = false;
    for (fidx, map) in &const_repl {
        crate::simplify::apply_replacements(&mut module.funcs[*fidx as usize], map);
        // The folded loads become dead; DCE in simplify removes them.
        changed = true;
    }
    for (fidx, iid, intr) in remat {
        // Replace the load in place: the result id keeps its uses.
        module.funcs[fidx as usize].insts[iid.index()] = Inst::Intr {
            intr,
            args: vec![],
        };
        changed = true;
    }
    changed
}

/// Decide what `site` folds to, if anything.
fn fold_load(
    site: &LoadSite,
    opts: &PassOptions,
    analysis: &Fsaa,
    memo: &mut Analyses,
    cg: &CallGraph,
    call_sites: &mut Option<CallSites>,
    module: &Module,
) -> Option<FoldVal> {
    let info = analysis.objects.get(&site.obj)?;
    if info.escaped {
        return None;
    }
    // Host-visible global-space objects can be written by the host between
    // launches; only their zero-init + never-written case is foldable, and
    // that is risky — skip them entirely.
    if info.space == Some(Space::Global) {
        return None;
    }
    // Constant-space objects fold in plain constant folding.
    if info.space == Some(Space::Constant) {
        return None;
    }

    let writes: Vec<_> = info
        .accesses
        .iter()
        .filter(|a| a.kind != AccessKind::Read)
        .collect();

    // Rule (a): zero-initialized object, all writes store zero.
    let zero_ok = info.zero_init
        && matches!(site.obj, ObjectId::Global(_))
        && !writes.is_empty()
        && writes
            .iter()
            .all(|w| w.kind != AccessKind::Rmw && w.value.map(|v| v.is_zero()).unwrap_or(false));
    let zero_ok = zero_ok || (info.zero_init && matches!(site.obj, ObjectId::Global(_)) && writes.is_empty());
    if zero_ok {
        return Some(FoldVal::Int(0, site.ty));
    }

    // Rule (b): all interfering writes agree on one value and one of them
    // dominates the load.
    let off = site.offset?;
    if writes.iter().any(|w| w.kind == AccessKind::Rmw) {
        return None;
    }
    let mut val: Option<FoldVal> = None;
    let mut interfering: Vec<&fsaa::Access> = Vec::new();
    for w in &writes {
        match w.offset {
            Some(woff) => {
                let disjoint = woff + w.size <= off || off + site.ty.size() <= woff;
                if disjoint {
                    continue; // filtered: cannot affect this load (§IV-B1)
                }
                let exact = woff == off && w.size == site.ty.size();
                if !exact {
                    return None; // partial overlap: give up
                }
            }
            None => return None, // unknown offset, non-zero value
        }
        interfering.push(w);
        let v = w.value.unwrap_or(FoldVal::Bottom);
        if v == FoldVal::Bottom {
            return None;
        }
        // Param values only make sense within one function.
        if matches!(v, FoldVal::Param(_)) && w.func != site.func {
            return None;
        }
        match val {
            None => val = Some(v),
            Some(cur) if cur == v => {}
            _ => return None,
        }
    }
    let val = val?;

    // Zero-initialized memory means a load can observe the initial zeros
    // unless a write dominates it (or the agreed value IS zero).
    let needs_dom = !(val.is_zero() && info.zero_init);
    if needs_dom {
        let dominated = interfering.iter().any(|w| {
            if w.maybe && w.kind != AccessKind::AssumeEq {
                return false; // conditional-pointer write: not a definition
            }
            // §IV-C gating: using a *real* store as a dominating definition
            // of shared state requires the aligned-execution reasoning
            // (other threads could interleave otherwise). Assume-derived
            // pseudo-writes hold by fiat of the `assume`.
            if w.kind == AccessKind::Write
                && info.space == Some(Space::Shared)
                && !opts.aligned_exec
            {
                return false;
            }
            dominates(w, site, memo, cg, call_sites, module, opts)
        });
        if !dominated {
            return None;
        }
    }
    Some(val)
}

/// Does write `w` dominate the load `site`? Intra-procedural via the
/// dominator tree; inter-procedural via the lifetime-aware scheme (§IV-B2).
fn dominates(
    w: &fsaa::Access,
    site: &LoadSite,
    memo: &mut Analyses,
    cg: &CallGraph,
    call_sites: &mut Option<CallSites>,
    module: &Module,
    opts: &PassOptions,
) -> bool {
    if w.func == site.func {
        if w.block == site.block {
            return w.pos < site.pos;
        }
        return memo.dominators(module, w.func).dominates(w.block, site.block);
    }
    if !opts.reach_dom {
        return false;
    }
    // Inter-procedural: every call path into site.func must pass through a
    // call site dominated by the write. Fixpoint over "fully dominated"
    // functions.
    let wf = w.func;
    let dt = memo.dominators(module, wf);
    // Program points in w.func dominated by w.
    let point_dominated = |func: u32, block: nzomp_ir::BlockId, pos: usize| -> bool {
        if func == wf {
            if block == w.block {
                return w.pos < pos;
            }
            return dt.dominates(w.block, block);
        }
        false
    };

    let call_sites = call_sites.get_or_insert_with(|| build_call_sites(module, cg));

    // Iterate: F is fully dominated if every call site of F is at a
    // dominated point (in w.func past w, or inside a fully dominated fn).
    let mut fully = vec![false; module.funcs.len()];
    // Kernels other than w.func can never be dominated (they are entries).
    let mut kernel_funcs = vec![false; module.funcs.len()];
    for k in &module.kernels {
        kernel_funcs[k.func.index()] = true;
    }
    loop {
        let mut grew = false;
        for (fi, sites) in call_sites.iter().enumerate() {
            // A function never called is irrelevant.
            if fully[fi] || fi as u32 == wf || kernel_funcs[fi] || sites.is_empty() {
                continue;
            }
            let all_dom = sites.iter().all(|(caller, block, pos, _direct)| {
                fully[*caller as usize] || point_dominated(*caller, *block, *pos)
            });
            if all_dom {
                fully[fi] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    fully[site.func as usize]
}

// ---------------------------------------------------------------------------
// dead store elimination / state death
// ---------------------------------------------------------------------------

/// Remove stores and RMWs into objects that no longer have any readers —
/// after the ICV loads fold away, the runtime's initialization stores are
/// dead and, once they are gone, the state itself can be pruned.
fn dead_store_elim(module: &mut Module, analysis: &Fsaa, remarks: &mut Remarks) -> bool {
    // Candidate dead objects: analyzable, not escaped, no reads, no
    // assume-pseudo-writes left (assumes still *read* the value in debug),
    // and not host-visible (shared memory and allocas die with the kernel).
    let mut dead: HashSet<ObjectId> = HashSet::new();
    for (obj, info) in &analysis.objects {
        let host_visible = matches!(info.space, Some(Space::Global) | Some(Space::Constant));
        if info.escaped || host_visible {
            continue;
        }
        if let ObjectId::Global(g) = obj {
            if module.globals[*g as usize].space != Space::Shared {
                continue;
            }
        }
        let has_reader = info.accesses.iter().any(|a| {
            a.kind == AccessKind::Read
                || a.kind == AccessKind::AssumeEq
                || (a.kind == AccessKind::Rmw && rmw_result_used(module, a))
        });
        if !has_reader {
            dead.insert(*obj);
        }
    }
    if dead.is_empty() {
        return false;
    }

    // A write is removable only if *every* object it may touch is dead and
    // it has no unknown targets (maybe-writes to dead+live mixes stay).
    let mut removable: HashMap<u32, HashSet<InstId>> = HashMap::new();
    let mut blocked: HashSet<(u32, u32)> = HashSet::new(); // (func, inst) touching live objects
    for (obj, info) in &analysis.objects {
        let obj_dead = dead.contains(obj);
        for a in &info.accesses {
            if a.kind == AccessKind::Read || a.kind == AccessKind::AssumeEq {
                continue;
            }
            if obj_dead {
                removable.entry(a.func).or_default().insert(a.inst);
            } else {
                blocked.insert((a.func, a.inst.0));
            }
        }
    }

    let mut changed = false;
    for (fidx, insts) in removable {
        let f = &mut module.funcs[fidx as usize];
        let before: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        for block in &mut f.blocks {
            block.insts.retain(|i| {
                let is_removable_store =
                    insts.contains(i) && !blocked.contains(&(fidx, i.0));
                // RMWs whose result is used must stay even if the object is
                // dead (shouldn't happen given the reader check, but be safe).
                !is_removable_store
            });
        }
        let after: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        if after != before {
            changed = true;
            remarks.passed(
                "openmp-opt",
                &module.funcs[fidx as usize].name.clone(),
                format!("removed {} dead runtime-state write(s)", before - after),
            );
        }
    }
    changed
}

fn rmw_result_used(module: &Module, a: &fsaa::Access) -> bool {
    let f = &module.funcs[a.func as usize];
    let target = Operand::Inst(a.inst);
    let mut used = false;
    for block in &f.blocks {
        for &iid in &block.insts {
            f.inst(iid).for_each_operand(|op| used |= op == target);
        }
        block.term.for_each_operand(|op| used |= op == target);
        if used {
            break;
        }
    }
    used
}
