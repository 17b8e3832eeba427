//! Unit tests for individual optimization passes on hand-crafted IR.
//! One run setting suffices: these pin pass output.

use nzomp_ir::inst::{Inst, Intrinsic};
use nzomp_ir::{ExecMode, FuncBuilder, Function, Global, Init, Module, Operand, Pred, Space, Ty};
use nzomp_opt::{barrier, fold, globalize, inline, prune, simplify, Analyses, Remarks};
use nzomp_opt::{optimize_module, PassOptions};

fn count_insts(f: &Function, pred: impl Fn(&Inst) -> bool) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|&&i| pred(f.inst(i)))
        .count()
}

fn count_in_module(m: &Module, pred: impl Fn(&Inst) -> bool + Copy) -> usize {
    m.funcs
        .iter()
        .filter(|f| !f.is_declaration())
        .map(|f| count_insts(f, pred))
        .sum()
}

fn kernel_module(b: FuncBuilder) -> Module {
    let mut m = Module::new("t");
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

// ---------------------------------------------------------------------------
// simplify
// ---------------------------------------------------------------------------

#[test]
fn simplify_folds_constants_and_identities() {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    let x = b.add(Operand::i64(2), Operand::i64(3)); // 5 (const)
    let y = b.mul(x, Operand::i64(4)); // 20 (const)
    let id = b.add(b.param(1), Operand::i64(0)); // identity -> param
    let z = b.add(y, id);
    b.store(Ty::I64, b.param(0), z);
    b.ret(None);
    let mut m = kernel_module(b);
    simplify::run(&mut m);
    let f = &m.funcs[0];
    // Only the final add and the store remain.
    assert_eq!(count_insts(f, |i| matches!(i, Inst::Bin { .. })), 1);
    nzomp_ir::verify_module(&m).unwrap();
}

#[test]
fn simplify_folds_constant_branches_and_merges_blocks() {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let t = b.new_block();
    let e = b.new_block();
    let done = b.new_block();
    b.cond_br(Operand::TRUE, t, e);
    b.switch_to(t);
    b.store(Ty::I64, b.param(0), Operand::i64(1));
    b.br(done);
    b.switch_to(e);
    b.store(Ty::I64, b.param(0), Operand::i64(2));
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    let mut m = kernel_module(b);
    simplify::run(&mut m);
    let f = &m.funcs[0];
    // Everything merged into the entry block; dead branch gone.
    let reach = nzomp_ir::analysis::cfg::reachable(f);
    assert_eq!(reach.iter().filter(|&&r| r).count(), 1);
    assert_eq!(count_insts(f, |i| matches!(i, Inst::Store { .. })), 1);
}

#[test]
fn simplify_reads_constant_globals() {
    let mut m = Module::new("t");
    let g = m.add_global(Global::constant("flag", Space::Constant, 8, Init::I64(42)));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = b.load(Ty::I64, Operand::Global(g));
    let w = b.add(v, Operand::i64(1));
    b.store(Ty::I64, b.param(0), w);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    simplify::run(&mut m);
    let f = &m.funcs[0];
    assert_eq!(count_insts(f, |i| matches!(i, Inst::Load { .. })), 0);
    // 43 stored directly.
    let has43 = f.blocks.iter().flat_map(|b| &b.insts).any(|&i| {
        matches!(f.inst(i), Inst::Store { value: Operand::ConstI(43, _), .. })
    });
    assert!(has43);
}

#[test]
fn dce_removes_unused_loads_but_keeps_stores() {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let _dead = b.load(Ty::I64, b.param(0));
    b.store(Ty::I64, b.param(0), Operand::i64(1));
    b.ret(None);
    let mut m = kernel_module(b);
    simplify::run(&mut m);
    let f = &m.funcs[0];
    assert_eq!(count_insts(f, |i| matches!(i, Inst::Load { .. })), 0);
    assert_eq!(count_insts(f, |i| matches!(i, Inst::Store { .. })), 1);
}

/// `depth` branches, each on a value only the previous level's fold makes
/// constant: level `i` tests `v == i`, joins, and its phi yields `i + 1` on
/// the taken side. One simplify round peels exactly one level. The kernel
/// stores the last level's value.
fn branch_cascade(depth: i64) -> Module {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let mut v = Operand::i64(0);
    for level in 0..depth {
        let (taken, skipped, join) = (b.new_block(), b.new_block(), b.new_block());
        let hit = b.icmp_eq(v, Operand::i64(level));
        b.cond_br(hit, taken, skipped);
        b.switch_to(taken);
        b.br(join);
        b.switch_to(skipped);
        b.br(join);
        b.switch_to(join);
        v = b.phi(Ty::I64, vec![(taken, Operand::i64(level + 1)), (skipped, Operand::i64(-1))]);
    }
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    kernel_module(b)
}

#[test]
fn simplify_reports_running_out_of_rounds_and_the_pipeline_finishes_the_cascade() {
    use simplify::Simplified;
    let opts = PassOptions::full();
    // Deeper than one call's round budget: the first call says so, the
    // next one resumes and converges, and then there is nothing left.
    let mut m = branch_cascade(24);
    nzomp_ir::verify_module(&m).unwrap();
    let mut verdicts = Vec::new();
    for _ in 0..3 {
        let Module { funcs, globals, .. } = &mut m;
        verdicts.push(simplify::simplify_function(&mut funcs[0], globals));
    }
    assert_eq!(verdicts, [Simplified::OutOfRounds, Simplified::Converged, Simplified::Unchanged]);
    let folded = |m: &Module, want: i64| {
        let f = &m.funcs[0];
        let live: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).map(|&i| f.inst(i)).collect();
        assert!(
            matches!(live[..], [Inst::Store { value: Operand::ConstI(v, _), .. }] if *v == want),
            "{live:?}"
        );
        assert_eq!(f.blocks[0].term, nzomp_ir::Term::Ret(None));
    };
    folded(&m, 24);

    // The pipeline gets there through its fixpoint groups, and to the very
    // IR a cascade that fits in one call's budget gets to.
    let mut deep = branch_cascade(24);
    optimize_module(&mut deep, &opts);
    nzomp_ir::verify_module(&deep).unwrap();
    folded(&deep, 24);
    deep.renumber();
    m.renumber();
    let live_blocks = |m: &Module| -> Vec<nzomp_ir::Block> {
        m.funcs[0].blocks.iter().filter(|b| !b.insts.is_empty()).cloned().collect()
    };
    assert_eq!(live_blocks(&deep), live_blocks(&m));
    assert_eq!(deep.funcs[0].insts, m.funcs[0].insts);
    let mut shallow = branch_cascade(3);
    optimize_module(&mut shallow, &opts);
    folded(&shallow, 3);
    assert_eq!(live_blocks(&shallow).len(), live_blocks(&deep).len());
}

// ---------------------------------------------------------------------------
// inline
// ---------------------------------------------------------------------------

#[test]
fn inliner_respects_attributes() {
    let mut m = Module::new("t");
    let mut cb = FuncBuilder::new("always", vec![Ty::I64], Some(Ty::I64));
    cb.attrs_mut().always_inline = true;
    let v = cb.mul(cb.param(0), Operand::i64(3));
    cb.ret(Some(v));
    let always = m.add_function(cb.finish());

    let mut cb = FuncBuilder::new("never", vec![Ty::I64], Some(Ty::I64));
    cb.attrs_mut().no_inline = true;
    let v = cb.mul(cb.param(0), Operand::i64(5));
    cb.ret(Some(v));
    let never = m.add_function(cb.finish());

    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let a = b.call(Operand::Func(always), vec![Operand::i64(2)], Some(Ty::I64)).unwrap();
    let c = b.call(Operand::Func(never), vec![a], Some(Ty::I64)).unwrap();
    b.store(Ty::I64, b.param(0), c);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);

    inline::run(&mut m);
    nzomp_ir::verify_module(&m).unwrap();
    let kf = &m.funcs[k.index()];
    let calls: Vec<&Inst> = kf
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .map(|&i| kf.inst(i))
        .filter(|i| matches!(i, Inst::Call { .. }))
        .collect();
    assert_eq!(calls.len(), 1, "only the no_inline call remains");
}

#[test]
fn inliner_skips_recursion() {
    let mut m = Module::new("t");
    let rec_ref = nzomp_ir::module::FuncRef(0);
    let mut cb = FuncBuilder::new("rec", vec![Ty::I64], Some(Ty::I64));
    let n = cb.param(0);
    let stop = cb.icmp_slt(n, Operand::i64(1));
    let base = cb.new_block();
    let again = cb.new_block();
    cb.cond_br(stop, base, again);
    cb.switch_to(base);
    cb.ret(Some(Operand::i64(0)));
    cb.switch_to(again);
    let n1 = cb.sub(n, Operand::i64(1));
    let r = cb.call(Operand::Func(rec_ref), vec![n1], Some(Ty::I64)).unwrap();
    let s = cb.add(r, Operand::i64(1));
    cb.ret(Some(s));
    let rec = m.add_function(cb.finish());
    assert_eq!(rec, rec_ref);
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = b.call(Operand::Func(rec), vec![Operand::i64(5)], Some(Ty::I64)).unwrap();
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    inline::run(&mut m);
    nzomp_ir::verify_module(&m).unwrap();
    // The recursive function still exists and is still recursive.
    assert!(count_insts(&m.funcs[rec.index()], |i| matches!(i, Inst::Call { .. })) >= 1);
}

#[test]
fn inlined_results_and_correctness() {
    // Build, inline, and execute to prove semantic preservation.
    let mut m = Module::new("t");
    let mut cb = FuncBuilder::new("clamp", vec![Ty::I64], Some(Ty::I64));
    let n = cb.param(0);
    let neg = cb.icmp_slt(n, Operand::i64(0));
    let a = cb.new_block();
    let bblk = cb.new_block();
    cb.cond_br(neg, a, bblk);
    cb.switch_to(a);
    cb.ret(Some(Operand::i64(0)));
    cb.switch_to(bblk);
    cb.ret(Some(n));
    let clamp = m.add_function(cb.finish());
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    let v = b.call(Operand::Func(clamp), vec![b.param(1)], Some(Ty::I64)).unwrap();
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    inline::run(&mut m);
    simplify::run(&mut m);
    nzomp_ir::verify_module(&m).unwrap();
    assert_eq!(count_in_module(&m, |i| matches!(i, Inst::Call { .. })), 0);

    use nzomp_vgpu::{device::Launch, Device, DeviceConfig, RtVal};
    for (input, expect) in [(-5i64, 0i64), (7, 7)] {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        let out = dev.alloc(8);
        dev.launch("k", Launch::new(1, 1), &[RtVal::P(out), RtVal::I(input)])
            .unwrap();
        assert_eq!(dev.read_i64(out, 1).unwrap()[0], expect);
    }
}

// ---------------------------------------------------------------------------
// barrier elimination
// ---------------------------------------------------------------------------

fn barrier_count(m: &Module) -> usize {
    count_in_module(m, |i| {
        matches!(
            i,
            Inst::Intr {
                intr: Intrinsic::AlignedBarrier,
                ..
            }
        )
    })
}

#[test]
fn barrier_elim_removes_consecutive_aligned() {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.store(Ty::I64, b.param(0), Operand::i64(1)); // blocks the entry barrier
    b.aligned_barrier();
    let _v = b.load(Ty::I64, b.param(0)); // loads do not block
    b.aligned_barrier();
    b.store(Ty::I64, b.param(0), Operand::i64(2));
    b.ret(None);
    let mut m = kernel_module(b);
    let mut r = Remarks::default();
    barrier::run(&mut m, &PassOptions::full(), &mut r);
    assert_eq!(barrier_count(&m), 1);
}

#[test]
fn barrier_elim_uses_kernel_entry_and_exit() {
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.aligned_barrier(); // redundant with kernel entry
    b.store(Ty::I64, b.param(0), Operand::i64(1));
    b.aligned_barrier(); // redundant with kernel exit
    b.ret(None);
    let mut m = kernel_module(b);
    let mut r = Remarks::default();
    barrier::run(&mut m, &PassOptions::full(), &mut r);
    assert_eq!(barrier_count(&m), 0);
}

#[test]
fn barrier_elim_keeps_barriers_separating_shared_stores() {
    let mut m = Module::new("t");
    let g = m.add_global(Global::new("s", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![], None);
    b.store(Ty::I64, Operand::Global(g), Operand::i64(1));
    b.aligned_barrier();
    b.store(Ty::I64, Operand::Global(g), Operand::i64(2));
    b.aligned_barrier();
    b.store(Ty::I64, Operand::Global(g), Operand::i64(3));
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut r = Remarks::default();
    barrier::run(&mut m, &PassOptions::full(), &mut r);
    assert_eq!(barrier_count(&m), 2, "shared stores pin both barriers");
}

#[test]
fn barrier_elim_ignores_thread_local_stores() {
    let mut b = FuncBuilder::new("k", vec![], None);
    let slot = b.alloca(8);
    b.aligned_barrier();
    b.store(Ty::I64, slot, Operand::i64(1)); // private: not observable
    b.aligned_barrier();
    b.ret(None);
    let mut m = kernel_module(b);
    let mut r = Remarks::default();
    barrier::run(&mut m, &PassOptions::full(), &mut r);
    assert_eq!(barrier_count(&m), 0);
}

#[test]
fn barrier_elim_never_touches_unaligned() {
    let mut b = FuncBuilder::new("k", vec![], None);
    b.barrier();
    b.barrier();
    b.ret(None);
    let mut m = kernel_module(b);
    let mut r = Remarks::default();
    barrier::run(&mut m, &PassOptions::full(), &mut r);
    let unaligned = count_in_module(&m, |i| {
        matches!(i, Inst::Intr { intr: Intrinsic::Barrier, .. })
    });
    assert_eq!(unaligned, 2);
}

// ---------------------------------------------------------------------------
// fold (FSAA-driven)
// ---------------------------------------------------------------------------

#[test]
fn fold_zero_initialized_shared_array() {
    // The §IV-B1 thread-states deduction: all writes zero at dynamic
    // offsets -> loads fold to zero.
    let mut m = Module::new("t");
    let g = m.add_global(Global::new("arr", Space::Shared, 64, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let slot = b.gep(Operand::Global(g), tid, 8);
    b.store(Ty::Ptr, slot, Operand::NULL);
    b.aligned_barrier();
    let v = b.load(Ty::Ptr, slot);
    let isnull = b.cmp(Pred::Eq, Ty::Ptr, v, Operand::NULL);
    let r = b.select(Ty::I64, isnull, Operand::i64(1), Operand::i64(0));
    b.store(Ty::I64, b.param(0), r);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    optimize_module(&mut m, &PassOptions::full());
    // The load folded, the select folded to 1, the shared array died.
    assert_eq!(m.shared_memory_bytes(), 0);
    let kf = m.funcs.iter().find(|f| f.name == "k").unwrap();
    let stores_one = kf.blocks.iter().flat_map(|b| &b.insts).any(|&i| {
        matches!(kf.inst(i), Inst::Store { value: Operand::ConstI(1, _), .. })
    });
    assert!(stores_one);
}

#[test]
fn fold_requires_agreeing_values() {
    // Two different constants stored -> no fold, state survives.
    let mut m = Module::new("t");
    let g = m.add_global(Global::new("s", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let v = b.select(Ty::I64, is0, Operand::i64(7), Operand::i64(9));
    b.store(Ty::I64, Operand::Global(g), v);
    b.aligned_barrier();
    let l = b.load(Ty::I64, Operand::Global(g));
    b.store(Ty::I64, b.param(0), l);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    optimize_module(&mut m, &PassOptions::full());
    assert!(m.shared_memory_bytes() > 0, "non-foldable state must stay");
}

#[test]
fn fold_param_through_private_memory() {
    // §IV-B4: function arguments propagate through memory.
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    let slot = b.alloca(8);
    b.store(Ty::I64, slot, b.param(1));
    let v = b.load(Ty::I64, slot);
    let w = b.add(v, Operand::i64(1));
    b.store(Ty::I64, b.param(0), w);
    b.ret(None);
    let mut m = kernel_module(b);
    optimize_module(&mut m, &PassOptions::full());
    let kf = &m.funcs[0];
    assert_eq!(
        count_insts(kf, |i| matches!(i, Inst::Load { .. } | Inst::Alloca { .. })),
        0,
        "the private round-trip should fold entirely:\n{}",
        nzomp_ir::printer::print_function(Some(&m), kf)
    );
}

#[test]
fn fold_respects_escaped_objects() {
    // Address stored to memory -> object escapes -> no folding.
    let mut m = Module::new("t");
    let g = m.add_global(Global::new("s", Space::Shared, 8, Init::Zero));
    let handle = m.add_global(Global::new("handle", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.store(Ty::I64, Operand::Global(g), Operand::i64(5));
    b.store(Ty::Ptr, Operand::Global(handle), Operand::Global(g)); // escape!
    b.aligned_barrier();
    let p = b.load(Ty::Ptr, Operand::Global(handle));
    let v = b.load(Ty::I64, p);
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    let mut r = Remarks::default();
    fold::run(&mut m, &mut Analyses::new(), &PassOptions::full(), &mut r);
    // The escaped object's load must not fold to 5 through FSAA alone.
    let kf = m.funcs.iter().find(|f| f.name == "k").unwrap();
    assert!(count_insts(kf, |i| matches!(i, Inst::Load { .. })) >= 1);
}

// ---------------------------------------------------------------------------
// globalization elimination
// ---------------------------------------------------------------------------

#[test]
fn globalize_demotes_private_buffers_only() {
    use nzomp_rt::abi;
    let mut m = Module::new("t");
    let alloc = nzomp_rt::declare_api(&mut m, abi::ALLOC_SHARED);
    let free = nzomp_rt::declare_api(&mut m, abi::FREE_SHARED);
    let sink = m.add_function(Function::declaration("sink", vec![Ty::Ptr], None));

    // Private: loads/stores + free only -> demoted.
    let mut b = FuncBuilder::new("private", vec![Ty::Ptr], None);
    let p = b.call(Operand::Func(alloc), vec![Operand::i64(16)], Some(Ty::Ptr)).unwrap();
    b.store(Ty::I64, p, Operand::i64(1));
    let v = b.load(Ty::I64, p);
    b.store(Ty::I64, b.param(0), v);
    b.call(Operand::Func(free), vec![p, Operand::i64(16)], None);
    b.ret(None);
    let prv = m.add_function(b.finish());
    m.add_kernel(prv, ExecMode::Spmd);

    // Escaping: pointer passed to an unknown function -> kept.
    let mut b = FuncBuilder::new("escaping", vec![], None);
    let p = b.call(Operand::Func(alloc), vec![Operand::i64(16)], Some(Ty::Ptr)).unwrap();
    b.call(Operand::Func(sink), vec![p], None);
    b.ret(None);
    let esc = m.add_function(b.finish());
    m.add_kernel(esc, ExecMode::Spmd);

    let mut r = Remarks::default();
    globalize::run(&mut m, &PassOptions::full(), &mut r);
    assert!(count_insts(&m.funcs[prv.index()], |i| matches!(i, Inst::Alloca { .. })) == 1);
    assert!(count_insts(&m.funcs[esc.index()], |i| matches!(i, Inst::Call { .. })) >= 2);
    assert!(r
        .entries
        .iter()
        .any(|e| e.message.contains("escapes the allocating thread")));
}

// ---------------------------------------------------------------------------
// prune
// ---------------------------------------------------------------------------

#[test]
fn global_dce_strips_unreachable_functions() {
    let mut m = Module::new("t");
    let mut b = FuncBuilder::new("dead", vec![], None);
    b.ret(None);
    let dead = m.add_function(b.finish());
    let mut b = FuncBuilder::new("k", vec![], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    prune::global_dce(&mut m, &mut Analyses::new());
    assert!(m.funcs[dead.index()].is_declaration());
    assert!(!m.funcs[k.index()].is_declaration());
}

/// A husk keeps no storage: a compiled image is retained by a long-lived
/// service, and each of its stripped runtime functions would otherwise
/// keep its whole block and instruction arenas.
#[test]
fn global_dce_releases_a_husks_storage() {
    let mut m = Module::new("t");
    let mut b = FuncBuilder::new("dead", vec![Ty::I64], None);
    let x = b.add(b.param(0), Operand::i64(1));
    let y = b.mul(x, x);
    let next = b.new_block();
    b.br(next);
    b.switch_to(next);
    b.store(Ty::I64, Operand::NULL, y);
    b.ret(None);
    let dead = m.add_function(b.finish());
    let mut b = FuncBuilder::new("k", vec![], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    assert!(m.funcs[dead.index()].insts.capacity() > 0);
    assert!(prune::global_dce(&mut m, &mut Analyses::new()));
    let husk = &m.funcs[dead.index()];
    assert_eq!((husk.blocks.capacity(), husk.insts.capacity()), (0, 0));
}

#[test]
fn prune_remaps_surviving_global_indices() {
    let mut m = Module::new("t");
    let _dead = m.add_global(Global::new("dead", Space::Shared, 128, Init::Zero));
    let live = m.add_global(Global::new("live", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let v = b.load(Ty::I64, Operand::Global(live));
    b.store(Ty::I64, b.param(0), v);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let mut r = Remarks::default();
    assert!(prune::prune_dead_globals(&mut m, &mut r));
    assert_eq!(m.globals.len(), 1);
    assert_eq!(m.globals[0].name, "live");
    nzomp_ir::verify_module(&m).unwrap();
    assert_eq!(m.shared_memory_bytes(), 8);
}

#[test]
fn drop_assumes_removes_all_assumes() {
    let mut b = FuncBuilder::new("k", vec![Ty::I64], None);
    let c = b.icmp_slt(b.param(0), Operand::i64(100));
    b.assume(c);
    b.ret(None);
    let mut m = kernel_module(b);
    assert!(prune::drop_assumes(&mut m));
    assert_eq!(
        count_in_module(&m, |i| matches!(
            i,
            Inst::Intr {
                intr: Intrinsic::Assume(()),
                ..
            }
        )),
        0
    );
}
