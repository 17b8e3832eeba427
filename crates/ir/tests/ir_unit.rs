//! Unit tests for the IR crate: types, builder, printer, verifier, linker
//! and analyses.

use nzomp_ir::analysis::{callgraph::CallGraph, cfg, dom::DomTree, liveness};
use nzomp_ir::builder::build_counted_loop;
use nzomp_ir::link::{link, LinkError};
use nzomp_ir::printer::{print_function, print_module};
use nzomp_ir::{
    AtomicOp, BinOp, BlockId, ExecMode, FuncBuilder, Function, Global, Init, Module, Operand, Pred, Space,
    Term, Ty, VerifyError,
};

// ---------------------------------------------------------------------------
// types / operands
// ---------------------------------------------------------------------------

#[test]
fn type_sizes() {
    assert_eq!(Ty::I1.size(), 1);
    assert_eq!(Ty::I8.size(), 1);
    assert_eq!(Ty::I32.size(), 4);
    assert_eq!(Ty::I64.size(), 8);
    assert_eq!(Ty::F64.size(), 8);
    assert_eq!(Ty::Ptr.size(), 8);
}

#[test]
fn operand_constants() {
    assert_eq!(Operand::i64(5).as_const_int(), Some(5));
    assert_eq!(Operand::f64(2.5).as_const_f64(), Some(2.5));
    assert_eq!(Operand::TRUE.as_const_int(), Some(1));
    assert!(Operand::NULL.is_constant());
    assert!(!Operand::Param(0).is_constant());
}

#[test]
fn init_read_int() {
    let i = Init::I64(0x1122334455667788);
    assert_eq!(i.read_int(0, 8), 0x1122334455667788);
    assert_eq!(i.read_int(0, 4), 0x55667788);
    assert_eq!(i.read_int(4, 4), 0x11223344);
    assert_eq!(Init::Zero.read_int(3, 8), 0);
    let b = Init::Bytes(vec![1, 2, 3]);
    assert_eq!(b.read_int(0, 1), 1);
    assert_eq!(b.read_int(2, 4), 3); // out-of-init bytes read as zero
}

// ---------------------------------------------------------------------------
// builder
// ---------------------------------------------------------------------------

#[test]
fn builder_allocas_go_to_entry() {
    let mut b = FuncBuilder::new("f", vec![], None);
    let bb = b.new_block();
    b.br(bb);
    b.switch_to(bb);
    let _a = b.alloca(16);
    b.ret(None);
    let f = b.finish();
    // Alloca listed in the entry block, not bb.
    let entry_first = f.block(BlockId::ENTRY).insts[0];
    assert!(matches!(f.inst(entry_first), nzomp_ir::Inst::Alloca { size: 16 }));
}

#[test]
fn builder_phis_stay_at_block_start() {
    let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I64));
    let entry = b.current_block();
    let next = b.new_block();
    b.br(next);
    b.switch_to(next);
    let x = b.add(b.param(0), Operand::i64(1));
    let p = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let y = b.add(p, x);
    b.ret(Some(y));
    let f = b.finish();
    let first = f.block(next).insts[0];
    assert!(f.inst(first).is_phi());
    nzomp_ir::verify_function(&f, None).unwrap();
}

#[test]
fn counted_loop_covers_range() {
    // Structure check: loop with trip count 0 never enters the body.
    let mut b = FuncBuilder::new("f", vec![], None);
    build_counted_loop(&mut b, Operand::i64(5), Operand::i64(5), Operand::i64(1), |_b, _iv| {});
    b.ret(None);
    let f = b.finish();
    nzomp_ir::verify_function(&f, None).unwrap();
    assert!(f.blocks.len() >= 4);
}

// ---------------------------------------------------------------------------
// verifier
// ---------------------------------------------------------------------------

fn expect_err(f: Function, needle: &str) {
    match nzomp_ir::verify_function(&f, None) {
        Err(VerifyError { message, .. }) => {
            assert!(message.contains(needle), "got: {message}");
        }
        Ok(()) => panic!("expected verifier error containing {needle:?}"),
    }
}

#[test]
fn verify_rejects_missing_param() {
    let mut b = FuncBuilder::new("f", vec![Ty::I64], None);
    let bogus = Operand::Param(3);
    b.add(bogus, Operand::i64(1));
    b.ret(None);
    expect_err(b.finish(), "missing param");
}

#[test]
fn verify_rejects_branch_to_missing_block() {
    let mut b = FuncBuilder::new("f", vec![], None);
    b.br(BlockId(99));
    expect_err(b.finish(), "missing bb");
}

#[test]
fn verify_rejects_ret_mismatch() {
    let mut b = FuncBuilder::new("f", vec![], Some(Ty::I64));
    b.ret(None);
    expect_err(b.finish(), "ret void in non-void function");
}

#[test]
fn verify_rejects_use_before_def() {
    // A phi incoming that references a value defined in the header itself
    // (the bug class caught during development).
    let mut b = FuncBuilder::new("f", vec![Ty::I64], None);
    let entry = b.current_block();
    let header = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let late = b.add(b.param(0), Operand::i64(1));
    let p = b.phi(Ty::I64, vec![(entry, late)]);
    let c = b.icmp_slt(p, Operand::i64(10));
    b.cond_br(c, header, exit);
    b.phi_add_incoming(p, header, p);
    b.switch_to(exit);
    b.ret(None);
    expect_err(b.finish(), "not dominated");
}

#[test]
fn verify_rejects_phi_at_function_entry() {
    // bb0 loops to itself, so its phi has an incoming for its one
    // predecessor; entering the function still reaches it along no edge.
    let mut b = FuncBuilder::new("f", vec![Ty::I64], None);
    let entry = b.current_block();
    let exit = b.new_block();
    let p = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let c = b.icmp_slt(p, Operand::Param(0));
    b.cond_br(c, entry, exit);
    b.switch_to(exit);
    b.ret(None);
    expect_err(b.finish(), "phi %0 at function entry");
}

#[test]
fn verify_rejects_call_arity_mismatch() {
    let mut m = Module::new("m");
    let callee = m.add_function(Function::declaration("g", vec![Ty::I64, Ty::I64], None));
    let mut b = FuncBuilder::new("f", vec![], None);
    b.call(Operand::Func(callee), vec![Operand::i64(1)], None);
    b.ret(None);
    let f = m.add_function(b.finish());
    let err = nzomp_ir::verify_module(&m).unwrap_err();
    assert!(err.message.contains("expected 2"), "{err}");
    let _ = f;
}

#[test]
fn verify_rejects_intrinsic_arity_mismatch() {
    use nzomp_ir::Intrinsic;
    let p = Operand::Param(0);
    for (intr, args, needle) in [
        (Intrinsic::Malloc, vec![], "malloc takes 1 operand(s), found 0"),
        (Intrinsic::Free, vec![], "free takes 1 operand(s), found 0"),
        (Intrinsic::Assume(()), vec![], "assume takes 1 operand(s), found 0"),
        (Intrinsic::Free, vec![p, p], "free takes 1 operand(s), found 2"),
        (Intrinsic::ThreadId, vec![p, p], "thread.id takes 0 operand(s), found 2"),
        (Intrinsic::AlignedBarrier, vec![p], "barrier.aligned takes 0 operand(s), found 1"),
    ] {
        let mut b = FuncBuilder::new("f", vec![Ty::I64], None);
        b.intr(intr, args);
        b.ret(None);
        expect_err(b.finish(), needle);
    }
    // Every intrinsic at its own arity verifies.
    for &intr in Intrinsic::ALL {
        let mut b = FuncBuilder::new("f", vec![Ty::I64], None);
        b.intr(intr, vec![p; intr.arity()]);
        b.ret(None);
        assert_eq!(nzomp_ir::verify_function(&b.finish(), None), Ok(()), "{intr:?}");
    }
}

#[test]
fn verify_rejects_kernel_declaration() {
    let mut m = Module::new("m");
    let d = m.add_function(Function::declaration("k", vec![], None));
    m.add_kernel(d, ExecMode::Spmd);
    let err = nzomp_ir::verify_module(&m).unwrap_err();
    assert!(err.message.contains("declaration"), "{err}");
}

// ---------------------------------------------------------------------------
// value domains
// ---------------------------------------------------------------------------

/// A module of one function `@k(params)` whose body `body` builds.
fn one(params: Vec<Ty>, body: impl FnOnce(&mut FuncBuilder)) -> Module {
    let mut m = Module::new("m");
    let mut b = FuncBuilder::new("k", params, None);
    body(&mut b);
    b.ret(None);
    m.add_function(b.finish());
    m
}

fn refused(m: &Module) -> String {
    nzomp_ir::verify_module(m).unwrap_err().to_string()
}

#[test]
fn integer_and_pointer_bits_are_one_class() {
    let m = one(vec![Ty::Ptr, Ty::I64], |b| {
        // A pointer offset by a pointer, an integer used as a pointer,
        // and a double stored through an `i64` store: bits move as bits.
        let p = b.ptr_add(Operand::Param(0), Operand::Param(0));
        let x = b.load(Ty::F64, Operand::Param(1));
        b.store(Ty::I64, p, x);
        b.atomic(AtomicOp::Exchange, Ty::I64, p, x);
    });
    assert_eq!(nzomp_ir::verify_module(&m), Ok(()));
}

#[test]
fn an_operand_outside_its_operators_domain_is_named() {
    let m = one(vec![Ty::I64], |b| {
        b.fadd(Operand::Param(0), Operand::f64(1.0));
    });
    assert_eq!(
        refused(&m),
        "verify error in @k: %0 (FAdd) in bb0: reads integer bits where float bits are required"
    );
    let m = one(vec![Ty::Ptr], |b| {
        b.atomic(AtomicOp::Add, Ty::F64, Operand::Param(0), Operand::i64(1));
    });
    assert!(refused(&m).contains("%0 (atomic) in bb0: reads integer bits"));
}

/// A phi holds its declared type's domain, and an incoming outside it is
/// read at the phi.
#[test]
fn a_phi_incoming_outside_the_phis_type_fails() {
    let m = one(vec![Ty::I64], |b| {
        let (t, f, join) = (b.new_block(), b.new_block(), b.new_block());
        b.cond_br(Operand::Param(0), t, f);
        for bb in [t, f] {
            b.switch_to(bb);
            b.br(join);
        }
        b.switch_to(join);
        b.phi(Ty::F64, vec![(t, Operand::f64(1.0)), (f, Operand::i64(1))]);
    });
    assert!(refused(&m).contains("%0 (phi) in bb3: reads integer bits where float bits are required"));
}

/// The other joins: a returned operand must hold its function's return
/// type (and a void function returns nothing), a call's result its
/// declared type whatever its callee returns, and a value that nothing
/// flows into (a phi of only itself) holds its declared type's domain
/// rather than fitting every reader.
#[test]
fn joins_hold_their_declared_domain() {
    let mut m = Module::new("m");
    let mut g = FuncBuilder::new("g", vec![Ty::I64], Some(Ty::F64));
    g.ret(Some(Operand::Param(0)));
    m.add_function(g.finish());
    assert!(refused(&m).contains("@g: terminator of bb0: reads integer bits where float bits are required"));

    // Unverified, a function may return a value it does not declare, and a
    // direct call may disagree with its callee's return type.
    let mut m = Module::new("m");
    let mut g = FuncBuilder::new("g", vec![], None);
    g.ret(Some(Operand::i64(1)));
    m.add_function(g.finish());
    let err = nzomp_ir::verify_domains(&m).unwrap_err().to_string();
    assert!(err.contains("@g: ret with value in void function"), "{err}");

    let mut m = Module::new("m");
    let mut g = FuncBuilder::new("g", vec![], Some(Ty::I64));
    g.ret(Some(Operand::i64(1)));
    let g = Operand::Func(m.add_function(g.finish()));
    let mut k = FuncBuilder::new("k", vec![], None);
    k.call(g, vec![], Some(Ty::F64));
    k.ret(None);
    m.add_function(k.finish());
    let err = nzomp_ir::verify_domains(&m).unwrap_err().to_string();
    assert!(err.contains("@k: %0 (call) in bb0: reads integer bits where float bits are required"), "{err}");

    // bb1 is unreachable and its own only predecessor.
    let m = one(vec![], |b| {
        let (entry, head) = (b.current_block(), b.new_block());
        b.switch_to(head);
        let v = b.phi(Ty::F64, vec![]);
        b.phi_add_incoming(v, head, v);
        b.bin(BinOp::Add, Ty::I64, v, Operand::i64(1));
        b.br(head);
        b.switch_to(entry);
    });
    let err = refused(&m);
    assert!(err.contains("%1 (Add) in bb1: reads float bits where integer bits are required"), "{err}");
}

/// Calls: a result has its callee's return domain, a direct call's
/// arguments are held to its callee's parameters, and an indirect call's
/// to every defined function of its arity.
#[test]
fn calls_carry_classes_across_functions() {
    let mut m = Module::new("m");
    let mut g = FuncBuilder::new("half", vec![Ty::F64], Some(Ty::F64));
    let h = g.fmul(Operand::Param(0), Operand::f64(0.5));
    g.ret(Some(h));
    let half = Operand::Func(m.add_function(g.finish()));
    let mut k = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let r = k.call(half, vec![Operand::f64(3.0)], Some(Ty::F64)).unwrap();
    k.fadd(r, r);
    k.ret(None);
    m.add_function(k.finish());
    assert!(nzomp_ir::verify_module(&m).is_ok());

    let mut bad = m.clone();
    bad.funcs[1].map_operands(|op| if op == Operand::f64(3.0) { Operand::i64(3) } else { op });
    assert!(refused(&bad).contains("@k: %0 (call) in bb0: reads integer bits"));

    // `@k` itself has arity 1 with a pointer parameter, so an indirect
    // call with a double argument fails.
    let mut ind = m.clone();
    let mut k2 = FuncBuilder::new("k2", vec![Ty::Ptr], None);
    k2.call(Operand::Param(0), vec![Operand::f64(1.0)], Some(Ty::F64));
    k2.ret(None);
    ind.add_function(k2.finish());
    assert!(refused(&ind).contains("@k2: %0 (call) in bb0: reads float bits"));
}

/// An indirect call is held to every defined function of its arity, in
/// module order, whatever sits between them: functions of other arities
/// and declarations of the same arity are not its callees, and of two
/// callees that fail it, the first in the module is the one named.
#[test]
fn an_indirect_call_is_held_to_every_defined_function_of_its_arity() {
    let define = |m: &mut Module, name: &str, params: Vec<Ty>, ret: Ty| {
        let mut g = FuncBuilder::new(name, params, Some(ret));
        g.ret(Some(if ret == Ty::F64 { Operand::f64(0.0) } else { Operand::i64(0) }));
        m.add_function(g.finish());
    };
    let mut m = Module::new("m");
    define(&mut m, "a", vec![Ty::F64], Ty::F64);
    define(&mut m, "b", vec![Ty::I64, Ty::I64], Ty::F64);
    m.add_function(Function::declaration("d", vec![Ty::Ptr], Some(Ty::F64)));
    let mut k = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    k.call(Operand::Param(0), vec![Operand::f64(1.0)], Some(Ty::F64));
    k.call(Operand::Param(0), vec![Operand::i64(1), Operand::Param(1)], Some(Ty::F64));
    k.ret(None);
    m.add_function(k.finish());
    define(&mut m, "c", vec![Ty::F64], Ty::F64);
    assert!(nzomp_ir::verify_module(&m).is_ok());

    // `@e` reads its argument as integer bits; `@g` returns integer bits.
    let mut e_first = m.clone();
    define(&mut e_first, "e", vec![Ty::Ptr], Ty::F64);
    define(&mut e_first, "g", vec![Ty::F64], Ty::I64);
    let err = refused(&e_first);
    assert!(err.contains("@k: %0 (call) in bb0: reads float bits where integer bits are required"), "{err}");

    let mut g_first = m.clone();
    define(&mut g_first, "g", vec![Ty::F64], Ty::I64);
    define(&mut g_first, "e", vec![Ty::Ptr], Ty::F64);
    let err = refused(&g_first);
    assert!(err.contains("@k: %0 (call) in bb0: reads integer bits where float bits are required"), "{err}");
}

// ---------------------------------------------------------------------------
// printer
// ---------------------------------------------------------------------------

#[test]
fn printer_emits_symbols_and_attrs() {
    let mut m = Module::new("m");
    m.add_global(Global::constant("flag", Space::Constant, 8, Init::I64(1)));
    let mut b = FuncBuilder::new("f", vec![Ty::Ptr], Some(Ty::I64));
    b.attrs_mut().aligned_barrier = true;
    let g = m.find_global("flag").unwrap();
    let v = b.load(Ty::I64, Operand::Global(g));
    b.aligned_barrier();
    b.ret(Some(v));
    let fr = m.add_function(b.finish());
    m.add_kernel(fr, ExecMode::Spmd);
    let text = print_module(&m);
    assert!(text.contains("@flag"), "{text}");
    assert!(text.contains("aligned_barrier"), "{text}");
    assert!(text.contains("barrier.aligned()"), "{text}");
    assert!(text.contains("kernel @f mode=Spmd"), "{text}");
    let ftext = print_function(Some(&m), m.func(fr));
    assert!(ftext.contains("define i64 @f(ptr %arg0)"), "{ftext}");
}

// ---------------------------------------------------------------------------
// linker
// ---------------------------------------------------------------------------

fn def_fn(name: &str) -> Function {
    let mut b = FuncBuilder::new(name, vec![], Some(Ty::I64));
    b.ret(Some(Operand::i64(7)));
    b.finish()
}

#[test]
fn link_resolves_declarations() {
    let mut app = Module::new("app");
    let decl = app.add_function(Function::declaration("util", vec![], Some(Ty::I64)));
    let mut kb = FuncBuilder::new("k", vec![], Some(Ty::I64));
    let v = kb.call(Operand::Func(decl), vec![], Some(Ty::I64)).unwrap();
    kb.ret(Some(v));
    app.add_function(kb.finish());

    let mut lib = Module::new("lib");
    lib.add_function(def_fn("util"));
    link(&mut app, lib).unwrap();
    assert!(!app.func(app.find_func("util").unwrap()).is_declaration());
    nzomp_ir::verify_module(&app).unwrap();
}

#[test]
fn link_rejects_duplicate_definitions() {
    let mut a = Module::new("a");
    a.add_function(def_fn("dup"));
    let mut b = Module::new("b");
    b.add_function(def_fn("dup"));
    assert!(matches!(link(&mut a, b), Err(LinkError::DuplicateFunction(_))));
}

#[test]
fn link_rejects_signature_mismatch() {
    let mut a = Module::new("a");
    a.add_function(Function::declaration("f", vec![Ty::I64], None));
    let mut b = Module::new("b");
    b.add_function(Function::declaration("f", vec![Ty::Ptr], None));
    assert!(matches!(link(&mut a, b), Err(LinkError::SignatureMismatch(_))));
}

#[test]
fn link_rejects_duplicate_globals() {
    let mut a = Module::new("a");
    a.add_global(Global::new("g", Space::Global, 8, Init::Zero));
    let mut b = Module::new("b");
    b.add_global(Global::new("g", Space::Global, 8, Init::Zero));
    assert!(matches!(link(&mut a, b), Err(LinkError::DuplicateGlobal(_))));
}

#[test]
fn link_remaps_global_and_func_operands() {
    let mut app = Module::new("app");
    app.add_global(Global::new("app_g", Space::Global, 8, Init::Zero));
    let mut lib = Module::new("lib");
    let lg = lib.add_global(Global::new("lib_g", Space::Shared, 8, Init::Zero));
    let helper = lib.add_function(def_fn("helper"));
    let mut b = FuncBuilder::new("uses", vec![], Some(Ty::I64));
    let _l = b.load(Ty::I64, Operand::Global(lg));
    let v = b.call(Operand::Func(helper), vec![], Some(Ty::I64)).unwrap();
    b.ret(Some(v));
    lib.add_function(b.finish());
    link(&mut app, lib).unwrap();
    nzomp_ir::verify_module(&app).unwrap();
    // lib_g moved to index 1 in app; the load must point at it.
    let uses = app.find_func("uses").unwrap();
    let f = app.func(uses);
    let mut found = false;
    for &i in f.blocks.iter().flat_map(|b| &b.insts) {
        f.inst(i).for_each_operand(|o| {
            found |= matches!(o, Operand::Global(g) if app.global(g).name == "lib_g");
        });
    }
    assert!(found);
}

// ---------------------------------------------------------------------------
// analyses
// ---------------------------------------------------------------------------

/// Diamond CFG: entry -> (a | b) -> join.
fn diamond() -> Function {
    let mut fb = FuncBuilder::new("d", vec![Ty::I1], Some(Ty::I64));
    let a = fb.new_block();
    let b = fb.new_block();
    let join = fb.new_block();
    fb.cond_br(fb.param(0), a, b);
    fb.switch_to(a);
    fb.br(join);
    fb.switch_to(b);
    fb.br(join);
    fb.switch_to(join);
    let p = fb.phi(Ty::I64, vec![(a, Operand::i64(1)), (b, Operand::i64(2))]);
    fb.ret(Some(p));
    fb.finish()
}

#[test]
fn dominators_on_diamond() {
    let f = diamond();
    let dt = DomTree::compute(&f);
    let (e, a, b, j) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
    assert!(dt.dominates(e, a) && dt.dominates(e, b) && dt.dominates(e, j));
    assert!(!dt.dominates(a, j) && !dt.dominates(b, j));
    assert_eq!(dt.idom(j), Some(e));
    assert_eq!(dt.idom(a), Some(e));
    assert!(dt.dominates(j, j));
}

#[test]
fn rpo_starts_at_entry_and_covers_reachable() {
    let f = diamond();
    let rpo = cfg::reverse_post_order(&f);
    assert_eq!(rpo[0], BlockId::ENTRY);
    assert_eq!(rpo.len(), 4);
}

#[test]
fn predecessors_are_distinct_and_in_block_order() {
    let f = diamond();
    let preds = cfg::predecessors(&f);
    assert!(preds[0].is_empty());
    assert_eq!(preds[1], [BlockId(0)]);
    assert_eq!(preds[3], [BlockId(1), BlockId(2)]);
    assert_eq!(cfg::pred_counts(&f), [0, 1, 1, 2]);

    // Both arms on one block is one edge; a self-loop is its own
    // predecessor; a later block may precede an earlier one.
    let mut fb = FuncBuilder::new("e", vec![Ty::I1], None);
    let (same, spin) = (fb.new_block(), fb.new_block());
    fb.cond_br(fb.param(0), same, same);
    fb.switch_to(same);
    fb.br(spin);
    fb.switch_to(spin);
    fb.cond_br(fb.param(0), spin, same);
    let f = fb.finish();
    let preds = cfg::predecessors(&f);
    assert_eq!(preds[1], [BlockId(0), BlockId(2)]);
    assert_eq!(preds[2], [BlockId(1), BlockId(2)]);
    assert_eq!(cfg::pred_counts(&f), [0, 2, 2]);
}

#[test]
fn reachability_queries() {
    let f = diamond();
    assert!(cfg::block_reaches(&f, BlockId(0), BlockId(3)));
    assert!(!cfg::block_reaches(&f, BlockId(1), BlockId(2)));
    let reach = cfg::reachable(&f);
    assert!(reach.iter().all(|&r| r));
}

#[test]
fn liveness_counts_pressure() {
    // Ten simultaneously-live values -> max_live >= 10.
    let mut b = FuncBuilder::new("fat", vec![Ty::I64], Some(Ty::I64));
    let vals: Vec<Operand> = (0..10)
        .map(|i| b.add(b.param(0), Operand::i64(i)))
        .collect();
    let mut acc = vals[0];
    for v in &vals[1..] {
        acc = b.add(acc, *v);
    }
    b.ret(Some(acc));
    let f = b.finish();
    let lv = liveness::compute(&f);
    assert!(lv.max_live >= 10, "max_live = {}", lv.max_live);

    // A chain keeps pressure tiny.
    let mut b = FuncBuilder::new("thin", vec![Ty::I64], Some(Ty::I64));
    let mut acc = b.param(0);
    for i in 0..10 {
        acc = b.add(acc, Operand::i64(i));
    }
    b.ret(Some(acc));
    let thin = liveness::compute(&b.finish());
    assert!(thin.max_live <= 3, "max_live = {}", thin.max_live);
}

#[test]
fn callgraph_edges_and_recursion() {
    let mut m = Module::new("cg");
    let mut b = FuncBuilder::new("leaf", vec![], None);
    b.ret(None);
    let leaf = m.add_function(b.finish());

    let mut b = FuncBuilder::new("rec", vec![Ty::I64], None);
    let self_ref = nzomp_ir::module::FuncRef(1); // will be "rec" itself
    b.call(Operand::Func(leaf), vec![], None);
    b.call(Operand::Func(self_ref), vec![Operand::i64(0)], None);
    b.ret(None);
    let rec = m.add_function(b.finish());
    assert_eq!(rec, self_ref);

    let cg = CallGraph::build(&m);
    assert!(cg.maybe_recursive(rec));
    assert!(!cg.maybe_recursive(leaf));
    assert!(cg.callees[rec.index()].contains(&leaf));
    assert!(cg.callers[leaf.index()].contains(&rec));
}

#[test]
fn callgraph_address_taken_reachability() {
    let mut m = Module::new("cg2");
    let mut b = FuncBuilder::new("target", vec![Ty::Ptr], None);
    b.ret(None);
    let target = m.add_function(b.finish());
    // Kernel passes @target as a function-pointer argument to a runtime
    // declaration, then nothing calls it directly.
    let decl = m.add_function(Function::declaration("sink", vec![Ty::Ptr], None));
    let mut b = FuncBuilder::new("k", vec![], None);
    b.call(Operand::Func(decl), vec![Operand::Func(target)], None);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let cg = CallGraph::build(&m);
    assert!(cg.address_taken[target.index()]);
    assert_eq!(cg.address_taken_list, [target]);
    assert_eq!(cg.takes_address_of[k.index()], [target]);
    let live = cg.reachable_from(&[k]);
    assert!(live[target.index()], "address-taken functions stay live");
}

// ---------------------------------------------------------------------------
// module helpers
// ---------------------------------------------------------------------------

#[test]
fn shared_memory_accounting() {
    let mut m = Module::new("m");
    m.add_global(Global::new("a", Space::Shared, 100, Init::Zero));
    m.add_global(Global::new("b", Space::Global, 100, Init::Zero));
    m.add_global(Global::new("c", Space::Shared, 28, Init::Zero));
    assert_eq!(m.shared_memory_bytes(), 128);
}

#[test]
fn internalize_spares_kernels() {
    let mut m = Module::new("m");
    let f = m.add_function(def_fn("helper"));
    let k = m.add_function(def_fn("kernel"));
    m.add_kernel(k, ExecMode::Spmd);
    m.internalize();
    assert_eq!(m.func(f).linkage, nzomp_ir::Linkage::Internal);
    assert_eq!(m.func(k).linkage, nzomp_ir::Linkage::External);
}

#[test]
fn exec_mode_update() {
    let mut m = Module::new("m");
    let k = m.add_function(def_fn("k"));
    m.add_kernel(k, ExecMode::Generic);
    m.set_exec_mode(k, ExecMode::Spmd);
    assert_eq!(m.kernel_of(k).unwrap().exec_mode, ExecMode::Spmd);
}

#[test]
fn term_successors() {
    assert_eq!(*Term::Br(BlockId(3)).succs(), [BlockId(3)]);
    assert!(Term::Ret(None).succs().is_empty());
    assert!(Term::Unreachable.succs().into_iter().next().is_none());
    let t = Term::CondBr {
        cond: Operand::TRUE,
        if_true: BlockId(1),
        if_false: BlockId(2),
    };
    assert_eq!(*t.succs(), [BlockId(1), BlockId(2)]);
    assert_eq!(t.succs().into_iter().collect::<Vec<_>>(), [BlockId(1), BlockId(2)]);
}

#[test]
fn cmp_results_are_i1() {
    let mut b = FuncBuilder::new("f", vec![Ty::I64], Some(Ty::I1));
    let c = b.cmp(Pred::Slt, Ty::I64, b.param(0), Operand::i64(3));
    b.ret(Some(c));
    let f = b.finish();
    nzomp_ir::verify_function(&f, None).unwrap();
}

/// The operator vocabulary is declared once (`operators!` in `inst.rs`):
/// every spelling reads back as its own variant, and no two variants of
/// one enum share a spelling.
#[test]
fn every_operator_mnemonic_round_trips_and_is_distinct() {
    use nzomp_ir::{AtomicOp, BinOp, CastKind, Intrinsic, Pred, UnOp};
    macro_rules! check {
        ($($op:ident),+) => {$(
            let spellings: Vec<&str> = $op::ALL.iter().map(|v| v.mnemonic()).collect();
            for (i, v) in $op::ALL.iter().enumerate() {
                assert_eq!($op::from_mnemonic(v.mnemonic()), Some(*v));
                assert!(!spellings[..i].contains(&v.mnemonic()), "{v:?} shares a spelling");
            }
            assert_eq!($op::from_mnemonic("no such operator"), None);
        )+};
    }
    check!(BinOp, UnOp, CastKind, Pred, AtomicOp, Intrinsic);
}
