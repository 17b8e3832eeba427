//! Builder helpers shared by both runtime implementations and the frontend.

use nzomp_ir::{FuncBuilder, Function, GlobalId, Module, Operand, Ty};

/// A runtime entry point: its name, and how to build its definition once
/// every entry point of the module is declared.
pub(crate) type EntryPoint<'a> = (&'a str, &'a dyn Fn(&Module) -> Function);

/// Declare every entry point from the ABI table, in order, so bodies can
/// reference each other; then build each definition against the declared
/// module and put it in its declaration's place.
pub(crate) fn define_all(m: &mut Module, entry_points: &[EntryPoint]) {
    for (name, _) in entry_points {
        crate::declare_api(m, name);
    }
    for (_, define) in entry_points {
        let f = define(m);
        install(m, f);
    }
}

/// Replace the declaration of `f.name` with the definition `f`. A
/// definition that disagrees with the ABI table its declaration came from
/// is a programming error, caught here at build time.
pub(crate) fn install(m: &mut Module, f: Function) {
    let slot = m
        .find_func(&f.name)
        .unwrap_or_else(|| panic!("@{} not declared", f.name));
    assert_eq!(m.func(slot).params, f.params, "@{} signature", f.name);
    assert_eq!(m.func(slot).ret, f.ret, "@{} return", f.name);
    m.funcs[slot.index()] = f;
}

/// The declared runtime function `name`, as a call target.
pub(crate) fn callee(m: &Module, name: &str) -> Operand {
    Operand::Func(m.find_func(name).unwrap_or_else(|| panic!("@{name}")))
}

/// Pointer to `byte_off` inside global `g`.
pub fn field_ptr(b: &mut FuncBuilder, g: GlobalId, byte_off: u64) -> Operand {
    if byte_off == 0 {
        return Operand::Global(g);
    }
    b.ptr_add(Operand::Global(g), Operand::i64(byte_off as i64))
}

/// Pointer to element `idx` (of `elem_size` bytes) of the array at
/// `base + byte_off` inside global `g`.
pub fn array_slot_ptr(
    b: &mut FuncBuilder,
    g: GlobalId,
    byte_off: u64,
    idx: Operand,
    elem_size: u64,
) -> Operand {
    let base = field_ptr(b, g, byte_off);
    b.gep(base, idx, elem_size)
}

/// Conditional write via a dummy location and conditional pointer — the
/// paper's Fig. 7b broadcast idiom. The store itself is unconditional (it
/// dominates the following barrier); only the *location* is conditional,
/// which is what the assumed-memory-content analysis (§IV-B3) is built to
/// handle.
pub fn cond_write(
    b: &mut FuncBuilder,
    dummy: GlobalId,
    ptr: Operand,
    value: Operand,
    ty: Ty,
    cond: Operand,
) {
    let target = b.select(Ty::Ptr, cond, ptr, Operand::Global(dummy));
    b.store(ty, target, value);
}

/// Emit `assume(load(ptr) == expected)` — the paper's Fig. 8b pattern placed
/// after broadcast barriers so the optimizer can treat the conditional write
/// as unconditional.
pub fn assume_field_eq(b: &mut FuncBuilder, ptr: Operand, ty: Ty, expected: Operand) {
    let v = b.load(ty, ptr);
    let c = b.cmp(nzomp_ir::Pred::Eq, ty, v, expected);
    b.assume(c);
}

/// `min(a, b)` on i64.
pub fn imin(b: &mut FuncBuilder, x: Operand, y: Operand) -> Operand {
    b.bin(nzomp_ir::BinOp::SMin, Ty::I64, x, y)
}

/// Round `v` up to a multiple of 8.
pub fn align8(b: &mut FuncBuilder, v: Operand) -> Operand {
    let plus = b.add(v, Operand::i64(7));
    b.and(plus, Operand::i64(!7))
}

/// Emit a call that carries a return type; the builder yields a value for
/// every such call, so the `Option` never comes back empty.
pub fn call_val(b: &mut FuncBuilder, f: Operand, args: Vec<Operand>, ty: Ty) -> Operand {
    b.call(f, args, Some(ty))
        .unwrap_or_else(|| unreachable!("call with a return type yields a value"))
}
