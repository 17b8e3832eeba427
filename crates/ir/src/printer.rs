//! Textual printer for the versioned on-disk IR format (`.nzir`).
//!
//! The format is specified in `docs/ir-format.md`. [`print_module`] emits a
//! `; nzomp-ir vN` header ([`FORMAT_VERSION`]); [`crate::parser`] is its
//! exact inverse: `parse(print(m)) == m` (structural equality) for every
//! module in normal form (see [`crate::Module::renumber`]).

use std::fmt::{self, Display, Write};

use crate::func::{Function, Linkage};
use crate::global::Init;
use crate::inst::{Inst, InstId, Term};
use crate::module::Module;
use crate::types::Ty;
use crate::value::Operand;

/// Version of the on-disk text format this printer emits. Bumped on any
/// change that alters the printed bytes of an existing module; the parser
/// accepts exactly this version (see `docs/ir-format.md` for the
/// stability guarantees).
pub const FORMAT_VERSION: u32 = 1;

/// Exact f64 literal: every bit pattern round-trips through
/// [`crate::parser`]. Finite values use Rust's shortest-exact decimal
/// representation (which preserves `-0.0` and subnormals); infinities
/// print as `inf`/`-inf`; NaNs print their full bit pattern, because a
/// decimal literal cannot carry a NaN payload or sign.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        format!("nan:0x{:016x}", v.to_bits())
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// An operand as the format spells it; symbols print by name when the
/// module is at hand.
struct Op<'a>(Option<&'a Module>, Operand);

impl Display for Op<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.1, self.0) {
            (Operand::Inst(i), _) => write!(f, "%{}", i.0),
            (Operand::Param(p), _) => write!(f, "%arg{p}"),
            (Operand::ConstI(v, ty), _) => write!(f, "{ty} {v}"),
            (Operand::ConstF(v), _) => write!(f, "f64 {}", fmt_f64(v)),
            (Operand::Global(g), Some(m)) => write!(f, "@{}", m.global(g).name),
            (Operand::Global(g), None) => write!(f, "@g{}", g.0),
            (Operand::Func(fr), Some(m)) => write!(f, "@{}", m.func(fr).name),
            (Operand::Func(fr), None) => write!(f, "@f{}", fr.0),
        }
    }
}

/// A comma-separated operand list.
struct Ops<'a>(Option<&'a Module>, &'a [Operand]);

impl Display for Ops<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.1.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}", Op(self.0, *op))?;
        }
        Ok(())
    }
}

/// A return type: `void` or the type.
struct Ret(Option<Ty>);

impl Display for Ret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(ty) => ty.fmt(f),
            None => f.write_str("void"),
        }
    }
}

fn write_inst(s: &mut String, m: Option<&Module>, id: InstId, inst: &Inst) -> fmt::Result {
    if inst.result_ty().is_some() {
        write!(s, "%{} = ", id.0)?;
    }
    let o = |op: &Operand| Op(m, *op);
    match inst {
        Inst::Bin { op, ty, lhs, rhs } => {
            write!(s, "{}.{ty} {}, {}", op.mnemonic(), o(lhs), o(rhs))
        }
        Inst::Un { op, ty, arg } => write!(s, "{}.{ty} {}", op.mnemonic(), o(arg)),
        Inst::Cast { kind, to, arg } => write!(s, "{} {} to {to}", kind.mnemonic(), o(arg)),
        Inst::Cmp { pred, ty, lhs, rhs } => {
            write!(s, "cmp.{}.{ty} {}, {}", pred.mnemonic(), o(lhs), o(rhs))
        }
        Inst::Select {
            ty,
            cond,
            if_true,
            if_false,
        } => write!(
            s,
            "select.{ty} {}, {}, {}",
            o(cond),
            o(if_true),
            o(if_false)
        ),
        Inst::Load { ty, ptr } => write!(s, "load {ty}, {}", o(ptr)),
        Inst::Store { ty, ptr, value } => write!(s, "store {ty} {}, {}", o(value), o(ptr)),
        Inst::PtrAdd { base, offset } => write!(s, "ptradd {}, {}", o(base), o(offset)),
        Inst::Alloca { size } => write!(s, "alloca {size}"),
        Inst::Call { callee, args, ret } => {
            write!(s, "call {} {}({})", Ret(*ret), o(callee), Ops(m, args))
        }
        Inst::Atomic { op, ty, ptr, value } => {
            write!(s, "atomic.{}.{ty} {}, {}", op.mnemonic(), o(ptr), o(value))
        }
        Inst::Cas {
            ty,
            ptr,
            expected,
            new,
        } => write!(s, "cas.{ty} {}, {}, {}", o(ptr), o(expected), o(new)),
        Inst::Intr { intr, args } => write!(s, "{}({})", intr.mnemonic(), Ops(m, args)),
        Inst::Phi { ty, incomings } => {
            write!(s, "phi {ty} ")?;
            for (i, inc) in incomings.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                write!(s, "{sep}[bb{}: {}]", inc.pred.0, o(&inc.value))?;
            }
            Ok(())
        }
    }
}

fn write_term(s: &mut String, m: Option<&Module>, t: &Term) -> fmt::Result {
    match t {
        Term::Br(b) => write!(s, "br bb{}", b.0),
        Term::CondBr {
            cond,
            if_true,
            if_false,
        } => write!(s, "br {}, bb{}, bb{}", Op(m, *cond), if_true.0, if_false.0),
        Term::Ret(None) => s.write_str("ret void"),
        Term::Ret(Some(v)) => write!(s, "ret {}", Op(m, *v)),
        Term::Unreachable => s.write_str("unreachable"),
    }
}

fn write_function(s: &mut String, m: Option<&Module>, f: &Function) -> fmt::Result {
    let head = if f.is_declaration() {
        "declare"
    } else {
        "define"
    };
    let linkage = if f.linkage == Linkage::Internal {
        "internal "
    } else {
        ""
    };
    write!(s, "{head} {linkage}{} @{}(", Ret(f.ret), f.name)?;
    for (i, t) in f.params.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}{t} %arg{i}")?;
    }
    s.push(')');
    let attrs = [
        (f.attrs.aligned_barrier, "aligned_barrier"),
        (f.attrs.no_call_asm, "no_call_asm"),
        (f.attrs.always_inline, "always_inline"),
        (f.attrs.no_inline, "noinline"),
        (f.attrs.read_none, "read_none"),
    ];
    let set: Vec<&str> = attrs.iter().filter(|a| a.0).map(|a| a.1).collect();
    if !set.is_empty() {
        write!(s, " [{}]", set.join(","))?;
    }
    if f.is_declaration() {
        return s.write_str("\n");
    }
    s.push_str(" {\n");
    for (bid, block) in f.iter_blocks() {
        writeln!(s, "bb{}:", bid.0)?;
        for &iid in &block.insts {
            s.push_str("  ");
            write_inst(s, m, iid, f.inst(iid))?;
            s.push('\n');
        }
        s.push_str("  ");
        write_term(s, m, &block.term)?;
        s.push('\n');
    }
    s.write_str("}\n")
}

/// Print a function (with module context for symbol names if available).
pub fn print_function(m: Option<&Module>, f: &Function) -> String {
    let mut s = String::new();
    // Writing to a `String` cannot fail.
    let _ = write_function(&mut s, m, f);
    s
}

fn write_module(s: &mut String, m: &Module) -> fmt::Result {
    writeln!(s, "; nzomp-ir v{FORMAT_VERSION}")?;
    writeln!(s, "; module {}", m.name)?;
    for g in &m.globals {
        let c = if g.constant { " const" } else { "" };
        write!(s, "@{} = {} [{} x i8]{c} init=", g.name, g.space, g.size)?;
        match &g.init {
            Init::Zero => s.push_str("zero"),
            Init::I64(v) => write!(s, "i64:{v}")?,
            Init::Bytes(b) => {
                s.push_str("hex:");
                for x in b {
                    write!(s, "{x:02x}")?;
                }
            }
        }
        let linkage = match g.linkage {
            Linkage::Internal => "internal",
            Linkage::External => "external",
        };
        writeln!(s, " linkage={linkage}")?;
    }
    for k in &m.kernels {
        writeln!(
            s,
            "; kernel @{} mode={:?}",
            m.func(k.func).name,
            k.exec_mode
        )?;
    }
    for f in &m.funcs {
        write_function(s, Some(m), f)?;
    }
    Ok(())
}

/// Print an entire module in the versioned on-disk format.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    // Writing to a `String` cannot fail.
    let _ = write_module(&mut s, m);
    s
}
