//! Parser for the versioned textual IR format produced by [`crate::printer`].
//!
//! Round-trip contract (see `docs/ir-format.md`): for any module `m` in
//! *normal form* (dense instruction arenas in block order — see
//! [`crate::Module::renumber`]), `parse(print(m)) == m` holds as exact
//! structural equality. For modules that are not normalized (transformation
//! passes leave arena holes behind), `parse(print(m))` equals the
//! normalized `m` — the text format cannot represent dead arena entries.
//!
//! Two entry points:
//! * [`parse_module`] — lenient: accepts input with or without the
//!   `; nzomp-ir vN` header (but rejects a header with the wrong version).
//! * [`parse_module_strict`] — the on-disk `.nzir` contract: the first
//!   non-blank line must be the version header.
//!
//! Errors carry the 1-based line, and where the offending token is known,
//! the 1-based column.
//!
//! The text is read twice. [`scan_decls`] reads everything that names
//! something — the module, globals, function signatures, kernel notes and
//! each body's result ids — so that [`parse_body`] can build [`Inst`] and
//! [`Term`] values directly, resolving every operand as it is lexed.
//!
//! The input is external text: nothing here may index or slice by a
//! position computed from it.

#![deny(clippy::string_slice, clippy::indexing_slicing)]

use std::collections::HashMap;

use crate::func::{Block, BlockId, FnAttrs, Function, Linkage};
use crate::global::{Global, GlobalId, Init};
use crate::inst::{AtomicOp, BinOp, CastKind, Inst, InstId, Intrinsic, Pred, Term, UnOp};
use crate::module::{ExecMode, FuncRef, Module};
use crate::printer::FORMAT_VERSION;
use crate::types::{Space, Ty};
use crate::value::{Operand, PhiIncoming};
use crate::verify::{is_module_name, is_symbol_name};

/// Parse error with line (and, when the offending token is known, column)
/// context. `col == 0` means "column unknown".
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "parse error at line {}, col {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Per-line parse context: the 1-based line number plus the raw line text.
/// Every token the parser handles is a subslice of `raw`, so a column can
/// be recovered from pointer arithmetic — no separate span plumbing.
#[derive(Clone, Copy)]
struct Cx<'a> {
    line: usize,
    raw: &'a str,
}

impl Cx<'_> {
    /// 1-based column of `tok` within the raw line, or 0 when `tok` is not
    /// a subslice of it.
    fn col_of(&self, tok: &str) -> usize {
        let raw_start = self.raw.as_ptr() as usize;
        let raw_end = raw_start + self.raw.len();
        let tok_start = tok.as_ptr() as usize;
        if tok_start >= raw_start && tok_start + tok.len() <= raw_end {
            tok_start - raw_start + 1
        } else {
            0
        }
    }

    /// Error without a column.
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: 0,
            message: message.into(),
        }
    }

    /// Error anchored at the offending token.
    fn error_at(&self, tok: &str, message: impl Into<String>) -> ParseError {
        ParseError {
            col: self.col_of(tok),
            ..self.error(message)
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(self.error(message))
    }

    fn err_at<T>(&self, tok: &str, message: impl Into<String>) -> PResult<T> {
        Err(self.error_at(tok, message))
    }
}

/// The non-blank lines of `text`, trimmed, each with its context.
fn lines(text: &str) -> impl Iterator<Item = (Cx<'_>, &str)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let s = raw.trim();
        let cx = Cx { line: idx + 1, raw };
        (!s.is_empty()).then_some((cx, s))
    })
}

/// What a trimmed, non-blank line is. Both passes classify with
/// [`classify`], so they cannot disagree on which lines are instructions —
/// and hence on the dense id each instruction gets.
enum Line<'a> {
    /// A comment the parser skips.
    Comment,
    /// `; nzomp-ir <version>`.
    Version(&'a str),
    /// `; module <name>`.
    ModuleName(&'a str),
    /// `; kernel @<name> mode=<mode>`.
    Kernel(&'a str),
    Global,
    Declare,
    Define,
    /// `}`.
    Close,
    /// `<label>:`.
    Label(&'a str),
    /// `ret <void | operand>`.
    Ret(&'a str),
    /// `br <block>` or `br <cond>, <block>, <block>`.
    Br(&'a str),
    Unreachable,
    /// Anything else: `[%N = ] <body>`.
    Inst,
}

fn classify(s: &str, in_func: bool) -> Line<'_> {
    if in_func && s.starts_with('%') {
        // Most lines of a module: an instruction with a result.
        Line::Inst
    } else if let Some(rest) = s.strip_prefix("; nzomp-ir ") {
        Line::Version(rest.trim())
    } else if let Some(rest) = s.strip_prefix("; module ") {
        Line::ModuleName(rest.trim())
    } else if let Some(rest) = s.strip_prefix("; kernel @") {
        Line::Kernel(rest)
    } else if s.starts_with(';') {
        Line::Comment
    } else if s.starts_with('@') && !in_func {
        Line::Global
    } else if s.starts_with("declare ") {
        Line::Declare
    } else if s.starts_with("define ") {
        Line::Define
    } else if s == "}" {
        Line::Close
    } else if let Some(label) = s.strip_suffix(':') {
        Line::Label(label)
    } else if let Some(rest) = s.strip_prefix("ret ") {
        Line::Ret(rest.trim())
    } else if let Some(rest) = s.strip_prefix("br ") {
        Line::Br(rest)
    } else if s == "unreachable" {
        Line::Unreachable
    } else {
        Line::Inst
    }
}

fn parse_ty(s: &str, cx: &Cx<'_>) -> PResult<Ty> {
    match s {
        "i1" => Ok(Ty::I1),
        "i8" => Ok(Ty::I8),
        "i32" => Ok(Ty::I32),
        "i64" => Ok(Ty::I64),
        "f64" => Ok(Ty::F64),
        "ptr" => Ok(Ty::Ptr),
        other => cx.err_at(other, format!("unknown type {other:?}")),
    }
}

/// A return type: `void` or a type.
fn parse_ret_ty(s: &str, cx: &Cx<'_>) -> PResult<Option<Ty>> {
    if s == "void" {
        Ok(None)
    } else {
        parse_ty(s, cx).map(Some)
    }
}

fn parse_space(s: &str, cx: &Cx<'_>) -> PResult<Space> {
    match s {
        "global" => Ok(Space::Global),
        "shared" => Ok(Space::Shared),
        "local" => Ok(Space::Local),
        "constant" => Ok(Space::Constant),
        other => cx.err_at(other, format!("unknown space {other:?}")),
    }
}

/// Split a comma-separated argument list, respecting that our operands
/// never contain commas or parens. A blank list has no arguments.
fn split_args(s: &str) -> impl Iterator<Item = &str> {
    let s = s.trim();
    let args = (!s.is_empty()).then(|| s.split(','));
    args.into_iter().flatten().map(str::trim)
}

/// Parse an f64 literal. Inverse of [`crate::printer::fmt_f64`]: accepts
/// `inf`/`-inf`, a `nan:0xBITS` bit pattern (exact, payload-preserving),
/// the legacy bare `NaN` (maps to the canonical quiet NaN), and any decimal
/// literal Rust's float parser accepts (shortest-exact decimals round-trip
/// bit-for-bit, including `-0.0` and subnormals).
fn parse_f64(s: &str, cx: &Cx<'_>) -> PResult<f64> {
    if let Some(hex) = s.strip_prefix("nan:0x") {
        let bits = u64::from_str_radix(hex, 16)
            .or_else(|_| cx.err_at(s, format!("bad NaN bit pattern {s:?}")))?;
        let v = f64::from_bits(bits);
        if !v.is_nan() {
            return cx.err_at(s, format!("{s:?} is not a NaN bit pattern"));
        }
        return Ok(v);
    }
    match s {
        "NaN" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .or_else(|_| cx.err_at(s, format!("bad float constant {s:?}"))),
    }
}

fn parse_block_ref(tok: &str, cx: &Cx<'_>) -> PResult<BlockId> {
    let tok = tok.trim();
    tok.strip_prefix("bb")
        .and_then(|n| n.parse::<u32>().ok())
        .map(BlockId)
        .ok_or_else(|| cx.error_at(tok, format!("bad block reference {tok:?}")))
}

/// Split an instruction line `%N = body` into its printed result id and
/// body; void instructions are the body alone.
fn split_result<'a>(s: &'a str, cx: &Cx<'_>) -> PResult<(Option<u32>, &'a str)> {
    if !s.starts_with('%') {
        return Ok((None, s));
    }
    let (lhs, body) = s.split_once('=').ok_or_else(|| cx.error("expected `=`"))?;
    let id = lhs
        .trim()
        .strip_prefix('%')
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| cx.error_at(lhs.trim(), "bad result id"))?;
    Ok((Some(id), body.trim()))
}

/// A symbol name as the grammar defines it (`docs/ir-format.md`).
fn parse_name<'a>(s: &'a str, cx: &Cx<'_>) -> PResult<&'a str> {
    let name = s.trim();
    if is_symbol_name(name) {
        Ok(name)
    } else {
        cx.err_at(name, format!("bad symbol name {name:?}"))
    }
}

/// Parse a function header like
/// `define internal i64 @f(i64 %arg0, ptr %arg1) [noinline] {` into a
/// function without a body.
fn parse_header(s: &str, cx: &Cx<'_>) -> PResult<Function> {
    let rest = match s.strip_prefix("define ") {
        Some(r) => r.trim_end_matches('{'),
        None => s.strip_prefix("declare ").unwrap_or(s),
    };
    let rest = rest.trim();
    let (linkage, rest) = match rest.strip_prefix("internal ") {
        Some(r) => (Linkage::Internal, r),
        None => (Linkage::External, rest),
    };
    let (ret_s, rest) = rest
        .split_once(' ')
        .ok_or_else(|| cx.error_at(rest, "malformed header: missing return type"))?;
    let ret = parse_ret_ty(ret_s, cx)?;
    let rest = rest.trim();
    let at = rest
        .strip_prefix('@')
        .ok_or_else(|| cx.error_at(rest, "malformed header: missing @name"))?;
    let (name, rest) = at
        .split_once('(')
        .ok_or_else(|| cx.error_at(at, "malformed header: missing `(`"))?;
    let (params, tail) = rest
        .split_once(')')
        .ok_or_else(|| cx.error_at(at, "malformed header: missing `)`"))?;
    let params = split_args(params)
        .map(|p| parse_ty(p.split_whitespace().next().unwrap_or(p), cx))
        .collect::<PResult<Vec<_>>>()?;
    let tail = tail.trim();
    let mut attrs = FnAttrs::default();
    if !tail.is_empty() {
        let list = tail
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| cx.error_at(tail, "malformed header: expected `[attrs]`"))?;
        for a in list.split(',') {
            match a.trim() {
                "aligned_barrier" => attrs.aligned_barrier = true,
                "no_call_asm" => attrs.no_call_asm = true,
                "always_inline" => attrs.always_inline = true,
                "noinline" => attrs.no_inline = true,
                "read_none" => attrs.read_none = true,
                other => return cx.err_at(a, format!("unknown attribute {other:?}")),
            }
        }
    }
    Ok(Function {
        name: parse_name(name, cx)?.to_string(),
        params,
        ret,
        blocks: Vec::new(),
        insts: Vec::new(),
        attrs,
        linkage,
    })
}

/// `@name = space [N x i8] const? init=... linkage=...`
fn parse_global(s: &str, cx: &Cx<'_>) -> PResult<Global> {
    let (name, rest) = s
        .strip_prefix('@')
        .and_then(|r| r.split_once('='))
        .ok_or_else(|| cx.error("global needs `=`"))?;
    let mut toks = rest.split_whitespace();
    let (Some(space), Some(size), Some("x"), Some("i8]")) =
        (toks.next(), toks.next(), toks.next(), toks.next())
    else {
        return cx.err("malformed global");
    };
    let size = size
        .trim_start_matches('[')
        .parse::<u64>()
        .or_else(|_| cx.err_at(size, "bad global size"))?;
    let mut g = Global::new(
        parse_name(name, cx)?,
        parse_space(space, cx)?,
        size,
        Init::Zero,
    );
    for t in toks {
        if t == "const" {
            g.constant = true;
        } else if let Some(v) = t.strip_prefix("init=") {
            g.init = if v == "zero" {
                Init::Zero
            } else if let Some(n) = v.strip_prefix("i64:") {
                Init::I64(n.parse::<i64>().or_else(|_| cx.err_at(t, "bad i64 init"))?)
            } else if let Some(h) = v.strip_prefix("hex:") {
                let nibble = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
                match h.bytes().map(nibble).collect::<Option<Vec<u8>>>() {
                    Some(d) if d.len() % 2 == 0 => Init::Bytes(
                        d.chunks_exact(2)
                            .map(|p| p.iter().fold(0, |acc, n| acc << 4 | n))
                            .collect(),
                    ),
                    _ => return cx.err_at(t, "bad hex init"),
                }
            } else {
                return cx.err_at(t, format!("bad init {v:?}"));
            };
        } else if let Some(l) = t.strip_prefix("linkage=") {
            g.linkage = match l {
                "internal" => Linkage::Internal,
                "external" => Linkage::External,
                other => return cx.err_at(t, format!("bad linkage {other:?}")),
            };
        }
    }
    Ok(g)
}

/// One function's result ids: printed `%N` → dense instruction id, sorted
/// by `N` for binary search. Printed ids almost always ascend already, so
/// building this is a push per definition — measurably cheaper than
/// hashing each one.
#[derive(Default)]
struct ResultIds {
    /// `(printed id, dense id, defining line)`.
    defs: Vec<(u32, InstId, usize)>,
}

impl ResultIds {
    /// Sort, and reject an id defined twice (at its later definition: the
    /// sort is stable).
    fn finish(&mut self) -> PResult<()> {
        self.defs.sort_by_key(|d| d.0);
        let twice = |w: &&[(u32, InstId, usize)]| matches!(w, [a, b] if a.0 == b.0);
        match self.defs.windows(2).find(twice) {
            Some([_, (n, _, line)]) => Err(ParseError {
                line: *line,
                col: 0,
                message: format!("duplicate result id %{n}"),
            }),
            _ => Ok(()),
        }
    }

    fn get(&self, n: u32) -> Option<InstId> {
        let at = self.defs.binary_search_by_key(&n, |d| d.0).ok()?;
        self.defs.get(at).map(|d| d.1)
    }
}

/// Everything a function body can refer to by name, complete before any
/// body is read.
struct Decls {
    /// Name, globals, kernels and every function's signature; bodies empty.
    module: Module,
    /// `@name` → the operand it denotes and its defining line. Globals and
    /// functions share the one namespace the printer emits.
    symbols: HashMap<String, (Operand, usize)>,
    /// Per function: printed result id `%N` → dense instruction id. Every
    /// instruction takes the next id in printed order, void ones too; this
    /// is what makes the parser reproduce a normalized arena exactly.
    result_ids: Vec<ResultIds>,
}

impl Decls {
    fn define(&mut self, name: &str, what: Operand, cx: &Cx<'_>) -> PResult<()> {
        if let Some((prev, first)) = self.symbols.get(name) {
            let kind = match prev {
                Operand::Global(_) => "global",
                _ => "function",
            };
            return cx.err(format!(
                "duplicate symbol @{name}: already defined as a {kind} at line {first}"
            ));
        }
        self.symbols.insert(name.to_string(), (what, cx.line));
        Ok(())
    }
}

/// First pass: the module-level structure and every name.
fn scan_decls(text: &str, strict: bool) -> PResult<Decls> {
    let mut d = Decls {
        module: Module::new("parsed"),
        symbols: HashMap::new(),
        result_ids: Vec::new(),
    };
    let mut kernels = Vec::new();
    let mut in_func = false;
    let mut next_inst = 0;
    let mut saw_any = false;
    let mut saw_header = false;

    for (cx, s) in lines(text) {
        let line = classify(s, in_func);
        if strict && !saw_header && !matches!(line, Line::Version(_)) {
            return cx.err(format!(
                "strict mode: first line must be the `; nzomp-ir v{FORMAT_VERSION}` header"
            ));
        }
        match line {
            Line::Version(tok) => {
                match tok.strip_prefix('v').and_then(|n| n.parse::<u32>().ok()) {
                    Some(v) if v == FORMAT_VERSION && !saw_any => saw_header = true,
                    Some(v) if v == FORMAT_VERSION => {
                        return cx.err("version header must be the first line");
                    }
                    Some(v) => {
                        return cx.err_at(
                            tok,
                            format!("unsupported format version v{v} (this parser reads v{FORMAT_VERSION})"),
                        );
                    }
                    None => return cx.err_at(tok, format!("malformed version header {tok:?}")),
                }
            }
            Line::Comment => {}
            Line::ModuleName(name) if is_module_name(name) => d.module.name = name.to_string(),
            Line::ModuleName(name) => return cx.err_at(name, format!("bad module name {name:?}")),
            Line::Kernel(rest) => {
                let (name, mode) = rest
                    .split_once(" mode=")
                    .ok_or_else(|| cx.error_at(rest, "kernel needs mode"))?;
                let mode = match mode.trim() {
                    "Generic" => ExecMode::Generic,
                    "Spmd" => ExecMode::Spmd,
                    other => return cx.err_at(other, format!("unknown exec mode {other:?}")),
                };
                kernels.push((cx, name.trim(), mode));
            }
            Line::Global => {
                let g = parse_global(s, &cx)?;
                let id = GlobalId(d.module.globals.len() as u32);
                d.define(&g.name, Operand::Global(id), &cx)?;
                d.module.add_global(g);
            }
            Line::Declare | Line::Define if in_func => {
                return cx.err("nested `define` or `declare` (missing `}`?)");
            }
            Line::Declare | Line::Define => {
                let f = parse_header(s, &cx)?;
                let fr = FuncRef(d.module.funcs.len() as u32);
                d.define(&f.name, Operand::Func(fr), &cx)?;
                d.module.add_function(f);
                d.result_ids.push(ResultIds::default());
                in_func = matches!(line, Line::Define);
                next_inst = 0;
            }
            Line::Close if in_func => {
                in_func = false;
                if let Some(ids) = d.result_ids.last_mut() {
                    ids.finish()?;
                }
            }
            Line::Close => return cx.err("stray `}`"),
            Line::Inst if in_func => {
                let (result, _) = split_result(s, &cx)?;
                if let (Some(n), Some(ids)) = (result, d.result_ids.last_mut()) {
                    ids.defs.push((n, InstId(next_inst), cx.line));
                }
                next_inst += 1;
            }
            // Labels and terminators: the body pass reads them.
            _ if in_func => {}
            _ => return cx.err(format!("unexpected line outside function: {s:?}")),
        }
        saw_any = true;
    }
    if in_func {
        return Err(ParseError {
            line: text.lines().count(),
            col: 0,
            message: "unterminated function".into(),
        });
    }
    for (cx, name, mode) in kernels {
        match d.symbols.get(name) {
            Some((Operand::Func(fr), _)) => d.module.add_kernel(*fr, mode),
            _ => return cx.err(format!("kernel @{name} not defined")),
        }
    }
    Ok(d)
}

/// One body line: where it is, and what its operands may refer to.
struct BodyLine<'a> {
    cx: Cx<'a>,
    symbols: &'a HashMap<String, (Operand, usize)>,
    result_ids: &'a ResultIds,
}

impl BodyLine<'_> {
    /// Parse one operand token like `%5`, `%arg0`, `i64 -3`, `f64 2.5`, `@name`.
    fn operand(&self, tok: &str) -> PResult<Operand> {
        let (cx, tok) = (&self.cx, tok.trim());
        if let Some(rest) = tok.strip_prefix("%arg") {
            return rest
                .parse::<u32>()
                .map(Operand::Param)
                .or_else(|_| cx.err_at(tok, format!("bad param {tok:?}")));
        }
        if let Some(rest) = tok.strip_prefix('%') {
            let n = rest
                .parse::<u32>()
                .or_else(|_| cx.err_at(tok, format!("bad value id {tok:?}")))?;
            return match self.result_ids.get(n) {
                Some(id) => Ok(Operand::Inst(id)),
                None => cx.err_at(tok, format!("unknown value %{n}")),
            };
        }
        if let Some(name) = tok.strip_prefix('@') {
            return match self.symbols.get(name) {
                Some((op, _)) => Ok(*op),
                None => cx.err_at(tok, format!("unknown symbol @{name}")),
            };
        }
        if let Some((ty_s, val)) = tok.split_once(' ') {
            let (ty, val) = (parse_ty(ty_s, cx)?, val.trim());
            if ty == Ty::F64 {
                return parse_f64(val, cx).map(Operand::ConstF);
            }
            return val
                .parse::<i64>()
                .map(|v| Operand::ConstI(v, ty))
                .or_else(|_| cx.err_at(val, format!("bad int constant {val:?}")));
        }
        cx.err_at(tok, format!("cannot parse operand {tok:?}"))
    }

    /// A comma-separated operand list of any length.
    fn operand_list(&self, s: &str) -> PResult<Vec<Operand>> {
        split_args(s).map(|a| self.operand(a)).collect()
    }

    /// Exactly `N` comma-separated operands.
    fn operands<const N: usize>(&self, s: &str, what: &str) -> PResult<[Operand; N]> {
        let arity = || self.cx.error_at(s, format!("{what} needs {N} operand(s)"));
        let mut toks = split_args(s);
        let mut out = [Operand::NULL; N];
        for slot in &mut out {
            *slot = self.operand(toks.next().ok_or_else(arity)?)?;
        }
        match toks.next() {
            None => Ok(out),
            Some(_) => Err(arity()),
        }
    }

    /// Parse the right-hand side of an instruction line. Operator spellings
    /// are the `mnemonic()` tables of `inst.rs`.
    fn inst(&self, s: &str) -> PResult<Inst> {
        let cx = &self.cx;
        let unknown = || cx.error_at(s, format!("unknown opcode: cannot parse instruction {s:?}"));
        // Intrinsics: `name(args)`.
        if let Some((name, args)) = s.strip_suffix(')').and_then(|s| s.split_once('(')) {
            if let Some(intr) = Intrinsic::from_mnemonic(name.trim_end()) {
                let args = self.operand_list(args)?;
                return Ok(Inst::Intr { intr, args });
            }
        }
        // Everything else: `<opcode>[.<suffix>] <rest>`.
        let (head, rest) = s.split_once(' ').ok_or_else(unknown)?;
        let (opcode, suffix) = head.split_once('.').unwrap_or((head, ""));
        Ok(match (opcode, suffix) {
            ("load", "") => {
                let (ty_s, ptr) = rest
                    .split_once(',')
                    .ok_or_else(|| cx.error_at(rest, "load needs `ty, ptr`"))?;
                Inst::Load {
                    ty: parse_ty(ty_s.trim(), cx)?,
                    ptr: self.operand(ptr)?,
                }
            }
            // `store ty VALUE, PTR` — a constant value starts with its own
            // type token.
            ("store", "") => {
                let (ty_s, rest) = rest
                    .trim_start()
                    .split_once(' ')
                    .ok_or_else(|| cx.error_at(rest, "store needs `ty value`"))?;
                let [value, ptr] = self.operands(rest, "store")?;
                let ty = parse_ty(ty_s, cx)?;
                Inst::Store { ty, ptr, value }
            }
            ("ptradd", "") => {
                let [base, offset] = self.operands(rest, "ptradd")?;
                Inst::PtrAdd { base, offset }
            }
            ("alloca", "") => Inst::Alloca {
                size: rest
                    .trim()
                    .parse::<u64>()
                    .or_else(|_| cx.err_at(rest.trim(), "bad alloca size"))?,
            },
            ("call", "") => {
                let (ret_s, rest) = rest
                    .split_once(' ')
                    .ok_or_else(|| cx.error_at(rest, "call needs ret type"))?;
                let (callee, args) = rest
                    .split_once('(')
                    .ok_or_else(|| cx.error_at(rest, "call needs `(`"))?;
                let args = args
                    .strip_suffix(')')
                    .ok_or_else(|| cx.error_at(rest, "call needs `)`"))?;
                Inst::Call {
                    callee: self.operand(callee)?,
                    args: self.operand_list(args)?,
                    ret: parse_ret_ty(ret_s, cx)?,
                }
            }
            ("phi", "") => {
                let (ty_s, rest) = rest.split_once(' ').unwrap_or((rest, ""));
                let incoming = |part: &str| {
                    let (bb, val) = part
                        .strip_prefix('[')
                        .and_then(|p| p.strip_suffix(']'))
                        .and_then(|p| p.split_once(':'))
                        .ok_or_else(|| cx.error_at(part, "phi incoming needs `[bb: val]`"))?;
                    Ok(PhiIncoming {
                        pred: parse_block_ref(bb, cx)?,
                        value: self.operand(val)?,
                    })
                };
                Inst::Phi {
                    ty: parse_ty(ty_s, cx)?,
                    incomings: split_args(rest).map(incoming).collect::<PResult<_>>()?,
                }
            }
            ("select", ty_s) => {
                let [cond, if_true, if_false] = self.operands(rest, "select")?;
                Inst::Select {
                    ty: parse_ty(ty_s, cx)?,
                    cond,
                    if_true,
                    if_false,
                }
            }
            ("cmp", suffix) => {
                let (pred_s, ty_s) = suffix
                    .split_once('.')
                    .ok_or_else(|| cx.error_at(head, "cmp needs pred.ty"))?;
                let [lhs, rhs] = self.operands(rest, "cmp")?;
                Inst::Cmp {
                    pred: Pred::from_mnemonic(pred_s)
                        .ok_or_else(|| cx.error_at(pred_s, format!("bad predicate {pred_s:?}")))?,
                    ty: parse_ty(ty_s, cx)?,
                    lhs,
                    rhs,
                }
            }
            ("atomic", suffix) => {
                let (op_s, ty_s) = suffix
                    .split_once('.')
                    .ok_or_else(|| cx.error_at(head, "atomic needs op.ty"))?;
                let [ptr, value] = self.operands(rest, "atomic")?;
                Inst::Atomic {
                    op: AtomicOp::from_mnemonic(op_s)
                        .ok_or_else(|| cx.error_at(op_s, format!("bad atomic op {op_s:?}")))?,
                    ty: parse_ty(ty_s, cx)?,
                    ptr,
                    value,
                }
            }
            ("cas", ty_s) => {
                let [ptr, expected, new] = self.operands(rest, "cas")?;
                Inst::Cas {
                    ty: parse_ty(ty_s, cx)?,
                    ptr,
                    expected,
                    new,
                }
            }
            // `<CastKind> <op> to <ty>`, `<BinOp>.<ty> a, b`, `<UnOp>.<ty> a`.
            _ => {
                if let (Some(kind), "") = (CastKind::from_mnemonic(opcode), suffix) {
                    let (arg, to) = rest
                        .rsplit_once(" to ")
                        .ok_or_else(|| cx.error_at(rest, "cast needs `to <ty>`"))?;
                    Inst::Cast {
                        kind,
                        to: parse_ty(to.trim(), cx)?,
                        arg: self.operand(arg)?,
                    }
                } else if let Some(op) = BinOp::from_mnemonic(opcode) {
                    let [lhs, rhs] = self.operands(rest, "binary op")?;
                    let ty = parse_ty(suffix, cx)?;
                    Inst::Bin { op, ty, lhs, rhs }
                } else if let Some(op) = UnOp::from_mnemonic(opcode) {
                    let [arg] = self.operands(rest, "unary op")?;
                    let ty = parse_ty(suffix, cx)?;
                    Inst::Un { op, ty, arg }
                } else {
                    return Err(unknown());
                }
            }
        })
    }
}

/// Second pass over one function: read body lines up to the closing `}`
/// straight into `f`'s blocks and instruction arena.
fn parse_body<'a>(
    lines: &mut impl Iterator<Item = (Cx<'a>, &'a str)>,
    symbols: &HashMap<String, (Operand, usize)>,
    result_ids: &ResultIds,
    f: &mut Function,
) -> PResult<()> {
    // The block being filled, if a label has opened one.
    let mut open: Option<Vec<InstId>> = None;
    for (cx, s) in lines {
        let line = BodyLine {
            cx,
            symbols,
            result_ids,
        };
        let term = match classify(s, true) {
            Line::Close => {
                return match open {
                    None => Ok(()),
                    Some(insts) => cx.err(format!(
                        "bb{} has no terminator ({} insts)",
                        f.blocks.len(),
                        insts.len()
                    )),
                };
            }
            Line::Label(label) => {
                let bid = parse_block_ref(label, &cx)?;
                if let Some(insts) = &open {
                    return cx.err(format!(
                        "bb{} not terminated before new label ({} insts)",
                        f.blocks.len(),
                        insts.len()
                    ));
                }
                // The printer lists every block, in index order.
                if bid.index() != f.blocks.len() {
                    return cx.err_at(
                        label,
                        format!("block label out of order: expected bb{}", f.blocks.len()),
                    );
                }
                open = Some(Vec::new());
                continue;
            }
            Line::Inst => {
                let Some(insts) = open.as_mut() else {
                    return cx.err("instruction outside a block");
                };
                let (result, body) = split_result(s, &cx)?;
                let inst = line.inst(body)?;
                if result.is_some() && inst.result_ty().is_none() {
                    return cx.err("void instruction cannot define a value");
                }
                insts.push(f.add_inst(inst));
                continue;
            }
            Line::Ret("void") => Term::Ret(None),
            Line::Ret(v) => Term::Ret(Some(line.operand(v)?)),
            Line::Br(args) => match split_args(args).collect::<Vec<_>>().as_slice() {
                [b] => Term::Br(parse_block_ref(b, &cx)?),
                [cond, yes, no] => Term::CondBr {
                    cond: line.operand(cond)?,
                    if_true: parse_block_ref(yes, &cx)?,
                    if_false: parse_block_ref(no, &cx)?,
                },
                _ => return cx.err_at(args, "br needs 1 or 3 arguments"),
            },
            Line::Unreachable => Term::Unreachable,
            // Comments and notes; `scan_decls` rejected the rest.
            _ => continue,
        };
        let Some(insts) = open.take() else {
            return cx.err("instruction outside a block");
        };
        f.blocks.push(Block { insts, term });
    }
    Ok(())
}

/// Lenient parse: the `; nzomp-ir vN` header is optional (a *wrong*
/// version is still rejected). Use [`parse_module_strict`] for on-disk
/// `.nzir` files.
pub fn parse_module(text: &str) -> PResult<Module> {
    parse_module_inner(text, false)
}

/// Strict parse of the on-disk `.nzir` format: the first non-blank line
/// must be the `; nzomp-ir v1` version header.
pub fn parse_module_strict(text: &str) -> PResult<Module> {
    parse_module_inner(text, true)
}

fn parse_module_inner(text: &str, strict: bool) -> PResult<Module> {
    let Decls {
        mut module,
        symbols,
        result_ids,
    } = scan_decls(text, strict)?;
    // Functions in header order, each with its result-id table: the same
    // order `scan_decls` met the `declare`/`define` lines in.
    let mut funcs = module.funcs.iter_mut().zip(&result_ids);
    let mut lines = lines(text);
    while let Some((_, s)) = lines.next() {
        match classify(s, false) {
            Line::Declare => drop(funcs.next()),
            Line::Define => {
                if let Some((f, ids)) = funcs.next() {
                    parse_body(&mut lines, &symbols, ids, f)?;
                }
            }
            _ => {}
        }
    }
    Ok(module)
}
