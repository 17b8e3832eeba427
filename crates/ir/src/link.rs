//! Module linking: merge the device runtime (an IR library, ref. §II-B:
//! "the GPU runtime library is first linked into the user code as an LLVM
//! bytecode library and then optimized together with the user application")
//! into the application module, resolving declarations to definitions.

use std::fmt;

use crate::global::GlobalId;
use crate::module::{FuncRef, Module};
use crate::value::Operand;

#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    DuplicateFunction(String),
    DuplicateGlobal(String),
    SignatureMismatch(String),
    /// A `src` kernel names a function index the module does not contain.
    MalformedKernel(u32),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateFunction(n) => write!(f, "duplicate definition of function @{n}"),
            LinkError::DuplicateGlobal(n) => write!(f, "duplicate definition of global @{n}"),
            LinkError::SignatureMismatch(n) => {
                write!(f, "declaration/definition signature mismatch for @{n}")
            }
            LinkError::MalformedKernel(i) => {
                write!(f, "kernel references missing function index {i}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Link `src` into `dst`. Declarations in either module are resolved against
/// definitions in the other; remaining unresolved declarations are allowed
/// (they fail at execution time if actually called). `src` is consumed: its
/// globals and function bodies move into `dst`, nothing is copied.
pub fn link(dst: &mut Module, src: Module) -> Result<(), LinkError> {
    // --- globals: names must be unique across modules -------------------
    // `global_map[i]` / `func_map[i]` is where src's i-th symbol landed.
    let mut global_map: Vec<GlobalId> = Vec::with_capacity(src.globals.len());
    for g in src.globals {
        if dst.find_global(&g.name).is_some() {
            return Err(LinkError::DuplicateGlobal(g.name));
        }
        global_map.push(dst.add_global(g));
    }

    // --- functions -------------------------------------------------------
    let mut func_map: Vec<FuncRef> = Vec::with_capacity(src.funcs.len());
    // dst slots that received a body from src.
    let mut installed: Vec<FuncRef> = Vec::new();
    for sf in src.funcs {
        let slot = match dst.find_func(&sf.name) {
            Some(existing) => {
                let df = dst.func_mut(existing);
                if df.params != sf.params || df.ret != sf.ret {
                    return Err(LinkError::SignatureMismatch(sf.name));
                }
                match (df.is_declaration(), sf.is_declaration()) {
                    // src only declares; resolve to dst's slot.
                    (_, true) => {}
                    // dst declared, src defines: the body moves in.
                    (true, false) => {
                        df.blocks = sf.blocks;
                        df.insts = sf.insts;
                        df.attrs = sf.attrs;
                        df.linkage = sf.linkage;
                        installed.push(existing);
                    }
                    (false, false) => return Err(LinkError::DuplicateFunction(sf.name)),
                }
                existing
            }
            None => {
                let defined = !sf.is_declaration();
                let new_ref = dst.add_function(sf);
                if defined {
                    installed.push(new_ref);
                }
                new_ref
            }
        };
        func_map.push(slot);
    }

    // Remap Func/Global operands in every body we pulled from src.
    // (An index src itself does not have is left as it is.)
    let remap = |op: Operand| -> Operand {
        match op {
            Operand::Func(f) => Operand::Func(*func_map.get(f.index()).unwrap_or(&f)),
            Operand::Global(g) => Operand::Global(*global_map.get(g.index()).unwrap_or(&g)),
            other => other,
        }
    };
    for &dst_ref in &installed {
        dst.func_mut(dst_ref).map_operands(remap);
    }

    // Kernels from src (rare, but allowed). Every src function index is in
    // `func_map`, so a miss means the kernel table itself is malformed.
    for k in &src.kernels {
        let func = *func_map
            .get(k.func.index())
            .ok_or(LinkError::MalformedKernel(k.func.0))?;
        dst.add_kernel(func, k.exec_mode);
    }
    Ok(())
}
