//! Modules: functions + globals + kernel entry points.

use crate::func::{Function, Linkage};
use crate::global::{Global, GlobalId};
use crate::types::Space;

/// Dense index of a function within its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncRef(pub u32);

impl FuncRef {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kernel execution mode (paper §II-C). Generic-mode kernels run the
/// fork-join state machine; SPMD kernels start all threads in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    Generic,
    Spmd,
}

/// Grid shape a kernel is launched with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchDims {
    pub teams: u32,
    pub threads_per_team: u32,
}

/// Kernel entry-point metadata (mirrors the named-symbol + exec-mode pair
/// the LLVM offload plugin loads, §II-B).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Kernel {
    pub func: FuncRef,
    pub exec_mode: ExecMode,
}

/// A translation unit / linked binary image.
///
/// `PartialEq` is structural, and deliberately so: the printer/parser
/// round-trip property (`parse(print(m)) == m`) is checked against it.
/// With `Eq + Hash` it is the one module identity (the compile cache's key).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Module {
    pub name: String,
    pub funcs: Vec<Function>,
    pub globals: Vec<Global>,
    pub kernels: Vec<Kernel>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    pub fn add_function(&mut self, f: Function) -> FuncRef {
        self.funcs.push(f);
        FuncRef((self.funcs.len() - 1) as u32)
    }

    pub fn add_global(&mut self, g: Global) -> GlobalId {
        self.globals.push(g);
        GlobalId((self.globals.len() - 1) as u32)
    }

    pub fn add_kernel(&mut self, func: FuncRef, exec_mode: ExecMode) {
        self.kernels.push(Kernel { func, exec_mode });
    }

    pub fn func(&self, r: FuncRef) -> &Function {
        &self.funcs[r.index()]
    }

    pub fn func_mut(&mut self, r: FuncRef) -> &mut Function {
        &mut self.funcs[r.index()]
    }

    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    pub fn find_func(&self, name: &str) -> Option<FuncRef> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncRef(i as u32))
    }

    pub fn find_global(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The kernel entry for `func`, if it is one.
    pub fn kernel_of(&self, func: FuncRef) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.func == func)
    }

    pub fn set_exec_mode(&mut self, func: FuncRef, mode: ExecMode) {
        if let Some(k) = self.kernels.iter_mut().find(|k| k.func == func) {
            k.exec_mode = mode;
        }
    }

    /// Total bytes of shared-space globals: the static shared-memory
    /// footprint ("SMem" in Fig. 11) before the launcher adds dynamic
    /// shared memory.
    pub fn shared_memory_bytes(&self) -> u64 {
        self.globals
            .iter()
            .filter(|g| g.space == Space::Shared)
            .map(|g| g.size)
            .sum()
    }

    /// Total live instruction count across all function bodies.
    pub fn live_inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.live_inst_count()).sum()
    }

    /// Are all function bodies in normal form (dense instruction arenas in
    /// block order)? See [`Function::is_normalized`].
    pub fn is_normalized(&self) -> bool {
        self.funcs.iter().all(Function::is_normalized)
    }

    /// Renumber every function into normal form ([`Function::renumber`]).
    /// After this, `parse(print(m)) == m` holds *exactly* — the round-trip
    /// contract of the versioned text format (`docs/ir-format.md`).
    /// Returns whether any function changed.
    pub fn renumber(&mut self) -> bool {
        let mut changed = false;
        for f in &mut self.funcs {
            changed |= f.renumber();
        }
        changed
    }

    /// Mark every non-kernel definition internal (paper §IV-A1 performs
    /// aggressive internalization; we model the effect directly since the
    /// whole image is one module after linking). Returns whether any
    /// linkage actually changed.
    pub fn internalize(&mut self) -> bool {
        let kernel_funcs: Vec<FuncRef> = self.kernels.iter().map(|k| k.func).collect();
        let mut changed = false;
        for (i, f) in self.funcs.iter_mut().enumerate() {
            if !kernel_funcs.contains(&FuncRef(i as u32))
                && !f.is_declaration()
                && f.linkage != Linkage::Internal
            {
                f.linkage = Linkage::Internal;
                changed = true;
            }
        }
        for g in &mut self.globals {
            if g.linkage != Linkage::Internal {
                g.linkage = Linkage::Internal;
                changed = true;
            }
        }
        changed
    }
}
