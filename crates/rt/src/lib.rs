//! `nzomp-rt` — the OpenMP GPU device runtimes, built as IR libraries.
//!
//! Two runtimes are provided, mirroring the paper's evaluation columns:
//!
//! * [`modern`] — the co-designed runtime of paper §III: SPMD-mode flag in
//!   shared memory, team ICV state, on-demand thread ICV states behind a
//!   pointer array, a shared-memory stack with device-malloc fallback,
//!   combined `noChunkImpl` worksharing (Fig. 5), conditional-pointer
//!   broadcast writes with post-barrier assumptions (Fig. 7b/8b), and
//!   zero-overhead debug machinery (§III-G).
//! * [`legacy`] — a faithful caricature of the pre-paper runtime: per-thread
//!   task descriptors written by every thread, memory-carried worksharing
//!   bounds (`for_static_init`), unaligned barriers everywhere, a
//!   data-sharing stack for globalization, and no assumptions — the design
//!   itself defeats the compiler, which is the paper's co-design argument.
//!
//! Both are plain [`nzomp_ir::Module`]s: the frontend links one of them into
//! the application module and the optimizer folds whatever the design lets
//! it fold.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod abi;
pub mod helpers;
pub mod legacy;
pub mod modern;

use std::sync::OnceLock;

use nzomp_ir::module::FuncRef;
use nzomp_ir::{Function, Init, Module, Ty};

pub use abi::RtConfig;

/// Which device runtime to link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeFlavor {
    /// The pre-paper runtime ("Old RT").
    Legacy,
    /// The co-designed runtime of §III ("New RT").
    Modern,
}

/// The library itself: a function of the flavor and, for the legacy one,
/// of whether the data-sharing stack is reserved — never of an `RtConfig`.
fn build(flavor: RuntimeFlavor, needs_data_sharing: bool) -> Module {
    match flavor {
        RuntimeFlavor::Modern => modern::build(),
        RuntimeFlavor::Legacy => legacy::build(needs_data_sharing),
    }
}

/// Set the three §III-F/G flag globals of a runtime module to `cfg`'s
/// values, by name. The legacy runtime has none, so this leaves it as built.
fn configure(m: &mut Module, cfg: &RtConfig) {
    for (name, value) in [
        (abi::G_DEBUG_KIND, cfg.debug_kind),
        (abi::G_ASSUME_TEAMS_OVERSUB, i64::from(cfg.assume_teams_oversubscription)),
        (abi::G_ASSUME_THREADS_OVERSUB, i64::from(cfg.assume_threads_oversubscription)),
    ] {
        if let Some(g) = m.find_global(name) {
            m.globals[g.index()].init = Init::I64(value);
        }
    }
}

/// Build the runtime library module for `flavor` from scratch and configure
/// it — the definition of what a compile links, and what `nzbench` times as
/// `rt.build_*_us`. Compiles link [`runtime_library`]'s prebuilt copy instead.
///
/// `needs_data_sharing` only matters for the legacy flavor: kernels that
/// globalize local variables get the legacy data-sharing stack reserved in
/// shared memory (this is why Old-RT SMem differs between XSBench and
/// RSBench in Fig. 11).
pub fn build_runtime(flavor: RuntimeFlavor, cfg: &RtConfig, needs_data_sharing: bool) -> Module {
    let mut m = build(flavor, needs_data_sharing);
    configure(&mut m, cfg);
    m
}

/// The runtime library for `flavor`, prebuilt: one of three modules (modern,
/// legacy, legacy with the data-sharing stack), each built on first request,
/// handed out as a copy with `cfg` patched onto its flag globals (§II-B ships
/// one device runtime as a bitcode library; §III-F/G emit the flags as
/// constant globals where it meets the application). The caller may link and
/// mutate the copy. Always `==` a fresh `build_runtime`.
pub fn runtime_library(flavor: RuntimeFlavor, cfg: &RtConfig, needs_data_sharing: bool) -> Module {
    static LIBRARY: [OnceLock<Module>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    // Only the legacy runtime looks at the flag.
    let needs_data_sharing = needs_data_sharing && flavor == RuntimeFlavor::Legacy;
    let slot = match flavor {
        RuntimeFlavor::Modern => 0,
        RuntimeFlavor::Legacy => 1 + usize::from(needs_data_sharing),
    };
    let mut m = LIBRARY[slot].get_or_init(|| build(flavor, needs_data_sharing)).clone();
    configure(&mut m, cfg);
    m
}

/// Signature of a public runtime entry point ([`abi::API`]'s row), for
/// emitting declarations in application modules. `None` for unknown names.
pub fn api_signature(name: &str) -> Option<(Vec<Ty>, Option<Ty>)> {
    let (_, params, ret) = abi::API.iter().find(|(n, ..)| *n == name)?;
    Some((params.to_vec(), *ret))
}

/// Find-or-declare a runtime entry point in a module.
///
/// # Panics
/// On a name [`abi::API`] does not list: the callers are the frontend and
/// the runtime builders, which only pass `abi` constants, so this is a
/// builder-time programming error like a definition that disagrees with its
/// declaration.
pub fn declare_api(m: &mut Module, name: &str) -> FuncRef {
    if let Some(f) = m.find_func(name) {
        return f;
    }
    let (params, ret) =
        api_signature(name).unwrap_or_else(|| panic!("unknown runtime API @{name}"));
    m.add_function(Function::declaration(name, params, ret))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of names is closed: every function of a built runtime was
    /// declared from the table (`declare_api` panics otherwise) and defined,
    /// and the table has no row, or second row, for a name neither defines.
    #[test]
    fn the_abi_table_lists_exactly_what_the_builders_define() {
        let built = [build(RuntimeFlavor::Modern, false), build(RuntimeFlavor::Legacy, true)];
        let defined: Vec<&str> = built.iter().flat_map(|m| &m.funcs).map(|f| f.name.as_str()).collect();
        for f in built.iter().flat_map(|m| &m.funcs) {
            assert!(!f.is_declaration(), "@{} is declared and never defined", f.name);
            assert!(api_signature(&f.name).is_some(), "@{} is defined, the table lacks it", f.name);
        }
        for (i, (name, ..)) in abi::API.iter().enumerate() {
            assert!(defined.contains(name), "the table lists @{name}, no builder defines it");
            assert!(abi::API[..i].iter().all(|(n, ..)| n != name), "@{name} has two rows");
        }
    }

    #[test]
    #[should_panic(expected = "@__kmpc_barrier_old signature")]
    fn a_legacy_definition_that_disagrees_with_the_table_panics_at_build() {
        let mut m = Module::new("t");
        declare_api(&mut m, abi::OLD_BARRIER);
        let mut b = nzomp_ir::FuncBuilder::new(abi::OLD_BARRIER, vec![Ty::I64], None);
        b.ret(None);
        helpers::install(&mut m, b.finish());
    }
}
