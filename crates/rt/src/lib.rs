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

pub use abi::RtConfig;

/// Which device runtime to link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeFlavor {
    /// The pre-paper runtime ("Old RT").
    Legacy,
    /// The co-designed runtime of §III ("New RT").
    Modern,
}

/// Build the runtime library module for `flavor` from scratch — the
/// definition of the library, and what `nzbench` times as `rt.build_*_us`.
/// Compiles link [`runtime_library`]'s prebuilt copy of it instead.
///
/// `needs_data_sharing` only matters for the legacy flavor: kernels that
/// globalize local variables get the legacy data-sharing stack reserved in
/// shared memory (this is why Old-RT SMem differs between XSBench and
/// RSBench in Fig. 11).
pub fn build_runtime(
    flavor: RuntimeFlavor,
    cfg: &RtConfig,
    needs_data_sharing: bool,
) -> nzomp_ir::Module {
    match flavor {
        RuntimeFlavor::Modern => modern::build(cfg),
        RuntimeFlavor::Legacy => legacy::build(cfg, needs_data_sharing),
    }
}

/// How many distinct runtime builds [`runtime_library`] keeps. Every key the
/// pipeline produces fits with room to spare (two flavors, data sharing on
/// or off, the `BuildConfig` oversubscription pairs, four debug kinds), and
/// the store never outgrows this whatever `RtConfig`s a caller invents.
const LIBRARY_SLOTS: usize = 32;

type LibraryKey = (RuntimeFlavor, RtConfig, bool);

static LIBRARY: std::sync::Mutex<Vec<(LibraryKey, nzomp_ir::Module)>> =
    std::sync::Mutex::new(Vec::new());

/// The runtime library for `flavor`, prebuilt: [`build_runtime`]'s module,
/// built on first request and handed out as a copy the caller may link and
/// mutate (§II-B ships the device runtime as a bytecode library; it is not
/// regenerated per translation unit). Always `==` a fresh `build_runtime`.
///
/// The store holds at most [`LIBRARY_SLOTS`] builds; a key beyond that is
/// served by a fresh build each time, which is what every compile used to
/// pay.
pub fn runtime_library(
    flavor: RuntimeFlavor,
    cfg: &RtConfig,
    needs_data_sharing: bool,
) -> nzomp_ir::Module {
    // Only the legacy runtime looks at the flag.
    let key = (
        flavor,
        *cfg,
        needs_data_sharing && flavor == RuntimeFlavor::Legacy,
    );
    // The only write is the push of a finished build, so a panic elsewhere
    // while holding the lock leaves the store valid.
    let mut library = LIBRARY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, built)) = library.iter().find(|(k, _)| *k == key) {
        return built.clone();
    }
    let built = build_runtime(flavor, cfg, needs_data_sharing);
    if library.len() < LIBRARY_SLOTS {
        library.push((key, built.clone()));
    }
    built
}

/// Signature of a public runtime entry point, for emitting declarations in
/// application modules. `None` for unknown names.
pub fn api_signature(name: &str) -> Option<(Vec<nzomp_ir::Ty>, Option<nzomp_ir::Ty>)> {
    use nzomp_ir::Ty::{Ptr, I1, I64};
    let sig = match name {
        abi::NZOMP_TRACE => (vec![], None),
        abi::NZOMP_ASSERT => (vec![I1], None),
        abi::SYNCTHREADS_ALIGNED | abi::KMPC_BARRIER => (vec![], None),
        abi::TARGET_INIT => (vec![I64], Some(I64)),
        abi::TARGET_DEINIT => (vec![I64], None),
        abi::OMP_GET_THREAD_NUM
        | abi::OMP_GET_NUM_THREADS
        | abi::OMP_GET_LEVEL
        | abi::OMP_GET_TEAM_NUM
        | abi::OMP_GET_NUM_TEAMS => (vec![], Some(I64)),
        abi::ALLOC_SHARED => (vec![I64], Some(Ptr)),
        abi::FREE_SHARED => (vec![Ptr, I64], None),
        abi::PARALLEL_51 | "__kmpc_parallel_spmd" => (vec![Ptr, Ptr], None),
        abi::WORKER_LOOP | abi::OLD_WORKER_LOOP => (vec![], None),
        abi::DIST_PAR_FOR_LOOP | abi::DISTRIBUTE_STATIC_LOOP => (vec![Ptr, Ptr, I64], None),
        abi::FOR_STATIC_LOOP => (vec![Ptr, Ptr, I64, I64], None),
        abi::OLD_TARGET_INIT => (vec![I64], Some(I64)),
        abi::OLD_TARGET_DEINIT => (vec![I64], None),
        abi::OLD_PARALLEL_PREPARE => (vec![Ptr, Ptr], None),
        abi::OLD_PARALLEL_END => (vec![], None),
        abi::OLD_FOR_STATIC_INIT | abi::OLD_DISTRIBUTE_INIT => (vec![Ptr, Ptr, Ptr, I64], None),
        abi::OLD_FOR_STATIC_FINI | abi::OLD_BARRIER => (vec![], None),
        abi::OLD_DATA_SHARING_PUSH => (vec![I64], Some(Ptr)),
        abi::OLD_DATA_SHARING_POP => (vec![Ptr, I64], None),
        _ => return None,
    };
    Some(sig)
}

/// Find-or-declare a runtime entry point in an application module.
pub fn declare_api(m: &mut nzomp_ir::Module, name: &str) -> nzomp_ir::module::FuncRef {
    if let Some(f) = m.find_func(name) {
        return f;
    }
    let (params, ret) =
        api_signature(name).unwrap_or_else(|| panic!("unknown runtime API @{name}"));
    m.add_function(nzomp_ir::Function::declaration(name, params, ret))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_library_keeps_its_size_and_still_serves_fresh_builds() {
        // More distinct configurations than the store has slots.
        for debug_kind in 0..(LIBRARY_SLOTS as i64 + 8) {
            let cfg = RtConfig { debug_kind, ..RtConfig::default() };
            for flavor in [RuntimeFlavor::Legacy, RuntimeFlavor::Modern] {
                for _ in 0..2 {
                    assert_eq!(runtime_library(flavor, &cfg, false), build_runtime(flavor, &cfg, false));
                }
            }
        }
        assert_eq!(LIBRARY.lock().unwrap().len(), LIBRARY_SLOTS);
    }
}
