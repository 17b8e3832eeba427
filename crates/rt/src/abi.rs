//! Symbol names, state layouts and configuration shared between the device
//! runtimes, the frontend (which emits calls against these symbols) and the
//! optimizer (which recognizes them).

use nzomp_ir::Ty::{self, Ptr, I1, I64};

/// Kernel execution mode values passed to `__kmpc_target_init`.
pub const MODE_GENERIC: i64 = 0;
pub const MODE_SPMD: i64 = 1;

/// Debug-kind bit-field (paper §III-G: "fine-grained debugging through the
/// use of a bit-field that specifies which debugging features are to be
/// enabled").
pub const DEBUG_ASSERTIONS: i64 = 1 << 0;
pub const DEBUG_FUNCTION_TRACING: i64 = 1 << 1;

// ---- modern (co-designed) runtime symbols --------------------------------

pub const TARGET_INIT: &str = "__kmpc_target_init";
pub const TARGET_DEINIT: &str = "__kmpc_target_deinit";
pub const PARALLEL_51: &str = "__kmpc_parallel_51";
/// The SPMD fork SPMDization retargets `__kmpc_parallel_51` to.
pub const PARALLEL_SPMD: &str = "__kmpc_parallel_spmd";
pub const WORKER_LOOP: &str = "__kmpc_worker_loop";
pub const DIST_PAR_FOR_LOOP: &str = "__kmpc_distribute_parallel_for_static_loop";
pub const FOR_STATIC_LOOP: &str = "__kmpc_for_static_loop";
pub const DISTRIBUTE_STATIC_LOOP: &str = "__kmpc_distribute_static_loop";
pub const ALLOC_SHARED: &str = "__kmpc_alloc_shared";
pub const FREE_SHARED: &str = "__kmpc_free_shared";
pub const KMPC_BARRIER: &str = "__kmpc_barrier";
pub const SYNCTHREADS_ALIGNED: &str = "__kmpc_syncthreads_aligned";
pub const OMP_GET_THREAD_NUM: &str = "omp_get_thread_num";
pub const OMP_GET_NUM_THREADS: &str = "omp_get_num_threads";
pub const OMP_GET_TEAM_NUM: &str = "omp_get_team_num";
pub const OMP_GET_NUM_TEAMS: &str = "omp_get_num_teams";
pub const OMP_GET_LEVEL: &str = "omp_get_level";
pub const NZOMP_ASSERT: &str = "__nzomp_assert";
pub const NZOMP_TRACE: &str = "__nzomp_trace";

// ---- modern runtime globals ----------------------------------------------

pub const G_IS_SPMD: &str = "__omp_rtl_is_spmd_mode";
pub const G_TEAM_STATE: &str = "__omp_rtl_team_state";
pub const G_THREAD_STATES: &str = "__omp_rtl_thread_states";
pub const G_SMEM_STACK: &str = "__omp_rtl_smem_stack";
pub const G_SMEM_STACK_TOP: &str = "__omp_rtl_smem_stack_top";
pub const G_COND_WRITE_DUMMY: &str = "__omp_rtl_dummy";
pub const G_DEBUG_KIND: &str = "__omp_rtl_debug_kind";
pub const G_ASSUME_TEAMS_OVERSUB: &str = "__omp_rtl_assume_teams_oversubscription";
pub const G_ASSUME_THREADS_OVERSUB: &str = "__omp_rtl_assume_threads_oversubscription";
pub const G_TRACE_COUNT: &str = "__omp_rtl_trace_count";

/// Team ICV state layout (shared memory, paper §III-B). All fields 8 bytes.
pub mod team_state {
    pub const NTHREADS: u64 = 0;
    pub const LEVELS: u64 = 8;
    pub const ACTIVE_LEVELS: u64 = 16;
    pub const PARALLEL_FN: u64 = 24;
    pub const PARALLEL_ARGS: u64 = 32;
    pub const HAS_THREAD_STATE: u64 = 40;
    pub const SIZE: u64 = 64;
}

/// Per-thread ICV state, allocated on demand from the shared-memory stack
/// (paper §III-C). Linked through `PREV` to represent nested data
/// environments.
pub mod thread_state {
    pub const PREV: u64 = 0;
    pub const THREAD_NUM: u64 = 8;
    pub const NTHREADS: u64 = 16;
    pub const LEVELS: u64 = 24;
    pub const SIZE: u64 = 40;
}

/// Max hardware threads per team the runtime supports (size of the
/// thread-states pointer array).
pub const MAX_THREADS: u64 = 256;

/// Shared-memory stack capacity (paper §III-D). Sized so the modern
/// runtime's total static shared footprint is 11,304 bytes — the "New RT
/// (Nightly)" SMem figure of the paper's Fig. 11 before optimization.
pub const SMEM_STACK_SIZE: u64 = 9168;

// ---- legacy runtime symbols -----------------------------------------------

pub const OLD_TARGET_INIT: &str = "__kmpc_kernel_init_old";
pub const OLD_TARGET_DEINIT: &str = "__kmpc_kernel_deinit_old";
pub const OLD_PARALLEL_PREPARE: &str = "__kmpc_kernel_prepare_parallel_old";
pub const OLD_PARALLEL_END: &str = "__kmpc_kernel_end_parallel_old";
pub const OLD_WORKER_LOOP: &str = "__kmpc_worker_loop_old";
pub const OLD_FOR_STATIC_INIT: &str = "__kmpc_for_static_init_old";
pub const OLD_FOR_STATIC_FINI: &str = "__kmpc_for_static_fini_old";
pub const OLD_DISTRIBUTE_INIT: &str = "__kmpc_distribute_static_init_old";
pub const OLD_DATA_SHARING_PUSH: &str = "__kmpc_data_sharing_push_stack_old";
pub const OLD_DATA_SHARING_POP: &str = "__kmpc_data_sharing_pop_stack_old";
pub const OLD_GET_THREAD_NUM: &str = "omp_get_thread_num"; // same public name
pub const OLD_BARRIER: &str = "__kmpc_barrier_old";

// ---- legacy runtime globals -------------------------------------------------

pub const G_OLD_STATE: &str = "__old_rt_device_state";
pub const G_OLD_DS_STACK: &str = "__old_rt_data_sharing_stack";
pub const G_OLD_DS_TOP: &str = "__old_rt_data_sharing_top";

/// Legacy device state blob: team header + per-thread task descriptors.
/// Totals 2,336 bytes — the "Old RT (Nightly)" SMem figure of Fig. 11.
pub mod old_state {
    pub const LEVELS: u64 = 0;
    pub const NTHREADS: u64 = 8;
    pub const PARALLEL_FN: u64 = 16;
    pub const PARALLEL_ARGS: u64 = 24;
    /// Per-thread descriptor array base; 9 bytes per thread, 256 threads.
    pub const DESCRIPTORS: u64 = 32;
    pub const DESCRIPTOR_STRIDE: u64 = 9;
    pub const SIZE: u64 = 32 + 9 * 256; // 2336
}

/// Extra shared scratch the legacy frontend reserves per kernel that uses
/// variable globalization ("data sharing slots"). Sized so a
/// globalization-using kernel shows the 8,288-byte Old-RT SMem figure:
/// 2336 + 5952 = 8288.
pub const OLD_DS_STACK_SIZE: u64 = 5944; // + 8 bytes top pointer = 5952

/// The runtime ABI: `(name, params, ret)` of every entry point either runtime
/// defines, one row per name. Declarations in application modules and in the
/// runtime builders are all made from this table (`declare_api`).
pub const API: &[(&str, &[Ty], Option<Ty>)] = &[
    (NZOMP_TRACE, &[], None),
    (NZOMP_ASSERT, &[I1], None),
    (SYNCTHREADS_ALIGNED, &[], None),
    (KMPC_BARRIER, &[], None),
    (TARGET_INIT, &[I64], Some(I64)),
    (TARGET_DEINIT, &[I64], None),
    (OMP_GET_THREAD_NUM, &[], Some(I64)),
    (OMP_GET_NUM_THREADS, &[], Some(I64)),
    (OMP_GET_LEVEL, &[], Some(I64)),
    (OMP_GET_TEAM_NUM, &[], Some(I64)),
    (OMP_GET_NUM_TEAMS, &[], Some(I64)),
    (ALLOC_SHARED, &[I64], Some(Ptr)),
    (FREE_SHARED, &[Ptr, I64], None),
    (PARALLEL_51, &[Ptr, Ptr], None),
    (PARALLEL_SPMD, &[Ptr, Ptr], None),
    (WORKER_LOOP, &[], None),
    (DIST_PAR_FOR_LOOP, &[Ptr, Ptr, I64], None),
    (FOR_STATIC_LOOP, &[Ptr, Ptr, I64, I64], None),
    (DISTRIBUTE_STATIC_LOOP, &[Ptr, Ptr, I64], None),
    (OLD_TARGET_INIT, &[I64], Some(I64)),
    (OLD_TARGET_DEINIT, &[I64], None),
    (OLD_WORKER_LOOP, &[], None),
    (OLD_PARALLEL_PREPARE, &[Ptr, Ptr], None),
    (OLD_PARALLEL_END, &[], None),
    (OLD_FOR_STATIC_INIT, &[Ptr, Ptr, Ptr, I64], None),
    (OLD_FOR_STATIC_FINI, &[], None),
    (OLD_DISTRIBUTE_INIT, &[Ptr, Ptr, Ptr, I64], None),
    (OLD_BARRIER, &[], None),
    (OLD_DATA_SHARING_PUSH, &[I64], Some(Ptr)),
    (OLD_DATA_SHARING_POP, &[Ptr, I64], None),
];

/// Compile-time runtime configuration: the values of the three feature
/// globals, patched onto the linked copy of the runtime (paper §III-F/G —
/// command-line flags become constant globals read "at compile time via
/// constant propagation").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtConfig {
    /// Debug bit-field; 0 = release build.
    pub debug_kind: i64,
    /// `-fopenmp-assume-teams-oversubscription`
    pub assume_teams_oversubscription: bool,
    /// `-fopenmp-assume-threads-oversubscription`
    pub assume_threads_oversubscription: bool,
}

impl Default for RtConfig {
    fn default() -> RtConfig {
        RtConfig {
            debug_kind: 0,
            assume_teams_oversubscription: false,
            assume_threads_oversubscription: false,
        }
    }
}
