//! Heap allocations per compile miss, held to a checked-in budget.
//!
//! Wall time on a shared CI box cannot tell a 10 % regression from noise;
//! this count repeats exactly. It is its own test binary because it
//! installs a counting `#[global_allocator]`; the counter is per thread, so
//! the harness's own threads do not disturb it.
//!
//! The kernel is `nzbench`'s `serve_cold` request kernel (`scale_module` in
//! `crates/bench/src/bin/nzbench/api.rs`) under the configuration the
//! service compiles with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nzomp::pipeline::compile;
use nzomp::BuildConfig;
use nzomp_front::spmd_kernel_for;
use nzomp_ir::{Module, Operand, Ty};
use nzomp_rt::RuntimeFlavor;

/// Allocations one `compile` of the scale kernel may make (`realloc`
/// counts as one). Measured under `cargo test`, where the optimizer
/// verifies the module after every pass: 4_274 now, 4_311 when the budget
/// was introduced, 26_613 at the commit before it. Raise it only with a
/// reason.
const BUDGET: u64 = 4_450;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `out[i] = in[i] * factor + i`.
fn scale_module(factor: f64) -> Module {
    let mut m = Module::new("nzbench_scale");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let scaled = b.fmul(x, Operand::f64(factor));
            let i_f = b.si_to_fp(iv);
            let v = b.fadd(scaled, i_f);
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    m
}

fn allocations_of_one_compile(factor: f64) -> u64 {
    let app = scale_module(factor);
    let before = ALLOCS.with(Cell::get);
    let out = compile(app, BuildConfig::NewRtNoAssumptions).unwrap();
    let after = ALLOCS.with(Cell::get);
    assert_eq!(out.module.live_inst_count(), 20);
    after - before
}

#[test]
fn a_compile_miss_stays_within_its_allocation_budget() {
    // The first compile also builds the runtime library entry.
    allocations_of_one_compile(1.0);
    let counts: Vec<u64> = (2..10).map(|i| allocations_of_one_compile(f64::from(i))).collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "the count must repeat exactly: {counts:?}");
    println!("allocations per compile miss: {}", counts[0]);
    assert!(
        counts[0] <= BUDGET,
        "{} allocations per compile miss, budget {BUDGET}",
        counts[0]
    );
}
