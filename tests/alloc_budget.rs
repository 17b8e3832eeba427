//! Heap allocations per compile miss, per served request, per rebind, per
//! launch and per buffered team, each held to a checked-in budget — and
//! what a long-lived host or service keeps: nothing of a retired region.
//!
//! Wall time on a shared CI box cannot tell a 10 % regression from noise;
//! these counts repeat exactly. It is its own test binary because it
//! installs a counting `#[global_allocator]`; the counters are per thread,
//! so the harness's own threads do not disturb them.
//!
//! The kernel is `nzbench`'s `serve_hot` / `serve_cold` request kernel
//! (`scale_module` in `crates/bench/src/bin/nzbench/api.rs`) under the
//! configuration the service compiles with, launched as the benchmark
//! launches it: one team of 16 threads over 128-byte buffers, bytecode
//! tier, one worker.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use nzomp::pipeline::compile;
use nzomp::BuildConfig;
use nzomp_host::{f64_bytes, Host, RecoveryPolicy, RegionArg};
use nzomp_serve::{Outcome, ReqArg, ReqId, RequestSpec, Serve, ServeConfig, TenantConfig, TenantId};
use nzomp_vgpu::device::Launch;
use nzomp_integration::scale_module;
use nzomp_proxies::quick_device;
use nzomp_vgpu::{Device, ExecTier, RtVal, RunConfig, Sanitize};

/// Allocations one `compile` of the scale kernel may make (`realloc`
/// counts as one). Measured under `cargo test`, where the optimizer
/// verifies the module after every pass: 3_840 now — `drop_assumes`
/// filters each block's list in place instead of copying it — 3_843 with
/// simplify's buffers kept across its rounds, fold's access analysis built
/// again only after a fold and a dense call graph, 4_274 before that,
/// 4_311 when the budget was introduced, 26_613 at the commit before it.
/// Raise it only with a reason.
const BUDGET: u64 = 3_840;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only const-initialized
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;


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

// ---- the request path ------------------------------------------------------

const CFG: BuildConfig = BuildConfig::NewRtNoAssumptions;
const LANES: usize = 16;
const RUN: RunConfig = RunConfig { workers: 1, tier: ExecTier::Bytecode, sanitize: Sanitize::Off };

fn input() -> Vec<f64> {
    (0..LANES).map(|i| i as f64 * 0.5).collect()
}

fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Operations before the counted ones: the vectors a long-lived host or
/// service appends to per operation (host buffers, tickets, outcomes)
/// double often while they are short.
const WARM_UP: usize = 40;

/// The smallest of eight `counts`, which at least six must equal: the
/// operation that meets one of those doublings pays an allocation more.
fn steady(counts: &[u64]) -> u64 {
    let n = counts.iter().copied().min().unwrap();
    let repeats = counts.iter().filter(|&&c| c == n).count();
    assert!(counts.len() == 8 && repeats >= 6, "the count must repeat: {counts:?}");
    n
}

/// Allocations one 16-thread launch of the scale kernel may make on the
/// bytecode tier, once the image is lowered: 2 now — the kernel frame's
/// register file, which holds the arguments in its parameter slots, and
/// the frame stack, which the threads of a team that never waits hand on
/// in one recycled context (`TeamExec::run`), with the kernel name shared
/// and no per-team vector — 3 when the frame kept an argument copy beside
/// its register file, 8 when each launch copied the name and sized
/// vectors by the grid, 53 when every thread got its own register file,
/// argument copy and frame stack up front.
const LAUNCH_BUDGET: u64 = 2;

#[test]
fn a_launch_stays_within_its_allocation_budget() {
    let image = compile(scale_module(2.0), CFG).unwrap().module;
    let mut dev = Device::load_with(image, quick_device(), RUN);
    let a = dev.alloc_f64(&input());
    let out = dev.alloc(8 * LANES as u64);
    let args = [RtVal::P(a), RtVal::P(out), RtVal::I(LANES as i64)];
    let launch = Launch::new(1, LANES as u32);
    let first = dev.launch("k", launch, &args).unwrap();
    let counts: Vec<u64> = (0..8)
        .map(|_| {
            let (n, m) = allocations_of(|| dev.launch("k", launch, &args).unwrap());
            assert_eq!(m, first);
            n
        })
        .collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "the count must repeat exactly: {counts:?}");
    println!("allocations per 16-thread launch: {}", counts[0]);
    assert!(counts[0] <= LAUNCH_BUDGET, "{} allocations per launch, budget {LAUNCH_BUDGET}", counts[0]);
    assert_eq!(dev.read_f64(out, LANES).unwrap()[3], 1.5 * 2.0 + 3.0);
}

fn region_args() -> Vec<RegionArg> {
    vec![
        RegionArg::To(f64_bytes(&input())),
        RegionArg::From(8 * LANES as u64),
        RegionArg::Scalar(RtVal::I(LANES as i64)),
    ]
}

/// Allocations of one region (enqueue + sync) that finds its device
/// running another image and rebinds it to one loaded before: 12 now — a
/// bind is fresh device memory over the loaded image the host kept,
/// uploads and read-backs copy straight between host buffer and device,
/// and the launch's arguments go straight into the kernel frame's
/// registers — 13 with an argument copy beside them, 21 when every
/// transfer, zero-fill and launch made its own copy, 287 when every bind
/// cloned the linked module, laid it out, lowered it and sized its
/// registers again. (Building the arguments is the caller's.)
const REBIND_BUDGET: u64 = 12;

#[test]
fn a_rebinding_region_stays_within_its_allocation_budget() {
    let mut host = Host::with_run(quick_device(), 1, RUN);
    let images = [2.0, 3.0].map(|f| host.load_image(scale_module(f), CFG).unwrap());
    let s = host.stream();
    let region = |host: &mut Host, round: usize| {
        let args = region_args();
        let (n, r) = allocations_of(|| {
            let r = host.enqueue_region(&[s], images[round % 2], "k", Launch::new(1, LANES as u32), args).unwrap();
            host.sync().unwrap();
            r
        });
        host.retire(r).unwrap().result.unwrap();
        n
    };
    // Both images loaded and launched, the host's vectors grown.
    for round in 0..WARM_UP {
        region(&mut host, round);
    }
    let counts: Vec<u64> = (WARM_UP..WARM_UP + 8).map(|round| region(&mut host, round)).collect();
    let n = steady(&counts);
    println!("allocations per rebinding region: {n}");
    assert!(n <= REBIND_BUDGET, "{n} allocations per rebinding region, budget {REBIND_BUDGET}");
}

/// Allocations of one served request (submit + drain: admission,
/// dispatch, region, launch, outcome, completion) whose module the
/// service has resolved before through the same `Rc` and whose image its
/// device is running: 11 now — the outputs come back from retiring the
/// region, with no list of output indices beside them, and the launch's
/// arguments go straight into the kernel frame's registers — 12 with an
/// argument copy beside them, 13 with that list as well, 26 when each
/// upload, read-back, zero-fill, output and kernel name was copied and a
/// launch sized vectors by the grid, 94 when every dispatch cloned,
/// re-verified, hashed and compared the module and every thread of the
/// launch allocated its own frame. (Building the request is the
/// tenant's.)
const REQUEST_BUDGET: u64 = 11;

/// A service over one device with one tenant, and the benchmark's hot
/// request for it.
fn hot_service() -> (Serve, TenantId, impl Fn() -> RequestSpec) {
    let mut cfg = ServeConfig::new(1);
    cfg.dev_cfg = quick_device();
    cfg.worker_threads = Some(RUN.workers);
    cfg.exec_tier = Some(RUN.tier);
    let mut serve = Serve::new(cfg);
    let tenant = serve.add_tenant("t", TenantConfig::default());
    let module = Rc::new(scale_module(2.0));
    let bytes = Rc::new(f64_bytes(&input()));
    let request = move || RequestSpec {
        module: Rc::clone(&module),
        config: CFG,
        kernel: "k".to_string(),
        launch: Launch::new(1, LANES as u32),
        args: vec![
            ReqArg::In(Rc::clone(&bytes)),
            ReqArg::Out(8 * LANES as u64),
            ReqArg::Scalar(RtVal::I(LANES as i64)),
        ],
    };
    (serve, tenant, request)
}

/// Submit `spec` and drain; the request's id.
fn serve_one(serve: &mut Serve, tenant: TenantId, spec: RequestSpec) -> ReqId {
    let id = serve.submit(tenant, spec).unwrap();
    serve.drain();
    id
}

#[test]
fn a_served_hot_request_stays_within_its_allocation_budget() {
    let (mut serve, tenant, request) = hot_service();
    // The first request compiles, binds and lowers.
    for _ in 0..WARM_UP {
        serve_one(&mut serve, tenant, request());
    }
    let counts: Vec<u64> = (0..8)
        .map(|_| {
            let spec = request();
            let (n, id) = allocations_of(|| serve_one(&mut serve, tenant, spec));
            assert!(matches!(serve.outcome(id), Some(Outcome::Completed { .. })));
            n
        })
        .collect();
    let n = steady(&counts);
    println!("allocations per served hot request: {n}");
    assert!(n <= REQUEST_BUDGET, "{n} allocations per served request, budget {REQUEST_BUDGET}");
    let stats = serve.host_stats();
    assert_eq!((stats.compile_hits, stats.compile_misses), (WARM_UP as u64 + 7, 1));
}

// ---- the buffered view of global memory ------------------------------------

/// Allocations of one buffered team that stores 8 bytes into each of 1 000
/// distinct chunks and then loads 10 000 other words, its worker's scratch
/// included: 34 now — vector doublings only (the chunk records once, the
/// private copies, the touched list, the log), so 2 000 chunks cost 35
/// — 1 034 when every written chunk was a `Box` in a `HashMap`
/// beside a second map of sync masks.
const BUFFERED_VIEW_BUDGET: u64 = 36;

#[test]
fn a_buffered_view_allocates_by_doubling_not_per_chunk() {
    use nzomp_vgpu::gmem::{BufferedGlobal, GlobalMem, WaveScratch};
    const CHUNKS: u64 = 1_000;
    const WORDS: u64 = 10_000;
    let base = vec![7u8; (CHUNKS * 64 + WORDS * 8) as usize];
    let team = || {
        let mut scratch = WaveScratch::default();
        let mut view = GlobalMem::Buffered(BufferedGlobal::new(&base, &mut scratch));
        for chunk in 0..CHUNKS {
            view.write(chunk * 64 + 8, 8, chunk as i64).unwrap();
        }
        let sum: i64 = (0..WORDS).map(|w| view.read(CHUNKS * 64 + w * 8, 8).unwrap() & 1).sum();
        assert_eq!(sum, WORDS as i64);
        let GlobalMem::Buffered(view) = view else { unreachable!() };
        let log = view.finish();
        assert_eq!((log.effects.len() as u64, log.private_chunks as u64), (CHUNKS + WORDS, CHUNKS));
    };
    let counts: Vec<u64> = (0..4).map(|_| allocations_of(team).0).collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "the count must repeat exactly: {counts:?}");
    println!("allocations per buffered team: {}", counts[0]);
    assert!(counts[0] <= BUFFERED_VIEW_BUDGET, "{} allocations, budget {BUFFERED_VIEW_BUDGET}", counts[0]);
}

// ---- a long-lived host and service -------------------------------------------

/// Requests and regions of the soaks below, after a warm-up of
/// `SOAK_WARM_UP`.
const SOAK: usize = 100_000;
const SOAK_WARM_UP: usize = 1_000;

/// A service holds host state for the requests in flight, not for every
/// request it ever served: after 10⁵ hot requests the host has as many
/// buffer and ticket slots as after the first 1 000, and none held.
#[test]
fn a_long_lived_service_holds_a_bounded_set_of_host_slots() {
    let (mut serve, tenant, request) = hot_service();
    let slots = |serve: &Serve| {
        let s = serve.host_stats();
        (s.buf_slots, s.ticket_slots, s.bufs_held, s.tickets_held)
    };
    for _ in 0..SOAK_WARM_UP {
        serve_one(&mut serve, tenant, request());
    }
    let warm = slots(&serve);
    for _ in 0..SOAK {
        serve_one(&mut serve, tenant, request());
    }
    println!("host (buffer slots, ticket slots, buffers held, tickets held) after {SOAK_WARM_UP} and {} requests: {warm:?}, {:?}", SOAK_WARM_UP + SOAK, slots(&serve));
    assert_eq!(slots(&serve), warm, "(buffer slots, ticket slots, buffers held, tickets held)");
    assert_eq!(warm.2 + warm.3, 0, "a drained service holds nothing of a request");
    assert_eq!(serve.metrics().completed, (SOAK_WARM_UP + SOAK) as u64);
}

/// A host that retires its regions leaves nothing of them behind: after
/// 10⁵ regions (enqueue, sync, retire), this thread's live heap bytes are
/// exactly what they were after the warm-up.
#[test]
fn a_host_that_retires_its_regions_keeps_no_heap_for_them() {
    soak_retiring_host(None);
}

/// The same soak with recovery armed: what the host keeps for a failover
/// is each device's checkpoint (its state after the last launch) and the
/// journal since, which a launch empties, so neither grows with the
/// regions run.
#[test]
fn a_host_with_recovery_armed_keeps_a_bounded_journal() {
    soak_retiring_host(Some(RecoveryPolicy::default()));
}

fn soak_retiring_host(recovery: Option<RecoveryPolicy>) {
    let mut host = Host::with_run(quick_device(), 1, RUN);
    host.set_recovery(recovery);
    let img = host.load_image(scale_module(2.0), CFG).unwrap();
    let s = host.stream();
    let want = (1.5f64 * 2.0 + 3.0).to_le_bytes();
    let region = |host: &mut Host| {
        let r = host.enqueue_region(&[s], img, "k", Launch::new(1, LANES as u32), region_args()).unwrap();
        host.sync().unwrap();
        let done = host.retire(r).unwrap();
        assert!(done.result.is_ok());
        assert_eq!(done.outputs[0].1[24..32], want);
    };
    for _ in 0..SOAK_WARM_UP {
        region(&mut host);
    }
    let warm = LIVE.with(Cell::get);
    for _ in 0..SOAK {
        region(&mut host);
    }
    // Read before printing: the harness's capture of stdout allocates on
    // this thread.
    let end = LIVE.with(Cell::get);
    println!("live heap bytes after {SOAK_WARM_UP} and {} regions: {warm}, {end}", SOAK_WARM_UP + SOAK);
    assert_eq!(end, warm, "live heap bytes after {SOAK} more regions");
    let stats = host.stats();
    assert_eq!((stats.bufs_held, stats.tickets_held), (0, 0));
    assert_eq!(stats.devices[0].launches, (SOAK_WARM_UP + SOAK) as u64);
}
