//! Property tests for the parallel team engine and the IR text format.
//!
//! 1. **Sequential/parallel agreement**: random small kernels —
//!    straight-line arithmetic, global atomics (add/min/max, i64 and
//!    f64), aligned barriers — produce bit-identical global memory and
//!    identical metrics at any worker-thread count.
//! 2. **Printer/parser round-trip**: `parse(print(m)) == m` structurally,
//!    for random kernels and for every compiled proxy module.
//!
//! The sanitizer stays off here; `sanitizer_property` runs random
//! kernels sanitized at every worker count.

use nzomp_ir::inst::AtomicOp;
use nzomp_ir::parser::parse_module;
use nzomp_ir::printer::print_module;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};
use proptest::prelude::*;

/// One statement of a random straight-line kernel. The running value `r`
/// starts as `gid as f64`; every statement is total and deterministic.
#[derive(Clone, Debug)]
enum Stmt {
    /// `r = r + c`
    FAdd(f64),
    /// `r = r * c`
    FMul(f64),
    /// `cells_i[k] +=atomic gid + c`
    AtomicAddI(u8, i64),
    /// `cells_i[k] =atomic min(cells_i[k], gid * 13 % 29 - gid)`
    AtomicMinI(u8),
    /// `cells_i[k] =atomic max(...)` (same mixed value)
    AtomicMaxI(u8),
    /// `cells_f[k] +=atomic r` — f64, order-sensitive bits
    AtomicAddF(u8),
    /// `aligned_barrier()` — all threads, straight-line, so always legal
    Barrier,
}

const NCELLS: u8 = 4;
/// Buffer layout: 4 i64 cells, 4 f64 cells, then `out[gid]`.
const OUT_BASE: i64 = (NCELLS as i64) * 8 * 2;

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (-4.0f64..4.0).prop_map(Stmt::FAdd),
        (-2.0f64..2.0).prop_map(Stmt::FMul),
        (0..NCELLS, -5i64..5).prop_map(|(k, c)| Stmt::AtomicAddI(k, c)),
        (0..NCELLS).prop_map(Stmt::AtomicMinI),
        (0..NCELLS).prop_map(Stmt::AtomicMaxI),
        (0..NCELLS).prop_map(Stmt::AtomicAddF),
        Just(Stmt::Barrier),
    ]
}

fn build_random_kernel(stmts: &[Stmt]) -> Module {
    let mut m = Module::new("par_prop");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);
    let g13 = b.mul(gid, Operand::i64(13));
    let md = b.srem(g13, Operand::i64(29));
    let mixed = b.sub(md, gid);
    let mut r = b.si_to_fp(gid);
    for s in stmts {
        match *s {
            Stmt::FAdd(c) => r = b.fadd(r, Operand::f64(c)),
            Stmt::FMul(c) => r = b.fmul(r, Operand::f64(c)),
            Stmt::AtomicAddI(k, c) => {
                let v = b.add(gid, Operand::i64(c));
                let p = b.ptr_add(buf, Operand::i64(k as i64 * 8));
                b.atomic_add(Ty::I64, p, v);
            }
            Stmt::AtomicMinI(k) => {
                let p = b.ptr_add(buf, Operand::i64(k as i64 * 8));
                b.atomic(AtomicOp::Min, Ty::I64, p, mixed);
            }
            Stmt::AtomicMaxI(k) => {
                let p = b.ptr_add(buf, Operand::i64(k as i64 * 8));
                b.atomic(AtomicOp::Max, Ty::I64, p, mixed);
            }
            Stmt::AtomicAddF(k) => {
                let p = b.ptr_add(buf, Operand::i64((NCELLS as i64 + k as i64) * 8));
                b.atomic(AtomicOp::Add, Ty::F64, p, r);
            }
            Stmt::Barrier => b.aligned_barrier(),
        }
    }
    let goff = b.mul(gid, Operand::i64(8));
    let out_base = b.ptr_add(buf, Operand::i64(OUT_BASE));
    let po = b.ptr_add(out_base, goff);
    b.store(Ty::F64, po, r);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

/// Run the kernel and capture (metrics-or-trap, full global image).
fn run(
    m: Module,
    teams: u32,
    threads: u32,
    workers: usize,
) -> (Result<nzomp_vgpu::KernelMetrics, nzomp_vgpu::ExecError>, Vec<u8>) {
    let cfg = DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    };
    let mut dev = Device::load(m, cfg);
    dev.set_worker_threads(workers);
    let buf = dev.alloc(OUT_BASE as u64 + 8 * (teams * threads) as u64);
    let mut init = vec![0i64; NCELLS as usize];
    // Seed the min/max cells away from 0 so the atomics do real work.
    init[1] = i64::MAX;
    init[2] = i64::MIN;
    dev.write_i64(buf, &init).unwrap();
    let result = dev.launch("k", Launch::new(teams, threads), &[RtVal::P(buf)]);
    let global = dev.global_bytes().to_vec();
    (result, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random kernels agree bit for bit between sequential execution and
    /// every parallel worker count — full global image and all metrics.
    #[test]
    fn random_kernels_sequential_parallel_agree(
        stmts in prop::collection::vec(arb_stmt(), 1..16),
        teams in 2u32..10,
        threads in 1u32..8,
    ) {
        let (base_res, base_mem) = run(build_random_kernel(&stmts), teams, threads, 1);
        for workers in [2usize, 4, 8] {
            let (res, mem) = run(build_random_kernel(&stmts), teams, threads, workers);
            prop_assert_eq!(&base_res, &res, "metrics diverge @{} workers", workers);
            prop_assert_eq!(&base_mem, &mem, "global memory diverges @{} workers", workers);
        }
    }

    /// The IR text format round-trips structurally: `parse(print(m)) == m`.
    #[test]
    fn printer_parser_roundtrip_random_kernels(
        stmts in prop::collection::vec(arb_stmt(), 1..16),
    ) {
        let m = build_random_kernel(&stmts);
        let text = print_module(&m);
        let back = parse_module(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- text ---\n{text}"));
        prop_assert_eq!(&back, &m, "structural round-trip mismatch");
    }
}

/// Round-trip over every fully compiled proxy module — the kitchen-sink
/// case: linked runtime, control flow, globals, intrinsics. Optimization
/// leaves holes in the instruction arena and the parser renumbers ids, so
/// equality here is *semantic*: the printed text is a fixed point, and
/// the reparsed module executes bit-identically to the original.
#[test]
fn printer_parser_roundtrip_compiled_proxies() {
    use nzomp::BuildConfig;
    use nzomp_proxies::{all_proxies, compile_for_config, quick_device};
    for p in all_proxies() {
        let m = compile_for_config(p.as_ref(), BuildConfig::NewRtNoAssumptions)
            .unwrap()
            .module;
        let text = print_module(&m);
        let back = parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", p.name()));
        // `back` has dense, parser-assigned ids; one more round must be a
        // structural fixed point: parse(print(back)) == back.
        let text2 = print_module(&back);
        let back2 = parse_module(&text2)
            .unwrap_or_else(|e| panic!("{}: re-reparse failed: {e}", p.name()));
        assert_eq!(
            back2,
            back,
            "{}: normalized module is not a parse/print fixed point",
            p.name()
        );

        let run = |m: Module| {
            let mut dev = Device::load(m, quick_device());
            let prep = p.prepare(&mut dev);
            dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
            dev.read_f64(prep.out_ptr, prep.expected.len())
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            run(back),
            run(m),
            "{}: reparsed module executes differently",
            p.name()
        );
    }
}
