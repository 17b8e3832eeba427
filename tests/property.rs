//! Property-based tests over the whole stack: randomized programs and
//! launch geometries, checking the invariants the system promises.
//! One run setting suffices: `parallel_property` crosses worker counts on
//! random kernels, `sanitizer_property` the sanitizer.

use nzomp_front::{cuda, spmd_kernel_for, RuntimeFlavor};
use nzomp_ir::{BinOp, Module, Operand, Ty, UnOp};
use nzomp_opt::{optimize_module, PassOptions};
use nzomp_rt::{build_runtime, RtConfig};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};
use proptest::prelude::*;

fn quick() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

/// A tiny expression language for random kernel bodies: `out[i] =
/// eval(expr, a[i], i)` with deterministic, total operations.
#[derive(Clone, Debug)]
enum Expr {
    Input,          // a[i]
    Index,          // i as f64
    Const(f64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Sqrt(Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Input),
        Just(Expr::Index),
        (-4.0f64..4.0).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            inner.clone().prop_map(|a| Expr::Sqrt(a.into())),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Min(a.into(), b.into())),
        ]
    })
}

fn eval_host(e: &Expr, x: f64, i: f64) -> f64 {
    match e {
        Expr::Input => x,
        Expr::Index => i,
        Expr::Const(c) => *c,
        Expr::Add(a, b) => eval_host(a, x, i) + eval_host(b, x, i),
        Expr::Sub(a, b) => eval_host(a, x, i) - eval_host(b, x, i),
        Expr::Mul(a, b) => eval_host(a, x, i) * eval_host(b, x, i),
        Expr::Sqrt(a) => eval_host(a, x, i).sqrt(),
        Expr::Min(a, b) => {
            let (a, b) = (eval_host(a, x, i), eval_host(b, x, i));
            a.min(b)
        }
    }
}

fn emit_expr(b: &mut nzomp_ir::FuncBuilder, e: &Expr, x: Operand, i_f: Operand) -> Operand {
    match e {
        Expr::Input => x,
        Expr::Index => i_f,
        Expr::Const(c) => Operand::f64(*c),
        Expr::Add(a, c) => {
            let (va, vb) = (emit_expr(b, a, x, i_f), emit_expr(b, c, x, i_f));
            b.fadd(va, vb)
        }
        Expr::Sub(a, c) => {
            let (va, vb) = (emit_expr(b, a, x, i_f), emit_expr(b, c, x, i_f));
            b.fsub(va, vb)
        }
        Expr::Mul(a, c) => {
            let (va, vb) = (emit_expr(b, a, x, i_f), emit_expr(b, c, x, i_f));
            b.fmul(va, vb)
        }
        Expr::Sqrt(a) => {
            let v = emit_expr(b, a, x, i_f);
            b.un(UnOp::Sqrt, Ty::F64, v)
        }
        Expr::Min(a, c) => {
            let (va, vb) = (emit_expr(b, a, x, i_f), emit_expr(b, c, x, i_f));
            b.bin(BinOp::FMin, Ty::F64, va, vb)
        }
    }
}

fn build_kernel(e: &Expr, omp: bool) -> Module {
    let mut m = Module::new("prop");
    let body = |_m: &mut Module, b: &mut nzomp_ir::FuncBuilder, iv: Operand, p: &[Operand]| {
        let pa = b.gep(p[0], iv, 8);
        let x = b.load(Ty::F64, pa);
        let i_f = b.si_to_fp(iv);
        let v = emit_expr(b, e, x, i_f);
        let po = b.gep(p[1], iv, 8);
        b.store(Ty::F64, po, v);
    };
    if omp {
        spmd_kernel_for(
            &mut m,
            RuntimeFlavor::Modern,
            "k",
            &[Ty::Ptr, Ty::Ptr, Ty::I64],
            |_b, p| p[2],
            body,
        );
        let rt = build_runtime(RuntimeFlavor::Modern, &RtConfig::default(), false);
        nzomp_ir::link::link(&mut m, rt).unwrap();
    } else {
        cuda::grid_stride_kernel(&mut m, "k", &[Ty::Ptr, Ty::Ptr, Ty::I64], |_b, p| p[2], body);
    }
    m
}

fn run_kernel(mut m: Module, opts: Option<&PassOptions>, input: &[f64], launch: Launch) -> Vec<f64> {
    if let Some(o) = opts {
        optimize_module(&mut m, o);
    }
    nzomp_ir::verify_module(&m).unwrap();
    let mut dev = Device::load(m, quick());
    let pa = dev.alloc_f64(input);
    let po = dev.alloc(8 * input.len() as u64);
    dev.launch(
        "k",
        launch,
        &[RtVal::P(pa), RtVal::P(po), RtVal::I(input.len() as i64)],
    )
    .unwrap();
    dev.read_f64(po, input.len()).unwrap()
}

/// NaN-tolerant comparison (sqrt of negatives is allowed in the random
/// expressions; NaN != NaN under ==).
fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The device computes exactly what the host reference computes, for
    /// any expression, input, and launch geometry.
    #[test]
    fn device_matches_host_reference(
        e in arb_expr(),
        input in prop::collection::vec(-8.0f64..8.0, 1..48),
        teams in 1u32..4,
        threads in 1u32..16,
    ) {
        let expect: Vec<f64> = input
            .iter()
            .enumerate()
            .map(|(i, &x)| eval_host(&e, x, i as f64))
            .collect();
        let got = run_kernel(build_kernel(&e, false), None, &input, Launch::new(teams, threads));
        prop_assert!(same(&got, &expect), "got {got:?} expected {expect:?}");
    }

    /// Full optimization never changes results (OpenMP lowering, any
    /// geometry, any expression).
    #[test]
    fn optimization_preserves_semantics(
        e in arb_expr(),
        input in prop::collection::vec(-8.0f64..8.0, 1..48),
        teams in 1u32..4,
        threads in 1u32..16,
    ) {
        let launch = Launch::new(teams, threads);
        let unopt = run_kernel(build_kernel(&e, true), Some(&PassOptions::none()), &input, launch);
        let full = run_kernel(build_kernel(&e, true), Some(&PassOptions::full()), &input, launch);
        prop_assert!(same(&unopt, &full), "unopt {unopt:?} full {full:?}");
    }

    /// OpenMP and CUDA lowerings agree bitwise.
    #[test]
    fn omp_and_cuda_agree(
        e in arb_expr(),
        input in prop::collection::vec(-8.0f64..8.0, 1..48),
    ) {
        let launch = Launch::new(2, 8);
        let omp = run_kernel(build_kernel(&e, true), Some(&PassOptions::full()), &input, launch);
        let cu = run_kernel(build_kernel(&e, false), None, &input, launch);
        prop_assert!(same(&omp, &cu));
    }

    /// The optimized module never costs more than the unoptimized one.
    #[test]
    fn optimization_never_regresses_cycles(
        e in arb_expr(),
        input in prop::collection::vec(-8.0f64..8.0, 8..32),
    ) {
        let launch = Launch::new(2, 8);
        let run_cycles = |opts: PassOptions| {
            let mut m = build_kernel(&e, true);
            optimize_module(&mut m, &opts);
            let mut dev = Device::load(m, quick());
            let pa = dev.alloc_f64(&input);
            let po = dev.alloc(8 * input.len() as u64);
            dev.launch("k", launch, &[RtVal::P(pa), RtVal::P(po), RtVal::I(input.len() as i64)])
                .unwrap()
                .cycles
        };
        let unopt = run_cycles(PassOptions::none());
        let full = run_cycles(PassOptions::full());
        prop_assert!(full <= unopt, "full {full} > unopt {unopt}");
    }
}
