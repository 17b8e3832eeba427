//! Fold ≡ execute, operator by operator, on the inputs the fuzz cannot reach.
//!
//! The optimizer's constant folder and both execution tiers evaluate through
//! the one operator table (`nzomp_ir::ops`). The differential fuzz cannot
//! hold them to it on the edges: `gen.rs` masks every shift amount to 63 and
//! makes every divisor odd, so an over-wide shift, a zero divisor, a
//! saturating float-to-int conversion or a NaN compare never reaches both a
//! folded and an executed copy. This test builds every operator over an
//! edge-value set twice — operands as kernel parameters (executed on the
//! device) and as immediates (folded away by `simplify`) — runs both on the
//! interpreter and on the bytecode tier, and demands identical result bits.
//! One run setting suffices: every launch is one thread of one team.

use nzomp_ir::inst::{BinOp, CastKind, Inst, Pred, UnOp};
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_opt::simplify;
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, ExecError, ExecTier, RtVal, RunConfig, TrapKind};

const TIERS: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Bytecode];

/// 63 / 64 / 65 are the shift amounts around the 6-bit mask; `0xff`,
/// `1 << 31` and `1 << 32` sit on the sign and width boundaries of the
/// integer casts.
const INTS: [i64; 11] = [0, 1, -1, i64::MIN, i64::MAX, 63, 64, 65, 0xff, 1 << 31, 1 << 32];
const FLOATS: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e300,
    5e-324, // subnormal
    1.5,
    -1.0,
];
const TYS: [Ty; 6] = [Ty::I1, Ty::I8, Ty::I32, Ty::I64, Ty::F64, Ty::Ptr];

fn divides(op: BinOp) -> bool {
    matches!(op, BinOp::SDiv | BinOp::SRem | BinOp::UDiv | BinOp::URem)
}

/// Kernel `k(out, INTS.., FLOATS..)`; `body` computes values from the edge
/// sets and the kernel stores result `n` to `out[n]`, 8 bytes each whatever
/// its type, so every result bit is observed. With `immediate` the edge
/// values are constants in the instructions; otherwise they are read from
/// the parameters, which [`run`] binds to the same values.
fn kernel(
    immediate: bool,
    body: impl FnOnce(&mut FuncBuilder, &dyn Fn(usize) -> Operand, &dyn Fn(usize) -> Operand) -> Vec<Operand>,
) -> Module {
    let mut params = vec![Ty::Ptr];
    params.extend([Ty::I64; INTS.len()]);
    params.extend([Ty::F64; FLOATS.len()]);
    let mut b = FuncBuilder::new("k", params, None);
    let int = |i: usize| match immediate {
        true => Operand::i64(INTS[i]),
        false => Operand::Param(1 + i as u32),
    };
    let float = |i: usize| match immediate {
        true => Operand::f64(FLOATS[i]),
        false => Operand::Param((1 + INTS.len() + i) as u32),
    };
    let results = body(&mut b, &int, &float);
    for (slot, v) in results.into_iter().enumerate() {
        let p = b.ptr_add(b.param(0), Operand::i64(slot as i64 * 8));
        b.store(Ty::I64, p, v);
    }
    b.ret(None);
    let mut m = Module::new("fold_vs_exec");
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// One thread of `m` on `tier`; the `slots` result words, or the trap.
fn run(m: &Module, slots: usize, tier: ExecTier) -> Result<Vec<i64>, ExecError> {
    let run = RunConfig { tier, ..RunConfig::default() };
    let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
    let out = dev.alloc(slots as u64 * 8);
    let mut args = vec![RtVal::P(out)];
    args.extend(INTS.map(RtVal::I));
    args.extend(FLOATS.map(RtVal::F));
    dev.launch("k", Launch::new(1, 1), &args)?;
    Ok(dev.read_i64(out, slots).unwrap())
}

/// How many arithmetic instructions the kernel still lists in a block.
fn arithmetic_left(m: &Module) -> usize {
    let f = &m.funcs[0];
    let listed = f.blocks.iter().flat_map(|b| &b.insts);
    listed
        .filter(|&&i| {
            matches!(f.inst(i), Inst::Bin { .. } | Inst::Un { .. } | Inst::Cast { .. } | Inst::Cmp { .. })
        })
        .count()
}

/// Every operator × every edge operand with a defined result, and a label
/// per result for the failure message.
fn every_operation(
    b: &mut FuncBuilder,
    int: &dyn Fn(usize) -> Operand,
    float: &dyn Fn(usize) -> Operand,
    labels: &mut Vec<String>,
) -> Vec<Operand> {
    let mut out = Vec::new();
    let (ni, nf) = (INTS.len(), FLOATS.len());
    for &op in BinOp::ALL {
        if op.is_float() {
            for (i, j) in (0..nf).flat_map(|i| (0..nf).map(move |j| (i, j))) {
                labels.push(format!("{} {:?}, {:?}", op.mnemonic(), FLOATS[i], FLOATS[j]));
                out.push(b.bin(op, Ty::F64, float(i), float(j)));
            }
        } else {
            for (i, j) in (0..ni).flat_map(|i| (0..ni).map(move |j| (i, j))) {
                if divides(op) && INTS[j] == 0 {
                    continue; // traps: `zero_divisors_stay_unfolded_and_trap`
                }
                labels.push(format!("{} {}, {}", op.mnemonic(), INTS[i], INTS[j]));
                out.push(b.bin(op, Ty::I64, int(i), int(j)));
            }
        }
    }
    for &op in UnOp::ALL {
        if op.is_float() {
            for i in 0..nf {
                labels.push(format!("{} {:?}", op.mnemonic(), FLOATS[i]));
                out.push(b.un(op, Ty::F64, float(i)));
            }
        } else {
            for i in 0..ni {
                labels.push(format!("{} {}", op.mnemonic(), INTS[i]));
                out.push(b.un(op, Ty::I64, int(i)));
            }
        }
    }
    for &kind in CastKind::ALL {
        for to in TYS {
            if kind == CastKind::FpToSi {
                for i in 0..nf {
                    labels.push(format!("{}.{to} {:?}", kind.mnemonic(), FLOATS[i]));
                    out.push(b.cast(kind, to, float(i)));
                }
            } else {
                for i in 0..ni {
                    labels.push(format!("{}.{to} {}", kind.mnemonic(), INTS[i]));
                    out.push(b.cast(kind, to, int(i)));
                }
            }
        }
    }
    for &pred in Pred::ALL {
        for (i, j) in (0..ni).flat_map(|i| (0..ni).map(move |j| (i, j))) {
            labels.push(format!("cmp.{}.i64 {}, {}", pred.mnemonic(), INTS[i], INTS[j]));
            out.push(b.cmp(pred, Ty::I64, int(i), int(j)));
        }
        for (i, j) in (0..nf).flat_map(|i| (0..nf).map(move |j| (i, j))) {
            labels.push(format!("cmp.{}.f64 {:?}, {:?}", pred.mnemonic(), FLOATS[i], FLOATS[j]));
            out.push(b.cmp(pred, Ty::F64, float(i), float(j)));
        }
    }
    out
}

#[test]
fn every_operator_folds_to_what_it_executes_to_on_edge_values() {
    let mut labels = Vec::new();
    let executed = kernel(false, |b, int, float| every_operation(b, int, float, &mut labels));
    let slots = labels.len();
    let mut folded = kernel(true, |b, int, float| every_operation(b, int, float, &mut Vec::new()));
    assert_eq!(arithmetic_left(&executed), slots);
    assert!(simplify::run(&mut folded));
    nzomp_ir::verify_module(&folded).unwrap();
    // Nothing with a defined result is left for the device to compute.
    assert_eq!(arithmetic_left(&folded), 0);

    let reference = run(&executed, slots, ExecTier::Interp).unwrap();
    for (what, m) in [("executed", &executed), ("folded", &folded)] {
        for tier in TIERS {
            let got = run(m, slots, tier).unwrap();
            for (slot, label) in labels.iter().enumerate() {
                assert_eq!(
                    got[slot], reference[slot],
                    "{label}: {what} on {tier:?} gives {:#018x}, executed on Interp gives {:#018x}",
                    got[slot], reference[slot]
                );
            }
        }
    }
    // The set is not vacuous: some shift saw an amount of 64, some
    // conversion saturated, some compare saw a NaN.
    let at = |l: &str| reference[labels.iter().position(|x| x == l).unwrap_or_else(|| panic!("{l}"))];
    assert_eq!(at("Shl 1, 64"), 1);
    assert_eq!(at("Shl 1, 65"), 2);
    assert_eq!(at("SDiv -9223372036854775808, -1"), i64::MIN);
    assert_eq!(at("FpToSi.i64 1e300"), i64::MAX);
    assert_eq!(at("FpToSi.i64 NaN"), 0);
    assert_eq!(at("IntCast.i8 255"), -1);
    assert_eq!(at("ZExtCast.i32 -1"), 0xffff_ffff);
    assert_eq!(at("cmp.Ne.f64 NaN, NaN"), 1);
    assert_eq!(at("cmp.Sle.f64 NaN, NaN"), 0);
    assert_eq!(at("FMin -0.0, 0.0") as u64, (-0.0f64).to_bits());
}

/// A division or remainder by a constant zero has no value to fold to: the
/// instruction stays, and the device traps on it exactly as it does when the
/// zero arrives in a parameter.
#[test]
fn zero_divisors_stay_unfolded_and_trap() {
    let zero = INTS.iter().position(|&v| v == 0).unwrap();
    for &op in BinOp::ALL.iter().filter(|&&op| divides(op)) {
        for i in 0..INTS.len() {
            let one = |b: &mut FuncBuilder, int: &dyn Fn(usize) -> Operand| {
                vec![b.bin(op, Ty::I64, int(i), int(zero))]
            };
            let executed = kernel(false, |b, int, _| one(b, int));
            let mut folded = kernel(true, |b, int, _| one(b, int));
            simplify::run(&mut folded);
            assert_eq!(arithmetic_left(&folded), 1, "{op:?} {} / 0 was folded", INTS[i]);
            for (what, m) in [("executed", &executed), ("folded", &folded)] {
                for tier in TIERS {
                    let err = run(m, 1, tier).expect_err("division by zero ran to completion");
                    assert_eq!(err.kind, TrapKind::DivByZero, "{op:?} {} / 0, {what} on {tier:?}", INTS[i]);
                }
            }
        }
    }
}
