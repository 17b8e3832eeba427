//! Capture packing/unpacking and globalized-local lowering.
//! One run setting suffices: every launch is one thread of one team.

use nzomp_front::capture::{args_size, load_captures, store_captures};
use nzomp_front::{free_globalized, globalized_local, RuntimeFlavor};
use nzomp_ir::inst::Inst;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};

/// Captured narrow ints survive the 8-byte slot round trip.
#[test]
fn capture_roundtrip_all_types() {
    let mut m = Module::new("cap");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I32, Ty::F64, Ty::I64], None);
    let caps = vec![
        (b.param(1), Ty::I32),
        (b.param(2), Ty::F64),
        (b.param(3), Ty::I64),
        (b.param(0), Ty::Ptr),
    ];
    let args = b.alloca(args_size(&caps));
    store_captures(&mut b, args, &caps);
    let vals = load_captures(&mut b, args, &[Ty::I32, Ty::F64, Ty::I64, Ty::Ptr]);
    // out[0] = i32 cap, out[1] = f64 bits, out[2] = i64 cap
    let out = vals[3];
    b.store(Ty::I64, out, vals[0]);
    let p1 = b.ptr_add(out, Operand::i64(8));
    b.store(Ty::F64, p1, vals[1]);
    let p2 = b.ptr_add(out, Operand::i64(16));
    b.store(Ty::I64, p2, vals[2]);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();

    let mut dev = Device::load(m, DeviceConfig::default());
    let out = dev.alloc(24);
    dev.launch(
        "k",
        Launch::new(1, 1),
        &[
            RtVal::P(out),
            RtVal::I(-123),
            RtVal::F(2.75),
            RtVal::I(1 << 40),
        ],
    )
    .unwrap();
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], -123);
    assert_eq!(dev.read_f64(out.add_bytes(8), 1).unwrap()[0], 2.75);
    assert_eq!(dev.read_i64(out.add_bytes(16), 1).unwrap()[0], 1 << 40);
}

/// `globalized_local` lowers to the right mechanism per flavor.
#[test]
fn globalized_local_lowering_per_flavor() {
    for (flavor, expect_call) in [
        (None, None),
        (Some(RuntimeFlavor::Modern), Some("__kmpc_alloc_shared")),
        (
            Some(RuntimeFlavor::Legacy),
            Some("__kmpc_data_sharing_push_stack_old"),
        ),
    ] {
        let mut m = Module::new("gl");
        let mut b = FuncBuilder::new("k", vec![], None);
        let p = globalized_local(&mut m, &mut b, flavor, 40);
        free_globalized(&mut m, &mut b, flavor, p, 40);
        b.ret(None);
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        let f = m.func(k);
        match expect_call {
            None => {
                assert!(f
                    .blocks
                    .iter()
                    .flat_map(|bb| &bb.insts)
                    .any(|&i| matches!(f.inst(i), Inst::Alloca { size: 40 })));
            }
            Some(name) => {
                let called = f.blocks.iter().flat_map(|bb| &bb.insts).any(|&i| {
                    matches!(f.inst(i), Inst::Call { callee: Operand::Func(t), .. }
                        if m.func(*t).name == name)
                });
                assert!(called, "{flavor:?} should call {name}");
            }
        }
    }
}

/// args_size never returns zero (empty capture lists still get a slot).
#[test]
fn args_size_minimum() {
    assert_eq!(args_size(&[]), 8);
    assert_eq!(args_size(&[(Operand::i64(1), Ty::I64)]), 8);
    assert_eq!(
        args_size(&[(Operand::i64(1), Ty::I64), (Operand::i64(2), Ty::I32)]),
        16
    );
}
