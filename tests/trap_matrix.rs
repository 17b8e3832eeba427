//! Table-driven coverage of the full trap taxonomy: one minimal kernel per
//! [`TrapKind`] variant, asserting the exact [`ExecError`] fields (kind,
//! team, thread, func) and the exact `Display` rendering. This pins both
//! the error semantics and the user-facing strings.
//! One run setting suffices: every kernel is one team, which no worker
//! count splits; multi-team traps are `parallel_determinism`'s.

use nzomp_ir::{ExecMode, FuncBuilder, Function, Global, Init, Module, Operand, Space, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    Device, DeviceConfig, DeviceFaultKind, DeviceFaultSite, ExecError, FaultPlan, RtVal, TrapKind,
};

struct Case {
    name: &'static str,
    /// Builds a loaded device, the launch geometry, and the kernel args.
    setup: fn() -> (Device, Launch, Vec<RtVal>),
    expect: ExecError,
    display: &'static str,
}

fn kernel_module(name: &'static str, params: Vec<Ty>, body: impl FnOnce(&mut FuncBuilder)) -> Module {
    let mut m = Module::new(name);
    let mut b = FuncBuilder::new(name, params, None);
    body(&mut b);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

fn default_dev(m: Module) -> Device {
    Device::load(m, DeviceConfig::default())
}

fn out_of_bounds() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("oob", vec![Ty::Ptr], |b| {
        let p = b.param(0);
        let far = b.gep(p, Operand::i64(1 << 26), 8);
        let _ = b.load(Ty::I64, far);
    });
    let mut dev = default_dev(m);
    let p = dev.alloc(8);
    (dev, Launch::new(1, 1), vec![RtVal::P(p)])
}

fn null_deref() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("null", vec![], |b| {
        let _ = b.load(Ty::I64, Operand::ConstI(0, Ty::Ptr));
    });
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn cross_thread_local() -> (Device, Launch, Vec<RtVal>) {
    // Thread 0 publishes its local-stack pointer through shared memory;
    // thread 1 dereferences it — the globalization hazard of paper §IV-A2.
    let mut m = Module::new("xlocal");
    m.add_global(Global::new("slot", Space::Shared, 8, Init::Zero));
    let g = m.find_global("slot").unwrap();
    let mut b = FuncBuilder::new("xlocal", vec![], None);
    let tid = b.thread_id();
    let local = b.alloca(8);
    b.store(Ty::I64, local, tid);
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let publish = b.new_block();
    let join = b.new_block();
    b.cond_br(is0, publish, join);
    b.switch_to(publish);
    b.store(Ty::Ptr, Operand::Global(g), local);
    b.br(join);
    b.switch_to(join);
    b.barrier();
    let p = b.load(Ty::Ptr, Operand::Global(g));
    let _ = b.load(Ty::I64, p);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    (default_dev(m), Launch::new(1, 2), vec![])
}

fn bad_indirect_call() -> (Device, Launch, Vec<RtVal>) {
    // Indirect call through a pointer into global *data* memory.
    let m = kernel_module("badcall", vec![Ty::Ptr], |b| {
        let p = b.param(0);
        let _ = b.call(p, vec![], None);
    });
    let mut dev = default_dev(m);
    let p = dev.alloc(8);
    (dev, Launch::new(1, 1), vec![RtVal::P(p)])
}

fn unresolved_call() -> (Device, Launch, Vec<RtVal>) {
    let mut m = Module::new("unres");
    let ext = m.add_function(Function::declaration("ext", vec![], None));
    let mut b = FuncBuilder::new("unres", vec![], None);
    let _ = b.call(Operand::Func(ext), vec![], None);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn assume_violated() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("asm", vec![Ty::I64], |b| {
        let x = b.param(0);
        let c = b.icmp_eq(x, Operand::i64(42));
        b.assume(c);
    });
    // Debug execution: assumptions are checked (paper §III-G).
    let dev = Device::load(
        m,
        DeviceConfig {
            check_assumes: true,
            ..DeviceConfig::default()
        },
    );
    (dev, Launch::new(1, 1), vec![RtVal::I(7)])
}

fn assert_fail() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("af", vec![], |b| {
        b.assert_fail();
    });
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn barrier_deadlock() -> (Device, Launch, Vec<RtVal>) {
    // Only thread 0 reaches an aligned barrier; the others exit.
    let mut m = Module::new("dead");
    let mut b = FuncBuilder::new("dead", vec![], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let wait = b.new_block();
    let done = b.new_block();
    b.cond_br(is0, wait, done);
    b.switch_to(wait);
    b.aligned_barrier();
    b.br(done);
    b.switch_to(done);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    (default_dev(m), Launch::new(1, 2), vec![])
}

fn fuel_exhausted() -> (Device, Launch, Vec<RtVal>) {
    // while (true) {} under a tiny step budget.
    let mut m = Module::new("spin");
    let mut b = FuncBuilder::new("spin", vec![], None);
    let lo = b.new_block();
    b.br(lo);
    b.switch_to(lo);
    b.br(lo);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    let dev = Device::load(
        m,
        DeviceConfig {
            max_steps: 1_000,
            ..DeviceConfig::default()
        },
    );
    (dev, Launch::new(1, 1), vec![])
}

fn div_by_zero() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("div", vec![Ty::I64], |b| {
        let d = b.param(0);
        let _ = b.sdiv(Operand::i64(1), d);
    });
    (default_dev(m), Launch::new(1, 1), vec![RtVal::I(0)])
}

fn out_of_memory() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("oom", vec![], |b| {
        let _ = b.malloc(Operand::i64(i64::MAX / 2));
    });
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn bad_free() -> (Device, Launch, Vec<RtVal>) {
    // free() of a host allocation the device allocator never handed out.
    let m = kernel_module("bf", vec![Ty::Ptr], |b| {
        let p = b.param(0);
        b.free(p);
    });
    let mut dev = default_dev(m);
    dev.alloc(8); // occupy offset 0 so the arg is a live host pointer
    let p = dev.alloc(8);
    (dev, Launch::new(1, 1), vec![RtVal::P(p)])
}

fn bad_launch() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("bl", vec![Ty::I64], |b| {
        let _ = b.param(0);
    });
    // One i64 parameter, zero args passed.
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn malformed_ir() -> (Device, Launch, Vec<RtVal>) {
    // A phi with no incoming for the taken edge. `nzomp::compile` rejects
    // this at link time; a device loads it, and refuses every launch with
    // the verifier's message, never a process abort.
    let mut m = Module::new("mal");
    let mut b = FuncBuilder::new("mal", vec![], None);
    let tid = b.thread_id(); // %0
    let never = b.icmp_eq(tid, Operand::i64(-1)); // %1
    let t = b.new_block(); // bb1
    let join = b.new_block(); // bb2
    b.cond_br(never, t, join);
    b.switch_to(t);
    b.br(join);
    b.switch_to(join);
    // %2: incoming only for bb1; entry bb0 takes the false edge directly.
    let _ = b.phi(Ty::I64, vec![(t, Operand::i64(1))]);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    // The verifier refuses this module...
    assert!(nzomp_ir::verify_module(&m).is_err());
    // ...and so does the device, at launch.
    (default_dev(m), Launch::new(1, 1), vec![])
}

fn device_fault_plan(sites: &[(u64, DeviceFaultKind)]) -> FaultPlan {
    FaultPlan {
        device_sites: sites
            .iter()
            .map(|&(after_ops, kind)| DeviceFaultSite { after_ops, kind })
            .collect(),
        ..FaultPlan::default()
    }
}

fn device_lost() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("lost", vec![], |_| {});
    let mut dev = default_dev(m);
    dev.set_fault_plan(device_fault_plan(&[(0, DeviceFaultKind::Lost)]));
    (dev, Launch::new(1, 1), vec![])
}

fn stalled() -> (Device, Launch, Vec<RtVal>) {
    let m = kernel_module("stall", vec![], |_| {});
    // Pin the step budget so the Display's fuel figure is exact.
    let mut dev = Device::load(
        m,
        DeviceConfig {
            max_steps: 1_000,
            ..DeviceConfig::default()
        },
    );
    dev.set_fault_plan(device_fault_plan(&[(0, DeviceFaultKind::StallLaunch)]));
    (dev, Launch::new(1, 1), vec![])
}

#[test]
fn every_trap_kind_has_exact_error_and_display() {
    let cases = vec![
        Case {
            name: "out_of_bounds",
            setup: out_of_bounds,
            expect: ExecError {
                kind: TrapKind::OutOfBounds,
                team: 0,
                thread: 0,
                func: "oob".into(),
            },
            display: "trap in team 0 thread 0 (@oob): out-of-bounds memory access",
        },
        Case {
            name: "null_deref",
            setup: null_deref,
            expect: ExecError {
                kind: TrapKind::NullDeref,
                team: 0,
                thread: 0,
                func: "null".into(),
            },
            display: "trap in team 0 thread 0 (@null): null pointer dereference",
        },
        Case {
            name: "cross_thread_local",
            setup: cross_thread_local,
            expect: ExecError {
                kind: TrapKind::CrossThreadLocalAccess {
                    owner: 0,
                    accessor: 1,
                },
                team: 0,
                thread: 1,
                func: "xlocal".into(),
            },
            display:
                "trap in team 0 thread 1 (@xlocal): thread 1 dereferenced local memory of thread 0",
        },
        Case {
            name: "bad_indirect_call",
            setup: bad_indirect_call,
            expect: ExecError {
                kind: TrapKind::BadIndirectCall,
                team: 0,
                thread: 0,
                func: "badcall".into(),
            },
            display:
                "trap in team 0 thread 0 (@badcall): indirect call through non-function pointer",
        },
        Case {
            name: "unresolved_call",
            setup: unresolved_call,
            expect: ExecError {
                kind: TrapKind::UnresolvedCall("ext".into()),
                team: 0,
                thread: 0,
                func: "unres".into(),
            },
            display: "trap in team 0 thread 0 (@unres): call of unresolved declaration @ext",
        },
        Case {
            name: "assume_violated",
            setup: assume_violated,
            expect: ExecError {
                kind: TrapKind::AssumeViolated,
                team: 0,
                thread: 0,
                func: "asm".into(),
            },
            display: "trap in team 0 thread 0 (@asm): assume() operand was false",
        },
        Case {
            name: "assert_fail",
            setup: assert_fail,
            expect: ExecError {
                kind: TrapKind::AssertFail,
                team: 0,
                thread: 0,
                func: "af".into(),
            },
            display: "trap in team 0 thread 0 (@af): device assertion failed",
        },
        Case {
            name: "barrier_deadlock",
            setup: barrier_deadlock,
            expect: ExecError {
                kind: TrapKind::BarrierDeadlock,
                team: 0,
                thread: 0,
                func: "dead".into(),
            },
            display: "trap in team 0 thread 0 (@dead): barrier deadlock",
        },
        Case {
            name: "fuel_exhausted",
            setup: fuel_exhausted,
            expect: ExecError {
                kind: TrapKind::FuelExhausted,
                team: 0,
                thread: 0,
                func: "spin".into(),
            },
            display: "trap in team 0 thread 0 (@spin): step budget exhausted",
        },
        Case {
            name: "div_by_zero",
            setup: div_by_zero,
            expect: ExecError {
                kind: TrapKind::DivByZero,
                team: 0,
                thread: 0,
                func: "div".into(),
            },
            display: "trap in team 0 thread 0 (@div): integer division by zero",
        },
        Case {
            name: "out_of_memory",
            setup: out_of_memory,
            expect: ExecError {
                kind: TrapKind::OutOfMemory,
                team: 0,
                thread: 0,
                func: "oom".into(),
            },
            display: "trap in team 0 thread 0 (@oom): device heap exhausted",
        },
        Case {
            name: "bad_free",
            setup: bad_free,
            expect: ExecError {
                kind: TrapKind::BadFree,
                team: 0,
                thread: 0,
                func: "bf".into(),
            },
            display: "trap in team 0 thread 0 (@bf): free() of unknown pointer",
        },
        Case {
            name: "bad_launch",
            setup: bad_launch,
            expect: ExecError {
                kind: TrapKind::BadLaunch("kernel @bl takes 1 args, got 0".into()),
                team: 0,
                thread: 0,
                func: "bl".into(),
            },
            display: "trap in team 0 thread 0 (@bl): bad launch: kernel @bl takes 1 args, got 0",
        },
        Case {
            name: "malformed_ir",
            setup: malformed_ir,
            expect: ExecError {
                kind: TrapKind::MalformedIr(
                    "verify error in @mal: phi %2 in bb2 missing incoming for predecessor bb0".into(),
                ),
                team: 0,
                thread: 0,
                func: "mal".into(),
            },
            display: "trap in team 0 thread 0 (@mal): malformed IR: \
                      verify error in @mal: phi %2 in bb2 missing incoming for predecessor bb0",
        },
        Case {
            name: "device_lost",
            setup: device_lost,
            expect: ExecError {
                kind: TrapKind::DeviceLost,
                team: 0,
                thread: 0,
                func: "lost".into(),
            },
            display: "trap in team 0 thread 0 (@lost): device lost",
        },
        Case {
            name: "stalled",
            setup: stalled,
            expect: ExecError {
                kind: TrapKind::Stalled { fuel: 1_000 },
                team: 0,
                thread: 0,
                func: "stall".into(),
            },
            display: "trap in team 0 thread 0 (@stall): kernel stalled: watchdog fired after \
                      1000 steps without completion",
        },
    ];

    for case in cases {
        let (mut dev, launch, args) = (case.setup)();
        let err = dev
            .launch(case.expect.func.as_str(), launch, &args)
            .expect_err(case.name);
        assert_eq!(err, case.expect, "wrong ExecError for case {}", case.name);
        assert_eq!(
            err.to_string(),
            case.display,
            "wrong Display for case {}",
            case.name
        );
    }
}

/// Launching a kernel that does not exist is also a typed error.
#[test]
fn missing_kernel_is_bad_launch() {
    let m = kernel_module("k", vec![], |_| {});
    let mut dev = default_dev(m);
    let err = dev.launch("nope", Launch::new(1, 1), &[]).unwrap_err();
    assert_eq!(err.kind, TrapKind::BadLaunch("no kernel @nope".into()));
    assert_eq!(
        err.to_string(),
        "trap in team 0 thread 0 (@nope): bad launch: no kernel @nope"
    );
}

/// Host-side memcpys report typed out-of-bounds errors (never panics),
/// with a synthetic `<host ...>` function name in the Display.
#[test]
fn host_memcpy_errors_are_typed() {
    let m = kernel_module("k", vec![], |_| {});
    let mut dev = default_dev(m);
    let p = dev.alloc(16);
    // In-bounds round trip works.
    dev.write_f64(p, &[1.5, -2.5]).unwrap();
    assert_eq!(dev.read_f64(p, 2).unwrap(), vec![1.5, -2.5]);
    // Out-of-bounds read and write both produce typed errors.
    let far = p.add_bytes(1 << 30);
    let r = dev.read_f64(far, 1).unwrap_err();
    assert_eq!(r.kind, TrapKind::OutOfBounds);
    assert_eq!(
        r.to_string(),
        "trap in team 0 thread 0 (@<host read>): out-of-bounds memory access"
    );
    let w = dev.write_i64(far, &[1]).unwrap_err();
    assert_eq!(w.kind, TrapKind::OutOfBounds);
    assert_eq!(
        w.to_string(),
        "trap in team 0 thread 0 (@<host write>): out-of-bounds memory access"
    );
    let w32 = dev.write_i32(far, &[1]).unwrap_err();
    assert_eq!(w32.kind, TrapKind::OutOfBounds);
    let wp = dev.write_ptr(far, p).unwrap_err();
    assert_eq!(wp.kind, TrapKind::OutOfBounds);
    let r64 = dev.read_i64(far, 1).unwrap_err();
    assert_eq!(r64.kind, TrapKind::OutOfBounds);
    let r32 = dev.read_i32(far, 1).unwrap_err();
    assert_eq!(r32.kind, TrapKind::OutOfBounds);
}

/// A transient memcpy fault is typed, carries the `<host ...>` context,
/// and — being one-shot — clears on the immediate retry with device
/// memory untouched.
#[test]
fn memcpy_fault_is_typed_and_one_shot() {
    let m = kernel_module("k", vec![], |_| {});
    let mut dev = default_dev(m);
    let p = dev.alloc(16);
    // Op clock: write(0) faults, read(1) verifies, write(2) retries,
    // read(3) faults, read(4) verifies.
    dev.set_fault_plan(device_fault_plan(&[
        (0, DeviceFaultKind::MemcpyFail),
        (3, DeviceFaultKind::MemcpyFail),
    ]));
    // Write: first attempt faults, retry lands.
    let e = dev.write_bytes(p, &[7u8; 16]).unwrap_err();
    assert_eq!(e.kind, TrapKind::MemcpyFault);
    assert_eq!(
        e.to_string(),
        "trap in team 0 thread 0 (@<host write>): transient memcpy failure"
    );
    assert_eq!(
        dev.read_bytes(p, 16).unwrap(),
        vec![0u8; 16],
        "the faulted transfer left device memory untouched"
    );
    dev.write_bytes(p, &[7u8; 16]).unwrap();
    // Read: the second site fires on the read path with its own context.
    let e = dev.read_bytes(p, 16).unwrap_err();
    assert_eq!(e.kind, TrapKind::MemcpyFault);
    assert_eq!(
        e.to_string(),
        "trap in team 0 thread 0 (@<host read>): transient memcpy failure"
    );
    assert_eq!(dev.read_bytes(p, 16).unwrap(), vec![7u8; 16]);
}

/// Device loss latches: every host-visible operation after the fault
/// returns `DeviceLost` until a plan is re-armed (the test hook that
/// makes seeded campaigns replayable — production replaces the device).
#[test]
fn device_loss_latches_until_replan() {
    let m = kernel_module("k", vec![], |_| {});
    let mut dev = default_dev(m);
    let p = dev.alloc(8);
    dev.set_fault_plan(device_fault_plan(&[(0, DeviceFaultKind::Lost)]));
    assert!(!dev.is_lost());
    assert_eq!(dev.write_bytes(p, &[1; 8]).unwrap_err().kind, TrapKind::DeviceLost);
    assert!(dev.is_lost());
    assert_eq!(dev.read_bytes(p, 8).unwrap_err().kind, TrapKind::DeviceLost);
    assert_eq!(
        dev.launch("k", Launch::new(1, 1), &[]).unwrap_err().kind,
        TrapKind::DeviceLost
    );
    // The typed memcpys answer for the same latch, with the host context.
    let r = dev.read_f64(p, 1).unwrap_err();
    assert_eq!(r.kind, TrapKind::DeviceLost);
    assert_eq!(r.func, "<host read>");
    let w = dev.write_i64(p, &[1]).unwrap_err();
    assert_eq!(w.kind, TrapKind::DeviceLost);
    assert_eq!(w.func, "<host write>");
    assert_eq!(dev.read_i64(p, 1).unwrap_err().kind, TrapKind::DeviceLost);
    assert_eq!(dev.read_i32(p, 1).unwrap_err().kind, TrapKind::DeviceLost);
    assert_eq!(dev.write_f64(p, &[1.0]).unwrap_err().kind, TrapKind::DeviceLost);
    assert_eq!(dev.write_i32(p, &[1]).unwrap_err().kind, TrapKind::DeviceLost);
    assert_eq!(dev.write_ptr(p, p).unwrap_err().kind, TrapKind::DeviceLost);
    // Allocation is host-side bookkeeping: the upload is dropped, no panic.
    let q = dev.alloc_f64(&[1.0]);
    assert_eq!(dev.read_f64(q, 1).unwrap_err().kind, TrapKind::DeviceLost);
    // Re-arming resets the device-fault clock and resurrects the device.
    dev.set_fault_plan(FaultPlan::default());
    assert!(!dev.is_lost());
    dev.write_bytes(p, &[1; 8]).unwrap();
    dev.launch("k", Launch::new(1, 1), &[]).unwrap();
}

/// Seeded device campaigns reproduce: the same seed produces the same
/// typed error at the same operation index on a fresh device — the PR 1
/// matrix discipline extended to device-scoped faults.
#[test]
fn device_campaigns_reproduce_from_seed() {
    let m = kernel_module("k", vec![], |_| {});
    // One run = a fixed op sequence; record each op's outcome kind.
    let trace = |seed: u64| -> Vec<String> {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        let p = dev.alloc(32);
        dev.set_fault_plan(FaultPlan::device_campaign(seed));
        let mut t = Vec::new();
        for i in 0..6 {
            let r: Result<(), ExecError> = match i % 3 {
                0 => dev.write_bytes(p, &[i as u8; 32]).map(|_| ()),
                1 => dev.launch("k", Launch::new(1, 1), &[]).map(|_| ()),
                _ => dev.read_bytes(p, 32).map(|_| ()),
            };
            t.push(match r {
                Ok(()) => "ok".to_string(),
                Err(e) => e.to_string(),
            });
        }
        t
    };
    let mut faulted = 0;
    for seed in 0..50u64 {
        let a = trace(seed);
        assert_eq!(a, trace(seed), "seed {seed} diverged across runs");
        if a.iter().any(|s| s != "ok") {
            faulted += 1;
        }
    }
    assert!(faulted > 25, "campaigns barely fire ({faulted}/50)");
}

/// The typed `CompileError` surfaces malformed modules at link time with a
/// stage-qualified Display (tentpole: no `expect("runtime links")` left).
#[test]
fn compile_rejects_malformed_module_with_typed_error() {
    use nzomp::BuildConfig;
    // Same malformed phi as above, but routed through the pipeline.
    let mut m = Module::new("mal");
    let mut b = FuncBuilder::new("mal", vec![], None);
    let tid = b.thread_id();
    let never = b.icmp_eq(tid, Operand::i64(-1));
    let t = b.new_block();
    let join = b.new_block();
    b.cond_br(never, t, join);
    b.switch_to(t);
    b.br(join);
    b.switch_to(join);
    let _ = b.phi(Ty::I64, vec![(t, Operand::i64(1))]);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    let Err(err) = nzomp::compile(m, BuildConfig::NewRtNoAssumptions) else {
        panic!("malformed module compiled successfully");
    };
    let msg = err.to_string();
    assert!(
        msg.contains("failed verification after link") && msg.contains("missing incoming"),
        "unexpected CompileError display: {msg}"
    );
}

/// An intrinsic with the wrong operand count is a link-time `Verify` error
/// too: before the verifier knew the arity column, `malloc()` compiled and
/// only trapped `MalformedIr` on the device.
#[test]
fn compile_rejects_intrinsic_arity_with_typed_error() {
    use nzomp::{BuildConfig, CompileError};
    use nzomp_ir::Intrinsic;
    for (intr, args, needle) in [
        (Intrinsic::Malloc, vec![], "malloc takes 1 operand(s), found 0"),
        (Intrinsic::Free, vec![], "free takes 1 operand(s), found 0"),
        (Intrinsic::Assume(()), vec![], "assume takes 1 operand(s), found 0"),
        (Intrinsic::ThreadId, vec![Operand::i64(1), Operand::i64(2)], "thread.id takes 0"),
    ] {
        let mut m = Module::new("arity");
        let mut b = FuncBuilder::new("arity", vec![], None);
        b.intr(intr, args);
        b.ret(None);
        let f = m.add_function(b.finish());
        m.add_kernel(f, ExecMode::Spmd);
        match nzomp::compile(m, BuildConfig::NewRtNoAssumptions) {
            Err(CompileError::Verify { stage: "link", err }) => {
                assert!(err.message.contains(needle), "{intr:?}: {err}")
            }
            other => panic!("{intr:?}: expected a link-stage Verify error, got {:?}", other.map(|_| ())),
        }
    }
}
