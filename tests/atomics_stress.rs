//! Atomics stress test: many teams hammering shared global cells.
//!
//! The final values are exactly computable on the host, and — per the
//! parallel determinism contract (`docs/parallel-vgpu.md`) — independent
//! of the worker-thread count:
//!
//! * an `i64` counter accumulated with `atomic.add` (sum of all
//!   contributions, order-free),
//! * `i64` min/max cells (order-free),
//! * an `f64` accumulator — f64 addition is **not** associative, so this
//!   one only matches bit for bit because the wave-ordered merge replays
//!   atomic operations in exactly the sequential order,
//! * a CAS-elected winner cell + winner count — exactly one winner, and
//!   it must be the *sequentially first* thread (team 0, thread 0), not
//!   whichever host thread won a wall-clock race.
//!
//! The sanitizer stays off: `parallel_determinism` holds sanitized
//! execution to unsanitized at every worker count.

use nzomp_ir::inst::AtomicOp;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal};

const TEAMS: u32 = 64;
const THREADS: u32 = 8;

/// Per-thread mixed value for the min/max cells.
fn mixed(gid: i64) -> i64 {
    (gid * 37) % 101 - gid
}

/// buf layout (i64/f64 slots): [0]=counter [1]=min [2]=max [3]=f64 acc
/// [4]=cas flag [5]=winner count
fn stress_module() -> Module {
    let mut m = Module::new("atomics_stress");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);

    // Counter: += gid + 1.
    let one_more = b.add(gid, Operand::i64(1));
    b.atomic_add(Ty::I64, buf, one_more);

    // Min/max of a mixed per-thread value.
    let g37 = b.mul(gid, Operand::i64(37));
    let md = b.srem(g37, Operand::i64(101));
    let v = b.sub(md, gid);
    let minp = b.ptr_add(buf, Operand::i64(8));
    b.atomic(AtomicOp::Min, Ty::I64, minp, v);
    let maxp = b.ptr_add(buf, Operand::i64(16));
    b.atomic(AtomicOp::Max, Ty::I64, maxp, v);

    // f64 accumulator: += 1 / (gid + 1). Order-sensitive bits.
    let gf = b.si_to_fp(one_more);
    let inv = b.fdiv(Operand::f64(1.0), gf);
    let accp = b.ptr_add(buf, Operand::i64(24));
    b.atomic(AtomicOp::Add, Ty::F64, accp, inv);

    // CAS winner election: flag 0 -> gid + 1, count the winners.
    let flagp = b.ptr_add(buf, Operand::i64(32));
    let prev = b.cas(Ty::I64, flagp, Operand::i64(0), one_more);
    let won = b.icmp_eq(prev, Operand::i64(0));
    let w = b.cast(nzomp_ir::inst::CastKind::ZExtCast, Ty::I64, won);
    let winp = b.ptr_add(buf, Operand::i64(40));
    b.atomic_add(Ty::I64, winp, w);

    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

struct Final {
    counter: i64,
    min: i64,
    max: i64,
    acc_bits: u64,
    flag: i64,
    winners: i64,
}

fn run(workers: usize) -> Final {
    let mut dev = Device::load(stress_module(), DeviceConfig::default());
    dev.set_worker_threads(workers);
    let buf = dev.alloc(48);
    dev.write_i64(buf, &[0, i64::MAX, i64::MIN, 0, 0, 0]).unwrap();
    dev.launch("k", Launch::new(TEAMS, THREADS), &[RtVal::P(buf)])
        .unwrap();
    let v = dev.read_i64(buf, 6).unwrap();
    Final {
        counter: v[0],
        min: v[1],
        max: v[2],
        acc_bits: v[3] as u64,
        flag: v[4],
        winners: v[5],
    }
}

#[test]
fn stress_final_values_exact_and_thread_count_independent() {
    let n = (TEAMS * THREADS) as i64;
    // Host-side ground truth. The f64 accumulator folds in sequential
    // execution order: teams ascending, threads within a team ascending
    // (straight-line kernel, so each thread runs to completion in turn).
    let counter: i64 = (1..=n).sum();
    let min = (0..n).map(mixed).min().unwrap();
    let max = (0..n).map(mixed).max().unwrap();
    let acc: f64 = (0..n).fold(0.0f64, |a, gid| a + 1.0 / (gid + 1) as f64);

    let base = run(1);
    assert_eq!(base.counter, counter, "counter (sequential)");
    assert_eq!(base.min, min, "min (sequential)");
    assert_eq!(base.max, max, "max (sequential)");
    assert_eq!(base.acc_bits, acc.to_bits(), "f64 fold order (sequential)");
    assert_eq!(base.flag, 1, "winner is team 0 thread 0 (gid 0 -> flag 1)");
    assert_eq!(base.winners, 1, "exactly one CAS winner (sequential)");

    for workers in [2usize, 4, 8] {
        let got = run(workers);
        assert_eq!(got.counter, counter, "counter @{workers}");
        assert_eq!(got.min, min, "min @{workers}");
        assert_eq!(got.max, max, "max @{workers}");
        assert_eq!(
            got.acc_bits,
            acc.to_bits(),
            "f64 fold order @{workers} — wave-ordered merge must replay \
             atomic adds in sequential order"
        );
        assert_eq!(got.flag, 1, "winner identity @{workers}");
        assert_eq!(got.winners, 1, "exactly one CAS winner @{workers}");
    }
}
