//! Golden-report tests for the data-race & barrier-divergence sanitizer:
//! hand-built IR kernels with known conflicts, pinning the exact rendered
//! `RaceReport`/`DivergenceReport` text (both access sites, memory space,
//! epoch info) so the diagnostics stay stable.

use nzomp_ir::{ExecMode, FuncBuilder, Global, Init, Module, Operand, Space, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, Sanitize, TrapKind};

fn finish_kernel(mut m: Module, b: FuncBuilder) -> Module {
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

fn sanitized_device(m: Module) -> Device {
    let mut dev = Device::load(m, DeviceConfig::default());
    dev.set_sanitize(Sanitize::Report);
    dev
}

fn rendered(dev: &Device) -> Vec<String> {
    dev.sanitizer_reports()
        .iter()
        .map(|r| r.to_string())
        .collect()
}

/// Every thread plain-stores to the same shared cell.
fn write_write_module() -> Module {
    let mut m = Module::new("racy");
    m.add_global(Global::new("cell", Space::Shared, 8, Init::Zero));
    let g = m.find_global("cell").unwrap();
    let mut b = FuncBuilder::new("wr", vec![], None);
    let tid = b.thread_id();
    b.store(Ty::I64, Operand::Global(g), tid);
    b.ret(None);
    finish_kernel(m, b)
}

#[test]
fn shared_write_write_race_golden() {
    let mut dev = sanitized_device(write_write_module());
    let metrics = dev.launch("wr", Launch::new(1, 2), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 1);
    assert_eq!(metrics.sanitizer_divergences, 0);
    assert_eq!(
        rendered(&dev),
        vec![
            "[race:sanitize] shared+0x0: write by team 0 thread 1 at @wr bb0 %1 \
             (epoch 0) conflicts with write by team 0 thread 0 at @wr bb0 %1 (epoch 0)"
                .to_string()
        ]
    );
}

#[test]
fn duplicate_races_fold_into_count() {
    // Threads 1..3 all conflict with thread 0 at the same site pair: one
    // report, count 3.
    let mut dev = sanitized_device(write_write_module());
    let metrics = dev.launch("wr", Launch::new(1, 4), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 1);
    let r = rendered(&dev);
    assert_eq!(r.len(), 1);
    assert!(r[0].ends_with("[x3]"), "got: {}", r[0]);
}

/// `cell[tid] = tid; aligned_barrier; read cell[1 - tid]` — the canonical
/// barrier-published broadcast. With the barrier: clean. Without: the
/// epoch model reports thread 1's write against thread 0's read.
fn broadcast_module(with_barrier: bool) -> Module {
    let mut m = Module::new("bc");
    m.add_global(Global::new("cells", Space::Shared, 16, Init::Zero));
    let g = m.find_global("cells").unwrap();
    let mut b = FuncBuilder::new("bc", vec![], None);
    let tid = b.thread_id();
    let own = b.gep(Operand::Global(g), tid, 8);
    b.store(Ty::I64, own, tid);
    if with_barrier {
        b.aligned_barrier();
    }
    let rev = b.sub(Operand::i64(1), tid);
    let other = b.gep(Operand::Global(g), rev, 8);
    let _v = b.load(Ty::I64, other);
    b.ret(None);
    finish_kernel(m, b)
}

#[test]
fn barrier_orders_broadcast_clean() {
    let mut dev = sanitized_device(broadcast_module(true));
    let metrics = dev.launch("bc", Launch::new(1, 2), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 0);
    assert_eq!(metrics.sanitizer_divergences, 0);
    assert!(dev.sanitizer_reports().is_empty());
}

#[test]
fn missing_barrier_reports_read_write_race_golden() {
    let mut dev = sanitized_device(broadcast_module(false));
    let metrics = dev.launch("bc", Launch::new(1, 2), &[]).unwrap();
    // Without the barrier both directions race: thread 0 (which ran to
    // completion first) read cell[1] that thread 1 then writes, and
    // thread 1 reads cell[0] that thread 0 wrote — same epoch.
    assert_eq!(metrics.sanitizer_races, 2);
    assert_eq!(
        rendered(&dev),
        vec![
            "[race:sanitize] shared+0x8: write by team 0 thread 1 at @bc bb0 %3 \
             (epoch 0) conflicts with read by team 0 thread 0 at @bc bb0 %7 (epoch 0)"
                .to_string(),
            "[race:sanitize] shared+0x0: read by team 0 thread 1 at @bc bb0 %7 \
             (epoch 0) conflicts with write by team 0 thread 0 at @bc bb0 %3 (epoch 0)"
                .to_string(),
        ]
    );
}

/// All-atomic contention is synchronized by definition.
#[test]
fn atomic_atomic_is_clean() {
    let mut m = Module::new("aa");
    m.add_global(Global::new("acc", Space::Shared, 8, Init::Zero));
    let g = m.find_global("acc").unwrap();
    let mut b = FuncBuilder::new("aa", vec![], None);
    let _old = b.atomic_add(Ty::I64, Operand::Global(g), Operand::i64(1));
    b.ret(None);
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let metrics = dev.launch("aa", Launch::new(1, 8), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 0);
}

/// A plain store racing an atomic RMW on the same cell is a race (the
/// "downgraded atomic" bug class).
#[test]
fn atomic_vs_plain_store_races_golden() {
    let mut m = Module::new("ap");
    m.add_global(Global::new("acc", Space::Shared, 8, Init::Zero));
    let g = m.find_global("acc").unwrap();
    let mut b = FuncBuilder::new("ap", vec![], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let plain = b.new_block();
    let atomic = b.new_block();
    let join = b.new_block();
    b.cond_br(is0, plain, atomic);
    b.switch_to(plain);
    b.store(Ty::I64, Operand::Global(g), Operand::i64(7));
    b.br(join);
    b.switch_to(atomic);
    let _old = b.atomic_add(Ty::I64, Operand::Global(g), Operand::i64(1));
    b.br(join);
    b.switch_to(join);
    b.ret(None);
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let metrics = dev.launch("ap", Launch::new(1, 2), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 1);
    let r = rendered(&dev);
    assert_eq!(r.len(), 1);
    assert!(
        r[0].contains("atomic by team 0 thread 1") && r[0].contains("conflicts with write"),
        "got: {}",
        r[0]
    );
}

/// Two teams plain-store to the same global word: no ordering exists
/// between teams of a launch — cross-team race.
fn cross_team_module() -> Module {
    let m = Module::new("xt");
    let mut b = FuncBuilder::new("xt", vec![Ty::Ptr], None);
    let out = b.param(0);
    let bid = b.block_id();
    b.store(Ty::I64, out, bid);
    b.ret(None);
    finish_kernel(m, b)
}

/// At one worker and through the wave engine's merge, whose fold of a
/// merged team's verdict is what the second worker count checks.
#[test]
fn cross_team_write_write_race_golden() {
    for workers in [1, 8] {
        let mut dev = sanitized_device(cross_team_module());
        dev.set_worker_threads(workers);
        let out = dev.alloc(8);
        let metrics = dev
            .launch("xt", Launch::new(2, 1), &[RtVal::P(out)])
            .unwrap();
        assert_eq!(metrics.sanitizer_races, 1, "workers={workers}");
        assert_eq!(
            rendered(&dev),
            vec![format!(
                "[race:sanitize] global+0x{:x}: write by team 1 thread 0 at @xt bb0 %1 \
                 conflicts with write by team 0 thread 0 at @xt bb0 %1 (cross-team)",
                out.offset()
            )],
            "workers={workers}"
        );
    }
}

#[test]
fn cross_team_verdict_identical_across_worker_counts() {
    let mut baseline: Option<Vec<String>> = None;
    for workers in [1usize, 2, 4, 8] {
        let mut dev = sanitized_device(cross_team_module());
        dev.set_worker_threads(workers);
        let out = dev.alloc(8);
        let metrics = dev
            .launch("xt", Launch::new(4, 1), &[RtVal::P(out)])
            .unwrap();
        let got = rendered(&dev);
        // Teams 2 and 3 repeat team 1's site pair and dedup onto it.
        assert_eq!(metrics.sanitizer_races, 1, "workers={workers}");
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "workers={workers}"),
        }
    }
}

/// Per-team atomics to one global accumulator synchronize across teams.
#[test]
fn cross_team_atomics_clean() {
    let m = Module::new("xa");
    let mut b = FuncBuilder::new("xa", vec![Ty::Ptr], None);
    let out = b.param(0);
    let _old = b.atomic_add(Ty::I64, out, Operand::i64(1));
    b.ret(None);
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let out = dev.alloc(8);
    let metrics = dev
        .launch("xa", Launch::new(4, 2), &[RtVal::P(out)])
        .unwrap();
    assert_eq!(metrics.sanitizer_races, 0);
    assert_eq!(dev.read_i64(out, 1).unwrap()[0], 8);
}

/// Threads reach *different* aligned barriers (divergent control flow):
/// the release is flagged, execution is unchanged.
#[test]
fn divergent_aligned_barrier_sites_golden() {
    let m = Module::new("div");
    let mut b = FuncBuilder::new("div", vec![], None);
    let tid = b.thread_id();
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    let a = b.new_block();
    let c = b.new_block();
    let join = b.new_block();
    b.cond_br(is0, a, c);
    b.switch_to(a);
    b.aligned_barrier();
    b.br(join);
    b.switch_to(c);
    b.aligned_barrier();
    b.br(join);
    b.switch_to(join);
    b.ret(None);
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let metrics = dev.launch("div", Launch::new(1, 2), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 0);
    assert_eq!(metrics.sanitizer_divergences, 1);
    assert_eq!(
        rendered(&dev),
        vec![
            "[divergence:sanitize] team 0 epoch 0: aligned barrier released with \
             divergent arrivals: thread 0 (aligned) at @div bb1 %2, \
             thread 1 (aligned) at @div bb2 %3"
                .to_string()
        ]
    );
}

/// An aligned barrier reached by a subset of threads (others already
/// exited) still traps `BarrierDeadlock` — and the divergence report
/// survives the trap.
#[test]
fn aligned_subset_reports_through_trap() {
    let m = Module::new("dead");
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
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let err = dev.launch("dead", Launch::new(1, 2), &[]).unwrap_err();
    assert_eq!(err.kind, TrapKind::BarrierDeadlock);
    assert_eq!(dev.sanitizer_counts(), (0, 1));
    let r = rendered(&dev);
    assert_eq!(r.len(), 1);
    assert!(
        r[0].contains("reached by only 1 of 2 threads (1 already exited)"),
        "got: {}",
        r[0]
    );
}

/// The modern runtime's cond-write sink (`__omp_rtl_dummy`) takes
/// concurrent plain stores *by design* (Fig. 7b); it is suppressed.
#[test]
fn cond_write_sink_is_suppressed() {
    let mut m = Module::new("sink");
    m.add_global(Global::new("__omp_rtl_dummy", Space::Shared, 8, Init::Zero));
    let g = m.find_global("__omp_rtl_dummy").unwrap();
    let mut b = FuncBuilder::new("sink", vec![], None);
    let tid = b.thread_id();
    b.store(Ty::I64, Operand::Global(g), tid);
    b.ret(None);
    let m = finish_kernel(m, b);
    let mut dev = sanitized_device(m);
    let metrics = dev.launch("sink", Launch::new(1, 8), &[]).unwrap();
    assert_eq!(metrics.sanitizer_races, 0);
    assert!(dev.sanitizer_reports().is_empty());
}

/// Sanitizing must not perturb execution: cycles, instructions, and the
/// result image are identical with the sanitizer on and off, even for a
/// racy kernel.
#[test]
fn sanitizer_does_not_change_execution() {
    let run = |sanitize| {
        let mut dev = Device::load(write_write_module(), DeviceConfig::default());
        dev.set_sanitize(sanitize);
        let m = dev.launch("wr", Launch::new(1, 4), &[]).unwrap();
        (m.cycles, m.instructions, m.barriers, dev.global_bytes().to_vec())
    };
    let off = run(Sanitize::Off);
    let on = run(Sanitize::Report);
    assert_eq!(off, on);

    let mut plain = Device::load(write_write_module(), DeviceConfig::default());
    plain.launch("wr", Launch::new(1, 4), &[]).unwrap();
    assert!(plain.sanitizer_reports().is_empty());
    assert_eq!(plain.sanitizer_counts(), (0, 0));
}
