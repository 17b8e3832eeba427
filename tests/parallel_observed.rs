//! Regression tests for the merge-validation gaps a review found in the
//! parallel team engine: observed values that steer a team's behavior —
//! atomic RMW old values with live results, and plain global loads of
//! locations lower-indexed teams wrote — must be validated at the
//! wave-ordered merge, with a direct re-run on mismatch. Without that,
//! these kernels silently diverge from sequential execution at
//! `worker_threads > 1`.
//! The sanitizer stays off: `parallel_determinism` holds sanitized
//! execution to unsanitized at every worker count.

use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, KernelMetrics, RtVal};

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn run(m: &Module, teams: u32, threads: u32, slots: usize, workers: usize) -> (Vec<i64>, KernelMetrics) {
    let mut dev = Device::load(m.clone(), DeviceConfig::default());
    dev.set_worker_threads(workers);
    let buf = dev.alloc((slots * 8) as u64);
    dev.write_i64(buf, &vec![0i64; slots]).unwrap();
    let metrics = dev
        .launch("k", Launch::new(teams, threads), &[RtVal::P(buf)])
        .unwrap();
    (dev.read_i64(buf, slots).unwrap(), metrics)
}

fn assert_matches_sequential(m: &Module, teams: u32, threads: u32, slots: usize, want: &[i64]) {
    let (base, base_metrics) = run(m, teams, threads, slots, 1);
    assert_eq!(base, want, "sequential ground truth");
    for &workers in &WORKER_COUNTS {
        let (got, metrics) = run(m, teams, threads, slots, workers);
        assert_eq!(got, base, "memory image diverges @{workers} workers");
        assert_eq!(metrics, base_metrics, "metrics diverge @{workers} workers");
    }
}

/// The fetch-add index-allocation idiom: the atomic's *returned* old value
/// indexes a store, so two same-wave teams observing the same snapshot
/// counter would claim the same slot. The merge must validate the observed
/// value (the result register is live) and re-run contaminated teams.
#[test]
fn fetch_add_index_allocation_is_sequential() {
    const TEAMS: u32 = 16;
    const THREADS: u32 = 4;
    let mut m = Module::new("fetch_add_index");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);

    // idx = counter++; slots[idx] = gid + 100.
    let idx = b.atomic_add(Ty::I64, buf, Operand::i64(1));
    let slots = b.ptr_add(buf, Operand::i64(8));
    let slotp = b.gep(slots, idx, 8);
    let tag = b.add(gid, Operand::i64(100));
    b.store(Ty::I64, slotp, tag);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    // Sequentially, global thread k (teams ascending, threads within a
    // team ascending) draws index k, so slot k holds k + 100.
    let n = (TEAMS * THREADS) as usize;
    let mut want = vec![n as i64];
    want.extend((0..n as i64).map(|k| k + 100));
    assert_matches_sequential(&m, TEAMS, THREADS, 1 + n, &want);
}

/// Cross-team plain reads: team t reads the cell team t-1 wrote. In
/// sequential execution the chain propagates (`buf[t+1] = buf[t] + 1`);
/// buffered teams read a stale snapshot, so the merge must validate the
/// logged load observations and re-run every contaminated team in order.
#[test]
fn cross_team_plain_read_chain_is_sequential() {
    const TEAMS: u32 = 32;
    let mut m = Module::new("read_chain");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let team = b.block_id();
    let prevp = b.gep(buf, team, 8);
    let one = b.add(team, Operand::i64(1));
    let nextp = b.gep(buf, one, 8);
    let prev = b.load(Ty::I64, prevp);
    let inc = b.add(prev, Operand::i64(1));
    b.store(Ty::I64, nextp, inc);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    // Host presets buf[0] = 1 via the kernel? No: keep the buffer zeroed
    // and let the chain start at 0 — buf[t] = t after the launch.
    let want: Vec<i64> = (0..=TEAMS as i64).collect();
    assert_matches_sequential(&m, TEAMS, 1, TEAMS as usize + 1, &want);
}

/// A dead-result atomic add followed by a plain load of the same cell:
/// the add itself needs no validation, but it desynchronizes the team's
/// view from the merge-time master, so the subsequent load must be logged
/// and validated (the sync mask has to *clear* on unvalidated RMWs).
#[test]
fn load_after_dead_result_atomic_is_sequential() {
    const TEAMS: u32 = 12;
    let mut m = Module::new("load_after_add");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let team = b.block_id();
    // counter += 1 (result discarded), then v = load(counter) — the
    // loaded value is team-order dependent: sequentially team t sees t+1.
    b.atomic_add(Ty::I64, buf, Operand::i64(1));
    let v = b.load(Ty::I64, buf);
    let one = b.add(team, Operand::i64(1));
    let outp = b.gep(buf, one, 8);
    b.store(Ty::I64, outp, v);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    let mut want = vec![TEAMS as i64];
    want.extend((1..=TEAMS as i64).collect::<Vec<_>>());
    assert_matches_sequential(&m, TEAMS, 1, TEAMS as usize + 1, &want);
}

/// Pure dead-result reductions — the case the validation rules must keep
/// fully parallel — still agree bit for bit (including the f64 fold
/// order, which only matches because replay re-applies operations in team
/// order).
#[test]
fn dead_result_reduction_stays_exact() {
    const TEAMS: u32 = 24;
    const THREADS: u32 = 8;
    let mut m = Module::new("reduction");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);
    let one_more = b.add(gid, Operand::i64(1));
    b.atomic_add(Ty::I64, buf, one_more);
    let gf = b.si_to_fp(one_more);
    let inv = b.fdiv(Operand::f64(1.0), gf);
    let accp = b.ptr_add(buf, Operand::i64(8));
    b.atomic(nzomp_ir::inst::AtomicOp::Add, Ty::F64, accp, inv);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);

    let n = (TEAMS * THREADS) as i64;
    let acc = (0..n).fold(0.0f64, |a, g| a + 1.0 / (g + 1) as f64);
    let want = vec![(1..=n).sum::<i64>(), acc.to_bits() as i64];
    assert_matches_sequential(&m, TEAMS, THREADS, 2, &want);
}

// ---- what the wave engine did (`Device::last_wave_stats`) ---------------------

use nzomp::BuildConfig;
use nzomp_proxies::gridmini::GridMini;
use nzomp_proxies::minifmm::MiniFmm;
use nzomp_proxies::rsbench::RSBench;
use nzomp_proxies::testsnap::TestSnap;
use nzomp_proxies::xsbench::XSBench;
use nzomp_proxies::{compile_for_config, quick_device, verify_output, Proxy};
use nzomp_vgpu::{ExecTier, WaveStats};

/// An SPMD kernel `k(buf)` whose body gets the buffer and the global
/// thread id.
fn kernel(name: &str, body: impl FnOnce(&mut FuncBuilder, Operand, Operand)) -> Module {
    let mut m = Module::new(name);
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let (tid, team, dim) = (b.thread_id(), b.block_id(), b.block_dim());
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);
    body(&mut b, buf, gid);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}

/// The counts of one launch of `k`, the same at every worker count ≥ 2 and
/// on both execution tiers: the interpreter hands the buffered view the
/// same live-result flag and the same accesses the bytecode tier does.
fn wave_stats(m: &Module, teams: u32, threads: u32, slots: usize) -> WaveStats {
    assert_eq!(nzomp_ir::verify_module(m), Ok(()), "the bytecode tier must run it");
    let per_run = [ExecTier::Interp, ExecTier::Bytecode].map(|tier| {
        WORKER_COUNTS.map(|workers| {
            let mut dev = Device::load(m.clone(), DeviceConfig::default());
            dev.set_worker_threads(workers);
            dev.set_exec_tier(tier);
            let buf = dev.alloc((slots * 8) as u64);
            dev.launch("k", Launch::new(teams, threads), &[RtVal::P(buf)]).unwrap();
            dev.last_wave_stats().unwrap()
        })
    });
    let first = per_run[0][0];
    assert!(per_run.iter().flatten().all(|s| *s == first), "[interp, bytecode]: {per_run:?}");
    first
}

/// Fetch-add index allocation (`slots[counter++] = gid`) serialises every
/// team but the first: team 0 observed the counter the master holds, every
/// later team observed the wave-start 0 under a live result and is re-run.
/// Per thread one validated atomic and one store, all in a team's one
/// chunk. One worker takes the sequential path, which counts nothing.
#[test]
fn fetch_add_index_allocation_reruns_every_team_but_the_first() {
    let m = kernel("fetch_add_index", |b, buf, gid| {
        let idx = b.atomic_add(Ty::I64, buf, Operand::i64(1));
        let slots = b.ptr_add(buf, Operand::i64(8));
        let slotp = b.gep(slots, idx, 8);
        b.store(Ty::I64, slotp, gid);
    });
    assert_eq!(
        wave_stats(&m, 16, 4, 65),
        WaveStats {
            waves: 1,
            teams: 16,
            merged: 1,
            rerun_validation: 15,
            rerun_fuel: 0,
            bailed: 0,
            effects: 16 * 4 * 2,
            validated: 16 * 4,
            private_chunks: 16,
        }
    );

    let mut dev = Device::load(m, DeviceConfig::default());
    dev.set_worker_threads(1);
    let buf = dev.alloc(65 * 8);
    dev.launch("k", Launch::new(16, 4), &[RtVal::P(buf)]).unwrap();
    assert_eq!(dev.last_wave_stats(), None);
}

/// A dead-result reduction validates nothing and re-runs nobody.
#[test]
fn a_dead_result_reduction_reruns_no_team() {
    let m = kernel("reduction", |b, buf, gid| {
        b.atomic_add(Ty::I64, buf, gid);
    });
    assert_eq!(
        wave_stats(&m, 24, 8, 1),
        WaveStats {
            waves: 1,
            teams: 24,
            merged: 24,
            effects: 24 * 8,
            private_chunks: 24,
            ..WaveStats::default()
        }
    );
}

/// A contended compare-and-swap (`cas(&buf[0], 0, gid + 1)`: the first
/// thread to get there wins) re-runs every team but the first: each team's
/// first swap observed the wave-start 0, which only team 0 still finds at
/// its turn. Per thread one always-validated CAS, in the one chunk the
/// team's first swap copies.
#[test]
fn a_contended_cas_reruns_every_team_but_the_first() {
    let m = kernel("cas_first_wins", |b, buf, gid| {
        let mine = b.add(gid, Operand::i64(1));
        b.cas(Ty::I64, buf, Operand::i64(0), mine);
    });
    assert_eq!(
        wave_stats(&m, 8, 4, 1),
        WaveStats {
            waves: 1,
            teams: 8,
            merged: 1,
            rerun_validation: 7,
            effects: 8 * 4,
            validated: 8 * 4,
            private_chunks: 8,
            ..WaveStats::default()
        }
    );
}

/// The five proxies as `exec_par` launches them (`large()`; the default
/// seeds): every team merges, none re-runs, none bails out, and what each
/// logs, validates and copies is a fixed count —
/// `[teams, effects, validated, private chunks]`.
#[test]
fn the_proxies_merge_every_team_at_benchmark_size() {
    let proxies: [(Box<dyn Proxy>, [u64; 4]); 5] = [
        (Box::new(XSBench::large()), [16, 252_968, 242_728, 1_280]),
        (Box::new(RSBench::large()), [16, 183_808, 181_760, 256]),
        (Box::new(TestSnap::large()), [8, 64_576, 61_504, 384]),
        (Box::new(MiniFmm::large()), [8, 115_460, 52_352, 2_048]),
        (Box::new(GridMini::large()), [32, 221_184, 147_456, 9_216]),
    ];
    for (proxy, [teams, effects, validated, private_chunks]) in proxies {
        let image = compile_for_config(&*proxy, BuildConfig::NewRtNoAssumptions).unwrap().module;
        let per_workers = [2, 8].map(|workers| {
            let mut dev = Device::load(image.clone(), quick_device());
            dev.set_worker_threads(workers);
            let prep = proxy.prepare(&mut dev);
            dev.launch(proxy.kernel_name(), prep.launch, &prep.args).unwrap();
            verify_output(&dev, &prep).unwrap();
            dev.last_wave_stats().unwrap()
        });
        let want = WaveStats {
            waves: 1,
            teams,
            merged: teams,
            effects,
            validated,
            private_chunks,
            ..WaveStats::default()
        };
        assert_eq!(per_workers, [want, want], "{}", proxy.name());
    }
}
