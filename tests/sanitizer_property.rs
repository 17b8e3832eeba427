//! Property tests for the data-race sanitizer.
//!
//! 1. **Soundness on clean kernels**: random race-free kernels — disjoint
//!    per-thread output slots, atomic accumulators, barrier-separated
//!    shared-memory exchange rounds — report zero races and zero
//!    divergences, with the identical verdict (counts *and* rendered
//!    report text) at 1, 2, 4, and 8 worker threads.
//! 2. **Completeness on broken kernels**: structurally mutating a clean
//!    kernel — dropping the barrier between a shared-memory write and the
//!    cross-thread read, or downgrading an atomic accumulation to a plain
//!    store — always produces at least one race report, again identically
//!    at every worker count.
//! Always sanitized (report-only): the verdict is what is under test.

use nzomp_ir::{ExecMode, FuncBuilder, Global, Init, Module, Operand, Space, Ty};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{Device, DeviceConfig, RtVal, Sanitize};
use proptest::prelude::*;

/// Number of atomic accumulator cells at the front of the global buffer.
const NCELLS: u8 = 4;
/// `out[gid]` slots start here.
const OUT_BASE: i64 = NCELLS as i64 * 8;
/// Shared scratch slots (one per thread; threads ≤ 8).
const NSLOTS: u64 = 8;

/// One shared-memory exchange round: every thread stores to its own slot,
/// synchronizes, reads the slot `shift` places over, synchronizes again.
/// Race-free by construction; `drop_first_barrier` removes the barrier
/// between the write and the cross-thread read, which makes the round race
/// whenever `shift % threads != 0` and `threads > 1`.
#[derive(Clone, Debug)]
struct Round {
    shift: u32,
    atomics: Vec<(u8, i64)>,
}

#[derive(Clone, Debug)]
struct Spec {
    threads: u32,
    teams: u32,
    rounds: Vec<Round>,
}

/// How to break a clean kernel.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Remove the write→read barrier of round `i % rounds`.
    DropBarrier(usize),
    /// Emit the atomic accumulations of round `i % rounds` as plain
    /// stores to the same cell.
    DowngradeAtomic(usize),
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let round = (0u32..16, prop::collection::vec((0..NCELLS, -7i64..7), 1..3));
    (2u32..=8, 1u32..=3, prop::collection::vec(round, 1..4)).prop_map(
        |(threads, teams, raw_rounds)| Spec {
            threads,
            teams,
            rounds: raw_rounds
                .into_iter()
                // Normalize: a nonzero shift modulo the thread count, so the
                // cross-thread read really is cross-thread.
                .map(|(raw, atomics)| Round {
                    shift: 1 + raw % (threads - 1).max(1),
                    atomics,
                })
                .collect(),
        },
    )
}

fn build(spec: &Spec, mutation: Option<Mutation>) -> Module {
    let mut m = Module::new("san_prop");
    m.add_global(Global::new("scratch", Space::Shared, NSLOTS * 8, Init::Zero));
    let scratch = m.find_global("scratch").unwrap();
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let buf = b.param(0);
    let tid = b.thread_id();
    let team = b.block_id();
    let dim = b.block_dim();
    let base = b.mul(team, dim);
    let gid = b.add(base, tid);
    let own_off = b.mul(tid, Operand::i64(8));
    let own = b.ptr_add(Operand::Global(scratch), own_off);
    let mut r = b.si_to_fp(gid);
    for (i, round) in spec.rounds.iter().enumerate() {
        let (drop_barrier, downgrade) = match mutation {
            Some(Mutation::DropBarrier(j)) => (j % spec.rounds.len() == i, false),
            Some(Mutation::DowngradeAtomic(j)) => (false, j % spec.rounds.len() == i),
            None => (false, false),
        };
        for &(cell, c) in &round.atomics {
            let v = b.add(gid, Operand::i64(c));
            let p = b.ptr_add(buf, Operand::i64(cell as i64 * 8));
            if downgrade {
                b.store(Ty::I64, p, v);
            } else {
                b.atomic_add(Ty::I64, p, v);
            }
        }
        b.store(Ty::F64, own, r);
        if !drop_barrier {
            b.aligned_barrier();
        }
        let shifted = b.add(tid, Operand::i64(round.shift as i64));
        let peer = b.srem(shifted, dim);
        let peer_off = b.mul(peer, Operand::i64(8));
        let pp = b.ptr_add(Operand::Global(scratch), peer_off);
        let v = b.load(Ty::F64, pp);
        r = b.fadd(r, v);
        b.aligned_barrier();
    }
    let goff = b.mul(gid, Operand::i64(8));
    let out_base = b.ptr_add(buf, Operand::i64(OUT_BASE));
    let po = b.ptr_add(out_base, goff);
    b.store(Ty::F64, po, r);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// `(races, divergences, rendered reports)` of one sanitized run.
fn verdict(m: Module, spec: &Spec, workers: usize) -> (u64, u64, Vec<String>) {
    let mut dev = Device::load(m, DeviceConfig::default());
    dev.set_sanitize(Sanitize::Report);
    dev.set_worker_threads(workers);
    let buf = dev.alloc(OUT_BASE as u64 + 8 * (spec.teams * spec.threads) as u64);
    dev.launch("k", Launch::new(spec.teams, spec.threads), &[RtVal::P(buf)])
        .unwrap();
    let (races, divergences) = dev.sanitizer_counts();
    let reports = dev
        .sanitizer_reports()
        .iter()
        .map(|r| r.to_string())
        .collect();
    (races, divergences, reports)
}

/// Verdict at every worker count, asserting they agree along the way.
fn agreed_verdict(spec: &Spec, mutation: Option<Mutation>) -> (u64, u64, Vec<String>) {
    let base = verdict(build(spec, mutation), spec, 1);
    for workers in [2usize, 4, 8] {
        let v = verdict(build(spec, mutation), spec, workers);
        assert_eq!(base, v, "sanitizer verdict diverges at {workers} workers");
    }
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Race-free kernels are sanitizer-clean at every worker count.
    #[test]
    fn race_free_kernels_are_clean(spec in arb_spec()) {
        let (races, divergences, reports) = agreed_verdict(&spec, None);
        prop_assert_eq!(races, 0, "clean kernel reported races: {:?}", reports);
        prop_assert_eq!(divergences, 0);
        prop_assert!(reports.is_empty());
    }

    /// Dropping the write→read barrier of any round always reports a
    /// race, identically at every worker count.
    #[test]
    fn dropped_barrier_always_reports(spec in arb_spec(), which in 0usize..8) {
        let (races, _, reports) = agreed_verdict(&spec, Some(Mutation::DropBarrier(which)));
        prop_assert!(races >= 1, "dropped barrier went unreported");
        prop_assert!(!reports.is_empty());
        prop_assert!(
            reports.iter().any(|r| r.contains("[race:sanitize] shared+")),
            "expected a shared-space race, got: {:?}", reports
        );
    }

    /// Downgrading an atomic accumulation to a plain store always reports
    /// a race, identically at every worker count.
    #[test]
    fn downgraded_atomic_always_reports(spec in arb_spec(), which in 0usize..8) {
        let (races, _, reports) = agreed_verdict(&spec, Some(Mutation::DowngradeAtomic(which)));
        prop_assert!(races >= 1, "downgraded atomic went unreported");
        prop_assert!(
            reports.iter().any(|r| r.contains("[race:sanitize] global+")),
            "expected a global-space race, got: {:?}", reports
        );
    }
}

/// The sanitizer's suppressions name four facts of the device runtime's
/// ABI, and `nzomp-vgpu` cannot depend on `nzomp-rt` to import them: a
/// runtime layout change that left these copies behind would turn each
/// suppression into a silent false negative (or a flood of benign
/// reports). This is the one place the two spellings meet.
#[test]
fn sanitizer_suppressions_name_the_runtime_abi() {
    use nzomp_rt::abi;
    use nzomp_vgpu::sanitize;
    assert_eq!(sanitize::COND_WRITE_SINK, abi::G_COND_WRITE_DUMMY);
    assert_eq!(sanitize::TEAM_STATE, abi::G_TEAM_STATE);
    assert_eq!(sanitize::TEAM_STATE_BENIGN_FIELD.0, abi::team_state::HAS_THREAD_STATE);
    assert_eq!(sanitize::REGION_RELEASE_FNS, [abi::FREE_SHARED, abi::OLD_DATA_SHARING_POP]);
}
