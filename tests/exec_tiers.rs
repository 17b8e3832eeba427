//! Execution-tier equivalence pins (see `docs/exec-tiers.md`).
//!
//! The bytecode tier's contract is *bit-identity* with the reference
//! interpreter: same output bits, same global image, same metrics (cycles,
//! instructions, per-step dispatch counts — i.e. fuel), same typed traps
//! at the same (team, thread), and same sanitizer verdicts. The corpus
//! suite replays clean kernels across tiers; this file pins the *unclean*
//! half of the contract:
//!
//! * 50 seeded fault campaigns per tier — `FaultPlan` launch-entry polls
//!   must fire at identical op counts, so the injected trap, the partial
//!   memory image, and every counter agree across tiers;
//! * the step budget check — both tiers charge exactly one fuel
//!   unit per dispatched op, so a budget of N dispatches N ops and then
//!   traps identically, and clean runs (generated kernels and every
//!   proxy application) consume identical fuel and produce identical
//!   metrics, outputs and memory;
//! * the recycled thread context — a thread built in the context another
//!   returned sees fresh local memory and none of its pending faults;
//! * the trap taxonomy — malformed IR embedded as lowered trap ops must
//!   surface the interpreter's exact message, for one hand-built module
//!   and for every verifier-rejected text mutation of the corpus (the
//!   fuzz of the validation gate behind the dispatch loop's `unsafe`).

use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_integration::corpus::{corpus_texts, mutate_text};
use nzomp_integration::gen::{generate, parse_launch_comment};
use nzomp_host::SchedPolicy;
use nzomp_integration::{
    alike, assert_alike, compiled, observe_generated, observe_launch, observe_proxy,
    run_proxy_outcome, run_recovered, tier_axes, TIERS,
};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{DevPtr, Device, DeviceConfig, FaultAction, FaultPlan, FaultSite, RtVal, TrapKind};

/// 50 seeded fault campaigns, replayed on both tiers at every run axis:
/// the typed trap (or clean metrics), the whole memory image, and the
/// sanitizer verdict must be identical. Fault sites trigger on the
/// per-thread step clock — both tiers tick it once per dispatched op, so
/// a campaign that corrupts the 57th load or drops the 3rd barrier
/// arrival does so at the same point in both executions.
#[test]
fn seeded_fault_campaigns_replay_identically_across_tiers() {
    let runs = tier_axes();
    let mut trapped = 0usize;
    for campaign in 0..50u64 {
        // Rotate through the pinned generator seeds so campaigns land in
        // structurally different kernels (loops, calls, barriers, malloc).
        let g = generate(1000 + campaign % 20);
        let meta = parse_launch_comment(&g.launch_comment()).unwrap();
        let plan = FaultPlan::from_seed(campaign, g.teams, g.threads);
        let base = assert_alike(&format!("campaign {campaign}"), &runs, |run| {
            let mut dev = Device::load_with(g.module.clone(), DeviceConfig::default(), run);
            dev.set_fault_plan(plan.clone());
            observe_generated(dev, meta)
        });
        trapped += usize::from(base.result.is_err());
    }
    // The matrix must actually exercise the trap paths, not just clean runs.
    assert!(trapped >= 10, "campaigns barely fire ({trapped}/50)");
}

/// The step-budget pin: a spin kernel under `max_steps = n` dispatches
/// exactly `n` ops on *both* tiers before trapping `FuelExhausted` — the
/// fuel check sits at the identical point in both dispatch loops. Every
/// comparison crosses the run axes too: the wave engine reconciles fuel
/// at its merge.
#[test]
fn watchdog_fuel_fires_at_identical_op_counts() {
    let mut m = Module::new("spin");
    let mut b = FuncBuilder::new("spin", vec![], None);
    let lo = b.new_block();
    b.br(lo);
    b.switch_to(lo);
    b.br(lo);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();

    let runs = tier_axes();
    for fuel in [1u64, 2, 3, 17, 100] {
        let spun = assert_alike(&format!("step budget {fuel}"), &runs, |run| {
            let cfg = DeviceConfig { max_steps: fuel, ..DeviceConfig::default() };
            let mut dev = Device::load_with(m.clone(), cfg, run);
            observe_launch(&mut dev, "spin", Launch::new(1, 1), &[], (DevPtr::NULL, 0))
        });
        assert_eq!(spun.result.unwrap_err().kind, TrapKind::FuelExhausted, "step budget {fuel}");
    }

    // Clean termination consumes the identical fuel: dispatch counts (one
    // per fuel unit) and instruction counts agree across tiers.
    let g = generate(1004);
    let meta = parse_launch_comment(&g.launch_comment()).unwrap();
    let clean = assert_alike("generated 1004", &runs, |run| {
        observe_generated(Device::load_with(g.module.clone(), DeviceConfig::default(), run), meta)
    });
    assert!(clean.result.unwrap().dispatched > 0, "no dispatch accounting");

    // The same holds for whole applications: every proxy's clean run —
    // full metrics (cycles, instructions, per-step dispatch counts),
    // output bits, and the entire global image — is tier-invariant.
    for p in nzomp_proxies::all_proxies() {
        let module = compiled(p.as_ref(), nzomp::BuildConfig::NewRtNoAssumptions);
        let o = assert_alike(p.name(), &runs, |run| run_proxy_outcome(p.as_ref(), &module, run, None));
        assert!(o.result.is_ok(), "{} trapped", p.name());
    }
}

/// The host runtime pins the tier across recovery: a device-loss campaign
/// whose journal replays on a replacement device must produce the same
/// outcome on both tiers and every run axis.
#[test]
fn host_recovery_replays_on_the_pinned_tier() {
    let proxies = nzomp_proxies::all_proxies();
    let p = proxies.first().expect("at least one proxy");
    let mut failovers = 0u64;
    for seed in [11u64, 23, 47, 91] {
        assert_alike(&format!("seed {seed} recovered"), &tier_axes(), |run| {
            let (o, metrics) = run_recovered(p.as_ref(), 2, SchedPolicy::default(), seed, run);
            failovers += metrics.failovers;
            o
        });
    }
    assert!(failovers > 0, "no campaign forced a failover");
}

/// One team of four: thread 0 waits at an (unaligned) barrier, thread 1
/// writes `0xdead` to its local memory, reads it back into `out[1]` and
/// returns, and threads 2 and 3 read their own local memory into
/// `out[tid]` before waiting at the barrier too. Thread 2 is built from
/// the context thread 1 returned.
fn recycling_kernel() -> Module {
    let mut m = Module::new("recycle");
    let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
    let tid = b.thread_id();
    let local = b.alloca(8);
    let out = b.gep(b.param(0), tid, 8);
    let (waiter, others, writer, reader) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    let is0 = b.icmp_eq(tid, Operand::i64(0));
    b.cond_br(is0, waiter, others);
    b.switch_to(waiter);
    b.barrier();
    b.ret(None);
    b.switch_to(others);
    let is1 = b.icmp_eq(tid, Operand::i64(1));
    b.cond_br(is1, writer, reader);
    b.switch_to(writer);
    b.store(Ty::I64, local, Operand::i64(0xdead));
    let mine = b.load(Ty::I64, local);
    b.store(Ty::I64, out, mine);
    b.ret(None);
    b.switch_to(reader);
    let fresh = b.load(Ty::I64, local);
    b.store(Ty::I64, out, fresh);
    b.barrier();
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// A returned thread's context becomes the next thread's, and the next
/// thread starts fresh in it: thread 2 reads zeros from local memory
/// thread 1 wrote, and a load corruption or dropped barrier arrival armed
/// in thread 1 — at every step it takes, so some are still pending when
/// it returns — acts on thread 1 alone. Then a seeded campaign aims at
/// both threads, and every run is held alike across tiers and run axes.
#[test]
fn a_recycled_thread_context_starts_fresh() {
    let m = recycling_kernel();
    let observe = |what: &str, plan: Option<FaultPlan>| {
        assert_alike(what, &tier_axes(), |run| {
            let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
            if let Some(plan) = plan.clone() {
                dev.set_fault_plan(plan);
            }
            let out = dev.alloc(8 * 4);
            observe_launch(&mut dev, "k", Launch::new(1, 4), &[RtVal::P(out)], (out, 4))
        })
    };
    let clean = observe("clean", None);
    assert_eq!(clean.out_bits.as_deref(), Some(&[0, 0xdead, 0, 0][..]));
    for after_steps in 0..16 {
        for action in [FaultAction::CorruptLoad { xor: 0xff00 }, FaultAction::DropBarrierArrival] {
            let site = FaultSite { team: 0, thread: 1, after_steps, action };
            let what = format!("{site:?}");
            let got = observe(&what, Some(FaultPlan { sites: vec![site], ..FaultPlan::default() }));
            let bits = got.out_bits.unwrap_or_default();
            // Thread 1's own load may be corrupted; nothing else may move.
            assert!(matches!(bits[..], [0, 0xdead | 0x21ad, 0, 0]), "{what}: {bits:x?}");
            assert_eq!(got.result, clean.result, "{what}");
        }
    }
    let mut trapped = 0;
    for seed in 0..32 {
        let mut plan = FaultPlan::from_seed(seed, 1, 2);
        for site in &mut plan.sites {
            site.thread += 1;
            site.after_steps %= 16;
        }
        trapped += usize::from(observe(&format!("seed {seed}"), Some(plan)).result.is_err());
    }
    assert!(trapped > 0, "no campaign trapped");
}

/// Malformed IR the verifier rejects still degrades to the *same* typed
/// trap message on both tiers: lowering embeds the interpreter's exact
/// `MalformedIr` strings as trap ops at the same execution points.
#[test]
fn malformed_ir_message_is_tier_invariant() {
    // A phi with no incoming for the taken edge (the trap-matrix shape).
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
    assert!(nzomp_ir::verify_module(&m).is_err());

    let mut errs = Vec::new();
    for tier in TIERS {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        dev.set_exec_tier(tier);
        let err = dev.launch("mal", Launch::new(1, 1), &[]).unwrap_err();
        assert_eq!(
            err.kind,
            TrapKind::MalformedIr("phi %2 in @mal bb2 missing incoming for bb0".into()),
            "{tier:?}"
        );
        errs.push(err);
    }
    assert_eq!(errs[0], errs[1]);
}

/// The validation gate that licenses the bytecode loop's unchecked
/// accesses, under fuzz: every seeded text mutation of every corpus file
/// that still *parses* but fails `verify_module` is loaded unverified and
/// launched on both tiers. Same typed trap (kind and `MalformedIr`
/// message) or same result, and the same memory image — never a panic,
/// and (this is a debug-assertions build) never a tripped bound
/// `debug_assert!` in `bytecode/mod.rs`.
#[test]
fn verifier_rejected_mutants_behave_identically_across_tiers() {
    let proxies = nzomp_proxies::all_proxies();
    let runs = tier_axes();
    let mut rejected = 0usize;
    for (name, text) in corpus_texts().unwrap() {
        let meta = parse_launch_comment(&text);
        let proxy = proxies
            .iter()
            .find(|p| name == format!("proxy-{}.nzir", p.name().to_lowercase()));
        // About one mutation in 350 gets past the parser and stops at
        // the verifier; most die in the parser in microseconds.
        for seed in 0..512u64 {
            let mutated = mutate_text(&text, seed);
            let Ok(m) = parse_module_strict(&mutated) else { continue };
            if nzomp_ir::verify_module(&m).is_ok() {
                continue;
            }
            rejected += 1;
            let on = |run| {
                // A mutant may loop forever; both tiers charge one fuel
                // unit per op, so the step budget cuts them at the same op.
                let cfg = DeviceConfig { max_steps: 1 << 22, ..DeviceConfig::default() };
                let dev = Device::load_with(m.clone(), cfg, run);
                match (meta, proxy) {
                    (Some(g), _) => observe_generated(dev, g),
                    (None, Some(p)) => observe_proxy(p.as_ref(), dev, None),
                    (None, None) => panic!("{name}: neither a launch comment nor a proxy"),
                }
            };
            let what = format!("{name} seed {seed}");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| alike(&what, &runs, on)))
                .unwrap_or_else(|_| panic!("{what}: a run panicked on\n{mutated}"))
                .unwrap_or_else(|e| panic!("{e} on\n{mutated}"));
        }
    }
    // The mutator must actually get past the parser and stop at the verifier.
    assert!(rejected >= 20, "only {rejected} mutants parsed and failed verification");
}
