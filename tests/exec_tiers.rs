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
//! * the host watchdog fuel check — both tiers charge exactly one fuel
//!   unit per dispatched op, so a budget of N dispatches N ops and then
//!   traps identically, and clean runs (generated kernels and every
//!   proxy application) consume identical fuel and produce identical
//!   metrics, outputs and memory;
//! * the trap taxonomy — malformed IR embedded as lowered trap ops must
//!   surface the interpreter's exact message, for one hand-built module
//!   and for every verifier-rejected text mutation of the corpus (the
//!   fuzz of the validation gate behind the dispatch loop's `unsafe`).

use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::{ExecMode, FuncBuilder, Module, Operand, Ty};
use nzomp_integration::corpus::{corpus_texts, mutate_text};
use nzomp_integration::gen::{generate, parse_launch_comment};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    Device, DeviceConfig, ExecError, ExecTier, FaultPlan, KernelMetrics, RtVal, RunConfig, TrapKind,
};

const TIERS: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Bytecode];

/// Everything observable about one faulted launch.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<KernelMetrics, ExecError>,
    global: Vec<u8>,
    san_counts: (u64, u64),
}

/// Run a generated corpus kernel (one pointer arg into a fresh buffer)
/// under `run` and an armed fault plan, with the sanitizer on (strict if
/// `run` says so), and capture everything.
fn observe(m: &Module, launch: Launch, buf_bytes: u64, plan: &FaultPlan, run: RunConfig) -> Observed {
    let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
    dev.set_sanitize(true);
    dev.set_fault_plan(plan.clone());
    let buf = dev.alloc(buf_bytes);
    let result = dev.launch("k", launch, &[RtVal::P(buf)]);
    Observed {
        result,
        global: dev.global_bytes().to_vec(),
        san_counts: dev.sanitizer_counts(),
    }
}

/// 50 seeded fault campaigns, replayed on both tiers at 1 and 8 workers:
/// the typed trap (or clean metrics), the whole memory image, and the
/// sanitizer verdict must be identical. Fault sites trigger on the
/// per-thread step clock — both tiers tick it once per dispatched op, so
/// a campaign that corrupts the 57th load or drops the 3rd barrier
/// arrival does so at the same point in both executions.
#[test]
fn seeded_fault_campaigns_replay_identically_across_tiers() {
    let env = RunConfig::from_env();
    let mut trapped = 0usize;
    for campaign in 0..50u64 {
        // Rotate through the pinned generator seeds so campaigns land in
        // structurally different kernels (loops, calls, barriers, malloc).
        let g = generate(1000 + campaign % 20);
        let launch = Launch::new(g.teams, g.threads);
        let plan = FaultPlan::from_seed(campaign, g.teams, g.threads);
        for workers in [1usize, 8] {
            let on = |tier| observe(&g.module, launch, g.buf_bytes, &plan, RunConfig { workers, tier, ..env });
            let base = on(ExecTier::Interp);
            let bc = on(ExecTier::Bytecode);
            assert_eq!(
                base, bc,
                "campaign {campaign} @{workers} workers diverged across tiers"
            );
            if workers == 1 && base.result.is_err() {
                trapped += 1;
            }
        }
    }
    // The matrix must actually exercise the trap paths, not just clean runs.
    assert!(trapped >= 10, "campaigns barely fire ({trapped}/50)");
}

/// The watchdog pin: a spin kernel under watchdog fuel `n` dispatches
/// exactly `n` ops on *both* tiers before trapping `FuelExhausted` — the
/// fuel check sits at the identical point in both dispatch loops.
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

    for fuel in [1u64, 2, 3, 17, 100] {
        let mut per_tier = Vec::new();
        for tier in TIERS {
            let mut dev = Device::load(m.clone(), DeviceConfig::default());
            dev.set_exec_tier(tier);
            dev.set_watchdog_fuel(Some(fuel));
            let err = dev.launch("spin", Launch::new(1, 1), &[]).unwrap_err();
            assert_eq!(
                err.kind,
                TrapKind::FuelExhausted,
                "watchdog {fuel} on {tier:?}"
            );
            per_tier.push(err);
        }
        assert_eq!(per_tier[0], per_tier[1], "watchdog {fuel} diverged");
    }

    // Clean termination consumes the identical fuel: dispatch counts (one
    // per fuel unit) and instruction counts agree across tiers.
    let g = generate(1004);
    let launch = Launch::new(g.teams, g.threads);
    let mut seen = Vec::new();
    for tier in TIERS {
        let mut dev = Device::load(g.module.clone(), DeviceConfig::default());
        dev.set_exec_tier(tier);
        let buf = dev.alloc(g.buf_bytes);
        let m = dev.launch("k", launch, &[RtVal::P(buf)]).unwrap();
        assert!(m.dispatched > 0, "{tier:?}: no dispatch accounting");
        seen.push((m.dispatched, m.instructions, m.cycles));
    }
    assert_eq!(seen[0], seen[1], "fuel accounting diverged across tiers");

    // The same holds for whole applications: every proxy's clean run —
    // full metrics (cycles, instructions, per-step dispatch counts),
    // output bits, and the entire global image — is tier-invariant.
    let cfg = nzomp::BuildConfig::NewRtNoAssumptions;
    for p in nzomp_proxies::all_proxies() {
        let module = nzomp_proxies::compile_for_config(p.as_ref(), cfg).unwrap().module;
        let mut seen = Vec::new();
        for tier in TIERS {
            let mut dev = Device::load(module.clone(), nzomp_proxies::quick_device());
            dev.set_exec_tier(tier);
            dev.set_worker_threads(1);
            let prep = p.prepare(&mut dev);
            let m = dev.launch(p.kernel_name(), prep.launch, &prep.args).unwrap();
            let out: Vec<u64> = dev
                .read_f64(prep.out_ptr, prep.expected.len())
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            seen.push((m, out, dev.global_bytes().to_vec()));
        }
        assert!(seen[0] == seen[1], "{} diverged across tiers", p.name());
    }
}

/// The host runtime pins the tier across recovery: a device-loss campaign
/// whose journal replays on a replacement device must produce the same
/// outcome on both tiers — and the two tiers must agree with each other.
#[test]
fn host_recovery_replays_on_the_pinned_tier() {
    use nzomp::BuildConfig;
    use nzomp_host::{Host, RecoveryPolicy, StreamId};
    use nzomp_proxies::{all_proxies, build_for_config, quick_device};

    let cfg = BuildConfig::NewRtNoAssumptions;
    let proxies = all_proxies();
    let p = proxies.first().expect("at least one proxy");
    let mut failovers = 0u64;
    for seed in [11u64, 23, 47, 91] {
        let mut outcomes = Vec::new();
        for tier in TIERS {
            let mut host = Host::new(quick_device(), 2);
            host.set_worker_threads(1);
            host.set_exec_tier(tier);
            host.set_recovery(Some(RecoveryPolicy {
                max_failovers: 16,
                ..RecoveryPolicy::default()
            }));
            let img = host.load_image(build_for_config(p.as_ref(), cfg), cfg).unwrap();
            let hp = p.host_prepare();
            for dev in 0..2 {
                host.bind_image(dev, img).unwrap();
                host.set_device_faults(dev, FaultPlan::device_campaign(seed ^ dev as u64))
                    .unwrap();
            }
            let streams: Vec<StreamId> = vec![host.stream()];
            let region = host
                .enqueue_region(&streams, img, p.kernel_name(), hp.launch, hp.args)
                .unwrap();
            host.sync()
                .unwrap_or_else(|e| panic!("{tier:?} seed {seed}: recovery failed: {e}"));
            let result = host
                .ticket_result(region.ticket)
                .unwrap()
                .expect("launch op never executed")
                .clone();
            let dev = host.device(region.device).expect("region device is loaded");
            failovers += host.recovery_metrics().failovers;
            outcomes.push((result, dev.global_bytes().to_vec()));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "seed {seed}: recovered outcome diverged across tiers"
        );
    }
    assert!(failovers > 0, "no campaign forced a failover");
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
    let env = RunConfig::from_env();
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
            let on = |tier| {
                let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), RunConfig { tier, ..env });
                // A mutant may loop forever; both tiers charge one fuel
                // unit per op, so the cap cuts them at the same op.
                dev.set_watchdog_fuel(Some(1 << 22));
                let result = match (meta, proxy) {
                    (Some(g), _) => {
                        let buf = dev.alloc(g.buf_bytes);
                        dev.launch("k", Launch::new(g.teams, g.threads), &[RtVal::P(buf)])
                    }
                    (None, Some(p)) => {
                        let prep = p.prepare(&mut dev);
                        dev.launch(p.kernel_name(), prep.launch, &prep.args)
                    }
                    (None, None) => panic!("{name}: neither a launch comment nor a proxy"),
                };
                (result, dev.global_bytes().to_vec())
            };
            let seen = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| TIERS.map(on)))
                .unwrap_or_else(|_| panic!("{name} seed {seed}: a tier panicked on\n{mutated}"));
            assert!(seen[0] == seen[1], "{name} seed {seed}: tiers diverged on\n{mutated}");
        }
    }
    // The mutator must actually get past the parser and stop at the verifier.
    assert!(rejected >= 20, "only {rejected} mutants parsed and failed verification");
}
