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
//! * the local-stack bound — an `alloca` past `LOCAL_STACK_BYTES` traps
//!   `OutOfMemory` on the same step on both tiers;
//! * the refusals — an image is a verified module, so every launch of one
//!   the verifier rejects is refused on both tiers with the verifier's
//!   exact message: one hand-built module per rejected shape, the phi
//!   shape of the trap matrix, every ill-classed module, and every
//!   verifier-rejected text mutation of the corpus; a launch argument
//!   whose tag contradicts its parameter is refused alike.

use nzomp::pipeline::compile;
use nzomp::BuildConfig;
use nzomp_ir::verify::verify_domains;
use nzomp_ir::parser::parse_module_strict;
use nzomp_ir::module::FuncRef;
use nzomp_ir::{
    BlockId, CastKind, ExecMode, FuncBuilder, Function, Global, GlobalId, Init, Inst, InstId,
    Intrinsic, Module, Operand, Space, Term, Ty,
};
use nzomp_integration::corpus::{corpus_texts, mutate_text};
use nzomp_integration::gen::{generate, parse_launch_comment};
use nzomp_host::SchedPolicy;
use nzomp_integration::{
    alike, assert_alike, compiled, observe_generated, observe_launch, observe_proxy,
    run_proxy_outcome, run_recovered, scale_module, tier_axes, ProxyOutcome, TIERS,
};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::memory::LOCAL_STACK_BYTES;
use nzomp_vgpu::{
    DevPtr, Device, DeviceConfig, FaultAction, FaultPlan, FaultSite, RtVal, RunConfig,
    Sanitize, TrapKind,
};

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

/// `@k()`: the entry block branches to a block that reserves `size` bytes
/// of local stack and stores to them, then branches back to itself.
fn alloca_loop(size: u64) -> Module {
    let mut m = Module::new("stack");
    let mut b = FuncBuilder::new("k", vec![], None);
    let body = b.new_block();
    b.br(body);
    b.switch_to(body);
    b.br(body);
    let mut f = b.finish();
    let slot = f.add_inst(Inst::Alloca { size });
    let store = f.add_inst(Inst::Store { ty: Ty::I64, ptr: Operand::Inst(slot), value: Operand::i64(7) });
    f.blocks[body.index()].insts.extend([slot, store]);
    let k = m.add_function(f);
    m.add_kernel(k, ExecMode::Spmd);
    nzomp_ir::verify_module(&m).unwrap();
    m
}

/// A thread's local stack is bounded: the `alloca` that would cross
/// `LOCAL_STACK_BYTES` is issued, then traps `OutOfMemory`, on the same
/// step on both tiers and every run axis — a single 2^40-byte reservation
/// on its first body step, and a 4 KiB one in a loop on the iteration
/// past the bound. Each budget is exactly the steps up to the trapping
/// `alloca`, so the bound trips before the fuel runs out, and one step
/// less runs the fuel out first.
#[test]
fn a_thread_local_stack_is_bounded() {
    let reservations = LOCAL_STACK_BYTES / 4096;
    // One step for the entry branch, then three per iteration (alloca,
    // store, branch) and the trapping alloca.
    for (size, steps) in [(1u64 << 40, 2), (4096, 1 + 3 * reservations + 1)] {
        let m = alloca_loop(size);
        for (fuel, want) in [(steps, TrapKind::OutOfMemory), (steps - 1, TrapKind::FuelExhausted)] {
            let what = format!("alloca {size} with {fuel} steps");
            let got = assert_alike(&what, &tier_axes(), |run| {
                let cfg = DeviceConfig { max_steps: fuel, ..DeviceConfig::default() };
                let mut dev = Device::load_with(m.clone(), cfg, run);
                observe_launch(&mut dev, "k", Launch::new(1, 1), &[], (DevPtr::NULL, 0))
            });
            assert_eq!(got.result.unwrap_err().kind, want, "{what}");
        }
    }
}

/// Malformed IR the verifier rejects is refused with the *same* typed
/// error on both tiers: the verifier's message, before any thread runs.
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
    let msg = "verify error in @mal: phi %2 in bb2 missing incoming for predecessor bb0";
    assert_eq!(nzomp_ir::verify_module(&m).unwrap_err().to_string(), msg);

    let mut errs = Vec::new();
    for tier in TIERS {
        let mut dev = Device::load(m.clone(), DeviceConfig::default());
        dev.set_exec_tier(tier);
        let err = dev.launch("mal", Launch::new(1, 1), &[]).unwrap_err();
        assert_eq!(err.kind, TrapKind::MalformedIr(msg.into()), "{tier:?}");
        errs.push(err);
    }
    assert_eq!(errs[0], errs[1]);
}

/// Every seeded text mutation of every corpus file that still *parses* but
/// fails `verify_module` loads, and its launch is refused on both tiers at
/// every axis with the verifier's exact message and the same memory image
/// — never a panic.
#[test]
fn verifier_rejected_mutants_behave_identically_across_tiers() {
    // About one mutation in 350 gets past the parser and stops at the
    // verifier; most die in the parser in microseconds.
    let rejected = corpus_mutants_alike(false, |_| usize::MAX);
    // The mutator must actually get past the parser and stop at the verifier.
    assert!(rejected >= 20, "only {rejected} mutants parsed and failed verification");
}

/// The other half: mutants the verifier *accepts*. `verify_module` runs
/// the value-domain rule (`verify_domains`), so a mutation in a type
/// position — an `i64` constant where a double was, a float load of a
/// pointer — lands here only when every operand is still read in the
/// domain it was produced in, and the bytecode tier runs it when asked.
/// Either way the result is the interpreter's. At most 16 mutants of each
/// generated kernel run, and 2 of each proxy application, whose launches
/// cost a hundred times more: a few seconds in all.
#[test]
fn verifier_accepted_mutants_behave_identically_across_tiers() {
    let cap = |name: &str| if name.starts_with("proxy-") { 2 } else { 16 };
    let accepted = corpus_mutants_alike(true, cap);
    assert!(accepted >= 200, "only {accepted} mutants parsed and verified");
}

/// Launch every seeded text mutation of every corpus file that parses and
/// whose `verify_module` verdict is `verified`, at most `cap(file name)`
/// per file, on both tiers at every axis; returns how many ran. A rejected
/// mutant's launch must be refused with the verifier's message.
fn corpus_mutants_alike(verified: bool, cap: impl Fn(&str) -> usize) -> usize {
    let proxies = nzomp_proxies::all_proxies();
    let runs = tier_axes();
    let mut total = 0usize;
    for (name, text) in corpus_texts().unwrap() {
        let meta = parse_launch_comment(&text);
        let proxy = proxies
            .iter()
            .find(|p| name == format!("proxy-{}.nzir", p.name().to_lowercase()));
        let (mut ran, cap) = (0usize, cap(&name));
        for seed in 0..512u64 {
            if ran == cap {
                break;
            }
            let mutated = mutate_text(&text, seed);
            let Ok(m) = parse_module_strict(&mutated) else { continue };
            let verdict = nzomp_ir::verify_module(&m);
            if verdict.is_ok() != verified {
                continue;
            }
            ran += 1;
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
            let o = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| alike(&what, &runs, on)))
                .unwrap_or_else(|_| panic!("{what}: a run panicked on\n{mutated}"))
                .unwrap_or_else(|e| panic!("{e} on\n{mutated}"));
            if let Err(e) = verdict {
                let refused = o.result.map_err(|e| e.kind);
                assert_eq!(refused, Err(TrapKind::MalformedIr(e.to_string())), "{what}");
            }
        }
        total += ran;
    }
    total
}

/// Every image we ship runs untagged. A module that fails the value-domain
/// rule (`verify_domains`) runs on the interpreter with every result still
/// correct and at a third of the speed, so a silent fallback shows nowhere but here: every
/// proxy under every build configuration, the benchmark's request kernel
/// and every corpus file must pass.
#[test]
fn nothing_we_ship_falls_back_to_the_interpreter() {
    let untagged = |what: &str, m: Module| {
        if let Err(e) = verify_domains(&m) {
            panic!("{what}: {e}");
        }
        assert_eq!(nzomp_ir::verify_module(&m), Ok(()), "{what}");
    };
    for p in nzomp_proxies::all_proxies() {
        for cfg in BuildConfig::ALL {
            untagged(&format!("{} {cfg:?}", p.name()), compiled(p.as_ref(), cfg));
        }
    }
    let scale = compile(scale_module(2.0), BuildConfig::NewRtNoAssumptions).unwrap().module;
    untagged("scale kernel", scale);
    for (name, text) in corpus_texts().unwrap() {
        untagged(&name, parse_module_strict(&text).unwrap());
    }
}

/// Threads per team of the mixed-domain kernels; two teams run.
const MIXED_THREADS: u32 = 8;

/// `@k(out, extra..)`: thread `g` of the grid stores the double `body`
/// computes to `out[g]`.
fn mixed_kernel(
    extra: &[Ty],
    body: impl FnOnce(&mut Module, &mut FuncBuilder, Operand) -> Operand,
) -> Module {
    let mut m = Module::new("mixed");
    let mut b = FuncBuilder::new("k", [&[Ty::Ptr], extra].concat(), None);
    let tid = b.thread_id();
    let team = b.block_id();
    let base = b.mul(team, Operand::i64(MIXED_THREADS as i64));
    let g = b.add(base, tid);
    let v = body(&mut m, &mut b, g);
    let p = b.gep(Operand::Param(0), g, 8);
    b.store(Ty::F64, p, v);
    b.ret(None);
    let k = m.add_function(b.finish());
    m.add_kernel(k, ExecMode::Spmd);
    m
}

/// Run `m`'s `@k` over a fresh `out` plus `extra` on the interpreter and
/// on the bytecode tier at every axis: each must equal the interpreter's
/// outputs, memory image, metrics and trap. Returns the first outcome.
fn alike_across_tiers(what: &str, m: &Module, extra: &[RtVal]) -> ProxyOutcome {
    let words = 2 * MIXED_THREADS as usize;
    assert_alike(what, &tier_axes(), |run| {
        let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
        let out = dev.alloc(8 * words as u64);
        let args = [&[RtVal::P(out)], extra].concat();
        observe_launch(&mut dev, "k", Launch::new(2, MIXED_THREADS), &args, (out, words))
    })
}

/// A module that fails the value-domain rule (`verify_domains`, which
/// `verify_module` runs) is refused on both tiers at every axis with the
/// verifier's message, and so is a launch of a provable kernel whose
/// argument's tag contradicts its parameter: no launch runs on a tier it
/// did not ask for.
#[test]
fn unprovable_modules_and_mistagged_arguments_are_refused() {
    let refused = |what: &str, m: &Module, extra: &[RtVal], msg: &str| {
        assert!(verify_domains(m).is_err(), "{what}: the domain rule passed it");
        let err = alike_across_tiers(what, m, extra).result.unwrap_err();
        assert_eq!(err.kind, TrapKind::MalformedIr(nzomp_ir::verify_module(m).unwrap_err().to_string()));
        assert!(err.kind.to_string().contains(msg), "{what}: {err}");
    };

    // A float operator on an `i64` parameter.
    let m = mixed_kernel(&[Ty::I64], |_, b, _| b.fadd(Operand::Param(1), Operand::f64(1.5)));
    refused("fadd of an i64 parameter", &m, &[RtVal::I(5)], "@k: %4 (FAdd) in bb0: reads integer bits where float bits are required");

    // A phi merging a double (even threads) and an integer (odd ones).
    let m = mixed_kernel(&[], |_, b, g| {
        let bit = b.and(g, Operand::i64(1));
        let even = b.icmp_eq(bit, Operand::i64(0));
        let (t, f, join) = (b.new_block(), b.new_block(), b.new_block());
        b.cond_br(even, t, f);
        for bb in [t, f] {
            b.switch_to(bb);
            b.br(join);
        }
        b.switch_to(join);
        let v = b.phi(Ty::F64, vec![(t, Operand::f64(2.5)), (f, Operand::i64(7))]);
        b.fadd(v, Operand::f64(0.25))
    });
    refused("phi of f64 and i64", &m, &[], "@k: %6 (phi) in bb3: reads integer bits where float bits are required");

    // A select of a double and an integer.
    let m = mixed_kernel(&[], |_, b, g| {
        let bit = b.and(g, Operand::i64(1));
        let v = b.select(Ty::F64, bit, Operand::f64(1.5), Operand::i64(3));
        b.fmul(v, Operand::f64(2.0))
    });
    refused("select of f64 and i64", &m, &[], "@k: %5 (select) in bb0: reads integer bits where float bits are required");

    // An indirect call passing an integer to an `f64` parameter.
    let m = mixed_kernel(&[], |m, b, g| {
        let mut h = FuncBuilder::new("twice", vec![Ty::F64], Some(Ty::F64));
        let x = h.fmul(Operand::Param(0), Operand::f64(2.0));
        h.ret(Some(x));
        let twice = Operand::Func(m.add_function(h.finish()));
        let never = b.icmp_eq(g, Operand::i64(-1));
        let callee = b.select(Ty::Ptr, never, twice, twice);
        b.call(callee, vec![g], Some(Ty::F64)).unwrap()
    });
    let msg = "@k: %6 (call) in bb0: reads integer bits where float bits are required";
    refused("indirect call of an f64-taking function", &m, &[], msg);

    // A double used as a pointer.
    let m = mixed_kernel(&[], |_, b, _| b.load(Ty::F64, Operand::f64(8.0)));
    refused("load through a double", &m, &[], "@k: %4 (load) in bb0: reads float bits where integer bits are required");

    // A provable kernel launched with an integer for its `f64` parameter:
    // the image is verified, that launch is refused.
    let m = mixed_kernel(&[Ty::F64], |_, b, _| b.fmul(Operand::Param(1), Operand::f64(2.0)));
    assert_eq!(nzomp_ir::verify_module(&m), Ok(()));
    let o = alike_across_tiers("RtVal::I for an f64 parameter", &m, &[RtVal::I(3)]);
    assert_eq!(o.result.unwrap_err().kind, TrapKind::BadLaunch("kernel @k parameter 1 is f64, got I(3)".into()));
    let m = mixed_kernel(&[Ty::I64], |_, b, _| b.si_to_fp(Operand::Param(1)));
    let o = alike_across_tiers("RtVal::F for an i64 parameter", &m, &[RtVal::F(3.0)]);
    assert_eq!(o.result.unwrap_err().kind, TrapKind::BadLaunch("kernel @k parameter 1 is i64, got F(3.0)".into()));
}

/// An image is a verified module: a module with any shape the verifier
/// rejects loads, and every launch of it is refused on both tiers at every
/// axis with the verifier's exact message, before any thread runs. Each
/// module passes the value-domain rule (`verify_domains`), so the shape
/// alone refuses it; refusal is per module, so a malformed function that
/// is never called refuses its module too.
#[test]
fn malformed_modules_are_refused_on_both_tiers() {
    let to_f64 = |_: &mut Module, b: &mut FuncBuilder, v: Operand| b.si_to_fp(v);
    // `@k` storing each thread's index as a double, then changed by `edit`.
    let broken = |edit: &dyn Fn(&mut Function)| {
        let mut m = mixed_kernel(&[], to_f64);
        let k = m.find_func("k").unwrap();
        edit(m.func_mut(k));
        m
    };
    // `@k` branching from bb0 to bb1, whose leading phi (a double) has an
    // incoming from `pred`, after `edit` on `@k`.
    let phi_from = |pred: BlockId, edit: &dyn Fn(&mut Function)| {
        let mut m = mixed_kernel(&[], |_, b, g| {
            let next = b.new_block();
            b.br(next);
            b.switch_to(next);
            let v = b.phi(Ty::F64, vec![(pred, Operand::f64(0.5))]);
            let x = b.si_to_fp(g);
            b.fadd(x, v)
        });
        let k = m.find_func("k").unwrap();
        edit(m.func_mut(k));
        m
    };
    let bare = |intr: Intrinsic| {
        mixed_kernel(&[], move |m, b, g| {
            b.intr(intr, vec![]);
            to_f64(m, b, g)
        })
    };
    let phi = Inst::Phi { ty: Ty::I64, incomings: vec![] };
    let cases: Vec<(&str, Module, &str)> = vec![
        (
            "a listed instruction missing from the arena",
            broken(&|f| f.blocks[0].insts.push(InstId(999))),
            "@k: bb0 lists missing inst %999",
        ),
        (
            "a phi after a non-phi",
            phi_from(BlockId(0), &|f| {
                let p = f.add_inst(phi.clone());
                f.blocks[1].insts.push(p);
            }),
            "@k: phi %10 not at start of bb1",
        ),
        (
            "a phi at function entry",
            broken(&|f| {
                let p = f.add_inst(phi.clone());
                f.blocks[0].insts.insert(0, p);
            }),
            "@k: phi %8 at function entry",
        ),
        (
            "an operand naming a missing instruction",
            mixed_kernel(&[], |m, b, _| to_f64(m, b, Operand::Inst(InstId(999)))),
            "@k: operand references missing inst %999",
        ),
        (
            "an operand naming a missing global",
            mixed_kernel(&[], |_, b, _| b.load(Ty::F64, Operand::Global(GlobalId(7)))),
            "@k: operand references missing global 7",
        ),
        (
            "an operand naming a missing parameter",
            mixed_kernel(&[], |m, b, _| to_f64(m, b, Operand::Param(3))),
            "@k: operand references missing param 3",
        ),
        (
            "a direct call of a missing function",
            mixed_kernel(&[], |m, b, g| {
                b.call(Operand::Func(FuncRef(99)), vec![], None);
                to_f64(m, b, g)
            }),
            "@k: operand references missing func 99",
        ),
        (
            "a direct call with the wrong arity",
            mixed_kernel(&[], |m, b, _| {
                let mut h = FuncBuilder::new("h", vec![Ty::F64], Some(Ty::F64));
                h.ret(Some(Operand::Param(0)));
                let h = Operand::Func(m.add_function(h.finish()));
                b.call(h, vec![], Some(Ty::F64)).unwrap()
            }),
            "@k: call to @h with 0 args, expected 1",
        ),
        ("malloc without an operand", bare(Intrinsic::Malloc), "@k: %4: malloc takes 1 operand(s), found 0"),
        ("free without an operand", bare(Intrinsic::Free), "@k: %4: free takes 1 operand(s), found 0"),
        ("assume without an operand", bare(Intrinsic::Assume(())), "@k: %4: assume takes 1 operand(s), found 0"),
        (
            "a branch to a missing block",
            broken(&|f| f.blocks[0].term = Term::Br(BlockId(9))),
            "@k: bb0 branches to missing bb9",
        ),
        (
            "an edge into a block whose leading entry is missing",
            phi_from(BlockId(0), &|f| f.blocks[1].insts.insert(0, InstId(999))),
            "@k: bb1 lists missing inst %999",
        ),
        (
            "a phi with no incoming for its edge",
            phi_from(BlockId(7), &|_| {}),
            "@k: phi %4 has incoming from missing bb7",
        ),
    ];
    // Refused alike on every axis, with the verifier's message.
    let refused = |what: &str, m: &Module, msg: &str| {
        assert!(verify_domains(m).is_ok(), "{what}: the domain rule fails it");
        let err = alike_across_tiers(what, m, &[]).result.unwrap_err();
        assert_eq!(err.kind, TrapKind::MalformedIr(nzomp_ir::verify_module(m).unwrap_err().to_string()));
        assert!(err.kind.to_string().contains(msg), "{what}: {err}");
    };
    for (what, m, msg) in cases {
        refused(what, &m, msg);
    }

    // A well-formed kernel beside a malformed function it never calls.
    let m = mixed_kernel(&[], |m, b, g| {
        let mut h = FuncBuilder::new("unused", vec![], None);
        h.si_to_fp(Operand::Param(0));
        h.ret(None);
        m.add_function(h.finish());
        b.si_to_fp(g)
    });
    refused("a malformed function never called", &m, "@unused: operand references missing param 0");
}

/// A release is a fact of its callee: a call of an allocator release
/// function retires the shadow of the range its first two arguments name,
/// read as bits, on both tiers and whatever the tagged engine holds them
/// as. Every thread of `@k` writes shared `x` and then calls
/// `@__kmpc_free_shared` on it, so the next thread's write meets a fresh
/// shadow: no race, for a pointer, an integer or either, and for a release
/// of `i64::MAX` bytes, whose work is bounded by the shadow's size.
#[test]
fn the_release_hook_reads_its_callee() {
    let build = |size: i64, arg: fn(&mut FuncBuilder, Operand) -> Operand| {
        let mut m = Module::new("release");
        let x = Operand::Global(m.add_global(Global::new("x", Space::Shared, 8, Init::Zero)));
        let mut f = FuncBuilder::new("__kmpc_free_shared", vec![Ty::Ptr, Ty::I64], None);
        f.ret(None);
        let free = Operand::Func(m.add_function(f.finish()));
        let mut b = FuncBuilder::new("k", vec![Ty::Ptr], None);
        b.store(Ty::I64, x, Operand::i64(1));
        let p = arg(&mut b, x);
        b.call(free, vec![p, Operand::i64(size)], None);
        b.ret(None);
        let k = m.add_function(b.finish());
        m.add_kernel(k, ExecMode::Spmd);
        m
    };
    let races = |what: &str, m: &Module| {
        assert_eq!(nzomp_ir::verify_module(m), Ok(()), "{what}");
        assert_alike(what, &tier_axes(), |run| {
            let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
            let out = dev.alloc(8);
            observe_launch(&mut dev, "k", Launch::new(1, 4), &[RtVal::P(out)], (out, 1))
        });
        let run = RunConfig { sanitize: Sanitize::Report, ..RunConfig::default() };
        let mut dev = Device::load_with(m.clone(), DeviceConfig::default(), run);
        let out = dev.alloc(8);
        dev.launch("k", Launch::new(1, 4), &[RtVal::P(out)]).unwrap();
        dev.sanitizer_counts().0
    };

    assert_eq!(races("a pointer argument", &build(8, |_, x| x)), 0);
    let integer = build(8, |b, x| b.cast(CastKind::PtrCast, Ty::I64, x));
    assert_eq!(races("an integer argument", &integer), 0);
    let either = build(8, |b, x| {
        let i = b.cast(CastKind::PtrCast, Ty::I64, x);
        let tid = b.thread_id();
        let odd = b.and(tid, Operand::i64(1));
        b.select(Ty::Ptr, odd, x, i)
    });
    assert_eq!(races("a pointer or an integer", &either), 0);
    assert_eq!(races("a release of i64::MAX bytes", &build(i64::MAX, |_, x| x)), 0);
}
