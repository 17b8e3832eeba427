//! The dense call graph (`nzomp_ir::analysis::callgraph`) against the
//! hashed one it replaced, kept here as the reference, and the module on
//! which the reference's reachability never ends: two functions that each
//! call through a pointer and whose addresses only a dead function takes,
//! beside a kernel that calls through a pointer too. Its reachability
//! recursed afresh from every address-taken function the first walk missed,
//! `a → b → a → …`, until the stack overflowed and the process aborted —
//! in `global-dce` on every compile of it, and through the service.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use nzomp::pipeline::link_only;
use nzomp::BuildConfig;
use nzomp_front::{spmd_kernel_for, RuntimeFlavor};
use nzomp_integration::gen;
use nzomp_ir::analysis::callgraph::CallGraph;
use nzomp_ir::module::FuncRef;
use nzomp_ir::{ExecMode, FuncBuilder, Inst, Module, Operand, Ty};
use nzomp_proxies::{all_proxies, build_for_config, compile_for_config, quick_device};
use nzomp_serve::{Outcome, ReqArg, RequestSpec, Serve, ServeConfig, TenantConfig};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::RtVal;

/// Reference: the call graph as hash maps and sets keyed by function, as
/// it was built before it became dense.
struct Hashed {
    callees: HashMap<FuncRef, Vec<FuncRef>>,
    callers: HashMap<FuncRef, Vec<FuncRef>>,
    address_taken: HashSet<FuncRef>,
    has_indirect_call: HashSet<FuncRef>,
}

impl Hashed {
    fn build(m: &Module) -> Hashed {
        let mut callees: HashMap<FuncRef, Vec<FuncRef>> = HashMap::new();
        let mut callers: HashMap<FuncRef, Vec<FuncRef>> = HashMap::new();
        let mut address_taken = HashSet::new();
        let mut has_indirect_call = HashSet::new();
        for (i, f) in m.funcs.iter().enumerate() {
            let me = FuncRef(i as u32);
            for (_bid, block) in f.iter_blocks() {
                for &iid in &block.insts {
                    let inst = f.inst(iid);
                    if let Inst::Call { callee, args, .. } = inst {
                        match callee {
                            Operand::Func(target) => {
                                let list = callees.entry(me).or_default();
                                if !list.contains(target) {
                                    list.push(*target);
                                }
                                let rlist = callers.entry(*target).or_default();
                                if !rlist.contains(&me) {
                                    rlist.push(me);
                                }
                            }
                            _ => {
                                has_indirect_call.insert(me);
                            }
                        }
                        for a in args {
                            if let Operand::Func(fr) = a {
                                address_taken.insert(*fr);
                            }
                        }
                    } else {
                        inst.for_each_operand(|op| {
                            if let Operand::Func(fr) = op {
                                address_taken.insert(fr);
                            }
                        });
                    }
                }
            }
        }
        Hashed { callees, callers, address_taken, has_indirect_call }
    }

    /// The reference's reachability, recursing as it did, or `None` where
    /// that recursion never ends: a terminating one never revisits a
    /// function down one chain, so it is at most one deeper than there are
    /// functions.
    fn reachable_from(
        &self,
        m: &Module,
        roots: &[FuncRef],
        depth: usize,
    ) -> Option<HashSet<FuncRef>> {
        if depth > m.funcs.len() {
            return None;
        }
        let mut seen: HashSet<FuncRef> = HashSet::new();
        let mut stack: Vec<FuncRef> = roots.to_vec();
        let mut saw_indirect = false;
        while let Some(f) = stack.pop() {
            if !seen.insert(f) {
                continue;
            }
            if self.has_indirect_call.contains(&f) {
                saw_indirect = true;
            }
            if let Some(cs) = self.callees.get(&f) {
                stack.extend(cs.iter().copied());
            }
            let func = m.func(f);
            for block in &func.blocks {
                for &iid in &block.insts {
                    func.inst(iid).for_each_operand(|op| {
                        if let Operand::Func(fr) = op {
                            if self.address_taken.contains(&fr) && !seen.contains(&fr) {
                                stack.push(fr);
                            }
                        }
                    });
                }
            }
        }
        if saw_indirect {
            for fr in &self.address_taken {
                if !seen.contains(fr) {
                    let more = self.reachable_from(m, &[*fr], depth + 1)?;
                    seen.extend(more);
                }
            }
        }
        Some(seen)
    }

    fn maybe_recursive(&self, f: FuncRef) -> bool {
        if self.address_taken.contains(&f) && self.has_indirect_call.contains(&f) {
            return true;
        }
        let mut seen = HashSet::new();
        let mut stack: Vec<FuncRef> = self.callees.get(&f).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            if c == f {
                return true;
            }
            if seen.insert(c) {
                if let Some(cs) = self.callees.get(&c) {
                    stack.extend(cs.iter().copied());
                }
            }
        }
        false
    }
}

/// The functions a bitset from [`CallGraph::reachable_from`] marks.
fn members(live: &[bool]) -> HashSet<FuncRef> {
    (0..live.len()).filter(|&i| live[i]).map(|i| FuncRef(i as u32)).collect()
}

/// Hold the dense graph of `m` to the reference in every answer: edges in
/// order, the address-taken and indirect-call sets, recursion of every
/// function, and reachability from every kernel and from all of them.
/// Returns how many reachability queries were skipped because the
/// reference's would not end.
fn graphs_agree(m: &Module, what: &str) -> usize {
    let dense = CallGraph::build(m);
    let hashed = Hashed::build(m);
    for i in 0..m.funcs.len() {
        let fr = FuncRef(i as u32);
        let edges =
            |map: &HashMap<FuncRef, Vec<FuncRef>>| map.get(&fr).cloned().unwrap_or_default();
        assert_eq!(dense.callees[i], edges(&hashed.callees), "{what}: callees of {i}");
        assert_eq!(dense.callers[i], edges(&hashed.callers), "{what}: callers of {i}");
        assert_eq!(dense.address_taken[i], hashed.address_taken.contains(&fr), "{what}: {i}");
        let indirect = hashed.has_indirect_call.contains(&fr);
        assert_eq!(dense.has_indirect_call[i], indirect, "{what}: {i}");
        assert_eq!(dense.maybe_recursive(fr), hashed.maybe_recursive(fr), "{what}: {i}");
    }
    let listed: HashSet<FuncRef> = dense.address_taken_list.iter().copied().collect();
    assert_eq!(listed.len(), dense.address_taken_list.len(), "{what}: listed twice");
    assert_eq!(listed, hashed.address_taken, "{what}: address-taken list");

    let kernels: Vec<FuncRef> = m.kernels.iter().map(|k| k.func).collect();
    let mut skipped = 0;
    for roots in kernels.iter().map(std::slice::from_ref).chain([&kernels[..]]) {
        match hashed.reachable_from(m, roots, 0) {
            Some(want) => {
                assert_eq!(members(&dense.reachable_from(roots)), want, "{what}: from {roots:?}")
            }
            None => skipped += 1,
        }
    }
    skipped
}

/// `k(p, n)` calls through the pointer at `p` when `n > 0` and stores 7 at
/// `p`; `a(p)` and `b(p)` each call through the pointer at `p`; `dead(p)`,
/// which nothing calls, stores the addresses of `a` and `b` at `p`.
fn mutually_indirect() -> (Module, [FuncRef; 4]) {
    let mut m = Module::new("mutually_indirect");
    let mut k = FuncBuilder::new("k", vec![Ty::Ptr, Ty::I64], None);
    let (call, done) = (k.new_block(), k.new_block());
    let positive = k.icmp_slt(Operand::i64(0), k.param(1));
    k.cond_br(positive, call, done);
    k.switch_to(call);
    let fp = k.load(Ty::Ptr, k.param(0));
    k.call(fp, vec![k.param(0)], None);
    k.br(done);
    k.switch_to(done);
    k.store(Ty::I64, k.param(0), Operand::i64(7));
    k.ret(None);
    let k = m.add_function(k.finish());
    m.add_kernel(k, ExecMode::Spmd);
    let [a, b] = ["a", "b"].map(|name| {
        let mut f = FuncBuilder::new(name, vec![Ty::Ptr], None);
        let fp = f.load(Ty::Ptr, f.param(0));
        f.call(fp, vec![f.param(0)], None);
        f.ret(None);
        m.add_function(f.finish())
    });
    let mut dead = FuncBuilder::new("dead", vec![Ty::Ptr], None);
    dead.store(Ty::Ptr, dead.param(0), Operand::Func(a));
    let second = dead.gep(dead.param(0), Operand::i64(1), 8);
    dead.store(Ty::Ptr, second, Operand::Func(b));
    dead.ret(None);
    let dead = m.add_function(dead.finish());
    nzomp_ir::verify_module(&m).unwrap();
    (m, [k, a, b, dead])
}

#[test]
fn reachability_through_indirect_callers_only_a_dead_function_names_ends() {
    let (m, [k, a, b, _dead]) = mutually_indirect();
    let cg = CallGraph::build(&m);
    assert_eq!(members(&cg.reachable_from(&[k])), HashSet::from([k, a, b]));
    let reference = Hashed::build(&m).reachable_from(&m, &[k], 0);
    assert_eq!(reference, None, "the reference recurses without end");
}

#[test]
fn a_dead_function_naming_two_indirect_callers_compiles_under_every_config() {
    let (m, [k, .., dead]) = mutually_indirect();
    for cfg in BuildConfig::ALL {
        let out = nzomp::compile(m.clone(), cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        let f = |fr: FuncRef| &out.module.funcs[fr.index()];
        assert!(!f(k).is_declaration() && f(dead).is_declaration(), "{cfg:?}");
    }
}

/// `state[i] = c` over `N` slots — the neighbour's work.
fn writer() -> Rc<Module> {
    let mut m = Module::new("callgraph_writer");
    spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "w",
        &[Ty::Ptr, Ty::I64, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let ps = b.gep(p[0], iv, 8);
            b.store(Ty::I64, ps, p[1]);
        },
    );
    Rc::new(m)
}

const N: usize = 16;

/// The module through `Serve::submit` ends `Completed` with what `k`
/// stores, and the tenant beside it cannot tell the requests were made.
#[test]
fn a_served_request_for_it_completes_and_leaves_neighbours_alone() {
    let (writer, hostile) = (writer(), Rc::new(mutually_indirect().0));
    let launch = Launch { teams: 2, threads_per_team: 8, dyn_smem_bytes: 0 };
    let run = |submit_hostile: bool| {
        // Devices enough that no request waits for one: the neighbour's
        // latencies are then its own whatever else is in flight.
        let mut cfg = ServeConfig::new(8);
        cfg.dev_cfg = quick_device();
        let mut serve = Serve::new(cfg);
        let good = serve.add_tenant("good", TenantConfig::default());
        let other = serve.add_tenant("other", TenantConfig::default());
        let state = serve.session_map(good, vec![0u8; 8 * N]).unwrap();
        let mut served = Vec::new();
        for round in 0..3i64 {
            let write = RequestSpec {
                module: Rc::clone(&writer),
                config: BuildConfig::NewRtNoAssumptions,
                kernel: "w".into(),
                launch,
                args: vec![
                    ReqArg::Session(state),
                    ReqArg::Scalar(RtVal::I(round)),
                    ReqArg::Scalar(RtVal::I(N as i64)),
                ],
            };
            serve.submit(good, write).unwrap();
            if submit_hostile {
                let spec = RequestSpec {
                    module: Rc::clone(&hostile),
                    config: BuildConfig::ALL[round as usize],
                    kernel: "k".into(),
                    launch,
                    args: vec![ReqArg::Out(8), ReqArg::Scalar(RtVal::I(0))],
                };
                served.push(serve.submit(other, spec).unwrap());
            }
        }
        serve.drain();
        for id in served {
            match serve.outcome(id) {
                Some(Outcome::Completed { outputs, .. }) => {
                    assert_eq!(outputs[0].1, 7i64.to_le_bytes())
                }
                o => panic!("expected completion, got {o:?}"),
            }
        }
        let snap = nzomp_serve::trace::snapshot(&mut serve).unwrap();
        nzomp_integration::assert_counters_agree(&snap);
        assert_eq!(snap.rows[0].completed, 3);
        (snap.rows[0].clone(), snap.session_images[0].clone())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn dense_call_graph_matches_the_hashed_reference() {
    for seed in 0..256 {
        graphs_agree(&gen::generate(seed).module, &format!("gen seed {seed}"));
    }
    for p in all_proxies() {
        for cfg in BuildConfig::ALL {
            let what = format!("{} under {cfg:?}", p.name());
            let app = build_for_config(p.as_ref(), cfg);
            let linked = link_only(app, cfg, &cfg.rt_config()).unwrap();
            assert_eq!(graphs_agree(&linked, &what), 0, "{what}");
            let compiled = compile_for_config(p.as_ref(), cfg).unwrap().module;
            assert_eq!(graphs_agree(&compiled, &what), 0, "{what}, compiled");
        }
    }
    let (m, _) = mutually_indirect();
    assert_eq!(graphs_agree(&m, "mutually_indirect"), 2);
}
