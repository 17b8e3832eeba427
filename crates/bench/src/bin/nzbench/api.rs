//! The pinned surface: the one file of the benchmark that names functions
//! of the layers it measures. Everything else in this directory calls the
//! stack through here, so a signature change in a layer touches this file
//! and nothing else (see README.md, "Who may edit this directory").
//!
//! Every wrapper records a span named `<layer>.<call>` around the call it
//! makes. With the tracer off that is one branch; the untraced run is
//! where end-to-end numbers come from.

use std::rc::Rc;

pub use nzomp::pipeline::CompileCache;
pub use nzomp::{BuildConfig, CompileOutput};
pub use nzomp_front::RuntimeFlavor;
pub use nzomp_host::{
    BufId, DeviceStats, Host, HostStats, ImageId, KArg, MapKind, MapSpec, RecoveryPolicy, Region,
    RegionArg, SchedPolicy, StreamId, Ticket,
};
pub use nzomp_ir::Module;
pub use nzomp_opt::{Ablation, PassOptions, PassTimings};
pub use nzomp_proxies::Proxy;
pub use nzomp_serve::{
    Outcome, RejectReason, ReqArg, RequestSpec, Serve, ServeConfig, ServeMetrics, TenantConfig,
    TenantId,
};
pub use nzomp_vgpu::device::Launch;
pub use nzomp_vgpu::{
    DevPtr, Device, DeviceConfig, DeviceFaultKind, ExecTier, FaultPlan, KernelMetrics, RtVal,
};

use nzomp_ir::inst::BinOp;
use nzomp_ir::{ExecMode, FuncBuilder, Operand, Ty};

use crate::span::Tracer;

/// Release semantics, as every evaluation run of the repository uses:
/// assumptions were folded away or hold by contract.
pub fn device_config() -> DeviceConfig {
    DeviceConfig {
        check_assumes: false,
        ..DeviceConfig::default()
    }
}

// ---- serve ---------------------------------------------------------------

/// A service pinned to the bytecode tier and `workers` host threads per
/// device — through the API, never the environment.
pub fn serve_config(
    devices: usize,
    global_max_in_flight: usize,
    seed: u64,
    workers: usize,
) -> ServeConfig {
    let mut cfg = ServeConfig::new(devices);
    cfg.dev_cfg = device_config();
    cfg.policy = SchedPolicy::LeastLoaded;
    cfg.global_max_in_flight = global_max_in_flight;
    cfg.seed = seed;
    cfg.worker_threads = Some(workers);
    cfg.exec_tier = Some(ExecTier::Bytecode);
    cfg
}

pub fn serve_new(tr: &mut Tracer, cfg: &ServeConfig) -> Serve {
    tr.span("serve.new", || Serve::new(cfg.clone()))
}

pub fn serve_add_tenant(tr: &mut Tracer, s: &mut Serve, name: &str, cfg: TenantConfig) -> TenantId {
    tr.span("serve.add_tenant", || s.add_tenant(name, cfg))
}

/// `Err` only on API misuse, which the generated streams never commit.
pub fn serve_submit_at(
    tr: &mut Tracer,
    s: &mut Serve,
    at: u64,
    t: TenantId,
    spec: RequestSpec,
) -> Result<(), String> {
    tr.span("serve.submit_at", || {
        s.submit_at(at, t, spec)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

pub fn serve_drain(tr: &mut Tracer, s: &mut Serve) {
    tr.span("serve.drain", || s.drain())
}

pub fn serve_outcomes(s: &Serve) -> &[Option<Outcome>] {
    s.outcomes()
}

pub fn serve_metrics(s: &Serve) -> &ServeMetrics {
    s.metrics()
}

pub fn serve_host_stats(s: &Serve) -> HostStats {
    s.host_stats()
}

pub fn tenant_config(mem_quota: Option<u64>) -> TenantConfig {
    match mem_quota {
        Some(q) => TenantConfig::new(q, usize::MAX),
        None => TenantConfig::default(),
    }
}

// ---- host ----------------------------------------------------------------

pub fn host_new(
    tr: &mut Tracer,
    devices: usize,
    policy: SchedPolicy,
    workers: usize,
    recovery: Option<RecoveryPolicy>,
) -> Host {
    tr.span("host.new", || {
        let mut h = Host::new(device_config(), devices);
        h.set_policy(policy);
        h.set_exec_tier(ExecTier::Bytecode);
        h.set_worker_threads(workers);
        h.set_recovery(recovery);
        h
    })
}

/// Recovery armed for a long-lived host: the default retry budgets, and
/// a failover budget no campaign of the benchmark can spend.
pub fn recovery_policy(seed: u64) -> RecoveryPolicy {
    RecoveryPolicy {
        max_failovers: u32::MAX,
        backoff_seed: seed,
        ..RecoveryPolicy::default()
    }
}

pub fn host_stream(h: &mut Host) -> StreamId {
    h.stream()
}

pub fn host_load_image(
    tr: &mut Tracer,
    h: &mut Host,
    app: Module,
    cfg: BuildConfig,
) -> Result<ImageId, String> {
    tr.span("host.load_image", || {
        h.load_image(app, cfg).map_err(|e| e.to_string())
    })
}

pub fn host_bind_image(
    tr: &mut Tracer,
    h: &mut Host,
    dev: usize,
    img: ImageId,
) -> Result<(), String> {
    tr.span("host.bind_image", || {
        h.bind_image(dev, img).map_err(|e| e.to_string())
    })
}

pub fn host_enqueue_region(
    tr: &mut Tracer,
    h: &mut Host,
    stream: StreamId,
    img: ImageId,
    kernel: &str,
    launch: Launch,
    args: Vec<RegionArg>,
) -> Result<Region, String> {
    tr.span("host.enqueue_region", || {
        h.enqueue_region(&[stream], img, kernel, launch, args)
            .map_err(|e| e.to_string())
    })
}

pub fn host_register_bytes(h: &mut Host, bytes: Vec<u8>) -> BufId {
    h.register_bytes(bytes)
}

pub fn host_register_zeros(h: &mut Host, len: u64) -> BufId {
    h.register_zeros(len)
}

pub fn host_data_enter(
    tr: &mut Tracer,
    h: &mut Host,
    s: StreamId,
    dev: usize,
    maps: &[MapSpec],
) -> Result<(), String> {
    tr.span("host.data_enter", || {
        h.data_enter(s, dev, maps).map_err(|e| e.to_string())
    })
}

pub fn host_data_exit(
    tr: &mut Tracer,
    h: &mut Host,
    s: StreamId,
    dev: usize,
    maps: &[MapSpec],
) -> Result<(), String> {
    tr.span("host.data_exit", || {
        h.data_exit(s, dev, maps).map_err(|e| e.to_string())
    })
}

pub fn host_enqueue_launch(
    tr: &mut Tracer,
    h: &mut Host,
    s: StreamId,
    dev: usize,
    kernel: &str,
    launch: Launch,
    args: &[KArg],
) -> Result<Ticket, String> {
    tr.span("host.enqueue_launch", || {
        h.enqueue_launch(s, dev, kernel, launch, args)
            .map_err(|e| e.to_string())
    })
}

pub fn host_sync(tr: &mut Tracer, h: &mut Host) -> Result<(), String> {
    tr.span("host.sync", || h.sync().map_err(|e| e.to_string()))
}

pub fn host_take_metrics(tr: &mut Tracer, h: &Host, t: Ticket) -> Result<KernelMetrics, String> {
    tr.span("host.take_metrics", || {
        h.take_metrics(t).map_err(|e| e.to_string())
    })
}

pub fn host_buf_bytes<'h>(tr: &mut Tracer, h: &'h Host, b: BufId) -> Result<&'h [u8], String> {
    tr.span("host.buf_bytes", || {
        h.buf_bytes(b).map_err(|e| e.to_string())
    })
}

pub fn host_stats(h: &Host) -> HostStats {
    h.stats()
}

pub fn host_set_device_faults(h: &mut Host, dev: usize, plan: FaultPlan) -> Result<(), String> {
    h.set_device_faults(dev, plan).map_err(|e| e.to_string())
}

pub fn no_faults() -> FaultPlan {
    FaultPlan::none()
}

/// The seeded device-fault campaign and its sites as (kind, trigger
/// index on the device's op clock).
pub fn device_campaign(seed: u64) -> (FaultPlan, Vec<(DeviceFaultKind, u64)>) {
    let plan = FaultPlan::device_campaign(seed);
    let sites = plan
        .device_sites
        .iter()
        .map(|s| (s.kind, s.after_ops))
        .collect();
    (plan, sites)
}

// ---- core ----------------------------------------------------------------

/// `opts: None` is the configuration's own pipeline.
pub fn compile_with(
    tr: &mut Tracer,
    app: Module,
    cfg: BuildConfig,
    opts: Option<PassOptions>,
) -> Result<CompileOutput, String> {
    tr.span("core.compile", || {
        let opts = opts.unwrap_or_else(|| cfg.pass_options());
        nzomp::pipeline::compile_with(app, cfg, cfg.rt_config(), opts).map_err(|e| e.to_string())
    })
}

pub fn link_only(tr: &mut Tracer, app: Module, cfg: BuildConfig) -> Result<Module, String> {
    tr.span("core.link_only", || {
        nzomp::pipeline::link_only(app, cfg, &cfg.rt_config()).map_err(|e| e.to_string())
    })
}

pub fn module_clone(tr: &mut Tracer, m: &Module) -> Module {
    tr.span("core.module_clone", || m.clone())
}

pub fn module_fingerprint(tr: &mut Tracer, m: &Module) -> u64 {
    tr.span("core.module_fingerprint", || nzomp::module_fingerprint(m))
}

pub fn cache_new() -> CompileCache {
    CompileCache::new()
}

pub fn cache_compile(
    tr: &mut Tracer,
    c: &mut CompileCache,
    app: Module,
    cfg: BuildConfig,
) -> Result<Rc<CompileOutput>, String> {
    tr.span("core.cache_compile", || {
        c.compile(app, cfg).map_err(|e| e.to_string())
    })
}

// ---- rt, front, opt, ir --------------------------------------------------

/// The runtime library a configuration links, or `None` for CUDA.
pub fn build_runtime(tr: &mut Tracer, cfg: BuildConfig) -> Option<Module> {
    let flavor = cfg.runtime()?;
    Some(tr.span("rt.build_runtime", || {
        nzomp::rt::build_runtime(flavor, &cfg.rt_config(), false)
    }))
}

pub fn front_build(tr: &mut Tracer, p: &dyn Proxy, cfg: BuildConfig) -> Module {
    tr.span("front.build", || nzomp_proxies::build_for_config(p, cfg))
}

pub fn optimize_timed(tr: &mut Tracer, m: &mut Module, opts: &PassOptions) -> PassTimings {
    tr.span("opt.optimize", || {
        nzomp_opt::optimize_module_timed(m, opts).1
    })
}

pub fn print_module(tr: &mut Tracer, m: &Module) -> String {
    tr.span("ir.print_module", || nzomp_ir::printer::print_module(m))
}

pub fn parse_module_strict(tr: &mut Tracer, text: &str) -> Result<Module, String> {
    tr.span("ir.parse_module_strict", || {
        nzomp_ir::parser::parse_module_strict(text).map_err(|e| e.to_string())
    })
}

pub fn verify_module(tr: &mut Tracer, m: &Module) -> Result<(), String> {
    tr.span("ir.verify_module", || {
        nzomp_ir::verify_module(m).map_err(|e| e.to_string())
    })
}

pub fn link(tr: &mut Tracer, dst: &mut Module, src: Module) -> Result<(), String> {
    tr.span("ir.link", || {
        nzomp_ir::link::link(dst, src).map_err(|e| e.to_string())
    })
}

pub fn live_inst_count(m: &Module) -> u64 {
    m.live_inst_count() as u64
}

// ---- vgpu ----------------------------------------------------------------

pub fn device_load(tr: &mut Tracer, m: Module, tier: ExecTier, workers: usize) -> Device {
    tr.span("vgpu.load", || {
        let mut d = Device::load(m, device_config());
        d.set_exec_tier(tier);
        d.set_worker_threads(workers);
        d
    })
}

pub fn device_alloc(tr: &mut Tracer, d: &mut Device, size: u64) -> DevPtr {
    tr.span("vgpu.alloc", || d.alloc(size))
}

pub fn device_write_bytes(
    tr: &mut Tracer,
    d: &mut Device,
    p: DevPtr,
    data: &[u8],
) -> Result<(), String> {
    tr.span("vgpu.write_bytes", || {
        d.write_bytes(p, data).map_err(|e| e.to_string())
    })
}

pub fn device_read_bytes(
    tr: &mut Tracer,
    d: &mut Device,
    p: DevPtr,
    len: usize,
) -> Result<Vec<u8>, String> {
    tr.span("vgpu.read_bytes", || {
        d.read_bytes(p, len).map_err(|e| e.to_string())
    })
}

pub fn device_launch(
    tr: &mut Tracer,
    d: &mut Device,
    kernel: &str,
    launch: Launch,
    args: &[RtVal],
) -> Result<KernelMetrics, String> {
    tr.span("vgpu.launch", || {
        d.launch(kernel, launch, args).map_err(|e| e.to_string())
    })
}

pub fn device_global_bytes(d: &Device) -> &[u8] {
    d.global_bytes()
}

// ---- proxies and generated kernels ----------------------------------------

/// The five proxy applications in the paper's order, their input data
/// drawn from `seed`. MiniFMM keeps its own seed: it draws the shape of
/// the tree, which is the modeled work, and the benchmark holds modeled
/// work equal across seeds. `large` selects the benchmark sizes.
pub fn proxies(large: bool, seed: u64) -> Vec<Rc<dyn Proxy>> {
    use nzomp_proxies::{
        gridmini::GridMini, minifmm::MiniFmm, rsbench::RSBench, testsnap::TestSnap,
        xsbench::XSBench,
    };
    let s = |i: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
    if large {
        vec![
            Rc::new(XSBench {
                seed: s(1),
                ..XSBench::large()
            }),
            Rc::new(RSBench {
                seed: s(2),
                ..RSBench::large()
            }),
            Rc::new(TestSnap {
                seed: s(3),
                ..TestSnap::large()
            }),
            Rc::new(MiniFmm::large()),
            Rc::new(GridMini {
                seed: s(5),
                ..GridMini::large()
            }),
        ]
    } else {
        vec![
            Rc::new(XSBench {
                seed: s(1),
                ..XSBench::small()
            }),
            Rc::new(RSBench {
                seed: s(2),
                ..RSBench::small()
            }),
            Rc::new(TestSnap {
                seed: s(3),
                ..TestSnap::small()
            }),
            Rc::new(MiniFmm::small()),
            Rc::new(GridMini {
                seed: s(5),
                ..GridMini::small()
            }),
        ]
    }
}

/// `out[i] = in[i] * factor + i` over `n` lanes — the `serve_load`
/// request kernel; `factor` is the immediate `serve_cold` varies.
pub fn scale_module(factor: f64) -> Module {
    let mut m = Module::new("nzbench_scale");
    nzomp_front::spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "k",
        &[Ty::Ptr, Ty::Ptr, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let pa = b.gep(p[0], iv, 8);
            let x = b.load(Ty::F64, pa);
            let scaled = b.fmul(x, Operand::f64(factor));
            let i_f = b.si_to_fp(iv);
            let v = b.fadd(scaled, i_f);
            let po = b.gep(p[1], iv, 8);
            b.store(Ty::F64, po, v);
        },
    );
    m
}

/// `out[i] = i / d` — with `d = 0` every lane traps.
pub fn div_module() -> Module {
    let mut m = Module::new("nzbench_div");
    nzomp_front::spmd_kernel_for(
        &mut m,
        RuntimeFlavor::Modern,
        "d",
        &[Ty::Ptr, Ty::I64, Ty::I64],
        |_b, p| p[2],
        |_m, b, iv, p| {
            let q = b.sdiv(iv, p[1]);
            let po = b.gep(p[0], iv, 8);
            b.store(Ty::I64, po, q);
        },
    );
    m
}

/// The `exec_tier` dispatch-bound loop: `iters` rounds of an LCG +
/// xorshift per thread, one store at the end. `branchy` adds a
/// data-dependent branch per round. `salt` is mixed into every thread's
/// start value, so the seed reaches the data.
pub fn loop_module(branchy: bool, iters: i64) -> Module {
    let name = if branchy { "branchy" } else { "alu" };
    let mut m = Module::new(name);
    let mut b = FuncBuilder::new(name, vec![Ty::Ptr, Ty::I64], None);
    let entry = b.current_block();
    let out = b.param(0);
    let salt = b.param(1);
    let tid = b.thread_id();
    let team = b.block_id();
    let bdim = b.block_dim();
    let scaled = b.mul(team, bdim);
    let gid = b.add(scaled, tid);
    let start = b.bin(BinOp::Xor, Ty::I64, gid, salt);
    let head = b.new_block();
    let exit = b.new_block();
    b.br(head);
    b.switch_to(head);
    let i = b.phi(Ty::I64, vec![(entry, Operand::i64(0))]);
    let acc = b.phi(Ty::I64, vec![(entry, start)]);
    let mixed = b.mul(acc, Operand::i64(6364136223846793005));
    let mixed = b.add(mixed, Operand::i64(1442695040888963407));
    let (latch, acc2) = if branchy {
        let (even, odd, join) = (b.new_block(), b.new_block(), b.new_block());
        let parity = b.bin(BinOp::And, Ty::I64, mixed, Operand::i64(1));
        let is_even = b.icmp_eq(parity, Operand::i64(0));
        b.cond_br(is_even, even, odd);
        b.switch_to(even);
        let es = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(17));
        let ev = b.bin(BinOp::Xor, Ty::I64, mixed, es);
        b.br(join);
        b.switch_to(odd);
        let os = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(13));
        let ov = b.bin(BinOp::Xor, Ty::I64, mixed, os);
        b.br(join);
        b.switch_to(join);
        (join, b.phi(Ty::I64, vec![(even, ev), (odd, ov)]))
    } else {
        let shifted = b.bin(BinOp::LShr, Ty::I64, mixed, Operand::i64(17));
        (head, b.bin(BinOp::Xor, Ty::I64, mixed, shifted))
    };
    let i2 = b.add(i, Operand::i64(1));
    b.phi_add_incoming(i, latch, i2);
    b.phi_add_incoming(acc, latch, acc2);
    let more = b.icmp_slt(i2, Operand::i64(iters));
    b.cond_br(more, head, exit);
    b.switch_to(exit);
    let slot = b.gep(out, gid, 8);
    b.store(Ty::I64, slot, acc2);
    b.ret(None);
    let f = m.add_function(b.finish());
    m.add_kernel(f, ExecMode::Spmd);
    m
}
