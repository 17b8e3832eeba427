//! The layer ladder of the traced run. `Serve` owns its `Host` and `Host`
//! its `Device`s, so the nesting of one request cannot be observed from
//! outside. Instead a seeded sample of the workload's own operations is
//! driven down four rungs — the full `Serve` path, the same region on a
//! bare `Host`, the same ops on a bare `Device`, and the core pieces
//! alone. Each rung times the *second* consecutive run of an operation,
//! when the compile cache holds the module, the device holds the image
//! and the bytecode is lowered; first-time costs are reported on their
//! own. A layer's self time is its rung minus the rung below. The
//! difference is reported as measured: a negative one is not clamped but
//! printed as `unresolved`.

use std::time::Instant;

use crate::api::{self, BuildConfig, ExecTier};
use crate::gen::{self, Arg, OpSpec};
use crate::span::Tracer;
use crate::stats::{self, Rng};

/// Operations sampled from the workload's pool.
const SAMPLE: usize = 8;
/// Far enough apart in modeled time that a request completes before the
/// next arrives.
const SPACING: u64 = 1 << 40;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Named samples collected over the passes; a metric's value is the
/// median of its samples.
#[derive(Default)]
pub struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.as_slice())
    }

    pub fn median(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, stats::median)
    }
}

/// The operations the ladder can drive through every rung: those that
/// complete, under a configuration's own pipeline (the service and the
/// host compile by configuration only).
pub fn sample(pool: &[OpSpec], seed: u64) -> Vec<OpSpec> {
    let mut eligible: Vec<&OpSpec> = pool
        .iter()
        .filter(|o| !o.traps() && o.opts.is_none())
        .collect();
    Rng::new(seed ^ 0x1adde5).shuffle(&mut eligible);
    eligible.into_iter().take(SAMPLE).cloned().collect()
}

/// Top rung: each op twice through a bare single-device `Serve`.
fn serve_rung(tr: &mut Tracer, ops: &[OpSpec], seed: u64, out: &mut Samples) -> Result<(), String> {
    let cfg = api::serve_config(1, 64, seed, 1);
    let mut s = api::serve_new(tr, &cfg);
    let tenant = api::serve_add_tenant(tr, &mut s, "ladder", api::tenant_config(None));
    let mut total = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let at = (2 * i as u64 + 1) * SPACING;
        api::serve_submit_at(tr, &mut s, at, tenant, op.request())?;
        let spec = op.request();
        tr.set_req(i as u64);
        let t = Instant::now();
        api::serve_submit_at(tr, &mut s, at + SPACING, tenant, spec)?;
        let dt = us(t);
        out.push("serve.submit_us", dt);
        total += dt;
    }
    let t = Instant::now();
    api::serve_drain(tr, &mut s);
    total += us(t);
    let done = api::serve_outcomes(&s)
        .iter()
        .filter(|o| matches!(o, Some(api::Outcome::Completed { .. })))
        .count();
    if done != 2 * ops.len() {
        return Err(format!(
            "ladder: {done} of {} requests completed on the serve rung",
            2 * ops.len()
        ));
    }
    out.push("serve.rung_us_per_req", total / ops.len() as f64);
    Ok(())
}

/// Second rung: each op twice as a whole region on a bare `Host`, then
/// once more with the map clauses entered, launched and exited by hand.
fn host_rung(tr: &mut Tracer, ops: &[OpSpec], out: &mut Samples) -> Result<(), String> {
    let mut h = api::host_new(tr, 1, api::SchedPolicy::RoundRobin, 1, None);
    let stream = api::host_stream(&mut h);
    let (mut total, mut mapped, mut map_us) = (0.0, 0u64, 0.0);
    for (i, op) in ops.iter().enumerate() {
        tr.set_req(i as u64);
        // The first load of an op misses the cache unless an earlier op
        // of the sample shares its module; the host's own counter says.
        let misses = api::host_stats(&h).compile_misses;
        let app = (*op.module).clone();
        let t = Instant::now();
        let img = api::host_load_image(tr, &mut h, app, op.config)?;
        if api::host_stats(&h).compile_misses > misses {
            out.push("host.load_image_miss_us", us(t));
        }
        let t = Instant::now();
        api::host_bind_image(tr, &mut h, 0, img)?;
        out.push("host.bind_image_us", us(t));
        let mut region = |tr: &mut Tracer, h: &mut api::Host| -> Result<f64, String> {
            // The clone is the caller's: a driver that keeps its modules
            // shared pays it (as Serve does), one that hands them over
            // does not.
            let (app, args) = ((*op.module).clone(), op.region_args());
            let t = Instant::now();
            let t_hit = Instant::now();
            let img = api::host_load_image(tr, h, app, op.config)?;
            out.push("host.load_image_hit_us", us(t_hit));
            let r = api::host_enqueue_region(tr, h, stream, img, op.kernel, op.launch, args)?;
            api::host_sync(tr, h)?;
            api::host_take_metrics(tr, h, r.ticket)?;
            let buf = op
                .out_arg()
                .and_then(|a| r.bufs.get(a).copied().flatten())
                .ok_or("ladder: op has no output buffer")?;
            let ok = op.output_ok(api::host_buf_bytes(tr, h, buf)?);
            let dt = us(t);
            if ok {
                Ok(dt)
            } else {
                Err("ladder: host rung output contradicts the oracle".to_string())
            }
        };
        region(tr, &mut h)?;
        total += region(tr, &mut h)?;

        // By hand: enter, launch, exit, each followed by the sync that
        // does the work, so the copies and the launch are timed apart.
        let mut kargs = Vec::new();
        let (mut enters, mut exits) = (Vec::new(), Vec::new());
        for a in &op.args {
            let (buf, len, enter, exit) = match a {
                Arg::To(b) => (
                    api::host_register_bytes(&mut h, (**b).clone()),
                    b.len() as u64,
                    api::MapKind::To,
                    api::MapKind::Release,
                ),
                Arg::From(n) => (
                    api::host_register_zeros(&mut h, *n),
                    *n,
                    api::MapKind::From,
                    api::MapKind::From,
                ),
                Arg::Alloc(n) => (
                    api::host_register_zeros(&mut h, *n),
                    *n,
                    api::MapKind::Alloc,
                    api::MapKind::Release,
                ),
                Arg::Scalar(v) => {
                    kargs.push(api::KArg::Val(*v));
                    continue;
                }
            };
            enters.push(api::MapSpec::whole(buf, len, enter));
            exits.push(api::MapSpec::whole(buf, len, exit));
            kargs.push(api::KArg::Buf(buf));
        }
        let t = Instant::now();
        api::host_data_enter(tr, &mut h, stream, 0, &enters)?;
        api::host_sync(tr, &mut h)?;
        let enter_us = us(t);
        api::host_enqueue_launch(tr, &mut h, stream, 0, op.kernel, op.launch, &kargs)?;
        let t = Instant::now();
        api::host_sync(tr, &mut h)?;
        out.push("host.sync_us", us(t));
        let t = Instant::now();
        api::host_data_exit(tr, &mut h, stream, 0, &exits)?;
        api::host_sync(tr, &mut h)?;
        let exit_us = us(t);
        out.push("host.data_enter_us", enter_us);
        out.push("host.data_exit_us", exit_us);
        mapped += op.mapped_bytes();
        map_us += enter_us + exit_us;
    }
    out.push("host.region_us", total / ops.len() as f64);
    out.push("host.map_mb_per_s", mapped as f64 / map_us);
    Ok(())
}

/// What the bottom rung saw, for the metrics derived across tiers.
#[derive(Default)]
struct DeviceRung {
    total_us: f64,
    launch_us: f64,
    insts: u64,
    dispatched: u64,
    runtime_calls: u64,
    barriers: u64,
    global_accesses: u64,
}

/// Bottom rung: alloc, write, launch, read on a bare `Device`, twice; the
/// first launch lowers the bytecode, the second is the steady one.
fn device_rung(
    tr: &mut Tracer,
    ops: &[OpSpec],
    images: &[api::Module],
    tier: ExecTier,
    workers: usize,
    out: Option<&mut Samples>,
) -> Result<DeviceRung, String> {
    let mut rung = DeviceRung::default();
    let mut sink = Samples::default();
    let out = out.unwrap_or(&mut sink);
    let (mut wrote, mut write_us, mut read, mut read_us) = (0u64, 0.0, 0u64, 0.0);
    for (i, (op, image)) in ops.iter().zip(images).enumerate() {
        tr.set_req(i as u64);
        let image = image.clone();
        let t = Instant::now();
        let mut dev = api::device_load(tr, image, tier, workers);
        out.push("vgpu.load_us", us(t));
        let mut once =
            |tr: &mut Tracer, dev: &mut api::Device, steady: bool| -> Result<(f64, f64), String> {
                let t = Instant::now();
                let tw = Instant::now();
                let placed = gen::place(tr, dev, op)?;
                let w = us(tw);
                let tl = Instant::now();
                let m = api::device_launch(tr, dev, op.kernel, op.launch, &placed.args)?;
                let launch = us(tl);
                let (p, len) = placed.out.ok_or("ladder: op has no output buffer")?;
                let trd = Instant::now();
                let bytes = api::device_read_bytes(tr, dev, p, len)?;
                let r = us(trd);
                let total = us(t);
                if !op.output_ok(&bytes) {
                    return Err("ladder: device rung output contradicts the oracle".to_string());
                }
                if steady {
                    wrote += op
                        .args
                        .iter()
                        .map(|a| {
                            if let Arg::To(b) = a {
                                b.len() as u64
                            } else {
                                0
                            }
                        })
                        .sum::<u64>();
                    write_us += w;
                    read += len as u64;
                    read_us += r;
                    rung.insts += m.instructions;
                    rung.dispatched += m.dispatched;
                    rung.runtime_calls += m.runtime_calls;
                    rung.barriers += m.barriers;
                    rung.global_accesses += m.global_accesses;
                }
                Ok((total, launch))
            };
        let (_, first) = once(tr, &mut dev, false)?;
        let (total, launch) = once(tr, &mut dev, true)?;
        out.push("vgpu.lower_us", first - launch);
        rung.total_us += total;
        rung.launch_us += launch;
    }
    out.push(
        "vgpu.write_mb_per_s",
        if write_us > 0.0 {
            wrote as f64 / write_us
        } else {
            0.0
        },
    );
    out.push(
        "vgpu.read_mb_per_s",
        if read_us > 0.0 {
            read as f64 / read_us
        } else {
            0.0
        },
    );
    Ok(rung)
}

/// The core pieces alone, on the sampled modules.
fn core_pieces(
    tr: &mut Tracer,
    ops: &[OpSpec],
    out: &mut Samples,
) -> Result<Vec<api::Module>, String> {
    let mut cache = api::cache_new();
    let mut images = Vec::new();
    let (mut printed, mut print_us, mut parse_us) = (0usize, 0.0, 0.0);
    for (i, op) in ops.iter().enumerate() {
        tr.set_req(i as u64);
        let t = Instant::now();
        let app = op.front_build(tr);
        out.push("front.build_us", us(t));
        // Like the rungs, the second run is the timed one.
        api::module_clone(tr, &app);
        let t = Instant::now();
        let copy = api::module_clone(tr, &app);
        out.push("core.module_clone_us", us(t));
        api::module_fingerprint(tr, &app);
        let t = Instant::now();
        api::module_fingerprint(tr, &app);
        out.push("core.fingerprint_us", us(t));
        let t = Instant::now();
        let image = api::compile_with(tr, copy, op.config, None)?;
        out.push("core.compile_us", us(t));
        api::cache_compile(tr, &mut cache, app.clone(), op.config)?;
        let again = app.clone();
        let t = Instant::now();
        api::cache_compile(tr, &mut cache, again, op.config)?;
        out.push("core.cache_hit_us", us(t));

        let t = Instant::now();
        let mut linked = api::link_only(tr, app.clone(), op.config)?;
        out.push("core.link_only_us", us(t));
        if let Some(rt) = api::build_runtime(tr, op.config) {
            let mut dst = app.clone();
            let t = Instant::now();
            api::link(tr, &mut dst, rt)?;
            out.push("ir.link_us", us(t));
        }
        let t = Instant::now();
        api::verify_module(tr, &linked)?;
        out.push("ir.verify_us", us(t));
        let t = Instant::now();
        let text = api::print_module(tr, &linked);
        print_us += us(t);
        printed += text.len();
        let t = Instant::now();
        let parsed = api::parse_module_strict(tr, &text)?;
        parse_us += us(t);
        if api::live_inst_count(&parsed) != api::live_inst_count(&linked) {
            return Err("ladder: the parsed module lost instructions".to_string());
        }

        let insts_in = api::live_inst_count(&linked);
        let opts = op.config.pass_options();
        let timings = api::optimize_timed(tr, &mut linked, &opts);
        out.push("opt.total_us", timings.total.as_secs_f64() * 1e6);
        for name in PASSES {
            let wall = timings
                .passes
                .iter()
                .find(|p| p.name == *name)
                .map_or(0.0, |p| p.wall.as_secs_f64() * 1e6);
            out.push(pass_metric(name), wall);
        }
        let (hits, misses) = (timings.cache.total_hits(), timings.cache.total_misses());
        out.push(
            "opt.cache_hit_share",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        );
        out.push("opt.insts_in", insts_in as f64);
        out.push("opt.insts_out", api::live_inst_count(&linked) as f64);
        out.push(
            "opt.barriers_removed",
            -timings.passes.iter().map(|p| p.barriers_delta).sum::<i64>() as f64,
        );
        images.push(image.module);
    }
    out.push("ir.print_mb_per_s", printed as f64 / print_us);
    out.push("ir.parse_mb_per_s", printed as f64 / parse_us);
    out.push("ir.printed_bytes", printed as f64 / ops.len() as f64);
    for (cfg, name) in [
        (BuildConfig::NewRtNoAssumptions, "rt.build_modern_us"),
        (BuildConfig::OldRtNightly, "rt.build_legacy_us"),
    ] {
        let t = Instant::now();
        api::build_runtime(tr, cfg);
        out.push(name, us(t));
    }
    Ok(images)
}

/// The optimizer's passes, by the names `PassTimings` reports.
pub const PASSES: &[&str] = &[
    "internalize",
    "spmdize",
    "global-dce",
    "inline",
    "simplify",
    "globalize-elim",
    "fold",
    "barrier-elim",
    "drop-assumes",
    "prune-globals",
];

fn pass_metric(pass: &str) -> &'static str {
    crate::table::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| {
            n.strip_prefix("opt.pass.")
                .and_then(|r| r.strip_suffix("_us"))
                == Some(pass)
        })
        .unwrap_or("opt.pass.unknown_us")
}

/// One pass down the ladder over `ops`.
pub fn pass(tr: &mut Tracer, ops: &[OpSpec], seed: u64, out: &mut Samples) -> Result<(), String> {
    tr.begin("ladder");
    tr.begin("rung.core");
    let images = core_pieces(tr, ops, out)?;
    tr.end();
    tr.begin("rung.serve");
    serve_rung(tr, ops, seed, out)?;
    tr.end();
    tr.begin("rung.host");
    host_rung(tr, ops, out)?;
    tr.end();
    tr.begin("rung.device");
    let bc = device_rung(tr, ops, &images, ExecTier::Bytecode, 1, Some(out))?;
    tr.end();
    tr.begin("rung.device.interp");
    let interp = device_rung(tr, ops, &images, ExecTier::Interp, 1, None)?;
    tr.end();
    tr.begin("rung.device.w2");
    let (cpu0, t) = (stats::cpu_seconds(), Instant::now());
    let w2 = device_rung(tr, ops, &images, ExecTier::Bytecode, 2, None)?;
    let (cpu, wall) = (stats::cpu_seconds() - cpu0, t.elapsed().as_secs_f64());
    tr.end();
    tr.end();

    let n = ops.len() as f64;
    out.push("vgpu.rung_us", bc.total_us / n);
    out.push("vgpu.launch_us", bc.launch_us / n);
    out.push("vgpu.bytecode_minst_per_s", bc.insts as f64 / bc.launch_us);
    out.push(
        "vgpu.interp_minst_per_s",
        interp.insts as f64 / interp.launch_us,
    );
    out.push(
        "vgpu.ns_per_dispatch",
        bc.launch_us * 1e3 / bc.dispatched as f64,
    );
    out.push("vgpu.par_w2_speedup", bc.launch_us / w2.launch_us);
    // CPU time ticks in hundredths of a second; the runner divides the
    // sums over all passes.
    out.push("vgpu.par_cpu_s", cpu);
    out.push("vgpu.par_wall_s", wall);
    out.push("vgpu.dispatched", bc.dispatched as f64);
    out.push("vgpu.runtime_calls", bc.runtime_calls as f64);
    out.push("vgpu.barriers", bc.barriers as f64);
    out.push("vgpu.global_accesses", bc.global_accesses as f64);
    Ok(())
}

/// A rung minus the rung below, and whether the subtraction resolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelfTime {
    pub us: f64,
    pub unresolved: bool,
}

pub fn self_time(rung_us: f64, below_us: f64) -> SelfTime {
    let us = rung_us - below_us;
    SelfTime {
        us,
        unresolved: us < 0.0,
    }
}

/// The fixed kernel probes: the five proxies at `small()` size and the
/// two loop kernels, bytecode tier, one worker, median of three launches.
/// The same kernels on every workload, so simulator speed per kernel
/// shape can be followed from any traced run.
pub fn kernel_probes(tr: &mut Tracer, seed: u64, out: &mut Samples) -> Result<(), String> {
    let mut ops: Vec<OpSpec> = api::proxies(false, seed)
        .iter()
        .enumerate()
        .map(|(k, p)| gen::proxy_op(tr, k, p, BuildConfig::NewRtNoAssumptions, None))
        .collect();
    ops.push(gen::loop_op(5, false, 16, 32, 600, seed as i64));
    ops.push(gen::loop_op(6, true, 16, 32, 400, seed as i64));
    let tiny = gen::scale_op(
        7,
        &std::rc::Rc::new(api::scale_module(2.0)),
        2.0,
        &mut Rng::new(seed),
    );
    ops.push(tiny);
    for (op, metric) in ops.iter().zip(PROBE_METRICS) {
        let image = gen::compile_op(tr, op)?;
        let (_, mut dev, placed) = gen::run_on_fresh_device(tr, image.module, op, 1)?;
        let reps = if *metric == "vgpu.launch_fixed_us" {
            200
        } else {
            3
        };
        let mut times = Vec::new();
        let mut insts = 0;
        for _ in 0..reps {
            let t = Instant::now();
            insts =
                api::device_launch(tr, &mut dev, op.kernel, op.launch, &placed.args)?.instructions;
            times.push(us(t));
        }
        let med = stats::median(&times);
        out.push(
            metric,
            if *metric == "vgpu.launch_fixed_us" {
                med
            } else {
                insts as f64 / med
            },
        );
    }
    Ok(())
}

const PROBE_METRICS: &[&str] = &[
    "vgpu.kernel.xsbench_minst_per_s",
    "vgpu.kernel.rsbench_minst_per_s",
    "vgpu.kernel.testsnap_minst_per_s",
    "vgpu.kernel.minifmm_minst_per_s",
    "vgpu.kernel.gridmini_minst_per_s",
    "vgpu.kernel.alu_minst_per_s",
    "vgpu.kernel.branchy_minst_per_s",
    "vgpu.launch_fixed_us",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_subtraction_is_never_clamped() {
        assert_eq!(
            self_time(50.0, 30.0),
            SelfTime {
                us: 20.0,
                unresolved: false
            }
        );
        // A rung that measured faster than the rung below it is reported
        // as it is, and flagged.
        assert_eq!(
            self_time(30.0, 50.0),
            SelfTime {
                us: -20.0,
                unresolved: true
            }
        );
        // Self times telescope to the top rung whatever their signs.
        let (serve, host, device) = (48.0, 51.0, 20.0);
        let sum = self_time(serve, host).us + self_time(host, device).us + device;
        assert_eq!(sum, serve);
    }

    #[test]
    fn every_pass_has_a_metric_row() {
        for p in PASSES {
            assert_ne!(
                pass_metric(p),
                "opt.pass.unknown_us",
                "pass {p} has no per-layer metric"
            );
        }
        for m in PROBE_METRICS {
            assert!(
                crate::table::PER_LAYER.iter().any(|r| r.name == *m),
                "{m} has no per-layer row"
            );
        }
    }

    #[test]
    fn sample_skips_ops_the_upper_rungs_cannot_drive() {
        let m = std::rc::Rc::new(api::Module::new("t"));
        let mut pool: Vec<OpSpec> = (0..20)
            .map(|_| gen::scale_op(0, &m, 2.0, &mut Rng::new(1)))
            .collect();
        pool.push(gen::div_op(1, &m));
        let s = sample(&pool, 7);
        assert_eq!(s.len(), SAMPLE);
        assert!(s.iter().all(|o| !o.traps()));
        let kinds = |v: &[OpSpec]| v.iter().map(|o| o.args.len()).collect::<Vec<_>>();
        assert_eq!(
            kinds(&sample(&pool, 7)),
            kinds(&s),
            "the sample is a function of the seed"
        );
    }
}
