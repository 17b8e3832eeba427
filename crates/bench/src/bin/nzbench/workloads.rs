//! The seven workloads. Each is built from the seed once (`setup`), then
//! driven through its layer in rounds of fixed, identical work; a round
//! returns host times, modeled figures and the verdict of its oracles.
//! In wall time every workload is a closed loop with one caller; the
//! serve arrivals are an open loop in *modeled* time (latency counts from
//! the scheduled `at`, and the generator cannot run late because time is
//! modeled).

use std::time::Instant;

use crate::api::{self, BuildConfig, Device, KernelMetrics, Outcome, RejectReason};
use crate::gen::{self, OpSpec, Placed, Reference, PROXY_NAMES};
use crate::span::Tracer;
use crate::stats::Rng;

/// Sizes of one round: those ISSUE 11 names. A round takes 0.3 s
/// (`exec_*`) to 1.7 s (`serve_hot`) at the seed commit, so a 10-second
/// run holds 6 to 30 of them.
pub mod size {
    pub const HOT_REQUESTS: usize = 40_000;
    pub const HOT_TENANTS: u32 = 8;
    pub const HOT_INPUTS: usize = 8;
    pub const COLD_MODULES: usize = 1_500;
    /// The second use of a module trails its first by this many modules.
    pub const COLD_REUSE_DISTANCE: usize = 50;
    pub const HEAVY_REQUESTS: usize = 600;
    pub const SERVE_DEVICES: usize = 4;
    pub const LOOP_TEAMS: u32 = 64;
    pub const LOOP_THREADS: u32 = 32;
    pub const ALU_ITERS: i64 = 600;
    pub const BRANCHY_ITERS: i64 = 400;
    pub const COMPILE_SWEEPS: usize = 20;
    pub const CHAOS_REGIONS_PER_PROXY: usize = 60;
    /// One region in this many has a device fault armed before it.
    pub const CHAOS_FAULT_EVERY: usize = 6;
}

/// One distinct kernel of a workload and its clean reference run.
pub struct Kind {
    pub name: String,
    pub reference: Reference,
}

impl Kind {
    fn metrics(&self) -> Option<&KernelMetrics> {
        self.reference.metrics.as_ref()
    }
}

#[derive(Default)]
pub struct Round {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Operations that count towards `ops_per_s`.
    pub ops: u64,
    /// Host microseconds the caller was blocked in each operation.
    pub op_us: Vec<f64>,
    /// Simulated instructions, and the host seconds spent simulating them.
    pub sim_insts: u64,
    pub sim_wall_s: f64,
    /// Modeled latency of every completed operation.
    pub lat_cycles: Vec<u64>,
    /// Kernel cycles summed over completed launches, and their count.
    pub cycles: u64,
    pub launches: u64,
    /// Modeled time from first arrival to last completion.
    pub makespan: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Exact per-layer counts this round observed.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer host times this round observed, in the metric's unit.
    pub times: Vec<(&'static str, f64)>,
}

impl Round {
    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Everything that must be identical in every round of a run and in
    /// every run of a seed.
    pub fn exact(&self) -> (Vec<u64>, [u64; 6], Vec<(&'static str, f64)>) {
        let mut lat = self.lat_cycles.clone();
        lat.sort_unstable();
        (
            lat,
            [
                self.ops,
                self.sim_insts,
                self.cycles,
                self.launches,
                self.makespan,
                self.failed,
            ],
            self.counts.clone(),
        )
    }
}

pub trait Workload {
    fn round(&mut self, tr: &mut Tracer) -> Result<Round, String>;
    /// The distinct operations of the workload, for the ladder.
    fn pool(&self) -> &[OpSpec];
    fn kinds(&self) -> &[Kind];
}

pub fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    tr.begin("setup");
    let w: Result<Box<dyn Workload>, String> = match name {
        "serve_hot" => ServeWl::hot(seed, tr).map(|w| Box::new(w) as _),
        "serve_cold" => ServeWl::cold(seed, tr).map(|w| Box::new(w) as _),
        "serve_heavy" => ServeWl::heavy(seed, tr).map(|w| Box::new(w) as _),
        "exec_seq" => ExecWl::new(seed, 1, tr).map(|w| Box::new(w) as _),
        "exec_par" => ExecWl::new(seed, 2, tr).map(|w| Box::new(w) as _),
        "compile" => CompileWl::new(seed, tr).map(|w| Box::new(w) as _),
        "offload_chaos" => ChaosWl::new(seed, tr).map(|w| Box::new(w) as _),
        other => Err(format!("unknown workload {other:?}")),
    };
    tr.end();
    w
}

fn kinds_of(tr: &mut Tracer, names: &[&str], ops: &[&OpSpec]) -> Result<Vec<Kind>, String> {
    names
        .iter()
        .zip(ops)
        .map(|(n, op)| {
            Ok(Kind {
                name: n.to_string(),
                reference: gen::reference(tr, op)?,
            })
        })
        .collect()
}

// ---- serve_hot, serve_cold, serve_heavy -------------------------------------

struct Req {
    at: u64,
    tenant: u32,
    op: usize,
}

/// Open-loop arrival times with the given mean gap. The gaps are a fixed
/// multiset (0 to twice the mean) in seeded order, so every seed offers
/// exactly the same load over exactly the same modeled span.
fn arrivals(rng: &mut Rng, n: usize, mean_gap: u64) -> Vec<u64> {
    let mut gaps: Vec<u64> = (0..n as u64).map(|i| (i % 41) * mean_gap / 20).collect();
    rng.shuffle(&mut gaps);
    let mut at = 0;
    gaps.into_iter()
        .map(|g| {
            at += g;
            at
        })
        .collect()
}

struct ServeWl {
    cfg: api::ServeConfig,
    tenants: Vec<api::TenantConfig>,
    reqs: Vec<Req>,
    pool: Vec<OpSpec>,
    kinds: Vec<Kind>,
}

impl ServeWl {
    /// The `serve_load` stream: tiny kernels, saturating arrivals, one
    /// quota-starved tenant, a tenth of the requests dividing by zero.
    fn hot(seed: u64, tr: &mut Tracer) -> Result<ServeWl, String> {
        let mut rng = Rng::new(seed);
        let scale = std::rc::Rc::new(api::scale_module(2.0));
        let div = std::rc::Rc::new(api::div_module());
        let mut pool: Vec<OpSpec> = (0..size::HOT_INPUTS)
            .map(|_| gen::scale_op(0, &scale, 2.0, &mut rng))
            .collect();
        pool.push(gen::div_op(1, &div));
        let kinds = kinds_of(tr, &["scale", "div"], &[&pool[0], &pool[size::HOT_INPUTS]])?;

        // The mix is exact (one request in ten divides by zero); the seed
        // draws its order, the tenants and the arrival times.
        let mut ops: Vec<usize> = (0..size::HOT_REQUESTS)
            .map(|i| {
                if i % 10 == 0 {
                    size::HOT_INPUTS
                } else {
                    rng.below(size::HOT_INPUTS as u64) as usize
                }
            })
            .collect();
        rng.shuffle(&mut ops);
        let reqs = arrivals(&mut rng, ops.len(), 20)
            .into_iter()
            .zip(ops)
            .map(|(at, op)| Req {
                at,
                tenant: rng.below(size::HOT_TENANTS as u64) as u32,
                op,
            })
            .collect();
        let footprint = pool[0].mapped_bytes();
        let tenants = (0..size::HOT_TENANTS)
            .map(|i| api::tenant_config((i == size::HOT_TENANTS - 1).then_some(footprint)))
            .collect();
        let cfg = api::serve_config(size::SERVE_DEVICES, size::SERVE_DEVICES * 8, seed, 1);
        Ok(ServeWl {
            cfg,
            tenants,
            reqs,
            pool,
            kinds,
        })
    }

    /// The same service with distinct modules: every module is compiled
    /// once (a miss, an insert) and reused once, `COLD_REUSE_DISTANCE`
    /// modules later (a hit). Arrivals leave the fleet half idle so no
    /// request is refused and every module really is compiled.
    fn cold(seed: u64, tr: &mut Tracer) -> Result<ServeWl, String> {
        let mut rng = Rng::new(seed);
        let base = rng.below(1 << 20) as f64;
        let pool: Vec<OpSpec> = (0..size::COLD_MODULES)
            .map(|k| {
                // Exactly representable, so the closed form is bit exact.
                let factor = 2.0 + (base + k as f64) / (1u64 << 30) as f64;
                gen::scale_op(
                    0,
                    &std::rc::Rc::new(api::scale_module(factor)),
                    factor,
                    &mut rng,
                )
            })
            .collect();
        let kinds = kinds_of(tr, &["scale_variant"], &[&pool[0]])?;
        let mut order: Vec<usize> = (0..size::COLD_MODULES).collect();
        rng.shuffle(&mut order);
        let d = size::COLD_REUSE_DISTANCE;
        let mut ops = Vec::with_capacity(2 * order.len());
        for i in 0..order.len() + d {
            if i < order.len() {
                ops.push(order[i]);
            }
            if i >= d {
                ops.push(order[i - d]);
            }
        }
        let reqs = arrivals(&mut rng, ops.len(), 400)
            .into_iter()
            .zip(ops)
            .map(|(at, op)| Req {
                at,
                tenant: rng.below(4) as u32,
                op,
            })
            .collect();
        let cfg = api::serve_config(size::SERVE_DEVICES, size::SERVE_DEVICES * 8, seed, 1);
        Ok(ServeWl {
            cfg,
            tenants: vec![api::tenant_config(None); 4],
            reqs,
            pool,
            kinds,
        })
    }

    /// Five tenants, each submitting one proxy application: kernels of
    /// milliseconds and buffers of kilobytes, so execution and memcpy
    /// dominate and the request path does not.
    fn heavy(seed: u64, tr: &mut Tracer) -> Result<ServeWl, String> {
        let mut rng = Rng::new(seed);
        let proxies = api::proxies(false, seed);
        let pool: Vec<OpSpec> = proxies
            .iter()
            .enumerate()
            .map(|(k, p)| gen::proxy_op(tr, k, p, BuildConfig::NewRtNoAssumptions, None))
            .collect();
        let kinds = kinds_of(tr, &PROXY_NAMES, &pool.iter().collect::<Vec<_>>())?;
        let mean_cycles = kinds
            .iter()
            .filter_map(Kind::metrics)
            .map(|m| m.cycles)
            .sum::<u64>()
            / kinds.len() as u64;
        // Four devices at a quarter of their modeled capacity: queueing is
        // not what this workload is about, and a nearly idle fleet keeps
        // the modeled latencies the kernels' own across seeds.
        let gap = mean_cycles * 4 / size::SERVE_DEVICES as u64;
        let mut ops: Vec<usize> = (0..size::HEAVY_REQUESTS).map(|i| i % pool.len()).collect();
        rng.shuffle(&mut ops);
        let reqs = arrivals(&mut rng, ops.len(), gap)
            .into_iter()
            .zip(ops)
            .map(|(at, op)| Req {
                at,
                tenant: op as u32,
                op,
            })
            .collect();
        let cfg = api::serve_config(size::SERVE_DEVICES, size::SERVE_DEVICES * 8, seed, 1);
        Ok(ServeWl {
            cfg,
            tenants: vec![api::tenant_config(None); pool.len()],
            reqs,
            pool,
            kinds,
        })
    }
}

impl Workload for ServeWl {
    fn round(&mut self, tr: &mut Tracer) -> Result<Round, String> {
        // Building the specs is the load generator's work, not the service's.
        let specs: Vec<api::RequestSpec> = self
            .reqs
            .iter()
            .map(|r| self.pool[r.op].request())
            .collect();
        let mut r = Round {
            attempted: self.reqs.len() as u64,
            ..Round::default()
        };
        r.op_us.reserve(specs.len());

        tr.begin("round");
        let mut s = api::serve_new(tr, &self.cfg);
        let tenants: Vec<api::TenantId> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, c)| api::serve_add_tenant(tr, &mut s, &format!("t{i}"), *c))
            .collect();
        let t0 = Instant::now();
        for (i, (req, spec)) in self.reqs.iter().zip(specs).enumerate() {
            tr.set_req(i as u64);
            let t = Instant::now();
            api::serve_submit_at(tr, &mut s, req.at, tenants[req.tenant as usize], spec)?;
            r.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t_drain = Instant::now();
        api::serve_drain(tr, &mut s);
        r.wall_s = t0.elapsed().as_secs_f64();
        r.times
            .push(("serve.drain_ms", t_drain.elapsed().as_secs_f64() * 1e3));
        tr.end();
        r.sim_wall_s = r.wall_s;

        let (mut completed, mut faulted, mut refused) = (0u64, 0u64, 0u64);
        for (i, (req, outcome)) in self.reqs.iter().zip(api::serve_outcomes(&s)).enumerate() {
            let op = &self.pool[req.op];
            let kind = &self.kinds[op.kind];
            match outcome {
                Some(Outcome::Completed {
                    finished,
                    cycles,
                    outputs,
                    ..
                }) => {
                    completed += 1;
                    r.lat_cycles.push(finished.saturating_sub(req.at));
                    r.cycles += cycles;
                    r.launches += 1;
                    r.sim_insts += kind.metrics().map_or(0, |m| m.instructions);
                    let out = outputs
                        .iter()
                        .find(|(a, _)| Some(*a) == op.out_arg())
                        .map(|(_, b)| b.as_slice());
                    if !out.is_some_and(|b| op.output_ok(b)) {
                        r.fail(|| format!("request {i}: output contradicts the closed form"));
                    } else if kind.metrics().map(|m| m.cycles) != Some(*cycles) {
                        r.fail(|| {
                            format!(
                                "request {i}: {cycles} cycles, a bare device takes {:?}",
                                kind.metrics().map(|m| m.cycles)
                            )
                        });
                    }
                }
                Some(Outcome::Faulted { error, .. }) => {
                    faulted += 1;
                    if !op.trap_ok(error) {
                        r.fail(|| format!("request {i} faulted: {error}"));
                    }
                }
                // Typed refusals are the service working as designed.
                Some(Outcome::Rejected { reason, .. }) => {
                    refused += 1;
                    if matches!(reason, RejectReason::TenantBacklog { .. }) {
                        r.fail(|| format!("request {i}: backlog refusal with unbounded backlogs"));
                    }
                }
                None => r.fail(|| format!("request {i} has no outcome after drain")),
            }
        }
        r.ops = completed + faulted;
        let m = api::serve_metrics(&s);
        r.makespan = m.makespan_cycles;
        if (m.completed, m.faulted, m.rejected()) != (completed, faulted, refused) {
            r.fail(|| "service counters disagree with the outcomes".to_string());
        }
        let h = api::serve_host_stats(&s);
        r.counts = vec![
            ("serve.admitted", m.admitted as f64),
            ("serve.completed", completed as f64),
            ("serve.faulted", faulted as f64),
            (
                "serve.refused_share",
                refused as f64 / self.reqs.len() as f64,
            ),
            ("serve.rejected_saturated", m.rejected_saturated as f64),
            ("serve.rejected_quota", m.rejected_quota as f64),
            ("serve.evictions", m.evictions as f64),
            ("serve.migrations", m.migrations as f64),
        ];
        r.counts.extend(host_counts(&h));
        Ok(r)
    }

    fn pool(&self) -> &[OpSpec] {
        &self.pool
    }

    fn kinds(&self) -> &[Kind] {
        &self.kinds
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn host_counts(h: &api::HostStats) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&api::DeviceStats) -> u64| h.devices.iter().map(f).sum::<u64>();
    let (allocs, reuse) = (sum(|d| d.pool_allocs), sum(|d| d.pool_reuse_hits));
    vec![
        ("host.compile_hits", h.compile_hits as f64),
        ("host.compile_misses", h.compile_misses as f64),
        (
            "host.cache_hit_share",
            share(h.compile_hits, h.compile_hits + h.compile_misses),
        ),
        ("host.pool_allocs", allocs as f64),
        ("host.pool_reuse_share", share(reuse, allocs + reuse)),
        ("host.transfers_to", sum(|d| d.transfers_to) as f64),
        ("host.transfers_from", sum(|d| d.transfers_from) as f64),
        ("host.ops_executed", h.ops_executed as f64),
        ("host.retries", h.recovery.retries as f64),
        ("host.failovers", h.recovery.failovers as f64),
        ("host.replayed_ops", h.recovery.replayed_ops as f64),
        (
            "host.replayed_ops_per_failover",
            share(h.recovery.replayed_ops, h.recovery.failovers),
        ),
    ]
}

// ---- exec_seq, exec_par -------------------------------------------------------

struct ExecWl {
    pool: Vec<OpSpec>,
    kinds: Vec<Kind>,
    devs: Vec<(Device, Placed)>,
}

impl ExecWl {
    /// The five proxies at benchmark size plus the two `exec_tier` loop
    /// kernels, each resident on its own device with `workers` host
    /// threads. The reference is always a single-worker run, so
    /// `exec_par` is held bit-identical to `exec_seq`.
    fn new(seed: u64, workers: usize, tr: &mut Tracer) -> Result<ExecWl, String> {
        let mut rng = Rng::new(seed);
        let mut pool: Vec<OpSpec> = api::proxies(true, seed)
            .iter()
            .enumerate()
            .map(|(k, p)| gen::proxy_op(tr, k, p, BuildConfig::NewRtNoAssumptions, None))
            .collect();
        let (teams, threads) = (size::LOOP_TEAMS, size::LOOP_THREADS);
        pool.push(gen::loop_op(
            5,
            false,
            teams,
            threads,
            size::ALU_ITERS,
            rng.next() as i64,
        ));
        pool.push(gen::loop_op(
            6,
            true,
            teams,
            threads,
            size::BRANCHY_ITERS,
            rng.next() as i64,
        ));
        let mut kinds = Vec::new();
        let mut devs = Vec::new();
        for (op, name) in pool
            .iter()
            .zip(PROXY_NAMES.iter().chain(&["alu", "branchy"]))
        {
            let image = gen::compile_op(tr, op)?;
            let (reference, dev, placed) = if workers == 1 {
                gen::run_on_fresh_device(tr, image.module, op, 1)?
            } else {
                let (reference, _, _) = gen::run_on_fresh_device(tr, image.module.clone(), op, 1)?;
                let (_, dev, placed) = gen::run_on_fresh_device(tr, image.module, op, workers)?;
                (reference, dev, placed)
            };
            kinds.push(Kind {
                name: name.to_string(),
                reference,
            });
            devs.push((dev, placed));
        }
        Ok(ExecWl { pool, kinds, devs })
    }
}

impl Workload for ExecWl {
    fn round(&mut self, tr: &mut Tracer) -> Result<Round, String> {
        let mut r = Round {
            attempted: self.pool.len() as u64,
            ..Round::default()
        };
        tr.begin("round");
        let mut launched = Vec::with_capacity(self.pool.len());
        let t0 = Instant::now();
        for (i, (op, (dev, placed))) in self.pool.iter().zip(self.devs.iter_mut()).enumerate() {
            tr.set_req(i as u64);
            let t = Instant::now();
            let m = api::device_launch(tr, dev, op.kernel, op.launch, &placed.args)?;
            r.op_us.push(t.elapsed().as_secs_f64() * 1e6);
            launched.push(m);
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        tr.end();
        r.sim_wall_s = r.wall_s;
        r.ops = launched.len() as u64;

        for (i, m) in launched.into_iter().enumerate() {
            let (op, kind, (dev, placed)) = (&self.pool[i], &self.kinds[i], &mut self.devs[i]);
            r.sim_insts += m.instructions;
            r.cycles += m.cycles;
            r.launches += 1;
            r.lat_cycles.push(m.cycles);
            let Some((p, len)) = placed.out else { continue };
            let out = api::device_read_bytes(tr, dev, p, len)?;
            if !op.output_ok(&out) {
                r.fail(|| format!("{}: output contradicts the host reference", kind.name));
            } else if out != kind.reference.out
                || Some(&m) != kind.metrics()
                || api::device_global_bytes(dev) != kind.reference.global.as_slice()
            {
                r.fail(|| format!("{}: not bit-identical to the single-worker run", kind.name));
            }
        }
        r.makespan = r.cycles;
        Ok(r)
    }

    fn pool(&self) -> &[OpSpec] {
        &self.pool
    }

    fn kinds(&self) -> &[Kind] {
        &self.kinds
    }
}

// ---- compile ----------------------------------------------------------------

struct CompileWl {
    /// One op (and one kind) per cell of the matrix.
    pool: Vec<OpSpec>,
    kinds: Vec<Kind>,
}

impl CompileWl {
    /// Five proxies × (the five build configurations + the six Fig. 13
    /// ablations of the full pipeline), without the paper's n/a cells.
    fn new(seed: u64, tr: &mut Tracer) -> Result<CompileWl, String> {
        let proxies = api::proxies(false, seed);
        let mut pool = Vec::new();
        let mut names = Vec::new();
        for (pi, p) in proxies.iter().enumerate() {
            let configs = BuildConfig::ALL
                .iter()
                .map(|c| (*c, None, c.label().to_string()));
            let ablations = api::Ablation::ALL.iter().map(|a| {
                (
                    BuildConfig::NewRtNoAssumptions,
                    Some(api::PassOptions::full_without(*a)),
                    format!("{a:?}"),
                )
            });
            for (cfg, opts, label) in configs.chain(ablations) {
                if cfg == BuildConfig::NewRt && !p.supports_oversubscription() {
                    continue;
                }
                pool.push(gen::proxy_op(tr, pool.len(), p, cfg, opts));
                names.push(format!("{}/{label}", PROXY_NAMES[pi]));
            }
        }
        let kinds = names
            .into_iter()
            .zip(&pool)
            .map(|(name, op)| {
                Ok(Kind {
                    name,
                    reference: gen::reference(tr, op)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(CompileWl { pool, kinds })
    }
}

impl Workload for CompileWl {
    fn round(&mut self, tr: &mut Tracer) -> Result<Round, String> {
        let cells = self.pool.len();
        let mut r = Round {
            attempted: (cells * size::COMPILE_SWEEPS) as u64,
            ..Round::default()
        };
        let mut first = Vec::with_capacity(cells);
        let mut last = Vec::with_capacity(cells);
        tr.begin("round");
        let t0 = Instant::now();
        for sweep in 0..size::COMPILE_SWEEPS {
            last.clear();
            for (i, op) in self.pool.iter().enumerate() {
                tr.set_req((sweep * cells + i) as u64);
                let t = Instant::now();
                let app = op.front_build(tr);
                let image = api::compile_with(tr, app, op.config, op.opts.clone())?;
                r.op_us.push(t.elapsed().as_secs_f64() * 1e6);
                if sweep == 0 {
                    first.push(image);
                } else {
                    last.push(image);
                }
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        tr.end();
        r.ops = r.attempted;

        // Every image of the last sweep is verified, printed (compiling
        // twice must print identically) and executed against the host
        // reference; the second launch on the device is the timed one.
        let off = &mut Tracer::off();
        for (i, (image, first)) in last.into_iter().zip(first).enumerate() {
            let (op, kind) = (&self.pool[i], &self.kinds[i]);
            if let Err(e) = api::verify_module(off, &image.module) {
                r.fail(|| format!("{}: image does not verify: {e}", kind.name));
                continue;
            }
            if api::print_module(off, &image.module) != api::print_module(off, &first.module) {
                r.fail(|| format!("{}: compiling twice prints differently", kind.name));
            }
            let (_, mut dev, placed) = gen::run_on_fresh_device(off, image.module, op, 1)?;
            let t = Instant::now();
            let m = api::device_launch(tr, &mut dev, op.kernel, op.launch, &placed.args)?;
            r.sim_wall_s += t.elapsed().as_secs_f64();
            r.sim_insts += m.instructions;
            r.cycles += m.cycles;
            r.launches += 1;
            r.lat_cycles.push(m.cycles);
            if Some(&m) != kind.metrics() {
                r.fail(|| format!("{}: metrics differ from the reference run", kind.name));
            }
        }
        r.makespan = r.cycles;
        Ok(r)
    }

    fn pool(&self) -> &[OpSpec] {
        &self.pool
    }

    fn kinds(&self) -> &[Kind] {
        &self.kinds
    }
}

// ---- offload_chaos ------------------------------------------------------------

struct ChaosWl {
    seed: u64,
    pool: Vec<OpSpec>,
    kinds: Vec<Kind>,
    /// The campaign armed on the device of region `i`, if any.
    faults: Vec<Option<api::FaultPlan>>,
}

impl ChaosWl {
    /// A 2-device host with recovery armed runs the five proxies in
    /// blocks, so each device's journal grows with the block. Faults are
    /// armed at fixed regions and rotate through the three kinds, so
    /// every seed pays for the same number of retries and failovers; the
    /// seed draws the campaign: where in the region it strikes, and
    /// whether a second site follows.
    fn new(seed: u64, tr: &mut Tracer) -> Result<ChaosWl, String> {
        let mut rng = Rng::new(seed);
        let pool: Vec<OpSpec> = api::proxies(false, seed)
            .iter()
            .enumerate()
            .map(|(k, p)| gen::proxy_op(tr, k, p, BuildConfig::NewRtNoAssumptions, None))
            .collect();
        let kinds = kinds_of(tr, &PROXY_NAMES, &pool.iter().collect::<Vec<_>>())?;
        let regions = pool.len() * size::CHAOS_REGIONS_PER_PROXY;
        let rotation = [
            api::DeviceFaultKind::Lost,
            api::DeviceFaultKind::StallLaunch,
            api::DeviceFaultKind::MemcpyFail,
        ];
        let mut armed = 0;
        let faults = (0..regions)
            .map(|i| {
                if i % size::CHAOS_FAULT_EVERY != size::CHAOS_FAULT_EVERY - 1 {
                    return None;
                }
                let want = rotation[armed % rotation.len()];
                armed += 1;
                // Draw campaigns until one is a single site of the kind
                // whose turn it is, placed where this region's stream
                // operations (copies in, launch, copy out) reach it.
                let copies_in = pool[i / size::CHAOS_REGIONS_PER_PROXY]
                    .args
                    .iter()
                    .filter(|a| matches!(a, gen::Arg::To(_)))
                    .count() as u64;
                let plan = loop {
                    let (plan, sites) = api::device_campaign(rng.next());
                    match sites.as_slice() {
                        [(kind, at)]
                            if *kind == want
                                && (want != api::DeviceFaultKind::StallLaunch
                                    || *at <= copies_in) =>
                        {
                            break plan
                        }
                        _ => {}
                    }
                };
                Some(plan)
            })
            .collect();
        Ok(ChaosWl {
            seed,
            pool,
            kinds,
            faults,
        })
    }
}

impl Workload for ChaosWl {
    fn round(&mut self, tr: &mut Tracer) -> Result<Round, String> {
        let per = size::CHAOS_REGIONS_PER_PROXY;
        let mut r = Round {
            attempted: (self.pool.len() * per) as u64,
            ..Round::default()
        };
        tr.begin("round");
        let mut h = api::host_new(
            tr,
            2,
            api::SchedPolicy::RoundRobin,
            1,
            Some(api::recovery_policy(self.seed)),
        );
        let stream = api::host_stream(&mut h);
        let mut images = Vec::new();
        for op in &self.pool {
            images.push(api::host_load_image(
                tr,
                &mut h,
                (*op.module).clone(),
                op.config,
            )?);
        }
        let mut faulted_ms = Vec::new();
        let t0 = Instant::now();
        for (k, op) in self.pool.iter().enumerate() {
            let kind = &self.kinds[k];
            for dev in 0..2 {
                api::host_bind_image(tr, &mut h, dev, images[k])?;
            }
            for j in 0..per {
                let i = k * per + j;
                tr.set_req(i as u64);
                let args = op.region_args();
                let t = Instant::now();
                tr.begin("region");
                let region = api::host_enqueue_region(
                    tr, &mut h, stream, images[k], op.kernel, op.launch, args,
                )?;
                // Armed between enqueue and sync, disarmed after: the op
                // clock then runs over the stream operations of this one
                // region, all of which the recovery layer covers. (The
                // zero-fill of a reused pool block inside `data_enter`
                // is a bare device write; a fault striking it surfaces
                // unrecovered — see README, "Found while building".)
                let armed = self.faults[i].clone();
                if let Some(plan) = &armed {
                    api::host_set_device_faults(&mut h, region.device, plan.clone())?;
                }
                api::host_sync(tr, &mut h)?;
                if armed.is_some() {
                    api::host_set_device_faults(&mut h, region.device, api::no_faults())?;
                }
                let armed = armed.is_some();
                let m = api::host_take_metrics(tr, &h, region.ticket)?;
                let out = op
                    .out_arg()
                    .and_then(|a| region.bufs.get(a).copied().flatten());
                let out = match out {
                    Some(b) => api::host_buf_bytes(tr, &h, b)?.to_vec(),
                    None => Vec::new(),
                };
                tr.end();
                let us = t.elapsed().as_secs_f64() * 1e6;
                r.op_us.push(us);
                if armed {
                    faulted_ms.push(us / 1e3);
                }
                r.sim_insts += m.instructions;
                r.cycles += m.cycles;
                r.launches += 1;
                r.lat_cycles.push(m.cycles);
                if !op.output_ok(&out) {
                    r.fail(|| {
                        format!(
                            "region {i} ({}): output contradicts the host reference",
                            kind.name
                        )
                    });
                } else if out != kind.reference.out || Some(&m) != kind.metrics() {
                    r.fail(|| {
                        format!(
                            "region {i} ({}): recovered run differs from the clean run",
                            kind.name
                        )
                    });
                }
            }
        }
        r.wall_s = t0.elapsed().as_secs_f64();
        tr.end();
        r.sim_wall_s = r.wall_s;
        r.ops = r.attempted;
        let stats = api::host_stats(&h);
        r.makespan = stats
            .devices
            .iter()
            .map(|d| d.executed_cycles)
            .max()
            .unwrap_or(0);
        r.counts = host_counts(&stats);
        r.times.push((
            "host.faulted_sync_p50_ms",
            crate::stats::median(&faulted_ms),
        ));
        Ok(r)
    }

    fn pool(&self) -> &[OpSpec] {
        &self.pool
    }

    fn kinds(&self) -> &[Kind] {
        &self.kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_offer_the_same_load_over_the_same_span_for_every_seed() {
        let a = arrivals(&mut Rng::new(1), 1000, 20);
        let b = arrivals(&mut Rng::new(2), 1000, 20);
        assert_ne!(a, b, "the order is drawn from the seed");
        assert_eq!(a.last(), b.last(), "the span is not");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean = *a.last().expect("non-empty") as f64 / a.len() as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean gap {mean}");
    }

    /// The two cheapest workloads end to end: oracles hold, rounds repeat
    /// exactly, and the same seed rebuilds the same workload.
    #[test]
    fn rounds_are_correct_and_repeat_exactly() {
        for name in ["serve_cold", "offload_chaos"] {
            let off = &mut Tracer::off();
            let mut w = setup(name, 3, off).expect("set-up");
            let first = w.round(off).expect("round");
            assert_eq!(first.failed, 0, "{name}: {:?}", first.first_failure);
            assert!(first.ops > 0 && first.attempted >= first.ops);
            assert!(
                first.exact() == w.round(off).expect("round").exact(),
                "{name}: rounds differ"
            );
            let mut again = setup(name, 3, off).expect("set-up");
            assert!(
                first.exact() == again.round(off).expect("round").exact(),
                "{name}: seed does not fix the workload"
            );
        }
    }

    #[test]
    fn chaos_really_exercises_recovery() {
        let off = &mut Tracer::off();
        let r = setup("offload_chaos", 5, off)
            .expect("set-up")
            .round(off)
            .expect("round");
        let count = |n: &str| {
            r.counts
                .iter()
                .find(|(k, _)| *k == n)
                .map_or(0.0, |(_, v)| *v)
        };
        let armed = (5 * size::CHAOS_REGIONS_PER_PROXY / size::CHAOS_FAULT_EVERY) as f64;
        assert_eq!(
            count("host.failovers") + count("host.retries"),
            armed,
            "every armed campaign fires exactly once"
        );
        assert!(count("host.failovers") >= 1.0 && count("host.replayed_ops") > 0.0);
    }
}
