//! The one description of the benchmark: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! generated from these tables (`nzbench list --json`), `nzbench list`
//! prints them, and a run refuses to start when the checked-in file
//! disagrees with them.

use crate::json::Value;
use crate::workloads::size;

/// Seconds one measurement measures: the driver's runs and those of
/// `nzbench run` and `nzbench trace` alike.
pub const RUN_SECONDS: u32 = 10;

/// Measurements of each workload in one `nzbench run`, each in a fresh
/// process (ISSUE 11: nine, not fewer than seven).
pub const RUN_ROUNDS: usize = 7;

/// Where the benchmark lives, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/nzbench";

pub struct WorkloadRow {
    pub name: &'static str,
    pub why: &'static str,
    /// Size of one round, for `list` and the README.
    pub size: fn() -> String,
}

pub const WORKLOADS: [WorkloadRow; 7] = [
    WorkloadRow {
        name: "serve_hot",
        why: "2 modules, tiny kernels, saturating arrivals: the request path (admission, clone, fingerprint, bind, map) does most of the work and every compile is a cache hit",
        size: || format!("{} requests, {} tenants (one quota-starved), {} devices, 16-thread kernels on 128-byte buffers, 1 in 10 divides by zero", size::HOT_REQUESTS, size::HOT_TENANTS, size::SERVE_DEVICES),
    },
    WorkloadRow {
        name: "serve_cold",
        why: "same service, every module distinct and used twice: compile-cache misses and inserts beside hits, so compile, load and lowering dominate",
        size: || format!("{} requests over {} distinct modules, second use {} modules after the first, {} devices", 2 * size::COLD_MODULES, size::COLD_MODULES, size::COLD_REUSE_DISTANCE, size::SERVE_DEVICES),
    },
    WorkloadRow {
        name: "serve_heavy",
        why: "five proxy applications through the service: millisecond kernels and KB buffers, so vgpu execution and memcpy dominate and request-path work predicts no change",
        size: || format!("{} requests, 5 tenants each submitting one proxy at small() size, {} devices, LeastLoaded", size::HEAVY_REQUESTS, size::SERVE_DEVICES),
    },
    WorkloadRow {
        name: "exec_seq",
        why: "direct Device::launch of proxies and loop kernels on one worker: all time is vgpu dispatch, every host-runtime change predicts no change",
        size: || format!("7 launches: 5 proxies at large() size + alu ({} iters) + branchy ({} iters) on {}x{} threads", size::ALU_ITERS, size::BRANCHY_ITERS, size::LOOP_TEAMS, size::LOOP_THREADS),
    },
    WorkloadRow {
        name: "exec_par",
        why: "the same launches on 2 worker threads: the buffered-memory and wave-merge path, held bit-identical to exec_seq; the parallel-speedup gate is read here",
        size: || "the exec_seq launches with set_worker_threads(2)".to_string(),
    },
    WorkloadRow {
        name: "compile",
        why: "front + rt + link/verify + opt over real-program-sized modules, no request path; each image is then executed against the host reference",
        size: || format!("{} sweeps over 5 proxies x (5 build configs + 6 Fig. 13 ablations), n/a cells skipped", size::COMPILE_SWEEPS),
    },
    WorkloadRow {
        name: "offload_chaos",
        why: "the host layer on its failure path: a 2-device host with recovery armed and seeded device faults, so retries, failover and journal replay are paid for",
        size: || format!("{} regions in 5 blocks of one proxy each, a seeded fault armed before every {}th region", 5 * size::CHAOS_REGIONS_PER_PROXY, size::CHAOS_FAULT_EVERY),
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: noisy, compared within a bound.
    Host,
    /// Modeled cycles or counts: a pure function of seed and code.
    Modeled,
}

pub struct MetricRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub clock: Clock,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
    what: &'static str,
) -> MetricRow {
    MetricRow {
        name,
        unit,
        better,
        bound,
        clock,
        what,
    }
}

/// The bound of a metric that is the same for every seed: any worsening
/// is a regression. (Not 0: the contract gives bounds an upper limit only,
/// and a checker that divides by the bound must not trip.)
pub const EXACT: f64 = 1e-9;

/// Every workload reports every one of these, untraced. A modeled metric
/// is a pure function of seed and code, and `nzbench compare` holds it to
/// `==`; its bound here is for the contract's comparison *across* seeds:
/// `EXACT` where ten seeds gave one value, else about three times the
/// spread ten seeds showed (README, "End-to-end metrics").
pub const END_TO_END: [MetricRow; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Clock::Host,
        "build modules, draw inputs and the request stream, compile + load + one reference launch per distinct kernel"),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, Clock::Host,
        "operations per host second: served requests (serve_*), launches (exec_*), modules compiled (compile), recovered regions (offload_chaos)"),
    e2e("sim_minst_per_s", "Minst/s", Better::Higher, 0.25, Clock::Host,
        "simulated instructions per host second of the timed launches"),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Clock::Host,
        "VmHWM of the benchmark process after one set-up and three rounds"),
    e2e("lat_p50_cycles", "cycles", Better::Lower, 0.12, Clock::Modeled,
        "median modeled latency of a completed operation: completion - scheduled arrival (serve_*), kernel cycles (others)"),
    e2e("lat_p99_cycles", "cycles", Better::Lower, 0.25, Clock::Modeled,
        "nearest-rank 99th percentile of the same"),
    e2e("completed_per_mcycle", "1/Mcycle", Better::Higher, 0.02, Clock::Modeled,
        "completed operations per million modeled cycles of makespan"),
    e2e("modeled_cycles_per_op", "cycles", Better::Lower, 0.001, Clock::Modeled,
        "mean kernel cycles per completed launch: the Fig. 10-13 guard"),
    e2e("code_insts_total", "insts", Better::Lower, EXACT, Clock::Modeled,
        "instructions in the optimized images of the workload's distinct kernels"),
    e2e("kernel_regs_total", "regs", Better::Lower, EXACT, Clock::Modeled,
        "registers per thread summed over the workload's distinct kernels (Fig. 11)"),
];

pub struct LayerRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: Better, what: &'static str) -> LayerRow {
    LayerRow {
        name,
        unit,
        better,
        what,
    }
}

const LO: Better = Better::Lower;
const HI: Better = Better::Higher;

/// Every workload reports every one of these, traced. Times come from the
/// ladder over a seeded sample of the workload's own operations; counts
/// come from one traced round of the workload (0 where the workload has
/// no such layer).
pub const PER_LAYER: [LayerRow; 98] = [
    l("serve.submit_p99_us", "us", LO, "99th percentile of one submit_at in the traced round (ladder serve rung where the workload has no service)"),
    l("serve.submit_max_us", "us", LO, "slowest submit_at of the same"),
    l("serve.drain_ms", "ms", LO, "host time of the final drain"),
    l("serve.rung_us_per_req", "us", LO, "ladder: one request through a bare Serve, submit to outcome"),
    l("serve.self_us_per_req", "us", LO, "ladder: serve rung - host rung"),
    l("serve.admitted", "count", HI, "requests admitted in the traced round"),
    l("serve.completed", "count", HI, "requests completed"),
    l("serve.faulted", "count", LO, "requests faulted (all by design: division by zero)"),
    l("serve.refused_share", "share", LO, "typed admission refusals / requests"),
    l("serve.rejected_saturated", "count", LO, "refusals by the global in-flight window"),
    l("serve.rejected_quota", "count", LO, "refusals by a tenant's byte quota"),
    l("serve.evictions", "count", LO, "session buffers written back on rebind"),
    l("serve.migrations", "count", LO, "session buffers moved between devices"),
    l("host.region_us", "us", LO, "ladder: load_image hit + enqueue_region + sync + take_metrics + buf_bytes on a bare Host"),
    l("host.self_us_per_region", "us", LO, "ladder: host rung - device rung"),
    l("host.load_image_hit_us", "us", LO, "ladder: load_image of a module the cache holds"),
    l("host.load_image_miss_us", "us", LO, "ladder: load_image of a module the cache has not seen"),
    l("host.bind_image_us", "us", LO, "ladder: bind_image onto a slot holding another image"),
    l("host.data_enter_us", "us", LO, "ladder: data_enter of the region's maps + the sync that copies"),
    l("host.data_exit_us", "us", LO, "ladder: data_exit + the sync that copies back"),
    l("host.sync_us", "us", LO, "ladder: sync that runs the enqueued launch"),
    l("host.map_mb_per_s", "MB/s", HI, "ladder: mapped bytes / (data_enter_us + data_exit_us)"),
    l("host.compile_hits", "count", HI, "compile-cache hits in the traced round"),
    l("host.compile_misses", "count", LO, "compile-cache misses"),
    l("host.cache_hit_share", "share", HI, "hits / (hits + misses)"),
    l("host.pool_allocs", "count", LO, "fresh device allocations"),
    l("host.pool_reuse_share", "share", HI, "pool blocks served by reuse"),
    l("host.transfers_to", "count", LO, "host-to-device copies"),
    l("host.transfers_from", "count", LO, "device-to-host copies"),
    l("host.ops_executed", "count", LO, "stream operations executed"),
    l("host.retries", "count", LO, "transient retries"),
    l("host.failovers", "count", LO, "replacement devices bound"),
    l("host.replayed_ops", "count", LO, "journal effects re-executed"),
    l("host.replayed_ops_per_failover", "count", LO, "replayed_ops / failovers"),
    l("host.faulted_sync_p50_ms", "ms", LO, "median host time of a region with a fault armed"),
    l("core.module_clone_us", "us", LO, "ladder: Module::clone"),
    l("core.fingerprint_us", "us", LO, "ladder: module_fingerprint"),
    l("core.cache_hit_us", "us", LO, "ladder: CompileCache::compile of a held module"),
    l("core.compile_p50_us", "us", LO, "ladder: compile, median over the sample"),
    l("core.compile_p99_us", "us", LO, "ladder: compile, nearest-rank p99 over the sample"),
    l("core.link_only_us", "us", LO, "ladder: link_only"),
    l("ir.print_mb_per_s", "MB/s", HI, "ladder: print_module over the linked sample modules"),
    l("ir.parse_mb_per_s", "MB/s", HI, "ladder: parse_module_strict over the same text"),
    l("ir.verify_us", "us", LO, "ladder: verify_module of a linked module"),
    l("ir.link_us", "us", LO, "ladder: link of the runtime library into the application"),
    l("ir.printed_bytes", "B", LO, "bytes of printed IR per sampled module"),
    l("rt.build_modern_us", "us", LO, "ladder: build_runtime, co-designed runtime"),
    l("rt.build_legacy_us", "us", LO, "ladder: build_runtime, legacy runtime"),
    l("front.build_us", "us", LO, "ladder: building the application module"),
    l("opt.total_us", "us", LO, "ladder: optimize_module_timed, PassTimings.total"),
    l("opt.pass.internalize_us", "us", LO, "PassTimings wall of the pass, per module"),
    l("opt.pass.spmdize_us", "us", LO, "same"),
    l("opt.pass.global-dce_us", "us", LO, "same"),
    l("opt.pass.inline_us", "us", LO, "same"),
    l("opt.pass.simplify_us", "us", LO, "same"),
    l("opt.pass.globalize-elim_us", "us", LO, "same"),
    l("opt.pass.fold_us", "us", LO, "same"),
    l("opt.pass.barrier-elim_us", "us", LO, "same"),
    l("opt.pass.drop-assumes_us", "us", LO, "same"),
    l("opt.pass.prune-globals_us", "us", LO, "same"),
    l("opt.cache_hit_share", "share", HI, "analysis-cache hits / queries"),
    l("opt.insts_in", "insts", LO, "instructions entering the optimizer, per module"),
    l("opt.insts_out", "insts", LO, "instructions leaving it"),
    l("opt.barriers_removed", "count", HI, "aligned barriers removed, per module"),
    l("vgpu.load_us", "us", LO, "ladder: Device::load"),
    l("vgpu.lower_us", "us", LO, "ladder: first bytecode launch on a fresh device - steady launch"),
    l("vgpu.launch_fixed_us", "us", LO, "launch of the 16-thread scale kernel"),
    l("vgpu.launch_us", "us", LO, "ladder: steady launch of a sampled op (bottom rung with alloc, write, read)"),
    l("vgpu.write_mb_per_s", "MB/s", HI, "ladder: write_bytes"),
    l("vgpu.read_mb_per_s", "MB/s", HI, "ladder: read_bytes"),
    l("vgpu.bytecode_minst_per_s", "Minst/s", HI, "ladder: sampled launches, bytecode tier"),
    l("vgpu.interp_minst_per_s", "Minst/s", HI, "ladder: sampled launches, interpreter tier"),
    l("vgpu.ns_per_dispatch", "ns", LO, "ladder: bytecode launch time / dispatched steps"),
    l("vgpu.par_w2_speedup", "x", HI, "ladder: 1-worker launch time / 2-worker launch time"),
    l("vgpu.par_cpu_util", "cores", HI, "ladder: CPU seconds / wall seconds of the 2-worker launches"),
    l("vgpu.instructions", "insts", LO, "simulated instructions of the traced round"),
    l("vgpu.dispatched", "count", LO, "dispatch steps of the sampled launches"),
    l("vgpu.cycles", "cycles", LO, "kernel cycles of the traced round"),
    l("vgpu.regs_total", "regs", LO, "registers per thread over the workload's kernels"),
    l("vgpu.smem_bytes_total", "B", LO, "static shared memory over the workload's kernels (Fig. 11)"),
    l("vgpu.runtime_calls", "count", LO, "runtime entry-point calls of the sampled launches"),
    l("vgpu.barriers", "count", LO, "barriers of the sampled launches"),
    l("vgpu.global_accesses", "count", LO, "global loads + stores of the sampled launches"),
    l("vgpu.kernel.xsbench_minst_per_s", "Minst/s", HI, "probe: small() proxy, bytecode, 1 worker"),
    l("vgpu.kernel.rsbench_minst_per_s", "Minst/s", HI, "same"),
    l("vgpu.kernel.testsnap_minst_per_s", "Minst/s", HI, "same"),
    l("vgpu.kernel.minifmm_minst_per_s", "Minst/s", HI, "same"),
    l("vgpu.kernel.gridmini_minst_per_s", "Minst/s", HI, "same"),
    l("vgpu.kernel.alu_minst_per_s", "Minst/s", HI, "probe: the alu loop kernel"),
    l("vgpu.kernel.branchy_minst_per_s", "Minst/s", HI, "probe: the branchy loop kernel"),
    l("machine.calib_ms", "ms", LO, "a fixed spin timed next to the measurement"),
    l("machine.cpu_util", "cores", HI, "CPU seconds / wall seconds of the traced run"),
    l("machine.nproc", "count", HI, "host threads available to the benchmark"),
    l("bench.op_p50_us", "us", LO, "median host time the caller is blocked in one operation of the workload (submit_at, launch, build+compile, region)"),
    l("bench.op_p90_us", "us", LO, "90th percentile of the same"),
    l("bench.op_p99_us", "us", LO, "nearest-rank 99th percentile of the same"),
    l("bench.trace_overhead_share", "share", LO, "median over pairs of traced round wall / untraced round wall, - 1"),
    l("bench.spans", "count", LO, "spans the traced run recorded"),
];

fn metric_json(name: &str, unit: &str, better: Better, bound: Option<f64>) -> Value {
    let mut f = vec![
        ("name", Value::str(name)),
        ("unit", Value::str(unit)),
        ("better", Value::str(better.as_str())),
    ];
    if let Some(b) = bound {
        f.push(("bound", Value::Num(b)));
    }
    Value::obj(f)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        &manifest,
        "--",
    ];
    Value::obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str(BENCH_DIR)])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric_json(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric_json(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

/// `nzbench list`: the tables as text.
pub fn list_text() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workloads (one round each; a run repeats rounds for --seconds):"
    );
    for w in &WORKLOADS {
        let _ = writeln!(
            s,
            "  {:<14} {}\n  {:<14} why: {}",
            w.name,
            (w.size)(),
            "",
            w.why
        );
    }
    let _ = writeln!(s, "\nend-to-end metrics (every workload, untraced):");
    for m in &END_TO_END {
        let clock = if m.clock == Clock::Host {
            "host"
        } else {
            "modeled"
        };
        let bound = if m.bound == EXACT {
            "exact".to_string()
        } else {
            format!("{}%", m.bound * 100.0)
        };
        let _ = writeln!(
            s,
            "  {:<24} {:<9} {:<6} bound {:>5}  {:<8} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            clock,
            m.what
        );
    }
    let _ = writeln!(s, "\nper-layer metrics (every workload, traced; no bound):");
    for m in &PER_LAYER {
        let _ = writeln!(
            s,
            "  {:<34} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    s
}

/// `Err` names the first difference between `BENCHMARK.json` as checked
/// in and the tables above.
pub fn check_against(checked_in: &Value) -> Result<(), String> {
    let want = benchmark_json();
    if *checked_in == want {
        return Ok(());
    }
    for (k, v) in want.as_obj().unwrap_or_default() {
        if checked_in.get(k) != Some(v) {
            return Err(format!("BENCHMARK.json disagrees with nzbench's tables at key {k:?}; regenerate it with `nzbench list --json`"));
        }
    }
    Err("BENCHMARK.json has keys nzbench's tables do not".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the contract's alphabet"
        );
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(
            (2..=8).contains(&WORKLOADS.len()) && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128
        );
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        let text = benchmark_json().pretty();
        assert!(text.len() < 64 * 1024);
        let cmd = benchmark_json();
        let cmd = cmd.get("command").and_then(Value::as_arr).expect("command");
        assert!(
            cmd.len() <= 32
                && cmd.iter().all(|c| c
                    .as_str()
                    .is_some_and(|s| s.len() <= 200 && !s.starts_with('/') && !s.contains("..")))
        );
    }

    #[test]
    fn checked_in_description_must_equal_the_tables() {
        let good = crate::json::parse(&benchmark_json().pretty()).expect("own output parses");
        assert_eq!(check_against(&good), Ok(()));
        let mut bad = good.clone();
        if let Value::Obj(f) = &mut bad {
            f[2].1 = Value::Num(11.0);
        }
        assert!(check_against(&bad).is_err_and(|e| e.contains("run_seconds")));
    }
}
