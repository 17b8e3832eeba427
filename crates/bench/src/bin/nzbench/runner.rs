//! One measurement of one workload: the untraced run that end-to-end
//! metrics come from, and the traced run that gives the per-layer ones.

use std::time::{Duration, Instant};

use crate::json::Value;
use crate::ladder::{self, Samples};
use crate::span::Tracer;
use crate::stats::{self, percentile, sorted, Summary};
use crate::table::{END_TO_END, PER_LAYER};
use crate::workloads::{self, Round};

/// Set-ups timed in a run: one before the rounds and the rest after
/// them; a cheap set-up is also repeated between rounds, so its samples
/// span the whole run.
const SETUP_REPS: usize = 3;
const CHEAP_SETUP_S: f64 = 0.05;
const MIN_ROUNDS: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread of the samples behind `value`, where it has any.
    pub over: Option<Summary>,
    pub note: &'static str,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// What a person should know beside the metrics.
    pub footnote: String,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one JSON object the benchmark contract asks for on the last
    /// line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .compact()
    }

    /// Every metric by name with its unit, for a person.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} seed {} ({}): {} rounds, {} operations attempted, {} failed{}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.rounds,
            self.attempted,
            self.failed,
            self.first_failure
                .as_ref()
                .map(|f| format!(" — first: {f}"))
                .unwrap_or_default()
        );
        for m in &self.metrics {
            let _ = write!(s, "  {:<34} {:>16.4} {:<8}", m.name, m.value, m.unit);
            if let Some(o) = &m.over {
                let _ = write!(
                    s,
                    " median {:.4} q1 {:.4} q3 {:.4} n {}",
                    o.median, o.q1, o.q3, o.n
                );
            }
            let _ = writeln!(s, " {}", m.note);
        }
        if !self.footnote.is_empty() {
            let _ = writeln!(s, "  {}", self.footnote);
        }
        s
    }
}

fn check_exact(first: &Round, r: &Round, i: usize) -> Result<(), String> {
    if first.exact() == r.exact() {
        Ok(())
    } else {
        Err(format!(
            "determinism broke: round {i} differs from round 0 in its exact metrics"
        ))
    }
}

fn p_of(v: &[f64], p: f64) -> f64 {
    percentile(&sorted(v.to_vec()), p).unwrap_or(0.0)
}

fn pu(v: &[u64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    percentile(&s, p).unwrap_or(0) as f64
}

fn sum(samples: &Samples, name: &str) -> f64 {
    samples.get(name).unwrap_or_default().iter().sum()
}

/// Every timed item of the untraced run sits between two readings of
/// the calibration loop; its host time is converted to reference seconds
/// by the mean of the two (`stats::speed`).
struct CalibratedClock {
    last: f64,
    readings: Vec<f64>,
}

impl CalibratedClock {
    fn start() -> CalibratedClock {
        let c = stats::calib_ms();
        CalibratedClock {
            last: c,
            readings: vec![c],
        }
    }

    /// Close the interval since the previous reading; returns the factor
    /// that converts host seconds spent in it to reference seconds.
    fn tick(&mut self) -> f64 {
        let c = stats::calib_ms();
        let factor = stats::speed((self.last + c) / 2.0);
        self.last = c;
        self.readings.push(c);
        factor
    }

    /// Host seconds of one set-up (dropped at once) and its factor.
    fn time_setup(&mut self, name: &str, seed: u64) -> Result<(f64, f64), String> {
        let t = Instant::now();
        workloads::setup(name, seed, &mut Tracer::off())?;
        let host_s = t.elapsed().as_secs_f64();
        Ok((host_s, self.tick()))
    }
}

/// A calibration reading this far above the run's fastest marks a round
/// as measured in a slow phase of the machine.
const SLOW_PHASE: f64 = 1.25;

pub fn run_untraced(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let off = &mut Tracer::off();
    let mut clock = CalibratedClock::start();
    // (host seconds, factor to reference seconds) of every set-up.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let t = Instant::now();
    let mut wl = workloads::setup(name, seed, off)?;
    setups.push((t.elapsed().as_secs_f64(), clock.tick()));
    let cheap_setup = setups[0].0 < CHEAP_SETUP_S;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut round_calib: Vec<f64> = Vec::new();
    let mut peak_rss = 0.0;
    while Instant::now() < deadline || rounds.len() < MIN_ROUNDS {
        let r = wl.round(off)?;
        speeds.push(clock.tick());
        round_calib.push(clock.last);
        if let Some(first) = rounds.first() {
            check_exact(first, &r, rounds.len())?;
        }
        rounds.push(r);
        if rounds.len() == MIN_ROUNDS {
            // Read here, not at exit: how many rounds fit into the run
            // must not decide the high-water mark. Until here one
            // workload was alive; the repeated set-ups come after.
            peak_rss = stats::peak_rss_mb();
        }
        if cheap_setup && rounds.len() >= MIN_ROUNDS {
            setups.push(clock.time_setup(name, seed)?);
        }
    }

    let first = &rounds[0];
    let kinds = wl.kinds();
    let exact = [
        ("lat_p50_cycles", pu(&first.lat_cycles, 50.0)),
        ("lat_p99_cycles", pu(&first.lat_cycles, 99.0)),
        (
            "completed_per_mcycle",
            first.launches as f64 * 1e6 / first.makespan as f64,
        ),
        (
            "modeled_cycles_per_op",
            first.cycles as f64 / first.launches as f64,
        ),
        (
            "code_insts_total",
            kinds.iter().map(|k| k.reference.code_insts).sum::<u64>() as f64,
        ),
        (
            "kernel_regs_total",
            kinds
                .iter()
                .filter_map(|k| k.reference.metrics.as_ref())
                .map(|m| m.regs_per_thread as u64)
                .sum::<u64>() as f64,
        ),
        ("peak_rss_mb", peak_rss),
    ];
    drop(wl);
    while setups.len() < SETUP_REPS {
        setups.push(clock.time_setup(name, seed)?);
    }

    // (host value, value per reference second) of every sample: host
    // seconds times the interval's factor are reference seconds.
    let rate = |f: fn(&Round) -> f64| -> Vec<(f64, f64)> {
        rounds
            .iter()
            .zip(&speeds)
            .map(|(r, k)| (f(r), f(r) / k))
            .collect()
    };
    let host = [
        ("setup_s", setups.iter().map(|(s, k)| (*s, s * k)).collect()),
        ("ops_per_s", rate(|r| r.ops as f64 / r.wall_s)),
        (
            "sim_minst_per_s",
            rate(|r| r.sim_insts as f64 / r.sim_wall_s / 1e6),
        ),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|row| {
            if let Some((_, samples)) = host.iter().find(|(n, _)| *n == row.name) {
                let reference: Vec<f64> = samples.iter().map(|s| s.1).collect();
                Metric {
                    name: row.name,
                    unit: row.unit,
                    value: stats::median(&reference),
                    over: Some(stats::summarize(&reference)),
                    note: "",
                }
            } else {
                let value = exact
                    .iter()
                    .find(|(n, _)| *n == row.name)
                    .map_or(f64::NAN, |(_, v)| *v);
                Metric {
                    name: row.name,
                    unit: row.unit,
                    value,
                    over: None,
                    note: "",
                }
            }
        })
        .collect();

    // Beside the metrics: the same three as the host's clock read them,
    // and every round with the calibration reading that closed it.
    use std::fmt::Write as _;
    let calib = stats::summarize(&clock.readings);
    let fastest = clock.readings.iter().cloned().fold(f64::MAX, f64::min);
    let mut footnote = format!(
        "host times above are in reference seconds (calibration {:.3} ms median, {:.3}..{:.3}, reference {} ms); as the host's clock read them:",
        calib.median,
        calib.q1,
        calib.q3,
        stats::REFERENCE_CALIB_MS
    );
    for (name, samples) in &host {
        let raw: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let s = stats::summarize(&raw);
        let _ = write!(
            footnote,
            "\n    raw {:<30} {:>16.4} q1 {:.4} q3 {:.4} n {}",
            name, s.median, s.q1, s.q3, s.n
        );
    }
    for (i, (r, c)) in rounds.iter().zip(&round_calib).enumerate() {
        let _ = write!(
            footnote,
            "\n    round {i:<3} host {:.4} s  calibration {c:.3} ms{}",
            r.wall_s,
            if *c > SLOW_PHASE * fastest {
                "  slow phase"
            } else {
                ""
            }
        );
    }
    Ok(Report {
        workload: name.to_string(),
        seed,
        traced: false,
        rounds: rounds.len(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        first_failure: rounds.iter().find_map(|r| r.first_failure.clone()),
        metrics,
        footnote,
    })
}

/// The traced run: rounds with and without spans (their difference is the
/// tracing overhead), the ladder over a sample of the workload's own
/// operations, and the fixed kernel probes.
pub fn run_traced(name: &str, seed: u64, seconds: f64) -> Result<(Report, Tracer), String> {
    let (t_run, cpu0) = (Instant::now(), stats::cpu_seconds());
    let calib = stats::calib_ms();
    let mut tr = Tracer::new(true);
    tr.begin("workload");
    let mut wl = workloads::setup(name, seed, &mut tr)?;

    // One round to warm the process up, then pairs of a traced and an
    // untraced round for two fifths of the budget, two pairs at least.
    // Which of the two goes first alternates, so a drift of the machine's
    // speed does not read as overhead.
    wl.round(&mut Tracer::off())?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    let (mut traced, mut untraced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || traced.len() < 2 {
        if traced.len() % 2 == 0 {
            traced.push(wl.round(&mut tr)?);
            untraced.push(wl.round(&mut Tracer::off())?);
        } else {
            untraced.push(wl.round(&mut Tracer::off())?);
            traced.push(wl.round(&mut tr)?);
        }
    }
    for (i, r) in traced.iter().chain(&untraced).enumerate() {
        check_exact(&traced[0], r, i)?;
    }
    let overhead = stats::median(
        &traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| t.wall_s / u.wall_s)
            .collect::<Vec<_>>(),
    ) - 1.0;

    let mut samples = Samples::default();
    let ops = ladder::sample(wl.pool(), seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let mut passes = 0;
    while passes == 0 || (Instant::now() < deadline && passes < 40) {
        ladder::pass(&mut tr, &ops, seed, &mut samples)?;
        passes += 1;
    }
    ladder::kernel_probes(&mut tr, seed, &mut samples)?;
    tr.end();

    let round = &traced[0];
    let kinds = wl.kinds();
    let serve_rung = samples.median("serve.rung_us_per_req");
    let host_rung = samples.median("host.region_us");
    let device_rung = samples.median("vgpu.rung_us");
    let serve_self = ladder::self_time(serve_rung, host_rung);
    let host_self = ladder::self_time(host_rung, device_rung);
    // A workload with a service reports its own submit times; the others
    // the ladder's.
    let submits: Vec<f64> = if name.starts_with("serve_") {
        round.op_us.clone()
    } else {
        samples.get("serve.submit_us").unwrap_or_default().to_vec()
    };
    let compiles = samples.get("core.compile_us").unwrap_or_default();
    let wall_s = t_run.elapsed().as_secs_f64();
    let derived: Vec<(&str, f64, &'static str)> = vec![
        ("serve.submit_p99_us", p_of(&submits, 99.0), ""),
        (
            "serve.submit_max_us",
            submits.iter().cloned().fold(0.0, f64::max),
            "",
        ),
        (
            "serve.self_us_per_req",
            serve_self.us,
            if serve_self.unresolved {
                "unresolved: rung below measured slower"
            } else {
                ""
            },
        ),
        (
            "host.self_us_per_region",
            host_self.us,
            if host_self.unresolved {
                "unresolved: rung below measured slower"
            } else {
                ""
            },
        ),
        ("core.compile_p50_us", p_of(compiles, 50.0), ""),
        ("core.compile_p99_us", p_of(compiles, 99.0), ""),
        ("vgpu.instructions", round.sim_insts as f64, ""),
        ("vgpu.cycles", round.cycles as f64, ""),
        (
            "vgpu.regs_total",
            kinds
                .iter()
                .filter_map(|k| k.reference.metrics.as_ref())
                .map(|m| m.regs_per_thread as f64)
                .sum(),
            "",
        ),
        (
            "vgpu.smem_bytes_total",
            kinds
                .iter()
                .filter_map(|k| k.reference.metrics.as_ref())
                .map(|m| m.smem_bytes as f64)
                .sum(),
            "",
        ),
        (
            "vgpu.par_cpu_util",
            sum(&samples, "vgpu.par_cpu_s") / sum(&samples, "vgpu.par_wall_s"),
            "",
        ),
        ("machine.calib_ms", calib, ""),
        (
            "machine.cpu_util",
            (stats::cpu_seconds() - cpu0) / wall_s,
            "",
        ),
        ("machine.nproc", stats::nproc() as f64, ""),
        ("bench.op_p50_us", p_of(&untraced[0].op_us, 50.0), ""),
        ("bench.op_p90_us", p_of(&untraced[0].op_us, 90.0), ""),
        ("bench.op_p99_us", p_of(&untraced[0].op_us, 99.0), ""),
        ("bench.trace_overhead_share", overhead, ""),
        ("bench.spans", tr.spans.len() as f64, ""),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|row| {
            let from_round = round
                .counts
                .iter()
                .chain(&round.times)
                .find(|(n, _)| *n == row.name);
            let (value, over, note) =
                if let Some((_, v, note)) = derived.iter().find(|(n, _, _)| *n == row.name) {
                    (*v, None, *note)
                } else if let Some((_, v)) = from_round {
                    (*v, None, "")
                } else if let Some(s) = samples.get(row.name) {
                    (stats::median(s), Some(stats::summarize(s)), "")
                } else {
                    // A layer this workload does not pass through.
                    (0.0, None, "")
                };
            Metric {
                name: row.name,
                unit: row.unit,
                value,
                over,
                note,
            }
        })
        .collect();
    let all = || traced.iter().chain(&untraced);
    let report = Report {
        workload: name.to_string(),
        seed,
        traced: true,
        rounds: traced.len() + untraced.len(),
        attempted: all().map(|r| r.attempted).sum(),
        failed: all().map(|r| r.failed).sum(),
        first_failure: all().find_map(|r| r.first_failure.clone()),
        metrics,
        footnote: "per-layer times are host time as measured, not reference seconds".to_string(),
    };
    Ok((report, tr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "w".into(),
            seed: 1,
            traced: false,
            rounds: 3,
            attempted: 10,
            failed: 0,
            first_failure: None,
            footnote: String::new(),
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
                over: None,
                note: "",
            }],
        };
        assert_eq!(
            r.result_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        assert!(crate::json::parse(&r.result_line()).is_ok());
    }
}
