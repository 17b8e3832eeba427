//! `nzbench` — one benchmark for the whole offload stack: seven
//! workloads, end-to-end and per-layer metrics, and a traced layer
//! ladder. See README.md in this directory.
//!
//! ```text
//! nzbench --workload W --seed N --seconds S --trace 0|1   one measurement; last line is the result JSON
//! nzbench run   --seed N --out DIR                        every workload, 7 measurements each -> DIR/results.json
//! nzbench trace --seed N --out DIR                        every workload traced -> DIR/trace.json, DIR/layers.json
//! nzbench compare A/results.json B/results.json           verdict per (metric, workload); nonzero on a regression
//! nzbench list [--json]                                   workloads and metrics; --json prints BENCHMARK.json
//! ```

mod api;
mod compare;
mod gen;
mod json;
mod ladder;
mod runner;
mod span;
mod stats;
mod table;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use json::Value;
use table::{END_TO_END, RUN_ROUNDS, RUN_SECONDS, WORKLOADS};

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let name = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            f.push((name.to_string(), v.clone()));
        }
        Ok(Flags(f))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

/// One description, not two: refuse to measure when `BENCHMARK.json` in
/// the working directory says something else than the tables.
fn check_description() -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            table::check_against(&json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?)
        }
        // Run from elsewhere than a checkout root: nothing to disagree with.
        Err(_) => Ok(()),
    }
}

fn measure(f: &Flags) -> Result<ExitCode, String> {
    check_description()?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let seed: u64 = f.num("seed", None)?;
    let seconds: f64 = f.num("seconds", Some(RUN_SECONDS as f64))?;
    let report = match f.num::<u8>("trace", Some(0))? {
        0 => runner::run_untraced(name, seed, seconds)?,
        _ => runner::run_traced(name, seed, seconds)?.0,
    };
    print!("{}", report.human());
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Spawn this program for one untraced measurement, as long as the
/// driver's, and read its last line.
fn measure_in_child(workload: &str, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawning the measurement of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "measurement of {workload} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    json::parse(text.lines().last().unwrap_or_default())
}

/// `run`: every workload `RUN_ROUNDS` times, round-robin so each
/// workload's samples span the whole run, each in a fresh process.
fn run_all(f: &Flags) -> Result<ExitCode, String> {
    check_description()?;
    let seed: u64 = f.num("seed", None)?;
    let dir = f.get("out").ok_or("--out is required")?;
    let mut values: Vec<Vec<(String, Vec<f64>)>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut totals = vec![(0.0, 0.0); WORKLOADS.len()];
    for round in 0..RUN_ROUNDS {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            eprintln!("round {}/{RUN_ROUNDS}: {}", round + 1, w.name);
            let r = measure_in_child(w.name, seed)?;
            let num = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            totals[wi].0 += num("attempted");
            totals[wi].1 += num("failed");
            for (name, m) in r.get("metrics").and_then(Value::as_obj).unwrap_or_default() {
                let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                match values[wi].iter_mut().find(|(n, _)| n == name) {
                    Some((_, s)) => s.push(v),
                    None => values[wi].push((name.clone(), vec![v])),
                }
            }
        }
    }
    let mut workloads = Vec::new();
    for ((w, vals), (attempted, failed)) in WORKLOADS.iter().zip(&values).zip(&totals) {
        println!(
            "{} — {attempted} operations attempted, {failed} failed",
            w.name
        );
        let mut metrics = Vec::new();
        for row in &END_TO_END {
            let v = vals
                .iter()
                .find(|(n, _)| n == row.name)
                .map(|(_, v)| v.as_slice())
                .unwrap_or_default();
            let s = stats::summarize(v);
            println!(
                "  {:<24} {:>16.4} {:<8} q1 {:.4} q3 {:.4} n {}",
                row.name, s.median, row.unit, s.q1, s.q3, s.n
            );
            metrics.push((
                row.name,
                Value::obj(vec![
                    ("unit", Value::str(row.unit)),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("n", Value::Num(s.n as f64)),
                    (
                        "values",
                        Value::Arr(v.iter().map(|x| Value::Num(*x)).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((
            w.name,
            Value::obj(vec![
                ("correct", Value::Bool(*failed == 0.0)),
                ("attempted", Value::Num(*attempted)),
                ("failed", Value::Num(*failed)),
                ("metrics", Value::obj(metrics)),
            ]),
        ));
    }
    let results = Value::obj(vec![
        ("schema", Value::str("nzbench-results-v1")),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(RUN_SECONDS as f64)),
        ("rounds", Value::Num(RUN_ROUNDS as f64)),
        ("nproc", Value::Num(stats::nproc() as f64)),
        ("workloads", Value::obj(workloads)),
    ]);
    write_file(dir, "results.json", &results.pretty())?;
    Ok(if totals.iter().all(|t| t.1 == 0.0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_file(dir: &str, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = Path::new(dir).join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Spans written per workload; a traced `serve_hot` round alone records
/// tens of thousands.
const TRACE_SPANS_PER_WORKLOAD: usize = 20_000;

/// `trace`: the traced run of every workload.
fn trace_all(f: &Flags) -> Result<ExitCode, String> {
    check_description()?;
    let seed: u64 = f.num("seed", None)?;
    let dir = f.get("out").ok_or("--out is required")?;
    let mut events = Vec::new();
    let mut layers = Vec::new();
    let mut failed = 0;
    for (pid, w) in WORKLOADS.iter().enumerate() {
        let (report, mut tracer) = runner::run_traced(w.name, seed, RUN_SECONDS as f64)?;
        print!("{}", report.human());
        println!("  span self times (us, calls):");
        for (name, self_us, calls) in tracer.self_by_name() {
            println!("    {name:<28} {self_us:>14.1} {calls:>8}");
        }
        failed += report.failed;
        tracer.spans.truncate(TRACE_SPANS_PER_WORKLOAD);
        events.extend(tracer.chrome_events(pid as u64 + 1, w.name));
        let metrics = report
            .metrics
            .iter()
            .map(|m| {
                let mut row = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
                if !m.note.is_empty() {
                    row.push(("note", Value::str(m.note)));
                }
                (m.name, Value::obj(row))
            })
            .collect();
        layers.push((w.name, Value::obj(metrics)));
    }
    write_file(
        dir,
        "trace.json",
        &Value::obj(vec![("traceEvents", Value::Arr(events))]).compact(),
    )?;
    write_file(dir, "layers.json", &Value::obj(layers).pretty())?;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results.json paths".to_string());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let (text, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags::parse(&args[1..])?),
        Some("trace") => trace_all(&Flags::parse(&args[1..])?),
        Some("compare") => compare_files(&args[1..]),
        Some("list") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                print!("{}", table::benchmark_json().pretty());
            } else {
                print!("{}", table::list_text());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => measure(&Flags::parse(args)?),
        _ => Err("usage: nzbench --workload W --seed N --seconds S --trace 0|1 | run | trace | compare | list".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nzbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--workload", "serve_hot", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args).expect("well-formed flags");
        assert_eq!(f.get("workload"), Some("serve_hot"));
        assert_eq!(f.num::<u64>("seed", None), Ok(7));
        assert_eq!(f.num::<u8>("trace", Some(0)), Ok(0));
        assert!(f.num::<u64>("seconds", None).is_err());
        assert!(Flags::parse(&args[..3]).is_err());
        assert!(Flags::parse(&["stray".to_string()]).is_err());
    }

    /// The `[profile.*]` sections of a manifest, comments and blank lines
    /// dropped, sorted.
    fn profiles(manifest: &str) -> Vec<String> {
        let mut in_profile = false;
        let mut out: Vec<String> = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_profile = line.starts_with("[profile.");
            }
            if in_profile && !line.is_empty() && !line.starts_with('#') {
                match out.last_mut() {
                    Some(section) if !line.starts_with('[') => {
                        section.push(' ');
                        section.push_str(line);
                    }
                    _ => out.push(line.to_string()),
                }
            }
        }
        out.sort();
        out
    }

    /// The benchmark's own manifest must build the stack as the workspace
    /// does; a workspace root of its own cannot inherit the profiles.
    #[test]
    fn own_manifest_repeats_the_workspace_profiles() {
        let own = profiles(include_str!("Cargo.toml"));
        assert!(own.iter().any(|p| p.starts_with("[profile.release]")));
        assert_eq!(own, profiles(include_str!("../../../../../Cargo.toml")));
    }
}
