//! `nzbench compare A/results.json B/results.json`: one row per (metric,
//! workload) with both medians, quartiles and a verdict, by each
//! metric's own bound and direction.

use crate::json::Value;
use crate::stats::{summarize, Summary};
use crate::table::{Better, Clock, MetricRow, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs' spread is wider than the bound and the two sides'
    /// runs interleave: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, signed so that
/// positive is worse whatever the metric's direction.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let rel = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Verdict on one metric of one workload from the per-run values of the
/// two sides.
pub fn verdict(row: &MetricRow, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let d = worse_by(sa.median, sb.median, row.better);
    if row.clock == Clock::Modeled {
        // Deterministic for a seed: any difference is a change of
        // behaviour, however small.
        return if sa.median == sb.median {
            Verdict::Same
        } else if d > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let spread = |s: &Summary| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.q3 - s.q1) / s.median.abs()
        }
    };
    let noisy = spread(&sa).max(spread(&sb)) > row.bound;
    // One side's every run better than the other side's every run.
    let separated = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|p| y.iter().all(|q| worse_by(*q, *p, row.better) < 0.0))
    };
    if noisy && !separated(a, b) && !separated(b, a) {
        Verdict::Unresolved
    } else if d > row.bound {
        Verdict::Worse
    } else if d < -row.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values_of(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(
        m.get("values")?
            .as_arr()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    )
}

fn failed_of(results: &Value, workload: &str) -> f64 {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The comparison table and whether it holds a regression. `Err` when
/// the two files were not measured alike: modeled metrics are held to
/// `==` only for one seed, and quartiles compare only over equal n.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    for key in ["schema", "seed", "seconds", "rounds"] {
        if a.get(key).is_none() || a.get(key) != b.get(key) {
            let show = |v: &Value| v.get(key).map_or("nothing".to_string(), Value::compact);
            return Err(format!(
                "the two results differ in {key:?} ({} against {}): measure both sides alike",
                show(a),
                show(b)
            ));
        }
    }
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<22} {:<14} {:>14} {:>14} {:>14} {:>14} {:>8}  verdict",
        "metric", "workload", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A"
    );
    for w in &WORKLOADS {
        for row in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values_of(a, w.name, row.name),
                values_of(b, w.name, row.name),
            ) else {
                let _ = writeln!(out, "{:<22} {:<14} missing on one side", row.name, w.name);
                regressed = true;
                continue;
            };
            let (sa, sb) = (summarize(&va), summarize(&vb));
            let v = verdict(row, &va, &vb);
            regressed |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<22} {:<14} {:>14.4} {:>14} {:>14.4} {:>14} {:>+7.1}%  {}",
                row.name,
                w.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                -worse_by(sa.median, sb.median, row.better) * 100.0,
                v.as_str()
            );
        }
        let (fa, fb) = (failed_of(a, w.name), failed_of(b, w.name));
        if fb > fa {
            let _ = writeln!(
                out,
                "{:<22} {:<14} failed operations rose from {fa} to {fb}",
                "failed", w.name
            );
            regressed = true;
        }
    }
    let _ = writeln!(
        out,
        "(B vs A: positive is better, whatever the metric's direction)"
    );
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_row(better: Better) -> MetricRow {
        MetricRow {
            name: "x",
            unit: "1/s",
            better,
            bound: 0.10,
            clock: Clock::Host,
            what: "",
        }
    }

    #[test]
    fn each_verdict_on_synthetic_results() {
        let hi = host_row(Better::Higher);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&hi, &a, &[102.0, 101.0, 100.0, 103.0, 101.5]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&hi, &a, &[80.0, 81.0, 79.0, 80.5, 82.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&hi, &a, &[120.0, 121.0, 119.0, 122.0, 118.0]),
            Verdict::Better
        );
        // Lower-is-better flips the sign.
        let lo = host_row(Better::Lower);
        assert_eq!(
            verdict(&lo, &a, &[120.0, 121.0, 119.0, 122.0, 118.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lo, &a, &[80.0, 81.0, 79.0, 80.5, 82.0]),
            Verdict::Better
        );
        // Spread wider than the bound and interleaved runs: cannot tell.
        let wide = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(
            verdict(&hi, &wide, &[75.0, 125.0, 98.0, 88.0, 110.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A: resolved.
        assert_eq!(
            verdict(&hi, &wide, &[140.0, 200.0, 170.0, 150.0, 185.0]),
            Verdict::Better
        );
    }

    #[test]
    fn modeled_metrics_compare_with_equality() {
        let row = MetricRow {
            name: "c",
            unit: "cycles",
            better: Better::Lower,
            bound: 0.2,
            clock: Clock::Modeled,
            what: "",
        };
        assert_eq!(verdict(&row, &[668.0; 3], &[668.0; 3]), Verdict::Same);
        assert_eq!(
            verdict(&row, &[668.0; 3], &[669.0; 3]),
            Verdict::Worse,
            "one cycle is a change of behaviour"
        );
        assert_eq!(verdict(&row, &[668.0; 3], &[600.0; 3]), Verdict::Better);
    }

    #[test]
    fn compare_flags_a_regression_and_a_rise_in_failures() {
        let side = |ops: f64, failed: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "ops_per_s" { ops } else { 1.0 };
                    (
                        m.name,
                        Value::obj(vec![("values", Value::Arr(vec![Value::Num(v); 3]))]),
                    )
                })
                .collect();
            let wl = WORKLOADS
                .iter()
                .map(|w| {
                    (
                        w.name,
                        Value::obj(vec![
                            ("failed", Value::Num(failed)),
                            ("metrics", Value::obj(Vec::clone(&metrics))),
                        ]),
                    )
                })
                .collect();
            Value::obj(vec![
                ("schema", Value::str("nzbench-results-v1")),
                ("seed", Value::Num(1.0)),
                ("seconds", Value::Num(10.0)),
                ("rounds", Value::Num(3.0)),
                ("workloads", Value::obj(wl)),
            ])
        };
        let cmp = |a: &Value, b: &Value| compare(a, b).expect("measured alike");
        assert!(!cmp(&side(100.0, 0.0), &side(99.0, 0.0)).1);
        let (text, bad) = cmp(&side(100.0, 0.0), &side(50.0, 0.0));
        assert!(bad && text.contains("worse"));
        assert!(cmp(&side(100.0, 0.0), &side(100.0, 2.0)).1);

        // Another seed, length or number of runs: refused, not compared.
        for key in ["seed", "seconds", "rounds"] {
            let mut other = side(100.0, 0.0);
            if let Value::Obj(f) = &mut other {
                for (k, v) in f.iter_mut() {
                    if k == key {
                        *v = Value::Num(99.0);
                    }
                }
            }
            assert!(compare(&side(100.0, 0.0), &other).is_err_and(|e| e.contains(key)));
        }
    }
}
