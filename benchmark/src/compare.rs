//! `compare A.json B.json`: one row per (workload, metric) of two `run`
//! result files, with both values, the change, and a verdict against
//! the bound `BENCHMARK.json` fixes for the metric.

use crate::json::{self, Json};
use crate::report::Outcome;
use crate::serve::MAX_LAG_P99_MS;
use crate::{listed_metrics, load_benchmark_json};
use std::collections::BTreeMap;

/// How one metric is judged.
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// May worsen by at most `bound` (a share of A) in its bad direction.
    Bound { bound: f64, higher_is_better: bool },
    /// Must not rise from A (the failure rate).
    NoRise,
    /// Must be bitwise identical (a deterministic quality measure).
    Exact,
    /// Must stay below a fixed limit in B.
    Below(f64),
    /// Reported without a verdict (per-layer metrics).
    Info,
}

/// Rules for metrics that `BENCHMARK.json` cannot express: measured on
/// only some workloads, or judged exactly.
fn extra_rule(name: &str) -> Option<Rule> {
    match name {
        "error_rate" => Some(Rule::NoRise),
        "slr_mean" | "mean_slowdown" => Some(Rule::Exact),
        "loadgen.lag_ms_p99" => Some(Rule::Below(MAX_LAG_P99_MS)),
        _ => None,
    }
}

/// The rule for `name`: an `end_to_end` entry of `BENCHMARK.json`,
/// else an extra rule, else informational.
pub fn rule_for(bench: &Json, name: &str) -> Rule {
    let entry = bench
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name));
    if let Some(m) = entry {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let higher_is_better = m.get("better").and_then(Json::as_str) == Some("higher");
        return Rule::Bound {
            bound,
            higher_is_better,
        };
    }
    extra_rule(name).unwrap_or(Rule::Info)
}

/// Verdict of B against A under `rule`: `Some(true)` pass, `Some(false)`
/// fail, `None` for informational rows.
pub fn verdict(rule: &Rule, a: f64, b: f64) -> Option<bool> {
    match *rule {
        Rule::Bound {
            bound,
            higher_is_better,
        } => {
            let worse_by = if higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            Some(a > 0.0 && worse_by <= bound)
        }
        Rule::NoRise => Some(b <= a),
        Rule::Exact => Some(a.to_bits() == b.to_bits()),
        Rule::Below(limit) => Some(a < limit && b < limit),
        Rule::Info => None,
    }
}

fn load(path: &str) -> Result<BTreeMap<String, Outcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for (name, o) in doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no `workloads`"))?
    {
        out.insert(name.clone(), Outcome::from_json(o)?);
    }
    Ok(out)
}

pub fn run(argv: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = argv else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let bench = load_benchmark_json()?;
    let per_layer = listed_metrics(&bench, "per_layer");
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "delta"
    );
    for w in names {
        let (Some(oa), Some(ob)) = (a.get(w), b.get(w)) else {
            println!("{w:<18} missing from one file: FAIL");
            ok = false;
            continue;
        };
        for (o, side) in [(oa, "A"), (ob, "B")] {
            if !o.correct() {
                println!("{w:<18} {side} reports an incorrect run: FAIL");
                ok = false;
            }
        }
        let mut metrics: Vec<&str> = oa
            .metrics
            .iter()
            .chain(&ob.metrics)
            .map(|m| m.name.as_str())
            .collect();
        metrics.sort_unstable();
        metrics.dedup();
        for name in metrics {
            let (Some(ma), Some(mb)) = (oa.metric(name), ob.metric(name)) else {
                println!("{w:<18} {name:<34} missing on one side: FAIL");
                ok = false;
                continue;
            };
            let rule = rule_for(&bench, name);
            let delta = if ma.value.abs() > 0.0 {
                format!("{:+.2}%", (mb.value / ma.value - 1.0) * 100.0)
            } else {
                format!("{:+}", mb.value - ma.value)
            };
            let v = match verdict(&rule, ma.value, mb.value) {
                Some(true) => "pass".to_string(),
                Some(false) => {
                    ok = false;
                    format!("FAIL ({rule:?})")
                }
                None if per_layer.iter().any(|p| p == name) => "per-layer".to_string(),
                None => "info".to_string(),
            };
            println!(
                "{w:<18} {name:<34} {:>14.6} {:>14.6} {delta:>9}  {v}",
                ma.value, mb.value
            );
        }
    }
    println!("compare: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        json::parse(
            r#"{"end_to_end": [
                {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "throughput_tasks_per_s", "unit": "tasks/s", "better": "higher", "bound": 0.1}
            ]}"#,
        )
        .expect("valid")
    }

    #[test]
    fn bounds_judge_the_bad_direction_only() {
        let b = bench();
        let lat = rule_for(&b, "latency_ms_p50");
        assert_eq!(verdict(&lat, 10.0, 10.9), Some(true));
        assert_eq!(verdict(&lat, 10.0, 11.1), Some(false));
        assert_eq!(verdict(&lat, 10.0, 5.0), Some(true));
        let thr = rule_for(&b, "throughput_tasks_per_s");
        assert_eq!(verdict(&thr, 100.0, 91.0), Some(true));
        assert_eq!(verdict(&thr, 100.0, 89.0), Some(false));
        assert_eq!(verdict(&thr, 100.0, 150.0), Some(true));
    }

    #[test]
    fn exact_zero_and_guard_rules() {
        let b = bench();
        let slr = rule_for(&b, "slr_mean");
        assert_eq!(verdict(&slr, 1.25, 1.25), Some(true));
        assert_eq!(verdict(&slr, 1.25, 1.25 + f64::EPSILON), Some(false));
        let err = rule_for(&b, "error_rate");
        assert_eq!(verdict(&err, 0.0, 0.0), Some(true));
        assert_eq!(verdict(&err, 0.0, 0.001), Some(false));
        let lag = rule_for(&b, "loadgen.lag_ms_p99");
        assert_eq!(verdict(&lag, 2.0, 2.9), Some(true));
        assert_eq!(verdict(&lag, 2.0, 5.5), Some(false));
        assert_eq!(rule_for(&b, "route.bfs_us_p50"), Rule::Info);
        assert_eq!(verdict(&Rule::Info, 1.0, 9.0), None);
    }
}
