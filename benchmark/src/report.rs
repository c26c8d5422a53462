//! What one workload run reports: operation counts, correctness
//! problems, a schedule digest and named metrics, with the JSON forms
//! the workload process emits and the parent reads back.

use crate::json::{self, Json};
use crate::stats;

/// One measured metric: value, unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
}

/// The result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub workload: String,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed: an `Err`, a validation failure, a
    /// reference mismatch, or a shed, rejected or lost request.
    pub failed: u64,
    /// Every correctness problem found, operation failures included.
    pub problems: Vec<String>,
    /// Digest of the reference outputs (identical inputs and code must
    /// give identical digests, whatever the thread count).
    pub digest: String,
    pub metrics: Vec<Metric>,
}

/// Problems listed beyond this many are counted, not kept.
const MAX_PROBLEMS: usize = 20;

impl Outcome {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg.into());
        } else if self.problems.len() == MAX_PROBLEMS {
            self.problems.push("further problems omitted".to_string());
        }
    }

    /// Count one failed timed operation.
    pub fn op_failed(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.problem(msg);
    }

    pub fn push(&mut self, name: &str, unit: &str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
        });
    }

    /// Push the nearest-rank percentile of `samples`. A refused
    /// percentile (tail too thin) is a problem: the workload is sized
    /// so that it never happens.
    pub fn push_pct(&mut self, name: &str, unit: &str, samples: &[f64], per_mille: usize) {
        match stats::percentile(&stats::sorted(samples), per_mille) {
            Some(v) => self.push(name, unit, v, samples.len()),
            None => self.problem(format!(
                "{name}: {} samples leave fewer than {} beyond the rank",
                samples.len(),
                stats::MIN_TAIL
            )),
        }
    }

    pub fn push_mean(&mut self, name: &str, unit: &str, samples: &[f64]) {
        match stats::mean(samples) {
            Some(v) => self.push(name, unit, v, samples.len()),
            None => self.problem(format!("{name}: no samples")),
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Several runs of one workload with the same seed, folded into
    /// one: each metric's median across the runs (sample counts added),
    /// operation counts and problems summed. The runs must agree on
    /// the digest.
    pub fn median_of(runs: &[Outcome]) -> Outcome {
        let mut out = Outcome::new(runs.first().map_or("", |r| r.workload.as_str()));
        out.digest = runs.first().map(|r| r.digest.clone()).unwrap_or_default();
        for r in runs {
            out.attempted += r.attempted;
            out.failed += r.failed;
            for p in &r.problems {
                out.problem(p.clone());
            }
            if r.digest != out.digest {
                out.problem(format!("digest {} differs from {}", r.digest, out.digest));
            }
            for m in &r.metrics {
                if out.metric(&m.name).is_none() {
                    let same: Vec<&Metric> =
                        runs.iter().filter_map(|x| x.metric(&m.name)).collect();
                    let values: Vec<f64> = same.iter().map(|x| x.value).collect();
                    out.push(
                        &m.name,
                        &m.unit,
                        stats::median(&values).unwrap_or(m.value),
                        same.iter().map(|x| x.n).sum(),
                    );
                }
            }
        }
        out
    }

    /// One-line JSON form (the workload process's last stdout line).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                    json::quote(&m.name),
                    json::num(m.value),
                    json::quote(&m.unit),
                    m.n
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json::quote(p)).collect();
        format!(
            "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"digest\": {}, \"problems\": [{}], \"metrics\": {{{}}}}}",
            json::quote(&self.workload),
            self.correct(),
            self.attempted,
            self.failed,
            json::quote(&self.digest),
            problems.join(", "),
            metrics.join(", ")
        )
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("report lacks `{k}`"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .filter(|x| *x >= 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("`{k}` is not a count"))
        };
        let mut out = Outcome {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            digest: field("digest")?.as_str().unwrap_or_default().to_string(),
            problems: field("problems")?
                .as_arr()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            metrics: Vec::new(),
        };
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            out.metrics.push(Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric `{name}` has no value"))?,
                n: m.get("n").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            });
        }
        Ok(out)
    }
}

/// Peak resident set (`VmHWM`) of this process in KiB, from procfs.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p50: f64, digest: &str) -> Outcome {
        let mut o = Outcome::new("w");
        o.attempted = 10;
        o.digest = digest.to_string();
        o.push("latency_ms_p50", "ms", p50, 10);
        o
    }

    #[test]
    fn runs_fold_to_per_metric_medians_and_must_agree_on_the_digest() {
        let m = Outcome::median_of(&[run(3.0, "a"), run(1.0, "a"), run(2.0, "a")]);
        assert!(m.correct());
        assert_eq!(m.attempted, 30);
        let p50 = m.metric("latency_ms_p50").expect("folded");
        assert_eq!((p50.value, p50.n), (2.0, 30));
        assert!(!Outcome::median_of(&[run(1.0, "a"), run(1.0, "b")]).correct());
    }
}
