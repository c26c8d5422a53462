//! Cross-backend makespan comparison on paper-style workload grids.
//!
//! One instance stream, three link models: for each
//! [`LinkBackend`] the instance is transformed with
//! [`LinkBackend::prepare`] and scheduled by that backend's natural
//! scheduler family — the slotted pair (`ba_static`, `oihsa`) on the
//! slot-queue and store-and-forward models, BBSA on the fluid model.
//! Reported makespans are comparable because every backend schedules
//! the *same* underlying workload; the store-and-forward rows pay the
//! model's quantization + per-hop forwarding latency, which is exactly
//! the realism gap the comparison quantifies.

use es_core::{validate, BbsaScheduler, LinkBackend, ListScheduler, Scheduler};
use es_runner::parallel_map;
use es_workload::{cell_seed, generate, InstanceConfig, Setting};

/// Parameters of one backend-comparison run (a single workload cell
/// scheduled under every backend in `backends`).
#[derive(Clone, Debug)]
pub struct BackendCompareSpec {
    /// Speed regime of the generated instances.
    pub setting: Setting,
    /// Processor count of the generated topologies.
    pub processors: usize,
    /// Communication-to-computation ratio of the generated DAGs.
    pub ccr: f64,
    /// Repetitions (independent instances) per backend row.
    pub reps: usize,
    /// Base seed; per-rep seeds come from [`cell_seed`].
    pub base_seed: u64,
    /// Override the paper's task count (for smoke runs).
    pub tasks: Option<usize>,
    /// Validate every schedule against the transformed instance.
    pub validate: bool,
    /// Backends to compare; [`LinkBackend::all`] for the full ladder.
    pub backends: Vec<LinkBackend>,
    /// Worker threads (rows are independent).
    pub threads: usize,
}

impl BackendCompareSpec {
    /// A paper-grid cell: homogeneous, 8 processors, CCR 1, validated,
    /// across the full backend ladder.
    #[must_use]
    pub fn paper_cell(reps: usize, tasks: Option<usize>, base_seed: u64) -> Self {
        Self {
            setting: Setting::Homogeneous,
            processors: 8,
            ccr: 1.0,
            reps,
            base_seed,
            tasks,
            validate: true,
            backends: LinkBackend::all(),
            threads: es_runner::Threads::resolve().get(),
        }
    }
}

/// One row of the comparison: a (backend, scheduler) pair's mean
/// makespan over the spec's repetitions.
#[derive(Clone, Debug)]
pub struct BackendRow {
    /// Backend label (includes store-and-forward timing parameters).
    pub backend: String,
    /// Scheduler that produced the schedules.
    pub scheduler: &'static str,
    /// Mean makespan over the repetitions.
    pub mean_makespan: f64,
    /// Mean per-instance ratio of this row's makespan to the slot
    /// backend's OIHSA makespan on the same instance (the ladder
    /// baseline); `1.0` for the baseline row itself.
    pub vs_slot_oihsa: f64,
}

/// The scheduler family native to a backend, as `(label, scheduler)`
/// pairs. Slot-family backends run the paper's slotted pair (with the
/// backend's switching adaptation); the fluid backend runs BBSA, the
/// only scheduler built on bandwidth sharing.
fn roster(backend: LinkBackend) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    match backend {
        LinkBackend::SlotQueue | LinkBackend::StoreForward(_) => vec![
            (
                "ba_static",
                Box::new(ListScheduler::with_config(
                    backend.adapt(es_core::ListConfig::ba_static()),
                )) as Box<dyn Scheduler>,
            ),
            (
                "oihsa",
                Box::new(ListScheduler::with_config(
                    backend.adapt(es_core::ListConfig::oihsa()),
                )),
            ),
        ],
        LinkBackend::Fluid => vec![("bbsa", Box::new(BbsaScheduler::new()) as Box<dyn Scheduler>)],
    }
}

/// Run the comparison: one [`BackendRow`] per (backend, scheduler), in
/// `spec.backends` order with each backend's roster order preserved.
///
/// # Panics
/// Panics if any scheduler fails on a generated instance or (with
/// `spec.validate`) produces an invalid schedule — both indicate bugs.
#[allow(clippy::cast_precision_loss)]
pub fn compare_backends(spec: &BackendCompareSpec) -> Vec<BackendRow> {
    // Baseline stream: slot-backend OIHSA makespan per instance.
    let baseline: Vec<f64> = (0..spec.reps)
        .map(|rep| schedule_rep(spec, rep, LinkBackend::SlotQueue, &ListScheduler::oihsa()))
        .collect();

    let items: Vec<(LinkBackend, usize)> = spec
        .backends
        .iter()
        .flat_map(|&b| (0..roster(b).len()).map(move |i| (b, i)))
        .collect();
    parallel_map(&items, spec.threads, |&(backend, idx)| {
        let (label, scheduler) = roster(backend).swap_remove(idx);
        let mut sum = 0.0f64;
        let mut ratio_sum = 0.0f64;
        for rep in 0..spec.reps {
            let ms = schedule_rep(spec, rep, backend, scheduler.as_ref());
            sum += ms;
            ratio_sum += ms / baseline[rep];
        }
        let n = spec.reps.max(1) as f64;
        BackendRow {
            backend: backend.to_string(),
            scheduler: label,
            mean_makespan: sum / n,
            vs_slot_oihsa: ratio_sum / n,
        }
    })
}

/// Schedule one repetition's instance under one backend and return the
/// makespan.
fn schedule_rep(
    spec: &BackendCompareSpec,
    rep: usize,
    backend: LinkBackend,
    scheduler: &dyn Scheduler,
) -> f64 {
    let seed = cell_seed(spec.base_seed, spec.setting, spec.processors, spec.ccr, rep);
    let mut cfg = InstanceConfig::paper(spec.setting, spec.processors, spec.ccr, seed);
    cfg.tasks = spec.tasks;
    let inst = generate(&cfg);
    let (dag, topo) = backend.prepare(&inst.dag, &inst.topo);
    let schedule = scheduler.schedule(&dag, &topo).unwrap_or_else(|e| {
        panic!(
            "{} failed on seed {seed} ({backend}): {e}",
            scheduler.name()
        )
    });
    if spec.validate {
        validate::validate(&dag, &topo, &schedule).unwrap_or_else(|r| {
            panic!(
                "{} produced invalid schedule on seed {seed} ({backend}): {r:?}",
                scheduler.name()
            )
        });
    }
    schedule.makespan
}

/// Render rows as the Markdown table EXPERIMENTS.md embeds.
#[must_use]
pub fn markdown_table(spec: &BackendCompareSpec, rows: &[BackendRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| backend | scheduler | mean makespan | vs slot/OIHSA |\n|---|---|---:|---:|"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {:.3}× |",
            r.backend, r.scheduler, r.mean_makespan, r.vs_slot_oihsa
        );
    }
    let _ = writeln!(
        out,
        "\n({:?} setting, {} processors, CCR {}, {} reps, seed {}, tasks {:?})",
        spec.setting, spec.processors, spec.ccr, spec.reps, spec.base_seed, spec.tasks
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BackendCompareSpec {
        let mut spec = BackendCompareSpec::paper_cell(2, Some(16), 42);
        spec.processors = 4;
        spec.threads = 2;
        spec
    }

    #[test]
    fn full_ladder_produces_one_row_per_pair() {
        let spec = tiny_spec();
        let rows = compare_backends(&spec);
        // slot×2 + fluid×1 + saf×2.
        assert_eq!(rows.len(), 5);
        let pairs: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r.backend.as_str(), r.scheduler))
            .collect();
        assert_eq!(
            pairs,
            [
                ("slot", "ba_static"),
                ("slot", "oihsa"),
                ("fluid", "bbsa"),
                ("saf:1:0.5", "ba_static"),
                ("saf:1:0.5", "oihsa"),
            ]
        );
        for r in &rows {
            assert!(r.mean_makespan > 0.0, "{}/{}", r.backend, r.scheduler);
            assert!(r.vs_slot_oihsa > 0.0);
        }
        // The slot/OIHSA row is the baseline of its own ratio.
        assert!((rows[1].vs_slot_oihsa - 1.0).abs() < 1e-12);
        // Store-and-forward can only add work (quantization rounds up,
        // latency delays hops): its OIHSA row must not beat slot OIHSA
        // by more than scheduling noise.
        assert!(
            rows[4].vs_slot_oihsa >= 0.9,
            "saf OIHSA suspiciously fast: {}",
            rows[4].vs_slot_oihsa
        );
    }

    #[test]
    fn comparison_is_deterministic_across_thread_counts() {
        let mut spec = tiny_spec();
        let a = compare_backends(&spec);
        spec.threads = 1;
        let b = compare_backends(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_makespan.to_bits(), y.mean_makespan.to_bits());
            assert_eq!(x.vs_slot_oihsa.to_bits(), y.vs_slot_oihsa.to_bits());
        }
    }

    #[test]
    fn markdown_table_has_a_row_per_result() {
        let spec = tiny_spec();
        let rows = compare_backends(&spec);
        let md = markdown_table(&spec, &rows);
        assert_eq!(
            md.lines().filter(|l| l.starts_with("| ")).count(),
            rows.len() + 1
        );
        assert!(md.contains("| slot | oihsa |"));
        assert!(md.contains("| fluid | bbsa |"));
    }
}
