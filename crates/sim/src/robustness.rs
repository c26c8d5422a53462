//! Robustness sweep: fault intensity × scheduler → degradation and
//! repair statistics.
//!
//! For each (scheduler, intensity) pair this module replays the
//! scheduler's output under two seeded [`FaultPlan`]s per repetition:
//!
//! * a **soft** plan (weight jitter, link degradation, transient
//!   outages) replayed with [`execute_with`] — the realized-over-
//!   scheduled makespan ratio is the *degradation*;
//! * a **hard** plan (the same soft faults plus one processor and one
//!   link hard failure) — [`execute_with`] reports how often the
//!   original schedule becomes infeasible, and [`repair()`]
//!   reports how often an audit-clean repaired schedule exists and how
//!   much makespan it costs.
//!
//! All randomness flows from [`cell_seed`] plus a fault-stream
//! constant, so a sweep is reproducible bit for bit at any thread
//! count (cells are independent; the runner preserves input order).

use es_core::{execute_with, repair, FaultPlan, FaultSpec, LinkBackend, ListScheduler, Scheduler};
use es_runner::parallel_map;
use es_workload::{cell_seed, generate, InstanceConfig, Setting};

/// Parameters of one robustness sweep (one workload cell swept over
/// fault intensities for every scheduler under test).
#[derive(Clone, Debug)]
pub struct RobustnessSpec {
    /// Speed regime of the generated instances.
    pub setting: Setting,
    /// Processor count of the generated topologies.
    pub processors: usize,
    /// Communication-to-computation ratio of the generated DAGs.
    pub ccr: f64,
    /// Repetitions (independent instances) per (scheduler, intensity).
    pub reps: usize,
    /// Base seed; per-rep seeds come from [`cell_seed`].
    pub base_seed: u64,
    /// Override the paper's task count (for smoke runs).
    pub tasks: Option<usize>,
    /// Fault intensities to sweep, each in `[0, 1]`.
    pub intensities: Vec<f64>,
    /// Worker threads for the sweep. Callers should seed this from the
    /// one resolved [`es_runner::Threads`] config (`ES_THREADS`
    /// override, else the CPU count) rather than consulting
    /// `default_threads()` ad hoc; the CLI inherits it through
    /// [`crate::FigureParams::default`].
    pub threads: usize,
}

/// Aggregated robustness statistics for one (scheduler, intensity)
/// pair.
#[derive(Clone, Debug)]
pub struct RobustnessCell {
    /// Scheduler label (`ba_static` or `oihsa`).
    pub scheduler: &'static str,
    /// Fault intensity this row was measured at.
    pub intensity: f64,
    /// Repetitions aggregated into this row.
    pub reps: usize,
    /// Mean realized/scheduled makespan ratio under the soft plan.
    pub mean_degradation: f64,
    /// 95th percentile of the same ratio (by sorted index).
    pub p95_degradation: f64,
    /// Share of reps where the hard plan made the original schedule
    /// infeasible (some decision outlives a dead resource).
    pub infeasible_rate: f64,
    /// Share of reps where [`repair()`] produced an audit-clean schedule.
    pub repair_success_rate: f64,
    /// Mean repaired/original makespan ratio among successful repairs
    /// (`0.0` when no repair succeeded).
    pub mean_repair_inflation: f64,
    /// Mean number of re-placed tasks among successful repairs.
    pub mean_moved_tasks: f64,
    /// Share of successful repairs that needed the basic-insertion
    /// fallback.
    pub fallback_rate: f64,
}

/// Scheduler labels swept by [`run_robustness`], in output order.
pub const ROBUSTNESS_SCHEDULERS: [&str; 2] = ["ba_static", "oihsa"];

fn scheduler_for(label: &str) -> ListScheduler {
    match label {
        "ba_static" => ListScheduler::ba_static(),
        "oihsa" => ListScheduler::oihsa(),
        other => panic!("unknown robustness scheduler {other}"),
    }
}

/// Domain-separation constant folded into every fault-stream seed so
/// fault draws never alias the instance-generation stream.
const FAULT_STREAM: u64 = 0xFA17_5EED_0000_0000;

/// Seed for the fault stream of one (instance, intensity) pair — the
/// same derivation everywhere (sweep, CLI export, CI smoke) so every
/// consumer draws the identical [`FaultPlan`].
pub fn fault_seed(instance_seed: u64, intensity: f64) -> u64 {
    instance_seed ^ FAULT_STREAM ^ intensity.to_bits().rotate_left(17)
}

/// 95th percentile by sorted index (nearest-rank); `0.0` for an empty
/// sample.
fn p95(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((samples.len() as f64) * 0.95).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the sweep: one [`RobustnessCell`] per (scheduler, intensity),
/// schedulers outermost, in [`ROBUSTNESS_SCHEDULERS`] order.
///
/// # Panics
/// Panics if a scheduler fails on a generated instance or a slotted
/// schedule fails to replay — both indicate a bug, and the runner
/// reports the offending work item's index and message.
pub fn run_robustness(spec: &RobustnessSpec) -> Vec<RobustnessCell> {
    // The slot-queue transform is a pair of plain clones (the topology
    // keeps its signature), so delegating here is bitwise-neutral.
    run_robustness_backend(spec, LinkBackend::SlotQueue)
}

/// [`run_robustness`] against a specific link-model backend: instances
/// are transformed with [`LinkBackend::prepare`] and the schedulers'
/// switching is adapted with [`LinkBackend::adapt`] before the fault
/// sweep. The fluid backend leaves the slotted sweep schedulers
/// untouched (only BBSA runs natively on fluid links), so its cells
/// equal the slot-queue cells by construction.
pub fn run_robustness_backend(spec: &RobustnessSpec, backend: LinkBackend) -> Vec<RobustnessCell> {
    let items: Vec<(&'static str, f64)> = ROBUSTNESS_SCHEDULERS
        .iter()
        .flat_map(|&s| spec.intensities.iter().map(move |&i| (s, i)))
        .collect();
    parallel_map(&items, spec.threads, |&(label, intensity)| {
        run_pair(spec, backend, label, intensity)
    })
}

#[allow(clippy::cast_precision_loss)]
fn run_pair(
    spec: &RobustnessSpec,
    backend: LinkBackend,
    label: &'static str,
    intensity: f64,
) -> RobustnessCell {
    let scheduler = ListScheduler::with_config(backend.adapt(*scheduler_for(label).config()));
    let mut degradation = Vec::with_capacity(spec.reps);
    let mut infeasible = 0usize;
    let mut successes = 0usize;
    let mut fallbacks = 0usize;
    let mut inflation_sum = 0.0f64;
    let mut moved_sum = 0usize;

    for rep in 0..spec.reps {
        let seed = cell_seed(spec.base_seed, spec.setting, spec.processors, spec.ccr, rep);
        let mut cfg = InstanceConfig::paper(spec.setting, spec.processors, spec.ccr, seed);
        cfg.tasks = spec.tasks;
        let inst = generate(&cfg);
        let (dag, topo) = backend.prepare(&inst.dag, &inst.topo);
        let schedule = scheduler
            .schedule(&dag, &topo)
            .unwrap_or_else(|e| panic!("{label} failed on seed {seed}: {e}"));
        let fseed = fault_seed(seed, intensity);

        let soft = FaultPlan::seeded(
            &dag,
            &topo,
            &FaultSpec::soft(intensity, schedule.makespan),
            fseed,
        );
        let perturbed = execute_with(&dag, &topo, &schedule, &soft)
            .unwrap_or_else(|e| panic!("{label} replay failed on seed {seed}: {e}"));
        degradation.push(perturbed.realized_makespan() / schedule.makespan);

        let hard = FaultPlan::seeded(
            &dag,
            &topo,
            &FaultSpec {
                intensity,
                horizon: schedule.makespan,
                kill_proc: true,
                kill_link: true,
            },
            fseed.wrapping_add(1),
        );
        let under_failure = execute_with(&dag, &topo, &schedule, &hard)
            .unwrap_or_else(|e| panic!("{label} replay failed on seed {seed}: {e}"));
        if !under_failure.is_feasible() {
            infeasible += 1;
        }
        if let Ok(outcome) = repair(&dag, &topo, &schedule, &hard) {
            successes += 1;
            inflation_sum += outcome.schedule.makespan / schedule.makespan;
            moved_sum += outcome.moved_tasks.len();
            if outcome.used_fallback {
                fallbacks += 1;
            }
        }
    }

    let mean_degradation = degradation.iter().sum::<f64>() / spec.reps.max(1) as f64;
    RobustnessCell {
        scheduler: label,
        intensity,
        reps: spec.reps,
        mean_degradation,
        p95_degradation: p95(&mut degradation),
        infeasible_rate: ratio(infeasible, spec.reps),
        repair_success_rate: ratio(successes, spec.reps),
        mean_repair_inflation: if successes == 0 {
            0.0
        } else {
            inflation_sum / successes as f64
        },
        mean_moved_tasks: ratio(moved_sum, successes),
        fallback_rate: ratio(fallbacks, successes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RobustnessSpec {
        RobustnessSpec {
            setting: Setting::Homogeneous,
            processors: 4,
            ccr: 1.0,
            reps: 3,
            base_seed: 11,
            tasks: Some(20),
            intensities: vec![0.0, 0.5],
            threads: 2,
        }
    }

    #[test]
    fn sweep_shape_and_order() {
        let cells = run_robustness(&tiny_spec());
        assert_eq!(cells.len(), ROBUSTNESS_SCHEDULERS.len() * 2);
        assert_eq!(cells[0].scheduler, "ba_static");
        assert_eq!(cells[2].scheduler, "oihsa");
        assert_eq!(cells[0].intensity.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let mut spec = tiny_spec();
        let a = run_robustness(&spec);
        spec.threads = 1;
        let b = run_robustness(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_degradation.to_bits(), y.mean_degradation.to_bits());
            assert_eq!(x.p95_degradation.to_bits(), y.p95_degradation.to_bits());
            assert_eq!(
                x.mean_repair_inflation.to_bits(),
                y.mean_repair_inflation.to_bits()
            );
            assert_eq!(
                x.repair_success_rate.to_bits(),
                y.repair_success_rate.to_bits()
            );
        }
    }

    #[test]
    fn zero_intensity_soft_plan_does_not_degrade() {
        let cells = run_robustness(&tiny_spec());
        for c in cells.iter().filter(|c| c.intensity < 1e-12) {
            // ASAP replay can only finish at or before the schedule.
            assert!(
                c.mean_degradation <= 1.0 + 1e-9,
                "{}: {}",
                c.scheduler,
                c.mean_degradation
            );
            assert!(c.mean_degradation > 0.0);
        }
    }

    #[test]
    fn rates_are_probabilities_and_repairs_mostly_succeed() {
        let cells = run_robustness(&tiny_spec());
        for c in &cells {
            for r in [c.infeasible_rate, c.repair_success_rate, c.fallback_rate] {
                assert!((0.0..=1.0).contains(&r), "{}: {r}", c.scheduler);
            }
            assert!(c.p95_degradation >= c.mean_degradation - 1e-9);
            assert!(
                c.repair_success_rate > 0.5,
                "{} at {}: success {}",
                c.scheduler,
                c.intensity,
                c.repair_success_rate
            );
        }
    }

    #[test]
    fn p95_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95(&mut xs).to_bits(), 95.0f64.to_bits());
        let mut one = vec![7.0];
        assert_eq!(p95(&mut one).to_bits(), 7.0f64.to_bits());
        assert_eq!(p95(&mut []).to_bits(), 0.0f64.to_bits());
    }
}
