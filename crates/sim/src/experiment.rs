//! Experiment cells and the four paper figures.
//!
//! One **cell** is `(setting, processor count, CCR)` × `reps` paired
//! instances; every instance is scheduled by BA, OIHSA and BBSA and the
//! per-instance improvement percentages over BA are averaged.
//!
//! The figures then aggregate cells exactly as the paper does:
//!
//! * **Figure 1** (homogeneous) / **Figure 3** (heterogeneous): x-axis
//!   CCR; each point averages the improvement over *all* processor
//!   counts ("results … are average value under different number of
//!   processors when CCR is 0.1–10");
//! * **Figure 2** (homogeneous) / **Figure 4** (heterogeneous): x-axis
//!   processor count; each point averages over the CCR sweep.

use crate::stats::{improvement_percent, Summary};
use es_core::{BbsaScheduler, ListScheduler, Scheduler};
use es_runner::parallel_map;
use es_workload::{ccr_values, cell_seed, generate, proc_counts, InstanceConfig, Setting};
use serde::{Deserialize, Serialize};

/// One experiment cell: a point in the sweep grid.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Speed regime.
    pub setting: Setting,
    /// Number of processors.
    pub processors: usize,
    /// Target CCR.
    pub ccr: f64,
    /// Paired instances per cell.
    pub reps: usize,
    /// Base seed (instance seeds derive from it and the coordinates).
    pub base_seed: u64,
    /// Fixed task count; `None` = the paper's `U(40, 1000)`.
    pub tasks: Option<usize>,
    /// Re-validate every produced schedule against the model.
    pub validate: bool,
    /// Additionally run the strong-probe family (BA, OIHSA-probe,
    /// BBSA-probe) on the same instances — slower; fills the
    /// `*_probe_*` fields of [`CellResult`].
    pub strong_baseline: bool,
}

/// Aggregated results of one cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell.
    pub spec: CellSpec,
    /// Mean BA makespan.
    pub ba_makespan: f64,
    /// Mean OIHSA makespan.
    pub oihsa_makespan: f64,
    /// Mean BBSA makespan.
    pub bbsa_makespan: f64,
    /// Mean per-instance improvement % of OIHSA over BA.
    pub oihsa_improvement: f64,
    /// Mean per-instance improvement % of BBSA over BA.
    pub bbsa_improvement: f64,
    /// Sample standard deviation of the OIHSA improvement.
    pub oihsa_stddev: f64,
    /// Sample standard deviation of the BBSA improvement.
    pub bbsa_stddev: f64,
    /// Mean makespan of the strong probing BA (only with
    /// [`CellSpec::strong_baseline`]).
    pub ba_probe_makespan: Option<f64>,
    /// Mean improvement % of OIHSA-probe over the probing BA.
    pub oihsa_probe_improvement: Option<f64>,
    /// Mean improvement % of BBSA-probe over the probing BA.
    pub bbsa_probe_improvement: Option<f64>,
}

/// Run every repetition of one cell (sequentially; parallelism lives at
/// the cell level in [`FigureParams`]'s grid runner).
///
/// # Panics
/// Panics if any scheduler fails (the generated WANs are connected, so
/// a failure indicates a bug) or — with `spec.validate` — if a schedule
/// violates the model.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    // The paper triple: every algorithm uses the §4.1 processor
    // criterion (see `es_core::config::ProcSelection::HybridStatic`).
    let ba = ListScheduler::ba_static();
    let oihsa = ListScheduler::oihsa();
    let bbsa = BbsaScheduler::new();
    // The strong-probe family (optional).
    let ba_probe = ListScheduler::ba();
    let oihsa_probe = ListScheduler::oihsa_probing();
    let bbsa_probe = BbsaScheduler::with_config(es_core::bbsa::BbsaConfig::probing());

    let mut ba_ms = Vec::with_capacity(spec.reps);
    let mut oi_ms = Vec::with_capacity(spec.reps);
    let mut bb_ms = Vec::with_capacity(spec.reps);
    let mut oi_impr = Vec::with_capacity(spec.reps);
    let mut bb_impr = Vec::with_capacity(spec.reps);
    let mut bap_ms = Vec::new();
    let mut oip_impr = Vec::new();
    let mut bbp_impr = Vec::new();

    for rep in 0..spec.reps {
        let seed = cell_seed(spec.base_seed, spec.setting, spec.processors, spec.ccr, rep);
        let mut cfg = InstanceConfig::paper(spec.setting, spec.processors, spec.ccr, seed);
        cfg.tasks = spec.tasks;
        let inst = generate(&cfg);

        let run = |s: &dyn Scheduler| -> f64 {
            let schedule = s
                .schedule(&inst.dag, &inst.topo)
                .unwrap_or_else(|e| panic!("{} failed on seed {seed}: {e}", s.name()));
            if spec.validate {
                if let Err(errs) = es_core::validate::validate(&inst.dag, &inst.topo, &schedule) {
                    panic!(
                        "{} produced an invalid schedule (seed {seed}): {errs:#?}",
                        s.name()
                    );
                }
            }
            schedule.makespan
        };

        let mb = run(&ba);
        let mo = run(&oihsa);
        let mbb = run(&bbsa);
        ba_ms.push(mb);
        oi_ms.push(mo);
        bb_ms.push(mbb);
        oi_impr.push(improvement_percent(mb, mo));
        bb_impr.push(improvement_percent(mb, mbb));

        if spec.strong_baseline {
            let mbp = run(&ba_probe);
            let mop = run(&oihsa_probe);
            let mbbp = run(&bbsa_probe);
            bap_ms.push(mbp);
            oip_impr.push(improvement_percent(mbp, mop));
            bbp_impr.push(improvement_percent(mbp, mbbp));
        }
    }

    CellResult {
        spec: *spec,
        ba_makespan: Summary::of(&ba_ms).mean,
        oihsa_makespan: Summary::of(&oi_ms).mean,
        bbsa_makespan: Summary::of(&bb_ms).mean,
        oihsa_improvement: Summary::of(&oi_impr).mean,
        bbsa_improvement: Summary::of(&bb_impr).mean,
        oihsa_stddev: Summary::of(&oi_impr).stddev,
        bbsa_stddev: Summary::of(&bb_impr).stddev,
        ba_probe_makespan: spec.strong_baseline.then(|| Summary::of(&bap_ms).mean),
        oihsa_probe_improvement: spec.strong_baseline.then(|| Summary::of(&oip_impr).mean),
        bbsa_probe_improvement: spec.strong_baseline.then(|| Summary::of(&bbp_impr).mean),
    }
}

/// Run a cell with **adaptive repetitions**: keep adding paired
/// instances until the 95% confidence half-width of both improvement
/// series drops below `ci_target` (percentage points) or `max_reps` is
/// reached. `spec.reps` is the minimum (and the batch growth unit).
///
/// Deterministic: repetition `k` always uses the same derived seed, so
/// an adaptive run's first `n` instances coincide with a fixed-rep run
/// of `n`.
pub fn run_cell_adaptive(spec: &CellSpec, ci_target: f64, max_reps: usize) -> CellResult {
    assert!(ci_target > 0.0 && max_reps >= spec.reps.max(2));
    let mut reps = spec.reps.max(2);
    loop {
        let mut s = *spec;
        s.reps = reps;
        let result = run_cell(&s);
        let ci = |stddev: f64| 1.96 * stddev / (reps as f64).sqrt();
        if reps >= max_reps
            || (ci(result.oihsa_stddev) <= ci_target && ci(result.bbsa_stddev) <= ci_target)
        {
            return result;
        }
        reps = (reps * 2).min(max_reps);
    }
}

/// Parameters of a figure reproduction run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureParams {
    /// Repetitions per cell.
    pub reps: usize,
    /// Fixed task count (`None` = paper's `U(40,1000)`; fix it to bound
    /// runtime).
    pub tasks: Option<usize>,
    /// Base seed.
    pub base_seed: u64,
    /// Processor counts to sweep (default: the paper's).
    pub procs: Vec<usize>,
    /// CCR values to sweep (default: the paper's 19 values).
    pub ccrs: Vec<f64>,
    /// Worker threads for the cell sweep. The default is the one
    /// resolved [`es_runner::Threads`] config (`ES_THREADS`
    /// override, else the CPU count); CLI flags may still override the
    /// resolved value explicitly.
    pub threads: usize,
    /// Validate every schedule (slower; on by default in tests).
    pub validate: bool,
    /// Also run the strong-probe family on every instance (see
    /// [`CellSpec::strong_baseline`]).
    pub strong_baseline: bool,
    /// Print a progress line to stderr as each cell completes.
    pub progress: bool,
}

impl Default for FigureParams {
    fn default() -> Self {
        Self {
            reps: 3,
            tasks: None,
            base_seed: 20060810, // ICPP 2006
            procs: proc_counts(),
            ccrs: ccr_values(),
            threads: es_runner::Threads::resolve().get(),
            validate: false,
            strong_baseline: false,
            progress: false,
        }
    }
}

/// One reproduced figure: series of improvement percentages indexed by
/// the x-axis labels.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureResult {
    /// Figure title (e.g. "Figure 1 …").
    pub title: String,
    /// x-axis name ("CCR" or "processors").
    pub x_name: String,
    /// x-axis labels.
    pub x: Vec<String>,
    /// Mean improvement % of OIHSA over BA per x value.
    pub oihsa: Vec<f64>,
    /// Mean improvement % of BBSA over BA per x value.
    pub bbsa: Vec<f64>,
    /// Every underlying cell (for EXPERIMENTS.md and debugging).
    pub cells: Vec<CellResult>,
}

impl FigureResult {
    /// Render the figure as a text table (what the CLI prints).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(
            out,
            "{:>12} {:>14} {:>14}",
            self.x_name, "OIHSA vs BA %", "BBSA vs BA %"
        );
        for i in 0..self.x.len() {
            let _ = writeln!(
                out,
                "{:>12} {:>14.2} {:>14.2}",
                self.x[i], self.oihsa[i], self.bbsa[i]
            );
        }
        out
    }
}

impl FigureParams {
    /// Run the full grid of cells for `setting`, in parallel.
    fn run_grid(&self, setting: Setting) -> Vec<CellResult> {
        let mut specs = Vec::new();
        for &procs in &self.procs {
            for &ccr in &self.ccrs {
                specs.push(CellSpec {
                    setting,
                    processors: procs,
                    ccr,
                    reps: self.reps,
                    base_seed: self.base_seed,
                    tasks: self.tasks,
                    validate: self.validate,
                    strong_baseline: self.strong_baseline,
                });
            }
        }
        let total = specs.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        parallel_map(&specs, self.threads, |spec| {
            let r = run_cell(spec);
            if self.progress {
                let k = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                eprintln!(
                    "  [{k}/{total}] {:?} procs={} ccr={}: OIHSA {:+.1}% BBSA {:+.1}%",
                    spec.setting,
                    spec.processors,
                    spec.ccr,
                    r.oihsa_improvement,
                    r.bbsa_improvement
                );
            }
            r
        })
    }

    /// Aggregate a grid along one axis.
    fn aggregate<K: PartialEq + ToString>(
        cells: &[CellResult],
        keys: &[K],
        key_of: impl Fn(&CellResult) -> K,
    ) -> (Vec<String>, Vec<f64>, Vec<f64>) {
        let mut labels = Vec::new();
        let mut oihsa = Vec::new();
        let mut bbsa = Vec::new();
        for k in keys {
            let group: Vec<&CellResult> = cells.iter().filter(|c| key_of(c) == *k).collect();
            let oi: Vec<f64> = group.iter().map(|c| c.oihsa_improvement).collect();
            let bb: Vec<f64> = group.iter().map(|c| c.bbsa_improvement).collect();
            labels.push(k.to_string());
            oihsa.push(Summary::of(&oi).mean);
            bbsa.push(Summary::of(&bb).mean);
        }
        (labels, oihsa, bbsa)
    }
}

/// Figure 1: homogeneous systems, improvement vs CCR (averaged over
/// processor counts).
pub fn fig1(params: &FigureParams) -> FigureResult {
    by_ccr(
        params,
        Setting::Homogeneous,
        "Figure 1: improvement vs CCR (homogeneous)",
    )
}

/// Figure 2: homogeneous systems, improvement vs processor count
/// (averaged over the CCR sweep).
pub fn fig2(params: &FigureParams) -> FigureResult {
    by_procs(
        params,
        Setting::Homogeneous,
        "Figure 2: improvement vs processors (homogeneous)",
    )
}

/// Figure 3: heterogeneous systems, improvement vs CCR.
pub fn fig3(params: &FigureParams) -> FigureResult {
    by_ccr(
        params,
        Setting::Heterogeneous,
        "Figure 3: improvement vs CCR (heterogeneous)",
    )
}

/// Figure 4: heterogeneous systems, improvement vs processor count.
pub fn fig4(params: &FigureParams) -> FigureResult {
    by_procs(
        params,
        Setting::Heterogeneous,
        "Figure 4: improvement vs processors (heterogeneous)",
    )
}

/// Compute both figures of one setting (CCR-axis and processor-axis)
/// from a single grid of cells — the paper's Figures 1+2 share their
/// underlying experiments, as do Figures 3+4.
pub fn fig_pair(params: &FigureParams, setting: Setting) -> (FigureResult, FigureResult) {
    let cells = params.run_grid(setting);
    let (ccr_title, proc_title) = match setting {
        Setting::Homogeneous => (
            "Figure 1: improvement vs CCR (homogeneous)",
            "Figure 2: improvement vs processors (homogeneous)",
        ),
        Setting::Heterogeneous => (
            "Figure 3: improvement vs CCR (heterogeneous)",
            "Figure 4: improvement vs processors (heterogeneous)",
        ),
    };
    let (x, oihsa, bbsa) = FigureParams::aggregate(&cells, &params.ccrs, |c| c.spec.ccr);
    let by_ccr = FigureResult {
        title: ccr_title.to_string(),
        x_name: "CCR".to_string(),
        x,
        oihsa,
        bbsa,
        cells: cells.clone(),
    };
    let (x, oihsa, bbsa) = FigureParams::aggregate(&cells, &params.procs, |c| c.spec.processors);
    let by_procs = FigureResult {
        title: proc_title.to_string(),
        x_name: "processors".to_string(),
        x,
        oihsa,
        bbsa,
        cells,
    };
    (by_ccr, by_procs)
}

fn by_ccr(params: &FigureParams, setting: Setting, title: &str) -> FigureResult {
    let cells = params.run_grid(setting);
    let (x, oihsa, bbsa) = FigureParams::aggregate(&cells, &params.ccrs, |c| c.spec.ccr);
    FigureResult {
        title: title.to_string(),
        x_name: "CCR".to_string(),
        x,
        oihsa,
        bbsa,
        cells,
    }
}

fn by_procs(params: &FigureParams, setting: Setting, title: &str) -> FigureResult {
    let cells = params.run_grid(setting);
    let (x, oihsa, bbsa) = FigureParams::aggregate(&cells, &params.procs, |c| c.spec.processors);
    FigureResult {
        title: title.to_string(),
        x_name: "processors".to_string(),
        x,
        oihsa,
        bbsa,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> FigureParams {
        FigureParams {
            reps: 2,
            tasks: Some(30),
            base_seed: 1,
            procs: vec![2, 4],
            ccrs: vec![0.5, 5.0],
            threads: 2,
            validate: true,
            strong_baseline: false,
            progress: false,
        }
    }

    #[test]
    fn run_cell_produces_consistent_numbers() {
        let spec = CellSpec {
            setting: Setting::Homogeneous,
            processors: 4,
            ccr: 1.0,
            reps: 2,
            base_seed: 7,
            tasks: Some(25),
            validate: true,
            strong_baseline: true,
        };
        let r = run_cell(&spec);
        assert!(r.ba_makespan > 0.0);
        assert!(r.oihsa_makespan > 0.0);
        assert!(r.bbsa_makespan > 0.0);
        // Improvements are consistent with the mean makespans in sign
        // (they are means of per-instance ratios, so only sanity-check
        // the range).
        assert!(r.oihsa_improvement.abs() <= 100.0);
        assert!(r.bbsa_improvement.abs() <= 100.0);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let spec = CellSpec {
            setting: Setting::Heterogeneous,
            processors: 4,
            ccr: 2.0,
            reps: 2,
            base_seed: 3,
            tasks: Some(25),
            validate: false,
            strong_baseline: false,
        };
        let a = run_cell(&spec);
        let b = run_cell(&spec);
        assert_eq!(a.ba_makespan, b.ba_makespan);
        assert_eq!(a.oihsa_improvement, b.oihsa_improvement);
        assert_eq!(a.bbsa_improvement, b.bbsa_improvement);
    }

    #[test]
    fn fig1_has_one_point_per_ccr() {
        let p = tiny_params();
        let f = fig1(&p);
        assert_eq!(f.x.len(), 2);
        assert_eq!(f.oihsa.len(), 2);
        assert_eq!(f.bbsa.len(), 2);
        assert_eq!(f.cells.len(), 4, "2 procs × 2 ccrs");
        assert!(f.to_table().contains("CCR"));
    }

    #[test]
    fn fig2_has_one_point_per_proc_count() {
        let p = tiny_params();
        let f = fig2(&p);
        assert_eq!(f.x, vec!["2", "4"]);
    }

    #[test]
    fn figures_cover_both_settings() {
        let p = tiny_params();
        let f3 = fig3(&p);
        let f4 = fig4(&p);
        assert!(f3
            .cells
            .iter()
            .all(|c| c.spec.setting == Setting::Heterogeneous));
        assert!(f4
            .cells
            .iter()
            .all(|c| c.spec.setting == Setting::Heterogeneous));
    }

    #[test]
    fn adaptive_cell_stops_at_max_or_ci() {
        let spec = CellSpec {
            setting: Setting::Homogeneous,
            processors: 4,
            ccr: 1.0,
            reps: 2,
            base_seed: 21,
            tasks: Some(25),
            validate: false,
            strong_baseline: false,
        };
        // Absurdly tight CI: must stop at max_reps.
        let r = run_cell_adaptive(&spec, 1e-9, 8);
        assert_eq!(r.spec.reps, 8);
        // Absurdly loose CI: stops at the minimum.
        let r = run_cell_adaptive(&spec, 1e9, 8);
        assert_eq!(r.spec.reps, 2);
    }

    #[test]
    fn adaptive_prefix_matches_fixed_run() {
        let spec = CellSpec {
            setting: Setting::Heterogeneous,
            processors: 4,
            ccr: 2.0,
            reps: 3,
            base_seed: 77,
            tasks: Some(25),
            validate: false,
            strong_baseline: false,
        };
        let adaptive = run_cell_adaptive(&spec, 1e9, 6); // stops at 3 reps
        let fixed = run_cell(&spec);
        assert_eq!(adaptive.ba_makespan.to_bits(), fixed.ba_makespan.to_bits());
    }

    #[test]
    fn fig_pair_matches_individual_figures() {
        let p = tiny_params();
        let (f1, f2) = fig_pair(&p, Setting::Homogeneous);
        let f1_solo = fig1(&p);
        let f2_solo = fig2(&p);
        assert_eq!(f1.x, f1_solo.x);
        assert_eq!(f2.x, f2_solo.x);
        for (a, b) in f1.oihsa.iter().zip(&f1_solo.oihsa) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in f2.bbsa.iter().zip(&f2_solo.bbsa) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(f1.cells.len(), f2.cells.len());
    }

    #[test]
    fn proposed_algorithms_win_on_average_in_tiny_sweep() {
        // The headline claim, at toy scale: averaged over a small grid,
        // OIHSA and BBSA do not lose to BA.
        let p = FigureParams {
            reps: 3,
            tasks: Some(40),
            base_seed: 99,
            procs: vec![4],
            ccrs: vec![2.0, 5.0],
            threads: 2,
            validate: true,
            strong_baseline: false,
            progress: false,
        };
        let f = fig1(&p);
        let mean_oi: f64 = f.oihsa.iter().sum::<f64>() / f.oihsa.len() as f64;
        let mean_bb: f64 = f.bbsa.iter().sum::<f64>() / f.bbsa.len() as f64;
        assert!(mean_oi > -5.0, "OIHSA mean improvement {mean_oi}");
        assert!(mean_bb > -5.0, "BBSA mean improvement {mean_bb}");
    }
}
