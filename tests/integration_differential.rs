//! Differential-testing oracle for the hot-path optimization layer
//! (DESIGN.md §10): every optimized path — route/probe cache, indexed
//! gap search, scratch-buffer searches, targeted unschedule — must
//! produce **bitwise-identical** schedules and executions to the
//! reference implementations kept behind [`Tuning::reference`].
//!
//! The matrix covers all four paper presets × several workload
//! families (the paper's random layered DAGs in both speed regimes
//! plus structured suite kernels) × eight seeds, and checks
//! `execute()` and `execute_with()` outputs bit for bit.

mod common;

use common::{families, presets, SEEDS};
use es_core::{
    diff_executions, diff_schedules, execute, execute_with, repair_with, FaultPlan, FaultSpec,
    ListConfig, ListScheduler, ProbeParallelism, Scheduler, Tuning,
};

/// The oracle: for every preset × family × seed, the optimized tuning
/// must reproduce the reference schedule, its `execute()` replay, and
/// its `execute_with()` replay under a seeded soft-fault plan, all
/// bitwise.
#[test]
fn optimized_paths_are_bitwise_identical_to_reference() {
    for &seed in &SEEDS {
        for (family, dag, topo) in families(seed) {
            for (name, cfg) in presets() {
                let run = |tuning: Tuning| {
                    ListScheduler::with_config(ListConfig { tuning, ..cfg })
                        .schedule(&dag, &topo)
                        .unwrap_or_else(|e| panic!("{name}/{family}/seed {seed}: {e}"))
                };
                let opt = run(Tuning::optimized());
                let refr = run(Tuning::reference());
                if let Some(d) = diff_schedules(&opt, &refr) {
                    panic!("{name}/{family}/seed {seed}: schedule diverged: {d}");
                }
                let eo = execute(&dag, &topo, &opt).expect("execute optimized");
                let er = execute(&dag, &topo, &refr).expect("execute reference");
                if let Some(d) = diff_executions(&eo, &er) {
                    panic!("{name}/{family}/seed {seed}: execution diverged: {d}");
                }
                // Perturbed replay: identical schedules must stay
                // identical under the same seeded fault plan.
                let spec = FaultSpec::soft(0.3, refr.makespan);
                let plan = FaultPlan::seeded(&dag, &topo, &spec, seed ^ 0xFA17);
                let po = execute_with(&dag, &topo, &opt, &plan).expect("execute_with optimized");
                let pr = execute_with(&dag, &topo, &refr, &plan).expect("execute_with reference");
                if let Some(d) = diff_executions(&po.execution, &pr.execution) {
                    panic!("{name}/{family}/seed {seed}: perturbed execution diverged: {d}");
                }
                for (a, b) in po.slack.iter().zip(&pr.slack) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name}/{family}/seed {seed}: slack"
                    );
                }
            }
        }
    }
}

/// The speculative overlay probe (DESIGN.md §11) must be bitwise
/// identical to the sequential mutate-and-rollback probe at every
/// worker count — schedules, `execute()`, `execute_with()` under a
/// seeded fault plan, and failure-aware repair — across the full
/// preset × family × seed matrix. `Workers(n)` forces the overlay path
/// regardless of the host's core count, so 2- and 4-lane runs exercise
/// real cross-thread probing wherever the suite executes.
#[test]
fn parallel_probe_is_bitwise_identical_across_thread_counts() {
    for &seed in &SEEDS {
        for (family, dag, topo) in families(seed) {
            for (name, cfg) in presets() {
                let run = |tuning: Tuning| {
                    ListScheduler::with_config(ListConfig { tuning, ..cfg })
                        .schedule(&dag, &topo)
                        .unwrap_or_else(|e| panic!("{name}/{family}/seed {seed}: {e}"))
                };
                let seq_tuning = Tuning {
                    parallel_probe: ProbeParallelism::Sequential,
                    ..Tuning::optimized()
                };
                let seq = run(seq_tuning);
                let eseq = execute(&dag, &topo, &seq).expect("execute sequential");
                let spec = FaultSpec::soft(0.3, seq.makespan);
                let plan = FaultPlan::seeded(&dag, &topo, &spec, seed ^ 0xFA17);
                let pseq = execute_with(&dag, &topo, &seq, &plan).expect("execute_with sequential");
                // Hard failure for the repair leg: kill the processor
                // of the last-finishing task halfway through.
                let victim = seq
                    .tasks
                    .iter()
                    .max_by(|a, b| a.finish.total_cmp(&b.finish))
                    .expect("non-empty schedule")
                    .proc;
                let kill = FaultPlan::kill_processor(&topo, victim, seq.makespan / 2.0);
                let rseq = repair_with(&dag, &topo, &seq, &kill, seq_tuning)
                    .unwrap_or_else(|e| panic!("{name}/{family}/seed {seed}: repair: {e}"));

                for workers in [1usize, 2, 4] {
                    let tuning = Tuning {
                        parallel_probe: ProbeParallelism::Workers(workers),
                        ..Tuning::optimized()
                    };
                    let par = run(tuning);
                    if let Some(d) = diff_schedules(&par, &seq) {
                        panic!("{name}/{family}/seed {seed}/x{workers}: schedule diverged: {d}");
                    }
                    let ep = execute(&dag, &topo, &par).expect("execute parallel");
                    if let Some(d) = diff_executions(&ep, &eseq) {
                        panic!("{name}/{family}/seed {seed}/x{workers}: execution diverged: {d}");
                    }
                    let pp = execute_with(&dag, &topo, &par, &plan).expect("execute_with parallel");
                    if let Some(d) = diff_executions(&pp.execution, &pseq.execution) {
                        panic!(
                            "{name}/{family}/seed {seed}/x{workers}: perturbed execution \
                             diverged: {d}"
                        );
                    }
                    let rp = repair_with(&dag, &topo, &par, &kill, tuning)
                        .unwrap_or_else(|e| panic!("{name}/{family}/seed {seed}: repair: {e}"));
                    if let Some(d) = diff_schedules(&rp.schedule, &rseq.schedule) {
                        panic!("{name}/{family}/seed {seed}/x{workers}: repair diverged: {d}");
                    }
                }
            }
        }
    }
}

/// Mixed tunings must also agree pairwise: cache-only and index-only
/// each reproduce the reference schedule on their own (the two
/// optimizations are independent, so any subset is bit-identical).
#[test]
fn each_optimization_is_independently_identical() {
    let seed = SEEDS[0];
    for (family, dag, topo) in families(seed) {
        for (name, cfg) in presets() {
            let run = |tuning: Tuning| {
                ListScheduler::with_config(ListConfig { tuning, ..cfg })
                    .schedule(&dag, &topo)
                    .unwrap_or_else(|e| panic!("{name}/{family}: {e}"))
            };
            let refr = run(Tuning::reference());
            for (label, tuning) in [
                (
                    "cache-only",
                    Tuning {
                        route_cache: true,
                        ..Tuning::reference()
                    },
                ),
                (
                    "index-only",
                    Tuning {
                        indexed_gaps: true,
                        ..Tuning::reference()
                    },
                ),
                (
                    "overlay-only",
                    Tuning {
                        parallel_probe: ProbeParallelism::Workers(1),
                        ..Tuning::reference()
                    },
                ),
            ] {
                let s = run(tuning);
                if let Some(d) = diff_schedules(&s, &refr) {
                    panic!("{name}/{family}/{label}: schedule diverged: {d}");
                }
            }
        }
    }
}
