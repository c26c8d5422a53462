//! Determinism: the whole pipeline — generation, scheduling, the
//! parallel experiment runner — must be bit-reproducible from seeds.

use es_core::{BbsaScheduler, ListScheduler, Scheduler};
use es_runner::parallel_map;
use es_sim::{run_cell, CellSpec};
use es_workload::{generate, InstanceConfig, Setting};

#[test]
fn instances_are_bit_identical_across_generations() {
    let cfg = InstanceConfig::paper(Setting::Heterogeneous, 12, 3.0, 777).with_tasks(70);
    let a = generate(&cfg);
    let b = generate(&cfg);
    assert_eq!(a.dag.task_count(), b.dag.task_count());
    for t in a.dag.task_ids() {
        assert_eq!(a.dag.weight(t).to_bits(), b.dag.weight(t).to_bits());
    }
    for e in a.dag.edge_ids() {
        assert_eq!(a.dag.cost(e).to_bits(), b.dag.cost(e).to_bits());
        assert_eq!(a.dag.edge(e).src, b.dag.edge(e).src);
        assert_eq!(a.dag.edge(e).dst, b.dag.edge(e).dst);
    }
    for l in a.topo.link_ids() {
        assert_eq!(
            a.topo.link_speed(l).to_bits(),
            b.topo.link_speed(l).to_bits()
        );
    }
}

#[test]
fn schedules_are_bit_identical_across_runs() {
    let cfg = InstanceConfig::paper(Setting::Heterogeneous, 10, 2.0, 4242).with_tasks(60);
    let inst = generate(&cfg);
    for sched in [
        Box::new(ListScheduler::ba()) as Box<dyn Scheduler>,
        Box::new(ListScheduler::ba_static()),
        Box::new(ListScheduler::oihsa()),
        Box::new(BbsaScheduler::new()),
    ] {
        let s1 = sched.schedule(&inst.dag, &inst.topo).unwrap();
        let s2 = sched.schedule(&inst.dag, &inst.topo).unwrap();
        assert_eq!(
            s1.makespan.to_bits(),
            s2.makespan.to_bits(),
            "{}",
            sched.name()
        );
        for (a, b) in s1.tasks.iter().zip(&s2.tasks) {
            assert_eq!(a.proc, b.proc);
            assert_eq!(a.start.to_bits(), b.start.to_bits());
            assert_eq!(a.finish.to_bits(), b.finish.to_bits());
        }
    }
}

#[test]
fn cell_results_do_not_depend_on_thread_count() {
    let specs: Vec<CellSpec> = [0.5, 2.0]
        .iter()
        .map(|&ccr| CellSpec {
            setting: Setting::Homogeneous,
            processors: 4,
            ccr,
            reps: 2,
            base_seed: 11,
            tasks: Some(30),
            validate: false,
            strong_baseline: false,
        })
        .collect();

    let seq = parallel_map(&specs, 1, run_cell);
    let par = parallel_map(&specs, 4, run_cell);
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.ba_makespan.to_bits(), b.ba_makespan.to_bits());
        assert_eq!(a.oihsa_makespan.to_bits(), b.oihsa_makespan.to_bits());
        assert_eq!(a.bbsa_makespan.to_bits(), b.bbsa_makespan.to_bits());
    }
}

#[test]
fn different_seeds_give_different_instances() {
    let a = generate(&InstanceConfig::paper(Setting::Homogeneous, 8, 1.0, 1).with_tasks(60));
    let b = generate(&InstanceConfig::paper(Setting::Homogeneous, 8, 1.0, 2).with_tasks(60));
    let costs_differ = a
        .dag
        .edge_ids()
        .take(a.dag.edge_count().min(b.dag.edge_count()))
        .any(|e| e.index() < b.dag.edge_count() && a.dag.cost(e) != b.dag.cost(e));
    assert!(
        costs_differ || a.dag.edge_count() != b.dag.edge_count(),
        "seeds 1 and 2 produced identical instances"
    );
}

#[test]
fn run_cell_repeatable_with_strong_baseline() {
    let spec = CellSpec {
        setting: Setting::Heterogeneous,
        processors: 4,
        ccr: 1.0,
        reps: 2,
        base_seed: 5,
        tasks: Some(25),
        validate: true,
        strong_baseline: true,
    };
    let a = run_cell(&spec);
    let b = run_cell(&spec);
    assert_eq!(a.ba_makespan.to_bits(), b.ba_makespan.to_bits());
    assert_eq!(
        a.ba_probe_makespan.unwrap().to_bits(),
        b.ba_probe_makespan.unwrap().to_bits()
    );
    assert_eq!(
        a.oihsa_probe_improvement.unwrap().to_bits(),
        b.oihsa_probe_improvement.unwrap().to_bits()
    );
}
