//! Contention-free "classic model" list scheduler.
//!
//! This is the idealised model the paper's introduction criticises:
//! fully connected processors, every communication delivered
//! concurrently with delay `c(e)/s` and no link contention at all. It
//! is **not** one of the paper's evaluated algorithms; it exists so the
//! examples and ablations can show how far the classic model's makespan
//! estimates drift from contention-aware reality, and as the simplest
//! possible cross-check for the list-scheduling skeleton.
//!
//! The communication delay between distinct processors is
//! `c(e) / MLS` with `MLS` the topology's mean link speed (the same
//! normalisation OIHSA's §4.1 criterion uses).

use crate::procsched::{keep_better, ProcState};
use crate::schedule::{CommPlacement, SchedError, Schedule, Scheduler, TaskPlacement};
use es_dag::{priority_list, Priority, TaskGraph};
use es_net::Topology;

/// Classic-model (contention-unaware) list scheduler.
#[derive(Clone, Debug, Default)]
pub struct IdealScheduler;

impl IdealScheduler {
    /// Create the baseline scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for IdealScheduler {
    fn name(&self) -> &'static str {
        "IDEAL"
    }

    fn schedule(&self, dag: &TaskGraph, topo: &Topology) -> Result<Schedule, SchedError> {
        if topo.proc_count() == 0 {
            return Err(SchedError::NoProcessors);
        }
        let mls = topo.mean_link_speed();
        let order = priority_list(dag, Priority::BottomLevel);
        let mut procs = ProcState::new(topo);
        let mut placed: Vec<Option<TaskPlacement>> = vec![None; dag.task_count()];

        for &task in &order {
            // Earliest finish over all processors under free concurrent
            // communication.
            let weight = dag.weight(task);
            let mut best = None;
            for p in topo.proc_ids() {
                let mut dr = 0.0_f64;
                for &e in dag.in_edges(task) {
                    let edge = dag.edge(e);
                    let src = placed[edge.src.index()].expect("placed");
                    let arrival = if src.proc == p {
                        src.finish
                    } else {
                        src.finish + edge.cost / mls
                    };
                    dr = dr.max(arrival);
                }
                let start = procs.earliest_start(p, dr);
                let finish = start + weight / topo.proc_speed(p);
                keep_better(&mut best, (p, dr), finish);
            }
            let ((p, dr), _) = best.expect("at least one processor");
            let (start, finish) = procs.place(topo, p, dr, weight);
            placed[task.index()] = Some(TaskPlacement {
                proc: p,
                start,
                finish,
            });
        }

        let tasks: Vec<TaskPlacement> = placed.into_iter().map(|p| p.expect("placed")).collect();
        let comms: Vec<CommPlacement> = dag
            .edge_ids()
            .map(|e| {
                let edge = dag.edge(e);
                let src = tasks[edge.src.index()];
                if src.proc == tasks[edge.dst.index()].proc {
                    CommPlacement::Local
                } else {
                    let delay = edge.cost / mls;
                    CommPlacement::Ideal {
                        delay,
                        arrival: src.finish + delay,
                    }
                }
            })
            .collect();
        let makespan = Schedule::compute_makespan(&tasks);
        Ok(Schedule {
            algorithm: "IDEAL",
            tasks,
            comms,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_dag::gen::structured::fork_join;
    use es_dag::TaskGraphBuilder;
    use es_linksched::time::EPS;
    use es_net::gen::{self, SpeedDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: usize) -> Topology {
        gen::star(
            n,
            SpeedDist::Fixed(1.0),
            SpeedDist::Fixed(1.0),
            &mut StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn ideal_is_lower_bound_ish_on_contended_fanout() {
        // Under heavy contention the classic model underestimates: the
        // contention-aware BA cannot beat it on a shared star.
        let dag = fork_join(6, 5.0, 40.0);
        let topo = star(3);
        let ideal = IdealScheduler::new().schedule(&dag, &topo).unwrap();
        let ba = crate::list::ListScheduler::ba()
            .schedule(&dag, &topo)
            .unwrap();
        assert!(ideal.makespan <= ba.makespan + EPS);
    }

    #[test]
    fn single_task_trivial() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(3.0);
        let dag = b.build().unwrap();
        let s = IdealScheduler::new().schedule(&dag, &star(2)).unwrap();
        assert_eq!(s.makespan, 3.0);
    }

    #[test]
    fn ideal_comms_record_delay() {
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(10.0);
        let b_ = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(a, j, 6.0).unwrap();
        g.add_edge(b_, j, 6.0).unwrap();
        let dag = g.build().unwrap();
        let s = IdealScheduler::new().schedule(&dag, &star(2)).unwrap();
        let ideal_comms = s
            .comms
            .iter()
            .filter(|c| matches!(c, CommPlacement::Ideal { .. }))
            .count();
        assert!(ideal_comms >= 1);
    }
}
