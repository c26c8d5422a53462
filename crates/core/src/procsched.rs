//! Processor schedules, and the processor-choice rules every list
//! scheduler shares.
//!
//! Tasks are placed non-preemptively with **end scheduling**: a task
//! starts at `max(data-ready, processor free)` and the processor is
//! busy until the task finishes (`§2.1`: tasks never preempt each
//! other). All three of the paper's algorithms place tasks this way;
//! only the *edge* scheduling differs between them. The same holds for
//! the choice of processor: the slotted, fluid, repair and classic
//! schedulers break ties with `keep_better`, and the §4.1 hybrid
//! criterion exists once, as `pick_hybrid`.

use crate::schedule::TaskPlacement;
use es_dag::{TaskGraph, TaskId};
use es_linksched::time::EPS;
use es_net::{ProcId, Topology};

/// Running state of all processors during scheduling.
#[derive(Clone, Debug)]
pub struct ProcState {
    /// `t_f(P)` — time each processor becomes free.
    finish: Vec<f64>,
}

impl ProcState {
    /// All processors idle at time 0.
    pub fn new(topo: &Topology) -> Self {
        Self {
            finish: vec![0.0; topo.proc_count()],
        }
    }

    /// Current finish time `t_f(P)` of a processor.
    #[inline]
    pub fn finish_time(&self, p: ProcId) -> f64 {
        self.finish[p.index()]
    }

    /// Earliest start of a task on `p` given its data-ready time:
    /// `t_s = max(t_dr, t_f(P))`.
    #[inline]
    pub fn earliest_start(&self, p: ProcId, data_ready: f64) -> f64 {
        data_ready.max(self.finish[p.index()])
    }

    /// Place a task of weight `w` on `p` with the given data-ready
    /// time; returns `(start, finish)` and marks the processor busy.
    pub fn place(
        &mut self,
        topo: &Topology,
        p: ProcId,
        data_ready: f64,
        weight: f64,
    ) -> (f64, f64) {
        let start = self.earliest_start(p, data_ready);
        let finish = start + weight / topo.proc_speed(p);
        self.finish[p.index()] = finish;
        (start, finish)
    }
}

/// The tie-break of every processor choice: candidates arrive in
/// ascending processor id, and one replaces the best so far only if its
/// `value` is lower by more than [`EPS`], so a near-tie keeps the lower
/// id.
pub(crate) fn keep_better<T>(best: &mut Option<(T, f64)>, candidate: T, value: f64) {
    if best.as_ref().is_none_or(|&(_, b)| value < b - EPS) {
        *best = Some((candidate, value));
    }
}

/// `task`'s ready time: the latest finish among its (placed)
/// predecessors, 0 for an entry task. Under
/// [`crate::config::EdgeEst::ReadyTime`] every in-communication starts
/// here.
pub(crate) fn ready_time(dag: &TaskGraph, placed: &[Option<TaskPlacement>], task: TaskId) -> f64 {
    dag.predecessors(task)
        .map(|s| {
            placed[s.index()]
                .expect("predecessors are placed first")
                .finish
        })
        .fold(0.0_f64, f64::max)
}

/// OIHSA's §4.1 hybrid static criterion over `candidates` (ascending
/// ids):
/// `min_P [ max(floor, max_j(t_f(n_j) + c(e_j)/MLS), t_f(P)) + w/s(P) ]`,
/// with zero communication for predecessors already on `P`. `floor` is
/// the online dispatch instant (0 offline). `None` when there is no
/// candidate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pick_hybrid(
    dag: &TaskGraph,
    topo: &Topology,
    procs: &ProcState,
    placed: &[Option<TaskPlacement>],
    mls: f64,
    floor: f64,
    task: TaskId,
    candidates: impl Iterator<Item = ProcId>,
) -> Option<ProcId> {
    let weight = dag.weight(task);
    let mut best = None;
    for p in candidates {
        let mut comm_part = floor;
        for &e in dag.in_edges(task) {
            let edge = dag.edge(e);
            let src = placed[edge.src.index()].expect("predecessors are placed first");
            let est = if src.proc == p {
                src.finish
            } else {
                src.finish + edge.cost / mls
            };
            comm_part = comm_part.max(est);
        }
        let start = comm_part.max(procs.finish_time(p));
        keep_better(&mut best, p, start + weight / topo.proc_speed(p));
    }
    best.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_net::Topology;

    fn two_procs() -> Topology {
        let mut b = Topology::builder();
        b.add_processor(1.0);
        b.add_processor(2.0);
        let (a, c) = (es_net::NodeId(0), es_net::NodeId(1));
        b.add_duplex_cable(a, c, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn starts_at_data_ready_when_idle() {
        let topo = two_procs();
        let mut ps = ProcState::new(&topo);
        let (s, f) = ps.place(&topo, ProcId(0), 3.0, 4.0);
        assert_eq!((s, f), (3.0, 7.0));
        assert_eq!(ps.finish_time(ProcId(0)), 7.0);
    }

    #[test]
    fn waits_for_processor_when_busy() {
        let topo = two_procs();
        let mut ps = ProcState::new(&topo);
        ps.place(&topo, ProcId(0), 0.0, 10.0);
        let (s, f) = ps.place(&topo, ProcId(0), 2.0, 5.0);
        assert_eq!((s, f), (10.0, 15.0));
    }

    #[test]
    fn speed_scales_execution_time() {
        let topo = two_procs();
        let mut ps = ProcState::new(&topo);
        let (s, f) = ps.place(&topo, ProcId(1), 0.0, 10.0);
        assert_eq!((s, f), (0.0, 5.0), "speed-2 processor halves time");
    }

    #[test]
    fn near_ties_keep_the_lower_id() {
        let mut best = None;
        keep_better(&mut best, ProcId(0), 5.0);
        keep_better(&mut best, ProcId(1), 5.0 - EPS / 2.0);
        assert_eq!(best.map(|(p, _)| p), Some(ProcId(0)), "within EPS");
        keep_better(&mut best, ProcId(2), 5.0 - 2.0 * EPS);
        assert_eq!(best.map(|(p, _)| p), Some(ProcId(2)), "better by > EPS");
    }

    #[test]
    fn hybrid_floor_dominates_early_arrivals() {
        // a (on the speed-1 p0, finished at 1) -> b (weight 4, cost 10).
        let topo = two_procs();
        let mut g = es_dag::TaskGraphBuilder::new();
        let a = g.add_task(1.0);
        let b = g.add_task(4.0);
        g.add_edge(a, b, 10.0).unwrap();
        let dag = g.build().unwrap();
        let mut ps = ProcState::new(&topo);
        let (start, finish) = ps.place(&topo, ProcId(0), 0.0, 1.0);
        let placed = [
            Some(TaskPlacement {
                proc: ProcId(0),
                start,
                finish,
            }),
            None,
        ];
        let pick = |floor| pick_hybrid(&dag, &topo, &ps, &placed, 1.0, floor, b, topo.proc_ids());
        // Offline the local data wins: p0 ends at 5, p1 at 11 + 2.
        assert_eq!(pick(0.0), Some(ProcId(0)));
        // Dispatched at 20, both wait for the floor and the faster p1
        // wins (22 vs 24).
        assert_eq!(pick(20.0), Some(ProcId(1)));
        assert_eq!(
            pick_hybrid(&dag, &topo, &ps, &placed, 1.0, 0.0, b, std::iter::empty()),
            None
        );
    }

    #[test]
    fn processors_are_independent() {
        let topo = two_procs();
        let mut ps = ProcState::new(&topo);
        ps.place(&topo, ProcId(0), 0.0, 10.0);
        let (s, _) = ps.place(&topo, ProcId(1), 0.0, 10.0);
        assert_eq!(s, 0.0);
    }
}
