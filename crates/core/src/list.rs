//! Slotted contention-aware list scheduling: BA, OIHSA, and every
//! ablation between them.
//!
//! The skeleton is Algorithm 1 of the paper: sort tasks by static
//! priority (bottom level) compatible with precedence, then for each
//! task pick a processor and schedule its incoming communications on
//! network links before placing it. The four §4 design choices are
//! injected through [`ListConfig`]:
//!
//! * **processor selection** — BA's earliest-finish probe (tentatively
//!   schedule the communications to every candidate processor, keep the
//!   best, roll the rest back) or OIHSA's hybrid static criterion
//!   (§4.1), which estimates communication with the mean link speed
//!   `MLS` and therefore needs no probing;
//! * **edge order** (§4.2) — arrival order or cost-descending;
//! * **routing** (§4.3) — BFS minimal or modified Dijkstra;
//! * **insertion** (§4.4) — basic or optimal.

use crate::config::{EdgeEst, Insertion, ListConfig, ProcSelection};
use crate::procsched::{keep_better, pick_hybrid, ready_time, ProcState};
use crate::schedule::{CommPlacement, SchedError, Schedule, Scheduler, TaskPlacement};
use crate::slotted::{OverlayState, ProbeWorkspace, SlottedState};
use es_dag::{priority_list, TaskGraph, TaskId};
use es_linksched::CommId;
use es_net::{ProcId, Topology};
use es_runner::WorkerPool;
use std::sync::Mutex;

/// Configurable slotted list scheduler. See the module docs; use
/// [`ListScheduler::ba`] / [`ListScheduler::oihsa`] for the paper's
/// algorithms or [`ListScheduler::with_config`] for ablations.
#[derive(Clone, Debug)]
pub struct ListScheduler {
    cfg: ListConfig,
}

impl ListScheduler {
    /// Sinnen's Basic Algorithm (the paper's baseline, §3).
    pub fn ba() -> Self {
        Self {
            cfg: ListConfig::ba(),
        }
    }

    /// BA with the contention-blind processor estimate — the figure
    /// reproductions' baseline (see [`ListConfig::ba_static`]).
    pub fn ba_static() -> Self {
        Self {
            cfg: ListConfig::ba_static(),
        }
    }

    /// The paper's OIHSA (§4).
    pub fn oihsa() -> Self {
        Self {
            cfg: ListConfig::oihsa(),
        }
    }

    /// OIHSA with the strong earliest-finish processor probe (see
    /// [`ListConfig::oihsa_probing`]).
    pub fn oihsa_probing() -> Self {
        Self {
            cfg: ListConfig::oihsa_probing(),
        }
    }

    /// A custom configuration (ablation studies).
    pub fn with_config(cfg: ListConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &ListConfig {
        &self.cfg
    }
}

impl Scheduler for ListScheduler {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn schedule(&self, dag: &TaskGraph, topo: &Topology) -> Result<Schedule, SchedError> {
        let mut procs = ProcState::new(topo);
        let mut links =
            SlottedState::with_tuning(topo, dag.edge_count(), self.cfg.effective_tuning());
        schedule_onto(&self.cfg, dag, topo, &mut procs, &mut links, 0, 0.0)
    }
}

/// Schedule one DAG onto *persistent* platform state: the workhorse
/// behind both [`ListScheduler::schedule`] (fresh state, `comm_base`
/// 0, `floor` 0.0 — bitwise identical to the historical offline path)
/// and [`crate::online`] (state carried across jobs).
///
/// * `comm_base` offsets every edge's [`CommId`] so successive jobs
///   occupy disjoint id blocks and reservations never alias;
/// * `floor` is the dispatch instant: no communication or task of this
///   job may start before it, which is what makes releasing slots that
///   lie entirely before `floor` semantics-free (DESIGN.md §15).
pub(crate) fn schedule_onto(
    cfg: &ListConfig,
    dag: &TaskGraph,
    topo: &Topology,
    procs: &mut ProcState,
    links: &mut SlottedState,
    comm_base: u64,
    floor: f64,
) -> Result<Schedule, SchedError> {
    links.ensure_comm_capacity(comm_base as usize + dag.edge_count());
    Run::new(cfg, dag, topo, procs, links, comm_base, floor)?.run()
}

/// One remote-or-local in-edge of the task being placed, precomputed
/// once per task — every field is candidate-independent, so the probe
/// of every candidate (on every worker lane) and the final commit walk
/// the same immutable list.
#[derive(Clone, Copy, Debug)]
struct InEdge {
    comm: CommId,
    /// Earliest start on the links (ready time or source finish, per
    /// [`crate::config::EdgeEst`]).
    est: f64,
    cost: f64,
    src_proc: ProcId,
    /// Arrival when the candidate equals `src_proc` (local edge).
    src_finish: f64,
}

/// One scheduling run's working state.
struct Run<'a> {
    cfg: &'a ListConfig,
    dag: &'a TaskGraph,
    topo: &'a Topology,
    procs: &'a mut ProcState,
    links: &'a mut SlottedState,
    placed: Vec<Option<TaskPlacement>>,
    mls: f64,
    /// First [`CommId`] of this job's contiguous id block.
    comm_base: u64,
    /// Dispatch instant: lower bound on every start time of this run.
    floor: f64,
    /// Scratch buffers for the in-edge ordering, reused across tasks
    /// (allocation hoisting; no behavioural effect).
    edge_costs: Vec<f64>,
    edge_idx: Vec<usize>,
    /// The current task's in-edges in scheduling order
    /// ([`Run::prepare_in_edges`]; clear-don't-drop).
    in_edges: Vec<InEdge>,
    /// Speculative-probe machinery (DESIGN.md §11), built only when
    /// [`crate::config::ProbeParallelism`] selects the overlay path for
    /// an earliest-finish-probe scheduler. The pool persists across all
    /// tasks of the run; each lane owns one [`ProbeWorkspace`].
    probe_pool: Option<WorkerPool>,
    probe_lanes: Vec<Mutex<ProbeWorkspace>>,
    /// Reused per-task buffers for the batch probe (clear-don't-drop).
    probe_candidates: Vec<ProcId>,
    probe_results: Vec<Mutex<Option<Result<f64, SchedError>>>>,
    /// Names the current probe cycle so lanes invalidate their
    /// incremental searches between tasks.
    probe_serial: u64,
}

impl<'a> Run<'a> {
    fn new(
        cfg: &'a ListConfig,
        dag: &'a TaskGraph,
        topo: &'a Topology,
        procs: &'a mut ProcState,
        links: &'a mut SlottedState,
        comm_base: u64,
        floor: f64,
    ) -> Result<Self, SchedError> {
        if topo.proc_count() == 0 {
            return Err(SchedError::NoProcessors);
        }
        let use_overlay = cfg.tuning.parallel_probe.uses_overlay()
            && matches!(cfg.proc_selection, ProcSelection::EarliestFinishProbe);
        let (probe_pool, probe_lanes) = if use_overlay {
            let lanes = cfg.tuning.parallel_probe.lanes();
            let workspaces = (0..lanes)
                .map(|_| Mutex::new(ProbeWorkspace::new(topo.link_count())))
                .collect();
            (Some(WorkerPool::new(lanes)), workspaces)
        } else {
            (None, Vec::new())
        };
        Ok(Self {
            cfg,
            dag,
            topo,
            procs,
            links,
            placed: vec![None; dag.task_count()],
            mls: topo.mean_link_speed(),
            comm_base,
            floor,
            edge_costs: Vec::new(),
            edge_idx: Vec::new(),
            in_edges: Vec::new(),
            probe_pool,
            probe_lanes,
            probe_candidates: Vec::new(),
            probe_results: Vec::new(),
            probe_serial: 0,
        })
    }

    fn run(mut self) -> Result<Schedule, SchedError> {
        let order = priority_list(self.dag, self.cfg.priority);
        for &task in &order {
            self.prepare_in_edges(task);
            let proc = match self.cfg.proc_selection {
                ProcSelection::EarliestFinishProbe => self.pick_by_probe(task)?,
                ProcSelection::HybridStatic => pick_hybrid(
                    self.dag,
                    self.topo,
                    self.procs,
                    &self.placed,
                    self.mls,
                    self.floor,
                    task,
                    self.topo.proc_ids(),
                )
                .expect("at least one processor"),
            };
            self.commit_task(task, proc, self.cfg.insertion)?;
        }
        self.finish()
    }

    /// Fill `self.edge_idx` with the positions of `task`'s in-edges in
    /// the configured scheduling order (§4.2).
    fn order_in_edges(&mut self, task: TaskId) {
        self.edge_costs.clear();
        self.edge_costs
            .extend(self.dag.in_edges(task).iter().map(|&e| self.dag.cost(e)));
        self.cfg
            .edge_order
            .order_into(&self.edge_costs, &mut self.edge_idx);
    }

    /// Derive `task`'s in-edge list once per task, in scheduling order
    /// and with each edge's earliest start on the links: the ready time
    /// or the source's finish, per [`EdgeEst`]. Every field is
    /// candidate-independent, so the probe of every candidate and the
    /// final commit walk this one list.
    fn prepare_in_edges(&mut self, task: TaskId) {
        let ready = match self.cfg.edge_est {
            EdgeEst::SourceFinish => None,
            EdgeEst::ReadyTime => Some(ready_time(self.dag, &self.placed, task)),
        };
        self.order_in_edges(task);
        let dag_edges = self.dag.in_edges(task);
        self.in_edges.clear();
        for k in 0..self.edge_idx.len() {
            let e = dag_edges[self.edge_idx[k]];
            let edge = self.dag.edge(e);
            let src = self.placed[edge.src.index()].expect("predecessors are placed first");
            self.in_edges.push(InEdge {
                comm: CommId(self.comm_base + u64::from(e.0)),
                est: ready.unwrap_or(src.finish),
                cost: edge.cost,
                src_proc: src.proc,
                src_finish: src.finish,
            });
        }
    }

    /// Schedule the prepared in-edges onto processor `p` on the
    /// committed links and return the data-ready time. `insertion` is
    /// explicit because the reference probe must be exactly reversible
    /// (always basic insertion).
    fn schedule_in_edges(&mut self, p: ProcId, insertion: Insertion) -> Result<f64, SchedError> {
        let (topo, routing, switching) = (self.topo, self.cfg.routing, self.cfg.switching);
        let links = &mut *self.links;
        walk_in_edges(&self.in_edges, p, self.floor, |pe| {
            links.schedule_comm(
                topo,
                pe.comm,
                pe.est,
                pe.cost,
                pe.src_proc,
                p,
                routing,
                insertion,
                switching,
            )
        })
    }

    /// BA's processor choice: earliest task finish over all processors,
    /// probed by tentatively scheduling the prepared in-edges.
    /// Production tunings take the overlay path at every lane count;
    /// only [`crate::config::ProbeParallelism::Sequential`] takes the
    /// reference path. Both are bitwise identical (the differential
    /// oracle enforces it).
    fn pick_by_probe(&mut self, task: TaskId) -> Result<ProcId, SchedError> {
        if self.probe_pool.is_some() {
            self.pick_by_probe_overlay(task)
        } else {
            self.pick_by_probe_serial(task)
        }
    }

    /// The sequential reference probe
    /// ([`crate::config::ProbeParallelism::Sequential`]): schedule the
    /// in-edges onto each candidate's real queues with basic insertion,
    /// read the finish time, and unschedule the remote ones again. The
    /// differential oracle holds the overlay path bitwise equal to it.
    fn pick_by_probe_serial(&mut self, task: TaskId) -> Result<ProcId, SchedError> {
        let weight = self.dag.weight(task);
        // Debug-build proof that every rollback below is exact.
        #[cfg(debug_assertions)]
        let before: Vec<u64> = self
            .links
            .queues()
            .iter()
            .map(es_linksched::SlotQueue::content_digest)
            .collect();
        let mut best = None;
        for p in self.topo.proc_ids() {
            let data_ready = self.schedule_in_edges(p, Insertion::Basic)?;
            let start = self.procs.earliest_start(p, data_ready);
            let finish = start + weight / self.topo.proc_speed(p);
            for pe in &self.in_edges {
                if pe.src_proc != p {
                    self.links.unschedule(pe.comm);
                }
            }
            #[cfg(debug_assertions)]
            debug_assert!(
                self.links
                    .queues()
                    .iter()
                    .map(es_linksched::SlotQueue::content_digest)
                    .eq(before.iter().copied()),
                "probe rollback left the link queues changed"
            );
            keep_better(&mut best, p, finish);
        }
        Ok(best.expect("at least one processor").0)
    }

    /// The overlay probe (DESIGN.md §11): every candidate processor is
    /// probed against the immutable committed link state through a
    /// private copy-on-write overlay — concurrently when the pool has
    /// more than one lane, inline otherwise — so no candidate ever
    /// mutates shared queues. Workers only report finish-time
    /// bits; the reducer below replays the exact sequential tie-break
    /// (ascending processor id, strict `EPS` improvement) and the exact
    /// sequential error semantics (first erroring candidate in
    /// processor order wins), making the selection bitwise identical to
    /// [`Run::pick_by_probe_serial`].
    fn pick_by_probe_overlay(&mut self, task: TaskId) -> Result<ProcId, SchedError> {
        let weight = self.dag.weight(task);
        self.probe_candidates.clear();
        self.probe_candidates.extend(self.topo.proc_ids());
        let n = self.probe_candidates.len();
        if self.probe_results.len() < n {
            self.probe_results.resize_with(n, || Mutex::new(None));
        }
        for slot in &self.probe_results[..n] {
            *slot.lock().expect("probe result lock") = None;
        }
        self.probe_serial += 1;

        // Immutable shared state for the burst; disjoint from the
        // pool's `&mut` borrow below.
        let base = self.links.queues();
        let tuning = self.links.tuning();
        let serial = self.probe_serial;
        let topo = self.topo;
        let procs = &self.procs;
        let edges = &self.in_edges;
        let candidates = &self.probe_candidates;
        let results = &self.probe_results;
        let lanes_ws = &self.probe_lanes;
        let routing = self.cfg.routing;
        let switching = self.cfg.switching;
        let floor = self.floor;
        let job = move |lane: usize, idx: usize| {
            let p = candidates[idx];
            let mut ws = lanes_ws[lane].lock().expect("probe workspace lock");
            ws.begin_candidate(serial);
            let mut ov = OverlayState::new(base, tuning, &mut ws);
            // Probes always use basic insertion, exactly like the
            // sequential reference probe.
            let out = walk_in_edges(edges, p, floor, |pe| {
                ov.schedule_comm(
                    topo,
                    pe.comm,
                    pe.est,
                    pe.cost,
                    pe.src_proc,
                    p,
                    routing,
                    switching,
                )
            })
            .map(|data_ready| {
                let start = procs.earliest_start(p, data_ready);
                start + weight / topo.proc_speed(p)
            });
            *results[idx].lock().expect("probe result lock") = Some(out);
        };
        self.probe_pool
            .as_mut()
            .expect("overlay path requires a pool")
            .run(n, &job);

        // Deterministic reduction in ascending processor-id order.
        let mut best = None;
        for i in 0..n {
            let finish = self.probe_results[i]
                .lock()
                .expect("probe result lock")
                .take()
                .expect("worker filled every slot")?;
            keep_better(&mut best, self.probe_candidates[i], finish);
        }
        Ok(best.expect("at least one processor").0)
    }

    /// Definitively schedule `task`, whose in-edges are prepared, on
    /// `proc`.
    fn commit_task(
        &mut self,
        task: TaskId,
        proc: ProcId,
        insertion: Insertion,
    ) -> Result<(), SchedError> {
        let data_ready = self.schedule_in_edges(proc, insertion)?;
        let (start, finish) = self
            .procs
            .place(self.topo, proc, data_ready, self.dag.weight(task));
        self.placed[task.index()] = Some(TaskPlacement {
            proc,
            start,
            finish,
        });
        Ok(())
    }

    /// Assemble the final [`Schedule`]. Communication placements are
    /// read back from the link state *after* all tasks are placed, so
    /// optimal-insertion deferrals are reflected.
    fn finish(self) -> Result<Schedule, SchedError> {
        let comm_base = self.comm_base;
        let tasks: Vec<TaskPlacement> = self
            .placed
            .into_iter()
            .map(|p| p.expect("all tasks placed"))
            .collect();
        let comms: Vec<CommPlacement> = self
            .dag
            .edge_ids()
            .map(|e| {
                let edge = self.dag.edge(e);
                if tasks[edge.src.index()].proc == tasks[edge.dst.index()].proc {
                    CommPlacement::Local
                } else {
                    let (route, times) = self.links.placement(CommId(comm_base + u64::from(e.0)));
                    CommPlacement::Slotted { route, times }
                }
            })
            .collect();
        debug_assert!(self.links.check_invariants().is_ok());
        let makespan = Schedule::compute_makespan(&tasks);
        Ok(Schedule {
            algorithm: self.cfg.name,
            tasks,
            comms,
            makespan,
        })
    }
}

/// The data-ready time of a task on `p`: the latest of `floor` and
/// every in-edge's arrival — the source's finish for a local edge, what
/// `send` returns for a remote one. Stops at the first `send` error.
fn walk_in_edges(
    edges: &[InEdge],
    p: ProcId,
    floor: f64,
    mut send: impl FnMut(&InEdge) -> Result<f64, SchedError>,
) -> Result<f64, SchedError> {
    let mut data_ready = floor;
    for pe in edges {
        let arrival = if pe.src_proc == p {
            pe.src_finish
        } else {
            send(pe)?
        };
        data_ready = data_ready.max(arrival);
    }
    Ok(data_ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EdgeOrder, Routing};
    use es_dag::gen::structured::{chain, fork_join};
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
    fn single_task_runs_immediately() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(5.0);
        let dag = b.build().unwrap();
        let topo = star(2);
        for sched in [ListScheduler::ba(), ListScheduler::oihsa()] {
            let s = sched.schedule(&dag, &topo).unwrap();
            assert_eq!(s.makespan, 5.0, "{}", sched.name());
            assert_eq!(s.tasks[0].start, 0.0);
        }
    }

    #[test]
    fn chain_stays_on_one_processor() {
        // Comm cost far above compute: any splitting is a loss, so both
        // algorithms keep the chain local and the makespan is the sum
        // of weights.
        let dag = chain(5, 2.0, 100.0);
        let topo = star(4);
        for sched in [ListScheduler::ba(), ListScheduler::oihsa()] {
            let s = sched.schedule(&dag, &topo).unwrap();
            assert_eq!(s.makespan, 10.0, "{}", sched.name());
            let p0 = s.tasks[0].proc;
            assert!(s.tasks.iter().all(|t| t.proc == p0));
            assert!(s.comms.iter().all(|c| matches!(c, CommPlacement::Local)));
        }
    }

    #[test]
    fn independent_tasks_spread_across_processors() {
        let mut b = TaskGraphBuilder::new();
        for _ in 0..4 {
            b.add_task(10.0);
        }
        let dag = b.build().unwrap();
        let topo = star(4);
        let s = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        assert_eq!(s.makespan, 10.0, "perfect parallelism");
        let procs: std::collections::BTreeSet<_> = s.tasks.iter().map(|t| t.proc).collect();
        assert_eq!(procs.len(), 4);
    }

    #[test]
    fn fork_join_parallelises_when_comm_is_cheap() {
        let dag = fork_join(3, 10.0, 1.0);
        let topo = star(3);
        let s = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        // Serial would be 50; with cheap communication the workers
        // overlap, so the makespan must be clearly below serial.
        assert!(s.makespan < 50.0, "makespan {}", s.makespan);
    }

    #[test]
    fn hetero_prefers_fast_processor() {
        let mut b = Topology::builder();
        let (n0, _) = b.add_processor(1.0);
        let (n1, _) = b.add_processor(10.0);
        let sw = b.add_switch();
        b.add_duplex_cable(n0, sw, 1.0);
        b.add_duplex_cable(n1, sw, 1.0);
        let topo = b.build().unwrap();

        let mut g = TaskGraphBuilder::new();
        g.add_task(100.0);
        let dag = g.build().unwrap();

        for sched in [ListScheduler::ba(), ListScheduler::oihsa()] {
            let s = sched.schedule(&dag, &topo).unwrap();
            assert_eq!(s.tasks[0].proc, ProcId(1), "{}", sched.name());
            assert_eq!(s.makespan, 10.0);
        }
    }

    #[test]
    fn remote_comm_uses_links() {
        // Force two tasks apart: two entry tasks then a join; with two
        // processors the join has at least one remote predecessor.
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(10.0);
        let b_ = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(a, j, 4.0).unwrap();
        g.add_edge(b_, j, 4.0).unwrap();
        let dag = g.build().unwrap();
        let topo = star(2);
        let s = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        let slotted = s
            .comms
            .iter()
            .filter(|c| matches!(c, CommPlacement::Slotted { .. }))
            .count();
        assert!(slotted >= 1, "at least one remote communication");
        // Slotted communications: 2 hops through the hub.
        for c in &s.comms {
            if let CommPlacement::Slotted { route, times } = c {
                assert_eq!(route.len(), 2);
                assert_eq!(times.len(), 2);
            }
        }
    }

    #[test]
    fn oihsa_never_worse_on_contended_star() {
        // Heavy fan-in onto one join task through a shared hub: the
        // situation §4 targets. OIHSA must not lose to BA.
        let dag = fork_join(6, 5.0, 50.0);
        let topo = star(4);
        let ba = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        let oi = ListScheduler::oihsa().schedule(&dag, &topo).unwrap();
        assert!(
            oi.makespan <= ba.makespan + EPS,
            "OIHSA {} vs BA {}",
            oi.makespan,
            ba.makespan
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let dag = fork_join(5, 3.0, 20.0);
        let topo = star(3);
        for sched in [ListScheduler::ba(), ListScheduler::oihsa()] {
            let a = sched.schedule(&dag, &topo).unwrap();
            let b = sched.schedule(&dag, &topo).unwrap();
            assert_eq!(a.makespan, b.makespan);
            for (x, y) in a.tasks.iter().zip(&b.tasks) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn ablation_config_is_honoured() {
        let cfg = ListConfig {
            name: "BA+dijkstra",
            routing: Routing::ModifiedDijkstra,
            ..ListConfig::ba()
        };
        let sched = ListScheduler::with_config(cfg);
        assert_eq!(sched.name(), "BA+dijkstra");
        let dag = fork_join(4, 3.0, 10.0);
        let topo = star(3);
        let s = sched.schedule(&dag, &topo).unwrap();
        assert!(s.makespan > 0.0);
    }

    #[test]
    fn edge_order_changes_are_deterministic_not_crashing() {
        let dag = fork_join(5, 2.0, 30.0);
        let topo = star(3);
        for order in [EdgeOrder::Arrival, EdgeOrder::CostDesc, EdgeOrder::CostAsc] {
            let cfg = ListConfig {
                name: "probe",
                edge_order: order,
                ..ListConfig::oihsa()
            };
            let s = ListScheduler::with_config(cfg)
                .schedule(&dag, &topo)
                .unwrap();
            assert!(s.makespan.is_finite());
        }
    }

    #[test]
    fn disconnected_topology_yields_no_route() {
        let mut b = Topology::builder();
        b.add_processor(1.0);
        b.add_processor(1.0);
        let topo = b.build().unwrap();
        // Two independent tasks would be placed on separate processors,
        // then the join needs a route and fails.
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(10.0);
        let b_ = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(a, j, 5.0).unwrap();
        g.add_edge(b_, j, 5.0).unwrap();
        let dag = g.build().unwrap();
        let err = ListScheduler::ba().schedule(&dag, &topo).unwrap_err();
        assert!(matches!(err, SchedError::NoRoute { .. }));
    }
}
