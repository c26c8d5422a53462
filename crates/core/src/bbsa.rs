//! BBSA — Bandwidth Based Scheduling Algorithm (§5 of the paper).
//!
//! BBSA keeps the list-scheduling skeleton (bottom-level priorities,
//! hybrid static processor choice, cost-descending edge order, modified
//! Dijkstra routing) but replaces the exclusive slot queues with
//! **fluid bandwidth sharing**: a link may carry several transfers at
//! once, each at a fraction of the bandwidth, and a transfer grabs all
//! remaining bandwidth as early as possible. Forwarding along the route
//! is capped by the arrival rate (formula (4)); see
//! [`es_linksched::bandwidth`] for the link-level machinery.
//!
//! The paper only specifies BBSA's link layer (§5); following §1 —
//! "*both* the proposed algorithms … select route paths with relatively
//! low network workload … by modified routing algorithm" — we give it
//! OIHSA's processor criterion (§4.1) and edge priority (§4.2), with
//! the routing metric probed against the bandwidth profiles. This
//! interpretation is recorded in DESIGN.md.

use crate::procsched::{keep_better, pick_hybrid, ready_time, ProcState};
use crate::schedule::{CommPlacement, SchedError, Schedule, Scheduler, TaskPlacement};
use es_dag::{priority_list, EdgeId, Priority, TaskGraph, TaskId};
use es_linksched::bandwidth::{ArrivalCurve, Flow, RateProfile};
use es_linksched::CommId;
use es_net::{Hop, ProcId, Topology};
use es_route::{bfs_route, dijkstra_route, Route};

use crate::config::{EdgeEst, EdgeOrder, ProcSelection, Routing};

/// Configuration of [`BbsaScheduler`] (ablation knobs; the defaults are
/// the paper's BBSA).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BbsaConfig {
    /// Algorithm name for reports.
    pub name: &'static str,
    /// Task priority (paper: bottom level).
    pub priority: Priority,
    /// Route choice (paper: modified Dijkstra, probed on bandwidth
    /// profiles).
    pub routing: Routing,
    /// Edge ordering (paper: cost-descending).
    pub edge_order: EdgeOrder,
    /// Processor choice. Default: the paper's §4.1 hybrid static
    /// criterion; [`ProcSelection::EarliestFinishProbe`] (with exact
    /// fluid rollback) is the strong variant for comparisons against
    /// the probing BA.
    pub proc_selection: ProcSelection,
    /// Earliest communication start model (paper: ready time — the
    /// dynamic model, see [`EdgeEst::ReadyTime`]).
    pub edge_est: EdgeEst,
}

impl Default for BbsaConfig {
    fn default() -> Self {
        Self {
            name: "BBSA",
            priority: Priority::BottomLevel,
            routing: Routing::ModifiedDijkstra,
            edge_order: EdgeOrder::CostDesc,
            proc_selection: ProcSelection::HybridStatic,
            edge_est: EdgeEst::ReadyTime,
        }
    }
}

impl BbsaConfig {
    /// BBSA with the strong earliest-finish processor probe.
    pub fn probing() -> Self {
        Self {
            name: "BBSA-probe",
            proc_selection: ProcSelection::EarliestFinishProbe,
            edge_est: EdgeEst::SourceFinish,
            ..Self::default()
        }
    }
}

/// The paper's Bandwidth Based Scheduling Algorithm.
#[derive(Clone, Debug, Default)]
pub struct BbsaScheduler {
    cfg: BbsaConfig,
}

impl BbsaScheduler {
    /// BBSA with the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// BBSA with ablation knobs.
    pub fn with_config(cfg: BbsaConfig) -> Self {
        Self { cfg }
    }
}

impl Scheduler for BbsaScheduler {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn schedule(&self, dag: &TaskGraph, topo: &Topology) -> Result<Schedule, SchedError> {
        if topo.proc_count() == 0 {
            return Err(SchedError::NoProcessors);
        }
        let mut run = BbsaRun {
            cfg: &self.cfg,
            dag,
            topo,
            procs: ProcState::new(topo),
            profiles: (0..topo.link_count()).map(|_| RateProfile::new()).collect(),
            placed: vec![None; dag.task_count()],
            comm_routes: vec![Vec::new(); dag.edge_count()],
            comm_flows: vec![Vec::new(); dag.edge_count()],
            mls: topo.mean_link_speed(),
            edge_costs: Vec::new(),
            edge_idx: Vec::new(),
        };
        run.run()
    }
}

struct BbsaRun<'a> {
    cfg: &'a BbsaConfig,
    dag: &'a TaskGraph,
    topo: &'a Topology,
    procs: ProcState,
    profiles: Vec<RateProfile>,
    placed: Vec<Option<TaskPlacement>>,
    comm_routes: Vec<Route>,
    comm_flows: Vec<Vec<Flow>>,
    mls: f64,
    /// In-edge ordering scratch, reused across tasks and candidates
    /// (clear-don't-drop).
    edge_costs: Vec<f64>,
    edge_idx: Vec<usize>,
}

/// Dijkstra state while routing a fluid transfer: either still at the
/// source processor, or carried to a vertex by the flow planned so far.
#[derive(Clone)]
enum FlowState {
    AtSource { at: f64 },
    Carried { flow: Flow, speed: f64, finish: f64 },
}

impl FlowState {
    fn key(&self) -> f64 {
        match self {
            FlowState::AtSource { at } => *at,
            FlowState::Carried { finish, .. } => *finish,
        }
    }
}

impl BbsaRun<'_> {
    fn run(&mut self) -> Result<Schedule, SchedError> {
        let order = priority_list(self.dag, self.cfg.priority);
        for &task in &order {
            let proc = match self.cfg.proc_selection {
                ProcSelection::EarliestFinishProbe => self.pick_by_probe(task)?,
                ProcSelection::HybridStatic => pick_hybrid(
                    self.dag,
                    self.topo,
                    &self.procs,
                    &self.placed,
                    self.mls,
                    0.0,
                    task,
                    self.topo.proc_ids(),
                )
                .expect("at least one processor"),
            };
            let data_ready = self.schedule_in_edges(task, proc)?;
            let (start, finish) =
                self.procs
                    .place(self.topo, proc, data_ready, self.dag.weight(task));
            self.placed[task.index()] = Some(TaskPlacement {
                proc,
                start,
                finish,
            });
        }
        self.finish()
    }

    /// Earliest-finish probe: fluidly schedule the in-edges to every
    /// candidate processor, measure the task finish, roll the
    /// bandwidth reservations back exactly, keep the best processor.
    fn pick_by_probe(&mut self, task: TaskId) -> Result<ProcId, SchedError> {
        let weight = self.dag.weight(task);
        let mut best = None;
        for p in self.topo.proc_ids() {
            let data_ready = self.schedule_in_edges(task, p)?;
            let start = self.procs.earliest_start(p, data_ready);
            let finish = start + weight / self.topo.proc_speed(p);
            self.rollback_in_edges(task, p);
            keep_better(&mut best, p, finish);
        }
        Ok(best.expect("at least one processor").0)
    }

    /// Remove the fluid reservations made while probing `task` on `p`.
    fn rollback_in_edges(&mut self, task: TaskId, p: ProcId) {
        for &e in self.dag.in_edges(task) {
            let edge = self.dag.edge(e);
            let src = self.placed[edge.src.index()].expect("placed");
            if src.proc != p {
                for hop in std::mem::take(&mut self.comm_routes[e.index()]) {
                    self.profiles[hop.link.index()].remove_comm(CommId(u64::from(e.0)));
                }
                self.comm_flows[e.index()].clear();
            }
        }
    }

    /// Fluidly schedule `task`'s in-edges to `p` in the configured
    /// order; returns the data-ready time.
    fn schedule_in_edges(&mut self, task: TaskId, p: ProcId) -> Result<f64, SchedError> {
        let dag = self.dag;
        let in_edges = dag.in_edges(task);
        self.edge_costs.clear();
        self.edge_costs
            .extend(in_edges.iter().map(|&e| dag.cost(e)));
        self.cfg
            .edge_order
            .order_into(&self.edge_costs, &mut self.edge_idx);
        let ready = match self.cfg.edge_est {
            EdgeEst::SourceFinish => None,
            EdgeEst::ReadyTime => Some(ready_time(dag, &self.placed, task)),
        };
        let mut data_ready = 0.0_f64;
        for k in 0..self.edge_idx.len() {
            let e = in_edges[self.edge_idx[k]];
            let edge = dag.edge(e);
            let src = self.placed[edge.src.index()].expect("placed");
            let arrival = if src.proc == p {
                src.finish
            } else {
                let est = ready.unwrap_or(src.finish);
                self.schedule_comm(e, est, edge.cost, src.proc, p)?
            };
            data_ready = data_ready.max(arrival);
        }
        Ok(data_ready)
    }

    /// Route (per config) and commit one fluid communication; returns
    /// the arrival time at the destination.
    fn schedule_comm(
        &mut self,
        e: EdgeId,
        est: f64,
        cost: f64,
        from: ProcId,
        to: ProcId,
    ) -> Result<f64, SchedError> {
        let src = self.topo.node_of_proc(from);
        let dst = self.topo.node_of_proc(to);
        let route = match self.cfg.routing {
            Routing::Bfs => bfs_route(self.topo, src, dst),
            Routing::ModifiedDijkstra => {
                let profiles = &self.profiles;
                let topo = self.topo;
                dijkstra_route(
                    topo,
                    src,
                    dst,
                    FlowState::AtSource { at: est },
                    |state, hop| {
                        let speed = topo.link_speed(hop.link);
                        let profile = &profiles[hop.link.index()];
                        let flow = match state {
                            FlowState::AtSource { at } => {
                                profile.allocate(speed, ArrivalCurve::Instant { at: *at }, cost)
                            }
                            FlowState::Carried {
                                flow, speed: prev, ..
                            } => profile.allocate(
                                speed,
                                ArrivalCurve::Upstream {
                                    flow,
                                    speed: *prev,
                                    delay: topo.hop_delay(),
                                },
                                cost,
                            ),
                        };
                        let finish = flow.finish().unwrap_or(state.key());
                        FlowState::Carried {
                            flow,
                            speed,
                            finish,
                        }
                    },
                    FlowState::key,
                )
                .map(|(route, _)| route)
            }
        }
        .ok_or(SchedError::NoRoute { from, to })?;

        // Commit hop by hop.
        let mut flows: Vec<Flow> = Vec::with_capacity(route.len());
        let mut arrival = est;
        for hop in &route {
            let speed = self.topo.link_speed(hop.link);
            let profile = &self.profiles[hop.link.index()];
            let flow = match flows.last() {
                None => profile.allocate(speed, ArrivalCurve::Instant { at: est }, cost),
                Some(prev) => {
                    let prev_speed = self.topo.link_speed(prev_hop_link(&route, flows.len()));
                    profile.allocate(
                        speed,
                        ArrivalCurve::Upstream {
                            flow: prev,
                            speed: prev_speed,
                            delay: self.topo.hop_delay(),
                        },
                        cost,
                    )
                }
            };
            self.profiles[hop.link.index()].commit(CommId(u64::from(e.0)), &flow);
            arrival = flow.finish().unwrap_or(arrival);
            flows.push(flow);
        }
        self.comm_routes[e.index()] = route;
        self.comm_flows[e.index()] = flows;
        Ok(arrival)
    }

    fn finish(&mut self) -> Result<Schedule, SchedError> {
        let tasks: Vec<TaskPlacement> = self
            .placed
            .iter()
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
                    CommPlacement::Fluid {
                        route: std::mem::take(&mut self.comm_routes[e.index()]),
                        flows: std::mem::take(&mut self.comm_flows[e.index()]),
                    }
                }
            })
            .collect();
        let makespan = Schedule::compute_makespan(&tasks);
        Ok(Schedule {
            algorithm: self.cfg.name,
            tasks,
            comms,
            makespan,
        })
    }
}

/// Link of the hop before position `pos` in `route`.
fn prev_hop_link(route: &[Hop], pos: usize) -> es_net::LinkId {
    route[pos - 1].link
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn single_task() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(5.0);
        let dag = b.build().unwrap();
        let s = BbsaScheduler::new().schedule(&dag, &star(2)).unwrap();
        assert_eq!(s.makespan, 5.0);
    }

    #[test]
    fn chain_stays_local() {
        let dag = chain(4, 2.0, 100.0);
        let s = BbsaScheduler::new().schedule(&dag, &star(3)).unwrap();
        assert_eq!(s.makespan, 8.0);
        assert!(s.comms.iter().all(|c| matches!(c, CommPlacement::Local)));
    }

    #[test]
    fn remote_comms_are_fluid_and_volume_conserving() {
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(10.0);
        let b_ = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(a, j, 8.0).unwrap();
        g.add_edge(b_, j, 8.0).unwrap();
        let dag = g.build().unwrap();
        let topo = star(2);
        let s = BbsaScheduler::new().schedule(&dag, &topo).unwrap();
        let mut saw_fluid = false;
        for c in &s.comms {
            if let CommPlacement::Fluid { route, flows } = c {
                saw_fluid = true;
                assert_eq!(route.len(), flows.len());
                for (hop, flow) in route.iter().zip(flows) {
                    let v = flow.volume(topo.link_speed(hop.link));
                    assert!((v - 8.0).abs() < 1e-6, "volume {v}");
                    flow.check_invariants().unwrap();
                }
            }
        }
        assert!(saw_fluid);
    }

    #[test]
    fn two_transfers_share_bandwidth_not_serialise() {
        // Two sources on one processor send to the same destination at
        // the same time. A slot queue serialises them; BBSA should let
        // the second share leftover bandwidth no later than BA would.
        let mut g = TaskGraphBuilder::new();
        let s1 = g.add_task(10.0);
        let s2 = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(s1, j, 10.0).unwrap();
        g.add_edge(s2, j, 10.0).unwrap();
        let dag = g.build().unwrap();
        let topo = star(2);

        let bbsa = BbsaScheduler::new().schedule(&dag, &topo).unwrap();
        let ba = crate::list::ListScheduler::ba()
            .schedule(&dag, &topo)
            .unwrap();
        assert!(
            bbsa.makespan <= ba.makespan + EPS,
            "BBSA {} vs BA {}",
            bbsa.makespan,
            ba.makespan
        );
    }

    #[test]
    fn deterministic() {
        let dag = fork_join(5, 3.0, 20.0);
        let topo = star(3);
        let a = BbsaScheduler::new().schedule(&dag, &topo).unwrap();
        let b = BbsaScheduler::new().schedule(&dag, &topo).unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn bfs_routing_variant_works() {
        let cfg = BbsaConfig {
            name: "BBSA+bfs",
            routing: Routing::Bfs,
            ..BbsaConfig::default()
        };
        let dag = fork_join(4, 3.0, 15.0);
        let s = BbsaScheduler::with_config(cfg)
            .schedule(&dag, &star(3))
            .unwrap();
        assert!(s.makespan.is_finite());
    }

    #[test]
    fn no_route_error() {
        let mut b = Topology::builder();
        b.add_processor(1.0);
        b.add_processor(1.0);
        let topo = b.build().unwrap();
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(10.0);
        let b_ = g.add_task(10.0);
        let j = g.add_task(1.0);
        g.add_edge(a, j, 5.0).unwrap();
        g.add_edge(b_, j, 5.0).unwrap();
        let dag = g.build().unwrap();
        assert!(matches!(
            BbsaScheduler::new().schedule(&dag, &topo),
            Err(SchedError::NoRoute { .. })
        ));
    }
}
