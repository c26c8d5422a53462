//! Failure-aware schedule repair.
//!
//! Given a schedule and a [`FaultPlan`] with hard fail-stop failures,
//! [`repair`] produces a schedule for the *surviving* platform:
//!
//! * **Processor failures** are handled at task-dispatch granularity.
//!   A task whose scheduled start lies strictly before its processor's
//!   fail time counts as already dispatched and keeps its placement
//!   (its network interface keeps forwarding); every other task on a
//!   dead processor is re-placed via OIHSA's §4.1 hybrid static
//!   criterion, evaluated over the surviving processors with the mean
//!   speed of the surviving links.
//! * **Link failures** are fail-stop for all re-planned traffic: the
//!   repair routes every communication with the modified-Dijkstra
//!   router (§4.3) over a [`Topology::masked`] view from which the
//!   failed links are absent, so no new transfer can be placed on them.
//! * Processors cut off from the largest surviving component (their
//!   node no longer mutually reachable with it once failed links are
//!   masked) are treated like failed ones: their tasks move into the
//!   component, keeping all repaired communications routable.
//!
//! The rebuild is a fresh forward pass in the original priority order
//! (bottom level), re-deriving every start time — a global re-dispatch
//! rather than a local patch, which is what lets the result satisfy
//! the full [`crate::validate::audit`] contract. Placements of
//! unaffected tasks are preserved (pinned); only times move. The first
//! attempt uses OIHSA's optimal insertion; if the audit is not clean
//! (or scheduling fails), a bounded retry falls back to BA-style
//! append/basic insertion, which is audit-clean by construction.
//!
//! Everything is deterministic: same schedule + same plan = bitwise
//! identical repair (covered by `xtask analyze --determinism`). A plan
//! without hard failures returns the input schedule unchanged — soft
//! faults (jitter, degradation, outages) degrade execution but never
//! invalidate placements, so there is nothing to repair.
//!
//! Note the deliberate scope limit: repaired start times are relative
//! to the same time origin as the input schedule, not shifted to the
//! failure instant — the repair answers "what should the dispatcher's
//! table look like on the surviving platform", not "simulate the
//! moment of the crash". Communications are always re-planned as
//! slotted (or local) placements, whatever their original kind.

use crate::config::{EdgeOrder, Insertion, Routing, Switching, Tuning};
use crate::diag::Report;
use crate::exec::FaultPlan;
use crate::procsched::{pick_hybrid, ready_time, ProcState};
use crate::schedule::{CommPlacement, SchedError, Schedule, TaskPlacement};
use crate::slotted::SlottedState;
use crate::validate::audit;
use es_dag::{priority_list, Priority, TaskGraph, TaskId};
use es_linksched::time::EPS;
use es_linksched::CommId;
use es_net::{LinkId, ProcId, Topology};
use es_route::{reachable_nodes_with, BfsScratch};

/// Why a repair could not be completed.
#[derive(Debug)]
pub enum RepairError {
    /// Every processor failed (or none remains mutually connected).
    NoSurvivingProcessors,
    /// The rebuild could not schedule a communication on the surviving
    /// topology, even with the basic-insertion fallback.
    Unroutable(SchedError),
    /// Both insertion attempts produced a schedule the diagnostic audit
    /// rejects; the report of the (final) basic-insertion attempt is
    /// attached.
    AuditFailed(Report),
    /// The input schedule does not match the instance.
    Malformed(String),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::NoSurvivingProcessors => write!(f, "no surviving processors"),
            RepairError::Unroutable(e) => write!(f, "repair unroutable: {e}"),
            RepairError::AuditFailed(r) => {
                write!(
                    f,
                    "repaired schedule failed audit ({} errors)",
                    r.error_count()
                )
            }
            RepairError::Malformed(why) => write!(f, "malformed schedule: {why}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// Result of a successful [`repair`].
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired schedule. Valid against the *full* topology (the
    /// masked view keeps all resource ids stable), so the existing
    /// audit / export / verify pipeline applies unchanged.
    pub schedule: Schedule,
    /// Tasks that changed processor, in task-id order.
    pub moved_tasks: Vec<TaskId>,
    /// Communications whose placement kind or route changed.
    pub rerouted_comms: usize,
    /// True when the optimal-insertion attempt was rejected and the
    /// BA-style basic-insertion fallback produced the result.
    pub used_fallback: bool,
}

/// Repair `schedule` against the hard failures in `plan`; see the
/// module docs. A plan without hard failures returns the schedule
/// unchanged (the identity repair). Uses [`Tuning::default`].
pub fn repair(
    dag: &TaskGraph,
    topo: &Topology,
    schedule: &Schedule,
    plan: &FaultPlan,
) -> Result<RepairOutcome, RepairError> {
    repair_with(dag, topo, schedule, plan, Tuning::default())
}

/// [`repair`] with an explicit performance [`Tuning`] for the rebuild's
/// link state. Tuning never changes the repaired schedule (bitwise);
/// the `repair_cache_equivalence` integration test enforces this.
pub fn repair_with(
    dag: &TaskGraph,
    topo: &Topology,
    schedule: &Schedule,
    plan: &FaultPlan,
    tuning: Tuning,
) -> Result<RepairOutcome, RepairError> {
    if schedule.tasks.len() != dag.task_count() || schedule.comms.len() != dag.edge_count() {
        return Err(RepairError::Malformed(format!(
            "{} task / {} comm placements for {} / {}",
            schedule.tasks.len(),
            schedule.comms.len(),
            dag.task_count(),
            dag.edge_count()
        )));
    }
    if !plan.has_hard_failures() {
        return Ok(RepairOutcome {
            schedule: schedule.clone(),
            moved_tasks: Vec::new(),
            rerouted_comms: 0,
            used_fallback: false,
        });
    }

    let failed_link = |l: LinkId| plan.link_fail_time(l).is_finite();
    let masked = topo.masked(failed_link);
    let usable = surviving_component(topo, &masked, plan);
    if usable.iter().all(|&u| !u) {
        return Err(RepairError::NoSurvivingProcessors);
    }

    // Pin every task we keep; the rest are re-placed by the rebuild.
    // Keep = the processor is in the surviving component, or it failed
    // *after* the task was dispatched and can still be reached.
    let in_component = connected_to_component(topo, &masked, &usable);
    let mut pinned: Vec<Option<ProcId>> = vec![None; dag.task_count()];
    for (i, t) in schedule.tasks.iter().enumerate() {
        let fail_at = plan.proc_fail_time(t.proc);
        let keep =
            in_component[t.proc.index()] && (!fail_at.is_finite() || t.start + EPS < fail_at);
        if keep {
            pinned[i] = Some(t.proc);
        }
    }

    // Mean speed over surviving links only — the §4.1 criterion should
    // price communication on the network that still exists.
    let mls = surviving_mls(topo, plan);

    let attempt = |insertion: Insertion| -> Result<Schedule, SchedError> {
        rebuild(
            dag, &masked, schedule, &pinned, &usable, mls, insertion, tuning,
        )
    };

    let mut used_fallback = false;
    let repaired = match attempt(Insertion::Optimal) {
        Ok(s) if audit(dag, topo, &s).is_clean() => s,
        _ => {
            used_fallback = true;
            let s = attempt(Insertion::Basic).map_err(RepairError::Unroutable)?;
            let report = audit(dag, topo, &s);
            if !report.is_clean() {
                return Err(RepairError::AuditFailed(report));
            }
            s
        }
    };

    let moved_tasks = dag
        .task_ids()
        .filter(|t| pinned[t.index()].is_none())
        .collect();
    let rerouted_comms = schedule
        .comms
        .iter()
        .zip(&repaired.comms)
        .filter(|(a, b)| route_changed(a, b))
        .count();
    Ok(RepairOutcome {
        schedule: repaired,
        moved_tasks,
        rerouted_comms,
        used_fallback,
    })
}

/// Usable repair targets: non-failed processors belonging to the best
/// mutually connected component of the masked topology. `result[p]` is
/// true iff processor `p` may receive re-placed tasks.
fn surviving_component(topo: &Topology, masked: &Topology, plan: &FaultPlan) -> Vec<bool> {
    let survivors: Vec<ProcId> = topo
        .proc_ids()
        .filter(|&p| !plan.proc_fail_time(p).is_finite())
        .collect();
    // Forward reachability from every surviving processor's node; the
    // pair (p, q) is mutually connected iff each reaches the other.
    // One shared traversal scratch across all the sweeps.
    let mut scratch = BfsScratch::new();
    let reach: Vec<Vec<bool>> = survivors
        .iter()
        .map(|&p| reachable_nodes_with(masked, topo.node_of_proc(p), &mut scratch).to_vec())
        .collect();
    let mutual = |i: usize, j: usize| {
        reach[i][topo.node_of_proc(survivors[j]).index()]
            && reach[j][topo.node_of_proc(survivors[i]).index()]
    };
    // Reference processor: the survivor whose component is largest
    // (ties break to the lowest processor index — determinism).
    let mut best: Option<(usize, usize)> = None; // (survivor idx, size)
    for i in 0..survivors.len() {
        let size = (0..survivors.len()).filter(|&j| mutual(i, j)).count();
        if best.is_none_or(|(_, bs)| size > bs) {
            best = Some((i, size));
        }
    }
    let mut usable = vec![false; topo.proc_count()];
    if let Some((r, _)) = best {
        for j in 0..survivors.len() {
            if mutual(r, j) {
                usable[survivors[j].index()] = true;
            }
        }
    }
    usable
}

/// Which processors (failed or not) are mutually reachable with the
/// usable component — a dispatched task may keep a dead processor only
/// if its outputs can still reach the survivors.
fn connected_to_component(topo: &Topology, masked: &Topology, usable: &[bool]) -> Vec<bool> {
    let Some(reference) = topo.proc_ids().find(|&p| usable[p.index()]) else {
        return vec![false; topo.proc_count()];
    };
    let mut scratch = BfsScratch::new();
    let from_ref =
        reachable_nodes_with(masked, topo.node_of_proc(reference), &mut scratch).to_vec();
    topo.proc_ids()
        .map(|p| {
            usable[p.index()] || {
                let n = topo.node_of_proc(p);
                from_ref[n.index()]
                    && reachable_nodes_with(masked, n, &mut scratch)
                        [topo.node_of_proc(reference).index()]
            }
        })
        .collect()
}

/// Mean speed of the links that did not fail (1.0 when none survive,
/// mirroring [`Topology::mean_link_speed`] on an empty link set).
fn surviving_mls(topo: &Topology, plan: &FaultPlan) -> f64 {
    let mut sum = 0.0_f64;
    let mut count = 0usize;
    for l in topo.link_ids() {
        if !plan.link_fail_time(l).is_finite() {
            sum += topo.link_speed(l);
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        sum / count as f64
    }
}

/// One full forward rebuild: priority order, pinned tasks stay put,
/// unpinned tasks are placed by the hybrid criterion over `usable`,
/// all communications re-planned on the masked topology with OIHSA's
/// edge order / routing / switching and the given insertion policy.
#[allow(clippy::too_many_arguments)]
fn rebuild(
    dag: &TaskGraph,
    masked: &Topology,
    original: &Schedule,
    pinned: &[Option<ProcId>],
    usable: &[bool],
    mls: f64,
    insertion: Insertion,
    tuning: Tuning,
) -> Result<Schedule, SchedError> {
    let mut procs = ProcState::new(masked);
    let mut links = SlottedState::with_tuning(masked, dag.edge_count(), tuning);
    let mut placed: Vec<Option<TaskPlacement>> = vec![None; dag.task_count()];
    // In-edge ordering scratch, hoisted out of the task loop
    // (clear-don't-drop; the analyze pass's L4 lint bans per-task
    // allocations in this loop).
    let mut edge_costs: Vec<f64> = Vec::new();
    let mut edge_idx: Vec<usize> = Vec::new();

    for &task in &priority_list(dag, Priority::BottomLevel) {
        let proc = match pinned[task.index()] {
            Some(p) => p,
            // OIHSA's §4.1 criterion over the usable processors, with
            // the surviving MLS.
            None => pick_hybrid(
                dag,
                masked,
                &procs,
                &placed,
                mls,
                0.0,
                task,
                masked.proc_ids().filter(|&p| usable[p.index()]),
            )
            .ok_or(SchedError::NoProcessors)?,
        };
        // §4.1/§4.2 dynamic model: every in-communication becomes
        // available at the ready time and is placed in cost-descending
        // order.
        let ready = ready_time(dag, &placed, task);
        let in_edges = dag.in_edges(task);
        edge_costs.clear();
        edge_costs.extend(in_edges.iter().map(|&e| dag.cost(e)));
        EdgeOrder::CostDesc.order_into(&edge_costs, &mut edge_idx);
        let mut data_ready = 0.0_f64;
        for k in 0..edge_idx.len() {
            let e = in_edges[edge_idx[k]];
            let edge = dag.edge(e);
            let src = placed[edge.src.index()].expect("predecessors placed first");
            let arrival = if src.proc == proc {
                src.finish
            } else {
                links.schedule_comm(
                    masked,
                    CommId(u64::from(e.0)),
                    ready,
                    edge.cost,
                    src.proc,
                    proc,
                    Routing::ModifiedDijkstra,
                    insertion,
                    Switching::CutThrough,
                )?
            };
            data_ready = data_ready.max(arrival);
        }
        let (start, finish) = procs.place(masked, proc, data_ready, dag.weight(task));
        placed[task.index()] = Some(TaskPlacement {
            proc,
            start,
            finish,
        });
    }

    let tasks: Vec<TaskPlacement> = placed
        .into_iter()
        .map(|p| p.expect("all tasks placed"))
        .collect();
    let comms: Vec<CommPlacement> = dag
        .edge_ids()
        .map(|e| {
            let edge = dag.edge(e);
            if tasks[edge.src.index()].proc == tasks[edge.dst.index()].proc {
                CommPlacement::Local
            } else {
                let (route, times) = links.placement(CommId(u64::from(e.0)));
                CommPlacement::Slotted { route, times }
            }
        })
        .collect();
    debug_assert!(links.check_invariants().is_ok());
    let makespan = Schedule::compute_makespan(&tasks);
    Ok(Schedule {
        algorithm: original.algorithm,
        tasks,
        comms,
        makespan,
    })
}

/// Did the communication's realisation change in a way the robustness
/// metrics should count — different placement kind or different route?
/// (Pure time shifts on the same route do not count.)
fn route_changed(a: &CommPlacement, b: &CommPlacement) -> bool {
    match (a, b) {
        (CommPlacement::Local, CommPlacement::Local) => false,
        (CommPlacement::Slotted { route: ra, .. }, CommPlacement::Slotted { route: rb, .. }) => {
            ra != rb
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, FaultPlan};
    use crate::list::ListScheduler;
    use crate::schedule::Scheduler;
    use es_dag::gen::structured::{fork_join, gauss_elim};
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
    fn no_failure_plan_is_identity() {
        let dag = fork_join(5, 20.0, 12.0);
        let topo = star(3);
        let s = ListScheduler::oihsa().schedule(&dag, &topo).unwrap();
        // Soft faults alone never trigger a rebuild.
        let soft = FaultPlan {
            task_weight_factor: vec![2.0; dag.task_count()],
            ..FaultPlan::none()
        };
        for plan in [FaultPlan::none(), soft] {
            let out = repair(&dag, &topo, &s, &plan).unwrap();
            assert!(out.moved_tasks.is_empty());
            assert_eq!(out.rerouted_comms, 0);
            assert!(!out.used_fallback);
            assert_eq!(out.schedule.makespan.to_bits(), s.makespan.to_bits());
            for (a, b) in out.schedule.tasks.iter().zip(&s.tasks) {
                assert_eq!(a.proc, b.proc);
                assert_eq!(a.start.to_bits(), b.start.to_bits());
                assert_eq!(a.finish.to_bits(), b.finish.to_bits());
            }
        }
    }

    #[test]
    fn processor_failure_moves_unstarted_tasks_and_audits_clean() {
        let dag = gauss_elim(5, 10.0, 25.0);
        let topo = star(4);
        let s = ListScheduler::ba_static().schedule(&dag, &topo).unwrap();
        for victim in topo.proc_ids() {
            let fail_at = s.makespan / 2.0;
            let plan = FaultPlan::kill_processor(&topo, victim, fail_at);
            let out = repair(&dag, &topo, &s, &plan).unwrap();
            assert!(audit(&dag, &topo, &out.schedule).is_clean(), "{victim}");
            // Nothing unstarted remains on the dead processor; tasks
            // dispatched before the failure may stay.
            for (i, t) in out.schedule.tasks.iter().enumerate() {
                if t.proc == victim {
                    assert!(
                        s.tasks[i].proc == victim && s.tasks[i].start + EPS < fail_at,
                        "task n{i} newly placed on the dead processor"
                    );
                }
            }
            for &m in &out.moved_tasks {
                assert_eq!(s.tasks[m.index()].proc, victim);
                assert!(out.schedule.tasks[m.index()].proc != victim);
            }
            // The repaired schedule must itself be executable.
            execute(&dag, &topo, &out.schedule).unwrap();
        }
    }

    #[test]
    fn link_failure_reroutes_around_the_dead_link() {
        let dag = gauss_elim(5, 10.0, 25.0);
        let mut rng = StdRng::seed_from_u64(5);
        let topo = gen::random_switched_wan(&gen::WanConfig::homogeneous(8), &mut rng);
        let s = ListScheduler::oihsa().schedule(&dag, &topo).unwrap();
        // Fail the first link any slotted communication uses.
        let victim = s
            .comms
            .iter()
            .find_map(|c| match c {
                CommPlacement::Slotted { route, .. } => route.first().map(|h| h.link),
                _ => None,
            })
            .expect("at least one remote communication");
        let plan = FaultPlan::kill_link(&topo, victim, 0.0);
        let out = repair(&dag, &topo, &s, &plan).unwrap();
        assert!(audit(&dag, &topo, &out.schedule).is_clean());
        for c in &out.schedule.comms {
            if let CommPlacement::Slotted { route, .. } = c {
                assert!(
                    route.iter().all(|h| h.link != victim),
                    "repaired route still uses the failed link"
                );
            }
        }
        assert!(out.rerouted_comms >= 1);
    }

    #[test]
    fn all_processors_failing_is_an_error() {
        let dag = fork_join(3, 10.0, 10.0);
        let topo = star(2);
        let s = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        let plan = FaultPlan {
            proc_fail: vec![0.0; topo.proc_count()],
            ..FaultPlan::none()
        };
        assert!(matches!(
            repair(&dag, &topo, &s, &plan),
            Err(RepairError::NoSurvivingProcessors)
        ));
    }

    #[test]
    fn repair_skips_an_unusable_processor_that_would_win() {
        // The fast p0 stays alive but loses its only cable, so it is
        // cut off from the larger surviving component {p2, p3}. The
        // hybrid criterion would pick it for every moved task.
        let mut b = Topology::builder();
        let (n0, _) = b.add_processor(10.0);
        let (n1, _) = b.add_processor(1.0);
        let (n2, _) = b.add_processor(1.0);
        let (n3, _) = b.add_processor(1.0);
        let sw = b.add_switch();
        let (l_fwd, l_rev) = b.add_duplex_cable(n0, sw, 1.0);
        for n in [n1, n2, n3] {
            b.add_duplex_cable(n, sw, 1.0);
        }
        let topo = b.build().unwrap();
        let dag = fork_join(4, 10.0, 1.0);
        let s = ListScheduler::oihsa().schedule(&dag, &topo).unwrap();
        assert!(s.tasks.iter().any(|t| t.proc == ProcId(0)));
        let mut plan = FaultPlan::kill_link(&topo, l_fwd, 0.0);
        plan.link_fail[l_rev.index()] = 0.0;
        plan.proc_fail = FaultPlan::kill_processor(&topo, ProcId(1), 0.0).proc_fail;
        let out = repair(&dag, &topo, &s, &plan).unwrap();
        assert!(audit(&dag, &topo, &out.schedule).is_clean());
        assert!(out
            .schedule
            .tasks
            .iter()
            .all(|t| t.proc == ProcId(2) || t.proc == ProcId(3)));
    }

    #[test]
    fn isolated_survivor_component_absorbs_all_tasks() {
        // Two processors joined only through one cable; failing both
        // directions isolates them. The component chooser must settle
        // on one side and move everything there.
        let mut b = Topology::builder();
        let (n0, _) = b.add_processor(1.0);
        let (n1, _) = b.add_processor(1.0);
        let (l_fwd, l_rev) = b.add_duplex_cable(n0, n1, 1.0);
        let topo = b.build().unwrap();
        let dag = fork_join(3, 10.0, 1.0);
        let s = ListScheduler::ba().schedule(&dag, &topo).unwrap();
        let mut plan = FaultPlan::kill_link(&topo, l_fwd, 0.0);
        plan.link_fail[l_rev.index()] = 0.0;
        let out = repair(&dag, &topo, &s, &plan).unwrap();
        assert!(audit(&dag, &topo, &out.schedule).is_clean());
        let first = out.schedule.tasks[0].proc;
        assert!(
            out.schedule.tasks.iter().all(|t| t.proc == first),
            "all tasks on one side of the cut"
        );
        assert!(out
            .schedule
            .comms
            .iter()
            .all(|c| matches!(c, CommPlacement::Local)));
    }
}
