//! Per-layer measurements taken beside an operation, on the same
//! inputs and on the schedule it produced: each call goes through the
//! layer crate's public API and is timed on its own. Layers are named
//! after the crates (`workload`, `dag`, `route`, `linksched`, `core`,
//! `wire`, `runner`).

use crate::report::Outcome;
use crate::trace::{timed, SpanId, Tracer};
use es_core::{execute, validate, CommPlacement, Schedule};
use es_dag::{bottom_levels, priority_list, Priority, TaskGraph};
use es_linksched::{approx_le, CommId, SlotQueue};
use es_net::{NodeId, Topology};
use es_route::{bfs_route, dijkstra_min_hops};
use es_wire::{Frame, ScheduleReply, WireSchedule};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

fn ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Samples collected by the traced run, one vector per metric.
#[derive(Default)]
pub struct Layers {
    pub generate_ms: Vec<f64>,
    pub levels_us: Vec<f64>,
    pub bfs_us: Vec<f64>,
    pub dijkstra_us: Vec<f64>,
    /// Hop count of every remote communication.
    pub route_hops: Vec<f64>,
    /// Slotted hops replayed, per operation.
    pub replay_hops: Vec<f64>,
    pub probe_ns: Vec<f64>,
    pub commit_ns: Vec<f64>,
    pub release_ns: Vec<f64>,
    pub queue_len_max: usize,
    pub schedule_ms: Vec<f64>,
    pub schedule_ms_by: BTreeMap<&'static str, Vec<f64>>,
    pub validate_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    /// `Flow` pieces per fluid (BBSA) schedule.
    pub fluid_pieces: Vec<f64>,
}

impl Layers {
    /// `es_dag::bottom_levels` + `priority_list`, as the list
    /// schedulers compute them.
    pub fn levels(&mut self, dag: &TaskGraph, tr: &mut Tracer, op: u64, parent: SpanId) {
        let ((bl, order), t0, t1) = timed(|| {
            (
                bottom_levels(dag),
                priority_list(dag, Priority::BottomLevel),
            )
        });
        black_box((bl, order));
        self.levels_us.push(us(t0, t1));
        tr.span(op, "dag.levels", t0, t1, Some(parent));
    }

    /// BFS and hop-count Dijkstra for every processor pair the
    /// schedule's remote communications connect; both must find a
    /// route of the same length.
    pub fn routes(
        &mut self,
        topo: &Topology,
        s: &Schedule,
        out: &mut Outcome,
        tr: &mut Tracer,
        op: u64,
        parent: SpanId,
    ) {
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for c in &s.comms {
            if let CommPlacement::Slotted { route, .. } | CommPlacement::Fluid { route, .. } = c {
                if let (Some(first), Some(last)) = (route.first(), route.last()) {
                    pairs.push((first.from, last.to));
                    self.route_hops.push(route.len() as f64);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let start = Instant::now();
        for (a, b) in pairs {
            let (bfs, t0, t1) = timed(|| bfs_route(topo, a, b));
            let (dij, t2, t3) = timed(|| dijkstra_min_hops(topo, a, b));
            self.bfs_us.push(us(t0, t1));
            self.dijkstra_us.push(us(t2, t3));
            match (bfs, dij) {
                (Some(x), Some(y)) if x.len() == y.len() => {}
                (x, y) => out.problem(format!(
                    "route {a:?}->{b:?}: bfs {:?} hops vs dijkstra {:?} hops",
                    x.map(|r| r.len()),
                    y.map(|r| r.len())
                )),
            }
        }
        tr.span(op, "route.search", start, Instant::now(), Some(parent));
    }

    /// `validate::validate` and `execute` on the schedule; execution
    /// (slotted schedules only) must never finish later than scheduled.
    pub fn verify(
        &mut self,
        dag: &TaskGraph,
        topo: &Topology,
        s: &Schedule,
        out: &mut Outcome,
        tr: &mut Tracer,
        op: u64,
        parent: SpanId,
    ) {
        let (v, t0, t1) = timed(|| validate::validate(dag, topo, s));
        self.validate_ms.push(crate::trace::ms(t0, t1));
        tr.span(op, "core.validate", t0, t1, Some(parent));
        if let Err(e) = v {
            out.problem(format!(
                "{}: invalid schedule: {}",
                s.algorithm,
                e.join("; ")
            ));
        }
        let fluid = s
            .comms
            .iter()
            .filter_map(|c| match c {
                CommPlacement::Fluid { flows, .. } => {
                    Some(flows.iter().map(|f| f.pieces.len()).sum::<usize>())
                }
                _ => None,
            })
            .reduce(|a, b| a + b);
        if let Some(pieces) = fluid {
            self.fluid_pieces.push(pieces as f64);
            return;
        }
        let (e, t2, t3) = timed(|| execute(dag, topo, s));
        self.execute_ms.push(crate::trace::ms(t2, t3));
        tr.span(op, "core.execute", t2, t3, Some(parent));
        match e {
            Ok(x) => {
                if !approx_le(x.makespan, s.makespan) {
                    out.problem(format!(
                        "{}: executed makespan {} exceeds scheduled {}",
                        s.algorithm, x.makespan, s.makespan
                    ));
                }
            }
            Err(why) => out.problem(format!("{}: execute failed: {why}", s.algorithm)),
        }
    }

    /// Encode the schedule as a reply frame and decode it back; the
    /// round trip must reproduce the schedule bit for bit.
    pub fn wire(
        &mut self,
        s: &Schedule,
        out: &mut Outcome,
        tr: &mut Tracer,
        op: u64,
        parent: SpanId,
    ) {
        let (bytes, t0, t1) = timed(|| {
            Frame::Schedule(ScheduleReply {
                id: op,
                attempts: 0,
                schedule: WireSchedule::from_schedule(s),
            })
            .encode()
        });
        let (frame, t2, t3) = timed(|| Frame::decode(&bytes));
        self.encode_us.push(us(t0, t1));
        self.decode_us.push(us(t2, t3));
        self.reply_bytes.push(bytes.len() as f64);
        tr.span(op, "wire.encode", t0, t1, Some(parent));
        tr.span(op, "wire.decode", t2, t3, Some(parent));
        let back = match frame {
            Ok(Frame::Schedule(r)) => r.schedule.to_schedule().map_err(|e| e.to_string()),
            Ok(other) => Err(format!("decoded {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        match back {
            Ok(b) => {
                if let Some(d) = es_core::diff_schedules(s, &b) {
                    out.problem(format!("wire round trip changed the schedule: {d}"));
                }
            }
            Err(e) => out.problem(format!("wire round trip failed: {e}")),
        }
    }
}

/// One slotted hop of a schedule, as the replay commits it.
struct HopRec {
    start: f64,
    end: f64,
    link: usize,
    comm: CommId,
    seq: u32,
}

/// Fresh per-link `SlotQueue`s onto which schedules are replayed hop
/// by hop in start order: a probe at the recorded start, then a
/// commit. Releases remove a schedule's communications again.
pub struct LinkReplay {
    queues: Vec<SlotQueue>,
    hops: Vec<HopRec>,
}

impl LinkReplay {
    pub fn new(topo: &Topology) -> Self {
        Self {
            queues: (0..topo.link_count()).map(|_| SlotQueue::new()).collect(),
            hops: Vec::new(),
        }
    }

    /// Replay every slotted hop of `s`; its edges take the comm ids
    /// `comm_base + edge index`.
    pub fn commit(&mut self, layers: &mut Layers, s: &Schedule, comm_base: u64) {
        self.hops.clear();
        for (e, c) in s.comms.iter().enumerate() {
            if let CommPlacement::Slotted { route, times } = c {
                for (k, (hop, &(start, end))) in route.iter().zip(times).enumerate() {
                    self.hops.push(HopRec {
                        start,
                        end,
                        link: hop.link.index(),
                        comm: CommId(comm_base + e as u64),
                        seq: k as u32,
                    });
                }
            }
        }
        self.hops.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.link.cmp(&b.link))
                .then(a.comm.0.cmp(&b.comm.0))
        });
        for h in &self.hops {
            let q = &mut self.queues[h.link];
            let duration = h.end - h.start;
            let (at, t0, t1) = timed(|| q.probe(h.start, duration));
            black_box(at);
            let ((), t2, t3) = timed(|| q.commit(h.comm, h.seq, h.start, duration));
            layers.probe_ns.push(ns(t0, t1));
            layers.commit_ns.push(ns(t2, t3));
            layers.queue_len_max = layers.queue_len_max.max(q.len());
        }
        layers.replay_hops.push(self.hops.len() as f64);
    }

    /// Remove `s`'s communications (ids from `comm_base`) from every
    /// link their routes cross.
    pub fn release(&mut self, layers: &mut Layers, s: &Schedule, comm_base: u64) {
        for (e, c) in s.comms.iter().enumerate() {
            if let CommPlacement::Slotted { route, .. } = c {
                let mut links: Vec<usize> = route.iter().map(|h| h.link.index()).collect();
                links.sort_unstable();
                links.dedup();
                for l in links {
                    let q = &mut self.queues[l];
                    let (n, t0, t1) = timed(|| q.remove_comm(CommId(comm_base + e as u64)));
                    black_box(n);
                    layers.release_ns.push(ns(t0, t1));
                }
            }
        }
    }
}

/// The per-layer metrics every workload reports, from its samples.
pub fn push_common(out: &mut Outcome, l: &Layers) {
    out.push_pct("workload.generate_ms_p50", "ms", &l.generate_ms, 500);
    out.push_pct("dag.levels_us_p50", "us", &l.levels_us, 500);
    out.push_pct("route.bfs_us_p50", "us", &l.bfs_us, 500);
    out.push_pct("route.dijkstra_us_p50", "us", &l.dijkstra_us, 500);
    out.push_mean("route.hops_mean", "hops", &l.route_hops);
    out.push_mean("linksched.hops_per_op", "hops", &l.replay_hops);
    out.push_pct("linksched.probe_ns_p50", "ns", &l.probe_ns, 500);
    out.push_pct("linksched.commit_ns_p50", "ns", &l.commit_ns, 500);
    out.push_pct("linksched.release_ns_p50", "ns", &l.release_ns, 500);
    out.push(
        "linksched.queue_len_max",
        "slots",
        l.queue_len_max as f64,
        l.commit_ns.len(),
    );
    out.push_pct("core.schedule_ms_p50", "ms", &l.schedule_ms, 500);
    for (preset, xs) in &l.schedule_ms_by {
        out.push_pct(&format!("core.schedule_ms_p50.{preset}"), "ms", xs, 500);
    }
    out.push_pct("core.validate_ms_p50", "ms", &l.validate_ms, 500);
    out.push_pct("core.execute_ms_p50", "ms", &l.execute_ms, 500);
    out.push_mean("wire.reply_bytes_mean", "bytes", &l.reply_bytes);
    out.push_pct("wire.encode_us_p50", "us", &l.encode_us, 500);
    out.push_pct("wire.decode_us_p50", "us", &l.decode_us, 500);
    if !l.fluid_pieces.is_empty() {
        out.push_mean("linksched.fluid_pieces_per_op", "pieces", &l.fluid_pieces);
    }
    if !l.request_bytes.is_empty() {
        out.push_mean("wire.request_bytes_mean", "bytes", &l.request_bytes);
    }
    out.push(
        "runner.lanes",
        "lanes",
        es_runner::Threads::resolve().get() as f64,
        1,
    );
}
