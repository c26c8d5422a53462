//! Shared link-scheduling state for the slotted schedulers (BA, OIHSA
//! and every ablation in between).
//!
//! [`SlottedState`] owns one [`SlotQueue`] per link plus the
//! per-communication bookkeeping (route and per-hop times) that OIHSA's
//! deferrable-time computation (Lemma 2) needs. It implements:
//!
//! * route selection — BFS minimal (cached; the network is static) or
//!   the paper's modified Dijkstra with a basic-insertion finish-time
//!   probe per link (§4.3);
//! * hop-by-hop placement under link causality with either basic
//!   (first-fit) or optimal insertion (§4.4), keeping every
//!   communication's recorded times in sync when optimal insertion
//!   defers other slots;
//! * exact rollback of basic-insertion placements, which the
//!   sequential reference probe ([`crate::ProbeParallelism::Sequential`])
//!   requires.
//!
//! BA's earliest-finish processor probe itself runs through
//! [`OverlayState`]: every candidate places its in-edges into private
//! copy-on-write deltas over the committed queues, and only the winner
//! is committed here (DESIGN.md §11).
//!
//! Both states route through one search, `pick_route_into`, and bound
//! every hop with one causality rule, `hop_bound`. The search takes
//! the per-link probe as a closure: the committed state passes
//! `queues[l].probe(bound, int)`, the overlay passes
//! `overlay_probe(&base[l], &deltas[l], bound, int)`. Each closure is
//! monomorphised into its own copy of the search, so sharing the code
//! costs nothing per probe.
//!
//! # Performance model (DESIGN.md §10)
//!
//! With [`Tuning::route_cache`] on, the overlay probe memoizes
//! modified-Dijkstra search state *across the processor candidates
//! probed for one ready task*: the search trajectory is
//! destination-independent, so the P per-candidate searches from the
//! same source collapse into at most one [`IncrementalDijkstra`] that
//! each candidate merely advances. A cached search is consulted only
//! while the candidate's deltas are empty — the link schedules it
//! probed are then provably the committed ones. Committed-state
//! searches here run fresh over hoisted scratch buffers. Every answer
//! is bitwise identical to a fresh search; the differential oracle
//! enforces this.

use crate::config::{Insertion, Routing, Switching, Tuning};
use crate::schedule::SchedError;
use es_linksched::optimal::{optimal_insert_with, InsertScratch};
use es_linksched::overlay::SlotQueueOverlay;
use es_linksched::slot::{Slot, SlotQueue};
use es_linksched::CommId;
use es_net::{Hop, NodeId, ProcId, Topology};
use es_route::{
    bfs_route_with, dijkstra_route, dijkstra_route_into_with, BfsScratch, DijkstraScratch,
    IncrementalDijkstra, Route,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide route-cache counters (relaxed; they feed the bench
/// report and never influence scheduling).
static ROUTE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static ROUTE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide route-cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Modified-Dijkstra searches answered by resuming a cached one.
    pub hits: u64,
    /// Searches that had to be opened fresh.
    pub misses: u64,
}

impl CacheStats {
    /// Total cacheable lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when none happened).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Read the process-wide route-cache counters. Counters only ever
/// increase while the process runs; tests assert on deltas.
#[must_use]
pub fn route_cache_stats() -> CacheStats {
    CacheStats {
        hits: ROUTE_CACHE_HITS.load(Ordering::Relaxed),
        misses: ROUTE_CACHE_MISSES.load(Ordering::Relaxed),
    }
}

/// Reset the process-wide route-cache counters (bench harness only;
/// racy if schedulers run concurrently).
pub fn reset_route_cache_stats() {
    ROUTE_CACHE_HITS.store(0, Ordering::Relaxed);
    ROUTE_CACHE_MISSES.store(0, Ordering::Relaxed);
}

/// FIFO backstop so pathological probe patterns cannot grow a lane's
/// search cache without bound; the per-task reset keeps it far below
/// this in practice.
const ROUTE_CACHE_CAP: usize = 32;

/// One memoized minimal route in the flat BFS arena.
#[derive(Clone, Debug, Default)]
enum BfsEntry {
    /// Never computed for the current adjacency view.
    #[default]
    Unknown,
    /// Computed: the destination is unreachable.
    NoRoute,
    /// Computed: the minimal route.
    Route(Route),
}

/// The route memo and search scratch of one prober — the committed
/// [`SlottedState`] or one lane's [`ProbeWorkspace`] — reused across
/// placements (clear-don't-drop; no behavioural effect).
///
/// BFS routes live in a flat arena indexed `src * stride + dst`
/// (DESIGN.md §16): a lookup is one multiply-add into a dense `Vec`,
/// and a hit hands back a borrowed `&[Hop]` so the probe hot path never
/// clones a route. The arena is guarded by the topology signature; an
/// unsigned view (signature 0) is never trusted and resets it on every
/// call. Dense storage makes lookups deterministic by construction,
/// which satisfies the analyze/determinism audits without an ordered
/// map.
#[derive(Clone, Debug)]
struct RouteMemo {
    /// [`Topology::signature`] of the view the arena was filled from.
    sig: u64,
    /// Node count of that view (row stride).
    stride: usize,
    bfs_routes: Vec<BfsEntry>,
    bfs_scratch: BfsScratch,
    dijkstra_scratch: DijkstraScratch<(f64, f64)>,
}

impl RouteMemo {
    fn new() -> Self {
        Self {
            sig: 0,
            stride: 0,
            bfs_routes: Vec::new(),
            bfs_scratch: BfsScratch::new(),
            dijkstra_scratch: DijkstraScratch::new(),
        }
    }

    /// The memoized minimal route `src -> dst` under `topo`'s adjacency
    /// view, computing and caching it on first use. A different view
    /// (e.g. a masked repair topology) or an unsigned one resets the
    /// arena: minimal routes may differ, so the memoized ones must not
    /// be served.
    fn route_for(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<&[Hop]> {
        let sig = topo.signature();
        let n = topo.node_count();
        if sig == 0 || sig != self.sig || n != self.stride {
            self.sig = sig;
            self.stride = n;
            self.bfs_routes.clear();
            self.bfs_routes.resize(n * n, BfsEntry::Unknown);
        }
        let i = src.index() * self.stride + dst.index();
        if matches!(self.bfs_routes[i], BfsEntry::Unknown) {
            self.bfs_routes[i] = match bfs_route_with(topo, src, dst, &mut self.bfs_scratch) {
                Some(r) => BfsEntry::Route(r),
                None => BfsEntry::NoRoute,
            };
        }
        match &self.bfs_routes[i] {
            BfsEntry::Route(r) => Some(r),
            _ => None,
        }
    }
}

/// Identity of one memoizable overlay search. There is no link-state
/// epoch or topology signature in it: a [`ProbeWorkspace`]'s searches
/// live inside a single `pick_by_probe` call (one ready task, one
/// immutable base, one topology view) and are invalidated wholesale
/// between tasks via [`ProbeWorkspace::begin_candidate`]'s serial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WorkerSearchKey {
    src: NodeId,
    /// `est.to_bits()` — bitwise, no tolerance.
    est: u64,
    /// `cost.to_bits()`.
    cost: u64,
    switching: Switching,
}

/// A lane's resumable modified-Dijkstra searches, valid for one probe
/// cycle (overlay only).
type SearchCache = Vec<(WorkerSearchKey, IncrementalDijkstra<(f64, f64)>)>;

/// Link causality (§2.2): the earliest a transfer of duration `int` may
/// start on a hop whose previous hop carried it over
/// `[prev_start, prev_finish)`, with switch latency `delay` in between.
/// Cut-through starts no earlier than on the previous link and finishes
/// no earlier either — the "virtual start" bound
/// `max(t_s(prev), t_f(prev) - int)` enforces both at full bandwidth.
/// Store-and-forward waits for the whole message instead.
fn hop_bound(prev_start: f64, prev_finish: f64, delay: f64, int: f64, switching: Switching) -> f64 {
    match switching {
        Switching::CutThrough => (prev_start + delay).max(prev_finish + delay - int),
        Switching::StoreAndForward => prev_finish + delay,
    }
}

/// The one route search (§4.3) behind [`SlottedState`] and
/// [`OverlayState`]; writes the route into `out` and returns whether
/// one exists (`out` is meaningful only then).
///
/// BFS minimal routes come from `memo`. The modified Dijkstra relaxes
/// each hop by this communication's finish time on it, read from
/// `probe(link, bound, int)` — a basic-insertion probe of the committed
/// queue or of one lane's overlay. `resume` is the overlay's cache of
/// incremental searches, passed only while a cached search may serve;
/// without it the search runs fresh, over `memo`'s scratch when
/// `route_cache` is on and through the allocating reference search
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn pick_route_into(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    est: f64,
    cost: f64,
    routing: Routing,
    switching: Switching,
    route_cache: bool,
    memo: &mut RouteMemo,
    resume: Option<&mut SearchCache>,
    probe: impl Fn(usize, f64, f64) -> f64,
    out: &mut Vec<Hop>,
) -> bool {
    match routing {
        Routing::Bfs => match memo.route_for(topo, src, dst) {
            Some(hops) => {
                out.clear();
                out.extend_from_slice(hops);
                true
            }
            None => false,
        },
        Routing::ModifiedDijkstra => {
            // The hop delay is applied uniformly (including the first
            // hop) — a conservative metric; actual placement applies
            // it precisely.
            let delay = topo.hop_delay();
            let relax = move |&(s, f): &(f64, f64), hop: &Hop| {
                let int = cost / topo.link_speed(hop.link);
                let start = probe(
                    hop.link.index(),
                    hop_bound(s, f, delay, int, switching),
                    int,
                );
                (start, (start + int).max(f))
            };
            let key = |&(_, f): &(f64, f64)| f;
            if let Some(cache) = resume {
                let k = WorkerSearchKey {
                    src,
                    est: est.to_bits(),
                    cost: cost.to_bits(),
                    switching,
                };
                let search = if let Some(i) = cache.iter().position(|(ck, _)| *ck == k) {
                    ROUTE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                    &mut cache[i].1
                } else {
                    ROUTE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                    if cache.len() >= ROUTE_CACHE_CAP {
                        cache.remove(0);
                    }
                    cache.push((
                        k,
                        IncrementalDijkstra::new(topo.node_count(), src, (est, est), est),
                    ));
                    &mut cache.last_mut().expect("just pushed").1
                };
                search.route_to_into(topo, dst, relax, key, out).is_some()
            } else if route_cache {
                dijkstra_route_into_with(
                    topo,
                    src,
                    dst,
                    (est, est),
                    relax,
                    key,
                    &mut memo.dijkstra_scratch,
                    out,
                )
                .is_some()
            } else {
                match dijkstra_route(topo, src, dst, (est, est), relax, key) {
                    Some((route, _)) => {
                        *out = route;
                        true
                    }
                    None => false,
                }
            }
        }
    }
}

/// Bookkeeping for one scheduled communication.
#[derive(Clone, Debug, Default)]
struct CommRecord {
    /// The hops taken (empty when unscheduled or local).
    route: Vec<Hop>,
    /// `(start, finish)` on each hop; `None` until that hop is placed.
    times: Vec<Option<(f64, f64)>>,
}

/// All link schedules plus communication bookkeeping.
#[derive(Clone, Debug)]
pub struct SlottedState {
    queues: Vec<SlotQueue>,
    comms: Vec<CommRecord>,
    routes: RouteMemo,
    tuning: Tuning,
    /// Scratch buffers reused across placements (allocation hoisting;
    /// no behavioural effect).
    insert_scratch: InsertScratch,
    dts_scratch: Vec<f64>,
    route_scratch: Vec<Hop>,
}

impl SlottedState {
    /// Fresh state: all links idle; capacity for `comm_count`
    /// communications (one per DAG edge). Uses [`Tuning::default`].
    pub fn new(topo: &Topology, comm_count: usize) -> Self {
        Self::with_tuning(topo, comm_count, Tuning::default())
    }

    /// Fresh state with explicit performance [`Tuning`].
    pub fn with_tuning(topo: &Topology, comm_count: usize, tuning: Tuning) -> Self {
        Self {
            queues: (0..topo.link_count())
                .map(|_| SlotQueue::indexed(tuning.indexed_gaps))
                .collect(),
            comms: vec![CommRecord::default(); comm_count],
            routes: RouteMemo::new(),
            tuning,
            insert_scratch: InsertScratch::new(),
            dts_scratch: Vec::new(),
            route_scratch: Vec::new(),
        }
    }

    /// The performance tuning this state was built with.
    pub fn tuning(&self) -> Tuning {
        self.tuning
    }

    /// The slot queue of a link (validators and tests peek at these).
    pub fn queue(&self, link: es_net::LinkId) -> &SlotQueue {
        &self.queues[link.index()]
    }

    /// Every link's committed queue, indexed by `LinkId::index()` —
    /// the shared **base** that overlay probing reads. The gap index is
    /// maintained eagerly by the mutators, so a `&SlotQueue` is plain
    /// shared data (`Sync`) and the borrow crosses worker lanes as is.
    pub fn queues(&self) -> &[SlotQueue] {
        &self.queues
    }

    /// Recorded `(start, finish)` of `comm` on hop `seq`.
    pub fn hop_times(&self, comm: CommId, seq: usize) -> Option<(f64, f64)> {
        self.comms[comm.0 as usize]
            .times
            .get(seq)
            .copied()
            .flatten()
    }

    /// The committed route of `comm` (empty if unscheduled).
    pub fn route_of(&self, comm: CommId) -> &[Hop] {
        &self.comms[comm.0 as usize].route
    }

    /// Route and schedule one communication.
    ///
    /// * `est` — earliest start (source task finish time);
    /// * `cost` — communication cost `c(e)`;
    /// * returns the arrival time at the destination processor.
    ///
    /// The route is chosen per `routing`; each hop is placed under link
    /// causality using `insertion`. With [`Insertion::Optimal`],
    /// already-scheduled slots may be deferred within their Lemma-2
    /// slack; the displaced communications' recorded times are updated.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_comm(
        &mut self,
        topo: &Topology,
        comm: CommId,
        est: f64,
        cost: f64,
        from: ProcId,
        to: ProcId,
        routing: Routing,
        insertion: Insertion,
        switching: Switching,
    ) -> Result<f64, SchedError> {
        debug_assert_ne!(from, to, "local communications never reach the link layer");
        let src = topo.node_of_proc(from);
        let dst = topo.node_of_proc(to);
        let mut route = std::mem::take(&mut self.route_scratch);
        let queues = &self.queues;
        let found = pick_route_into(
            topo,
            src,
            dst,
            est,
            cost,
            routing,
            switching,
            self.tuning.route_cache,
            &mut self.routes,
            None,
            |l, bound, int| queues[l].probe(bound, int),
            &mut route,
        );
        if !found {
            self.route_scratch = route;
            return Err(SchedError::NoRoute { from, to });
        }
        let arrival = self.place_on_route(topo, comm, est, cost, &route, insertion, switching);
        self.route_scratch = route;
        Ok(arrival)
    }

    /// Place a communication on every hop of `route` in order,
    /// maintaining the link causality condition; returns the arrival
    /// time on the last hop.
    fn place_on_route(
        &mut self,
        topo: &Topology,
        comm: CommId,
        est: f64,
        cost: f64,
        route: &[Hop],
        insertion: Insertion,
        switching: Switching,
    ) -> f64 {
        let rec_idx = comm.0 as usize;
        let times = &mut self.comms[rec_idx].times;
        times.clear();
        times.resize(route.len(), None);

        let (mut prev_start, mut prev_finish) = (est, est);
        for (seq, hop) in route.iter().enumerate() {
            let int = cost / topo.link_speed(hop.link);
            // Per-hop switch latency applies from the second hop on.
            let delay = if seq == 0 { 0.0 } else { topo.hop_delay() };
            let bound = hop_bound(prev_start, prev_finish, delay, int, switching);
            let (start, finish) = match insertion {
                Insertion::Basic => {
                    let queue = &mut self.queues[hop.link.index()];
                    let start = queue.probe(bound, int);
                    queue.commit(comm, seq as u32, start, int);
                    (start, start + int)
                }
                Insertion::Optimal => {
                    deferrable_times_into(
                        &self.queues[hop.link.index()],
                        &self.comms,
                        topo.hop_delay(),
                        &mut self.dts_scratch,
                    );
                    let placement = optimal_insert_with(
                        &mut self.queues[hop.link.index()],
                        comm,
                        seq as u32,
                        bound,
                        int,
                        &self.dts_scratch,
                        &mut self.insert_scratch,
                    );
                    // Propagate deferrals into the displaced
                    // communications' recorded times.
                    for shift in &placement.shifts {
                        let rec = &mut self.comms[shift.comm.0 as usize];
                        rec.times[shift.seq as usize] = Some((shift.new_start, shift.new_end));
                    }
                    (placement.start, placement.end)
                }
            };
            self.comms[rec_idx].times[seq] = Some((start, finish));
            prev_start = start;
            prev_finish = finish;
        }
        // The route is recorded only now, which keeps Lemma-2 deferrable
        // times at the conservative 0 for this comm's own mid-placement
        // slots (their next-hop times are unset either way).
        let rec_route = &mut self.comms[rec_idx].route;
        rec_route.clear();
        rec_route.extend_from_slice(route);
        prev_finish
    }

    /// Remove every slot of `comm` and clear its bookkeeping.
    ///
    /// Exact only for basic-insertion placements (optimal insertion may
    /// have deferred *other* slots, which are not restored); BA's
    /// tentative probe therefore always runs with basic insertion.
    pub fn unschedule(&mut self, comm: CommId) {
        let mut rec = std::mem::take(&mut self.comms[comm.0 as usize]);
        if self.tuning.indexed_gaps {
            // The recorded per-hop times pin each slot exactly (optimal
            // insertion keeps them updated when it defers slots), so a
            // binary-searched single-slot removal replaces the full
            // scan. Any miss falls back to the reference path — the
            // resulting queues are identical either way.
            for (seq, hop) in rec.route.iter().enumerate() {
                let queue = &mut self.queues[hop.link.index()];
                let removed = rec.times[seq]
                    .is_some_and(|(start, _)| queue.remove_slot_at(comm, seq as u32, start));
                if !removed {
                    queue.remove_comm(comm);
                }
            }
        } else {
            for hop in &rec.route {
                self.queues[hop.link.index()].remove_comm(comm);
            }
        }
        // Clear-don't-drop: hand the record's buffers back for the
        // next placement of this id instead of deallocating them —
        // rollback-heavy probe cycles otherwise free and reallocate
        // two Vecs per candidate edge.
        rec.route.clear();
        rec.times.clear();
        self.comms[comm.0 as usize] = rec;
    }

    /// Grow the communication table to hold ids `0..n`. The online
    /// engine assigns each arriving job a fresh contiguous id block
    /// (ids are never reissued, so reservations of live jobs can never
    /// alias a retired job's), and widens the table here before
    /// scheduling the job's edges. Committed link state is untouched.
    pub fn ensure_comm_capacity(&mut self, n: usize) {
        if self.comms.len() < n {
            self.comms.resize(n, CommRecord::default());
        }
    }

    /// Incremental compaction (DESIGN.md §15): release every slot of
    /// the listed *retired* communications through the
    /// [`es_linksched::LinkModel`] trait and clear their bookkeeping,
    /// returning how many slots were dropped. The caller promises the
    /// communications belong to completed jobs whose entire occupancy
    /// lies at or before every future placement's earliest start; the
    /// freed gaps then sit strictly before any future probe window, so
    /// releasing them is semantics-free (the `integration_online`
    /// differential suite pins this bitwise).
    pub fn release_comms(&mut self, comms: &[CommId]) -> usize {
        use es_linksched::LinkModel;
        let mut dropped = 0usize;
        for &comm in comms {
            let rec = std::mem::take(&mut self.comms[comm.0 as usize]);
            for hop in &rec.route {
                dropped += LinkModel::release_all(&mut self.queues[hop.link.index()], &[comm]);
            }
        }
        dropped
    }

    /// Extract the per-hop times of a scheduled communication (for the
    /// final [`crate::schedule::CommPlacement`]).
    pub fn placement(&self, comm: CommId) -> (Vec<Hop>, Vec<(f64, f64)>) {
        let rec = &self.comms[comm.0 as usize];
        let times = rec
            .times
            .iter()
            .map(|t| t.expect("placement queried for fully scheduled comm"))
            .collect();
        (rec.route.clone(), times)
    }

    /// Check every queue's internal invariants (tests/validation).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, q) in self.queues.iter().enumerate() {
            q.check_invariants()
                .map_err(|e| format!("link L{i}: {e}"))?;
        }
        Ok(())
    }
}

/// Per-lane scratch for speculative overlay probing (DESIGN.md §11).
///
/// Each worker lane owns one workspace for the whole scheduling run;
/// everything in it is clear-don't-drop so steady-state probing does
/// not allocate. It holds the private per-link deltas of the candidate
/// currently being probed plus the lane's caches: a BFS route memo,
/// hoisted Dijkstra/BFS scratch buffers, and the incremental
/// modified-Dijkstra searches that the route cache resumes across
/// candidates of the same task.
#[derive(Clone, Debug)]
pub struct ProbeWorkspace {
    /// Private copy-on-write deltas, indexed like the base queues
    /// (`LinkId::index()`). Kept allocated across candidates.
    deltas: Vec<Vec<Slot>>,
    /// Links whose delta is currently non-empty.
    touched: Vec<usize>,
    /// Lane-local route memo; its BFS routes survive across tasks —
    /// minimal routes only depend on the adjacency view.
    routes: RouteMemo,
    route_scratch: Vec<Hop>,
    /// Lane-local incremental searches, valid for one probe cycle.
    incr: SearchCache,
    /// The probe cycle (task) `incr` belongs to.
    probe_serial: u64,
}

impl ProbeWorkspace {
    /// Fresh workspace for a topology with `link_count` links.
    #[must_use]
    pub fn new(link_count: usize) -> Self {
        Self {
            deltas: vec![Vec::new(); link_count],
            touched: Vec::new(),
            routes: RouteMemo::new(),
            route_scratch: Vec::new(),
            incr: Vec::new(),
            probe_serial: 0,
        }
    }

    /// Reset for the next candidate: drop its deltas (keeping their
    /// buffers) and, when `probe_serial` names a new probe cycle (a new
    /// ready task), invalidate the incremental searches — they probed
    /// committed link state that has since moved on.
    pub fn begin_candidate(&mut self, probe_serial: u64) {
        for &l in &self.touched {
            self.deltas[l].clear();
        }
        self.touched.clear();
        if self.probe_serial != probe_serial {
            self.probe_serial = probe_serial;
            self.incr.clear();
        }
    }
}

/// A probe-only view of the link state: the committed queues
/// ([`SlottedState::queues`], borrowed immutably) plus one lane's
/// private [`ProbeWorkspace`] deltas. Supports exactly what the
/// earliest-finish processor probe needs — basic-insertion
/// `schedule_comm` — and answers it bitwise identically to scheduling
/// onto the real queues and rolling back, by construction: overlay
/// probes equal real-queue probes ([`SlotQueueOverlay`]'s contract), and
/// both states route through the same search and bound each hop by the
/// same causality rule.
pub struct OverlayState<'a> {
    base: &'a [SlotQueue],
    tuning: Tuning,
    ws: &'a mut ProbeWorkspace,
}

impl<'a> OverlayState<'a> {
    /// Wrap the committed queues and one lane's workspace. The
    /// workspace must have been created for the same link count and
    /// [`ProbeWorkspace::begin_candidate`]-reset by the caller.
    pub fn new(base: &'a [SlotQueue], tuning: Tuning, ws: &'a mut ProbeWorkspace) -> Self {
        debug_assert_eq!(base.len(), ws.deltas.len(), "base/workspace link count");
        Self { base, tuning, ws }
    }

    /// Probe-only counterpart of [`SlottedState::schedule_comm`] with
    /// [`Insertion::Basic`] (the only insertion probes ever use):
    /// routes the communication and places every hop into this lane's
    /// private deltas, returning the arrival time at the destination.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_comm(
        &mut self,
        topo: &Topology,
        comm: CommId,
        est: f64,
        cost: f64,
        from: ProcId,
        to: ProcId,
        routing: Routing,
        switching: Switching,
    ) -> Result<f64, SchedError> {
        debug_assert_ne!(from, to, "local communications never reach the link layer");
        let src = topo.node_of_proc(from);
        let dst = topo.node_of_proc(to);
        let ws = &mut *self.ws;
        let mut route = std::mem::take(&mut ws.route_scratch);
        // A memoized search is resumable only while the link state it
        // probed is provably unchanged: "no private delta yet" — each
        // candidate's first searches probe the committed queues
        // themselves, the same state for every candidate of the task.
        let resumable = self.tuning.route_cache && topo.signature() != 0 && ws.touched.is_empty();
        let (base, deltas) = (self.base, &ws.deltas);
        let found = pick_route_into(
            topo,
            src,
            dst,
            est,
            cost,
            routing,
            switching,
            self.tuning.route_cache,
            &mut ws.routes,
            resumable.then_some(&mut ws.incr),
            |l, bound, int| overlay_probe(&base[l], &deltas[l], bound, int),
            &mut route,
        );
        if !found {
            self.ws.route_scratch = route;
            return Err(SchedError::NoRoute { from, to });
        }
        let arrival = self.place_on_route(topo, comm, est, cost, &route, switching);
        self.ws.route_scratch = route;
        Ok(arrival)
    }

    /// Per-hop placement with basic insertion only: probe the merged
    /// view, commit into the private delta. Returns the arrival on the
    /// last hop.
    fn place_on_route(
        &mut self,
        topo: &Topology,
        comm: CommId,
        est: f64,
        cost: f64,
        route: &[Hop],
        switching: Switching,
    ) -> f64 {
        let ws = &mut *self.ws;
        let (mut prev_start, mut prev_finish) = (est, est);
        for (seq, hop) in route.iter().enumerate() {
            let int = cost / topo.link_speed(hop.link);
            let delay = if seq == 0 { 0.0 } else { topo.hop_delay() };
            let bound = hop_bound(prev_start, prev_finish, delay, int, switching);
            let l = hop.link.index();
            let base = &self.base[l];
            let delta = &mut ws.deltas[l];
            let start = overlay_probe(base, delta, bound, int);
            if delta.is_empty() {
                ws.touched.push(l);
            }
            SlotQueueOverlay::commit_into(base.slots(), delta, comm, seq as u32, start, int);
            prev_start = start;
            prev_finish = start + int;
        }
        prev_finish
    }
}

/// Basic-insertion probe of one link as one candidate sees it: the
/// committed queue `q` merged with the candidate's `delta`. The merge
/// starts at the queue's first live slot for `bound`
/// ([`SlotQueue::live_from`]) — bitwise-neutral, because every skipped
/// slot ends below `bound - EPS` and so can neither fit nor raise the
/// candidate, and a delta slot merged ahead of a skipped slot ends
/// below `bound` too (non-overlap), so it is just as inert for
/// transfers longer than EPS (DESIGN.md §11; debug builds re-probe the
/// full base to prove it). Shared by the route metric and the per-hop
/// placement so both probe the same view.
fn overlay_probe(q: &SlotQueue, delta: &[Slot], bound: f64, int: f64) -> f64 {
    let start = SlotQueueOverlay::new(&q.slots()[q.live_from(bound)..], delta).probe(bound, int);
    debug_assert_eq!(
        start.to_bits(),
        SlotQueueOverlay::new(q.slots(), delta)
            .probe(bound, int)
            .to_bits(),
        "inert-prefix skip changed an overlay probe"
    );
    start
}

/// Lemma 2 deferrable times for every slot of one queue, into a
/// caller-owned buffer (the buffer is cleared first).
///
/// A slot of communication `c` at route position `seq` can defer by
/// `min( t_s(c, next) - t_s(c, here), t_f(c, next) - t_f(c, here) )`
/// minus the per-hop switch delay (the next hop must stay at least
/// `hop_delay` behind this one — the audit's strengthened causality
/// condition), where `next` is `c`'s next route hop — 0 when this is
/// the last hop (the arrival may already gate the destination task),
/// and 0 when the next hop is not yet placed (conservative; happens
/// only mid-placement of `c` itself). With `hop_delay == 0` the
/// subtraction is exact, so delay-free topologies are bit-unchanged.
fn deferrable_times_into(
    queue: &SlotQueue,
    comms: &[CommRecord],
    hop_delay: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(queue.slots().iter().map(|slot| {
        let rec = &comms[slot.comm.0 as usize];
        let seq = slot.seq as usize;
        if seq + 1 >= rec.route.len() {
            return 0.0;
        }
        match rec.times.get(seq + 1).copied().flatten() {
            None => 0.0,
            Some((next_start, next_finish)) => {
                let dt = (next_start - slot.start).min(next_finish - slot.end) - hop_delay;
                dt.max(0.0)
            }
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_net::Topology;

    /// p0 -sw- p1 line with unit speeds.
    fn line() -> Topology {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sw = b.add_switch();
        b.add_duplex_cable(p0, sw, 1.0);
        b.add_duplex_cable(sw, p1, 1.0);
        b.build().unwrap()
    }

    fn c(n: u64) -> CommId {
        CommId(n)
    }

    #[test]
    fn single_comm_cut_through() {
        let topo = line();
        let mut st = SlottedState::new(&topo, 4);
        let arrival = st
            .schedule_comm(
                &topo,
                c(0),
                2.0,
                6.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        // Two unit-speed hops, cut-through: both [2, 8).
        assert_eq!(arrival, 8.0);
        let (route, times) = st.placement(c(0));
        assert_eq!(route.len(), 2);
        assert_eq!(times, vec![(2.0, 8.0), (2.0, 8.0)]);
    }

    #[test]
    fn second_comm_queues_behind_first() {
        let topo = line();
        let mut st = SlottedState::new(&topo, 4);
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            5.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        let arrival = st
            .schedule_comm(
                &topo,
                c(1),
                0.0,
                5.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        // First link busy [0,5): second transfer starts at 5.
        assert_eq!(arrival, 10.0);
        st.check_invariants().unwrap();
    }

    #[test]
    fn heterogeneous_hops_respect_causality() {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sw = b.add_switch();
        b.add_duplex_cable(p0, sw, 1.0); // slow: int = cost
        b.add_duplex_cable(sw, p1, 4.0); // fast: int = cost/4
        let topo = b.build().unwrap();
        let mut st = SlottedState::new(&topo, 2);
        let arrival = st
            .schedule_comm(
                &topo,
                c(0),
                0.0,
                8.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        let (_, times) = st.placement(c(0));
        // Slow hop [0,8); fast hop int=2 with virtual start 6: [6,8).
        assert_eq!(times[0], (0.0, 8.0));
        assert_eq!(times[1], (6.0, 8.0));
        assert_eq!(arrival, 8.0);
        // Causality: start and finish non-decreasing along the route.
        assert!(times[1].0 >= times[0].0);
        assert!(times[1].1 >= times[0].1);
    }

    #[test]
    fn unschedule_rolls_back_exactly() {
        let topo = line();
        let mut st = SlottedState::new(&topo, 4);
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            5.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        let a1 = st
            .schedule_comm(
                &topo,
                c(1),
                0.0,
                3.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        st.unschedule(c(1));
        let a2 = st
            .schedule_comm(
                &topo,
                c(1),
                0.0,
                3.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        assert_eq!(a1, a2, "re-scheduling after rollback is deterministic");
        assert!(st.route_of(c(1)).len() == 2);
    }

    #[test]
    fn no_route_is_an_error() {
        let mut b = Topology::builder();
        b.add_processor(1.0);
        b.add_processor(1.0);
        let topo = b.build().unwrap();
        let mut st = SlottedState::new(&topo, 1);
        let err = st
            .schedule_comm(
                &topo,
                c(0),
                0.0,
                1.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::NoRoute {
                from: ProcId(0),
                to: ProcId(1)
            }
        );
    }

    #[test]
    fn optimal_insertion_defers_slot_with_downstream_slack() {
        let topo = line();
        let mut st = SlottedState::new(&topo, 8);
        // comm 0: cost 4 over both hops; on the first link it sits at
        // [0,4), on the second [0,4).
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            4.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        // comm 1: queues behind comm 0 on both links: first link [4,8),
        // second [4,8). Its first-link slot has slack 0 (start/finish
        // equal on both links) — deferral impossible; comm 2 must queue.
        st.schedule_comm(
            &topo,
            c(1),
            0.0,
            4.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        let arrival = st
            .schedule_comm(
                &topo,
                c(2),
                0.0,
                2.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Optimal,
                Switching::CutThrough,
            )
            .unwrap();
        assert_eq!(arrival, 10.0);
        st.check_invariants().unwrap();
    }

    #[test]
    fn optimal_insertion_uses_real_slack() {
        // Build slack explicitly: a 3-link chain where the middle
        // transfer is delayed downstream, giving its first-hop slot
        // real deferrable time.
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let (p2, _) = b.add_processor(1.0);
        let sw = b.add_switch();
        b.add_duplex_cable(p0, sw, 1.0);
        b.add_duplex_cable(sw, p1, 1.0);
        b.add_duplex_cable(sw, p2, 1.0);
        let topo = b.build().unwrap();
        let mut st = SlottedState::new(&topo, 8);

        // comm 0 congests sw->p1 with [0, 10).
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            10.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        // comm 1 (p0 -> p1, cost 4): p0->sw is busy [0,10) from comm 0
        // too... actually comm 0 occupies p0->sw [0,10) as well, so
        // comm 1 sits at [10,14) on p0->sw and [10,14) on sw->p1.
        st.schedule_comm(
            &topo,
            c(1),
            0.0,
            4.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        let (_, t1) = st.placement(c(1));
        assert_eq!(t1[0], (10.0, 14.0));

        // comm 2 (p0 -> p2, cost 6) with optimal insertion: comm 1's
        // slot on p0->sw has zero slack (its next-hop times equal), so
        // no deferral; comm 2 appends at 14 on p0->sw... but BFS route
        // p0->sw->p2 only shares the first link.
        let arrival = st
            .schedule_comm(
                &topo,
                c(2),
                0.0,
                6.0,
                ProcId(0),
                ProcId(2),
                Routing::Bfs,
                Insertion::Optimal,
                Switching::CutThrough,
            )
            .unwrap();
        assert_eq!(arrival, 20.0);
        st.check_invariants().unwrap();
    }

    /// p0 -sw- p1 line with unit speeds and a per-hop switch delay.
    fn delayed_line(delay: f64) -> Topology {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sw = b.add_switch();
        b.add_duplex_cable(p0, sw, 1.0);
        b.add_duplex_cable(sw, p1, 1.0);
        b.set_hop_delay(delay);
        b.build().unwrap()
    }

    #[test]
    fn hop_bound_follows_the_switching_mode() {
        // Previous hop [2, 10); 4 time units here; switch delay 0.5.
        // Cut-through must finish by 10.5 at the earliest: start 6.5.
        assert_eq!(hop_bound(2.0, 10.0, 0.5, 4.0, Switching::CutThrough), 6.5);
        // A longer transfer is held back by the previous start instead.
        assert_eq!(hop_bound(2.0, 10.0, 0.5, 9.0, Switching::CutThrough), 2.5);
        // Store-and-forward waits for the whole message.
        assert_eq!(
            hop_bound(2.0, 10.0, 0.5, 4.0, Switching::StoreAndForward),
            10.5
        );
        // Both placement loops leave the first hop at the EST itself;
        // only later hops pay the switch delay.
        let topo = delayed_line(0.5);
        let mut st = SlottedState::new(&topo, 1);
        let (from, to) = (ProcId(0), ProcId(1));
        let (bfs, ct) = (Routing::Bfs, Switching::CutThrough);
        let mut ws = ProbeWorkspace::new(topo.link_count());
        ws.begin_candidate(1);
        let probed = OverlayState::new(st.queues(), st.tuning(), &mut ws)
            .schedule_comm(&topo, c(0), 1.0, 4.0, from, to, bfs, ct)
            .unwrap();
        st.schedule_comm(&topo, c(0), 1.0, 4.0, from, to, bfs, Insertion::Basic, ct)
            .unwrap();
        assert_eq!(st.placement(c(0)).1, vec![(1.0, 5.0), (1.5, 5.5)]);
        assert_eq!(probed, 5.5);
    }

    #[test]
    fn deferrable_times_subtract_the_hop_delay() {
        let topo = delayed_line(0.5);
        let mut st = SlottedState::new(&topo, 4);
        // Store-and-forward, cost 4: hop 0 at [0,4), hop 1 at
        // [4.5, 8.5) (full message + 0.5 switch delay).
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            4.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::StoreAndForward,
        )
        .unwrap();
        let (_, times) = st.placement(c(0));
        assert_eq!(times, vec![(0.0, 4.0), (4.5, 8.5)]);
        // Hop 0 may defer by 4.0, not 4.5: at [4,8) its next hop is
        // still the mandatory 0.5 behind on both start and finish.
        let mut dts = Vec::new();
        deferrable_times_into(&st.queues[0], &st.comms, topo.hop_delay(), &mut dts);
        assert_eq!(dts, vec![4.0]);
    }

    #[test]
    fn optimal_insertion_keeps_the_hop_delay_gap() {
        // Regression: the deferral margin must respect the per-hop
        // switch delay. With cut-through on a delayed line, comm 0's
        // first-hop slot [0,4) runs exactly 0.5 ahead of its second
        // hop [0.5,4.5); without the hop-delay subtraction, optimal
        // insertion deferred it onto its own next hop's window to
        // squeeze comm 2 in at [0,0.5), and the audit flagged the
        // collapsed gap.
        let topo = delayed_line(0.5);
        let mut st = SlottedState::new(&topo, 8);
        for id in 0..2 {
            st.schedule_comm(
                &topo,
                c(id),
                0.0,
                4.0,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        }
        let arrival = st
            .schedule_comm(
                &topo,
                c(2),
                0.0,
                0.5,
                ProcId(0),
                ProcId(1),
                Routing::Bfs,
                Insertion::Optimal,
                Switching::CutThrough,
            )
            .unwrap();
        // No slack exists once the delay is honored: comm 2 queues at
        // the tail instead of displacing comm 0.
        assert_eq!(arrival, 9.0);
        for id in 0..3 {
            let (route, times) = st.placement(c(id));
            assert_eq!(route.len(), 2);
            for k in 1..times.len() {
                assert!(
                    times[k].0 >= times[k - 1].0 + 0.5 - 1e-9
                        && times[k].1 >= times[k - 1].1 + 0.5 - 1e-9,
                    "comm {id}: hop {k} window {:?} closer than the hop delay to {:?}",
                    times[k],
                    times[k - 1]
                );
            }
        }
        st.check_invariants().unwrap();
    }

    #[test]
    fn modified_dijkstra_routes_around_congestion() {
        // Two disjoint switch paths between p0 and p1.
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sa = b.add_switch();
        let sb = b.add_switch();
        b.add_duplex_cable(p0, sa, 1.0);
        b.add_duplex_cable(sa, p1, 1.0);
        b.add_duplex_cable(p0, sb, 1.0);
        b.add_duplex_cable(sb, p1, 1.0);
        let topo = b.build().unwrap();
        let mut st = SlottedState::new(&topo, 8);

        // Saturate the sa path.
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            50.0,
            ProcId(0),
            ProcId(1),
            Routing::Bfs,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();
        let via_sa = st.route_of(c(0))[0].to;
        // BFS would tie-break to the same path; modified Dijkstra must
        // pick the other one.
        let arrival = st
            .schedule_comm(
                &topo,
                c(1),
                0.0,
                5.0,
                ProcId(0),
                ProcId(1),
                Routing::ModifiedDijkstra,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        assert_eq!(arrival, 5.0, "took the free path");
        assert_ne!(st.route_of(c(1))[0].to, via_sa);
    }

    #[test]
    fn route_cache_reuses_search_across_probe_candidates() {
        // Probe-cycle pattern: one workspace probes the same
        // communication for several candidates of one task (same
        // serial). The second and later searches must be served from
        // the lane's cache and yield bitwise-identical results.
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sa = b.add_switch();
        let sb = b.add_switch();
        b.add_duplex_cable(p0, sa, 1.0);
        b.add_duplex_cable(sa, p1, 1.0);
        b.add_duplex_cable(p0, sb, 1.0);
        b.add_duplex_cable(sb, p1, 1.0);
        let topo = b.build().unwrap();

        let before = route_cache_stats();
        let mut st = SlottedState::with_tuning(&topo, 8, Tuning::optimized());
        st.schedule_comm(
            &topo,
            c(0),
            0.0,
            20.0,
            ProcId(0),
            ProcId(1),
            Routing::ModifiedDijkstra,
            Insertion::Basic,
            Switching::CutThrough,
        )
        .unwrap();

        let mut ws = ProbeWorkspace::new(topo.link_count());
        let mut arrivals = Vec::new();
        for _ in 0..3 {
            ws.begin_candidate(1);
            let a = OverlayState::new(st.queues(), st.tuning(), &mut ws)
                .schedule_comm(
                    &topo,
                    c(1),
                    1.0,
                    7.0,
                    ProcId(0),
                    ProcId(1),
                    Routing::ModifiedDijkstra,
                    Switching::CutThrough,
                )
                .unwrap();
            arrivals.push(a);
        }
        assert_eq!(arrivals[0].to_bits(), arrivals[1].to_bits());
        assert_eq!(arrivals[0].to_bits(), arrivals[2].to_bits());

        let after = route_cache_stats();
        // Counters are process-global and tests run in parallel, so
        // only delta lower bounds are safe to assert.
        assert!(after.misses > before.misses, "first search misses");
        assert!(after.hits >= before.hits + 2, "repeat searches hit");
    }

    #[test]
    fn committed_searches_match_reference_tuning() {
        // Committed-state searches (scratch-buffer reuse under the
        // optimized tuning) must yield exactly the reference answers,
        // with mutations between calls.
        let topo = line();
        let mut opt = SlottedState::with_tuning(&topo, 8, Tuning::optimized());
        let mut refr = SlottedState::with_tuning(&topo, 8, Tuning::reference());
        for (i, cost) in [5.0, 3.0, 9.0, 2.0].into_iter().enumerate() {
            let a = opt
                .schedule_comm(
                    &topo,
                    c(i as u64),
                    0.0,
                    cost,
                    ProcId(0),
                    ProcId(1),
                    Routing::ModifiedDijkstra,
                    Insertion::Optimal,
                    Switching::CutThrough,
                )
                .unwrap();
            let b = refr
                .schedule_comm(
                    &topo,
                    c(i as u64),
                    0.0,
                    cost,
                    ProcId(0),
                    ProcId(1),
                    Routing::ModifiedDijkstra,
                    Insertion::Optimal,
                    Switching::CutThrough,
                )
                .unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
            let (ra, ta) = opt.placement(c(i as u64));
            let (rb, tb) = refr.placement(c(i as u64));
            assert_eq!(ra, rb);
            assert_eq!(ta.len(), tb.len());
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(x.0.to_bits(), y.0.to_bits());
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn masked_view_invalidates_bfs_cache() {
        // Two disjoint paths; cache a BFS route, then mask the link it
        // used. The next lookup must not serve the stale route.
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sa = b.add_switch();
        let sb = b.add_switch();
        b.add_duplex_cable(p0, sa, 1.0);
        b.add_duplex_cable(sa, p1, 1.0);
        b.add_duplex_cable(p0, sb, 1.0);
        b.add_duplex_cable(sb, p1, 1.0);
        let topo = b.build().unwrap();
        let src = topo.node_of_proc(ProcId(0));
        let dst = topo.node_of_proc(ProcId(1));

        let mut memo = RouteMemo::new();
        let first = memo.route_for(&topo, src, dst).unwrap().to_vec();
        let used = first[0].link;
        let masked = topo.masked(|l| l == used);
        let rerouted = memo.route_for(&masked, src, dst).unwrap();
        assert!(
            rerouted.iter().all(|h| h.link != used),
            "stale cached route served across a masked view"
        );
        // And back: the original view gets its own fresh fill again.
        assert_eq!(memo.route_for(&topo, src, dst).unwrap(), first);
    }

    /// Two disjoint switch paths p0 -> p1 with some traffic preloaded,
    /// so route probes actually discriminate — enough of it that the
    /// busiest queues are long enough for the gap index, so overlay
    /// probes late in the horizon take the inert-prefix skip.
    fn congested_pair() -> (Topology, SlottedState) {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(2.0);
        let sa = b.add_switch();
        let sb = b.add_switch();
        b.add_duplex_cable(p0, sa, 1.0);
        b.add_duplex_cable(sa, p1, 2.0);
        b.add_duplex_cable(p0, sb, 1.0);
        b.add_duplex_cable(sb, p1, 1.0);
        let topo = b.build().unwrap();
        let mut st = SlottedState::with_tuning(&topo, 64, Tuning::optimized());
        let mut preload = vec![(0.0, 20.0), (0.0, 7.0)];
        preload.extend((0..20).map(|i| (f64::from(i) * 3.0, 1.5)));
        for (i, (est, cost)) in preload.into_iter().enumerate() {
            st.schedule_comm(
                &topo,
                c(i as u64),
                est,
                cost,
                ProcId(0),
                ProcId(1),
                Routing::ModifiedDijkstra,
                Insertion::Basic,
                Switching::CutThrough,
            )
            .unwrap();
        }
        assert!(
            st.queues().iter().any(|q| q.live_from(40.0) > 0),
            "fixture exercises the inert-prefix skip"
        );
        (topo, st)
    }

    /// The overlay probe must answer exactly what scheduling onto a
    /// clone of the real state answers, for every routing and
    /// switching mode, across repeated candidates of one probe cycle.
    #[test]
    fn overlay_probe_matches_sequential_probe() {
        let (topo, st) = congested_pair();
        let mut ws = ProbeWorkspace::new(topo.link_count());
        let probes = [(1.0, 5.0), (0.0, 9.0), (2.5, 1.5), (45.0, 2.0), (61.0, 0.5)];
        for (serial, (est, cost)) in probes.into_iter().enumerate() {
            for routing in [Routing::Bfs, Routing::ModifiedDijkstra] {
                for switching in [Switching::CutThrough, Switching::StoreAndForward] {
                    // Reference: the real schedule_comm on a clone.
                    let expected = st
                        .clone()
                        .schedule_comm(
                            &topo,
                            c(60),
                            est,
                            cost,
                            ProcId(0),
                            ProcId(1),
                            routing,
                            Insertion::Basic,
                            switching,
                        )
                        .unwrap();
                    for _candidate in 0..3 {
                        ws.begin_candidate(serial as u64 + 1);
                        let a = OverlayState::new(st.queues(), st.tuning(), &mut ws)
                            .schedule_comm(
                                &topo,
                                c(60),
                                est,
                                cost,
                                ProcId(0),
                                ProcId(1),
                                routing,
                                switching,
                            )
                            .unwrap();
                        assert_eq!(
                            a.to_bits(),
                            expected.to_bits(),
                            "overlay vs sequential ({routing:?}/{switching:?})"
                        );
                    }
                }
            }
        }
    }

    /// Within one candidate, consecutive probed communications must see
    /// each other (delta accumulation), exactly like consecutive
    /// commits onto a clone of the real state.
    #[test]
    fn overlay_accumulates_deltas_like_sequential_commits() {
        let (topo, st) = congested_pair();
        let probes = [
            (c(60), 0.0, 6.0),
            (c(61), 1.0, 6.0),
            (c(62), 2.0, 4.0),
            (c(63), 50.0, 3.0),
        ];

        let mut reference = st.clone();
        let mut expected = Vec::new();
        for &(comm, est, cost) in &probes {
            let a = reference
                .schedule_comm(
                    &topo,
                    comm,
                    est,
                    cost,
                    ProcId(0),
                    ProcId(1),
                    Routing::ModifiedDijkstra,
                    Insertion::Basic,
                    Switching::CutThrough,
                )
                .unwrap();
            expected.push(a);
        }

        let mut ws = ProbeWorkspace::new(topo.link_count());
        ws.begin_candidate(1);
        let mut ov = OverlayState::new(st.queues(), st.tuning(), &mut ws);
        for (&(comm, est, cost), &e) in probes.iter().zip(&expected) {
            let a = ov
                .schedule_comm(
                    &topo,
                    comm,
                    est,
                    cost,
                    ProcId(0),
                    ProcId(1),
                    Routing::ModifiedDijkstra,
                    Switching::CutThrough,
                )
                .unwrap();
            assert_eq!(a.to_bits(), e.to_bits(), "delta accumulation diverged");
        }
        // A fresh candidate starts from the committed queues again.
        ws.begin_candidate(1);
        let mut ov = OverlayState::new(st.queues(), st.tuning(), &mut ws);
        let a = ov
            .schedule_comm(
                &topo,
                c(60),
                0.0,
                6.0,
                ProcId(0),
                ProcId(1),
                Routing::ModifiedDijkstra,
                Switching::CutThrough,
            )
            .unwrap();
        assert_eq!(a.to_bits(), expected[0].to_bits());
    }
}
