//! # es-route — routing for contention-aware edge scheduling
//!
//! Two routing strategies from the paper:
//!
//! * [`bfs_route`] — **minimal routing** (fewest hops) via breadth-first
//!   search. This is what Sinnen's Basic Algorithm uses (§3): "it
//!   chooses the shortest possible path, in terms of number of edges,
//!   through the network for every communication".
//! * [`dijkstra_route`] — the paper's **modified routing** (§4.3): a
//!   Dijkstra search whose relaxation metric is not hop count but the
//!   *finish time of the communication on each link*, probed against
//!   the link's current schedule. "Generally, the shortest physical
//!   distance does not mean the most suitable route path because BFS
//!   neglects the real workload of network."
//!
//! [`dijkstra_route`] is generic over a caller-supplied state type so
//! the same search serves OIHSA (state = start/finish pair from a
//! basic-insertion probe) and BBSA (state = the fluid flow planned so
//! far, keyed by its finish time).
//!
//! Both searches are deterministic: ties resolve to the earlier-settled
//! vertex (BFS by adjacency order, Dijkstra by insertion sequence).
//!
//! Each search has one loop: [`bfs_route_with`], [`reachable_nodes_with`]
//! and [`dijkstra_route_into_with`] run over caller-owned scratch
//! buffers, and the allocating entry points [`bfs_route`] and
//! [`dijkstra_route`] only wrap them with fresh buffers.
//! [`IncrementalDijkstra`] is the one separate loop: a resumable search
//! whose tests check it against the fresh targeted search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use es_linksched::time::EPS;
use es_net::{Hop, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A route through the network: the hops taken in order. Empty when
/// source and destination coincide.
pub type Route = Vec<Hop>;

/// Minimal (fewest-hops) route from `from` to `to`; `None` when
/// unreachable. Ties resolve to adjacency order, so results are
/// deterministic for a given topology. Allocates fresh buffers; see
/// [`bfs_route_with`] for the search itself.
pub fn bfs_route(topo: &Topology, from: NodeId, to: NodeId) -> Option<Route> {
    bfs_route_with(topo, from, to, &mut BfsScratch::new())
}

fn reconstruct(pred: &[Option<Hop>], from: NodeId, to: NodeId) -> Route {
    let mut route = Vec::new();
    reconstruct_into(pred, from, to, &mut route);
    route
}

/// [`reconstruct`] into a caller-owned buffer (cleared first) — the
/// hot probe paths reuse one route buffer across searches instead of
/// allocating a fresh `Vec<Hop>` per answer.
fn reconstruct_into(pred: &[Option<Hop>], from: NodeId, to: NodeId, out: &mut Vec<Hop>) {
    out.clear();
    let mut cur = to;
    while cur != from {
        let hop = pred[cur.index()].expect("predecessor chain is complete");
        out.push(hop);
        cur = hop.from;
    }
    out.reverse();
}

/// Reusable buffers for [`bfs_route_with`] / [`reachable_nodes_with`].
///
/// Sweep contexts (repair pre-flights, per-state BFS caches) issue many
/// searches back to back; sharing one scratch avoids reallocating the
/// visited/predecessor/queue buffers on every call.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    seen: Vec<bool>,
    pred: Vec<Option<Hop>>,
    queue: VecDeque<NodeId>,
}

impl BfsScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.seen.clear();
        self.seen.resize(n, false);
        self.queue.clear();
    }
}

/// [`bfs_route`] reusing the caller's scratch buffers: the one BFS
/// route search.
pub fn bfs_route_with(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    scratch: &mut BfsScratch,
) -> Option<Route> {
    if from == to {
        return Some(Vec::new());
    }
    let n = topo.node_count();
    scratch.reset(n);
    scratch.pred.clear();
    scratch.pred.resize(n, None);
    scratch.seen[from.index()] = true;
    scratch.queue.push_back(from);
    while let Some(u) = scratch.queue.pop_front() {
        for &hop in topo.hops_from(u) {
            if !scratch.seen[hop.to.index()] {
                scratch.seen[hop.to.index()] = true;
                scratch.pred[hop.to.index()] = Some(hop);
                if hop.to == to {
                    return Some(reconstruct(&scratch.pred, from, to));
                }
                scratch.queue.push_back(hop.to);
            }
        }
    }
    None
}

/// BFS flood from `from`: `result[n.index()]` is true iff vertex `n`
/// is reachable (the source itself always is). The flags are a borrow
/// of the scratch, valid until its next use. The repair layer uses this
/// to pre-flight connectivity on masked topology views before
/// committing to a surviving-processor set.
pub fn reachable_nodes_with<'a>(
    topo: &Topology,
    from: NodeId,
    scratch: &'a mut BfsScratch,
) -> &'a [bool] {
    scratch.reset(topo.node_count());
    scratch.seen[from.index()] = true;
    scratch.queue.push_back(from);
    while let Some(u) = scratch.queue.pop_front() {
        for &hop in topo.hops_from(u) {
            if !scratch.seen[hop.to.index()] {
                scratch.seen[hop.to.index()] = true;
                scratch.queue.push_back(hop.to);
            }
        }
    }
    &scratch.seen
}

/// Heap entry for [`dijkstra_route`]: min-ordered by key, then by
/// insertion sequence (determinism).
#[derive(Clone, Debug)]
struct HeapEntry {
    key: f64,
    seq: u64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min key out
        // first, and among equal keys the earliest-inserted entry.
        other
            .key
            .partial_cmp(&self.key)
            .expect("routing keys are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The paper's modified routing (§4.3), generalised.
///
/// `init` is the search state at the source vertex (e.g. "the message
/// is ready at time `t`"). For every candidate hop, `relax(state, hop)`
/// returns the state after traversing that hop — typically by probing
/// the hop's link schedule — and `key(state)` orders states (smaller is
/// better; OIHSA keys by the probed finish time of the communication on
/// the link). The hop metric must be non-decreasing
/// (`key(relax(s, h)) >= key(s)`), which link causality guarantees for
/// finish-time metrics (Lemma 1).
///
/// Returns the best route and the final state at `to`, or `None` when
/// unreachable.
///
/// Allocates fresh buffers per call; see [`dijkstra_route_into_with`]
/// for the search itself.
pub fn dijkstra_route<S: Clone>(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    init: S,
    relax: impl FnMut(&S, &Hop) -> S,
    key: impl Fn(&S) -> f64,
) -> Option<(Route, S)> {
    let mut route = Vec::new();
    dijkstra_route_into_with(
        topo,
        from,
        to,
        init,
        relax,
        key,
        &mut DijkstraScratch::new(),
        &mut route,
    )
    .map(|state| (route, state))
}

/// Reusable buffers for [`dijkstra_route_into_with`], hoisting the per-call
/// allocations of [`dijkstra_route`] out of search-heavy loops (the
/// scheduler probe cycle issues hundreds of thousands of searches).
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch<S> {
    best: Vec<f64>,
    state: Vec<Option<S>>,
    pred: Vec<Option<Hop>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl<S: Clone> DijkstraScratch<S> {
    /// Empty scratch; buffers grow to the topology size on first use.
    pub fn new() -> Self {
        Self {
            best: Vec::new(),
            state: Vec::new(),
            pred: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        self.best.clear();
        self.best.resize(n, f64::INFINITY);
        self.state.clear();
        self.state.resize(n, None);
        self.pred.clear();
        self.pred.resize(n, None);
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();
    }
}

/// [`dijkstra_route`] over caller-owned buffers, writing the route into
/// `out` (cleared first; left cleared when unreachable) and returning
/// only the destination state: the one targeted modified-Dijkstra
/// search, with zero allocation per call once the buffers are warm.
#[allow(clippy::too_many_arguments)]
pub fn dijkstra_route_into_with<S: Clone>(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    init: S,
    mut relax: impl FnMut(&S, &Hop) -> S,
    key: impl Fn(&S) -> f64,
    scratch: &mut DijkstraScratch<S>,
    out: &mut Vec<Hop>,
) -> Option<S> {
    out.clear();
    scratch.reset(topo.node_count());
    let mut seq = 0u64;

    scratch.best[from.index()] = key(&init);
    scratch.state[from.index()] = Some(init);
    scratch.heap.push(HeapEntry {
        key: scratch.best[from.index()],
        seq,
        node: from,
    });

    while let Some(HeapEntry {
        node: u, key: k, ..
    }) = scratch.heap.pop()
    {
        if scratch.settled[u.index()] || k > scratch.best[u.index()] + EPS {
            continue;
        }
        scratch.settled[u.index()] = true;
        if u == to {
            reconstruct_into(&scratch.pred, from, to, out);
            let final_state = scratch.state[to.index()]
                .clone()
                .expect("settled node has state");
            return Some(final_state);
        }
        let u_state = scratch.state[u.index()]
            .clone()
            .expect("popped node has state");
        for &hop in topo.hops_from(u) {
            if scratch.settled[hop.to.index()] {
                continue;
            }
            let next = relax(&u_state, &hop);
            let nk = key(&next);
            debug_assert!(
                nk + EPS >= k,
                "routing metric decreased along a hop ({k} -> {nk}); Dijkstra invalid"
            );
            if nk < scratch.best[hop.to.index()] - EPS {
                scratch.best[hop.to.index()] = nk;
                scratch.state[hop.to.index()] = Some(next);
                scratch.pred[hop.to.index()] = Some(hop);
                seq += 1;
                scratch.heap.push(HeapEntry {
                    key: nk,
                    seq,
                    node: hop.to,
                });
            }
        }
    }
    None
}

/// A resumable [`dijkstra_route`]: one search frontier answering
/// queries for *many* destinations from the same source and metric.
///
/// The trajectory of a Dijkstra search — which vertices settle, in
/// which order, with which predecessor — does not depend on the
/// destination; the destination only decides where a targeted search
/// *stops*. This type runs that destination-independent search lazily:
/// [`IncrementalDijkstra::route_to`] pops the frontier until the asked
/// destination settles, then reconstructs its route. A later call for
/// another destination resumes from where the previous one stopped
/// instead of re-running the whole search.
///
/// As long as the link schedules probed by `relax` do not change
/// between calls (callers key caches on a state epoch to guarantee
/// this), every `route_to` answer is **bitwise identical** to a fresh
/// `dijkstra_route` with the same arguments: same route, same state,
/// same tie-breaking — the fresh search settles the same vertices with
/// the same predecessors before reaching the destination.
#[derive(Clone, Debug)]
pub struct IncrementalDijkstra<S> {
    from: NodeId,
    best: Vec<f64>,
    state: Vec<Option<S>>,
    pred: Vec<Option<Hop>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl<S: Clone> IncrementalDijkstra<S> {
    /// Open a search from `from` over a graph of `node_count` vertices.
    /// `init` is the state at the source and `init_key` its key (the
    /// caller evaluates `key(&init)` once; passing anything else breaks
    /// the equivalence with [`dijkstra_route`]).
    pub fn new(node_count: usize, from: NodeId, init: S, init_key: f64) -> Self {
        let mut s = Self {
            from,
            best: vec![f64::INFINITY; node_count],
            state: vec![None; node_count],
            pred: vec![None; node_count],
            settled: vec![false; node_count],
            heap: BinaryHeap::new(),
            seq: 0,
        };
        s.best[from.index()] = init_key;
        s.state[from.index()] = Some(init);
        s.heap.push(HeapEntry {
            key: init_key,
            seq: s.seq,
            node: from,
        });
        s
    }

    /// Advance the frontier until `to` settles; `false` when the heap
    /// exhausts first (`to` is unreachable). The shared engine under
    /// every query flavour below.
    fn advance_until(
        &mut self,
        topo: &Topology,
        to: NodeId,
        relax: &mut impl FnMut(&S, &Hop) -> S,
        key: &impl Fn(&S) -> f64,
    ) -> bool {
        while !self.settled[to.index()] {
            let Some(HeapEntry {
                node: u, key: k, ..
            }) = self.heap.pop()
            else {
                return false;
            };
            if self.settled[u.index()] || k > self.best[u.index()] + EPS {
                continue;
            }
            self.settled[u.index()] = true;
            let u_state = self.state[u.index()]
                .clone()
                .expect("popped node has state");
            // Unlike the targeted search we relax even the queried
            // destination's out-hops: a fresh search for any *other*
            // destination would have done so when this vertex popped,
            // and relaxing never changes an already-settled vertex.
            for &hop in topo.hops_from(u) {
                if self.settled[hop.to.index()] {
                    continue;
                }
                let next = relax(&u_state, &hop);
                let nk = key(&next);
                debug_assert!(
                    nk + EPS >= k,
                    "routing metric decreased along a hop ({k} -> {nk}); Dijkstra invalid"
                );
                if nk < self.best[hop.to.index()] - EPS {
                    self.best[hop.to.index()] = nk;
                    self.state[hop.to.index()] = Some(next);
                    self.pred[hop.to.index()] = Some(hop);
                    self.seq += 1;
                    self.heap.push(HeapEntry {
                        key: nk,
                        seq: self.seq,
                        node: hop.to,
                    });
                }
            }
        }
        true
    }

    /// Advance the search until `to` settles and return its route and
    /// state; `None` when unreachable. `relax`/`key` must compute the
    /// same metric on every call for this search (same closures probing
    /// the same unchanged link schedules).
    pub fn route_to(
        &mut self,
        topo: &Topology,
        to: NodeId,
        relax: impl FnMut(&S, &Hop) -> S,
        key: impl Fn(&S) -> f64,
    ) -> Option<(Route, S)> {
        let mut route = Vec::new();
        self.route_to_into(topo, to, relax, key, &mut route)
            .map(|state| (route, state))
    }

    /// [`IncrementalDijkstra::route_to`] into a caller-owned route
    /// buffer (cleared first; left cleared when unreachable), returning
    /// only the destination state. Same advance, zero allocation.
    pub fn route_to_into(
        &mut self,
        topo: &Topology,
        to: NodeId,
        mut relax: impl FnMut(&S, &Hop) -> S,
        key: impl Fn(&S) -> f64,
        out: &mut Vec<Hop>,
    ) -> Option<S> {
        out.clear();
        if !self.advance_until(topo, to, &mut relax, &key) {
            return None;
        }
        reconstruct_into(&self.pred, self.from, to, out);
        let state = self.state[to.index()]
            .clone()
            .expect("settled node has state");
        Some(state)
    }

    /// Batch pre-advance: settle *every* listed destination in one
    /// wavefront pass (stopping early once the heap exhausts — any
    /// destination still unsettled then is unreachable). Subsequent
    /// [`IncrementalDijkstra::route_to`] calls for these destinations
    /// are pure reconstructions with no further frontier work.
    ///
    /// Because the settle trajectory is destination-independent,
    /// pre-advancing changes no answer: a later query reads exactly the
    /// state a fresh targeted search would have computed. This is the
    /// multi-destination completion of the search: the probe loop calls
    /// it once per ready task with all candidate destinations.
    pub fn settle_many(
        &mut self,
        topo: &Topology,
        dsts: &[NodeId],
        mut relax: impl FnMut(&S, &Hop) -> S,
        key: impl Fn(&S) -> f64,
    ) {
        for &to in dsts {
            if !self.advance_until(topo, to, &mut relax, &key) {
                return;
            }
        }
    }
}

/// Hop-count Dijkstra — exists so tests can cross-check BFS and the
/// generic search against each other.
pub fn dijkstra_min_hops(topo: &Topology, from: NodeId, to: NodeId) -> Option<Route> {
    dijkstra_route(topo, from, to, 0.0_f64, |d, _| d + 1.0, |d| *d).map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_linksched::slot::SlotQueue;
    use es_net::gen::{self, SpeedDist};
    use es_net::{LinkId, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two processors joined by two parallel switch paths:
    /// p0 - swA - p1 (short) and p0 - swB - swC - p1 (long).
    fn parallel_paths() -> (Topology, NodeId, NodeId, Vec<LinkId>) {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let sa = b.add_switch();
        let sb = b.add_switch();
        let sc = b.add_switch();
        // Short path links.
        let (l0, _) = b.add_duplex_cable(p0, sa, 1.0);
        let (l1, _) = b.add_duplex_cable(sa, p1, 1.0);
        // Long path links.
        let (l2, _) = b.add_duplex_cable(p0, sb, 1.0);
        let (l3, _) = b.add_duplex_cable(sb, sc, 1.0);
        let (l4, _) = b.add_duplex_cable(sc, p1, 1.0);
        let t = b.build().unwrap();
        (t, p0, p1, vec![l0, l1, l2, l3, l4])
    }

    #[test]
    fn bfs_trivial_same_node() {
        let (t, p0, _, _) = parallel_paths();
        assert_eq!(bfs_route(&t, p0, p0), Some(vec![]));
    }

    #[test]
    fn bfs_picks_fewest_hops() {
        let (t, p0, p1, _) = parallel_paths();
        let r = bfs_route(&t, p0, p1).unwrap();
        assert_eq!(r.len(), 2, "short path has 2 hops");
        assert_eq!(r[0].from, p0);
        assert_eq!(r[1].to, p1);
        // Hops chain.
        assert_eq!(r[0].to, r[1].from);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let t = b.build().unwrap();
        assert_eq!(bfs_route(&t, p0, p1), None);
    }

    #[test]
    fn bfs_respects_link_direction() {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        b.add_directed_link(p0, p1, 1.0);
        let t = b.build().unwrap();
        assert!(bfs_route(&t, p0, p1).is_some());
        assert_eq!(bfs_route(&t, p1, p0), None);
    }

    #[test]
    fn reachability_agrees_with_bfs_and_respects_masks() {
        let (t, p0, p1, _) = parallel_paths();
        let mut scratch = BfsScratch::new();
        let all = reachable_nodes_with(&t, p0, &mut scratch).to_vec();
        for n in t.node_ids() {
            assert_eq!(all[n.index()], bfs_route(&t, p0, n).is_some());
        }
        // Sever every link incident to p0 (both directions of its two
        // duplex cables): the node is fully isolated.
        let mut dead: Vec<LinkId> = t.hops_from(p0).iter().map(|h| h.link).collect();
        for n in t.node_ids() {
            for h in t.hops_from(n) {
                if h.to == p0 {
                    dead.push(h.link);
                }
            }
        }
        let cut = t.masked(|l| dead.contains(&l));
        let isolated = reachable_nodes_with(&cut, p0, &mut scratch);
        assert!(isolated[p0.index()]);
        assert_eq!(isolated.iter().filter(|&&r| r).count(), 1);
        // The rest of the network neither sees nor reaches it.
        let from_p1 = reachable_nodes_with(&cut, p1, &mut scratch);
        assert!(from_p1[p1.index()]);
        assert!(!from_p1[p0.index()], "p0 unreachable after the cut");
    }

    #[test]
    fn dijkstra_matches_bfs_on_hop_metric() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = gen::random_switched_wan(&gen::WanConfig::homogeneous(24), &mut rng);
        for a in t.proc_ids() {
            for bp in t.proc_ids() {
                let na = t.node_of_proc(a);
                let nb = t.node_of_proc(bp);
                let r1 = bfs_route(&t, na, nb).unwrap();
                let r2 = dijkstra_min_hops(&t, na, nb).unwrap();
                assert_eq!(r1.len(), r2.len(), "{a} -> {bp}");
            }
        }
    }

    #[test]
    fn dijkstra_avoids_congested_short_path() {
        let (t, p0, p1, links) = parallel_paths();
        // Congest the short path: its first link is busy until t=100.
        let mut queues: Vec<SlotQueue> = (0..t.link_count()).map(|_| SlotQueue::new()).collect();
        queues[links[0].index()].commit(es_linksched::CommId(1), 0, 0.0, 100.0);

        // Metric: basic-insertion finish time of a 5-unit transfer.
        let duration = 5.0;
        let result = dijkstra_route(
            &t,
            p0,
            p1,
            (0.0_f64, 0.0_f64), // (start, finish) at source
            |&(s, f), hop| {
                let bound = s.max(f - duration);
                let start = queues[hop.link.index()].probe(bound, duration);
                (start, (start + duration).max(f))
            },
            |&(_, f)| f,
        );
        let (route, (_, finish)) = result.unwrap();
        assert_eq!(route.len(), 3, "takes the long free path");
        assert!(finish < 100.0, "finishes before the congested link frees");
    }

    #[test]
    fn dijkstra_takes_short_path_when_uncongested() {
        let (t, p0, p1, _) = parallel_paths();
        let queues: Vec<SlotQueue> = (0..t.link_count()).map(|_| SlotQueue::new()).collect();
        let duration = 5.0;
        let (route, (_, finish)) = dijkstra_route(
            &t,
            p0,
            p1,
            (0.0_f64, 0.0_f64),
            |&(s, f), hop| {
                let bound = s.max(f - duration);
                let start = queues[hop.link.index()].probe(bound, duration);
                (start, (start + duration).max(f))
            },
            |&(_, f)| f,
        )
        .unwrap();
        assert_eq!(route.len(), 2);
        // Cut-through with zero hop delay: both links carry the message
        // over [0, 5) simultaneously, so the route finishes at 5.
        assert_eq!(finish, 5.0);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let mut b = Topology::builder();
        let (p0, _) = b.add_processor(1.0);
        let (p1, _) = b.add_processor(1.0);
        let t = b.build().unwrap();
        let r = dijkstra_route(&t, p0, p1, 0.0_f64, |d, _| d + 1.0, |d| *d);
        assert!(r.is_none());
    }

    #[test]
    fn routes_are_simple_paths() {
        let mut rng = StdRng::seed_from_u64(10);
        let t = gen::random_switched_wan(&gen::WanConfig::heterogeneous(40), &mut rng);
        for a in t.proc_ids().take(6) {
            for bp in t.proc_ids().take(6) {
                if a == bp {
                    continue;
                }
                let r = bfs_route(&t, t.node_of_proc(a), t.node_of_proc(bp)).unwrap();
                let mut seen = std::collections::BTreeSet::new();
                seen.insert(r[0].from);
                for hop in &r {
                    assert!(seen.insert(hop.to), "revisited vertex on route");
                }
            }
        }
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        // One scratch of each kind, reused across every query in
        // turn, must answer exactly as the fresh-buffer wrappers do.
        let mut rng = StdRng::seed_from_u64(21);
        let t = gen::random_switched_wan(&gen::WanConfig::heterogeneous(16), &mut rng);
        let mut queues: Vec<SlotQueue> = (0..t.link_count()).map(|_| SlotQueue::new()).collect();
        for (i, q) in queues.iter_mut().enumerate().step_by(4) {
            q.commit(es_linksched::CommId(i as u64), 0, 2.0, 30.0 + i as f64);
        }
        let duration = 6.0;
        let relax = |&(s, f): &(f64, f64), hop: &Hop| {
            let bound = s.max(f - duration);
            let start = queues[hop.link.index()].probe(bound, duration);
            (start, (start + duration).max(f))
        };
        let key = |&(_, f): &(f64, f64)| f;
        let mut bfs = BfsScratch::new();
        let mut dij = DijkstraScratch::new();
        let mut route = Vec::new();
        for a in t.node_ids() {
            for b in t.node_ids() {
                let fresh = bfs_route(&t, a, b);
                let reached = reachable_nodes_with(&t, a, &mut bfs)[b.index()];
                assert_eq!(reached, fresh.is_some(), "{a} -> {b}");
                assert_eq!(bfs_route_with(&t, a, b, &mut bfs), fresh, "{a} -> {b}");
                let fresh = dijkstra_route(&t, a, b, (1.0, 1.0), relax, key);
                let reused = dijkstra_route_into_with(
                    &t,
                    a,
                    b,
                    (1.0, 1.0),
                    relax,
                    key,
                    &mut dij,
                    &mut route,
                );
                match (fresh, reused) {
                    (None, None) => assert!(route.is_empty()),
                    (Some((r1, s1)), Some(s2)) => {
                        assert_eq!(r1, route, "{a} -> {b}");
                        assert_eq!(s1.0.to_bits(), s2.0.to_bits(), "{a} -> {b}");
                        assert_eq!(s1.1.to_bits(), s2.1.to_bits(), "{a} -> {b}");
                    }
                    (x, y) => panic!("reachability disagrees for {a} -> {b}: {x:?} vs {y:?}"),
                }
            }
        }
    }

    /// One resumable search must answer every destination exactly as a
    /// fresh targeted search would — including tie-breaking and the
    /// probed state, checked bitwise against congested link schedules.
    #[test]
    fn incremental_dijkstra_is_bitwise_identical_to_fresh_searches() {
        let mut rng = StdRng::seed_from_u64(33);
        let t = gen::random_switched_wan(&gen::WanConfig::heterogeneous(12), &mut rng);
        // Congest a few links so the metric is nontrivial.
        let mut queues: Vec<SlotQueue> = (0..t.link_count()).map(|_| SlotQueue::new()).collect();
        for (i, q) in queues.iter_mut().enumerate() {
            if i % 3 == 0 {
                q.commit(es_linksched::CommId(i as u64), 0, 1.5, 40.0 + i as f64);
            }
        }
        let duration = 7.0;
        let relax = |&(s, f): &(f64, f64), hop: &es_net::Hop| {
            let bound = s.max(f - duration);
            let start = queues[hop.link.index()].probe(bound, duration);
            (start, (start + duration).max(f))
        };
        let key = |&(_, f): &(f64, f64)| f;

        let src = t.node_of_proc(es_net::ProcId(0));
        let mut inc = IncrementalDijkstra::new(t.node_count(), src, (3.0, 3.0), 3.0);
        for p in t.proc_ids() {
            let dst = t.node_of_proc(p);
            let fresh = dijkstra_route(&t, src, dst, (3.0, 3.0), relax, key);
            let resumed = inc.route_to(&t, dst, relax, key);
            match (fresh, resumed) {
                (None, None) => {}
                (Some((r1, s1)), Some((r2, s2))) => {
                    assert_eq!(r1, r2, "route to {p}");
                    assert_eq!(s1.0.to_bits(), s2.0.to_bits(), "start to {p}");
                    assert_eq!(s1.1.to_bits(), s2.1.to_bits(), "finish to {p}");
                }
                (a, b) => panic!("reachability disagrees for {p}: {a:?} vs {b:?}"),
            }
        }
        // Asking again is a pure cache hit and still identical.
        let dst = t.node_of_proc(es_net::ProcId(1));
        let again = inc.route_to(&t, dst, relax, key).unwrap();
        let fresh = dijkstra_route(&t, src, dst, (3.0, 3.0), relax, key).unwrap();
        assert_eq!(again.0, fresh.0);
        assert_eq!(again.1 .1.to_bits(), fresh.1 .1.to_bits());
    }

    #[test]
    fn settle_many_preadvance_changes_no_answer() {
        // Pre-advancing the frontier over every destination at once
        // (the batch in-edge probe's warm pass) must leave each
        // subsequent route_to bitwise identical to a fresh targeted
        // search — including unreachable destinations.
        let mut rng = StdRng::seed_from_u64(77);
        let t = gen::random_switched_wan(&gen::WanConfig::heterogeneous(10), &mut rng);
        let mut queues: Vec<SlotQueue> = (0..t.link_count()).map(|_| SlotQueue::new()).collect();
        for (i, q) in queues.iter_mut().enumerate() {
            if i % 2 == 0 {
                q.commit(es_linksched::CommId(i as u64), 0, 0.5, 25.0 + i as f64);
            }
        }
        let duration = 4.0;
        let relax = |&(s, f): &(f64, f64), hop: &es_net::Hop| {
            let bound = s.max(f - duration);
            let start = queues[hop.link.index()].probe(bound, duration);
            (start, (start + duration).max(f))
        };
        let key = |&(_, f): &(f64, f64)| f;

        let src = t.node_of_proc(es_net::ProcId(0));
        let dsts: Vec<es_net::NodeId> = t.proc_ids().map(|p| t.node_of_proc(p)).collect();
        let mut warmed = IncrementalDijkstra::new(t.node_count(), src, (1.0, 1.0), 1.0);
        warmed.settle_many(&t, &dsts, relax, key);
        let mut route = Vec::new();
        for &dst in &dsts {
            let fresh = dijkstra_route(&t, src, dst, (1.0, 1.0), relax, key);
            let state = warmed.route_to_into(&t, dst, relax, key, &mut route);
            match (fresh, state) {
                (None, None) => assert!(route.is_empty()),
                (Some((r1, s1)), Some(s2)) => {
                    assert_eq!(r1, route, "route to {dst:?}");
                    assert_eq!(s1.0.to_bits(), s2.0.to_bits());
                    assert_eq!(s1.1.to_bits(), s2.1.to_bits());
                }
                (a, b) => panic!("reachability disagrees: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn bus_routes_work() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = gen::shared_bus(4, SpeedDist::Fixed(1.0), 1.0, &mut rng);
        let r = bfs_route(
            &t,
            t.node_of_proc(es_net::ProcId(0)),
            t.node_of_proc(es_net::ProcId(3)),
        )
        .unwrap();
        assert_eq!(r.len(), 1, "bus is a single hop");
    }
}
