//! Configuration axes of the slotted list schedulers.
//!
//! §4 of the paper decomposes OIHSA into four independent design
//! choices; exposing each as an enum lets the ablation benches measure
//! every choice's individual contribution, and recovers BA as one
//! particular configuration.

use es_dag::Priority;

/// In what order a ready task's incoming edges are routed and placed on
/// links (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOrder {
    /// Predecessor enumeration order — what BA effectively does (the
    /// paper assigns BA no edge priority).
    Arrival,
    /// Descending communication cost — OIHSA/BBSA's choice: "the edge
    /// with a larger cost dominates the start time of the ready task".
    CostDesc,
    /// Ascending cost — the anti-heuristic, for ablation only.
    CostAsc,
}

impl EdgeOrder {
    /// Sort the indices `0..costs.len()` of a task's in-edges into this
    /// order, ties by index, into a caller-owned buffer (cleared first;
    /// schedulers reuse it across tasks and candidates).
    pub fn order_into(self, costs: &[f64], idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(0..costs.len());
        match self {
            EdgeOrder::Arrival => {}
            EdgeOrder::CostDesc => idx.sort_by(|&a, &b| {
                costs[b]
                    .partial_cmp(&costs[a])
                    .expect("finite costs")
                    .then_with(|| a.cmp(&b))
            }),
            EdgeOrder::CostAsc => idx.sort_by(|&a, &b| {
                costs[a]
                    .partial_cmp(&costs[b])
                    .expect("finite costs")
                    .then_with(|| a.cmp(&b))
            }),
        }
    }
}

/// How the earliest-finish processor probe evaluates candidate
/// processors (DESIGN.md §11). Purely a performance knob: every
/// variant is bitwise-identical to the sequential reference probe —
/// overlay lanes probe copy-on-write overlays of the same committed
/// link state and the reducer applies the exact sequential tie-break
/// order, so only wall-clock time changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeParallelism {
    /// The reference probe: schedule each candidate's in-edges onto the
    /// real link queues, then unschedule them (the differential
    /// reference twin; never the production path).
    Sequential,
    /// Overlay probing on as many lanes as the environment offers,
    /// resolved once per scheduler run ([`es_runner::Threads::resolve`]:
    /// `ES_THREADS` override, else the CPU count). Resolving to 1 lane
    /// runs the overlay probe inline, exactly like `Workers(1)`.
    Auto,
    /// Overlay probing on exactly `n` lanes (clamped to ≥ 1); one lane
    /// runs inline with no worker threads — the configuration the
    /// differential oracle uses to pin overlay semantics without
    /// scheduling nondeterminism in the mix.
    Workers(usize),
}

impl ProbeParallelism {
    /// Lane count this variant resolves to right now (≥ 1).
    /// `Sequential` reports 1.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            ProbeParallelism::Sequential => 1,
            ProbeParallelism::Auto => es_runner::Threads::resolve().get(),
            ProbeParallelism::Workers(n) => n.max(1),
        }
    }

    /// Whether this variant takes the overlay probing path — every
    /// variant but the `Sequential` reference, at any lane count.
    #[must_use]
    pub fn uses_overlay(self) -> bool {
        !matches!(self, ProbeParallelism::Sequential)
    }
}

/// Hot-path performance toggles (independent of the algorithmic axes
/// above). Every combination must produce bitwise-identical schedules;
/// the differential oracle in `tests/integration_differential.rs` and
/// the proptests under `crates/core/tests/` enforce this, so these
/// knobs trade only time and memory, never results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tuning {
    /// Memoize modified-Dijkstra search state across the processor
    /// candidates the overlay probe evaluates for one ready task, and
    /// run the remaining searches over hoisted scratch buffers. A
    /// cached search serves only a candidate with no private delta yet
    /// on a signed topology view, and is dropped at the next task, so
    /// it never outlives the link state or the (e.g.
    /// [`es_net::Topology::masked`]) adjacency view it searched.
    pub route_cache: bool,
    /// Use the indexed free-gap search in each link's `SlotQueue`
    /// ([`es_linksched::SlotQueue::indexed`]) instead of the linear
    /// first-fit rescan.
    pub indexed_gaps: bool,
    /// How the earliest-finish processor probe evaluates candidates:
    /// copy-on-write link-state overlays on one or more lanes, or the
    /// sequential reference (see [`ProbeParallelism`]).
    pub parallel_probe: ProbeParallelism,
}

impl Tuning {
    /// All optimizations on — the production configuration.
    #[must_use]
    pub fn optimized() -> Self {
        Self {
            route_cache: true,
            indexed_gaps: true,
            parallel_probe: ProbeParallelism::Auto,
        }
    }

    /// The pre-optimization reference paths, kept permanently as the
    /// differential-testing baseline.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            route_cache: false,
            indexed_gaps: false,
            parallel_probe: ProbeParallelism::Sequential,
        }
    }
}

impl Default for Tuning {
    /// The production configuration, [`Tuning::optimized`].
    fn default() -> Self {
        Self::optimized()
    }
}

/// When a communication may start leaving its source processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeEst {
    /// As soon as its own source task finishes — the offline model of
    /// Sinnen's TPDS'05 framework, where every edge is scheduled
    /// independently.
    SourceFinish,
    /// Only when the destination task becomes *ready*, i.e. at the
    /// latest finish time over all its predecessors. This is the
    /// dynamic/online model this paper describes: "the start time of
    /// the communication data from predecessors to the ready task is
    /// all the same, that is, the finish time of the predecessor which
    /// finishes latest at runtime" (§4.1/§4.2). All of a task's
    /// in-communications then compete for links simultaneously, which
    /// is what makes the edge priority (§4.2) meaningful.
    ReadyTime,
}

/// How a message crosses multi-hop routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Switching {
    /// Cut-through / circuit switching — the paper's assumption (§2.2):
    /// a transfer may occupy all route links simultaneously; on each
    /// link it starts no earlier than on the previous one and finishes
    /// no earlier either (the "virtual start" rule).
    CutThrough,
    /// Store-and-forward: a link may start transmitting only after the
    /// message has fully arrived over the previous link. Strictly more
    /// conservative; provided as a model extension for ablation.
    StoreAndForward,
}

/// Route selection strategy (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Minimal routing: fewest hops via BFS (BA, §3).
    Bfs,
    /// The paper's modified Dijkstra: minimise the probed finish time
    /// of this communication on each link given current link schedules.
    ModifiedDijkstra,
}

/// Link insertion policy (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Insertion {
    /// First-fit idle interval (BA's basic insertion).
    Basic,
    /// OIHSA's optimal insertion: defer already-scheduled slots within
    /// their causality slack to open earlier gaps.
    Optimal,
}

/// Processor selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcSelection {
    /// Tentatively schedule the task's communications to every
    /// processor (with the configured routing) and keep the one with
    /// the earliest task finish time — Sinnen's BA criterion, and our
    /// default for OIHSA/BBSA too (see below). The tentative pass
    /// always uses basic insertion so that it can be rolled back
    /// exactly; the commit pass uses the configured [`Insertion`].
    EarliestFinishProbe,
    /// The paper's §4.1 static hybrid criterion, literally:
    /// `min_P [ max( max_j(t_f(n_j) + c(e_j)/MLS), t_f(P) ) + w/s(P) ]`
    /// with zero communication for predecessors already on `P`.
    ///
    /// This estimate is contention-blind: it prices every remote
    /// communication at `c/MLS` no matter how congested the links are.
    /// Against a full-probe BA it loses by 30–60% at high CCR *on
    /// small instances* (the probe discovers that clustering avoids
    /// queueing delays the static formula cannot see) — the
    /// `ablation_proc_selection` bench quantifies this — yet at 16+
    /// processors on paper-sized instances the greedy probe's lack of
    /// lookahead can flip the comparison (EXPERIMENTS.md, "secondary
    /// experiment"). The paper's §3 prose ("BA chooses the processor …
    /// while ignoring the effect of edge communication") indicates its
    /// own BA baseline selected processors with a contention-blind
    /// estimate of this same kind, so the figure reproductions compare
    /// the paper's three algorithms with this criterion across the
    /// board ([`ListConfig::ba_static`] et al.); see DESIGN.md §2.
    HybridStatic,
}

/// Full configuration of a slotted list scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ListConfig {
    /// Algorithm name used in reports.
    pub name: &'static str,
    /// Task priority for the scheduling list (§2.1: bottom level).
    pub priority: Priority,
    /// Processor choice.
    pub proc_selection: ProcSelection,
    /// Route choice.
    pub routing: Routing,
    /// Edge ordering.
    pub edge_order: EdgeOrder,
    /// Earliest communication start model.
    pub edge_est: EdgeEst,
    /// Multi-hop switching model (paper: cut-through).
    pub switching: Switching,
    /// Link insertion policy.
    pub insertion: Insertion,
    /// Hot-path performance toggles (bitwise-neutral; see [`Tuning`]).
    pub tuning: Tuning,
}

impl ListConfig {
    /// The tuning this configuration can actually profit from —
    /// [`ListConfig::tuning`] with structurally useless knobs masked
    /// off. The gap index amortizes one maintenance refold per queue
    /// mutation over the many probes a candidate sweep or an
    /// optimal-insertion scan replays against the same queue state; a
    /// [`ProcSelection::HybridStatic`] scheduler with
    /// [`Insertion::Basic`] (BA-static) probes each queue exactly once
    /// per commit — a 1:1 probe/mutation ratio where maintenance can
    /// never pay for itself — so `indexed_gaps` is dropped there.
    /// Time-only by construction: every tuning combination produces
    /// bitwise-identical schedules (the differential oracle enforces
    /// it), so masking a knob can never change a result.
    #[must_use]
    pub fn effective_tuning(&self) -> Tuning {
        let mut t = self.tuning;
        if matches!(self.proc_selection, ProcSelection::HybridStatic)
            && matches!(self.insertion, Insertion::Basic)
        {
            t.indexed_gaps = false;
        }
        t
    }

    /// Sinnen's Basic Algorithm (§3) in its strong TPDS'05 form: the
    /// processor probe tentatively schedules every communication on the
    /// real link schedules.
    pub fn ba() -> Self {
        Self {
            name: "BA",
            priority: Priority::BottomLevel,
            proc_selection: ProcSelection::EarliestFinishProbe,
            routing: Routing::Bfs,
            edge_order: EdgeOrder::Arrival,
            edge_est: EdgeEst::SourceFinish,
            switching: Switching::CutThrough,
            insertion: Insertion::Basic,
            tuning: Tuning::default(),
        }
    }

    /// BA as the ICPP'06 paper appears to have implemented it:
    /// identical link machinery (BFS, arrival order, basic insertion)
    /// but a contention-blind earliest-finish processor estimate (see
    /// [`ProcSelection::HybridStatic`]). This is the baseline of the
    /// figure reproductions.
    pub fn ba_static() -> Self {
        Self {
            name: "BA-static",
            proc_selection: ProcSelection::HybridStatic,
            edge_est: EdgeEst::ReadyTime,
            ..Self::ba()
        }
    }

    /// The paper's OIHSA (§4), literally: hybrid static processor
    /// criterion (§4.1), cost-descending edge priority (§4.2), modified
    /// Dijkstra routing (§4.3) and optimal insertion (§4.4).
    pub fn oihsa() -> Self {
        Self {
            name: "OIHSA",
            priority: Priority::BottomLevel,
            proc_selection: ProcSelection::HybridStatic,
            routing: Routing::ModifiedDijkstra,
            edge_order: EdgeOrder::CostDesc,
            edge_est: EdgeEst::ReadyTime,
            switching: Switching::CutThrough,
            insertion: Insertion::Optimal,
            tuning: Tuning::default(),
        }
    }

    /// OIHSA with the strong earliest-finish processor probe instead of
    /// the §4.1 static criterion — the variant to use when comparing
    /// against the strong [`ListConfig::ba`].
    pub fn oihsa_probing() -> Self {
        Self {
            name: "OIHSA-probe",
            proc_selection: ProcSelection::EarliestFinishProbe,
            edge_est: EdgeEst::SourceFinish,
            ..Self::oihsa()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(o: EdgeOrder, costs: &[f64]) -> Vec<usize> {
        let mut idx = Vec::new();
        o.order_into(costs, &mut idx);
        idx
    }

    #[test]
    fn edge_order_arrival_is_identity() {
        assert_eq!(order(EdgeOrder::Arrival, &[5.0, 1.0, 3.0]), vec![0, 1, 2]);
    }

    #[test]
    fn edge_order_cost_desc() {
        assert_eq!(order(EdgeOrder::CostDesc, &[5.0, 1.0, 3.0]), vec![0, 2, 1]);
    }

    #[test]
    fn edge_order_cost_asc() {
        assert_eq!(order(EdgeOrder::CostAsc, &[5.0, 1.0, 3.0]), vec![1, 2, 0]);
    }

    #[test]
    fn edge_order_ties_break_by_index() {
        let costs = [2.0, 2.0, 2.0];
        assert_eq!(order(EdgeOrder::CostDesc, &costs), vec![0, 1, 2]);
        assert_eq!(order(EdgeOrder::CostAsc, &costs), vec![0, 1, 2]);
    }

    #[test]
    fn presets_match_paper() {
        let ba = ListConfig::ba();
        assert_eq!(ba.routing, Routing::Bfs);
        assert_eq!(ba.insertion, Insertion::Basic);
        assert_eq!(ba.proc_selection, ProcSelection::EarliestFinishProbe);

        let oihsa = ListConfig::oihsa();
        assert_eq!(oihsa.routing, Routing::ModifiedDijkstra);
        assert_eq!(oihsa.insertion, Insertion::Optimal);
        assert_eq!(oihsa.edge_order, EdgeOrder::CostDesc);
        assert_eq!(oihsa.proc_selection, ProcSelection::HybridStatic);
        assert_eq!(
            ListConfig::oihsa_probing().proc_selection,
            ProcSelection::EarliestFinishProbe
        );
        assert_eq!(
            ListConfig::ba_static().proc_selection,
            ProcSelection::HybridStatic
        );
        assert_eq!(ListConfig::ba_static().routing, Routing::Bfs);
    }

    #[test]
    fn tuning_default_is_optimized() {
        assert_eq!(Tuning::default(), Tuning::optimized());
        assert_eq!(ListConfig::ba().tuning, Tuning::optimized());
        assert_eq!(ListConfig::oihsa_probing().tuning, Tuning::optimized());
        assert_ne!(Tuning::optimized(), Tuning::reference());
    }

    #[test]
    fn probe_parallelism_lane_resolution() {
        assert_eq!(ProbeParallelism::Sequential.lanes(), 1);
        assert!(!ProbeParallelism::Sequential.uses_overlay());
        assert_eq!(ProbeParallelism::Workers(0).lanes(), 1);
        assert_eq!(ProbeParallelism::Workers(4).lanes(), 4);
        // Every non-reference variant takes the overlay path at any
        // lane count, so one lane is overlay-inline, never Sequential.
        assert!(ProbeParallelism::Workers(1).uses_overlay());
        assert!(ProbeParallelism::Auto.lanes() >= 1);
        assert!(ProbeParallelism::Auto.uses_overlay());
    }

    #[test]
    fn effective_tuning_masks_gap_index_only_for_commit_only_configs() {
        // BA-static never amortizes index maintenance (one probe per
        // commit), so the index is masked off; everything else keeps
        // the knobs it was built with.
        let mut bs = ListConfig::ba_static();
        bs.tuning = Tuning::optimized();
        let eff = bs.effective_tuning();
        assert!(!eff.indexed_gaps);
        assert_eq!(
            Tuning {
                indexed_gaps: true,
                ..eff
            },
            Tuning::optimized()
        );
        for cfg in [
            ListConfig::ba(),
            ListConfig::oihsa(),
            ListConfig::oihsa_probing(),
        ] {
            let mut cfg = cfg;
            cfg.tuning = Tuning::optimized();
            assert_eq!(cfg.effective_tuning(), Tuning::optimized(), "{}", cfg.name);
        }
        // Masking never *adds* a knob.
        bs.tuning = Tuning::reference();
        assert_eq!(bs.effective_tuning(), Tuning::reference());
    }

    #[test]
    fn order_into_reuses_buffer() {
        let mut buf = vec![9, 9, 9, 9, 9];
        EdgeOrder::CostDesc.order_into(&[1.0, 4.0], &mut buf);
        assert_eq!(buf, vec![1, 0]);
    }
}
