//! Property: no route cache ever serves a stale route. Twin
//! [`SlottedState`]s — one with the optimized tuning (cache + indexed
//! gaps), one with the reference tuning — are driven through identical
//! random sequences of probe cycles (tentative schedule → exact
//! `unschedule` per candidate), real commits, and schedules against
//! masked repair views of the topology. Every returned arrival time
//! and every recorded placement must match bit for bit.
//!
//! An overlay leg probes every candidate of every cycle a second time,
//! through one [`ProbeWorkspace`] over the optimized state's committed
//! queues (`begin_candidate` per candidate, one serial per cycle) — the
//! production probe path, whose incremental-search cache is the only
//! cache that survives across candidates. Each overlay arrival must
//! equal bitwise what `schedule_comm` returns on the reference state,
//! masked views included; a search surviving a commit or a mask switch
//! would diverge here.

use es_core::config::{Insertion, Routing, Switching};
use es_core::slotted::{OverlayState, ProbeWorkspace, SlottedState};
use es_core::Tuning;
use es_linksched::CommId;
use es_net::gen::{self, WanConfig};
use es_net::Topology;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scripted communication request.
#[derive(Clone, Debug)]
struct Req {
    est: f64,
    cost: f64,
    from: usize,
    to: usize,
    candidates: usize,
    optimal: bool,
    /// Schedule this request against the masked view instead of the
    /// full topology (exercises signature-keyed invalidation).
    masked: bool,
}

fn reqs_strategy() -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec(
        (
            0.0f64..50.0,
            0.5f64..40.0,
            0usize..64,
            0usize..64,
            1usize..5,
            prop::bool::ANY,
            0u8..10,
        ),
        1..24,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(est, cost, from, to, candidates, optimal, m)| Req {
                est,
                cost,
                from,
                to,
                candidates,
                optimal,
                masked: m < 3,
            })
            .collect()
    })
}

/// Both sides' answer for one probe, compared bitwise.
fn same_answer(a: &Result<f64, es_core::SchedError>, b: &Result<f64, es_core::SchedError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Drive the script through an optimized and a reference state in
/// lock step, checking the overlay leg against the reference state's
/// probes as it goes.
fn drive(
    topo: &Topology,
    masked: &Topology,
    reqs: &[Req],
) -> Result<(SlottedState, SlottedState), TestCaseError> {
    let mut opt = SlottedState::with_tuning(topo, reqs.len() * 8 + 2, Tuning::optimized());
    let mut refr = SlottedState::with_tuning(topo, reqs.len() * 8 + 2, Tuning::reference());
    let mut ws = ProbeWorkspace::new(topo.link_count());
    let procs = topo.proc_count();
    let mut next = 0u64;
    for (serial, r) in reqs.iter().enumerate() {
        let from = es_net::ProcId((r.from % procs) as u32);
        let view = if r.masked { masked } else { topo };
        let insertion = if r.optimal {
            Insertion::Optimal
        } else {
            Insertion::Basic
        };
        // Probe cycle over candidate destinations, mirroring
        // pick_by_probe: each candidate probes this request's
        // communication plus a follow-up that must see it.
        let probes = [
            (CommId(next), r.est, r.cost),
            (CommId(next + 1), r.est + 1.0, r.cost / 2.0),
        ];
        for c in 0..r.candidates {
            let to = es_net::ProcId(((r.to + c) % procs) as u32);
            if to == from {
                continue;
            }
            ws.begin_candidate(serial as u64 + 1);
            let mut ov = OverlayState::new(opt.queues(), opt.tuning(), &mut ws);
            let mut placed = Vec::new();
            for &(comm, est, cost) in &probes {
                let want = refr.schedule_comm(
                    view,
                    comm,
                    est,
                    cost,
                    from,
                    to,
                    Routing::ModifiedDijkstra,
                    Insertion::Basic,
                    Switching::CutThrough,
                );
                let got = ov.schedule_comm(
                    view,
                    comm,
                    est,
                    cost,
                    from,
                    to,
                    Routing::ModifiedDijkstra,
                    Switching::CutThrough,
                );
                prop_assert!(
                    same_answer(&got, &want),
                    "overlay probe {:?} vs reference {:?} (cycle {}, candidate {})",
                    got,
                    want,
                    serial,
                    c
                );
                if want.is_err() {
                    break;
                }
                placed.push(comm);
            }
            for &comm in placed.iter().rev() {
                refr.unschedule(comm);
            }
            // The optimized state's own probe cycle: schedule, then
            // roll back exactly.
            for &(comm, est, cost) in &probes {
                let ok = opt
                    .schedule_comm(
                        view,
                        comm,
                        est,
                        cost,
                        from,
                        to,
                        Routing::ModifiedDijkstra,
                        Insertion::Basic,
                        Switching::CutThrough,
                    )
                    .is_ok();
                if !ok {
                    break;
                }
                opt.unschedule(comm);
            }
        }
        // Real commit (mutates the link queues, so no search from
        // this cycle may be served afterwards).
        let to = if r.to % procs == from.0 as usize {
            (from.0 as usize + 1) % procs
        } else {
            r.to % procs
        };
        if to != from.0 as usize {
            let comm = CommId(next);
            for st in [&mut opt, &mut refr] {
                let _ = st.schedule_comm(
                    view,
                    comm,
                    r.est,
                    r.cost,
                    from,
                    es_net::ProcId(to as u32),
                    Routing::ModifiedDijkstra,
                    insertion,
                    Switching::CutThrough,
                );
            }
        }
        next += 2;
    }
    opt.check_invariants().map_err(TestCaseError::fail)?;
    refr.check_invariants().map_err(TestCaseError::fail)?;
    Ok((opt, refr))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn route_cache_never_serves_stale_routes(
        procs in 2usize..10,
        seed in any::<u64>(),
        hetero in prop::bool::ANY,
        mask_seed in any::<u64>(),
        reqs in reqs_strategy(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = if hetero {
            WanConfig::heterogeneous(procs)
        } else {
            WanConfig::homogeneous(procs)
        };
        let topo = gen::random_switched_wan(&cfg, &mut rng);
        // Mask a pseudo-random subset of links (possibly disconnecting
        // the view — NoRoute results must then match on both sides).
        let masked = topo.masked(|l| (mask_seed >> (l.index() % 61)) & 1 == 1);

        let (opt, refr) = drive(&topo, &masked, &reqs)?;

        for link in topo.link_ids() {
            let (a, b) = (opt.queue(link), refr.queue(link));
            prop_assert_eq!(a.len(), b.len(), "queue length on link {}", link.index());
            for (x, y) in a.slots().iter().zip(b.slots()) {
                prop_assert_eq!(x.comm, y.comm);
                prop_assert_eq!(x.seq, y.seq);
                prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
                prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
            }
        }
    }
}
