//! Property-based tests of the link resource managers: slot queues,
//! optimal insertion, and fluid bandwidth profiles.

use es_linksched::bandwidth::{ArrivalCurve, Flow, RateProfile};
use es_linksched::optimal::plan_optimal_insert;
use es_linksched::slot::SlotQueue;
use es_linksched::time::EPS;
use es_linksched::CommId;
use proptest::prelude::*;

/// A slot queue built from arbitrary probe/commit requests, plus a
/// deferrable time per slot.
fn queue_strategy() -> impl Strategy<Value = (SlotQueue, Vec<f64>)> {
    prop::collection::vec((0.0f64..200.0, 0.1f64..20.0, 0.0f64..15.0), 0..40).prop_map(|reqs| {
        let mut q = SlotQueue::new();
        let mut dts = Vec::new();
        for (i, (bound, dur, dt)) in reqs.into_iter().enumerate() {
            let start = q.probe(bound, dur);
            q.commit(CommId(i as u64), 0, start, dur);
            dts.push(dt);
        }
        // dts indexed by *slot order*, not insertion order: rebuild
        // aligned to the sorted queue (values are arbitrary anyway,
        // only the count must match).
        let n = q.len();
        (q, dts.into_iter().take(n).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probe_commit_never_overlaps((q, _dts) in queue_strategy(),
                                   bound in 0.0f64..250.0,
                                   dur in 0.0f64..25.0) {
        let mut q = q;
        let start = q.probe(bound, dur);
        prop_assert!(start + EPS >= bound, "probe respects the bound");
        q.commit(CommId(9999), 0, start, dur);
        prop_assert!(q.check_invariants().is_ok());
    }

    #[test]
    fn probe_is_first_fit_minimal((q, _dts) in queue_strategy(),
                                  bound in 0.0f64..250.0,
                                  dur in 0.1f64..25.0) {
        let start = q.probe(bound, dur);
        // No feasible placement strictly earlier: check a few earlier
        // candidates all collide or violate the bound.
        let step = (start - bound).max(0.0) / 8.0;
        if step > EPS {
            for k in 0..8 {
                let cand = bound + step * f64::from(k);
                let overlaps = q.slots().iter().any(|s| {
                    cand < s.end - EPS && s.start < cand + dur - EPS
                });
                prop_assert!(overlaps, "candidate {cand} should have collided");
            }
        }
    }

    #[test]
    fn remove_comm_restores_probe((q, _dts) in queue_strategy(),
                                  bound in 0.0f64..250.0,
                                  dur in 0.1f64..25.0) {
        let mut q = q;
        let before = q.probe(bound, dur);
        let start = q.probe(bound, dur);
        q.commit(CommId(5555), 0, start, dur);
        q.remove_comm(CommId(5555));
        let after = q.probe(bound, dur);
        prop_assert_eq!(before.to_bits(), after.to_bits());
        prop_assert!(q.check_invariants().is_ok());
    }

    #[test]
    fn optimal_insert_never_later_than_basic((q, dts) in queue_strategy(),
                                             bound in 0.0f64..250.0,
                                             dur in 0.1f64..25.0) {
        let basic = q.probe(bound, dur);
        let plan = plan_optimal_insert(&q, bound, dur, &dts);
        prop_assert!(plan.start <= basic + EPS,
            "optimal {} later than basic {basic}", plan.start);
        prop_assert!(plan.start + EPS >= bound);
        prop_assert!((plan.end - plan.start - dur).abs() <= EPS);
    }

    #[test]
    fn optimal_insert_shifts_within_slack((q, dts) in queue_strategy(),
                                          bound in 0.0f64..250.0,
                                          dur in 0.1f64..25.0) {
        let plan = plan_optimal_insert(&q, bound, dur, &dts);
        for shift in &plan.shifts {
            prop_assert!(shift.delta > 0.0);
            let (idx, slot) = q.find(shift.comm, shift.seq).unwrap();
            prop_assert!(shift.delta <= dts[idx] + EPS,
                "slot {idx} shifted {} beyond slack {}", shift.delta, dts[idx]);
            prop_assert!((shift.new_start - (slot.start + shift.delta)).abs() <= EPS);
        }
    }

    #[test]
    fn optimal_insert_applied_keeps_queue_valid((q, dts) in queue_strategy(),
                                                bound in 0.0f64..250.0,
                                                dur in 0.1f64..25.0) {
        let mut q = q;
        es_linksched::optimal::optimal_insert(&mut q, CommId(7777), 0, bound, dur, &dts);
        prop_assert!(q.check_invariants().is_ok());
        let (_, slot) = q.find(CommId(7777), 0).unwrap();
        prop_assert!((slot.end - slot.start - dur).abs() <= EPS);
    }
}

/// Independent feasibility oracle for optimal insertion, written from
/// scratch (no `accum` recurrence): can a new transfer `[start,
/// start+dur)` be placed by pushing the overlapped slots right, each
/// within its own deferrable time, cascading shifts down the queue?
fn insertion_feasible(q: &SlotQueue, dts: &[f64], bound: f64, start: f64, dur: f64) -> bool {
    if start + EPS < bound {
        return false;
    }
    // Simulate the cascade: every slot that has not finished by
    // `start` and is touched by the growing push front must defer
    // right within its own slack. (A slot overlapping `start` from the
    // left is pushed past the new transfer entirely — that is exactly
    // what condition (3) permits when `accum` is large enough.)
    let mut pushed_to = start + dur;
    for (i, s) in q.slots().iter().enumerate() {
        if s.end <= start + EPS {
            continue; // entirely before the new transfer
        }
        let delta = pushed_to - s.start;
        if delta <= EPS {
            break; // no contact; cascade over
        }
        if delta > dts[i] + EPS {
            return false;
        }
        pushed_to = s.end + delta;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimal_insert_is_feasible_and_minimal((q, dts) in queue_strategy(),
                                              bound in 0.0f64..250.0,
                                              dur in 0.1f64..25.0) {
        let plan = plan_optimal_insert(&q, bound, dur, &dts);
        prop_assert!(
            insertion_feasible(&q, &dts, bound, plan.start, dur),
            "planned start {} infeasible per the independent oracle", plan.start
        );
        // Theorem 1 (earliest-start): no strictly earlier candidate is
        // feasible. The only meaningful earlier candidates are `bound`
        // and the ends of slots before plan.start.
        let mut candidates = vec![bound];
        for s in q.slots() {
            if s.end < plan.start - EPS && s.end + EPS > bound {
                candidates.push(s.end);
            }
        }
        for c in candidates {
            if c < plan.start - EPS {
                prop_assert!(
                    !insertion_feasible(&q, &dts, bound, c, dur),
                    "earlier start {c} was feasible but planner chose {}",
                    plan.start
                );
            }
        }
    }
}

/// Sequence of instant-arrival fluid allocations.
fn profile_requests() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..100.0, 0.5f64..30.0), 1..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fluid_allocations_conserve_volume_and_capacity(reqs in profile_requests(),
                                                      speed in 0.5f64..8.0) {
        let mut p = RateProfile::new();
        for (i, (at, vol)) in reqs.iter().enumerate() {
            let f = p.allocate(speed, ArrivalCurve::Instant { at: *at }, *vol);
            prop_assert!(f.check_invariants().is_ok());
            prop_assert!((f.volume(speed) - vol).abs() < 1e-6 * vol.max(1.0));
            prop_assert!(f.start().unwrap() + EPS >= *at);
            p.commit(CommId(i as u64), &f);
            prop_assert!(p.check_invariants().is_ok());
        }
        prop_assert!(p.peak_usage() <= 1.0 + 1e-4);
    }

    #[test]
    fn fluid_two_hop_chains_respect_causality(reqs in profile_requests(),
                                              s1 in 0.5f64..8.0,
                                              s2 in 0.5f64..8.0) {
        let mut p1 = RateProfile::new();
        let mut p2 = RateProfile::new();
        for (i, (at, vol)) in reqs.iter().enumerate() {
            let f1 = p1.allocate(s1, ArrivalCurve::Instant { at: *at }, *vol);
            let f2 = p2.allocate(
                s2,
                ArrivalCurve::Upstream { flow: &f1, speed: s1, delay: 0.0 },
                *vol,
            );
            // Volume conservation on both hops.
            prop_assert!((f2.volume(s2) - vol).abs() < 1e-6 * vol.max(1.0));
            // Start/finish causality.
            prop_assert!(f2.start().unwrap() + EPS >= f1.start().unwrap());
            prop_assert!(f2.finish().unwrap() + EPS >= f1.finish().unwrap());
            // Cumulative causality at every f2 breakpoint.
            let cum = |f: &Flow, s: f64, t: f64| -> f64 {
                f.pieces
                    .iter()
                    .map(|p| p.rate * s * (t.min(p.end) - p.start).max(0.0))
                    .sum()
            };
            for piece in &f2.pieces {
                for t in [piece.start, piece.end] {
                    prop_assert!(
                        cum(&f2, s2, t) <= cum(&f1, s1, t) + 1e-6 * vol.max(1.0),
                        "forwarded more than arrived at t={t}"
                    );
                }
            }
            p1.commit(CommId(i as u64), &f1);
            p2.commit(CommId(i as u64), &f2);
        }
        prop_assert!(p1.peak_usage() <= 1.0 + 1e-4);
        prop_assert!(p2.peak_usage() <= 1.0 + 1e-4);
    }

    #[test]
    fn fluid_probe_commit_rollback_is_identity(reqs in profile_requests(),
                                               speed in 0.5f64..8.0) {
        let mut p = RateProfile::new();
        // Commit half the requests for a busy background.
        let half = reqs.len() / 2;
        for (i, (at, vol)) in reqs[..half].iter().enumerate() {
            let f = p.allocate(speed, ArrivalCurve::Instant { at: *at }, *vol);
            p.commit(CommId(i as u64), &f);
        }
        // Probe-commit-rollback each remaining request; the profile
        // must behave as if untouched.
        for (i, (at, vol)) in reqs[half..].iter().enumerate() {
            let reference = p.allocate(speed, ArrivalCurve::Instant { at: *at }, *vol);
            let f = p.allocate(speed, ArrivalCurve::Instant { at: *at }, *vol);
            p.commit(CommId(1000 + i as u64), &f);
            p.remove_comm(CommId(1000 + i as u64));
            let again = p.allocate(speed, ArrivalCurve::Instant { at: *at }, *vol);
            prop_assert_eq!(&reference, &again);
        }
    }
}

/// Random op scripts for the indexed-vs-plain differential: each step
/// either probes (with several bounds), probe-commits, removes a
/// random committed communication wholesale, or removes one slot by
/// its exact recorded start (the targeted unschedule fast path).
fn op_script() -> impl Strategy<Value = Vec<(u8, f64, f64, u64)>> {
    prop::collection::vec((0u8..8, 0.0f64..200.0, 0.1f64..20.0, any::<u64>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential: a gap-indexed queue and a plain queue driven
    /// through the same mutation script answer every probe bitwise
    /// identically and hold bitwise-identical slots throughout —
    /// i.e. the index (watermark repair, prefix skip, targeted
    /// removal) is unobservable except in speed.
    #[test]
    fn indexed_queue_matches_plain_queue_under_random_ops(ops in op_script()) {
        let mut qp = SlotQueue::new();
        let mut qi = SlotQueue::with_gap_index();
        let mut committed: Vec<CommId> = Vec::new();
        let mut next = 0u64;
        for (k, a, b, r) in ops {
            match k % 4 {
                0 | 1 => {
                    // Probe-commit at a random bound (k%4==1 probes
                    // extra shifted bounds first, exercising repeat
                    // reads of a repaired index).
                    if k % 4 == 1 {
                        for bound in [a, a / 2.0, 0.0, a + b] {
                            prop_assert_eq!(
                                qp.probe(bound, b).to_bits(),
                                qi.probe(bound, b).to_bits()
                            );
                        }
                    }
                    let sp = qp.probe(a, b);
                    let si = qi.probe(a, b);
                    prop_assert_eq!(sp.to_bits(), si.to_bits());
                    let c = CommId(next);
                    next += 1;
                    qp.commit(c, 0, sp, b);
                    qi.commit(c, 0, si, b);
                    committed.push(c);
                }
                2 => {
                    if !committed.is_empty() {
                        let c = committed.remove(r as usize % committed.len());
                        qp.remove_comm(c);
                        qi.remove_comm(c);
                    }
                }
                _ => {
                    // Targeted single-slot removal on the indexed
                    // queue vs the reference full scan on the plain
                    // one — the fast path SlottedState::unschedule
                    // takes under `indexed_gaps`.
                    if !committed.is_empty() {
                        let c = committed.remove(r as usize % committed.len());
                        let (_, slot) = qp.find(c, 0).expect("committed slot");
                        qp.remove_comm(c);
                        prop_assert!(qi.remove_slot_at(c, 0, slot.start));
                    }
                }
            }
            prop_assert!(qp.check_invariants().is_ok());
            prop_assert!(qi.check_invariants().is_ok());
            prop_assert_eq!(qp.len(), qi.len());
            for (x, y) in qp.slots().iter().zip(qi.slots()) {
                prop_assert_eq!(x.comm, y.comm);
                prop_assert_eq!(x.seq, y.seq);
                prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
                prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
            }
        }
    }

    /// Differential: optimal insertion (including dts-limited cascade
    /// shifts) plans and applies identically on indexed and plain
    /// queues holding the same slots.
    #[test]
    fn indexed_optimal_insert_matches_plain_exactly((q, dts) in queue_strategy(),
                                                    bound in 0.0f64..250.0,
                                                    dur in 0.1f64..25.0) {
        // Mirror the plain queue into an indexed one, slot for slot.
        let mut qi = SlotQueue::with_gap_index();
        for s in q.slots() {
            qi.commit(s.comm, s.seq, s.start, s.end - s.start);
        }
        // Warm the index so the plan runs against a repaired state.
        let _ = qi.probe(bound, dur);

        let pp = plan_optimal_insert(&q, bound, dur, &dts);
        let pi = plan_optimal_insert(&qi, bound, dur, &dts);
        prop_assert_eq!(pp.index, pi.index);
        prop_assert_eq!(pp.start.to_bits(), pi.start.to_bits());
        prop_assert_eq!(pp.end.to_bits(), pi.end.to_bits());
        prop_assert_eq!(pp.shifts.len(), pi.shifts.len());
        for (x, y) in pp.shifts.iter().zip(&pi.shifts) {
            prop_assert_eq!(x.comm, y.comm);
            prop_assert_eq!(x.seq, y.seq);
            prop_assert_eq!(x.delta.to_bits(), y.delta.to_bits());
            prop_assert_eq!(x.new_start.to_bits(), y.new_start.to_bits());
            prop_assert_eq!(x.new_end.to_bits(), y.new_end.to_bits());
        }

        let mut qp = q;
        es_linksched::optimal::optimal_insert(&mut qp, CommId(8888), 0, bound, dur, &dts);
        es_linksched::optimal::optimal_insert(&mut qi, CommId(8888), 0, bound, dur, &dts);
        prop_assert!(qp.check_invariants().is_ok());
        prop_assert!(qi.check_invariants().is_ok());
        prop_assert_eq!(qp.len(), qi.len());
        for (x, y) in qp.slots().iter().zip(qi.slots()) {
            prop_assert_eq!(x.comm, y.comm);
            prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
            prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
        }
    }

    /// Differential for the §16 column layout: after every step of a
    /// random probe/commit/unschedule script, the SoA columns must
    /// mirror the reference slot view bit for bit (`check_invariants`
    /// asserts it), and a fresh queue rebuilt from the slot view must
    /// be observationally identical: bitwise-same slots and
    /// bitwise-same probe answers, indexed or not.
    #[test]
    fn soa_columns_serialize_identically_to_slot_view(ops in op_script()) {
        let mut q = SlotQueue::with_gap_index();
        let mut committed: Vec<CommId> = Vec::new();
        let mut next = 0u64;
        for (k, a, b, r) in ops {
            match k % 3 {
                0 | 1 => {
                    let s = q.probe(a, b);
                    let c = CommId(next);
                    next += 1;
                    q.commit(c, (r % 4) as u32, s, b);
                    committed.push(c);
                }
                _ => {
                    if !committed.is_empty() {
                        let c = committed.remove(r as usize % committed.len());
                        q.remove_comm(c);
                    }
                }
            }
            prop_assert!(q.check_invariants().is_ok());
            // Round-trip through the slot view: a rebuilt queue is
            // observationally the same queue.
            let mut q2 = SlotQueue::with_gap_index();
            for s in q.slots() {
                q2.commit(s.comm, s.seq, s.start, s.end - s.start);
            }
            prop_assert!(q2.check_invariants().is_ok());
            prop_assert_eq!(q2.content_digest(), q.content_digest());
            prop_assert_eq!(q2.len(), q.len());
            for (x, y) in q.slots().iter().zip(q2.slots()) {
                prop_assert_eq!(x.comm, y.comm);
                prop_assert_eq!(x.seq, y.seq);
                prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
                prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
            }
            for bound in [0.0, a / 2.0, a, a + b] {
                prop_assert_eq!(q.probe(bound, b).to_bits(), q2.probe(bound, b).to_bits());
                prop_assert_eq!(q.probe(bound, b).to_bits(), q.probe_reference(bound, b).to_bits());
            }
        }
    }
}
