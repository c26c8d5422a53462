//! Property-based equivalence of [`SlotQueueOverlay`] against direct
//! [`SlotQueue`] mutation: the copy-on-write overlay must answer every
//! probe bitwise identically to a really-mutated queue and, after an
//! arbitrary probe→commit script, merge to the identical slot sequence
//! (which is what makes the speculative parallel probe in `es-core`
//! exact — see DESIGN.md §11). It also pins the inert-prefix skip the
//! scheduler's overlay probes take through the base queue's gap index
//! ([`SlotQueue::live_from`]).

use es_linksched::overlay::SlotQueueOverlay;
use es_linksched::slot::{Slot, SlotQueue};
use es_linksched::time::EPS;
use es_linksched::CommId;
use proptest::prelude::*;

/// A base queue built from arbitrary probe/commit requests (first-fit
/// placements never overlap, so the queue is valid by construction).
fn base_strategy() -> impl Strategy<Value = SlotQueue> {
    prop::collection::vec((0.0f64..150.0, 0.1f64..15.0), 0..30).prop_map(|reqs| {
        let mut q = SlotQueue::new();
        for (i, (bound, dur)) in reqs.into_iter().enumerate() {
            let start = q.probe(bound, dur);
            q.commit(CommId(i as u64), 0, start, dur);
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Drive the same random probe→commit script through a really
    /// mutated clone and through an overlay delta: every probe answer
    /// and the final queues must match bit for bit.
    #[test]
    fn overlay_script_matches_direct_mutation(
        base in base_strategy(),
        script in prop::collection::vec((0.0f64..250.0, 0.1f64..20.0), 0..25),
    ) {
        let mut real = base.clone();
        let mut delta: Vec<Slot> = Vec::new();
        for (k, (bound, dur)) in script.iter().copied().enumerate() {
            let comm = CommId(1000 + k as u64);
            let got = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
            let want = real.probe(bound, dur);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "probe #{} diverged", k);
            SlotQueueOverlay::commit_into(base.slots(), &mut delta, comm, k as u32, got, dur);
            real.commit(comm, k as u32, want, dur);
        }

        let ov = SlotQueueOverlay::new(base.slots(), &delta);
        ov.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ov.len(), real.len());
        for (a, b) in ov.iter_merged().zip(real.slots()) {
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
        }
        // Replaying the delta into a fresh queue (either tuning)
        // reproduces the really-mutated queue exactly.
        for indexed in [false, true] {
            let q = ov.to_queue(indexed);
            q.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(q.len(), real.len());
            for (a, b) in q.slots().iter().zip(real.slots()) {
                prop_assert_eq!(a.comm, b.comm);
                prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
                prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
            }
        }
    }

    /// Interleave overlay commits with *unschedules on the real path*:
    /// after merging a delta into a queue, removing a communication —
    /// by bulk [`SlotQueue::remove_comm`] or by per-slot
    /// [`SlotQueue::remove_slot_at`] — must leave the same bitwise
    /// queue a direct-mutation run produces, and the two removal paths
    /// must agree with each other. Also pins the epoch discipline:
    /// every mutation strictly increases the epoch, probes never do.
    #[test]
    fn unschedule_after_merge_matches_direct_path(
        base in base_strategy(),
        script in prop::collection::vec((0.0f64..250.0, 0.1f64..20.0), 1..20),
        victims in prop::collection::vec(0usize..40, 1..8),
    ) {
        // Build the same final state twice: really-mutated `real`, and
        // overlay delta merged through `to_queue`.
        let mut real = base.clone();
        let mut delta: Vec<Slot> = Vec::new();
        for (k, (bound, dur)) in script.iter().copied().enumerate() {
            let comm = CommId(1000 + k as u64);
            let got = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
            let want = real.probe(bound, dur);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            SlotQueueOverlay::commit_into(base.slots(), &mut delta, comm, k as u32, got, dur);
            real.commit(comm, k as u32, want, dur);
        }
        let mut merged_bulk = SlotQueueOverlay::new(base.slots(), &delta).to_queue(false);
        let mut merged_at = SlotQueueOverlay::new(base.slots(), &delta).to_queue(true);

        // Unschedule a set of comms (some existing, some absent) from
        // all three queues — real and merged_bulk via remove_comm,
        // merged_at via targeted remove_slot_at with the bulk fallback
        // the scheduler uses.
        for &v in &victims {
            let comm = CommId(1000 + v as u64);
            let before_epoch = merged_at.epoch();
            let removed_real = real.remove_comm(comm);
            let removed_bulk = merged_bulk.remove_comm(comm);
            prop_assert_eq!(removed_real, removed_bulk);
            let targets: Vec<Slot> = merged_at
                .slots()
                .iter()
                .filter(|s| s.comm == comm)
                .copied()
                .collect();
            let mut removed_at = 0usize;
            for t in &targets {
                if merged_at.remove_slot_at(t.comm, t.seq, t.start) {
                    removed_at += 1;
                } else {
                    // Scheduler fallback path; must be unreachable here
                    // because targets came from the queue itself.
                    removed_at += merged_at.remove_comm(comm);
                }
            }
            prop_assert_eq!(removed_real, removed_at, "removal paths disagree");
            if removed_at > 0 {
                prop_assert!(merged_at.epoch() > before_epoch, "unschedule must bump the epoch");
            }
            real.check_invariants().map_err(TestCaseError::fail)?;
            merged_at.check_invariants().map_err(TestCaseError::fail)?;
        }

        // All three survivors are bitwise-identical, and probing them
        // (the mask-refill pattern repair uses) agrees too.
        prop_assert_eq!(real.len(), merged_bulk.len());
        prop_assert_eq!(real.len(), merged_at.len());
        for ((a, b), c) in real.slots().iter().zip(merged_bulk.slots()).zip(merged_at.slots()) {
            prop_assert_eq!(a.comm, b.comm);
            prop_assert_eq!(a.comm, c.comm);
            prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
            prop_assert_eq!(a.start.to_bits(), c.start.to_bits());
            prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
            prop_assert_eq!(a.end.to_bits(), c.end.to_bits());
        }
        for (bound, dur) in [(0.0, 1.0), (10.0, 3.5), (77.0, 0.5)] {
            let epoch_before = real.epoch();
            prop_assert_eq!(real.probe(bound, dur).to_bits(), merged_at.probe(bound, dur).to_bits());
            prop_assert_eq!(real.epoch(), epoch_before, "probe must not bump the epoch");
        }
    }

    /// Probes are read-only: any number of overlays over the same base
    /// and delta agree with each other and leave both untouched.
    #[test]
    fn overlay_probe_is_pure(
        base in base_strategy(),
        bound in 0.0f64..250.0,
        dur in 0.1f64..20.0,
    ) {
        let delta: Vec<Slot> = Vec::new();
        let before: Vec<Slot> = base.slots().to_vec();
        let a = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
        let b = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert_eq!(base.slots().len(), before.len());
        for (x, y) in base.slots().iter().zip(&before) {
            prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
            prop_assert_eq!(x.end.to_bits(), y.end.to_bits());
        }
    }

    /// The inert-prefix skip is bitwise-neutral: an overlay probe that
    /// starts the base at [`SlotQueue::live_from`] answers exactly what
    /// the full-base overlay probe answers, with and without a delta,
    /// for bounds within a few EPS of every merged slot edge (the ties
    /// where a skipped slot and a delta slot could trade places).
    #[test]
    fn live_from_skip_matches_full_base_probe(
        reqs in prop::collection::vec((0.0f64..150.0, 0.1f64..15.0), 8..40),
        probes in prop::collection::vec((0usize..128, -3i8..4, 0.1f64..20.0, prop::bool::ANY), 1..30),
    ) {
        let mut base = SlotQueue::with_gap_index();
        for (i, (bound, dur)) in reqs.into_iter().enumerate() {
            let start = base.probe(bound, dur);
            base.commit(CommId(i as u64), 0, start, dur);
        }
        let mut delta: Vec<Slot> = Vec::new();
        let mut edges: Vec<f64> = Vec::new();
        for (k, (pick, tie, dur, keep)) in probes.into_iter().enumerate() {
            edges.clear();
            for s in SlotQueueOverlay::new(base.slots(), &delta).iter_merged() {
                edges.push(s.start);
                edges.push(s.end);
            }
            let bound = (edges[pick % edges.len()] + f64::from(tie) * 0.5 * EPS).max(0.0);
            let skip = base.live_from(bound);
            let full = SlotQueueOverlay::new(base.slots(), &delta).probe(bound, dur);
            let skipped = SlotQueueOverlay::new(&base.slots()[skip..], &delta).probe(bound, dur);
            prop_assert_eq!(full.to_bits(), skipped.to_bits(), "probe #{} (skip {})", k, skip);
            let pristine = SlotQueueOverlay::new(&base.slots()[skip..], &[]).probe(bound, dur);
            prop_assert_eq!(pristine.to_bits(), base.probe(bound, dur).to_bits());
            if keep {
                let comm = CommId(1000 + k as u64);
                SlotQueueOverlay::commit_into(base.slots(), &mut delta, comm, 0, full, dur);
            }
        }
    }
}
