//! Non-preemptive slot queues — one per link.
//!
//! A [`SlotQueue`] holds the occupied time slots `TS_{m,1..}` of one
//! link, sorted by start time and non-overlapping (edge executions on a
//! link never preempt each other, §2.2). *Basic insertion* (§3) probes
//! for the earliest idle interval of the required duration at or after
//! a lower bound; OIHSA's optimal insertion lives in
//! [`crate::optimal`] and operates on this same structure.
//!
//! # Storage layout (DESIGN.md §16)
//!
//! The queue is stored twice, in lockstep:
//!
//! * `slots: Vec<Slot>` — the retained array-of-structs reference
//!   layout. It is the canonical serialization: [`SlotQueue::slots`],
//!   [`SlotQueue::content_digest`], the overlay base snapshots and the
//!   `LinkModel::slot_view` contract all read it, and
//!   [`SlotQueue::probe_reference`] scans it verbatim.
//! * dense columns `col_start`/`col_end` (`f64`) and `col_comm` (u32
//!   arena ids interned per queue) — the structure-of-arrays mirror the
//!   probe hot path scans. A probe touches only the two f64 bit-columns
//!   (16 bytes per slot instead of the 32-byte `Slot` stride), and
//!   rollback scans compare u32 arena ids instead of 8-byte comm ids.
//!
//! Every mutator updates both layouts in the same call, so the mirror
//! can never drift; [`SlotQueue::check_invariants`] asserts bitwise
//! agreement and the layout-identity proptest drives both layouts
//! through random scripts.

use crate::time::{approx_ge, approx_le, EPS};
use crate::CommId;

/// One occupied time slot `TS` on a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slot {
    /// The communication occupying the slot.
    pub comm: CommId,
    /// Position of this link within the communication's route (0-based).
    /// Distinguishes the rare case of a route crossing one shared link
    /// twice (possible with buses).
    pub seq: u32,
    /// Slot start time `t_s(TS)`.
    pub start: f64,
    /// Slot finish time `t_f(TS)`; `end - start` is the transfer time
    /// `int(e, L) = c(e)/s(L)`.
    pub end: f64,
}

/// Per-queue interning of [`CommId`]s to dense u32 arena ids, so the
/// comm column is a quarter the width of the raw ids and rollback scans
/// ([`SlotQueue::remove_comm`]) are u32 compares with an O(log n)
/// not-present fast path. Ids are first-seen order; the table is
/// cleared whenever the queue drains so long online runs do not
/// accumulate ids for retired communications.
#[derive(Clone, Debug, Default)]
struct CommArena {
    /// Arena id -> raw comm id.
    ids: Vec<u64>,
    /// `(raw comm id, arena id)` sorted by raw id for binary search.
    sorted: Vec<(u64, u32)>,
}

impl CommArena {
    fn intern(&mut self, comm: CommId) -> u32 {
        match self.sorted.binary_search_by_key(&comm.0, |e| e.0) {
            Ok(i) => self.sorted[i].1,
            Err(i) => {
                let id = u32::try_from(self.ids.len()).expect("comm arena overflow");
                self.ids.push(comm.0);
                self.sorted.insert(i, (comm.0, id));
                id
            }
        }
    }

    fn lookup(&self, comm: CommId) -> Option<u32> {
        self.sorted
            .binary_search_by_key(&comm.0, |e| e.0)
            .ok()
            .map(|i| self.sorted[i].1)
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.sorted.clear();
    }
}

/// Clean-state sentinel for [`GapIndex::dirty_from`].
const CLEAN: usize = usize::MAX;

/// Acceleration structure for [`SlotQueue::probe`].
///
/// `pme[i]` is the *leftmost* maximum of `slots[0..=i].end` (ties keep
/// the earlier slot's bits, matching the first-fit fold's `>`
/// replacement rule). A probe with lower bound `b` binary-searches past
/// every leading slot whose prefix-max end is below `b - EPS`: such a
/// slot can neither satisfy the fit test (its start is below the
/// candidate, which never drops below `b`) nor raise the candidate. The
/// remaining walk is the reference fold verbatim over the SoA columns,
/// so the result is bitwise identical to
/// [`SlotQueue::probe_reference`] (see DESIGN.md §10/§16).
///
/// Maintenance is *eager*: single-slot mutations keep `pme` aligned
/// (insert/remove the matching entry) and refold the suffix with a
/// bitwise early exit — once a recomputed entry equals the stored one,
/// the whole stored tail is proven equal and the refold stops. Probes
/// therefore never pay a repair (the lazy-repair scheme this replaces
/// made interleaved probe/commit/rollback workloads quadratic: every
/// probe repaired the suffix a rollback had just invalidated). Only the
/// optimal-insertion shift burst defers: shifts lower `dirty_from` and
/// [`SlotQueue::index_refold`] folds once per burst.
#[derive(Clone, Debug)]
struct GapIndex {
    /// Leftmost prefix maxima of `col_end`, always length `len()`.
    pme: Vec<f64>,
    /// First possibly-stale entry; [`CLEAN`] when `pme` is fully valid.
    dirty_from: usize,
}

impl Default for GapIndex {
    fn default() -> Self {
        Self {
            pme: Vec::new(),
            dirty_from: CLEAN,
        }
    }
}

impl GapIndex {
    /// Recompute `pme[from..]` from the end column and mark the index
    /// clean. With `early` (valid only after a single aligned
    /// insert/remove at `from`, where the stored tail is the old fold
    /// shifted into place), the fold stops at the first position past
    /// `from` whose stored bits already equal the recomputed run: the
    /// stored chain `pme[j] = fold(pme[j-1], ends[j])` then proves the
    /// rest equal by induction.
    fn refold(&mut self, ends: &[f64], from: usize, early: bool) {
        debug_assert_eq!(self.pme.len(), ends.len());
        let mut run = if from > 0 {
            self.pme[from - 1]
        } else {
            f64::NEG_INFINITY
        };
        for i in from..ends.len() {
            if ends[i] > run {
                run = ends[i];
            }
            if early && i > from && self.pme[i].to_bits() == run.to_bits() {
                self.dirty_from = CLEAN;
                return;
            }
            self.pme[i] = run;
        }
        self.dirty_from = CLEAN;
    }
}

/// Queues shorter than this answer probes by the plain column scan even
/// when indexed: a first-fit walk over a handful of slots is cheaper
/// than a binary search. Because the index is never *consulted* below
/// the threshold, maintenance there is deferred too — mutators on a
/// short queue just lower the dirty watermark instead of refolding, and
/// the first mutation that grows the queue to the threshold refolds
/// once from the watermark. Static schedulers whose queues stay short
/// therefore pay no index upkeep at all.
const MIN_INDEXED_LEN: usize = 8;

/// Sorted, non-overlapping queue of occupied slots on one link, stored
/// as a retained `Vec<Slot>` plus SoA probe columns (module docs).
#[derive(Clone, Debug, Default)]
pub struct SlotQueue {
    slots: Vec<Slot>,
    /// SoA mirror of `slots[i].start`.
    col_start: Vec<f64>,
    /// SoA mirror of `slots[i].end`.
    col_end: Vec<f64>,
    /// SoA mirror of `slots[i].comm` as u32 arena ids.
    col_comm: Vec<u32>,
    arena: CommArena,
    /// `Some` enables the indexed probe fast path; `None` keeps the
    /// reference first-fit scan. Both produce bitwise-identical probes.
    index: Option<GapIndex>,
    /// Mutation epoch: strictly increases on every committed-state
    /// mutation (the `LinkModel` invalidation hook, DESIGN.md §14).
    /// Probes never change it. Not part of the content digest.
    epoch: u64,
}

impl SlotQueue {
    /// New empty queue using the reference (naive) probe scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty queue with the indexed probe fast path enabled.
    pub fn with_gap_index() -> Self {
        Self {
            index: Some(GapIndex::default()),
            ..Self::default()
        }
    }

    /// [`SlotQueue::new`] or [`SlotQueue::with_gap_index`] by flag.
    pub fn indexed(enable: bool) -> Self {
        if enable {
            Self::with_gap_index()
        } else {
            Self::new()
        }
    }

    /// Whether the indexed probe fast path is enabled.
    #[inline]
    pub fn has_gap_index(&self) -> bool {
        self.index.is_some()
    }

    /// Bump the mutation epoch — every committed-state mutator calls
    /// this exactly once before returning (the epoch-discipline
    /// invariant the N2 analysis pass checks for backend impls).
    #[inline]
    fn touch(&mut self) {
        self.epoch += 1;
    }

    /// The mutation epoch: strictly increased by every mutator
    /// ([`SlotQueue::commit`], [`SlotQueue::remove_comm`],
    /// [`SlotQueue::remove_slot_at`] and the optimal-insertion apply
    /// path), untouched by probes. Cache layers key on this to detect
    /// that committed link state changed.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reset the epoch to a previously observed value — only for
    /// `LinkModel::restore`, whose caller proves (by digest equality)
    /// that the content matches what that epoch described.
    #[inline]
    pub(crate) fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Order-sensitive content digest over the occupied slots (slots
    /// are kept sorted, so equal content yields equal digests). The
    /// gap index, the SoA mirror and the epoch do not participate: all
    /// are acceleration/bookkeeping state, not schedule content.
    pub fn content_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for s in &self.slots {
            h = crate::mix64(h, s.comm.0);
            h = crate::mix64(h, u64::from(s.seq));
            h = crate::mix64(h, s.start.to_bits());
            h = crate::mix64(h, s.end.to_bits());
        }
        h
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The occupied slots in start-time order (the retained reference
    /// layout; the SoA columns mirror it bit for bit).
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Refold the gap index after a deferred mutation burst (the
    /// optimal-insertion shift path). No-op when the index is absent or
    /// already clean; probes on a dirty queue fall back to the
    /// reference scan, so forgetting to call this costs time, never
    /// correctness.
    pub(crate) fn index_refold(&mut self) {
        let n = self.col_end.len();
        if let Some(ix) = &mut self.index {
            if ix.dirty_from != CLEAN {
                let from = ix.dirty_from.min(n);
                ix.refold(&self.col_end, from, false);
            }
        }
    }

    /// Earliest start `>= bound` of an idle interval of length
    /// `duration` (the basic-insertion probe, §3).
    ///
    /// First-fit scan over the gaps between occupied slots; always
    /// succeeds because the horizon past the last slot is free.
    ///
    /// Queues built with [`SlotQueue::with_gap_index`] answer through
    /// the indexed column fast path; the result is bitwise identical to
    /// [`SlotQueue::probe_reference`] either way.
    pub fn probe(&self, bound: f64, duration: f64) -> f64 {
        match &self.index {
            Some(ix) if ix.dirty_from == CLEAN => {
                self.probe_columns(self.live_from(bound), bound, duration)
            }
            // Dirty index (mid optimal-insertion burst) or no index:
            // the reference scan needs no acceleration state.
            _ => self.probe_reference(bound, duration),
        }
    }

    /// Length of the inert prefix for a probe with lower bound
    /// `bound`: every slot before the returned index ends below
    /// `bound - EPS`, so it can neither satisfy the fit test (its start
    /// is below the candidate) nor raise the candidate above `bound`.
    /// `pme` is non-decreasing, so the predicate is partitioned. Found
    /// through the gap index when it is clean and the queue is long
    /// enough to be indexed; 0 (skip nothing) otherwise. Overlay probes
    /// start their merge here too (DESIGN.md §11).
    pub fn live_from(&self, bound: f64) -> usize {
        match &self.index {
            Some(ix) if ix.dirty_from == CLEAN && self.slots.len() >= MIN_INDEXED_LEN => {
                ix.pme.partition_point(|&e| e < bound - EPS)
            }
            _ => 0,
        }
    }

    /// The pre-optimization first-fit probe, kept verbatim as the
    /// differential-testing reference for the indexed fast path.
    pub fn probe_reference(&self, bound: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0);
        let mut candidate = bound;
        for s in &self.slots {
            if approx_le(candidate + duration, s.start) {
                return candidate;
            }
            if s.end > candidate {
                candidate = s.end;
            }
        }
        candidate
    }

    /// The reference fold over the SoA bit-columns starting at `i0` —
    /// branch-light, 16 bytes of cache traffic per slot. Identical
    /// comparison rules as [`SlotQueue::probe_reference`], over columns
    /// that mirror the slots bit for bit, so the result is bitwise
    /// identical by construction.
    fn probe_columns(&self, i0: usize, bound: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0);
        let mut candidate = bound;
        let starts = &self.col_start[i0..];
        let ends = &self.col_end[i0..];
        for (&start, &end) in starts.iter().zip(ends) {
            if approx_le(candidate + duration, start) {
                return candidate;
            }
            if end > candidate {
                candidate = end;
            }
        }
        candidate
    }

    /// Insert a slot `[start, start + duration)` for `comm`.
    ///
    /// # Panics
    /// Panics (in debug and release) if the new slot overlaps an
    /// existing one by more than EPS — callers must only commit starts
    /// obtained from [`SlotQueue::probe`] or the optimal-insertion
    /// engine, so an overlap is a scheduler bug, not an input error.
    pub fn commit(&mut self, comm: CommId, seq: u32, start: f64, duration: f64) {
        let end = start + duration;
        let idx = self.col_start.partition_point(|&s| s < start - EPS);
        if idx > 0 {
            let prev = &self.slots[idx - 1];
            assert!(
                approx_le(prev.end, start),
                "slot overlap: {comm} [{start}, {end}) vs existing {} [{}, {})",
                prev.comm,
                prev.start,
                prev.end
            );
        }
        if idx < self.slots.len() {
            let next = &self.slots[idx];
            assert!(
                approx_le(end, next.start),
                "slot overlap: {comm} [{start}, {end}) vs existing {} [{}, {})",
                next.comm,
                next.start,
                next.end
            );
        }
        self.slots.insert(
            idx,
            Slot {
                comm,
                seq,
                start,
                end,
            },
        );
        self.col_start.insert(idx, start);
        self.col_end.insert(idx, end);
        let id = self.arena.intern(comm);
        self.col_comm.insert(idx, id);
        if let Some(ix) = &mut self.index {
            let was_clean = ix.dirty_from == CLEAN;
            ix.pme.insert(idx, 0.0);
            if self.slots.len() < MIN_INDEXED_LEN {
                // Below the dispatch threshold the index is never
                // consulted: defer the refold (lower the watermark).
                ix.dirty_from = ix.dirty_from.min(idx);
            } else if was_clean {
                ix.refold(&self.col_end, idx, true);
            } else {
                let from = ix.dirty_from.min(idx);
                ix.refold(&self.col_end, from, false);
            }
        }
        self.touch();
    }

    /// Remove every slot belonging to `comm`; returns how many were
    /// removed. Used to roll back tentative insertions during BA's
    /// processor scan. An un-interned comm is an O(log n) miss that
    /// touches no column.
    pub fn remove_comm(&mut self, comm: CommId) -> usize {
        let Some(id) = self.arena.lookup(comm) else {
            self.touch();
            return 0;
        };
        let Some(first) = self.col_comm.iter().position(|&c| c == id) else {
            self.touch();
            return 0;
        };
        let before = self.slots.len();
        // In-place compaction of all four mirrors from the first hit.
        let mut keep = first;
        for i in first..before {
            if self.col_comm[i] != id {
                self.slots[keep] = self.slots[i];
                self.col_start[keep] = self.col_start[i];
                self.col_end[keep] = self.col_end[i];
                self.col_comm[keep] = self.col_comm[i];
                keep += 1;
            }
        }
        self.slots.truncate(keep);
        self.col_start.truncate(keep);
        self.col_end.truncate(keep);
        self.col_comm.truncate(keep);
        if self.slots.is_empty() {
            self.arena.clear();
        }
        if let Some(ix) = &mut self.index {
            ix.pme.truncate(keep);
            let from = ix.dirty_from.min(first).min(keep);
            if keep < MIN_INDEXED_LEN {
                // Short queue: the index is not consulted, defer.
                ix.dirty_from = from;
            } else {
                ix.refold(&self.col_end, from, false);
            }
        }
        self.touch();
        before - keep
    }

    /// Remove the single slot `(comm, seq)` whose recorded start is
    /// `start` (within EPS). Returns whether it was found; callers fall
    /// back to [`SlotQueue::remove_comm`] on a miss. The binary search
    /// makes unscheduling O(log n + tail) instead of a full scan — the
    /// resulting queue is identical either way.
    pub fn remove_slot_at(&mut self, comm: CommId, seq: u32, start: f64) -> bool {
        let mut i = self.col_start.partition_point(|&s| s < start - EPS);
        while i < self.slots.len() && self.col_start[i] <= start + EPS {
            if self.slots[i].comm == comm && self.slots[i].seq == seq {
                self.slots.remove(i);
                self.col_start.remove(i);
                self.col_end.remove(i);
                self.col_comm.remove(i);
                if self.slots.is_empty() {
                    self.arena.clear();
                }
                if let Some(ix) = &mut self.index {
                    let was_clean = ix.dirty_from == CLEAN;
                    ix.pme.remove(i);
                    if self.slots.len() < MIN_INDEXED_LEN {
                        // Short queue: the index is not consulted,
                        // defer the refold.
                        ix.dirty_from = ix.dirty_from.min(i).min(ix.pme.len());
                    } else if was_clean {
                        ix.refold(&self.col_end, i.min(ix.pme.len()), true);
                    } else {
                        let from = ix.dirty_from.min(i).min(ix.pme.len());
                        ix.refold(&self.col_end, from, false);
                    }
                }
                self.touch();
                return true;
            }
            i += 1;
        }
        false
    }

    /// The slot (and its index) occupied by `(comm, seq)`, if present.
    pub fn find(&self, comm: CommId, seq: u32) -> Option<(usize, Slot)> {
        let id = self.arena.lookup(comm)?;
        (0..self.slots.len())
            .find(|&i| self.col_comm[i] == id && self.slots[i].seq == seq)
            .map(|i| (i, self.slots[i]))
    }

    /// Shift slot `idx` right by `delta` (used by optimal insertion).
    ///
    /// The caller is responsible for shifting any following slots that
    /// would now overlap, and for calling [`SlotQueue::index_refold`]
    /// once the burst is applied; [`crate::optimal::optimal_insert`]
    /// does both.
    pub(crate) fn shift_right(&mut self, idx: usize, delta: f64) {
        debug_assert!(delta >= -EPS, "shift must be rightward, got {delta}");
        self.slots[idx].start += delta;
        self.slots[idx].end += delta;
        self.col_start[idx] = self.slots[idx].start;
        self.col_end[idx] = self.slots[idx].end;
        if let Some(ix) = &mut self.index {
            if idx < ix.dirty_from {
                ix.dirty_from = idx;
            }
        }
        self.touch();
    }

    /// Insert a pre-validated slot at position `idx` (optimal
    /// insertion's commit path, which has already established order).
    /// Defers the index refold like [`SlotQueue::shift_right`].
    pub(crate) fn insert_at(&mut self, idx: usize, slot: Slot) {
        self.slots.insert(idx, slot);
        self.col_start.insert(idx, slot.start);
        self.col_end.insert(idx, slot.end);
        let id = self.arena.intern(slot.comm);
        self.col_comm.insert(idx, id);
        if let Some(ix) = &mut self.index {
            ix.pme.insert(idx, 0.0);
            if idx < ix.dirty_from {
                ix.dirty_from = idx;
            }
        }
        self.touch();
    }

    /// Total busy time on the link (sum of slot lengths).
    pub fn busy_time(&self) -> f64 {
        self.slots.iter().map(|s| (s.end - s.start).max(0.0)).sum()
    }

    /// Finish time of the last slot (0 when empty) — the link's current
    /// horizon.
    pub fn horizon(&self) -> f64 {
        self.slots.last().map_or(0.0, |s| s.end)
    }

    /// Internal invariant check: sorted, non-overlapping, SoA mirror in
    /// bitwise agreement with the retained layout, and the gap index
    /// equal to the fold up to its dirty watermark. Exposed so
    /// validators and property tests can assert it.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.slots.windows(2) {
            if !approx_le(w[0].end, w[1].start) {
                return Err(format!(
                    "slots overlap or are unsorted: {} [{}, {}) then {} [{}, {})",
                    w[0].comm, w[0].start, w[0].end, w[1].comm, w[1].start, w[1].end
                ));
            }
        }
        for s in &self.slots {
            if !approx_ge(s.end, s.start) {
                return Err(format!(
                    "slot {} has negative length [{}, {})",
                    s.comm, s.start, s.end
                ));
            }
        }
        let n = self.slots.len();
        if self.col_start.len() != n || self.col_end.len() != n || self.col_comm.len() != n {
            return Err(format!(
                "SoA mirror length drift: {}/{}/{} columns vs {n} slots",
                self.col_start.len(),
                self.col_end.len(),
                self.col_comm.len()
            ));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if self.col_start[i].to_bits() != s.start.to_bits()
                || self.col_end[i].to_bits() != s.end.to_bits()
            {
                return Err(format!("SoA time column drift at {i}"));
            }
            let id = self.col_comm[i] as usize;
            if self.arena.ids.get(id).copied() != Some(s.comm.0) {
                return Err(format!("SoA comm column drift at {i}"));
            }
        }
        if let Some(ix) = &self.index {
            if ix.pme.len() != n {
                return Err(format!(
                    "gap index length drift: {} entries vs {n} slots",
                    ix.pme.len()
                ));
            }
            // Entries below the dirty watermark must equal the fold
            // exactly; entries past it are allowed to be stale until
            // the deferred refold runs.
            let valid = ix.dirty_from.min(n);
            let mut run = f64::NEG_INFINITY;
            for (i, s) in self.slots.iter().take(valid).enumerate() {
                if s.end > run {
                    run = s.end;
                }
                if ix.pme[i].to_bits() != run.to_bits() {
                    return Err(format!(
                        "gap index stale at {i}: {} vs fold {run}",
                        ix.pme[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: u64) -> CommId {
        CommId(n)
    }

    #[test]
    fn probe_on_empty_queue_returns_bound() {
        let q = SlotQueue::new();
        assert_eq!(q.probe(3.0, 2.0), 3.0);
        assert_eq!(q.probe(0.0, 0.0), 0.0);
    }

    #[test]
    fn probe_finds_gap_between_slots() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 0.0, 2.0);
        q.commit(c(2), 0, 5.0, 2.0);
        // Gap [2, 5) fits a 3-unit transfer.
        assert_eq!(q.probe(0.0, 3.0), 2.0);
        // ... but not a 4-unit one; first fit is after the last slot.
        assert_eq!(q.probe(0.0, 4.0), 7.0);
    }

    #[test]
    fn probe_respects_lower_bound() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 0.0, 2.0);
        q.commit(c(2), 0, 5.0, 2.0);
        // Bound 3 shrinks the middle gap to [3, 5): a 2-unit fits,
        assert_eq!(q.probe(3.0, 2.0), 3.0);
        // a 2.5-unit does not.
        assert_eq!(q.probe(3.0, 2.5), 7.0);
    }

    #[test]
    fn probe_bound_inside_slot_skips_to_slot_end() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 0.0, 4.0);
        assert_eq!(q.probe(2.0, 1.0), 4.0);
    }

    #[test]
    fn probe_allows_touching_slots() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 2.0, 2.0);
        // [0,2) touches the slot start: allowed (half-open).
        assert_eq!(q.probe(0.0, 2.0), 0.0);
    }

    #[test]
    fn commit_keeps_sorted_order() {
        let mut q = SlotQueue::new();
        q.commit(c(2), 0, 5.0, 1.0);
        q.commit(c(1), 0, 0.0, 1.0);
        q.commit(c(3), 0, 2.0, 1.0);
        let starts: Vec<f64> = q.slots().iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![0.0, 2.0, 5.0]);
        q.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "slot overlap")]
    fn commit_panics_on_overlap() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 0.0, 3.0);
        q.commit(c(2), 0, 2.0, 2.0);
    }

    #[test]
    fn commit_zero_duration_is_fine() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 1.0, 0.0);
        assert_eq!(q.len(), 1);
        q.check_invariants().unwrap();
    }

    #[test]
    fn remove_comm_rolls_back() {
        let mut q = SlotQueue::new();
        q.commit(c(1), 0, 0.0, 1.0);
        q.commit(c(2), 0, 2.0, 1.0);
        q.commit(c(2), 1, 4.0, 1.0);
        assert_eq!(q.remove_comm(c(2)), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.slots()[0].comm, c(1));
        assert_eq!(q.remove_comm(c(99)), 0);
    }

    #[test]
    fn find_locates_by_comm_and_seq() {
        let mut q = SlotQueue::new();
        q.commit(c(7), 0, 0.0, 1.0);
        q.commit(c(7), 1, 3.0, 1.0);
        let (idx, slot) = q.find(c(7), 1).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(slot.start, 3.0);
        assert!(q.find(c(7), 2).is_none());
        assert!(q.find(c(8), 0).is_none());
    }

    #[test]
    fn busy_time_and_horizon() {
        let mut q = SlotQueue::new();
        assert_eq!(q.horizon(), 0.0);
        q.commit(c(1), 0, 1.0, 2.0);
        q.commit(c(2), 0, 5.0, 0.5);
        assert_eq!(q.busy_time(), 2.5);
        assert_eq!(q.horizon(), 5.5);
    }

    #[test]
    fn indexed_probe_matches_reference_bitwise_under_mutation() {
        let mut naive = SlotQueue::new();
        let mut fast = SlotQueue::with_gap_index();
        assert!(fast.has_gap_index() && !naive.has_gap_index());
        let mut x: u64 = 0xDEAD_BEEF;
        let step = |x: &mut u64| {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x
        };
        for i in 0..300u64 {
            let r = step(&mut x);
            let bound = (r >> 33) as f64 % 80.0;
            let duration = 0.1 + ((r >> 11) % 60) as f64 / 10.0;
            // Probe repeatedly with shifted bounds and cross-check
            // bitwise — repeats push the indexed queue past its
            // probe-count threshold so the fast path (not just the
            // reference bypass) is exercised once the queue is long
            // enough, and the reference-mode probe of the *same* queue
            // rules out state drift.
            for (k, b0) in [bound, bound / 2.0, 0.0, bound + 1.0]
                .into_iter()
                .enumerate()
            {
                let a = naive.probe(b0, duration);
                let b = fast.probe(b0, duration);
                assert_eq!(a.to_bits(), b.to_bits(), "step {i}.{k}: {a} vs {b}");
                assert_eq!(a.to_bits(), fast.probe_reference(b0, duration).to_bits());
            }
            // Mostly insert, sometimes remove a random comm.
            if r % 4 == 0 {
                naive.remove_comm(c(r % 40));
                fast.remove_comm(c(r % 40));
            } else {
                let start = naive.probe(bound, duration);
                naive.commit(c(i % 40), (i / 40) as u32, start, duration);
                fast.commit(c(i % 40), (i / 40) as u32, start, duration);
            }
            naive.check_invariants().unwrap();
            fast.check_invariants().unwrap();
        }
    }

    #[test]
    fn indexed_probe_edge_cases() {
        let mut q = SlotQueue::with_gap_index();
        assert_eq!(q.probe(3.0, 2.0), 3.0, "empty queue returns bound");
        q.commit(c(1), 0, 0.0, 2.0);
        q.commit(c(2), 0, 5.0, 2.0);
        // Same cases as the reference probe tests.
        assert_eq!(q.probe(0.0, 3.0), 2.0);
        assert_eq!(q.probe(0.0, 4.0), 7.0);
        assert_eq!(q.probe(3.0, 2.0), 3.0);
        assert_eq!(q.probe(3.0, 2.5), 7.0);
        assert_eq!(q.probe(6.0, 1.0), 7.0, "bound inside last slot");
        // Clone keeps the index mode and stays consistent.
        let mut q2 = q.clone();
        assert!(q2.has_gap_index());
        q2.commit(c(3), 0, 9.0, 1.0);
        assert_eq!(
            q2.probe(0.0, 4.0).to_bits(),
            q2.probe_reference(0.0, 4.0).to_bits()
        );
    }

    #[test]
    fn long_queue_engages_indexed_path() {
        // Past MIN_INDEXED_LEN slots the indexed body (prefix skip over
        // the pme column) answers — still bitwise equal to the
        // reference scan.
        let mut q = SlotQueue::with_gap_index();
        for i in 0..(MIN_INDEXED_LEN as u64 + 8) {
            // Gaps of width 1 between slots of width 2, one wide gap.
            let start = if i < 20 {
                i as f64 * 3.0
            } else {
                i as f64 * 3.0 + 50.0
            };
            q.commit(c(i), 0, start, 2.0);
        }
        assert!(q.len() >= MIN_INDEXED_LEN);
        for trial in 0..8u32 {
            let bound = f64::from(trial) * 7.0;
            for duration in [0.5, 1.0, 1.5, 2.5, 40.0, 60.0] {
                assert_eq!(
                    q.probe(bound, duration).to_bits(),
                    q.probe_reference(bound, duration).to_bits(),
                    "bound {bound} duration {duration}"
                );
            }
        }
    }

    #[test]
    fn probe_then_commit_round_trip_never_overlaps() {
        // Simulate a busy link with deterministic pseudo-random loads.
        let mut q = SlotQueue::new();
        let mut x: u64 = 12345;
        for i in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bound = (x >> 33) as f64 % 50.0;
            let duration = ((x >> 13) % 70) as f64 / 10.0;
            let start = q.probe(bound, duration);
            q.commit(c(i), 0, start, duration);
            q.check_invariants().unwrap();
        }
        assert_eq!(q.len(), 200);
    }

    #[test]
    fn soa_columns_mirror_slots_bitwise() {
        // Satellite: column invariants — sorted starts, start <= end,
        // columns bitwise equal to the retained layout — under a
        // mixed mutation script. check_invariants() carries the
        // bitwise-mirror assertions; this test drives every mutator.
        let mut q = SlotQueue::with_gap_index();
        for i in 0..40u64 {
            let start = (i % 7) as f64 * 11.0 + (i / 7) as f64;
            let start = q.probe(start, 1.5);
            q.commit(c(i % 6), (i / 6) as u32, start, 1.5);
            q.check_invariants().unwrap();
        }
        for w in q.slots().windows(2) {
            assert!(w[0].start <= w[1].start, "starts unsorted");
        }
        for s in q.slots() {
            assert!(s.start <= s.end, "negative slot");
        }
        // Every removal flavour keeps the mirror intact.
        assert!(q.remove_comm(c(3)) > 0);
        q.check_invariants().unwrap();
        let victim = q.slots()[2];
        assert!(q.remove_slot_at(victim.comm, victim.seq, victim.start));
        q.check_invariants().unwrap();
        // Drain completely: the comm arena resets with the queue.
        for i in 0..6u64 {
            q.remove_comm(c(i));
        }
        assert!(q.is_empty());
        q.check_invariants().unwrap();
        assert_eq!(q.probe(4.0, 1.0), 4.0);
    }

    #[test]
    fn gap_index_consistent_after_unschedule() {
        // Satellite: prefix_max_end stays the exact fold after
        // unschedule (remove_slot_at / remove_comm), including
        // removals of the slot carrying the running maximum.
        let mut q = SlotQueue::with_gap_index();
        // Long slot whose end dominates the prefix maxima, then a tail
        // of short slots.
        q.commit(c(0), 0, 0.0, 30.0);
        for i in 1..(MIN_INDEXED_LEN as u64 + 4) {
            q.commit(c(i), 0, 30.0 + i as f64 * 3.0, 1.0);
        }
        q.check_invariants().unwrap();
        // Removing the dominating slot forces a full refold.
        assert!(q.remove_slot_at(c(0), 0, 0.0));
        q.check_invariants().unwrap();
        for trial in 0..6u32 {
            let bound = f64::from(trial) * 9.0;
            assert_eq!(
                q.probe(bound, 2.0).to_bits(),
                q.probe_reference(bound, 2.0).to_bits()
            );
        }
        // remove_comm in the middle, then probe again.
        assert_eq!(q.remove_comm(c(5)), 1);
        q.check_invariants().unwrap();
        assert_eq!(
            q.probe(0.0, 2.5).to_bits(),
            q.probe_reference(0.0, 2.5).to_bits()
        );
    }

    #[test]
    fn deferred_refold_after_shift_burst() {
        // shift_right/insert_at defer the index; probes stay correct
        // (reference fallback) and index_refold restores the fast path.
        let mut q = SlotQueue::with_gap_index();
        for i in 0..(MIN_INDEXED_LEN as u64 + 2) {
            q.commit(c(i), 0, i as f64 * 4.0, 2.0);
        }
        q.shift_right(3, 1.0);
        q.shift_right(4, 0.5);
        // Dirty: probe answers via the reference scan, bit-identical.
        assert_eq!(
            q.probe(0.0, 3.0).to_bits(),
            q.probe_reference(0.0, 3.0).to_bits()
        );
        q.check_invariants().unwrap();
        q.index_refold();
        q.check_invariants().unwrap();
        for bound in [0.0, 5.0, 13.0, 40.0] {
            assert_eq!(
                q.probe(bound, 2.0).to_bits(),
                q.probe_reference(bound, 2.0).to_bits()
            );
        }
    }

    #[test]
    fn live_from_skips_only_the_inert_prefix() {
        // Slots [4i, 4i + 2): the prefix ending below bound - EPS is
        // inert; short, unindexed and dirty queues skip nothing.
        let mut q = SlotQueue::with_gap_index();
        let mut plain = SlotQueue::new();
        for i in 0..(MIN_INDEXED_LEN as u64 + 4) {
            q.commit(c(i), 0, i as f64 * 4.0, 2.0);
            plain.commit(c(i), 0, i as f64 * 4.0, 2.0);
        }
        assert_eq!(q.live_from(0.0), 0);
        assert_eq!(q.live_from(10.0), 2, "slots ending at 2 and 6 are inert");
        // A slot ending exactly at the bound still counts as live.
        assert_eq!(q.live_from(6.0), 1);
        assert_eq!(q.live_from(1e9), q.len());
        assert_eq!(plain.live_from(10.0), 0);
        q.shift_right(5, 0.5);
        assert_eq!(q.live_from(10.0), 0, "dirty index: skip nothing");
        q.index_refold();
        assert_eq!(q.live_from(10.0), 2);
        let mut short = SlotQueue::with_gap_index();
        short.commit(c(0), 0, 0.0, 1.0);
        assert_eq!(short.live_from(50.0), 0);
    }
}
