//! # es-linksched — link schedules for contention-aware edge scheduling
//!
//! The defining idea of the Sinnen–Sousa model that Han & Wang build on
//! is that **communication edges are scheduled on network links** just
//! like tasks on processors. This crate owns the three link-level
//! resource managers the paper's algorithms need:
//!
//! * [`slot::SlotQueue`] — a non-preemptive queue of occupied time
//!   slots per link, with the *basic insertion* (first-fit idle
//!   interval) probe/commit used by Sinnen's BA (§3 of the paper);
//! * [`optimal`] — OIHSA's *optimal insertion* engine (§4.4): scans the
//!   slot queue tail→head with the `accum` recurrence (formula (2)),
//!   finds the earliest feasible insertion point allowing
//!   already-scheduled slots to be **deferred** within their link-
//!   causality slack (Lemma 2), and applies the resulting slot shifts
//!   (Theorem 1 proves the found position optimal);
//! * [`bandwidth`] — BBSA's rate-shareable link profiles (§5): an edge
//!   transfer is a fluid flow of (interval × bandwidth-fraction) pieces;
//!   forwarding on the next route link is capped by the arrival rate
//!   (formula (4) / Theorems 3–4), implemented as a cumulative-flow
//!   greedy sweep that reduces to the paper's piecewise formulas.
//!
//! The crate is deliberately independent of the task-graph layer: link
//! occupants are identified by opaque [`CommId`]s that the scheduler
//! maps to DAG edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod model;
pub mod optimal;
pub mod overlay;
pub mod saf;
pub mod slot;
pub mod time;

pub use bandwidth::{ArrivalCurve, Flow, Piece, RateProfile};
pub use model::{LinkCheckpoint, LinkModel, Reservation};
pub use optimal::{optimal_insert, OptimalPlacement, SlotShift};
pub use overlay::SlotQueueOverlay;
pub use saf::SafLink;
pub use slot::{Slot, SlotQueue};
pub use time::{approx_eq, approx_ge, approx_gt, approx_le, approx_lt, Interval, EPS};

/// SplitMix64-style hash step shared by the backend content digests.
/// Order-sensitive fold: `h' = mix64(h, value)`.
pub(crate) fn mix64(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

use std::fmt;

/// Opaque identifier of one edge communication occupying link
/// resources. Schedulers map DAG edges to `CommId`s (one per scheduled
/// edge instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub u64);

impl fmt::Debug for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
