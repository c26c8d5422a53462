//! # es-wire — the es-serve driver/worker wire format (es-wire-v1)
//!
//! A compact, versioned, binary protocol carrying scheduling requests
//! (algorithm + instance spec), schedules, diagnostics, heartbeats and
//! service-control frames between the es-serve driver, its worker
//! processes and its clients (DESIGN.md §13).
//!
//! Design points:
//!
//! * **std-only.** Hand-rolled little-endian encoding; no serde, no
//!   external dependencies — the format is fully specified by this
//!   crate's source and the DESIGN.md §13.1 table.
//! * **Length-prefixed frames.** Streams begin with a magic+version
//!   preamble; each frame is a `u32` payload length plus a tagged
//!   payload, so a reader can never desynchronize silently.
//! * **Strict, total decoder.** Corrupt input — truncated frames,
//!   flipped bytes, forged length prefixes, unknown tags — yields a
//!   typed [`WireError`], never a panic and never an OOM-scale
//!   allocation (collection lengths are validated against the bytes
//!   actually present *before* allocating).
//! * **Bit-exact floats.** Times travel as IEEE-754 bit patterns, so
//!   a schedule computed on a worker and decoded by a client is
//!   bitwise-identical to a locally computed one — the property the
//!   chaos invariant measures.
//! * **Spec-form instances.** Requests carry the deterministic
//!   generator coordinates ([`WireInstance`] ≅
//!   `es_workload::InstanceConfig`), not expanded DAGs: tens of bytes
//!   per request, and the worker's regeneration is seeded and
//!   bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod convert;
pub mod frame;

pub use codec::{ByteReader, ByteWriter, WireError, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use frame::{
    read_frame, read_preamble, write_frame, write_preamble, AlgoId, DriverStats, Frame,
    RejectReason, Request, ScheduleReply, WireComm, WireFault, WireHop, WireInstance, WirePiece,
    WireSchedule, WireTask,
};

// The driver moves these across threads and worker boundaries; keep
// them provably thread-clean at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Frame>();
    assert_send_sync::<Request>();
    assert_send_sync::<WireSchedule>();
    assert_send_sync::<DriverStats>();
    assert_send_sync::<WireError>();
};
