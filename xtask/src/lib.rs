//! Workspace task-runner library: the static-analysis engine
//! (`analyze`), the perf harness (`bench`), and their shared
//! infrastructure. The `xtask` binary (`src/main.rs`) is a thin
//! dispatcher over these modules; the integration tests under
//! `tests/` drive the passes directly through this library.
//!
//! Analysis stack, bottom up:
//!
//! * [`lexer`] — minimal Rust token scanner;
//! * [`parser`] — lightweight syntax layer (items, fn bodies, call
//!   sites, `unsafe` surface);
//! * [`passes`] — the syntax-aware passes N1, N2, N4 and N5 over a parsed
//!   workspace [`passes::Model`];
//! * [`report`] — finding codes, the suppression file, and the
//!   `es-analyze-v1` JSON report;
//! * [`analyze`] — orchestrator: token lints L1–L5 + N1, N2, N4, N5 + the
//!   optional runtime determinism audit ([`determinism`]).

pub mod analyze;
pub mod bench;
pub mod determinism;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
