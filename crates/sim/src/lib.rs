//! # es-sim — experiment harness reproducing the paper's evaluation
//!
//! §6 of Han & Wang evaluates OIHSA and BBSA against BA on randomly
//! generated instances, reporting the **percentage improvement in
//! makespan over BA** along two axes (CCR and processor count) in two
//! speed regimes (homogeneous / heterogeneous) — Figures 1–4. This
//! crate is the machinery that regenerates those figures:
//!
//! * [`stats`] — means, standard deviations, confidence intervals and
//!   the improvement ratio;
//! * [`experiment`] — cell and figure definitions, execution, and the
//!   text tables the CLI prints;
//! * [`robustness`] — a fault-injection sweep (intensity × scheduler)
//!   measuring degradation under perturbed execution and the success
//!   rate / cost of failure-aware schedule repair;
//! * [`online`] — the online multi-DAG sweep (arrival rate ×
//!   scheduler × backend → per-tenant SLO and fairness tables,
//!   optionally composed with the fault model for a "production day"
//!   scenario);
//! * [`service`] — deterministic request-mix generation for the
//!   es-serve driver's load generator and chaos harness (DESIGN.md
//!   §13).
//!
//! A full paper sweep is thousands of independent scheduling runs; the
//! modules fan them out with [`es_runner::parallel_map`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod experiment;
pub mod online;
pub mod report;
pub mod robustness;
pub mod service;
pub mod stats;

pub use backends::{compare_backends, BackendCompareSpec, BackendRow};
pub use experiment::{
    fig1, fig2, fig3, fig4, fig_pair, run_cell, run_cell_adaptive, CellResult, CellSpec,
    FigureParams, FigureResult,
};
pub use online::{
    run_online_cell, run_online_sweep, OnlineCell, OnlineSweepSpec, ONLINE_SCHEDULERS,
};
pub use robustness::{
    run_robustness, run_robustness_backend, RobustnessCell, RobustnessSpec, ROBUSTNESS_SCHEDULERS,
};
pub use service::{ServiceMix, ServiceRequest, SERVICE_ALGOS};
pub use stats::{improvement_percent, Summary};
