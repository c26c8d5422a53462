//! Conversions between the wire mirror types and the real workspace
//! types (`es_core`, `es_net`, `es_linksched`, `es_workload`).
//!
//! Schedules cross the boundary losslessly: every float travels as
//! its bit pattern, so `WireSchedule::from_schedule(s).to_schedule()`
//! reproduces `s` field by field and bit by bit. That makes "encode
//! both and compare the byte strings" a faithful implementation of
//! the chaos invariant's bitwise-identity check.

use crate::codec::WireError;
use crate::frame::{AlgoId, WireComm, WireHop, WireInstance, WirePiece, WireSchedule, WireTask};
use es_core::schedule::{CommPlacement, Schedule, TaskPlacement};
use es_core::{BbsaScheduler, ListScheduler, Scheduler};
use es_linksched::{Flow, Piece};
use es_net::{Hop, LinkId, NodeId, ProcId};
use es_workload::{InstanceConfig, Setting};

impl AlgoId {
    /// Build the preset this id names, with the default tuning.
    pub fn build(self) -> Box<dyn Scheduler + Send + Sync> {
        match self {
            AlgoId::BaStatic => Box::new(ListScheduler::ba_static()),
            AlgoId::Ba => Box::new(ListScheduler::ba()),
            AlgoId::Oihsa => Box::new(ListScheduler::oihsa()),
            AlgoId::OihsaProbing => Box::new(ListScheduler::oihsa_probing()),
            AlgoId::Bbsa => Box::new(BbsaScheduler::new()),
        }
    }
}

impl WireInstance {
    /// Wire form of an [`InstanceConfig`].
    pub fn from_config(cfg: &InstanceConfig) -> Self {
        Self {
            heterogeneous: matches!(cfg.setting, Setting::Heterogeneous),
            processors: u32::try_from(cfg.processors).expect("processor count fits u32"),
            ccr: cfg.ccr,
            tasks: cfg
                .tasks
                .map(|t| u32::try_from(t).expect("task count fits u32")),
            seed: cfg.seed,
        }
    }

    /// The generator coordinates this wire form names.
    pub fn to_config(self) -> InstanceConfig {
        InstanceConfig {
            setting: if self.heterogeneous {
                Setting::Heterogeneous
            } else {
                Setting::Homogeneous
            },
            processors: self.processors as usize,
            ccr: self.ccr,
            tasks: self.tasks.map(|t| t as usize),
            seed: self.seed,
        }
    }
}

fn hop_to_wire(h: &Hop) -> WireHop {
    WireHop {
        link: h.link.0,
        from: h.from.0,
        to: h.to.0,
    }
}

fn hop_from_wire(h: WireHop) -> Hop {
    Hop {
        link: LinkId(h.link),
        from: NodeId(h.from),
        to: NodeId(h.to),
    }
}

/// Resolve a wire algorithm name to the `&'static str` the workspace
/// schedulers use, so a decoded [`Schedule`] carries the same literal
/// a locally computed one would — without leaking per-decode.
fn static_algorithm_name(name: &str) -> Result<&'static str, WireError> {
    const KNOWN: [&str; 7] = [
        "BA",
        "BA-static",
        "OIHSA",
        "OIHSA-probe",
        "BBSA",
        "BBSA-probe",
        "IDEAL",
    ];
    KNOWN
        .into_iter()
        .find(|k| *k == name)
        .ok_or_else(|| WireError::BadValue {
            what: "schedule.algorithm",
            detail: format!("unknown algorithm name `{name}`"),
        })
}

impl WireSchedule {
    /// Wire form of a [`Schedule`], floats bit-exact.
    pub fn from_schedule(s: &Schedule) -> Self {
        let tasks = s
            .tasks
            .iter()
            .map(|t| WireTask {
                proc: t.proc.0,
                start: t.start,
                finish: t.finish,
            })
            .collect();
        let comms = s
            .comms
            .iter()
            .map(|c| match c {
                CommPlacement::Local => WireComm::Local,
                CommPlacement::Slotted { route, times } => WireComm::Slotted {
                    route: route.iter().map(hop_to_wire).collect(),
                    times: times.clone(),
                },
                CommPlacement::Fluid { route, flows } => WireComm::Fluid {
                    route: route.iter().map(hop_to_wire).collect(),
                    flows: flows
                        .iter()
                        .map(|f| {
                            f.pieces
                                .iter()
                                .map(|p| WirePiece {
                                    start: p.start,
                                    end: p.end,
                                    rate: p.rate,
                                })
                                .collect()
                        })
                        .collect(),
                },
                CommPlacement::Ideal { delay, arrival } => WireComm::Ideal {
                    delay: *delay,
                    arrival: *arrival,
                },
            })
            .collect();
        Self {
            algorithm: s.algorithm.to_string(),
            makespan: s.makespan,
            tasks,
            comms,
        }
    }

    /// Reconstruct the [`Schedule`] this wire form names. Fails only
    /// when the algorithm name is not one of the workspace's known
    /// scheduler/report names.
    pub fn to_schedule(&self) -> Result<Schedule, WireError> {
        let algorithm = static_algorithm_name(&self.algorithm)?;
        let tasks = self
            .tasks
            .iter()
            .map(|t| TaskPlacement {
                proc: ProcId(t.proc),
                start: t.start,
                finish: t.finish,
            })
            .collect();
        let comms = self
            .comms
            .iter()
            .map(|c| match c {
                WireComm::Local => CommPlacement::Local,
                WireComm::Slotted { route, times } => CommPlacement::Slotted {
                    route: route.iter().copied().map(hop_from_wire).collect(),
                    times: times.clone(),
                },
                WireComm::Fluid { route, flows } => CommPlacement::Fluid {
                    route: route.iter().copied().map(hop_from_wire).collect(),
                    flows: flows
                        .iter()
                        .map(|pieces| Flow {
                            pieces: pieces
                                .iter()
                                .map(|p| Piece {
                                    start: p.start,
                                    end: p.end,
                                    rate: p.rate,
                                })
                                .collect(),
                        })
                        .collect(),
                },
                WireComm::Ideal { delay, arrival } => CommPlacement::Ideal {
                    delay: *delay,
                    arrival: *arrival,
                },
            })
            .collect();
        Ok(Schedule {
            algorithm,
            tasks,
            comms,
            makespan: self.makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_workload::generate;

    fn sample_config() -> InstanceConfig {
        InstanceConfig::paper(Setting::Heterogeneous, 6, 2.0, 7).with_tasks(30)
    }

    #[test]
    fn instance_config_roundtrips() {
        let cfg = sample_config();
        assert_eq!(WireInstance::from_config(&cfg).to_config(), cfg);
        let hom = InstanceConfig::paper(Setting::Homogeneous, 4, 0.5, 1);
        assert_eq!(WireInstance::from_config(&hom).to_config(), hom);
    }

    #[test]
    fn real_schedules_roundtrip_bitwise() {
        let inst = generate(&sample_config());
        for algo in AlgoId::ALL {
            let sched = algo
                .build()
                .schedule(&inst.dag, &inst.topo)
                .expect("connected WAN");
            let wire = WireSchedule::from_schedule(&sched);
            let back = wire.to_schedule().expect("known algorithm");
            assert_eq!(back.algorithm, sched.algorithm);
            assert_eq!(back.makespan.to_bits(), sched.makespan.to_bits());
            assert_eq!(back.tasks.len(), sched.tasks.len());
            for (a, b) in back.tasks.iter().zip(&sched.tasks) {
                assert_eq!(a.proc, b.proc);
                assert_eq!(a.start.to_bits(), b.start.to_bits());
                assert_eq!(a.finish.to_bits(), b.finish.to_bits());
            }
            assert_eq!(back.comms, sched.comms);
            // And the encoded byte strings are stable across the trip.
            let re = WireSchedule::from_schedule(&back);
            assert_eq!(re, wire);
        }
    }

    #[test]
    fn unknown_algorithm_name_is_rejected() {
        let w = WireSchedule {
            algorithm: "QUANTUM-2000".into(),
            makespan: 0.0,
            tasks: vec![],
            comms: vec![],
        };
        assert!(matches!(
            w.to_schedule(),
            Err(WireError::BadValue {
                what: "schedule.algorithm",
                ..
            })
        ));
    }

    #[test]
    fn builders_name_their_algorithms() {
        let inst = generate(&sample_config());
        let s = AlgoId::Bbsa
            .build()
            .schedule(&inst.dag, &inst.topo)
            .unwrap();
        assert_eq!(s.algorithm, "BBSA");
        let s = AlgoId::BaStatic
            .build()
            .schedule(&inst.dag, &inst.topo)
            .unwrap();
        assert_eq!(s.algorithm, "BA-static");
    }
}
