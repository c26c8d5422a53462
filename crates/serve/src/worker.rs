//! The worker process: a thin, stateless wrapper over `es_core`
//! scheduling (+ fault-injected repair) speaking es-wire-v1 on
//! stdin/stdout (DESIGN.md §13.3).
//!
//! A worker holds **no state between requests** — each request
//! carries deterministic generator coordinates, so any worker, on any
//! attempt, after any number of respawns, computes the same bits.
//! That is the whole determinism-under-chaos argument: the driver may
//! kill and retry freely because attempts are interchangeable.
//!
//! The bench's single-process reference runs [`compute_reply`]
//! directly — the *same function* the worker runs — so a bitwise
//! mismatch can only come from transport or supervision, never from a
//! diverging reference implementation.

use es_core::{repair, FaultPlan, FaultSpec};
use es_wire::{
    read_frame, read_preamble, write_frame, write_preamble, Frame, RejectReason, Request,
    ScheduleReply, WireError, WireSchedule,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compute the schedule a request asks for: regenerate the instance
/// from its spec, run the named scheduler, and — when the request
/// carries a fault leg — overlay the seeded fault plan and repair.
/// Every step is deterministic in the request's own fields.
pub fn compute_schedule(req: &Request) -> Result<WireSchedule, RejectReason> {
    let cfg = req.instance.to_config();
    if cfg.processors == 0 {
        return Err(RejectReason::BadRequest {
            detail: "instance has zero processors".to_string(),
        });
    }
    let inst = es_workload::generate(&cfg);
    let scheduler = req.algo.build();
    let schedule =
        scheduler
            .schedule(&inst.dag, &inst.topo)
            .map_err(|e| RejectReason::Scheduler {
                detail: e.to_string(),
            })?;
    let final_schedule = match &req.fault {
        None => schedule,
        Some(f) => {
            let spec = FaultSpec {
                intensity: f.intensity,
                horizon: schedule.makespan,
                kill_proc: f.kill_proc,
                kill_link: f.kill_link,
            };
            let plan = FaultPlan::seeded(&inst.dag, &inst.topo, &spec, f.seed);
            repair(&inst.dag, &inst.topo, &schedule, &plan)
                .map(|outcome| outcome.schedule)
                .map_err(|e| RejectReason::Scheduler {
                    detail: format!("repair failed: {e}"),
                })?
        }
    };
    Ok(WireSchedule::from_schedule(&final_schedule))
}

/// [`compute_schedule`] with panic isolation, shaped as the reply
/// frame the driver expects: `Schedule` on success, `Reject`
/// otherwise. A panicking scheduler becomes a typed
/// [`RejectReason::WorkerPanic`] — the worker survives to serve the
/// next request, and the driver decides whether to retry.
pub fn compute_reply(req: &Request) -> Frame {
    let id = req.id;
    match catch_unwind(AssertUnwindSafe(|| compute_schedule(req))) {
        Ok(Ok(schedule)) => Frame::Schedule(ScheduleReply {
            id,
            attempts: 0, // the driver fills in its own attempt count
            schedule,
        }),
        Ok(Err(reason)) => Frame::Reject { id, reason },
        Err(payload) => Frame::Reject {
            id,
            reason: RejectReason::WorkerPanic {
                detail: panic_text(payload.as_ref()),
            },
        },
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The worker main loop over arbitrary transport (stdin/stdout in
/// production; in-memory pipes in tests). Answers `Ping` with `Pong`,
/// serves `Request`s via [`compute_reply`], honors `Stall` (the chaos
/// harness's wedge simulation) by sleeping, and exits cleanly on
/// `Shutdown` or end-of-stream.
pub fn serve_streams<R: Read, W: Write>(input: R, output: W) -> Result<(), WireError> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    write_preamble(&mut output)?;
    output.flush()?;
    read_preamble(&mut input)?;
    while let Some(frame) = read_frame(&mut input)? {
        match frame {
            Frame::Ping { nonce } => write_frame(&mut output, &Frame::Pong { nonce })?,
            Frame::Stall { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Frame::Request(req) => write_frame(&mut output, &compute_reply(&req))?,
            Frame::Shutdown => break,
            // Anything else is not addressed to a worker; ignore it
            // rather than dying mid-burst.
            _ => {}
        }
    }
    Ok(())
}

/// Entry point for the `worker` subcommand: serve stdin/stdout until
/// shutdown or EOF. The unlocked handles are fine here — the worker
/// is single-threaded and [`serve_streams`] adds its own buffering.
pub fn run_worker() -> Result<(), WireError> {
    serve_streams(std::io::stdin(), std::io::stdout())
}

#[cfg(test)]
mod tests {
    use super::*;
    use es_wire::{AlgoId, WireFault, WireInstance};

    fn sample_request(id: u64, algo: AlgoId, fault: Option<WireFault>) -> Request {
        Request {
            id,
            deadline_ms: 0,
            tenant: 0,
            algo,
            instance: WireInstance {
                heterogeneous: true,
                processors: 4,
                ccr: 1.0,
                tasks: Some(25),
                seed: 0xC0FFEE,
            },
            fault,
        }
    }

    #[test]
    fn compute_is_deterministic_across_calls() {
        for algo in AlgoId::ALL {
            let req = sample_request(1, algo, None);
            let a = compute_schedule(&req).expect("schedulable");
            let b = compute_schedule(&req).expect("schedulable");
            assert_eq!(a, b, "{algo:?} not reproducible");
        }
    }

    #[test]
    fn fault_leg_repairs_deterministically() {
        let fault = WireFault {
            intensity: 0.4,
            kill_proc: true,
            kill_link: true,
            seed: 77,
        };
        let req = sample_request(2, AlgoId::Oihsa, Some(fault));
        let a = compute_schedule(&req).expect("repairable");
        let b = compute_schedule(&req).expect("repairable");
        assert_eq!(a, b);
        // The fault leg actually changes the answer.
        let clean = compute_schedule(&sample_request(2, AlgoId::Oihsa, None)).expect("ok");
        assert_ne!(a, clean, "fault leg was a no-op");
    }

    #[test]
    fn bad_request_is_a_typed_reject() {
        let mut req = sample_request(3, AlgoId::Ba, None);
        req.instance.processors = 0;
        match compute_reply(&req) {
            Frame::Reject {
                id: 3,
                reason: RejectReason::BadRequest { .. },
            } => {}
            other => panic!("expected BadRequest reject, got {other:?}"),
        }
    }

    #[test]
    fn serve_streams_answers_pings_and_requests() {
        // Drive a worker loop through in-memory pipes.
        let mut input = Vec::new();
        write_preamble(&mut input).expect("vec");
        write_frame(&mut input, &Frame::Ping { nonce: 9 }).expect("vec");
        let req = sample_request(5, AlgoId::BaStatic, None);
        write_frame(&mut input, &Frame::Request(req.clone())).expect("vec");
        write_frame(&mut input, &Frame::Shutdown).expect("vec");

        let mut output = Vec::new();
        serve_streams(input.as_slice(), &mut output).expect("clean run");

        let mut cur = std::io::Cursor::new(output);
        read_preamble(&mut cur).expect("preamble");
        assert_eq!(
            read_frame(&mut cur).expect("pong"),
            Some(Frame::Pong { nonce: 9 })
        );
        match read_frame(&mut cur).expect("reply") {
            Some(Frame::Schedule(reply)) => {
                assert_eq!(reply.id, 5);
                assert_eq!(reply.schedule, compute_schedule(&req).expect("ok"));
            }
            other => panic!("expected schedule, got {other:?}"),
        }
        assert_eq!(read_frame(&mut cur).expect("eof"), None);
    }
}
