//! Decoder-robustness suite for es-wire-v1 (DESIGN.md §13.1).
//!
//! Property 1 — **totality**: for *any* byte string, the frame
//! decoder either returns a typed `WireError` or a valid frame; it
//! never panics and never allocates what a forged length claims.
//!
//! Property 2 — **round-trip**: every frame the encoder can produce
//! decodes back to an equal frame, through both the payload codec and
//! the length-prefixed stream layer.
//!
//! Frames are generated from a seeded RNG (the vendored proptest
//! drives seeds, the frame builder expands them), so every corpus is
//! reproducible from the failing case's printed inputs.

use es_wire::{
    read_frame, read_preamble, write_frame, write_preamble, AlgoId, DriverStats, Frame,
    RejectReason, Request, ScheduleReply, WireComm, WireError, WireFault, WireHop, WireInstance,
    WirePiece, WireSchedule, WireTask,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..20usize);
    (0..len)
        .map(|_| char::from(rng.random_range(32u8..127)))
        .collect()
}

fn arb_request(rng: &mut StdRng) -> Request {
    Request {
        id: rng.random_range(0..u64::MAX),
        deadline_ms: rng.random_range(0..100_000u32),
        tenant: rng.random_range(0..u32::MAX),
        algo: AlgoId::ALL[rng.random_range(0..AlgoId::ALL.len())],
        instance: WireInstance {
            heterogeneous: rng.random_bool(0.5),
            processors: rng.random_range(1..256u32),
            ccr: f64::from_bits(rng.random_range(0..u64::MAX)),
            tasks: if rng.random_bool(0.5) {
                Some(rng.random_range(1..2000u32))
            } else {
                None
            },
            seed: rng.random_range(0..u64::MAX),
        },
        fault: if rng.random_bool(0.3) {
            Some(WireFault {
                intensity: rng.random_range(0.0..1.0),
                kill_proc: rng.random_bool(0.5),
                kill_link: rng.random_bool(0.5),
                seed: rng.random_range(0..u64::MAX),
            })
        } else {
            None
        },
    }
}

fn arb_comm(rng: &mut StdRng) -> WireComm {
    let arb_route = |rng: &mut StdRng| -> Vec<WireHop> {
        (0..rng.random_range(0..4usize))
            .map(|_| WireHop {
                link: rng.random_range(0..64u32),
                from: rng.random_range(0..64u32),
                to: rng.random_range(0..64u32),
            })
            .collect()
    };
    match rng.random_range(0..4u8) {
        0 => WireComm::Local,
        1 => {
            let route = arb_route(rng);
            let times = (0..route.len())
                .map(|_| (rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
                .collect();
            WireComm::Slotted { route, times }
        }
        2 => {
            let route = arb_route(rng);
            let flows = (0..route.len())
                .map(|_| {
                    (0..rng.random_range(0..3usize))
                        .map(|_| WirePiece {
                            start: rng.random_range(0.0..100.0),
                            end: rng.random_range(0.0..100.0),
                            rate: rng.random_range(0.0..1.0),
                        })
                        .collect()
                })
                .collect();
            WireComm::Fluid { route, flows }
        }
        _ => WireComm::Ideal {
            delay: rng.random_range(0.0..100.0),
            arrival: rng.random_range(0.0..100.0),
        },
    }
}

fn arb_schedule(rng: &mut StdRng) -> WireSchedule {
    WireSchedule {
        algorithm: arb_string(rng),
        makespan: f64::from_bits(rng.random_range(0..u64::MAX)),
        tasks: (0..rng.random_range(0..24usize))
            .map(|_| WireTask {
                proc: rng.random_range(0..128u32),
                start: rng.random_range(0.0..1000.0),
                finish: rng.random_range(0.0..1000.0),
            })
            .collect(),
        comms: (0..rng.random_range(0..16usize))
            .map(|_| arb_comm(rng))
            .collect(),
    }
}

/// Expand a seed into one arbitrary frame, covering every frame kind.
fn arb_frame(seed: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed);
    match rng.random_range(0..11u8) {
        0 => Frame::Request(arb_request(&mut rng)),
        1 => Frame::Schedule(ScheduleReply {
            id: rng.random_range(0..u64::MAX),
            attempts: rng.random_range(1..8u32),
            schedule: arb_schedule(&mut rng),
        }),
        2 => Frame::Overloaded {
            id: rng.random_range(0..u64::MAX),
            queue_len: rng.random_range(0..4096u32),
        },
        3 => {
            let reason = match rng.random_range(0..6u8) {
                0 => RejectReason::DeadlineExceeded,
                1 => RejectReason::RetriesExhausted {
                    detail: arb_string(&mut rng),
                },
                2 => RejectReason::Scheduler {
                    detail: arb_string(&mut rng),
                },
                3 => RejectReason::BadRequest {
                    detail: arb_string(&mut rng),
                },
                4 => RejectReason::ShuttingDown,
                _ => RejectReason::WorkerPanic {
                    detail: arb_string(&mut rng),
                },
            };
            Frame::Reject {
                id: rng.random_range(0..u64::MAX),
                reason,
            }
        }
        4 => Frame::Ping {
            nonce: rng.random_range(0..u64::MAX),
        },
        5 => Frame::Pong {
            nonce: rng.random_range(0..u64::MAX),
        },
        6 => Frame::Stall {
            millis: rng.random_range(0..10_000u64),
        },
        7 => Frame::Shutdown,
        8 => Frame::Diagnostics {
            id: rng.random_range(0..u64::MAX),
            report_json: arb_string(&mut rng),
        },
        9 => Frame::StatsRequest,
        _ => Frame::Stats(DriverStats {
            admitted: rng.random_range(0..u64::MAX),
            completed: rng.random_range(0..u64::MAX),
            shed: rng.random_range(0..u64::MAX),
            deadline_rejected: rng.random_range(0..u64::MAX),
            rejected: rng.random_range(0..u64::MAX),
            retries: rng.random_range(0..u64::MAX),
            worker_kills: rng.random_range(0..u64::MAX),
            worker_respawns: rng.random_range(0..u64::MAX),
            chaos_kills: rng.random_range(0..u64::MAX),
            chaos_stalls: rng.random_range(0..u64::MAX),
            queue_len: rng.random_range(0..u32::MAX),
            workers_alive: rng.random_range(0..64u32),
            inflight: rng.random_range(0..4096u32),
            shed_by_tenant: {
                let n = rng.random_range(0..5usize);
                (0..n)
                    .map(|_| (rng.random_range(0..64u32), rng.random_range(0..u64::MAX)))
                    .collect()
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip: payload codec.
    #[test]
    fn frame_payload_roundtrips(seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        let payload = frame.encode();
        let back = Frame::decode(&payload).expect("own encoding decodes");
        prop_assert_eq!(back, frame);
    }

    /// Round-trip: stream layer (preamble + several frames).
    #[test]
    fn stream_roundtrips(seed in 0u64..u64::MAX, count in 1usize..5) {
        let frames: Vec<Frame> = (0..count as u64)
            .map(|i| arb_frame(seed.wrapping_add(i)))
            .collect();
        let mut buf = Vec::new();
        write_preamble(&mut buf).expect("vec write");
        for f in &frames {
            write_frame(&mut buf, f).expect("vec write");
        }
        let mut cur = std::io::Cursor::new(buf);
        read_preamble(&mut cur).expect("own preamble");
        for f in &frames {
            prop_assert_eq!(read_frame(&mut cur).expect("own frame"), Some(f.clone()));
        }
        prop_assert_eq!(read_frame(&mut cur).expect("clean eof"), None);
    }

    /// Every strict prefix of an encoded stream is a typed truncation
    /// error (or a clean EOF exactly at a frame boundary) — never a
    /// panic, never a wrong frame.
    #[test]
    fn truncation_never_panics(seed in 0u64..u64::MAX, cut_seed in 0u64..u64::MAX) {
        let frame = arb_frame(seed);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        let cut = (cut_seed as usize) % buf.len();
        let mut cur = std::io::Cursor::new(&buf[..cut]);
        match read_frame(&mut cur) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a strict prefix"),
            Err(_) => {} // typed error: exactly what truncation must produce
        }
    }

    /// Flipping any single byte never panics; if it still decodes, the
    /// stream layer stayed self-consistent (flips inside the payload
    /// may legitimately produce a different valid frame).
    #[test]
    fn single_byte_flips_never_panic(seed in 0u64..u64::MAX, pos_seed in 0u64..u64::MAX, bit in 0u8..8) {
        let frame = arb_frame(seed);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("vec write");
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let mut cur = std::io::Cursor::new(buf);
        // Must return, with either verdict; the property is totality.
        let _ = read_frame(&mut cur);
    }

    /// Random garbage payloads decode totally (typed error or valid
    /// frame, never a panic).
    #[test]
    fn garbage_payloads_never_panic(seed in 0u64..u64::MAX, len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
        let _ = Frame::decode(&payload);
    }

    /// Forged length prefixes are rejected before allocation: a header
    /// claiming up to `u32::MAX` bytes with no payload behind it must
    /// produce `FrameTooLarge` or `Truncated`, and return fast.
    #[test]
    fn forged_length_prefixes_rejected(claim in 0u32..u32::MAX) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&claim.to_le_bytes());
        let mut cur = std::io::Cursor::new(buf);
        match read_frame(&mut cur) {
            Err(WireError::FrameTooLarge { len }) => {
                prop_assert!(len > es_wire::MAX_FRAME_LEN);
            }
            Err(WireError::Truncated { .. }) => {}
            Err(WireError::EmptyFrame) => prop_assert_eq!(claim, 0),
            other => prop_assert!(false, "unexpected verdict: {:?}", other),
        }
    }

    /// Forged collection counts inside a frame are rejected before
    /// allocation. Builds a Schedule frame whose task-count field
    /// claims up to `u32::MAX` entries with only a few bytes behind
    /// it; the decoder must answer with `LengthOverflow`, not an
    /// allocation attempt.
    #[test]
    fn forged_vec_counts_rejected(claim in 1u32..u32::MAX) {
        let mut payload = Vec::new();
        payload.push(2u8); // Schedule frame tag
        payload.extend_from_slice(&7u64.to_le_bytes()); // id
        payload.extend_from_slice(&1u32.to_le_bytes()); // attempts
        payload.extend_from_slice(&0u32.to_le_bytes()); // algorithm: empty string
        payload.extend_from_slice(&0f64.to_bits().to_le_bytes()); // makespan
        payload.extend_from_slice(&claim.to_le_bytes()); // forged task count
        payload.extend_from_slice(&[0u8; 8]); // far fewer bytes than claimed
        match Frame::decode(&payload) {
            Err(WireError::LengthOverflow { what, claimed, .. }) => {
                prop_assert_eq!(what, "schedule.tasks");
                prop_assert_eq!(claimed, claim as usize);
            }
            other => prop_assert!(false, "unexpected verdict: {:?}", other),
        }
    }
}
