//! es-wire-v1 frames: the request/reply vocabulary of the es-serve
//! driver, its workers, and its clients.
//!
//! A stream begins with an 8-byte preamble — [`MAGIC`] plus the
//! little-endian [`PROTOCOL_VERSION`] — written by whichever side
//! speaks first on that direction. Every subsequent frame is a
//! 4-byte little-endian payload length followed by the payload; the
//! payload's first byte is the frame tag. Length prefixes above
//! [`MAX_FRAME_LEN`] are rejected before allocation.

use crate::codec::{ByteReader, ByteWriter, WireError, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
use std::io::{Read, Write};

/// Which scheduling algorithm a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoId {
    /// The paper's contention-blind BA baseline (`ListScheduler::ba_static`).
    BaStatic,
    /// Sinnen's probing BA (`ListScheduler::ba`).
    Ba,
    /// The paper's OIHSA (`ListScheduler::oihsa`).
    Oihsa,
    /// OIHSA with the earliest-finish probe (`ListScheduler::oihsa_probing`).
    OihsaProbing,
    /// The paper's BBSA fluid-bandwidth scheduler (`BbsaScheduler::new`).
    Bbsa,
}

impl AlgoId {
    /// All request-able algorithms, in tag order.
    pub const ALL: [AlgoId; 5] = [
        AlgoId::BaStatic,
        AlgoId::Ba,
        AlgoId::Oihsa,
        AlgoId::OihsaProbing,
        AlgoId::Bbsa,
    ];

    fn tag(self) -> u8 {
        match self {
            AlgoId::BaStatic => 0,
            AlgoId::Ba => 1,
            AlgoId::Oihsa => 2,
            AlgoId::OihsaProbing => 3,
            AlgoId::Bbsa => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => AlgoId::BaStatic,
            1 => AlgoId::Ba,
            2 => AlgoId::Oihsa,
            3 => AlgoId::OihsaProbing,
            4 => AlgoId::Bbsa,
            _ => {
                return Err(WireError::UnknownEnumTag {
                    what: "AlgoId",
                    tag,
                })
            }
        })
    }

    /// The algorithm's canonical CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoId::BaStatic => "ba-static",
            AlgoId::Ba => "ba",
            AlgoId::Oihsa => "oihsa",
            AlgoId::OihsaProbing => "oihsa-probe",
            AlgoId::Bbsa => "bbsa",
        }
    }

    /// Parse a CLI name (the inverse of [`AlgoId::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        AlgoId::ALL.into_iter().find(|a| a.name() == s)
    }
}

/// A workload instance in spec form: the deterministic generator
/// coordinates, not the expanded DAG/topology. Workers regenerate the
/// instance with `es_workload::generate`, which is seeded and
/// bit-reproducible — this is what keeps request frames tens of bytes
/// instead of megabytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireInstance {
    /// 0 = homogeneous speeds, 1 = heterogeneous (`U(1,10)`).
    pub heterogeneous: bool,
    /// Processor count.
    pub processors: u32,
    /// Target communication-to-computation ratio.
    pub ccr: f64,
    /// Fixed task count; `None` draws the paper's `U(40, 1000)`.
    pub tasks: Option<u32>,
    /// Instance seed.
    pub seed: u64,
}

impl WireInstance {
    fn put(self, w: &mut ByteWriter) {
        w.put_bool(self.heterogeneous);
        w.put_u32(self.processors);
        w.put_f64(self.ccr);
        match self.tasks {
            None => w.put_u8(0),
            Some(t) => {
                w.put_u8(1);
                w.put_u32(t);
            }
        }
        w.put_u64(self.seed);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let heterogeneous = r.get_bool("instance.heterogeneous")?;
        let processors = r.get_u32()?;
        let ccr = r.get_f64()?;
        let tasks = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u32()?),
            tag => {
                return Err(WireError::UnknownEnumTag {
                    what: "instance.tasks option",
                    tag,
                })
            }
        };
        let seed = r.get_u64()?;
        Ok(Self {
            heterogeneous,
            processors,
            ccr,
            tasks,
            seed,
        })
    }
}

/// Optional fault-and-repair leg of a request: the worker replays the
/// schedule under a seeded PR 2 fault plan with hard failures and
/// returns the repaired schedule instead of the original.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireFault {
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Kill one processor mid-horizon.
    pub kill_proc: bool,
    /// Kill one link mid-horizon.
    pub kill_link: bool,
    /// Fault-plan seed.
    pub seed: u64,
}

impl WireFault {
    fn put(self, w: &mut ByteWriter) {
        w.put_f64(self.intensity);
        w.put_bool(self.kill_proc);
        w.put_bool(self.kill_link);
        w.put_u64(self.seed);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            intensity: r.get_f64()?,
            kill_proc: r.get_bool("fault.kill_proc")?,
            kill_link: r.get_bool("fault.kill_link")?,
            seed: r.get_u64()?,
        })
    }
}

/// One scheduling request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen id, echoed verbatim on every reply.
    pub id: u64,
    /// Per-request completion deadline in milliseconds; 0 means "use
    /// the driver's default".
    pub deadline_ms: u32,
    /// Owning tenant; the driver attributes shed decisions to it
    /// (`DriverStats::shed_by_tenant`). Purely accounting — admission
    /// never prioritises by tenant.
    pub tenant: u32,
    /// Algorithm to run.
    pub algo: AlgoId,
    /// The instance spec.
    pub instance: WireInstance,
    /// Optional fault-and-repair leg.
    pub fault: Option<WireFault>,
}

impl Request {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(self.id);
        w.put_u32(self.deadline_ms);
        w.put_u32(self.tenant);
        w.put_u8(self.algo.tag());
        self.instance.put(w);
        match self.fault {
            None => w.put_u8(0),
            Some(f) => {
                w.put_u8(1);
                f.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let id = r.get_u64()?;
        let deadline_ms = r.get_u32()?;
        let tenant = r.get_u32()?;
        let algo = AlgoId::from_tag(r.get_u8()?)?;
        let instance = WireInstance::get(r)?;
        let fault = match r.get_u8()? {
            0 => None,
            1 => Some(WireFault::get(r)?),
            tag => {
                return Err(WireError::UnknownEnumTag {
                    what: "request.fault option",
                    tag,
                })
            }
        };
        Ok(Self {
            id,
            deadline_ms,
            tenant,
            algo,
            instance,
            fault,
        })
    }
}

/// One task placement (`TaskPlacement` mirror).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireTask {
    /// Processor id.
    pub proc: u32,
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// One route hop (`es_net::Hop` mirror).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireHop {
    /// Traversed link id.
    pub link: u32,
    /// Vertex the message leaves.
    pub from: u32,
    /// Vertex the message reaches.
    pub to: u32,
}

/// One constant-rate fluid piece (`es_linksched::bandwidth::Piece`
/// mirror).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirePiece {
    /// Piece start time.
    pub start: f64,
    /// Piece end time.
    pub end: f64,
    /// Bandwidth fraction.
    pub rate: f64,
}

/// One communication placement (`CommPlacement` mirror).
#[derive(Clone, Debug, PartialEq)]
pub enum WireComm {
    /// Source and destination share a processor.
    Local,
    /// Exclusive per-link time slots.
    Slotted {
        /// The hops taken.
        route: Vec<WireHop>,
        /// Per-hop `(start, finish)` times.
        times: Vec<(f64, f64)>,
    },
    /// Fluid bandwidth shares.
    Fluid {
        /// The hops taken.
        route: Vec<WireHop>,
        /// Per-hop flows, each a piece list.
        flows: Vec<Vec<WirePiece>>,
    },
    /// Contention-free idealised transfer.
    Ideal {
        /// Modelled delay.
        delay: f64,
        /// Arrival time.
        arrival: f64,
    },
}

fn put_route(route: &[WireHop], w: &mut ByteWriter) {
    w.put_u32(u32::try_from(route.len()).expect("route below 4G hops"));
    for h in route {
        w.put_u32(h.link);
        w.put_u32(h.from);
        w.put_u32(h.to);
    }
}

fn get_route(r: &mut ByteReader<'_>) -> Result<Vec<WireHop>, WireError> {
    let n = r.get_len("comm.route", 12)?;
    let mut route = Vec::with_capacity(n);
    for _ in 0..n {
        route.push(WireHop {
            link: r.get_u32()?,
            from: r.get_u32()?,
            to: r.get_u32()?,
        });
    }
    Ok(route)
}

impl WireComm {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            WireComm::Local => w.put_u8(0),
            WireComm::Slotted { route, times } => {
                w.put_u8(1);
                put_route(route, w);
                w.put_u32(u32::try_from(times.len()).expect("times below 4G"));
                for &(s, f) in times {
                    w.put_f64(s);
                    w.put_f64(f);
                }
            }
            WireComm::Fluid { route, flows } => {
                w.put_u8(2);
                put_route(route, w);
                w.put_u32(u32::try_from(flows.len()).expect("flows below 4G"));
                for flow in flows {
                    w.put_u32(u32::try_from(flow.len()).expect("pieces below 4G"));
                    for p in flow {
                        w.put_f64(p.start);
                        w.put_f64(p.end);
                        w.put_f64(p.rate);
                    }
                }
            }
            WireComm::Ideal { delay, arrival } => {
                w.put_u8(3);
                w.put_f64(*delay);
                w.put_f64(*arrival);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => WireComm::Local,
            1 => {
                let route = get_route(r)?;
                let n = r.get_len("comm.times", 16)?;
                let mut times = Vec::with_capacity(n);
                for _ in 0..n {
                    times.push((r.get_f64()?, r.get_f64()?));
                }
                WireComm::Slotted { route, times }
            }
            2 => {
                let route = get_route(r)?;
                let n = r.get_len("comm.flows", 4)?;
                let mut flows = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = r.get_len("comm.flow.pieces", 24)?;
                    let mut pieces = Vec::with_capacity(m);
                    for _ in 0..m {
                        pieces.push(WirePiece {
                            start: r.get_f64()?,
                            end: r.get_f64()?,
                            rate: r.get_f64()?,
                        });
                    }
                    flows.push(pieces);
                }
                WireComm::Fluid { route, flows }
            }
            3 => WireComm::Ideal {
                delay: r.get_f64()?,
                arrival: r.get_f64()?,
            },
            tag => {
                return Err(WireError::UnknownEnumTag {
                    what: "WireComm",
                    tag,
                })
            }
        })
    }
}

/// A complete schedule (`es_core::Schedule` mirror), floats bit-exact.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSchedule {
    /// Producing algorithm's report name.
    pub algorithm: String,
    /// Schedule makespan.
    pub makespan: f64,
    /// Per-task placements.
    pub tasks: Vec<WireTask>,
    /// Per-edge communication placements.
    pub comms: Vec<WireComm>,
}

impl WireSchedule {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(&self.algorithm);
        w.put_f64(self.makespan);
        w.put_u32(u32::try_from(self.tasks.len()).expect("tasks below 4G"));
        for t in &self.tasks {
            w.put_u32(t.proc);
            w.put_f64(t.start);
            w.put_f64(t.finish);
        }
        w.put_u32(u32::try_from(self.comms.len()).expect("comms below 4G"));
        for c in &self.comms {
            c.put(w);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let algorithm = r.get_str("schedule.algorithm")?;
        let makespan = r.get_f64()?;
        let n = r.get_len("schedule.tasks", 20)?;
        let mut tasks = Vec::with_capacity(n);
        for _ in 0..n {
            tasks.push(WireTask {
                proc: r.get_u32()?,
                start: r.get_f64()?,
                finish: r.get_f64()?,
            });
        }
        let n = r.get_len("schedule.comms", 1)?;
        let mut comms = Vec::with_capacity(n);
        for _ in 0..n {
            comms.push(WireComm::get(r)?);
        }
        Ok(Self {
            algorithm,
            makespan,
            tasks,
            comms,
        })
    }
}

/// A successful scheduling reply.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleReply {
    /// The request id this answers.
    pub id: u64,
    /// How many dispatch attempts the request took (1 = no retries).
    pub attempts: u32,
    /// The schedule, floats bit-exact.
    pub schedule: WireSchedule,
}

/// Why a request was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The per-request deadline expired before completion.
    DeadlineExceeded,
    /// The retry budget was exhausted (workers kept dying).
    RetriesExhausted {
        /// Human-readable context.
        detail: String,
    },
    /// The scheduler itself failed (e.g. no route).
    Scheduler {
        /// The scheduler error, rendered.
        detail: String,
    },
    /// The request was malformed or out of accepted bounds.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The driver is shutting down and no longer admits work.
    ShuttingDown,
    /// The worker's scheduling code panicked on this request.
    WorkerPanic {
        /// The panic message.
        detail: String,
    },
}

impl RejectReason {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            RejectReason::DeadlineExceeded => w.put_u8(0),
            RejectReason::RetriesExhausted { detail } => {
                w.put_u8(1);
                w.put_str(detail);
            }
            RejectReason::Scheduler { detail } => {
                w.put_u8(2);
                w.put_str(detail);
            }
            RejectReason::BadRequest { detail } => {
                w.put_u8(3);
                w.put_str(detail);
            }
            RejectReason::ShuttingDown => w.put_u8(4),
            RejectReason::WorkerPanic { detail } => {
                w.put_u8(5);
                w.put_str(detail);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => RejectReason::DeadlineExceeded,
            1 => RejectReason::RetriesExhausted {
                detail: r.get_str("reject.detail")?,
            },
            2 => RejectReason::Scheduler {
                detail: r.get_str("reject.detail")?,
            },
            3 => RejectReason::BadRequest {
                detail: r.get_str("reject.detail")?,
            },
            4 => RejectReason::ShuttingDown,
            5 => RejectReason::WorkerPanic {
                detail: r.get_str("reject.detail")?,
            },
            tag => {
                return Err(WireError::UnknownEnumTag {
                    what: "RejectReason",
                    tag,
                })
            }
        })
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            RejectReason::RetriesExhausted { detail } => write!(f, "retries exhausted: {detail}"),
            RejectReason::Scheduler { detail } => write!(f, "scheduler error: {detail}"),
            RejectReason::BadRequest { detail } => write!(f, "bad request: {detail}"),
            RejectReason::ShuttingDown => write!(f, "driver shutting down"),
            RejectReason::WorkerPanic { detail } => write!(f, "worker panic: {detail}"),
        }
    }
}

/// Driver-side service counters, queryable over the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests answered with a schedule.
    pub completed: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Requests rejected for a blown deadline.
    pub deadline_rejected: u64,
    /// Requests rejected for any other reason.
    pub rejected: u64,
    /// Re-dispatches of work lost to a worker death or stall.
    pub retries: u64,
    /// Workers the supervisor killed (stall/heartbeat timeouts).
    pub worker_kills: u64,
    /// Workers respawned after death.
    pub worker_respawns: u64,
    /// Chaos-injected worker kills.
    pub chaos_kills: u64,
    /// Chaos-injected worker stalls.
    pub chaos_stalls: u64,
    /// Current queue depth.
    pub queue_len: u32,
    /// Currently live workers.
    pub workers_alive: u32,
    /// Requests currently dispatched and unanswered.
    pub inflight: u32,
    /// Shed decisions attributed to the shed request's tenant,
    /// ascending tenant id (length-prefixed on the wire). The counts
    /// sum to `shed`.
    pub shed_by_tenant: Vec<(u32, u64)>,
}

impl DriverStats {
    /// Attribute one shed decision to `tenant` (keeps the list sorted
    /// by tenant id).
    pub fn count_shed(&mut self, tenant: u32) {
        self.shed += 1;
        match self.shed_by_tenant.binary_search_by_key(&tenant, |e| e.0) {
            Ok(i) => self.shed_by_tenant[i].1 += 1,
            Err(i) => self.shed_by_tenant.insert(i, (tenant, 1)),
        }
    }

    fn put(&self, w: &mut ByteWriter) {
        for v in [
            self.admitted,
            self.completed,
            self.shed,
            self.deadline_rejected,
            self.rejected,
            self.retries,
            self.worker_kills,
            self.worker_respawns,
            self.chaos_kills,
            self.chaos_stalls,
        ] {
            w.put_u64(v);
        }
        w.put_u32(self.queue_len);
        w.put_u32(self.workers_alive);
        w.put_u32(self.inflight);
        w.put_u32(u32::try_from(self.shed_by_tenant.len()).expect("tenants below 4G"));
        for &(tenant, count) in &self.shed_by_tenant {
            w.put_u32(tenant);
            w.put_u64(count);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            admitted: r.get_u64()?,
            completed: r.get_u64()?,
            shed: r.get_u64()?,
            deadline_rejected: r.get_u64()?,
            rejected: r.get_u64()?,
            retries: r.get_u64()?,
            worker_kills: r.get_u64()?,
            worker_respawns: r.get_u64()?,
            chaos_kills: r.get_u64()?,
            chaos_stalls: r.get_u64()?,
            queue_len: r.get_u32()?,
            workers_alive: r.get_u32()?,
            inflight: r.get_u32()?,
            shed_by_tenant: {
                let n = r.get_len("stats.shed_by_tenant", 12)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push((r.get_u32()?, r.get_u64()?));
                }
                v
            },
        })
    }
}

/// Every es-wire-v1 frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → driver, driver → worker: schedule this instance.
    Request(Request),
    /// Worker → driver, driver → client: the finished schedule.
    Schedule(ScheduleReply),
    /// Driver → client: request shed at admission (queue full).
    Overloaded {
        /// The request id that was shed.
        id: u64,
        /// Queue depth at the shed decision.
        queue_len: u32,
    },
    /// Driver → client or worker → driver: request failed terminally.
    Reject {
        /// The request id this answers.
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Driver → worker heartbeat probe.
    Ping {
        /// Echoed in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Worker → driver heartbeat answer.
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
    /// Driver → worker chaos directive: sleep this long before
    /// reading the next frame (simulates a wedged worker; the
    /// supervisor must detect it via missed heartbeats).
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Orderly-shutdown request (client → driver or driver → worker).
    Shutdown,
    /// A validation report in es-diag-v1 JSON, attached to a request.
    Diagnostics {
        /// The request id the report belongs to.
        id: u64,
        /// `es_core::Report::to_json` output.
        report_json: String,
    },
    /// Client → driver: ask for the service counters.
    StatsRequest,
    /// Driver → client: the service counters.
    Stats(DriverStats),
}

impl Frame {
    /// Encode to one payload (tag byte included, length prefix not).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Frame::Request(req) => {
                w.put_u8(1);
                req.put(&mut w);
            }
            Frame::Schedule(rep) => {
                w.put_u8(2);
                w.put_u64(rep.id);
                w.put_u32(rep.attempts);
                rep.schedule.put(&mut w);
            }
            Frame::Overloaded { id, queue_len } => {
                w.put_u8(3);
                w.put_u64(*id);
                w.put_u32(*queue_len);
            }
            Frame::Reject { id, reason } => {
                w.put_u8(4);
                w.put_u64(*id);
                reason.put(&mut w);
            }
            Frame::Ping { nonce } => {
                w.put_u8(5);
                w.put_u64(*nonce);
            }
            Frame::Pong { nonce } => {
                w.put_u8(6);
                w.put_u64(*nonce);
            }
            Frame::Stall { millis } => {
                w.put_u8(7);
                w.put_u64(*millis);
            }
            Frame::Shutdown => w.put_u8(8),
            Frame::Diagnostics { id, report_json } => {
                w.put_u8(9);
                w.put_u64(*id);
                w.put_str(report_json);
            }
            Frame::StatsRequest => w.put_u8(10),
            Frame::Stats(s) => {
                w.put_u8(11);
                s.put(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decode one payload. Strict: unknown tags, short payloads and
    /// trailing bytes are all typed errors.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        if payload.is_empty() {
            return Err(WireError::EmptyFrame);
        }
        let mut r = ByteReader::new(&payload[1..]);
        let frame = match payload[0] {
            1 => Frame::Request(Request::get(&mut r)?),
            2 => Frame::Schedule(ScheduleReply {
                id: r.get_u64()?,
                attempts: r.get_u32()?,
                schedule: WireSchedule::get(&mut r)?,
            }),
            3 => Frame::Overloaded {
                id: r.get_u64()?,
                queue_len: r.get_u32()?,
            },
            4 => Frame::Reject {
                id: r.get_u64()?,
                reason: RejectReason::get(&mut r)?,
            },
            5 => Frame::Ping {
                nonce: r.get_u64()?,
            },
            6 => Frame::Pong {
                nonce: r.get_u64()?,
            },
            7 => Frame::Stall {
                millis: r.get_u64()?,
            },
            8 => Frame::Shutdown,
            9 => Frame::Diagnostics {
                id: r.get_u64()?,
                report_json: r.get_str("diagnostics.report_json")?,
            },
            10 => Frame::StatsRequest,
            11 => Frame::Stats(DriverStats::get(&mut r)?),
            tag => return Err(WireError::UnknownFrameTag(tag)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Write the stream preamble: [`MAGIC`] then the protocol version.
pub fn write_preamble<W: Write>(w: &mut W) -> Result<(), WireError> {
    w.write_all(&MAGIC)?;
    w.write_all(&PROTOCOL_VERSION.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Read and validate the stream preamble.
pub fn read_preamble<R: Read>(r: &mut R) -> Result<(), WireError> {
    let mut magic = [0u8; 6];
    read_exact_wire(r, &mut magic)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut v = [0u8; 2];
    read_exact_wire(r, &mut v)?;
    let version = u16::from_le_bytes(v);
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Write one frame: 4-byte little-endian payload length, then the
/// payload. Flushes, so a frame is visible to the peer as soon as the
/// call returns.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let payload = frame.encode();
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "oversized frame produced");
    let len = u32::try_from(payload.len()).expect("frame below 4 GiB");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary;
/// EOF anywhere inside a frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        n => read_exact_wire(r, &mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    let mut payload = vec![0u8; len];
    read_exact_wire(r, &mut payload)?;
    Frame::decode(&payload).map(Some)
}

/// `read_exact` with EOF mapped to [`WireError::Truncated`] (a peer
/// dying mid-frame is a protocol-level truncation, not a generic I/O
/// failure).
fn read_exact_wire<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    need: buf.len() - filled,
                    have: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 42,
            deadline_ms: 5000,
            tenant: 7,
            algo: AlgoId::Oihsa,
            instance: WireInstance {
                heterogeneous: true,
                processors: 8,
                ccr: 2.5,
                tasks: Some(60),
                seed: 0xDEAD_BEEF,
            },
            fault: Some(WireFault {
                intensity: 0.4,
                kill_proc: true,
                kill_link: false,
                seed: 99,
            }),
        }
    }

    fn roundtrip(frame: &Frame) {
        let payload = frame.encode();
        let back = Frame::decode(&payload).expect("decodes");
        assert_eq!(&back, frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(&Frame::Request(sample_request()));
        roundtrip(&Frame::Schedule(ScheduleReply {
            id: 7,
            attempts: 3,
            schedule: WireSchedule {
                algorithm: "OIHSA".into(),
                makespan: 123.456,
                tasks: vec![WireTask {
                    proc: 1,
                    start: 0.0,
                    finish: 2.5,
                }],
                comms: vec![
                    WireComm::Local,
                    WireComm::Slotted {
                        route: vec![WireHop {
                            link: 3,
                            from: 0,
                            to: 9,
                        }],
                        times: vec![(1.0, 2.0)],
                    },
                    WireComm::Fluid {
                        route: vec![WireHop {
                            link: 1,
                            from: 2,
                            to: 3,
                        }],
                        flows: vec![vec![WirePiece {
                            start: 0.5,
                            end: 1.5,
                            rate: 0.25,
                        }]],
                    },
                    WireComm::Ideal {
                        delay: 1.0,
                        arrival: 3.0,
                    },
                ],
            },
        }));
        roundtrip(&Frame::Overloaded {
            id: 5,
            queue_len: 64,
        });
        roundtrip(&Frame::Reject {
            id: 6,
            reason: RejectReason::RetriesExhausted {
                detail: "worker died 4 times".into(),
            },
        });
        roundtrip(&Frame::Ping { nonce: 1 });
        roundtrip(&Frame::Pong { nonce: 1 });
        roundtrip(&Frame::Stall { millis: 250 });
        roundtrip(&Frame::Shutdown);
        roundtrip(&Frame::Diagnostics {
            id: 9,
            report_json: "{\"schema\":\"es-diag-v1\"}".into(),
        });
        roundtrip(&Frame::StatsRequest);
        roundtrip(&Frame::Stats(DriverStats {
            admitted: 10,
            completed: 9,
            shed: 3,
            shed_by_tenant: vec![(0, 1), (4, 2)],
            ..DriverStats::default()
        }));
    }

    #[test]
    fn stream_roundtrip_with_preamble() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        write_frame(&mut buf, &Frame::Ping { nonce: 3 }).unwrap();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        read_preamble(&mut cur).unwrap();
        assert_eq!(
            read_frame(&mut cur).unwrap(),
            Some(Frame::Ping { nonce: 3 })
        );
        assert_eq!(read_frame(&mut cur).unwrap(), Some(Frame::Shutdown));
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_truncated_not_none() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Request(sample_request())).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cur = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut cur = std::io::Cursor::new(b"NOTWIRE\x01".to_vec());
        assert!(matches!(
            read_preamble(&mut cur),
            Err(WireError::BadMagic(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&9u16.to_le_bytes());
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(
            read_preamble(&mut cur),
            Err(WireError::UnsupportedVersion(9))
        );
        // v3 streams carry the dropped snapshot-restore tuning byte and
        // v4 streams the dropped tuning fields; both are refused at the
        // preamble, never mis-decoded.
        for old in [3u16, 4] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&old.to_le_bytes());
            let mut cur = std::io::Cursor::new(buf);
            assert_eq!(
                read_preamble(&mut cur),
                Err(WireError::UnsupportedVersion(old))
            );
        }
    }

    #[test]
    fn unknown_frame_tag_is_typed() {
        assert_eq!(Frame::decode(&[200]), Err(WireError::UnknownFrameTag(200)));
        assert_eq!(Frame::decode(&[]), Err(WireError::EmptyFrame));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Frame::Shutdown.encode();
        payload.push(0);
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn algo_names_roundtrip() {
        for a in AlgoId::ALL {
            assert_eq!(AlgoId::parse(a.name()), Some(a));
        }
        assert_eq!(AlgoId::parse("quantum"), None);
    }
}
