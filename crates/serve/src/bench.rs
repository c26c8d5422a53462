//! Load generator + chaos verifier (`es-serve bench`, DESIGN.md
//! §13.6).
//!
//! Drives a real driver (in-process thread; workers are real child
//! processes) with a deterministic [`ServiceMix`] over real client
//! connections, then checks the chaos invariant: **every admitted
//! request's outcome is bitwise-identical to the single-process
//! reference** — the same [`crate::worker::compute_schedule`] run
//! locally, compared by encoded frame bytes. Records requests/sec,
//! P50/P99 latency, shed/retry/kill counters into a committed JSON
//! report (`SERVE_PR7.json`), and fails loudly on any lost or
//! mismatched request — which is what the CI serve-smoke job asserts.

use crate::chaos::ChaosSpec;
use crate::client::Client;
use crate::config::ServeConfig;
use crate::driver::{run_driver, WorkerCommand};
use crate::worker::compute_schedule;
use es_sim::robustness::fault_seed;
use es_sim::service::{ServiceMix, ServiceRequest};
use es_wire::{
    AlgoId, DriverStats, Frame, RejectReason, Request, ScheduleReply, WireFault, WireInstance,
    WireSchedule,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Bench parameters (all CLI-settable).
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Requests in the generated mix.
    pub requests: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Worker processes under the driver.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Chaos injection for the driver (kill/stall probabilities).
    pub chaos: Option<ChaosSpec>,
    /// Service-mix master seed.
    pub seed: u64,
    /// Driver socket path.
    pub socket: PathBuf,
    /// Where to write the JSON report (stdout summary always prints).
    pub out: Option<PathBuf>,
    /// How to launch workers.
    pub worker_cmd: WorkerCommand,
}

/// One request's observed outcome.
enum Outcome {
    Schedule(WireSchedule),
    Rejected(String),
    /// Driver-level loss: retries exhausted, deadline, no reply —
    /// exactly what the chaos invariant forbids.
    Lost(String),
}

/// Aggregated bench result.
pub struct BenchReport {
    /// Requests answered with a schedule.
    pub completed: usize,
    /// Requests with a deterministic compute rejection matching the
    /// reference (e.g. an unrepairable fault leg) — not losses.
    pub rejected_matching: usize,
    /// Driver-level losses (must be 0 for the invariant).
    pub lost: usize,
    /// Schedules differing from the reference bits (must be 0).
    pub mismatched: usize,
    /// Wall-clock for the whole request phase, milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Median request latency (first send → final reply), ms.
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// `Overloaded` replies absorbed by client-side resubmission.
    pub overload_retries: u64,
    /// Driver counters sampled right before shutdown.
    pub driver: DriverStats,
    /// The options the run used.
    pub opts: BenchOpts,
}

/// Convert one service-mix entry into its wire request. The fault
/// seed derives from the instance seed exactly as the robustness
/// sweep does, so service fault legs and sweep cells agree.
pub fn to_wire_request(id: u64, req: &ServiceRequest) -> Request {
    let algo = AlgoId::parse(req.algo).expect("service mix uses wire algo ids");
    Request {
        id,
        deadline_ms: req.deadline_ms,
        tenant: req.tenant,
        algo,
        instance: WireInstance::from_config(&req.instance),
        fault: req.fault_intensity.map(|intensity| WireFault {
            intensity,
            kill_proc: true,
            kill_link: true,
            seed: fault_seed(req.instance.seed, intensity),
        }),
    }
}

/// The byte string whose equality defines "bitwise-identical": the
/// schedule re-encoded in a normalized frame (id/attempts zeroed —
/// those are transport metadata, not schedule content).
fn schedule_bytes(schedule: &WireSchedule) -> Vec<u8> {
    Frame::Schedule(ScheduleReply {
        id: 0,
        attempts: 0,
        schedule: schedule.clone(),
    })
    .encode()
}

/// Run the bench. `Err` carries a human-readable reason when the
/// harness itself fails (socket, worker spawn); invariant violations
/// are reported in the `BenchReport` (and by [`render_json`]) so the
/// caller can both persist the evidence and exit nonzero.
pub fn run_bench(opts: &BenchOpts) -> Result<BenchReport, String> {
    let mix = ServiceMix {
        requests: opts.requests,
        seed: opts.seed,
        ..ServiceMix::default()
    };
    let stream = mix.generate();
    let wire_requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, r)| to_wire_request(i as u64, r))
        .collect();

    let mut cfg = ServeConfig::new(&opts.socket);
    cfg.workers = opts.workers;
    cfg.queue_cap = opts.queue_cap;
    cfg.chaos = opts.chaos;
    cfg.deadline_ms = 120_000;
    cfg.heartbeat_ms = 50;
    cfg.stall_timeout_ms = 1_000;
    cfg.retry_max = 6;
    cfg.backoff_base_ms = 5;
    let socket = cfg.socket.clone();
    let worker_cmd = opts.worker_cmd.clone();
    let driver = std::thread::spawn(move || run_driver(cfg, worker_cmd));

    // Wait for the socket to accept.
    let mut probe = None;
    for _ in 0..200 {
        match Client::connect(&socket) {
            Ok(c) => {
                probe = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut probe = probe.ok_or_else(|| "driver socket never came up".to_string())?;

    // Request phase: `clients` threads, round-robin partition, one
    // synchronous request at a time per connection; `Overloaded` is
    // absorbed by resubmission with a client-side backoff.
    let started = Instant::now();
    let results: Vec<(usize, Outcome, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients.max(1))
            .map(|c| {
                let socket = &socket;
                let wire_requests = &wire_requests;
                scope.spawn(move || client_run(c, opts.clients.max(1), socket, wire_requests))
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(part)) => all.extend(part),
                Ok(Err(e)) => all.push((usize::MAX, Outcome::Lost(e), 0.0)),
                Err(_) => all.push((
                    usize::MAX,
                    Outcome::Lost("client thread panicked".to_string()),
                    0.0,
                )),
            }
        }
        all
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Sample driver stats, then shut it down and wait for drain.
    let driver_stats = match probe.round_trip(&Frame::StatsRequest) {
        Ok(Frame::Stats(s)) => s,
        _ => DriverStats::default(),
    };
    let _ = probe.send(&Frame::Shutdown);
    let final_stats = driver
        .join()
        .map_err(|_| "driver thread panicked".to_string())?
        .map_err(|e| format!("driver failed: {e}"))?;
    let driver_stats = if final_stats.admitted >= driver_stats.admitted {
        DriverStats {
            queue_len: driver_stats.queue_len,
            workers_alive: driver_stats.workers_alive,
            inflight: driver_stats.inflight,
            ..final_stats
        }
    } else {
        driver_stats
    };

    // Verification phase: recompute every request single-process and
    // compare outcomes bit for bit.
    let mut completed = 0usize;
    let mut rejected_matching = 0usize;
    let mut lost = 0usize;
    let mut mismatched = 0usize;
    let mut latencies: Vec<f64> = Vec::with_capacity(results.len());
    for (index, outcome, latency_ms) in &results {
        if *index == usize::MAX {
            lost += 1;
            continue;
        }
        let reference = compute_schedule(&wire_requests[*index]);
        match (outcome, reference) {
            (Outcome::Schedule(got), Ok(want)) => {
                if schedule_bytes(got) == schedule_bytes(&want) {
                    completed += 1;
                    latencies.push(*latency_ms);
                } else {
                    mismatched += 1;
                    eprintln!("bench: request {index} schedule differs from reference");
                }
            }
            (Outcome::Rejected(got), Err(want)) => {
                if *got == want.to_string() {
                    rejected_matching += 1;
                } else {
                    mismatched += 1;
                    eprintln!("bench: request {index} rejection `{got}` != reference `{want}`");
                }
            }
            (Outcome::Schedule(_), Err(want)) => {
                mismatched += 1;
                eprintln!("bench: request {index} got a schedule, reference rejects: {want}");
            }
            (Outcome::Rejected(got), Ok(_)) => {
                mismatched += 1;
                eprintln!("bench: request {index} rejected `{got}`, reference schedules");
            }
            (Outcome::Lost(why), _) => {
                lost += 1;
                eprintln!("bench: request {index} LOST: {why}");
            }
        }
    }
    // The driver's shed counter is the authoritative count of
    // Overloaded replies the clients absorbed by resubmitting.
    let overloads = driver_stats.shed;

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    };
    #[allow(clippy::cast_precision_loss)]
    let requests_per_sec = if wall_ms > 0.0 {
        completed as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };

    Ok(BenchReport {
        completed,
        rejected_matching,
        lost,
        mismatched,
        wall_ms,
        requests_per_sec,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        overload_retries: overloads,
        driver: driver_stats,
        opts: opts.clone(),
    })
}

/// One client thread: its share of the mix, strictly sequential.
fn client_run(
    client: usize,
    clients: usize,
    socket: &std::path::Path,
    requests: &[Request],
) -> Result<Vec<(usize, Outcome, f64)>, String> {
    let mut conn = Client::connect(socket).map_err(|e| format!("client connect: {e}"))?;
    let mut out = Vec::new();
    for (index, request) in requests
        .iter()
        .enumerate()
        .skip(client)
        .step_by(clients.max(1))
    {
        let started = Instant::now();
        let mut overload_round = 0u32;
        let outcome = loop {
            let reply = conn
                .round_trip(&Frame::Request(request.clone()))
                .map_err(|e| format!("client {client} io: {e}"))?;
            match reply {
                Frame::Schedule(reply) if reply.id == request.id => {
                    break Outcome::Schedule(reply.schedule);
                }
                Frame::Overloaded { id, .. } if id == request.id => {
                    overload_round += 1;
                    if overload_round > 1_000 {
                        break Outcome::Lost("overloaded forever".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(
                        2u64.saturating_mul(u64::from(overload_round.min(6))),
                    ));
                }
                Frame::Reject { id, reason } if id == request.id => {
                    break match reason {
                        RejectReason::Scheduler { .. } | RejectReason::BadRequest { .. } => {
                            Outcome::Rejected(reason.to_string())
                        }
                        other => Outcome::Lost(other.to_string()),
                    };
                }
                other => {
                    break Outcome::Lost(format!("unexpected reply {other:?}"));
                }
            }
        };
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        out.push((index, outcome, latency_ms));
    }
    Ok(out)
}

/// Render the committed JSON report.
pub fn render_json(r: &BenchReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"PR7\",\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"requests\": {},\n", r.opts.requests));
    s.push_str(&format!("  \"clients\": {},\n", r.opts.clients));
    s.push_str(&format!("  \"workers\": {},\n", r.opts.workers));
    s.push_str(&format!("  \"queue_cap\": {},\n", r.opts.queue_cap));
    s.push_str(&format!("  \"mix_seed\": {},\n", r.opts.seed));
    match r.opts.chaos {
        Some(c) => {
            s.push_str(&format!(
                "  \"chaos\": \"kill-worker:{},stall-worker:{}\",\n",
                c.kill_worker, c.stall_worker
            ));
            s.push_str(&format!("  \"chaos_seed\": {},\n", c.seed));
        }
        None => s.push_str("  \"chaos\": null,\n"),
    }
    let identity_ok = r.lost == 0 && r.mismatched == 0;
    s.push_str(&format!("  \"identity_ok\": {identity_ok},\n"));
    s.push_str(&format!("  \"completed\": {},\n", r.completed));
    s.push_str(&format!(
        "  \"rejected_matching\": {},\n",
        r.rejected_matching
    ));
    s.push_str(&format!("  \"lost\": {},\n", r.lost));
    s.push_str(&format!("  \"mismatched\": {},\n", r.mismatched));
    s.push_str(&format!("  \"wall_ms\": {:.3},\n", r.wall_ms));
    s.push_str(&format!(
        "  \"requests_per_sec\": {:.2},\n",
        r.requests_per_sec
    ));
    s.push_str(&format!("  \"p50_ms\": {:.3},\n", r.p50_ms));
    s.push_str(&format!("  \"p99_ms\": {:.3},\n", r.p99_ms));
    s.push_str(&format!(
        "  \"overload_retries\": {},\n",
        r.overload_retries
    ));
    let d = &r.driver;
    s.push_str("  \"driver\": {");
    s.push_str(&format!(
        "\"admitted\": {}, \"completed\": {}, \"shed\": {}, \"deadline_rejected\": {}, \
         \"rejected\": {}, \"retries\": {}, \"worker_kills\": {}, \"worker_respawns\": {}, \
         \"chaos_kills\": {}, \"chaos_stalls\": {}",
        d.admitted,
        d.completed,
        d.shed,
        d.deadline_rejected,
        d.rejected,
        d.retries,
        d.worker_kills,
        d.worker_respawns,
        d.chaos_kills,
        d.chaos_stalls
    ));
    s.push_str("}\n");
    s.push_str("}\n");
    s
}

/// One-screen stdout summary.
pub fn render_summary(r: &BenchReport) -> String {
    let d = &r.driver;
    format!(
        "es-serve bench: {} requests, {} clients, {} workers{}\n\
         completed {} (+{} matching rejections), lost {}, mismatched {}\n\
         wall {:.0} ms, {:.1} req/s, latency p50 {:.1} ms / p99 {:.1} ms\n\
         driver: shed {}, retries {}, kills {} (chaos {}), stalls (chaos) {}, respawns {}\n\
         chaos invariant: {}",
        r.opts.requests,
        r.opts.clients,
        r.opts.workers,
        r.opts
            .chaos
            .map(|c| format!(
                ", chaos kill {:.2}/stall {:.2} seed {}",
                c.kill_worker, c.stall_worker, c.seed
            ))
            .unwrap_or_default(),
        r.completed,
        r.rejected_matching,
        r.lost,
        r.mismatched,
        r.wall_ms,
        r.requests_per_sec,
        r.p50_ms,
        r.p99_ms,
        d.shed,
        d.retries,
        d.worker_kills,
        d.chaos_kills,
        d.chaos_stalls,
        d.worker_respawns,
        if r.lost == 0 && r.mismatched == 0 {
            "HOLDS (every admitted request matched the single-process reference bitwise)"
        } else {
            "VIOLATED"
        }
    )
}
