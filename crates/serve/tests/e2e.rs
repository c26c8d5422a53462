//! End-to-end tests: a real driver (in-process event loop) with real
//! worker child processes (the compiled `es-serve` binary's `worker`
//! subcommand) over a real Unix socket.
//!
//! The chaos tests here are the crate's load-bearing guarantee: with
//! every first attempt sabotaged, every admitted request must still
//! complete bitwise-identically to the single-process reference.

use es_serve::worker::compute_schedule;
use es_serve::{run_driver, ChaosSpec, Client, ServeConfig, WorkerCommand};
use es_wire::{AlgoId, Frame, Request, WireInstance};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn worker_cmd() -> WorkerCommand {
    WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_es-serve")),
        args: vec!["worker".to_string()],
    }
}

fn test_socket(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("es-serve-e2e-{}-{name}.sock", std::process::id()))
}

fn fast_cfg(socket: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(socket);
    cfg.workers = 2;
    cfg.heartbeat_ms = 25;
    cfg.stall_timeout_ms = 400;
    cfg.backoff_base_ms = 5;
    cfg.retry_max = 5;
    cfg
}

fn sample_request(id: u64) -> Request {
    Request {
        id,
        deadline_ms: 0,
        tenant: u32::try_from(id % 3).unwrap(),
        algo: AlgoId::ALL[(id as usize) % AlgoId::ALL.len()],
        instance: WireInstance {
            heterogeneous: id.is_multiple_of(2),
            processors: 3,
            ccr: 1.0,
            tasks: Some(12),
            seed: 0xE2E0 + id,
        },
        fault: None,
    }
}

/// Like [`sample_request`], but sized so one compute takes
/// milliseconds rather than microseconds: the shed tests pipeline a
/// burst at a single worker and need it to genuinely fall behind,
/// otherwise (release mode, fast machine) the queue never fills and
/// nothing sheds.
fn heavy_request(id: u64) -> Request {
    let mut req = sample_request(id);
    req.instance.tasks = Some(150);
    req
}

/// Start a driver thread and wait for its socket to accept.
fn start_driver(
    cfg: ServeConfig,
) -> (
    std::thread::JoinHandle<std::io::Result<es_wire::DriverStats>>,
    PathBuf,
) {
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || run_driver(cfg, worker_cmd()));
    for _ in 0..400 {
        if Client::connect(&socket).is_ok() {
            return (handle, socket);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("driver socket never came up at {}", socket.display());
}

#[test]
fn round_trip_matches_single_process_reference() {
    let (driver, socket) = start_driver(fast_cfg(&test_socket("roundtrip")));
    let mut client = Client::connect(&socket).expect("connect");
    for id in 0..5u64 {
        let req = sample_request(id);
        let reply = client
            .round_trip(&Frame::Request(req.clone()))
            .expect("reply");
        match reply {
            Frame::Schedule(reply) => {
                assert_eq!(reply.id, id);
                assert_eq!(reply.attempts, 1, "no chaos, no retries");
                let reference = compute_schedule(&req).expect("schedulable");
                assert_eq!(reply.schedule, reference, "request {id} diverged");
            }
            other => panic!("expected schedule for {id}, got {other:?}"),
        }
    }
    client.send(&Frame::Shutdown).expect("shutdown");
    let stats = driver.join().expect("no panic").expect("clean run");
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.retries, 0);
}

#[test]
fn chaos_kill_every_first_attempt_loses_nothing() {
    let mut cfg = fast_cfg(&test_socket("chaoskill"));
    cfg.chaos = Some(ChaosSpec::parse("kill-worker:1.0", 11).expect("valid"));
    let (driver, socket) = start_driver(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    let n = 6u64;
    for id in 0..n {
        let req = sample_request(id);
        let reply = client
            .round_trip(&Frame::Request(req.clone()))
            .expect("reply");
        match reply {
            Frame::Schedule(reply) => {
                assert_eq!(reply.id, id);
                assert!(
                    reply.attempts >= 2,
                    "first attempt was chaos-killed, so request {id} must retry"
                );
                let reference = compute_schedule(&req).expect("schedulable");
                assert_eq!(
                    reply.schedule, reference,
                    "request {id} diverged after chaos retries"
                );
            }
            other => panic!("expected schedule for {id}, got {other:?}"),
        }
    }
    client.send(&Frame::Shutdown).expect("shutdown");
    let stats = driver.join().expect("no panic").expect("clean run");
    assert_eq!(stats.completed, n, "every admitted request completed");
    assert_eq!(stats.chaos_kills, n);
    assert!(stats.retries >= n);
    assert!(stats.worker_respawns >= n);
    assert_eq!(stats.deadline_rejected, 0);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn chaos_stall_is_detected_and_retried() {
    let mut cfg = fast_cfg(&test_socket("chaosstall"));
    cfg.stall_timeout_ms = 250;
    cfg.chaos = Some(ChaosSpec::parse("stall-worker:1.0", 5).expect("valid"));
    let (driver, socket) = start_driver(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    let req = sample_request(0);
    let reply = client
        .round_trip(&Frame::Request(req.clone()))
        .expect("reply");
    match reply {
        Frame::Schedule(reply) => {
            assert!(reply.attempts >= 2, "stalled attempt must be retried");
            assert_eq!(reply.schedule, compute_schedule(&req).expect("ok"));
        }
        other => panic!("expected schedule, got {other:?}"),
    }
    client.send(&Frame::Shutdown).expect("shutdown");
    let stats = driver.join().expect("no panic").expect("clean run");
    assert_eq!(stats.chaos_stalls, 1);
    assert!(
        stats.worker_kills >= 1,
        "supervisor must kill the wedged worker"
    );
    assert_eq!(stats.completed, 1);
}

#[test]
fn overload_sheds_with_explicit_reply() {
    let mut cfg = fast_cfg(&test_socket("overload"));
    cfg.workers = 1;
    cfg.queue_cap = 1;
    let (driver, socket) = start_driver(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    // Pipeline a burst without reading replies: with one worker and a
    // one-slot queue, some of these must shed.
    let n = 8u64;
    for id in 0..n {
        client
            .send(&Frame::Request(heavy_request(id)))
            .expect("send");
    }
    let mut schedules = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..n {
        match client.recv().expect("reply").expect("stream open") {
            Frame::Schedule(reply) => {
                let reference = compute_schedule(&heavy_request(reply.id)).expect("ok");
                assert_eq!(reply.schedule, reference);
                schedules += 1;
            }
            Frame::Overloaded { .. } => overloaded += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(schedules + overloaded, n, "every request got a reply");
    assert!(overloaded > 0, "burst over a 1-slot queue must shed");
    assert!(schedules > 0, "admitted requests still complete");
    client.send(&Frame::Shutdown).expect("shutdown");
    let stats = driver.join().expect("no panic").expect("clean run");
    assert_eq!(stats.shed, overloaded);
    assert_eq!(stats.completed, schedules);
}

/// Mixed-tenant stream under both shed policies: every answered
/// request is bitwise identical to the single-process reference, and
/// the driver's per-tenant shed counters match the tenants of the
/// `Overloaded` replies the client saw, summing to `shed`.
#[test]
fn mixed_tenant_stream_sheds_with_per_tenant_counts() {
    for (policy_name, policy) in [
        ("reject-newest", es_serve::ShedPolicy::RejectNewest),
        ("reject-oldest", es_serve::ShedPolicy::RejectOldest),
    ] {
        let mut cfg = fast_cfg(&test_socket(&format!("tenants-{policy_name}")));
        cfg.workers = 1;
        cfg.queue_cap = 1;
        cfg.shed = policy;
        let (driver, socket) = start_driver(cfg);
        let mut client = Client::connect(&socket).expect("connect");
        // Burst three tenants' requests without reading replies: with
        // one worker and a one-slot queue some of each burst must shed.
        let n = 9u64;
        for id in 0..n {
            client
                .send(&Frame::Request(heavy_request(id)))
                .expect("send");
        }
        let mut shed_seen = [0u64; 3];
        let mut schedules = 0u64;
        for _ in 0..n {
            match client.recv().expect("reply").expect("stream open") {
                Frame::Schedule(reply) => {
                    let req = heavy_request(reply.id);
                    let reference = compute_schedule(&req).expect("schedulable");
                    assert_eq!(
                        reply.schedule, reference,
                        "{policy_name}: request {} diverged",
                        reply.id
                    );
                    schedules += 1;
                }
                Frame::Overloaded { id, .. } => shed_seen[(id % 3) as usize] += 1,
                other => panic!("{policy_name}: unexpected reply {other:?}"),
            }
        }
        client.send(&Frame::Shutdown).expect("shutdown");
        let stats = driver.join().expect("no panic").expect("clean run");
        let total_shed: u64 = shed_seen.iter().sum();
        assert!(total_shed > 0, "{policy_name}: burst must shed");
        assert!(schedules > 0, "{policy_name}: admitted requests complete");
        assert_eq!(stats.shed, total_shed, "{policy_name}");
        assert_eq!(
            stats.shed_by_tenant.iter().map(|&(_, c)| c).sum::<u64>(),
            stats.shed,
            "{policy_name}: per-tenant counts must sum to shed"
        );
        for &(tenant, count) in &stats.shed_by_tenant {
            assert_eq!(
                count, shed_seen[tenant as usize],
                "{policy_name}: tenant {tenant} count disagrees with replies"
            );
        }
    }
}

#[test]
fn stats_frame_reports_progress() {
    let (driver, socket) = start_driver(fast_cfg(&test_socket("stats")));
    let mut client = Client::connect(&socket).expect("connect");
    let reply = client
        .round_trip(&Frame::Request(sample_request(3)))
        .expect("reply");
    assert!(matches!(reply, Frame::Schedule(_)));
    match client.round_trip(&Frame::StatsRequest).expect("stats") {
        Frame::Stats(stats) => {
            assert_eq!(stats.admitted, 1);
            assert_eq!(stats.completed, 1);
            assert_eq!(stats.workers_alive, 2);
            assert_eq!(stats.inflight, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    client.send(&Frame::Shutdown).expect("shutdown");
    driver.join().expect("no panic").expect("clean run");
}

#[test]
fn draining_driver_rejects_new_work() {
    let mut cfg = fast_cfg(&test_socket("draining"));
    cfg.workers = 1;
    let (driver, socket) = start_driver(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    // Put one slow-ish job in flight so the drain isn't instant, then
    // shut down and try to sneak another request in.
    client
        .send(&Frame::Request(sample_request(0)))
        .expect("send");
    client.send(&Frame::Shutdown).expect("shutdown");
    client
        .send(&Frame::Request(sample_request(1)))
        .expect("send");
    let mut saw_schedule = false;
    let mut saw_shutdown_reject = false;
    while let Ok(Some(frame)) = client.recv() {
        match frame {
            Frame::Schedule(reply) if reply.id == 0 => saw_schedule = true,
            Frame::Reject {
                id: 1,
                reason: es_wire::RejectReason::ShuttingDown,
            } => saw_shutdown_reject = true,
            other => panic!("unexpected reply {other:?}"),
        }
        if saw_schedule && saw_shutdown_reject {
            break;
        }
    }
    assert!(saw_schedule, "in-flight work drains to completion");
    assert!(saw_shutdown_reject, "post-shutdown work is refused, typed");
    driver.join().expect("no panic").expect("clean run");
}

/// A worker that has just finished a long run of back-to-back jobs is
/// healthy: its verdicts prove it alive even though it was never idle
/// long enough to be pinged. Regression: the supervisor used to kill
/// it (and respawn a replacement) at the first idle tick, because its
/// last pong predated a busy stretch longer than stall + heartbeat.
#[test]
fn worker_idle_after_long_busy_stretch_is_not_killed() {
    let mut cfg = fast_cfg(&test_socket("busystretch"));
    cfg.queue_cap = 4096;
    // Size the burst from this machine's compute speed: enough heavy
    // requests to keep both workers busy for about 1.5 s in total.
    let probe = 5u64;
    let t0 = Instant::now();
    for id in 0..probe {
        compute_schedule(&heavy_request(id)).expect("schedulable");
    }
    let per_request =
        (t0.elapsed() / u32::try_from(probe).unwrap()).max(Duration::from_micros(100));
    let n = u64::try_from((3_000_000 / per_request.as_micros()).clamp(16, 3000)).unwrap();

    let (driver, socket) = start_driver(cfg);
    let mut client = Client::connect(&socket).expect("connect");
    let burst = Instant::now();
    for id in 0..n {
        client
            .send(&Frame::Request(heavy_request(id)))
            .expect("send");
    }
    for _ in 0..n {
        match client.recv().expect("reply").expect("stream open") {
            Frame::Schedule(reply) => assert_eq!(reply.attempts, 1, "request {}", reply.id),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let busy = burst.elapsed();
    assert!(
        busy > Duration::from_millis(500),
        "burst of {n} finished in {busy:?}: too short to outlast stall + heartbeat"
    );
    // Idle long enough for several supervision ticks.
    std::thread::sleep(Duration::from_millis(200));
    match client.round_trip(&Frame::StatsRequest).expect("stats") {
        Frame::Stats(stats) => {
            assert_eq!(stats.completed, n);
            assert_eq!(
                stats.worker_kills, 0,
                "healthy worker killed after busy stretch"
            );
            assert_eq!(stats.worker_respawns, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    client.send(&Frame::Shutdown).expect("shutdown");
    driver.join().expect("no panic").expect("clean run");
}
