//! `serve-open`: the scheduling service end to end. A driver runs in a
//! child process with two worker processes (default `ServeConfig`);
//! this process is the client. Phase A offers an open-loop, seeded
//! Poisson stream at a fixed rate over one connection (a sender and a
//! receiver thread), timing each request from when it was due. Phase B
//! keeps a closed window of requests outstanding to measure capacity.
//! Every reply must be byte-identical to the in-process
//! `compute_schedule` of the same request.

use crate::layers::{push_common, Layers, LinkReplay};
use crate::report::{peak_rss_kib, Outcome};
use crate::stats::{derive_seed, fnv1a, poisson_offsets, FNV_BASIS};
use crate::trace::{ms, timed, Tracer};
use crate::{push_e2e, Args};
use es_serve::bench::to_wire_request;
use es_serve::{compute_schedule, run_driver, run_worker, ServeConfig, WorkerCommand};
use es_sim::{ServiceMix, SERVICE_ALGOS};
use es_wire::{
    read_frame, read_preamble, write_frame, write_preamble, AlgoId, DriverStats, Frame, Request,
    ScheduleReply, WireSchedule,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per (algorithm, processor count) cell of the mix: 15 cells,
/// 1020 distinct requests, which longer phases cycle through.
const PER_CELL: usize = 68;
/// Phase A's offered rate: about a quarter of the saturation rate
/// measured on a 2-core machine, so queues stay short.
const RATE: f64 = 200.0;
/// Phase B's closed window.
const WINDOW: usize = 8;
const WARMUP_REQUESTS: usize = 128;
/// Validity guard: a load generator later than this at p99 no longer
/// offers the intended load.
pub const MAX_LAG_P99_MS: f64 = 5.0;
/// Tag of the stderr lines the driver and workers report `VmHWM` on.
const RSS_TAG: &str = "es-benchmark-rss";
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn report_rss(role: &str) {
    if let Some(kib) = peak_rss_kib() {
        eprintln!("{RSS_TAG} {role} {kib}");
    }
}

/// `worker`: a service worker on stdin/stdout.
pub fn worker_main() -> Result<bool, String> {
    run_worker().map_err(|e| format!("worker: {e}"))?;
    report_rss("worker");
    Ok(true)
}

/// `driver SOCKET`: the service driver with default configuration.
pub fn driver_main(argv: &[String]) -> Result<bool, String> {
    let socket = argv.first().ok_or("driver needs a socket path")?;
    let workers =
        WorkerCommand::current_exe(&["worker"]).map_err(|e| format!("current_exe: {e}"))?;
    run_driver(ServeConfig::new(socket), workers).map_err(|e| format!("driver: {e}"))?;
    report_rss("driver");
    Ok(true)
}

/// A driver child process and the thread draining its stderr (which
/// its workers share), collecting their `VmHWM` reports.
struct Driver {
    child: Child,
    socket: PathBuf,
    stderr: JoinHandle<u64>,
}

impl Driver {
    fn spawn(socket: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("driver")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn driver: {e}"))?;
        let err = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut kib = 0;
            for line in BufReader::new(err).lines().map_while(Result::ok) {
                match line.strip_prefix(RSS_TAG) {
                    Some(rest) => {
                        kib += rest
                            .split_whitespace()
                            .nth(1)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                    None => eprintln!("{line}"),
                }
            }
            kib
        });
        Ok(Self {
            child,
            socket: socket.to_path_buf(),
            stderr,
        })
    }

    /// Ask the driver to drain and exit; returns the summed peak RSS
    /// (KiB) the driver and its workers reported.
    fn shutdown(mut self, conn: &mut Conn) -> Result<u64, String> {
        write_frame(&mut conn.writer, &Frame::Shutdown).map_err(|e| format!("shutdown: {e}"))?;
        let t0 = Instant::now();
        while self
            .child
            .try_wait()
            .map_err(|e| format!("wait driver: {e}"))?
            .is_none()
        {
            if t0.elapsed() > IO_TIMEOUT {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("driver did not shut down".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_file(&self.socket);
        self.stderr
            .join()
            .map_err(|_| "stderr reader panicked".to_string())
    }
}

/// One client connection, split into its two directions.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Self, String> {
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if t0.elapsed() > IO_TIMEOUT => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let mut writer = BufWriter::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        write_preamble(&mut writer).map_err(|e| format!("preamble: {e}"))?;
        let mut reader = BufReader::new(stream);
        read_preamble(&mut reader).map_err(|e| format!("preamble: {e}"))?;
        Ok(Self { reader, writer })
    }

    fn recv(&mut self) -> Result<Frame, String> {
        read_frame(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "driver closed the connection".to_string())
    }
}

/// What a reply said about its request: the digest of the normalized
/// schedule bytes, or why there was none.
type Reply = Result<u64, String>;

fn normalized_digest(schedule: WireSchedule) -> u64 {
    let bytes = Frame::Schedule(ScheduleReply {
        id: 0,
        attempts: 0,
        schedule,
    })
    .encode();
    fnv1a(FNV_BASIS, &bytes)
}

fn classify(frame: Frame) -> (u64, Reply) {
    match frame {
        Frame::Schedule(r) => (r.id, Ok(normalized_digest(r.schedule))),
        Frame::Reject { id, reason } => (id, Err(format!("rejected: {reason}"))),
        Frame::Overloaded { id, .. } => (id, Err("shed".to_string())),
        other => (u64::MAX, Err(format!("unexpected frame {other:?}"))),
    }
}

fn request(reqs: &[Request], k: usize) -> Request {
    let mut r = reqs[k % reqs.len()].clone();
    r.id = k as u64;
    r
}

struct Mix {
    reqs: Vec<Request>,
    algos: Vec<&'static str>,
    tasks: Vec<usize>,
}

/// The request mix: `ServiceMix` draws, stratified so that every
/// (algorithm, processor count) cell holds the same number of requests.
/// The expensive cells (probing presets on 16 processors) carry most
/// of the load, so an unstratified draw of this size would change the
/// offered work by several per cent from seed to seed.
fn mix(seed: u64) -> Mix {
    let processors = vec![4, 8, 16];
    let candidates = ServiceMix {
        requests: 8 * PER_CELL * SERVICE_ALGOS.len() * processors.len(),
        processors: processors.clone(),
        tasks: (60, 150),
        seed: derive_seed(seed, 0x5e77_e000),
        ..ServiceMix::default()
    }
    .generate();
    let mut filled: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    let stream: Vec<_> = candidates
        .into_iter()
        .filter(|r| {
            let n = filled.entry((r.algo, r.instance.processors)).or_default();
            *n += 1;
            *n <= PER_CELL
        })
        .collect();
    Mix {
        reqs: stream
            .iter()
            .enumerate()
            .map(|(i, r)| to_wire_request(i as u64, r))
            .collect(),
        algos: stream.iter().map(|r| r.algo).collect(),
        tasks: stream
            .iter()
            .map(|r| r.instance.tasks.unwrap_or_default())
            .collect(),
    }
}

/// A running service: the request mix, the driver with its workers,
/// one connection, and the replies to the warm-up requests.
struct Service {
    mix: Mix,
    driver: Driver,
    conn: Conn,
    warm: Vec<(usize, Reply)>,
}

/// Set-up: the mix, a driver with its workers, a connection and the
/// warm-up requests (closed loop, one at a time).
fn setup(seed: u64, socket: &Path) -> Result<Service, String> {
    let mix = mix(seed);
    let driver = Driver::spawn(socket)?;
    let mut conn = Conn::connect(socket)?;
    let mut warm = Vec::with_capacity(WARMUP_REQUESTS);
    for k in 0..WARMUP_REQUESTS {
        write_frame(&mut conn.writer, &Frame::Request(request(&mix.reqs, k)))
            .map_err(|e| format!("send: {e}"))?;
        warm.push((k, classify(conn.recv()?).1));
    }
    Ok(Service {
        mix,
        driver,
        conn,
        warm,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One open-loop request: when it was due, when the sender got to it,
/// and when and how it was answered.
struct Offered {
    due: Instant,
    sent: Instant,
    got: Option<(Instant, Reply)>,
}

/// Phase A: one request due at each seeded Poisson offset.
fn open_loop(conn: &mut Conn, reqs: &[Request], offsets: &[f64]) -> Vec<Offered> {
    let n = offsets.len();
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = offsets
        .iter()
        .map(|&o| start + Duration::from_secs_f64(o))
        .collect();
    let (writer, reader) = (&mut conn.writer, &mut conn.reader);
    let (sent, got) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (k, &d) in due.iter().enumerate() {
                sleep_until(d);
                sent.push(Instant::now());
                if write_frame(writer, &Frame::Request(request(reqs, k))).is_err() {
                    break;
                }
            }
            sent
        });
        let mut got: Vec<Option<(Instant, Reply)>> = vec![None; n];
        for _ in 0..n {
            let Ok(Some(frame)) = read_frame(reader) else {
                break;
            };
            let t = Instant::now();
            let (id, reply) = classify(frame);
            if let Some(slot) = got.get_mut(id as usize) {
                *slot = Some((t, reply));
            }
        }
        (sender.join().expect("sender thread"), got)
    });
    let mut out = Vec::with_capacity(n);
    for (k, got) in got.into_iter().enumerate() {
        out.push(Offered {
            due: due[k],
            sent: sent.get(k).copied().unwrap_or(due[k]),
            got,
        });
    }
    out
}

/// Phase B: a closed window for `secs` seconds, request ids from
/// `first`. Returns the replies and the seconds until the last one.
fn closed_loop(
    conn: &mut Conn,
    reqs: &[Request],
    first: usize,
    secs: f64,
) -> Result<(Vec<(usize, Reply)>, f64), String> {
    let t0 = Instant::now();
    let mut next = first;
    for _ in 0..WINDOW {
        write_frame(&mut conn.writer, &Frame::Request(request(reqs, next)))
            .map_err(|e| format!("send: {e}"))?;
        next += 1;
    }
    let mut inflight = WINDOW;
    let mut replies = Vec::new();
    let mut last = t0;
    while inflight > 0 {
        let (id, reply) = classify(conn.recv()?);
        last = Instant::now();
        inflight -= 1;
        replies.push((id as usize, reply));
        if t0.elapsed().as_secs_f64() < secs {
            write_frame(&mut conn.writer, &Frame::Request(request(reqs, next)))
                .map_err(|e| format!("send: {e}"))?;
            next += 1;
            inflight += 1;
        }
    }
    Ok((replies, last.duration_since(t0).as_secs_f64()))
}

fn driver_stats(conn: &mut Conn) -> Result<DriverStats, String> {
    write_frame(&mut conn.writer, &Frame::StatsRequest).map_err(|e| format!("send: {e}"))?;
    match conn.recv()? {
        Frame::Stats(s) => Ok(s),
        other => Err(format!("expected stats, got {other:?}")),
    }
}

/// In-process reference digest and compute time of every listed mix
/// index, on `threads` threads.
fn references(reqs: &[Request], idx: &[usize], threads: usize) -> Vec<(usize, Reply, f64)> {
    let chunk = idx.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = idx
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let (r, t0, t1) = timed(|| compute_schedule(&reqs[i]));
                            let reply = r
                                .map(normalized_digest)
                                .map_err(|e| format!("reference rejects: {e}"));
                            (i, reply, ms(t0, t1))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

pub fn run(args: &Args, started: Instant, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(args.workload.name());
    let socket = PathBuf::from(format!("es-serve-{}.sock", std::process::id()));
    let mut setups = Vec::new();
    let mut from = started;
    let mut live = None;
    for k in 0..args.shards() {
        let mut service = setup(args.seed, &socket)?;
        setups.push(from.elapsed().as_secs_f64());
        if k + 1 < args.shards() {
            service.driver.shutdown(&mut service.conn)?;
            from = Instant::now();
        } else {
            live = Some(service);
        }
    }
    let Service {
        mix: m,
        driver,
        mut conn,
        warm,
    } = live.expect("at least one set-up");

    let secs = args.measure_seconds();
    // Three quarters of the run offer open-loop load, the last quarter
    // measures capacity.
    let n_a = (RATE * secs * 0.75).round() as usize;
    let offsets = poisson_offsets(args.seed, RATE, n_a);
    let phase_a = open_loop(&mut conn, &m.reqs, &offsets);
    let (phase_b, b_secs) = closed_loop(&mut conn, &m.reqs, n_a, secs * 0.25)?;
    let stats = driver_stats(&mut conn)?;
    let others_kib = driver.shutdown(&mut conn)?;

    // Verification against the in-process reference, once per
    // distinct request.
    let n_mix = m.reqs.len();
    let mut used: Vec<usize> = if args.trace {
        (0..n_mix).collect()
    } else {
        (0..n_a + phase_b.len()).map(|k| k % n_mix).collect()
    };
    used.sort_unstable();
    used.dedup();
    let refs = references(&m.reqs, &used, if args.trace { 1 } else { 2 });
    let mut want: Vec<Option<&Reply>> = vec![None; n_mix];
    for (i, r, _) in &refs {
        want[*i] = Some(r);
    }
    let check = |out: &mut Outcome, k: usize, got: Option<&Reply>, counted: bool| {
        let verdict = match (got, want[k % n_mix]) {
            (None, _) => Err("lost: no reply".to_string()),
            (Some(Err(e)), _) | (Some(Ok(_)), Some(Err(e))) => Err(e.clone()),
            (Some(Ok(g)), Some(Ok(w))) if g == w => Ok(()),
            (Some(Ok(_)), _) => Err("reply differs from the in-process reference".to_string()),
        };
        if let Err(e) = verdict {
            let msg = format!("request {k} (mix #{}): {e}", k % n_mix);
            if counted {
                out.op_failed(msg);
            } else {
                out.problem(msg);
            }
        }
    };
    for (k, r) in &warm {
        check(&mut out, *k, Some(r), false);
    }
    let mut latency_ms = Vec::with_capacity(n_a);
    let mut lag_ms = Vec::with_capacity(n_a);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for (k, r) in phase_a.iter().enumerate() {
        out.attempted += 1;
        check(&mut out, k, r.got.as_ref().map(|g| &g.1), true);
        lag_ms.push(ms(r.due, r.sent));
        if let Some((t, Ok(_))) = r.got {
            latency_ms.push(ms(r.due, t));
            if args.trace && k % 2 == 0 {
                traced_ms.push(ms(r.due, t));
                let op = k as u64;
                let root = tr.span(op, "request", r.due, t, None);
                tr.span(op, "loadgen.lag", r.due, r.sent, Some(root));
                tr.span(op, "serve.round_trip", r.sent, t, Some(root));
            } else {
                untraced_ms.push(ms(r.due, t));
            }
        }
    }
    let mut b_tasks = 0usize;
    for (k, r) in &phase_b {
        out.attempted += 1;
        check(&mut out, *k, Some(r), true);
        b_tasks += m.tasks[k % n_mix];
    }
    out.digest = format!(
        "{:016x}",
        refs.iter().fold(FNV_BASIS, |h, (_, r, _)| {
            fnv1a(h, &r.as_ref().map_or(0, |d| *d).to_le_bytes())
        })
    );

    out.push("serve.retries", "count", stats.retries as f64, 1);
    out.push("serve.shed", "count", stats.shed as f64, 1);
    out.push("serve.worker_kills", "count", stats.worker_kills as f64, 1);

    if args.trace {
        let compute_ms: Vec<f64> = refs.iter().map(|r| r.2).collect();
        let mut layers = Layers::default();
        side_measurements(&m, &mut layers, &mut out, tr);
        push_common(&mut out, &layers);
        out.push_pct("latency_ms_p50", "ms", &latency_ms, 500);
        crate::push_trace_overhead(&mut out, &untraced_ms, &traced_ms);
        out.push_pct("serve.compute_ms_p50", "ms", &compute_ms, 500);
        out.push_pct("serve.compute_ms_p99", "ms", &compute_ms, 990);
        let p50 = |name: &str| out.metric(name).map(|m| m.value);
        if let (Some(a), Some(c)) = (p50("latency_ms_p50"), p50("serve.compute_ms_p50")) {
            out.push("serve.overhead_ms_p50", "ms", a - c, latency_ms.len());
        }
    } else {
        // The validity guard needs the untraced run's full sample.
        out.push_pct("loadgen.lag_ms_p99", "ms", &lag_ms, 990);
        if let Some(lag) = out.metric("loadgen.lag_ms_p99").map(|m| m.value) {
            if lag > MAX_LAG_P99_MS {
                out.problem(format!(
                    "load generator lag p99 {lag:.2} ms exceeds {MAX_LAG_P99_MS} ms"
                ));
            }
        }
        push_e2e(
            &mut out,
            &setups,
            &latency_ms,
            b_tasks as f64 / b_secs,
            others_kib,
        );
    }
    Ok(out)
}

/// The traced run's layer calls, once per distinct request of the mix:
/// instance generation, levels, the scheduler alone, and the checks
/// and replays on the reference reply's schedule.
fn side_measurements(m: &Mix, layers: &mut Layers, out: &mut Outcome, tr: &mut Tracer) {
    for (i, req) in m.reqs.iter().enumerate() {
        let op = 1_000_000 + i as u64;
        let (inst, g0, g1) = timed(|| es_workload::generate(&req.instance.to_config()));
        let root = tr.span(op, "reference", g0, g1, None);
        layers.generate_ms.push(ms(g0, g1));
        tr.span(op, "workload.generate", g0, g1, Some(root));
        layers.levels(&inst.dag, tr, op, root);
        let Some(preset) = AlgoId::parse(m.algos[i]) else {
            out.problem(format!("mix #{i}: unknown algorithm {}", m.algos[i]));
            continue;
        };
        let sched = crate::offline::build(preset);
        let (plain, s0, s1) = timed(|| sched.schedule(&inst.dag, &inst.topo));
        layers.schedule_ms.push(ms(s0, s1));
        layers
            .schedule_ms_by
            .entry(preset.name())
            .or_default()
            .push(ms(s0, s1));
        tr.span(op, "core.schedule", s0, s1, Some(root));
        if let Err(e) = plain {
            out.problem(format!("mix #{i}: {e}"));
        }
        layers
            .request_bytes
            .push(Frame::Request(req.clone()).encode().len() as f64);
        let computed = compute_schedule(req)
            .map_err(|e| e.to_string())
            .and_then(|w| w.to_schedule().map_err(|e| e.to_string()));
        let s = match computed {
            Ok(s) => s,
            Err(e) => {
                out.problem(format!("mix #{i}: {e}"));
                continue;
            }
        };
        layers.routes(&inst.topo, &s, out, tr, op, root);
        let mut replay = LinkReplay::new(&inst.topo);
        replay.commit(layers, &s, 0);
        replay.release(layers, &s, 0);
        layers.verify(&inst.dag, &inst.topo, &s, out, tr, op, root);
        layers.wire(&s, out, tr, op, root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_a_function_of_the_seed() {
        let (a, b, c) = (mix(2006), mix(2006), mix(2007));
        assert_eq!(a.reqs.len(), 1020);
        for algo in SERVICE_ALGOS {
            assert_eq!(a.algos.iter().filter(|x| **x == algo).count(), 204);
        }
        assert_eq!(a.reqs, b.reqs);
        assert_ne!(a.reqs, c.reqs);
        assert!(a.tasks.iter().all(|t| (60..=150).contains(t)));
        // Request k cycles through the mix under its own id.
        let index = a.reqs.len() + 3;
        let req = request(&a.reqs, index);
        assert_eq!(req.id, index as u64);
        assert_eq!(req.instance, a.reqs[3].instance);
    }
}
