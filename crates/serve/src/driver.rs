//! The es-serve driver: admission, partitioning, supervision and
//! fault tolerance (DESIGN.md §13.2).
//!
//! ## Architecture: one owner, no shared state
//!
//! Every piece of mutable driver state — the admission queue, the job
//! table, the worker table, the stats — is owned by a **single event
//! loop** fed by an mpsc channel. Listener, per-connection readers,
//! per-worker readers and the ticker are I/O pumps that only convert
//! bytes/time into `Event`s; client writer threads only convert
//! frames back into bytes. No mutex guards any driver state, so
//! there is nothing to poison, no lock ordering to get wrong, and the
//! supervision logic is exactly as testable as a pure state machine.
//!
//! ## Supervision state machine (per worker)
//!
//! ```text
//!           spawn                 dispatch
//!   (dead) ───────▶ idle ───────────────────▶ busy(job, since)
//!     ▲              │ pong age > stall_t       │
//!     │              ▼                          │ reply ──▶ idle
//!     │  respawn   killed ◀──── busy age > stall_t (wedged)
//!     └──────────────┘      ◀──── stdout EOF (crashed/killed)
//! ```
//!
//! A worker death while busy turns the in-flight attempt into a
//! retry: the job re-enters the queue front after an exponential
//! backoff, until its deadline or the retry budget runs out. Workers
//! are stateless (requests carry generator coordinates), so a retry
//! on any worker reproduces the same schedule bit for bit.

use crate::chaos::ChaosAction;
use crate::config::{ServeConfig, ShedPolicy};
use es_wire::{
    read_frame, read_preamble, write_frame, write_preamble, DriverStats, Frame, RejectReason,
    Request,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to launch a worker process. The default is this binary's own
/// `worker` subcommand; es-cli substitutes `es-experiments serve
/// worker`.
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments selecting the worker entry point.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// Launch the current executable with the given subcommand argv.
    pub fn current_exe(args: &[&str]) -> std::io::Result<Self> {
        Ok(Self {
            program: std::env::current_exe()?,
            args: args.iter().map(ToString::to_string).collect(),
        })
    }
}

/// Everything that can happen to the driver, funneled into the event
/// loop's channel by the I/O pump threads.
enum Event {
    /// A client connected; `tx` feeds its writer thread.
    ClientConnected { conn: u64, tx: Sender<Frame> },
    /// A frame arrived from a client connection.
    ClientFrame { conn: u64, frame: Frame },
    /// A client connection ended (EOF or error).
    ClientGone { conn: u64 },
    /// A frame arrived from a worker's stdout.
    WorkerFrame { worker: u64, frame: Frame },
    /// A worker's stdout closed: the process crashed, was killed, or
    /// exited.
    WorkerGone { worker: u64 },
    /// Periodic timer: deadlines, backoff release, heartbeats.
    Tick,
}

/// One admitted, not-yet-answered request.
struct Job {
    conn: u64,
    client_id: u64,
    request: Request,
    attempts: u32,
    admitted: Instant,
    deadline: Instant,
    /// Set while the job waits out a retry backoff.
    not_before: Option<Instant>,
}

/// One live worker process.
struct WorkerSlot {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    /// `Some((job, dispatched_at))` while an attempt is in flight.
    busy: Option<(u64, Instant)>,
    last_ping: Instant,
    last_pong: Instant,
    /// Chaos-killed: the SIGKILL is racing the worker, which may still
    /// flush a reply first. Replies from a doomed worker are dropped
    /// so the attempt dies with it and the retry path takes over.
    doomed: bool,
}

struct Core {
    cfg: ServeConfig,
    worker_cmd: WorkerCommand,
    events: Sender<Event>,
    conns: BTreeMap<u64, Sender<Frame>>,
    workers: BTreeMap<u64, WorkerSlot>,
    jobs: BTreeMap<u64, Job>,
    /// Dispatch order; retries enter at the front.
    queue: VecDeque<u64>,
    /// Jobs waiting out a retry backoff.
    delayed: Vec<u64>,
    stats: DriverStats,
    draining: bool,
    next_worker: u64,
    next_job: u64,
}

/// Run the driver until a client sends `Shutdown` and all admitted
/// work has drained. Returns the final stats (also queryable live via
/// `StatsRequest`).
pub fn run_driver(cfg: ServeConfig, worker_cmd: WorkerCommand) -> std::io::Result<DriverStats> {
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let (tx, rx) = channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));

    let accept_thread = spawn_acceptor(listener, tx.clone(), Arc::clone(&stop));
    spawn_ticker(tx.clone(), tick_period(&cfg));

    let mut core = Core {
        worker_cmd,
        events: tx,
        conns: BTreeMap::new(),
        workers: BTreeMap::new(),
        jobs: BTreeMap::new(),
        queue: VecDeque::new(),
        delayed: Vec::new(),
        stats: DriverStats::default(),
        draining: false,
        next_worker: 0,
        next_job: 0,
        cfg,
    };
    for _ in 0..core.cfg.workers.max(1) {
        core.spawn_worker()?;
    }

    core.pump(&rx);

    // Drained: stop the acceptor (a dummy connection unblocks
    // `accept`), shut workers down, remove the socket.
    stop.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&core.cfg.socket);
    let _ = accept_thread.join();
    for (_, mut slot) in std::mem::take(&mut core.workers) {
        let _ = write_frame(&mut slot.stdin, &Frame::Shutdown);
        drop(slot.stdin);
        let _ = slot.child.wait();
    }
    let _ = std::fs::remove_file(&core.cfg.socket);
    Ok(core.stats)
}

/// Tick period: fine enough to honor heartbeats and backoffs with
/// useful resolution, coarse enough to stay off the profile.
fn tick_period(cfg: &ServeConfig) -> Duration {
    Duration::from_millis((cfg.heartbeat_ms / 4).clamp(1, 50))
}

fn spawn_acceptor(
    listener: UnixListener,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut next_conn = 0u64;
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { break };
            next_conn += 1;
            if wire_up_client(next_conn, stream, &tx).is_err() {
                break; // event loop is gone
            }
        }
    })
}

/// Set up the reader + writer pump threads for one client connection.
/// `Err(())` means the event loop is gone (its receiver hung up).
fn wire_up_client(conn: u64, stream: UnixStream, events: &Sender<Event>) -> Result<(), ()> {
    let write_half = stream.try_clone().ok();
    let (frame_tx, frame_rx) = channel::<Frame>();
    events
        .send(Event::ClientConnected { conn, tx: frame_tx })
        .map_err(|_| ())?;

    if let Some(write_half) = write_half {
        std::thread::spawn(move || client_writer(write_half, &frame_rx));
    }
    let events = events.clone();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        if read_preamble(&mut reader).is_ok() {
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if events.send(Event::ClientFrame { conn, frame }).is_err() {
                    return;
                }
            }
        }
        let _ = events.send(Event::ClientGone { conn });
    });
    Ok(())
}

fn client_writer(stream: UnixStream, frames: &Receiver<Frame>) {
    let mut writer = BufWriter::new(stream);
    if write_preamble(&mut writer).is_err() || writer.flush().is_err() {
        return;
    }
    while let Ok(frame) = frames.recv() {
        if write_frame(&mut writer, &frame).is_err() {
            return;
        }
    }
}

fn spawn_ticker(tx: Sender<Event>, period: Duration) {
    std::thread::spawn(move || {
        while tx.send(Event::Tick).is_ok() {
            std::thread::sleep(period);
        }
    });
}

impl Core {
    /// The event loop: runs until draining completes.
    fn pump(&mut self, rx: &Receiver<Event>) {
        while let Ok(event) = rx.recv() {
            match event {
                Event::ClientConnected { conn, tx } => {
                    self.conns.insert(conn, tx);
                }
                Event::ClientGone { conn } => {
                    self.conns.remove(&conn);
                }
                Event::ClientFrame { conn, frame } => self.on_client_frame(conn, frame),
                Event::WorkerFrame { worker, frame } => self.on_worker_frame(worker, frame),
                Event::WorkerGone { worker } => self.on_worker_death(worker),
                Event::Tick => self.on_tick(),
            }
            if self.draining && self.jobs.is_empty() {
                return;
            }
        }
    }

    fn reply(&mut self, conn: u64, frame: Frame) {
        if let Some(tx) = self.conns.get(&conn) {
            // A send error means the client vanished; its reply is
            // undeliverable, which is its problem, not ours.
            let _ = tx.send(frame);
        }
    }

    fn on_client_frame(&mut self, conn: u64, frame: Frame) {
        match frame {
            Frame::Request(request) => self.admit(conn, request),
            Frame::StatsRequest => {
                self.refresh_gauges();
                let stats = self.stats.clone();
                self.reply(conn, Frame::Stats(stats));
            }
            Frame::Shutdown => {
                self.draining = true;
            }
            Frame::Ping { nonce } => self.reply(conn, Frame::Pong { nonce }),
            // Clients have no business sending worker/driver reply
            // frames; ignore instead of tearing the connection down.
            _ => {}
        }
    }

    /// Admission control: bounded queue with an explicit shed policy.
    fn admit(&mut self, conn: u64, request: Request) {
        if self.draining {
            self.stats.rejected += 1;
            let id = request.id;
            self.reply(
                conn,
                Frame::Reject {
                    id,
                    reason: RejectReason::ShuttingDown,
                },
            );
            return;
        }
        let pending = self.queue.len() + self.delayed.len();
        if pending >= self.cfg.queue_cap {
            match self.cfg.shed {
                ShedPolicy::RejectNewest => {
                    self.stats.count_shed(request.tenant);
                    let id = request.id;
                    let queue_len = u32::try_from(pending).unwrap_or(u32::MAX);
                    self.reply(conn, Frame::Overloaded { id, queue_len });
                    return;
                }
                ShedPolicy::RejectOldest => self.shed_oldest_queued(),
            }
        }
        let now = Instant::now();
        self.next_job += 1;
        let job_id = self.next_job;
        let deadline = now + self.cfg.effective_deadline(request.deadline_ms);
        self.jobs.insert(
            job_id,
            Job {
                conn,
                client_id: request.id,
                request,
                attempts: 0,
                admitted: now,
                deadline,
                not_before: None,
            },
        );
        self.queue.push_back(job_id);
        self.stats.admitted += 1;
        self.dispatch_ready();
    }

    /// Shed the earliest-admitted *queued* job (retries in the
    /// backoff pen and dispatched work are never shed).
    fn shed_oldest_queued(&mut self) {
        let oldest = self
            .queue
            .iter()
            .copied()
            .min_by_key(|id| self.jobs.get(id).map(|j| j.admitted))
            .into_iter()
            .chain(self.delayed.iter().copied())
            .min_by_key(|id| self.jobs.get(id).map(|j| j.admitted));
        let Some(victim) = oldest else { return };
        self.queue.retain(|&id| id != victim);
        self.delayed.retain(|&id| id != victim);
        if let Some(job) = self.jobs.remove(&victim) {
            self.stats.count_shed(job.request.tenant);
            let queue_len = u32::try_from(self.queue.len()).unwrap_or(u32::MAX);
            self.reply(
                job.conn,
                Frame::Overloaded {
                    id: job.client_id,
                    queue_len,
                },
            );
        }
    }

    fn on_worker_frame(&mut self, worker: u64, frame: Frame) {
        match frame {
            Frame::Pong { .. } => {
                if let Some(slot) = self.workers.get_mut(&worker) {
                    slot.last_pong = Instant::now();
                }
            }
            Frame::Schedule(mut reply) => {
                let job_id = reply.id;
                if self.clear_busy(worker, job_id) {
                    if let Some(job) = self.jobs.remove(&job_id) {
                        self.stats.completed += 1;
                        reply.id = job.client_id;
                        reply.attempts = job.attempts;
                        self.reply(job.conn, Frame::Schedule(reply));
                    }
                    self.dispatch_ready();
                }
            }
            // A deterministic compute rejection (bad request,
            // scheduler error, panic) would repeat on retry;
            // forward it instead of burning the retry budget.
            Frame::Reject { id, reason } if self.clear_busy(worker, id) => {
                if let Some(job) = self.jobs.remove(&id) {
                    self.stats.rejected += 1;
                    self.reply(
                        job.conn,
                        Frame::Reject {
                            id: job.client_id,
                            reason,
                        },
                    );
                }
                self.dispatch_ready();
            }
            _ => {}
        }
    }

    /// Mark `worker` idle if it was busy on `job`. Returns false for
    /// stale frames (e.g. a reply racing a supervision kill, arriving
    /// after the job was already requeued) and for doomed workers (a
    /// chaos-killed attempt must die even if its reply won the race
    /// against the signal). A verdict is proof of liveness, so it
    /// counts as a pong: pings go only to idle workers, and a worker
    /// just out of a long run of back-to-back jobs would otherwise look
    /// silent for the whole run.
    fn clear_busy(&mut self, worker: u64, job: u64) -> bool {
        match self.workers.get_mut(&worker) {
            Some(slot) if !slot.doomed && matches!(slot.busy, Some((j, _)) if j == job) => {
                slot.busy = None;
                slot.last_pong = Instant::now();
                true
            }
            _ => false,
        }
    }

    /// A worker's stdout closed: recover its in-flight attempt (if
    /// any) into the retry path, then respawn a replacement.
    fn on_worker_death(&mut self, worker: u64) {
        let Some(slot) = self.workers.remove(&worker) else {
            return; // stale event for an already-replaced worker
        };
        self.reap(slot);
        if let Err(e) = self.spawn_worker() {
            eprintln!("es-serve: respawn failed: {e}");
        } else {
            self.stats.worker_respawns += 1;
        }
        self.dispatch_ready();
    }

    /// Take a dead/killed worker's slot apart: wait the child and
    /// route its in-flight job into retry/backoff.
    fn reap(&mut self, mut slot: WorkerSlot) {
        let _ = slot.child.kill();
        let _ = slot.child.wait();
        if let Some((job_id, _)) = slot.busy {
            self.retry_or_reject(job_id);
        }
    }

    /// An attempt failed without a worker verdict (death or stall
    /// kill): requeue with exponential backoff, unless the deadline
    /// or the retry budget says otherwise.
    fn retry_or_reject(&mut self, job_id: u64) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        let now = Instant::now();
        if now >= job.deadline {
            let (conn, id) = (job.conn, job.client_id);
            self.jobs.remove(&job_id);
            self.stats.deadline_rejected += 1;
            self.reply(
                conn,
                Frame::Reject {
                    id,
                    reason: RejectReason::DeadlineExceeded,
                },
            );
            return;
        }
        if job.attempts >= self.cfg.retry_max {
            let (conn, id, attempts) = (job.conn, job.client_id, job.attempts);
            self.jobs.remove(&job_id);
            self.stats.rejected += 1;
            self.reply(
                conn,
                Frame::Reject {
                    id,
                    reason: RejectReason::RetriesExhausted {
                        detail: format!("lost after {attempts} attempts"),
                    },
                },
            );
            return;
        }
        job.not_before = Some(now + self.cfg.backoff(job.attempts + 1));
        self.stats.retries += 1;
        self.delayed.push(job_id);
    }

    fn spawn_worker(&mut self) -> std::io::Result<()> {
        let mut child = Command::new(&self.worker_cmd.program)
            .args(&self.worker_cmd.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdin = BufWriter::new(stdin);
        write_preamble(&mut stdin).map_err(|e| std::io::Error::other(e.to_string()))?;
        stdin.flush()?;

        self.next_worker += 1;
        let worker = self.next_worker;
        let events = self.events.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            if read_preamble(&mut reader).is_ok() {
                while let Ok(Some(frame)) = read_frame(&mut reader) {
                    if events.send(Event::WorkerFrame { worker, frame }).is_err() {
                        return;
                    }
                }
            }
            let _ = events.send(Event::WorkerGone { worker });
        });

        let now = Instant::now();
        self.workers.insert(
            worker,
            WorkerSlot {
                child,
                stdin,
                busy: None,
                last_ping: now,
                last_pong: now,
                doomed: false,
            },
        );
        Ok(())
    }

    /// Dispatch queued jobs onto idle workers, applying chaos to
    /// first attempts when configured.
    fn dispatch_ready(&mut self) {
        loop {
            let Some(worker) = self
                .workers
                .iter()
                .find(|(_, s)| s.busy.is_none())
                .map(|(&id, _)| id)
            else {
                return;
            };
            let Some(job_id) = self.queue.pop_front() else {
                return;
            };
            let Some(job) = self.jobs.get_mut(&job_id) else {
                continue; // shed/expired while queued
            };
            job.attempts += 1;
            job.not_before = None;
            let attempts = job.attempts;
            let mut request = job.request.clone();
            request.id = job_id;

            let chaos = match self.cfg.chaos {
                Some(spec) if attempts == 1 => spec.decide(job_id),
                _ => ChaosAction::None,
            };
            let stall_ms = self.cfg.stall_timeout_ms.saturating_mul(3);
            let slot = self.workers.get_mut(&worker).expect("worker id just seen");
            slot.busy = Some((job_id, Instant::now()));
            let sent = (|| -> Result<(), es_wire::WireError> {
                if chaos == ChaosAction::StallWorker {
                    write_frame(&mut slot.stdin, &Frame::Stall { millis: stall_ms })?;
                }
                write_frame(&mut slot.stdin, &Frame::Request(request))
            })();
            match chaos {
                ChaosAction::KillWorker => {
                    self.stats.chaos_kills += 1;
                    let slot = self.workers.get_mut(&worker).expect("still present");
                    // A fast worker can compute and flush the reply
                    // before the SIGKILL lands; dooming the slot makes
                    // such a reply stale so the attempt reliably dies.
                    slot.doomed = true;
                    let _ = slot.child.kill();
                    // Death reaches us as WorkerGone via its reader.
                }
                ChaosAction::StallWorker => self.stats.chaos_stalls += 1,
                ChaosAction::None => {}
            }
            if sent.is_err() {
                // The pipe is already broken — treat as a death now
                // rather than waiting for the reader's EOF event.
                self.on_worker_death(worker);
            }
        }
    }

    /// Timer duties: release backoffs, expire deadlines, heartbeat
    /// idle workers, kill wedged ones, top up dispatch.
    fn on_tick(&mut self) {
        let now = Instant::now();

        // Backoff pen → queue front (retries beat fresh admissions).
        let mut released: Vec<u64> = Vec::new();
        self.delayed.retain(|&id| {
            let ready = self
                .jobs
                .get(&id)
                .is_none_or(|j| j.not_before.is_none_or(|t| t <= now));
            if ready {
                released.push(id);
            }
            !ready
        });
        for id in released {
            if self.jobs.contains_key(&id) {
                self.queue.push_front(id);
            }
        }

        // Deadline scan over queued jobs (in-flight attempts run to
        // completion; their deadline is enforced on the retry path).
        let expired: Vec<u64> = self
            .queue
            .iter()
            .copied()
            .filter(|id| self.jobs.get(id).is_some_and(|j| now >= j.deadline))
            .collect();
        for id in expired {
            self.queue.retain(|&q| q != id);
            if let Some(job) = self.jobs.remove(&id) {
                self.stats.deadline_rejected += 1;
                self.reply(
                    job.conn,
                    Frame::Reject {
                        id: job.client_id,
                        reason: RejectReason::DeadlineExceeded,
                    },
                );
            }
        }

        // Supervision: wedged-busy and silent-idle workers die here.
        let stall = Duration::from_millis(self.cfg.stall_timeout_ms);
        let heartbeat = Duration::from_millis(self.cfg.heartbeat_ms);
        let worker_ids: Vec<u64> = self.workers.keys().copied().collect();
        for id in worker_ids {
            let Some(slot) = self.workers.get_mut(&id) else {
                continue;
            };
            let wedged = match slot.busy {
                Some((_, since)) => now.duration_since(since) > stall,
                None => now.duration_since(slot.last_pong) > stall + heartbeat,
            };
            if wedged {
                self.stats.worker_kills += 1;
                if let Some(slot) = self.workers.remove(&id) {
                    self.reap(slot);
                }
                if self.spawn_worker().is_ok() {
                    self.stats.worker_respawns += 1;
                }
                continue;
            }
            if slot.busy.is_none() && now.duration_since(slot.last_ping) >= heartbeat {
                slot.last_ping = now;
                let nonce = id;
                if write_frame(&mut slot.stdin, &Frame::Ping { nonce }).is_err() {
                    self.on_worker_death(id);
                }
            }
        }

        self.dispatch_ready();
    }

    /// Refresh the instantaneous gauges before exporting stats.
    fn refresh_gauges(&mut self) {
        self.stats.queue_len =
            u32::try_from(self.queue.len() + self.delayed.len()).unwrap_or(u32::MAX);
        self.stats.workers_alive = u32::try_from(self.workers.len()).unwrap_or(u32::MAX);
        self.stats.inflight =
            u32::try_from(self.workers.values().filter(|s| s.busy.is_some()).count())
                .unwrap_or(u32::MAX);
    }
}
