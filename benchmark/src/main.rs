//! `es-benchmark`: the edge scheduler measured end to end and layer by
//! layer, from outside its public API. See `README.md` for the
//! workloads, the metrics and how to run, trace and compare.
//!
//! Invocations:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload;
//!   the last stdout line is the JSON result (end-to-end metrics, or
//!   per-layer metrics with `--trace 1`). Exit 0 only when correct.
//! * `run [--seed N] [--seconds S] [--trace] [--out FILE]` — every
//!   workload, every metric printed by name with unit and sample count,
//!   each the median of `RUNS` (three) runs.
//! * `compare A.json B.json` — verdict per (workload, metric).
//!
//! Each workload runs in its own process (`exec`), re-executed from
//! this binary with the workload's pinned `ES_THREADS`; `serve-open`
//! further re-executes it as `driver` and `worker`.

mod compare;
mod json;
mod layers;
mod offline;
mod online;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The five workloads, in run order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ProbeOne,
    ProbeTwo,
    Static,
    Online,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ProbeOne,
        Workload::ProbeTwo,
        Workload::Static,
        Workload::Online,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeOne => "paper-probe-1cpu",
            Workload::ProbeTwo => "paper-probe-2cpu",
            Workload::Static => "paper-static",
            Workload::Online => "online-shared",
            Workload::Serve => "serve-open",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `ES_THREADS` of the workload process (inherited by the serve
    /// driver and its workers). Two lanes put probing on the
    /// copy-on-write overlay path; one lane keeps it sequential.
    pub fn threads(self) -> usize {
        match self {
            Workload::ProbeTwo => 2,
            _ => 1,
        }
    }
}

/// Arguments of one workload process.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once and report only the reference digest.
    pub digest_only: bool,
}

/// A workload's inputs are set up in this many equal shards, each
/// timed on its own, and `setup_s` is their median.
pub const SHARDS: usize = 3;

impl Args {
    /// Shards to set up: all of them, except in the traced run, which
    /// works on the first shard only.
    pub fn shards(&self) -> usize {
        if self.trace {
            1
        } else {
            SHARDS
        }
    }

    /// Seconds of timed operations; the traced run measures 1/8 of the
    /// run length, since its side measurements multiply its cost.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 8.0
        } else {
            self.seconds
        }
    }

    /// The traced run alternates untraced and traced chunks of
    /// operations, so it needs at least one of each.
    pub fn min_chunks(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// Push the end-to-end metrics shared by every workload.
pub fn push_e2e(
    out: &mut Outcome,
    setups: &[f64],
    op_ms: &[f64],
    tasks_per_s: f64,
    other_rss_kib: u64,
) {
    if let Some(s) = stats::median(setups) {
        out.push("setup_s", "s", s, setups.len());
    }
    out.push_pct("latency_ms_p50", "ms", op_ms, 500);
    out.push_pct("latency_ms_p90", "ms", op_ms, 900);
    out.push_pct("latency_ms_p99", "ms", op_ms, 990);
    out.push(
        "throughput_tasks_per_s",
        "tasks/s",
        tasks_per_s,
        op_ms.len(),
    );
    match report::peak_rss_kib() {
        Some(kib) => out.push(
            "peak_rss_mb",
            "MB",
            (kib + other_rss_kib) as f64 / 1024.0,
            1,
        ),
        None => out.problem("VmHWM unreadable"),
    }
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.push("error_rate", "ratio", rate, out.attempted as usize);
}

/// `trace.overhead_pct`: traced against untraced operation p50.
pub fn push_trace_overhead(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    let p50 = |xs: &[f64]| stats::percentile(&stats::sorted(xs), 500);
    match (p50(untraced_ms), p50(traced_ms)) {
        (Some(u), Some(t)) => out.push(
            "trace.overhead_pct",
            "%",
            (t / u - 1.0) * 100.0,
            traced_ms.len(),
        ),
        _ => out.problem("trace.overhead_pct: too few operations"),
    }
}

/// Fold a schedule's every placement, bit for bit, into a digest.
pub fn schedule_digest(h: u64, s: &es_core::Schedule) -> u64 {
    use es_core::CommPlacement;
    let mut words: Vec<u64> = vec![s.makespan.to_bits(), s.tasks.len() as u64];
    for t in &s.tasks {
        words.extend([u64::from(t.proc.0), t.start.to_bits(), t.finish.to_bits()]);
    }
    for c in &s.comms {
        match c {
            CommPlacement::Local => words.push(1),
            CommPlacement::Slotted { route, times } => {
                words.push(2);
                for (hop, &(a, b)) in route.iter().zip(times) {
                    words.extend([u64::from(hop.link.0), a.to_bits(), b.to_bits()]);
                }
            }
            CommPlacement::Fluid { route, flows } => {
                words.push(3);
                for (hop, f) in route.iter().zip(flows) {
                    words.push(u64::from(hop.link.0));
                    for p in &f.pieces {
                        words.extend([p.start.to_bits(), p.end.to_bits(), p.rate.to_bits()]);
                    }
                }
            }
            CommPlacement::Ideal { delay, arrival } => {
                words.extend([4, delay.to_bits(), arrival.to_bits()]);
            }
        }
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    stats::fnv1a(h, &bytes)
}

/// The benchmark package directory (results and scratch files live
/// under it, inside the checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root `BENCHMARK.json`: metric lists, bounds and run length.
pub fn load_benchmark_json() -> Result<json::Json, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Names of the metrics listed under `section` of `BENCHMARK.json`.
pub fn listed_metrics(bench: &json::Json, section: &str) -> Vec<String> {
    bench
        .get(section)
        .map(json::Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            m.get("name")
                .and_then(json::Json::as_str)
                .map(str::to_string)
        })
        .collect()
}

/// `run` runs every workload this many times and reports medians.
const RUNS: usize = 3;

/// The workload processes of one invocation must finish well inside
/// the 180 s a run may take.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Run one workload in its own process with its pinned `ES_THREADS`
/// and read back its report line; the process is killed at `deadline`.
fn spawn_workload(args: &Args, deadline: Instant) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = bench_dir().join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut cmd = Command::new(exe);
    cmd.arg("exec")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env("ES_THREADS", args.workload.threads().to_string())
        .current_dir(&scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.digest_only {
        cmd.arg("--digest-only");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn workload: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("{} ran past its deadline", args.workload.name()));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read workload output: {e}"))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", args.workload.name()));
    }
    let line = text.lines().last().ok_or("workload printed nothing")?;
    Outcome::from_json(&json::parse(line)?)
}

/// The cross-lane gate: the 1-lane process must produce the same
/// reference schedules as the 2-lane one.
fn cross_lane_check(two: &mut Outcome, one_digest: &str) {
    if two.digest != one_digest {
        two.problem(format!(
            "cross-lane digest mismatch: 1 lane {one_digest}, 2 lanes {}",
            two.digest
        ));
    }
}

fn print_metrics(o: &Outcome) {
    for m in &o.metrics {
        println!(
            "{} {} = {} {} (n={})",
            o.workload, m.name, m.value, m.unit, m.n
        );
    }
    for p in &o.problems {
        println!("{} PROBLEM {p}", o.workload);
    }
    println!(
        "{} correct={} attempted={} failed={} digest={}",
        o.workload,
        o.correct(),
        o.attempted,
        o.failed,
        o.digest
    );
}

struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    digest_only: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        digest_only: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value(a)?;
                f.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => f.seed = Some(value(a)?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` in the single-workload form; a bare
                // `--trace` in `run`.
                f.trace = match it.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--digest-only" => f.digest_only = true,
            "--out" => f.out = Some(PathBuf::from(value(a)?)),
            s => return Err(format!("unexpected argument `{s}`")),
        }
    }
    Ok(f)
}

fn default_seconds(bench: &json::Json) -> Result<f64, String> {
    bench
        .get("run_seconds")
        .and_then(json::Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// The single-workload form: run it, print every metric, end with the
/// result line holding exactly the metrics `BENCHMARK.json` lists for
/// this mode.
fn cmd_single(f: &Flags) -> Result<bool, String> {
    let bench = load_benchmark_json()?;
    let args = Args {
        workload: f.workload.ok_or("--workload is required")?,
        seed: f.seed.ok_or("--seed is required")?,
        seconds: match f.seconds {
            Some(s) => s,
            None => default_seconds(&bench)?,
        },
        trace: f.trace,
        digest_only: false,
    };
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut o = spawn_workload(&args, deadline)?;
    if args.workload == Workload::ProbeTwo {
        // Same seed and shards, one lane: the reference schedules must
        // not depend on the probe path.
        let one = spawn_workload(
            &Args {
                workload: Workload::ProbeOne,
                digest_only: true,
                ..args.clone()
            },
            deadline,
        )?;
        cross_lane_check(&mut o, &one.digest);
    }
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut fields = Vec::new();
    for name in listed_metrics(&bench, section) {
        match o.metric(&name) {
            Some(m) => fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&name),
                json::num(m.value),
                json::quote(&m.unit)
            )),
            None => o.problem(format!("metric `{name}` was not measured")),
        }
    }
    print_metrics(&o);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    );
    Ok(o.correct())
}

/// `run`: every workload in its own process, `RUNS` times with the
/// same seed (in rounds, so slow drift of the machine reaches every
/// workload alike), each metric the median over the runs; then the
/// cross-workload checks. Writes all outcomes to `--out`.
fn cmd_run(f: &Flags) -> Result<bool, String> {
    let bench = load_benchmark_json()?;
    let seed = f.seed.unwrap_or(2006);
    let seconds = match f.seconds {
        Some(s) => s,
        None => default_seconds(&bench)?,
    };
    let mut runs: Vec<Vec<Outcome>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..RUNS {
        for (w, done) in Workload::ALL.into_iter().zip(&mut runs) {
            let args = Args {
                workload: w,
                seed,
                seconds,
                trace: f.trace,
                digest_only: false,
            };
            let t0 = Instant::now();
            done.push(spawn_workload(&args, Instant::now() + RUN_DEADLINE)?);
            eprintln!(
                "{} run {}: {:.1} s",
                w.name(),
                round + 1,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    let mut outcomes: Vec<Outcome> = runs.iter().map(|r| Outcome::median_of(r)).collect();
    let one_digest = outcomes[0].digest.clone();
    let one_p50 = outcomes[0].metric("latency_ms_p50").map(|m| m.value);
    let two = &mut outcomes[1];
    cross_lane_check(two, &one_digest);
    if f.trace {
        if let (Some(a), Some(b)) = (one_p50, two.metric("latency_ms_p50").map(|m| m.value)) {
            two.push("runner.lane_speedup", "ratio", a / b, 2);
        }
    }
    let mut correct = true;
    for o in &outcomes {
        print_metrics(o);
        correct &= o.correct();
    }
    if let Some(path) = &f.out {
        let body: Vec<String> = outcomes
            .iter()
            .map(|o| format!("    {}: {}", json::quote(&o.workload), o.to_json()))
            .collect();
        let doc = format!(
            "{{\n  \"schema\": \"es-benchmark-v1\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \
             \"runs\": {},\n  \"trace\": {},\n  \"nproc\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            json::num(seconds),
            RUNS,
            f.trace,
            es_runner::default_threads(),
            body.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    println!(
        "run: {}",
        if correct {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    Ok(correct)
}

/// `exec`: the workload process itself.
fn cmd_exec(f: &Flags, started: Instant) -> Result<bool, String> {
    let args = Args {
        workload: f.workload.ok_or("--workload is required")?,
        seed: f.seed.ok_or("--seed is required")?,
        seconds: f.seconds.ok_or("--seconds is required")?,
        trace: f.trace,
        digest_only: f.digest_only,
    };
    let mut tr = trace::Tracer::new(started);
    let o = match args.workload {
        Workload::ProbeOne | Workload::ProbeTwo => {
            offline::run(&offline::PROBE, &args, started, &mut tr)
        }
        Workload::Static => offline::run(&offline::STATIC, &args, started, &mut tr),
        Workload::Online => online::run(&args, started, &mut tr),
        Workload::Serve => serve::run(&args, started, &mut tr)?,
    };
    if args.trace && !args.digest_only {
        let dir = bench_dir().join("results");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", args.workload.name()));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} spans to {}", tr.len(), path.display());
    }
    println!("{}", o.to_json());
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("worker") => serve::worker_main(),
        Some("driver") => serve::driver_main(&argv[1..]),
        Some("compare") => compare::run(&argv[1..]),
        Some("run") => parse_flags(&argv[1..]).and_then(|f| cmd_run(&f)),
        Some("exec") => parse_flags(&argv[1..]).and_then(|f| cmd_exec(&f, started)),
        Some("-h" | "--help") | None => {
            println!(
                "usage: es-benchmark --workload W --seed N --seconds S --trace 0|1\n\
                 \x20      es-benchmark run [--seed N] [--seconds S] [--trace] [--out FILE]\n\
                 \x20      es-benchmark compare A.json B.json\n\
                 workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            return if argv.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        Some(_) => parse_flags(&argv).and_then(|f| cmd_single(&f)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("es-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
