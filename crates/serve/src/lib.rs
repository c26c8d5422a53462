//! es-serve: fault-tolerant scheduling-as-a-service (DESIGN.md §13).
//!
//! A **driver** listens on a Unix domain socket, admits scheduling
//! requests into a bounded queue with an explicit shed policy, and
//! partitions them across a pool of supervised **worker** processes —
//! stateless wrappers over `es_core` scheduling + repair speaking
//! the es-wire-v1 format on stdin/stdout. Supervision covers
//! per-request deadlines, heartbeats, exponential backoff with a
//! bounded retry budget, and automatic respawn of dead workers.
//!
//! The crate also ships the **bench** harness (`es-serve bench`): a
//! deterministic load generator with a seeded chaos mode
//! (`--chaos kill-worker:p,stall-worker:q`) that proves every
//! admitted request completes with a schedule bitwise-identical to a
//! single-process run of the same compute path.
//!
//! Layout:
//! - [`config`] — driver configuration (`ES_SERVE_*` env + CLI);
//! - [`chaos`] — seeded, deterministic fault injection;
//! - [`driver`] — the single-owner event loop and worker supervision;
//! - [`worker`] — the stateless compute process;
//! - [`client`] — a small synchronous client;
//! - [`mod@bench`] — the load generator + bitwise verifier.

pub mod bench;
pub mod chaos;
pub mod client;
pub mod config;
pub mod driver;
pub mod worker;

pub use bench::{run_bench, BenchOpts, BenchReport};
pub use chaos::{ChaosAction, ChaosSpec};
pub use client::Client;
pub use config::{ServeConfig, ShedPolicy};
pub use driver::{run_driver, WorkerCommand};
pub use worker::{compute_reply, compute_schedule, run_worker};

use std::path::PathBuf;

const USAGE: &str = "\
usage: es-serve <driver|worker|bench> [options]

  driver   --socket PATH [--workers N] [--queue-cap N]
           [--shed reject-newest|reject-oldest] [--deadline-ms N]
           [--retry-max N] [--backoff-ms N] [--heartbeat-ms N]
           [--stall-ms N] [--chaos SPEC] [--chaos-seed N]
  worker   (no options; speaks es-wire-v1 on stdin/stdout)
  bench    [--requests N] [--clients N] [--workers N] [--queue-cap N]
           [--seed N] [--chaos SPEC] [--chaos-seed N]
           [--socket PATH] [--out FILE]

SPEC is `kill-worker:P,stall-worker:Q` with probabilities in [0, 1].
ES_SERVE_* environment variables set driver defaults; CLI flags win.";

/// Pull `--name value` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    match take_flag(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{name} value `{v}` is not valid")),
    }
}

/// Parse the optional `--chaos SPEC [--chaos-seed N]` pair.
fn take_chaos(args: &mut Vec<String>) -> Result<Option<ChaosSpec>, String> {
    let seed = take_parsed::<u64>(args, "--chaos-seed")?.unwrap_or(7);
    match take_flag(args, "--chaos")? {
        None => Ok(None),
        Some(spec) => ChaosSpec::parse(&spec, seed).map(Some),
    }
}

fn reject_unknown(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(stray) => Err(format!("unrecognized argument `{stray}`")),
    }
}

/// CLI entry point shared by the `es-serve` binary and the es-cli
/// `serve` subcommand. `args` excludes the program/subcommand prefix;
/// `worker_argv` is how a driver launched from this binary should
/// start its workers (`["worker"]` for es-serve itself,
/// `["serve", "worker"]` for es-cli). Returns the process exit code.
pub fn run_cli(args: &[String], worker_argv: &[&str]) -> i32 {
    match run_cli_inner(args, worker_argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("es-serve: {message}");
            eprintln!("{USAGE}");
            2
        }
    }
}

fn run_cli_inner(args: &[String], worker_argv: &[&str]) -> Result<i32, String> {
    let Some(sub) = args.first() else {
        return Err("missing subcommand".to_string());
    };
    let mut rest: Vec<String> = args[1..].to_vec();
    match sub.as_str() {
        "worker" => {
            reject_unknown(&rest)?;
            run_worker().map_err(|e| format!("worker failed: {e}"))?;
            Ok(0)
        }
        "driver" => {
            let socket = take_flag(&mut rest, "--socket")?
                .map_or_else(|| PathBuf::from("/tmp/es-serve.sock"), PathBuf::from);
            let mut cfg = ServeConfig::new(&socket);
            for diag in cfg.apply_env() {
                eprintln!("es-serve: {diag}");
            }
            if let Some(v) = take_parsed(&mut rest, "--workers")? {
                cfg.workers = v;
            }
            if let Some(v) = take_parsed(&mut rest, "--queue-cap")? {
                cfg.queue_cap = v;
            }
            if let Some(v) = take_flag(&mut rest, "--shed")? {
                cfg.shed = ShedPolicy::parse(&v).ok_or(format!("unknown shed policy `{v}`"))?;
            }
            if let Some(v) = take_parsed(&mut rest, "--deadline-ms")? {
                cfg.deadline_ms = v;
            }
            if let Some(v) = take_parsed(&mut rest, "--retry-max")? {
                cfg.retry_max = v;
            }
            if let Some(v) = take_parsed(&mut rest, "--backoff-ms")? {
                cfg.backoff_base_ms = v;
            }
            if let Some(v) = take_parsed(&mut rest, "--heartbeat-ms")? {
                cfg.heartbeat_ms = v;
            }
            if let Some(v) = take_parsed(&mut rest, "--stall-ms")? {
                cfg.stall_timeout_ms = v;
            }
            cfg.chaos = take_chaos(&mut rest)?;
            reject_unknown(&rest)?;
            let worker_cmd = WorkerCommand::current_exe(worker_argv).map_err(|e| e.to_string())?;
            eprintln!(
                "es-serve: driver on {} ({} workers, queue {}, shed {})",
                cfg.socket.display(),
                cfg.workers,
                cfg.queue_cap,
                cfg.shed.name()
            );
            let stats = run_driver(cfg, worker_cmd).map_err(|e| format!("driver: {e}"))?;
            eprintln!(
                "es-serve: drained; admitted {}, completed {}, shed {}, retries {}, \
                 respawns {}",
                stats.admitted, stats.completed, stats.shed, stats.retries, stats.worker_respawns
            );
            Ok(0)
        }
        "bench" => {
            let socket = take_flag(&mut rest, "--socket")?.map_or_else(
                || std::env::temp_dir().join(format!("es-serve-bench-{}.sock", std::process::id())),
                PathBuf::from,
            );
            let opts = BenchOpts {
                requests: take_parsed(&mut rest, "--requests")?.unwrap_or(48),
                clients: take_parsed(&mut rest, "--clients")?.unwrap_or(4),
                workers: take_parsed(&mut rest, "--workers")?.unwrap_or(2),
                queue_cap: take_parsed(&mut rest, "--queue-cap")?.unwrap_or(64),
                chaos: take_chaos(&mut rest)?,
                seed: take_parsed(&mut rest, "--seed")?.unwrap_or(0x5e57_11ce),
                socket,
                out: take_flag(&mut rest, "--out")?.map(PathBuf::from),
                worker_cmd: WorkerCommand::current_exe(worker_argv).map_err(|e| e.to_string())?,
            };
            reject_unknown(&rest)?;
            let report = run_bench(&opts)?;
            println!("{}", bench::render_summary(&report));
            if let Some(out) = &report.opts.out {
                std::fs::write(out, bench::render_json(&report))
                    .map_err(|e| format!("writing {}: {e}", out.display()))?;
                eprintln!("es-serve: report written to {}", out.display());
            }
            Ok(i32::from(report.lost != 0 || report.mismatched != 0))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flag_extracts_pairs() {
        let mut args: Vec<String> = ["--workers", "3", "--socket", "/tmp/x"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            take_flag(&mut args, "--socket").expect("ok"),
            Some("/tmp/x".to_string())
        );
        assert_eq!(
            take_parsed::<usize>(&mut args, "--workers").expect("ok"),
            Some(3)
        );
        assert!(args.is_empty());
        assert_eq!(take_flag(&mut args, "--socket").expect("ok"), None);
    }

    #[test]
    fn take_flag_rejects_missing_value() {
        let mut args = vec!["--workers".to_string()];
        assert!(take_flag(&mut args, "--workers").is_err());
    }

    #[test]
    fn cli_rejects_unknown_subcommand_and_strays() {
        assert_eq!(run_cli(&["frobnicate".to_string()], &["worker"]), 2);
        assert_eq!(
            run_cli(&["driver".to_string(), "--bogus".to_string()], &["worker"]),
            2
        );
    }
}
