//! Workspace task runner. See `analyze` / `bench` module docs; usage:
//!
//! ```text
//! cargo run -p xtask -- analyze [--determinism] [--json] [--root DIR]
//!                               [--suppressions PATH]
//! cargo run -p xtask --release -- bench [--fast] [--check] [--out PATH]
//!                                       [--baseline PATH]
//! ```

use xtask::{analyze, bench};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let code = analyze::run(&args[1..]);
            std::process::exit(code);
        }
        Some("bench") => {
            let code = bench::run(&args[1..]);
            std::process::exit(code);
        }
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
xtask — workspace static analysis (DESIGN.md §8, §12) and perf harness (§10)

USAGE:
  cargo run -p xtask -- analyze [options]
  cargo run -p xtask --release -- bench [options]

ANALYZE OPTIONS:
  --determinism   also run each scheduler twice on seeded instances and
                  diff the full schedules (slow; runs the L1 lint's
                  runtime counterpart), plus optimized-vs-reference
                  tuning double-runs
  --json          emit one `es-analyze-v1` JSON document instead of
                  human text (pass registry, findings, suppressions,
                  summary)
  --root DIR      workspace root to analyze (default: auto-detected)
  --suppressions PATH
                  suppression file (default: <root>/analyze-suppressions.txt;
                  entries: `ES-A0xx <file>[:<line>] -- <justification>`)

BENCH OPTIONS:
  --fast          CI smoke subset (small instances, 1 rep)
  --check         exit non-zero if optimized/parallel vs reference
                  schedules or executions are not bitwise identical
  --out PATH      output file (default: BENCH_PR5.json)
  --baseline PATH previous BENCH_PR*.json to compare against (default:
                  latest committed BENCH_PR*.json besides the output);
                  any matched paper-family row with baseline opt_ms
                  >= 10ms whose best speedup (opt or par lane) drops
                  >10% vs the baseline's exits non-zero
  --criterion     also run the criterion suite via `cargo bench`

TOKEN LINTS (ES-A001..004):
  L1  no HashMap/HashSet in scheduler/link-scheduler hot paths
      (nondeterministic iteration order changes tie-breaking)
  L2  no bare ==/!= against f64 literals outside es_linksched::time
      (use the EPS comparison helpers)
  L3  every diagnostic code constructed in es-core must be documented
      in DESIGN.md's diagnostics table
  L4  no per-candidate allocations (`Vec::new`, `.collect()`) inside
      the probe/repair loop bodies of list.rs and repair.rs
      (hoist buffers out of the loop and reuse — clear-don't-drop)

SYNTAX-AWARE PASSES (DESIGN.md §12):
  N1  ES-A010  nondeterminism taint: no hash iteration, wall clocks,
               thread ids, pointer-as-int, or unordered float
               reductions reachable from schedule/execute/repair
  N2  ES-A020  epoch discipline: SlotQueue mutation sites pair with
               touch()/cache invalidation (route-cache soundness);
      ES-A021  LinkModel mutator impls in es-linksched bump the epoch
               or delegate to a mutator that does
  N4  ES-A040  unsafe audit: SAFETY comments + DESIGN.md registry,
               cross-checked both ways
  N5  ES-A050  lock discipline in es-runner + es-serve: no lock
               across dispatch/park, no nested acquisition";
