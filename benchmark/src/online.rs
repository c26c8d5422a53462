//! `online-shared`: one `run_online` over a 128-job arrival script on a
//! shared 16-processor heterogeneous WAN. Link state persists across
//! the jobs, and retirements (writes) interleave with probes (reads).

use crate::layers::{push_common, Layers, LinkReplay};
use crate::report::Outcome;
use crate::stats::{derive_seed, fnv1a, FNV_BASIS};
use crate::trace::{ms, timed, Tracer};
use crate::{push_e2e, schedule_digest, Args, SHARDS};
use es_core::online::{arrival_script, run_online, ArrivalSpec, JobSpec, OnlineConfig, OnlineRun};
use es_core::{validate, ListScheduler, Scheduler};
use es_net::Topology;
use es_sim::online::{online_topology, OnlineSweepSpec};
use es_workload::Setting;
use std::time::Instant;

/// Distinct arrival scripts: enough that the latency percentiles do not
/// hinge on a few scripts' shapes.
const SCRIPTS: u64 = 96;
const JOBS: usize = 128;
const TENANTS: u32 = 4;
const MEAN_GAP: f64 = 2.0;
const PROCESSORS: usize = 16;
/// Operations timed back to back before their outputs are checked.
const CHUNK: usize = 8;

fn spec(seed: u64, script: u64) -> ArrivalSpec {
    ArrivalSpec::default_mix(
        JOBS,
        TENANTS,
        MEAN_GAP,
        derive_seed(seed, 0x0a11_0000 + script),
    )
}

/// Each script runs on its own WAN: with one WAN for all scripts, the
/// seed's draw of that one network would set the cost of every
/// operation.
fn topology(seed: u64, script: u64) -> Topology {
    online_topology(&OnlineSweepSpec {
        setting: Setting::Heterogeneous,
        processors: PROCESSORS,
        ..OnlineSweepSpec::smoke(derive_seed(seed, 0x7090_0000 + script), 1)
    })
}

fn config() -> OnlineConfig {
    OnlineConfig::new(*ListScheduler::oihsa().config())
}

/// Digest of everything an online run decides, bit for bit.
fn run_digest(run: &OnlineRun) -> u64 {
    let mut h = FNV_BASIS;
    for o in &run.outcomes {
        for w in [
            o.job,
            o.dispatch.to_bits(),
            o.finish.to_bits(),
            o.slowdown.to_bits(),
        ] {
            h = fnv1a(h, &w.to_le_bytes());
        }
        h = schedule_digest(h, &o.schedule);
    }
    h
}

struct Pool {
    topos: Vec<Topology>,
    ids: Vec<u64>,
    scripts: Vec<Vec<JobSpec>>,
    digests: Vec<Option<u64>>,
    slowdowns: Vec<f64>,
    tasks: Vec<usize>,
    digest: u64,
}

impl Pool {
    fn new() -> Self {
        Self {
            topos: Vec::new(),
            ids: Vec::new(),
            scripts: Vec::new(),
            digests: Vec::new(),
            slowdowns: Vec::new(),
            tasks: Vec::new(),
            digest: FNV_BASIS,
        }
    }

    /// One set-up shard: its scripts, then its warm-up pass, every
    /// script run once, every job's schedule validated, every run
    /// digested.
    fn add_shard(&mut self, seed: u64, shard: usize, out: &mut Outcome) {
        let cfg = config();
        for id in (shard as u64..SCRIPTS).step_by(SHARDS) {
            let topo = topology(seed, id);
            let jobs = arrival_script(&spec(seed, id));
            self.tasks
                .push(jobs.iter().map(|j| j.dag.task_count()).sum());
            let digest = match run_online(&cfg, &topo, &jobs) {
                Ok(run) => {
                    for o in &run.outcomes {
                        let job = &jobs[o.job as usize];
                        if let Err(e) = validate::validate(&job.dag, &topo, &o.schedule) {
                            out.problem(format!(
                                "script {id} job {}: invalid: {}",
                                o.job,
                                e.join("; ")
                            ));
                        }
                        self.slowdowns.push(o.slowdown);
                    }
                    let d = run_digest(&run);
                    self.digest = fnv1a(self.digest, &d.to_le_bytes());
                    Some(d)
                }
                Err(e) => {
                    out.problem(format!("script {id}: {e}"));
                    None
                }
            };
            self.digests.push(digest);
            self.ids.push(id);
            self.topos.push(topo);
            self.scripts.push(jobs);
        }
    }
}

pub fn run(args: &Args, started: Instant, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(args.workload.name());
    let mut pool = Pool::new();
    let mut setups = Vec::new();
    let mut from = started;
    for shard in 0..args.shards() {
        pool.add_shard(args.seed, shard, &mut out);
        setups.push(from.elapsed().as_secs_f64());
        from = Instant::now();
    }
    out.digest = format!("{:016x}", pool.digest);
    if args.digest_only {
        return out;
    }

    let cfg = config();
    let isolated = ListScheduler::oihsa();
    let budget = args.measure_seconds();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut loop_s, mut tasks) = (0.0, 0usize);
    let mut layers = Layers::default();
    let (mut isolated_ms, mut online_ms) = (0.0, 0.0);
    let mut results = Vec::with_capacity(CHUNK);
    let n = pool.scripts.len();
    let (mut next, mut chunk) = (0usize, 0u64);
    while loop_s < budget || chunk < args.min_chunks() {
        let traced = args.trace && chunk % 2 == 1;
        results.clear();
        let t_chunk = Instant::now();
        for j in next..next + CHUNK {
            let jobs = &pool.scripts[j % n];
            results.push(timed(|| run_online(&cfg, &pool.topos[j % n], jobs)));
        }
        if !traced {
            loop_s += t_chunk.elapsed().as_secs_f64();
        }
        for (j, (r, t0, t1)) in (next..).zip(results.drain(..)) {
            let i = j % n;
            let id = pool.ids[i];
            out.attempted += 1;
            let op_ms = ms(t0, t1);
            if traced {
                traced_ms.push(op_ms);
            } else {
                untraced_ms.push(op_ms);
                tasks += pool.tasks[i];
            }
            let run = match r {
                Ok(run) => run,
                Err(e) => {
                    out.op_failed(format!("script {id}: {e}"));
                    continue;
                }
            };
            if Some(run_digest(&run)) != pool.digests[i] {
                out.op_failed(format!("script {id}: run differs from the warm-up pass"));
            }
            if !traced {
                continue;
            }
            let op = out.attempted;
            let (jobs, topo) = (&pool.scripts[i], &pool.topos[i]);
            let root = tr.span(op, "op", t0, t1, None);
            tr.span(op, "core.run_online", t0, t1, Some(root));
            online_ms += op_ms;
            let (regen, g0, g1) = timed(|| arrival_script(&spec(args.seed, id)));
            std::hint::black_box(regen);
            layers.generate_ms.push(ms(g0, g1));
            tr.span(op, "workload.arrival_script", g0, g1, Some(root));

            // Replay onto persistent queues in dispatch order, releasing
            // each job once a later dispatch passes its finish, as the
            // engine's compaction does.
            let r0 = Instant::now();
            let mut order: Vec<usize> = (0..run.outcomes.len()).collect();
            order.sort_by(|&a, &b| {
                let (x, y) = (&run.outcomes[a], &run.outcomes[b]);
                x.dispatch.total_cmp(&y.dispatch).then(x.job.cmp(&y.job))
            });
            let hops_before = layers.replay_hops.len();
            let mut replay = LinkReplay::new(topo);
            let mut active: Vec<usize> = Vec::new();
            for &k in &order {
                let o = &run.outcomes[k];
                active.retain(|&a| {
                    let done = run.outcomes[a].finish <= o.dispatch;
                    if done {
                        replay.release(
                            &mut layers,
                            &run.outcomes[a].schedule,
                            run.outcomes[a].job << 24,
                        );
                    }
                    !done
                });
                replay.commit(&mut layers, &o.schedule, o.job << 24);
                active.push(k);
            }
            for a in active {
                replay.release(
                    &mut layers,
                    &run.outcomes[a].schedule,
                    run.outcomes[a].job << 24,
                );
            }
            // One operation replays a whole script: count its hops once.
            let script_hops: f64 = layers.replay_hops.drain(hops_before..).sum();
            layers.replay_hops.push(script_hops);
            tr.span(op, "linksched.replay", r0, Instant::now(), Some(root));

            for o in &run.outcomes {
                let job = &jobs[o.job as usize];
                let (s, s0, s1) = timed(|| isolated.schedule(&job.dag, topo));
                if let Err(e) = s {
                    out.problem(format!("script {id} job {} alone: {e}", o.job));
                }
                isolated_ms += ms(s0, s1);
                layers.schedule_ms.push(ms(s0, s1));
                layers
                    .schedule_ms_by
                    .entry("oihsa")
                    .or_default()
                    .push(ms(s0, s1));
                tr.span(op, "core.schedule_isolated", s0, s1, Some(root));
                layers.levels(&job.dag, tr, op, root);
                layers.routes(topo, &o.schedule, &mut out, tr, op, root);
                layers.verify(&job.dag, topo, &o.schedule, &mut out, tr, op, root);
                layers.wire(&o.schedule, &mut out, tr, op, root);
            }
        }
        next += CHUNK;
        chunk += 1;
    }

    if args.trace {
        push_common(&mut out, &layers);
        out.push_pct("latency_ms_p50", "ms", &untraced_ms, 500);
        crate::push_trace_overhead(&mut out, &untraced_ms, &traced_ms);
        out.push(
            "core.online_isolated_share",
            "ratio",
            isolated_ms / online_ms,
            traced_ms.len(),
        );
    } else {
        push_e2e(&mut out, &setups, &untraced_ms, tasks as f64 / loop_s, 0);
        out.push_mean("mean_slowdown", "ratio", &pool.slowdowns);
    }
    out
}
