//! The offline workloads: pools of paper instances (§6 generator), each
//! operation one `Scheduler::schedule` call of one preset on one
//! instance.

use crate::layers::{push_common, Layers, LinkReplay};
use crate::report::Outcome;
use crate::trace::{ms, timed, Tracer};
use crate::{push_e2e, schedule_digest, Args, SHARDS};
use es_core::{metrics, validate, BbsaScheduler, ListScheduler, Schedule, Scheduler};
use es_wire::AlgoId;
use es_workload::{cell_seed, generate, Instance, InstanceConfig, Setting};
use std::time::Instant;

/// The scheduler of a preset, from its public constructor. Presets are
/// named and parsed as on the wire.
pub fn build(algo: AlgoId) -> Box<dyn Scheduler + Send + Sync> {
    match algo {
        AlgoId::Ba => Box::new(ListScheduler::ba()),
        AlgoId::OihsaProbing => Box::new(ListScheduler::oihsa_probing()),
        AlgoId::Oihsa => Box::new(ListScheduler::oihsa()),
        AlgoId::BaStatic => Box::new(ListScheduler::ba_static()),
        AlgoId::Bbsa => Box::new(BbsaScheduler::new()),
    }
}

/// An instance grid: {hom, het} × `procs` × `ccrs`, repeated `reps`
/// times with fresh seeds, all with `tasks` tasks, each instance
/// scheduled by every preset.
pub struct Family {
    pub procs: &'static [usize],
    pub ccrs: &'static [f64],
    /// Seeds per grid point. Many distinct instances keep the latency
    /// percentiles from hinging on a few large ones, so that runs with
    /// different seeds agree.
    pub reps: usize,
    pub tasks: usize,
    pub presets: &'static [AlgoId],
}

/// Earliest-finish probing: every candidate processor is tried by
/// scheduling its in-edges and rolling them back.
pub const PROBE: Family = Family {
    procs: &[8, 16, 32],
    ccrs: &[1.0, 4.0, 8.0],
    reps: 15,
    tasks: 100,
    presets: &[AlgoId::Ba, AlgoId::OihsaProbing],
};

/// The paper's figure configurations: no probing, one route and one
/// commit per edge, optimal insertion and BBSA's fluid profiles.
pub const STATIC: Family = Family {
    procs: &[8, 16, 32],
    ccrs: &[0.1, 1.0, 5.0, 10.0],
    reps: 15,
    tasks: 150,
    presets: &[AlgoId::Oihsa, AlgoId::BaStatic, AlgoId::Bbsa],
};

impl Family {
    /// Configs of set-up shard `shard`: the whole grid for every
    /// `SHARDS`-th rep, so shards are alike and any prefix of the pool
    /// covers the grid evenly.
    pub fn shard_configs(&self, seed: u64, shard: usize) -> Vec<InstanceConfig> {
        let mut out = Vec::new();
        for rep in (shard..self.reps).step_by(SHARDS) {
            for setting in [Setting::Homogeneous, Setting::Heterogeneous] {
                for &p in self.procs {
                    for &ccr in self.ccrs {
                        let s = cell_seed(seed, setting, p, ccr, rep);
                        out.push(InstanceConfig::paper(setting, p, ccr, s).with_tasks(self.tasks));
                    }
                }
            }
        }
        out
    }
}

/// The instance pool: instances, one scheduler per preset, the
/// operation list and the validated reference schedule of every
/// operation.
pub struct Pool {
    pub configs: Vec<InstanceConfig>,
    pub instances: Vec<Instance>,
    pub schedulers: Vec<(AlgoId, Box<dyn Scheduler + Send + Sync>)>,
    /// (instance index, scheduler index) per operation.
    pub ops: Vec<(usize, usize)>,
    pub refs: Vec<Option<Schedule>>,
    pub digest: u64,
}

impl Pool {
    pub fn new(family: &Family) -> Self {
        Self {
            configs: Vec::new(),
            instances: Vec::new(),
            schedulers: family.presets.iter().map(|&p| (p, build(p))).collect(),
            ops: Vec::new(),
            refs: Vec::new(),
            digest: crate::stats::FNV_BASIS,
        }
    }

    /// One set-up shard: generate its instances, then its warm-up
    /// pass, every operation once with its schedule validated and kept
    /// as the reference.
    pub fn add_shard(&mut self, family: &Family, seed: u64, shard: usize, out: &mut Outcome) {
        for cfg in family.shard_configs(seed, shard) {
            let i = self.instances.len();
            self.instances.push(generate(&cfg));
            self.configs.push(cfg);
            let inst = &self.instances[i];
            for (k, (preset, sched)) in self.schedulers.iter().enumerate() {
                self.ops.push((i, k));
                let r = match sched.schedule(&inst.dag, &inst.topo) {
                    Ok(s) => {
                        if let Err(e) = validate::validate(&inst.dag, &inst.topo, &s) {
                            out.problem(format!(
                                "{} on {cfg:?}: invalid: {}",
                                preset.name(),
                                e.join("; ")
                            ));
                        }
                        self.digest = schedule_digest(self.digest, &s);
                        Some(s)
                    }
                    Err(e) => {
                        out.problem(format!("{} on {cfg:?}: {e}", preset.name()));
                        None
                    }
                };
                self.refs.push(r);
            }
        }
    }
}

/// Operations timed back to back before their outputs are checked.
const CHUNK: usize = 64;

pub fn run(family: &Family, args: &Args, started: Instant, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(args.workload.name());
    let mut pool = Pool::new(family);
    let mut setups = Vec::new();
    let mut from = started;
    for shard in 0..args.shards() {
        pool.add_shard(family, args.seed, shard, &mut out);
        setups.push(from.elapsed().as_secs_f64());
        from = Instant::now();
    }
    out.digest = format!("{:016x}", pool.digest);
    if args.digest_only {
        return out;
    }

    let budget = args.measure_seconds();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut loop_s, mut tasks) = (0.0, 0usize);
    let mut layers = Layers::default();
    let mut results = Vec::with_capacity(CHUNK);
    let (mut next, mut chunk) = (0usize, 0u64);
    while loop_s < budget || chunk < args.min_chunks() {
        let traced = args.trace && chunk % 2 == 1;
        results.clear();
        let t_chunk = Instant::now();
        for j in next..next + CHUNK {
            let (i, k) = pool.ops[j % pool.ops.len()];
            let (inst, sched) = (&pool.instances[i], &pool.schedulers[k].1);
            results.push(timed(|| sched.schedule(&inst.dag, &inst.topo)));
        }
        if !traced {
            loop_s += t_chunk.elapsed().as_secs_f64();
        }
        for (j, (r, t0, t1)) in (next..).zip(results.drain(..)) {
            let j = j % pool.ops.len();
            let (i, k) = pool.ops[j];
            let inst = &pool.instances[i];
            let preset = pool.schedulers[k].0;
            out.attempted += 1;
            let op_ms = ms(t0, t1);
            if traced {
                traced_ms.push(op_ms);
            } else {
                untraced_ms.push(op_ms);
                tasks += inst.dag.task_count();
            }
            let s = match (r, &pool.refs[j]) {
                (Ok(s), Some(reference)) => {
                    if let Some(d) = es_core::diff_schedules(&s, reference) {
                        out.op_failed(format!(
                            "{} on {:?} differs from its reference: {d}",
                            preset.name(),
                            inst.config
                        ));
                    }
                    s
                }
                (Ok(_), None) => {
                    out.op_failed(format!(
                        "{} on {:?}: warm-up failed",
                        preset.name(),
                        inst.config
                    ));
                    continue;
                }
                (Err(e), _) => {
                    out.op_failed(format!("{} on {:?}: {e}", preset.name(), inst.config));
                    continue;
                }
            };
            if traced {
                let op = out.attempted;
                let root = tr.span(op, "op", t0, t1, None);
                tr.span(op, "core.schedule", t0, t1, Some(root));
                layers.schedule_ms.push(op_ms);
                layers
                    .schedule_ms_by
                    .entry(preset.name())
                    .or_default()
                    .push(op_ms);
                let (regen, g0, g1) = timed(|| generate(&pool.configs[i]));
                std::hint::black_box(regen);
                layers.generate_ms.push(ms(g0, g1));
                tr.span(op, "workload.generate", g0, g1, Some(root));
                layers.levels(&inst.dag, tr, op, root);
                layers.routes(&inst.topo, &s, &mut out, tr, op, root);
                let r0 = Instant::now();
                let mut replay = LinkReplay::new(&inst.topo);
                replay.commit(&mut layers, &s, 0);
                replay.release(&mut layers, &s, 0);
                tr.span(op, "linksched.replay", r0, Instant::now(), Some(root));
                layers.verify(&inst.dag, &inst.topo, &s, &mut out, tr, op, root);
                layers.wire(&s, &mut out, tr, op, root);
            }
        }
        next += CHUNK;
        chunk += 1;
    }

    if args.trace {
        push_common(&mut out, &layers);
        out.push_pct("latency_ms_p50", "ms", &untraced_ms, 500);
        crate::push_trace_overhead(&mut out, &untraced_ms, &traced_ms);
    } else {
        let slr: Vec<f64> = pool
            .ops
            .iter()
            .zip(&pool.refs)
            .filter_map(|(&(i, _), s)| {
                let inst = &pool.instances[i];
                s.as_ref().map(|s| metrics(&inst.dag, &inst.topo, s).slr)
            })
            .collect();
        push_e2e(&mut out, &setups, &untraced_ms, tasks as f64 / loop_s, 0);
        out.push_mean("slr_mean", "ratio", &slr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Family = Family {
        procs: &[4],
        ccrs: &[1.0, 4.0],
        reps: 3,
        tasks: 24,
        presets: &[AlgoId::Ba, AlgoId::Oihsa, AlgoId::Bbsa],
    };

    fn pool(seed: u64, out: &mut Outcome) -> Pool {
        let mut p = Pool::new(&TINY);
        for shard in 0..SHARDS {
            p.add_shard(&TINY, seed, shard, out);
        }
        p
    }

    #[test]
    fn instance_pools_are_a_function_of_the_seed() {
        assert_eq!(PROBE.shard_configs(2006, 1), PROBE.shard_configs(2006, 1));
        assert_ne!(PROBE.shard_configs(2006, 0), PROBE.shard_configs(2007, 0));
        let sizes = |f: &Family| {
            (0..SHARDS)
                .map(|s| f.shard_configs(1, s).len())
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&PROBE), vec![90, 90, 90]);
        assert_eq!(sizes(&STATIC), vec![120, 120, 120]);

        let mut out = Outcome::new("test");
        let (a, b, c) = (pool(11, &mut out), pool(11, &mut out), pool(12, &mut out));
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(a.ops.len(), 2 * 2 * 3 * 3);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }
}
