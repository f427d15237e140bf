//! The `run-threads` workload: each program's sequential baseline plus
//! every COMMSET schedule on real OS threads at 2 threads, under
//! `WorldMode::Auto`, and merge-declared DOALL schedules again under
//! `WorldMode::Deltas`. Programs are compiled in set-up; every job builds
//! a fresh input world, runs, and is validated against the set-up oracle.

use crate::bench::{ratio, RunLog, Values, Workload};
use crate::compile::{bc_compile, figure6_na};
use crate::stats::geomean_of_ratios;
use crate::stats::median;
use crate::trace::Tracer;
use commset::{ParallelPlan, Scheme};
use commset_interp::{
    run_sequential, run_threaded_with, ExecConfig, TraceEvent, TraceSink, WorldMode,
};
use commset_ir::Module;
use commset_runtime::{Registry, Value, World};
use commset_sim::CostModel;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads per schedule.
pub const THREADS: usize = 2;

/// Repetitions behind each out-of-round median.
const REPS: usize = 5;

/// A recorded stream of world-intrinsic calls.
pub type Calls = Vec<(String, Vec<Value>)>;

/// A program with its oracle and compiled sequential baseline.
pub struct Program {
    /// The evaluation workload.
    pub w: commset_workloads::Workload,
    /// The sequential baseline's final world.
    pub oracle: World,
    /// The pragma-stripped program, lowered.
    pub seq: Module,
    /// Simulated time of the sequential baseline.
    pub seq_ticks: u64,
}

/// Builds every program: oracle and sequential module.
///
/// # Errors
///
/// A baseline that no longer analyzes or lowers.
pub fn programs(t: &mut Tracer, cm: &CostModel) -> Result<Vec<Program>, String> {
    commset_workloads::all()
        .into_iter()
        .map(|w| {
            let (seq_ticks, oracle) = t.span("workloads.oracle", |_| w.run_sequential(cm));
            let c = w.compiler();
            let a = c
                .analyze(&w.plain_source())
                .map_err(|d| format!("{}: baseline analysis failed: {d}", w.name))?;
            let seq = c
                .compile_sequential(&a)
                .map_err(|d| format!("{}: baseline lowering failed: {d}", w.name))?;
            Ok(Program {
                w,
                oracle,
                seq,
                seq_ticks,
            })
        })
        .collect()
}

/// Compiles one scheme spec of `p` at `threads`. `Ok(None)` where Figure
/// 6 has n/a; applicability that differs from Figure 6 is an `Err`.
///
/// # Errors
///
/// The mismatch, or an analysis diagnostic.
pub fn compile_spec(
    p: &Program,
    spec: &commset_workloads::SchemeSpec,
    threads: usize,
) -> Result<Option<(Module, ParallelPlan)>, String> {
    let c = p.w.compiler();
    let source = if spec.commset {
        p.w.variants[spec.variant].clone()
    } else {
        p.w.plain_source()
    };
    let a = c
        .analyze(&source)
        .map_err(|d| format!("{} {}: analysis failed: {d}", p.w.name, spec.label))?;
    let na = figure6_na(p.w.name, &spec.label, threads);
    match (c.compile(&a, spec.scheme, threads, spec.sync), na) {
        (Ok(compiled), false) => Ok(Some(compiled)),
        (Err(_), true) => Ok(None),
        (Ok(_), true) => Err(format!(
            "{} {} x{threads} applies where Figure 6 has n/a",
            p.w.name, spec.label
        )),
        (Err(d), false) => Err(format!(
            "{} {} x{threads} does not apply: {d}",
            p.w.name, spec.label
        )),
    }
}

/// Replays `calls` through `registry` on a fresh world from `p`, returning
/// the wall time in ns; `None` if a handler panicked (a stream recorded
/// out of order across workers can be invalid on a fresh world).
pub fn replay_ns(p: &Program, calls: &Calls) -> Option<f64> {
    let mut world = (p.w.make_world)();
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(|| {
        for (name, args) in calls {
            black_box(p.w.registry.call(name, &mut world, args));
        }
    }))
    .ok()?;
    Some(t0.elapsed().as_nanos() as f64)
}

/// Median of [`REPS`] replays, or `None` if one panicked.
pub fn replay_median_ns(p: &Program, calls: &Calls) -> Option<f64> {
    let samples: Option<Vec<f64>> = (0..REPS).map(|_| replay_ns(p, calls)).collect();
    samples.map(|s| median(&s))
}

/// The world calls a traced run recorded.
pub fn world_calls(sink: &TraceSink) -> Calls {
    sink.take()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::WorldCall { intrinsic, args } => Some((intrinsic, args)),
            _ => None,
        })
        .collect()
}

/// A copy of `reg`'s handlers that also logs every call (the sequential
/// executor reaches the world only through `Registry::call`).
fn recording(reg: &Registry) -> (Registry, Arc<Mutex<Calls>>) {
    let log: Arc<Mutex<Calls>> = Arc::default();
    let mut rec = Registry::new();
    for name in reg.names() {
        let handler = Arc::clone(reg.get(name).expect("listed handler exists"));
        let log = Arc::clone(&log);
        let owned = name.to_string();
        rec.register(name, move |w: &mut World, args: &[Value]| {
            log.lock()
                .expect("call log poisoned")
                .push((owned.clone(), args.to_vec()));
            handler(w, args)
        });
    }
    (rec, log)
}

/// One compiled schedule and the executor configuration it runs under.
struct Schedule {
    label: String,
    module: Module,
    plan: ParallelPlan,
    cfg: ExecConfig,
}

enum Exec {
    Seq,
    Threads(Box<Schedule>),
    /// A schedule whose applicability differs from Figure 6: fails on
    /// every run.
    Broken(String),
}

struct Job {
    program: usize,
    exec: Exec,
}

/// The run-threads workload.
pub struct ThreadsBench {
    cm: CostModel,
    programs: Vec<Program>,
    jobs: Vec<Job>,
}

impl ThreadsBench {
    /// Builds oracles and compiles every schedule.
    ///
    /// # Errors
    ///
    /// A baseline that no longer compiles.
    pub fn new(t: &mut Tracer) -> Result<Self, String> {
        let cm = CostModel::default();
        let programs = programs(t, &cm)?;
        let mut jobs = Vec::new();
        for (pi, p) in programs.iter().enumerate() {
            jobs.push(Job {
                program: pi,
                exec: Exec::Seq,
            });
            for spec in p.w.schemes.iter().filter(|s| s.commset) {
                let mut modes = vec![WorldMode::Auto];
                if p.w.registry.has_merges() && spec.scheme == Scheme::Doall {
                    modes.push(WorldMode::Deltas);
                }
                let compiled = compile_spec(p, spec, THREADS);
                for mode in modes {
                    let exec = match &compiled {
                        Ok(Some((module, plan))) => Exec::Threads(Box::new(Schedule {
                            label: format!("{} {} ({mode:?})", p.w.name, spec.label),
                            module: module.clone(),
                            plan: plan.clone(),
                            cfg: ExecConfig {
                                world: mode,
                                ..ExecConfig::default()
                            },
                        })),
                        Ok(None) => continue,
                        Err(e) => Exec::Broken(e.clone()),
                    };
                    jobs.push(Job { program: pi, exec });
                }
            }
        }
        Ok(ThreadsBench { cm, programs, jobs })
    }

    /// Mean in-job duration of `span` per job index, from the traced spans.
    fn per_job_us(&self, t: &Tracer, traced: &RunLog, span: &str) -> BTreeMap<usize, f64> {
        let job_of = traced.job_of_id();
        let mut sums: BTreeMap<usize, (f64, u64)> = BTreeMap::new();
        for s in t.spans().iter().filter(|s| s.name == span) {
            if let Some(&j) = job_of.get(&s.job) {
                let e = sums.entry(j).or_default();
                e.0 += s.dur_ns() as f64 / 1e3;
                e.1 += 1;
            }
        }
        sums.into_iter()
            .map(|(j, (us, n))| (j, us / n as f64))
            .collect()
    }
}

impl Workload for ThreadsBench {
    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn run_job(&mut self, job: usize, t: &mut Tracer) -> Result<(), String> {
        let job = &self.jobs[job];
        let p = &self.programs[job.program];
        let w = &p.w;
        let world = t.span("workloads.make_world", |_| (w.make_world)());
        let (label, world) = match &job.exec {
            Exec::Seq => {
                let mut world = world;
                let out = t
                    .span("interp.seq_run", |_| {
                        run_sequential(&p.seq, &w.registry, &mut world, &self.cm, "main")
                    })
                    .map_err(|e| format!("{} sequential: {e}", w.name))?;
                t.count("interp.ops_retired", out.insts);
                (w.name.to_string(), world)
            }
            Exec::Threads(sched) => {
                let Schedule {
                    label,
                    module,
                    plan,
                    cfg,
                } = &**sched;
                let out = t
                    .span("interp.thread_run", |_| {
                        run_threaded_with(
                            module,
                            &w.registry,
                            std::slice::from_ref(plan),
                            world,
                            cfg,
                        )
                    })
                    .map_err(|e| format!("{label}: {e}"))?;
                if !out.stats.watchdog.is_clean() {
                    return Err(format!("{label}: watchdog {:?}", out.stats.watchdog));
                }
                let s = &out.stats;
                t.count("runtime.shard_fast_acquires", s.shard.fast_acquires);
                t.count("runtime.shard_fast_waits", s.shard.fast_waits);
                t.count("runtime.shard_whole_acquires", s.shard.whole_acquires);
                t.count("runtime.delta_applies", s.delta.applies);
                t.count("runtime.lock_elisions", s.delta.lock_elisions);
                t.count("runtime.queue_full_spins", s.queue_full_spins);
                t.count("runtime.queue_empty_spins", s.queue_empty_spins);
                (label.clone(), out.world)
            }
            Exec::Broken(e) => return Err(e.clone()),
        };
        t.span("workloads.validate", |_| (w.validate)(&p.oracle, &world))
            .map_err(|e| format!("{label}: wrong output: {e}"))
    }

    fn headline(&self, log: &RunLog) -> Values {
        let med = log.job_medians();
        let seq_of: BTreeMap<usize, f64> = self
            .jobs
            .iter()
            .zip(&med)
            .filter(|(j, _)| matches!(j.exec, Exec::Seq))
            .map(|(j, m)| (j.program, *m))
            .collect();
        let pairs = self
            .jobs
            .iter()
            .zip(&med)
            .filter(|(j, _)| matches!(j.exec, Exec::Threads(_)))
            .map(|(j, m)| (seq_of[&j.program], *m));
        Values::from([("host_speedup_x2", geomean_of_ratios(pairs))])
    }

    fn layer_metrics(
        &mut self,
        t: &mut Tracer,
        traced: &RunLog,
        problems: &mut Vec<String>,
    ) -> Values {
        // Paired parallel overhead: each schedule's thread-run time minus
        // its program's sequential-run time, averaged over schedules.
        let thread_us = self.per_job_us(t, traced, "interp.thread_run");
        let seq_us: BTreeMap<usize, f64> = self
            .per_job_us(t, traced, "interp.seq_run")
            .into_iter()
            .map(|(j, us)| (self.jobs[j].program, us))
            .collect();
        let overheads: Vec<f64> = thread_us
            .iter()
            .filter_map(|(j, us)| seq_us.get(&self.jobs[*j].program).map(|s| us - s))
            .collect();

        // Sequential op and intrinsic time: each baseline's own call
        // stream, replayed on a fresh world, is its intrinsic time; the
        // rest of its run time is spent retiring ops.
        let (mut calls, mut replayed, mut replay) = (0usize, 0usize, 0f64);
        let (mut op_ns, mut insts) = (0f64, 0u64);
        for p in &self.programs {
            let (rec, log) = recording(&p.w.registry);
            let mut world = (p.w.make_world)();
            let out = match run_sequential(&p.seq, &rec, &mut world, &self.cm, "main") {
                Ok(out) => out,
                Err(e) => {
                    problems.push(format!("{} recorded sequential run: {e}", p.w.name));
                    continue;
                }
            };
            let stream = std::mem::take(&mut *log.lock().expect("call log poisoned"));
            let runs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let mut world = (p.w.make_world)();
                    let t0 = Instant::now();
                    let r = t.span("interp.seq_run", |_| {
                        run_sequential(&p.seq, &p.w.registry, &mut world, &self.cm, "main")
                    });
                    black_box(r.is_ok());
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            let Some(intr) = replay_median_ns(p, &stream) else {
                problems.push(format!(
                    "{}: sequential call stream did not replay",
                    p.w.name
                ));
                continue;
            };
            calls += stream.len();
            replayed += stream.len();
            replay += intr;
            op_ns += median(&runs) - intr;
            insts += out.insts;
            black_box(bc_compile(&p.seq, t));
        }

        // Each schedule once more with the executor's trace on: its world
        // calls, replayed, give the schedules' intrinsic time.
        for job in &self.jobs {
            let Exec::Threads(sched) = &job.exec else {
                continue;
            };
            let Schedule {
                label,
                module,
                plan,
                cfg,
            } = &**sched;
            let p = &self.programs[job.program];
            let sink = TraceSink::new();
            let cfg = ExecConfig {
                trace: Some(sink.clone()),
                ..cfg.clone()
            };
            let world = (p.w.make_world)();
            if let Err(e) = run_threaded_with(
                module,
                &p.w.registry,
                std::slice::from_ref(plan),
                world,
                &cfg,
            ) {
                problems.push(format!("{label} traced run: {e}"));
                continue;
            }
            let stream = world_calls(&sink);
            calls += stream.len();
            match replay_median_ns(p, &stream) {
                Some(ns) => {
                    replayed += stream.len();
                    replay += ns;
                }
                None => eprintln!(
                    "note: {label}: worker call stream does not replay in record order; skipped"
                ),
            }
            black_box(bc_compile(module, t));
        }

        Values::from([
            (
                "interp.parallel_overhead_us",
                crate::stats::mean(&overheads),
            ),
            ("runtime.intrinsic_calls", calls as f64),
            ("runtime.ns_per_intrinsic", ratio(replay, replayed as f64)),
            ("interp.ns_per_op", ratio(op_ns, insts as f64)),
            (
                "runtime.shard_wait_ratio",
                ratio(
                    t.counter("runtime.shard_fast_waits") as f64,
                    t.counter("runtime.shard_fast_acquires") as f64,
                ),
            ),
        ])
    }
}
