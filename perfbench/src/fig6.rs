//! The `fig6-sim` workload: the full Figure 6 sweep, every program ×
//! scheme spec × threads 2..=8, on the discrete-event simulator, each run
//! validated against the sequential oracle. Same VM and intrinsics as
//! `run-threads`, scheduled by the DES instead of OS threads.
//!
//! Simulated time is deterministic: every job must repeat its first
//! round's clock exactly, and the Figure 6 geomean comes from it.

use crate::bench::{ratio, RunLog, Values, Workload};
use crate::compile::bc_compile;
use crate::stats::geomean_of_ratios;
use crate::threads::{compile_spec, programs, replay_median_ns, world_calls, Calls, Program};
use crate::trace::Tracer;
use commset::ParallelPlan;
use commset_interp::{run_simulated_with, ExecConfig, TraceSink};
use commset_ir::Module;
use commset_sim::CostModel;
use std::hint::black_box;

/// Thread counts of the sweep.
const THREADS: std::ops::RangeInclusive<usize> = 2..=8;

enum Exec {
    Sim(Box<(Module, ParallelPlan)>),
    /// Applicability differs from Figure 6: fails on every run.
    Broken(String),
}

struct Job {
    program: usize,
    label: String,
    commset: bool,
    threads: usize,
    exec: Exec,
    /// Simulated time of the first run; later runs must repeat it.
    sim_time: Option<u64>,
    /// World calls of the first traced run.
    calls: Option<Calls>,
}

/// The fig6-sim workload.
pub struct Fig6Bench {
    cm: CostModel,
    programs: Vec<Program>,
    jobs: Vec<Job>,
}

impl Fig6Bench {
    /// Builds oracles and compiles the whole sweep.
    ///
    /// # Errors
    ///
    /// A baseline that no longer compiles.
    pub fn new(t: &mut Tracer) -> Result<Self, String> {
        let cm = CostModel::default();
        let programs = programs(t, &cm)?;
        let mut jobs = Vec::new();
        for (pi, p) in programs.iter().enumerate() {
            for spec in &p.w.schemes {
                for threads in THREADS {
                    let exec = match compile_spec(p, spec, threads) {
                        Ok(Some(compiled)) => Exec::Sim(Box::new(compiled)),
                        Ok(None) => continue,
                        Err(e) => Exec::Broken(e),
                    };
                    jobs.push(Job {
                        program: pi,
                        label: format!("{} {} x{threads}", p.w.name, spec.label),
                        commset: spec.commset,
                        threads,
                        exec,
                        sim_time: None,
                        calls: None,
                    });
                }
            }
        }
        Ok(Fig6Bench { cm, programs, jobs })
    }
}

impl Workload for Fig6Bench {
    fn job_count(&self) -> usize {
        self.jobs.len()
    }

    fn run_job(&mut self, job: usize, t: &mut Tracer) -> Result<(), String> {
        let job = &mut self.jobs[job];
        let p = &self.programs[job.program];
        let (module, plan) = match &job.exec {
            Exec::Sim(compiled) => (&compiled.0, &compiled.1),
            Exec::Broken(e) => return Err(e.clone()),
        };
        // The traced run turns on the executor's passive metrics and
        // trace, which count DES events without touching the clock.
        let sink = t.is_on().then(TraceSink::new);
        let cfg = ExecConfig {
            metrics: t.is_on(),
            trace: sink.clone(),
            ..ExecConfig::default()
        };
        let mut world = t.span("workloads.make_world", |_| (p.w.make_world)());
        let out = t
            .span("interp.sim_run", |_| {
                run_simulated_with(
                    module,
                    &p.w.registry,
                    std::slice::from_ref(plan),
                    &mut world,
                    &self.cm,
                    &cfg,
                )
            })
            .map_err(|e| format!("{}: {e}", job.label))?;
        t.span("workloads.validate", |_| (p.w.validate)(&p.oracle, &world))
            .map_err(|e| format!("{}: wrong output: {e}", job.label))?;
        if let Some(sink) = sink {
            let ops: u64 = out
                .metrics
                .as_ref()
                .map_or(0, |m| m.opcodes().values().sum());
            let records = sink.len() as u64;
            let calls = world_calls(&sink);
            t.count("interp.ops_retired", ops);
            t.count("sim.events", ops + records);
            t.count("runtime.intrinsic_calls", calls.len() as u64);
            t.count("sim.ticks_total", out.sim_time);
            t.count("sim.queue_stalls", out.stats.queue_stalls);
            t.count("sim.tm_aborts", out.stats.tm_aborts);
            job.calls.get_or_insert(calls);
        }
        match job.sim_time {
            None => job.sim_time = Some(out.sim_time),
            Some(first) if first != out.sim_time => {
                return Err(format!(
                    "{}: simulated time {} differs from the first run's {first}",
                    job.label, out.sim_time
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn headline(&self, _log: &RunLog) -> Values {
        // Best COMMSET speedup at 8 threads per program, geomean over
        // programs.
        let best = self.programs.iter().enumerate().map(|(pi, p)| {
            let best_ticks = self
                .jobs
                .iter()
                .filter(|j| j.program == pi && j.commset && j.threads == 8)
                .filter_map(|j| j.sim_time)
                .min()
                .unwrap_or(0);
            (p.seq_ticks as f64, best_ticks as f64)
        });
        Values::from([("fig6_geomean_x8", geomean_of_ratios(best))])
    }

    fn layer_metrics(
        &mut self,
        t: &mut Tracer,
        traced: &RunLog,
        _problems: &mut Vec<String>,
    ) -> Values {
        let rounds = traced.rounds_s.len() as f64;
        let sim_ns_per_round =
            crate::trace::Layers::of(t.spans()).job_self_ns("interp.sim_run") as f64 / rounds;
        let (mut replay, mut replayed_calls) = (0f64, 0usize);
        for job in &self.jobs {
            let Exec::Sim(compiled) = &job.exec else {
                continue;
            };
            if let Some(calls) = &job.calls {
                match replay_median_ns(&self.programs[job.program], calls) {
                    Some(ns) => {
                        replay += ns;
                        replayed_calls += calls.len();
                    }
                    None => eprintln!("note: {}: call stream does not replay; skipped", job.label),
                }
            }
            black_box(bc_compile(&compiled.0, t));
        }
        let ops = t.counter("interp.ops_retired") as f64 / rounds;
        let events = t.counter("sim.events") as f64 / rounds;
        Values::from([
            (
                "runtime.ns_per_intrinsic",
                ratio(replay, replayed_calls as f64),
            ),
            // Replays cover each job once: one round's intrinsic time.
            ("interp.ns_per_op", ratio(sim_ns_per_round - replay, ops)),
            ("sim.ns_per_event", ratio(sim_ns_per_round, events)),
        ])
    }
}
