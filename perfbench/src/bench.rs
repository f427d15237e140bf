//! The closed-loop runner: set-up (repeated, with a warm-up round each
//! time), seeded rounds of a workload's job matrix, and the metric
//! catalogue both modes print.

use crate::calib::HostClock;
use crate::stats::{median, round_throughput, JobOrder, Latency};
use crate::trace::{chrome_trace, Layers, Tracer, OUTSIDE_JOBS};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A `_us`
/// metric without a workload-specific value is the mean self time per
/// call of the span of the same name; a `count` metric without one is its
/// counter's total per traced round. Layers a workload never calls read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_unit_us", "us"),
    ("analysis.manage_us", "us"),
    ("analysis.summarize_us", "us"),
    ("analysis.hot_loop_us", "us"),
    ("analysis.pdg_build_us", "us"),
    ("analysis.alg1_us", "us"),
    ("analysis.dag_scc_us", "us"),
    ("transform.apply_us", "us"),
    ("ir.lower_us", "us"),
    ("interp.bc_compile_us", "us"),
    ("analysis.pdg_edges", "count"),
    ("analysis.relaxed_edges", "count"),
    ("ir.insts", "count"),
    ("interp.bc_ops", "count"),
    ("transform.applied_ratio", "ratio"),
    ("runtime.intrinsic_calls", "count"),
    ("runtime.ns_per_intrinsic", "ns"),
    ("interp.ops_retired", "count"),
    ("interp.ns_per_op", "ns"),
    ("interp.seq_run_us", "us"),
    ("interp.thread_run_us", "us"),
    ("interp.parallel_overhead_us", "us"),
    ("runtime.shard_fast_acquires", "count"),
    ("runtime.shard_wait_ratio", "ratio"),
    ("runtime.shard_whole_acquires", "count"),
    ("runtime.delta_applies", "count"),
    ("runtime.lock_elisions", "count"),
    ("runtime.queue_full_spins", "count"),
    ("runtime.queue_empty_spins", "count"),
    ("runtime.spsc_ns_per_value", "ns"),
    ("runtime.shard_call_ns", "ns"),
    ("runtime.delta_apply_ns", "ns"),
    ("runtime.stm_commit_ns", "ns"),
    ("runtime.lock_pair_ns", "ns"),
    ("interp.sim_run_us", "us"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.ticks_total", "count"),
    ("sim.queue_stalls", "count"),
    ("sim.tm_aborts", "count"),
    ("workloads.validate_us", "us"),
    ("checker.prepare_us", "us"),
    ("checker.explore_us", "us"),
    ("checker.merge_us", "us"),
    ("checker.schedules", "count"),
    ("checker.steps", "count"),
    ("checker.ns_per_step", "ns"),
    ("host_speedup_x2", "x"),
    ("fig6_geomean_x8", "x"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One workload: a fixed matrix of jobs run in rounds.
pub trait Workload {
    /// Jobs in one round.
    fn job_count(&self) -> usize;

    /// Runs job `job`, checking its output; `Err` describes a failure.
    fn run_job(&mut self, job: usize, t: &mut Tracer) -> Result<(), String>;

    /// Figures derived from an untraced log (speedups, simulated geomeans).
    fn headline(&self, _log: &RunLog) -> Values {
        Values::new()
    }

    /// After the traced rounds: this workload's extra traced measurements
    /// and its own per-layer values. Problems found by the extra checks go
    /// to `problems` and make the run incorrect.
    fn layer_metrics(
        &mut self,
        t: &mut Tracer,
        traced: &RunLog,
        problems: &mut Vec<String>,
    ) -> Values;
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every variant through the compiler facade; nothing executes.
    Compile,
    /// Sequential baselines and COMMSET schedules on OS threads.
    RunThreads,
    /// The Figure 6 sweep on the discrete-event simulator.
    Fig6Sim,
    /// The commutativity checker on the fixture corpus.
    Check,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Compile, Kind::RunThreads, Kind::Fig6Sim, Kind::Check];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Compile => "compile",
            Kind::RunThreads => "run-threads",
            Kind::Fig6Sim => "fig6-sim",
            Kind::Check => "check",
        }
    }

    /// Threads one job runs on.
    pub fn threads(self) -> usize {
        match self {
            Kind::RunThreads => crate::threads::THREADS,
            Kind::Compile | Kind::Fig6Sim | Kind::Check => 1,
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn build(self, root: &Path, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::Compile => Box::new(crate::compile::CompileBench::new()),
            Kind::RunThreads => Box::new(crate::threads::ThreadsBench::new(t)?),
            Kind::Fig6Sim => Box::new(crate::fig6::Fig6Bench::new(t)?),
            Kind::Check => Box::new(crate::check::CheckBench::new(root, t)?),
        })
    }
}

/// One timed job, kept small: a run logs tens of thousands, and a bigger
/// log would tie peak memory to how many jobs fit in the run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's job matrix.
    pub job: u32,
    /// Latency, ms.
    pub ms: f32,
}

/// Timed jobs of one phase.
#[derive(Debug, Default, Clone)]
pub struct RunLog {
    /// Jobs per round.
    pub jobs_per_round: usize,
    /// Tracer job id of the first sample; ids are consecutive.
    pub first_id: u64,
    /// Every job, in run order.
    pub samples: Vec<Sample>,
    /// Wall time of each round, seconds.
    pub rounds_s: Vec<f64>,
    /// Jobs that failed.
    pub failed: u64,
    /// Reference samples taken during the phase: `(samples logged before
    /// it, index among the clock's samples)`.
    pub refs: Vec<(usize, usize)>,
}

impl RunLog {
    /// The log at nominal host speed: each job's latency divided by the
    /// local slowdown of the first reference sample taken after it, and
    /// each round's time scaled as its jobs' summed latency was.
    pub fn at_nominal(&self, slowdowns: &[f64]) -> RunLog {
        let mut out = self.clone();
        if self.refs.is_empty() {
            return out;
        }
        let mut k = 0;
        let factors: Vec<f64> = (0..self.samples.len())
            .map(|i| {
                while k + 1 < self.refs.len() && self.refs[k].0 <= i {
                    k += 1;
                }
                slowdowns[self.refs[k].1]
            })
            .collect();
        for (s, f) in out.samples.iter_mut().zip(&factors) {
            s.ms = (f64::from(s.ms) / f) as f32;
        }
        let round_ms = |log: &RunLog, r: usize| -> f64 {
            let n = log.jobs_per_round;
            log.samples[r * n..((r + 1) * n).min(log.samples.len())]
                .iter()
                .map(|s| f64::from(s.ms))
                .sum()
        };
        for r in 0..out.rounds_s.len() {
            out.rounds_s[r] *= ratio(round_ms(&out, r), round_ms(self, r));
        }
        out
    }

    /// Latencies in ms, grouped by job index.
    fn by_job(&self) -> Vec<Vec<f64>> {
        let mut by_job = vec![Vec::new(); self.jobs_per_round];
        for s in &self.samples {
            by_job[s.job as usize].push(f64::from(s.ms));
        }
        by_job
    }

    /// Latency summary.
    pub fn latency(&self) -> Latency {
        Latency::of(&self.by_job())
    }

    /// Median latency of each job index, ms.
    pub fn job_medians(&self) -> Vec<f64> {
        self.by_job()
            .iter()
            .map(|v| if v.is_empty() { f64::NAN } else { median(v) })
            .collect()
    }

    /// Maps tracer job ids back to job indices.
    pub fn job_of_id(&self) -> HashMap<u64, usize> {
        (self.first_id..)
            .zip(&self.samples)
            .map(|(id, s)| (id, s.job as usize))
            .collect()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Fewest set-ups per run.
pub const MIN_SETUPS: usize = 5;
/// Most set-ups per run.
pub const MAX_SETUPS: usize = 25;
/// Set-up time after which set-up stops repeating.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of the job order.
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced phases in
    /// a traced run).
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Repository root (fixtures are read relative to it).
    pub root: PathBuf,
    /// Where the traced run writes its Chrome trace; `None` skips it.
    pub trace_out: Option<PathBuf>,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric of the mode, in catalogue order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs run, warm-up rounds included.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// No failed job and no failed check.
    pub correct: bool,
    /// Human-readable report (sample counts, failures, layer table).
    pub report: String,
}

/// The last of a run's set-ups.
struct SetUp {
    workload: Box<dyn Workload>,
    /// Seconds each set-up took, warm-up round included.
    times: Vec<f64>,
    /// Per set-up, the reference samples taken just before and during it.
    refs: Vec<Vec<usize>>,
    /// Seconds the last warm-up round took.
    warm_round_s: f64,
}

/// State shared by the phases of one invocation.
struct Invocation<'a> {
    opts: &'a Options,
    t: Tracer,
    clock: HostClock,
    order: JobOrder,
    next_id: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    report: String,
}

impl Invocation<'_> {
    /// Runs rounds until `budget` has passed (at least one round), in
    /// seeded order, or in canonical order for a warm-up. `reserve`
    /// pre-sizes the sample log so it never reallocates mid-run (a
    /// reallocation would briefly double it). Reference samples taken
    /// between jobs are left out of the round times.
    fn measure(
        &mut self,
        w: &mut dyn Workload,
        budget: Duration,
        reserve: usize,
        warm_up: bool,
    ) -> RunLog {
        let n = w.job_count();
        let mut log = RunLog {
            jobs_per_round: n,
            first_id: self.next_id + 1,
            samples: Vec::with_capacity(reserve),
            ..RunLog::default()
        };
        let t = &mut self.t;
        let start = Instant::now();
        while log.rounds_s.is_empty() || start.elapsed() < budget {
            let round_start = Instant::now();
            let mut calibrating = 0.0;
            let order = if warm_up {
                (0..n).collect()
            } else {
                self.order.next_round(n)
            };
            for job in order {
                self.next_id += 1;
                t.set_job(self.next_id);
                let t0 = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| t.span("job", |t| w.run_job(job, t))));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let err = match out {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e),
                    Err(_) => {
                        t.close_open_spans();
                        Some("panicked".to_string())
                    }
                };
                if let Some(e) = err {
                    log.failed += 1;
                    if self.failures.len() < 5 {
                        self.failures.push(format!("job {job}: {e}"));
                    }
                }
                log.samples.push(Sample {
                    job: job as u32,
                    ms: ms as f32,
                });
                let spent = self.clock.maybe_sample();
                if spent > 0.0 {
                    calibrating += spent;
                    log.refs.push((log.samples.len(), self.clock.len() - 1));
                }
            }
            log.rounds_s
                .push(round_start.elapsed().as_secs_f64() - calibrating);
        }
        t.set_job(OUTSIDE_JOBS);
        self.attempted += log.samples.len() as u64;
        self.failed += log.failed;
        log
    }

    /// Builds the workload and runs its warm-up round, [`MIN_SETUPS`]
    /// times and then until [`SETUP_BUDGET`] has passed, at most
    /// [`MAX_SETUPS`] times; `setup_s` is their median.
    fn set_up(&mut self) -> Result<SetUp, String> {
        let (mut times, mut refs) = (Vec::new(), Vec::new());
        let mut last: Option<(Box<dyn Workload>, f64)> = None;
        let started = Instant::now();
        while times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
        {
            drop(last.take());
            self.clock.sample();
            let mut taken = vec![self.clock.len() - 1];
            let start = Instant::now();
            let (kind, root) = (self.opts.kind, &self.opts.root);
            let mut w = self.t.span("setup", |t| kind.build(root, t))?;
            // The warm-up round charges lazy set-up to `setup_s`.
            let tracing = self.t.is_on();
            self.t.set_on(false);
            let warm = self.measure(&mut *w, Duration::ZERO, 0, true);
            self.t.set_on(tracing);
            let elapsed = start.elapsed().as_secs_f64();
            taken.extend(warm.refs.iter().map(|&(_, k)| k));
            let calibrating: f64 = taken[1..].iter().map(|&k| self.clock.samples()[k]).sum();
            times.push(elapsed - calibrating);
            refs.push(taken);
            last = Some((w, warm.rounds_s[0]));
        }
        let (workload, warm_round_s) = last.expect("at least one set-up ran");
        Ok(SetUp {
            workload,
            times,
            refs,
            warm_round_s,
        })
    }

    /// The traced half: traced rounds, the workload's extra measurements,
    /// the substrate microbenchmarks and the Chrome trace. Returns the
    /// per-layer values and the traced rounds' latency.
    fn per_layer(
        &mut self,
        w: &mut dyn Workload,
        phase: Duration,
        reserve: usize,
        problems: &mut Vec<String>,
    ) -> Result<(Values, Latency), String> {
        self.t.set_on(true);
        self.t.reset_counters();
        let traced = self.measure(w, phase, reserve, false);
        // Counters are per traced round; read them before the workload's
        // extras add spans of their own.
        let rounds = traced.rounds_s.len() as f64;
        let mut values: Values = PER_LAYER
            .iter()
            .filter(|(_, unit)| *unit == "count")
            .map(|(name, _)| (*name, self.t.counter(name) as f64 / rounds))
            .collect();
        let own = w.layer_metrics(&mut self.t, &traced, problems);
        values.extend(crate::substrate::run());
        let layers = Layers::of(self.t.spans());
        for (name, _) in PER_LAYER.iter().filter(|(_, unit)| *unit == "us") {
            if let Some(span) = name.strip_suffix("_us") {
                values.insert(name, layers.us_per_call(span));
            }
        }
        values.extend(own);
        let _ = write!(self.report, "{}", layers.render());
        if let Some(path) = &self.opts.trace_out {
            let meta = [
                ("workload", self.opts.kind.name().to_string()),
                ("seed", self.opts.seed.to_string()),
                ("spans", self.t.spans().len().to_string()),
            ];
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
            std::fs::write(path, chrome_trace(self.t.spans(), &meta))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let _ = writeln!(self.report, "  trace: {}", path.display());
        }
        Ok((values, traced.latency()))
    }
}

/// Runs one invocation end to end.
///
/// # Errors
///
/// Returns a message when set-up fails (missing fixtures, a workload that
/// no longer compiles) or the trace file cannot be written.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut s = Invocation {
        opts,
        t: Tracer::new(opts.trace),
        clock: HostClock::new(opts.kind.threads()),
        order: JobOrder::new(opts.seed),
        next_id: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        report: String::new(),
    };
    let SetUp {
        workload: mut w,
        times: setup_s,
        refs: setup_refs,
        warm_round_s,
    } = s.set_up()?;
    let phase = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    // Room for four times the jobs the warm-up round's pace predicts.
    let per_round = w.job_count();
    let reserve = (phase.as_secs_f64() / warm_round_s.max(1e-6) * per_round as f64 * 4.0) as usize
        + per_round;

    s.t.set_on(false);
    let untraced = s.measure(&mut *w, phase, reserve, false);
    // Read before the statistics below allocate copies of the log.
    let peak_rss = peak_rss_mb()?;
    let lat = untraced.latency();
    let headline = w.headline(&untraced);
    let _ = writeln!(
        s.report,
        "workload {} seed {} ({} hardware threads, closed loop, one client)\n  \
         {} set-ups; untraced: {} jobs in {} rounds of {}; p50 {:.4} ms, p99 {:.4} ms \
         ({} samples beyond p99)",
        opts.kind.name(),
        opts.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup_s.len(),
        lat.n,
        untraced.rounds_s.len(),
        per_round,
        lat.p50,
        lat.p99,
        lat.beyond_p99
    );
    let quarters: Vec<String> = untraced
        .rounds_s
        .chunks(untraced.rounds_s.len().div_ceil(4))
        .map(|q| format!("{:.2}", median(q) * 1e3))
        .collect();
    let _ = writeln!(
        s.report,
        "  median round ms by quarter of the run: {}",
        quarters.join(" ")
    );
    if lat.beyond_p99 < 10 {
        let _ = writeln!(
            s.report,
            "  warning: fewer than 10 samples beyond p99; lengthen the run"
        );
    }

    // Metrics are reported at nominal host speed (see `calib`), with the
    // raw values beside them on stderr. End-to-end times are corrected job
    // by job with the local slowdown; per-layer times, which sum over the
    // whole traced half, with the run's mean slowdown.
    let mut problems: Vec<String> = Vec::new();
    let mut raw = headline.clone();
    let mut nominal = Values::new();
    if opts.trace {
        let (layers, traced) = s.per_layer(&mut *w, phase, reserve, &mut problems)?;
        raw.extend(layers);
        raw.insert("trace.overhead_ms", traced.p50 - lat.p50);
        let _ = writeln!(
            s.report,
            "  traced: {} jobs; p50 {:.4} ms (tracing overhead {:+.4} ms)",
            traced.n,
            traced.p50,
            traced.p50 - lat.p50
        );
        let slowdown = s.clock.slowdown();
        for &(name, unit) in PER_LAYER {
            if let (Some(v), "s" | "ms" | "us" | "ns") = (raw.get(name), unit) {
                nominal.insert(name, v / slowdown);
            }
        }
    } else {
        let slow = s.clock.local_slowdowns();
        let at_nominal = untraced.at_nominal(&slow);
        let nlat = at_nominal.latency();
        let setups: Vec<f64> = setup_s
            .iter()
            .zip(&setup_refs)
            .map(|(t, ks)| t / crate::stats::mean(&ks.iter().map(|&k| slow[k]).collect::<Vec<_>>()))
            .collect();
        for (values, setup, lat, log) in [
            (&mut raw, setup_s.as_slice(), &lat, &untraced),
            (&mut nominal, setups.as_slice(), &nlat, &at_nominal),
        ] {
            values.insert("setup_s", median(setup));
            values.insert("job_p50_ms", lat.p50);
            values.insert("job_p99_ms", lat.p99);
            values.insert("jobs_per_s", round_throughput(per_round, &log.rounds_s));
        }
        raw.insert("peak_rss_mb", peak_rss);
    }
    if s.clock.strays() > 0 {
        problems.push(format!(
            "{} of {} reference samples found a thread left running by a job",
            s.clock.strays(),
            s.clock.len()
        ));
    }
    let fail_ratio = ratio(s.failed as f64, s.attempted as f64);
    raw.insert("fail_ratio", fail_ratio);
    let _ = writeln!(
        s.report,
        "  fail_ratio {fail_ratio} ({} of {} jobs)",
        s.failed, s.attempted
    );
    for (name, v) in &headline {
        let _ = writeln!(s.report, "  {name} {v:.4}");
    }
    for f in s.failures.iter().chain(&problems) {
        let _ = writeln!(s.report, "  FAILED {f}");
    }
    let _ = writeln!(
        s.report,
        "  host slowdown {:.4} over {} reference samples (median {:.4} ms)\n  \
         {:<30} {:>16} {:>16}",
        s.clock.slowdown(),
        s.clock.len(),
        median(s.clock.samples()) * 1e3,
        "metric",
        "nominal speed",
        "raw"
    );
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let finite = |v: Option<&f64>| v.copied().filter(|v| v.is_finite());
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let r = finite(raw.get(name)).unwrap_or(0.0);
            let v = finite(nominal.get(name)).unwrap_or(r);
            let _ = writeln!(s.report, "  {name:<30} {v:>16.4} {r:>16.4} {unit}");
            (name, v, unit)
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: s.attempted,
        failed: s.failed,
        correct: s.failed == 0 && problems.is_empty(),
        report: s.report,
    })
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
