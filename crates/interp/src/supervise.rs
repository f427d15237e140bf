//! The self-healing execution supervisor.
//!
//! [`run_supervised`] wraps the parallel executors in a recovery policy:
//!
//! 1. **Deadlines.** Each attempt runs under `ExecConfig::deadline_ms`
//!    (the policy can impose one); the executors escalate through the
//!    watchdog and cancel cooperatively, surfacing
//!    [`ExecError::DeadlineExceeded`].
//! 2. **Transient retry.** Failures are classified by
//!    [`ExecError::is_transient`]: schedule-dependent errors (deadline,
//!    deadlock, watchdog violation, cancellation, non-deterministic worker
//!    failures such as an injected panic) are retried on the same rung
//!    with bounded exponential backoff plus deterministic jitter.
//!    Deterministic program errors (division by zero, out-of-bounds, …)
//!    skip the retries — the same input produces the same error — but
//!    still descend, because the *sequential baseline is always a correct
//!    fallback* (the COMMSET contract) and the bottom rung decides whether
//!    the error is real.
//! 3. **Degradation ladder.** When a rung is exhausted the supervisor
//!    descends: delta privatization → sharded world → single lock (same
//!    thread count), then
//!    thread count halving N → N/2 → … → 1, then the sequential executor.
//!    Thread counts are baked into compiled modules, so each rung
//!    recompiles via [`ProgramSource`]. Every degraded success is
//!    re-validated against the lazily-computed sequential oracle before it
//!    is accepted — degradation may cost speed, never semantics.
//! 4. **Failure bundles.** The first failure (and the terminal one, if
//!    different) is captured as a replayable [`FailureBundle`]
//!    (`.repro.json`) when the policy names a bundle directory;
//!    `commsetc replay` re-executes it deterministically.
//!
//! The whole journey is recorded in a
//! [`commset_telemetry::RecoveryReport`] carried on the outcome; a
//! journal of the run is rendered from it afterwards.

use crate::bundle::{run_id, FailureBundle};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::seq::run_sequential;
use crate::sim_exec::run_simulated_with;
use crate::thread_exec::run_threaded_with;
use commset_ir::Module;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{Registry, Value, World};
use commset_sim::CostModel;
use commset_telemetry::{MetricsRegistry, RecoveryReport, RunReport};
use commset_transform::ParallelPlan;
use std::path::PathBuf;

/// Which executor the supervisor drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The real-thread executor (`run_threaded_with`).
    Threads,
    /// The deterministic discrete-event executor (`run_simulated_with`).
    Sim,
}

impl Backend {
    /// The backend's name in run ids, rungs and failure bundles.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Sim => "sim",
        }
    }
}

/// A compiled parallel program for one thread count.
pub struct CompiledProgram {
    /// The transformed module.
    pub module: Module,
    /// Its parallel plans (one per section).
    pub plans: Vec<ParallelPlan>,
}

/// Provenance recorded into failure bundles.
#[derive(Debug, Clone, Default)]
pub struct ProgramDesc {
    /// Path of the program on disk (informational).
    pub path: String,
    /// The Cmm source text, inline.
    pub source: String,
    /// The effects sidecar text, inline (empty when none).
    pub effects: String,
    /// Scheme name (`doall`, `dswp`, `ps-dswp`).
    pub scheme: String,
    /// Sync mode name (`lib`, `spin`, `mutex`, `tm`).
    pub sync: String,
}

/// How the supervisor obtains executable artifacts for each ladder rung.
///
/// Thread counts are baked into compiled modules (worker functions are
/// generated per `nthreads`), so descending the ladder requires
/// recompilation — the supervisor cannot be handed one `Module` up front.
/// `commset-core` provides a `Compiler`-backed implementation; the
/// workload harness provides another.
pub trait ProgramSource {
    /// Compiles the program for `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the scheme is inapplicable at this thread
    /// count; the supervisor skips the rung and keeps descending.
    fn parallel(&self, threads: usize) -> Result<CompiledProgram, String>;

    /// Compiles the untransformed sequential program (the bottom rung and
    /// the validation oracle).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if sequential compilation fails.
    fn sequential(&self) -> Result<Module, String>;

    /// A fresh world for one attempt (attempts never share state).
    fn fresh_world(&self) -> World;

    /// The intrinsic registry.
    fn registry(&self) -> &Registry;

    /// Provenance for failure bundles.
    fn describe(&self) -> ProgramDesc;
}

/// Validates a degraded result against the sequential oracle's world.
/// Receives `(candidate, oracle)`; workloads compare their output slots.
pub type Validator = dyn Fn(&World, &World) -> Result<(), String> + Sync;

/// The supervisor's knob set.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Same-rung retries allowed for transient failures (default 2).
    pub max_retries: u32,
    /// Deadline imposed on every attempt; `None` leaves
    /// `ExecConfig::deadline_ms` as the caller set it.
    pub deadline_ms: Option<u64>,
    /// First backoff sleep in milliseconds (default 1).
    pub base_backoff_ms: u64,
    /// Backoff cap in milliseconds (default 50).
    pub max_backoff_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Walk the degradation ladder; `false` retries the initial rung only
    /// (plus the sequential fallback).
    pub ladder: bool,
    /// Where to write `.repro.json` failure bundles; `None` disables
    /// capture.
    pub bundle_dir: Option<PathBuf>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            deadline_ms: None,
            base_backoff_ms: 1,
            max_backoff_ms: 50,
            seed: 0x5eed_c0de,
            ladder: true,
            bundle_dir: None,
        }
    }
}

/// A successful supervised run.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// `main`'s return value from the final (accepted) attempt.
    pub result: Option<Value>,
    /// The world after the accepted attempt.
    pub world: World,
    /// What the supervisor did to get here.
    pub recovery: RecoveryReport,
    /// The run report of the accepted attempt, folded from that attempt's
    /// events only, when `cfg.trace` was set and the rung was parallel.
    pub telemetry: Option<RunReport>,
    /// The accepted attempt's metrics registry, when `cfg.metrics` was
    /// set and the rung was parallel.
    pub metrics: Option<MetricsRegistry>,
    /// The accepted attempt's simulated time, when it ran on the DES.
    pub sim_time: Option<u64>,
}

/// A terminally failed supervised run: the error that ended it plus the
/// full recovery journey (including the bundle path, if captured).
pub struct SupervisedFailure {
    /// The last error (from the deepest rung reached).
    pub error: ExecError,
    /// What the supervisor tried before giving up.
    pub recovery: RecoveryReport,
}

impl std::fmt::Debug for SupervisedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SupervisedFailure({})", self.error)
    }
}

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Parallel { mode: WorldMode, threads: usize },
    Sequential,
}

impl Rung {
    fn describe(self, backend: Backend) -> String {
        match self {
            Rung::Sequential => "sequential".to_string(),
            Rung::Parallel { mode, threads } => match backend {
                Backend::Sim => match mode {
                    WorldMode::Deltas => format!("sim(deltas, {threads})"),
                    _ => format!("sim({threads})"),
                },
                Backend::Threads => format!("threads({}, {threads})", mode.name()),
            },
        }
    }
}

/// Builds the ladder: initial rung, then (threads backend, sharded start)
/// the single-lock world at full width, then thread halving, then the
/// sequential fallback. With `ladder` off only the initial rung and the
/// sequential fallback remain.
fn build_ladder(
    backend: Backend,
    start_mode: WorldMode,
    threads: usize,
    registry: &Registry,
    ladder: bool,
) -> Vec<Rung> {
    let resolved = match start_mode {
        WorldMode::Auto => {
            if registry.has_bindings() {
                WorldMode::Sharded
            } else {
                WorldMode::SingleLock
            }
        }
        m => m,
    };
    let mut rungs = vec![Rung::Parallel {
        mode: resolved,
        threads,
    }];
    if ladder {
        if resolved == WorldMode::Deltas {
            // A poisoned delta coalesce degrades to the lock-mediated
            // sharded world at full width before giving up any threads.
            rungs.push(Rung::Parallel {
                mode: WorldMode::Sharded,
                threads,
            });
            if backend == Backend::Threads {
                rungs.push(Rung::Parallel {
                    mode: WorldMode::SingleLock,
                    threads,
                });
            }
        } else if backend == Backend::Threads && resolved == WorldMode::Sharded {
            rungs.push(Rung::Parallel {
                mode: WorldMode::SingleLock,
                threads,
            });
        }
        let degraded_mode = match backend {
            Backend::Threads => WorldMode::SingleLock,
            Backend::Sim => {
                if resolved == WorldMode::Deltas {
                    WorldMode::Sharded
                } else {
                    resolved
                }
            }
        };
        let mut t = threads;
        while t > 1 {
            t /= 2;
            rungs.push(Rung::Parallel {
                mode: degraded_mode,
                threads: t,
            });
        }
    }
    rungs.push(Rung::Sequential);
    rungs
}

enum AttemptError {
    /// The executor failed; subject to transient-retry classification.
    Exec(ExecError),
    /// The rung could not even be compiled (e.g. DSWP at one thread);
    /// deterministic, so never retried on the same rung.
    Compile(String),
    /// The rung produced a result that disagrees with the sequential
    /// oracle; deterministically rejected.
    Diverged(String),
}

impl AttemptError {
    fn transient(&self) -> bool {
        match self {
            AttemptError::Exec(e) => e.is_transient(),
            AttemptError::Compile(_) | AttemptError::Diverged(_) => false,
        }
    }

    fn render(&self) -> String {
        match self {
            AttemptError::Exec(e) => e.to_string(),
            AttemptError::Compile(d) => format!("compile failed: {d}"),
            AttemptError::Diverged(d) => format!("degraded result diverged from oracle: {d}"),
        }
    }
}

struct Attempt {
    result: Option<Value>,
    world: World,
    telemetry: Option<RunReport>,
    metrics: Option<MetricsRegistry>,
    sim_time: Option<u64>,
}

fn run_rung(
    src: &dyn ProgramSource,
    backend: Backend,
    rung: Rung,
    cfg: &ExecConfig,
) -> Result<Attempt, AttemptError> {
    match rung {
        Rung::Sequential => {
            let module = src.sequential().map_err(AttemptError::Compile)?;
            let mut world = src.fresh_world();
            let out = crate::seq::run_sequential(
                &module,
                src.registry(),
                &mut world,
                &CostModel::default(),
                "main",
            )
            .map_err(AttemptError::Exec)?;
            Ok(Attempt {
                result: out.result,
                world,
                telemetry: None,
                metrics: None,
                sim_time: None,
            })
        }
        Rung::Parallel { mode, threads } => {
            let prog = src.parallel(threads).map_err(AttemptError::Compile)?;
            let mut cfg = cfg.clone();
            cfg.world = mode;
            match backend {
                Backend::Threads => {
                    let out = run_threaded_with(
                        &prog.module,
                        src.registry(),
                        &prog.plans,
                        src.fresh_world(),
                        &cfg,
                    )
                    .map_err(AttemptError::Exec)?;
                    Ok(Attempt {
                        result: out.result,
                        world: out.world,
                        telemetry: out.telemetry,
                        metrics: out.metrics,
                        sim_time: None,
                    })
                }
                Backend::Sim => {
                    let mut world = src.fresh_world();
                    let out = run_simulated_with(
                        &prog.module,
                        src.registry(),
                        &prog.plans,
                        &mut world,
                        &CostModel::default(),
                        &cfg,
                    )
                    .map_err(AttemptError::Exec)?;
                    Ok(Attempt {
                        result: out.result,
                        world,
                        telemetry: out.telemetry,
                        metrics: out.metrics,
                        sim_time: Some(out.sim_time),
                    })
                }
            }
        }
    }
}

/// Captures a failure bundle for `err` if `policy.bundle_dir` is set and
/// none has been written yet; records the path in `report`. `threads` is
/// the run's initial worker count, part of its run id.
#[allow(clippy::too_many_arguments)]
fn capture_bundle(
    src: &dyn ProgramSource,
    backend: Backend,
    threads: usize,
    rung: Rung,
    cfg: &ExecConfig,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
    err: &AttemptError,
) {
    let Some(dir) = &policy.bundle_dir else {
        return;
    };
    if report.bundle.is_some() {
        return;
    }
    let desc = src.describe();
    let run_id = run_id(
        &desc.path,
        &desc.scheme,
        &desc.sync,
        threads,
        backend.name(),
    );
    let (rung_threads, world_mode) = match rung {
        Rung::Parallel { mode, threads } => (threads, mode),
        Rung::Sequential => (1, WorldMode::SingleLock),
    };
    let bundle = FailureBundle {
        version: 1,
        program_path: desc.path,
        source: desc.source,
        effects: desc.effects,
        scheme: desc.scheme,
        sync: desc.sync,
        threads: rung_threads,
        backend: match rung {
            Rung::Sequential => "sequential",
            Rung::Parallel { .. } => backend.name(),
        }
        .to_string(),
        world_mode: world_mode.name().to_string(),
        queue_batch: cfg.queue_batch,
        deadline_ms: policy.deadline_ms.or(cfg.deadline_ms),
        fault: cfg.fault.clone(),
        error: err.render(),
        rung: rung.describe(backend),
        attempt: report.attempts,
        history: report.errors.clone(),
        run_id,
    };
    match bundle.write(dir) {
        Ok(path) => report.bundle = Some(path.display().to_string()),
        Err(e) => report.errors.push(format!("bundle capture failed: {e}")),
    }
}

/// Runs the program under the recovery policy.
///
/// `threads` is the initial worker count; `base_cfg` supplies the fault
/// plan, trace sink and starting world mode. When `validate` is
/// given, every *degraded* success (any rung below the first) is checked
/// against the sequential oracle — result values must match and the
/// validator must accept the worlds — before it is returned.
///
/// # Errors
///
/// Returns [`SupervisedFailure`] when the ladder is exhausted — including
/// when the sequential fallback itself fails, which is the program's true
/// (deterministic) error.
pub fn run_supervised(
    src: &dyn ProgramSource,
    backend: Backend,
    threads: usize,
    base_cfg: &ExecConfig,
    policy: &RecoveryPolicy,
    validate: Option<&Validator>,
) -> Result<SupervisedOutcome, Box<SupervisedFailure>> {
    let mut cfg = base_cfg.clone();
    if policy.deadline_ms.is_some() {
        cfg.deadline_ms = policy.deadline_ms;
    }
    let rungs = build_ladder(backend, cfg.world, threads, src.registry(), policy.ladder);
    let mut report = RecoveryReport::default();
    let mut rng = SplitMix64::new(policy.seed);
    let mut oracle: Option<(Option<Value>, World)> = None;
    let mut last_error: Option<ExecError> = None;

    for (ri, &rung) in rungs.iter().enumerate() {
        report.rungs.push(rung.describe(backend));
        let mut tries_left = policy.max_retries;
        loop {
            report.attempts += 1;
            let attempt = run_rung(src, backend, rung, &cfg).and_then(|a| {
                // Degraded parallel successes must preserve semantics.
                if ri > 0 && rung != Rung::Sequential {
                    if let Some(v) = validate {
                        if oracle.is_none() {
                            oracle = Some(run_oracle(src)?);
                        }
                        let (oracle_result, oracle_world) =
                            oracle.as_ref().expect("oracle just computed");
                        if &a.result != oracle_result {
                            return Err(AttemptError::Diverged(format!(
                                "result {:?} != oracle {:?}",
                                a.result, oracle_result
                            )));
                        }
                        v(&a.world, oracle_world).map_err(AttemptError::Diverged)?;
                    }
                }
                Ok(a)
            });
            match attempt {
                Ok(a) => {
                    report.final_mode = rung.describe(backend);
                    report.recovered = !report.errors.is_empty();
                    report.degraded = ri > 0;
                    return Ok(SupervisedOutcome {
                        result: a.result,
                        world: a.world,
                        recovery: report,
                        telemetry: a.telemetry,
                        metrics: a.metrics,
                        sim_time: a.sim_time,
                    });
                }
                Err(e) => {
                    report.errors.push(e.render());
                    capture_bundle(src, backend, threads, rung, &cfg, policy, &mut report, &e);
                    if let AttemptError::Exec(err) = &e {
                        last_error = Some(err.clone());
                    }
                    if e.transient() && tries_left > 0 {
                        tries_left -= 1;
                        report.retries += 1;
                        let retry_no = policy.max_retries - tries_left;
                        report.backoff_ms += backoff_sleep(policy, retry_no, &mut rng);
                        continue;
                    }
                    break; // descend to the next rung
                }
            }
        }
    }

    report.final_mode = "exhausted".to_string();
    let error = last_error.unwrap_or(ExecError::Canceled {
        stage: "<supervisor>".to_string(),
    });
    Err(Box::new(SupervisedFailure {
        error,
        recovery: report,
    }))
}

/// Runs the sequential oracle once (for validating degraded results).
fn run_oracle(src: &dyn ProgramSource) -> Result<(Option<Value>, World), AttemptError> {
    let module = src.sequential().map_err(AttemptError::Compile)?;
    let mut world = src.fresh_world();
    let out = run_sequential(
        &module,
        src.registry(),
        &mut world,
        &CostModel::default(),
        "main",
    )
    .map_err(AttemptError::Exec)?;
    Ok((out.result, world))
}

/// Sleeps the bounded-exponential backoff with deterministic jitter;
/// returns the slept milliseconds.
fn backoff_sleep(policy: &RecoveryPolicy, retry_no: u32, rng: &mut SplitMix64) -> u64 {
    let base = policy
        .base_backoff_ms
        .max(1)
        .saturating_mul(1u64 << retry_no.min(10))
        .min(policy.max_backoff_ms.max(1));
    // ±50% jitter, deterministic per (seed, retry ordinal).
    let ms = base / 2 + rng.next_below(base / 2 + base % 2 + 1);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_sharded_singlelock_halving_sequential() {
        let registry = Registry::new();
        let rungs = build_ladder(Backend::Threads, WorldMode::Sharded, 8, &registry, true);
        let names: Vec<String> = rungs.iter().map(|r| r.describe(Backend::Threads)).collect();
        assert_eq!(
            names,
            vec![
                "threads(sharded, 8)",
                "threads(single-lock, 8)",
                "threads(single-lock, 4)",
                "threads(single-lock, 2)",
                "threads(single-lock, 1)",
                "sequential",
            ]
        );
    }

    #[test]
    fn deltas_ladder_descends_through_sharded_first() {
        let registry = Registry::new();
        let rungs = build_ladder(Backend::Threads, WorldMode::Deltas, 8, &registry, true);
        let names: Vec<String> = rungs.iter().map(|r| r.describe(Backend::Threads)).collect();
        assert_eq!(
            names,
            vec![
                "threads(deltas, 8)",
                "threads(sharded, 8)",
                "threads(single-lock, 8)",
                "threads(single-lock, 4)",
                "threads(single-lock, 2)",
                "threads(single-lock, 1)",
                "sequential",
            ]
        );
        let sim = build_ladder(Backend::Sim, WorldMode::Deltas, 4, &registry, true);
        let names: Vec<String> = sim.iter().map(|r| r.describe(Backend::Sim)).collect();
        assert_eq!(
            names,
            vec!["sim(deltas, 4)", "sim(4)", "sim(2)", "sim(1)", "sequential",]
        );
    }

    #[test]
    fn auto_without_bindings_starts_single_lock() {
        let registry = Registry::new();
        let rungs = build_ladder(Backend::Threads, WorldMode::Auto, 4, &registry, true);
        assert_eq!(
            rungs[0].describe(Backend::Threads),
            "threads(single-lock, 4)"
        );
        assert_eq!(
            rungs.last().unwrap().describe(Backend::Threads),
            "sequential"
        );
    }

    #[test]
    fn ladder_off_keeps_only_first_rung_and_sequential() {
        let registry = Registry::new();
        let rungs = build_ladder(Backend::Sim, WorldMode::Auto, 8, &registry, false);
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].describe(Backend::Sim), "sim(8)");
        assert_eq!(rungs[1].describe(Backend::Sim), "sequential");
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RecoveryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 4,
            ..Default::default()
        };
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for retry in 1..6 {
            let x = backoff_sleep(&policy, retry, &mut a);
            let y = backoff_sleep(&policy, retry, &mut b);
            assert_eq!(x, y, "jitter must be deterministic per seed");
            assert!(x <= 6, "cap plus jitter stays bounded, got {x}");
        }
    }
}
