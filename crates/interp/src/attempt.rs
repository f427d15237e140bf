//! One execution attempt, its failure bundle and its replay.
//!
//! [`run_attempt`] compiles a [`ProgramSource`] for one thread count and
//! runs it once on the chosen [`Backend`] under the caller's
//! [`ExecConfig`]: its deadline, fault plan, world mode, trace sink and
//! metrics switch. A failure comes back as a structured [`AttemptError`].
//! Nothing is retried and nothing falls back to a slower configuration:
//! every COMMSET schedule must equal the sequential program, so a failure
//! is exactly what the caller needs to see. Callers that check results
//! validate them with their own oracle.
//!
//! [`capture_bundle`] writes a failure as a replayable [`FailureBundle`]
//! (`.repro.json`), and [`replay_attempt`] (behind `commsetc replay`)
//! re-executes the attempt a bundle recorded.

use crate::bundle::{run_id, FailureBundle};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::sim_exec::run_simulated_with;
use crate::thread_exec::run_threaded_with;
use commset_ir::Module;
use commset_runtime::{Registry, World};
use commset_sim::CostModel;
use commset_telemetry::{MetricsRegistry, RunReport};
use commset_transform::ParallelPlan;
use std::path::{Path, PathBuf};

/// Which executor an attempt runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The real-thread executor (`run_threaded_with`).
    Threads,
    /// The deterministic discrete-event executor (`run_simulated_with`).
    Sim,
}

impl Backend {
    /// The backend's name in run ids and failure bundles.
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
#[derive(Debug, Clone)]
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
    /// The function whose hot loop is parallelized, when it overrides the
    /// default choice (`commsetc --hot-func`).
    pub hot_func: Option<String>,
}

/// How an attempt obtains its executable program and input.
///
/// Thread counts are baked into compiled modules (worker functions are
/// generated per `nthreads`), so a replay recompiles at the thread count
/// its bundle records. `commset-core` provides a `Compiler`-backed
/// implementation over the synthetic world.
pub trait ProgramSource {
    /// Compiles the program for `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the scheme is inapplicable at this thread
    /// count.
    fn parallel(&self, threads: usize) -> Result<CompiledProgram, String>;

    /// A fresh input world (attempts never share state).
    fn fresh_world(&self) -> World;

    /// The intrinsic registry.
    fn registry(&self) -> &Registry;

    /// Provenance for failure bundles.
    fn describe(&self) -> ProgramDesc;
}

/// Why an attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// The program did not compile for the requested thread count.
    Compile(String),
    /// The executor failed.
    Exec(ExecError),
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Compile(d) => write!(f, "compile failed: {d}"),
            AttemptError::Exec(e) => write!(f, "{e}"),
        }
    }
}

/// What a successful attempt reports.
#[derive(Debug)]
pub struct Attempt {
    /// The run report, when `cfg.trace` was set.
    pub telemetry: Option<RunReport>,
    /// The metrics registry, when `cfg.metrics` was set.
    pub metrics: Option<MetricsRegistry>,
    /// The simulated time, when the attempt ran on the DES.
    pub sim_time: Option<u64>,
}

/// Compiles `src` for `threads` workers and runs it once on `backend`
/// with a fresh world under `cfg`.
///
/// # Errors
///
/// [`AttemptError::Compile`] when the scheme does not apply at `threads`;
/// [`AttemptError::Exec`] when the executor fails.
pub fn run_attempt(
    src: &dyn ProgramSource,
    backend: Backend,
    threads: usize,
    cfg: &ExecConfig,
) -> Result<Attempt, AttemptError> {
    let prog = src.parallel(threads).map_err(AttemptError::Compile)?;
    match backend {
        Backend::Threads => {
            let out = run_threaded_with(
                &prog.module,
                src.registry(),
                &prog.plans,
                src.fresh_world(),
                cfg,
            )
            .map_err(AttemptError::Exec)?;
            Ok(Attempt {
                telemetry: out.telemetry,
                metrics: out.metrics,
                sim_time: None,
            })
        }
        Backend::Sim => {
            let out = run_simulated_with(
                &prog.module,
                src.registry(),
                &prog.plans,
                &mut src.fresh_world(),
                &CostModel::default(),
                cfg,
            )
            .map_err(AttemptError::Exec)?;
            Ok(Attempt {
                telemetry: out.telemetry,
                metrics: out.metrics,
                sim_time: Some(out.sim_time),
            })
        }
    }
}

/// Writes `error`, the failure of `run_attempt(src, backend, threads,
/// cfg)`, into `dir` as a replayable `.repro.json` bundle and returns its
/// path. The bundle carries the run id a journal of the same run carries.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn capture_bundle(
    src: &dyn ProgramSource,
    backend: Backend,
    threads: usize,
    cfg: &ExecConfig,
    error: &AttemptError,
    dir: &Path,
) -> std::io::Result<PathBuf> {
    let desc = src.describe();
    let run_id = run_id(
        &desc.path,
        &desc.scheme,
        &desc.sync,
        threads,
        backend.name(),
    );
    FailureBundle {
        version: 2,
        program_path: desc.path,
        source: desc.source,
        effects: desc.effects,
        scheme: desc.scheme,
        sync: desc.sync,
        hot_func: desc.hot_func,
        threads,
        backend: backend.name().to_string(),
        world_mode: cfg.world.name().to_string(),
        deadline_ms: cfg.deadline_ms,
        fault: cfg.fault.clone(),
        error: error.to_string(),
        run_id,
    }
    .write(dir)
}

/// Re-executes the attempt `bundle` recorded against `src` (its backend,
/// thread count, world mode, deadline and fault plan, on a fresh world)
/// and returns the observed error rendering (`None`: the attempt
/// succeeded). A compile failure is observed as `compile failed: …`.
///
/// # Errors
///
/// Returns a message for a backend or world-mode name that
/// [`capture_bundle`] never writes.
pub fn replay_attempt(
    bundle: &FailureBundle,
    src: &dyn ProgramSource,
) -> Result<Option<String>, String> {
    let backend = [Backend::Threads, Backend::Sim]
        .into_iter()
        .find(|b| b.name() == bundle.backend)
        .ok_or_else(|| format!("unknown bundle backend `{}`", bundle.backend))?;
    let cfg = ExecConfig {
        world: WorldMode::parse(&bundle.world_mode)?,
        fault: bundle.fault.clone(),
        deadline_ms: bundle.deadline_ms,
        ..ExecConfig::default()
    };
    Ok(run_attempt(src, backend, bundle.threads, &cfg)
        .err()
        .map(|e| e.to_string()))
}
