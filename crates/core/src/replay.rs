//! Failure-bundle replay and the `Compiler`-backed [`ProgramSource`].
//!
//! A `.repro.json` bundle (see `commset-interp`'s `bundle` module) carries
//! the program source and effects sidecar *inline*, so a failed supervised
//! run can be rebuilt from the bundle alone: `parse_effects` +
//! `build_table` reconstruct the intrinsic table, `synthetic_registry` /
//! `synthetic_world` reconstruct the deterministic checker-model
//! semantics, and the recorded scheme/sync/threads/backend/world-mode/
//! fault-plan knobs pin the exact failing configuration. `commsetc replay
//! <bundle>` re-executes that one attempt and reports whether the recorded
//! error reproduces.
//!
//! [`SyntheticSource`] is the same machinery pointed at the supervisor:
//! it implements [`ProgramSource`] by recompiling per ladder rung, which
//! is what `commsetc profile --recover` drives.

use crate::profile::{synthetic_registry, synthetic_world};
use crate::spec::{build_table, parse_effects, EffectsSpec};
use crate::{Compiler, Scheme, SyncMode};
use commset_interp::supervise::{CompiledProgram, ProgramDesc, ProgramSource};
use commset_interp::{
    run_sequential, run_simulated_with, run_supervised, run_threaded_with, Backend, ExecConfig,
    FailureBundle, RecoveryPolicy, SupervisedFailure, SupervisedOutcome, WorldMode,
};
use commset_runtime::{Registry, World};
use commset_sim::CostModel;

/// Parses a scheme name, case-insensitively: bundles record the
/// `Display` rendering (`DOALL`), the CLI spells it lowercase (`doall`).
///
/// # Errors
///
/// Returns a message for unknown names.
pub fn parse_scheme(name: &str) -> Result<Scheme, String> {
    match name.to_ascii_lowercase().as_str() {
        "doall" => Ok(Scheme::Doall),
        "dswp" => Ok(Scheme::Dswp),
        "ps-dswp" | "psdswp" => Ok(Scheme::PsDswp),
        _ => Err(format!("unknown scheme `{name}`")),
    }
}

/// Parses a sync-mode name, case-insensitively.
///
/// # Errors
///
/// Returns a message for unknown names.
pub fn parse_sync(name: &str) -> Result<SyncMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "spin" => Ok(SyncMode::Spin),
        "mutex" => Ok(SyncMode::Mutex),
        "tm" => Ok(SyncMode::Tm),
        "lib" => Ok(SyncMode::Lib),
        _ => Err(format!("unknown sync mode `{name}`")),
    }
}

/// A [`ProgramSource`] that recompiles the program per ladder rung against
/// the synthetic deterministic world (the `commsetc profile` semantics).
pub struct SyntheticSource {
    compiler: Compiler,
    analysis: crate::Analysis,
    registry: Registry,
    scheme: Scheme,
    sync: SyncMode,
    desc: ProgramDesc,
}

impl SyntheticSource {
    /// Builds the source from inline program text and sidecar text.
    ///
    /// # Errors
    ///
    /// Returns the sidecar/type-table/front-end diagnostic as a string.
    pub fn new(
        path: &str,
        source: &str,
        effects: &str,
        scheme: Scheme,
        sync: SyncMode,
    ) -> Result<SyntheticSource, String> {
        let spec = if effects.trim().is_empty() {
            EffectsSpec::default()
        } else {
            parse_effects(effects)?
        };
        let table = build_table(source, &spec)?;
        let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
        let compiler = Compiler::new(table).with_irrevocable(&irrevocable);
        let analysis = compiler.analyze(source).map_err(|d| d.to_string())?;
        let registry = synthetic_registry(&compiler.intrinsics, &spec);
        Ok(SyntheticSource {
            compiler,
            analysis,
            registry,
            scheme,
            sync,
            desc: ProgramDesc {
                path: path.to_string(),
                source: source.to_string(),
                effects: effects.to_string(),
                scheme: scheme.to_string(),
                sync: sync.to_string(),
            },
        })
    }
}

impl ProgramSource for SyntheticSource {
    fn parallel(&self, threads: usize) -> Result<CompiledProgram, String> {
        let (module, plan) = self
            .compiler
            .compile(&self.analysis, self.scheme, threads, self.sync)
            .map_err(|d| d.to_string())?;
        Ok(CompiledProgram {
            module,
            plans: vec![plan],
        })
    }

    fn sequential(&self) -> Result<commset_ir::Module, String> {
        self.compiler
            .compile_sequential(&self.analysis)
            .map_err(|d| d.to_string())
    }

    fn fresh_world(&self) -> World {
        synthetic_world()
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn describe(&self) -> ProgramDesc {
        self.desc.clone()
    }
}

/// Runs the synthetic-world profile under the supervisor.
///
/// # Errors
///
/// Returns [`SupervisedFailure`] when the whole ladder (including the
/// sequential fallback) fails; front-end diagnostics surface as strings in
/// `Err`'s `error` rendering via the supervisor's compile-error path.
pub fn run_profile_supervised(
    src: &SyntheticSource,
    real: bool,
    threads: usize,
    cfg: &ExecConfig,
    policy: &RecoveryPolicy,
) -> Result<SupervisedOutcome, Box<SupervisedFailure>> {
    let backend = if real { Backend::Threads } else { Backend::Sim };
    run_supervised(src, backend, threads, cfg, policy, None)
}

/// The outcome of replaying a failure bundle.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// True when the recorded error reproduced exactly.
    pub reproduced: bool,
    /// The error the bundle recorded.
    pub expected: String,
    /// The error the replay observed (`None`: the run succeeded).
    pub observed: Option<String>,
    /// The rung description from the bundle.
    pub rung: String,
}

/// Re-executes the single attempt a bundle captured — same program, same
/// knobs, same fault plan, fresh deterministic world — and compares the
/// outcome against the recorded error.
///
/// # Errors
///
/// Returns a message when the bundle's program no longer compiles or its
/// knob strings are unknown (a corrupt or hand-edited bundle).
pub fn replay_bundle(bundle: &FailureBundle) -> Result<ReplayOutcome, String> {
    let src = SyntheticSource::new(
        &bundle.program_path,
        &bundle.source,
        &bundle.effects,
        parse_scheme(&bundle.scheme)?,
        parse_sync(&bundle.sync)?,
    )?;
    replay_bundle_on(bundle, &src)
}

/// As [`replay_bundle`], against the program source the supervised run
/// used (an embedder's registry and world rather than the synthetic
/// ones).
///
/// # Errors
///
/// As [`replay_bundle`].
pub fn replay_bundle_on(
    bundle: &FailureBundle,
    src: &dyn ProgramSource,
) -> Result<ReplayOutcome, String> {
    let cfg = ExecConfig {
        fault: bundle.fault.clone(),
        world: WorldMode::parse(&bundle.world_mode)?,
        queue_batch: bundle.queue_batch.max(1),
        deadline_ms: bundle.deadline_ms,
        ..ExecConfig::default()
    };
    let observed: Option<String> = match bundle.backend.as_str() {
        "sequential" => {
            let module = src.sequential()?;
            let mut world = src.fresh_world();
            run_sequential(
                &module,
                src.registry(),
                &mut world,
                &CostModel::default(),
                "main",
            )
            .err()
            .map(|e| e.to_string())
        }
        "threads" => match src.parallel(bundle.threads) {
            Err(d) => Some(format!("compile failed: {d}")),
            Ok(prog) => run_threaded_with(
                &prog.module,
                src.registry(),
                &prog.plans,
                src.fresh_world(),
                &cfg,
            )
            .err()
            .map(|e| e.to_string()),
        },
        "sim" => match src.parallel(bundle.threads) {
            Err(d) => Some(format!("compile failed: {d}")),
            Ok(prog) => {
                let mut world = src.fresh_world();
                run_simulated_with(
                    &prog.module,
                    src.registry(),
                    &prog.plans,
                    &mut world,
                    &CostModel::default(),
                    &cfg,
                )
                .err()
                .map(|e| e.to_string())
            }
        },
        other => return Err(format!("unknown bundle backend `{other}`")),
    };
    Ok(ReplayOutcome {
        reproduced: observed.as_deref() == Some(bundle.error.as_str()),
        expected: bundle.error.clone(),
        observed,
        rung: bundle.rung.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_interp::TraceSink;

    /// A DOALL-able program whose worker divides by zero on one iteration:
    /// a deterministic program error that every backend reproduces.
    const DIV_SRC: &str = "extern void emit(int v);\n\
        int main() {\n    int n = 8;\n    \
        for (int i = 0; i < n; i = i + 1) {\n        \
        #pragma CommSet(SELF)\n        \
        { emit(100 / (i - 3)); }\n    }\n    return 0;\n}\n";

    /// A clean annotated loop for success-path checks.
    const SUM_SRC: &str = "extern void emit(int v);\n\
        int main() {\n    int n = 8;\n    \
        for (int i = 0; i < n; i = i + 1) {\n        \
        #pragma CommSet(SELF)\n        \
        { emit(i); }\n    }\n    return 0;\n}\n";

    fn bundle_for(src: &str, backend: &str, error: &str) -> FailureBundle {
        FailureBundle {
            version: 1,
            program_path: "test.cmm".into(),
            source: src.into(),
            effects: String::new(),
            scheme: "doall".into(),
            sync: "spin".into(),
            threads: 4,
            backend: backend.into(),
            world_mode: "auto".into(),
            queue_batch: 8,
            deadline_ms: None,
            fault: commset_runtime::FaultPlan::default(),
            error: error.into(),
            rung: format!("{backend}(4)"),
            attempt: 1,
            run_id: 0,
            history: vec![],
        }
    }

    #[test]
    fn deterministic_failure_reproduces_under_replay() {
        // Discover the exact error rendering once, then assert replay
        // reproduces it from the bundle alone.
        let probe = bundle_for(DIV_SRC, "sim", "probe");
        let out = replay_bundle(&probe).unwrap();
        let err = out.observed.expect("division by zero must fail");
        assert!(err.contains("division by zero"), "{err}");

        let bundle = bundle_for(DIV_SRC, "sim", &err);
        let out = replay_bundle(&bundle).unwrap();
        assert!(out.reproduced, "observed {:?}", out.observed);
    }

    #[test]
    fn healthy_program_does_not_reproduce_a_recorded_error() {
        let bundle = bundle_for(SUM_SRC, "sim", "some stale error");
        let out = replay_bundle(&bundle).unwrap();
        assert!(!out.reproduced);
        assert!(out.observed.is_none(), "clean run observes no error");
    }

    #[test]
    fn corrupt_knobs_are_reported_not_panicked() {
        let mut b = bundle_for(SUM_SRC, "sim", "e");
        b.scheme = "magic".into();
        assert!(replay_bundle(&b).unwrap_err().contains("unknown scheme"));
        let mut b = bundle_for(SUM_SRC, "warp", "e");
        b.backend = "warp".into();
        assert!(replay_bundle(&b).unwrap_err().contains("backend"));
        let mut b = bundle_for(SUM_SRC, "sim", "e");
        b.world_mode = "striped".into();
        assert!(replay_bundle(&b)
            .unwrap_err()
            .contains("unknown world mode"));
    }

    #[test]
    fn supervised_profile_recovers_a_clean_program() {
        let src =
            SyntheticSource::new("t.cmm", SUM_SRC, "", Scheme::Doall, SyncMode::Spin).unwrap();
        let out = run_profile_supervised(
            &src,
            false,
            4,
            &ExecConfig::with_trace(TraceSink::new()),
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert!(out.recovery.is_clean());
        assert_eq!(out.recovery.final_mode, "sim(4)");
        assert!(out.telemetry.is_some());
    }

    #[test]
    fn captured_bundle_replays_the_original_failure_deterministically() {
        // End-to-end acceptance: supervise a deterministically-failing
        // program with bundle capture on, load the `.repro.json` it
        // writes, and assert `replay_bundle` reproduces the recorded
        // failure exactly.
        let dir = std::env::temp_dir().join("commset-replay-capture-test");
        let _ = std::fs::remove_dir_all(&dir);
        let src =
            SyntheticSource::new("t.cmm", DIV_SRC, "", Scheme::Doall, SyncMode::Spin).unwrap();
        let policy = RecoveryPolicy {
            bundle_dir: Some(dir.clone()),
            ..RecoveryPolicy::default()
        };
        let fail =
            run_profile_supervised(&src, false, 4, &ExecConfig::default(), &policy).unwrap_err();
        let path = fail
            .recovery
            .bundle
            .as_ref()
            .expect("first failure must capture a bundle");
        assert!(path.ends_with(".repro.json"), "{path}");
        let bundle = FailureBundle::load(std::path::Path::new(path)).unwrap();
        assert_eq!(bundle.source, DIV_SRC);
        assert!(
            bundle.error.contains("division by zero"),
            "{}",
            bundle.error
        );
        let out = replay_bundle(&bundle).unwrap();
        assert!(
            out.reproduced,
            "expected {:?}, observed {:?}",
            out.expected, out.observed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervised_profile_falls_through_to_sequential_on_program_error() {
        // Division by zero is deterministic: every parallel rung fails,
        // the sequential fallback fails identically, and the supervisor
        // reports a terminal failure whose error is the true program
        // error.
        let src =
            SyntheticSource::new("t.cmm", DIV_SRC, "", Scheme::Doall, SyncMode::Spin).unwrap();
        let fail = run_profile_supervised(
            &src,
            false,
            4,
            &ExecConfig::default(),
            &RecoveryPolicy::default(),
        )
        .unwrap_err();
        assert!(
            fail.error.to_string().contains("division by zero"),
            "{}",
            fail.error
        );
        assert_eq!(
            fail.recovery.rungs.last().map(String::as_str),
            Some("sequential")
        );
        assert_eq!(fail.recovery.final_mode, "exhausted");
        // Deterministic errors skip same-rung retries.
        assert_eq!(fail.recovery.retries, 0);
    }
}
