//! Failure-bundle replay.
//!
//! A `.repro.json` bundle (see `commset-interp`'s `bundle` module) carries
//! the program source, effects sidecar and hot-function override
//! *inline*, so a failed run can be rebuilt from the bundle alone: the
//! bundle's [`ProgramDesc`] builds the same [`SyntheticSource`]
//! `commsetc profile` ran, and the recorded threads/backend/world-mode/
//! deadline/fault-plan knobs pin the exact failing configuration.
//! `commsetc replay <bundle>` re-executes that one attempt through
//! `commset_interp::run_attempt` and reports whether the recorded error
//! reproduces.

use crate::profile::SyntheticSource;
use crate::{Scheme, SyncMode};
use commset_interp::{replay_attempt, FailureBundle, ProgramDesc, ProgramSource};

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

/// The outcome of replaying a failure bundle.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// True when the recorded error reproduced exactly.
    pub reproduced: bool,
    /// The error the bundle recorded.
    pub expected: String,
    /// The error the replay observed (`None`: the run succeeded).
    pub observed: Option<String>,
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
    let src = SyntheticSource::new(ProgramDesc {
        path: bundle.program_path.clone(),
        source: bundle.source.clone(),
        effects: bundle.effects.clone(),
        scheme: bundle.scheme.clone(),
        sync: bundle.sync.clone(),
        hot_func: bundle.hot_func.clone(),
    })?;
    replay_bundle_on(bundle, &src)
}

/// As [`replay_bundle`], against the program source the failed run used
/// (an embedder's registry and world rather than the synthetic ones).
///
/// # Errors
///
/// As [`replay_bundle`].
pub fn replay_bundle_on(
    bundle: &FailureBundle,
    src: &dyn ProgramSource,
) -> Result<ReplayOutcome, String> {
    let observed = replay_attempt(bundle, src)?;
    Ok(ReplayOutcome {
        reproduced: observed.as_deref() == Some(bundle.error.as_str()),
        expected: bundle.error.clone(),
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_interp::{
        capture_bundle, run_attempt, AttemptError, Backend, ExecConfig, TraceSink,
    };

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

    fn desc(src: &str) -> ProgramDesc {
        ProgramDesc {
            path: "t.cmm".into(),
            source: src.into(),
            effects: String::new(),
            scheme: Scheme::Doall.to_string(),
            sync: SyncMode::Spin.to_string(),
            hot_func: None,
        }
    }

    fn bundle_for(src: &str, backend: &str, error: &str) -> FailureBundle {
        FailureBundle {
            version: 2,
            program_path: "test.cmm".into(),
            source: src.into(),
            effects: String::new(),
            scheme: "doall".into(),
            sync: "spin".into(),
            hot_func: None,
            threads: 4,
            backend: backend.into(),
            world_mode: "auto".into(),
            deadline_ms: None,
            fault: commset_runtime::FaultPlan::default(),
            error: error.into(),
            run_id: 0,
        }
    }

    #[test]
    fn deterministic_failure_reproduces_under_replay() {
        // Per backend: discover the exact error rendering once, then
        // assert replay reproduces it from the bundle alone.
        for backend in ["sim", "threads"] {
            let probe = bundle_for(DIV_SRC, backend, "probe");
            let out = replay_bundle(&probe).unwrap();
            let err = out.observed.expect("division by zero must fail");
            assert!(err.contains("division by zero"), "{backend}: {err}");

            let bundle = bundle_for(DIV_SRC, backend, &err);
            let out = replay_bundle(&bundle).unwrap();
            assert!(out.reproduced, "{backend}: observed {:?}", out.observed);
        }
    }

    #[test]
    fn parallel_compile_failure_is_observed_not_an_error() {
        // An attempt that does not compile is an observed failure,
        // rendered as the attempt runner reports it.
        let mut b = bundle_for(SUM_SRC, "threads", "e");
        b.threads = 0;
        let out = replay_bundle(&b).unwrap();
        let observed = out.observed.expect("zero threads must not compile");
        assert!(observed.starts_with("compile failed: "), "{observed}");
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
    fn a_clean_program_finishes_in_one_attempt() {
        let src = SyntheticSource::new(desc(SUM_SRC)).unwrap();
        let cfg = ExecConfig::with_trace(TraceSink::new());
        let out = run_attempt(&src, Backend::Sim, 4, &cfg).unwrap();
        assert!(out.telemetry.is_some());
        assert!(out.sim_time.is_some());
    }

    #[test]
    fn captured_bundle_replays_the_original_failure_deterministically() {
        // End-to-end acceptance: run a deterministically failing program
        // once, capture its failure, load the `.repro.json` and assert
        // `replay_bundle` reproduces the recorded failure exactly.
        let dir = std::env::temp_dir().join("commset-replay-capture-test");
        let _ = std::fs::remove_dir_all(&dir);
        let src = SyntheticSource::new(desc(DIV_SRC)).unwrap();
        let cfg = ExecConfig::default();
        let err = run_attempt(&src, Backend::Sim, 4, &cfg).unwrap_err();
        assert!(matches!(err, AttemptError::Exec(_)), "{err}");
        let path = capture_bundle(&src, Backend::Sim, 4, &cfg, &err, &dir).unwrap();
        assert!(path.to_string_lossy().ends_with(".repro.json"));
        let bundle = FailureBundle::load(&path).unwrap();
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
}
