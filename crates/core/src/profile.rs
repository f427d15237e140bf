//! The `commsetc profile` runner: execute a compiled `.cmm` program
//! against a *synthetic deterministic world* with its trace on, yielding a
//! [`RunReport`] (stage balance, lock contention by rank, queue traffic,
//! unified counters) without the user writing any intrinsic handlers.
//!
//! The synthetic world is the dynamic checker's abstract model
//! ([`commset_checker::ModelWorld`]): return values are pure hash
//! functions of `(intrinsic, args)`, handle allocators yield deterministic
//! fresh handles, argument-less effect-free size queries return the
//! sidecar's `model size` (default 6) as the loop bound, and int-returning
//! writers of a per-instance channel model `fread`-style streams — `1` for
//! `model stream` calls per instance key (default 3), then `0`. Costs come
//! from the effects sidecar's `cost=` rows, so the DES profile reflects
//! the declared workload shape.
//!
//! Two backends:
//!
//! * the **discrete-event simulator** (default) — deterministic ticks, so
//!   profiles are bit-identical across runs and golden-testable;
//! * the **real-thread executor** (`--real`) — monotonic nanoseconds, for
//!   observing actual contention on the host.

use crate::spec::EffectsSpec;
use crate::{Analysis, Compiler, Scheme, SyncMode};
use commset_checker::{ModelConfig, ModelWorld};
use commset_interp::{run_simulated_with, run_threaded_with, ExecConfig};
use commset_ir::IntrinsicTable;
use commset_runtime::intrinsics::{IntrinsicOutcome, Registry};
use commset_runtime::{Value, World};
use commset_sim::CostModel;
use commset_telemetry::RunReport;
use std::sync::Arc;

/// World slot holding the checker-model world the synthetic handlers
/// run against, built on first use from the sidecar's model knobs.
const MODEL_SLOT: &str = "__profile_model";

/// Builds a handler registry for every intrinsic in `table`: each handler
/// runs the call through the checker's [`ModelWorld`] (the semantics
/// described in the module docs), configured with the sidecar's
/// `model size` and `model stream`.
pub fn synthetic_registry(table: &IntrinsicTable, spec: &EffectsSpec) -> Registry {
    let cfg = ModelConfig {
        size: spec.model_size.unwrap_or(6),
        stream_len: spec.model_stream.unwrap_or(3),
        ..ModelConfig::default()
    };
    let table = Arc::new(table.clone());
    let mut reg = Registry::new();
    for (id, (name, _)) in table.iter().enumerate() {
        let (table, cfg) = (Arc::clone(&table), cfg.clone());
        reg.register(name, move |world: &mut World, args: &[Value]| {
            let model = world
                .get_mut::<Option<ModelWorld>>(MODEL_SLOT)
                .get_or_insert_with(|| ModelWorld::new(cfg.clone()));
            IntrinsicOutcome::value(model.call_id(&table, id, args))
        });
    }
    reg
}

/// A fresh world carrying the model slot the synthetic registry's
/// handlers expect.
pub fn synthetic_world() -> World {
    let mut w = World::new();
    w.install(MODEL_SLOT, None::<ModelWorld>);
    w
}

/// The outcome of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileOutcome {
    /// The unified telemetry report.
    pub report: RunReport,
    /// Total simulated time, when the DES backend ran (`None` under
    /// `--real`).
    pub sim_time: Option<u64>,
    /// The merged metrics registry, when `ExecConfig::metrics` was on.
    pub metrics: Option<commset_telemetry::MetricsRegistry>,
}

/// Compiles `analysis` under `(scheme, threads, sync)` and profiles one
/// traced run against the synthetic world.
///
/// `real` selects the real-thread executor; the default is the
/// deterministic discrete-event simulator.
///
/// # Errors
///
/// Returns the transform's applicability diagnostic or the executor's
/// failure, rendered as a string for the CLI.
pub fn run_profile(
    compiler: &Compiler,
    analysis: &Analysis,
    spec: &EffectsSpec,
    scheme: Scheme,
    threads: usize,
    sync: SyncMode,
    real: bool,
) -> Result<ProfileOutcome, String> {
    let cfg = ExecConfig::default();
    run_profile_with(compiler, analysis, spec, scheme, threads, sync, real, &cfg)
}

/// [`run_profile`] with a caller-supplied [`ExecConfig`] — the hook for
/// `--metrics` (hotspot registry). The outcome is everything
/// [`crate::report::render_journal`] needs. The trace is forced on when `cfg.trace` is unset: a profile without a
/// run report is not a profile.
///
/// # Errors
///
/// As [`run_profile`].
#[allow(clippy::too_many_arguments)]
pub fn run_profile_with(
    compiler: &Compiler,
    analysis: &Analysis,
    spec: &EffectsSpec,
    scheme: Scheme,
    threads: usize,
    sync: SyncMode,
    real: bool,
    cfg: &ExecConfig,
) -> Result<ProfileOutcome, String> {
    let (module, plan) = compiler
        .compile(analysis, scheme, threads, sync)
        .map_err(|d| d.to_string())?;
    let registry = synthetic_registry(&compiler.intrinsics, spec);
    let mut world = synthetic_world();
    let cfg = ExecConfig {
        trace: Some(cfg.trace.clone().unwrap_or_default()),
        ..cfg.clone()
    };
    let plans = [plan];
    if real {
        let out = run_threaded_with(&module, &registry, &plans, world, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(ProfileOutcome {
            report: out.telemetry.expect("the trace was on"),
            sim_time: None,
            metrics: out.metrics,
        })
    } else {
        let out = run_simulated_with(
            &module,
            &registry,
            &plans,
            &mut world,
            &CostModel::default(),
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        Ok(ProfileOutcome {
            report: out.telemetry.expect("the trace was on"),
            sim_time: Some(out.sim_time),
            metrics: out.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;

    fn table_and_spec() -> (IntrinsicTable, EffectsSpec) {
        let mut t = IntrinsicTable::new();
        t.register("file_count", vec![], Type::Int, &[], &[], 10);
        t.register("fs_open", vec![Type::Int], Type::Handle, &[], &["FS"], 50);
        t.mark_fresh_handle("fs_open");
        t.register(
            "fs_read",
            vec![Type::Handle],
            Type::Int,
            &["FS"],
            &["FS"],
            120,
        );
        t.register("emit", vec![Type::Int], Type::Void, &[], &["CONSOLE"], 40);
        t.mark_per_instance("FS");
        (t, EffectsSpec::default())
    }

    #[test]
    fn synthetic_world_matches_checker_model_semantics() {
        let (t, spec) = table_and_spec();
        let reg = synthetic_registry(&t, &spec);
        let mut w = synthetic_world();
        let mut model = ModelWorld::new(ModelConfig::default());
        let calls: &[(&str, &[Value])] = &[
            ("file_count", &[]),
            ("fs_open", &[Value::Int(0)]),
            ("fs_open", &[Value::Int(1)]),
            ("fs_read", &[Value::Int(9)]),
            ("fs_read", &[Value::Int(9)]),
            ("fs_read", &[Value::Int(9)]),
            ("fs_read", &[Value::Int(9)]),
            ("fs_read", &[Value::Int(7)]),
            ("emit", &[Value::Int(3)]),
        ];
        let got: Vec<Value> = calls
            .iter()
            .map(|(name, args)| {
                let v = reg.call(name, &mut w, args).value;
                assert_eq!(v, model.call(&t, name, args), "{name}{args:?}");
                v
            })
            .collect();
        // Size query returns the default loop bound; fresh handles are
        // odd and distinct per args; streams count down per instance key
        // (3 ones then a zero); void intrinsics return zero.
        assert_eq!(got[0], Value::Int(6));
        assert_ne!(got[1], got[2]);
        assert_eq!(got[1].as_int() & 1, 1);
        let ints = [1, 1, 1, 0, 1, 0].map(Value::Int);
        assert_eq!(got[3..], ints);
    }

    #[test]
    fn model_knobs_come_from_the_sidecar() {
        let (t, mut spec) = table_and_spec();
        spec.model_size = Some(2);
        spec.model_stream = Some(1);
        let reg = synthetic_registry(&t, &spec);
        let mut w = synthetic_world();
        assert_eq!(reg.call("file_count", &mut w, &[]).value, Value::Int(2));
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(4)]).value,
            Value::Int(1)
        );
        assert_eq!(
            reg.call("fs_read", &mut w, &[Value::Int(4)]).value,
            Value::Int(0)
        );
    }
}
