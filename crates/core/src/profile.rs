//! The `commsetc profile` runner: execute a compiled `.cmm` program
//! against a *synthetic deterministic world* with telemetry on, yielding a
//! [`RunReport`] (stage balance, lock contention by rank, queue traffic,
//! unified counters) without the user writing any intrinsic handlers.
//!
//! The synthetic world mirrors the dynamic checker's abstract model
//! ([`commset-checker`]'s `ModelWorld`): return values are pure hash
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
use commset_checker::model::hash_call;
use commset_interp::{run_simulated_with, run_threaded_with, ExecConfig};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::{IntrinsicOutcome, Registry};
use commset_runtime::{Value, World};
use commset_sim::CostModel;
use commset_telemetry::RunReport;
use std::collections::BTreeMap;

/// World slot holding the per-instance stream countdowns.
const STREAMS_SLOT: &str = "__profile_streams";

type Streams = BTreeMap<(String, i64), i64>;

/// Builds a handler registry for every intrinsic in `table`, with the
/// checker-model semantics described in the module docs.
pub fn synthetic_registry(table: &IntrinsicTable, spec: &EffectsSpec) -> Registry {
    let size = spec.model_size.unwrap_or(6);
    let stream_len = spec.model_stream.unwrap_or(3);
    let mut reg = Registry::new();
    for (name, sig) in table.iter() {
        let owned = name.to_string();
        let fresh = table.is_fresh_handle(name);
        let ret = sig.ret;
        let size_query = ret == Type::Int && sig.params.is_empty() && sig.writes.is_empty();
        // Stream modeling: an int-returning intrinsic that writes a
        // per-instance channel, keyed by its first argument.
        let stream_chan = (ret == Type::Int && !sig.params.is_empty())
            .then(|| {
                sig.writes
                    .iter()
                    .find(|c| table.is_per_instance(**c))
                    .map(|c| table.channels.name(*c).to_string())
            })
            .flatten();
        reg.register(name, move |world: &mut World, args: &[Value]| {
            let h = hash_call(&owned, args);
            let value = if fresh {
                Value::Int((h & 0x3fff_ffff) as i64 | 1)
            } else if let Some(chan) = &stream_chan {
                let key = args.first().map(|v| v.as_int()).unwrap_or(0);
                let streams = world.get_mut::<Streams>(STREAMS_SLOT);
                let remaining = streams.entry((chan.clone(), key)).or_insert(stream_len);
                let v = i64::from(*remaining > 0);
                if *remaining > 0 {
                    *remaining -= 1;
                }
                Value::Int(v)
            } else {
                match ret {
                    Type::Void => Value::Int(0),
                    Type::Float => Value::Float((h % 1000) as f64),
                    Type::Int if size_query => Value::Int(size),
                    _ => Value::Int((h % 1009) as i64),
                }
            };
            IntrinsicOutcome::value(value)
        });
    }
    reg
}

/// A fresh world carrying the stream-countdown slot the synthetic
/// registry's handlers expect.
pub fn synthetic_world() -> World {
    let mut w = World::new();
    w.install(STREAMS_SLOT, Streams::new());
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
/// run against the synthetic world with telemetry enabled.
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
    let cfg = ExecConfig {
        telemetry: true,
        ..ExecConfig::default()
    };
    run_profile_with(compiler, analysis, spec, scheme, threads, sync, real, &cfg)
}

/// [`run_profile`] with a caller-supplied [`ExecConfig`] — the hook for
/// `--metrics` (hotspot registry) and an attached event journal.
/// Telemetry is forced on regardless of `cfg.telemetry`: a profile
/// without a span report is not a profile.
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
        telemetry: true,
        ..cfg.clone()
    };
    let plans = [plan];
    if real {
        let out = run_threaded_with(&module, &registry, &plans, world, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(ProfileOutcome {
            report: out.telemetry.expect("telemetry was enabled"),
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
            report: out.telemetry.expect("telemetry was enabled"),
            sim_time: Some(out.sim_time),
            metrics: out.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_checker::{ModelConfig, ModelWorld};

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
