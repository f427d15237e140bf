//! The program `commsetc profile` runs: a compiled `.cmm` program against
//! a *synthetic deterministic world*, as a [`SyntheticSource`] for
//! `commset_interp::run_attempt`. A traced attempt yields a
//! `commset_telemetry::RunReport` (stage balance, lock contention by rank,
//! queue traffic, unified counters) without the user writing any
//! intrinsic handlers.
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
//! Two backends (`commset_interp::Backend`):
//!
//! * the **discrete-event simulator** (default) — deterministic ticks, so
//!   profiles are bit-identical across runs and golden-testable;
//! * the **real-thread executor** (`--real`) — monotonic nanoseconds, for
//!   observing actual contention on the host.
//!
//! [`rank_schedules`] gives `commsetc schedules` its per-schedule
//! performance figure: every applicable schedule runs once on the DES
//! over the same synthetic world, so a schedule's rank and the ticks
//! `profile` reports for it come from one cost model.

use crate::replay::{parse_scheme, parse_sync};
use crate::spec::{build_table, parse_effects, EffectsSpec};
use crate::{Analysis, Compiler, ParallelPlan, Scheme, SyncMode};
use commset_checker::{ModelConfig, ModelWorld};
use commset_interp::{run_sequential, run_simulated, CompiledProgram, ProgramDesc, ProgramSource};
use commset_ir::IntrinsicTable;
use commset_runtime::intrinsics::{IntrinsicOutcome, Registry};
use commset_runtime::{Value, World};
use commset_sim::CostModel;
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

/// One applicable schedule with its simulated cost.
#[derive(Debug, Clone)]
pub struct RankedSchedule {
    /// The parallelizing transform.
    pub scheme: Scheme,
    /// The synchronization mode.
    pub sync: SyncMode,
    /// The schedule's plan (workers, queues, locks).
    pub plan: ParallelPlan,
    /// Simulated ticks of one run on the synthetic world.
    pub ticks: u64,
    /// Sequential ticks over `ticks`.
    pub speedup: f64,
}

/// The schedules [`rank_schedules`] ranked, with their baseline.
#[derive(Debug, Clone)]
pub struct Ranking {
    /// Simulated ticks of the sequential program on the synthetic world.
    pub sequential_ticks: u64,
    /// Every applicable schedule, fastest first; ties keep the
    /// enumeration order of [`Compiler::compile_all`].
    pub schedules: Vec<RankedSchedule>,
}

/// Ranks every applicable (scheme, sync) schedule at `nthreads` by
/// running it once on the DES over the synthetic world of `spec`'s model
/// knobs. The sequential module runs once first as the baseline.
///
/// # Errors
///
/// Returns the diagnostic when the sequential module does not lower, and
/// the executor error, prefixed by the schedule, when a run fails.
pub fn rank_schedules(
    compiler: &Compiler,
    analysis: &Analysis,
    spec: &EffectsSpec,
    nthreads: usize,
) -> Result<Ranking, String> {
    let registry = synthetic_registry(&compiler.intrinsics, spec);
    let cm = CostModel::default();
    let seq_module = compiler
        .compile_sequential(analysis)
        .map_err(|d| d.to_string())?;
    let sequential_ticks =
        run_sequential(&seq_module, &registry, &mut synthetic_world(), &cm, "main")
            .map_err(|e| format!("sequential: {e}"))?
            .sim_time;
    let mut schedules = Vec::new();
    for (scheme, sync, module, plan) in compiler.compile_all(analysis, nthreads) {
        let ticks = run_simulated(
            &module,
            &registry,
            std::slice::from_ref(&plan),
            &mut synthetic_world(),
            &cm,
        )
        .map_err(|e| format!("{scheme} + {sync}: {e}"))?
        .sim_time;
        schedules.push(RankedSchedule {
            scheme,
            sync,
            plan,
            ticks,
            speedup: sequential_ticks as f64 / ticks as f64,
        });
    }
    schedules.sort_by_key(|s| s.ticks);
    Ok(Ranking {
        sequential_ticks,
        schedules,
    })
}

/// A [`ProgramSource`] over the synthetic world: the program `commsetc
/// profile` and `commsetc report` run, and the one `commsetc replay`
/// rebuilds from a failure bundle. Both build it from a [`ProgramDesc`]
/// alone, so a bundle replays exactly the program that failed.
pub struct SyntheticSource {
    compiler: Compiler,
    analysis: Analysis,
    registry: Registry,
    scheme: Scheme,
    sync: SyncMode,
    desc: ProgramDesc,
}

impl SyntheticSource {
    /// Parses the sidecar, builds the intrinsic table and analyses the
    /// program under `desc`'s hot-function override.
    ///
    /// # Errors
    ///
    /// Returns the scheme/sync-name, sidecar, type-table or front-end
    /// diagnostic as a string.
    pub fn new(desc: ProgramDesc) -> Result<SyntheticSource, String> {
        let scheme = parse_scheme(&desc.scheme)?;
        let sync = parse_sync(&desc.sync)?;
        let spec = parse_effects(&desc.effects)?;
        let table = build_table(&desc.source, &spec)?;
        let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
        let mut compiler = Compiler::new(table).with_irrevocable(&irrevocable);
        if let Some(f) = &desc.hot_func {
            compiler = compiler.with_hot_func(f);
        }
        let analysis = compiler.analyze(&desc.source).map_err(|d| d.to_string())?;
        let registry = synthetic_registry(&compiler.intrinsics, &spec);
        Ok(SyntheticSource {
            compiler,
            analysis,
            registry,
            scheme,
            sync,
            desc,
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
