//! Sharded-world equivalence regression suite.
//!
//! The sharded world (`commset-runtime`'s `ShardedWorld`) must be
//! *observationally indistinguishable* from the historical single
//! `Mutex<World>`: for every workload, every applicable scheme, and
//! every thread count, the final worlds of a single-lock run and a
//! sharded run must both validate against the sequential oracle, and
//! their watchdog reports must stay clean. Workloads whose registries
//! declare slot bindings additionally have to *use* the sharded fast
//! path (otherwise the suite would be vacuous for them).

use commset::Scheme;
use commset_interp::{ExecConfig, ThreadOutcome, WorldMode};
use commset_runtime::{FaultPlan, SlowWorker};
use commset_sim::CostModel;
use commset_workloads::{all, SchemeSpec, Workload};

const THREADS: [usize; 3] = [2, 4, 8];

/// Runs one scheme on real threads under `mode`; `None` when the scheme
/// does not apply, panic on executor failure (these runs are fault-free).
fn run(w: &Workload, spec: &SchemeSpec, threads: usize, mode: WorldMode) -> Option<ThreadOutcome> {
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::default()
    };
    match w.run_scheme_threaded(spec, threads, &cfg) {
        Ok(out) => Some(out),
        Err(Ok(_diag)) => None,
        Err(Err(e)) => panic!(
            "{}: {} x{threads} ({mode:?}): executor failed: {e}",
            w.name, spec.label
        ),
    }
}

/// Every workload x applicable scheme x {2,4,8} threads: the sharded
/// world and the single-lock world both validate against the sequential
/// oracle, with clean watchdogs.
#[test]
fn sharded_and_single_lock_worlds_agree_with_the_sequential_oracle() {
    let cm = CostModel::default();
    let mut compared = 0u32;
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for threads in THREADS {
                let Some(single) = run(&w, spec, threads, WorldMode::SingleLock) else {
                    continue;
                };
                let sharded = run(&w, spec, threads, WorldMode::Sharded)
                    .expect("sharded applicability must match single-lock");
                for (label, out) in [("single-lock", &single), ("sharded", &sharded)] {
                    (w.validate)(&seq_world, &out.world).unwrap_or_else(|e| {
                        panic!("{}: {} x{threads} ({label}): {e}", w.name, spec.label)
                    });
                    assert!(
                        out.stats.watchdog.is_clean(),
                        "{}: {} x{threads} ({label}): watchdog {:?}",
                        w.name,
                        spec.label,
                        out.stats.watchdog
                    );
                }
                // The single-lock run must never touch shard counters.
                assert_eq!(
                    single.stats.shard,
                    Default::default(),
                    "{}: {} x{threads}: single-lock run bumped shard stats",
                    w.name,
                    spec.label
                );
                compared += 1;
            }
        }
    }
    assert!(compared >= 60, "matrix too small: only {compared} runs");
}

/// Workloads with declared slot bindings must exercise the sharded fast
/// path — single-slot footprints routed to one shard lock — not just
/// fall through to the whole-world gather.
#[test]
fn bound_workloads_use_the_sharded_fast_path() {
    let mut bound = 0u32;
    for w in all() {
        if !w.registry.has_bindings() {
            continue;
        }
        bound += 1;
        let spec = w
            .schemes
            .iter()
            .find(|s| s.scheme != Scheme::Sequential)
            .expect("bound workloads have a parallel scheme");
        let out = run(&w, spec, 4, WorldMode::Sharded).expect("bound scheme applies");
        assert!(
            out.stats.shard.fast_acquires > 0,
            "{}: {}: no fast-path acquisitions: {:?}",
            w.name,
            spec.label,
            out.stats.shard
        );
        assert!(
            out.stats.shard.fast_acquires > out.stats.shard.whole_acquires,
            "{}: {}: the whole-world slow path dominates: {:?}",
            w.name,
            spec.label,
            out.stats.shard
        );
    }
    assert!(bound >= 2, "md5sum and ECLAT must declare bindings");
}

/// `WorldMode::Auto` equals the explicit modes it resolves to: sharded
/// for bound registries, single-lock otherwise — same final world either
/// way (validated against the oracle), and the shard counters reveal
/// which implementation ran.
#[test]
fn auto_mode_resolves_by_bindings_and_stays_equivalent() {
    let cm = CostModel::default();
    for w in all() {
        let (_, seq_world) = w.run_sequential(&cm);
        let Some(spec) = w.schemes.iter().find(|s| s.scheme != Scheme::Sequential) else {
            continue;
        };
        let Some(auto) = run(&w, spec, 4, WorldMode::Auto) else {
            continue;
        };
        (w.validate)(&seq_world, &auto.world)
            .unwrap_or_else(|e| panic!("{}: {} (auto): {e}", w.name, spec.label));
        let used_shards = auto.stats.shard != Default::default();
        assert_eq!(
            used_shards,
            w.registry.has_bindings(),
            "{}: auto mode resolved against the registry's bindings",
            w.name
        );
    }
}

/// The delta-privatization thread counts — 1 included deliberately: a
/// one-worker section still routes through the delta buffer, and its
/// coalesce must be the identity fold.
const DELTA_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs one scheme in the discrete-event simulator under `mode`; `None`
/// when the scheme does not apply.
fn run_sim(
    w: &Workload,
    spec: &SchemeSpec,
    threads: usize,
    mode: WorldMode,
) -> Option<(commset_runtime::World, commset_interp::SimStats)> {
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::default()
    };
    match w.run_scheme_with(spec, threads, &CostModel::default(), &cfg) {
        Ok((_, world, stats)) => Some((world, stats)),
        Err(Ok(_diag)) => None,
        Err(Err(e)) => panic!(
            "{}: {} x{threads} (sim, {mode:?}): executor failed: {e}",
            w.name, spec.label
        ),
    }
}

/// The three-way equivalence wall: every delta-eligible workload (a
/// registry with declared merges), every DOALL scheme, both backends
/// (sim and threads), at 1/2/4/8 threads, under SingleLock, Sharded and
/// Deltas — all oracle-identical. On the threads backend the Deltas run
/// must additionally be *lock-free on the hot path*: zero shard
/// acquisitions from worker-side commutative updates (md5sum is allowed
/// exactly one, its pre-section main-thread `file_count` probe), with
/// the updates accounted for by the delta counters instead.
#[test]
fn delta_mode_is_oracle_identical_and_lock_free_across_backends() {
    let cm = CostModel::default();
    let mut cells = 0u32;
    let mut elisions = 0u64;
    for w in all() {
        if !w.registry.has_merges() {
            continue;
        }
        let (_, seq_world) = w.run_sequential(&cm);
        // Main-thread calls before the parallel section legitimately use
        // the shared sharded world; only md5sum makes one (`file_count`).
        let allowance = u64::from(w.name == "md5sum");
        for spec in &w.schemes {
            if spec.scheme != Scheme::Doall {
                continue;
            }
            for threads in DELTA_THREADS {
                // Threads backend, three ways.
                let Some(_single) = run(&w, spec, threads, WorldMode::SingleLock) else {
                    continue;
                };
                let sharded = run(&w, spec, threads, WorldMode::Sharded)
                    .expect("sharded applicability must match single-lock");
                let deltas = run(&w, spec, threads, WorldMode::Deltas)
                    .expect("deltas applicability must match single-lock");
                for (label, out) in [
                    ("single-lock", &_single),
                    ("sharded", &sharded),
                    ("deltas", &deltas),
                ] {
                    (w.validate)(&seq_world, &out.world).unwrap_or_else(|e| {
                        panic!("{}: {} x{threads} ({label}): {e}", w.name, spec.label)
                    });
                    assert!(
                        out.stats.watchdog.is_clean(),
                        "{}: {} x{threads} ({label}): watchdog {:?}",
                        w.name,
                        spec.label,
                        out.stats.watchdog
                    );
                }
                // The locked modes never touch delta counters...
                assert_eq!(sharded.stats.delta, Default::default());
                // ...and the delta mode routes every worker-side update
                // through private buffers instead of shard locks.
                let d = &deltas.stats;
                assert!(
                    d.delta.applies > 0 && d.delta.coalesces > 0 && d.delta.merged_slots > 0,
                    "{}: {} x{threads}: delta path never engaged: {:?}",
                    w.name,
                    spec.label,
                    d.delta
                );
                assert!(
                    d.shard.fast_acquires + d.shard.whole_acquires + d.shard.multi_acquires
                        <= allowance,
                    "{}: {} x{threads}: delta run still took shard locks: {:?}",
                    w.name,
                    spec.label,
                    d.shard
                );
                elisions += d.delta.lock_elisions;
                // Sim backend, three ways.
                for mode in [WorldMode::SingleLock, WorldMode::Sharded, WorldMode::Deltas] {
                    let (world, stats) = run_sim(&w, spec, threads, mode)
                        .expect("sim applicability must match threads");
                    (w.validate)(&seq_world, &world).unwrap_or_else(|e| {
                        panic!("{}: {} x{threads} (sim, {mode:?}): {e}", w.name, spec.label)
                    });
                    if mode == WorldMode::Deltas {
                        assert!(
                            stats.delta.applies > 0,
                            "{}: {} x{threads}: sim delta path never engaged",
                            w.name,
                            spec.label
                        );
                        elisions += stats.delta.lock_elisions;
                    } else {
                        assert_eq!(stats.delta, Default::default());
                    }
                }
                cells += 1;
            }
        }
    }
    assert!(
        cells >= 24,
        "delta equivalence matrix too small: only {cells} cells"
    );
    // Spin/Mutex schemes guard the update region with a compiled lock
    // whose guarded intrinsics are all delta-covered; the delta runs must
    // have elided it (Lib inserts no locks and TM uses transactions, so
    // the total is summed across the whole matrix).
    assert!(
        elisions > 0,
        "no delta run ever elided a fully-covered region lock"
    );
}

/// Shard holds stretched by the fault plan, combined with one worker
/// dragging at every sync event, at eight threads: the watchdog's rank
/// ordering over shard ranks must stay clean for every bound workload,
/// and the sharded result must still validate against the oracle. This is
/// the adversarial schedule most likely to expose a rank inversion —
/// shard acquisitions held long enough for every other worker to pile up
/// behind them, skewed by a straggler.
#[test]
fn shard_holds_with_a_slow_worker_keep_rank_order_at_eight_threads() {
    let cm = CostModel::default();
    let mut exercised = 0u32;
    for w in all() {
        if !w.registry.has_bindings() {
            continue;
        }
        let (_, seq_world) = w.run_sequential(&cm);
        let Some(spec) = w.schemes.iter().find(|s| s.scheme != Scheme::Sequential) else {
            continue;
        };
        let fault = FaultPlan {
            slow: Some(SlowWorker { tid: 6, cost: 800 }),
            ..FaultPlan::shard_hold(0x8F, 700)
        };
        let cfg = ExecConfig {
            world: WorldMode::Sharded,
            fault,
            ..ExecConfig::default()
        };
        let out = match w.run_scheme_threaded(spec, 8, &cfg) {
            Ok(out) => out,
            Err(Ok(_diag)) => continue,
            Err(Err(e)) => panic!("{}: {} x8 tortured: {e}", w.name, spec.label),
        };
        (w.validate)(&seq_world, &out.world)
            .unwrap_or_else(|e| panic!("{}: {} x8 tortured: {e}", w.name, spec.label));
        assert!(
            out.stats.watchdog.is_clean(),
            "{}: {} x8: rank-order violation under shard_hold + slow_worker: {:?}",
            w.name,
            spec.label,
            out.stats.watchdog
        );
        assert!(
            out.stats.fault.slow_delays > 0,
            "{}: slow-worker fault never fired at 8 threads",
            w.name
        );
        exercised += 1;
    }
    assert!(exercised > 0, "no bound workload exercised the combination");
}
