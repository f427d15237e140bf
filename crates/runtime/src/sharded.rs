//! The sharded world: rank-ordered striped shards for commutative state.
//!
//! The real-thread executor historically serialized *every* world
//! intrinsic through one `Mutex<World>`, so DOALL/DSWP workers contended
//! on a single lock no matter how fine the sync engine's rank-ordered
//! lock assignment was. [`ShardedWorld`] partitions the world's slots
//! into [`WORLD_STRIPES`] independently locked shards:
//!
//! * **Striped slots** — names of the form `base#k` (the per-instance
//!   homes that CommSet Group/Self structure describes statically: one
//!   stripe per instance-key residue) — live in shard `k % stripes`, so
//!   operations on different instances take different locks and genuinely
//!   commute at runtime, not just in the simulator's cost model.
//! * **Plain slots** hash to a stable shard, so unrelated shared
//!   structures (console, stats) stop contending with the hot data.
//!
//! Intrinsics reach the shards through the [`Registry`]'s slot bindings
//! (see `Registry::bind`), resolved once per run to slot ids
//! ([`Dispatch`]); the shards share the world's slot-name table, and each
//! slot id's home shard is computed once, at partition:
//!
//! * a **single-shard** footprint takes that shard's lock alone — the
//!   fast path, with a `try_lock` first so contention is *counted*, not
//!   just suffered;
//! * a **multi-shard** footprint acquires its shards in ascending index
//!   order (the same rank-order argument as the sync engine's CommSet
//!   locks, §4.6: shard ranks sit strictly *above* every CommSet lock
//!   rank and are themselves totally ordered, so the combined lock order
//!   stays acyclic), then gathers the shards' slots into a scratch world,
//!   runs the handler, and scatters the slots back — panic-safely;
//! * an **unbound** intrinsic (no declared footprint) takes the
//!   whole-world slow path: every shard, ascending — semantically
//!   identical to the old single mutex.
//!
//! Every acquisition path bumps a [`ShardStats`] counter; the snapshot is
//! the runtime's first observability surface and feeds the wall-clock
//! bench harness's contention report.

use crate::fault::FaultInjector;
use crate::intrinsics::{Dispatch, IntrinsicOutcome, Registry, Route};
use crate::sync::{Mutex, MutexGuard};
use crate::value::Value;
use crate::watchdog::Watchdog;
use crate::world::{SlotId, SlotNames, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of shards a world is partitioned into (and the stripe count
/// workloads use for `base#k` slot families).
pub const WORLD_STRIPES: usize = 8;

/// The stripe an instance key `v` belongs to (Euclidean, so negative
/// keys still land in `0..stripes`).
pub fn stripe_of(v: i64, stripes: usize) -> usize {
    debug_assert!(stripes > 0);
    v.rem_euclid(stripes as i64) as usize
}

/// The slot name of stripe `k` of the `base` family (`"fs"`, 3 → `"fs#3"`).
pub fn stripe_slot(base: &str, k: usize) -> String {
    format!("{base}#{k}")
}

/// FNV-1a, the stable hash used for plain (non-striped) slot names.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a slot name lives in: `base#k` names go to `k % shards`,
/// everything else to a stable hash. Deterministic and stateless, so a
/// slot installed by a handler routes identically forever after.
pub fn shard_of_slot(name: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    if let Some((_, suffix)) = name.rsplit_once('#') {
        if let Ok(k) = suffix.parse::<u64>() {
            return (k % shards as u64) as usize;
        }
    }
    (fnv1a(name) % shards as u64) as usize
}

/// Cumulative shard-lock counters (lives inside [`ShardedWorld`]).
#[derive(Debug, Default)]
pub struct ShardStats {
    fast_acquires: AtomicU64,
    fast_waits: AtomicU64,
    multi_acquires: AtomicU64,
    whole_acquires: AtomicU64,
}

/// Snapshot of a [`ShardedWorld`]'s contention counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Single-shard (fast path) acquisitions.
    pub fast_acquires: u64,
    /// Fast-path acquisitions that found the shard lock contended
    /// (`try_lock` failed and the caller had to wait).
    pub fast_waits: u64,
    /// Multi-shard (gather/scatter) acquisitions.
    pub multi_acquires: u64,
    /// Whole-world (every shard) slow-path acquisitions.
    pub whole_acquires: u64,
}

/// Observation hooks for shard acquisitions: the waits-for watchdog (with
/// the rank base that places shard locks *above* the plan's CommSet
/// locks) and the fault injector (for delays inside a shard hold).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardObserver<'a> {
    /// Watchdog to report multi-shard acquisitions to; `None` = silent.
    pub watchdog: Option<&'a Watchdog>,
    /// The reporting worker's index.
    pub worker: usize,
    /// Rank offset for shard lock ids (`plan.locks.len()` in the
    /// executor, so shard ranks sit strictly above CommSet lock ranks).
    pub rank_base: usize,
    /// Fault injector consulted for shard-hold delays; `None` = quiet.
    pub injector: Option<&'a FaultInjector>,
}

impl<'a> ShardObserver<'a> {
    /// An observer that reports nothing and injects nothing.
    pub fn silent() -> Self {
        ShardObserver::default()
    }
}

/// A world partitioned into independently locked shards.
pub struct ShardedWorld {
    shards: Vec<Mutex<World>>,
    /// The name table the shards share, as of the partition.
    names: Option<Arc<SlotNames>>,
    /// Home shard by slot id of `names`.
    homes: Vec<usize>,
    stats: ShardStats,
}

impl std::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedWorld {
    /// Partitions `world` into `shards` shards by [`shard_of_slot`]; the
    /// shards share `world`'s name table.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn partition(mut world: World, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let names = world.name_table().cloned();
        let homes: Vec<usize> = names.as_deref().map_or_else(Vec::new, |n| {
            (0..n.len())
                .map(|i| shard_of_slot(n.name(SlotId(i as u32)), shards))
                .collect()
        });
        let mut worlds: Vec<World> = (0..shards).map(|_| world.sharing()).collect();
        for (id, boxed) in world.drain_ids() {
            worlds[homes[id.0 as usize]].install_id(id, boxed);
        }
        ShardedWorld {
            shards: worlds.into_iter().map(Mutex::new).collect(),
            names,
            homes,
            stats: ShardStats::default(),
        }
    }

    /// The shard holding `slot`.
    pub fn shard_of(&self, slot: &str) -> usize {
        shard_of_slot(slot, self.shards.len())
    }

    /// The home shard of slot `id` of a world over `names`: precomputed
    /// when `names` is the partition's table, hashed by name otherwise.
    fn home(&self, names: &Arc<SlotNames>, id: SlotId) -> usize {
        let same = self.names.as_ref().is_some_and(|n| Arc::ptr_eq(n, names));
        match self.homes.get(id.0 as usize) {
            Some(&h) if same => h,
            _ => self.shard_of(names.name(id)),
        }
    }

    /// Snapshot of the contention counters.
    pub fn stats(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            fast_acquires: self.stats.fast_acquires.load(Ordering::Relaxed),
            fast_waits: self.stats.fast_waits.load(Ordering::Relaxed),
            multi_acquires: self.stats.multi_acquires.load(Ordering::Relaxed),
            whole_acquires: self.stats.whole_acquires.load(Ordering::Relaxed),
        }
    }

    /// Reassembles the single world (teardown; consumes the sharding).
    pub fn into_world(self) -> World {
        let mut out = World::new();
        for shard in self.shards {
            out.absorb(shard.into_inner());
        }
        out
    }

    /// Runs `f` with the shards holding `slots` locked.
    ///
    /// * empty `slots` — no lock at all; `f` sees an empty scratch world
    ///   (the *pure* route for intrinsics that never touch shared state);
    /// * one shard — the fast path: that shard's `World` directly;
    /// * several shards — ascending-order acquisition, gather into a
    ///   scratch world, scatter back when `f` returns *or unwinds*.
    pub fn with_slots<R>(
        &self,
        slots: &[String],
        obs: &ShardObserver<'_>,
        f: impl FnOnce(&mut World) -> R,
    ) -> R {
        let mut idxs: Vec<usize> = slots.iter().map(|s| self.shard_of(s)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        match idxs.len() {
            0 => f(&mut World::new()),
            1 => self.with_one_shard(idxs[0], obs, f),
            _ => {
                self.stats.multi_acquires.fetch_add(1, Ordering::Relaxed);
                self.with_shard_set(&idxs, obs, f)
            }
        }
    }

    /// Runs `f` with **every** shard locked (ascending) and the whole
    /// world gathered — the slow path for unbound intrinsics, equivalent
    /// to the old single global mutex.
    pub fn with_all<R>(&self, obs: &ShardObserver<'_>, f: impl FnOnce(&mut World) -> R) -> R {
        self.stats.whole_acquires.fetch_add(1, Ordering::Relaxed);
        let idxs: Vec<usize> = (0..self.shards.len()).collect();
        self.with_shard_set(&idxs, obs, f)
    }

    /// Routes one intrinsic call by name through the registry's slot
    /// bindings: bound footprints take their shard locks, unbound
    /// intrinsics take the whole world (the by-name twin of
    /// [`ShardedWorld::call_id`]).
    pub fn call(
        &self,
        registry: &Registry,
        name: &str,
        args: &[Value],
        obs: &ShardObserver<'_>,
    ) -> IntrinsicOutcome {
        match registry.route(name, args) {
            Route::Whole => self.with_all(obs, |w| registry.call(name, w, args)),
            Route::Slots(slots) => self.with_slots(&slots, obs, |w| registry.call(name, w, args)),
        }
    }

    /// Routes one call of intrinsic `id` through its resolved footprint:
    /// a single home shard takes the fast path with no allocation, a
    /// multi-shard footprint the ascending gather, an unbound intrinsic
    /// the whole world. `dispatch` must be resolved against the world
    /// this one was partitioned from.
    pub fn call_id(
        &self,
        dispatch: &Dispatch<'_>,
        id: usize,
        args: &[Value],
        obs: &ShardObserver<'_>,
    ) -> IntrinsicOutcome {
        let run = |w: &mut World| dispatch.call(id, w, args);
        let Some(fp) = dispatch.footprint(id, args) else {
            return self.with_all(obs, run);
        };
        let names = dispatch.names();
        let mut homes = fp.clone().map(|s| self.home(names, s));
        let Some(first) = homes.next() else {
            return run(&mut World::new());
        };
        if homes.all(|h| h == first) {
            return self.with_one_shard(first, obs, run);
        }
        let mut idxs: Vec<usize> = fp.map(|s| self.home(names, s)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        self.stats.multi_acquires.fetch_add(1, Ordering::Relaxed);
        self.with_shard_set(&idxs, obs, run)
    }

    /// Single-shard fast path: `try_lock` first so contention is counted.
    fn with_one_shard<R>(
        &self,
        idx: usize,
        obs: &ShardObserver<'_>,
        f: impl FnOnce(&mut World) -> R,
    ) -> R {
        let mut guard = match self.shards[idx].try_lock() {
            Some(g) => g,
            None => {
                self.stats.fast_waits.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].lock()
            }
        };
        self.stats.fast_acquires.fetch_add(1, Ordering::Relaxed);
        self.hold_delay(obs);
        // An injected poison panics *while the shard guard is held*: the
        // guard drop poisons the std mutex underneath, and the next
        // acquisition must recover it (the `sync` shim's contract).
        Self::maybe_poison(obs);
        f(&mut guard)
    }

    /// Multi-shard path: ascending acquisition (watchdog-reported with
    /// ranks `rank_base + shard index`), gather → run → scatter, with the
    /// scatter guaranteed even when `f` unwinds.
    fn with_shard_set<R>(
        &self,
        idxs: &[usize],
        obs: &ShardObserver<'_>,
        f: impl FnOnce(&mut World) -> R,
    ) -> R {
        debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]), "ascending, deduped");
        let mut guards: Vec<(usize, MutexGuard<'_, World>)> = Vec::with_capacity(idxs.len());
        for &i in idxs {
            if let Some(wd) = obs.watchdog {
                wd.acquiring(obs.worker, obs.rank_base + i);
            }
            let g = self.shards[i].lock();
            if let Some(wd) = obs.watchdog {
                wd.acquired(obs.worker, obs.rank_base + i);
            }
            guards.push((i, g));
        }
        // The injected delay lands *inside* the multi-shard hold — the
        // torture suite's probe that held shard sets cannot deadlock.
        self.hold_delay(obs);
        // Gather every slot of the held shards into a scratch world over
        // the shards' name table (slots move by id).
        let mut scratch = guards[0].1.sharing();
        for (_, g) in &mut guards {
            g.move_into(&mut scratch);
        }
        // An injected poison lands inside the existing unwind containment:
        // the scatter below still runs, every held shard is released (and
        // reported released to the watchdog) before the panic resumes.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Self::maybe_poison(obs);
            f(&mut scratch)
        }));
        // Scatter back by home shard; a slot freshly installed by `f`
        // whose home shard is *not* held (only possible on a partial
        // footprint) falls back to the lowest held shard.
        if let Some(names) = scratch.name_table().cloned() {
            for (id, boxed) in scratch.drain_ids() {
                let home = self.home(&names, id);
                let pos = guards.iter().position(|(i, _)| *i == home).unwrap_or(0);
                let shard = &mut guards[pos].1;
                let to = shard.translate(&names, id);
                shard.install_id(to, boxed);
            }
        }
        // Release in descending order, mirroring acquisition.
        while let Some((i, g)) = guards.pop() {
            drop(g);
            if let Some(wd) = obs.watchdog {
                wd.released(obs.worker, obs.rank_base + i);
            }
        }
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Folds one worker's finished delta buffer into the shared shards at
    /// the section barrier (the `WorldMode::Deltas` coalesce), resolving
    /// each merge by name; executors fold through
    /// [`ShardedWorld::coalesce_resolved`] with the run's dispatch, which
    /// this wraps with an empty one.
    ///
    /// Acquisitions here are plain per-slot locks and are *not* counted
    /// in [`ShardStats`]: the contention counters measure per-update lock
    /// traffic, which is exactly what delta privatization eliminates —
    /// one bounded merge per worker per section is the regime's fixed
    /// cost, reported separately via
    /// [`DeltaSnapshot`](crate::delta::DeltaSnapshot).
    ///
    /// A slot missing from the shared world is installed from the delta
    /// directly (identity base). Returns the number of slots merged.
    ///
    /// # Panics
    ///
    /// Panics when a drained slot has no merge spec in `registry` or the
    /// types mismatch (wiring bug — executors contain it like any handler
    /// panic).
    pub fn coalesce_delta(&self, registry: &Registry, buffer: crate::delta::DeltaBuffer) -> u64 {
        let dispatch = registry.resolve(std::iter::empty(), &mut World::new());
        self.coalesce_resolved(&dispatch, buffer)
    }

    /// Folds a delta buffer by slot id: each slot goes to its precomputed
    /// home shard through the merge `dispatch` resolved for it, in
    /// slot-id order (first-intern order); callers coalesce buffers in
    /// worker-index order, so the overall fold order is deterministic.
    ///
    /// # Panics
    ///
    /// As [`ShardedWorld::coalesce_delta`].
    pub fn coalesce_resolved(
        &self,
        dispatch: &Dispatch<'_>,
        buffer: crate::delta::DeltaBuffer,
    ) -> u64 {
        let Some((names, slots)) = buffer.into_slots() else {
            return 0;
        };
        let mut merged = 0u64;
        for (id, delta) in slots {
            let spec = dispatch.merge_for(&names, id);
            let mut shard = self.shards[self.home(&names, id)].lock();
            let to = shard.translate(&names, id);
            shard.merge_id(to, spec, delta);
            merged += 1;
        }
        merged
    }

    /// Sleeps out a shard-hold fault, if the observer carries an injector
    /// whose plan injects one.
    fn hold_delay(&self, obs: &ShardObserver<'_>) {
        if let Some(inj) = obs.injector {
            let d = inj.shard_hold_delay();
            if d > 0 {
                std::thread::sleep(std::time::Duration::from_micros(d));
            }
        }
    }

    /// Panics with [`crate::fault::SHARD_POISON_MSG`] if the observer's
    /// injector schedules a shard poison for this hold.
    fn maybe_poison(obs: &ShardObserver<'_>) {
        if let Some(inj) = obs.injector {
            if inj.shard_poison_now() {
                panic!("{}", crate::fault::SHARD_POISON_MSG);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::Arc;

    fn striped_world(stripes: usize) -> ShardedWorld {
        let mut w = World::new();
        for k in 0..stripes {
            w.install(&stripe_slot("acc", k), 0i64);
        }
        w.install("console", Vec::<i64>::new());
        ShardedWorld::partition(w, stripes)
    }

    #[test]
    fn striped_slots_land_on_their_stripe_shard() {
        let sw = striped_world(WORLD_STRIPES);
        for k in 0..WORLD_STRIPES {
            assert_eq!(sw.shard_of(&stripe_slot("acc", k)), k);
        }
        // Stripe indices beyond the shard count wrap.
        assert_eq!(shard_of_slot("acc#11", 8), 3);
        // Plain names hash stably.
        assert_eq!(shard_of_slot("console", 8), shard_of_slot("console", 8));
        // Negative keys stay in range.
        assert_eq!(stripe_of(-1, 8), 7);
    }

    #[test]
    fn by_name_coalesce_folds_a_foreign_buffer() {
        let mut reg = Registry::new();
        reg.register("add", |w, args| {
            *w.stripe_mut::<i64>("acc", args[0].as_int() as usize) += args[1].as_int();
            *w.get_mut::<i64>("fresh") += 1;
            IntrinsicOutcome::unit()
        });
        for k in 0..4 {
            reg.declare_merge(&stripe_slot("acc", k), crate::delta::MergeSpec::add_i64());
        }
        reg.declare_merge("fresh", crate::delta::MergeSpec::add_i64());
        let sw = striped_world(4);
        // A buffer over its own name table: every slot is matched by name.
        let mut buf = crate::delta::DeltaBuffer::new();
        let slots = vec![stripe_slot("acc", 2), "fresh".to_string()];
        for v in [5, 7] {
            buf.apply(&reg, "add", &[Value::Int(2), Value::Int(v)], &slots);
        }
        assert_eq!(sw.coalesce_delta(&reg, buf), 2);
        let world = sw.into_world();
        assert_eq!(*world.get::<i64>(&stripe_slot("acc", 2)), 12);
        assert_eq!(*world.get::<i64>(&stripe_slot("acc", 1)), 0);
        assert_eq!(*world.get::<i64>("fresh"), 2);
    }

    #[test]
    fn partition_and_reassembly_round_trip() {
        let sw = striped_world(4);
        let world = sw.into_world();
        let mut names = world.names();
        names.sort_unstable();
        assert_eq!(names.len(), 5);
        assert!(names.contains(&"console"));
        for k in 0..4 {
            assert_eq!(*world.get::<i64>(&stripe_slot("acc", k)), 0);
        }
    }

    #[test]
    fn single_shard_access_mutates_in_place() {
        let sw = striped_world(8);
        let obs = ShardObserver::silent();
        let slot = stripe_slot("acc", 3);
        sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
            *w.get_mut::<i64>(&slot) += 41;
        });
        sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
            *w.get_mut::<i64>(&slot) += 1;
        });
        let stats = sw.stats();
        assert_eq!(stats.fast_acquires, 2);
        assert_eq!(stats.multi_acquires, 0);
        assert_eq!(*sw.into_world().get::<i64>(&slot), 42);
    }

    #[test]
    fn pure_route_locks_nothing_and_sees_an_empty_world() {
        let sw = striped_world(8);
        let seen = sw.with_slots(&[], &ShardObserver::silent(), |w| w.len());
        assert_eq!(seen, 0);
        assert_eq!(sw.stats(), ShardStatsSnapshot::default());
    }

    #[test]
    fn multi_shard_gather_scatter_preserves_mutations() {
        let sw = striped_world(8);
        let slots = vec![stripe_slot("acc", 1), stripe_slot("acc", 6)];
        let obs = ShardObserver::silent();
        sw.with_slots(&slots, &obs, |w| {
            *w.get_mut::<i64>("acc#1") += 10;
            *w.get_mut::<i64>("acc#6") += 20;
        });
        assert_eq!(sw.stats().multi_acquires, 1);
        let world = sw.into_world();
        assert_eq!(*world.get::<i64>("acc#1"), 10);
        assert_eq!(*world.get::<i64>("acc#6"), 20);
    }

    #[test]
    fn whole_world_path_sees_every_slot() {
        let sw = striped_world(8);
        let n = sw.with_all(&ShardObserver::silent(), |w| {
            w.get_mut::<Vec<i64>>("console").push(7);
            w.len()
        });
        assert_eq!(n, 9, "8 stripes + console");
        assert_eq!(sw.stats().whole_acquires, 1);
        assert_eq!(sw.into_world().get::<Vec<i64>>("console"), &vec![7]);
    }

    #[test]
    fn panicking_handler_still_scatters_slots_back() {
        let sw = striped_world(8);
        let slots = vec![stripe_slot("acc", 0), stripe_slot("acc", 5)];
        let obs = ShardObserver::silent();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sw.with_slots(&slots, &obs, |w| {
                *w.get_mut::<i64>("acc#0") = 9;
                panic!("mid-hold failure");
            })
        }))
        .expect_err("panic must propagate");
        assert!(format!("{err:?}").contains("mid-hold") || err.downcast_ref::<&str>().is_some());
        // The shards are intact and usable after the unwind.
        sw.with_slots(&slots, &obs, |w| {
            assert_eq!(*w.get::<i64>("acc#0"), 9, "pre-panic mutation survived");
            *w.get_mut::<i64>("acc#5") = 1;
        });
        let world = sw.into_world();
        assert_eq!(world.names().len(), 9, "no slot lost to the unwind");
    }

    #[test]
    fn concurrent_striped_increments_are_exact_and_counted() {
        let sw = Arc::new(striped_world(WORLD_STRIPES));
        let per_thread = 500i64;
        let handles: Vec<_> = (0..WORLD_STRIPES)
            .map(|k| {
                let sw = Arc::clone(&sw);
                std::thread::spawn(move || {
                    let slot = stripe_slot("acc", k);
                    let obs = ShardObserver::silent();
                    for _ in 0..per_thread {
                        sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
                            *w.get_mut::<i64>(&slot) += 1;
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = sw.stats();
        assert_eq!(
            stats.fast_acquires,
            (WORLD_STRIPES as u64) * per_thread as u64
        );
        let world = Arc::into_inner(sw).unwrap().into_world();
        for k in 0..WORLD_STRIPES {
            assert_eq!(*world.get::<i64>(&stripe_slot("acc", k)), per_thread);
        }
    }

    #[test]
    fn shard_hold_delay_inside_multi_shard_hold_keeps_watchdog_clean() {
        let sw = Arc::new(striped_world(8));
        let wd = Arc::new(Watchdog::new());
        let inj = Arc::new(FaultInjector::new(FaultPlan::shard_hold(7, 200)));
        let handles: Vec<_> = (0..2)
            .map(|worker| {
                let sw = Arc::clone(&sw);
                let wd = Arc::clone(&wd);
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    let slots = vec![stripe_slot("acc", 2), stripe_slot("acc", 7)];
                    for _ in 0..12 {
                        let obs = ShardObserver {
                            watchdog: Some(&wd),
                            worker,
                            rank_base: 4,
                            injector: Some(&inj),
                        };
                        sw.with_slots(&slots, &obs, |w| {
                            *w.get_mut::<i64>("acc#2") += 1;
                            *w.get_mut::<i64>("acc#7") += 1;
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = wd.report();
        assert!(report.is_clean(), "{report:?}");
        assert!(inj.stats().shard_holds > 0, "plan must have fired");
        let world = Arc::into_inner(sw).unwrap().into_world();
        assert_eq!(*world.get::<i64>("acc#2"), 24);
        assert_eq!(*world.get::<i64>("acc#7"), 24);
    }

    #[test]
    fn injected_shard_poison_is_recovered_on_the_next_acquisition() {
        let sw = striped_world(8);
        let inj = FaultInjector::new(FaultPlan::shard_poison(11));
        let obs = ShardObserver {
            injector: Some(&inj),
            ..ShardObserver::silent()
        };
        let slot = stripe_slot("acc", 4);
        // First hold is clean, second panics mid-hold (poisoning the
        // shard), every later hold must recover and proceed.
        sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
            *w.get_mut::<i64>(&slot) += 1;
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
                *w.get_mut::<i64>(&slot) += 100;
            })
        }))
        .expect_err("poison must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("injected shard poison"), "{msg:?}");
        sw.with_slots(std::slice::from_ref(&slot), &obs, |w| {
            *w.get_mut::<i64>(&slot) += 1;
        });
        assert_eq!(inj.stats().shard_poisons, 1, "poison fires exactly once");
        assert_eq!(
            *sw.into_world().get::<i64>(&slot),
            2,
            "poisoned hold's closure never ran; clean holds did"
        );
    }

    #[test]
    fn resolved_calls_take_their_home_shards() {
        let mut reg = crate::Registry::new();
        reg.register("bump", |w, args| {
            *w.stripe_mut::<i64>("acc", stripe_of(args[0].as_int(), 8)) += 1;
            IntrinsicOutcome::unit()
        });
        reg.register("pair", |w, _| {
            *w.stripe_mut::<i64>("acc", 1) += 10;
            *w.stripe_mut::<i64>("acc", 6) += 10;
            IntrinsicOutcome::unit()
        });
        reg.register("log", |w, _| {
            w.get_mut::<Vec<i64>>("console").push(1);
            IntrinsicOutcome::unit()
        });
        let striped = |arg| crate::SlotBinding::Striped {
            base: "acc".into(),
            stripes: 8,
            arg,
        };
        reg.bind("bump", vec![striped(0)]);
        reg.bind("pair", vec![striped(0), striped(1)]);
        let mut w = World::new();
        for k in 0..8 {
            w.install(&stripe_slot("acc", k), 0i64);
        }
        w.install("console", Vec::<i64>::new());
        let d = reg.resolve(["bump", "pair", "log"], &mut w);
        let sw = ShardedWorld::partition(w, 8);
        let obs = ShardObserver::silent();
        sw.call_id(&d, 0, &[Value::Int(11)], &obs);
        sw.call_id(&d, 1, &[Value::Int(1), Value::Int(6)], &obs);
        sw.call_id(&d, 2, &[], &obs);
        let stats = sw.stats();
        assert_eq!(
            (
                stats.fast_acquires,
                stats.multi_acquires,
                stats.whole_acquires
            ),
            (1, 1, 1)
        );
        let world = sw.into_world();
        assert_eq!(*world.get::<i64>("acc#3"), 1);
        assert_eq!(*world.get::<i64>("acc#1"), 10);
        assert_eq!(*world.get::<i64>("acc#6"), 10);
        assert_eq!(world.get::<Vec<i64>>("console"), &vec![1]);
        assert_eq!(world.len(), 9);
    }
}
