//! Fault injection for the parallel runtime.
//!
//! A [`FaultPlan`] describes an adversarial schedule: forced STM/TM
//! aborts, delayed lock grants, stalled workers and bounded-queue
//! pushback. Both executors (the real-thread executor and the
//! discrete-event simulator) consult a shared [`FaultInjector`] at each
//! synchronization point, so the same plan torments either executor and
//! the torture suite can assert that parallel output stays identical to
//! sequential output under every plan.
//!
//! Injection is *deterministic*: decisions derive from atomic event
//! counters and a [`SplitMix64`] stream seeded from the plan, never from
//! wall-clock time.

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Panic payload used for injected shard poisoning, recognizable by the
/// containment layer and in the error it reports.
pub const SHARD_POISON_MSG: &str = "injected shard poison (fault plan)";

/// Stall specification for one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Worker thread id (`tid`) to stall; `None` stalls every worker.
    pub tid: Option<i64>,
    /// Stall on every `every`-th synchronization event of that worker
    /// (1 = every event). Must be ≥ 1 to have any effect.
    pub every: u64,
    /// Stall magnitude: simulated cycles for the DES, microseconds for
    /// the thread executor.
    pub cost: u64,
}

/// One persistently slow worker: unlike [`WorkerStall`] (periodic), a
/// slow worker pays `cost` at *every* synchronization event, skewing its
/// progress far behind its siblings — the canonical straggler that
/// deadline enforcement exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowWorker {
    /// Worker thread id (`tid`) to slow down.
    pub tid: i64,
    /// Delay per synchronization event (simulated cycles / real
    /// microseconds).
    pub cost: u64,
}

/// An adversarial schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all injection randomness.
    pub seed: u64,
    /// Force an abort on every `n`-th transactional commit attempt
    /// (0 = never). An "abort storm" uses a small `n`.
    pub stm_abort_every: u64,
    /// Delay every `n`-th lock grant (0 = never).
    pub lock_delay_every: u64,
    /// Delay magnitude (simulated cycles / real microseconds).
    pub lock_delay_cost: u64,
    /// Stall workers at synchronization events.
    pub stall: Option<WorkerStall>,
    /// Clamp every queue capacity to at most this bound (pushback);
    /// `None` leaves plan capacities untouched.
    pub queue_capacity_clamp: Option<usize>,
    /// Delay every `n`-th multi-shard world hold *while the shards are
    /// held* (0 = never) — widens the window in which a second worker
    /// could attempt a conflicting acquisition, stressing the rank-order
    /// argument of the sharded world.
    pub shard_hold_every: u64,
    /// Shard-hold delay magnitude (simulated cycles / real microseconds).
    pub shard_hold_cost: u64,
    /// Delay every `n`-th pipeline queue push *or* pop (0 = never) —
    /// models a slow memory bus or NUMA penalty on the DSWP rings.
    pub queue_stall_every: u64,
    /// Queue-stall magnitude (simulated cycles / real microseconds).
    pub queue_stall_cost: u64,
    /// Panic *inside* the `n`-th shard hold (0 = never). Fires exactly
    /// once per injector: the panic unwinds through the shard guard,
    /// poisoning the shard mutex — the torture probe that a poisoned
    /// shard is recovered and the worker's panic contained and reported.
    pub shard_poison_nth: u64,
    /// One persistently slow worker (`None` = none).
    pub slow: Option<SlowWorker>,
    /// Fail the `n`-th delta-coalesce event (0 = never). Fires exactly
    /// once per injector, only on the delta-privatized world mode's
    /// section-barrier merge — the probe that a poisoned coalesce is
    /// contained and reported as a structured error.
    pub delta_poison_nth: u64,
}

impl FaultPlan {
    /// No faults (the identity plan).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// STM-abort storm: every other commit attempt is forced to abort,
    /// driving transactions into backoff and the rank-0 fallback.
    pub fn abort_storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            stm_abort_every: 2,
            ..FaultPlan::default()
        }
    }

    /// Delayed lock grants: every third grant stalls, widening critical
    /// sections and windows for rank-order violations.
    pub fn lock_delay(seed: u64, cost: u64) -> Self {
        FaultPlan {
            seed,
            lock_delay_every: 3,
            lock_delay_cost: cost,
            ..FaultPlan::default()
        }
    }

    /// One slow worker: `tid` pauses at every fourth synchronization
    /// event, skewing progress across the section.
    pub fn worker_stall(seed: u64, tid: i64, cost: u64) -> Self {
        FaultPlan {
            seed,
            stall: Some(WorkerStall {
                tid: Some(tid),
                every: 4,
                cost,
            }),
            ..FaultPlan::default()
        }
    }

    /// Bounded-queue pushback: clamp every pipeline queue to capacity 1 so
    /// producers constantly hit the full-queue path.
    pub fn queue_pushback(seed: u64) -> Self {
        FaultPlan {
            seed,
            queue_capacity_clamp: Some(1),
            ..FaultPlan::default()
        }
    }

    /// Shard-hold torture: every third multi-shard hold of the sharded
    /// world is stretched by `cost`, exercising the deadlock-freedom
    /// argument while shard sets are held.
    pub fn shard_hold(seed: u64, cost: u64) -> Self {
        FaultPlan {
            seed,
            shard_hold_every: 3,
            shard_hold_cost: cost,
            ..FaultPlan::default()
        }
    }

    /// Queue stalls: every third queue push/pop pays `cost`, dilating
    /// pipeline communication.
    pub fn queue_stall(seed: u64, cost: u64) -> Self {
        FaultPlan {
            seed,
            queue_stall_every: 3,
            queue_stall_cost: cost,
            ..FaultPlan::default()
        }
    }

    /// Shard poison: the second shard hold panics while the shard lock is
    /// held, poisoning the mutex. The sharded world must recover the
    /// poison and the executor must contain the panic as a worker failure.
    pub fn shard_poison(seed: u64) -> Self {
        FaultPlan {
            seed,
            shard_poison_nth: 2,
            ..FaultPlan::default()
        }
    }

    /// One persistently slow worker: `tid` pays `cost` at every
    /// synchronization event (the straggler deadlines exist to catch).
    pub fn slow_worker(seed: u64, tid: i64, cost: u64) -> Self {
        FaultPlan {
            seed,
            slow: Some(SlowWorker { tid, cost }),
            ..FaultPlan::default()
        }
    }

    /// Delta poison: the first section-barrier coalesce of per-worker
    /// delta buffers fails. The executor must contain the failure and
    /// report it as a structured error.
    pub fn delta_poison(seed: u64) -> Self {
        FaultPlan {
            seed,
            delta_poison_nth: 1,
            ..FaultPlan::default()
        }
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.stm_abort_every == 0
            && self.lock_delay_every == 0
            && self.stall.is_none()
            && self.queue_capacity_clamp.is_none()
            && self.shard_hold_every == 0
            && self.queue_stall_every == 0
            && self.shard_poison_nth == 0
            && self.slow.is_none()
            && self.delta_poison_nth == 0
    }
}

/// Cumulative injection counters (snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Forced transactional aborts delivered.
    pub stm_aborts: u64,
    /// Lock grants delayed.
    pub lock_delays: u64,
    /// Worker stalls delivered.
    pub stalls: u64,
    /// Multi-shard holds stretched.
    pub shard_holds: u64,
    /// Queue pushes/pops stalled.
    pub queue_stalls: u64,
    /// Shard-poison panics delivered (0 or 1).
    pub shard_poisons: u64,
    /// Slow-worker delays delivered.
    pub slow_delays: u64,
    /// Delta-coalesce failures delivered (0 or 1).
    pub delta_poisons: u64,
}

/// Shared, thread-safe decision engine for one run of a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    commit_events: AtomicU64,
    lock_events: AtomicU64,
    stall_events: AtomicU64,
    shard_events: AtomicU64,
    queue_events: AtomicU64,
    poison_events: AtomicU64,
    delta_events: AtomicU64,
    delivered_aborts: AtomicU64,
    delivered_delays: AtomicU64,
    delivered_stalls: AtomicU64,
    delivered_shard_holds: AtomicU64,
    delivered_queue_stalls: AtomicU64,
    delivered_poisons: AtomicU64,
    delivered_slow: AtomicU64,
    delivered_delta_poisons: AtomicU64,
    rng: Mutex<SplitMix64>,
}

impl FaultInjector {
    /// Creates the injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Mutex::new(SplitMix64::new(plan.seed ^ 0xfa17_1a9e_u64));
        FaultInjector {
            plan,
            commit_events: AtomicU64::new(0),
            lock_events: AtomicU64::new(0),
            stall_events: AtomicU64::new(0),
            shard_events: AtomicU64::new(0),
            queue_events: AtomicU64::new(0),
            poison_events: AtomicU64::new(0),
            delta_events: AtomicU64::new(0),
            delivered_aborts: AtomicU64::new(0),
            delivered_delays: AtomicU64::new(0),
            delivered_stalls: AtomicU64::new(0),
            delivered_shard_holds: AtomicU64::new(0),
            delivered_queue_stalls: AtomicU64::new(0),
            delivered_poisons: AtomicU64::new(0),
            delivered_slow: AtomicU64::new(0),
            delivered_delta_poisons: AtomicU64::new(0),
            rng,
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Should this commit attempt be forced to abort?
    pub fn force_stm_abort(&self) -> bool {
        if self.plan.stm_abort_every == 0 {
            return false;
        }
        let n = self.commit_events.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = n.is_multiple_of(self.plan.stm_abort_every);
        if hit {
            self.delivered_aborts.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Extra delay (cycles / µs) to impose on this lock grant; 0 = none.
    pub fn lock_grant_delay(&self) -> u64 {
        if self.plan.lock_delay_every == 0 {
            return 0;
        }
        let n = self.lock_events.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.plan.lock_delay_every) {
            self.delivered_delays.fetch_add(1, Ordering::Relaxed);
            // Jitter the delay ±50% so grants don't re-synchronize.
            let jitter = self
                .rng
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .next_u64();
            let base = self.plan.lock_delay_cost.max(1);
            base / 2 + jitter % (base / 2 + 1)
        } else {
            0
        }
    }

    /// Stall to impose on worker `tid`'s current synchronization event;
    /// 0 = none.
    pub fn worker_stall(&self, tid: i64) -> u64 {
        let Some(stall) = self.plan.stall else {
            return 0;
        };
        if let Some(t) = stall.tid {
            if t != tid {
                return 0;
            }
        }
        if stall.every == 0 {
            return 0;
        }
        let n = self.stall_events.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(stall.every) {
            self.delivered_stalls.fetch_add(1, Ordering::Relaxed);
            stall.cost
        } else {
            0
        }
    }

    /// Extra delay (cycles / µs) to impose *inside* this multi-shard
    /// world hold; 0 = none.
    pub fn shard_hold_delay(&self) -> u64 {
        if self.plan.shard_hold_every == 0 {
            return 0;
        }
        let n = self.shard_events.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.plan.shard_hold_every) {
            self.delivered_shard_holds.fetch_add(1, Ordering::Relaxed);
            // Same ±50% jitter as lock grants so holds don't resonate.
            let jitter = self
                .rng
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .next_u64();
            let base = self.plan.shard_hold_cost.max(1);
            base / 2 + jitter % (base / 2 + 1)
        } else {
            0
        }
    }

    /// Extra delay to impose on worker `tid` because the plan marks it
    /// persistently slow; 0 = not the slow worker. Unlike
    /// [`FaultInjector::worker_stall`], fires at *every* event.
    pub fn slow_worker(&self, tid: i64) -> u64 {
        let Some(slow) = self.plan.slow else {
            return 0;
        };
        if slow.tid != tid || slow.cost == 0 {
            return 0;
        }
        self.delivered_slow.fetch_add(1, Ordering::Relaxed);
        slow.cost
    }

    /// Extra delay (cycles / µs) to impose on this queue push/pop;
    /// 0 = none.
    pub fn queue_stall_delay(&self) -> u64 {
        if self.plan.queue_stall_every == 0 {
            return 0;
        }
        let n = self.queue_events.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.plan.queue_stall_every) {
            self.delivered_queue_stalls.fetch_add(1, Ordering::Relaxed);
            // Same ±50% jitter as lock grants so rings don't resonate.
            let jitter = self
                .rng
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .next_u64();
            let base = self.plan.queue_stall_cost.max(1);
            base / 2 + jitter % (base / 2 + 1)
        } else {
            0
        }
    }

    /// Should this shard hold panic (poisoning the shard lock)? Fires
    /// exactly once per injector, on the plan's `shard_poison_nth` hold.
    pub fn shard_poison_now(&self) -> bool {
        if self.plan.shard_poison_nth == 0 {
            return false;
        }
        let n = self.poison_events.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = n == self.plan.shard_poison_nth;
        if hit {
            self.delivered_poisons.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this delta-coalesce event fail? Fires exactly once per
    /// injector, on the plan's `delta_poison_nth` coalesce.
    pub fn delta_poison_now(&self) -> bool {
        if self.plan.delta_poison_nth == 0 {
            return false;
        }
        let n = self.delta_events.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = n == self.plan.delta_poison_nth;
        if hit {
            self.delivered_delta_poisons.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Applies the plan's queue clamp to a planned capacity.
    pub fn clamp_capacity(&self, capacity: usize) -> usize {
        match self.plan.queue_capacity_clamp {
            Some(c) => capacity.min(c.max(1)),
            None => capacity,
        }
    }

    /// Snapshot of delivered-fault counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            stm_aborts: self.delivered_aborts.load(Ordering::Relaxed),
            lock_delays: self.delivered_delays.load(Ordering::Relaxed),
            stalls: self.delivered_stalls.load(Ordering::Relaxed),
            shard_holds: self.delivered_shard_holds.load(Ordering::Relaxed),
            queue_stalls: self.delivered_queue_stalls.load(Ordering::Relaxed),
            shard_poisons: self.delivered_poisons.load(Ordering::Relaxed),
            slow_delays: self.delivered_slow.load(Ordering::Relaxed),
            delta_poisons: self.delivered_delta_poisons.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert!(!inj.force_stm_abort());
            assert_eq!(inj.lock_grant_delay(), 0);
            assert_eq!(inj.worker_stall(0), 0);
            assert_eq!(inj.shard_hold_delay(), 0);
            assert_eq!(inj.queue_stall_delay(), 0);
            assert!(!inj.shard_poison_now());
            assert_eq!(inj.slow_worker(0), 0);
        }
        assert_eq!(inj.clamp_capacity(64), 64);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn abort_storm_hits_every_other_commit() {
        let inj = FaultInjector::new(FaultPlan::abort_storm(7));
        let hits: Vec<bool> = (0..10).map(|_| inj.force_stm_abort()).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 5);
        assert_eq!(inj.stats().stm_aborts, 5);
    }

    #[test]
    fn lock_delay_is_periodic_and_bounded() {
        let plan = FaultPlan::lock_delay(3, 100);
        let inj = FaultInjector::new(plan);
        let mut delayed = 0;
        for i in 1..=12u64 {
            let d = inj.lock_grant_delay();
            if i % 3 == 0 {
                assert!((50..=100).contains(&d), "delay {d} out of jitter range");
                delayed += 1;
            } else {
                assert_eq!(d, 0);
            }
        }
        assert_eq!(delayed, 4);
    }

    #[test]
    fn stall_targets_one_worker() {
        let inj = FaultInjector::new(FaultPlan::worker_stall(1, 2, 500));
        for _ in 0..8 {
            assert_eq!(inj.worker_stall(0), 0, "other workers untouched");
        }
        let stalls: Vec<u64> = (0..8).map(|_| inj.worker_stall(2)).collect();
        assert_eq!(stalls.iter().filter(|s| **s > 0).count(), 2, "{stalls:?}");
    }

    #[test]
    fn shard_hold_is_periodic_jittered_and_counted() {
        let inj = FaultInjector::new(FaultPlan::shard_hold(9, 600));
        assert!(!FaultPlan::shard_hold(9, 600).is_none());
        let mut hit = 0;
        for i in 1..=9u64 {
            let d = inj.shard_hold_delay();
            if i % 3 == 0 {
                assert!((300..=600).contains(&d), "delay {d} out of jitter range");
                hit += 1;
            } else {
                assert_eq!(d, 0);
            }
        }
        assert_eq!(hit, 3);
        assert_eq!(inj.stats().shard_holds, 3);
    }

    #[test]
    fn queue_stall_is_periodic_jittered_and_counted() {
        let inj = FaultInjector::new(FaultPlan::queue_stall(5, 400));
        assert!(!FaultPlan::queue_stall(5, 400).is_none());
        let mut hit = 0;
        for i in 1..=9u64 {
            let d = inj.queue_stall_delay();
            if i % 3 == 0 {
                assert!((200..=400).contains(&d), "delay {d} out of jitter range");
                hit += 1;
            } else {
                assert_eq!(d, 0);
            }
        }
        assert_eq!(hit, 3);
        assert_eq!(inj.stats().queue_stalls, 3);
    }

    #[test]
    fn shard_poison_fires_exactly_once_on_the_nth_hold() {
        let inj = FaultInjector::new(FaultPlan::shard_poison(3));
        assert!(!FaultPlan::shard_poison(3).is_none());
        let hits: Vec<bool> = (0..10).map(|_| inj.shard_poison_now()).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 1);
        assert!(hits[1], "fires on the second hold");
        assert_eq!(inj.stats().shard_poisons, 1);
    }

    #[test]
    fn delta_poison_fires_exactly_once_on_the_nth_coalesce() {
        let inj = FaultInjector::new(FaultPlan::delta_poison(4));
        assert!(!FaultPlan::delta_poison(4).is_none());
        let hits: Vec<bool> = (0..10).map(|_| inj.delta_poison_now()).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 1);
        assert!(hits[0], "fires on the first coalesce");
        assert_eq!(inj.stats().delta_poisons, 1);
        // Orthogonal to shard poisoning: shard holds are untouched.
        assert!(!inj.shard_poison_now());
    }

    #[test]
    fn slow_worker_pays_at_every_event() {
        let inj = FaultInjector::new(FaultPlan::slow_worker(1, 3, 250));
        assert!(!FaultPlan::slow_worker(1, 3, 250).is_none());
        for _ in 0..5 {
            assert_eq!(inj.slow_worker(0), 0, "other workers untouched");
            assert_eq!(inj.slow_worker(3), 250, "slow worker pays every time");
        }
        assert_eq!(inj.stats().slow_delays, 5);
    }

    #[test]
    fn queue_clamp_bounds_capacity() {
        let inj = FaultInjector::new(FaultPlan::queue_pushback(0));
        assert_eq!(inj.clamp_capacity(64), 1);
        assert_eq!(inj.clamp_capacity(1), 1);
    }

    #[test]
    fn decisions_are_deterministic_across_runs() {
        let run = || {
            let inj = FaultInjector::new(FaultPlan::lock_delay(42, 80));
            (0..20).map(|_| inj.lock_grant_delay()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
