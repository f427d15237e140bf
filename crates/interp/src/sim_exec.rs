//! The simulated-parallel executor.
//!
//! Runs `main` sequentially until `__par_invoke(section)`, then executes
//! the section's workers as virtual threads under a discrete-event
//! scheduler: each worker VM owns a clock; lock, queue and transaction
//! interactions are resolved by `commset-sim`'s contention models; the
//! scheduler always advances the minimum-clock runnable worker, so shared
//! state mutates in simulated-time order and the whole run is
//! deterministic. Speedups reported by the benchmark harness are ratios of
//! the `sim_time` produced here.
//!
//! Robustness: every dynamic error and contract violation surfaces as an
//! [`ExecError`] (no panics); [`run_simulated_with`] additionally injects
//! an adversarial [`FaultPlan`](commset_runtime::FaultPlan) schedule and
//! runs the waits-for watchdog, whose report lands in [`SimStats`].
//!
//! Observation, section setup, the delta fast paths and the end-of-run
//! fold come from the `exec_core` module; this module keeps the scheduler
//! and the cost model.

use crate::bytecode::{BcModule, BcVm};
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::exec_core::{
    coalesce_deltas, dispatch, outside_section, worker_failed, Observer, RunObs, Section,
};
use crate::globals::PlainGlobals;
use crate::vm::{PendingSpecial, StepOutcome};
use commset_ir::{ChannelId, Module};
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, Dispatch, FaultInjector, FaultStats, Registry, Value, Watchdog,
    WatchdogReport, World,
};
use commset_sim::lock::AcquireOutcome;
use commset_sim::{
    pick_with_horizon, CostModel, PopOutcome, PushOutcome, SimLock, SimLockKind, SimQueue, TmModel,
};
use commset_telemetry::{ClockUnit, MetricsRegistry, RunCounters, RunReport, SectionMeta};
use commset_transform::{ParallelPlan, RtOp};

/// Statistics of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Per-lock (set name, contention ratio).
    pub lock_contention: Vec<(String, f64)>,
    /// Transactions committed.
    pub tm_commits: u64,
    /// Transactions aborted.
    pub tm_aborts: u64,
    /// Transactions that escalated to the modeled rank-0 global lock
    /// after exhausting their optimistic retry budget.
    pub tm_fallbacks: u64,
    /// Total queue pushes.
    pub queue_pushes: u64,
    /// Pops that found an empty queue (pipeline stall indicator).
    pub queue_stalls: u64,
    /// Faults delivered by the injection plan.
    pub fault: FaultStats,
    /// Waits-for watchdog findings (merged over all sections).
    pub watchdog: WatchdogReport,
    /// Delta-privatized activity (all zero unless [`WorldMode::Deltas`]
    /// routed calls into per-worker buffers).
    ///
    /// [`WorldMode::Deltas`]: crate::config::WorldMode::Deltas
    pub delta: DeltaSnapshot,
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// `main`'s return value.
    pub result: Option<Value>,
    /// Total simulated time (sequential sections + parallel sections).
    pub sim_time: u64,
    /// Statistics from the parallel sections.
    pub stats: SimStats,
    /// The unified profiling report, folded from the run's event stream;
    /// present iff [`ExecConfig::trace`] was set. Timestamps are
    /// deterministic logical ticks, so the report is bit-identical across
    /// runs.
    pub telemetry: Option<RunReport>,
    /// The merged metrics registry (opcode retires, hot-block ranks,
    /// lock/channel wait histograms, queue occupancy, delta merge
    /// sizes), present iff [`ExecConfig::metrics`] was on. Recording is
    /// passive — no modeled clock is touched — so `sim_time` is
    /// bit-identical with metrics on or off.
    pub metrics: Option<MetricsRegistry>,
}

/// Deadline conversion for the DES: [`ExecConfig::deadline_ms`] becomes a
/// deterministic tick budget (1 ms = 1000 ticks, matching the thread
/// executor's microsecond-denominated injection costs).
const TICKS_PER_MS: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum WStatus {
    Ready,
    BlockedPop(usize),
    BlockedPush(usize),
    BlockedLock(usize),
    Done,
}

/// Runs the transformed program under the DES with the default
/// configuration (no faults, no instrumentation).
///
/// `plans` must contain one plan per `__par_invoke` section in the
/// program, keyed by its `section` field.
///
/// # Errors
///
/// Returns an [`ExecError`] on executor-contract violations (unknown
/// section or queue, deadlock, nested parallel sections, runtime
/// intrinsics outside a section) and on VM dynamic errors; worker errors
/// are wrapped as [`ExecError::WorkerFailed`] naming the stage function.
pub fn run_simulated(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: &mut World,
    cm: &CostModel,
) -> Result<SimOutcome, ExecError> {
    run_simulated_with(module, registry, plans, world, cm, &ExecConfig::default())
}

/// [`run_simulated`] with an explicit configuration: fault injection,
/// backoff, deadline, world mode and instrumentation.
///
/// # Errors
///
/// As [`run_simulated`].
pub fn run_simulated_with(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: &mut World,
    cm: &CostModel,
    cfg: &ExecConfig,
) -> Result<SimOutcome, ExecError> {
    let injector = FaultInjector::new(cfg.fault.clone());
    let bc = BcModule::compile(module);
    let dispatch = dispatch(registry, module, &bc, world)?;
    let mut run = RunObs::new(module, &bc, cfg);
    let mut globals = PlainGlobals::new(module);
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let mut sim_time: u64 = 0;
    let mut stats = SimStats::default();
    loop {
        // Sampled before the step so a retired op attributes to the site
        // that produced it; `None` when metrics are off.
        let site = run.site(&vm);
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => {
                sim_time += cost * cm.inst;
                run.retire(site, cost);
            }
            StepOutcome::Special(p) => match p.op {
                Some(RtOp::ParInvoke) => {
                    let (plan, ord) = run.open_section(plans, &p)?;
                    let (end, section_stats, meta) = run_section(
                        &dispatch,
                        plan,
                        world,
                        &mut globals,
                        sim_time,
                        cm,
                        cfg,
                        &injector,
                        &run,
                        ord,
                    )?;
                    run.close_section(meta);
                    sim_time = end;
                    merge_stats(&mut stats, section_stats);
                    vm.resolve_special(Value::Int(0));
                }
                Some(_) => return Err(outside_section(module, &p)),
                None => {
                    let id = p.intrinsic.0 as usize;
                    let out = dispatch.call(id, world, &p.args);
                    sim_time += module.intrinsics.sig(id).base_cost + out.extra_cost;
                    vm.resolve_special(out.value);
                }
            },
            StepOutcome::Finished(result) => {
                stats.fault = injector.stats();
                // The DES has no sharded world and no SPSC rings: empty-pop
                // counts stand in for empty spins.
                let counters = RunCounters {
                    fault: stats.fault,
                    watchdog_checks: stats.watchdog.checks,
                    watchdog_clean: stats.watchdog.is_clean(),
                    max_blocked: stats.watchdog.max_blocked,
                    delta: stats.delta,
                    tm_aborts: stats.tm_aborts,
                    tm_fallbacks: stats.tm_fallbacks,
                    queue_empty_spins: stats.queue_stalls,
                    ..RunCounters::default()
                };
                let extra = [
                    ("queue.pushes", stats.queue_pushes),
                    ("queue.empty_pops", stats.queue_stalls),
                ];
                let (telemetry, metrics) = run.finish(ClockUnit::Ticks, counters, &extra);
                return Ok(SimOutcome {
                    result,
                    sim_time,
                    stats,
                    telemetry,
                    metrics,
                });
            }
        }
    }
}

fn merge_stats(into: &mut SimStats, from: SimStats) {
    into.lock_contention.extend(from.lock_contention);
    into.tm_commits += from.tm_commits;
    into.tm_aborts += from.tm_aborts;
    into.tm_fallbacks += from.tm_fallbacks;
    into.queue_pushes += from.queue_pushes;
    into.queue_stalls += from.queue_stalls;
    into.delta.absorb(from.delta);
    into.watchdog.absorb(from.watchdog);
}

struct Worker<'a> {
    vm: BcVm<'a>,
    clock: u64,
    status: WStatus,
    tx: Option<commset_sim::tm::TxRecord>,
    /// Modeled optimistic aborts of the in-flight transaction (drives the
    /// starvation fallback to the rank-0 global lock).
    tx_aborts: u64,
    /// True when retrying a lock acquisition after having blocked on it
    /// (pays the contention penalty).
    lock_retry: bool,
    /// Private delta buffer (delta-privatized sections only).
    delta: Option<DeltaBuffer>,
    obs: Observer<'a>,
}

/// The world's channel clocks, indexed by [`ChannelId`]: the virtual
/// world is internally thread-safe (the paper's "Lib" discipline), so each
/// intrinsic execution serializes on the channels it writes, and readers
/// wait for in-flight writers. This is what makes I/O-channel saturation
/// emerge at high thread counts. Instance-partitioned channels hold
/// per-instance state and never serialize.
struct Channels {
    /// When each channel's last serialized write completes.
    free: Vec<u64>,
    per_instance: Vec<bool>,
}

impl Channels {
    fn new(module: &Module) -> Self {
        let t = &module.intrinsics;
        Channels {
            free: vec![0; t.channels.len()],
            per_instance: (0..t.channels.len())
                .map(|c| t.is_per_instance(ChannelId(c as u32)))
                .collect(),
        }
    }

    /// The serializing channels among `cs` (per-instance ones skipped).
    fn shared<'c>(
        &'c self,
        cs: impl Iterator<Item = &'c ChannelId> + 'c,
    ) -> impl Iterator<Item = ChannelId> + 'c {
        cs.copied().filter(|c| !self.per_instance[c.0 as usize])
    }
}

/// Executes one parallel section; returns (end time, stats, report
/// metadata).
#[allow(clippy::too_many_arguments)]
fn run_section(
    dispatch: &Dispatch<'_>,
    plan: &ParallelPlan,
    world: &mut World,
    globals: &mut PlainGlobals,
    start: u64,
    cm: &CostModel,
    cfg: &ExecConfig,
    injector: &FaultInjector,
    run: &RunObs<'_>,
    ord: usize,
) -> Result<(u64, SimStats, Option<SectionMeta>), ExecError> {
    let sec = Section::new(plan, cfg, dispatch.registry());
    let lock_kind = if sec.spin {
        SimLockKind::Spin
    } else {
        SimLockKind::Mutex
    };
    let mut locks: Vec<SimLock> = plan
        .locks
        .iter()
        .map(|_| {
            let mut l = SimLock::new(lock_kind);
            l.free_at = start;
            l
        })
        .collect();
    let mut queues: Vec<SimQueue> = plan
        .queues
        .iter()
        .map(|q| SimQueue::new(injector.clamp_capacity(q.capacity)))
        .collect();
    let mut tm = TmModel::new();
    let watchdog = Watchdog::new();
    // Delta-routed calls skip the channels entirely (the modeled analogue
    // of taking no shard lock); their buffers fold back at the section
    // end.
    let mut chans = Channels::new(run.module);

    let spawn_t = start + cm.par_spawn;
    let tracing = run.tracing();
    let mut workers: Vec<Worker<'_>> = Vec::with_capacity(plan.workers.len());
    for (k, w) in plan.workers.iter().enumerate() {
        let args = [Value::Int(w.tid), Value::Int(w.nt)];
        let mut vm = BcVm::for_name(run.module, run.bc, &w.func, &args)?;
        if tracing {
            vm.watch_calls_matching("__commset_region_");
        }
        workers.push(Worker {
            vm,
            clock: spawn_t,
            status: WStatus::Ready,
            tx: None,
            tx_aborts: 0,
            lock_retry: false,
            delta: sec.delta.then(|| dispatch.delta_buffer()),
            obs: Observer::new(run, &sec, ord, k),
        });
    }

    loop {
        let picked = pick_with_horizon(
            workers
                .iter()
                .map(|w| (w.status == WStatus::Ready).then_some(w.clock)),
        );
        let Some((i, horizon)) = picked else {
            if workers.iter().all(|w| w.status == WStatus::Done) {
                break;
            }
            return Err(ExecError::Deadlock {
                section: plan.section,
                waiting: workers
                    .iter()
                    .enumerate()
                    .map(|(k, w)| {
                        format!(
                            "{k}:{:?}@{}({})",
                            w.status,
                            w.clock,
                            w.vm.current_function()
                        )
                    })
                    .collect(),
            });
        };
        // Run ahead: a plain op moves only worker i's clock and wakes or
        // blocks nobody, so i stays the minimum-clock pick until its clock
        // reaches the horizon. Anything else — a special, a finish — may
        // change other workers' state, and the next pass picks afresh.
        loop {
            // Deterministic deadline: once the earliest runnable worker's
            // clock is past the section's tick budget, the section has
            // overrun under *every* schedule of the model — report the
            // overrun instead of scheduling further work.
            if let Some(ms) = cfg.deadline_ms {
                if workers[i].clock.saturating_sub(start) > ms.saturating_mul(TICKS_PER_MS) {
                    return Err(ExecError::DeadlineExceeded {
                        section: plan.section,
                        deadline_ms: ms,
                    });
                }
            }
            let w = &mut workers[i];
            let site = w.obs.site(&w.vm);
            let step =
                w.vm.step(globals)
                    .map_err(|e| worker_failed(&plan.workers[i].func, e))?;
            let ran = match step {
                StepOutcome::Ran { cost } => {
                    w.clock += cost * cm.inst;
                    w.obs.retire(site, cost);
                    true
                }
                StepOutcome::Finished(_) => {
                    w.status = WStatus::Done;
                    false
                }
                StepOutcome::Special(p) => {
                    handle_special(
                        run.module,
                        dispatch,
                        world,
                        plan,
                        &sec,
                        &mut workers,
                        i,
                        &p,
                        &mut locks,
                        &mut queues,
                        &mut tm,
                        &mut chans,
                        cm,
                        cfg,
                        injector,
                        &watchdog,
                    )?;
                    false
                }
            };
            if tracing {
                // Region events at the worker's clock after the step.
                let w = &mut workers[i];
                let clock = w.clock;
                w.obs.regions(&mut w.vm, || clock);
            }
            if !ran || workers[i].clock >= horizon {
                break;
            }
        }
    }

    // The DES has no panic containment, so an injected poison surfaces as
    // the same structured error the thread executor's containment
    // produces.
    let bufs = workers
        .iter_mut()
        .enumerate()
        .filter_map(|(k, w)| w.delta.take().map(|b| (k, b)))
        .collect();
    let delta = coalesce_deltas(run, injector, bufs, |buf| dispatch.coalesce(world, buf))?;

    let end = workers
        .iter()
        .map(|w| w.clock)
        .max()
        .unwrap_or(start)
        .max(start)
        + cm.par_spawn;
    for w in &mut workers {
        w.obs.worker_span(spawn_t, w.clock);
        w.obs.publish();
    }
    // The DES has no SPSC rings: empty-pop counts stand in for empty
    // spins, the full side has no modeled counter.
    let meta = run.tracing().then(|| {
        let spins = queues.iter().map(|q| (0, q.empty_pops)).collect();
        sec.meta(plan, ord, spins, (start, end))
    });
    let stats = SimStats {
        lock_contention: plan
            .locks
            .iter()
            .zip(&locks)
            .map(|(spec, l)| (spec.set.clone(), l.contention_ratio()))
            .collect(),
        tm_commits: tm.commits,
        tm_aborts: tm.aborts,
        tm_fallbacks: tm.fallbacks,
        queue_pushes: queues.iter().map(|q| q.pushes).sum(),
        queue_stalls: queues.iter().map(|q| q.empty_pops).sum(),
        fault: FaultStats::default(),
        watchdog: watchdog.report(),
        delta,
    };
    Ok((end, stats, meta))
}

#[allow(clippy::too_many_arguments)]
fn handle_special(
    module: &Module,
    dispatch: &Dispatch<'_>,
    world: &mut World,
    plan: &ParallelPlan,
    sec: &Section,
    workers: &mut [Worker<'_>],
    i: usize,
    p: &PendingSpecial,
    locks: &mut [SimLock],
    queues: &mut [SimQueue],
    tm: &mut TmModel,
    chans: &mut Channels,
    cm: &CostModel,
    cfg: &ExecConfig,
    injector: &FaultInjector,
    watchdog: &Watchdog,
) -> Result<(), ExecError> {
    // A stalled worker pauses at its synchronization events; a slow
    // worker pays its drag at every one of them.
    let stall =
        injector.worker_stall(plan.workers[i].tid) + injector.slow_worker(plan.workers[i].tid);
    workers[i].clock += stall;
    match p.op {
        Some(RtOp::LockAcquire) => {
            let l = p.args[0].as_int() as usize;
            let w = &mut workers[i];
            if sec.elide_acquire(l, w.delta.as_mut()) {
                w.vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = w.clock;
            let was_blocked = w.lock_retry;
            watchdog.acquiring(i, l);
            match locks[l].try_acquire(t, was_blocked, cm) {
                AcquireOutcome::Granted(grant) => {
                    if was_blocked {
                        locks[l].pending = locks[l].pending.saturating_sub(1);
                        w.lock_retry = false;
                    }
                    watchdog.acquired(i, l);
                    w.clock = grant + injector.lock_grant_delay();
                    w.obs.lock_acquired(l, t, grant, w.clock);
                    w.vm.resolve_special(Value::Int(0));
                }
                AcquireOutcome::Held => {
                    if !was_blocked {
                        locks[l].pending += 1;
                        w.lock_retry = true;
                        w.obs.begin_wait(t);
                    }
                    w.vm.retry_special_later();
                    w.status = WStatus::BlockedLock(l);
                }
            }
        }
        Some(RtOp::LockRelease) => {
            let l = p.args[0].as_int() as usize;
            let w = &mut workers[i];
            if sec.elided(l) {
                w.vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = w.clock;
            w.clock = locks[l].release(t, cm);
            watchdog.released(i, l);
            w.obs.lock_released(l, t, w.clock);
            w.vm.resolve_special(Value::Int(0));
            // Wake the blocked requesters; the scheduler grants in clock
            // order, the rest re-block.
            for w in workers.iter_mut() {
                if w.status == WStatus::BlockedLock(l) {
                    w.status = WStatus::Ready;
                }
            }
        }
        Some(RtOp::Push { .. }) => {
            let id = p.args[0].as_int();
            let q = sec.queue(id)?;
            let w = &mut workers[i];
            w.clock += injector.queue_stall_delay();
            let attempt = w.clock;
            match queues[q].push(attempt, p.args[1].to_bits(), cm) {
                PushOutcome::Pushed(t) => {
                    w.clock = t;
                    w.obs.queue_op(true, id, attempt, t, || queues[q].len());
                    w.vm.resolve_special(Value::Int(0));
                    // Wake a consumer blocked on this queue.
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPop(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PushOutcome::Full => {
                    w.obs.begin_wait(attempt);
                    w.vm.retry_special_later();
                    w.status = WStatus::BlockedPush(q);
                }
            }
        }
        Some(RtOp::Pop { float }) => {
            let id = p.args[0].as_int();
            let q = sec.queue(id)?;
            let w = &mut workers[i];
            w.clock += injector.queue_stall_delay();
            let attempt = w.clock;
            match queues[q].pop(attempt, cm) {
                PopOutcome::Popped(bits, t) => {
                    w.clock = t;
                    w.obs.queue_op(false, id, attempt, t, || queues[q].len());
                    w.vm.resolve_special(Value::from_bits(bits, float));
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPush(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PopOutcome::Empty => {
                    w.obs.begin_wait(attempt);
                    w.vm.retry_special_later();
                    w.status = WStatus::BlockedPop(q);
                }
            }
        }
        Some(RtOp::TxBegin) => {
            let w = &mut workers[i];
            let t = w.clock;
            w.clock = t + cm.tx_begin;
            w.tx = Some(tm.begin(t, cm));
            w.tx_aborts = 0;
            w.obs.tx_begin(t);
            w.vm.resolve_special(Value::Int(0));
        }
        Some(RtOp::TxCommit) => {
            let w = &mut workers[i];
            let mut tx = w.tx.take().ok_or(ExecError::TxCommitWithoutBegin)?;
            loop {
                let t = w.clock;
                // A starving transaction escalates to the modeled rank-0
                // global lock: pessimistic but guaranteed to commit.
                if w.tx_aborts > u64::from(cfg.backoff.max_aborts) {
                    w.clock = tm.commit_pessimistic(&tx, t, cm);
                    break;
                }
                let outcome = if injector.force_stm_abort() {
                    Err(tm.forced_abort(&tx, t, cm))
                } else {
                    tm.commit(&tx, t, cm)
                };
                match outcome {
                    Ok(done) => {
                        w.clock = done;
                        break;
                    }
                    Err(wasted) => {
                        w.tx_aborts += 1;
                        // Back off (modeled as spin cycles), then redo the
                        // transaction's work after the wasted time.
                        let backoff = u64::from(cfg.backoff.base_spins) << w.tx_aborts.min(8);
                        w.clock = t + wasted + backoff + tx.work;
                        tx.start = w.clock;
                    }
                }
            }
            w.obs.tx_commit(w.tx_aborts, w.clock);
            w.tx_aborts = 0;
            w.vm.resolve_special(Value::Int(0));
        }
        Some(RtOp::ParInvoke) => return Err(ExecError::NestedParallelSection),
        None => {
            let id = p.intrinsic.0 as usize;
            let name = module.intrinsics.name(id);
            let sig = module.intrinsics.sig(id);
            let base = sig.base_cost;
            let w = &mut workers[i];
            // A delta-routed call overlaps across cores in full.
            if let Some(out) = dispatch.delta_call(id, w.delta.as_mut(), &p.args) {
                let done = w.clock + base + out.extra_cost;
                w.obs.world_call(name, &p.args, w.clock, done);
                w.clock = done;
                w.vm.resolve_special(out.value);
                return Ok(());
            }
            let out = dispatch.call(id, world, &p.args);
            let cost = base + out.extra_cost;
            // Private compute overlaps across cores; only the serialized
            // portion holds the intrinsic's write channels (readers wait
            // for in-flight writers).
            let ser = out.serialized_cost.unwrap_or(cost).min(cost);
            let par = cost - ser;
            let base_start = w.clock + par;
            let touched = || chans.shared(sig.reads.iter().chain(&sig.writes));
            let start = touched()
                .map(|c| chans.free[c.0 as usize])
                .fold(base_start, u64::max);
            // Per-channel contention attribution: how long each serialized
            // channel alone would have delayed this call past its ready
            // point (passive — `start` is already settled above).
            if w.obs.metrics() && start > base_start {
                for (k, c) in touched().enumerate() {
                    let free = chans.free[c.0 as usize];
                    if free > base_start && !touched().take(k).any(|d| d == c) {
                        w.obs.observe_channel_wait(c, free - base_start);
                    }
                }
            }
            let done = start + ser;
            if ser > 0 {
                for c in &sig.writes {
                    let c = c.0 as usize;
                    if !chans.per_instance[c] {
                        chans.free[c] = done;
                    }
                }
            }
            w.obs.world_call(name, &p.args, w.clock, done);
            w.clock = done;
            if let Some(tx) = &mut w.tx {
                tx.work += cost;
                for c in &sig.reads {
                    tx.read(c.0);
                }
                for c in &sig.writes {
                    tx.write(c.0);
                }
            }
            w.vm.resolve_special(out.value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceSink};
    use commset_ir::IntrinsicTable;
    use commset_lang::ast::Type;
    use commset_runtime::intrinsics::IntrinsicOutcome;
    use commset_runtime::FaultPlan;
    use commset_transform::{Compiler, Scheme, SyncMode};

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("add_acc", vec![Type::Int], Type::Void, &[], &["ACC"], 20);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 30);
        t.register("heavy", vec![Type::Int], Type::Int, &[], &[], 400);
        t
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("add_acc", |world, args| {
            *world.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        r.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        r.register("heavy", |_, args| {
            IntrinsicOutcome::value(args[0].as_int() * 2)
        });
        r
    }

    /// Heavy pure compute per iteration plus a small commutative update to
    /// shared state — the shape every scalable workload has.
    const DOALL_SRC: &str = r#"
        extern int heavy(int x);
        extern void add_acc(int v);
        int main() {
            int n = 64;
            for (int i = 0; i < n; i = i + 1) {
                int w = heavy(i);
                #pragma CommSet(SELF)
                { add_acc(i); }
            }
            return 0;
        }
    "#;

    fn compile_doall(nthreads: usize, sync: SyncMode) -> (Module, ParallelPlan) {
        let c = Compiler::new(table());
        let a = c.analyze(DOALL_SRC).unwrap();
        c.compile(&a, Scheme::Doall, nthreads, sync).unwrap()
    }

    #[test]
    fn doall_produces_correct_sum_and_speedup() {
        // Sequential baseline.
        let c = Compiler::new(table());
        let seq_module = c
            .compile_sequential(&c.analyze(DOALL_SRC).unwrap())
            .unwrap();
        let mut world = World::new();
        world.install("acc", 0i64);
        let cm = CostModel::default();
        let seq =
            crate::seq::run_sequential(&seq_module, &registry(), &mut world, &cm, "main").unwrap();
        assert_eq!(*world.get::<i64>("acc"), (0..64).sum::<i64>());
        // Parallel on 4 virtual cores.
        let (module, plan) = compile_doall(4, SyncMode::Spin);
        let mut world4 = World::new();
        world4.install("acc", 0i64);
        let par = run_simulated(&module, &registry(), &[plan], &mut world4, &cm).unwrap();
        assert_eq!(*world4.get::<i64>("acc"), (0..64).sum::<i64>());
        let speedup = seq.sim_time as f64 / par.sim_time as f64;
        assert!(
            speedup > 2.0,
            "DOALL x4 should speed up ~4x, got {speedup:.2} (seq={} par={})",
            seq.sim_time,
            par.sim_time
        );
        assert!(par.stats.watchdog.is_clean(), "{:?}", par.stats.watchdog);
        let _ = par.result;
    }

    #[test]
    fn doall_is_deterministic() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(3, SyncMode::Mutex);
        let run = || {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
            )
            .unwrap();
            (out.sim_time, *world.get::<i64>("acc"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_plan_is_an_unknown_section_error() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(2, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let err = run_simulated(&module, &registry(), &[], &mut world, &cm).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownSection {
                section: plan.section
            }
        );
    }

    #[test]
    fn abort_storm_drives_fallbacks_yet_preserves_output() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(4, SyncMode::Tm);
        let run = |cfg: &ExecConfig| {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                cfg,
            )
            .unwrap();
            (*world.get::<i64>("acc"), out.stats)
        };
        let (quiet_acc, quiet) = run(&ExecConfig::default());
        assert_eq!(quiet_acc, (0..64).sum::<i64>());
        assert_eq!(quiet.fault.stm_aborts, 0, "no faults without a plan");
        assert_eq!(quiet.tm_fallbacks, 0, "no starvation without a storm");
        // Every commit attempt is forced to abort: only the rank-0
        // fallback lets transactions through, and the answer still holds.
        let mut cfg = ExecConfig::with_fault(FaultPlan {
            stm_abort_every: 1,
            ..FaultPlan::abort_storm(11)
        });
        cfg.backoff.max_aborts = 3;
        let (storm_acc, storm) = run(&cfg);
        assert_eq!(storm_acc, quiet_acc);
        assert!(storm.fault.stm_aborts > 0, "{:?}", storm.fault);
        assert!(storm.tm_fallbacks > 0, "{storm:?}");
        assert!(storm.watchdog.is_clean(), "{:?}", storm.watchdog);
    }

    #[test]
    fn lock_delay_and_stall_preserve_output_and_determinism() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(3, SyncMode::Mutex);
        let run = |cfg: &ExecConfig| {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                cfg,
            )
            .unwrap();
            (*world.get::<i64>("acc"), out.sim_time, out.stats.fault)
        };
        for fault in [
            FaultPlan::lock_delay(5, 800),
            FaultPlan::worker_stall(5, 1, 1200),
        ] {
            let cfg = ExecConfig::with_fault(fault);
            let (acc, time, stats) = run(&cfg);
            assert_eq!(acc, (0..64).sum::<i64>());
            assert_eq!(
                run(&cfg),
                (acc, time, stats),
                "fault runs are deterministic"
            );
            assert!(stats.lock_delays + stats.stalls > 0, "{stats:?}");
        }
    }

    #[test]
    fn trace_records_regions_locks_and_world_calls_deterministically() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(2, SyncMode::Spin);
        let run = || {
            let sink = crate::trace::TraceSink::new();
            let cfg = ExecConfig::with_trace(sink.clone());
            let mut world = World::new();
            world.install("acc", 0i64);
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap();
            sink.take()
        };
        let recs = run();
        let enters = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionEnter { .. }))
            .count();
        let exits = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionExit { .. }))
            .count();
        assert_eq!(enters, 64, "one region instance per iteration");
        assert_eq!(exits, 64);
        assert!(
            recs.iter()
                .any(|r| matches!(r.event, TraceEvent::LockAcquire { .. })),
            "spin mode rank locks must appear"
        );
        assert!(recs.iter().any(
            |r| matches!(&r.event, TraceEvent::WorldCall { intrinsic, .. } if intrinsic == "add_acc")
        ));
        // Region enters carry the instance arguments.
        let args: Vec<i64> = recs
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::RegionEnter { args, .. } => Some(args[0].as_int()),
                _ => None,
            })
            .collect();
        let mut sorted = args.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<i64>>());
        // The DES trace is fully deterministic.
        assert_eq!(recs, run());
    }

    const PIPE_SRC: &str = r#"
        extern int heavy(int x);
        extern void emit(int y);
        int main() {
            int n = 40;
            for (int i = 0; i < n; i = i + 1) {
                int y = heavy(i);
                emit(y);
            }
            return 0;
        }
    "#;

    fn compile_pipeline(nthreads: usize) -> (Module, ParallelPlan) {
        let c = Compiler::new(table()).with_irrevocable(&["OUT"]);
        let a = c.analyze(PIPE_SRC).unwrap();
        c.compile(&a, Scheme::PsDswp, nthreads, SyncMode::Lib)
            .unwrap()
    }

    #[test]
    fn ps_dswp_preserves_output_order() {
        let (module, plan) = compile_pipeline(5);
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let cm = CostModel::default();
        let out = run_simulated(&module, &registry(), &[plan], &mut world, &cm).unwrap();
        let produced = world.get::<Vec<i64>>("out");
        let expected: Vec<i64> = (0..40).map(|i| i * 2).collect();
        assert_eq!(
            produced, &expected,
            "sequential output stage preserves order"
        );
        assert!(out.stats.queue_pushes > 0);
    }

    #[test]
    fn telemetry_is_deterministic_and_does_not_perturb_the_model() {
        let cm = CostModel::default();
        let (module, plan) = compile_pipeline(4);
        let run = |traced: bool| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                trace: traced.then(crate::trace::TraceSink::new),
                ..ExecConfig::default()
            };
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap()
        };
        let off = run(false);
        assert!(off.telemetry.is_none(), "the report must be opt-in");
        let on = run(true);
        assert_eq!(
            on.sim_time, off.sim_time,
            "observation must not change simulated time"
        );
        let report = on.telemetry.unwrap();
        assert_eq!(report.sections.len(), 1);
        let s = &report.sections[0];
        assert!(s.stages.len() >= 2, "pipeline has >= 2 stages: {s:?}");
        assert!(s.queues.iter().any(|q| q.pushes > 0), "{:?}", s.queues);
        assert!(s.workers.iter().any(|w| w.blocked > 0 || w.idle > 0));
        // Tick-based reports are bit-identical across runs.
        let again = run(true).telemetry.unwrap();
        assert_eq!(report.render_text(), again.render_text());
        assert_eq!(
            commset_telemetry::chrome_trace_json(&report),
            commset_telemetry::chrome_trace_json(&again)
        );
    }

    #[test]
    fn metrics_and_journal_do_not_perturb_the_sim_clock() {
        // A journal is rendered after the run from the run report and the
        // registry, so observing both is what must leave the clock alone.
        let cm = CostModel::default();
        let (module, plan) = compile_pipeline(4);
        let run = |metrics: bool, trace: Option<TraceSink>| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                metrics,
                trace,
                ..ExecConfig::default()
            };
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap()
        };
        let off = run(false, None);
        assert!(off.metrics.is_none(), "metrics must be opt-in");
        let on = run(true, Some(TraceSink::new()));
        assert_eq!(
            on.sim_time, off.sim_time,
            "metrics + trace must not change simulated time"
        );
        let reg = on.metrics.expect("metrics were enabled");
        assert!(!reg.opcodes().is_empty(), "opcode retires recorded");
        assert!(
            reg.blocks().keys().all(|b| b.contains(":bb")),
            "hot blocks carry func:bbN names: {:?}",
            reg.blocks().keys().collect::<Vec<_>>()
        );
        assert!(
            reg.hists()
                .keys()
                .any(|k| k.starts_with("queue_occupancy.")),
            "pipeline queues recorded occupancy: {:?}",
            reg.hists().keys().collect::<Vec<_>>()
        );
        // What the journal's section events are rendered from.
        let report = on.telemetry.expect("trace on attaches the report");
        assert_eq!(report.sections.len(), 1);
        let s = &report.sections[0];
        assert_eq!(s.plan_section, plan.section);
        assert_eq!(s.workers.len(), plan.workers.len());
        assert!(s.span.1 > s.span.0, "{:?}", s.span);
        // The registry is fully deterministic across runs.
        let again = run(true, None);
        assert_eq!(reg, again.metrics.unwrap());
    }

    #[test]
    fn queue_pushback_preserves_pipeline_order() {
        let (module, plan) = compile_pipeline(4);
        let cm = CostModel::default();
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let cfg = ExecConfig::with_fault(FaultPlan::queue_pushback(3));
        let out = run_simulated_with(&module, &registry(), &[plan], &mut world, &cm, &cfg).unwrap();
        let expected: Vec<i64> = (0..40).map(|i| i * 2).collect();
        assert_eq!(world.get::<Vec<i64>>("out"), &expected);
        // Capacity-1 queues force the producer into the full-queue path.
        assert!(out.stats.queue_pushes >= 40);
        assert!(out.stats.watchdog.is_clean());
    }
}
