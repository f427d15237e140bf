//! The real-thread executor.
//!
//! Workers run on OS threads with the runtime's lock-free SPSC queues and
//! raw locks; globals live in a shared atomic store. The world is either
//! one mutex-guarded [`World`] or a [`ShardedWorld`] whose stripes are
//! locked per call (`WorldMode` picks; `Deltas` rides on the sharded
//! world and buffers merge-covered calls per worker). Its wall-clock
//! speedups are bounded by the host's hardware threads; the paper's
//! speedup figures come from the simulated executor's deterministic
//! clock. TM mode falls back to a single global mutex here (pessimistic
//! but correct); the simulated executor models optimism.
//!
//! A section spawns workers 1.. on threads of their own and runs worker 0
//! on the calling thread, which would otherwise only wait to join them.
//! Each worker reports its lock traffic to a lock-free [`Watchdog`] (rank
//! order checked in the worker's own slot, see `commset_runtime::watchdog`).
//! With a deadline, a monitor thread parks until it and is unparked as
//! soon as the workers have joined.
//!
//! Robustness: a worker that hits a dynamic error — or *panics* inside a
//! registry intrinsic — no longer takes the process down. The failure is
//! contained (`catch_unwind` plus join-handle inspection), a shared cancel
//! flag unblocks every sibling parked in a queue or lock wait, the SPSC
//! queues are drained, and the run reports
//! [`ExecError::WorkerFailed`] naming the stage and cause. Worker 0 is
//! contained the same way on the calling thread.
//!
//! Observation, section setup, the delta fast paths and the end-of-run
//! fold come from the `exec_core` module; this module keeps the threads,
//! cancellation, queue batching and the shared world.

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::exec_core::{
    coalesce_deltas, dispatch, outside_section, worker_failed, Observer, RunObs, Section,
};
use crate::globals::{AtomicGlobals, SharedGlobals};
use crate::vm::StepOutcome;
use commset_ir::Module;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::lock::{LockKind, RawLock};
use commset_runtime::sharded::{ShardObserver, ShardStatsSnapshot, ShardedWorld, WORLD_STRIPES};
use commset_runtime::sync::Mutex;
use commset_runtime::world::SlotError;
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, Dispatch, FaultInjector, FaultStats, Registry, SpscQueue, Value,
    Watchdog, WatchdogReport, World,
};
use commset_telemetry::{ClockUnit, MetricsRegistry, RunCounters, RunReport, SectionMeta};
use commset_transform::{ParallelPlan, RtOp, WorkerSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch size of the DSWP queue staging buffers: a producer stage
/// publishes up to this many queued values with one release store, and a
/// consumer refills its local buffer with up to this many per shared-queue
/// access.
const QUEUE_BATCH: usize = 8;

/// Runtime statistics of a threaded run.
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    /// Faults delivered by the injection plan.
    pub fault: FaultStats,
    /// Waits-for watchdog findings (merged over all sections).
    pub watchdog: WatchdogReport,
    /// Values drained from pipeline queues during teardown (non-zero only
    /// after a failure cut a pipeline short).
    pub queue_drained: u64,
    /// Shard-lock contention counters (all zero under the single-lock
    /// world).
    pub shard: ShardStatsSnapshot,
    /// Pushes that found a pipeline queue full (producer-side pressure).
    pub queue_full_spins: u64,
    /// Pops that found a pipeline queue empty (consumer-side starvation).
    pub queue_empty_spins: u64,
    /// Delta-privatized activity (all zero unless [`WorldMode::Deltas`]
    /// routed calls into per-worker buffers).
    pub delta: DeltaSnapshot,
}

/// The shared world behind one of the two locking disciplines the
/// executor supports: the historical whole-world mutex, or the
/// rank-ordered sharded world routed by the resolved slot bindings.
enum WorldStore {
    Single(Mutex<World>),
    Sharded(ShardedWorld),
}

impl WorldStore {
    fn new(world: World, mode: WorldMode, registry: &Registry) -> Self {
        let sharded = match mode {
            WorldMode::SingleLock => false,
            // Deltas rides on the sharded world: main-thread calls and
            // calls without full merge coverage behave exactly as Sharded.
            WorldMode::Sharded | WorldMode::Deltas => true,
            WorldMode::Auto => registry.has_bindings(),
        };
        if sharded {
            WorldStore::Sharded(ShardedWorld::partition(world, WORLD_STRIPES))
        } else {
            WorldStore::Single(Mutex::new(world))
        }
    }

    /// Executes world intrinsic `id` under the store's locking
    /// discipline.
    fn call(
        &self,
        dispatch: &Dispatch<'_>,
        id: usize,
        args: &[Value],
        obs: &ShardObserver<'_>,
    ) -> IntrinsicOutcome {
        match self {
            WorldStore::Single(m) => dispatch.call(id, &mut m.lock(), args),
            WorldStore::Sharded(s) => s.call_id(dispatch, id, args, obs),
        }
    }

    /// Folds one worker's delta buffer into the shared world; returns the
    /// number of slots merged.
    fn coalesce_delta(&self, dispatch: &Dispatch<'_>, buf: DeltaBuffer) -> u64 {
        match self {
            WorldStore::Single(m) => dispatch.coalesce(&mut m.lock(), buf),
            WorldStore::Sharded(s) => s.coalesce_resolved(dispatch, buf),
        }
    }

    /// Watchdog ranks the store's multi-shard acquisitions use.
    fn shard_ranks(&self) -> usize {
        match self {
            WorldStore::Single(_) => 0,
            WorldStore::Sharded(_) => WORLD_STRIPES,
        }
    }

    fn snapshot(&self) -> ShardStatsSnapshot {
        match self {
            WorldStore::Single(_) => ShardStatsSnapshot::default(),
            WorldStore::Sharded(s) => s.stats(),
        }
    }

    fn into_world(self) -> World {
        match self {
            WorldStore::Single(m) => m.into_inner(),
            WorldStore::Sharded(s) => s.into_world(),
        }
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadOutcome {
    /// `main`'s return value.
    pub result: Option<Value>,
    /// Wall-clock duration.
    pub wall: Duration,
    /// The world after execution.
    pub world: World,
    /// Fault/watchdog statistics.
    pub stats: ThreadStats,
    /// The unified profiling report, folded from the run's event stream;
    /// present iff [`ExecConfig::trace`] was set. Timestamps are monotonic
    /// nanoseconds since the run's start.
    pub telemetry: Option<RunReport>,
    /// The merged metrics registry (opcode retires, hot-block ranks,
    /// lock/channel wait histograms, queue occupancy, delta merge
    /// sizes), present iff [`ExecConfig::metrics`] was on. Each worker
    /// records into private local state and publishes once at exit.
    pub metrics: Option<MetricsRegistry>,
}

/// Runs the transformed program on real threads with the default
/// configuration (no faults, no instrumentation).
///
/// # Errors
///
/// Returns an [`ExecError`] on executor-contract violations (unknown
/// section or queue, nested sections, runtime intrinsics outside a
/// section) and on any worker failure — a VM dynamic error or a panic
/// inside an intrinsic handler — as [`ExecError::WorkerFailed`]. Siblings
/// of a failed worker are canceled and report nothing; the process
/// survives.
pub fn run_threaded(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: World,
) -> Result<ThreadOutcome, ExecError> {
    run_threaded_with(module, registry, plans, world, &ExecConfig::default())
}

/// [`run_threaded`] with an explicit configuration (fault delays and
/// stalls are realized as microsecond sleeps).
///
/// # Errors
///
/// As [`run_threaded`].
pub fn run_threaded_with(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    mut world: World,
    cfg: &ExecConfig,
) -> Result<ThreadOutcome, ExecError> {
    let start = Instant::now();
    let injector = FaultInjector::new(cfg.fault.clone());
    let bc = BcModule::compile(module);
    let dispatch = dispatch(registry, module, &bc, &mut world)?;
    let mut run = RunObs::new(module, &bc, cfg);
    let shared_globals = AtomicGlobals::new(module);
    let world = WorldStore::new(world, cfg.world, registry);
    let mut globals = SharedGlobals::new(Arc::clone(&shared_globals));
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let mut stats = ThreadStats::default();
    let result = loop {
        // Sampled before the step so a retired op attributes to the site
        // that produced it (main-thread sequential work).
        let site = run.site(&vm);
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => run.retire(site, cost),
            StepOutcome::Special(p) => match p.op {
                Some(RtOp::ParInvoke) => {
                    let (plan, ord) = run.open_section(plans, &p)?;
                    let out = run_section(
                        &dispatch,
                        plan,
                        &shared_globals,
                        &world,
                        cfg,
                        &injector,
                        &run,
                        start,
                        ord,
                    )?;
                    run.close_section(out.meta);
                    stats.watchdog.absorb(out.watchdog);
                    stats.queue_drained += out.drained;
                    stats.queue_full_spins += out.full_spins;
                    stats.queue_empty_spins += out.empty_spins;
                    stats.delta.absorb(out.delta);
                    vm.resolve_special(Value::Int(0));
                }
                Some(_) => return Err(outside_section(module, &p)),
                None => {
                    // A bad intrinsic on the main thread (wrong slot type,
                    // missing slot, handler bug) is contained exactly like
                    // a worker failure instead of aborting the process.
                    let id = p.intrinsic.0 as usize;
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        world.call(&dispatch, id, &p.args, &ShardObserver::silent())
                    }))
                    .map_err(|payload| ExecError::WorkerFailed {
                        stage: "main".into(),
                        cause: panic_message(&*payload),
                    })?;
                    vm.resolve_special(out.value);
                }
            },
            StepOutcome::Finished(v) => break v,
        }
    };
    stats.fault = injector.stats();
    stats.shard = world.snapshot();
    // The thread executor's TM mode is pessimistic (one global lock):
    // every window commits, no optimistic aborts exist here.
    let counters = RunCounters {
        fault: stats.fault,
        watchdog_checks: stats.watchdog.checks,
        watchdog_clean: stats.watchdog.is_clean(),
        max_blocked: stats.watchdog.max_blocked,
        shard: stats.shard,
        delta: stats.delta,
        queue_full_spins: stats.queue_full_spins,
        queue_empty_spins: stats.queue_empty_spins,
        queue_drained: stats.queue_drained,
        ..RunCounters::default()
    };
    let extra = [("queue.empty_spins", stats.queue_empty_spins)];
    let (telemetry, metrics) = run.finish(ClockUnit::Nanos, counters, &extra);
    Ok(ThreadOutcome {
        result,
        wall: start.elapsed(),
        world: world.into_world(),
        stats,
        telemetry,
        metrics,
    })
}

/// Shared, immutable context for one section's worker threads.
struct SectionCtx<'a> {
    dispatch: &'a Dispatch<'a>,
    world: &'a WorldStore,
    sec: &'a Section,
    locks: &'a [RawLock],
    tm_lock: &'a RawLock,
    queues: &'a [SpscQueue<u64>],
    cancel: &'a AtomicBool,
    injector: &'a FaultInjector,
    /// Finished per-worker buffers, pushed at worker exit and coalesced by
    /// the section in worker-index order.
    delta_out: &'a Mutex<Vec<(usize, DeltaBuffer)>>,
    watchdog: &'a Watchdog,
    run: &'a RunObs<'a>,
    /// The run's epoch: span and trace timestamps are nanoseconds since
    /// this instant.
    epoch: Instant,
    /// Ordinal of this section within the run (execution order) — the
    /// span/report section key.
    section_ord: usize,
}

/// What one parallel section reports back to the run.
struct SectionOutcome {
    watchdog: WatchdogReport,
    /// Queue slots drained during teardown.
    drained: u64,
    /// Pushes that found a queue full.
    full_spins: u64,
    /// Pops that found a queue empty.
    empty_spins: u64,
    /// Plan-derived naming + per-queue spins for the report builder
    /// (present iff the trace is on).
    meta: Option<SectionMeta>,
    /// Delta-privatized activity of this section.
    delta: DeltaSnapshot,
}

/// Executes one parallel section; returns the watchdog report, teardown
/// drain count and queue contention counters.
#[allow(clippy::too_many_arguments)]
fn run_section(
    dispatch: &Dispatch<'_>,
    plan: &ParallelPlan,
    shared_globals: &Arc<AtomicGlobals>,
    world: &WorldStore,
    cfg: &ExecConfig,
    injector: &FaultInjector,
    run: &RunObs<'_>,
    epoch: Instant,
    section_ord: usize,
) -> Result<SectionOutcome, ExecError> {
    let sec_start = epoch.elapsed().as_nanos() as u64;
    let sec = Section::new(plan, cfg, dispatch.registry());
    let lock_kind = if sec.spin {
        LockKind::Spin
    } else {
        LockKind::Mutex
    };
    let locks: Vec<RawLock> = plan.locks.iter().map(|_| RawLock::new(lock_kind)).collect();
    // TM fallback: one global pessimistic lock.
    let tm_lock = RawLock::new(LockKind::Mutex);
    let queues: Vec<SpscQueue<u64>> = plan
        .queues
        .iter()
        .map(|q| SpscQueue::new(injector.clamp_capacity(q.capacity)))
        .collect();
    let cancel = AtomicBool::new(false);
    // Ranks: the plan's locks, then one per world shard above them
    // (`rank_base + shard`, see the world-call path).
    let watchdog = Watchdog::new(plan.workers.len(), locks.len() + world.shard_ranks());
    let delta_out: Mutex<Vec<(usize, DeltaBuffer)>> = Mutex::new(Vec::new());
    let ctx = SectionCtx {
        dispatch,
        world,
        sec: &sec,
        locks: &locks,
        tm_lock: &tm_lock,
        queues: &queues,
        cancel: &cancel,
        injector,
        delta_out: &delta_out,
        watchdog: &watchdog,
        run,
        epoch,
        section_ord,
    };

    // Deadline enforcement: a monitor thread (spawned inside the scope,
    // below) waits out `cfg.deadline_ms`, escalates to the watchdog for a
    // diagnosis, then trips the cooperative cancel flag — the same flag a
    // failed sibling uses, so every canceling wait unblocks. It parks for
    // the whole deadline and is unparked as soon as the workers have
    // joined, so a deadline never holds a finished section open.
    let deadline_fired = AtomicBool::new(false);
    let workers_done = AtomicBool::new(false);
    let results: Vec<Result<(), ExecError>> = std::thread::scope(|scope| {
        let ctx = &ctx;
        let monitor = cfg.deadline_ms.map(|ms| {
            let fired = &deadline_fired;
            let done = &workers_done;
            let wd = &watchdog;
            let cancel = &cancel;
            scope.spawn(move || {
                let deadline = Duration::from_millis(ms);
                let t0 = Instant::now();
                while !done.load(Ordering::SeqCst) {
                    let elapsed = t0.elapsed();
                    if elapsed >= deadline {
                        // Escalation order: ask the watchdog whether the
                        // overrun is a cycle (its findings land in the
                        // section report), then cancel cooperatively.
                        wd.check();
                        fired.store(true, Ordering::SeqCst);
                        cancel.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::park_timeout(deadline - elapsed);
                }
            })
        });
        // Workers 1.. get threads of their own; worker 0 runs right here,
        // on the calling thread, which would otherwise only wait to join.
        let handles: Vec<_> = plan
            .workers
            .iter()
            .enumerate()
            .skip(1)
            .map(|(widx, w)| scope.spawn(move || run_worker(ctx, widx, w, shared_globals)))
            .collect();
        let mut results = Vec::with_capacity(plan.workers.len());
        if let Some(w) = plan.workers.first() {
            // `run_worker` contains the panics of the worker's own code;
            // one that escapes it must still cancel the siblings, or the
            // scope below would wait on them forever.
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_worker(ctx, 0, w, shared_globals)
            }));
            results.push(own.unwrap_or_else(|payload| {
                ctx.cancel.store(true, Ordering::SeqCst);
                Err(stray_panic(&*payload))
            }));
        }
        // catch_unwind already contained worker panics; the join error
        // only carries panics outside it (defensive).
        results.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| Err(stray_panic(&*payload)))
        }));
        workers_done.store(true, Ordering::SeqCst);
        if let Some(m) = monitor {
            m.thread().unpark();
        }
        results
    });

    // All workers are joined: snapshot the contention counters (before
    // the teardown drain perturbs them), then drain abandoned pipeline
    // values so a failed run does not leak queue slots.
    let (mut full_spins, mut empty_spins) = (0u64, 0u64);
    let mut queue_spins: Vec<(u64, u64)> = Vec::with_capacity(queues.len());
    for q in &queues {
        let (f, e) = q.contention();
        full_spins += f;
        empty_spins += e;
        queue_spins.push((f, e));
    }
    let drained: u64 = queues.iter().map(|q| q.drain() as u64).sum();

    // Report the most informative failure: any real error beats the
    // Canceled noise of its siblings.
    let mut first: Option<ExecError> = None;
    for e in results.into_iter().filter_map(Result::err) {
        let canceled = |e: &ExecError| matches!(e, ExecError::Canceled { .. });
        if first.as_ref().is_none_or(|f| canceled(f) && !canceled(&e)) {
            first = Some(e);
        }
    }
    if let Some(e) = first {
        // When the deadline monitor tripped the cancel flag, the workers'
        // Canceled noise *is* the deadline overrun; a genuine failure
        // that raced the deadline still wins (it carries the root cause).
        if deadline_fired.load(Ordering::SeqCst) {
            if let ExecError::Canceled { .. } = e {
                return Err(ExecError::DeadlineExceeded {
                    section: plan.section,
                    deadline_ms: cfg.deadline_ms.unwrap_or(0),
                });
            }
        }
        return Err(e);
    }

    // A panicking merge is contained exactly like a worker panic, so the
    // run fails with a structured error instead of unwinding.
    let bufs = delta_out.into_inner();
    let delta = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        coalesce_deltas(run, injector, bufs, |buf| {
            world.coalesce_delta(dispatch, buf)
        })
    }))
    .map_err(|payload| ExecError::WorkerFailed {
        stage: "__delta_coalesce".into(),
        cause: panic_message(&*payload),
    })??;
    let meta = run.tracing().then(|| {
        let span = (sec_start, epoch.elapsed().as_nanos() as u64);
        sec.meta(plan, section_ord, queue_spins, span)
    });
    Ok(SectionOutcome {
        watchdog: watchdog.report(),
        drained,
        full_spins,
        empty_spins,
        meta,
        delta,
    })
}

/// One worker from start to exit, wherever it runs: its VM loop with
/// panics contained, its lifetime event, and the cancel flag tripped on
/// failure so every sibling parked in a queue or lock unblocks.
fn run_worker(
    ctx: &SectionCtx<'_>,
    widx: usize,
    w: &WorkerSpec,
    shared_globals: &Arc<AtomicGlobals>,
) -> Result<(), ExecError> {
    let globals = SharedGlobals::new(Arc::clone(shared_globals));
    let now = || ctx.epoch.elapsed().as_nanos() as u64;
    let w_start = now();
    let mut obs = Observer::new(ctx.run, ctx.sec, ctx.section_ord, widx);
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(ctx, widx, &w.func, w.tid, w.nt, globals, &mut obs)
    }));
    // The lifetime event is recorded here (not inside the loop) so failed
    // workers have one too.
    obs.worker_span(w_start, now());
    let outcome = match body {
        Ok(r) => r,
        Err(payload) => Err(ExecError::WorkerFailed {
            stage: w.func.clone(),
            cause: panic_message(&*payload),
        }),
    };
    if outcome.is_err() {
        ctx.cancel.store(true, Ordering::SeqCst);
    }
    outcome
}

/// A worker panic that escaped [`run_worker`]'s containment.
fn stray_panic(payload: &(dyn std::any::Any + Send)) -> ExecError {
    ExecError::WorkerFailed {
        stage: "<worker>".into(),
        cause: panic_message(payload),
    }
}

/// Round-robin flush of every staged queue push. Never parks on one full
/// queue while another staged queue could make progress (a consumer
/// blocked on queue B must not be starved by our full queue A), so the
/// staging layer cannot introduce cross-queue deadlocks. Returns `false`
/// when the section was canceled mid-flush.
fn flush_staged(ctx: &SectionCtx<'_>, staged: &mut [Vec<u64>]) -> bool {
    loop {
        let mut remaining = false;
        for (q, buf) in staged.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let sent = ctx.queues[q].push_n(buf);
            if sent > 0 {
                buf.drain(..sent);
            }
            remaining |= !buf.is_empty();
        }
        if !remaining {
            return true;
        }
        if ctx.cancel.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::yield_now();
    }
}

/// One worker's execution; every failure mode returns an error.
///
/// Observations accumulate in the caller-owned observer, whose events the
/// spawn wrapper publishes even when this loop errors or panics.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ctx: &SectionCtx<'_>,
    widx: usize,
    func: &str,
    tid: i64,
    nt: i64,
    mut globals: SharedGlobals,
    obs: &mut Observer<'_>,
) -> Result<(), ExecError> {
    let canceled = || ExecError::Canceled { stage: func.into() };
    let mut vm = BcVm::for_name(
        ctx.run.module,
        ctx.run.bc,
        func,
        &[Value::Int(tid), Value::Int(nt)],
    )?;
    let tracing = ctx.run.tracing();
    if tracing {
        vm.watch_calls_matching("__commset_region_");
    }
    // Monotonic timestamps for the event stream and metrics: nanoseconds
    // since the run's epoch, read only when some instrumentation is on.
    let now = || ctx.epoch.elapsed().as_nanos() as u64;
    let on = obs.on();
    let stamp = || if on { now() } else { 0 };
    let mut in_tx = false;
    // DSWP queue batching: producer-side staging buffers (published with
    // one `push_n` per batch) and consumer-side refill buffers (refilled
    // with one `pop_n` per batch). Invariant: *all* staged pushes are
    // flushed before this worker enters any blocking wait — a lock
    // acquisition, a TM begin, a blocking pop, or its own exit — so no
    // sibling can wait forever on a value parked in our staging buffer.
    // Delta privatization: merge-covered world calls land here instead of
    // taking any shard lock; the buffer is handed to the section barrier
    // at exit for the deterministic coalesce.
    let mut delta_buf = ctx.sec.delta.then(|| ctx.dispatch.delta_buffer());
    let mut staged: Vec<Vec<u64>> = (0..ctx.queues.len()).map(|_| Vec::new()).collect();
    let mut refill: Vec<VecDeque<u64>> = (0..ctx.queues.len()).map(|_| VecDeque::new()).collect();
    let mut scratch: Vec<u64> = Vec::new();
    loop {
        if ctx.cancel.load(Ordering::Relaxed) {
            return Err(canceled());
        }
        // Sampled before the step so a retired op attributes to the site
        // that produced it.
        let site = obs.site(&vm);
        let step = vm.step(&mut globals).map_err(|e| worker_failed(func, e))?;
        if tracing {
            obs.regions(&mut vm, now);
        }
        let p = match step {
            StepOutcome::Ran { cost } => {
                obs.retire(site, cost);
                continue;
            }
            StepOutcome::Finished(_) => {
                // Publish any staged queue values before exiting.
                if !flush_staged(ctx, &mut staged) {
                    return Err(canceled());
                }
                // Hand the private delta buffer to the section barrier.
                // Failed/canceled workers never get here, so their partial
                // deltas are dropped with the failed section.
                if let Some(buf) = delta_buf.take() {
                    ctx.delta_out.lock().push((widx, buf));
                }
                obs.publish();
                return Ok(());
            }
            StepOutcome::Special(p) => p,
        };
        // Periodic stalls plus the persistent slow-worker drag.
        let stall = ctx.injector.worker_stall(tid) + ctx.injector.slow_worker(tid);
        if stall > 0 {
            std::thread::sleep(Duration::from_micros(stall));
        }
        match p.op {
            Some(RtOp::LockAcquire) => {
                let l = p.args[0].as_int() as usize;
                if ctx.sec.elide_acquire(l, delta_buf.as_mut()) {
                    vm.resolve_special(Value::Int(0));
                    continue;
                }
                // Blocking wait ahead: publish staged values first.
                if !flush_staged(ctx, &mut staged) {
                    return Err(canceled());
                }
                ctx.watchdog.acquiring(widx, l);
                let t0 = stamp();
                if !ctx.locks[l].acquire_canceling(ctx.cancel) {
                    ctx.watchdog.wait_abandoned(widx);
                    return Err(canceled());
                }
                let t1 = stamp();
                ctx.watchdog.acquired(widx, l);
                let delay = ctx.injector.lock_grant_delay();
                if delay > 0 {
                    std::thread::sleep(Duration::from_micros(delay));
                }
                obs.lock_acquired(l, t0, t1, stamp());
                vm.resolve_special(Value::Int(0));
            }
            Some(RtOp::LockRelease) => {
                let l = p.args[0].as_int() as usize;
                if !ctx.sec.elided(l) {
                    let t = stamp();
                    ctx.locks[l].release();
                    ctx.watchdog.released(widx, l);
                    obs.lock_released(l, t, stamp());
                }
                vm.resolve_special(Value::Int(0));
            }
            Some(RtOp::Push { .. }) => {
                let id = p.args[0].as_int();
                let q = ctx.sec.queue(id)?;
                let qs = ctx.injector.queue_stall_delay();
                if qs > 0 {
                    std::thread::sleep(Duration::from_micros(qs));
                }
                staged[q].push(p.args[1].to_bits());
                if staged[q].len() >= QUEUE_BATCH {
                    obs.begin_wait(stamp());
                    if !flush_staged(ctx, &mut staged) {
                        return Err(canceled());
                    }
                }
                let t = stamp();
                obs.queue_op(true, id, t, t, || ctx.queues[q].len());
                vm.resolve_special(Value::Int(0));
            }
            Some(RtOp::Pop { float }) => {
                let id = p.args[0].as_int();
                let q = ctx.sec.queue(id)?;
                let qs = ctx.injector.queue_stall_delay();
                if qs > 0 {
                    std::thread::sleep(Duration::from_micros(qs));
                }
                let (bits, attempt) = match refill[q].pop_front() {
                    Some(b) => (b, 0),
                    None => {
                        // Blocking wait ahead: publish staged values
                        // first, then take one value (blocking) and
                        // opportunistically batch up whatever else is
                        // already there.
                        obs.begin_wait(stamp());
                        if !flush_staged(ctx, &mut staged) {
                            return Err(canceled());
                        }
                        let Some(first) = ctx.queues[q].pop_canceling(ctx.cancel) else {
                            return Err(canceled());
                        };
                        let t1 = stamp();
                        scratch.clear();
                        ctx.queues[q].pop_n(&mut scratch, QUEUE_BATCH - 1);
                        refill[q].extend(scratch.drain(..));
                        (first, t1)
                    }
                };
                obs.queue_op(false, id, attempt, stamp(), || ctx.queues[q].len());
                vm.resolve_special(Value::from_bits(bits, float));
            }
            Some(RtOp::TxBegin) => {
                // Blocking wait ahead: publish staged values first.
                if !flush_staged(ctx, &mut staged) {
                    return Err(canceled());
                }
                if !ctx.tm_lock.acquire_canceling(ctx.cancel) {
                    return Err(canceled());
                }
                obs.tx_begin(stamp());
                in_tx = true;
                vm.resolve_special(Value::Int(0));
            }
            Some(RtOp::TxCommit) => {
                if !in_tx {
                    return Err(ExecError::TxCommitWithoutBegin);
                }
                // Pessimistic TM: the window commits, no aborts.
                obs.tx_commit(0, stamp());
                ctx.tm_lock.release();
                in_tx = false;
                vm.resolve_special(Value::Int(0));
            }
            Some(RtOp::ParInvoke) => return Err(ExecError::NestedParallelSection),
            None => {
                let id = p.intrinsic.0 as usize;
                let t0 = stamp();
                let out = match ctx.dispatch.delta_call(id, delta_buf.as_mut(), &p.args) {
                    Some(out) => out,
                    None => {
                        // World calls never wait on queues (handlers only
                        // touch world slots), so staged pushes can stay
                        // parked across them: shard/world locks are leaf
                        // locks and cannot be held by a sibling that is
                        // blocked on one of our queues.
                        let shard_obs = ShardObserver {
                            watchdog: Some(ctx.watchdog),
                            worker: widx,
                            rank_base: ctx.locks.len(),
                            injector: Some(ctx.injector),
                        };
                        ctx.world.call(ctx.dispatch, id, &p.args, &shard_obs)
                    }
                };
                let t1 = stamp();
                obs.world_call(ctx.run.module.intrinsics.name(id), &p.args, t0, t1);
                obs.observe_world_call(id, t1.saturating_sub(t0));
                vm.resolve_special(out.value);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<SlotError>() {
        // World wiring bugs unwind with a typed payload (see
        // `commset_runtime::world`): surface the structured message.
        e.to_string()
    } else {
        "worker panicked (non-string payload)".into()
    }
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
        t.register("add_acc", vec![Type::Int], Type::Void, &[], &["ACC"], 50);
        t.register("double", vec![Type::Int], Type::Int, &[], &[], 50);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 20);
        t
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("add_acc", |world, args| {
            *world.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        r.register("double", |_, args| {
            IntrinsicOutcome::value(args[0].as_int() * 2)
        });
        r.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        r
    }

    fn compile_doall(src: &str, nthreads: usize, sync: SyncMode) -> (Module, ParallelPlan) {
        let c = Compiler::new(table());
        let a = c.analyze(src).unwrap();
        c.compile(&a, Scheme::Doall, nthreads, sync).unwrap()
    }

    /// `double` then an ordered `emit`: PS-DSWP at 4 threads, with the
    /// output stage kept sequential.
    const PIPE_SRC: &str = r#"
        extern int double(int x);
        extern void emit(int y);
        int main() {
            int n = 100;
            for (int i = 0; i < n; i = i + 1) {
                int y = double(i);
                emit(y);
            }
            return 0;
        }
    "#;

    fn compile_pipeline() -> (Module, ParallelPlan) {
        let c = Compiler::new(table()).with_irrevocable(&["OUT"]);
        let a = c.analyze(PIPE_SRC).unwrap();
        c.compile(&a, Scheme::PsDswp, 4, SyncMode::Lib).unwrap()
    }

    const SUM_SRC: &str = r#"
        extern void add_acc(int v);
        int main() {
            int n = 200;
            for (int i = 0; i < n; i = i + 1) {
                #pragma CommSet(SELF)
                { add_acc(i); }
            }
            return 0;
        }
    "#;

    #[test]
    fn threaded_doall_sums_correctly() {
        let (module, plan) = compile_doall(SUM_SRC, 4, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let out = run_threaded(&module, &registry(), &[plan], world).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
    }

    #[test]
    fn threaded_pipeline_preserves_order() {
        let (module, plan) = compile_pipeline();
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let out = run_threaded(&module, &registry(), &[plan], world).unwrap();
        let produced = out.world.get::<Vec<i64>>("out");
        let expected: Vec<i64> = (0..100).map(|i| i * 2).collect();
        assert_eq!(produced, &expected);
    }

    #[test]
    fn threaded_trace_observes_every_region_instance() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let sink = crate::trace::TraceSink::new();
        let cfg = ExecConfig::with_trace(sink.clone());
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        // The trace sees every region instance and its lock traffic.
        let recs = sink.take();
        let enters = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionEnter { .. }));
        assert_eq!(enters.count(), 200, "one region instance per iteration");
        let locks = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::LockAcquire { .. }));
        assert!(locks.count() > 0);
    }

    #[test]
    fn telemetry_attaches_report_and_stays_opt_in() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let cfg = ExecConfig::with_trace(crate::trace::TraceSink::new());
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        let report = out.telemetry.expect("a trace must attach a report");
        assert_eq!(report.sections.len(), 1);
        let s = &report.sections[0];
        assert_eq!(s.workers.len(), 3);
        assert_eq!(
            s.workers.iter().map(|w| w.regions).sum::<u64>(),
            200,
            "every region instance must be spanned"
        );
        assert!(s.locks[0].acquires > 0, "{:?}", s.locks);
        assert!(s.workers.iter().all(|w| w.total > 0));
        // Off by default: no report, no observation cost.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert!(out2.telemetry.is_none());
    }

    #[test]
    fn metrics_and_journal_attach_and_stay_opt_in() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let cfg = ExecConfig {
            metrics: true,
            trace: Some(TraceSink::new()),
            ..ExecConfig::default()
        };
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        let reg = out.metrics.expect("metrics on must attach a registry");
        assert!(!reg.opcodes().is_empty(), "opcode retires recorded");
        assert!(
            reg.blocks().keys().all(|k| k.contains(":bb")),
            "{:?}",
            reg.blocks()
        );
        assert!(
            reg.hists().keys().any(|k| k.starts_with("lock_wait.")),
            "lock waits observed: {:?}",
            reg.hists().keys().collect::<Vec<_>>()
        );
        // What a rendered journal's section events come from.
        let report = out.telemetry.expect("trace on attaches the report");
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.sections[0].workers.len(), 3);
        // Off by default: no registry attached.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert!(out2.metrics.is_none());
    }

    #[test]
    fn worker_dynamic_error_is_contained_and_named() {
        // Division by zero at i == 50 inside one worker's slice.
        let src = r#"
            extern void add_acc(int v);
            int main() {
                int n = 200;
                for (int i = 0; i < n; i = i + 1) {
                    int z = 100 / (50 - i);
                    #pragma CommSet(SELF)
                    { add_acc(z); }
                }
                return 0;
            }
        "#;
        let (module, plan) = compile_doall(src, 4, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let err = run_threaded(&module, &registry(), &[plan], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { stage, cause } => {
                assert!(stage.starts_with("__par"), "stage: {stage}");
                assert!(cause.contains("division by zero"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn intrinsic_panic_is_contained_and_siblings_cancel() {
        // The panicking intrinsic fires mid-pipeline, leaving the consumer
        // blocked on its queue: cancellation must unblock it and the run
        // must report the panic message, not abort the process.
        let (module, plan) = compile_pipeline();
        let mut reg = Registry::new();
        reg.register("double", |_, args| {
            let x = args[0].as_int();
            if x == 30 {
                panic!("intrinsic blew up at 30");
            }
            IntrinsicOutcome::value(x * 2)
        });
        reg.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let err = run_threaded(&module, &reg, &[plan], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { cause, .. } => {
                assert!(cause.contains("intrinsic blew up at 30"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn missing_world_slot_maps_to_worker_failed_not_abort() {
        // The registry expects "acc" but the world never installs it: the
        // SlotError panic must surface as a structured WorkerFailed from
        // the failing stage, with the slot named in the cause.
        let (module, plan) = compile_doall(SUM_SRC, 2, SyncMode::Spin);
        let err = run_threaded(&module, &registry(), &[plan], World::new()).unwrap_err();
        match err {
            ExecError::WorkerFailed { cause, .. } => {
                assert!(
                    cause.contains("world slot `acc` is not installed"),
                    "cause: {cause}"
                );
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn main_thread_slot_error_maps_to_worker_failed() {
        // A sequential (outside-section) intrinsic with a bad slot must be
        // contained on the main thread too.
        let src = r#"
            extern void add_acc(int v);
            int main() {
                add_acc(1);
                return 0;
            }
        "#;
        let unit = commset_lang::compile_unit(src).unwrap();
        let module = commset_ir::lower_program(&unit.program, table()).unwrap();
        // Wrong type: "acc" holds a String, the handler wants i64.
        let mut world = World::new();
        world.install("acc", String::from("oops"));
        let err = run_threaded(&module, &registry(), &[], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { stage, cause } => {
                assert_eq!(stage, "main");
                assert!(
                    cause.contains("world slot `acc` has an unexpected type"),
                    "cause: {cause}"
                );
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn sharded_world_matches_single_lock_results() {
        use commset_runtime::SlotBinding;
        for mode in [WorldMode::SingleLock, WorldMode::Sharded] {
            let (module, plan) = compile_doall(SUM_SRC, 4, SyncMode::Spin);
            let mut reg = registry();
            reg.bind("add_acc", vec![SlotBinding::Fixed("acc".into())]);
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig {
                world: mode,
                ..ExecConfig::default()
            };
            let out = run_threaded_with(&module, &reg, &[plan], world, &cfg).unwrap();
            assert_eq!(
                *out.world.get::<i64>("acc"),
                (0..200).sum::<i64>(),
                "{mode:?}"
            );
            assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
            match mode {
                WorldMode::Sharded => assert!(
                    out.stats.shard.fast_acquires > 0,
                    "bound intrinsic must use the fast path: {:?}",
                    out.stats.shard
                ),
                _ => assert_eq!(out.stats.shard, ShardStatsSnapshot::default()),
            }
        }
    }

    #[test]
    fn auto_mode_picks_sharded_when_bindings_exist() {
        use commset_runtime::SlotBinding;
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut reg = registry();
        reg.bind("add_acc", vec![SlotBinding::Fixed("acc".into())]);
        let mut world = World::new();
        world.install("acc", 0i64);
        let out = run_threaded(&module, &reg, &[plan], world).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        assert!(out.stats.shard.fast_acquires > 0, "{:?}", out.stats.shard);
        // Without bindings, Auto stays on the single lock.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert_eq!(out2.stats.shard, ShardStatsSnapshot::default());
    }

    #[test]
    fn fault_plans_leave_threaded_results_intact() {
        for fault in [
            FaultPlan::lock_delay(9, 40),
            FaultPlan::worker_stall(9, 1, 60),
            FaultPlan::queue_pushback(9),
        ] {
            let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Mutex);
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig::with_fault(fault.clone());
            let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
            assert_eq!(
                *out.world.get::<i64>("acc"),
                (0..200).sum::<i64>(),
                "fault {fault:?} must not change results"
            );
            assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
        }
    }

    #[test]
    fn worker_zero_failure_on_the_calling_thread_is_named() {
        // Division by zero at i == 0 only: with cyclic distribution that
        // iteration belongs to worker 0, which runs on the calling thread.
        let src = r#"
            extern void add_acc(int v);
            int main() {
                int n = 200;
                for (int i = 0; i < n; i = i + 1) {
                    int z = 100 / i;
                    #pragma CommSet(SELF)
                    { add_acc(z); }
                }
                return 0;
            }
        "#;
        let (module, plan) = compile_doall(src, 4, SyncMode::Spin);
        assert_eq!(plan.workers[0].tid, 0);
        let mut world = World::new();
        world.install("acc", 0i64);
        match run_threaded(&module, &registry(), &[plan], world).unwrap_err() {
            ExecError::WorkerFailed { stage, cause } => {
                assert!(stage.starts_with("__par"), "stage: {stage}");
                assert!(cause.contains("division by zero"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute, so a hang shows as a failure.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run hung (or panicked)")
    }

    /// The pipeline with its workers reversed: worker 0, on the calling
    /// thread, is the ordered `emit` stage, a consumer that pops.
    fn consumer_first_pipeline() -> (Module, ParallelPlan) {
        let (module, mut plan) = compile_pipeline();
        plan.workers.reverse();
        let last = plan.workers.iter().map(|w| w.stage).max();
        assert_eq!(Some(plan.workers[0].stage), last);
        (module, plan)
    }

    #[test]
    fn producer_panic_cancels_a_consumer_worker_zero() {
        // The same plan runs to completion in this order...
        let (module, plan) = consumer_first_pipeline();
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let out = run_threaded(&module, &registry(), &[plan], world).unwrap();
        let expected: Vec<i64> = (0..100).map(|i| i * 2).collect();
        assert_eq!(out.world.get::<Vec<i64>>("out"), &expected);
        // ...and a producer panic mid-stream unblocks worker 0's pop.
        let err = within_a_minute(|| {
            let (module, plan) = consumer_first_pipeline();
            let mut reg = Registry::new();
            reg.register("double", |_, args| {
                let x = args[0].as_int();
                if x == 30 {
                    panic!("producer blew up at 30");
                }
                IntrinsicOutcome::value(x * 2)
            });
            reg.register("emit", |world, args| {
                world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
                IntrinsicOutcome::unit()
            });
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            run_threaded(&module, &reg, &[plan], world).unwrap_err()
        });
        match err {
            ExecError::WorkerFailed { cause, .. } => {
                assert!(cause.contains("producer blew up at 30"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn impossible_deadline_cancels_worker_zero() {
        // Worker 0 drags 2 ms at every sync event, so the run would take
        // about 100 ms; a 0 ms deadline fires before any of it.
        let err = within_a_minute(|| {
            let (module, plan) = compile_doall(SUM_SRC, 2, SyncMode::Mutex);
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig {
                deadline_ms: Some(0),
                ..ExecConfig::with_fault(FaultPlan::slow_worker(3, 0, 2000))
            };
            run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap_err()
        });
        assert!(
            matches!(err, ExecError::DeadlineExceeded { deadline_ms: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn a_deadline_does_not_hold_a_finished_section_open() {
        // Four iterations: the workers finish in well under a millisecond,
        // even unoptimized. An unmet deadline must not keep the section
        // open once they have joined: the median run with one may cost a
        // thread spawn more than without, not the deadline monitor's
        // polling step (1 ms).
        let src = r#"
            extern void add_acc(int v);
            int main() {
                int n = 4;
                for (int i = 0; i < n; i = i + 1) {
                    #pragma CommSet(SELF)
                    { add_acc(i); }
                }
                return 0;
            }
        "#;
        let (module, plan) = compile_doall(src, 2, SyncMode::Spin);
        let run = |deadline_ms| {
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig {
                deadline_ms,
                ..ExecConfig::default()
            };
            let t0 = Instant::now();
            let plans = std::slice::from_ref(&plan);
            let out = run_threaded_with(&module, &registry(), plans, world, &cfg);
            let wall = t0.elapsed();
            assert_eq!(*out.unwrap().world.get::<i64>("acc"), 6);
            wall
        };
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..41 {
            with.push(run(Some(60_000)));
            without.push(run(None));
        }
        with.sort();
        without.sort();
        let (w, wo) = (with[20], without[20]);
        assert!(
            w < wo + Duration::from_micros(500),
            "median with a deadline {w:?} vs without {wo:?}"
        );
    }
}
