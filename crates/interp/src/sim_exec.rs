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

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::globals::PlainGlobals;
use crate::metrics::MetricsLocal;
use crate::trace::{TraceEvent, TraceSink};
use crate::vm::{PendingSpecial, StepOutcome};
use commset_ir::Module;
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, FaultInjector, FaultStats, Registry, Value, Watchdog,
    WatchdogReport, World, DELTA_POISON_MSG,
};
use commset_sim::lock::AcquireOutcome;
use commset_sim::{
    pick_with_horizon, CostModel, PopOutcome, PushOutcome, SimLock, SimLockKind, SimQueue, TmModel,
};
use commset_telemetry::{
    ClockUnit, JournalEvent, MetricsRegistry, RunCounters, RunReport, SectionMeta, SpanKind,
    SpanRecord, TelemetrySink,
};
use commset_transform::{ParallelPlan, SyncMode};
use std::collections::HashMap;

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
    /// The unified profiling report, present iff [`ExecConfig::telemetry`]
    /// was on. Timestamps are deterministic logical ticks, so the report
    /// is bit-identical across runs.
    pub telemetry: Option<RunReport>,
    /// The merged metrics registry (opcode retires, hot-block ranks,
    /// lock/channel wait histograms, queue occupancy, delta merge
    /// sizes), present iff [`ExecConfig::metrics`] was on. Recording is
    /// passive — no modeled clock is touched — so `sim_time` is
    /// bit-identical with metrics on or off.
    pub metrics: Option<MetricsRegistry>,
}

/// Run-wide metrics accumulation: a no-op (one bool check per call) when
/// the metrics registry is off. The DES is single-threaded, so one local
/// accumulator serves every virtual worker and there is no sink.
struct SimMetrics {
    on: bool,
    reg: MetricsRegistry,
    local: MetricsLocal,
}

impl SimMetrics {
    fn retire(&mut self, bc: &BcModule, site: Option<(u32, u32)>, cost: u64) {
        if let Some(site) = site {
            self.local.retire(bc, site, cost);
        }
    }

    fn observe(&mut self, name: &str, v: u64) {
        if self.on {
            self.reg.observe(name, v);
        }
    }
}

/// Per-section span collection: a no-op (one bool check per call) when
/// telemetry is off.
struct SectionTelemetry {
    on: bool,
    sec: usize,
    spans: Vec<SpanRecord>,
}

impl SectionTelemetry {
    fn span(&mut self, worker: usize, start: u64, end: u64, kind: SpanKind) {
        if self.on {
            self.spans.push(SpanRecord {
                section: self.sec,
                worker,
                start,
                end,
                kind,
            });
        }
    }
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
/// configuration (no faults, watchdog on).
///
/// `plans` must contain one plan per `__par_invoke` section in the
/// program, keyed by its `section` field.
///
/// # Errors
///
/// Returns an [`ExecError`] on executor-contract violations (unknown
/// section or queue, deadlock, nested parallel sections) and on VM
/// dynamic errors; worker errors are wrapped as
/// [`ExecError::WorkerFailed`] naming the stage function.
pub fn run_simulated(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: &mut World,
    cm: &CostModel,
) -> Result<SimOutcome, ExecError> {
    run_simulated_with(module, registry, plans, world, cm, &ExecConfig::default())
}

/// [`run_simulated`] with explicit fault-injection, backoff and watchdog
/// configuration.
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
    let mut globals = PlainGlobals::new(module);
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let mut sim_time: u64 = 0;
    let mut stats = SimStats::default();
    let sink = cfg.telemetry.then(TelemetrySink::new);
    let mut mx = SimMetrics {
        on: cfg.metrics,
        reg: MetricsRegistry::new(),
        local: MetricsLocal::new(),
    };
    let mut metas: Vec<SectionMeta> = Vec::new();
    let mut next_ord = 0usize;
    loop {
        // Sampled before the step so a retired op attributes to the site
        // that produced it; `None` when metrics are off.
        let site = if mx.on { vm.site() } else { None };
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => {
                sim_time += cost * cm.inst;
                mx.retire(&bc, site, cost);
            }
            StepOutcome::Special(p) => {
                let name = module.intrinsics.name(p.intrinsic.0 as usize);
                if name == "__par_invoke" {
                    let section = p.args[0].as_int();
                    let plan = plans
                        .iter()
                        .find(|pl| pl.section == section)
                        .ok_or(ExecError::UnknownSection { section })?;
                    let mut telem = SectionTelemetry {
                        on: sink.is_some(),
                        sec: next_ord,
                        spans: Vec::new(),
                    };
                    next_ord += 1;
                    if let Some(j) = &cfg.journal {
                        j.record(JournalEvent {
                            section: Some((next_ord - 1) as u64),
                            ..JournalEvent::new("section_start", sim_time)
                                .field("plan_section", section.to_string())
                                .field("workers", plan.workers.len().to_string())
                        });
                    }
                    let (end, section_stats, meta) = run_section(
                        module,
                        &bc,
                        registry,
                        plan,
                        world,
                        &mut globals,
                        sim_time,
                        cm,
                        cfg,
                        &injector,
                        &mut telem,
                        &mut mx,
                    )?;
                    if let Some(j) = &cfg.journal {
                        j.record(JournalEvent {
                            section: Some((next_ord - 1) as u64),
                            ..JournalEvent::new("section_end", end)
                        });
                    }
                    sim_time = end;
                    merge_stats(&mut stats, section_stats);
                    if let (Some(s), Some(m)) = (sink.as_ref(), meta) {
                        s.record_batch(telem.spans);
                        metas.push(m);
                    }
                    vm.resolve_special(Value::Int(0));
                } else {
                    let base = module.intrinsics.sig(p.intrinsic.0 as usize).base_cost;
                    let out = registry.call(name, world, &p.args);
                    sim_time += base + out.extra_cost;
                    vm.resolve_special(out.value);
                }
            }
            StepOutcome::Finished(result) => {
                stats.fault = injector.stats();
                let telemetry = sink.map(|s| {
                    let counters = RunCounters {
                        fault: stats.fault,
                        watchdog_checks: stats.watchdog.checks,
                        watchdog_clean: stats.watchdog.is_clean(),
                        max_blocked: stats.watchdog.max_blocked,
                        // The DES has no sharded world and no SPSC rings:
                        // empty-pop counts stand in for empty spins.
                        shard: Default::default(),
                        delta: stats.delta,
                        tm_commits: stats.tm_commits,
                        tm_aborts: stats.tm_aborts,
                        tm_fallbacks: stats.tm_fallbacks,
                        queue_full_spins: 0,
                        queue_empty_spins: stats.queue_stalls,
                        queue_drained: 0,
                    };
                    RunReport::build(ClockUnit::Ticks, s.take(), metas, counters)
                });
                let metrics = mx.on.then(|| {
                    let mut reg = std::mem::take(&mut mx.reg);
                    mx.local.publish(module, &bc, &mut reg);
                    reg.inc("delta.applies", stats.delta.applies);
                    reg.inc("delta.coalesces", stats.delta.coalesces);
                    reg.inc("delta.merged_slots", stats.delta.merged_slots);
                    reg.inc("delta.lock_elisions", stats.delta.lock_elisions);
                    reg.inc("tm.commits", stats.tm_commits);
                    reg.inc("tm.aborts", stats.tm_aborts);
                    reg.inc("tm.fallbacks", stats.tm_fallbacks);
                    reg.inc("queue.pushes", stats.queue_pushes);
                    reg.inc("queue.empty_pops", stats.queue_stalls);
                    if let Some(j) = &cfg.journal {
                        j.record_metrics(sim_time, &reg);
                    }
                    reg
                });
                if let Some(j) = &cfg.journal {
                    j.record(
                        JournalEvent::new("sim_finished", sim_time)
                            .field("sim_time", sim_time.to_string()),
                    );
                }
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

struct Worker<'m> {
    vm: BcVm<'m>,
    clock: u64,
    status: WStatus,
    tx: Option<commset_sim::tm::TxRecord>,
    /// Modeled optimistic aborts of the in-flight transaction (drives the
    /// starvation fallback to the rank-0 global lock).
    tx_aborts: u64,
    /// True when retrying a lock acquisition after having blocked on it
    /// (pays the contention penalty).
    lock_retry: bool,
    /// Telemetry: clock at which the current blocking wait began (a worker
    /// blocks on at most one lock or queue endpoint at a time).
    block_start: Option<u64>,
    /// Telemetry: lock rank -> grant tick of the currently held lock.
    lock_held: HashMap<usize, u64>,
    /// Telemetry: tick at which the in-flight transaction began.
    tx_begin_t: u64,
    /// Telemetry: open commutative-region instances (enter seen, exit
    /// pending), as (func, enter tick).
    region_stack: Vec<(String, u64)>,
}

/// Executes one parallel section; returns (end time, stats, telemetry
/// metadata).
#[allow(clippy::too_many_arguments)]
fn run_section<'m>(
    module: &'m Module,
    bc: &'m BcModule,
    registry: &Registry,
    plan: &ParallelPlan,
    world: &mut World,
    globals: &mut PlainGlobals,
    start: u64,
    cm: &CostModel,
    cfg: &ExecConfig,
    injector: &FaultInjector,
    telem: &mut SectionTelemetry,
    mx: &mut SimMetrics,
) -> Result<(u64, SimStats, Option<SectionMeta>), ExecError> {
    let lock_kind = match plan.sync {
        SyncMode::Spin => SimLockKind::Spin,
        _ => SimLockKind::Mutex,
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
    // Queue ids may be sparse in principle; map id -> index.
    let mut queue_index: HashMap<i64, usize> = HashMap::new();
    let mut queues: Vec<SimQueue> = Vec::new();
    for q in &plan.queues {
        queue_index.insert(q.id, queues.len());
        queues.push(SimQueue::new(injector.clamp_capacity(q.capacity)));
    }
    let mut tm = TmModel::new();
    let watchdog = cfg.watchdog.then(Watchdog::new);
    // The virtual world is internally thread-safe (the paper's "Lib"
    // discipline): each intrinsic execution serializes on the channels it
    // writes, and readers wait for in-flight writers. This is what makes
    // I/O-channel saturation emerge at high thread counts.
    let mut channel_free: HashMap<u32, u64> = HashMap::new();
    // Delta privatization: merge-covered calls run against per-worker
    // buffers with no channel serialization at all (the modeled analogue
    // of taking no shard lock); the buffers fold back into the world in
    // worker-index order at the section end. Pipeline sections (queues
    // present) keep the serialized discipline.
    let delta_on =
        matches!(cfg.world, WorldMode::Deltas) && registry.has_merges() && plan.queues.is_empty();
    let mut delta_bufs: Vec<DeltaBuffer> = if delta_on {
        (0..plan.workers.len())
            .map(|_| DeltaBuffer::new())
            .collect()
    } else {
        Vec::new()
    };
    // Static lock elision: a CommSet region lock whose guarded intrinsics
    // are all delta-covered serializes nothing — every effect in the
    // region lands in a worker-private buffer, invisible to siblings
    // until the barrier, and the declared merges make the coalesce order
    // immaterial. Synthetic locks (`__reduction`) have no members and are
    // never elided.
    let elided: Vec<bool> = plan
        .locks
        .iter()
        .map(|ls| {
            delta_on
                && !ls.members.is_empty()
                && ls.members.iter().all(|m| registry.delta_covered(m))
        })
        .collect();

    let spawn_t = start + cm.par_spawn;
    let mut workers: Vec<Worker<'m>> = Vec::with_capacity(plan.workers.len());
    for w in &plan.workers {
        let mut vm = BcVm::for_name(module, bc, &w.func, &[Value::Int(w.tid), Value::Int(w.nt)])?;
        if cfg.trace.is_some() || telem.on {
            vm.watch_calls_matching("__commset_region_");
        }
        workers.push(Worker {
            vm,
            clock: spawn_t,
            status: WStatus::Ready,
            tx: None,
            tx_aborts: 0,
            lock_retry: false,
            block_start: None,
            lock_held: HashMap::new(),
            tx_begin_t: 0,
            region_stack: Vec::new(),
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
            let site = if mx.on { workers[i].vm.site() } else { None };
            let step = workers[i]
                .vm
                .step(globals)
                .map_err(|e| ExecError::WorkerFailed {
                    stage: plan.workers[i].func.clone(),
                    cause: e.to_string(),
                })?;
            let ran = match step {
                StepOutcome::Ran { cost } => {
                    workers[i].clock += cost * cm.inst;
                    mx.retire(bc, site, cost);
                    true
                }
                StepOutcome::Finished(_) => {
                    workers[i].status = WStatus::Done;
                    false
                }
                StepOutcome::Special(p) => {
                    handle_special(
                        module,
                        registry,
                        world,
                        plan,
                        &mut workers,
                        i,
                        &p,
                        &mut locks,
                        &mut queues,
                        &queue_index,
                        &mut tm,
                        &mut channel_free,
                        &mut delta_bufs,
                        &elided,
                        cm,
                        cfg,
                        injector,
                        watchdog.as_ref(),
                        telem,
                        mx,
                    )?;
                    false
                }
            };
            if cfg.trace.is_some() || telem.on {
                drain_region_events(cfg.trace.as_ref(), telem, i, &mut workers[i]);
            }
            if !ran || workers[i].clock >= horizon {
                break;
            }
        }
    }

    // Delta coalesce: fold the per-worker buffers into the world in
    // worker-index order (then slot-name order inside each buffer). The
    // DES has no panic containment, so an injected poison surfaces as the
    // same structured error the thread executor's containment produces.
    let mut delta = DeltaSnapshot::default();
    for buf in delta_bufs.drain(..) {
        delta.lock_elisions += buf.lock_elisions;
        if buf.is_empty() {
            continue;
        }
        if injector.delta_poison_now() {
            return Err(ExecError::WorkerFailed {
                stage: "__delta_coalesce".into(),
                cause: DELTA_POISON_MSG.into(),
            });
        }
        delta.coalesces += 1;
        delta.applies += buf.applies;
        let mut buf_slots = 0u64;
        for (slot, d) in buf.drain() {
            buf_slots += 1;
            let spec = registry
                .merge_of(&slot)
                .expect("delta-routed slot has a merge spec");
            delta.merged_slots += 1;
            match world.take_boxed(&slot) {
                Some(mut base) => {
                    spec.apply(base.as_mut(), d);
                    world.install_boxed(slot, base);
                }
                None => world.install_boxed(slot, d),
            }
        }
        mx.observe("delta.merge_slots", buf_slots);
    }

    let end = workers
        .iter()
        .map(|w| w.clock)
        .max()
        .unwrap_or(start)
        .max(start)
        + cm.par_spawn;
    let meta = if telem.on {
        for (k, w) in workers.iter().enumerate() {
            telem.span(k, spawn_t, w.clock, SpanKind::Worker);
        }
        Some(SectionMeta {
            section: telem.sec,
            stage_desc: plan.stage_desc.clone(),
            worker_stage: plan.workers.iter().map(|w| w.stage).collect(),
            locks: plan.locks.iter().map(|l| l.set.clone()).collect(),
            queues: plan.queues.iter().map(|q| (q.id, q.what.clone())).collect(),
            // The DES has no SPSC rings: empty-pop counts stand in for
            // empty spins, the full side has no modeled counter.
            queue_spins: queues.iter().map(|q| (0, q.empty_pops)).collect(),
            span: (start, end),
        })
    } else {
        None
    };
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
        watchdog: watchdog.map(|wd| wd.report()).unwrap_or_default(),
        delta,
    };
    Ok((end, stats, meta))
}

/// Converts a worker VM's buffered call-boundary events into trace
/// records and telemetry region spans at the worker's current clock.
fn drain_region_events(
    trace: Option<&TraceSink>,
    telem: &mut SectionTelemetry,
    i: usize,
    w: &mut Worker<'_>,
) {
    let clock = w.clock;
    for ev in w.vm.drain_call_events() {
        if telem.on {
            if ev.enter {
                w.region_stack.push((ev.func.clone(), clock));
            } else if let Some((f, t0)) = w.region_stack.pop() {
                telem.span(i, t0, clock, SpanKind::Region { func: f });
            }
        }
        if let Some(tr) = trace {
            let event = if ev.enter {
                TraceEvent::RegionEnter {
                    func: ev.func,
                    args: ev.args,
                }
            } else {
                TraceEvent::RegionExit { func: ev.func }
            };
            tr.record(i, clock, event);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_special(
    module: &Module,
    registry: &Registry,
    world: &mut World,
    plan: &ParallelPlan,
    workers: &mut [Worker<'_>],
    i: usize,
    p: &PendingSpecial,
    locks: &mut [SimLock],
    queues: &mut [SimQueue],
    queue_index: &HashMap<i64, usize>,
    tm: &mut TmModel,
    channel_free: &mut HashMap<u32, u64>,
    delta_bufs: &mut [DeltaBuffer],
    elided: &[bool],
    cm: &CostModel,
    cfg: &ExecConfig,
    injector: &FaultInjector,
    watchdog: Option<&Watchdog>,
    telem: &mut SectionTelemetry,
    mx: &mut SimMetrics,
) -> Result<(), ExecError> {
    // Borrowed, not cloned: this runs once per special, on the hot path.
    let name = module.intrinsics.name(p.intrinsic.0 as usize);
    let qidx = |args: &[Value]| -> Result<usize, ExecError> {
        let id = args[0].as_int();
        queue_index
            .get(&id)
            .copied()
            .ok_or(ExecError::UnknownQueue { id })
    };
    // A stalled worker pauses at its synchronization events; a slow
    // worker pays its drag at every one of them.
    let stall =
        injector.worker_stall(plan.workers[i].tid) + injector.slow_worker(plan.workers[i].tid);
    workers[i].clock += stall;
    match name {
        "__lock_acquire" => {
            let l = p.args[0].as_int() as usize;
            if elided.get(l).copied().unwrap_or(false) {
                // Delta privatization covers everything this lock guards:
                // grant immediately with no lock state touched.
                if let Some(buf) = delta_bufs.get_mut(i) {
                    buf.lock_elisions += 1;
                }
                workers[i].vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = workers[i].clock;
            let was_blocked = workers[i].lock_retry;
            if let Some(wd) = watchdog {
                wd.acquiring(i, l);
            }
            match locks[l].try_acquire(t, was_blocked, cm) {
                AcquireOutcome::Granted(grant) => {
                    if was_blocked {
                        locks[l].pending = locks[l].pending.saturating_sub(1);
                        workers[i].lock_retry = false;
                    }
                    if let Some(wd) = watchdog {
                        wd.acquired(i, l);
                    }
                    let wait_from = workers[i].block_start.take().unwrap_or(t);
                    if grant > wait_from {
                        if telem.on {
                            telem.span(i, wait_from, grant, SpanKind::LockWait { rank: l });
                        }
                        if mx.on {
                            mx.observe(
                                &format!("lock_wait.{}", plan.locks[l].set),
                                grant - wait_from,
                            );
                        }
                    }
                    workers[i].clock = grant + injector.lock_grant_delay();
                    if telem.on {
                        let held_from = workers[i].clock;
                        workers[i].lock_held.insert(l, held_from);
                    }
                    workers[i].vm.resolve_special(Value::Int(0));
                    if let Some(tr) = &cfg.trace {
                        tr.record(i, workers[i].clock, TraceEvent::LockAcquire { lock: l });
                    }
                }
                AcquireOutcome::Held => {
                    if !was_blocked {
                        locks[l].pending += 1;
                        workers[i].lock_retry = true;
                        if telem.on || mx.on {
                            workers[i].block_start = Some(t);
                        }
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedLock(l);
                }
            }
        }
        "__lock_release" => {
            let l = p.args[0].as_int() as usize;
            if elided.get(l).copied().unwrap_or(false) {
                workers[i].vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = workers[i].clock;
            if telem.on {
                if let Some(t0) = workers[i].lock_held.remove(&l) {
                    telem.span(i, t0, t, SpanKind::LockHold { rank: l });
                }
            }
            workers[i].clock = locks[l].release(t, cm);
            if let Some(wd) = watchdog {
                wd.released(i, l);
            }
            workers[i].vm.resolve_special(Value::Int(0));
            if let Some(tr) = &cfg.trace {
                tr.record(i, workers[i].clock, TraceEvent::LockRelease { lock: l });
            }
            // Wake the blocked requesters; the scheduler grants in clock
            // order, the rest re-block.
            for w in workers.iter_mut() {
                if w.status == WStatus::BlockedLock(l) {
                    w.status = WStatus::Ready;
                }
            }
        }
        "__q_push" | "__q_push_f" => {
            let q = qidx(&p.args)?;
            let bits = p.args[1].to_bits();
            workers[i].clock += injector.queue_stall_delay();
            let attempt = workers[i].clock;
            match queues[q].push(workers[i].clock, bits, cm) {
                PushOutcome::Pushed(t) => {
                    workers[i].clock = t;
                    if telem.on {
                        let qid = p.args[0].as_int();
                        if let Some(bs) = workers[i].block_start.take() {
                            telem.span(i, bs, attempt, SpanKind::QueuePushWait { queue: qid });
                        }
                        telem.span(i, t, t, SpanKind::QueuePush { queue: qid });
                    }
                    if mx.on {
                        mx.observe(
                            &format!("queue_occupancy.{}", p.args[0].as_int()),
                            queues[q].len() as u64,
                        );
                    }
                    workers[i].vm.resolve_special(Value::Int(0));
                    if let Some(tr) = &cfg.trace {
                        tr.record(
                            i,
                            workers[i].clock,
                            TraceEvent::QueuePush {
                                queue: p.args[0].as_int(),
                            },
                        );
                    }
                    // Wake a consumer blocked on this queue.
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPop(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PushOutcome::Full => {
                    if telem.on && workers[i].block_start.is_none() {
                        workers[i].block_start = Some(attempt);
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedPush(q);
                }
            }
        }
        "__q_pop" | "__q_pop_f" => {
            let q = qidx(&p.args)?;
            workers[i].clock += injector.queue_stall_delay();
            let attempt = workers[i].clock;
            match queues[q].pop(workers[i].clock, cm) {
                PopOutcome::Popped(bits, t) => {
                    workers[i].clock = t;
                    if telem.on {
                        let qid = p.args[0].as_int();
                        if let Some(bs) = workers[i].block_start.take() {
                            telem.span(i, bs, attempt, SpanKind::QueuePopWait { queue: qid });
                        }
                        telem.span(i, t, t, SpanKind::QueuePop { queue: qid });
                    }
                    if mx.on {
                        mx.observe(
                            &format!("queue_occupancy.{}", p.args[0].as_int()),
                            queues[q].len() as u64,
                        );
                    }
                    let v = Value::from_bits(bits, name == "__q_pop_f");
                    workers[i].vm.resolve_special(v);
                    if let Some(tr) = &cfg.trace {
                        tr.record(
                            i,
                            workers[i].clock,
                            TraceEvent::QueuePop {
                                queue: p.args[0].as_int(),
                            },
                        );
                    }
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPush(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PopOutcome::Empty => {
                    if telem.on && workers[i].block_start.is_none() {
                        workers[i].block_start = Some(attempt);
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedPop(q);
                }
            }
        }
        "__tx_begin" => {
            let t = workers[i].clock;
            workers[i].clock = t + cm.tx_begin;
            workers[i].tx = Some(tm.begin(t, cm));
            workers[i].tx_aborts = 0;
            workers[i].tx_begin_t = t;
            workers[i].vm.resolve_special(Value::Int(0));
        }
        "__tx_commit" => {
            let mut tx = workers[i]
                .tx
                .take()
                .ok_or(ExecError::TxCommitWithoutBegin)?;
            loop {
                let t = workers[i].clock;
                // A starving transaction escalates to the modeled rank-0
                // global lock: pessimistic but guaranteed to commit.
                if workers[i].tx_aborts > u64::from(cfg.backoff.max_aborts) {
                    workers[i].clock = tm.commit_pessimistic(&tx, t, cm);
                    break;
                }
                let outcome = if injector.force_stm_abort() {
                    Err(tm.forced_abort(&tx, t, cm))
                } else {
                    tm.commit(&tx, t, cm)
                };
                match outcome {
                    Ok(done) => {
                        workers[i].clock = done;
                        break;
                    }
                    Err(wasted) => {
                        workers[i].tx_aborts += 1;
                        // Back off (modeled as spin cycles), then redo the
                        // transaction's work after the wasted time.
                        let backoff =
                            u64::from(cfg.backoff.base_spins) << workers[i].tx_aborts.min(8);
                        workers[i].clock = t + wasted + backoff + tx.work;
                        tx.start = workers[i].clock;
                    }
                }
            }
            if telem.on {
                let aborts = workers[i].tx_aborts;
                let t0 = workers[i].tx_begin_t;
                let t1 = workers[i].clock;
                telem.span(i, t0, t1, SpanKind::Tx { aborts });
            }
            workers[i].tx_aborts = 0;
            workers[i].vm.resolve_special(Value::Int(0));
        }
        "__par_invoke" => return Err(ExecError::NestedParallelSection),
        _ => {
            // Ordinary world intrinsic: readers wait for in-flight writers
            // of their channels, and the execution holds its write channels
            // for its duration (the internally-thread-safe world).
            let sig = module.intrinsics.sig(p.intrinsic.0 as usize);
            let base = sig.base_cost;
            // Delta fast path: a merge-covered call runs against the
            // worker-private buffer with no channel serialization — the
            // whole cost overlaps across cores.
            if !delta_bufs.is_empty() {
                if let Some(slots) = registry.delta_route(name, &p.args) {
                    let out = delta_bufs[i].apply(registry, name, &p.args, &slots);
                    let done = workers[i].clock + base + out.extra_cost;
                    if telem.on {
                        telem.span(
                            i,
                            workers[i].clock,
                            done,
                            SpanKind::WorldCall {
                                intrinsic: name.to_string(),
                            },
                        );
                    }
                    workers[i].clock = done;
                    if let Some(tr) = &cfg.trace {
                        tr.record(
                            i,
                            done,
                            TraceEvent::WorldCall {
                                intrinsic: name.to_string(),
                                args: p.args.clone(),
                            },
                        );
                    }
                    workers[i].vm.resolve_special(out.value);
                    return Ok(());
                }
            }
            let out = registry.call(name, world, &p.args);
            let cost = base + out.extra_cost;
            // Private compute overlaps across cores; only the serialized
            // portion holds the intrinsic's write channels (readers wait
            // for in-flight writers).
            let ser = out.serialized_cost.unwrap_or(cost).min(cost);
            let par = cost - ser;
            let mut start = workers[i].clock + par;
            let base_start = start;
            // Instance-partitioned channels hold per-instance state: their
            // accesses do not serialize across workers (each instance is
            // its own cache lines).
            for c in sig.reads.iter().chain(&sig.writes) {
                if module.intrinsics.is_per_instance(*c) {
                    continue;
                }
                start = start.max(channel_free.get(&c.0).copied().unwrap_or(0));
            }
            // Per-channel contention attribution: how long each serialized
            // channel alone would have delayed this call past its ready
            // point (passive — `start` is already settled above).
            if mx.on && start > base_start {
                let mut seen: Vec<u32> = Vec::new();
                for c in sig.reads.iter().chain(&sig.writes) {
                    if module.intrinsics.is_per_instance(*c) || seen.contains(&c.0) {
                        continue;
                    }
                    seen.push(c.0);
                    let free = channel_free.get(&c.0).copied().unwrap_or(0);
                    if free > base_start {
                        mx.observe(
                            &format!("channel_wait.{}", module.intrinsics.channels.name(*c)),
                            free - base_start,
                        );
                    }
                }
            }
            let done = start + ser;
            if ser > 0 {
                for c in &sig.writes {
                    if module.intrinsics.is_per_instance(*c) {
                        continue;
                    }
                    channel_free.insert(c.0, done);
                }
            }
            if telem.on {
                telem.span(
                    i,
                    workers[i].clock,
                    done,
                    SpanKind::WorldCall {
                        intrinsic: name.to_string(),
                    },
                );
            }
            workers[i].clock = done;
            if let Some(tr) = &cfg.trace {
                tr.record(
                    i,
                    done,
                    TraceEvent::WorldCall {
                        intrinsic: name.to_string(),
                        args: p.args.clone(),
                    },
                );
            }
            if let Some(tx) = &mut workers[i].tx {
                tx.work += cost;
                for c in &sig.reads {
                    tx.reads
                        .insert(module.intrinsics.channels.name(*c).to_string());
                }
                for c in &sig.writes {
                    tx.writes
                        .insert(module.intrinsics.channels.name(*c).to_string());
                }
            }
            workers[i].vm.resolve_special(out.value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_analysis::depanalysis::analyze_commutativity;
    use commset_analysis::effects::summarize;
    use commset_analysis::hotloop::find_hot_loop;
    use commset_analysis::metadata::manage;
    use commset_analysis::pdg::Pdg;
    use commset_analysis::scc::dag_scc;
    use commset_ir::{lower_program, IntrinsicTable};
    use commset_lang::ast::Type;
    use commset_runtime::intrinsics::IntrinsicOutcome;
    use commset_runtime::FaultPlan;
    use commset_transform::{doall, dswp};
    use std::collections::BTreeSet;

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
        let table = table();
        let unit = commset_lang::compile_unit(DOALL_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let summaries = summarize(&managed.program, &table);
        let hot = find_hot_loop(&managed, &summaries, &table, "main").unwrap();
        let mut pdg = Pdg::build(&hot);
        analyze_commutativity(&mut pdg, &managed, &hot);
        let pp = doall::apply_doall(
            &managed,
            &hot,
            &pdg,
            &summaries,
            &BTreeSet::new(),
            nthreads,
            sync,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        (module, pp.plan)
    }

    #[test]
    fn doall_produces_correct_sum_and_speedup() {
        // Sequential baseline.
        let table = table();
        let unit = commset_lang::compile_unit(DOALL_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let seq_module = lower_program(&managed.program, table).unwrap();
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
        let table = table();
        let unit = commset_lang::compile_unit(PIPE_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let summaries = summarize(&managed.program, &table);
        let hot = find_hot_loop(&managed, &summaries, &table, "main").unwrap();
        let mut pdg = Pdg::build(&hot);
        analyze_commutativity(&mut pdg, &managed, &hot);
        let dag = dag_scc(&pdg);
        let pp = dswp::apply_ps_dswp(
            &managed,
            &hot,
            &pdg,
            &dag,
            &summaries,
            &["OUT".to_string()].into(),
            nthreads,
            SyncMode::Lib,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        (module, pp.plan)
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
        let run = |telemetry: bool| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                telemetry,
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
        assert!(off.telemetry.is_none(), "telemetry must be opt-in");
        let on = run(true);
        assert_eq!(
            on.sim_time, off.sim_time,
            "telemetry must not change simulated time"
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
        let cm = CostModel::default();
        let (module, plan) = compile_pipeline(4);
        let run = |metrics: bool, journal: Option<commset_telemetry::Journal>| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                metrics,
                journal,
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
        let j = commset_telemetry::Journal::new(7);
        let on = run(true, Some(j.clone()));
        assert_eq!(
            on.sim_time, off.sim_time,
            "metrics + journal must not change simulated time"
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
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"section_start\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"section_end\""));
        assert!(jsonl.contains("\"kind\":\"metrics\""));
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
