//! The executor core: everything about the runtime intrinsics that does
//! not depend on scheduling or blocking, shared by the discrete-event
//! simulator ([`crate::sim_exec`]) and the real-thread executor
//! ([`crate::thread_exec`]).
//!
//! * [`Section`] — per-section setup derived from the plan (queue
//!   id→index map, lock kind, lock-set names, delta privatization and
//!   the elided locks) plus the lock-elision and delta-route fast paths.
//! * [`Observer`] — one per worker: one [`Event`] per region entry or
//!   exit, lock, queue, transaction and world call, plus the
//!   `lock_wait.*` and `queue_occupancy.*` observations and per-op retire
//!   counts. The executor passes every timestamp in — logical ticks on
//!   the DES, nanoseconds on threads — and reads its clock only when
//!   [`Observer::on`].
//! * [`RunObs`] — the run's event stream and metrics sink, the
//!   `__par_invoke` section bracket (plan lookup, section ordinal) and
//!   the end-of-run folds: the stream into a [`RunReport`]
//!   and the caller's trace sink, the metrics into one registry.
//! * [`coalesce_deltas`] — the section-barrier delta fold.
//! * [`dispatch`] — the run's registry resolved to intrinsic and slot ids
//!   at executor entry, rejecting a called intrinsic without a handler
//!   before the first op retires.
//!
//! What stays in each executor is how it schedules and blocks: the DES's
//! clocks, wake loops and contention models; the thread executor's
//! threads, cancellation, SPSC batching and shared world.

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::metrics::MetricsLocal;
use crate::trace::{self, Event, EventKind, Interval, TraceEvent, TraceSink};
use crate::vm::PendingSpecial;
use commset_ir::ChannelId;
use commset_ir::Module;
use commset_runtime::sync::Mutex;
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, Dispatch, FaultInjector, Registry, Value, World, DELTA_POISON_MSG,
};
use commset_telemetry::{
    ClockUnit, MetricsRegistry, MetricsSink, RunCounters, RunReport, SectionMeta,
};
use commset_transform::{ParallelPlan, SyncMode};
use std::sync::atomic::{AtomicU64, Ordering};

/// The rejection of a runtime intrinsic executed where no parallel
/// section is running (a transform bug, not a world call).
pub(crate) fn outside_section(module: &Module, p: &PendingSpecial) -> ExecError {
    ExecError::ParallelIntrinsicInSequential {
        name: module.intrinsics.name(p.intrinsic.0 as usize).to_string(),
    }
}

/// Resolves `registry` against `module`'s intrinsics and `world` (once
/// per run, at executor entry): every world intrinsic the compiled code
/// calls — a call site that is not a runtime op — must have a handler.
pub(crate) fn dispatch<'r>(
    registry: &'r Registry,
    module: &Module,
    bc: &BcModule,
    world: &mut World,
) -> Result<Dispatch<'r>, ExecError> {
    let table = &module.intrinsics;
    let d = registry.resolve((0..table.len()).map(|i| table.name(i)), world);
    let called = |id: usize| {
        bc.funcs
            .iter()
            .flat_map(|f| &f.sites)
            .any(|s| s.op.is_none() && s.intrinsic.0 as usize == id)
    };
    let missing = d.missing().find(|&id| called(id));
    match missing {
        Some(id) => Err(ExecError::MissingHandler {
            intrinsic: table.name(id).to_string(),
        }),
        None => Ok(d),
    }
}

/// A worker's VM error, named by its stage function.
pub(crate) fn worker_failed(stage: &str, e: ExecError) -> ExecError {
    ExecError::WorkerFailed {
        stage: stage.to_string(),
        cause: e.to_string(),
    }
}

/// Per-section setup every executor derives from the plan.
pub(crate) struct Section {
    /// `(queue id, plan index)`, sorted by id.
    queues: Vec<(i64, usize)>,
    /// The plan's locks are spin locks (mutexes otherwise).
    pub spin: bool,
    /// CommSet set names indexed by lock rank.
    pub lock_sets: Vec<String>,
    /// Merge-covered world calls run against per-worker delta buffers:
    /// [`WorldMode::Deltas`], merge declarations present, and no queues
    /// (pipeline stages pass handles through queues, so they keep the
    /// shared discipline).
    pub delta: bool,
    /// Per-rank elision: a region lock whose guarded intrinsics are all
    /// delta-covered serializes nothing — every effect in the region
    /// lands in a worker-private buffer, invisible to siblings until the
    /// barrier, and the declared merges make the coalesce order
    /// immaterial. Synthetic locks (`__reduction`) have no members and
    /// are never elided.
    elided: Vec<bool>,
}

impl Section {
    pub fn new(plan: &ParallelPlan, cfg: &ExecConfig, registry: &Registry) -> Self {
        let mut queues: Vec<(i64, usize)> = plan
            .queues
            .iter()
            .enumerate()
            .map(|(k, q)| (q.id, k))
            .collect();
        queues.sort_unstable();
        let delta = matches!(cfg.world, WorldMode::Deltas)
            && registry.has_merges()
            && plan.queues.is_empty();
        Section {
            queues,
            spin: plan.sync == SyncMode::Spin,
            lock_sets: plan.locks.iter().map(|l| l.set.clone()).collect(),
            delta,
            elided: plan
                .locks
                .iter()
                .map(|ls| {
                    delta
                        && !ls.members.is_empty()
                        && ls.members.iter().all(|m| registry.delta_covered(m))
                })
                .collect(),
        }
    }

    /// The plan index of queue `id`.
    pub fn queue(&self, id: i64) -> Result<usize, ExecError> {
        self.queues
            .binary_search_by_key(&id, |(qid, _)| *qid)
            .map(|k| self.queues[k].1)
            .map_err(|_| ExecError::UnknownQueue { id })
    }

    /// True when lock `l` is elided.
    pub fn elided(&self, l: usize) -> bool {
        self.elided.get(l).copied().unwrap_or(false)
    }

    /// The lock-elision fast path of `__lock_acquire(l)`: true when the
    /// lock is elided, counting the skipped acquisition on the worker's
    /// delta buffer.
    pub fn elide_acquire(&self, l: usize, buf: Option<&mut DeltaBuffer>) -> bool {
        let elided = self.elided(l);
        if let (true, Some(buf)) = (elided, buf) {
            buf.lock_elisions += 1;
        }
        elided
    }

    /// The report metadata of this section (trace on).
    pub fn meta(
        &self,
        plan: &ParallelPlan,
        ord: usize,
        queue_spins: Vec<(u64, u64)>,
        span: (u64, u64),
    ) -> SectionMeta {
        SectionMeta {
            section: ord,
            plan_section: plan.section,
            stage_desc: plan.stage_desc.clone(),
            worker_stage: plan.workers.iter().map(|w| w.stage).collect(),
            locks: self.lock_sets.clone(),
            queues: plan.queues.iter().map(|q| (q.id, q.what.clone())).collect(),
            queue_spins,
            span,
        }
    }
}

/// The section-barrier delta fold: each worker's finished buffer goes
/// through `merge` in worker-index order (then slot-id order inside the
/// buffer). An injected poison fails the fold as a structured error. The
/// merged-slot count of each buffer is observed as `delta.merge_slots`.
pub(crate) fn coalesce_deltas(
    run: &RunObs<'_>,
    injector: &FaultInjector,
    mut bufs: Vec<(usize, DeltaBuffer)>,
    mut merge: impl FnMut(DeltaBuffer) -> u64,
) -> Result<DeltaSnapshot, ExecError> {
    bufs.sort_by_key(|(w, _)| *w);
    let mut delta = DeltaSnapshot::default();
    let mut sizes = MetricsRegistry::new();
    for (_, buf) in bufs {
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
        let slots = merge(buf);
        delta.merged_slots += slots;
        sizes.observe("delta.merge_slots", slots);
    }
    if let Some(ms) = &run.metrics {
        ms.publish(&sizes);
    }
    Ok(delta)
}

/// Run-wide observation state: the event stream and the metrics sink
/// every worker publishes into, the main thread's retire counters and the
/// section bracket.
///
/// The stream is on exactly when `cfg.trace` is set. Its trace view
/// reaches the caller's sink when the run is dropped, so a run that fails
/// keeps the records its workers produced.
pub(crate) struct RunObs<'a> {
    pub module: &'a Module,
    /// The module's compiled bytecode every VM of the run executes.
    pub bc: &'a BcModule,
    trace: Option<&'a TraceSink>,
    /// Every worker's events, one batch per worker per section.
    stream: Mutex<Vec<Event>>,
    metrics: Option<MetricsSink>,
    /// Metric keys built once per run (metrics on): `world_call.{name}`
    /// by intrinsic id and `channel_wait.{name}` by channel id.
    world_call_keys: Vec<String>,
    channel_wait_keys: Vec<String>,
    /// Retires of the main (sequential) thread.
    main: MetricsLocal,
    metas: Vec<SectionMeta>,
    sections: usize,
    /// Transactions committed, summed over the workers.
    tx_commits: AtomicU64,
}

impl<'a> RunObs<'a> {
    pub fn new(module: &'a Module, bc: &'a BcModule, cfg: &'a ExecConfig) -> Self {
        let t = &module.intrinsics;
        let (world_call_keys, channel_wait_keys) = if cfg.metrics {
            let calls = (0..t.len()).map(|i| format!("world_call.{}", t.name(i)));
            let chans = (0..t.channels.len() as u32)
                .map(|c| format!("channel_wait.{}", t.channels.name(ChannelId(c))));
            (calls.collect(), chans.collect())
        } else {
            (Vec::new(), Vec::new())
        };
        RunObs {
            module,
            bc,
            trace: cfg.trace.as_ref(),
            stream: Mutex::new(Vec::new()),
            metrics: cfg.metrics.then(MetricsSink::new),
            world_call_keys,
            channel_wait_keys,
            main: MetricsLocal::new(),
            metas: Vec::new(),
            sections: 0,
            tx_commits: AtomicU64::new(0),
        }
    }

    /// True when the event stream is on: only then do workers watch their
    /// region calls and sections keep their report metadata.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The main thread's retire site, sampled before a step; `None`
    /// unless metrics are on.
    pub fn site(&self, vm: &BcVm<'_>) -> Option<(u32, u32)> {
        self.metrics.as_ref().and_then(|_| vm.site())
    }

    /// Counts one op retired by the main thread.
    pub fn retire(&mut self, site: Option<(u32, u32)>, cost: u64) {
        if let Some(site) = site {
            self.main.retire(self.bc, site, cost);
        }
    }

    /// Opens the section `__par_invoke` names: finds its plan and assigns
    /// the next section ordinal.
    pub fn open_section<'p>(
        &mut self,
        plans: &'p [ParallelPlan],
        p: &PendingSpecial,
    ) -> Result<(&'p ParallelPlan, usize), ExecError> {
        let section = p.args[0].as_int();
        let plan = plans
            .iter()
            .find(|pl| pl.section == section)
            .ok_or(ExecError::UnknownSection { section })?;
        let ord = self.sections;
        self.sections += 1;
        Ok((plan, ord))
    }

    /// Closes a section: keeps its report metadata (trace on).
    pub fn close_section(&mut self, meta: Option<SectionMeta>) {
        self.metas.extend(meta);
    }

    /// The end-of-run fold: builds the [`RunReport`] from the event
    /// stream (trace on) and the merged metrics registry (metrics on),
    /// with `counters` and the executor-specific `extra` counters folded
    /// in. `tm_commits` is filled in here from the observers' count of
    /// committed transaction windows.
    pub fn finish(
        mut self,
        clock: ClockUnit,
        mut counters: RunCounters,
        extra: &[(&str, u64)],
    ) -> (Option<RunReport>, Option<MetricsRegistry>) {
        counters.tm_commits = *self.tx_commits.get_mut();
        let c = &counters;
        let metrics = self.metrics.take().map(|ms| {
            let mut reg = ms.take();
            self.main.publish(self.module, self.bc, &mut reg);
            let folded = [
                ("shard.fast_acquires", c.shard.fast_acquires),
                ("shard.fast_waits", c.shard.fast_waits),
                ("shard.multi_acquires", c.shard.multi_acquires),
                ("shard.whole_acquires", c.shard.whole_acquires),
                ("queue.full_spins", c.queue_full_spins),
                ("queue.drained", c.queue_drained),
                ("delta.applies", c.delta.applies),
                ("delta.coalesces", c.delta.coalesces),
                ("delta.merged_slots", c.delta.merged_slots),
                ("delta.lock_elisions", c.delta.lock_elisions),
                ("tm.commits", c.tm_commits),
                ("tm.aborts", c.tm_aborts),
                ("tm.fallbacks", c.tm_fallbacks),
            ];
            for (name, n) in folded.iter().chain(extra) {
                reg.inc(name, *n);
            }
            reg
        });
        let metas = std::mem::take(&mut self.metas);
        let report = self.tracing().then(|| {
            let mut events = self.stream.lock();
            trace::order(&mut events);
            RunReport::build(clock, trace::spans(&events), metas, counters)
        });
        (report, metrics)
    }
}

impl Drop for RunObs<'_> {
    /// The trace view of the stream reaches the caller's sink when the
    /// run ends, however it ends.
    fn drop(&mut self) {
        if let Some(sink) = self.trace {
            let mut events = std::mem::take(&mut *self.stream.lock());
            trace::order(&mut events);
            sink.extend(events.into_iter().filter_map(Event::into_trace));
        }
    }
}

/// One worker's observer. Every recording method is a no-op unless the
/// instrumentation it feeds is on. Events and metrics accumulate
/// privately; the events reach the run's stream when the observer is
/// dropped — at the worker's section end, whether it finished or failed —
/// and the metrics through [`Observer::publish`].
pub(crate) struct Observer<'a> {
    run: &'a RunObs<'a>,
    lock_sets: &'a [String],
    section: usize,
    worker: usize,
    /// The event stream is on.
    tracing: bool,
    metrics: bool,
    events: Vec<Event>,
    local: MetricsLocal,
    reg: MetricsRegistry,
    /// Entry times of the open region instances (enter seen, exit
    /// pending).
    open_regions: Vec<u64>,
    /// Grant time of each held lock, by rank.
    held: Vec<Option<u64>>,
    /// Start of the current blocking wait (a worker waits on at most one
    /// lock or queue endpoint at a time).
    wait_start: Option<u64>,
    tx_start: u64,
    tx_commits: u64,
}

impl<'a> Observer<'a> {
    pub fn new(run: &'a RunObs<'a>, sec: &'a Section, section: usize, worker: usize) -> Self {
        Observer {
            run,
            lock_sets: &sec.lock_sets,
            section,
            worker,
            tracing: run.tracing(),
            metrics: run.metrics.is_some(),
            events: Vec::new(),
            local: MetricsLocal::new(),
            reg: MetricsRegistry::new(),
            open_regions: Vec::new(),
            held: vec![None; sec.lock_sets.len()],
            wait_start: None,
            tx_start: 0,
            tx_commits: 0,
        }
    }

    /// True when any instrumentation is on: the only time a timestamp is
    /// worth reading.
    pub fn on(&self) -> bool {
        self.tracing || self.metrics
    }

    /// True when metrics are collected.
    pub fn metrics(&self) -> bool {
        self.metrics
    }

    /// The retire site to sample before a step; `None` unless metrics are
    /// on.
    pub fn site(&self, vm: &BcVm<'_>) -> Option<(u32, u32)> {
        if self.metrics {
            vm.site()
        } else {
            None
        }
    }

    /// Counts one retired op at `site` (as sampled by [`Observer::site`]).
    pub fn retire(&mut self, site: Option<(u32, u32)>, cost: u64) {
        if let Some(site) = site {
            self.local.retire(self.run.bc, site, cost);
        }
    }

    /// Records the host duration of one call of world intrinsic `id`
    /// (metrics on).
    pub fn observe_world_call(&mut self, id: usize, v: u64) {
        if self.metrics {
            self.reg.observe(&self.run.world_call_keys[id], v);
        }
    }

    /// Records how long channel `c` alone delayed a world call (metrics
    /// on).
    pub fn observe_channel_wait(&mut self, c: ChannelId, v: u64) {
        if self.metrics {
            self.reg
                .observe(&self.run.channel_wait_keys[c.0 as usize], v);
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let (section, worker) = (self.section, self.worker);
        self.events.push(Event {
            section,
            worker,
            time,
            kind,
        });
    }

    fn traced(&mut self, time: u64, event: TraceEvent, span: Option<Interval>) {
        self.push(time, EventKind::Traced { event, span });
    }

    /// Records the VM's buffered region entries and exits, stamped with
    /// `now()` (read only when there are events).
    pub fn regions(&mut self, vm: &mut BcVm<'_>, now: impl FnOnce() -> u64) {
        let mut events = vm.drain_call_events().peekable();
        if events.peek().is_none() {
            return;
        }
        let t = now();
        for ev in events {
            let func = self.run.module.func(ev.func).name.clone();
            let args = ev.args;
            if ev.enter {
                self.open_regions.push(t);
                self.traced(t, TraceEvent::RegionEnter { func, args }, None);
            } else {
                let span = self.open_regions.pop().map(|t0| (t0, t));
                self.traced(t, TraceEvent::RegionExit { func }, span);
            }
        }
    }

    /// A blocking attempt at `t`: opens a wait unless one is open (a
    /// retried attempt keeps its first start).
    pub fn begin_wait(&mut self, t: u64) {
        if self.on() && self.wait_start.is_none() {
            self.wait_start = Some(t);
        }
    }

    /// Lock `rank` was granted at `grant` to an attempt made at `attempt`
    /// (or at the start of an open wait); the worker holds it from `at`.
    /// The wait counts only when it lasted (`grant > start`).
    pub fn lock_acquired(&mut self, rank: usize, attempt: u64, grant: u64, at: u64) {
        let from = self.wait_start.take().unwrap_or(attempt);
        let waited = grant > from;
        if waited && self.metrics {
            self.reg
                .observe(&format!("lock_wait.{}", self.lock_sets[rank]), grant - from);
        }
        if self.tracing {
            self.held[rank] = Some(at);
            let wait = waited.then_some((from, grant));
            self.traced(at, TraceEvent::LockAcquire { lock: rank }, wait);
        }
    }

    /// Lock `rank` was held until `until` and released at `at`.
    pub fn lock_released(&mut self, rank: usize, until: u64, at: u64) {
        if self.tracing {
            let held = self.held.get_mut(rank).and_then(Option::take);
            let hold = held.map(|t0| (t0, until));
            self.traced(at, TraceEvent::LockRelease { lock: rank }, hold);
        }
    }

    /// A push (`push`) or pop on queue `id` completed at `t`, its last
    /// attempt made at `attempt`; a wait opened by an earlier blocked
    /// attempt closes there. `occupancy` is the queue length after it.
    pub fn queue_op(
        &mut self,
        push: bool,
        id: i64,
        attempt: u64,
        t: u64,
        occupancy: impl FnOnce() -> usize,
    ) {
        let wait = self.wait_start.take().map(|from| (from, attempt));
        if self.metrics {
            self.reg
                .observe(&format!("queue_occupancy.{id}"), occupancy() as u64);
        }
        if self.tracing {
            let event = if push {
                TraceEvent::QueuePush { queue: id }
            } else {
                TraceEvent::QueuePop { queue: id }
            };
            self.traced(t, event, wait);
        }
    }

    /// A transaction window opened at `t`.
    pub fn tx_begin(&mut self, t: u64) {
        self.tx_start = t;
    }

    /// The open transaction window committed at `t` after `aborts`
    /// optimistic aborts.
    pub fn tx_commit(&mut self, aborts: u64, t: u64) {
        self.tx_commits += 1;
        if self.tracing {
            let since = self.tx_start;
            self.push(t, EventKind::TxCommit { since, aborts });
        }
    }

    /// The world intrinsic `name` ran from `start` to `end`.
    pub fn world_call(&mut self, name: &str, args: &[Value], start: u64, end: u64) {
        if self.tracing {
            let (intrinsic, args) = (name.to_string(), args.to_vec());
            let event = TraceEvent::WorldCall { intrinsic, args };
            self.traced(end, event, Some((start, end)));
        }
    }

    /// The worker's lifetime inside the section.
    pub fn worker_span(&mut self, start: u64, end: u64) {
        if self.tracing {
            self.push(end, EventKind::Worker { since: start });
        }
    }

    /// Publishes the worker's metrics and commit count at normal exit
    /// (a failed worker's partial metrics are dropped with its run).
    pub fn publish(&mut self) {
        self.run
            .tx_commits
            .fetch_add(self.tx_commits, Ordering::Relaxed);
        if let Some(ms) = &self.run.metrics {
            let mut reg = std::mem::take(&mut self.reg);
            self.local.publish(self.run.module, self.run.bc, &mut reg);
            ms.publish(&reg);
        }
    }
}

impl Drop for Observer<'_> {
    /// Hands the worker's events to the run's stream: one batch per
    /// worker per section.
    fn drop(&mut self) {
        if !self.events.is_empty() {
            self.run.stream.lock().append(&mut self.events);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        run_sequential, run_simulated_with, run_threaded_with, ExecConfig, ExecError, TraceEvent,
        TraceRecord, TraceSink,
    };
    use commset_ir::{lower_program, IntrinsicTable, Module};
    use commset_runtime::intrinsics::IntrinsicOutcome;
    use commset_runtime::{Registry, Value, World};
    use commset_sim::CostModel;
    use commset_telemetry::RunReport;
    use commset_transform::{ParallelPlan, Scheme, SyncMode, WorkerSpec};

    fn module(src: &str) -> Module {
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, IntrinsicTable::new()).unwrap()
    }

    /// Section 0: `n` workers running `func(tid, n)`, nothing else.
    fn plan(func: &str, n: i64) -> ParallelPlan {
        ParallelPlan {
            scheme: Scheme::Doall,
            sync: SyncMode::Spin,
            nthreads: n as usize,
            workers: (0..n)
                .map(|tid| WorkerSpec {
                    func: func.into(),
                    tid,
                    nt: n,
                    stage: 0,
                })
                .collect(),
            queues: Vec::new(),
            locks: Vec::new(),
            stage_desc: vec!["worker".into()],
            section: 0,
        }
    }

    #[test]
    fn sync_intrinsic_in_main_is_rejected_by_every_executor() {
        let m = module(
            "extern void __lock_acquire(int l); int main() { __lock_acquire(0); return 0; }",
        );
        let (reg, cm, cfg) = (Registry::new(), CostModel::default(), ExecConfig::default());
        let want = ExecError::ParallelIntrinsicInSequential {
            name: "__lock_acquire".into(),
        };
        let seq = run_sequential(&m, &reg, &mut World::new(), &cm, "main").unwrap_err();
        assert_eq!(seq, want, "sequential");
        let sim = run_simulated_with(&m, &reg, &[], &mut World::new(), &cm, &cfg).unwrap_err();
        assert_eq!(sim, want, "DES");
        let thr = run_threaded_with(&m, &reg, &[], World::new(), &cfg).unwrap_err();
        assert_eq!(thr, want, "threads");
    }

    #[test]
    fn a_called_intrinsic_without_a_handler_is_rejected_before_the_run() {
        let m = module(
            "extern int bump(int x); extern int spare(int x);
             int main() { return bump(1); }",
        );
        let mut reg = Registry::new();
        // Declared but never called: no handler needed.
        reg.register("other", |_, _| IntrinsicOutcome::unit());
        let (cm, cfg) = (CostModel::default(), ExecConfig::default());
        let want = ExecError::MissingHandler {
            intrinsic: "bump".into(),
        };
        let seq = run_sequential(&m, &reg, &mut World::new(), &cm, "main").unwrap_err();
        assert_eq!(seq, want, "sequential");
        let sim = run_simulated_with(&m, &reg, &[], &mut World::new(), &cm, &cfg).unwrap_err();
        assert_eq!(sim, want, "DES");
        let thr = run_threaded_with(&m, &reg, &[], World::new(), &cfg).unwrap_err();
        assert_eq!(thr, want, "threads");
        assert_eq!(want.to_string(), "no handler for intrinsic `bump`");
        reg.register("bump", |_, args| IntrinsicOutcome::value(args[0].as_int()));
        let out = run_sequential(&m, &reg, &mut World::new(), &cm, "main").unwrap();
        assert_eq!(out.result, Some(Value::Int(1)), "`spare` is never called");
    }

    #[test]
    fn par_invoke_in_a_worker_is_rejected_by_both_parallel_executors() {
        let m = module(
            "extern void __par_invoke(int section);
             void __par0_w(int tid, int nt) { __par_invoke(0); }
             int main() { __par_invoke(0); return 0; }",
        );
        let plans = [plan("__par0_w", 1)];
        let (reg, cm, cfg) = (Registry::new(), CostModel::default(), ExecConfig::default());
        let sim = run_simulated_with(&m, &reg, &plans, &mut World::new(), &cm, &cfg).unwrap_err();
        assert_eq!(sim, ExecError::NestedParallelSection, "DES");
        let thr = run_threaded_with(&m, &reg, &plans, World::new(), &cfg).unwrap_err();
        assert_eq!(thr, ExecError::NestedParallelSection, "threads");
    }

    /// Two workers, eight region instances, one world call in each.
    const REGIONS_SRC: &str = "
        extern void __par_invoke(int section);
        extern void tick(int i);
        void __commset_region_0(int i) { tick(i); }
        void __par0_w(int tid, int nt) {
            for (int i = tid; i < 8; i = i + nt) { __commset_region_0(i); }
        }
        int main() { __par_invoke(0); return 0; }";

    /// A registry whose `tick` does nothing.
    fn tick_registry() -> Registry {
        let mut r = Registry::new();
        r.register("tick", |_, _| IntrinsicOutcome::unit());
        r
    }

    /// Region instances in the report of a single-section run.
    fn regions(report: Option<RunReport>) -> u64 {
        let report = report.expect("a traced run attaches its report");
        report.sections[0].workers.iter().map(|w| w.regions).sum()
    }

    /// Asserts that each worker's records come in the order it produced
    /// them: every region's entry, then its world call, then its exit, at
    /// non-decreasing times.
    fn assert_worker_order(recs: &[TraceRecord], label: &str) {
        let func = || "__commset_region_0".to_string();
        for w in 0..2 {
            let mine: Vec<&TraceRecord> = recs.iter().filter(|r| r.worker == w).collect();
            assert!(mine.windows(2).all(|p| p[0].time <= p[1].time), "{label}");
            let got: Vec<&TraceEvent> = mine.iter().map(|r| &r.event).collect();
            let want: Vec<TraceEvent> = (w as i64..8)
                .step_by(2)
                .flat_map(|i| {
                    let (args, intrinsic) = (vec![Value::Int(i)], "tick".to_string());
                    [
                        TraceEvent::RegionEnter {
                            func: func(),
                            args: args.clone(),
                        },
                        TraceEvent::WorldCall { intrinsic, args },
                        TraceEvent::RegionExit { func: func() },
                    ]
                })
                .collect();
            assert_eq!(got, want.iter().collect::<Vec<_>>(), "{label} w{w}");
        }
    }

    #[test]
    fn each_worker_streams_its_events_in_its_own_order_on_both_executors() {
        let (m, plans) = (module(REGIONS_SRC), [plan("__par0_w", 2)]);
        let reg = tick_registry();
        let des = || {
            let sink = TraceSink::new();
            let cfg = ExecConfig::with_trace(sink.clone());
            let cm = CostModel::default();
            let out = run_simulated_with(&m, &reg, &plans, &mut World::new(), &cm, &cfg);
            assert_eq!(
                regions(out.unwrap().telemetry),
                8,
                "the report folds the stream"
            );
            sink.take()
        };
        let recs = des();
        assert_worker_order(&recs, "DES");
        assert_eq!(recs, des(), "two DES runs stream identically");
        let sink = TraceSink::new();
        let cfg = ExecConfig::with_trace(sink.clone());
        run_threaded_with(&m, &reg, &plans, World::new(), &cfg).unwrap();
        assert_worker_order(&sink.take(), "threads");
    }
}
