//! The unified run report.
//!
//! [`RunReport::build`] folds a run's span stream plus every existing
//! counter snapshot (fault, watchdog, shard, STM, SPSC spins) into one
//! structure with per-worker and per-DSWP-stage breakdowns:
//!
//! * the **stage-balance report** — per-stage busy / blocked / idle
//!   utilization, the quantity that predicts PS-DSWP scalability (a
//!   pipeline runs at the pace of its busiest stage; a stage that is
//!   mostly *blocked* is starved or back-pressured, one that is mostly
//!   *idle* was over-replicated);
//! * the **lock-contention profile** — per CommSet lock rank: acquires,
//!   total/maximum wait, total hold (which region pairs dominate lock
//!   traffic);
//! * per-queue traffic and blocking, including the SPSC ring's
//!   full/empty spin counters.
//!
//! The report renders as a human-readable text table
//! ([`RunReport::render_text`]); the raw spans stay available for the
//! Chrome/Perfetto exporter ([`crate::chrome`]).

use crate::span::{SpanKind, SpanRecord};
use commset_runtime::{FaultStats, ShardStatsSnapshot};
use std::fmt::Write as _;

/// Which clock the run's timestamps use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockUnit {
    /// Monotonic nanoseconds since the run's epoch (real threads).
    #[default]
    Nanos,
    /// Deterministic logical ticks (the simulated executor).
    Ticks,
}

impl ClockUnit {
    /// Unit suffix for the text report.
    pub fn label(self) -> &'static str {
        match self {
            ClockUnit::Nanos => "ns",
            ClockUnit::Ticks => "ticks",
        }
    }

    /// Converts a timestamp to Chrome trace microseconds (ticks map 1:1).
    pub fn to_chrome_us(self, t: u64) -> f64 {
        match self {
            ClockUnit::Nanos => t as f64 / 1000.0,
            ClockUnit::Ticks => t as f64,
        }
    }
}

/// What the executor knows statically about one parallel section — the
/// plan-derived naming the report needs to label its rows.
#[derive(Debug, Clone, Default)]
pub struct SectionMeta {
    /// Ordinal of the section within the run (execution order).
    pub section: usize,
    /// The plan's section id (the `__par_invoke` argument; a section in a
    /// loop runs under several ordinals with one id).
    pub plan_section: i64,
    /// Per-stage human-readable descriptions (from the plan).
    pub stage_desc: Vec<String>,
    /// Worker index → pipeline stage.
    pub worker_stage: Vec<usize>,
    /// Lock rank → CommSet name.
    pub locks: Vec<String>,
    /// Queue `(id, description)` in plan order.
    pub queues: Vec<(i64, String)>,
    /// Per-queue `(full_spins, empty_spins)` SPSC counters, aligned with
    /// [`SectionMeta::queues`] (all zero under the simulator).
    pub queue_spins: Vec<(u64, u64)>,
    /// Section start/end timestamps.
    pub span: (u64, u64),
}

impl SectionMeta {
    /// The section's wall duration in its clock unit.
    pub fn duration(&self) -> u64 {
        self.span.1.saturating_sub(self.span.0)
    }
}

/// Counter snapshots unified from the runtime layers.
#[derive(Debug, Clone, Default)]
pub struct RunCounters {
    /// Faults delivered by the injection plan.
    pub fault: FaultStats,
    /// Waits-for watchdog: cycle checks performed.
    pub watchdog_checks: u64,
    /// True when the watchdog found no cycle or rank violation.
    pub watchdog_clean: bool,
    /// Peak simultaneously blocked workers.
    pub max_blocked: usize,
    /// Sharded-world contention counters (zero under the single lock).
    pub shard: ShardStatsSnapshot,
    /// Delta-privatization counters (zero outside `WorldMode::Deltas`).
    pub delta: commset_runtime::DeltaSnapshot,
    /// Transactions committed (simulated TM model).
    pub tm_commits: u64,
    /// Transactions aborted.
    pub tm_aborts: u64,
    /// Transactions escalated to the rank-0 fallback.
    pub tm_fallbacks: u64,
    /// SPSC pushes that found a queue full (all queues).
    pub queue_full_spins: u64,
    /// SPSC pops that found a queue empty (all queues).
    pub queue_empty_spins: u64,
    /// Queue slots drained during teardown.
    pub queue_drained: u64,
}

/// One worker's time budget within a section.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Worker index within the section.
    pub worker: usize,
    /// The pipeline stage the worker implements.
    pub stage: usize,
    /// Lifetime inside the section (spawn to exit).
    pub total: u64,
    /// `total - blocked`.
    pub busy: u64,
    /// Time in lock waits and queue full/empty waits.
    pub blocked: u64,
    /// Section duration minus lifetime (spawn/join slack).
    pub idle: u64,
    /// Commutative-region instances executed.
    pub regions: u64,
    /// Total lock-wait time.
    pub lock_wait: u64,
    /// Total lock-hold time.
    pub lock_hold: u64,
    /// Total queue push+pop blocking time.
    pub queue_wait: u64,
}

/// One pipeline stage's aggregated time budget — the stage-balance row.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Stage index.
    pub stage: usize,
    /// Plan description (e.g. `S0: produce`).
    pub desc: String,
    /// Workers implementing the stage.
    pub workers: usize,
    /// Summed busy time over the stage's workers.
    pub busy: u64,
    /// Summed blocked time.
    pub blocked: u64,
    /// Summed idle time.
    pub idle: u64,
}

impl StageReport {
    fn wall(&self) -> u64 {
        (self.busy + self.blocked + self.idle).max(1)
    }

    /// Busy share of the stage's wall time, in percent.
    pub fn busy_pct(&self) -> f64 {
        100.0 * self.busy as f64 / self.wall() as f64
    }

    /// Blocked share of the stage's wall time, in percent.
    pub fn blocked_pct(&self) -> f64 {
        100.0 * self.blocked as f64 / self.wall() as f64
    }

    /// Idle share of the stage's wall time, in percent.
    pub fn idle_pct(&self) -> f64 {
        100.0 * self.idle as f64 / self.wall() as f64
    }
}

/// One CommSet lock's contention profile, keyed by rank.
#[derive(Debug, Clone, Default)]
pub struct LockReport {
    /// Lock index == rank in the section's plan.
    pub rank: usize,
    /// The CommSet the lock protects.
    pub set: String,
    /// Completed acquire→release pairs.
    pub acquires: u64,
    /// Total time workers waited to acquire.
    pub wait_total: u64,
    /// Total time the lock was held.
    pub hold_total: u64,
    /// Longest single wait.
    pub max_wait: u64,
}

/// One pipeline queue's traffic and blocking profile.
#[derive(Debug, Clone, Default)]
pub struct QueueReport {
    /// Queue id from the parallel plan.
    pub id: i64,
    /// Plan description (e.g. `S0->S1 var d`).
    pub what: String,
    /// Completed pushes.
    pub pushes: u64,
    /// Completed pops.
    pub pops: u64,
    /// Total producer blocking time (queue full).
    pub push_wait: u64,
    /// Total consumer blocking time (queue empty).
    pub pop_wait: u64,
    /// SPSC full-spin counter (producer-side pressure).
    pub full_spins: u64,
    /// SPSC empty-spin counter (consumer-side starvation).
    pub empty_spins: u64,
}

/// One section's full profile.
#[derive(Debug, Clone, Default)]
pub struct SectionProfile {
    /// Ordinal of the section within the run.
    pub section: usize,
    /// The plan's section id.
    pub plan_section: i64,
    /// Section start/end timestamps.
    pub span: (u64, u64),
    /// Stage-balance rows, by stage index.
    pub stages: Vec<StageReport>,
    /// Per-worker budgets, by worker index.
    pub workers: Vec<WorkerReport>,
    /// Lock-contention profile, by rank.
    pub locks: Vec<LockReport>,
    /// Queue profiles, in plan order.
    pub queues: Vec<QueueReport>,
}

impl SectionProfile {
    /// The section's wall duration.
    pub fn duration(&self) -> u64 {
        self.span.1.saturating_sub(self.span.0)
    }
}

/// The unified report of one run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Which clock the timestamps use.
    pub clock: ClockUnit,
    /// One profile per executed parallel section.
    pub sections: Vec<SectionProfile>,
    /// The unified counter snapshots.
    pub counters: RunCounters,
    /// The raw span stream (kept for the Chrome/Perfetto exporter).
    pub spans: Vec<SpanRecord>,
}

impl RunReport {
    /// Folds a span stream and section metadata into the unified report.
    pub fn build(
        clock: ClockUnit,
        spans: Vec<SpanRecord>,
        sections: Vec<SectionMeta>,
        counters: RunCounters,
    ) -> Self {
        let profiles = sections
            .iter()
            .map(|meta| build_section(meta, &spans))
            .collect();
        RunReport {
            clock,
            sections: profiles,
            counters,
            spans,
        }
    }

    /// Renders the human-readable text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let u = self.clock.label();
        let _ = writeln!(out, "== commset run profile ==");
        let _ = writeln!(out, "clock unit: {u}");
        let _ = writeln!(out, "sections:   {}", self.sections.len());
        for s in &self.sections {
            let _ = writeln!(
                out,
                "\n-- section {} (span {}..{}, duration {} {u}) --",
                s.section,
                s.span.0,
                s.span.1,
                s.duration()
            );
            let _ = writeln!(out, "stage balance (busy/blocked/idle, % of stage wall):");
            let _ = writeln!(
                out,
                "  {:>5}  {:>7}  {:>6}  {:>8}  {:>6}  description",
                "stage", "workers", "busy%", "blocked%", "idle%"
            );
            for st in &s.stages {
                let _ = writeln!(
                    out,
                    "  {:>5}  {:>7}  {:>6.1}  {:>8.1}  {:>6.1}  {}",
                    st.stage,
                    st.workers,
                    st.busy_pct(),
                    st.blocked_pct(),
                    st.idle_pct(),
                    st.desc
                );
            }
            if !s.locks.is_empty() {
                let _ = writeln!(out, "lock contention (by rank):");
                let _ = writeln!(
                    out,
                    "  {:>4}  {:<12}  {:>8}  {:>10}  {:>10}  {:>8}",
                    "rank", "set", "acquires", "wait", "hold", "max-wait"
                );
                for l in &s.locks {
                    let _ = writeln!(
                        out,
                        "  {:>4}  {:<12}  {:>8}  {:>10}  {:>10}  {:>8}",
                        l.rank, l.set, l.acquires, l.wait_total, l.hold_total, l.max_wait
                    );
                }
            }
            if !s.queues.is_empty() {
                let _ = writeln!(out, "queues:");
                let _ = writeln!(
                    out,
                    "  {:>3}  {:<18}  {:>6}  {:>6}  {:>9}  {:>8}  {:>10}  {:>11}",
                    "id",
                    "what",
                    "pushes",
                    "pops",
                    "push-wait",
                    "pop-wait",
                    "full-spins",
                    "empty-spins"
                );
                for q in &s.queues {
                    let _ = writeln!(
                        out,
                        "  {:>3}  {:<18}  {:>6}  {:>6}  {:>9}  {:>8}  {:>10}  {:>11}",
                        q.id,
                        q.what,
                        q.pushes,
                        q.pops,
                        q.push_wait,
                        q.pop_wait,
                        q.full_spins,
                        q.empty_spins
                    );
                }
            }
            let _ = writeln!(out, "workers:");
            let _ = writeln!(
                out,
                "  {:>6}  {:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>7}",
                "worker", "stage", "total", "busy", "blocked", "idle", "regions"
            );
            for w in &s.workers {
                let _ = writeln!(
                    out,
                    "  {:>6}  {:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>7}",
                    w.worker, w.stage, w.total, w.busy, w.blocked, w.idle, w.regions
                );
            }
        }
        let c = &self.counters;
        let _ = writeln!(out, "\ncounters:");
        let _ = writeln!(
            out,
            "  fault: stm_aborts={} lock_delays={} stalls={} shard_holds={}",
            c.fault.stm_aborts, c.fault.lock_delays, c.fault.stalls, c.fault.shard_holds
        );
        let _ = writeln!(
            out,
            "  stm:   commits={} aborts={} fallbacks={}",
            c.tm_commits, c.tm_aborts, c.tm_fallbacks
        );
        let _ = writeln!(
            out,
            "  shard: fast={} fast_waits={} multi={} whole={}",
            c.shard.fast_acquires,
            c.shard.fast_waits,
            c.shard.multi_acquires,
            c.shard.whole_acquires
        );
        let _ = writeln!(
            out,
            "  spsc:  full_spins={} empty_spins={} drained={}",
            c.queue_full_spins, c.queue_empty_spins, c.queue_drained
        );
        let _ = writeln!(
            out,
            "  delta: applies={} coalesces={} merged_slots={} lock_elisions={}",
            c.delta.applies, c.delta.coalesces, c.delta.merged_slots, c.delta.lock_elisions
        );
        let _ = writeln!(
            out,
            "  watchdog: {} (checks={}, max_blocked={})",
            if c.watchdog_clean {
                "clean"
            } else {
                "VIOLATIONS"
            },
            c.watchdog_checks,
            c.max_blocked
        );
        out
    }
}

fn build_section(meta: &SectionMeta, spans: &[SpanRecord]) -> SectionProfile {
    let spans: Vec<&SpanRecord> = spans.iter().filter(|s| s.section == meta.section).collect();
    let nworkers = meta
        .worker_stage
        .len()
        .max(spans.iter().map(|s| s.worker + 1).max().unwrap_or(0));
    let duration = meta.duration();

    let mut workers: Vec<WorkerReport> = (0..nworkers)
        .map(|w| WorkerReport {
            worker: w,
            stage: meta.worker_stage.get(w).copied().unwrap_or(0),
            ..WorkerReport::default()
        })
        .collect();
    for s in &spans {
        let w = &mut workers[s.worker];
        match &s.kind {
            SpanKind::Worker => w.total = s.dur(),
            SpanKind::Region { .. } => w.regions += 1,
            SpanKind::LockWait { .. } => w.lock_wait += s.dur(),
            SpanKind::LockHold { .. } => w.lock_hold += s.dur(),
            SpanKind::QueuePushWait { .. } | SpanKind::QueuePopWait { .. } => {
                w.queue_wait += s.dur()
            }
            _ => {}
        }
        if s.kind.is_blocking() {
            w.blocked += s.dur();
        }
    }
    for w in &mut workers {
        if w.total == 0 {
            // No explicit Worker span (e.g. a failed worker): fall back to
            // the extent of what it did record.
            let mine: Vec<&&SpanRecord> = spans.iter().filter(|s| s.worker == w.worker).collect();
            let lo = mine.iter().map(|s| s.start).min().unwrap_or(0);
            let hi = mine.iter().map(|s| s.end).max().unwrap_or(0);
            w.total = hi.saturating_sub(lo);
        }
        w.blocked = w.blocked.min(w.total);
        w.busy = w.total - w.blocked;
        w.idle = duration.saturating_sub(w.total);
    }

    let nstages = meta
        .stage_desc
        .len()
        .max(workers.iter().map(|w| w.stage + 1).max().unwrap_or(0))
        .max(1);
    let mut stages: Vec<StageReport> = (0..nstages)
        .map(|k| StageReport {
            stage: k,
            desc: meta.stage_desc.get(k).cloned().unwrap_or_default(),
            ..StageReport::default()
        })
        .collect();
    for w in &workers {
        let st = &mut stages[w.stage];
        st.workers += 1;
        st.busy += w.busy;
        st.blocked += w.blocked;
        st.idle += w.idle;
    }
    stages.retain(|s| s.workers > 0 || !s.desc.is_empty());

    let mut locks: Vec<LockReport> = meta
        .locks
        .iter()
        .enumerate()
        .map(|(rank, set)| LockReport {
            rank,
            set: set.clone(),
            ..LockReport::default()
        })
        .collect();
    for s in &spans {
        match s.kind {
            SpanKind::LockWait { rank } if rank < locks.len() => {
                locks[rank].wait_total += s.dur();
                locks[rank].max_wait = locks[rank].max_wait.max(s.dur());
            }
            SpanKind::LockHold { rank } if rank < locks.len() => {
                locks[rank].acquires += 1;
                locks[rank].hold_total += s.dur();
            }
            _ => {}
        }
    }

    let mut queues: Vec<QueueReport> = meta
        .queues
        .iter()
        .enumerate()
        .map(|(i, (id, what))| {
            let (full, empty) = meta.queue_spins.get(i).copied().unwrap_or((0, 0));
            QueueReport {
                id: *id,
                what: what.clone(),
                full_spins: full,
                empty_spins: empty,
                ..QueueReport::default()
            }
        })
        .collect();
    for s in &spans {
        let (id, push, pop, push_wait, pop_wait) = match s.kind {
            SpanKind::QueuePush { queue } => (queue, 1, 0, 0, 0),
            SpanKind::QueuePop { queue } => (queue, 0, 1, 0, 0),
            SpanKind::QueuePushWait { queue } => (queue, 0, 0, s.dur(), 0),
            SpanKind::QueuePopWait { queue } => (queue, 0, 0, 0, s.dur()),
            _ => continue,
        };
        if let Some(q) = queues.iter_mut().find(|q| q.id == id) {
            q.pushes += push;
            q.pops += pop;
            q.push_wait += push_wait;
            q.pop_wait += pop_wait;
        }
    }

    SectionProfile {
        section: meta.section,
        plan_section: meta.plan_section,
        span: meta.span,
        stages,
        workers,
        locks,
        queues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: usize, start: u64, end: u64, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            section: 0,
            worker,
            start,
            end,
            kind,
        }
    }

    fn meta() -> SectionMeta {
        SectionMeta {
            section: 0,
            plan_section: 0,
            stage_desc: vec!["S0: produce".into(), "S1: consume".into()],
            worker_stage: vec![0, 1],
            locks: vec!["FSET".into()],
            queues: vec![(0, "S0->S1 var d".into())],
            queue_spins: vec![(3, 7)],
            span: (0, 100),
        }
    }

    #[test]
    fn stage_balance_splits_busy_blocked_idle() {
        let spans = vec![
            span(0, 0, 90, SpanKind::Worker),
            span(0, 10, 30, SpanKind::LockWait { rank: 0 }),
            span(0, 30, 40, SpanKind::LockHold { rank: 0 }),
            span(1, 0, 50, SpanKind::Worker),
            span(1, 5, 25, SpanKind::QueuePopWait { queue: 0 }),
            span(1, 25, 25, SpanKind::QueuePop { queue: 0 }),
            span(0, 60, 60, SpanKind::QueuePush { queue: 0 }),
            span(
                0,
                41,
                44,
                SpanKind::Region {
                    func: "__commset_region_0".into(),
                },
            ),
        ];
        let report = RunReport::build(
            ClockUnit::Ticks,
            spans,
            vec![meta()],
            RunCounters {
                watchdog_clean: true,
                ..RunCounters::default()
            },
        );
        let s = &report.sections[0];
        assert_eq!(s.duration(), 100);
        // Worker 0: total 90, blocked 20 (lock wait) -> busy 70, idle 10.
        let w0 = &s.workers[0];
        assert_eq!((w0.total, w0.busy, w0.blocked, w0.idle), (90, 70, 20, 10));
        assert_eq!(w0.regions, 1);
        assert_eq!(w0.lock_hold, 10);
        // Worker 1: total 50, blocked 20 (pop wait) -> busy 30, idle 50.
        let w1 = &s.workers[1];
        assert_eq!((w1.total, w1.busy, w1.blocked, w1.idle), (50, 30, 20, 50));
        // Stages mirror their single workers.
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].busy, 70);
        assert!((s.stages[1].blocked_pct() - 20.0).abs() < 1e-9);
        // Lock profile keyed by rank.
        assert_eq!(s.locks[0].acquires, 1);
        assert_eq!(s.locks[0].wait_total, 20);
        assert_eq!(s.locks[0].max_wait, 20);
        assert_eq!(s.locks[0].hold_total, 10);
        // Queue traffic plus SPSC spins from the meta.
        assert_eq!(s.queues[0].pushes, 1);
        assert_eq!(s.queues[0].pops, 1);
        assert_eq!(s.queues[0].pop_wait, 20);
        assert_eq!((s.queues[0].full_spins, s.queues[0].empty_spins), (3, 7));
    }

    #[test]
    fn text_renders_the_headline_rows() {
        let spans = vec![
            span(0, 0, 80, SpanKind::Worker),
            span(1, 0, 60, SpanKind::Worker),
        ];
        let report = RunReport::build(
            ClockUnit::Ticks,
            spans,
            vec![meta()],
            RunCounters {
                watchdog_clean: true,
                watchdog_checks: 5,
                ..RunCounters::default()
            },
        );
        let text = report.render_text();
        assert!(text.contains("stage balance"), "{text}");
        assert!(text.contains("S0: produce"), "{text}");
        assert!(text.contains("lock contention (by rank):"), "{text}");
        assert!(text.contains("watchdog: clean (checks=5"), "{text}");
        assert!(text.contains("clock unit: ticks"), "{text}");
    }

    #[test]
    fn missing_worker_span_falls_back_to_extent() {
        let spans = vec![
            span(0, 10, 30, SpanKind::LockWait { rank: 0 }),
            span(0, 30, 45, SpanKind::LockHold { rank: 0 }),
        ];
        let report = RunReport::build(
            ClockUnit::Nanos,
            spans,
            vec![meta()],
            RunCounters::default(),
        );
        let w0 = &report.sections[0].workers[0];
        assert_eq!(w0.total, 35, "extent 10..45");
        assert_eq!(w0.blocked, 20);
    }
}
