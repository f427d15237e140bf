//! # commset-telemetry
//!
//! The observability layer of the COMMSET reproduction: one place where
//! every runtime counter and every timed span of a parallel run lands, so
//! benchmark deltas become *attributable* instead of anecdotal.
//!
//! * [`span`] — the span model: the [`span::SpanRecord`]s the executors
//!   fold from their event stream (commutative-region execution, lock
//!   waits vs. holds keyed by CommSet lock rank, queue push/pop blocking,
//!   STM windows, world-intrinsic calls), in monotonic nanoseconds on
//!   real threads and deterministic logical ticks under the simulator.
//! * [`report`] — the [`report::RunReport`]: per-worker and per-DSWP-stage
//!   busy/blocked/idle utilization (the stage-balance quantity that
//!   predicts PS-DSWP scalability), a lock-contention profile, per-queue
//!   traffic, and every existing counter snapshot (fault, watchdog,
//!   shard, STM, SPSC spins) unified into one structure with a
//!   human-readable text rendering.
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter: any run
//!   (or any checker interleaving) becomes a timeline you can open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * [`json`] — the tiny shared JSON-writing helpers (the workspace has
//!   no serialization dependency by design).
//! * [`metrics`] — the always-on [`metrics::MetricsRegistry`]: monotonic
//!   counters, log2-bucketed histograms, and bytecode hotspot
//!   attribution (per-opcode retires, hot-block ranks), merged from
//!   per-worker local state published once at worker exit.
//!
//! The JSONL event journal is not recorded during a run: `commset`'s
//! `report::render_journal` renders it afterwards from the run report,
//! the simulated time and the registry the run returns.
//!
//! Telemetry is zero-cost when off: the executors consult one option per
//! layer (`ExecConfig::trace` for the event stream and the run report it
//! folds into, `ExecConfig::metrics` for the registry, in
//! `commset-interp`) and touch nothing else.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use chrome::{chrome_trace_json, ChromeTraceBuilder};
pub use metrics::{MetricsRegistry, MetricsSink};
pub use report::{
    ClockUnit, LockReport, QueueReport, RunCounters, RunReport, SectionMeta, SectionProfile,
    StageReport, WorkerReport,
};
pub use span::{SpanKind, SpanRecord};
