//! The observed event stream of a parallel run and its trace view.
//!
//! The test suites, the profiler and the benchmark need to *observe* what
//! a parallel run did: which commutative-region instances entered and
//! exited on which worker, which locks were taken at which rank, which
//! queue operations moved pipeline values, and which world intrinsics
//! fired. Each worker's observer appends one `Event` per observed event to
//! a private buffer and hands it to the run once per section. When
//! [`crate::ExecConfig::trace`] is set, the run folds that one stream two
//! ways:
//!
//! * at its end, its [`TraceRecord`]s into the caller's [`TraceSink`];
//! * the spans of the attached `commset_telemetry::RunReport`.
//!
//! The stream is ordered by `(section, timestamp, worker)`, each worker's
//! events in the order it produced them. Timestamps are the simulated
//! executor's deterministic logical clocks, so under the DES the whole
//! stream is deterministic; the thread executor stamps monotonic
//! nanoseconds since the run's start, and there only each worker's
//! subsequence is a fixed order.

use commset_runtime::sync::Mutex;
use commset_runtime::Value;
use commset_telemetry::{SpanKind, SpanRecord};
use std::sync::Arc;

/// One observable event of a parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A watched (commutative-region) function was entered.
    RegionEnter {
        /// The outlined region function, e.g. `__commset_region_1`.
        func: String,
        /// The region instance arguments (the CommSet instance key).
        args: Vec<Value>,
    },
    /// A watched function returned.
    RegionExit {
        /// The outlined region function.
        func: String,
    },
    /// A rank-ordered lock was acquired.
    LockAcquire {
        /// Lock index (== rank in the section's plan).
        lock: usize,
    },
    /// A rank-ordered lock was released.
    LockRelease {
        /// Lock index.
        lock: usize,
    },
    /// A pipeline queue push completed.
    QueuePush {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// A pipeline queue pop completed.
    QueuePop {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// A world intrinsic executed.
    WorldCall {
        /// Intrinsic name.
        intrinsic: String,
        /// Evaluated arguments.
        args: Vec<Value>,
    },
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Worker index within the section.
    pub worker: usize,
    /// Worker-local time (simulated ticks or nanoseconds).
    pub time: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A cloneable, thread-safe trace log the executors fill at the end of
/// each traced run. Clones share the same underlying buffer.
#[derive(Clone, Default)]
pub struct TraceSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("records", &self.len())
            .finish()
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends one run's trace view.
    pub(crate) fn extend(&self, records: impl IntoIterator<Item = TraceRecord>) {
        self.records.lock().extend(records);
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all buffered records: run by run, each run's
    /// in stream order.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock())
    }
}

/// A closed interval of one worker's time, `(start, end)`.
pub(crate) type Interval = (u64, u64);

/// One observed event of one worker inside one parallel section: the
/// unit of the run's event stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Event {
    /// Ordinal of the parallel section within the run.
    pub section: usize,
    /// Worker index within the section.
    pub worker: usize,
    /// When the event completed.
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What an [`Event`] observed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EventKind {
    /// One of the seven traced kinds, with the interval the report spans
    /// beside the event's own time: a region's entry to its exit, the
    /// wait before a lock grant or a queue op, a lock's hold before its
    /// release, a world call's run.
    Traced {
        event: TraceEvent,
        span: Option<Interval>,
    },
    /// A transaction window opened at `since` committed after `aborts`
    /// optimistic aborts.
    TxCommit { since: u64, aborts: u64 },
    /// The worker, started at `since`, left the section.
    Worker { since: u64 },
}

impl Event {
    /// The trace view of this event; `None` for the kinds only the
    /// report shows (transaction windows, worker lifetimes).
    pub(crate) fn into_trace(self) -> Option<TraceRecord> {
        match self.kind {
            EventKind::Traced { event, .. } => Some(TraceRecord {
                worker: self.worker,
                time: self.time,
                event,
            }),
            EventKind::TxCommit { .. } | EventKind::Worker { .. } => None,
        }
    }

    /// Appends the report spans of this event to `out`.
    fn spans(&self, out: &mut Vec<SpanRecord>) {
        let t = self.time;
        let mut span = |(start, end): Interval, kind: SpanKind| {
            let (section, worker) = (self.section, self.worker);
            out.push(SpanRecord {
                section,
                worker,
                start,
                end,
                kind,
            })
        };
        let (event, interval) = match &self.kind {
            EventKind::Traced { event, span } => (event, *span),
            EventKind::TxCommit { since, aborts } => {
                return span((*since, t), SpanKind::Tx { aborts: *aborts })
            }
            EventKind::Worker { since } => return span((*since, t), SpanKind::Worker),
        };
        if let Some(interval) = interval {
            let kind = match event {
                TraceEvent::RegionEnter { .. } => return,
                TraceEvent::RegionExit { func } => SpanKind::Region { func: func.clone() },
                TraceEvent::LockAcquire { lock } => SpanKind::LockWait { rank: *lock },
                TraceEvent::LockRelease { lock } => SpanKind::LockHold { rank: *lock },
                TraceEvent::QueuePush { queue } => SpanKind::QueuePushWait { queue: *queue },
                TraceEvent::QueuePop { queue } => SpanKind::QueuePopWait { queue: *queue },
                TraceEvent::WorldCall { intrinsic, .. } => SpanKind::WorldCall {
                    intrinsic: intrinsic.clone(),
                },
            };
            span(interval, kind);
        }
        // A completed queue op is also an instant.
        match *event {
            TraceEvent::QueuePush { queue } => span((t, t), SpanKind::QueuePush { queue }),
            TraceEvent::QueuePop { queue } => span((t, t), SpanKind::QueuePop { queue }),
            _ => {}
        }
    }
}

/// Puts a run's events in stream order: by `(section, time, worker)`,
/// each worker's events in the order it produced them (its timestamps
/// never decrease, and the sort is stable).
pub(crate) fn order(events: &mut [Event]) {
    events.sort_by_key(|e| (e.section, e.time, e.worker));
}

/// The report's spans, folded from `events` and ordered by
/// `(section, worker, start, end)`, each worker's ties in its own order.
pub(crate) fn spans(events: &[Event]) -> Vec<SpanRecord> {
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        e.spans(&mut out);
    }
    out.sort_by_key(|s| (s.section, s.worker, s.start, s.end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: usize, time: u64, event: TraceEvent, span: Option<Interval>) -> Event {
        let (section, kind) = (0, EventKind::Traced { event, span });
        Event {
            section,
            worker,
            time,
            kind,
        }
    }

    fn enter(worker: usize, time: u64) -> Event {
        let (func, args) = ("__commset_region_1".into(), vec![Value::Int(3)]);
        ev(worker, time, TraceEvent::RegionEnter { func, args }, None)
    }

    fn exit(worker: usize, since: u64, time: u64) -> Event {
        let func = "__commset_region_1".into();
        ev(
            worker,
            time,
            TraceEvent::RegionExit { func },
            Some((since, time)),
        )
    }

    #[test]
    fn records_are_sequenced_and_takeable() {
        // Worker 1's batch arrives first; at t=4 worker 0 keeps its own
        // order (enter before exit) and sorts ahead of worker 1.
        let kind = EventKind::Worker { since: 0 };
        let later = Event {
            section: 1,
            worker: 0,
            time: 0,
            kind,
        };
        let mut events = vec![
            later,
            enter(1, 2),
            exit(1, 2, 4),
            enter(0, 4),
            exit(0, 4, 4),
        ];
        order(&mut events);
        let sink = TraceSink::new();
        sink.extend(events.into_iter().filter_map(Event::into_trace));
        assert_eq!(sink.len(), 4, "worker lifetimes have no trace record");
        let entered = |r: &TraceRecord| matches!(r.event, TraceEvent::RegionEnter { .. });
        let got: Vec<_> = sink
            .take()
            .iter()
            .map(|r| (r.worker, r.time, entered(r)))
            .collect();
        assert_eq!(
            got,
            [(1, 2, true), (0, 4, true), (0, 4, false), (1, 4, false)]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = TraceSink::new();
        a.clone().extend(enter(2, 0).into_trace());
        assert_eq!(a.len(), 1);
        assert_eq!(a.take()[0].worker, 2);
    }
}
