//! The span model of the telemetry layer.
//!
//! A [`SpanRecord`] is one timed interval (or instant, when
//! `start == end`) of one worker's execution inside one parallel section.
//! The executors fold their spans from the run's one event stream
//! (`commset_interp::trace`): the real-thread executor stamps monotonic
//! nanoseconds since the run's epoch, the simulated executor its
//! deterministic logical ticks — spans are clock-agnostic and the
//! [`crate::report::RunReport`] records which unit applies.

/// What one span measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// One worker's whole lifetime inside a section (spawn to exit).
    Worker,
    /// One commutative-region instance execution.
    Region {
        /// The outlined region function, e.g. `__commset_region_1`.
        func: String,
    },
    /// Time spent *waiting* to acquire a CommSet lock.
    LockWait {
        /// Lock index == rank in the section's plan.
        rank: usize,
    },
    /// Time the lock was *held* (acquire grant to release).
    LockHold {
        /// Lock index == rank in the section's plan.
        rank: usize,
    },
    /// Producer blocked publishing to a full pipeline queue.
    QueuePushWait {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// Consumer blocked on an empty pipeline queue.
    QueuePopWait {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One completed queue push (an instant: `start == end`).
    QueuePush {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One completed queue pop (an instant: `start == end`).
    QueuePop {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One transaction window, begin to commit completion.
    Tx {
        /// Optimistic aborts suffered before this commit resolved.
        aborts: u64,
    },
    /// One world-intrinsic execution.
    WorldCall {
        /// Intrinsic name.
        intrinsic: String,
    },
}

impl SpanKind {
    /// Stable short label (Chrome event name / report row key).
    pub fn label(&self) -> String {
        match self {
            SpanKind::Worker => "worker".to_string(),
            SpanKind::Region { func } => func.clone(),
            SpanKind::LockWait { rank } => format!("lock-wait #{rank}"),
            SpanKind::LockHold { rank } => format!("lock-hold #{rank}"),
            SpanKind::QueuePushWait { queue } => format!("push-wait q{queue}"),
            SpanKind::QueuePopWait { queue } => format!("pop-wait q{queue}"),
            SpanKind::QueuePush { queue } => format!("push q{queue}"),
            SpanKind::QueuePop { queue } => format!("pop q{queue}"),
            SpanKind::Tx { aborts } => format!("tx (aborts={aborts})"),
            SpanKind::WorldCall { intrinsic } => format!("call {intrinsic}"),
        }
    }

    /// Chrome trace category for this span.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Worker => "worker",
            SpanKind::Region { .. } => "region",
            SpanKind::LockWait { .. } | SpanKind::LockHold { .. } => "lock",
            SpanKind::QueuePushWait { .. }
            | SpanKind::QueuePopWait { .. }
            | SpanKind::QueuePush { .. }
            | SpanKind::QueuePop { .. } => "queue",
            SpanKind::Tx { .. } => "stm",
            SpanKind::WorldCall { .. } => "world",
        }
    }

    /// True when the span counts toward a worker's *blocked* time.
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            SpanKind::LockWait { .. }
                | SpanKind::QueuePushWait { .. }
                | SpanKind::QueuePopWait { .. }
        )
    }
}

/// One timed interval of one worker inside one section.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Ordinal of the parallel section within the run (execution order).
    pub section: usize,
    /// Worker index within the section.
    pub worker: usize,
    /// Start timestamp (nanoseconds or logical ticks).
    pub start: u64,
    /// End timestamp; `start == end` marks an instant event.
    pub end: u64,
    /// What was measured.
    pub kind: SpanKind,
}

impl SpanRecord {
    /// The span's duration in its clock unit.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_and_blocking_classification() {
        assert_eq!(SpanKind::LockWait { rank: 2 }.label(), "lock-wait #2");
        assert_eq!(SpanKind::QueuePop { queue: 7 }.label(), "pop q7");
        assert!(SpanKind::QueuePushWait { queue: 1 }.is_blocking());
        assert!(!SpanKind::LockHold { rank: 1 }.is_blocking());
        assert!(!SpanKind::Worker.is_blocking());
        assert_eq!(SpanKind::Tx { aborts: 3 }.category(), "stm");
    }

    #[test]
    fn instant_spans_have_zero_duration() {
        let s = SpanRecord {
            section: 0,
            worker: 0,
            start: 10,
            end: 10,
            kind: SpanKind::QueuePush { queue: 0 },
        };
        assert_eq!(s.dur(), 0);
    }
}
