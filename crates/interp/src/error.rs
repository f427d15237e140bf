//! Structured execution errors.
//!
//! Dynamic errors that the Cmm type system cannot rule out (division by
//! zero, out-of-bounds indexing), executor-contract violations (unknown
//! sections or queues), and parallel-runtime failures (a crashed worker, a
//! detected deadlock) all surface as [`ExecError`] values instead of
//! panics. Every variant carries enough source context — the function on
//! top of the VM stack, the offending index or section — for a diagnostic
//! a user can act on, and the process hosting the executor survives.

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Integer division by zero.
    DivisionByZero {
        /// Function executing when the division ran.
        func: String,
    },
    /// Integer remainder by zero.
    RemainderByZero {
        /// Function executing when the remainder ran.
        func: String,
    },
    /// Array index outside the array's bounds.
    IndexOutOfBounds {
        /// Function executing the access.
        func: String,
        /// The offending index.
        index: i64,
        /// The array's length.
        len: usize,
        /// True when the array is a global.
        global: bool,
    },
    /// An operation applied to operands of the wrong type.
    TypeError {
        /// Function executing when the operation ran.
        func: String,
        /// What went wrong.
        detail: String,
    },
    /// The requested entry function does not exist in the module.
    UnknownFunction {
        /// The missing name.
        name: String,
    },
    /// A call supplied the wrong number of arguments.
    ArityMismatch {
        /// The callee.
        func: String,
        /// Declared parameter count.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// `__par_invoke` named a section with no plan.
    UnknownSection {
        /// The section id.
        section: i64,
    },
    /// A queue operation named an id absent from the plan.
    UnknownQueue {
        /// The queue id.
        id: i64,
    },
    /// A worker executed `__par_invoke` (nested sections are unsupported).
    NestedParallelSection,
    /// A sequential program executed a parallel-runtime intrinsic.
    ParallelIntrinsicInSequential {
        /// The intrinsic name.
        name: String,
    },
    /// `__tx_commit` without a matching `__tx_begin`.
    TxCommitWithoutBegin,
    /// The module calls a world intrinsic the registry has no handler
    /// for; reported when the run resolves its registry, before the first
    /// op retires.
    MissingHandler {
        /// The intrinsic name.
        intrinsic: String,
    },
    /// A worker thread failed (dynamic error or contained panic).
    WorkerFailed {
        /// The worker's stage function.
        stage: String,
        /// Human-readable cause (an [`ExecError`] rendering or a panic
        /// payload).
        cause: String,
    },
    /// A worker was canceled because a sibling failed first.
    Canceled {
        /// The worker's stage function.
        stage: String,
    },
    /// No worker is runnable but the section has not finished.
    Deadlock {
        /// The section id.
        section: i64,
        /// Per-worker status descriptions.
        waiting: Vec<String>,
    },
    /// The waits-for watchdog found a cycle or rank-order violation.
    WatchdogViolation {
        /// The section id.
        section: i64,
        /// What the watchdog saw.
        detail: String,
    },
    /// A parallel section overran its configured deadline and was
    /// cooperatively canceled (watchdog escalation first, then the shared
    /// cancel flag). In the simulated executor the deadline is a
    /// deterministic tick budget (1 ms = 1000 ticks).
    DeadlineExceeded {
        /// The section id.
        section: i64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DivisionByZero { func } => {
                write!(f, "division by zero in `{func}`")
            }
            ExecError::RemainderByZero { func } => {
                write!(f, "remainder by zero in `{func}`")
            }
            ExecError::IndexOutOfBounds {
                func,
                index,
                len,
                global,
            } => {
                let kind = if *global { "global array" } else { "array" };
                write!(
                    f,
                    "{kind} index {index} out of bounds (len {len}) in `{func}`"
                )
            }
            ExecError::TypeError { func, detail } => {
                write!(f, "type error in `{func}`: {detail}")
            }
            ExecError::UnknownFunction { name } => {
                write!(f, "no function `{name}` in module")
            }
            ExecError::ArityMismatch {
                func,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch calling `{func}`: expected {expected} argument(s), got {got}"
            ),
            ExecError::UnknownSection { section } => {
                write!(f, "no parallel plan for section {section}")
            }
            ExecError::UnknownQueue { id } => write!(f, "unknown queue id {id}"),
            ExecError::NestedParallelSection => {
                write!(f, "nested parallel sections are not supported")
            }
            ExecError::ParallelIntrinsicInSequential { name } => {
                write!(f, "sequential program called parallel intrinsic `{name}`")
            }
            ExecError::TxCommitWithoutBegin => {
                write!(f, "__tx_commit without a matching __tx_begin")
            }
            ExecError::MissingHandler { intrinsic } => {
                write!(f, "no handler for intrinsic `{intrinsic}`")
            }
            ExecError::WorkerFailed { stage, cause } => {
                write!(f, "worker `{stage}` failed: {cause}")
            }
            ExecError::Canceled { stage } => {
                write!(f, "worker `{stage}` canceled after a sibling failure")
            }
            ExecError::Deadlock { section, waiting } => {
                write!(f, "deadlock in section {section}: [{}]", waiting.join(", "))
            }
            ExecError::WatchdogViolation { section, detail } => {
                write!(f, "watchdog violation in section {section}: {detail}")
            }
            ExecError::DeadlineExceeded {
                section,
                deadline_ms,
            } => {
                write!(
                    f,
                    "section {section} exceeded its {deadline_ms} ms deadline and was canceled"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_source_context() {
        let e = ExecError::DivisionByZero {
            func: "main".into(),
        };
        assert_eq!(e.to_string(), "division by zero in `main`");
        let e = ExecError::IndexOutOfBounds {
            func: "kernel".into(),
            index: 9,
            len: 4,
            global: true,
        };
        assert!(e.to_string().contains("global array index 9"));
        assert!(e.to_string().contains("kernel"));
        let e = ExecError::WorkerFailed {
            stage: "__commset_worker_0".into(),
            cause: "division by zero in `f`".into(),
        };
        assert!(e.to_string().contains("__commset_worker_0"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(ExecError::NestedParallelSection);
        assert!(e.to_string().contains("nested"));
    }
}
