//! # commset-interp
//!
//! Execution of compiled Cmm modules.
//!
//! * [`bytecode`] — the execution engine: each function is lowered once
//!   to flat register bytecode (pre-resolved block offsets, fused
//!   superinstructions, inline-cached intrinsic call sites) and run by
//!   [`bytecode::BcVm`], a *resumable* machine: `step()` retires one op;
//!   intrinsic calls surface as pending *special* events the driving
//!   executor resolves. Every executor, the supervisor and the checker
//!   run it.
//! * [`vm`] — the resumable contract ([`vm::StepOutcome`],
//!   [`vm::CallEvent`], [`vm::GlobalMem`]) and [`vm::Vm`], a tree-walk
//!   interpreter over the CFG IR kept only as the reference the tests
//!   compare the bytecode engine against.
//! * [`globals`] — global-memory backends (plain for single-threaded
//!   executors, atomic for the thread executor).
//! * [`seq`] — the sequential executor (the evaluation baseline), with
//!   simulated-time accounting.
//! * `exec_core` — what the two parallel executors share: per-section
//!   setup, the per-worker observer (the event stream and metrics), the
//!   lock-elision and delta fast paths, the delta fold, the
//!   `__par_invoke` bracket and the end-of-run report fold. Every
//!   executor matches on the runtime op each special carries
//!   ([`vm::PendingSpecial::op`], decoded once per intrinsic id at
//!   bytecode compile from `commset_transform::codegen::RUNTIME_EXTERNS`).
//! * [`sim_exec`] — the simulated-parallel executor: a discrete-event
//!   scheduler over one VM per worker thread, using `commset-sim`'s lock,
//!   queue and TM models. This is what regenerates the paper's Figure 6 on
//!   a single-core host.
//! * [`thread_exec`] — the real-thread executor (OS threads, the runtime's
//!   lock-free queues and raw locks), used by the correctness tests.
//! * [`error`] — structured [`error::ExecError`] diagnostics: dynamic
//!   errors, executor-contract violations and parallel-runtime failures
//!   surface as `Result::Err`, never as panics.
//! * [`config`] — the shared [`config::ExecConfig`] knob set (fault
//!   injection, STM retry discipline, world mode, deadlines, trace sink,
//!   metrics).
//! * [`supervise`] — the self-healing execution supervisor: per-section
//!   deadlines, transient-failure retry with backoff, a degradation ladder
//!   (sharded → single lock → thread halving → sequential) with
//!   oracle-validated degraded results, and replayable failure bundles.
//! * [`bundle`] — the `.repro.json` failure-bundle format (and the small
//!   JSON reader it needs), consumed by `commsetc replay`, and the
//!   deterministic [`bundle::run_id`] bundles and journals share.
//! * [`trace`] — the run's one event stream and its trace view
//!   ([`trace::TraceSink`]): region entries/exits, lock ranks, queue
//!   operations and world-intrinsic calls, consumed by the
//!   executor-parity tests and the benchmark.
//!
//! With `ExecConfig::trace` set, both parallel executors record each
//! observed event once and fold the stream twice: into the caller's
//! [`trace::TraceSink`] and into the [`commset_telemetry::RunReport`]
//! (stage balance, lock contention by rank, queue traffic, unified
//! counters) the outcome carries — monotonic nanoseconds on real threads,
//! deterministic ticks under the DES.

pub mod bundle;
pub mod bytecode;
pub mod config;
pub mod error;
mod exec_core;
pub mod globals;
pub mod metrics;
pub mod seq;
pub mod sim_exec;
pub mod supervise;
pub mod thread_exec;
pub mod trace;
pub mod vm;

pub use bundle::{run_id, FailureBundle};
pub use bytecode::{print_bc_function, print_bc_module, BcModule, BcVm};
pub use config::{ExecConfig, WorldMode};
pub use error::ExecError;
pub use metrics::MetricsLocal;
pub use seq::run_sequential;
pub use sim_exec::{run_simulated, run_simulated_with, SimOutcome, SimStats};
pub use supervise::{
    replay_attempt, run_supervised, Backend, CompiledProgram, ProgramDesc, ProgramSource,
    RecoveryPolicy, SupervisedFailure, SupervisedOutcome, Validator,
};
pub use thread_exec::{run_threaded, run_threaded_with, ThreadOutcome, ThreadStats};
pub use trace::{TraceEvent, TraceRecord, TraceSink};
pub use vm::{CallEvent, OobError, StepOutcome, Vm};
