//! # commset-transform
//!
//! The parallelizing transforms of the COMMSET compiler (paper §4.5–4.6).
//!
//! All transforms are real AST-to-AST code generators: they synthesize
//! per-worker / per-stage Cmm functions that communicate through queue
//! intrinsics and are synchronized by compiler-inserted lock/transaction
//! intrinsics, rewrite `main` to publish the parallel environment and call
//! `__par_invoke`, and emit a [`plan::ParallelPlan`] describing the worker,
//! queue and lock objects the executor must provide.
//!
//! * [`partition`] — DAG-SCC stage assignment (with merging of components
//!   connected by residual loop-carried cross edges).
//! * [`doall`] — the DOALL transform (cyclic iteration distribution).
//! * [`dswp`] — DSWP and PS-DSWP (pipeline with optional replicated stage).
//! * [`sync`] — the CommSet synchronization engine (rank-ordered
//!   mutex/spin locks, transactions, `NoSync`/`Lib` handling).
//! * [`driver`] — the end-to-end [`Compiler`]: analysis, then any scheme
//!   through the transforms above, then lowering.

pub mod codegen;
pub mod doall;
pub mod driver;
pub mod dswp;
pub mod partition;
pub mod plan;
pub mod sync;

pub use codegen::{runtime_op, RtOp};
pub use driver::{Analysis, Compiler};
pub use plan::{ParallelPlan, ParallelProgram, QueueSpec, Scheme, SyncMode, WorkerSpec};
