//! # commset-sim
//!
//! Deterministic discrete-event models of a multicore machine, used by the
//! simulated-parallel executor.
//!
//! This machine has a single physical core, so the evaluation (paper §5,
//! 8-core Xeon) runs on *virtual* cores: every worker thread is a virtual
//! core with its own clock; shared interactions — locks, queues,
//! transactions — are resolved by the models in this crate, in global time
//! order (the executor always advances the minimum-clock runnable thread,
//! so interaction timestamps are monotone).
//!
//! The models capture the effects the paper's results hinge on:
//!
//! * spin locks suffer cache-line bouncing that grows with the number of
//!   waiters (kmeans's DOALL degradation past ~5 threads, §5.6),
//! * mutexes pay a sleep/wakeup penalty on contended handoff (456.hmmer's
//!   spin-beats-mutex result, §5.1),
//! * queue communication has latency and per-op cost (em3d's sub-linear
//!   pipeline scaling, §5.4),
//! * transactions abort and redo work on conflicts (kmeans TM ceiling,
//!   §5.6).

pub mod cost;
pub mod lock;
pub mod queue;
pub mod sched;
pub mod tm;

pub use cost::CostModel;
pub use lock::{SimLock, SimLockKind};
pub use queue::{PopOutcome, PushOutcome, SimQueue};
pub use sched::pick_with_horizon;
pub use tm::TmModel;
