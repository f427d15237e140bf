//! # commset-runtime
//!
//! The parallel execution substrate of the COMMSET reproduction:
//!
//! * [`value`] — the dynamic value type shared by the VM, the queues and
//!   the intrinsic handlers.
//! * [`queue`] — the lock-free single-producer/single-consumer ring buffer
//!   used for pipeline communication ("lock-free queues in software",
//!   paper §4.5).
//! * [`lock`] — raw spin locks and mutexes with explicit acquire/release
//!   (the sync engine emits paired `__lock_acquire`/`__lock_release`
//!   operations).
//! * [`stm`] — a TL2-style software transactional memory (global version
//!   clock, versioned cells, redo log) backing the optimistic sync mode.
//! * [`world`] — the virtual world: type-erased mutable state in slots
//!   indexed by interned slot ids, standing in for the paper's files, console, RNG seeds, packet
//!   pools and allocators.
//! * [`intrinsics`] — the registry binding `extern` intrinsic names to
//!   executable handlers, slot footprints and merges, and the per-run
//!   [`Dispatch`] that resolves them to dense ids.
//! * [`rng`] — the deterministic RNG algorithms used by workloads.
//! * [`sync`] — std-backed, poison-recovering mutex/condvar/rwlock shims
//!   (the workspace builds with zero external dependencies).
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) consulted
//!   by both executors at every synchronization point.
//! * [`watchdog`] — the waits-for-graph watchdog validating the
//!   rank-ordered deadlock-freedom claim at runtime.
//! * [`delta`] — CCD-style delta privatization: per-worker buffers for
//!   commutative updates plus the declared merge operators that coalesce
//!   them at the section barrier.
//! * [`hist`] — the log2-bucketed [`Hist64`] histogram the metrics layer
//!   records latency/size distributions into.

pub mod delta;
pub mod fault;
pub mod hist;
pub mod intrinsics;
pub mod lock;
pub mod queue;
pub mod rng;
pub mod sharded;
pub mod stm;
pub mod sync;
pub mod value;
pub mod watchdog;
pub mod world;

pub use delta::{DeltaBuffer, DeltaSnapshot, MergeSpec, DELTA_POISON_MSG};
pub use fault::{FaultInjector, FaultPlan, FaultStats, SlowWorker, WorkerStall};
pub use hist::{Hist64, HIST_BUCKETS};
pub use intrinsics::{Dispatch, IntrinsicOutcome, Registry, Route, SlotBinding};
pub use queue::SpscQueue;
pub use sharded::{
    shard_of_slot, stripe_of, stripe_slot, ShardObserver, ShardStatsSnapshot, ShardedWorld,
    WORLD_STRIPES,
};
pub use stm::{BackoffPolicy, StmStats};
pub use value::Value;
pub use watchdog::{Watchdog, WatchdogReport};
pub use world::{SlotError, SlotErrorKind, World};
