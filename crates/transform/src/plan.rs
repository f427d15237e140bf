//! Parallelization plans: what the executor must instantiate.

use commset_lang::ast::Program;

/// The parallelization scheme of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unmodified sequential execution (the baseline).
    Sequential,
    /// Data-parallel loop with cyclic iteration distribution.
    Doall,
    /// Decoupled software pipelining with sequential stages only.
    Dswp,
    /// Parallel-stage DSWP: one stage replicated across threads.
    PsDswp,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::Sequential => "Sequential",
            Scheme::Doall => "DOALL",
            Scheme::Dswp => "DSWP",
            Scheme::PsDswp => "PS-DSWP",
        };
        f.write_str(s)
    }
}

/// The concurrency-control mechanism the sync engine inserts (paper §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// Blocking mutex locks.
    Mutex,
    /// Spin locks.
    Spin,
    /// Software transactional memory.
    Tm,
    /// No compiler-inserted synchronization: members are thread-safe
    /// library calls (or `CommSetNoSync`).
    Lib,
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SyncMode::Mutex => "Mutex",
            SyncMode::Spin => "Spin",
            SyncMode::Tm => "TM",
            SyncMode::Lib => "Lib",
        };
        f.write_str(s)
    }
}

/// How DOALL distributes iterations over workers.
///
/// The paper's transform statically schedules "a set of iterations to run
/// in parallel on multiple threads"; cyclic distribution is the default
/// (robust to per-iteration cost variation), blocked is provided for the
/// scheduling ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IterSchedule {
    /// Worker `t` runs iterations `t, t+T, t+2T, ...`.
    #[default]
    Cyclic,
    /// Worker `t` runs the `t`-th contiguous chunk of `ceil(n/T)`
    /// iterations.
    Blocked,
}

impl std::fmt::Display for IterSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IterSchedule::Cyclic => "cyclic",
            IterSchedule::Blocked => "blocked",
        })
    }
}

/// One worker thread to spawn: a function called as `func(tid, nthreads)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Generated worker function name.
    pub func: String,
    /// First argument (thread / replica index).
    pub tid: i64,
    /// Second argument (thread count / replica count of its stage).
    pub nt: i64,
    /// The pipeline stage this worker implements (0 for DOALL workers).
    pub stage: usize,
}

/// One SPSC queue the executor must create.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSpec {
    /// Queue id referenced by generated `__q_push`/`__q_pop` calls.
    pub id: i64,
    /// Capacity in elements.
    pub capacity: usize,
    /// Human-readable description (e.g. `S0->S1 var d`).
    pub what: String,
}

/// One lock the executor must create (one per synchronized CommSet).
#[derive(Debug, Clone, PartialEq)]
pub struct LockSpec {
    /// Lock id referenced by `__lock_acquire`/`__lock_release`.
    pub id: i64,
    /// The CommSet it protects.
    pub set: String,
    /// Extern intrinsics reachable from the set's member functions — the
    /// world calls this lock actually guards. Under `WorldMode::Deltas`
    /// an executor may *elide* the lock when every guarded intrinsic is
    /// delta-covered (its whole footprint lands in worker-private
    /// buffers), because privatized effects are invisible to siblings
    /// until the barrier and the declared merges make their order
    /// immaterial. Empty for synthetic locks (`__reduction`), which are
    /// never elided.
    pub members: Vec<String>,
}

/// A complete plan: the executor contract for one parallelized loop.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// The scheme.
    pub scheme: Scheme,
    /// The synchronization mode used.
    pub sync: SyncMode,
    /// Total worker threads.
    pub nthreads: usize,
    /// Workers to spawn when `__par_invoke(section)` executes.
    pub workers: Vec<WorkerSpec>,
    /// Queues to create.
    pub queues: Vec<QueueSpec>,
    /// Locks to create.
    pub locks: Vec<LockSpec>,
    /// Per-stage human-readable description.
    pub stage_desc: Vec<String>,
    /// The `__par_invoke` section id this plan answers to.
    pub section: i64,
}

/// A transformed program together with its plan.
#[derive(Debug, Clone)]
pub struct ParallelProgram {
    /// The transformed program (workers added, `main` rewritten).
    pub program: Program,
    /// The executor contract.
    pub plan: ParallelPlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(Scheme::PsDswp.to_string(), "PS-DSWP");
        assert_eq!(SyncMode::Spin.to_string(), "Spin");
        assert_eq!(Scheme::Doall.to_string(), "DOALL");
    }
}
