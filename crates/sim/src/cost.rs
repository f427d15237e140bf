//! The simulated-machine cost model.
//!
//! Units are abstract cycles. Absolute values are calibration constants
//! (EXPERIMENTS.md records the calibration); the *ratios* encode the
//! machine effects the paper's evaluation depends on.

/// Per-operation costs of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One simple IR instruction.
    pub inst: u64,
    /// Function call / return overhead.
    pub call: u64,
    /// Uncontended lock acquire.
    pub lock_acquire: u64,
    /// Lock release.
    pub lock_release: u64,
    /// Extra cost per already-waiting thread when a spin lock is contended
    /// (cache-line bouncing; also slows the winner).
    pub spin_contended: u64,
    /// Sleep/wakeup penalty when a mutex handoff is contended.
    pub mutex_wakeup: u64,
    /// One queue push or pop.
    pub queue_op: u64,
    /// Producer-to-consumer visibility latency.
    pub queue_latency: u64,
    /// Transaction begin.
    pub tx_begin: u64,
    /// Transaction commit (validation + publish).
    pub tx_commit: u64,
    /// Per-worker spawn overhead at `__par_invoke`.
    pub par_spawn: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            inst: 1,
            call: 5,
            lock_acquire: 30,
            lock_release: 15,
            spin_contended: 12,
            mutex_wakeup: 300,
            queue_op: 25,
            queue_latency: 60,
            tx_begin: 40,
            tx_commit: 120,
            par_spawn: 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ratios_hold() {
        let c = CostModel::default();
        assert!(
            c.mutex_wakeup >= 10 * c.lock_acquire,
            "contended mutex must dwarf an uncontended acquire"
        );
        assert!(c.queue_latency > c.inst);
        assert!(c.tx_commit > c.tx_begin);
    }
}
