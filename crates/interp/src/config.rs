//! Executor configuration: fault injection, STM retry discipline, world
//! mode, deadlines and instrumentation.

use crate::trace::TraceSink;
use commset_runtime::{BackoffPolicy, FaultPlan};

/// Which shared-world implementation the real-thread executor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldMode {
    /// Sharded when the registry declares slot bindings (the workloads
    /// that describe their footprints get the scalable world), single
    /// mutex otherwise. The default.
    #[default]
    Auto,
    /// Always the single `Mutex<World>` — the historical behavior, kept
    /// as the baseline the bench harness compares against.
    SingleLock,
    /// Always the sharded world; unbound intrinsics take the whole-world
    /// slow path.
    Sharded,
    /// CCD-style delta privatization on top of the sharded world: calls
    /// whose entire slot footprint carries a declared merge operator run
    /// against per-worker delta buffers (no shard lock, no STM) and are
    /// coalesced deterministically at the section barrier. Calls without
    /// full merge coverage — and every call in a pipeline section, where
    /// cross-worker queues carry handles between stages — behave exactly
    /// as [`WorldMode::Sharded`]. Never chosen by [`WorldMode::Auto`];
    /// opting in requires merge declarations in the registry.
    Deltas,
}

impl WorldMode {
    /// The mode's name in failure bundles.
    pub fn name(self) -> &'static str {
        match self {
            WorldMode::Auto => "auto",
            WorldMode::SingleLock => "single-lock",
            WorldMode::Sharded => "sharded",
            WorldMode::Deltas => "deltas",
        }
    }

    /// Parses a [`WorldMode::name`].
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names.
    pub fn parse(name: &str) -> Result<WorldMode, String> {
        [
            WorldMode::Auto,
            WorldMode::SingleLock,
            WorldMode::Sharded,
            WorldMode::Deltas,
        ]
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| format!("unknown world mode `{name}`"))
    }
}

/// Knobs shared by the simulated and real-thread executors.
///
/// The default configuration injects no faults, uses the default
/// [`BackoffPolicy`] for transactional retries and records nothing. The
/// waits-for watchdog always runs (its overhead is one mutexed map update
/// per blocking lock event).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Adversarial schedule to inject; `FaultPlan::none()` by default.
    pub fault: FaultPlan,
    /// Transactional retry discipline (backoff + starvation fallback
    /// threshold). The simulated executor uses `max_aborts` to decide when
    /// a modeled transaction escalates to the rank-0 global lock.
    pub backoff: BackoffPolicy,
    /// When set, the executors record one event stream — region
    /// entries/exits, lock, queue and transaction events, world-intrinsic
    /// calls and worker lifetimes — and fold it two ways at the end of
    /// the run: its trace records into this sink (see [`crate::trace`])
    /// and a `commset_telemetry::RunReport` (stage balance, lock waits vs
    /// holds by rank, queue blocking, STM windows) attached to the
    /// outcome. Off (`None`) by default; when off the executors consult
    /// only this option, so runs pay no observation cost.
    pub trace: Option<TraceSink>,
    /// Shared-world implementation for the real-thread executor
    /// ([`WorldMode::Auto`] by default).
    pub world: WorldMode,
    /// Per-section deadline in milliseconds; `None` (the default) runs
    /// unbounded. In the real-thread executor a monitor waits out the
    /// deadline, escalates to the watchdog for a diagnosis, then trips the
    /// cooperative cancel flag; the section reports
    /// [`crate::ExecError::DeadlineExceeded`]. In the simulated executor
    /// the deadline is a deterministic tick budget (1 ms = 1000 ticks).
    pub deadline_ms: Option<u64>,
    /// Collect metrics-registry observability (bytecode per-opcode retire
    /// counts and hot-block ranks, lock/channel wait histograms, queue
    /// occupancy, delta merge sizes) and attach a merged
    /// `commset_telemetry::MetricsRegistry` to the outcome. Off by
    /// default; when off the executors consult only this flag, and on the
    /// DES every recording is passive (no modeled clock is touched), so
    /// simulated time is bit-identical with metrics on or off.
    pub metrics: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            fault: FaultPlan::none(),
            backoff: BackoffPolicy::default(),
            trace: None,
            world: WorldMode::Auto,
            deadline_ms: None,
            metrics: false,
        }
    }
}

impl ExecConfig {
    /// The default configuration (no faults, no instrumentation).
    pub fn new() -> Self {
        ExecConfig::default()
    }

    /// A configuration injecting `fault`.
    pub fn with_fault(fault: FaultPlan) -> Self {
        ExecConfig {
            fault,
            ..Default::default()
        }
    }

    /// A configuration recording into `trace` (and attaching the run
    /// report), no faults.
    pub fn with_trace(trace: TraceSink) -> Self {
        ExecConfig {
            trace: Some(trace),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_and_watched() {
        let c = ExecConfig::new();
        assert!(c.fault.is_none());
        assert!(c.backoff.max_aborts > 0);
        assert_eq!(c.world, WorldMode::Auto);
        assert!(c.trace.is_none(), "the event stream must be opt-in");
        assert!(!c.metrics, "the metrics registry must be opt-in");
        assert!(c.deadline_ms.is_none(), "deadlines must be opt-in");
    }

    #[test]
    fn world_mode_names_round_trip() {
        for m in [
            WorldMode::Auto,
            WorldMode::SingleLock,
            WorldMode::Sharded,
            WorldMode::Deltas,
        ] {
            assert_eq!(WorldMode::parse(m.name()), Ok(m));
        }
        assert!(WorldMode::parse("striped").is_err());
    }
}
