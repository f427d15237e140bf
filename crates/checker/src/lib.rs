//! # commset-checker
//!
//! The dynamic commutativity checker (the testing-oracle side of the
//! COMMSET reproduction): given an annotated program, it answers *"do the
//! annotations claim more commutativity than the program's observable
//! semantics allow?"* by replaying the transformed program under
//! systematically permuted region schedules and comparing every outcome
//! against the sequential oracle.
//!
//! * [`model`] — the deterministic abstract world: ordered, commutative
//!   and per-instance effect channels with multiset/sequence comparison,
//!   plus per-worker store buffers for relaxed-visibility campaigns.
//! * [`exec`] — the controlled executor: workers pause at commutative
//!   region entries; an explicit [`exec::Scheduler`] picks the next
//!   region; regions run atomically. Includes the [`exec::Recording`] /
//!   [`exec::Replay`] pair the shrinker is built on.
//! * [`explore`] — the DPOR-lite campaign driver: canonical / reverse /
//!   round-robin / delay-grid / seeded-chaos schedules (and their
//!   store-buffered `sb[w]:` variants) enumerated as independent
//!   [`explore::ScheduleSpec`]s up to a budget; the merged report names
//!   every violating schedule.
//! * [`pool`] — the deterministic work-stealing pool that fans the spec
//!   list across `--jobs` OS threads with a jobs-invariant partition plan.
//! * [`shrink`] — counterexample shrinking: greedily canonicalizes a
//!   violating schedule's decision trace to a locally-minimal one.
//! * [`report`] — verdict types and their rendering (including the
//!   `REPLAY:` reproduction line).
//! * [`fuzz`] — the annotation-soundness fuzzer: mutates the pragmas
//!   (drop a predicate, widen a set with `SELF`, strip `NoSync`) and
//!   asserts the checker flags the weakened variants; mutants fan out
//!   across the same pool.
//!
//! Everything is deterministic: a `(source, table, config)` triple always
//! explores the same schedules and reaches the same verdict — regardless
//! of `jobs` — so checker failures reproduce exactly.

pub mod exec;
pub mod explore;
pub mod fuzz;
pub mod model;
pub mod pool;
pub mod report;
pub mod shrink;

pub use exec::{
    render_interleaving, run_controlled, Canonical, Chaos, CheckError, ControlledOutcome, Delay,
    Recording, RegionExec, Replay, Reverse, RoundRobin, Scheduler,
};
pub use explore::{
    check_source, prepare_campaign, schedule_specs, Campaign, CheckConfig, PickerSpec,
    PreparedCampaign, ScheduleOutcome, ScheduleSpec,
};
pub use fuzz::{fuzz_annotations, FuzzOutcome, FuzzReport, Mutation};
pub use model::{ModelConfig, ModelWorld};
pub use report::{CheckFailure, CheckReport, ReplayInfo, Verdict, Violation};
pub use shrink::{shrink_schedule, ShrunkSchedule};
