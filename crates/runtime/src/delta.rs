//! Delta privatization: per-worker buffers for commutative updates.
//!
//! A [`MergeSpec`] declares how a world slot behaves as a *delta slot*:
//! how to make a fresh (identity) private buffer for one worker, and how
//! to fold one worker's accumulated delta back into the shared slot at
//! the section barrier. Calls whose entire slot footprint is
//! merge-declared can run against a worker-private [`World`] with no
//! shard lock and no STM at all; the executors coalesce the buffers in
//! worker-index order (then slot-id order inside each buffer), so the
//! result is deterministic whenever every merge operator is commutative
//! and associative with the declared identity — the contract the effects
//! sidecar's `merge` rows state and the checker's privatized-delta model
//! verifies.
//!
//! This is the CCD-style regime of Balaji/Tirumala/Lucia, *Flexible
//! Support for Fast Parallel Commutative Updates*: reduction-shaped hot
//! paths (histogram counters, k-means centroid sums, ECLAT tid-lists)
//! stop paying per-update lock traffic entirely.

use crate::world::{BoxedSlots, SlotNames, World};
use std::any::Any;
use std::sync::Arc;

/// Panic payload used for injected delta-coalesce poisoning, recognizable
/// by the containment layer and in the error it reports.
pub const DELTA_POISON_MSG: &str = "injected delta poison (fault plan)";

/// Identity constructor for one delta slot. Receives the concrete slot
/// name (so striped families like `objs#3` can build stripe-specific
/// state) and returns a fresh private buffer equal to the merge
/// operator's identity element.
pub type DeltaInit = Arc<dyn Fn(&str) -> Box<dyn Any + Send> + Send + Sync>;

/// Merge operator: folds a finished worker delta (right) into the shared
/// base slot (left). Must be commutative and associative over deltas with
/// the init value as identity.
pub type DeltaMerge = Arc<dyn Fn(&mut (dyn Any + Send), Box<dyn Any + Send>) + Send + Sync>;

/// The declared merge behavior of one delta-eligible slot (or striped
/// slot family).
#[derive(Clone)]
pub struct MergeSpec {
    /// Operator label (`add`, `max`, `set-union`, `custom(f)`, …) —
    /// informational, used in diagnostics and stats.
    pub op: String,
    init: DeltaInit,
    merge: DeltaMerge,
}

impl MergeSpec {
    /// A merge spec over a concrete slot type `T`.
    ///
    /// `init` builds the identity buffer for a slot name; `merge` folds a
    /// worker's delta into the base. Type mismatches panic with a wiring
    /// message (same containment path as [`World`] slot errors).
    pub fn custom<T, I, M>(op: &str, init: I, merge: M) -> Self
    where
        T: Any + Send,
        I: Fn(&str) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let label = op.to_string();
        let op_m = label.clone();
        MergeSpec {
            op: label,
            init: Arc::new(move |slot| Box::new(init(slot)) as Box<dyn Any + Send>),
            merge: Arc::new(move |base, delta| {
                let base = base
                    .downcast_mut::<T>()
                    .unwrap_or_else(|| panic!("merge `{op_m}`: base slot has an unexpected type"));
                let delta = *delta
                    .downcast::<T>()
                    .unwrap_or_else(|_| panic!("merge `{op_m}`: delta has an unexpected type"));
                merge(base, delta);
            }),
        }
    }

    /// `merge add` over an `i64` counter slot (identity 0).
    pub fn add_i64() -> Self {
        MergeSpec::custom::<i64, _, _>("add", |_| 0, |base, d| *base += d)
    }

    /// `merge max` over an `i64` slot (identity `i64::MIN`).
    pub fn max_i64() -> Self {
        MergeSpec::custom::<i64, _, _>("max", |_| i64::MIN, |base, d| *base = (*base).max(d))
    }

    /// `merge set-union` over a `Vec<i64>` slot: the delta's elements are
    /// appended (duplicates collapse under the workload's own validation
    /// ordering; identity is the empty vec).
    pub fn union_vec_i64() -> Self {
        MergeSpec::custom::<Vec<i64>, _, _>(
            "set-union",
            |_| Vec::new(),
            |base, mut d| base.append(&mut d),
        )
    }

    /// Builds the identity buffer for `slot`.
    pub fn fresh(&self, slot: &str) -> Box<dyn Any + Send> {
        (self.init)(slot)
    }

    /// Folds `delta` into `base`.
    ///
    /// # Panics
    ///
    /// Panics when either side's concrete type does not match the spec
    /// (wiring bug — contained by the executors like any handler panic).
    pub fn apply(&self, base: &mut (dyn Any + Send), delta: Box<dyn Any + Send>) {
        (self.merge)(base, delta)
    }
}

impl std::fmt::Debug for MergeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeSpec").field("op", &self.op).finish()
    }
}

/// Counters of one run's delta-privatized activity (all zero when the
/// delta world mode was not used).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaSnapshot {
    /// World calls routed to a private per-worker buffer (no shard lock,
    /// no STM).
    pub applies: u64,
    /// Section-barrier coalesce passes (one per worker with a non-empty
    /// buffer).
    pub coalesces: u64,
    /// Slots folded back into the shared world across all coalesces.
    pub merged_slots: u64,
    /// CommSet region lock acquisitions elided because every intrinsic
    /// the lock guards is delta-covered — privatized effects are
    /// invisible to siblings until the barrier, so the region needs no
    /// mutual exclusion at all (the CCD payoff beyond lock-free world
    /// updates).
    pub lock_elisions: u64,
}

impl DeltaSnapshot {
    /// Accumulates another snapshot (section roll-up).
    pub fn absorb(&mut self, other: DeltaSnapshot) {
        self.applies += other.applies;
        self.coalesces += other.coalesces;
        self.merged_slots += other.merged_slots;
        self.lock_elisions += other.lock_elisions;
    }
}

/// One worker's private delta buffer: a [`World`] holding only
/// merge-declared slots, initialized lazily to each operator's identity.
/// Executors take theirs from [`Dispatch::delta_buffer`](crate::Dispatch::delta_buffer),
/// so it shares the run's slot-name table and folds back by slot id.
#[derive(Default)]
pub struct DeltaBuffer {
    pub(crate) world: World,
    /// Calls applied to this buffer.
    pub applies: u64,
    /// Region-lock acquisitions this worker skipped (see
    /// [`DeltaSnapshot::lock_elisions`]).
    pub lock_elisions: u64,
}

impl DeltaBuffer {
    /// An empty buffer with its own name table.
    pub fn new() -> Self {
        DeltaBuffer::default()
    }

    /// An empty buffer over the name table `names`.
    pub(crate) fn over(names: &Arc<SlotNames>) -> Self {
        DeltaBuffer {
            world: World::over(names),
            ..DeltaBuffer::default()
        }
    }

    /// True when no slot was ever touched (coalesce can skip it).
    pub fn is_empty(&self) -> bool {
        self.world.is_empty()
    }

    /// Runs one delta-routed call by name against the private buffer,
    /// creating identity slots for `slots` on first touch (the by-name
    /// twin of [`Dispatch::delta_call`](crate::Dispatch::delta_call)).
    pub fn apply(
        &mut self,
        registry: &crate::intrinsics::Registry,
        name: &str,
        args: &[crate::value::Value],
        slots: &[String],
    ) -> crate::intrinsics::IntrinsicOutcome {
        for s in slots {
            if !self.world.contains(s) {
                let spec = registry.merge_of(s).unwrap_or_else(|| {
                    panic!("slot `{s}` routed to a delta buffer without a merge spec")
                });
                self.world.install_boxed(s.clone(), spec.fresh(s));
            }
        }
        self.applies += 1;
        registry.call(name, &mut self.world, args)
    }

    /// Tears the buffer down into `(slot, delta)` pairs in slot-name
    /// order.
    pub fn drain(mut self) -> Vec<(String, Box<dyn Any + Send>)> {
        self.world.drain_boxed()
    }

    /// Tears the buffer down into its name table and `(slot id, delta)`
    /// pairs in id order (the deterministic coalesce order within one
    /// worker); `None` when nothing was ever touched.
    pub(crate) fn into_slots(mut self) -> Option<(Arc<SlotNames>, BoxedSlots)> {
        let slots = self.world.drain_ids();
        let names = self.world.name_table()?.clone();
        Some((names, slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_merges_fold_with_identity() {
        let add = MergeSpec::add_i64();
        let mut base: Box<dyn Any + Send> = add.fresh("acc");
        add.apply(base.as_mut(), Box::new(5i64));
        add.apply(base.as_mut(), Box::new(-2i64));
        assert_eq!(*base.downcast::<i64>().unwrap(), 3);

        let max = MergeSpec::max_i64();
        let mut m: Box<dyn Any + Send> = max.fresh("hi");
        max.apply(m.as_mut(), Box::new(7i64));
        max.apply(m.as_mut(), Box::new(3i64));
        assert_eq!(*m.downcast::<i64>().unwrap(), 7);

        let union = MergeSpec::union_vec_i64();
        let mut u: Box<dyn Any + Send> = union.fresh("set");
        union.apply(u.as_mut(), Box::new(vec![1i64, 2]));
        union.apply(u.as_mut(), Box::new(vec![3i64]));
        assert_eq!(*u.downcast::<Vec<i64>>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn type_mismatch_is_a_wiring_panic() {
        let add = MergeSpec::add_i64();
        let mut base: Box<dyn Any + Send> = Box::new(String::new());
        add.apply(base.as_mut(), Box::new(1i64));
    }

    #[test]
    fn snapshot_absorbs() {
        let mut a = DeltaSnapshot {
            applies: 2,
            coalesces: 1,
            merged_slots: 3,
            lock_elisions: 5,
        };
        a.absorb(DeltaSnapshot {
            applies: 1,
            coalesces: 1,
            merged_slots: 1,
            lock_elisions: 2,
        });
        assert_eq!(
            a,
            DeltaSnapshot {
                applies: 3,
                coalesces: 2,
                merged_slots: 4,
                lock_elisions: 7
            }
        );
    }
}
