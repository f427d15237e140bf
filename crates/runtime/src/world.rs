//! The virtual world: named, type-erased mutable state standing in for the
//! externally visible side effects of the paper's C programs (files,
//! console, RNG seeds, histograms, packet pools, allocators).
//!
//! Workloads install their own state objects under channel-like names; the
//! intrinsic handlers retrieve them with typed accessors. The DES executor
//! owns the world exclusively (simulated time serializes all access); the
//! thread executor wraps it in a mutex.

use crate::delta::DeltaBuffer;
use crate::intrinsics::Registry;
use std::any::Any;
use std::collections::BTreeMap;

/// Why a world slot access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotErrorKind {
    /// No slot of that name is installed.
    Missing,
    /// The slot exists but holds a different type.
    WrongType,
}

/// Structured payload carried by the panics of [`World::get`] and
/// [`World::get_mut`].
///
/// Slot wiring bugs are still programming errors, but they unwind with a
/// *typed* payload (via [`std::panic::panic_any`]) instead of a bare
/// string, so the thread executor's containment layer can map a bad
/// intrinsic to a structured `ExecError::WorkerFailed` naming the slot,
/// rather than letting an opaque panic kill the run's diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotError {
    /// The slot name the access used.
    pub slot: String,
    /// What went wrong.
    pub kind: SlotErrorKind,
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            SlotErrorKind::Missing => {
                write!(f, "world slot `{}` is not installed", self.slot)
            }
            SlotErrorKind::WrongType => {
                write!(f, "world slot `{}` has an unexpected type", self.slot)
            }
        }
    }
}

impl std::error::Error for SlotError {}

fn slot_panic(slot: &str, kind: SlotErrorKind) -> ! {
    std::panic::panic_any(SlotError {
        slot: slot.to_string(),
        kind,
    })
}

/// The world: a registry of named state objects.
#[derive(Default)]
pub struct World {
    slots: BTreeMap<String, Box<dyn Any + Send>>,
}

impl World {
    /// Creates an empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a state object under `name`.
    pub fn install<T: Any + Send>(&mut self, name: &str, state: T) {
        self.slots.insert(name.to_string(), Box::new(state));
    }

    /// Removes and returns the state object under `name`.
    pub fn take<T: Any + Send>(&mut self, name: &str) -> Option<T> {
        let boxed = self.slots.remove(name)?;
        match boxed.downcast::<T>() {
            Ok(b) => Some(*b),
            Err(original) => {
                // Put it back; wrong type requested.
                self.slots.insert(name.to_string(), original);
                None
            }
        }
    }

    /// Immutable access to the state object under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is missing or has a different type — both are
    /// workload wiring bugs, not runtime conditions.
    pub fn get<T: Any + Send>(&self, name: &str) -> &T {
        self.slots
            .get(name)
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::Missing))
            .downcast_ref::<T>()
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::WrongType))
    }

    /// Mutable access to the state object under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is missing or has a different type.
    pub fn get_mut<T: Any + Send>(&mut self, name: &str) -> &mut T {
        self.slots
            .get_mut(name)
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::Missing))
            .downcast_mut::<T>()
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::WrongType))
    }

    /// True if a slot named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.slots.contains_key(name)
    }

    /// Installed slot names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.slots.keys().map(String::as_str).collect()
    }

    /// Number of installed slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is installed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    // --- raw slot movement (the sharding layer's gather/scatter path) ---

    /// Installs a type-erased slot without unboxing it.
    pub fn install_boxed(&mut self, name: String, state: Box<dyn Any + Send>) {
        self.slots.insert(name, state);
    }

    /// Removes and returns a slot without downcasting it.
    pub fn take_boxed(&mut self, name: &str) -> Option<Box<dyn Any + Send>> {
        self.slots.remove(name)
    }

    /// Removes and returns every slot (name order), leaving the world
    /// empty. Used to partition a world into shards and to gather shard
    /// contents into a scratch world for a multi-shard intrinsic.
    pub fn drain_boxed(&mut self) -> Vec<(String, Box<dyn Any + Send>)> {
        std::mem::take(&mut self.slots).into_iter().collect()
    }

    /// Moves every slot of `other` into `self` (replacing collisions).
    pub fn absorb(&mut self, mut other: World) {
        self.slots.append(&mut other.slots);
    }

    /// Folds one privatized `delta` into slot `name` through the slot's
    /// declared merge operator; a missing slot is installed from the delta
    /// directly (identity base).
    ///
    /// # Panics
    ///
    /// Panics when `registry` declares no merge for the slot or the types
    /// mismatch (wiring bug).
    pub fn merge_delta(&mut self, registry: &Registry, name: String, delta: Box<dyn Any + Send>) {
        let spec = registry
            .merge_of(&name)
            .unwrap_or_else(|| panic!("delta slot `{name}` has no merge spec"));
        match self.take_boxed(&name) {
            Some(mut base) => {
                spec.apply(base.as_mut(), delta);
                self.install_boxed(name, base);
            }
            None => self.install_boxed(name, delta),
        }
    }

    /// Folds one worker's finished delta buffer into this world, slot by
    /// slot in name order (the single-owner twin of
    /// [`ShardedWorld::coalesce_delta`](crate::sharded::ShardedWorld::coalesce_delta)).
    /// Returns the number of slots merged.
    ///
    /// # Panics
    ///
    /// As [`World::merge_delta`].
    pub fn coalesce_delta(&mut self, registry: &Registry, buffer: DeltaBuffer) -> u64 {
        let mut merged = 0u64;
        for (name, delta) in buffer.drain() {
            self.merge_delta(registry, name, delta);
            merged += 1;
        }
        merged
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("slots", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_get_take() {
        let mut w = World::new();
        w.install("counter", 41u64);
        *w.get_mut::<u64>("counter") += 1;
        assert_eq!(*w.get::<u64>("counter"), 42);
        assert!(w.contains("counter"));
        assert_eq!(w.take::<u64>("counter"), Some(42));
        assert!(!w.contains("counter"));
    }

    #[test]
    fn wrong_type_take_preserves_slot() {
        let mut w = World::new();
        w.install("x", String::from("hello"));
        assert_eq!(w.take::<u64>("x"), None);
        assert_eq!(w.get::<String>("x"), "hello");
    }

    #[test]
    fn missing_slot_panics_with_structured_payload() {
        let payload = std::panic::catch_unwind(|| *World::new().get::<u64>("nope"))
            .expect_err("missing slot must panic");
        let err = payload
            .downcast_ref::<SlotError>()
            .expect("payload is a SlotError");
        assert_eq!(err.slot, "nope");
        assert_eq!(err.kind, SlotErrorKind::Missing);
        assert!(err.to_string().contains("not installed"));
    }

    #[test]
    fn wrong_type_panics_with_structured_payload() {
        let payload = std::panic::catch_unwind(|| {
            let mut w = World::new();
            w.install("x", String::from("hello"));
            *w.get::<u64>("x")
        })
        .expect_err("wrong type must panic");
        let err = payload
            .downcast_ref::<SlotError>()
            .expect("payload is a SlotError");
        assert_eq!(err.kind, SlotErrorKind::WrongType);
        assert!(err.to_string().contains("unexpected type"));
    }

    #[test]
    fn boxed_movement_round_trips() {
        let mut w = World::new();
        w.install("a", 1u64);
        w.install("b", 2u64);
        let boxed = w.take_boxed("a").expect("present");
        assert!(!w.contains("a"));
        let mut other = World::new();
        other.install_boxed("a".to_string(), boxed);
        assert_eq!(*other.get::<u64>("a"), 1);
        let drained = other.drain_boxed();
        assert_eq!(drained.len(), 1);
        assert!(other.is_empty());
        for (name, b) in drained {
            w.install_boxed(name, b);
        }
        let mut merged = World::new();
        merged.absorb(w);
        assert_eq!(merged.names(), vec!["a", "b"]);
        assert_eq!(merged.len(), 2);
    }
}
