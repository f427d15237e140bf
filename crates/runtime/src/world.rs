//! The virtual world: named, type-erased mutable state standing in for the
//! externally visible side effects of the paper's C programs (files,
//! console, RNG seeds, histograms, packet pools, allocators).
//!
//! Workloads install their own state objects under channel-like names; the
//! intrinsic handlers retrieve them with typed accessors. The DES executor
//! owns the world exclusively (simulated time serializes all access); the
//! thread executor wraps it in a mutex or shards it.
//!
//! Slots live in a `Vec` indexed by a dense `SlotId`. The name → id map
//! is a `SlotNames` table shared (behind an `Arc`) by every world derived
//! from one another — shards, gather scratch worlds and delta buffers — so
//! moving a slot between them moves a box by id, with no name lookup and
//! no `String`. The table is append-only and copy-on-write: installing a
//! name the shared table lacks gives that one world its own extended copy,
//! and movement between worlds whose tables differ falls back to names.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a world slot access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotErrorKind {
    /// No slot of that name is installed.
    Missing,
    /// The slot exists but holds a different type.
    WrongType,
}

/// Structured payload carried by the panics of [`World::get`] and
/// [`World::get_mut`] (and [`World::stripe`] / [`World::stripe_mut`]).
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

/// Type-erased slots taken out of a world, by id.
pub(crate) type BoxedSlots = Vec<(SlotId, Box<dyn Any + Send>)>;

/// A dense world-slot id: an index into one [`SlotNames`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotId(pub(crate) u32);

impl SlotId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The slot-name interner worlds share: names by [`SlotId`], ids by name,
/// and the striped families (`base#k`) by base and stripe index.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotNames {
    names: Vec<String>,
    ids: BTreeMap<String, SlotId>,
    /// `base` → the id of `base#k` at index `k` (`None` where `base#k` was
    /// never interned).
    stripes: BTreeMap<String, Vec<Option<SlotId>>>,
}

impl SlotNames {
    /// The id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<SlotId> {
        self.ids.get(name).copied()
    }

    /// The id of stripe `k` of the `base` family (`"fs"`, 3 → `fs#3`), if
    /// interned.
    pub fn stripe(&self, base: &str, k: usize) -> Option<SlotId> {
        self.stripes.get(base)?.get(k).copied().flatten()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: SlotId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    fn intern(&mut self, name: &str) -> SlotId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = SlotId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        if let Some((base, k)) = name.rsplit_once('#') {
            if let Ok(k) = k.parse::<usize>() {
                let family = self.stripes.entry(base.to_string()).or_default();
                if family.len() <= k {
                    family.resize(k + 1, None);
                }
                family[k] = Some(id);
            }
        }
        id
    }
}

/// The world: a table of named state objects.
#[derive(Default)]
pub struct World {
    /// The shared name table; `None` until the first name is interned, so
    /// an empty world costs no allocation.
    names: Option<Arc<SlotNames>>,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    /// Number of installed slots.
    len: usize,
}

impl World {
    /// Creates an empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty world over this world's name table: slots move between
    /// the two by id.
    pub(crate) fn sharing(&self) -> World {
        World {
            names: self.names.clone(),
            ..World::default()
        }
    }

    /// An empty world over the name table `names`.
    pub(crate) fn over(names: &Arc<SlotNames>) -> World {
        World {
            names: Some(Arc::clone(names)),
            ..World::default()
        }
    }

    /// The name table, if any name was ever interned.
    pub(crate) fn name_table(&self) -> Option<&Arc<SlotNames>> {
        self.names.as_ref()
    }

    /// The name table, created empty if the world has none yet.
    pub(crate) fn table(&mut self) -> &Arc<SlotNames> {
        self.names.get_or_insert_with(Arc::default)
    }

    /// True when `names` is this world's name table.
    pub(crate) fn uses(&self, names: &Arc<SlotNames>) -> bool {
        self.names.as_ref().is_some_and(|n| Arc::ptr_eq(n, names))
    }

    /// Interns `name` into this world's table (without installing a
    /// slot), returning its id. A table shared with other worlds is copied
    /// first if the name is new.
    pub(crate) fn intern(&mut self, name: &str) -> SlotId {
        if let Some(id) = self.id(name) {
            return id;
        }
        Arc::make_mut(self.names.get_or_insert_with(Arc::default)).intern(name)
    }

    /// The id of `name` in this world's table, if interned.
    pub(crate) fn id(&self, name: &str) -> Option<SlotId> {
        self.names.as_ref()?.get(name)
    }

    /// The name of `id` in this world's table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this world's table.
    pub(crate) fn name_of(&self, id: SlotId) -> &str {
        self.names
            .as_ref()
            .expect("slot id of a world without a name table")
            .name(id)
    }

    /// Installs (or replaces) a state object under `name`.
    pub fn install<T: Any + Send>(&mut self, name: &str, state: T) {
        let id = self.intern(name);
        self.install_id(id, Box::new(state));
    }

    /// Removes and returns the state object under `name`.
    pub fn take<T: Any + Send>(&mut self, name: &str) -> Option<T> {
        let id = self.id(name)?;
        match self.take_id(id)?.downcast::<T>() {
            Ok(b) => Some(*b),
            Err(original) => {
                // Put it back; wrong type requested.
                self.install_id(id, original);
                None
            }
        }
    }

    fn slot(&self, id: Option<SlotId>) -> Option<&(dyn Any + Send)> {
        self.slots.get(id?.index())?.as_deref()
    }

    fn slot_mut(&mut self, id: Option<SlotId>) -> Option<&mut (dyn Any + Send)> {
        self.slots.get_mut(id?.index())?.as_deref_mut()
    }

    /// Immutable access to the state object under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is missing or has a different type — both are
    /// workload wiring bugs, not runtime conditions.
    pub fn get<T: Any + Send>(&self, name: &str) -> &T {
        self.slot(self.id(name))
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
        self.slot_mut(self.id(name))
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::Missing))
            .downcast_mut::<T>()
            .unwrap_or_else(|| slot_panic(name, SlotErrorKind::WrongType))
    }

    /// The id of stripe `k` of the `base` family.
    fn stripe_id(&self, base: &str, k: usize) -> Option<SlotId> {
        self.names.as_ref()?.stripe(base, k)
    }

    /// Immutable access to stripe `k` of the `base` slot family (the slot
    /// named `base#k`), with no name formatted unless the access fails.
    ///
    /// # Panics
    ///
    /// As [`World::get`].
    pub fn stripe<T: Any + Send>(&self, base: &str, k: usize) -> &T {
        let name = || crate::sharded::stripe_slot(base, k);
        self.slot(self.stripe_id(base, k))
            .unwrap_or_else(|| slot_panic(&name(), SlotErrorKind::Missing))
            .downcast_ref::<T>()
            .unwrap_or_else(|| slot_panic(&name(), SlotErrorKind::WrongType))
    }

    /// Mutable access to stripe `k` of the `base` slot family.
    ///
    /// # Panics
    ///
    /// As [`World::get`].
    pub fn stripe_mut<T: Any + Send>(&mut self, base: &str, k: usize) -> &mut T {
        let name = || crate::sharded::stripe_slot(base, k);
        let id = self.stripe_id(base, k);
        self.slot_mut(id)
            .unwrap_or_else(|| slot_panic(&name(), SlotErrorKind::Missing))
            .downcast_mut::<T>()
            .unwrap_or_else(|| slot_panic(&name(), SlotErrorKind::WrongType))
    }

    /// True if a slot named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.slot(self.id(name)).is_some()
    }

    /// True if slot `id` is installed.
    pub(crate) fn contains_id(&self, id: SlotId) -> bool {
        self.slot(Some(id)).is_some()
    }

    /// Installed slot names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.ids().map(|id| self.name_of(id)).collect();
        v.sort_unstable();
        v
    }

    /// Number of installed slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // --- raw slot movement (the sharding and delta layers' path) ---

    /// Installed slot ids, ascending.
    fn ids(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .map(|i| SlotId(i as u32))
    }

    /// Installs a type-erased slot under an id of this world's table.
    pub(crate) fn install_id(&mut self, id: SlotId, state: Box<dyn Any + Send>) {
        let i = id.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(state).is_none() {
            self.len += 1;
        }
    }

    /// Removes and returns slot `id` without downcasting it.
    pub(crate) fn take_id(&mut self, id: SlotId) -> Option<Box<dyn Any + Send>> {
        let taken = self.slots.get_mut(id.index())?.take();
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// Removes and returns every slot in id order, leaving the world empty
    /// (its name table stays).
    pub(crate) fn drain_ids(&mut self) -> BoxedSlots {
        self.len = 0;
        std::mem::take(&mut self.slots)
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|b| (SlotId(i as u32), b)))
            .collect()
    }

    /// The id in this world's table of slot `id` of a world over `names`:
    /// the same id when the two share one table (an empty world without a
    /// table adopts `names`), else the name re-interned here.
    pub(crate) fn translate(&mut self, names: &Arc<SlotNames>, id: SlotId) -> SlotId {
        if self.names.is_none() && self.is_empty() {
            self.names = Some(Arc::clone(names));
        }
        if self.uses(names) {
            id
        } else {
            self.intern(names.name(id))
        }
    }

    /// Moves every slot of `from` into `self` (replacing collisions).
    pub fn absorb(&mut self, mut from: World) {
        from.move_into(self);
    }

    /// Moves every slot of this world into `to` (replacing collisions),
    /// by id when the two share one name table; this world is left empty.
    pub(crate) fn move_into(&mut self, to: &mut World) {
        let Some(names) = &self.names else {
            return;
        };
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(b) = slot.take() {
                let id = to.translate(names, SlotId(i as u32));
                to.install_id(id, b);
            }
        }
        self.len = 0;
    }

    /// Installs a type-erased slot without unboxing it.
    pub fn install_boxed(&mut self, name: String, state: Box<dyn Any + Send>) {
        let id = self.intern(&name);
        self.install_id(id, state);
    }

    /// Removes and returns a slot without downcasting it.
    pub fn take_boxed(&mut self, name: &str) -> Option<Box<dyn Any + Send>> {
        self.take_id(self.id(name)?)
    }

    /// Removes and returns every slot (name order), leaving the world
    /// empty.
    pub fn drain_boxed(&mut self) -> Vec<(String, Box<dyn Any + Send>)> {
        let names = self.names.clone();
        let mut out: Vec<(String, Box<dyn Any + Send>)> = self
            .drain_ids()
            .into_iter()
            .map(|(id, b)| {
                let names = names.as_ref().expect("installed slots have names");
                (names.name(id).to_string(), b)
            })
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Folds `delta` into slot `id` through `spec`; a missing slot is
    /// installed from the delta directly (identity base).
    pub(crate) fn merge_id(
        &mut self,
        id: SlotId,
        spec: &crate::delta::MergeSpec,
        delta: Box<dyn Any + Send>,
    ) {
        match self.slot_mut(Some(id)) {
            Some(base) => spec.apply(base, delta),
            None => self.install_id(id, delta),
        }
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

    #[test]
    fn stripes_resolve_by_base_and_index() {
        let mut w = World::new();
        w.install("fs#3", 7u64);
        w.install("fs#0", 1u64);
        *w.stripe_mut::<u64>("fs", 3) += 1;
        assert_eq!(*w.stripe::<u64>("fs", 3), 8);
        assert_eq!(*w.stripe::<u64>("fs", 0), 1);
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| *w.stripe::<u64>("fs", 2)))
                .expect_err("missing stripe must panic");
        let err = payload.downcast_ref::<SlotError>().expect("a SlotError");
        assert_eq!(
            err.slot, "fs#2",
            "the error names the slot through the table"
        );
    }

    #[test]
    fn worlds_sharing_a_table_move_slots_by_id() {
        let mut w = World::new();
        w.install("a", 1u64);
        w.install("b", 2u64);
        let id = w.id("b").expect("interned");
        let mut other = w.sharing();
        other.install_id(id, w.take_id(id).expect("installed"));
        assert!(Arc::ptr_eq(
            w.name_table().unwrap(),
            other.name_table().unwrap()
        ));
        assert_eq!(*other.get::<u64>("b"), 2);
        assert_eq!((w.len(), other.len()), (1, 1));
        other.move_into(&mut w);
        assert_eq!(w.names(), vec!["a", "b"]);
        assert!(other.is_empty());
    }

    #[test]
    fn a_new_name_copies_a_shared_table_and_moves_fall_back_to_names() {
        let mut w = World::new();
        w.install("a", 1u64);
        let mut other = w.sharing();
        other.install("fresh", 5u64);
        assert!(!Arc::ptr_eq(
            w.name_table().unwrap(),
            other.name_table().unwrap()
        ));
        assert_eq!(w.id("fresh"), None, "the shared table is untouched");
        w.absorb(other);
        assert_eq!(*w.get::<u64>("fresh"), 5);
        assert_eq!(*w.get::<u64>("a"), 1);
    }
}
