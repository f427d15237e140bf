//! The intrinsic registry: executable handlers for `extern` functions.
//!
//! The compile-time half of an intrinsic (types, effect channels, base
//! cost) lives in `commset_ir::IntrinsicTable`; this registry holds the
//! runtime half — the handler closure operating on the [`World`], the
//! intrinsic's slot footprint and the slots' delta merges, all by name.
//! [`Registry::resolve`] turns the names into dense ids once per run: the
//! resulting [`Dispatch`] is what executors call through.

use crate::delta::{DeltaBuffer, MergeSpec};
use crate::value::Value;
use crate::world::{SlotId, SlotNames, World};
use std::collections::HashMap;
use std::sync::Arc;

/// What an intrinsic call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntrinsicOutcome {
    /// The returned value (ignored for `void` intrinsics).
    pub value: Value,
    /// Extra data-dependent simulated cost, added to the declared base
    /// cost (e.g. per-byte hashing work).
    pub extra_cost: u64,
    /// How much of the total cost is *serialized* on the intrinsic's write
    /// channels (shared-structure bookkeeping); the remainder is private
    /// compute that overlaps across virtual cores. `None` means the whole
    /// cost serializes (the conservative default).
    pub serialized_cost: Option<u64>,
}

impl IntrinsicOutcome {
    /// An outcome with no extra cost.
    pub fn value(v: impl Into<Value>) -> Self {
        IntrinsicOutcome {
            value: v.into(),
            extra_cost: 0,
            serialized_cost: None,
        }
    }

    /// A void outcome with no extra cost.
    pub fn unit() -> Self {
        IntrinsicOutcome {
            value: Value::Int(0),
            extra_cost: 0,
            serialized_cost: None,
        }
    }

    /// Adds data-dependent cost.
    pub fn with_cost(mut self, cost: u64) -> Self {
        self.extra_cost = cost;
        self
    }

    /// Declares that only `ser` of the total cost holds the write
    /// channels; the rest is private compute.
    pub fn with_serialized(mut self, ser: u64) -> Self {
        self.serialized_cost = Some(ser);
        self
    }
}

/// An intrinsic handler.
pub type Handler = Arc<dyn Fn(&mut World, &[Value]) -> IntrinsicOutcome + Send + Sync>;

/// How one intrinsic touches world slots — the workload-declared static
/// footprint the sharded world uses to route a call to its shard set
/// without holding the whole world.
///
/// These bindings mirror the CommSet structure the transform's sync
/// engine computes: a `Fixed` binding is a group-level (shared instance)
/// slot, a `Striped` binding is a per-instance family of slots
/// partitioned by one integer argument (handles, indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotBinding {
    /// The call always touches exactly this slot.
    Fixed(String),
    /// The call touches `"{base}#{k}"` where
    /// `k = args[arg] mod stripes` (see [`crate::sharded::stripe_of`]).
    Striped {
        /// Slot-family base name.
        base: String,
        /// Number of stripes the family is split into.
        stripes: usize,
        /// Index of the integer argument selecting the stripe.
        arg: usize,
    },
}

/// Where a call must execute, as resolved from its bindings and actual
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// No binding declared: the call may touch anything, so the whole
    /// world must be held (the conservative slow path).
    Whole,
    /// The call touches exactly these slots (possibly none, for pure
    /// intrinsics) — only their home shards need to be held.
    Slots(Vec<String>),
}

/// A dense handler id: an index into the registry's handler table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HandlerId(u32);

/// The handler registry: handlers in a dense table, slot bindings and
/// merge declarations by name. The names are consulted when a run starts
/// ([`Registry::resolve`]) and by the by-name wrappers; executors call
/// through the resolved [`Dispatch`].
#[derive(Default, Clone)]
pub struct Registry {
    handlers: Vec<Handler>,
    by_name: HashMap<String, HandlerId>,
    bindings: HashMap<String, Vec<SlotBinding>>,
    /// Declared delta merge operators.
    merges: Vec<MergeSpec>,
    /// Slot (or striped-family base) → its merge in `merges`.
    merge_by_slot: HashMap<String, usize>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for `name`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration (wiring bug).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut World, &[Value]) -> IntrinsicOutcome + Send + Sync + 'static,
    {
        let id = HandlerId(self.handlers.len() as u32);
        let prev = self.by_name.insert(name.to_string(), id);
        assert!(prev.is_none(), "duplicate intrinsic handler `{name}`");
        self.handlers.push(Arc::new(f));
    }

    /// Looks up a handler.
    pub fn get(&self, name: &str) -> Option<&Handler> {
        self.by_name
            .get(name)
            .map(|id| &self.handlers[id.0 as usize])
    }

    /// Declares the world-slot footprint of intrinsic `name`.
    ///
    /// An empty binding list marks the intrinsic *pure* with respect to
    /// the world (it still runs, but no shard lock is needed). Intrinsics
    /// without any declared binding route to the whole world.
    pub fn bind(&mut self, name: &str, bindings: Vec<SlotBinding>) {
        self.bindings.insert(name.to_string(), bindings);
    }

    /// The declared footprint of intrinsic `name`, if any.
    pub fn binding(&self, name: &str) -> Option<&[SlotBinding]> {
        self.bindings.get(name).map(Vec::as_slice)
    }

    /// True when at least one intrinsic has a declared slot footprint —
    /// the signal the executor uses to pick the sharded world by default.
    pub fn has_bindings(&self) -> bool {
        !self.bindings.is_empty()
    }

    /// Declares the delta merge operator for `slot` — either a concrete
    /// slot name (`"clustering"`) or a striped-family base (`"objs"`,
    /// covering every `objs#k`). Slots with a declared merge become
    /// eligible for per-worker delta privatization under
    /// `WorldMode::Deltas`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate declaration (wiring bug).
    pub fn declare_merge(&mut self, slot: &str, spec: MergeSpec) {
        let prev = self
            .merge_by_slot
            .insert(slot.to_string(), self.merges.len());
        assert!(prev.is_none(), "duplicate merge declaration for `{slot}`");
        self.merges.push(spec);
    }

    /// The index of the merge covering `slot`: an exact match wins, else
    /// the striped-family base (the part before `#`).
    fn merge_index(&self, slot: &str) -> Option<usize> {
        if let Some(&m) = self.merge_by_slot.get(slot) {
            return Some(m);
        }
        let base = slot.split('#').next().unwrap_or(slot);
        self.merge_by_slot.get(base).copied()
    }

    /// The merge spec covering `slot`: an exact match wins, else the
    /// striped-family base (the part before `#`).
    pub fn merge_of(&self, slot: &str) -> Option<&MergeSpec> {
        self.merge_index(slot).map(|m| &self.merges[m])
    }

    /// True when at least one slot has a declared merge operator — the
    /// precondition for `WorldMode::Deltas` to privatize anything.
    pub fn has_merges(&self) -> bool {
        !self.merges.is_empty()
    }

    /// Resolves the delta route for a call by name: `Some(slots)` when the
    /// call's footprint is known (bound) and *every* touched slot is
    /// merge-declared, so the whole call can run against a worker-private
    /// buffer. Pure calls (empty footprint) return `None` — they already
    /// run lock-free on the shared path. Mixed or unbound footprints
    /// return `None` and stay on the lock-mediated path. The by-id twin
    /// is [`Dispatch::delta_route`].
    pub fn delta_route(&self, name: &str, args: &[Value]) -> Option<Vec<String>> {
        match self.route(name, args) {
            Route::Whole => None,
            Route::Slots(slots) => {
                if slots.is_empty() || !slots.iter().all(|s| self.merge_of(s).is_some()) {
                    return None;
                }
                Some(slots)
            }
        }
    }

    /// True when *every* call of `name` is guaranteed to delta-route,
    /// whatever its arguments: the footprint is declared and each bound
    /// slot resolves to a merge operator (striped bindings through the
    /// family base, exactly as [`Registry::merge_of`] will at call
    /// time). Pure bindings (empty footprint) are covered too — they
    /// never touch the shared world. This is the static half of
    /// [`Registry::delta_route`]: executors use it to decide whether a
    /// CommSet region lock can be elided under `WorldMode::Deltas`.
    pub fn delta_covered(&self, name: &str) -> bool {
        match self.bindings.get(name) {
            None => false,
            Some(bs) => bs.iter().all(|b| match b {
                SlotBinding::Fixed(s) => self.merge_of(s).is_some(),
                SlotBinding::Striped { base, .. } => self.merge_of(base).is_some(),
            }),
        }
    }

    /// Resolves the shard route for a call of `name` with `args` by name
    /// (the by-id twin is [`Dispatch::route`]).
    pub fn route(&self, name: &str, args: &[Value]) -> Route {
        match self.bindings.get(name) {
            None => Route::Whole,
            Some(bs) => {
                let mut slots = Vec::with_capacity(bs.len());
                for b in bs {
                    match b {
                        SlotBinding::Fixed(s) => slots.push(s.clone()),
                        SlotBinding::Striped { base, stripes, arg } => {
                            let Some(v) = args.get(*arg) else {
                                return Route::Whole; // malformed call: be safe
                            };
                            let k = crate::sharded::stripe_of(v.as_int(), *stripes);
                            slots.push(crate::sharded::stripe_slot(base, k));
                        }
                    }
                }
                slots.sort_unstable();
                slots.dedup();
                Route::Slots(slots)
            }
        }
    }

    /// Invokes the handler for `name` (a by-name wrapper; executors call
    /// [`Dispatch::call`]).
    ///
    /// # Panics
    ///
    /// Panics if no handler is registered.
    pub fn call(&self, name: &str, world: &mut World, args: &[Value]) -> IntrinsicOutcome {
        match self.get(name) {
            Some(h) => h(world, args),
            None => panic!("no handler for intrinsic `{name}`"),
        }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Resolves this registry against one run: `intrinsics` lists the
    /// module's intrinsic names in id order, and every slot the bindings
    /// name is interned into `world`'s table (before the world is
    /// partitioned or shared). The [`Dispatch`] that comes back calls,
    /// routes and delta-routes by intrinsic id with no name lookup.
    /// Intrinsics without a handler are listed by [`Dispatch::missing`].
    pub fn resolve<'a>(
        &self,
        intrinsics: impl IntoIterator<Item = &'a str>,
        world: &mut World,
    ) -> Dispatch<'_> {
        let mut entries = Vec::new();
        for name in intrinsics {
            let bindings = self.bindings.get(name).map(Vec::as_slice);
            let footprint = bindings.map(|bs| {
                bs.iter()
                    .map(|b| match b {
                        SlotBinding::Fixed(s) => Bound::Fixed(world.intern(s)),
                        SlotBinding::Striped { base, stripes, arg } => Bound::Striped {
                            stripes: (0..*stripes)
                                .map(|k| world.intern(&crate::sharded::stripe_slot(base, k)))
                                .collect(),
                            arg: *arg,
                        },
                    })
                    .collect()
            });
            let min_args = bindings
                .into_iter()
                .flatten()
                .filter_map(|b| match b {
                    SlotBinding::Striped { arg, .. } => Some(arg + 1),
                    SlotBinding::Fixed(_) => None,
                })
                .max()
                .unwrap_or(0);
            entries.push(Entry {
                handler: self.by_name.get(name).copied(),
                footprint,
                min_args,
                covered: self.delta_covered(name),
            });
        }
        let names = Arc::clone(world.table());
        let slot_merge = (0..names.len())
            .map(|i| self.merge_index(names.name(SlotId(i as u32))))
            .collect();
        Dispatch {
            registry: self,
            names,
            entries,
            slot_merge,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("handlers", &self.names())
            .finish()
    }
}

/// One binding, resolved to slot ids.
#[derive(Debug)]
enum Bound {
    Fixed(SlotId),
    /// The slot id of `base#k` at index `k`; a call touches stripe
    /// `stripe_of(args[arg], stripes.len())`.
    Striped {
        stripes: Box<[SlotId]>,
        arg: usize,
    },
}

/// One intrinsic, resolved.
#[derive(Debug)]
struct Entry {
    handler: Option<HandlerId>,
    /// `None` when unbound (the whole-world route).
    footprint: Option<Box<[Bound]>>,
    /// Arguments a call needs for every stripe binding to find its key;
    /// a shorter call routes to the whole world.
    min_args: usize,
    /// [`Registry::delta_covered`].
    covered: bool,
}

/// A [`Registry`] resolved against one run's intrinsic table and world
/// ([`Registry::resolve`]): handlers, footprints and merges indexed by
/// intrinsic id and slot id. Built once at executor entry, shared by
/// every worker of the run.
pub struct Dispatch<'r> {
    registry: &'r Registry,
    /// The table every resolved [`SlotId`] indexes.
    names: Arc<SlotNames>,
    /// By intrinsic id.
    entries: Vec<Entry>,
    /// By slot id: the index of the slot's merge spec.
    slot_merge: Vec<Option<usize>>,
}

impl std::fmt::Debug for Dispatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatch")
            .field("intrinsics", &self.entries.len())
            .field("slots", &self.names.len())
            .finish()
    }
}

/// The slots one call touches, in binding order (duplicates possible),
/// resolved by id with no allocation.
#[derive(Clone)]
pub(crate) struct Footprint<'d> {
    bound: std::slice::Iter<'d, Bound>,
    args: &'d [Value],
}

impl Iterator for Footprint<'_> {
    type Item = SlotId;

    fn next(&mut self) -> Option<SlotId> {
        Some(match self.bound.next()? {
            Bound::Fixed(s) => *s,
            Bound::Striped { stripes, arg } => {
                stripes[crate::sharded::stripe_of(self.args[*arg].as_int(), stripes.len())]
            }
        })
    }
}

impl<'r> Dispatch<'r> {
    /// The registry this dispatch resolves.
    pub fn registry(&self) -> &'r Registry {
        self.registry
    }

    /// The name table every resolved slot id indexes.
    pub(crate) fn names(&self) -> &Arc<SlotNames> {
        &self.names
    }

    /// Intrinsic ids with no registered handler, ascending.
    pub fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.handler.is_none())
            .map(|(id, _)| id)
    }

    /// Invokes the handler of intrinsic `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no handler; executors reject such intrinsics
    /// before the run starts (see [`Dispatch::missing`]).
    pub fn call(&self, id: usize, world: &mut World, args: &[Value]) -> IntrinsicOutcome {
        match self.entries[id].handler {
            Some(h) => (self.registry.handlers[h.0 as usize])(world, args),
            None => panic!("no handler for intrinsic #{id}"),
        }
    }

    /// The slots a call of intrinsic `id` with `args` touches; `None` when
    /// it must hold the whole world (no declared footprint, or a stripe
    /// key argument missing).
    pub(crate) fn footprint<'d>(&'d self, id: usize, args: &'d [Value]) -> Option<Footprint<'d>> {
        let e = &self.entries[id];
        let bound = e.footprint.as_deref()?;
        (args.len() >= e.min_args).then(|| Footprint {
            bound: bound.iter(),
            args,
        })
    }

    /// The footprint of a call that runs against a worker-private delta
    /// buffer: bound, non-empty, and every touched slot merge-declared
    /// (the by-id [`Registry::delta_route`]).
    pub(crate) fn delta_footprint<'d>(
        &'d self,
        id: usize,
        args: &'d [Value],
    ) -> Option<Footprint<'d>> {
        let fp = self.footprint(id, args)?;
        if fp.bound.len() == 0 {
            return None;
        }
        let merged = self.entries[id].covered || fp.clone().all(|s| self.merge(s).is_some());
        merged.then_some(fp)
    }

    /// The slots a call of intrinsic `id` with `args` touches, as the
    /// sorted slot names of a [`Route`] (what executors route by, with no
    /// names built).
    pub fn route(&self, id: usize, args: &[Value]) -> Route {
        match self.footprint(id, args) {
            None => Route::Whole,
            Some(fp) => Route::Slots(self.slot_names(fp)),
        }
    }

    /// The slots a call of intrinsic `id` with `args` privatizes, as
    /// sorted slot names: `Some` when the footprint is bound, non-empty
    /// and wholly merge-declared (what [`Dispatch::delta_call`] runs
    /// against, with no names built).
    pub fn delta_route(&self, id: usize, args: &[Value]) -> Option<Vec<String>> {
        self.delta_footprint(id, args).map(|fp| self.slot_names(fp))
    }

    fn slot_names(&self, fp: Footprint<'_>) -> Vec<String> {
        let mut v: Vec<String> = fp.map(|s| self.names.name(s).to_string()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The merge spec of slot `id`.
    fn merge(&self, id: SlotId) -> Option<&'r MergeSpec> {
        let m = (*self.slot_merge.get(id.0 as usize)?)?;
        Some(&self.registry.merges[m])
    }

    /// A fresh private delta buffer over the resolved name table.
    pub fn delta_buffer(&self) -> DeltaBuffer {
        DeltaBuffer::over(&self.names)
    }

    /// The delta-route fast path: runs a call whose whole slot footprint
    /// is merge-declared against the worker's private buffer, creating
    /// each slot at its merge identity on first touch — no lock, no
    /// channel serialization. `None` when the worker has no buffer or the
    /// call is not delta-routed.
    pub fn delta_call(
        &self,
        id: usize,
        buf: Option<&mut DeltaBuffer>,
        args: &[Value],
    ) -> Option<IntrinsicOutcome> {
        let buf = buf?;
        let fp = self.delta_footprint(id, args)?;
        for s in fp {
            let to = buf.world.translate(&self.names, s);
            if !buf.world.contains_id(to) {
                let spec = self.merge(s).expect("delta footprints are merge-declared");
                buf.world.install_id(to, spec.fresh(self.names.name(s)));
            }
        }
        buf.applies += 1;
        Some(self.call(id, &mut buf.world, args))
    }

    /// The merge spec for slot `id` of a world over `names`: by id when
    /// `names` is the resolved table, by name otherwise.
    ///
    /// # Panics
    ///
    /// Panics when no merge covers the slot (wiring bug).
    pub(crate) fn merge_for(&self, names: &Arc<SlotNames>, id: SlotId) -> &'r MergeSpec {
        let by_id = Arc::ptr_eq(names, &self.names)
            .then(|| self.merge(id))
            .flatten();
        by_id
            .or_else(|| self.registry.merge_of(names.name(id)))
            .unwrap_or_else(|| panic!("delta slot `{}` has no merge spec", names.name(id)))
    }

    /// Folds one worker's finished delta buffer into `world`, slot by slot
    /// in id order. Returns the number of slots merged.
    ///
    /// # Panics
    ///
    /// Panics when a slot has no merge spec or the types mismatch (wiring
    /// bug — executors contain it like any handler panic).
    pub fn coalesce(&self, world: &mut World, buffer: DeltaBuffer) -> u64 {
        let Some((names, slots)) = buffer.into_slots() else {
            return 0;
        };
        let mut merged = 0u64;
        for (id, delta) in slots {
            let spec = self.merge_for(&names, id);
            let to = world.translate(&names, id);
            world.merge_id(to, spec, delta);
            merged += 1;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut reg = Registry::new();
        reg.register("bump", |world, args| {
            let c = world.get_mut::<i64>("counter");
            *c += args[0].as_int();
            IntrinsicOutcome::value(*c).with_cost(3)
        });
        let mut world = World::new();
        world.install("counter", 10i64);
        let out = reg.call("bump", &mut world, &[Value::Int(5)]);
        assert_eq!(out.value, Value::Int(15));
        assert_eq!(out.extra_cost, 3);
    }

    #[test]
    fn missing_handlers_are_listed_at_resolution() {
        let mut reg = Registry::new();
        reg.register("bump", |_, _| IntrinsicOutcome::unit());
        let d = reg.resolve(["nope", "bump", "gone"], &mut World::new());
        assert_eq!(d.missing().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.call(1, &mut World::new(), &[]), IntrinsicOutcome::unit());
        // The by-name wrapper still panics on an unregistered intrinsic.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.call("nope", &mut World::new(), &[])
        }))
        .expect_err("by-name call of a missing handler panics");
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("no handler"), "{msg}");
    }

    /// A registry over a striped `fs` family, a console and a merged
    /// accumulator.
    fn bound_registry() -> Registry {
        let mut reg = Registry::new();
        reg.register("pure", |_, _| IntrinsicOutcome::unit());
        reg.register("read", |w, args| {
            let k = crate::sharded::stripe_of(args[0].as_int(), 8);
            IntrinsicOutcome::value(*w.stripe::<i64>("fs", k))
        });
        reg.register("add", |w, args| {
            *w.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        reg.register("both", |_, _| IntrinsicOutcome::unit());
        reg.register("free", |_, _| IntrinsicOutcome::unit());
        let fs = |arg| SlotBinding::Striped {
            base: "fs".into(),
            stripes: 8,
            arg,
        };
        reg.bind("pure", vec![]);
        reg.bind("read", vec![fs(0)]);
        reg.bind("add", vec![SlotBinding::Fixed("acc".into())]);
        reg.bind(
            "both",
            vec![SlotBinding::Fixed("console".into()), fs(1), fs(1)],
        );
        reg.declare_merge("acc", crate::delta::MergeSpec::add_i64());
        reg.declare_merge("fs#3", crate::delta::MergeSpec::add_i64());
        reg
    }

    #[test]
    fn resolved_routes_name_the_same_slots_as_string_routes() {
        let reg = bound_registry();
        let names = ["pure", "read", "add", "both", "free"];
        let d = reg.resolve(names, &mut World::new());
        for (id, name) in names.iter().enumerate() {
            for args in [&[][..], &[Value::Int(11)], &[Value::Int(-1), Value::Int(3)]] {
                assert_eq!(d.route(id, args), reg.route(name, args), "{name}{args:?}");
                assert_eq!(
                    d.delta_route(id, args),
                    reg.delta_route(name, args),
                    "{name}{args:?}"
                );
            }
        }
        // An exact `fs#3` merge delta-routes stripe 3 only.
        assert_eq!(
            d.delta_route(1, &[Value::Int(11)]),
            Some(vec!["fs#3".into()])
        );
        assert_eq!(d.delta_route(1, &[Value::Int(12)]), None);
    }

    #[test]
    fn resolved_calls_and_delta_calls_run_by_id() {
        let reg = bound_registry();
        let mut world = World::new();
        for k in 0..8 {
            world.install(&crate::sharded::stripe_slot("fs", k), k as i64 * 10);
        }
        world.install("acc", 1i64);
        let d = reg.resolve(["read", "add"], &mut world);
        assert_eq!(
            d.call(0, &mut world, &[Value::Int(13)]).value,
            Value::Int(50)
        );
        let mut buf = d.delta_buffer();
        assert!(d.delta_call(0, Some(&mut buf), &[Value::Int(13)]).is_none());
        assert!(d.delta_call(1, None, &[Value::Int(1)]).is_none());
        for v in [2, 3] {
            d.delta_call(1, Some(&mut buf), &[Value::Int(v)])
                .expect("merged");
        }
        assert_eq!(buf.applies, 2);
        assert_eq!(d.coalesce(&mut world, buf), 1);
        assert_eq!(*world.get::<i64>("acc"), 6);
    }

    #[test]
    fn routes_resolve_from_bindings() {
        let mut reg = Registry::new();
        assert!(!reg.has_bindings());
        assert_eq!(reg.route("anything", &[]), Route::Whole);
        reg.bind("pure", vec![]);
        reg.bind("fixed", vec![SlotBinding::Fixed("console".into())]);
        reg.bind(
            "striped",
            vec![SlotBinding::Striped {
                base: "fs".into(),
                stripes: 8,
                arg: 0,
            }],
        );
        reg.bind(
            "both",
            vec![
                SlotBinding::Fixed("console".into()),
                SlotBinding::Striped {
                    base: "fs".into(),
                    stripes: 8,
                    arg: 1,
                },
            ],
        );
        assert!(reg.has_bindings());
        assert_eq!(reg.route("pure", &[]), Route::Slots(vec![]));
        assert_eq!(
            reg.route("fixed", &[]),
            Route::Slots(vec!["console".into()])
        );
        assert_eq!(
            reg.route("striped", &[Value::Int(11)]),
            Route::Slots(vec!["fs#3".into()])
        );
        assert_eq!(
            reg.route("both", &[Value::Int(0), Value::Int(9)]),
            Route::Slots(vec!["console".into(), "fs#1".into()])
        );
        // Missing stripe argument degrades to the safe whole-world route.
        assert_eq!(reg.route("striped", &[]), Route::Whole);
        // Unbound names stay on the whole-world route.
        assert_eq!(reg.route("unbound", &[]), Route::Whole);
    }

    #[test]
    fn delta_routes_require_fully_merged_footprints() {
        let mut reg = Registry::new();
        reg.bind("pure", vec![]);
        reg.bind("acc_add", vec![SlotBinding::Fixed("acc".into())]);
        reg.bind(
            "obj_touch",
            vec![SlotBinding::Striped {
                base: "objs".into(),
                stripes: 8,
                arg: 0,
            }],
        );
        reg.bind(
            "mixed",
            vec![
                SlotBinding::Fixed("acc".into()),
                SlotBinding::Fixed("console".into()),
            ],
        );
        assert!(!reg.has_merges());
        assert_eq!(reg.delta_route("acc_add", &[]), None, "no merge declared");

        reg.declare_merge("acc", crate::delta::MergeSpec::add_i64());
        reg.declare_merge("objs", crate::delta::MergeSpec::add_i64());
        assert!(reg.has_merges());
        assert_eq!(reg.delta_route("acc_add", &[]), Some(vec!["acc".into()]));
        // Striped slots resolve through the family base.
        assert_eq!(
            reg.delta_route("obj_touch", &[Value::Int(11)]),
            Some(vec!["objs#3".into()])
        );
        assert!(reg.merge_of("objs#5").is_some());
        // Pure calls are already lock-free; mixed and unbound footprints
        // stay on the lock-mediated path.
        assert_eq!(reg.delta_route("pure", &[]), None);
        assert_eq!(reg.delta_route("mixed", &[]), None);
        assert_eq!(reg.delta_route("unbound", &[]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate merge declaration")]
    fn duplicate_merge_declaration_panics() {
        let mut reg = Registry::new();
        reg.declare_merge("acc", crate::delta::MergeSpec::add_i64());
        reg.declare_merge("acc", crate::delta::MergeSpec::max_i64());
    }

    #[test]
    #[should_panic(expected = "duplicate intrinsic handler")]
    fn duplicate_registration_panics() {
        let mut reg = Registry::new();
        reg.register("x", |_, _| IntrinsicOutcome::unit());
        reg.register("x", |_, _| IntrinsicOutcome::unit());
    }
}
