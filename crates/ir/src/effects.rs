//! Intrinsic effect signatures.
//!
//! Cmm programs interact with mutable shared state (files, consoles, RNG
//! seeds, histograms, packet pools, ...) exclusively through `extern`
//! intrinsics. Each intrinsic declares the abstract *channels* it reads and
//! writes; the PDG builder turns channel conflicts into memory dependence
//! edges, exactly as the paper's compiler derives memory flow dependences
//! from calls with externally visible side effects (§2, §4.3).

use commset_lang::ast::Type;
use std::collections::HashMap;

/// An interned abstract memory channel (e.g. `FS`, `CONSOLE`, `RNG_SEED`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Interner for channel names.
#[derive(Debug, Clone, Default)]
pub struct ChannelSet {
    names: Vec<String>,
    ids: HashMap<String, ChannelId>,
}

impl ChannelSet {
    /// Creates an empty channel set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> ChannelId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = ChannelId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned channel.
    pub fn get(&self, name: &str) -> Option<ChannelId> {
        self.ids.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this set.
    pub fn name(&self, id: ChannelId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned channels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no channel has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The compile-time signature of an intrinsic: its type, its effect
/// channels, and its base simulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectSig {
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Channels the intrinsic may read.
    pub reads: Vec<ChannelId>,
    /// Channels the intrinsic may write.
    pub writes: Vec<ChannelId>,
    /// Base cost in simulated time units charged per call (the intrinsic's
    /// runtime implementation may report additional data-dependent cost).
    pub base_cost: u64,
}

impl EffectSig {
    /// True if the intrinsic touches no channel at all.
    pub fn is_pure(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// A named intrinsic with its signature, plus interned channels — the
/// compile-time view of the runtime's intrinsic registry.
#[derive(Debug, Clone, Default)]
pub struct IntrinsicTable {
    /// Channel interner shared by all signatures.
    pub channels: ChannelSet,
    sigs: Vec<(String, EffectSig)>,
    by_name: HashMap<String, usize>,
    /// Channels whose state is partitioned per handle *instance* (e.g. the
    /// contents of a dynamically allocated matrix): accesses conflict only
    /// when they may target the same instance.
    per_instance: std::collections::BTreeSet<ChannelId>,
    /// Intrinsics returning a *fresh* instance handle on every call (the
    /// allocation-site freshness the paper's pointer analysis exploits).
    fresh_handles: std::collections::BTreeSet<String>,
}

impl IntrinsicTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an intrinsic. `reads` / `writes` are channel names,
    /// interned on the fly. Returns the intrinsic's index.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered (intrinsic sets are built
    /// programmatically; a duplicate is a bug in the embedder).
    pub fn register(
        &mut self,
        name: &str,
        params: Vec<Type>,
        ret: Type,
        reads: &[&str],
        writes: &[&str],
        base_cost: u64,
    ) -> usize {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate intrinsic `{name}`"
        );
        let sig = EffectSig {
            params,
            ret,
            reads: reads.iter().map(|c| self.channels.intern(c)).collect(),
            writes: writes.iter().map(|c| self.channels.intern(c)).collect(),
            base_cost,
        };
        let idx = self.sigs.len();
        self.by_name.insert(name.to_string(), idx);
        self.sigs.push((name.to_string(), sig));
        idx
    }

    /// Looks up an intrinsic by name.
    pub fn lookup(&self, name: &str) -> Option<(usize, &EffectSig)> {
        self.by_name.get(name).map(|&i| (i, &self.sigs[i].1))
    }

    /// The signature at `idx`.
    pub fn sig(&self, idx: usize) -> &EffectSig {
        &self.sigs[idx].1
    }

    /// The name at `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.sigs[idx].0
    }

    /// Number of registered intrinsics.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True if no intrinsic is registered.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Iterates over `(name, sig)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EffectSig)> {
        self.sigs.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Marks a channel as instance-partitioned: its accesses conflict only
    /// when they may target the same handle instance.
    pub fn mark_per_instance(&mut self, channel: &str) {
        let id = self.channels.intern(channel);
        self.per_instance.insert(id);
    }

    /// True if `channel` is instance-partitioned.
    pub fn is_per_instance(&self, channel: ChannelId) -> bool {
        self.per_instance.contains(&channel)
    }

    /// Same query by channel name.
    pub fn is_per_instance_name(&self, name: &str) -> bool {
        self.channels
            .get(name)
            .map(|c| self.per_instance.contains(&c))
            .unwrap_or(false)
    }

    /// Declares that `name` returns a fresh instance handle on every call
    /// (an allocator).
    pub fn mark_fresh_handle(&mut self, name: &str) {
        self.fresh_handles.insert(name.to_string());
    }

    /// True if `name` was declared an allocator.
    pub fn is_fresh_handle(&self, name: &str) -> bool {
        self.fresh_handles.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut cs = ChannelSet::new();
        let a = cs.intern("FS");
        let b = cs.intern("CONSOLE");
        assert_ne!(a, b);
        assert_eq!(cs.intern("FS"), a);
        assert_eq!(cs.name(a), "FS");
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn conflict_requires_a_write() {
        let mut t = IntrinsicTable::new();
        t.register("read_a", vec![], Type::Int, &["A"], &[], 1);
        t.register("write_a", vec![Type::Int], Type::Void, &[], &["A"], 1);
        t.register("read_b", vec![], Type::Int, &["B"], &[], 1);
        let (_, ra) = t.lookup("read_a").unwrap();
        let (_, wa) = t.lookup("write_a").unwrap();
        let (_, rb) = t.lookup("read_b").unwrap();
        // The reader and the writer meet on channel A; the readers write
        // nothing, and read_b's channel is disjoint from write_a's.
        assert_eq!(ra.reads, wa.writes);
        assert!(
            ra.writes.is_empty() && rb.writes.is_empty(),
            "readers never write"
        );
        assert!(!wa.writes.iter().any(|c| rb.reads.contains(c)));
    }

    #[test]
    #[should_panic(expected = "duplicate intrinsic")]
    fn duplicate_registration_panics() {
        let mut t = IntrinsicTable::new();
        t.register("x", vec![], Type::Void, &[], &[], 1);
        t.register("x", vec![], Type::Void, &[], &[], 1);
    }
}
