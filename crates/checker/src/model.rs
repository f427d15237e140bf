//! The checker's abstract world model.
//!
//! The dynamic checker replays a program under many schedules and compares
//! the *observable effect history* against the sequential oracle. For that
//! it needs a world whose intrinsic semantics are (a) deterministic, (b)
//! cheap, and (c) *order-sensitive exactly where the paper's semantics say
//! order matters*:
//!
//! * an **ordered** shared channel (the default — e.g. `CONSOLE` for a
//!   deterministic-output program) compares its write log as a sequence;
//! * a **commutative** channel (declared via the effects sidecar's
//!   `commutative` directive, or [`ModelConfig::commutative`]) compares
//!   its write log as a multiset — the paper's "any order of digests is a
//!   correct output" contract;
//! * a **per-instance** channel (the intrinsic table's `per_instance`
//!   marking) keeps one ordered log per instance key — operations on
//!   *different* instances commute, operations on the *same* instance do
//!   not.
//!
//! Return values are pure functions of `(intrinsic, args)` — plus a
//! bounded per-instance *stream countdown* for read-loop intrinsics, so
//! `while (more)` loops terminate identically under every schedule unless
//! two loop bodies were (unsoundly) allowed to share an instance — plus
//! an *observer* rule: an int-returning intrinsic that reads a
//! commutative channel (and has no stream) returns the number of writes
//! to that channel **visible to the calling worker**, the hook through
//! which relaxed visibility becomes observable.
//!
//! # Relaxed visibility (store buffering)
//!
//! With [`ModelConfig::sb_window`] set, each *section worker* gets a
//! store buffer: its writes to **commutative** channels are held privately
//! (read-own-writes) and drain to the shared log only once they age past
//! the window, measured in scheduling ticks — the model-world analogue of
//! TSO store buffers, in the spirit of the rely-guarantee weak-memory
//! treatment (wmm-rg). Ordered and per-instance channels are never
//! buffered (they are order-sensitive by contract, so the runtime must
//! fence them), and the main thread (worker 0) — hence also the
//! sequential oracle — always writes through. All buffers drain at
//! section end, so a relaxed run differs from an SC run *only* in what
//! observer reads saw mid-flight, never in the final write multisets.

use commset_ir::{EffectSig, IntrinsicTable};
use commset_lang::ast::Type;
use commset_runtime::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Splittable 64-bit mixer (same finalizer as `SplitMix64`).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The model's return-value hash of one call: a pure function of
/// `(intrinsic, args)`. `commsetc profile`'s synthetic world hashes with
/// it too, so profile runs and check runs agree on every modeled value.
pub fn hash_call(name: &str, args: &[Value]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for b in name.bytes() {
        h = mix64(h ^ u64::from(b));
    }
    for a in args {
        let bits = match a {
            Value::Int(i) => *i as u64,
            Value::Float(f) => f.to_bits(),
        };
        h = mix64(h ^ bits);
    }
    h
}

/// The log of channel `chan` in `logs`, created empty on first use (the
/// name is copied only then).
fn log<'m, V: Default>(logs: &'m mut BTreeMap<String, V>, chan: &str) -> &'m mut V {
    if !logs.contains_key(chan) {
        logs.insert(chan.to_string(), V::default());
    }
    logs.get_mut(chan).expect("inserted above")
}

/// Tuning knobs of the model world.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Value returned by *size queries* (argument-less, effect-free,
    /// int-returning intrinsics such as `file_count()`): the checker's
    /// loop-bound. Small by design — schedule exploration is exponential
    /// in instances, not in data.
    pub size: i64,
    /// Per-instance stream length: int-returning intrinsics that *write*
    /// a per-instance channel return `1` this many times per instance key,
    /// then `0` — the model of `fread`-style "more data?" loops.
    pub stream_len: i64,
    /// Channels compared as multisets instead of sequences.
    pub commutative: BTreeSet<String>,
    /// Delta channels (sidecar `merge` rows): section workers' writes are
    /// *privatized* — parked in the worker's buffer on **every** parallel
    /// schedule, SC included, regardless of [`ModelConfig::sb_window`] —
    /// and drain only at the section barrier ([`ModelWorld::flush_all`]).
    /// This is the model of per-worker delta buffers: siblings never see
    /// a delta write mid-section, so a program whose correctness needs
    /// mid-section visibility (an order-sensitive merge mis-declared as
    /// commutative) diverges from the oracle on every schedule. Delta
    /// channels should also be in `commutative` (the coalesce order is a
    /// multiset contract).
    pub delta: BTreeSet<String>,
    /// Make *bare* world-intrinsic calls (outside commutative regions)
    /// visible scheduling events in the controlled executor. This models
    /// the sharded world's shard-acquisition points: with it on, the
    /// scheduler can hold one worker *at* a world call while others run —
    /// the schedule-space analogue of the torture suite's delay-inside-a
    /// -shard-hold fault plan. Off by default (region-only scheduling,
    /// the paper's granularity).
    pub pause_at_world_calls: bool,
    /// Store-buffer flush window for *this run*, in scheduling ticks:
    /// `Some(w)` buffers section workers' commutative-channel writes
    /// privately until they are `w` ticks old (the explorer sets this per
    /// relaxed schedule); `None` is sequential consistency. Worker 0 (the
    /// main thread, and therefore the sequential oracle) never buffers.
    pub sb_window: Option<usize>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            size: 6,
            stream_len: 3,
            commutative: BTreeSet::new(),
            delta: BTreeSet::new(),
            pause_at_world_calls: false,
            sb_window: None,
        }
    }
}

impl ModelConfig {
    /// A config with the given commutative channel names.
    pub fn with_commutative<'a>(chans: impl IntoIterator<Item = &'a str>) -> Self {
        ModelConfig {
            commutative: chans.into_iter().map(str::to_string).collect(),
            ..ModelConfig::default()
        }
    }
}

/// One recorded effect: the hash of `(intrinsic, args, stream state)`.
type Record = u64;

/// A commutative-channel write parked in a worker's store buffer.
#[derive(Debug, Clone)]
struct Pending {
    chan: String,
    rec: Record,
    /// Scheduling tick at which the write was issued.
    born: u64,
    /// Privatized delta write: never ages out, drains only at
    /// [`ModelWorld::flush_all`] (the section barrier).
    delta: bool,
}

/// The deterministic abstract world.
#[derive(Debug, Clone, Default)]
pub struct ModelWorld {
    cfg: ModelConfig,
    /// Shared ordered channels: append-only write logs.
    ordered: BTreeMap<String, Vec<Record>>,
    /// Commutative channels: write logs compared as multisets.
    commutative: BTreeMap<String, Vec<Record>>,
    /// Per-instance channels: one ordered log per instance key.
    per_instance: BTreeMap<String, BTreeMap<i64, Vec<Record>>>,
    /// Stream countdowns, keyed by (channel, instance key).
    streams: BTreeMap<(String, i64), i64>,
    /// The worker whose code is currently executing (0 = main thread).
    current: usize,
    /// Scheduling tick — advanced by the controlled executor at every
    /// scheduled event; store-buffer ages are measured in these.
    tick: u64,
    /// Per-worker store buffers (FIFO), populated only under
    /// [`ModelConfig::sb_window`] for section workers.
    pending: BTreeMap<usize, Vec<Pending>>,
}

impl ModelWorld {
    /// A fresh world under `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        ModelWorld {
            cfg,
            ..Default::default()
        }
    }

    /// Sets the worker whose code the executor is about to run
    /// (0 = the main thread; section worker `i` is `i + 1`).
    pub fn set_worker(&mut self, worker: usize) {
        self.current = worker;
    }

    /// Advances the scheduling clock one tick and drains every buffered
    /// write that has aged past the store-buffer window. Workers drain in
    /// index order, each FIFO — deterministic for a given schedule.
    pub fn tick_advance(&mut self) {
        self.tick += 1;
        if let Some(w) = self.cfg.sb_window {
            let now = self.tick;
            for buf in self.pending.values_mut() {
                // Delta writes never age out (they drain only at the
                // barrier); aged store-buffered writes behind them still
                // drain in FIFO order.
                let mut i = 0;
                while i < buf.len() {
                    if !buf[i].delta && now - buf[i].born >= w as u64 {
                        let p = buf.remove(i);
                        self.commutative.entry(p.chan).or_default().push(p.rec);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Drains every store buffer to the shared log (section end / final
    /// barrier): after this, the write multisets are exactly what an SC
    /// run of the same schedule would have produced.
    pub fn flush_all(&mut self) {
        for (_, buf) in std::mem::take(&mut self.pending) {
            for p in buf {
                self.commutative.entry(p.chan).or_default().push(p.rec);
            }
        }
    }

    /// Writes to commutative channels visible to the current worker:
    /// everything in the shared log plus the worker's own buffer
    /// (read-own-writes; other workers' buffers are invisible).
    fn visible_commutative(&self, chan: &str) -> usize {
        let shared = self.commutative.get(chan).map_or(0, Vec::len);
        let own = self
            .pending
            .get(&self.current)
            .map_or(0, |buf| buf.iter().filter(|p| p.chan == chan).count());
        shared + own
    }

    /// True when this write should park in the current worker's store
    /// buffer instead of the shared log.
    fn buffers_writes(&self) -> bool {
        self.cfg.sb_window.is_some() && self.current != 0
    }

    /// Executes one intrinsic call by name: records its writes into the
    /// channel logs and returns its modeled value (the by-name twin of
    /// [`ModelWorld::call_id`]).
    ///
    /// Unknown intrinsics behave as pure hash functions (no channels).
    pub fn call(&mut self, table: &IntrinsicTable, name: &str, args: &[Value]) -> Value {
        match table.lookup(name) {
            Some((id, _)) => self.call_id(table, id, args),
            None => Value::Int((hash_call(name, args) % 1009) as i64),
        }
    }

    /// Executes one call of intrinsic `id` of `table`: records its writes
    /// into the channel logs and returns its modeled value.
    pub fn call_id(&mut self, table: &IntrinsicTable, id: usize, args: &[Value]) -> Value {
        let (name, sig) = (table.name(id), table.sig(id));
        let key = args.first().map(|v| v.as_int()).unwrap_or(0);
        // Stream countdown: int-returning writer of a per-instance channel.
        let stream_chan = (sig.ret == Type::Int && !args.is_empty())
            .then(|| {
                sig.writes
                    .iter()
                    .find(|c| table.is_per_instance(**c))
                    .map(|c| table.channels.name(*c).to_string())
            })
            .flatten();
        let stream_state = stream_chan.as_ref().map(|chan| {
            let remaining = self
                .streams
                .entry((chan.clone(), key))
                .or_insert(self.cfg.stream_len);
            let state = *remaining;
            if *remaining > 0 {
                *remaining -= 1;
            }
            state
        });
        // Record the write: per-instance logs fold in the stream state so
        // same-instance interleavings are visible in the history.
        let rec = mix64(hash_call(name, args) ^ (stream_state.unwrap_or(0) as u64));
        for c in &sig.writes {
            let chan = table.channels.name(*c);
            if table.is_per_instance(*c) {
                log(&mut self.per_instance, chan)
                    .entry(key)
                    .or_default()
                    .push(rec);
            } else if self.cfg.commutative.contains(chan) {
                // Delta channels privatize on every schedule; plain
                // commutative channels park only under a store-buffer
                // window. Worker 0 (main thread / oracle) writes through.
                let privatize = self.current != 0 && self.cfg.delta.contains(chan);
                if privatize || self.buffers_writes() {
                    self.pending.entry(self.current).or_default().push(Pending {
                        chan: chan.to_string(),
                        rec,
                        born: self.tick,
                        delta: privatize,
                    });
                } else {
                    log(&mut self.commutative, chan).push(rec);
                }
            } else {
                log(&mut self.ordered, chan).push(rec);
            }
        }
        self.model_return(table, name, args, sig, stream_state)
    }

    fn model_return(
        &mut self,
        table: &IntrinsicTable,
        name: &str,
        args: &[Value],
        sig: &EffectSig,
        stream_state: Option<i64>,
    ) -> Value {
        match sig.ret {
            Type::Void => Value::Int(0),
            Type::Float => Value::Float((hash_call(name, args) % 1000) as f64),
            _ if table.is_fresh_handle(name) => {
                // A deterministic fresh handle per (intrinsic, args).
                Value::Int((hash_call(name, args) & 0x3fff_ffff) as i64 | 1)
            }
            Type::Int if stream_state.is_some() => {
                // "More data?" loop: 1 while the per-instance stream has
                // elements left, then 0.
                Value::Int(i64::from(stream_state.unwrap_or(0) > 0))
            }
            Type::Int
                if sig
                    .reads
                    .iter()
                    .any(|c| self.cfg.commutative.contains(table.channels.name(*c))) =>
            {
                // Observer: reads a commutative channel — return the
                // number of writes *visible to this worker* on the first
                // such channel. Under SC this is the shared count; under
                // store buffering, other workers' parked writes are
                // invisible, so staleness flows into the return value.
                let chan = sig
                    .reads
                    .iter()
                    .map(|c| table.channels.name(*c))
                    .find(|c| self.cfg.commutative.contains(*c))
                    .expect("guard found a commutative read channel");
                Value::Int(self.visible_commutative(chan) as i64)
            }
            Type::Int if args.is_empty() && sig.writes.is_empty() => {
                // Size query: the model's loop bound.
                Value::Int(self.cfg.size)
            }
            _ => Value::Int((hash_call(name, args) % 1009) as i64),
        }
    }

    /// Differences between this world and `other`, rendered as one line
    /// per divergent channel; empty means observationally equal.
    pub fn diff(&self, other: &ModelWorld) -> Vec<String> {
        let mut out = Vec::new();
        diff_ordered(&self.ordered, &other.ordered, &mut out);
        // Commutative channels: multiset compare.
        for name in keys_union(&self.commutative, &other.commutative) {
            let mut a = self.commutative.get(&name).cloned().unwrap_or_default();
            let mut b = other.commutative.get(&name).cloned().unwrap_or_default();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                out.push(format!(
                    "channel {name}: write multisets differ ({} vs {} records)",
                    a.len(),
                    b.len()
                ));
            }
        }
        // Per-instance channels: ordered compare per key.
        for name in keys_union(&self.per_instance, &other.per_instance) {
            let empty = BTreeMap::new();
            let a = self.per_instance.get(&name).unwrap_or(&empty);
            let b = other.per_instance.get(&name).unwrap_or(&empty);
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                let la = a.get(key).cloned().unwrap_or_default();
                let lb = b.get(key).cloned().unwrap_or_default();
                if la != lb {
                    out.push(format!(
                        "channel {name}[{key}]: per-instance histories differ \
                         ({} vs {} records{})",
                        la.len(),
                        lb.len(),
                        first_divergence(&la, &lb)
                    ));
                }
            }
        }
        out
    }
}

fn keys_union<V>(a: &BTreeMap<String, V>, b: &BTreeMap<String, V>) -> Vec<String> {
    a.keys()
        .chain(b.keys())
        .cloned()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn diff_ordered(
    a: &BTreeMap<String, Vec<Record>>,
    b: &BTreeMap<String, Vec<Record>>,
    out: &mut Vec<String>,
) {
    for name in keys_union(a, b) {
        let la = a.get(&name).cloned().unwrap_or_default();
        let lb = b.get(&name).cloned().unwrap_or_default();
        if la != lb {
            let mut sa = la.clone();
            let mut sb = lb.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            let kind = if sa == sb {
                "same writes, different order"
            } else {
                "different writes"
            };
            out.push(format!(
                "channel {name}: ordered histories differ ({kind}{})",
                first_divergence(&la, &lb)
            ));
        }
    }
}

fn first_divergence(a: &[Record], b: &[Record]) -> String {
    match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        Some(i) => format!(", first divergence at record #{i}"),
        None => format!(", prefix of length {} agrees", a.len().min(b.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("file_count", vec![], Type::Int, &[], &[], 1);
        t.register("fs_open", vec![Type::Int], Type::Handle, &[], &["FS"], 1);
        t.mark_fresh_handle("fs_open");
        t.register(
            "fs_read",
            vec![Type::Handle],
            Type::Int,
            &["FS"],
            &["FS"],
            1,
        );
        t.register("print", vec![Type::Int], Type::Void, &[], &["CONSOLE"], 1);
        t.mark_per_instance("FS");
        t
    }

    #[test]
    fn size_queries_and_fresh_handles_are_deterministic() {
        let t = table();
        let mut w = ModelWorld::new(ModelConfig::default());
        assert_eq!(w.call(&t, "file_count", &[]), Value::Int(6));
        let h1 = w.call(&t, "fs_open", &[Value::Int(0)]);
        let h2 = w.call(&t, "fs_open", &[Value::Int(1)]);
        assert_ne!(h1, h2, "distinct args yield distinct handles");
        let mut w2 = ModelWorld::new(ModelConfig::default());
        assert_eq!(w2.call(&t, "fs_open", &[Value::Int(0)]), h1);
    }

    #[test]
    fn streams_count_down_per_instance() {
        let t = table();
        let mut w = ModelWorld::new(ModelConfig::default());
        let h = Value::Int(42);
        for _ in 0..3 {
            assert_eq!(w.call(&t, "fs_read", &[h]), Value::Int(1));
        }
        assert_eq!(w.call(&t, "fs_read", &[h]), Value::Int(0));
        // A different instance has its own stream.
        assert_eq!(w.call(&t, "fs_read", &[Value::Int(7)]), Value::Int(1));
    }

    #[test]
    fn ordered_channel_detects_reordering_but_commutative_does_not() {
        let t = table();
        let run = |order: &[i64], commutative: bool| {
            let cfg = if commutative {
                ModelConfig::with_commutative(["CONSOLE"])
            } else {
                ModelConfig::default()
            };
            let mut w = ModelWorld::new(cfg);
            for &d in order {
                w.call(&t, "print", &[Value::Int(d)]);
            }
            w
        };
        let fwd = run(&[1, 2, 3], false);
        let rev = run(&[3, 2, 1], false);
        let d = fwd.diff(&rev);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("same writes, different order"), "{d:?}");
        let fwd_c = run(&[1, 2, 3], true);
        let rev_c = run(&[3, 2, 1], true);
        assert!(fwd_c.diff(&rev_c).is_empty());
    }

    fn sb_table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("pub_a", vec![], Type::Void, &[], &["A"], 1);
        t.register("probe_a", vec![], Type::Int, &["A"], &[], 1);
        t
    }

    #[test]
    fn observer_reads_count_visible_commutative_writes() {
        let t = sb_table();
        let mut w = ModelWorld::new(ModelConfig::with_commutative(["A"]));
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(0));
        w.call(&t, "pub_a", &[]);
        w.call(&t, "pub_a", &[]);
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(2));
    }

    #[test]
    fn store_buffer_hides_other_workers_writes_within_the_window() {
        let t = sb_table();
        let mut cfg = ModelConfig::with_commutative(["A"]);
        cfg.sb_window = Some(2);
        let mut w = ModelWorld::new(cfg);
        // Worker 1 publishes; the write parks in its buffer.
        w.set_worker(1);
        w.call(&t, "pub_a", &[]);
        // Read-own-writes: worker 1 sees its parked write...
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1));
        // ...but worker 2 does not.
        w.set_worker(2);
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(0));
        // One tick: still younger than the window.
        w.tick_advance();
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(0));
        // Second tick: aged out, drained to the shared log.
        w.tick_advance();
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1));
    }

    #[test]
    fn main_thread_and_flush_all_write_through() {
        let t = sb_table();
        let mut cfg = ModelConfig::with_commutative(["A"]);
        cfg.sb_window = Some(8);
        let mut w = ModelWorld::new(cfg.clone());
        // Worker 0 (main) never buffers, even under a window.
        w.call(&t, "pub_a", &[]);
        w.set_worker(1);
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1));
        // A buffered write drains at the final barrier, so the ending
        // multiset matches an SC run of the same schedule.
        w.call(&t, "pub_a", &[]);
        let mut sc = ModelWorld::new(ModelConfig::with_commutative(["A"]));
        sc.call(&t, "pub_a", &[]);
        sc.call(&t, "pub_a", &[]);
        assert!(!w.diff(&sc).is_empty(), "parked write not yet shared");
        w.flush_all();
        assert!(w.diff(&sc).is_empty(), "{:?}", w.diff(&sc));
    }

    #[test]
    fn delta_channels_privatize_on_every_schedule() {
        let t = sb_table();
        let mut cfg = ModelConfig::with_commutative(["A"]);
        cfg.delta.insert("A".into());
        // No sb_window: this is an SC schedule — deltas privatize anyway.
        let mut w = ModelWorld::new(cfg.clone());
        w.set_worker(1);
        w.call(&t, "pub_a", &[]);
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1), "read-own-writes");
        w.set_worker(2);
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(0), "siblings blind");
        // Scheduling ticks never drain a delta write...
        for _ in 0..16 {
            w.tick_advance();
        }
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(0));
        // ...only the section barrier does.
        w.flush_all();
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1));
        // Worker 0 (main thread / oracle) writes through even on a delta
        // channel.
        let mut m = ModelWorld::new(cfg);
        m.call(&t, "pub_a", &[]);
        m.set_worker(1);
        assert_eq!(m.call(&t, "probe_a", &[]), Value::Int(1));
    }

    #[test]
    fn delta_writes_survive_a_store_buffer_drain_behind_them() {
        let t = sb_table();
        let mut cfg = ModelConfig::with_commutative(["A"]);
        cfg.delta.insert("A".into());
        cfg.sb_window = Some(1);
        let mut w = ModelWorld::new(cfg);
        w.set_worker(1);
        // A delta write parks first; it must not block (or be swept out
        // by) the aged store-buffer drain of later non-delta writes.
        w.call(&t, "pub_a", &[]);
        w.tick_advance();
        w.tick_advance();
        w.set_worker(2);
        assert_eq!(
            w.call(&t, "probe_a", &[]),
            Value::Int(0),
            "delta write stays private across ticks"
        );
        w.flush_all();
        assert_eq!(w.call(&t, "probe_a", &[]), Value::Int(1));
    }

    #[test]
    fn per_instance_histories_are_keyed() {
        let t = table();
        let mut a = ModelWorld::new(ModelConfig::default());
        let mut b = ModelWorld::new(ModelConfig::default());
        // Interleaving reads of *different* instances commutes...
        a.call(&t, "fs_read", &[Value::Int(1)]);
        a.call(&t, "fs_read", &[Value::Int(2)]);
        b.call(&t, "fs_read", &[Value::Int(2)]);
        b.call(&t, "fs_read", &[Value::Int(1)]);
        assert!(a.diff(&b).is_empty(), "{:?}", a.diff(&b));
        // ...but an extra read of the *same* instance shows up.
        a.call(&t, "fs_read", &[Value::Int(1)]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("FS[1]"), "{d:?}");
    }
}
