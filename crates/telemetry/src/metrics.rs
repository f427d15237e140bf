//! The always-on metrics registry: monotonic counters, log2-bucketed
//! histograms, and bytecode hotspot attribution.
//!
//! This is the second observability layer next to [`span`](crate::span):
//! spans answer *"where did the time go in this run"*, the
//! [`MetricsRegistry`] answers *"which opcode, block, lock, channel,
//! queue or delta buffer is eating the speedup"* — cheap enough to stay
//! on in a long-lived serve process.
//!
//! The recording discipline mirrors the span layer's zero-cost design:
//! executors consult one `bool` knob (`ExecConfig::metrics` in
//! `commset-interp`) and, when on, each worker records into *private*
//! local state (arrays and maps it alone owns — no shared atomics, no
//! locks on the hot path) and publishes exactly once at worker exit
//! through a [`MetricsSink`]. Merging is commutative (counter adds,
//! element-wise histogram merges), so the merged registry is
//! deterministic regardless of worker publication order. On the DES all
//! values are logical ticks; on real threads, monotonic nanoseconds.
//!
//! Key namespaces (by convention, dot-separated):
//!
//! * counters — `delta.applies`, `delta.lock_elisions`, `shard.fast_acquires`,
//!   ...
//! * histograms — `lock_wait.<SET>`, `channel_wait.<CHANNEL>`,
//!   `queue_occupancy.<ID>`, `queue_spin.<ID>`, `delta.merge_slots`,
//!   `world_call.<INTRINSIC>` ...
//! * opcodes — bytecode per-opcode retire counts (`Bin`, `CmpBr`, ...)
//! * blocks — retired cost per `func:bbN` basic block (hot-block ranks)

use crate::json::escape;
use commset_runtime::Hist64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The merged metrics of one run: counters + histograms + bytecode
/// hotspot attribution. All maps are `BTreeMap` so every rendering is
/// deterministic for a given content.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist64>,
    opcodes: BTreeMap<String, u64>,
    blocks: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named monotonic counter.
    pub fn inc(&mut self, name: &str, n: u64) {
        if n > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Records one sample into the named histogram (the name is copied
    /// only on its first sample).
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => self.hists.entry(name.to_string()).or_default().record(v),
        }
    }

    /// Merges a prebuilt histogram into the named slot (used by workers
    /// publishing local histograms, and by the journal loader).
    pub fn merge_hist(&mut self, name: &str, h: &Hist64) {
        if !h.is_empty() {
            self.hists.entry(name.to_string()).or_default().merge(h);
        }
    }

    /// Adds `n` retires to the named opcode.
    pub fn record_opcode(&mut self, name: &str, n: u64) {
        if n > 0 {
            *self.opcodes.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Adds `cost` retired ticks to the named basic block (`func:bbN`).
    pub fn record_block(&mut self, name: &str, cost: u64) {
        if cost > 0 {
            *self.blocks.entry(name.to_string()).or_insert(0) += cost;
        }
    }

    /// Folds `other` into `self`. Commutative and associative, so the
    /// merged registry does not depend on worker publication order.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        for (k, v) in &other.opcodes {
            *self.opcodes.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.blocks {
            *self.blocks.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.opcodes.is_empty()
            && self.blocks.is_empty()
    }

    /// The counter map.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The histogram map.
    pub fn hists(&self) -> &BTreeMap<String, Hist64> {
        &self.hists
    }

    /// The per-opcode retire counts.
    pub fn opcodes(&self) -> &BTreeMap<String, u64> {
        &self.opcodes
    }

    /// The per-block retired cost.
    pub fn blocks(&self) -> &BTreeMap<String, u64> {
        &self.blocks
    }

    /// Top-`n` entries of `map` by value (descending), ties broken by
    /// name so the ranking is deterministic.
    fn top_n(map: &BTreeMap<String, u64>, n: usize) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> = map.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// Histograms under `prefix` ranked by total (sum), descending.
    fn ranked_hists(&self, prefix: &str) -> Vec<(&str, &Hist64)> {
        let mut rows: Vec<(&str, &Hist64)> = self
            .hists
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, h)| (k.as_str(), h))
            .collect();
        rows.sort_by(|a, b| b.1.sum().cmp(&a.1.sum()).then(a.0.cmp(b.0)));
        rows
    }

    /// Human-readable hotspot tables: top-`top` hot blocks by retired
    /// cost, the opcode mix, most-contended locks/channels/queues by
    /// total wait, the delta merge/elision summary, and every counter.
    pub fn render_text(&self, top: usize) -> String {
        let mut s = String::new();
        s.push_str("metrics:\n");
        if self.is_empty() {
            s.push_str("  (no metrics recorded)\n");
            return s;
        }
        if !self.blocks.is_empty() {
            let total: u64 = self.blocks.values().sum();
            let _ = writeln!(s, "  hot blocks (top {top} by retired cost):");
            for (i, (name, cost)) in Self::top_n(&self.blocks, top).into_iter().enumerate() {
                let pct = if total > 0 {
                    cost as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(s, "    #{:<2} {name:<28} cost={cost:<10} {pct:5.1}%", i + 1);
            }
        }
        if !self.opcodes.is_empty() {
            let total: u64 = self.opcodes.values().sum();
            s.push_str("  opcode mix (retired):\n");
            for (name, n) in Self::top_n(&self.opcodes, top) {
                let pct = if total > 0 {
                    n as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(s, "    {name:<12} {n:<10} {pct:5.1}%");
            }
        }
        for (title, prefix) in [
            ("contended locks (by total wait)", "lock_wait."),
            ("contended channels (by total wait)", "channel_wait."),
            ("queue occupancy (items at push/pop)", "queue_occupancy."),
        ] {
            let rows = self.ranked_hists(prefix);
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(s, "  {title}:");
            for (name, h) in rows.into_iter().take(top) {
                let _ = writeln!(
                    s,
                    "    {:<24} n={:<8} sum={:<10} mean={:<8} p95~{:<8} max={}",
                    &name[prefix.len()..],
                    h.count(),
                    h.sum(),
                    h.mean(),
                    h.percentile(95),
                    h.max()
                );
            }
        }
        if let Some(h) = self.hists.get("delta.merge_slots") {
            let _ = writeln!(
                s,
                "  delta merges: coalesces={} slots(sum={} mean={} max={}) elisions={}",
                h.count(),
                h.sum(),
                h.mean(),
                h.max(),
                self.counters
                    .get("delta.lock_elisions")
                    .copied()
                    .unwrap_or(0)
            );
        }
        if !self.counters.is_empty() {
            s.push_str("  counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "    {name:<32} {v}");
            }
        }
        s
    }

    /// Dependency-free JSON encoding. Histogram buckets are trimmed of
    /// trailing zeros; [`Hist64::from_parts`] restores them.
    pub fn to_json(&self) -> String {
        fn map_json(map: &BTreeMap<String, u64>) -> String {
            let rows: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
                .collect();
            format!("{{{}}}", rows.join(","))
        }
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                let mut buckets: &[u64] = h.buckets();
                while let Some((0, rest)) = buckets.split_last() {
                    buckets = rest;
                }
                let b: Vec<String> = buckets.iter().map(u64::to_string).collect();
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
                    escape(k),
                    h.count(),
                    h.sum(),
                    h.max(),
                    b.join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":{},\"opcodes\":{},\"blocks\":{},\"hists\":{{{}}}}}",
            map_json(&self.counters),
            map_json(&self.opcodes),
            map_json(&self.blocks),
            hists.join(",")
        )
    }
}

/// The publication point workers hand their local metrics to: an
/// `Arc<Mutex<..>>` touched once per worker lifetime (at exit), never on
/// the hot path.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one worker's locally-accumulated registry in.
    pub fn publish(&self, local: &MetricsRegistry) {
        if local.is_empty() {
            return;
        }
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.absorb(local);
    }

    /// Extracts the merged registry, leaving the sink empty.
    pub fn take(&self) -> MetricsRegistry {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("delta.applies", 4);
        m.inc("delta.lock_elisions", 2);
        m.observe("lock_wait.FS", 10);
        m.observe("lock_wait.FS", 90);
        m.observe("channel_wait.CONSOLE", 7);
        m.observe("delta.merge_slots", 3);
        m.record_opcode("Bin", 12);
        m.record_opcode("CmpBr", 30);
        m.record_block("main:bb0", 5);
        m.record_block("hot:bb2", 500);
        m
    }

    #[test]
    fn absorb_is_order_independent() {
        let a = sample();
        let mut b = MetricsRegistry::new();
        b.inc("delta.applies", 1);
        b.observe("lock_wait.FS", 3);
        b.record_opcode("Bin", 1);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters()["delta.applies"], 5);
        assert_eq!(ab.opcodes()["Bin"], 13);
    }

    #[test]
    fn render_ranks_hotspots() {
        let text = sample().render_text(5);
        // Hot blocks ranked by cost: hot:bb2 first.
        let hot = text.find("hot:bb2").expect("hot block listed");
        let cold = text.find("main:bb0").expect("cold block listed");
        assert!(hot < cold, "hot block ranks first:\n{text}");
        // Opcode mix ranked by retires: CmpBr before Bin.
        assert!(text.find("CmpBr").unwrap() < text.find("Bin ").unwrap());
        assert!(text.contains("contended locks"));
        assert!(text.contains("delta merges: coalesces=1"));
        assert!(text.contains("elisions=2"));
    }

    #[test]
    fn empty_registry_renders_placeholder() {
        let text = MetricsRegistry::new().render_text(5);
        assert!(text.contains("(no metrics recorded)"));
    }

    #[test]
    fn json_is_balanced_and_carries_hists() {
        let j = sample().to_json();
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces: {j}"
        );
        assert!(j.contains("\"lock_wait.FS\""));
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"delta.applies\":4"));
    }

    #[test]
    fn sink_merges_worker_publications() {
        let sink = MetricsSink::new();
        sink.publish(&sample());
        sink.publish(&sample());
        sink.publish(&MetricsRegistry::new());
        let merged = sink.take();
        assert_eq!(merged.counters()["delta.applies"], 8);
        assert_eq!(merged.hists()["lock_wait.FS"].count(), 4);
        assert!(sink.take().is_empty());
    }
}
