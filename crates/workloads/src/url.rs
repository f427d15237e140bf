//! **url** — URL-based packet switching (paper §5.7, NetBench origin).
//!
//! The main loop dequeues a packet from a shared pool, matches its URL
//! against a pattern table, and logs the switching decision. The paper's
//! two annotation sites: the dequeue function is self-commutative
//! (protocol semantics allow out-of-order switching) and the logging
//! function is self-commutative with `CommSetNoSync` (thread-safe library,
//! no compiler locks).
//!
//! The second variant ignores the `SELF` on the dequeue — the paper's
//! two-stage PS-DSWP with a sequential dequeue stage.

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::worldlib::SharedInput;
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{Registry, World};
use std::collections::VecDeque;
use std::sync::Arc;

/// Packets processed.
pub const NUM_PKTS: usize = 256;
/// Pattern table size.
pub const NUM_PATTERNS: usize = 24;
const SEED: u64 = 0x5eed_0008;

/// The packet pool plus pattern table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Switch {
    /// Pending packets: (id, url bytes).
    pub pool: VecDeque<(i64, Vec<u8>)>,
    /// In-flight packets by handle.
    pub in_flight: std::collections::HashMap<i64, Vec<u8>>,
    /// URL patterns to match (suffix rules, as in URL switches); read-only,
    /// shared by every world.
    pub patterns: Arc<Vec<Vec<u8>>>,
    /// Log of (packet id, matched rule) pairs.
    pub log: Vec<(i64, i64)>,
}

impl Switch {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        fn word(rng: &mut SplitMix64, len: u64) -> Vec<u8> {
            (0..len)
                .map(|_| b'a' + (rng.next_u64() % 26) as u8)
                .collect()
        }
        let patterns: Vec<Vec<u8>> = (0..NUM_PATTERNS).map(|_| word(&mut rng, 4)).collect();
        let mut pool = VecDeque::new();
        for id in 0..NUM_PKTS as i64 {
            // Half the packets end in a known pattern.
            let len = 60 + rng.next_below(60);
            let mut url = word(&mut rng, len);
            if rng.next_below(2) == 0 {
                let p = patterns[(rng.next_below(NUM_PATTERNS as u64)) as usize].clone();
                url.extend_from_slice(&p);
            }
            pool.push_back((id, url));
        }
        Switch {
            pool,
            in_flight: std::collections::HashMap::new(),
            patterns: Arc::new(patterns),
            log: Vec::new(),
        }
    }

    /// The switching rule for a URL: index of the first pattern that is a
    /// substring, or -1.
    pub fn match_url(&self, url: &[u8]) -> i64 {
        for (i, p) in self.patterns.iter().enumerate() {
            if url.windows(p.len()).any(|w| w == &p[..]) {
                return i as i64;
            }
        }
        -1
    }
}

fn source(dequeue_self: bool) -> String {
    let deq = if dequeue_self {
        "#pragma CommSet(SELF)\n        "
    } else {
        ""
    };
    format!(
        r#"
#pragma CommSetDecl(LSET, Self)
#pragma CommSetNoSync(LSET)

extern int num_pkts();
extern handle pkt_dequeue();
extern int url_match(handle p);
extern void log_pkt(handle p, int m);

int main() {{
    int n = num_pkts();
    for (int i = 0; i < n; i = i + 1) {{
        handle p = handle(0);
        {deq}{{ p = pkt_dequeue(); }}
        int m = url_match(p);
        #pragma CommSet(LSET)
        {{ log_pkt(p, m); }}
    }}
    return 0;
}}
"#
    )
}

/// Primary variant (Table 2: 2 annotation sites).
pub fn annotated_source() -> String {
    source(true)
}

/// Pipeline variant: sequential dequeue stage.
pub fn pipeline_source() -> String {
    source(false)
}

/// Intrinsic signatures.
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("num_pkts", vec![], Type::Int, &[], &[], 5);
    t.register(
        "pkt_dequeue",
        vec![],
        Type::Handle,
        &["POOL"],
        &["POOL"],
        15,
    );
    t.register("url_match", vec![Type::Handle], Type::Int, &[], &[], 60);
    t.register(
        "log_pkt",
        vec![Type::Handle, Type::Int],
        Type::Void,
        &[],
        &["LOG"],
        20,
    );
    t
}

/// Intrinsic handlers.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("num_pkts", |_, _| IntrinsicOutcome::value(NUM_PKTS as i64));
    r.register("pkt_dequeue", |world, _| {
        let sw = world.get_mut::<Switch>("switch");
        let (id, url) = sw.pool.pop_front().expect("pool underflow");
        sw.in_flight.insert(id, url);
        IntrinsicOutcome::value(id)
    });
    r.register("url_match", |world, args| {
        let sw = world.get::<Switch>("switch");
        let url = &sw.in_flight[&args[0].as_int()];
        let m = sw.match_url(url);
        // Pattern matching cost: bytes scanned per pattern, all private.
        IntrinsicOutcome::value(m)
            .with_cost((url.len() * NUM_PATTERNS / 2) as u64)
            .with_serialized(0)
    });
    r.register("log_pkt", |world, args| {
        let sw = world.get_mut::<Switch>("switch");
        let id = args[0].as_int();
        sw.in_flight.remove(&id);
        sw.log.push((id, args[1].as_int()));
        IntrinsicOutcome::unit().with_serialized(8)
    });
    r
}

/// Fresh input world: a copy of the generated switch. Handlers mutate the
/// pool, the in-flight table and the log, so those are copied; the
/// patterns are shared.
fn make_world(switch: &Switch) -> World {
    let mut w = World::new();
    w.install("switch", switch.clone());
    w
}

/// Out-of-order switching is allowed; each packet's decision is
/// deterministic, so the logs must agree as multisets and every packet
/// must be drained.
fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s = seq.get::<Switch>("switch");
    let p = par.get::<Switch>("switch");
    if !p.pool.is_empty() || !p.in_flight.is_empty() {
        return Err("packets left unprocessed".into());
    }
    let mut sl = s.log.clone();
    let mut pl = p.log.clone();
    sl.sort_unstable();
    pl.sort_unstable();
    if sl != pl {
        return Err("switching decisions differ".into());
    }
    Ok(())
}

/// The url workload (Figure 6h).
pub fn workload() -> Workload {
    let switch = SharedInput::new(|| Switch::generate(SEED));
    Workload {
        name: "url",
        origin: "NetBench",
        exec_fraction: "100%",
        variants: vec![annotated_source(), pipeline_source()],
        schemes: vec![
            SchemeSpec::new("Comm-DOALL (Spin)", 0, Scheme::Doall, SyncMode::Spin, true),
            SchemeSpec::new(
                "Comm-DOALL (Mutex)",
                0,
                Scheme::Doall,
                SyncMode::Mutex,
                true,
            ),
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 1, Scheme::PsDswp, SyncMode::Lib, true),
        ],
        table: table(),
        registry: registry(),
        irrevocable: vec!["POOL", "LOG"],
        make_world: Arc::new(move || make_world(switch.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 7.7,
            best_scheme: "DOALL + Spin",
            annotations: 2,
            noncomm_speedup: 1.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_sim::CostModel;

    #[test]
    fn sequential_drains_pool_and_matches() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let sw = world.get::<Switch>("switch");
        assert!(sw.pool.is_empty());
        assert_eq!(sw.log.len(), NUM_PKTS);
        // At least some packets matched a pattern.
        assert!(sw.log.iter().any(|&(_, m)| m >= 0));
        assert!(sw.log.iter().any(|&(_, m)| m < 0));
    }

    #[test]
    fn doall_legal_with_annotations_only() {
        let w = workload();
        assert!(w.analyze(0).unwrap().doall_legal());
        let plain = w.compiler().analyze(&w.plain_source()).unwrap();
        assert!(!plain.doall_legal());
    }

    #[test]
    fn doall_outperforms_ps_dswp() {
        let w = workload();
        let cm = CostModel::default();
        let doall = w.speedup(&w.schemes[0], 8, &cm).unwrap();
        let ps = w.speedup(&w.schemes[2], 8, &cm).unwrap();
        assert!(
            doall > ps,
            "paper §5.7: DOALL (7.7x) beats PS-DSWP (3.7x): {doall:.2} vs {ps:.2}"
        );
        assert!(doall > 5.5, "paper: 7.7, got {doall:.2}");
    }

    #[test]
    fn nosync_set_never_locks_the_logger() {
        let w = workload();
        let c = w.compiler();
        let a = c.analyze(&w.variants[0]).unwrap();
        let (_, plan) = c.compile(&a, Scheme::Doall, 4, SyncMode::Spin).unwrap();
        assert!(
            !plan.locks.iter().any(|l| l.set == "LSET"),
            "LSET is CommSetNoSync: {:?}",
            plan.locks
        );
    }
}
