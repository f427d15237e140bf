//! **geti** — Greedy Error-Tolerant Itemsets (paper §5.2, MineBench).
//!
//! Each iteration builds a Bitmap itemset, inserts the transaction's items
//! with `set_bit`, evaluates the candidate's support and emits the result
//! (vector push + console print). The paper's three annotation sites:
//!
//! * (a) itemset constructors/destructors commute on separate iterations;
//! * (b) `set_bit`/`get_support` are put in a predicated CommSet so
//!   insertions happen out of order — the paper predicates the interfaces
//!   on the *key values*; our static prover needs provably distinct
//!   bindings, so this reproduction predicates on the client's induction
//!   variable instead (a PC-for-PI substitution; each transaction owns its
//!   bitmap, so the relaxation is semantically identical);
//! * (c) the emit block (push + print) is context-sensitively
//!   self-commutative in client code.
//!
//! The deterministic variant omits `SELF` on the emit block: PS-DSWP with
//! a sequential output stage — the paper's best scheme for geti (3.6x,
//! limited by console time).

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::worldlib::{Console, SharedInput};
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{Registry, World};
use std::collections::HashMap;
use std::sync::Arc;

/// Transactions processed.
pub const NUM_TRANS: usize = 128;
/// Item universe size (bitmap width).
pub const UNIVERSE: usize = 512;
/// Items per transaction.
pub const ITEMS_PER_TRANS: usize = 10;
const SEED: u64 = 0x5eed_0003;

/// The itemset store: live bitmaps by handle.
#[derive(Debug, Default)]
pub struct ItemsetStore {
    /// Live bitmaps.
    pub live: HashMap<i64, Vec<u64>>,
    next: i64,
    /// Total constructions.
    pub total: u64,
}

impl ItemsetStore {
    fn new_set(&mut self) -> i64 {
        self.next += 1;
        self.total += 1;
        self.live.insert(self.next, vec![0u64; UNIVERSE / 64]);
        self.next
    }

    fn set_bit(&mut self, h: i64, key: usize) {
        let bm = self
            .live
            .get_mut(&h)
            .unwrap_or_else(|| panic!("set_bit on dead itemset {h}"));
        bm[key / 64] |= 1 << (key % 64);
    }

    fn support(&self, h: i64) -> i64 {
        self.live[&h].iter().map(|w| w.count_ones() as i64).sum()
    }

    fn free(&mut self, h: i64) {
        assert!(self.live.remove(&h).is_some(), "double free of itemset {h}");
    }
}

/// The transaction database (read-only input; a clone shares it).
#[derive(Debug, Clone)]
pub struct TransDb {
    /// Items of each transaction.
    pub trans: Arc<Vec<Vec<usize>>>,
}

impl TransDb {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let trans = (0..NUM_TRANS)
            .map(|_| {
                (0..ITEMS_PER_TRANS)
                    .map(|_| rng.next_below(UNIVERSE as u64) as usize)
                    .collect()
            })
            .collect();
        TransDb {
            trans: Arc::new(trans),
        }
    }
}

/// Native reference: the support of each transaction's itemset.
pub fn reference_supports() -> Vec<i64> {
    let db = TransDb::generate(SEED);
    db.trans
        .iter()
        .map(|items| {
            let mut bm = [0u64; UNIVERSE / 64];
            for &k in items {
                bm[k / 64] |= 1 << (k % 64);
            }
            bm.iter().map(|w| w.count_ones() as i64).sum()
        })
        .collect()
}

fn source(emit_self: bool) -> String {
    let emit = if emit_self { "SELF" } else { "BSET(t)" };
    format!(
        r#"
#pragma CommSetDecl(CSET, Group)
#pragma CommSetPredicate(CSET, (i1), (i2), i1 != i2)
#pragma CommSetDecl(BSET, Group)
#pragma CommSetPredicate(BSET, (a), (b), a != b)

extern int num_trans();
extern handle iset_new();
extern int trans_len(int t);
extern int trans_item(int t, int j);
extern void set_bit(handle s, int key);
extern int get_support(handle s);
extern void emit_itemset(int t, int sup);
extern void iset_free(handle s);

int main() {{
    int n = num_trans();
    for (int t = 0; t < n; t = t + 1) {{
        handle s = handle(0);
        #pragma CommSet(SELF, CSET(t))
        {{ s = iset_new(); }}
        int len = trans_len(t);
        for (int j = 0; j < len; j = j + 1) {{
            int key = trans_item(t, j);
            #pragma CommSet(SELF, BSET(t))
            {{ set_bit(s, key); }}
        }}
        int sup = 0;
        #pragma CommSet(BSET(t))
        {{ sup = get_support(s); }}
        #pragma CommSet({emit})
        {{ emit_itemset(t, sup); }}
        #pragma CommSet(SELF, CSET(t))
        {{ iset_free(s); }}
    }}
    return 0;
}}
"#
    )
}

/// Primary variant: out-of-order emits (DOALL-capable).
pub fn annotated_source() -> String {
    source(true)
}

/// Deterministic variant: ordered emits (PS-DSWP, the paper's best).
pub fn deterministic_source() -> String {
    source(false)
}

/// Intrinsic signatures.
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("num_trans", vec![], Type::Int, &[], &[], 5);
    t.register("iset_new", vec![], Type::Handle, &[], &["ISET_TABLE"], 40);
    t.mark_fresh_handle("iset_new");
    t.register("trans_len", vec![Type::Int], Type::Int, &[], &[], 8);
    t.register(
        "trans_item",
        vec![Type::Int, Type::Int],
        Type::Int,
        &[],
        &[],
        8,
    );
    t.register(
        "set_bit",
        vec![Type::Handle, Type::Int],
        Type::Void,
        &[],
        &["ISET_DATA"],
        20,
    );
    t.register(
        "get_support",
        vec![Type::Handle],
        Type::Int,
        &["ISET_DATA"],
        &[],
        60,
    );
    t.register(
        "emit_itemset",
        vec![Type::Int, Type::Int],
        Type::Void,
        &[],
        &["OUT"],
        200,
    );
    // Freeing invalidates the bitmap contents: the ISET_DATA conflict
    // orders set_bit/get_support before iset_free within an iteration; the
    // fresh per-iteration handle keeps it iteration-private.
    t.register(
        "iset_free",
        vec![Type::Handle],
        Type::Void,
        &[],
        &["ISET_TABLE", "ISET_DATA"],
        25,
    );
    t.mark_per_instance("ISET_DATA");
    t
}

/// Intrinsic handlers.
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("num_trans", |_, _| {
        IntrinsicOutcome::value(NUM_TRANS as i64)
    });
    r.register("iset_new", |world, _| {
        let h = world.get_mut::<ItemsetStore>("isets").new_set();
        IntrinsicOutcome::value(h).with_serialized(12)
    });
    r.register("trans_len", |world, args| {
        let db = world.get::<TransDb>("db");
        IntrinsicOutcome::value(db.trans[args[0].as_int() as usize].len() as i64)
    });
    r.register("trans_item", |world, args| {
        let db = world.get::<TransDb>("db");
        let item = db.trans[args[0].as_int() as usize][args[1].as_int() as usize];
        IntrinsicOutcome::value(item as i64)
    });
    r.register("set_bit", |world, args| {
        world
            .get_mut::<ItemsetStore>("isets")
            .set_bit(args[0].as_int(), args[1].as_int() as usize);
        // Each transaction's bitmap is its own cache lines: the write
        // mostly overlaps.
        IntrinsicOutcome::unit().with_serialized(4)
    });
    r.register("get_support", |world, args| {
        let sup = world.get::<ItemsetStore>("isets").support(args[0].as_int());
        // Popcount sweep over the private bitmap.
        IntrinsicOutcome::value(sup)
            .with_cost((UNIVERSE / 2) as u64)
            .with_serialized(4)
    });
    r.register("emit_itemset", |world, args| {
        // Console print + vector push: externally visible, serialized.
        let line = (args[0].as_int() << 32) | args[1].as_int();
        world.get_mut::<Console>("console").print(line);
        IntrinsicOutcome::unit()
    });
    r.register("iset_free", |world, args| {
        world
            .get_mut::<ItemsetStore>("isets")
            .free(args[0].as_int());
        IntrinsicOutcome::unit().with_serialized(10)
    });
    r
}

/// Fresh input world over the shared transaction database.
fn make_world(db: &TransDb) -> World {
    let mut w = World::new();
    w.install("db", db.clone());
    w.install("isets", ItemsetStore::default());
    w.install("console", Console::default());
    w
}

/// Set semantics: each transaction's support is deterministic; the emitted
/// multiset must match.
fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s = seq.get::<Console>("console");
    let p = par.get::<Console>("console");
    if s.multiset() != p.multiset() {
        return Err("emitted itemsets differ".into());
    }
    if par.get::<ItemsetStore>("isets").live.is_empty() {
        Ok(())
    } else {
        Err("leaked itemsets".into())
    }
}

/// The geti workload (Figure 6c).
pub fn workload() -> Workload {
    let db = SharedInput::new(|| TransDb::generate(SEED));
    Workload {
        name: "geti",
        origin: "MineBench",
        exec_fraction: "98%",
        variants: vec![annotated_source(), deterministic_source()],
        schemes: vec![
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 1, Scheme::PsDswp, SyncMode::Lib, true),
            SchemeSpec::new("Comm-DOALL (Spin)", 0, Scheme::Doall, SyncMode::Spin, true),
            SchemeSpec::new(
                "Comm-DOALL (Mutex)",
                0,
                Scheme::Doall,
                SyncMode::Mutex,
                true,
            ),
        ],
        table: table(),
        registry: registry(),
        irrevocable: vec!["OUT"],
        make_world: Arc::new(move || make_world(db.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 3.6,
            best_scheme: "PS-DSWP + Lib",
            annotations: 11,
            noncomm_speedup: 1.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_sim::CostModel;

    #[test]
    fn sequential_supports_match_reference() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let console = world.get::<Console>("console");
        let expect: Vec<i64> = reference_supports()
            .iter()
            .enumerate()
            .map(|(t, &sup)| ((t as i64) << 32) | sup)
            .collect();
        assert_eq!(console.lines, expect);
    }

    #[test]
    fn annotation_count_matches_table2() {
        // The paper's C source needed 11 lines; our Cmm encoding expresses
        // the same relaxations in 9 (predicate sharing does the rest).
        assert_eq!(workload().annotation_count(), 9);
    }

    #[test]
    fn primary_is_doall_deterministic_is_pipeline() {
        let w = workload();
        assert!(w.analyze(0).unwrap().doall_legal());
        let a1 = w.analyze(1).unwrap();
        assert!(!a1.doall_legal());
        assert!(w
            .compiler()
            .applicable_schemes(&a1, 8)
            .contains(&Scheme::PsDswp));
    }

    #[test]
    fn ps_dswp_beats_doall_at_eight_threads_and_stays_ordered() {
        let w = workload();
        let cm = CostModel::default();
        let ps = w.speedup(&w.schemes[0], 8, &cm).unwrap();
        let spin = w.speedup(&w.schemes[1], 8, &cm).unwrap();
        assert!(
            ps > spin,
            "paper §5.2: PS-DSWP (3.6) overtakes DOALL at 8 threads: {ps:.2} vs {spin:.2}"
        );
        assert!(ps > 2.5, "paper: 3.6, got {ps:.2}");
        // Ordered output under PS-DSWP.
        let (_, world) = w.run_scheme(&w.schemes[0], 8, &cm).unwrap();
        let (_, seq_world) = w.run_sequential(&cm);
        assert_eq!(
            world.get::<Console>("console").lines,
            seq_world.get::<Console>("console").lines,
            "deterministic output"
        );
    }
}
