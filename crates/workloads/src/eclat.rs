//! **ECLAT** — association-rule mining over a vertical database (paper
//! §5.3, MineBench).
//!
//! The main loop reads a candidate's tid-list from the vertical database
//! (mutating a shared cursor, like the paper's shared file descriptors),
//! intersects it against the previous frequent set (the heavy compute),
//! inserts the result into a set-semantics list, and updates statistics.
//! The paper's four annotation sites:
//!
//! * (a) database reads are self-commutative;
//! * (b) insertions into `Lists<Itemset*>` are context-sensitively
//!   self-commuting in the client (set semantics);
//! * (c) object construction/destruction commute on separate iterations;
//! * (d) the `Stats` methods form an unpredicated Group CommSet.
//!
//! The second variant drops the annotation on the database read — the
//! paper's "next best schedule ... from DSWP, that does not leverage
//! COMMSET properties on database read".

use crate::framework::{PaperRow, SchemeSpec, Workload};
use crate::worldlib::{AllocTable, SharedInput};
use commset::{Scheme, SyncMode};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{
    stripe_of, stripe_slot, MergeSpec, Registry, SlotBinding, World, WORLD_STRIPES,
};
use std::sync::Arc;

/// Candidate itemsets processed.
pub const NUM_CANDS: usize = 96;
/// Transactions in the database (tid-list entries are below this).
pub const NUM_TIDS: usize = 4096;
/// Average tid-list length.
pub const TIDS_PER_LIST: usize = 160;
const SEED: u64 = 0x5eed_0004;

/// The immutable vertical database: tid-lists plus the previous level's
/// frequent set. Shared (`Arc`) between the mutable mining state and the
/// per-stripe object shards, so the heavy intersection kernel can run
/// against a stripe-local slot without touching the shared `eclat` slot.
#[derive(Debug)]
pub struct EclatDb {
    /// Sorted tid-lists per candidate.
    pub tidlists: Vec<Vec<i64>>,
    /// The previous level's frequent itemset tid-list (intersection rhs).
    pub prev: Vec<i64>,
}

impl EclatDb {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut list = |avg: usize| -> Vec<i64> {
            let len = avg / 2 + rng.next_below(avg as u64) as usize;
            let mut v: Vec<i64> = (0..len)
                .map(|_| rng.next_below(NUM_TIDS as u64) as i64)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let tidlists = (0..NUM_CANDS).map(|_| list(TIDS_PER_LIST)).collect();
        let prev = list(TIDS_PER_LIST * 4);
        EclatDb { tidlists, prev }
    }

    /// Sorted-list intersection size — the mining kernel.
    pub fn intersect(&self, c: usize) -> i64 {
        let (mut i, mut j, mut n) = (0, 0, 0);
        let a = &self.tidlists[c];
        let b = &self.prev;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

/// The mutable mining state (outputs + shared cursor) over the shared
/// database.
#[derive(Debug, Clone)]
pub struct Eclat {
    /// The shared vertical database.
    pub db: Arc<EclatDb>,
    /// Shared read cursor (the paper's mutated file descriptor).
    pub cursor: i64,
    /// Output list with set semantics: (candidate, support) pairs.
    pub lists: Vec<(i64, i64)>,
    /// Statistics: processed count.
    pub stat_count: i64,
    /// Statistics: maximum support.
    pub stat_max: i64,
}

impl Eclat {
    /// Mining state over `db` with nothing read or mined yet.
    fn start(db: &Arc<EclatDb>) -> Eclat {
        Eclat {
            db: Arc::clone(db),
            cursor: 0,
            lists: Vec::new(),
            stat_count: 0,
            stat_max: 0,
        }
    }

    /// Sorted-list intersection size (delegates to the shared database).
    pub fn intersect(&self, c: usize) -> i64 {
        self.db.intersect(c)
    }
}

/// One stripe of the itemset-object table: a stride-aligned
/// [`AllocTable`] plus its own reference to the shared database, so
/// `intersect_lists` runs entirely inside the stripe's shard.
#[derive(Debug)]
pub struct ObjShard {
    /// Live itemset objects homed in this stripe.
    pub table: AllocTable,
    /// The shared vertical database (read-only here).
    pub db: Arc<EclatDb>,
}

/// Native reference supports per candidate.
pub fn reference_supports() -> Vec<i64> {
    let db = EclatDb::generate(SEED);
    (0..NUM_CANDS).map(|c| db.intersect(c)).collect()
}

fn source(db_self: bool) -> String {
    let db = if db_self {
        "#pragma CommSet(SELF)\n        "
    } else {
        ""
    };
    format!(
        r#"
#pragma CommSetDecl(OSET, Group)
#pragma CommSetPredicate(OSET, (i1), (i2), i1 != i2)
#pragma CommSetDecl(STATS, Group)

extern int num_cands();
extern int db_read(int c);
extern handle obj_new(int c);
extern int intersect_lists(handle o, int t);
extern void lists_insert(int c, int sup);
extern void stat_count(int sup);
extern void stat_max(int sup);
extern void obj_del(handle o);

int main() {{
    int n = num_cands();
    for (int c = 0; c < n; c = c + 1) {{
        int t = 0;
        {db}{{ t = db_read(c); }}
        handle o = handle(0);
        #pragma CommSet(SELF, OSET(c))
        {{ o = obj_new(c); }}
        int sup = intersect_lists(o, t);
        #pragma CommSet(SELF)
        {{ lists_insert(c, sup); }}
        #pragma CommSet(SELF, STATS)
        {{ stat_count(sup); }}
        #pragma CommSet(SELF, STATS)
        {{ stat_max(sup); }}
        #pragma CommSet(SELF, OSET(c))
        {{ obj_del(o); }}
    }}
    return 0;
}}
"#
    )
}

/// Primary variant (all four annotation sites).
pub fn annotated_source() -> String {
    source(true)
}

/// Variant without the database-read annotation (pipeline-only there).
pub fn no_dbread_source() -> String {
    source(false)
}

/// Intrinsic signatures.
pub fn table() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    t.register("num_cands", vec![], Type::Int, &[], &[], 5);
    t.register("db_read", vec![Type::Int], Type::Int, &["DB"], &["DB"], 70);
    t.register("obj_new", vec![Type::Int], Type::Handle, &[], &["OBJ"], 30);
    t.mark_fresh_handle("obj_new");
    // Intersection reads the candidate object; deletion invalidates it.
    t.register(
        "intersect_lists",
        vec![Type::Handle, Type::Int],
        Type::Int,
        &["OBJ_DATA"],
        &[],
        60,
    );
    t.register(
        "lists_insert",
        vec![Type::Int, Type::Int],
        Type::Void,
        &[],
        &["LISTS"],
        35,
    );
    t.register(
        "stat_count",
        vec![Type::Int],
        Type::Void,
        &[],
        &["STATS"],
        10,
    );
    t.register("stat_max", vec![Type::Int], Type::Void, &[], &["STATS"], 10);
    t.register(
        "obj_del",
        vec![Type::Handle],
        Type::Void,
        &[],
        &["OBJ", "OBJ_DATA"],
        20,
    );
    t.mark_per_instance("OBJ_DATA");
    t
}

/// The `objs` stripe an itemset object (candidate index or handle) lives
/// in. `obj_new(c)` allocates from stripe `c mod 8`, whose stride-aligned
/// table hands out handles with `handle mod 8 == c mod 8`, so per-handle
/// calls route back to the allocating stripe.
fn objs_stripe(key: i64) -> usize {
    stripe_of(key, WORLD_STRIPES)
}

/// Intrinsic handlers, with slot bindings declaring each intrinsic's
/// world footprint: group-level state (`eclat`) is a fixed slot, the
/// per-instance object table is striped. Delta-buffer stripes share `db`
/// with the worlds.
fn registry(db: SharedInput<Arc<EclatDb>>) -> Registry {
    let mut r = Registry::new();
    r.register("num_cands", |_, _| {
        IntrinsicOutcome::value(NUM_CANDS as i64)
    });
    r.register("db_read", |world, args| {
        let db = world.get_mut::<Eclat>("eclat");
        db.cursor += 1; // the shared-descriptor mutation
        IntrinsicOutcome::value(args[0].as_int()).with_serialized(25)
    });
    r.register("obj_new", |world, args| {
        let c = args[0].as_int();
        let h = world
            .stripe_mut::<ObjShard>("objs", objs_stripe(c))
            .table
            .alloc(c);
        IntrinsicOutcome::value(h).with_serialized(10)
    });
    r.register("intersect_lists", |world, args| {
        // The object must still be live while intersecting; the heavy
        // kernel reads only the stripe's shared-database reference, so it
        // runs without touching the group-level `eclat` slot.
        let h = args[0].as_int();
        let shard = world.stripe::<ObjShard>("objs", objs_stripe(h));
        let _payload = shard.table.payload(h);
        let c = args[1].as_int() as usize;
        let sup = shard.db.intersect(c);
        let work = (shard.db.tidlists[c].len() + shard.db.prev.len()) as u64 * 12;
        IntrinsicOutcome::value(sup)
            .with_cost(work)
            .with_serialized(0)
    });
    r.register("lists_insert", |world, args| {
        let db = world.get_mut::<Eclat>("eclat");
        db.lists.push((args[0].as_int(), args[1].as_int()));
        IntrinsicOutcome::unit().with_serialized(12)
    });
    r.register("stat_count", |world, args| {
        let _ = args;
        world.get_mut::<Eclat>("eclat").stat_count += 1;
        IntrinsicOutcome::unit()
    });
    r.register("stat_max", |world, args| {
        let db = world.get_mut::<Eclat>("eclat");
        db.stat_max = db.stat_max.max(args[0].as_int());
        IntrinsicOutcome::unit()
    });
    r.register("obj_del", |world, args| {
        let h = args[0].as_int();
        world
            .stripe_mut::<ObjShard>("objs", objs_stripe(h))
            .table
            .free(h);
        IntrinsicOutcome::unit().with_serialized(8)
    });
    let objs_by_arg0 = || {
        vec![SlotBinding::Striped {
            base: "objs".into(),
            stripes: WORLD_STRIPES,
            arg: 0,
        }]
    };
    r.bind("num_cands", vec![]); // pure: touches no world slot
    r.bind("db_read", vec![SlotBinding::Fixed("eclat".into())]);
    r.bind("obj_new", objs_by_arg0());
    r.bind("intersect_lists", objs_by_arg0());
    r.bind("lists_insert", vec![SlotBinding::Fixed("eclat".into())]);
    r.bind("stat_count", vec![SlotBinding::Fixed("eclat".into())]);
    r.bind("stat_max", vec![SlotBinding::Fixed("eclat".into())]);
    r.bind("obj_del", objs_by_arg0());
    // Delta merges. The group-level `eclat` state folds by component:
    // cursor and count add, the set-semantics list appends, the max
    // statistic maxes — each exact under any coalesce order. The striped
    // object tables absorb: alloc/free pair within one iteration (one
    // worker), so a worker's table arrives empty and contributes only its
    // allocation count.
    let fold_db = db.clone();
    r.declare_merge(
        "eclat",
        MergeSpec::custom(
            "eclat-fold",
            move |_| Eclat::start(fold_db.get()),
            |base: &mut Eclat, d: Eclat| {
                base.cursor += d.cursor;
                base.lists.extend(d.lists);
                base.stat_count += d.stat_count;
                base.stat_max = base.stat_max.max(d.stat_max);
            },
        ),
    );
    r.declare_merge(
        "objs",
        MergeSpec::custom(
            "objs-absorb",
            move |slot| {
                let k: usize = slot
                    .rsplit('#')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("objs slots are `objs#k`");
                ObjShard {
                    table: AllocTable::with_stride(k, WORLD_STRIPES),
                    db: Arc::clone(db.get()),
                }
            },
            |base: &mut ObjShard, d: ObjShard| base.table.absorb(d.table),
        ),
    );
    r
}

/// Fresh input world: the shared mining state plus [`WORLD_STRIPES`]
/// object-table stripes (`objs#0` … `objs#7`) sharing the database.
fn make_world(db: &Arc<EclatDb>) -> World {
    let mut w = World::new();
    w.install("eclat", Eclat::start(db));
    for k in 0..WORLD_STRIPES {
        w.install(
            &stripe_slot("objs", k),
            ObjShard {
                table: AllocTable::with_stride(k, WORLD_STRIPES),
                db: Arc::clone(db),
            },
        );
    }
    w
}

/// Set semantics on the output list; statistics are order-independent.
fn validate(seq: &World, par: &World) -> Result<(), String> {
    let s = seq.get::<Eclat>("eclat");
    let p = par.get::<Eclat>("eclat");
    let mut sl = s.lists.clone();
    let mut pl = p.lists.clone();
    sl.sort_unstable();
    pl.sort_unstable();
    if sl != pl {
        return Err("frequent itemset lists differ".into());
    }
    if s.stat_count != p.stat_count || s.stat_max != p.stat_max {
        return Err("statistics differ".into());
    }
    if s.cursor != p.cursor {
        return Err("database cursor differs".into());
    }
    let live: usize = (0..WORLD_STRIPES)
        .map(|k| par.stripe::<ObjShard>("objs", k).table.live_count())
        .sum();
    if live != 0 {
        return Err("leaked itemset objects".into());
    }
    Ok(())
}

/// The ECLAT workload (Figure 6d).
pub fn workload() -> Workload {
    let db = SharedInput::new(|| Arc::new(EclatDb::generate(SEED)));
    Workload {
        name: "ECLAT",
        origin: "MineBench",
        exec_fraction: "97%",
        variants: vec![annotated_source(), no_dbread_source()],
        schemes: vec![
            SchemeSpec::new(
                "Comm-DOALL (Mutex)",
                0,
                Scheme::Doall,
                SyncMode::Mutex,
                true,
            ),
            SchemeSpec::new("Comm-DOALL (Spin)", 0, Scheme::Doall, SyncMode::Spin, true),
            SchemeSpec::new("Comm-PS-DSWP (Lib)", 0, Scheme::PsDswp, SyncMode::Lib, true),
            SchemeSpec::new(
                "Comm-DSWP (no db-read)",
                1,
                Scheme::PsDswp,
                SyncMode::Lib,
                true,
            ),
        ],
        table: table(),
        registry: registry(db.clone()),
        irrevocable: vec!["DB", "LISTS"],
        make_world: Arc::new(move || make_world(db.get())),
        validate: Arc::new(validate),
        paper: PaperRow {
            best_speedup: 7.5,
            best_scheme: "DOALL + Mutex",
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
    fn sequential_matches_reference() {
        let w = workload();
        let (_, world) = w.run_sequential(&CostModel::default());
        let db = world.get::<Eclat>("eclat");
        let expect: Vec<(i64, i64)> = reference_supports()
            .iter()
            .enumerate()
            .map(|(c, &s)| (c as i64, s))
            .collect();
        assert_eq!(db.lists, expect);
        assert_eq!(db.stat_count, NUM_CANDS as i64);
        assert_eq!(
            db.stat_max,
            reference_supports().iter().copied().max().unwrap()
        );
    }

    #[test]
    fn full_variant_is_doall_legal() {
        let w = workload();
        assert!(w.analyze(0).unwrap().doall_legal());
        // Without the db-read annotation the loop is pipeline-only.
        let a1 = w.analyze(1).unwrap();
        assert!(!a1.doall_legal());
    }

    #[test]
    fn doall_mutex_scales_near_paper() {
        let w = workload();
        let cm = CostModel::default();
        let m8 = w.speedup(&w.schemes[0], 8, &cm).unwrap();
        assert!(
            m8 > 5.0,
            "paper: 7.5 with mutex (low contention), got {m8:.2}"
        );
    }

    #[test]
    fn without_dbread_pipeline_is_slower_than_doall() {
        let w = workload();
        let cm = CostModel::default();
        let doall = w.speedup(&w.schemes[0], 8, &cm).unwrap();
        let nodb = w.speedup(&w.schemes[3], 8, &cm).unwrap();
        assert!(
            nodb < doall,
            "paper §5.3: the schedule without db-read commutativity is next-best ({nodb:.2} vs {doall:.2})"
        );
    }
}
