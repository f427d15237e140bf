//! Inputs built once per workload.
//!
//! Each workload generates its constant input (files, databases, bitmaps,
//! packets, graph) once and every `make_world` call installs fresh mutable
//! state around that shared value. A handler that mutated the shared part
//! would leak one run's effects into the next world. So for every
//! workload: the sequential baseline runs on a first world, then on a
//! second world made after the first run finished, and both runs must
//! agree on the result, the simulated time and the retired-op count, and
//! validate against each other both ways. A DES schedule on a third world
//! must then still reproduce its row of `samples/sim/fig6.expected`.
//! md5sum and ECLAT also hand the input to delta-buffer init; that must be
//! the very allocation the worlds share, not a second copy.

use commset_interp::{run_sequential, ExecConfig};
use commset_runtime::{Value, World};
use commset_sim::CostModel;
use commset_workloads::eclat::{Eclat, ObjShard};
use commset_workloads::worldlib::FsShard;
use commset_workloads::{all, Workload};
use std::sync::Arc;

fn golden() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../samples/sim/fig6.expected"
    );
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The sequential baseline on `world`: its result, simulated time and
/// retired-op count.
fn baseline(w: &Workload, world: &mut World, cm: &CostModel) -> (Option<Value>, u64, u64) {
    let compiler = w.compiler();
    let analysis = compiler
        .analyze(&w.plain_source())
        .expect("baseline analyzes");
    let module = compiler
        .compile_sequential(&analysis)
        .expect("baseline lowers");
    let out = run_sequential(&module, &w.registry, world, cm, "main")
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
    (out.result, out.sim_time, out.insts)
}

#[test]
fn worlds_made_after_a_run_start_from_the_same_input() {
    let cm = CostModel::default();
    let golden = golden();
    for w in all() {
        let mut first = (w.make_world)();
        let a = baseline(&w, &mut first, &cm);
        let mut second = (w.make_world)();
        let b = baseline(&w, &mut second, &cm);
        assert_eq!(a, b, "{}: (result, sim_time, retired ops)", w.name);
        (w.validate)(&first, &second).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        (w.validate)(&second, &first).unwrap_or_else(|e| panic!("{}: {e}", w.name));

        // One DES schedule on a third world against its golden row.
        let spec = w
            .schemes
            .iter()
            .find(|s| s.commset)
            .expect("a COMMSET spec");
        let (sim_time, third, stats) = w
            .run_scheme_with(spec, 4, &cm, &ExecConfig::default())
            .unwrap_or_else(|_| panic!("{}: {} runs at x4", w.name, spec.label));
        (w.validate)(&first, &third).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let wd = &stats.watchdog;
        let row = format!(
            "{} | {} | x4 | none | sim_time={sim_time} | wd checks={} max_blocked={} clean={} |",
            w.name,
            spec.label,
            wd.checks,
            wd.max_blocked,
            wd.is_clean()
        );
        assert!(
            golden.lines().any(|l| l.starts_with(&row)),
            "{}: no golden row starts with `{row}`",
            w.name
        );
    }
}

fn workload(name: &str) -> Workload {
    all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

#[test]
fn md5sum_worlds_and_delta_init_share_one_file_set() {
    let w = workload("md5sum");
    let (a, b) = ((w.make_world)(), (w.make_world)());
    let files = &a.stripe::<FsShard>("fs", 0).files;
    assert!(Arc::ptr_eq(files, &a.stripe::<FsShard>("fs", 7).files));
    assert!(Arc::ptr_eq(files, &b.stripe::<FsShard>("fs", 3).files));
    let fresh = w
        .registry
        .merge_of("fs#5")
        .expect("fs merges")
        .fresh("fs#5");
    let shard = fresh.downcast::<FsShard>().expect("an FsShard");
    assert!(
        Arc::ptr_eq(files, &shard.files),
        "delta init built its own copy"
    );
}

#[test]
fn eclat_worlds_and_delta_init_share_one_database() {
    let w = workload("ECLAT");
    let (a, b) = ((w.make_world)(), (w.make_world)());
    let db = &a.get::<Eclat>("eclat").db;
    assert!(Arc::ptr_eq(db, &a.stripe::<ObjShard>("objs", 4).db));
    assert!(Arc::ptr_eq(db, &b.get::<Eclat>("eclat").db));
    let fresh = w
        .registry
        .merge_of("objs#2")
        .expect("objs merges")
        .fresh("objs#2");
    let shard = fresh.downcast::<ObjShard>().expect("an ObjShard");
    assert!(Arc::ptr_eq(db, &shard.db), "delta init built its own copy");
}
