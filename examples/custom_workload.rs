//! Bring your own workload: a log-analysis pipeline on a custom world.
//!
//! Everything a downstream user needs to parallelize their own program:
//!
//! 1. define a *world* — the mutable state the program's extern calls
//!    touch (here: a log, a per-record store, a severity histogram);
//! 2. describe each extern's effects in an [`IntrinsicTable`] (which
//!    channels it reads and writes, and what it costs);
//! 3. implement the externs in a [`Registry`];
//! 4. annotate the source with CommSet pragmas;
//! 5. compile every applicable (scheme, sync) pair with
//!    [`Compiler::compile_all`], simulate each one and keep the fastest.
//!
//! The example also shows the predicate path (paper §4.4): `store_put`
//! writes are keyed by the induction variable, and the declared predicate
//! `k1 != k2` is *proven* for distinct iterations, which relaxes the
//! loop-carried STORE dependence. `CommSetNoSync` then states that
//! disjoint-key puts are naturally race-free, so those calls take no lock
//! at all — only the histogram updates synchronize.
//!
//! Run with: `cargo run --example custom_workload`

use commset::Compiler;
use commset_interp::{run_sequential, run_simulated};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::{Registry, World};
use commset_sim::CostModel;

const RECORDS: i64 = 96;
const BUCKETS: usize = 8;

const SOURCE: &str = r#"
    #pragma CommSetDecl(STORE_SET, Self)
    #pragma CommSetPredicate(STORE_SET, (k1), (k2), k1 != k2)
    #pragma CommSetNoSync(STORE_SET)
    extern int log_read(int i);
    extern int parse(int rec);
    extern void store_put(int k, int v);
    extern void tally(int c);
    int main() {
        int n = 96;
        for (int i = 0; i < n; i = i + 1) {
            int rec = log_read(i);
            int v = parse(rec);
            #pragma CommSet(STORE_SET(i))
            { store_put(i, v); }
            int c = v % 8;
            #pragma CommSet(SELF)
            { tally(c); }
        }
        return 0;
    }
"#;

/// The custom world behind the externs.
#[derive(Debug, Clone, PartialEq)]
struct LogDb {
    /// Immutable input: raw records.
    log: Vec<i64>,
    /// Parsed value per record key.
    store: Vec<i64>,
    /// Severity histogram.
    hist: Vec<i64>,
}

fn fresh_world() -> World {
    let log = (0..RECORDS).map(|i| i * 131 + 7).collect();
    let mut w = World::new();
    w.install(
        "db",
        LogDb {
            log,
            store: vec![0; RECORDS as usize],
            hist: vec![0; BUCKETS],
        },
    );
    w
}

fn intrinsics() -> IntrinsicTable {
    let mut t = IntrinsicTable::new();
    // log_read only *reads* the LOG channel: no annotation needed for it.
    t.register("log_read", vec![Type::Int], Type::Int, &["LOG"], &[], 60);
    t.register("parse", vec![Type::Int], Type::Int, &[], &[], 500);
    t.register(
        "store_put",
        vec![Type::Int, Type::Int],
        Type::Void,
        &[],
        &["STORE"],
        30,
    );
    t.register(
        "tally",
        vec![Type::Int],
        Type::Void,
        &["HIST"],
        &["HIST"],
        10,
    );
    t
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("log_read", |world, args| {
        let db = world.get::<LogDb>("db");
        IntrinsicOutcome::value(db.log[args[0].as_int() as usize])
    });
    r.register("parse", |_, args| {
        // A stand-in for real parsing: nonlinear but deterministic.
        let rec = args[0].as_int();
        IntrinsicOutcome::value((rec * rec + 3 * rec) % 1009)
    });
    r.register("store_put", |world, args| {
        let db = world.get_mut::<LogDb>("db");
        db.store[args[0].as_int() as usize] = args[1].as_int();
        IntrinsicOutcome::unit()
    });
    r.register("tally", |world, args| {
        let db = world.get_mut::<LogDb>("db");
        db.hist[args[0].as_int() as usize % BUCKETS] += 1;
        IntrinsicOutcome::unit()
    });
    r
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::new(intrinsics());
    let cm = CostModel::default();
    let analysis = compiler.analyze(SOURCE)?;
    println!(
        "analysis: {} pragma lines relaxed {} PDG edges; DOALL legal? {}",
        analysis.annotation_lines,
        analysis.relaxed_edges,
        analysis.doall_legal()
    );
    for line in analysis.explain_inhibitors() {
        println!("  inhibitor: {line}");
    }

    // Sequential reference.
    let seq_module = compiler.compile_sequential(&analysis)?;
    let mut seq_world = fresh_world();
    let seq = run_sequential(&seq_module, &registry(), &mut seq_world, &cm, "main")
        .expect("sequential run succeeds");

    // Simulate every applicable schedule at 8 threads and keep the
    // fastest.
    let mut best: Option<(u64, String, World)> = None;
    println!("\ncandidate schedules at 8 threads:");
    println!("{:<22} {:>9} {:>7}", "schedule", "measured", "locks");
    for (scheme, sync, module, plan) in compiler.compile_all(&analysis, 8) {
        let mut world = fresh_world();
        let out = run_simulated(
            &module,
            &registry(),
            std::slice::from_ref(&plan),
            &mut world,
            &cm,
        )
        .expect("simulated run succeeds");
        assert_eq!(
            world.get::<LogDb>("db"),
            seq_world.get::<LogDb>("db"),
            "{scheme} {sync}: world must match the sequential run"
        );
        let label = format!("{scheme} + {sync}");
        println!(
            "{:<22} {:>8.2}x {:>7}",
            label,
            seq.sim_time as f64 / out.sim_time as f64,
            plan.locks.len()
        );
        // The proven predicate means STORE writes are lock-free: the only
        // lock guards the histogram's SELF set.
        assert!(
            plan.locks.iter().all(|l| !l.set.contains("STORE")),
            "predicate-proven disjoint writes must not synchronize"
        );
        // Strictly faster only: ties keep the earlier candidate.
        if best.as_ref().is_none_or(|(t, ..)| out.sim_time < *t) {
            best = Some((out.sim_time, label, world));
        }
    }

    let (sim_time, label, world) = best.expect("at least one schedule applies");
    println!(
        "\nfastest: {label}: {:.2}x over sequential",
        seq.sim_time as f64 / sim_time as f64
    );
    println!("histogram: {:?}", world.get::<LogDb>("db").hist);
    Ok(())
}
