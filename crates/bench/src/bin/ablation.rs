//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **DOALL iteration scheduling** (cyclic vs blocked) on a workload
//!    with skewed per-iteration cost — why the transform defaults to
//!    cyclic distribution.
//! 2. **Cost-model sensitivity**: how the kmeans spin-degradation story
//!    depends on the contention constants (showing the *shape*, not the
//!    constant, carries the result).
//!
//! Run: `cargo run -p commset-bench --bin ablation`

use commset::{Compiler, SyncMode};
use commset_interp::{run_sequential, run_simulated};
use commset_ir::IntrinsicTable;
use commset_lang::ast::Type;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::{Registry, World};
use commset_sim::CostModel;
use commset_transform::doall::apply_doall_scheduled;
use commset_transform::plan::IterSchedule;

/// Skewed workload: iteration `i` costs ~`i` units — the worst case for
/// blocked scheduling.
const SKEWED: &str = r#"
    extern void work(int i);
    int main() {
        int n = 64;
        for (int i = 0; i < n; i = i + 1) {
            #pragma CommSet(SELF)
            { work(i); }
        }
        return 0;
    }
"#;

fn skewed_setup() -> (IntrinsicTable, Registry) {
    let mut t = IntrinsicTable::new();
    t.register("work", vec![Type::Int], Type::Void, &[], &["ACC"], 10);
    let mut r = Registry::new();
    r.register("work", |world, args| {
        *world.get_mut::<i64>("acc") += 1;
        // Ramp: late iterations are ~100x the early ones.
        IntrinsicOutcome::unit()
            .with_cost(20 * args[0].as_int() as u64)
            .with_serialized(2)
    });
    (t, r)
}

fn schedule_ablation() {
    println!("=== 1. DOALL iteration scheduling (skewed per-iteration cost) ===");
    let (table, registry) = skewed_setup();
    let compiler = Compiler::new(table);
    let a = compiler.analyze(SKEWED).expect("analyzes");
    let cm = CostModel::default();
    let seq_module = compiler.compile_sequential(&a).unwrap();
    let mut w = World::new();
    w.install("acc", 0i64);
    let seq = run_sequential(&seq_module, &registry, &mut w, &cm, "main").expect("baseline runs");
    println!("   threads   cyclic  blocked");
    for threads in [2, 4, 8] {
        let mut row = format!("   {threads:>7}");
        for schedule in [IterSchedule::Cyclic, IterSchedule::Blocked] {
            let pp = apply_doall_scheduled(
                &a.managed,
                &a.hot,
                &a.pdg,
                &a.summaries,
                &Default::default(),
                threads,
                SyncMode::Lib,
                0,
                schedule,
            )
            .expect("applies");
            let module =
                commset_ir::lower_program(&pp.program, compiler.intrinsics.clone()).unwrap();
            let mut w = World::new();
            w.install("acc", 0i64);
            let out =
                run_simulated(&module, &registry, &[pp.plan], &mut w, &cm).expect("schedule runs");
            assert_eq!(*w.get::<i64>("acc"), 64, "all iterations ran");
            row.push_str(&format!(
                "  {:6.2}",
                seq.sim_time as f64 / out.sim_time as f64
            ));
        }
        println!("{row}");
    }
    println!("   (cyclic interleaves the ramp across workers; blocked hands the");
    println!("    heavy tail to the last worker — the default is cyclic)\n");
}

fn sensitivity_ablation() {
    println!("=== 2. Cost-model sensitivity: kmeans spin degradation ===");
    let w = commset_workloads::kmeans::workload();
    let spin = w
        .schemes
        .iter()
        .find(|s| s.label.contains("Spin"))
        .expect("spin series");
    println!("   spin_contended   s@5    s@8   degrades past 5?");
    for factor in [0u64, 6, 12, 24, 48] {
        let cm = CostModel {
            spin_contended: factor,
            ..CostModel::default()
        };
        let s5 = w.speedup(spin, 5, &cm).unwrap();
        let s8 = w.speedup(spin, 8, &cm).unwrap();
        println!(
            "   {:>14} {:6.2} {:6.2}   {}",
            factor,
            s5,
            s8,
            if s8 < s5 { "yes" } else { "no" }
        );
    }
    println!("   (the degradation *shape* appears for any nonzero cache-bounce");
    println!("    penalty; the constant only moves the knee)");
}

fn main() {
    schedule_ablation();
    sensitivity_ablation();
}
