//! The `samples/` directory (standalone `.cmm` + effects sidecars for the
//! `commsetc` CLI) must stay compilable and parallelizable as the tool's
//! documentation claims.
//!
//! `samples/md5sum.schedules.txt` pins `commsetc schedules` on md5sum at
//! 8 threads byte for byte (DES ticks, so deterministic). To refresh
//! after an intentional change, rerun with `SCHEDULES_GOLDEN_REGEN=1` and
//! review the diff.

use commset::profile::{rank_schedules, Ranking, SyntheticSource};
use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{run_attempt, Backend, ExecConfig, ProgramDesc, TraceSink};

/// The (sample, threads) pairs the DES-ranking tests cover.
const RANKED: [(&str, usize); 4] = [
    ("md5sum", 2),
    ("md5sum", 8),
    ("histogram", 2),
    ("histogram", 8),
];

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

fn load(name: &str) -> (String, String) {
    let dir = samples_dir();
    let src = std::fs::read_to_string(format!("{dir}/{name}.cmm"))
        .unwrap_or_else(|e| panic!("{name}.cmm: {e}"));
    let fx = std::fs::read_to_string(format!("{dir}/{name}.effects"))
        .unwrap_or_else(|e| panic!("{name}.effects: {e}"));
    (src, fx)
}

fn compiler_for(name: &str) -> (Compiler, String) {
    let (src, fx) = load(name);
    let spec = parse_effects(&fx).expect("sidecar parses");
    let table = build_table(&src, &spec).expect("table builds");
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    (Compiler::new(table).with_irrevocable(&irrevocable), src)
}

#[test]
fn md5sum_sample_analyzes_and_schedules() {
    let (c, src) = compiler_for("md5sum");
    let a = c.analyze(&src).expect("analyzes");
    assert!(a.doall_legal(), "{}", a.pdg_dump());
    let ranked = c.compile_all(&a, 8);
    assert!(!ranked.is_empty());
    // FS and CONSOLE are irrevocable: no TM schedule may appear.
    assert!(
        ranked.iter().all(|(_, sync, _, _)| *sync != SyncMode::Tm),
        "irrevocable channels reject TM"
    );
    // The emit path (transformed AST) must print without panicking.
    let pp = c
        .compile_to_ast(&a, Scheme::Doall, 8, SyncMode::Spin)
        .expect("DOALL emits");
    let printed = commset_lang::printer::print_program(&pp.program);
    assert!(printed.contains("__lock_acquire"), "sync engine ran");
    assert!(
        printed.contains("__par_invoke"),
        "main dispatches the section"
    );
}

#[test]
fn histogram_sample_uses_reduction_and_predicated_self() {
    let (c, src) = compiler_for("histogram");
    let a = c.analyze(&src).expect("analyzes");
    assert!(a.doall_legal(), "{}", a.pdg_dump());
    let (_, plan) = c
        .compile(&a, Scheme::Doall, 8, SyncMode::Spin)
        .expect("DOALL applies");
    // The NoSync predicated-Self set takes no lock; the reduction and the
    // SELF tally do.
    assert!(plan.locks.iter().all(|l| l.set != "TSET"));
    assert!(plan.locks.iter().any(|l| l.set == "__reduction"));
}

#[test]
fn samples_without_pragmas_do_not_parallelize() {
    for name in ["md5sum", "histogram"] {
        let (c, src) = compiler_for(name);
        let plain = commset_workloads::framework::strip_pragmas(&src);
        let a = c.analyze(&plain).expect("plain source analyzes");
        assert!(
            !a.doall_legal(),
            "{name}: without annotations the loop must stay sequential"
        );
    }
}

#[test]
fn md5sum_schedules_match_golden() {
    let dir = samples_dir();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_commsetc"))
        .arg("schedules")
        .arg(format!("{dir}/md5sum.cmm"))
        .arg("--effects")
        .arg(format!("{dir}/md5sum.effects"))
        .args(["--threads", "8"])
        .output()
        .expect("commsetc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let path = format!("{dir}/md5sum.schedules.txt");
    if std::env::var_os("SCHEDULES_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(
        got, want,
        "schedules output drifted from its golden file \
         (rerun with SCHEDULES_GOLDEN_REGEN=1 if intentional)"
    );
}

/// Ranks a sample on the DES at `threads`, with its source and sidecar.
fn ranking(name: &str, threads: usize) -> (Ranking, String, String) {
    let (c, src) = compiler_for(name);
    let (_, fx) = load(name);
    let spec = parse_effects(&fx).expect("sidecar parses");
    let a = c.analyze(&src).expect("analyzes");
    let ranking = rank_schedules(&c, &a, &spec, threads).expect("ranks");
    assert_eq!(ranking.schedules.len(), c.compile_all(&a, threads).len());
    (ranking, src, fx)
}

#[test]
fn des_ranking_is_ascending_and_starts_at_the_minimum() {
    for (name, threads) in RANKED {
        let rows = ranking(name, threads).0.schedules;
        assert!(
            rows.windows(2).all(|p| p[0].ticks <= p[1].ticks),
            "{name} x{threads}"
        );
        assert_eq!(rows[0].ticks, rows.iter().map(|r| r.ticks).min().unwrap());
        assert_eq!(rows[0].sync, SyncMode::Lib, "no locks beats locks");
    }
}

/// `schedules` and `profile` report one number: every ranked row's ticks
/// are the simulated time of the attempt `commsetc profile` runs for that
/// schedule.
#[test]
fn ranked_ticks_equal_the_profile_attempt() {
    for (name, threads) in RANKED {
        let (ranking, src, fx) = ranking(name, threads);
        for row in &ranking.schedules {
            let attempt = SyntheticSource::new(ProgramDesc {
                path: format!("samples/{name}.cmm"),
                source: src.clone(),
                effects: fx.clone(),
                scheme: row.scheme.to_string(),
                sync: row.sync.to_string(),
                hot_func: None,
            })
            .expect("analyzes");
            let cfg = ExecConfig::with_trace(TraceSink::new());
            let out = run_attempt(&attempt, Backend::Sim, threads, &cfg).expect("runs");
            let what = format!("{name} x{threads}: {} + {}", row.scheme, row.sync);
            assert_eq!(Some(row.ticks), out.sim_time, "{what}");
            let speedup = ranking.sequential_ticks as f64 / row.ticks as f64;
            assert!((row.speedup - speedup).abs() < 1e-9, "{what}");
        }
    }
}

/// A predicate whose constant part overflows `i64` must not panic the
/// prover; the fold is opaque, so only the proof weakens.
#[test]
fn overflowing_predicate_constant_does_not_panic_the_compiler() {
    let (c, src) = compiler_for("histogram");
    let changed = src.replace(
        "(k1), (k2), k1 != k2)",
        "(k1), (k2), (k1 != k2) && ((-9223372036854775807 - 1) / -1 != 0))",
    );
    assert_ne!(changed, src, "the sample's predicate moved");
    c.analyze(&changed).expect("analyzes");
}
