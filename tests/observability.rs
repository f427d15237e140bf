//! End-to-end observability tests: the golden `commsetc report` text and
//! JSONL journal, the journal's determinism on the DES, metrics zero-cost
//! guarantees at the profile level, the causal link between a captured
//! `.repro.json` failure bundle and the journal of the run that captured
//! it, and `commsetc profile --repro-dir` capturing a bundle that
//! `commsetc replay` reproduces.
//!
//! The golden tests pin the hotspot report and the journal byte for byte
//! (DES backend, deterministic ticks). To refresh after an intentional
//! format change, rerun with `REPORT_GOLDEN_REGEN=1` and review the diff.

use commset::profile::SyntheticSource;
use commset::report::{parse_journal, render_journal};
use commset::{Scheme, SyncMode};
use commset_interp::{
    capture_bundle, run_attempt, run_id, Attempt, Backend, ExecConfig, FailureBundle, ProgramDesc,
    TraceSink,
};

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

/// Runs the md5sum sample exactly the way `commsetc report` does: DES
/// backend, metrics registry on, and the journal rendered under the
/// run id the CLI derives.
fn md5sum_report(metrics: bool) -> (Attempt, String) {
    let dir = samples_dir();
    let src = SyntheticSource::new(ProgramDesc {
        path: "samples/md5sum.cmm".into(),
        source: std::fs::read_to_string(format!("{dir}/md5sum.cmm")).expect("md5sum.cmm"),
        effects: std::fs::read_to_string(format!("{dir}/md5sum.effects")).expect("md5sum.effects"),
        scheme: Scheme::Dswp.to_string(),
        sync: SyncMode::Spin.to_string(),
        hot_func: None,
    })
    .expect("analyzes");
    let cfg = ExecConfig {
        trace: Some(TraceSink::new()),
        metrics,
        ..ExecConfig::default()
    };
    let out = run_attempt(&src, Backend::Sim, 4, &cfg).expect("profile runs");
    let journal = render_journal(
        run_id("samples/md5sum.cmm", "dswp", "spin", 4, "sim"),
        out.telemetry.as_ref(),
        out.sim_time,
        out.metrics.as_ref(),
    );
    (out, journal)
}

#[test]
fn report_text_matches_golden() {
    let (out, jsonl) = md5sum_report(true);
    let report = parse_journal(&jsonl).expect("own journal parses");
    let got = format!(
        "{}total simulated time: {} ticks\n",
        report.render_text(10),
        out.sim_time.expect("DES backend reports sim time")
    );
    let path = format!("{}/md5sum.report.txt", samples_dir());
    if std::env::var_os("REPORT_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(
        got, want,
        "rendered hotspot report drifted from its golden file \
         (rerun with REPORT_GOLDEN_REGEN=1 if intentional)"
    );
}

#[test]
fn journal_jsonl_matches_golden() {
    let (_, got) = md5sum_report(true);
    let path = format!("{}/md5sum.journal.jsonl", samples_dir());
    if std::env::var_os("REPORT_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(
        got, want,
        "rendered journal drifted from its golden file \
         (rerun with REPORT_GOLDEN_REGEN=1 if intentional)"
    );
}

#[test]
fn journal_and_report_are_deterministic_across_runs() {
    let (_, a) = md5sum_report(true);
    let (_, b) = md5sum_report(true);
    // DES ticks + derived run ids: the whole journal is bit-stable, so
    // the saved-JSONL view and the live view can never disagree.
    assert_eq!(a, b);
}

#[test]
fn metrics_and_journal_do_not_shift_the_sim_clock() {
    let (off, _) = md5sum_report(false);
    let (on, _) = md5sum_report(true);
    assert_eq!(
        off.sim_time, on.sim_time,
        "metrics instrumentation perturbed the simulated clock"
    );
    // The span-level profile is byte-identical too, and the registry
    // only exists when asked for.
    let text = |out: &Attempt| out.telemetry.as_ref().expect("traced").render_text();
    assert_eq!(text(&off), text(&on));
    assert!(off.metrics.is_none());
    let reg = on.metrics.expect("metrics were enabled");
    assert!(!reg.opcodes().is_empty(), "opcode mix recorded");
    assert!(
        reg.blocks().keys().any(|k| k.contains(":bb")),
        "hot blocks attributed: {:?}",
        reg.blocks()
    );
}

/// A DOALL-able program whose worker divides by zero on one iteration: a
/// deterministic failure on every backend and thread count.
const DIV_SRC: &str = "extern void emit(int v);\n\
    int main() {\n    int n = 8;\n    \
    for (int i = 0; i < n; i = i + 1) {\n        \
    #pragma CommSet(SELF)\n        \
    { emit(100 / (i - 3)); }\n    }\n    return 0;\n}\n";

#[test]
fn captured_bundle_carries_the_journal_run_id() {
    let dir = std::env::temp_dir().join("commset-observability-bundle-test");
    let _ = std::fs::remove_dir_all(&dir);
    let src = SyntheticSource::new(ProgramDesc {
        path: "t.cmm".into(),
        source: DIV_SRC.into(),
        effects: String::new(),
        scheme: Scheme::Doall.to_string(),
        sync: SyncMode::Spin.to_string(),
        hot_func: None,
    })
    .unwrap();
    let cfg = ExecConfig::default();
    let err = run_attempt(&src, Backend::Sim, 4, &cfg).unwrap_err();
    let path = capture_bundle(&src, Backend::Sim, 4, &cfg, &err, &dir).unwrap();
    // The bundle embeds the run's causal id, derived the way the CLI
    // derives the journal's, so a saved journal and a bundle of the same
    // run name each other.
    let bundle = FailureBundle::load(&path).unwrap();
    assert_eq!(
        bundle.run_id,
        run_id("t.cmm", "doall", "spin", 4, "sim"),
        "bundle must link back to the journal of its run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `commsetc profile <program> --scheme doall --repro-dir D` plus
/// `extra` on a failing program: the command exits non-zero and leaves
/// exactly one bundle, and `commsetc replay` reproduces the failure from
/// it. Returns the bundle and the profile's stderr.
fn cli_profile_fails_and_replays(
    name: &str,
    program: &str,
    extra: &[&str],
) -> (FailureBundle, String) {
    let bin = env!("CARGO_BIN_EXE_commsetc");
    let dir = std::env::temp_dir().join(format!("commset-observability-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.cmm"));
    std::fs::write(&path, program).unwrap();
    let repro = dir.join("repro");
    let out = std::process::Command::new(bin)
        .arg("profile")
        .arg(&path)
        .args(["--scheme", "doall", "--repro-dir"])
        .arg(&repro)
        .args(extra)
        .output()
        .expect("commsetc runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "a failing profile must fail");
    let bundles: Vec<_> = std::fs::read_dir(&repro)
        .expect("--repro-dir was written")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    assert!(stderr.contains(&*bundles[0].to_string_lossy()), "{stderr}");
    let bundle = FailureBundle::load(&bundles[0]).unwrap();

    let out = std::process::Command::new(bin)
        .arg("replay")
        .arg(&bundles[0])
        .output()
        .expect("commsetc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict:  REPRODUCED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
    (bundle, stderr)
}

#[test]
fn cli_profile_failure_writes_a_bundle_that_replays() {
    let (bundle, stderr) = cli_profile_fails_and_replays("div", DIV_SRC, &[]);
    assert!(stderr.contains("division by zero"), "{stderr}");
    assert_eq!(bundle.hot_func, None);
}

/// Two annotated loops; only `work`'s divides by zero. Under `--hot-func
/// work` its loop becomes the parallel section, so the failure is a
/// worker's; by default `main`'s loop is parallelized and `work` runs
/// sequentially, failing differently.
const TWO_LOOP_SRC: &str = "extern void emit(int v);\n\
    void work() {\n    int n = 8;\n    \
    for (int i = 0; i < n; i = i + 1) {\n        \
    #pragma CommSet(SELF)\n        \
    { emit(100 / (i - 3)); }\n    }\n}\n\
    int main() {\n    int n = 4;\n    \
    for (int i = 0; i < n; i = i + 1) {\n        \
    #pragma CommSet(SELF)\n        \
    { emit(i); }\n    }\n    work();\n    return 0;\n}\n";

/// A bundle records the hot-function override, so the replay
/// parallelizes the loop that failed rather than `main`'s.
#[test]
fn cli_bundle_replays_under_the_hot_function_override() {
    let (bundle, stderr) =
        cli_profile_fails_and_replays("hot", TWO_LOOP_SRC, &["--hot-func", "work"]);
    assert!(stderr.contains("worker"), "{stderr}");
    assert_eq!(bundle.hot_func.as_deref(), Some("work"));
}

/// The CLI end to end: `commsetc report` prints the golden report, saves
/// the golden journal, and `report --journal` renders the saved file to
/// the same tables (the live view adds only the simulated-time line).
#[test]
fn cli_report_matches_golden_live_and_saved() {
    let bin = env!("CARGO_BIN_EXE_commsetc");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let saved = std::env::temp_dir().join("commset-observability-cli-journal.jsonl");
    let _ = std::fs::remove_file(&saved);
    let run = |args: &[&str]| {
        let out = std::process::Command::new(bin)
            .current_dir(&root)
            .args(args)
            .output()
            .expect("commsetc runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "stdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let live = run(&[
        "report",
        "samples/md5sum.cmm",
        "--effects",
        "samples/md5sum.effects",
        "--scheme",
        "dswp",
        "--sync",
        "spin",
        "--threads",
        "4",
        "--journal-out",
        saved.to_str().unwrap(),
    ]);
    let golden = |name: &str| {
        let path = format!("{}/{name}", samples_dir());
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let want = golden("md5sum.report.txt");
    assert_eq!(live, want, "`commsetc report` drifted from its golden");
    let jsonl = std::fs::read_to_string(&saved).expect("journal saved");
    assert_eq!(jsonl, golden("md5sum.journal.jsonl"));

    let replayed = run(&["report", "--journal", saved.to_str().unwrap()]);
    let tables = want
        .strip_suffix(&format!("{}\n", want.lines().last().unwrap()))
        .unwrap();
    assert!(
        want.ends_with("ticks\n"),
        "live view ends with the sim time"
    );
    assert_eq!(replayed, tables, "saved view must render the same tables");
    let _ = std::fs::remove_file(&saved);
}
