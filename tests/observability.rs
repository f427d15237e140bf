//! End-to-end observability tests: the golden `commsetc report` text and
//! JSONL journal, the journal's determinism on the DES, metrics zero-cost
//! guarantees at the profile level, and the causal link between a
//! captured `.repro.json` failure bundle and the journal rendered for the
//! run that captured it.
//!
//! The golden tests pin the hotspot report and the journal byte for byte
//! (DES backend, deterministic ticks). To refresh after an intentional
//! format change, rerun with `REPORT_GOLDEN_REGEN=1` and review the diff.

use commset::profile::{run_profile_with, ProfileOutcome};
use commset::replay::{run_profile_supervised, SyntheticSource};
use commset::report::{parse_journal, render_journal};
use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{run_id, ExecConfig, FailureBundle, RecoveryPolicy};

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

/// Runs the md5sum sample exactly the way `commsetc report` does: DES
/// backend, metrics registry on, and the journal rendered under the
/// run id the CLI derives.
fn md5sum_report(metrics: bool) -> (ProfileOutcome, String) {
    let dir = samples_dir();
    let src = std::fs::read_to_string(format!("{dir}/md5sum.cmm")).expect("md5sum.cmm");
    let fx = std::fs::read_to_string(format!("{dir}/md5sum.effects")).expect("md5sum.effects");
    let spec = parse_effects(&fx).expect("sidecar parses");
    let table = build_table(&src, &spec).expect("table builds");
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    let compiler = Compiler::new(table).with_irrevocable(&irrevocable);
    let analysis = compiler.analyze(&src).expect("analyzes");
    let cfg = ExecConfig {
        metrics,
        ..ExecConfig::default()
    };
    let out = run_profile_with(
        &compiler,
        &analysis,
        &spec,
        Scheme::Dswp,
        4,
        SyncMode::Spin,
        false,
        &cfg,
    )
    .expect("profile runs");
    let journal = render_journal(
        run_id("samples/md5sum.cmm", "dswp", "spin", 4, "sim"),
        Some(&out.report),
        out.sim_time,
        out.metrics.as_ref(),
        None,
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
    assert_eq!(off.report.render_text(), on.report.render_text());
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
/// deterministic failure every rung reproduces, so the supervisor walks
/// the whole ladder and captures a bundle on the first failing attempt.
const DIV_SRC: &str = "extern void emit(int v);\n\
    int main() {\n    int n = 8;\n    \
    for (int i = 0; i < n; i = i + 1) {\n        \
    #pragma CommSet(SELF)\n        \
    { emit(100 / (i - 3)); }\n    }\n    return 0;\n}\n";

#[test]
fn captured_bundle_carries_the_journal_run_id() {
    let dir = std::env::temp_dir().join("commset-observability-bundle-test");
    let _ = std::fs::remove_dir_all(&dir);
    let src = SyntheticSource::new("t.cmm", DIV_SRC, "", Scheme::Doall, SyncMode::Spin).unwrap();
    let cfg = ExecConfig::default();
    let policy = RecoveryPolicy {
        bundle_dir: Some(dir.clone()),
        ..RecoveryPolicy::default()
    };
    let fail = run_profile_supervised(&src, false, 4, &cfg, &policy).unwrap_err();
    let path = fail
        .recovery
        .bundle
        .as_ref()
        .expect("first failure must capture a bundle");

    // The bundle embeds the run's causal id, derived the way the CLI
    // derives the journal's...
    let id = run_id("t.cmm", "doall", "spin", 4, "sim");
    let bundle = FailureBundle::load(std::path::Path::new(path)).unwrap();
    assert_eq!(
        bundle.run_id, id,
        "bundle must link back to the journal of its run"
    );
    // ...and the journal rendered from the failure records the capture,
    // with the same path, under the same run id — so `commsetc report
    // --journal` can point at the exact `.repro.json` for any failed run.
    let jsonl = render_journal(id, None, None, None, Some(&fail.recovery));
    let report = parse_journal(&jsonl).expect("journal parses");
    assert_eq!(report.run_id, format!("{id:016x}"));
    assert_eq!(report.bundles, vec![path.clone()]);
    assert!(report.attempts >= 1, "attempts recorded");
    assert_eq!(
        report.final_mode.as_deref(),
        Some("exhausted"),
        "a terminally failed run journals its exhausted run_end"
    );
    assert!(report.kinds.contains_key("attempt_error"));
    let _ = std::fs::remove_dir_all(&dir);
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
