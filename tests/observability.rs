//! End-to-end observability tests: the golden `commsetc report` text,
//! the journal's determinism on the DES, metrics/journal zero-cost
//! guarantees at the profile level, and the causal link between a
//! captured `.repro.json` failure bundle and the event journal of the
//! run that captured it.
//!
//! The golden test pins the hotspot report byte for byte (DES backend,
//! deterministic ticks). To refresh after an intentional format change,
//! rerun with `REPORT_GOLDEN_REGEN=1` and review the diff.

use commset::profile::{run_profile_with, ProfileOutcome};
use commset::replay::{run_profile_supervised, SyntheticSource};
use commset::report::parse_journal;
use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{ExecConfig, FailureBundle, RecoveryPolicy};
use commset_telemetry::Journal;

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

/// Runs the md5sum sample exactly the way `commsetc report` does: DES
/// backend, metrics registry and event journal on, deterministic run id.
fn md5sum_report(metrics: bool) -> (ProfileOutcome, Option<Journal>) {
    let dir = samples_dir();
    let src = std::fs::read_to_string(format!("{dir}/md5sum.cmm")).expect("md5sum.cmm");
    let fx = std::fs::read_to_string(format!("{dir}/md5sum.effects")).expect("md5sum.effects");
    let spec = parse_effects(&fx).expect("sidecar parses");
    let table = build_table(&src, &spec).expect("table builds");
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    let compiler = Compiler::new(table).with_irrevocable(&irrevocable);
    let analysis = compiler.analyze(&src).expect("analyzes");
    let journal = metrics.then(|| {
        Journal::new(Journal::derive_run_id(&[
            "samples/md5sum.cmm",
            "dswp",
            "spin",
            "4",
            "sim",
        ]))
    });
    let cfg = ExecConfig {
        metrics,
        journal: journal.clone(),
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
    (out, journal)
}

#[test]
fn report_text_matches_golden() {
    let (out, journal) = md5sum_report(true);
    let jsonl = journal.expect("journal attached").to_jsonl();
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
fn journal_and_report_are_deterministic_across_runs() {
    let (_, a) = md5sum_report(true);
    let (_, b) = md5sum_report(true);
    // DES ticks + derived run ids: the whole journal is bit-stable, so
    // the saved-JSONL view and the live view can never disagree.
    assert_eq!(a.unwrap().to_jsonl(), b.unwrap().to_jsonl());
}

#[test]
fn metrics_and_journal_do_not_shift_the_sim_clock() {
    let (off, _) = md5sum_report(false);
    let (on, _) = md5sum_report(true);
    assert_eq!(
        off.sim_time, on.sim_time,
        "metrics/journal instrumentation perturbed the simulated clock"
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
    let journal = Journal::new(Journal::derive_run_id(&["t.cmm", "doall", "spin", "4"]));
    let cfg = ExecConfig {
        journal: Some(journal.clone()),
        ..ExecConfig::default()
    };
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

    // The bundle embeds the journal's causal run id...
    let bundle = FailureBundle::load(std::path::Path::new(path)).unwrap();
    assert_eq!(
        bundle.run_id,
        journal.run_id(),
        "bundle must link back to the journal that was active"
    );
    // ...and the journal records the capture, with the same path, under
    // the same run id — so `commsetc report --journal` can point at the
    // exact `.repro.json` for any failed run.
    let jsonl = journal.to_jsonl();
    let report = parse_journal(&jsonl).expect("journal parses");
    assert_eq!(report.run_id, format!("{:016x}", journal.run_id()));
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
