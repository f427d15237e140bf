//! Regression-corpus replay: every committed fixture under
//! `fixtures/corpus/` is a known-unsound program and must *stay* flagged
//! by the checker — a corpus entry going green means a soundness bug
//! silently crept into the analysis, the transforms, or the checker
//! itself. The relaxed-visibility half is pinned too: `sb_litmus` must
//! pass every sequentially-consistent schedule family and fail only once
//! store buffering is modeled, and the sound checker fixtures must stay
//! clean even with relaxed mode forced on. Every rendered report of the
//! checker fixtures and the corpus is pinned byte for byte in
//! `samples/checker/reports.expected`.

use commset::spec::{build_table, parse_effects, EffectsSpec};
use commset_checker::{check_source, fuzz_annotations, CheckConfig};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/corpus")
}

fn checker_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../checker/fixtures")
}

fn load(path: &Path) -> (String, EffectsSpec) {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let fx = path.with_extension("effects");
    let text = if fx.is_file() {
        std::fs::read_to_string(&fx).unwrap_or_else(|e| panic!("{fx:?}: {e}"))
    } else {
        String::new()
    };
    (source, parse_effects(&text).expect("sidecar parses"))
}

/// The sidecar-described config at full-family budget — identical to what
/// `commsetc check`'s corpus replay runs, via the same shared helper.
fn corpus_cfg(spec: &EffectsSpec) -> CheckConfig {
    let mut cfg = spec.checker_config();
    cfg.budget = cfg.full_family_budget();
    cfg
}

/// The `.cmm` sources in `dir`, sorted.
fn cmm_files(dir: PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?} exists and is committed: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cmm"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn every_corpus_entry_is_still_flagged() {
    let entries = cmm_files(corpus_dir());
    assert!(
        !entries.is_empty(),
        "the committed corpus must never be empty"
    );
    for path in &entries {
        let (source, spec) = load(path);
        let table = build_table(&source, &spec).expect("externs resolve");
        let report =
            check_source(&source, &table, &corpus_cfg(&spec)).expect("corpus entry compiles");
        assert!(
            report.is_fail(),
            "{}: corpus entry is no longer flagged — soundness regression\n{report}",
            path.display()
        );
        assert!(
            report.replay.is_some(),
            "{}: failing report carries REPLAY info",
            path.display()
        );
    }
}

/// The acceptance-criterion fixture: unsound *only* under relaxed
/// visibility. With store buffering disabled it passes every SC schedule
/// family; with the sidecar's `relaxed` directive honored, violations
/// appear — and every one of them is an `sb[w]:` schedule.
#[test]
fn sb_litmus_is_unsound_only_under_relaxed_visibility() {
    let path = corpus_dir().join("sb_litmus.cmm");
    let (source, spec) = load(&path);
    assert!(spec.relaxed, "sb_litmus opts into relaxed checking");
    let table = build_table(&source, &spec).expect("externs resolve");

    let mut sc_cfg = corpus_cfg(&spec);
    sc_cfg.relaxed = false;
    sc_cfg.budget = 64; // deep SC-only campaign, chaos included
    let sc = check_source(&source, &table, &sc_cfg).expect("compiles");
    assert!(
        sc.is_pass(),
        "sb_litmus must pass every SC schedule family:\n{sc}"
    );

    let relaxed = check_source(&source, &table, &corpus_cfg(&spec)).expect("compiles");
    assert!(relaxed.is_fail(), "{relaxed}");
    assert!(!relaxed.violations.is_empty());
    for v in &relaxed.violations {
        assert!(
            v.schedule.starts_with("sb["),
            "only store-buffered schedules may violate, got `{}`:\n{relaxed}",
            v.schedule
        );
    }
}

/// The delta-privatization corpus pin: `delta_ordermix` declares an
/// overwrite-last channel as `merge add`, so the model parks every
/// section worker's publish in a private delta buffer and the
/// mid-section probe goes blind. Unlike `sb_litmus` this diverges on
/// plain sequentially-consistent schedules — no store buffering needed —
/// so it must be flagged on every run, SC-only campaigns included.
#[test]
fn delta_ordermix_is_flagged_on_every_run() {
    let path = corpus_dir().join("delta_ordermix.cmm");
    let (source, spec) = load(&path);
    assert!(
        spec.merges
            .iter()
            .any(|(chan, op)| chan == "CUR" && op == "add"),
        "the fixture's point is the wrongly-declared merge row"
    );
    assert!(
        !spec.relaxed,
        "delta divergence must not depend on relaxed visibility"
    );
    let table = build_table(&source, &spec).expect("externs resolve");

    // SC-only: privatized deltas diverge without any store buffering.
    let mut sc_cfg = corpus_cfg(&spec);
    sc_cfg.relaxed = false;
    let sc = check_source(&source, &table, &sc_cfg).expect("compiles");
    assert!(
        sc.is_fail(),
        "delta_ordermix must be flagged under pure SC schedules:\n{sc}"
    );

    // ...and deterministically so: every replay of the full campaign
    // flags it again (the corpus contract `commsetc check` relies on).
    for run in 0..3 {
        let report = check_source(&source, &table, &corpus_cfg(&spec)).expect("compiles");
        assert!(report.is_fail(), "run {run} went green:\n{report}");
        assert!(report.replay.is_some(), "run {run}: replay info missing");
    }
}

/// The sound counterpart: `delta_hist` is a write-only additive
/// reduction whose `merge HIST add` row is honest — no mid-section
/// reader exists for privatization to starve, so it stays clean under
/// SC *and* with store-buffered families forced on.
#[test]
fn delta_hist_stays_clean_under_sc_and_relaxed() {
    let path = checker_fixture_dir().join("delta_hist.cmm");
    let (source, spec) = load(&path);
    assert!(
        spec.merges
            .iter()
            .any(|(chan, op)| chan == "HIST" && op == "add"),
        "delta_hist declares its merge row"
    );
    let table = build_table(&source, &spec).expect("externs resolve");
    for relaxed in [false, true] {
        let mut cfg = corpus_cfg(&spec);
        cfg.relaxed = relaxed;
        let report = check_source(&source, &table, &cfg).expect("compiles");
        assert!(
            !report.is_fail(),
            "delta_hist flagged (relaxed={relaxed}):\n{report}"
        );
    }
}

/// Relaxed mode must not manufacture false positives: the sound checker
/// fixtures stay clean with store-buffered families forced on, because
/// their commutative-channel contracts hold under reordered visibility
/// (all buffers drain at the section barrier before comparison).
#[test]
fn sound_fixtures_stay_clean_under_relaxed_mode() {
    for name in [
        "md5sum_ok.cmm",
        "accumulate_ok.cmm",
        "eclat_pred.cmm",
        "delta_hist.cmm",
    ] {
        let path = checker_fixture_dir().join(name);
        let (source, spec) = load(&path);
        let mut cfg = spec.checker_config();
        cfg.relaxed = true;
        cfg.budget = cfg.full_family_budget();
        let table = build_table(&source, &spec).expect("externs resolve");
        let report = check_source(&source, &table, &cfg).expect("compiles");
        assert!(
            !report.is_fail(),
            "{name}: sound fixture flagged under relaxed mode\n{report}"
        );
    }
}

/// The full rendered [`commset_checker::CheckReport`] of every checker
/// fixture (its sidecar's config, one checker thread) and every corpus
/// entry (the full-family budget), plus the annotation fuzzer's report
/// on `eclat_pred`, byte for byte. Verdicts, explored schedule names,
/// diffs, both interleavings, the shrunk schedule and the `REPLAY:` line
/// all sit in one file, so any drift in the checker's pipeline, oracle
/// or controlled executor shows up as a diff. Regenerate after an
/// intentional change with `CHECK_GOLDEN_REGEN=1` and review the diff.
#[test]
fn checker_reports_match_golden() {
    let stem = |p: &Path| p.file_stem().unwrap().to_string_lossy().into_owned();
    let mut got = String::new();
    for path in cmm_files(checker_fixture_dir()) {
        let (source, spec) = load(&path);
        let table = build_table(&source, &spec).expect("externs resolve");
        let mut cfg = spec.checker_config();
        cfg.jobs = 1;
        let report = check_source(&source, &table, &cfg).expect("fixture compiles");
        got.push_str(&format!("== checker/{}\n{report}\n", stem(&path)));
        if stem(&path) == "eclat_pred" {
            let fuzz = fuzz_annotations(&source, &table, &cfg).expect("baseline compiles");
            got.push_str(&format!("== fuzz/{}\n{fuzz}\n", stem(&path)));
        }
    }
    for path in cmm_files(corpus_dir()) {
        let (source, spec) = load(&path);
        let table = build_table(&source, &spec).expect("externs resolve");
        let report = check_source(&source, &table, &corpus_cfg(&spec)).expect("entry compiles");
        got.push_str(&format!("== corpus/{}\n{report}\n", stem(&path)));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../samples/checker/reports.expected");
    if std::env::var_os("CHECK_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create samples/checker");
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path:?}: {e} (regenerate with CHECK_GOLDEN_REGEN=1)"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "checker report drifted from {path:?} at line {}",
            i + 1
        );
    }
    assert_eq!(got, want, "checker report golden length changed");
}

/// End-to-end through the CLI: `commsetc check` replays the committed
/// corpus before checking its input, and `--capture-corpus` grows a
/// corpus directory from a newly found violation that then replays red.
#[test]
fn cli_replays_and_captures_the_corpus() {
    let bin = env!("CARGO_BIN_EXE_commsetc");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sound = checker_fixture_dir().join("md5sum_ok.cmm");
    let sound_fx = sound.with_extension("effects");

    // Sound input + committed corpus: exit 0, every entry replayed.
    let out = std::process::Command::new(bin)
        .current_dir(&root)
        .args([
            "check",
            sound.to_str().unwrap(),
            "--effects",
            sound_fx.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .output()
        .expect("commsetc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("entries replayed, all still flagged"),
        "{stdout}"
    );
    assert!(stdout.contains("sb_litmus still flagged"), "{stdout}");

    // Unsound input + --capture-corpus into a scratch dir: exit 1 and a
    // content-hashed cap_* pair appears...
    let scratch = std::env::temp_dir().join("commset_corpus_capture_test");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let unsound = corpus_dir().join("ordered_emit.cmm");
    let unsound_fx = unsound.with_extension("effects");
    let out = std::process::Command::new(bin)
        .current_dir(&root)
        .args([
            "check",
            unsound.to_str().unwrap(),
            "--effects",
            unsound_fx.to_str().unwrap(),
            "--threads",
            "2",
            "--corpus",
            scratch.to_str().unwrap(),
            "--capture-corpus",
        ])
        .output()
        .expect("commsetc runs");
    assert!(!out.status.success(), "unsound fixture must exit nonzero");
    let captured: Vec<_> = std::fs::read_dir(&scratch)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().into_owned();
            n.starts_with("cap_") && n.ends_with(".cmm")
        })
        .collect();
    assert_eq!(captured.len(), 1, "exactly one capture written");

    // ...and the freshly captured corpus replays red (so a later sound
    // check against it succeeds and reports the entry as still flagged).
    let out = std::process::Command::new(bin)
        .current_dir(&root)
        .args([
            "check",
            sound.to_str().unwrap(),
            "--effects",
            sound_fx.to_str().unwrap(),
            "--threads",
            "2",
            "--corpus",
            scratch.to_str().unwrap(),
        ])
        .output()
        .expect("commsetc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("still flagged"), "{stdout}");
    let _ = std::fs::remove_dir_all(&scratch);
}
