//! End-to-end telemetry tests: the golden text profile, the Chrome
//! trace-event export's shape, and the zero-cost-when-off guard.
//!
//! The golden test runs `samples/md5sum.cmm` under the DES profile
//! backend (deterministic ticks), so the rendered report is bit-identical
//! across runs and hosts and can be pinned byte for byte. To refresh
//! after an intentional report-format change, rerun with
//! `PROFILE_GOLDEN_REGEN=1` and review the diff.

use commset::profile::{synthetic_registry, synthetic_world, SyntheticSource};
use commset::spec::{build_table, parse_effects};
use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{
    run_attempt, run_simulated_with, run_threaded_with, Backend, ExecConfig, ProgramDesc, TraceSink,
};
use commset_sim::CostModel;
use commset_telemetry::{chrome_trace_json, RunReport};

fn samples_dir() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples")
}

/// Profiles the md5sum sample the way `commsetc profile` does (DES
/// backend, trace on): its run report and total simulated time.
fn md5sum_profile(scheme: Scheme, threads: usize) -> (RunReport, u64) {
    let dir = samples_dir();
    let src = SyntheticSource::new(ProgramDesc {
        path: "samples/md5sum.cmm".into(),
        source: std::fs::read_to_string(format!("{dir}/md5sum.cmm")).expect("md5sum.cmm"),
        effects: std::fs::read_to_string(format!("{dir}/md5sum.effects")).expect("md5sum.effects"),
        scheme: scheme.to_string(),
        sync: SyncMode::Spin.to_string(),
        hot_func: None,
    })
    .expect("analyzes");
    let cfg = ExecConfig::with_trace(TraceSink::new());
    let out = run_attempt(&src, Backend::Sim, threads, &cfg).expect("profile runs");
    (
        out.telemetry.expect("the trace was on"),
        out.sim_time.expect("DES backend reports sim time"),
    )
}

#[test]
fn md5sum_dswp_profile_matches_golden() {
    let (report, sim_time) = md5sum_profile(Scheme::Dswp, 4);
    let got = format!(
        "{}total simulated time: {sim_time} ticks\n",
        report.render_text()
    );
    let path = format!("{}/md5sum.profile.txt", samples_dir());
    if std::env::var_os("PROFILE_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(
        got, want,
        "rendered profile drifted from its golden file \
         (rerun with PROFILE_GOLDEN_REGEN=1 if intentional)"
    );
}

#[test]
fn profile_is_deterministic_across_runs() {
    let (a, a_time) = md5sum_profile(Scheme::Dswp, 4);
    let (b, b_time) = md5sum_profile(Scheme::Dswp, 4);
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b));
    assert_eq!(a_time, b_time);
}

/// Minimal structural validation of the Chrome trace-event document: the
/// export is line-oriented by construction, so every event line must be a
/// brace-balanced object carrying the fields the trace viewers require.
#[test]
fn chrome_trace_export_has_the_perfetto_shape() {
    let (report, _) = md5sum_profile(Scheme::Dswp, 4);
    let doc = chrome_trace_json(&report);
    assert!(doc.starts_with("{\"traceEvents\": [\n"), "{doc}");
    assert!(doc.trim_end().ends_with("]}"), "{doc}");
    let events: Vec<&str> = doc.lines().filter(|l| l.contains("\"ph\":")).collect();
    assert!(events.len() > 50, "a real run yields many events");
    let mut saw_complete = false;
    let mut saw_instant = false;
    let mut saw_meta = false;
    for e in &events {
        let body = e.strip_suffix(',').unwrap_or(e);
        assert_eq!(
            body.matches('{').count(),
            body.matches('}').count(),
            "unbalanced braces: {e}"
        );
        assert!(body.starts_with('{') && body.ends_with('}'), "{e}");
        for field in ["\"name\":", "\"pid\":", "\"tid\":"] {
            assert!(body.contains(field), "missing {field}: {e}");
        }
        if body.contains("\"ph\": \"X\"") {
            saw_complete = true;
            assert!(body.contains("\"ts\":"), "{e}");
            assert!(body.contains("\"dur\":"), "{e}");
            assert!(body.contains("\"cat\":"), "{e}");
        } else if body.contains("\"ph\": \"i\"") {
            saw_instant = true;
            assert!(body.contains("\"ts\":"), "{e}");
            assert!(body.contains("\"s\": \"t\""), "{e}");
        } else {
            assert!(body.contains("\"ph\": \"M\""), "unknown event type: {e}");
            saw_meta = true;
        }
    }
    assert!(saw_complete && saw_instant && saw_meta);
    // Every line but the last event line ends with a comma separator.
    assert!(!doc.contains("},\n]"), "trailing comma before close");
    // A DSWP run shows lock waits and queue traffic on the timeline.
    assert!(doc.contains("\"cat\": \"lock\""), "{doc}");
    assert!(doc.contains("\"cat\": \"queue\""), "{doc}");
}

/// Observation must be zero-cost when off: the DES model may not shift by a
/// single tick, the outcome must carry no report, and the real-thread
/// executor's wall clock must stay in the same ballpark.
#[test]
fn telemetry_off_is_free_and_absent() {
    let dir = samples_dir();
    let src = std::fs::read_to_string(format!("{dir}/md5sum.cmm")).expect("md5sum.cmm");
    let fx = std::fs::read_to_string(format!("{dir}/md5sum.effects")).expect("md5sum.effects");
    let spec = parse_effects(&fx).expect("sidecar parses");
    let table = build_table(&src, &spec).expect("table builds");
    let irrevocable: Vec<&str> = spec.irrevocable.iter().map(String::as_str).collect();
    let compiler = Compiler::new(table).with_irrevocable(&irrevocable);
    let analysis = compiler.analyze(&src).expect("analyzes");
    let (module, plan) = compiler
        .compile(&analysis, Scheme::Dswp, 4, SyncMode::Spin)
        .expect("DSWP applies");
    let registry = synthetic_registry(&compiler.intrinsics, &spec);
    let plans = [plan];
    let cm = CostModel::default();

    // DES: the simulated clock is identical with and without the trace —
    // instrumentation observes the model, it never participates in it.
    let run_sim = |traced: bool| {
        let mut world = synthetic_world();
        let cfg = ExecConfig {
            trace: traced.then(TraceSink::new),
            ..ExecConfig::default()
        };
        run_simulated_with(&module, &registry, &plans, &mut world, &cm, &cfg)
            .expect("sim run succeeds")
    };
    let off = run_sim(false);
    let on = run_sim(true);
    assert_eq!(off.sim_time, on.sim_time, "the trace perturbed the model");
    assert!(off.telemetry.is_none(), "off must attach no report");
    assert!(on.telemetry.is_some(), "on must attach a report");

    // Real threads: an uninstrumented run completes with no report and
    // within a generous multiple of the instrumented run's wall clock
    // (the guard catches pathological always-on overhead, not noise).
    let run_thr = |traced: bool| {
        let cfg = ExecConfig {
            trace: traced.then(TraceSink::new),
            ..ExecConfig::default()
        };
        run_threaded_with(&module, &registry, &plans, synthetic_world(), &cfg)
            .expect("threaded run succeeds")
    };
    // Warm up, then take the best of 3 per mode to tame scheduler noise.
    let _ = run_thr(false);
    let best = |traced: bool| {
        (0..3)
            .map(|_| {
                let out = run_thr(traced);
                if traced {
                    assert!(out.telemetry.is_some());
                } else {
                    assert!(out.telemetry.is_none());
                }
                out.wall
            })
            .min()
            .expect("three runs")
    };
    let wall_off = best(false);
    let wall_on = best(true);
    assert!(
        wall_off <= wall_on.saturating_mul(10) + std::time::Duration::from_millis(50),
        "untraced run is implausibly slower than a traced one \
         ({wall_off:?} vs {wall_on:?})"
    );
}
