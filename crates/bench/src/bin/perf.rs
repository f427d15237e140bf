//! Simulated-clock benchmark harness.
//!
//! For every workload x non-sequential scheme x threads {1, 2, 4, 8},
//! `perf` runs the discrete-event simulator (DES) once in
//! `WorldMode::Auto`; merge-declared DOALL rows also run once in
//! `WorldMode::Deltas`. The DES models full `threads`-way parallelism
//! whatever the host has, so every number in the report is a
//! deterministic logical tick or counter: two runs write the same bytes.
//! Host wall time is measured by `perfbench`, not here.
//!
//! Run: `cargo run --release -p commset-bench --bin perf`
//!
//! Flags:
//!
//! * `--out PATH` — output path (default `BENCH_PARALLEL.json`);
//! * `--delta-smoke WORKLOAD` — CI's delta gate: run one merge-declared
//!   workload on real threads in `WorldMode::Deltas` and fail if the
//!   privatized path ever touches a shard lock.
//! * `--diff OLD.json [--against NEW.json]` — the regression gate: diff
//!   a candidate report against the committed baseline cell-by-cell
//!   (5% band on the simulated columns, lost cells fail — see
//!   `commset_bench::diff`). Without `--against`, the suite runs
//!   in-process as the candidate. Exit 1 on any regression; unknown
//!   flags and unreadable files exit 2 with the usage line.
//!
//! The output is a machine-readable JSON report (written without any
//! external serialization dependency), one line per
//! `workload x scheme x thread-count`: `sim_time`, the speedup over the
//! same scheme at one thread, the Deltas-world time and ratio, and the
//! DES's TM, queue and delta counters. Every run is validated against
//! the sequential oracle — a benchmark that computes the wrong answer
//! aborts.

use commset::Scheme;
use commset_bench::diff::diff_reports;
use commset_interp::bundle::Json;
use commset_interp::{ExecConfig, SimStats, WorldMode};
use commset_runtime::{DeltaSnapshot, World};
use commset_sim::CostModel;
use commset_workloads::{SchemeSpec, Workload};
use std::fmt::Write as _;

/// The thread counts of the matrix; 1 is each scheme's speedup baseline.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One validated DES run; `None` if the scheme is inapplicable (panics
/// on executor failure — sim runs must not fail).
fn sim_run(
    w: &Workload,
    spec: &SchemeSpec,
    threads: usize,
    mode: WorldMode,
    cm: &CostModel,
    seq_world: &World,
) -> Option<(u64, SimStats)> {
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::default()
    };
    match w.run_scheme_with(spec, threads, cm, &cfg) {
        Ok((time, world, stats)) => {
            (w.validate)(seq_world, &world).unwrap_or_else(|e| {
                panic!(
                    "{}: {} x{threads} sim ({mode:?}) computed a wrong answer: {e}",
                    w.name, spec.label
                )
            });
            Some((time, stats))
        }
        Err(Ok(_diag)) => None,
        Err(Err(e)) => panic!(
            "{}: {} x{threads} sim ({mode:?}): executor failed: {e}",
            w.name, spec.label
        ),
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

fn delta_json(d: &DeltaSnapshot) -> String {
    format!(
        "{{\"applies\": {}, \"coalesces\": {}, \"merged_slots\": {}, \"lock_elisions\": {}}}",
        d.applies, d.coalesces, d.merged_slots, d.lock_elisions
    )
}

/// CI's delta perf gate: run one merge-declared reduction workload on
/// real threads entirely in `WorldMode::Deltas` (every DOALL scheme, 2
/// threads), validate against the sequential oracle, and fail hard if
/// the delta path ever touched a shard lock.
fn delta_smoke(name: &str) {
    let cm = CostModel::default();
    let w = commset_workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload named {name}"));
    assert!(
        w.registry.has_merges(),
        "{name} declares no merge operators — not a delta workload"
    );
    let (_, seq_world) = w.run_sequential(&cm);
    let cfg = ExecConfig {
        world: WorldMode::Deltas,
        ..ExecConfig::default()
    };
    let mut cells = 0u32;
    for spec in &w.schemes {
        if spec.scheme != Scheme::Doall {
            continue;
        }
        let out = match w.run_scheme_threaded(spec, 2, &cfg) {
            Ok(out) => out,
            Err(Ok(_diag)) => continue, // scheme inapplicable
            Err(Err(e)) => panic!("{name}: {} x2 (Deltas): executor failed: {e}", spec.label),
        };
        (w.validate)(&seq_world, &out.world).unwrap_or_else(|e| {
            panic!(
                "{name}: {} x2 (Deltas) computed a wrong answer: {e}",
                spec.label
            )
        });
        assert!(
            out.stats.watchdog.is_clean(),
            "{name}: {} x2 (Deltas): watchdog {:?}",
            spec.label,
            out.stats.watchdog
        );
        // Updates land in per-worker buffers, so the shard locks stay
        // cold. One fast acquire is tolerated for a main-thread
        // pre-section call (md5sum's `file_count`).
        let (s, d) = (&out.stats.shard, &out.stats.delta);
        assert!(
            d.applies > 0,
            "{name}: {} x2: deltas run never took the privatized path",
            spec.label
        );
        assert!(
            s.fast_acquires + s.multi_acquires + s.whole_acquires <= 1,
            "{name}: {} x2: deltas run touched the shard locks: {s:?}",
            spec.label
        );
        eprintln!(
            "{name:<8} {:<26} x2 deltas: applies {}  coalesces {}  elisions {}  shard locks {s:?}",
            spec.label, d.applies, d.coalesces, d.lock_elisions
        );
        cells += 1;
    }
    assert!(cells > 0, "{name}: no DOALL scheme was measurable");
    eprintln!("delta smoke: {cells} scheme(s) lock-free and oracle-identical");
}

/// Usage-error exit: the usage line on stderr, status 2 (so CI can tell
/// a mis-invocation from a perf regression, which exits 1).
fn usage() -> ! {
    eprintln!(
        "usage: perf [--out PATH] [--delta-smoke WORKLOAD] \
         [--diff OLD.json [--against NEW.json]]"
    );
    std::process::exit(2);
}

fn read_report(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        usage();
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        usage();
    })
}

/// The `--diff` mode: baseline vs candidate (a saved report, or a fresh
/// in-process run). Exits 1 when any column regressed.
fn run_diff(old_path: &str, against: Option<&str>) -> ! {
    let old = read_report(old_path);
    let new = match against {
        Some(path) => read_report(path),
        None => {
            eprintln!("no --against report: running the suite as the candidate");
            let (json, _) = run_suite();
            Json::parse(&json).expect("in-process report serializes round-trip")
        }
    };
    let report = diff_reports(&old, &new).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    print!("{}", report.render_text());
    if report.regressions().is_empty() {
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn main() {
    let mut out_path = "BENCH_PARALLEL.json".to_string();
    let mut diff_path: Option<String> = None;
    let mut against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--out" => out_path = value(),
            "--delta-smoke" => {
                delta_smoke(&value());
                return;
            }
            "--diff" => diff_path = Some(value()),
            "--against" => against = Some(value()),
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage();
            }
        }
    }
    if let Some(old_path) = &diff_path {
        run_diff(old_path, against.as_deref());
    }
    if against.is_some() {
        eprintln!("error: --against only applies with --diff");
        usage();
    }
    let (json, rows) = run_suite();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path} failed: {e}"));
    eprintln!("wrote {out_path} ({rows} configurations)");
}

/// Runs the whole simulated matrix and serializes the report; returns
/// `(json, row count)`. Shared by the default write-a-report mode and
/// `--diff`'s in-process candidate.
fn run_suite() -> (String, usize) {
    let cm = CostModel::default();
    let mut lines: Vec<String> = Vec::new();
    for w in commset_workloads::all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            let delta_row = w.registry.has_merges() && spec.scheme == Scheme::Doall;
            // The 1-thread time of this scheme: the speedup baseline.
            let mut base: Option<u64> = None;
            for t in THREADS {
                let Some((sim, stats)) = sim_run(&w, spec, t, WorldMode::Auto, &cm, &seq_world)
                else {
                    continue;
                };
                if t == 1 {
                    base = Some(sim);
                }
                let deltas = if delta_row {
                    sim_run(&w, spec, t, WorldMode::Deltas, &cm, &seq_world)
                } else {
                    None
                };
                let speedup = base.map(|b| format!("{:.4}", b as f64 / sim.max(1) as f64));
                let sim_deltas = deltas.as_ref().map(|(sd, _)| *sd);
                let over_base =
                    sim_deltas.map(|sd| format!("{:.4}", sim as f64 / sd.max(1) as f64));
                let mut note = format!("{:<9} {:<26} x{t}: sim {sim:>8}", w.name, spec.label);
                if let Some(s) = &speedup {
                    let _ = write!(note, "  speedup {s}");
                }
                if let (Some(sd), Some(r)) = (sim_deltas, &over_base) {
                    let _ = write!(note, "  deltas {sd:>8} ({r}x)");
                }
                eprintln!("{note}");
                let line = format!(
                    "{{\"workload\": \"{}\", \"scheme\": \"{}\", \"threads\": {t}, \
                     \"sim_time\": {sim}, \"sim_speedup\": {}, \"sim_time_deltas\": {}, \
                     \"sim_deltas_over_base\": {}, \"tm_commits\": {}, \"tm_aborts\": {}, \
                     \"tm_fallbacks\": {}, \"queue_pushes\": {}, \"queue_stalls\": {}, \
                     \"delta\": {}}}",
                    w.name,
                    spec.label,
                    opt(speedup),
                    opt(sim_deltas),
                    opt(over_base),
                    stats.tm_commits,
                    stats.tm_aborts,
                    stats.tm_fallbacks,
                    stats.queue_pushes,
                    stats.queue_stalls,
                    opt(deltas.map(|(_, ds)| delta_json(&ds.delta))),
                );
                lines.push(line);
            }
        }
    }

    let threads = THREADS.map(|t| t.to_string()).join(", ");
    let json = format!(
        "{{\n  \"generated_by\": \"commset-bench perf\",\n  \"threads\": [{threads}],\n  \
         \"results\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    );
    (json, lines.len())
}
