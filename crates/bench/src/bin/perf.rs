//! Wall-clock benchmark harness on **real OS threads**.
//!
//! Unlike `figure6` (which regenerates the paper's plots from the
//! discrete-event simulator), `perf` measures actual elapsed time of the
//! real-thread executor, comparing the historical single-mutex world
//! against the rank-ordered sharded world on every workload, scheme and
//! thread count, and reporting the shard/queue contention counters next
//! to each number.
//!
//! Run: `cargo run --release -p commset-bench --bin perf`
//!
//! Flags:
//!
//! * `--quick` — 1 iteration, 2 threads only (the CI smoke mode);
//! * `--iters K` — median-of-K iterations (default 3);
//! * `--out PATH` — output path (default `BENCH_PARALLEL.json`);
//! * `--delta-smoke WORKLOAD` — CI's delta gate: run one merge-declared
//!   workload in `WorldMode::Deltas` and fail if the privatized path
//!   ever touches a shard lock.
//! * `--diff OLD.json [--against NEW.json]` — the noise-aware perf
//!   regression gate: diff a candidate report against the committed
//!   baseline cell-by-cell (tight 5% band on the deterministic
//!   simulator columns, factor + absolute-floor band on the noisy
//!   wall-clock columns — see `commset_bench::diff`). Without
//!   `--against`, a quick suite runs in-process as the candidate.
//!   Exit 1 on any regression; unknown flags and unreadable files
//!   exit 2 with the usage line.
//!
//! Workloads whose registries declare merge operators get a third
//! `deltas` cell per DOALL row (CCD-style privatization), with the
//! shard counters proving the update path took no locks, plus a pair of
//! deterministic simulator times (`sim_time` / `sim_time_deltas`): the
//! DES models full `threads`-way parallelism whatever the host has, so
//! the modeled pair shows the contention win even when the wall clock
//! is measured on a small machine.
//!
//! The output is a machine-readable JSON report (written without any
//! external serialization dependency): one entry per
//! `workload x scheme x thread-count`, with wall-clock microseconds and
//! contention counters for both world modes, the sharded-over-single
//! ratio, per-mode speedups over the same scheme at one thread, and a
//! full telemetry `RunReport` (stage balance, lock contention by rank,
//! queue traffic) captured by one extra untimed instrumented run.
//! Every measured run is validated against the sequential oracle — a
//! benchmark that computes the wrong answer aborts.

use commset::Scheme;
use commset_bench::diff::{diff_reports, DiffConfig};
use commset_interp::bundle::Json;
use commset_interp::{Backend, ExecConfig, RecoveryPolicy, ThreadOutcome, TraceSink, WorldMode};
use commset_runtime::{DeltaSnapshot, ShardStatsSnapshot};
use commset_sim::CostModel;
use commset_telemetry::{RecoveryReport, RunReport};
use commset_workloads::{SchemeSpec, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured cell: the median run of a (workload, scheme, threads,
/// world-mode) configuration.
struct Cell {
    wall_us: u128,
    shard: ShardStatsSnapshot,
    delta: DeltaSnapshot,
    queue_full_spins: u64,
    queue_empty_spins: u64,
    /// The unified profiling report from one extra, *untimed* run with
    /// the trace on (so the measured iterations stay instrumentation-free).
    telemetry: Option<RunReport>,
    /// The execution supervisor's account of that instrumented run:
    /// retries taken, ladder rungs walked, final mode. `is_clean()` for a
    /// healthy cell.
    recovery: Option<RecoveryReport>,
}

struct Row {
    workload: String,
    scheme: String,
    threads: usize,
    single: Cell,
    /// `None` when the workload's registry declares no slot bindings —
    /// `WorldMode::Auto` would never shard it, so forcing the sharded
    /// world would only measure the whole-world slow path.
    sharded: Option<Cell>,
    /// `None` unless the registry declares merge operators and the
    /// scheme is DOALL — pipeline sections never delta-route, so a
    /// deltas cell there would just re-measure `sharded`.
    deltas: Option<Cell>,
    /// Modeled time on the discrete-event simulator, default world. The
    /// DES models `threads`-way parallelism whatever the host has, so
    /// this pair is the deterministic, noise-free contention story the
    /// wall clock can't tell on a small machine.
    sim_time: Option<u64>,
    /// Modeled time with `WorldMode::Deltas`: privatized updates skip the
    /// commutative channel's serialization charge, so on reduction
    /// workloads this is strictly below `sim_time` at 2+ threads.
    sim_time_deltas: Option<u64>,
}

/// One validated run on the simulated executor; `None` if the scheme is
/// inapplicable (panics on executor failure — sim runs must not fail).
fn sim_time(
    w: &Workload,
    spec: &SchemeSpec,
    threads: usize,
    mode: WorldMode,
    cm: &CostModel,
    seq_world: &commset_runtime::World,
) -> Option<u64> {
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::default()
    };
    match w.run_scheme_with(spec, threads, cm, &cfg) {
        Ok((time, world, _)) => {
            (w.validate)(seq_world, &world).unwrap_or_else(|e| {
                panic!(
                    "{}: {} x{threads} sim ({mode:?}) computed a wrong answer: {e}",
                    w.name, spec.label
                )
            });
            Some(time)
        }
        Err(Ok(_diag)) => None,
        Err(Err(e)) => panic!(
            "{}: {} x{threads} sim ({mode:?}): executor failed: {e}",
            w.name, spec.label
        ),
    }
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs one configuration `iters` times, validating every run, and
/// returns the median-wall cell.
fn measure(
    w: &Workload,
    spec: &SchemeSpec,
    threads: usize,
    mode: WorldMode,
    iters: usize,
    seq_world: &commset_runtime::World,
) -> Option<Cell> {
    let cfg = ExecConfig {
        world: mode,
        ..ExecConfig::default()
    };
    let mut walls = Vec::with_capacity(iters);
    let mut last: Option<ThreadOutcome> = None;
    for _ in 0..iters {
        match w.run_scheme_threaded(spec, threads, &cfg) {
            Ok(out) => {
                (w.validate)(seq_world, &out.world).unwrap_or_else(|e| {
                    panic!(
                        "{}: {} x{threads} ({mode:?}) computed a wrong answer: {e}",
                        w.name, spec.label
                    )
                });
                assert!(
                    out.stats.watchdog.is_clean(),
                    "{}: {} x{threads} ({mode:?}): watchdog {:?}",
                    w.name,
                    spec.label,
                    out.stats.watchdog
                );
                if mode == WorldMode::Deltas {
                    // The point of the deltas cell: updates land in
                    // per-worker buffers, so the shard locks stay cold.
                    // One fast acquire is tolerated for a main-thread
                    // pre-section call (md5sum's `file_count`).
                    let s = &out.stats.shard;
                    assert!(
                        out.stats.delta.applies > 0,
                        "{}: {} x{threads}: deltas cell never took the privatized path",
                        w.name,
                        spec.label
                    );
                    assert!(
                        s.fast_acquires + s.multi_acquires + s.whole_acquires <= 1,
                        "{}: {} x{threads}: deltas cell touched the shard locks: {s:?}",
                        w.name,
                        spec.label
                    );
                }
                walls.push(out.wall.as_micros());
                last = Some(out);
            }
            Err(Ok(_diag)) => return None, // scheme inapplicable
            Err(Err(e)) => panic!(
                "{}: {} x{threads} ({mode:?}): executor failed: {e}",
                w.name, spec.label
            ),
        }
    }
    let last = last?;
    // One extra traced run, outside the timed loop: the report
    // rides along in the JSON without perturbing the wall-clock numbers.
    // It goes through the execution supervisor, so every cell also
    // records a RecoveryReport — clean on a healthy host, and an explicit
    // account of retries/degradation if the instrumented run hiccups.
    let telem_cfg = ExecConfig {
        trace: Some(TraceSink::new()),
        ..cfg
    };
    let policy = RecoveryPolicy {
        max_retries: 1,
        ..RecoveryPolicy::default()
    };
    let (telemetry, recovery) =
        match w.run_scheme_supervised(spec, threads, Backend::Threads, &telem_cfg, &policy) {
            Ok(out) => (out.telemetry, Some(out.recovery)),
            Err(Ok(_diag)) => (None, None),
            Err(Err(fail)) => (None, Some(fail.recovery)),
        };
    Some(Cell {
        wall_us: median(walls),
        shard: last.stats.shard,
        delta: last.stats.delta,
        queue_full_spins: last.stats.queue_full_spins,
        queue_empty_spins: last.stats.queue_empty_spins,
        telemetry,
        recovery,
    })
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"wall_us\": {}, \"shard\": {{\"fast_acquires\": {}, \"fast_waits\": {}, \
         \"multi_acquires\": {}, \"whole_acquires\": {}}}, \
         \"delta\": {{\"applies\": {}, \"coalesces\": {}, \"merged_slots\": {}, \
         \"lock_elisions\": {}}}, \
         \"queue_full_spins\": {}, \"queue_empty_spins\": {}, \"telemetry\": {}, \
         \"recovery\": {}}}",
        c.wall_us,
        c.shard.fast_acquires,
        c.shard.fast_waits,
        c.shard.multi_acquires,
        c.shard.whole_acquires,
        c.delta.applies,
        c.delta.coalesces,
        c.delta.merged_slots,
        c.delta.lock_elisions,
        c.queue_full_spins,
        c.queue_empty_spins,
        c.telemetry
            .as_ref()
            .map(|r| r.to_json())
            .unwrap_or_else(|| "null".to_string()),
        c.recovery
            .as_ref()
            .map(|r| r.to_json())
            .unwrap_or_else(|| "null".to_string())
    )
}

/// CI's delta perf gate: run one merge-declared reduction workload
/// entirely in `WorldMode::Deltas` (every DOALL scheme, 2 threads),
/// validate against the sequential oracle, and fail hard if the delta
/// path ever touched a shard lock. The `measure` assertions do the
/// enforcement; this just narrates the counters.
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
    let mut cells = 0u32;
    for spec in &w.schemes {
        if spec.scheme != Scheme::Doall {
            continue;
        }
        let Some(cell) = measure(&w, spec, 2, WorldMode::Deltas, 1, &seq_world) else {
            continue;
        };
        eprintln!(
            "{:<8} {:<26} x2 deltas: {:>8}us  applies {}  coalesces {}  elisions {}  shard locks {:?}",
            w.name,
            spec.label,
            cell.wall_us,
            cell.delta.applies,
            cell.delta.coalesces,
            cell.delta.lock_elisions,
            cell.shard
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
        "usage: perf [--quick] [--iters K] [--out PATH] \
         [--delta-smoke WORKLOAD] \
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
/// in-process quick run). Exits 1 when any column regressed.
fn run_diff(old_path: &str, against: Option<&str>) -> ! {
    let old = read_report(old_path);
    let new = match against {
        Some(path) => read_report(path),
        None => {
            eprintln!("no --against report: running the quick suite as the candidate");
            let (json, _) = run_suite(true, 1);
            Json::parse(&json).expect("in-process report serializes round-trip")
        }
    };
    let report = diff_reports(&old, &new, &DiffConfig::default()).unwrap_or_else(|e| {
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
    let mut quick = false;
    let mut iters = 3usize;
    let mut out_path = "BENCH_PARALLEL.json".to_string();
    let mut diff_path: Option<String> = None;
    let mut against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--iters" => {
                iters = match args.next().and_then(|v| v.parse().ok()) {
                    Some(k) => k,
                    None => usage(),
                };
            }
            "--out" => {
                out_path = match args.next() {
                    Some(p) => p,
                    None => usage(),
                }
            }
            "--delta-smoke" => {
                let name = match args.next() {
                    Some(n) => n,
                    None => usage(),
                };
                delta_smoke(&name);
                return;
            }
            "--diff" => {
                diff_path = match args.next() {
                    Some(p) => Some(p),
                    None => usage(),
                }
            }
            "--against" => {
                against = match args.next() {
                    Some(p) => Some(p),
                    None => usage(),
                }
            }
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
    if quick {
        iters = 1;
    }
    let (json, rows) = run_suite(quick, iters);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path} failed: {e}"));
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "wrote {out_path} ({rows} configurations, {iters} iteration(s), \
         host has {host_threads} hardware thread(s))",
    );
}

/// Runs the whole measurement matrix and serializes the report; returns
/// `(json, row count)`. Shared by the default write-a-report mode and
/// `--diff`'s in-process candidate.
fn run_suite(quick: bool, iters: usize) -> (String, usize) {
    let threads: Vec<usize> = if quick { vec![2] } else { vec![1, 2, 4, 8] };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cm = CostModel::default();

    let mut rows: Vec<Row> = Vec::new();
    for w in commset_workloads::all() {
        let (_, seq_world) = w.run_sequential(&cm);
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            for &t in &threads {
                let Some(single) = measure(&w, spec, t, WorldMode::SingleLock, iters, &seq_world)
                else {
                    continue;
                };
                let sharded = if w.registry.has_bindings() {
                    measure(&w, spec, t, WorldMode::Sharded, iters, &seq_world)
                } else {
                    None
                };
                let deltas = if w.registry.has_merges() && spec.scheme == Scheme::Doall {
                    measure(&w, spec, t, WorldMode::Deltas, iters, &seq_world)
                } else {
                    None
                };
                let sim = sim_time(&w, spec, t, WorldMode::Auto, &cm, &seq_world);
                let sim_deltas = if deltas.is_some() {
                    sim_time(&w, spec, t, WorldMode::Deltas, &cm, &seq_world)
                } else {
                    None
                };
                let mut extra = match sim {
                    Some(s) => format!("  [sim {s}]"),
                    None => String::new(),
                };
                match (&deltas, sim, sim_deltas) {
                    (Some(d), Some(s), Some(sd)) => {
                        let _ = write!(
                            extra,
                            "  deltas {:>8}us  [sim {s} -> {sd}, {:.2}x]",
                            d.wall_us,
                            s as f64 / sd.max(1) as f64
                        );
                    }
                    (Some(d), _, _) => {
                        let _ = write!(extra, "  deltas {:>8}us", d.wall_us);
                    }
                    _ => {}
                }
                match &sharded {
                    Some(sh) => eprintln!(
                        "{:<8} {:<26} x{t}: single {:>8}us  sharded {:>8}us  (ratio {:.2}){extra}",
                        w.name,
                        spec.label,
                        single.wall_us,
                        sh.wall_us,
                        single.wall_us as f64 / sh.wall_us.max(1) as f64
                    ),
                    None => eprintln!(
                        "{:<8} {:<26} x{t}: single {:>8}us  (no slot bindings){extra}",
                        w.name, spec.label, single.wall_us
                    ),
                }
                rows.push(Row {
                    workload: w.name.to_string(),
                    scheme: spec.label.clone(),
                    threads: t,
                    single,
                    sharded,
                    deltas,
                    sim_time: sim,
                    sim_time_deltas: sim_deltas,
                });
            }
        }
    }

    // Wall at one thread per (workload, scheme, mode), for speedups.
    #[allow(clippy::type_complexity)]
    let mut base: BTreeMap<(String, String), (u128, Option<u128>, Option<u128>)> = BTreeMap::new();
    for r in &rows {
        if r.threads == 1 {
            base.insert(
                (r.workload.clone(), r.scheme.clone()),
                (
                    r.single.wall_us,
                    r.sharded.as_ref().map(|c| c.wall_us),
                    r.deltas.as_ref().map(|c| c.wall_us),
                ),
            );
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"generated_by\": \"commset-bench perf\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"iterations\": {iters},");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let key = (r.workload.clone(), r.scheme.clone());
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(json, "      \"scheme\": \"{}\",", r.scheme);
        let _ = writeln!(json, "      \"threads\": {},", r.threads);
        let _ = writeln!(json, "      \"single_lock\": {},", cell_json(&r.single));
        match &r.sharded {
            Some(sh) => {
                let ratio = r.single.wall_us as f64 / sh.wall_us.max(1) as f64;
                let _ = writeln!(json, "      \"sharded\": {},", cell_json(sh));
                let _ = writeln!(json, "      \"sharded_over_single\": {ratio:.4},");
            }
            None => {
                let _ = writeln!(json, "      \"sharded\": null,");
                let _ = writeln!(json, "      \"sharded_over_single\": null,");
            }
        }
        match &r.deltas {
            Some(d) => {
                let ratio = r.single.wall_us as f64 / d.wall_us.max(1) as f64;
                let _ = writeln!(json, "      \"deltas\": {},", cell_json(d));
                let _ = writeln!(json, "      \"deltas_over_single\": {ratio:.4},");
            }
            None => {
                let _ = writeln!(json, "      \"deltas\": null,");
                let _ = writeln!(json, "      \"deltas_over_single\": null,");
            }
        }
        match r.sim_time {
            Some(s) => {
                let _ = writeln!(json, "      \"sim_time\": {s},");
            }
            None => {
                let _ = writeln!(json, "      \"sim_time\": null,");
            }
        }
        match (r.sim_time, r.sim_time_deltas) {
            (Some(s), Some(sd)) => {
                let v = s as f64 / sd.max(1) as f64;
                let _ = writeln!(json, "      \"sim_time_deltas\": {sd},");
                let _ = writeln!(json, "      \"sim_deltas_over_base\": {v:.4},");
            }
            _ => {
                let _ = writeln!(json, "      \"sim_time_deltas\": null,");
                let _ = writeln!(json, "      \"sim_deltas_over_base\": null,");
            }
        }
        match base.get(&key) {
            Some(&(single1, sharded1, deltas1)) => {
                let ss = single1 as f64 / r.single.wall_us.max(1) as f64;
                let _ = writeln!(json, "      \"speedup_single\": {ss:.4},");
                match (sharded1, &r.sharded) {
                    (Some(b), Some(sh)) => {
                        let v = b as f64 / sh.wall_us.max(1) as f64;
                        let _ = writeln!(json, "      \"speedup_sharded\": {v:.4},");
                    }
                    _ => {
                        let _ = writeln!(json, "      \"speedup_sharded\": null,");
                    }
                }
                match (deltas1, &r.deltas) {
                    (Some(b), Some(d)) => {
                        let v = b as f64 / d.wall_us.max(1) as f64;
                        let _ = writeln!(json, "      \"speedup_deltas\": {v:.4}");
                    }
                    _ => {
                        let _ = writeln!(json, "      \"speedup_deltas\": null");
                    }
                }
            }
            None => {
                let _ = writeln!(json, "      \"speedup_single\": null,");
                let _ = writeln!(json, "      \"speedup_sharded\": null,");
                let _ = writeln!(json, "      \"speedup_deltas\": null");
            }
        }
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    (json, rows.len())
}
