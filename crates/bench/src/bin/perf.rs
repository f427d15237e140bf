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
//! Run: `cargo run --release -p commset-bench --bin perf [-- --out PATH]`
//!
//! `--out PATH` sets the output path (default `BENCH_PARALLEL.json`);
//! any other argument is a usage error (exit 2).
//!
//! The committed `BENCH_PARALLEL.json` is the simulated clock's golden:
//! this binary's unit test reruns the suite and compares it with that
//! file byte for byte, so regenerating it with `perf` is a reviewed
//! change like any other golden refresh.
//!
//! The output is a machine-readable JSON report (written without any
//! external serialization dependency), one line per
//! `workload x scheme x thread-count`: `sim_time`, the speedup over the
//! same scheme at one thread, the Deltas-world time and ratio, and the
//! DES's TM, queue and delta counters. Every run is validated against
//! the sequential oracle — a benchmark that computes the wrong answer
//! aborts.

use commset::Scheme;
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

/// Usage-error exit: the usage line on stderr, status 2.
fn usage() -> ! {
    eprintln!("usage: perf [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = "BENCH_PARALLEL.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }
    let (json, rows) = run_suite();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path} failed: {e}"));
    eprintln!("wrote {out_path} ({rows} configurations)");
}

/// Runs the whole simulated matrix and serializes the report; returns
/// `(json, row count)`.
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

#[cfg(test)]
mod tests {
    use super::run_suite;
    use commset_bench::diff::{first_difference, COMMITTED_REPORT};

    /// The committed report is the golden: a fresh run must reproduce it
    /// byte for byte, so a one-tick drift in any cell fails. Regenerate
    /// with `perf` from the repo root and review the diff.
    #[test]
    fn fresh_suite_matches_committed_bench_parallel_json() {
        let committed = std::fs::read_to_string(COMMITTED_REPORT)
            .unwrap_or_else(|e| panic!("reading {COMMITTED_REPORT}: {e}"));
        let (fresh, _) = run_suite();
        if let Some((line, fresh, committed)) = first_difference(&fresh, &committed) {
            panic!(
                "BENCH_PARALLEL.json line {line}: fresh {fresh:?}, committed {committed:?}; \
                 regenerate with `cargo run --release -p commset-bench --bin perf` if intended"
            );
        }
    }
}
