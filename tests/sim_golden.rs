//! Golden discrete-event-simulator outputs: every workload × scheme spec
//! × threads {2, 4, 8} runs on the DES and one line per run records what
//! the simulated executor reports — simulated time, the waits-for
//! watchdog's counters, per-lock contention ratios, TM, queue and delta
//! statistics. Each workload's first COMMSET spec runs once more under a
//! lock-delay + worker-stall fault plan, and merge-declared workloads once
//! more in the delta-privatized world. The lines must match
//! `samples/sim/fig6.expected` byte for byte, so a change to the DES
//! scheduler or the watchdog that moves any simulated figure — even by
//! less than the `perf --diff` noise band — shows up as a diff.
//!
//! To refresh the golden after an intentional change, rerun with
//! `SIM_GOLDEN_REGEN=1` and review the resulting diff.

use commset_interp::{ExecConfig, SimStats, TraceSink, WorldMode};
use commset_runtime::{FaultPlan, WorkerStall};
use commset_sim::CostModel;
use commset_workloads::{SchemeSpec, Workload};

const THREADS: [usize; 3] = [2, 4, 8];

fn golden_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../samples/sim/fig6.expected"
    )
}

/// Lock grants delayed and worker 1 stalled: widens the windows in which
/// workers contend, so lock retries, blocked waits and watchdog checks
/// all grow.
fn delay_and_stall() -> FaultPlan {
    FaultPlan {
        stall: Some(WorkerStall {
            tid: Some(1),
            every: 4,
            cost: 1500,
        }),
        ..FaultPlan::lock_delay(0x1D, 900)
    }
}

fn render(stats: &SimStats, sim_time: u64) -> String {
    let wd = &stats.watchdog;
    let locks: Vec<String> = stats
        .lock_contention
        .iter()
        .map(|(name, ratio)| format!("{name}:{ratio}"))
        .collect();
    let d = &stats.delta;
    format!(
        "sim_time={sim_time} | wd checks={} max_blocked={} clean={} | locks=[{}] \
         | tm commits={} aborts={} fallbacks={} | queue pushes={} stalls={} \
         | delta applies={} coalesces={} merged_slots={} elisions={} \
         | faults lock_delays={} stalls={}",
        wd.checks,
        wd.max_blocked,
        wd.is_clean(),
        locks.join(","),
        stats.tm_commits,
        stats.tm_aborts,
        stats.tm_fallbacks,
        stats.queue_pushes,
        stats.queue_stalls,
        d.applies,
        d.coalesces,
        d.merged_slots,
        d.lock_elisions,
        stats.fault.lock_delays,
        stats.fault.stalls,
    )
}

/// One golden line: runs `spec` at `threads` under `cfg` and validates
/// the final world against the sequential oracle.
fn line(
    w: &Workload,
    oracle: &commset_runtime::World,
    spec: &SchemeSpec,
    threads: usize,
    tag: &str,
    cfg: &ExecConfig,
    cm: &CostModel,
) -> String {
    let head = format!("{} | {} | x{threads} | {tag}", w.name, spec.label);
    match w.run_scheme_with(spec, threads, cm, cfg) {
        Ok((sim_time, world, stats)) => {
            if let Err(e) = (w.validate)(oracle, &world) {
                panic!("{head}: output differs from the sequential oracle: {e}");
            }
            format!("{head} | {}", render(&stats, sim_time))
        }
        Err(Ok(_)) => format!("{head} | n/a"),
        Err(Err(e)) => panic!("{head}: simulated run failed: {e}"),
    }
}

/// `cfg` with the event stream and the metrics registry on: both are
/// passive on the DES, so the line must not change.
fn observed(cfg: &ExecConfig) -> ExecConfig {
    ExecConfig {
        trace: Some(TraceSink::new()),
        metrics: true,
        ..cfg.clone()
    }
}

fn sweep() -> String {
    let cm = CostModel::default();
    let plain = ExecConfig::default();
    let faulted = ExecConfig::with_fault(delay_and_stall());
    let deltas = ExecConfig {
        world: WorldMode::Deltas,
        ..ExecConfig::default()
    };
    let mut out = String::new();
    for w in commset_workloads::all() {
        let (_, oracle) = w.run_sequential(&cm);
        for spec in &w.schemes {
            for threads in THREADS {
                out += &line(&w, &oracle, spec, threads, "none", &plain, &cm);
                out.push('\n');
            }
        }
        let Some(first) = w.schemes.iter().find(|s| s.commset) else {
            continue;
        };
        let mut extra = vec![("lock_delay+stall", &faulted)];
        if w.registry.has_merges() {
            extra.push(("deltas", &deltas));
        }
        for (tag, cfg) in extra {
            let l = line(&w, &oracle, first, 4, tag, cfg, &cm);
            let seen = line(&w, &oracle, first, 4, tag, &observed(cfg), &cm);
            assert_eq!(l, seen, "the trace and metrics moved a DES figure");
            out += &l;
            out.push('\n');
        }
    }
    out
}

#[test]
fn des_outputs_match_golden() {
    let got = sweep();
    let path = golden_path();
    if std::env::var_os("SIM_GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "DES output drifted from {path}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "DES golden row count changed"
    );
}
