//! The schedule explorer — a DPOR-lite commutativity checker.
//!
//! [`check_source`] compiles an annotated program through the
//! [`Compiler`] driver, runs the *sequential* program once against the
//! abstract [`crate::model::ModelWorld`] (the oracle), then replays the
//! *transformed* program under a budgeted family of schedules that
//! systematically permute the order of same-CommSet region instances:
//!
//! 1. `canonical` / `reverse` / `round-robin` — the coarse corners;
//! 2. a `delay(w,k)` grid — hold one worker back `k` regions, the
//!    systematic pair-flip that exposes same-instance races;
//! 3. seeded `chaos` schedules up to the budget;
//! 4. under [`CheckConfig::relaxed`], **store-buffered** (`sb[w]:`)
//!    variants of every family, which deliberately delay the flush of
//!    commutative-channel writes by up to `w` scheduling ticks — the
//!    weak-memory half of the campaign.
//!
//! The schedule family is *enumerable*: [`schedule_specs`] produces a
//! deterministic list of [`ScheduleSpec`] descriptors, each of which can
//! be instantiated independently. That is what makes the campaign
//! partitionable — [`crate::pool`] fans contiguous spec ranges across a
//! work-stealing thread pool and merges the outcomes by spec index, so a
//! parallel campaign is bit-identical to a sequential one.
//!
//! Every schedule's final world (channel histories + scalar globals) is
//! compared against the oracle; the merged report names **every**
//! violating schedule, and the first (lowest-index) violation is rendered
//! in full with both interleavings, the suspect region pair, a shrunk
//! locally-minimal schedule, and a `REPLAY:` line. The whole campaign is
//! a pure function of `(source, table, config)` — same seed, same
//! explored schedules, same verdict, regardless of `jobs`.

use crate::exec::{
    render_interleaving, run_controlled, Canonical, Chaos, ControlledOutcome, Delay, RegionExec,
    Reverse, RoundRobin, Scheduler,
};
use crate::model::ModelConfig;
use crate::pool;
use crate::report::{CheckFailure, CheckReport, ReplayInfo, Verdict, Violation};
use crate::shrink::shrink_schedule;
use commset_analysis::{region_catalog, RegionInfo};
use commset_interp::BcModule;
use commset_ir::{lower_program, IntrinsicTable, Module};
use commset_lang::diag::Diagnostic;
use commset_transform::{Analysis, Compiler, ParallelPlan, Scheme, SyncMode};

/// Campaign knobs. Everything is deterministic: two runs with equal
/// configs explore the same schedules and reach the same verdict — and
/// `jobs` affects wall-clock only, never the report.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Workers in the transformed program.
    pub nthreads: usize,
    /// Total number of schedules to explore (≥ 1; the canonical schedule
    /// always runs first).
    pub budget: usize,
    /// Seed for the chaos schedules.
    pub seed: u64,
    /// Checker threads exploring the schedule space (the `--jobs` knob).
    /// Partitioning is fixed per budget, so the merged report is
    /// bit-identical for every value of `jobs`.
    pub jobs: usize,
    /// Explore relaxed-visibility (store-buffered) schedule variants in
    /// addition to the sequentially-consistent families.
    pub relaxed: bool,
    /// Largest store-buffer flush window (in scheduling ticks) the
    /// relaxed families explore; windows 1, 2, 4 … capped here.
    pub max_window: usize,
    /// The abstract world's knobs (loop bound, stream length, commutative
    /// channels).
    pub model: ModelConfig,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            nthreads: 2,
            budget: 24,
            seed: 0x5eed_c0de,
            jobs: 1,
            relaxed: false,
            max_window: 4,
            model: ModelConfig::default(),
        }
    }
}

impl CheckConfig {
    /// A config whose model treats `chans` as commutative channels.
    pub fn with_commutative<'a>(chans: impl IntoIterator<Item = &'a str>) -> Self {
        CheckConfig {
            model: ModelConfig::with_commutative(chans),
            ..CheckConfig::default()
        }
    }

    /// The store-buffer windows the relaxed families explore: the powers
    /// of two up to [`CheckConfig::max_window`], never empty.
    pub fn windows(&self) -> Vec<usize> {
        let ws: Vec<usize> = [1usize, 2, 4, 8, 16]
            .into_iter()
            .filter(|w| *w <= self.max_window)
            .collect();
        if ws.is_empty() {
            vec![self.max_window.max(1)]
        } else {
            ws
        }
    }

    /// The budget that runs every systematic (non-chaos) family exactly
    /// once: the SC base block, plus one store-buffered copy per window
    /// when `relaxed` is on. Corpus replay uses this so a small user
    /// budget cannot silently skip the relaxed families.
    pub fn full_family_budget(&self) -> usize {
        let base = 3 + self.nthreads * 3;
        if self.relaxed {
            base * (1 + self.windows().len())
        } else {
            base
        }
    }
}

/// How a schedule picks the next worker (the scheduler half of a spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PickerSpec {
    /// Lowest-numbered ready worker.
    Canonical,
    /// Highest-numbered ready worker.
    Reverse,
    /// Cycle through workers, one region each.
    RoundRobin,
    /// Hold `victim` back until `hold` other regions ran.
    Delay {
        /// The held-back worker.
        victim: usize,
        /// Regions others execute first.
        hold: usize,
    },
    /// Seeded random choice.
    Chaos {
        /// The SplitMix64 seed.
        seed: u64,
    },
}

/// One fully-described, independently-runnable schedule: a picker plus an
/// optional store-buffer window. The campaign is a list of these; a spec
/// can be re-instantiated at any time (replay, shrinking, partitioned
/// exploration) and always produces the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// The worker-picking strategy.
    pub picker: PickerSpec,
    /// `Some(w)`: run with per-worker store buffers flushed after `w`
    /// scheduling ticks (a relaxed-visibility schedule). `None`: SC.
    pub window: Option<usize>,
}

impl ScheduleSpec {
    /// The spec's stable, human-readable name (what `explored` lists and
    /// failure reports use).
    pub fn name(&self) -> String {
        let base = match &self.picker {
            PickerSpec::Canonical => "canonical".to_string(),
            PickerSpec::Reverse => "reverse".to_string(),
            PickerSpec::RoundRobin => "round-robin".to_string(),
            PickerSpec::Delay { victim, hold } => format!("delay(w{victim},{hold})"),
            PickerSpec::Chaos { seed } => format!("chaos({seed:#x})"),
        };
        match self.window {
            Some(w) => format!("sb[{w}]:{base}"),
            None => base,
        }
    }

    /// A fresh scheduler for this spec.
    pub fn instantiate(&self) -> Box<dyn Scheduler> {
        match &self.picker {
            PickerSpec::Canonical => Box::new(Canonical),
            PickerSpec::Reverse => Box::new(Reverse),
            PickerSpec::RoundRobin => Box::new(RoundRobin::new()),
            PickerSpec::Delay { victim, hold } => Box::new(Delay::new(*victim, *hold)),
            PickerSpec::Chaos { seed } => Box::new(Chaos::new(*seed)),
        }
    }
}

/// The deterministic, enumerable schedule family for a config: the SC
/// base block (canonical, reverse, round-robin, the delay grid), then —
/// under [`CheckConfig::relaxed`] — one store-buffered copy of the base
/// block per flush window, then chaos schedules (cycling through SC and
/// every window) up to the budget.
pub fn schedule_specs(cfg: &CheckConfig) -> Vec<ScheduleSpec> {
    let mut base: Vec<PickerSpec> = vec![
        PickerSpec::Canonical,
        PickerSpec::Reverse,
        PickerSpec::RoundRobin,
    ];
    for victim in 0..cfg.nthreads {
        for hold in [1usize, 2, 4] {
            base.push(PickerSpec::Delay { victim, hold });
        }
    }
    let mut specs: Vec<ScheduleSpec> = base
        .iter()
        .map(|p| ScheduleSpec {
            picker: p.clone(),
            window: None,
        })
        .collect();
    let windows = if cfg.relaxed {
        cfg.windows()
    } else {
        Vec::new()
    };
    for w in &windows {
        specs.extend(base.iter().map(|p| ScheduleSpec {
            picker: p.clone(),
            window: Some(*w),
        }));
    }
    let mut k = 0u64;
    while specs.len() < cfg.budget {
        // Cycle the chaos fill through SC and every window so a larger
        // budget deepens both halves of the campaign evenly.
        let cycle = 1 + windows.len();
        let window = match (k as usize) % cycle {
            0 => None,
            i => Some(windows[i - 1]),
        };
        specs.push(ScheduleSpec {
            picker: PickerSpec::Chaos {
                seed: cfg.seed.wrapping_add(k),
            },
            window,
        });
        k += 1;
    }
    specs.truncate(cfg.budget.max(1));
    specs
}

/// The transformed module, its plan, and the scheme label: DOALL, then
/// PS-DSWP, then DSWP, the first that applies. Only the pick is lowered,
/// so a lowering error propagates instead of falling through.
fn pick_transform(
    compiler: &Compiler,
    analysis: &Analysis,
    nthreads: usize,
) -> Result<(Module, ParallelPlan, String), Diagnostic> {
    let mut first_err = None;
    for (scheme, label) in [
        (Scheme::Doall, "DOALL"),
        (Scheme::PsDswp, "PS-DSWP"),
        (Scheme::Dswp, "DSWP"),
    ] {
        match compiler.compile_to_ast(analysis, scheme, nthreads, SyncMode::Lib) {
            Ok(pp) => {
                let module = lower_program(&pp.program, compiler.intrinsics.clone())?;
                return Ok((module, pp.plan, label.to_string()));
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    // Report the DOALL inhibitor: it names the loop-carried dependence
    // and is the most actionable of the three diagnostics.
    Err(first_err.expect("three schemes were tried"))
}

/// Differences between `outcome` and `oracle`: world channel diffs plus
/// scalar-global mismatches.
fn outcome_diffs(oracle: &ControlledOutcome, outcome: &ControlledOutcome) -> Vec<String> {
    let mut diffs = oracle.world.diff(&outcome.world);
    for (name, oracle_v) in &oracle.globals {
        match outcome.globals.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v == oracle_v => {}
            Some((_, v)) => diffs.push(format!(
                "global {name}: oracle {oracle_v}, schedule computed {v}"
            )),
            None => diffs.push(format!("global {name}: missing in transformed program")),
        }
    }
    diffs
}

fn first_divergence(a: &[RegionExec], b: &[RegionExec]) -> Option<(usize, RegionExec, RegionExec)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .map(|i| (i, a[i].clone(), b[i].clone()))
}

/// One schedule's fate under the campaign.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Spec index within the campaign.
    pub index: usize,
    /// The schedule's name.
    pub name: String,
    /// The region interleaving the schedule executed (empty if the run
    /// aborted before completing).
    pub log: Vec<RegionExec>,
    /// Channel/global diffs vs. the oracle; empty means the schedule
    /// reproduced the sequential history.
    pub diffs: Vec<String>,
    /// Set if the run aborted (deadlock, budget, dynamic error).
    pub error: Option<String>,
    /// VM steps the schedule spent (0 when the run aborted before
    /// reporting): the exploration-throughput count.
    pub steps: u64,
}

impl ScheduleOutcome {
    /// True if the schedule diverged from the oracle or aborted.
    pub fn violates(&self) -> bool {
        !self.diffs.is_empty() || self.error.is_some()
    }
}

/// A compiled, oracle'd campaign: everything needed to run any subset of
/// its schedules from any thread. Shared read-only across the pool.
pub struct Campaign {
    cfg: CheckConfig,
    module: Module,
    /// `module`'s bytecode, compiled once: every schedule, shrink replay
    /// and pool thread runs on it.
    bc: BcModule,
    plan: ParallelPlan,
    scheme: String,
    oracle: ControlledOutcome,
    regions: Vec<RegionInfo>,
    specs: Vec<ScheduleSpec>,
}

/// [`prepare_campaign`]'s result: ready to explore, or conservatively
/// skipped (no parallelizing transform applies / oracle failed).
pub enum PreparedCampaign {
    /// The campaign compiled; explore away.
    Ready(Box<Campaign>),
    /// Nothing to check.
    Skipped {
        /// Why (transform inapplicability diagnostic or oracle error).
        reason: String,
        /// The region catalog (still reportable).
        regions: Vec<RegionInfo>,
    },
}

/// Compiles `source`, runs the sequential oracle, picks the transform
/// under test, compiles its bytecode and enumerates the schedule family.
/// Each module is compiled to bytecode exactly once here; no schedule
/// compiles anything.
///
/// # Errors
///
/// Returns the front-end / metadata-manager / hot-loop diagnostic if the
/// program does not even compile; transform inapplicability is *not* an
/// error (it yields [`PreparedCampaign::Skipped`]).
pub fn prepare_campaign(
    source: &str,
    table: &IntrinsicTable,
    cfg: &CheckConfig,
) -> Result<PreparedCampaign, Diagnostic> {
    let compiler = Compiler::new(table.clone());
    let analysis = compiler.analyze(source)?;
    let regions: Vec<RegionInfo> = region_catalog(&analysis.managed);

    // The sequential oracle: the untransformed program, run without a plan.
    let seq_module = compiler.compile_sequential(&analysis)?;
    let seq_bc = BcModule::compile(&seq_module);
    let oracle = match run_controlled(
        &seq_module,
        &seq_bc,
        None,
        cfg.model.clone(),
        &mut Canonical,
    ) {
        Ok(o) => o,
        Err(e) => {
            return Ok(PreparedCampaign::Skipped {
                reason: format!("sequential oracle failed: {e}"),
                regions,
            })
        }
    };

    // The transform under test.
    let (module, plan, scheme) = match pick_transform(&compiler, &analysis, cfg.nthreads) {
        Ok(t) => t,
        Err(d) => {
            return Ok(PreparedCampaign::Skipped {
                reason: d.message.clone(),
                regions,
            })
        }
    };

    Ok(PreparedCampaign::Ready(Box::new(Campaign {
        specs: schedule_specs(cfg),
        cfg: cfg.clone(),
        bc: BcModule::compile(&module),
        module,
        plan,
        scheme,
        oracle,
        regions,
    })))
}

impl Campaign {
    /// The enumerated schedule family, in exploration order.
    pub fn specs(&self) -> &[ScheduleSpec] {
        &self.specs
    }

    /// The campaign's config.
    pub fn cfg(&self) -> &CheckConfig {
        &self.cfg
    }

    /// The scheme under test (e.g. `DOALL`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The transformed module under test.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Runs one schedule with an *externally supplied* scheduler (the
    /// shrinker's entry point) under the given store-buffer window and
    /// reports its diffs vs. the oracle, or the abort error.
    pub fn run_with_scheduler(
        &self,
        window: Option<usize>,
        sched: &mut dyn Scheduler,
    ) -> Result<(Vec<String>, Vec<RegionExec>), String> {
        self.run_with_bytecode(&self.bc, window, sched)
            .map(|(diffs, log, _)| (diffs, log))
    }

    /// [`Campaign::run_with_scheduler`] on `bc`, which must be the bytecode
    /// of [`Campaign::module`], plus the VM steps the run spent. The
    /// campaign's own runs pass the bytecode it compiled once.
    pub fn run_with_bytecode(
        &self,
        bc: &BcModule,
        window: Option<usize>,
        sched: &mut dyn Scheduler,
    ) -> Result<(Vec<String>, Vec<RegionExec>, u64), String> {
        let mut model = self.cfg.model.clone();
        model.sb_window = window;
        match run_controlled(&self.module, bc, Some(&self.plan), model, sched) {
            Ok(outcome) => Ok((
                outcome_diffs(&self.oracle, &outcome),
                outcome.log,
                outcome.steps,
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Runs the `index`-th spec. Pure: any thread, any order, same result.
    pub fn run_spec(&self, index: usize) -> ScheduleOutcome {
        let spec = &self.specs[index];
        let mut sched = spec.instantiate();
        match self.run_with_bytecode(&self.bc, spec.window, sched.as_mut()) {
            Ok((diffs, log, steps)) => ScheduleOutcome {
                index,
                name: spec.name(),
                log,
                diffs,
                error: None,
                steps,
            },
            Err(e) => ScheduleOutcome {
                index,
                name: spec.name(),
                log: Vec::new(),
                diffs: Vec::new(),
                error: Some(e),
                steps: 0,
            },
        }
    }

    /// Merges per-schedule outcomes (in spec order) into the final
    /// report: every violating schedule is named, the lowest-index
    /// violation is rendered in full (with a shrunk schedule when it
    /// completed), and a `REPLAY:` line pins the reproduction knobs.
    pub fn merge(&self, outcomes: &[ScheduleOutcome]) -> CheckReport {
        let explored: Vec<String> = outcomes.iter().map(|o| o.name.clone()).collect();
        let canonical_log: Vec<RegionExec> = outcomes
            .iter()
            .find(|o| !o.violates())
            .map(|o| o.log.clone())
            .unwrap_or_default();
        let violations: Vec<Violation> = outcomes
            .iter()
            .filter(|o| o.violates())
            .map(|o| Violation {
                schedule: o.name.clone(),
                partition: pool::partition_of(o.index),
            })
            .collect();
        let Some(first) = outcomes.iter().find(|o| o.violates()) else {
            return CheckReport {
                verdict: Verdict::Pass {
                    scheme: self.scheme.clone(),
                    schedules: explored.len(),
                },
                regions: self.regions.clone(),
                explored,
                violations,
                replay: None,
            };
        };
        let replay = ReplayInfo {
            seed: self.cfg.seed,
            budget: self.cfg.budget,
            jobs: self.cfg.jobs,
            threads: self.cfg.nthreads,
            partition: pool::partition_of(first.index),
            schedule: first.name.clone(),
        };
        // Shrink completed divergences (not aborts) to a locally-minimal
        // schedule before rendering.
        let shrunk = if first.error.is_none() {
            shrink_schedule(self, first.index)
        } else {
            None
        };
        let suspect = first_divergence(&canonical_log, &first.log);
        CheckReport {
            verdict: Verdict::Fail(Box::new(CheckFailure {
                scheme: self.scheme.clone(),
                schedule: first.name.clone(),
                partition: pool::partition_of(first.index),
                diffs: first.diffs.clone(),
                canonical: render_interleaving(&canonical_log),
                failing: render_interleaving(&first.log),
                canonical_log,
                failing_log: first.log.clone(),
                suspect,
                shrunk,
                error: first.error.clone(),
            })),
            regions: self.regions.clone(),
            explored,
            violations,
            replay: Some(replay),
        }
    }
}

/// Runs the full checking campaign on `source`: every schedule in the
/// family is explored (fanned across [`CheckConfig::jobs`] threads) and
/// the merged report names every violating schedule.
///
/// # Errors
///
/// Returns the front-end / metadata-manager / hot-loop diagnostic if the
/// program does not even compile; transform inapplicability is *not* an
/// error (it yields [`Verdict::Skipped`]).
pub fn check_source(
    source: &str,
    table: &IntrinsicTable,
    cfg: &CheckConfig,
) -> Result<CheckReport, Diagnostic> {
    let campaign = match prepare_campaign(source, table, cfg)? {
        PreparedCampaign::Ready(c) => c,
        PreparedCampaign::Skipped { reason, regions } => {
            return Ok(CheckReport {
                verdict: Verdict::Skipped { reason },
                regions,
                explored: Vec::new(),
                violations: Vec::new(),
                replay: None,
            })
        }
    };
    let outcomes = pool::run_specs(&campaign);
    Ok(campaign.merge(&outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("io_read", vec![Type::Int], Type::Int, &["FS"], &["FS"], 10);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 5);
        t.mark_per_instance("FS");
        t
    }

    const SOUND: &str = r#"
        #pragma CommSetDecl(FSET, Group)
        #pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
        extern int io_read(int i);
        extern void emit(int d);
        int main() {
            int n = 6;
            for (int i = 0; i < n; i = i + 1) {
                int x = 0;
                #pragma CommSet(SELF, FSET(i))
                { x = io_read(i); }
                #pragma CommSet(SELF, FSET(i))
                { emit(x + i); }
            }
            return 0;
        }
    "#;

    #[test]
    fn sound_program_passes_every_schedule() {
        let cfg = CheckConfig::with_commutative(["OUT"]);
        let report = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert!(report.is_pass(), "{report}");
        assert!(report.explored.len() >= 4, "{:?}", report.explored);
        assert_eq!(report.explored[0], "canonical");
        assert!(report.violations.is_empty());
    }

    #[test]
    fn ordered_output_annotated_self_is_flagged() {
        // Claiming SELF on emit while OUT is order-sensitive: the DOALL
        // reorders emits, the ordered channel sees it.
        let cfg = CheckConfig::default(); // OUT stays ordered
        let report = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert!(report.is_fail(), "{report}");
        let Verdict::Fail(fail) = &report.verdict else {
            unreachable!()
        };
        assert!(
            fail.diffs.iter().any(|d| d.contains("OUT")),
            "{:?}",
            fail.diffs
        );
        // The merged report names every violating schedule, not just the
        // first, and carries a REPLAY line.
        assert!(!report.violations.is_empty());
        assert!(report.violations.len() > 1, "{:?}", report.violations);
        let replay = report.replay.as_ref().expect("replay info on failure");
        assert_eq!(replay.schedule, fail.schedule);
        assert!(report.to_string().contains("REPLAY:"), "{report}");
    }

    /// A pipeline-shaped program: `produce` is a bare world call in its
    /// stage worker (no pragma), `consume` is a SELF region — the shape
    /// where world-call pausing adds scheduling points.
    const PIPE: &str = r#"
        extern int produce(int i);
        extern void consume(int v);
        int main() {
            int n = 6;
            for (int i = 0; i < n; i = i + 1) {
                int v = produce(i);
                #pragma CommSet(SELF)
                { consume(v); }
            }
            return 0;
        }
    "#;

    fn pipe_table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("produce", vec![Type::Int], Type::Int, &["SRC"], &["SRC"], 8);
        t.register("consume", vec![Type::Int], Type::Void, &[], &["SINK"], 6);
        t
    }

    #[test]
    fn world_call_pauses_keep_sound_programs_passing() {
        let mut cfg = CheckConfig::with_commutative(["OUT"]);
        cfg.model.pause_at_world_calls = true;
        let report = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert!(report.is_pass(), "{report}");
        let mut pipe_cfg = CheckConfig::with_commutative(["SINK"]);
        pipe_cfg.model.pause_at_world_calls = true;
        let report = check_source(PIPE, &pipe_table(), &pipe_cfg).expect("compiles");
        assert!(report.is_pass(), "{report}");
    }

    #[test]
    fn world_call_pauses_still_flag_ordered_output() {
        let mut cfg = CheckConfig::default(); // OUT stays ordered
        cfg.model.pause_at_world_calls = true;
        let report = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert!(report.is_fail(), "{report}");
    }

    /// With pausing on, bare world calls become scheduling points: the
    /// scheduler is consulted strictly more often on a pipeline whose
    /// producer stage calls the world outside any region.
    #[test]
    fn world_call_pauses_expose_more_scheduling_points() {
        struct Counting {
            picks: usize,
        }
        impl Scheduler for Counting {
            fn name(&self) -> String {
                "counting".into()
            }
            fn pick(&mut self, ready: &[usize]) -> usize {
                self.picks += 1;
                ready[0]
            }
        }
        let table = pipe_table();
        let base = CheckConfig::with_commutative(["SINK"]);
        let mut paused_cfg = base.clone();
        paused_cfg.model.pause_at_world_calls = true;
        let prep = |cfg: &CheckConfig| match prepare_campaign(PIPE, &table, cfg).expect("compiles")
        {
            PreparedCampaign::Ready(c) => c,
            PreparedCampaign::Skipped { reason, .. } => panic!("skipped: {reason}"),
        };
        let mut without = Counting { picks: 0 };
        prep(&base)
            .run_with_scheduler(None, &mut without)
            .expect("runs");
        let mut with = Counting { picks: 0 };
        prep(&paused_cfg)
            .run_with_scheduler(None, &mut with)
            .expect("runs");
        assert!(
            with.picks > without.picks,
            "pausing must add scheduling points ({} vs {})",
            with.picks,
            without.picks
        );
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let cfg = CheckConfig::default();
        let a = check_source(SOUND, &table(), &cfg).expect("compiles");
        let b = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert_eq!(a.explored, b.explored);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn parallel_jobs_produce_bit_identical_reports() {
        // Pass and fail campaigns, 1 vs 4 checker threads: the merged
        // report must not depend on jobs at all.
        for cfg_base in [
            CheckConfig::with_commutative(["OUT"]),
            CheckConfig::default(),
        ] {
            let seq = check_source(SOUND, &table(), &cfg_base).expect("compiles");
            let par_cfg = CheckConfig {
                jobs: 4,
                ..cfg_base.clone()
            };
            let par = check_source(SOUND, &table(), &par_cfg).expect("compiles");
            assert_eq!(seq.explored, par.explored);
            // The only allowed textual difference is the REPLAY line's
            // jobs count (it echoes the invocation).
            assert_eq!(
                seq.to_string().replace("--jobs 1", "--jobs N"),
                par.to_string().replace("--jobs 4", "--jobs N"),
            );
        }
    }

    #[test]
    fn relaxed_config_enumerates_store_buffered_families() {
        let mut cfg = CheckConfig::with_commutative(["OUT"]);
        cfg.relaxed = true;
        cfg.budget = cfg.full_family_budget();
        let specs = schedule_specs(&cfg);
        assert_eq!(specs.len(), cfg.budget);
        // SC block first (canonical leads), then every window's copy.
        assert_eq!(specs[0].name(), "canonical");
        for w in cfg.windows() {
            let name = format!("sb[{w}]:canonical");
            assert!(
                specs.iter().any(|s| s.name() == name),
                "missing {name}: {:?}",
                specs.iter().map(ScheduleSpec::name).collect::<Vec<_>>()
            );
        }
        // A relaxed campaign on a program whose annotations are sound
        // even under reordering still passes.
        let report = check_source(SOUND, &table(), &cfg).expect("compiles");
        assert!(report.is_pass(), "{report}");
    }

    #[test]
    fn unannotated_program_is_skipped() {
        let src = r#"
            extern int io_read(int i);
            int main() {
                int n = 6;
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + io_read(i);
                }
                return 0;
            }
        "#;
        let report = check_source(src, &table(), &CheckConfig::default()).expect("compiles");
        assert!(
            matches!(report.verdict, Verdict::Skipped { .. }),
            "{report}"
        );
    }
}
