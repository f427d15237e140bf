//! Compile-once parity: a checker campaign compiles its transformed
//! module to bytecode once, in `prepare_campaign`, and every schedule and
//! every shrink replay runs on that one compilation. For every checker
//! fixture and corpus entry (at the configs `tests/corpus.rs` pins), each
//! spec's outcome on the shared bytecode — explored across two pool
//! threads — must equal a run on freshly compiled bytecode, and the
//! shrunk schedule must equal the one a shrinker that recompiles before
//! every replay finds.

use commset::spec::{build_table, parse_effects};
use commset_checker::{
    pool, prepare_campaign, shrink_schedule, Campaign, CheckConfig, PreparedCampaign, Recording,
    RegionExec, Replay, ScheduleOutcome, Scheduler, ShrunkSchedule,
};
use commset_interp::BcModule;
use std::path::{Path, PathBuf};

/// The `.cmm` sources in `dir` (relative to the repository root), sorted.
fn cmm_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cmm"))
        .collect();
    entries.sort();
    entries
}

/// The campaign for `path` under its sidecar's config; corpus entries run
/// at the full-family budget, as the corpus replay does.
fn campaign(path: &Path, corpus: bool) -> Option<Box<Campaign>> {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let fx = path.with_extension("effects");
    let text = std::fs::read_to_string(&fx).unwrap_or_default();
    let spec = parse_effects(&text).expect("sidecar parses");
    let table = build_table(&source, &spec).expect("externs resolve");
    let mut cfg: CheckConfig = spec.checker_config();
    cfg.jobs = 2;
    if corpus {
        cfg.budget = cfg.full_family_budget();
    }
    match prepare_campaign(&source, &table, &cfg).expect("compiles") {
        PreparedCampaign::Ready(c) => Some(c),
        PreparedCampaign::Skipped { .. } => None,
    }
}

type Observed = (Vec<String>, Vec<RegionExec>, Option<String>, u64);

fn observed(o: &ScheduleOutcome) -> Observed {
    (o.diffs.clone(), o.log.clone(), o.error.clone(), o.steps)
}

/// One schedule on freshly compiled bytecode, shaped like a
/// [`ScheduleOutcome`]'s observables.
fn fresh_run(c: &Campaign, window: Option<usize>, sched: &mut dyn Scheduler) -> Observed {
    let bc = BcModule::compile(c.module());
    match c.run_with_bytecode(&bc, window, sched) {
        Ok((diffs, log, steps)) => (diffs, log, None, steps),
        Err(e) => (Vec::new(), Vec::new(), Some(e), 0),
    }
}

/// The shrinker's greedy canonicalization, recompiling before every run.
fn reference_shrink(c: &Campaign, index: usize) -> Option<ShrunkSchedule> {
    let spec = &c.specs()[index];
    let diverges = |decisions: &[Option<usize>]| {
        let (diffs, log, error, _) =
            fresh_run(c, spec.window, &mut Replay::new(decisions.to_vec()));
        (error.is_none() && !diffs.is_empty()).then_some(log)
    };
    let mut base = spec.instantiate();
    let mut recording = Recording::new(base.as_mut());
    let (diffs, _, error, _) = fresh_run(c, spec.window, &mut recording);
    if error.is_some() || diffs.is_empty() {
        return None;
    }
    let mut decisions: Vec<Option<usize>> = recording.trace.into_iter().map(Some).collect();
    let mut log = diverges(&decisions)?;
    loop {
        let mut changed = false;
        for i in 0..decisions.len() {
            let Some(saved) = decisions[i].take() else {
                continue;
            };
            match diverges(&decisions) {
                Some(new_log) => {
                    log = new_log;
                    changed = true;
                }
                None => decisions[i] = Some(saved),
            }
        }
        if !changed {
            break;
        }
    }
    Some(ShrunkSchedule {
        from: spec.name(),
        total: decisions.len(),
        pinned: decisions.iter().flatten().count(),
        interleaving: commset_checker::render_interleaving(&log),
        log,
    })
}

#[test]
fn shared_bytecode_matches_fresh_compiles_on_every_fixture() {
    let mut entries: Vec<(PathBuf, bool)> = Vec::new();
    entries.extend(
        cmm_files("crates/checker/fixtures")
            .into_iter()
            .map(|p| (p, false)),
    );
    entries.extend(cmm_files("fixtures/corpus").into_iter().map(|p| (p, true)));
    let (mut campaigns, mut shrunk) = (0, 0);
    for (path, corpus) in &entries {
        let name = path.file_stem().unwrap().to_string_lossy();
        let Some(c) = campaign(path, *corpus) else {
            continue;
        };
        campaigns += 1;
        let outcomes = pool::run_specs(&c);
        assert_eq!(outcomes.len(), c.specs().len(), "{name}");
        for o in &outcomes {
            let spec = &c.specs()[o.index];
            let fresh = fresh_run(&c, spec.window, spec.instantiate().as_mut());
            assert_eq!(observed(o), fresh, "{name}: spec {} ({})", o.index, o.name);
        }
        // The merged report shrinks the first violation when it completed.
        if let Some(first) = outcomes.iter().find(|o| o.violates()) {
            if first.error.is_none() {
                let got = shrink_schedule(&c, first.index);
                assert!(got.is_some(), "{name}: violation reproduces");
                assert_eq!(got, reference_shrink(&c, first.index), "{name}: shrunk");
                shrunk += 1;
            }
        }
    }
    assert!(campaigns >= 8, "only {campaigns} campaigns ran");
    assert!(shrunk >= 3, "only {shrunk} violations were shrunk");
}
