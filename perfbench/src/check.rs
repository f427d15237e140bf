//! The `check` workload: the commutativity checker on the checker's own
//! fixtures and on the regression corpus, one schedule-exploration thread
//! (`jobs = 1`). Every verdict is compared with the fixture's known answer
//! (`crates/checker/tests/fixtures.rs`, `tests/corpus.rs`).
//!
//! The untraced run calls `check_source`; the traced run makes the same
//! three calls it makes — `prepare_campaign`, `pool::run_specs` and
//! `Campaign::merge` — one span each.

use crate::bench::{ratio, RunLog, Values, Workload};
use crate::trace::Tracer;
use commset::spec::{build_table, parse_effects};
use commset_checker::{
    check_source, pool, prepare_campaign, CheckConfig, PreparedCampaign, Verdict,
};
use commset_ir::IntrinsicTable;
use std::path::Path;

/// A fixture's known verdict, as its test asserts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// `is_pass()`: the campaign ran and found nothing.
    Pass,
    /// `!is_fail()`: a pass or a skip.
    NotFail,
    /// `is_fail()`: flagged.
    Fail,
}

impl Expect {
    fn admits(self, v: &Verdict) -> bool {
        match self {
            Expect::Pass => matches!(v, Verdict::Pass { .. }),
            Expect::NotFail => !matches!(v, Verdict::Fail(_)),
            Expect::Fail => matches!(v, Verdict::Fail(_)),
        }
    }
}

/// Checker fixtures and their known verdicts.
const CHECKER_FIXTURES: &[(&str, Expect)] = &[
    ("md5sum_ok", Expect::Pass),
    ("md5sum_det", Expect::NotFail),
    ("accumulate_ok", Expect::Pass),
    ("eclat_pred", Expect::NotFail),
    ("delta_hist", Expect::NotFail),
    ("md5sum_selfprint", Expect::Fail),
    ("eclat_overwide", Expect::Fail),
];

/// Regression-corpus entries: every one is unsound and must stay flagged,
/// at the full-family budget `commsetc check` replays the corpus with.
const CORPUS: &[&str] = &["delta_ordermix", "ordered_emit", "sb_litmus"];

struct Fixture {
    name: &'static str,
    source: String,
    table: IntrinsicTable,
    cfg: CheckConfig,
    expect: Expect,
}

/// The check workload.
pub struct CheckBench {
    fixtures: Vec<Fixture>,
}

fn load(
    dir: &Path,
    name: &'static str,
    expect: Expect,
    corpus: bool,
    t: &mut Tracer,
) -> Result<Fixture, String> {
    let path = dir.join(format!("{name}.cmm"));
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fx = path.with_extension("effects");
    let effects = if fx.is_file() {
        std::fs::read_to_string(&fx).map_err(|e| format!("{}: {e}", fx.display()))?
    } else {
        String::new()
    };
    let spec = parse_effects(&effects).map_err(|e| format!("{}: {e}", fx.display()))?;
    t.span("lang.compile_unit", |_| commset_lang::compile_unit(&source))
        .map_err(|d| format!("{}: {d}", path.display()))?;
    let table = build_table(&source, &spec).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut cfg = spec.checker_config();
    cfg.jobs = 1;
    if corpus {
        cfg.budget = cfg.full_family_budget();
    }
    Ok(Fixture {
        name,
        source,
        table,
        cfg,
        expect,
    })
}

impl CheckBench {
    /// Reads and parses every fixture under `root`.
    ///
    /// # Errors
    ///
    /// A missing or unparsable fixture.
    pub fn new(root: &Path, t: &mut Tracer) -> Result<Self, String> {
        let checker_dir = root.join("crates/checker/fixtures");
        let corpus_dir = root.join("fixtures/corpus");
        let mut fixtures = Vec::new();
        for &(name, expect) in CHECKER_FIXTURES {
            fixtures.push(load(&checker_dir, name, expect, false, t)?);
        }
        for &name in CORPUS {
            fixtures.push(load(&corpus_dir, name, Expect::Fail, true, t)?);
        }
        Ok(CheckBench { fixtures })
    }
}

impl Workload for CheckBench {
    fn job_count(&self) -> usize {
        self.fixtures.len()
    }

    fn run_job(&mut self, job: usize, t: &mut Tracer) -> Result<(), String> {
        let f = &self.fixtures[job];
        let diag = |d: commset_lang::Diagnostic| format!("{}: {d}", f.name);
        let verdict = if t.is_on() {
            let prepared = t
                .span("checker.prepare", |_| {
                    prepare_campaign(&f.source, &f.table, &f.cfg)
                })
                .map_err(diag)?;
            match prepared {
                PreparedCampaign::Skipped { reason, .. } => Verdict::Skipped { reason },
                PreparedCampaign::Ready(c) => {
                    let outcomes = t.span("checker.explore", |_| pool::run_specs(&c));
                    t.count("checker.schedules", outcomes.len() as u64);
                    t.count("checker.steps", outcomes.iter().map(|o| o.steps).sum());
                    t.span("checker.merge", |_| c.merge(&outcomes)).verdict
                }
            }
        } else {
            check_source(&f.source, &f.table, &f.cfg)
                .map_err(diag)?
                .verdict
        };
        if !f.expect.admits(&verdict) {
            let got = match verdict {
                Verdict::Pass { .. } => "pass".to_string(),
                Verdict::Skipped { reason } => format!("skipped ({reason})"),
                Verdict::Fail(_) => "fail".to_string(),
            };
            return Err(format!("{}: expected {:?}, got {got}", f.name, f.expect));
        }
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        t: &mut Tracer,
        _traced: &RunLog,
        _problems: &mut Vec<String>,
    ) -> Values {
        let explore_ns = crate::trace::Layers::of(t.spans()).job_self_ns("checker.explore");
        Values::from([(
            "checker.ns_per_step",
            ratio(explore_ns as f64, t.counter("checker.steps") as f64),
        )])
    }
}
