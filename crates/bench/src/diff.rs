//! The noise-aware perf regression differ behind `perf --diff`.
//!
//! Compares two `BENCH_PARALLEL.json` reports cell-by-cell — cells are
//! matched on `(workload, scheme, threads)`, so a quick-mode run (2
//! threads only) diffs cleanly against the committed full matrix. Two
//! tolerance regimes, because the report carries two kinds of numbers:
//!
//! * **simulator columns** (`sim_time`, `sim_time_deltas`) are
//!   deterministic logical ticks — any drift is a real behavior change,
//!   so the band is tight (5% relative + a small absolute floor against
//!   integer jitter on tiny cells);
//! * **wall-clock columns** (`*.wall_us`) are host- and load-dependent —
//!   a regression needs *both* a large factor (1.75x) and a large
//!   absolute delta (10ms), so laptop noise and CI-runner variance don't
//!   page anyone.
//!
//! A cell present in one report but not the other is counted and
//! narrated but is never a failure: quick mode legitimately covers a
//! subset of the committed matrix.

use commset_interp::bundle::Json;
use std::fmt::Write as _;

/// Tolerance knobs. The defaults are the CI gate's contract: an injected
/// >=20% simulator slowdown must trip, a self-diff must be silent.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative band for deterministic simulator columns (0.05 = 5%).
    pub sim_rel: f64,
    /// Absolute tick floor under which simulator drift is ignored.
    pub sim_abs: u64,
    /// Factor a wall-clock column must grow by to count as regressed.
    pub wall_factor: f64,
    /// Absolute microsecond floor a wall-clock column must also exceed.
    pub wall_abs_us: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            sim_rel: 0.05,
            sim_abs: 50,
            wall_factor: 1.75,
            wall_abs_us: 10_000,
        }
    }
}

/// One compared column of one matched cell.
#[derive(Debug, Clone)]
pub struct ColumnDiff {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Thread count.
    pub threads: u64,
    /// Column path, e.g. `sim_time` or `sharded.wall_us`.
    pub column: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
    /// `new / old` (1.0 when the baseline is 0).
    pub ratio: f64,
    /// True when the column exceeded its tolerance regime.
    pub regressed: bool,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Cells matched on `(workload, scheme, threads)`.
    pub matched: usize,
    /// Cells only in the baseline (e.g. full matrix vs quick run).
    pub only_old: usize,
    /// Cells only in the candidate.
    pub only_new: usize,
    /// Every compared column, in baseline order.
    pub columns: Vec<ColumnDiff>,
}

impl DiffReport {
    /// The columns that exceeded tolerance.
    pub fn regressions(&self) -> Vec<&ColumnDiff> {
        self.columns.iter().filter(|c| c.regressed).collect()
    }

    /// Renders the comparison: a row per regression (or a clean bill),
    /// then the match/coverage summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let regs = self.regressions();
        if regs.is_empty() {
            s.push_str("perf diff: no regressions\n");
        } else {
            let _ = writeln!(
                s,
                "{:<10} {:<26} {:>3}  {:<22} {:>12} {:>12} {:>7}",
                "workload", "scheme", "thr", "column", "old", "new", "ratio"
            );
            for c in &regs {
                let _ = writeln!(
                    s,
                    "{:<10} {:<26} {:>3}  {:<22} {:>12} {:>12} {:>6.2}x  REGRESSED",
                    c.workload, c.scheme, c.threads, c.column, c.old, c.new, c.ratio
                );
            }
        }
        let _ = writeln!(
            s,
            "compared {} cell(s), {} column(s); {} regression(s); \
             {} baseline-only, {} candidate-only cell(s)",
            self.matched,
            self.columns.len(),
            regs.len(),
            self.only_old,
            self.only_new
        );
        s
    }
}

fn cell_key(r: &Json) -> Option<(String, String, u64)> {
    Some((
        r.get("workload")?.as_str()?.to_string(),
        r.get("scheme")?.as_str()?.to_string(),
        r.get("threads")?.as_u64()?,
    ))
}

/// Walks a dotted column path (`sharded.wall_us`) down nested objects.
fn column_value(r: &Json, path: &str) -> Option<u64> {
    let mut v = r;
    for seg in path.split('.') {
        v = v.get(seg)?;
    }
    v.as_u64()
}

/// Simulator columns: deterministic ticks, tight band.
const SIM_COLUMNS: [&str; 2] = ["sim_time", "sim_time_deltas"];
/// Wall-clock columns: noisy, factor + absolute-floor band.
const WALL_COLUMNS: [&str; 3] = ["single_lock.wall_us", "sharded.wall_us", "deltas.wall_us"];

/// Diffs candidate `new` against baseline `old` (both the JSON of a
/// `perf` report) under `cfg`.
///
/// # Errors
///
/// Returns a message when either report lacks the `results` array — a
/// wrong or truncated file, not a perf report.
pub fn diff_reports(old: &Json, new: &Json, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let old_results = old
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("baseline has no results[] — not a perf report")?;
    let new_results = new
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("candidate has no results[] — not a perf report")?;
    let mut report = DiffReport::default();
    let mut matched_new = vec![false; new_results.len()];
    for old_cell in old_results {
        let Some(key) = cell_key(old_cell) else {
            continue;
        };
        let found = new_results
            .iter()
            .enumerate()
            .find(|(_, n)| cell_key(n).as_ref() == Some(&key));
        let Some((idx, new_cell)) = found else {
            report.only_old += 1;
            continue;
        };
        matched_new[idx] = true;
        report.matched += 1;
        for (path, sim) in SIM_COLUMNS
            .iter()
            .map(|p| (*p, true))
            .chain(WALL_COLUMNS.iter().map(|p| (*p, false)))
        {
            let (Some(o), Some(n)) = (column_value(old_cell, path), column_value(new_cell, path))
            else {
                continue; // column absent (null) on either side
            };
            let ratio = if o == 0 { 1.0 } else { n as f64 / o as f64 };
            let grew = n.saturating_sub(o);
            let regressed = if sim {
                grew > cfg.sim_abs.max((o as f64 * cfg.sim_rel) as u64)
            } else {
                n as f64 > o as f64 * cfg.wall_factor && grew > cfg.wall_abs_us
            };
            report.columns.push(ColumnDiff {
                workload: key.0.clone(),
                scheme: key.1.clone(),
                threads: key.2,
                column: path.to_string(),
                old: o,
                new: n,
                ratio,
                regressed,
            });
        }
    }
    report.only_new = matched_new.iter().filter(|m| !**m).count();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal two-cell perf report in the real serialization shape.
    fn sample(sim_md5: u64, wall_md5: u64) -> String {
        format!(
            r#"{{
  "generated_by": "commset-bench perf",
  "results": [
    {{
      "workload": "md5sum", "scheme": "Comm-DOALL (Lib)", "threads": 2,
      "single_lock": {{"wall_us": {wall_md5}, "queue_full_spins": 0}},
      "sharded": {{"wall_us": 1500}},
      "deltas": null,
      "sim_time": {sim_md5},
      "sim_time_deltas": null
    }},
    {{
      "workload": "grep", "scheme": "Comm-PS-DSWP", "threads": 2,
      "single_lock": {{"wall_us": 900}},
      "sharded": null,
      "deltas": null,
      "sim_time": 70000,
      "sim_time_deltas": null
    }}
  ]
}}"#
        )
    }

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("sample parses")
    }

    #[test]
    fn self_diff_is_clean() {
        let a = parse(&sample(450_000, 1400));
        let d = diff_reports(&a, &a, &DiffConfig::default()).unwrap();
        assert_eq!(d.matched, 2);
        assert!(d.regressions().is_empty(), "{}", d.render_text());
        assert_eq!(d.only_old + d.only_new, 0);
        assert!(d.render_text().contains("no regressions"));
    }

    #[test]
    fn injected_twenty_percent_sim_slowdown_is_flagged() {
        let old = parse(&sample(450_000, 1400));
        let new = parse(&sample(540_000, 1400)); // +20% sim ticks
        let d = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        let regs = d.regressions();
        assert_eq!(regs.len(), 1, "{}", d.render_text());
        assert_eq!(regs[0].column, "sim_time");
        assert!((regs[0].ratio - 1.2).abs() < 1e-9);
        assert!(d.render_text().contains("REGRESSED"));
    }

    #[test]
    fn small_sim_drift_within_band_passes() {
        let old = parse(&sample(450_000, 1400));
        let new = parse(&sample(460_000, 1400)); // +2.2%
        let d = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        assert!(d.regressions().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn wall_noise_needs_factor_and_absolute_floor() {
        // 3x growth but only ~3ms absolute: noise on a fast cell.
        let old = parse(&sample(450_000, 1400));
        let new = parse(&sample(450_000, 4400));
        let d = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        assert!(d.regressions().is_empty(), "{}", d.render_text());
        // 3x growth AND 2.8 seconds absolute: a real wall regression.
        let new = parse(&sample(450_000, 2_800_000));
        let d = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        let regs = d.regressions();
        assert_eq!(regs.len(), 1, "{}", d.render_text());
        assert_eq!(regs[0].column, "single_lock.wall_us");
    }

    #[test]
    fn unmatched_cells_are_counted_not_failed() {
        let old = parse(&sample(450_000, 1400));
        // Candidate covers only one of the two baseline cells.
        let new = parse(
            r#"{"results": [
              {"workload": "md5sum", "scheme": "Comm-DOALL (Lib)", "threads": 2,
               "single_lock": {"wall_us": 1400}, "sim_time": 450000}
            ]}"#,
        );
        let d = diff_reports(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(d.matched, 1);
        assert_eq!(d.only_old, 1);
        assert_eq!(d.only_new, 0);
        assert!(d.regressions().is_empty());
    }

    #[test]
    fn non_reports_are_errors() {
        let junk = parse(r#"{"hello": 1}"#);
        let ok = parse(&sample(1, 1));
        assert!(diff_reports(&junk, &ok, &DiffConfig::default())
            .unwrap_err()
            .contains("baseline"));
        assert!(diff_reports(&ok, &junk, &DiffConfig::default())
            .unwrap_err()
            .contains("candidate"));
    }

    #[test]
    fn committed_baseline_self_diffs_clean() {
        // The repo's committed BENCH_PARALLEL.json must parse as a perf
        // report and self-diff with zero regressions.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PARALLEL.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        let v = Json::parse(&text).expect("committed baseline parses");
        let d = diff_reports(&v, &v, &DiffConfig::default()).unwrap();
        assert!(d.matched > 0);
        assert!(d.regressions().is_empty(), "{}", d.render_text());
    }
}
