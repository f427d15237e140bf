//! The perf regression differ behind `perf --diff`.
//!
//! Compares two `BENCH_PARALLEL.json` reports cell-by-cell; cells are
//! matched on `(workload, scheme, threads)`. Every gated column is a
//! deterministic simulated clock (`sim_time`, `sim_time_deltas`), so any
//! drift is a real behavior change and the band is tight: 5% relative
//! plus a small absolute floor against integer jitter on tiny cells.
//!
//! `perf` always runs the full matrix, so lost coverage is a regression
//! too: a baseline cell missing from the candidate, or a simulated column
//! that went from a number to `null`, means a schedule stopped applying.
//! Cells and columns only the candidate has pass.

use commset_interp::bundle::Json;
use std::fmt::Write as _;

/// Relative band for the simulated columns (0.05 = 5%). With
/// [`SIM_ABS`] this is the CI gate's contract: an injected >=20%
/// simulated slowdown must trip, a self-diff must be silent.
pub const SIM_REL: f64 = 0.05;
/// Absolute tick floor under which simulated drift is ignored.
pub const SIM_ABS: u64 = 50;

/// The gated columns: deterministic simulated ticks.
const SIM_COLUMNS: [&str; 2] = ["sim_time", "sim_time_deltas"];

/// One compared column of one baseline cell.
#[derive(Debug, Clone)]
pub struct ColumnDiff {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Thread count.
    pub threads: u64,
    /// Column name, e.g. `sim_time`.
    pub column: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value; `None` when the candidate lost the cell or the
    /// column went to `null`.
    pub new: Option<u64>,
    /// True when the column exceeded the band or was lost.
    pub regressed: bool,
}

impl ColumnDiff {
    /// `new / old` (1.0 when the baseline is 0); `None` for a lost column.
    pub fn ratio(&self) -> Option<f64> {
        let n = self.new?;
        Some(if self.old == 0 {
            1.0
        } else {
            n as f64 / self.old as f64
        })
    }
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Cells matched on `(workload, scheme, threads)`.
    pub matched: usize,
    /// Cells only in the baseline (their columns count as regressions).
    pub only_old: usize,
    /// Cells only in the candidate.
    pub only_new: usize,
    /// Every compared column, in baseline order.
    pub columns: Vec<ColumnDiff>,
}

impl DiffReport {
    /// The columns that exceeded tolerance or were lost.
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
                "{:<10} {:<26} {:>3}  {:<16} {:>12} {:>12} {:>7}",
                "workload", "scheme", "thr", "column", "old", "new", "ratio"
            );
            for c in &regs {
                let (new, ratio) = match (c.new, c.ratio()) {
                    (Some(n), Some(r)) => (n.to_string(), format!("{r:.2}x")),
                    _ => ("lost".to_string(), "-".to_string()),
                };
                let _ = writeln!(
                    s,
                    "{:<10} {:<26} {:>3}  {:<16} {:>12} {:>12} {:>7}  REGRESSED",
                    c.workload, c.scheme, c.threads, c.column, c.old, new, ratio
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

fn column_value(r: &Json, column: &str) -> Option<u64> {
    r.get(column)?.as_u64()
}

/// Diffs candidate `new` against baseline `old` (both the JSON of a
/// `perf` report).
///
/// # Errors
///
/// Returns a message when either report lacks the `results` array — a
/// wrong or truncated file, not a perf report.
pub fn diff_reports(old: &Json, new: &Json) -> Result<DiffReport, String> {
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
        let new_cell = match found {
            Some((idx, cell)) => {
                matched_new[idx] = true;
                report.matched += 1;
                Some(cell)
            }
            None => {
                report.only_old += 1;
                None
            }
        };
        for column in SIM_COLUMNS {
            let Some(o) = column_value(old_cell, column) else {
                continue; // baseline has no number here: nothing to lose
            };
            let n = new_cell.and_then(|c| column_value(c, column));
            let regressed = match n {
                Some(n) => n.saturating_sub(o) > SIM_ABS.max((o as f64 * SIM_REL) as u64),
                None => true,
            };
            report.columns.push(ColumnDiff {
                workload: key.0.clone(),
                scheme: key.1.clone(),
                threads: key.2,
                column: column.to_string(),
                old: o,
                new: n,
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
    fn sample(sim_md5: u64) -> String {
        format!(
            r#"{{
  "generated_by": "commset-bench perf",
  "threads": [2],
  "results": [
    {{"workload": "md5sum", "scheme": "Comm-DOALL (Lib)", "threads": 2, "sim_time": {sim_md5}, "sim_speedup": null, "sim_time_deltas": null, "sim_deltas_over_base": null, "tm_commits": 0, "tm_aborts": 0, "tm_fallbacks": 0, "queue_pushes": 0, "queue_stalls": 0, "delta": null}},
    {{"workload": "grep", "scheme": "Comm-PS-DSWP", "threads": 2, "sim_time": 70000, "sim_speedup": null, "sim_time_deltas": null, "sim_deltas_over_base": null, "tm_commits": 0, "tm_aborts": 0, "tm_fallbacks": 0, "queue_pushes": 40, "queue_stalls": 3, "delta": null}}
  ]
}}"#
        )
    }

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("sample parses")
    }

    fn committed_baseline() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PARALLEL.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        Json::parse(&text).expect("committed baseline parses")
    }

    /// Multiplies every simulated column in `v` by `factor`.
    fn scale_sim(v: &Json, factor: f64) -> Json {
        match v {
            Json::Arr(items) => Json::Arr(items.iter().map(|i| scale_sim(i, factor)).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| match v.as_u64() {
                        Some(n) if SIM_COLUMNS.contains(&k.as_str()) => {
                            let scaled = (n as f64 * factor).round() as u64;
                            (k.clone(), Json::Num(scaled.to_string()))
                        }
                        _ => (k.clone(), scale_sim(v, factor)),
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let a = parse(&sample(450_000));
        let d = diff_reports(&a, &a).unwrap();
        assert_eq!(d.matched, 2);
        assert!(d.regressions().is_empty(), "{}", d.render_text());
        assert_eq!(d.only_old + d.only_new, 0);
        assert!(d.render_text().contains("no regressions"));
    }

    #[test]
    fn injected_twenty_percent_sim_slowdown_is_flagged() {
        let old = parse(&sample(450_000));
        let new = parse(&sample(540_000)); // +20% sim ticks
        let d = diff_reports(&old, &new).unwrap();
        let regs = d.regressions();
        assert_eq!(regs.len(), 1, "{}", d.render_text());
        assert_eq!(regs[0].column, "sim_time");
        assert!((regs[0].ratio().unwrap() - 1.2).abs() < 1e-9);
        assert!(d.render_text().contains("REGRESSED"));
    }

    #[test]
    fn small_sim_drift_within_band_passes() {
        let old = parse(&sample(450_000));
        let new = parse(&sample(460_000)); // +2.2%
        let d = diff_reports(&old, &new).unwrap();
        assert!(d.regressions().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn lost_cells_fail_new_cells_pass() {
        let old = parse(&sample(450_000));
        // Candidate lost the grep cell: a schedule stopped applying.
        let new = parse(
            r#"{"results": [
              {"workload": "md5sum", "scheme": "Comm-DOALL (Lib)", "threads": 2,
               "sim_time": 450000}
            ]}"#,
        );
        let d = diff_reports(&old, &new).unwrap();
        assert_eq!(d.matched, 1);
        assert_eq!(d.only_old, 1);
        assert_eq!(d.only_new, 0);
        let regs = d.regressions();
        assert_eq!(regs.len(), 1, "{}", d.render_text());
        assert_eq!((regs[0].workload.as_str(), regs[0].new), ("grep", None));
        assert!(d.render_text().contains("lost"), "{}", d.render_text());
        // The reverse direction only gains coverage: it passes.
        let d = diff_reports(&new, &old).unwrap();
        assert_eq!((d.matched, d.only_old, d.only_new), (1, 0, 1));
        assert!(d.regressions().is_empty(), "{}", d.render_text());
        // A simulated column gone to null is lost coverage too.
        let nulled = parse(&sample(450_000).replace("\"sim_time\": 70000", "\"sim_time\": null"));
        let d = diff_reports(&old, &nulled).unwrap();
        assert_eq!(d.matched, 2);
        let regs = d.regressions();
        assert_eq!(regs.len(), 1, "{}", d.render_text());
        assert_eq!((regs[0].column.as_str(), regs[0].new), ("sim_time", None));
        assert!(diff_reports(&nulled, &old)
            .unwrap()
            .regressions()
            .is_empty());
    }

    #[test]
    fn non_reports_are_errors() {
        let junk = parse(r#"{"hello": 1}"#);
        let ok = parse(&sample(1));
        assert!(diff_reports(&junk, &ok).unwrap_err().contains("baseline"));
        assert!(diff_reports(&ok, &junk).unwrap_err().contains("candidate"));
    }

    #[test]
    fn committed_baseline_self_diffs_clean() {
        // The repo's committed BENCH_PARALLEL.json must parse as a perf
        // report and self-diff with zero regressions.
        let v = committed_baseline();
        let d = diff_reports(&v, &v).unwrap();
        assert!(d.matched > 0);
        assert_eq!(d.only_old + d.only_new, 0);
        assert!(d.regressions().is_empty(), "{}", d.render_text());
    }

    #[test]
    fn committed_baseline_trips_on_twenty_percent_slowdown() {
        // The real file, not just the sample: every simulated column
        // slowed by 20% beyond the absolute floor must be flagged.
        let old = committed_baseline();
        let new = scale_sim(&old, 1.2);
        let d = diff_reports(&old, &new).unwrap();
        assert!(d.matched > 0);
        let mut gated = 0;
        for c in &d.columns {
            if c.new.unwrap() - c.old > SIM_ABS {
                assert!(c.regressed, "{c:?}");
                gated += 1;
            }
        }
        assert!(gated >= d.matched, "{gated} gated columns");
        assert_eq!(d.regressions().len(), gated);
    }
}
