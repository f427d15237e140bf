//! # commset-bench
//!
//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation (§5) from this reproduction.
//!
//! | artifact | binary | paper content |
//! |----------|--------|---------------|
//! | Table 1  | `table1`  | feature matrix vs Jade/Galois/DPJ/Paralax/VELOCITY |
//! | Table 2  | `table2`  | per-program annotations, SLOC, transforms, best speedup |
//! | Figure 3 | `figure3` | md5sum schedule timelines (Seq / PS-DSWP / DOALL) |
//! | Figure 6 | `figure6` | speedup-vs-threads series per program + geomean |
//!
//! `perf` writes the simulated-clock report `BENCH_PARALLEL.json`; its
//! unit test pins the committed file byte for byte. Host wall time
//! (compiler phases, the figure sweep, real threads) is measured by the
//! separate `perfbench` workspace.

pub mod table1;

use commset_sim::CostModel;
use commset_workloads::Workload;

/// Threads evaluated by Figure 6 (the paper's x-axis, 2..=8 plus the
/// 1-thread baseline defined as 1.0).
pub const THREADS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// One Figure 6 panel: the speedups of every scheme series of a workload.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Program name.
    pub name: &'static str,
    /// (series label, speedups at [`THREADS`]; `None` = inapplicable).
    pub series: Vec<(String, Vec<Option<f64>>)>,
    /// Best COMMSET speedup at 8 threads.
    pub best8: f64,
    /// Best COMMSET scheme label at 8 threads.
    pub best8_label: String,
    /// Best non-COMMSET speedup at 8 threads.
    pub noncomm8: f64,
}

/// Runs one workload's full Figure 6 panel.
pub fn run_panel(w: &Workload, cm: &CostModel) -> Panel {
    let series = w
        .schemes
        .iter()
        .map(|spec| {
            let curve = THREADS
                .iter()
                .map(|&t| w.speedup(spec, t, cm))
                .collect::<Vec<_>>();
            (spec.label.clone(), curve)
        })
        .collect();
    let (best8, best8_label) = w
        .best_commset(8, cm)
        .unwrap_or((1.0, "Sequential".to_string()));
    let (noncomm8, _) = w.best_noncomm(8, cm);
    Panel {
        name: w.name,
        series,
        best8,
        best8_label,
        noncomm8,
    }
}

/// Formats one speedup cell.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:5.2}"),
        None => "  n/a".to_string(),
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let product: f64 = values.iter().product();
    product.powf(1.0 / values.len() as f64)
}

/// The simulated-clock gate: a fresh `perf` report against the committed
/// `BENCH_PARALLEL.json`, compared exactly (no tolerance band).
pub mod diff {
    /// The committed report, relative to this crate.
    pub const COMMITTED_REPORT: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PARALLEL.json");

    /// The first line at which `fresh` and `committed` differ, as
    /// `(1-based line number, fresh line, committed line)`, a side that
    /// ran out of lines being `None`; `None` when the texts are equal.
    pub fn first_difference<'a>(
        fresh: &'a str,
        committed: &'a str,
    ) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
        let fresh: Vec<&str> = fresh.split('\n').collect();
        let committed: Vec<&str> = committed.split('\n').collect();
        (0..fresh.len().max(committed.len()))
            .find(|&i| fresh.get(i) != committed.get(i))
            .map(|i| (i + 1, fresh.get(i).copied(), committed.get(i).copied()))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn committed_baseline() -> String {
            std::fs::read_to_string(COMMITTED_REPORT)
                .unwrap_or_else(|e| panic!("reading {COMMITTED_REPORT}: {e}"))
        }

        /// Multiplies every numeric `sim_time*` column in `text` by
        /// `factor`; `null` cells stay as they are.
        fn scale_sim(text: &str, factor: f64) -> String {
            let mut out = String::with_capacity(text.len());
            let mut rest = text;
            while let Some(at) = rest.find("\"sim_time") {
                let (head, tail) = rest.split_at(at);
                out.push_str(head);
                let value = tail.find(": ").expect("a column has a value") + 2;
                out.push_str(&tail[..value]);
                let digits = tail[value..].bytes().take_while(u8::is_ascii_digit).count();
                if digits > 0 {
                    let n: u64 = tail[value..value + digits].parse().unwrap();
                    out.push_str(&((n as f64 * factor).round() as u64).to_string());
                }
                rest = &tail[value + digits..];
            }
            out.push_str(rest);
            out
        }

        /// Indices of the report's result rows.
        fn rows(text: &str) -> Vec<usize> {
            text.split('\n')
                .enumerate()
                .filter(|(_, l)| l.contains("\"sim_time\": "))
                .map(|(i, _)| i)
                .collect()
        }

        #[test]
        fn committed_baseline_self_diffs_clean() {
            // The committed file is a perf report with result rows, and
            // the exact comparison finds nothing against itself.
            let c = committed_baseline();
            assert!(
                c.starts_with("{\n  \"generated_by\": \"commset-bench perf\","),
                "{COMMITTED_REPORT} is not a perf report"
            );
            assert!(!rows(&c).is_empty());
            assert_eq!(first_difference(&c, &c), None);
        }

        #[test]
        fn committed_baseline_trips_on_twenty_percent_slowdown() {
            // The real file: every simulated column slowed by 20% changes
            // every row, and the gate names the first one.
            let old = committed_baseline();
            let new = scale_sim(&old, 1.2);
            let rows = rows(&old);
            let (new_lines, old_lines): (Vec<&str>, Vec<&str>) =
                (new.split('\n').collect(), old.split('\n').collect());
            for &r in &rows {
                assert_ne!(new_lines[r], old_lines[r], "row {} unchanged", r + 1);
            }
            let (line, fresh, committed) =
                first_difference(&new, &old).expect("a slowdown is a difference");
            assert_eq!(line, rows[0] + 1);
            assert_eq!(fresh, Some(new_lines[rows[0]]));
            assert_eq!(committed, Some(old_lines[rows[0]]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(Some(7.6)), " 7.60");
        assert_eq!(cell(None), "  n/a");
    }
}
