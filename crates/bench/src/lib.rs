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
//! `perf` writes the simulated-clock report `BENCH_PARALLEL.json` and
//! gates it with [`diff`]. Host wall time (compiler phases, the figure
//! sweep, real threads) is measured by the separate `perfbench`
//! workspace.

pub mod diff;
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
