//! Order statistics, geometric means and seeded job orders.

use commset_runtime::rng::SplitMix64;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `p` is in `0..=100`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // Multiply before dividing so whole-number ranks stay exact.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `p`th percentile: the tail that a
/// percentile needs ten samples in before it means anything.
pub fn samples_beyond(sorted: &[f64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|x| *x <= v)
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count, so it moves continuously as the samples do).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; `None` for an empty input.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Geomean of `num[i] / den[i]` over the pairs where both are positive.
pub fn geomean_of_ratios(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let ratios: Vec<f64> = pairs
        .into_iter()
        .filter(|(n, d)| *n > 0.0 && *d > 0.0)
        .map(|(n, d)| n / d)
        .collect();
    geomean(&ratios).unwrap_or(0.0)
}

/// Jobs per second at a fixed round size: the jobs of one round divided by
/// the median wall time of a round.
pub fn round_throughput(jobs_per_round: usize, round_secs: &[f64]) -> f64 {
    jobs_per_round as f64 / median(round_secs)
}

/// Latency summary of one run's jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples taken.
    pub n: usize,
    /// The median job's median latency: the median, over the job matrix,
    /// of each job's own median. A round holds every job once, so the
    /// plain sample median would sit exactly on the boundary between two
    /// jobs and jump between them from run to run.
    pub p50: f64,
    /// 99th percentile over every sample.
    pub p99: f64,
    /// Samples above `p99`.
    pub beyond_p99: usize,
}

impl Latency {
    /// Summarizes samples grouped by job (`by_job[j]` = job `j`'s samples).
    ///
    /// # Panics
    ///
    /// Panics when there are no samples.
    pub fn of(by_job: &[Vec<f64>]) -> Latency {
        let medians: Vec<f64> = by_job
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        let mut all: Vec<f64> = by_job.concat();
        all.sort_by(f64::total_cmp);
        Latency {
            n: all.len(),
            p50: median(&medians),
            p99: percentile(&all, 99.0),
            beyond_p99: samples_beyond(&all, 99.0),
        }
    }
}

/// A seeded source of per-round job orders: every round is a fresh
/// Fisher-Yates shuffle of `0..n`, so one seed gives one job sequence.
pub struct JobOrder {
    rng: SplitMix64,
}

impl JobOrder {
    /// Creates the order source for `seed`.
    pub fn new(seed: u64) -> Self {
        JobOrder {
            rng: SplitMix64::new(seed),
        }
    }

    /// The next round's order of `n` jobs.
    pub fn next_round(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn latency_counts_its_samples_and_tail() {
        let xs: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let l = Latency::of(&[xs]);
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 999.5);
        assert_eq!(l.p99, 1979.0);
        assert_eq!(l.beyond_p99, 20, "p99 of 2000 samples leaves 20 above it");
        // Ties at the percentile are not "beyond" it.
        let flat = Latency::of(&[vec![1.0; 500]]);
        assert_eq!(flat.beyond_p99, 0);
    }

    #[test]
    fn job_p50_is_the_median_jobs_median() {
        // Two equally frequent jobs: the sample median would sit on the
        // boundary between them; the median job's median averages them.
        let fast: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) * 1e-3).collect();
        let slow: Vec<f64> = (0..100).map(|i| 3.0 + f64::from(i) * 1e-3).collect();
        let l = Latency::of(&[fast, slow, Vec::new()]);
        assert!((l.p50 - 2.0495).abs() < 1e-9, "{}", l.p50);
        assert_eq!(l.n, 200);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[0.5, 2.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn throughput_uses_the_median_round() {
        // 40 jobs per round; rounds of 0.1 s, 0.2 s and an outlier 5 s.
        let t = round_throughput(40, &[0.2, 5.0, 0.1]);
        assert!((t - 200.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn same_seed_same_job_sequence() {
        let mut a = JobOrder::new(7);
        let mut b = JobOrder::new(7);
        let ra: Vec<Vec<usize>> = (0..5).map(|_| a.next_round(30)).collect();
        let rb: Vec<Vec<usize>> = (0..5).map(|_| b.next_round(30)).collect();
        assert_eq!(ra, rb);
        for r in &ra {
            let mut s = r.clone();
            s.sort_unstable();
            assert_eq!(s, (0..30).collect::<Vec<_>>(), "a round is a permutation");
        }
        assert_ne!(ra[0], ra[1], "rounds are reshuffled");
        let mut c = JobOrder::new(8);
        assert_ne!(c.next_round(30), ra[0], "another seed, another order");
    }
}
