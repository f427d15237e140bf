//! Host-speed calibration. A small shared host (2 vCPUs beside other
//! tenants) drifts in speed by tens of percent within seconds, which
//! swamps the changes the benchmark exists to catch. A fixed reference
//! kernel — benchmark code that no change to the repository can touch —
//! is timed before each set-up and every 25 ms between jobs, and times
//! are reported at nominal host speed: divided by the slowdown
//! `reference time / NOMINAL_REF_S` measured next to them. Raw values and
//! the run's mean slowdown are printed on stderr.
//!
//! Only outside load may be corrected away this way. A thread the program
//! leaves running after a job returns would slow the kernel too, and its
//! cost would be divided out; so before each sample the process's thread
//! count is checked, and a sample that finds a thread beyond the
//! benchmark's own is counted as stray (the run then fails).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference kernel's time at nominal host speed, in seconds: about
/// its time on the 2-vCPU host the benchmark was tuned on. It only sets
/// the scale of the reported times.
pub const NOMINAL_REF_S: f64 = 1.0e-3;

/// Least spacing between two reference samples while jobs run.
const SPACING: Duration = Duration::from_millis(25);

/// Iterations of the reference kernel.
const ITERS: u64 = 480_000;

/// How long a thread a job has already joined may still be counted by
/// the kernel while it finishes exiting.
const EXIT_GRACE: Duration = Duration::from_millis(20);

/// Threads alive in this process (`Threads:` in `/proc/self/status`);
/// `None` where that cannot be read.
pub fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Runs the reference kernel once on each of `threads` threads at the same
/// time and returns the slowest one's wall time in seconds: a job spread
/// over several cores waits for the slowest of them.
pub fn reference_s(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_s();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(kernel_s)).collect();
        runs.into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .fold(0.0, f64::max)
    })
}

/// The reference kernel: a SplitMix64 stream folded into a 64 KiB table —
/// integer arithmetic and L1/L2 traffic, the interpreter's and compiler's
/// kind of work. Self-contained, so no change to the repository's code can
/// move it. Returns its wall time in seconds.
fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x5eed_u64;
    let mut table = vec![0u64; 8192];
    for _ in 0..black_box(ITERS) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let v = z ^ (z >> 31);
        table[(v % 8192) as usize] ^= v;
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// Reference samples taken over one run.
#[derive(Debug)]
pub struct HostClock {
    /// Threads each sample runs the kernel on: as many as a job uses.
    threads: usize,
    samples: Vec<f64>,
    last: Instant,
    /// Threads alive when the clock was made: the benchmark's own.
    own_threads: Option<usize>,
    /// Samples that found a thread beyond the benchmark's own.
    strays: usize,
}

impl HostClock {
    /// No samples yet; each will run the kernel on `threads` threads. The
    /// threads alive now are taken to be the benchmark's own.
    pub fn new(threads: usize) -> Self {
        HostClock {
            threads,
            samples: Vec::new(),
            last: Instant::now(),
            own_threads: live_threads(),
            strays: 0,
        }
    }

    /// True if a thread beyond the benchmark's own is still alive after
    /// [`EXIT_GRACE`].
    fn stray_thread(&self) -> bool {
        let Some(own) = self.own_threads else {
            return false;
        };
        let t0 = Instant::now();
        while live_threads().is_some_and(|n| n > own) {
            if t0.elapsed() >= EXIT_GRACE {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// Takes a sample; returns the wall seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        if self.stray_thread() {
            self.strays += 1;
        }
        self.samples.push(reference_s(self.threads));
        self.last = Instant::now();
        t0.elapsed().as_secs_f64()
    }

    /// Takes a sample if [`SPACING`] has passed since the last one;
    /// returns the seconds spent (0 when skipped).
    pub fn maybe_sample(&mut self) -> f64 {
        if self.last.elapsed() >= SPACING {
            self.sample()
        } else {
            0.0
        }
    }

    /// Samples taken, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Samples that found a thread beyond the benchmark's own.
    pub fn strays(&self) -> usize {
        self.strays
    }

    /// Mean reference time with the fastest and slowest tenth dropped (a
    /// mean, not a median, so it moves smoothly when the run's time is
    /// split between a fast and a slow core).
    pub fn mean_s(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let cut = v.len() / 10;
        let kept = &v[cut..v.len() - cut];
        crate::stats::mean(kept)
    }

    /// Each sample's local slowdown relative to nominal: the median of the
    /// nine samples centred on it (fewer at the ends), so one preempted
    /// sample does not move it.
    pub fn local_slowdowns(&self) -> Vec<f64> {
        let n = self.samples.len();
        (0..n)
            .map(|k| {
                let window = &self.samples[k.saturating_sub(4)..(k + 5).min(n)];
                crate::stats::median(window) / NOMINAL_REF_S
            })
            .collect()
    }

    /// Host speed relative to nominal over the whole run: times are
    /// divided by this.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.mean_s() / NOMINAL_REF_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_trimmed_mean_over_nominal() {
        let mut c = HostClock::new(2);
        assert_eq!(c.slowdown(), 1.0, "no samples, no correction");
        c.samples = vec![2e-3; 8];
        c.samples.push(1.0); // one preempted sample
        c.samples.push(1e-9);
        assert!((c.slowdown() - 2.0).abs() < 1e-9, "{}", c.slowdown());
        assert!(c.sample() > 0.0);
        assert_eq!(c.len(), 11);
        assert_eq!(c.maybe_sample(), 0.0, "spacing not yet passed");
        c.samples = vec![1e-3, 1e-3, 9e-3, 1e-3, 3e-3, 3e-3, 3e-3, 3e-3, 3e-3, 3e-3];
        let local = c.local_slowdowns();
        assert_eq!(local.len(), 10);
        assert!(
            (local[0] - 1.0).abs() < 1e-9,
            "the spike is outvoted: {local:?}"
        );
        assert!((local[9] - 3.0).abs() < 1e-9, "{local:?}");
    }

    #[test]
    fn a_thread_left_running_is_a_stray() {
        let Some(own) = live_threads() else {
            return; // no /proc: the check is off
        };
        assert!(own >= 1);
        let mut c = HostClock::new(1);
        c.own_threads = Some(own);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let spinner = std::thread::spawn(move || {
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        c.sample();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        spinner.join().expect("the spinner does not panic");
        assert!(c.strays() >= 1, "a spinning thread went unseen");
    }
}
