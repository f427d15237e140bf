//! Runtime waits-for-graph watchdog.
//!
//! The sync engine's deadlock-freedom argument (paper §4.6) is static:
//! rank-ordered lock insertion plus an acyclic queue topology admit no
//! waits-for cycle. This module *checks that claim at runtime*. Workers
//! report `acquiring` / `acquired` / `released` transitions; the watchdog
//! maintains the waits-for graph (worker → worker through the resource's
//! current holder), runs cycle detection on every blocking edge, and
//! independently validates rank monotonicity — a worker must only acquire
//! locks of strictly increasing rank (lock ids *are* ranks; see
//! `commset-transform`'s `SyncEngine`).
//!
//! Violations never panic: they accumulate in the [`WatchdogReport`] that
//! executors surface, and the torture suite asserts the report is clean
//! under every adversarial schedule.

use crate::sync::Mutex;
use std::collections::BTreeMap;

/// Cumulative findings of one watchdog (snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Cycle checks performed.
    pub checks: u64,
    /// Waits-for cycles found (each recorded once).
    pub cycles: Vec<Vec<usize>>,
    /// Rank-order violations, as human-readable descriptions.
    pub rank_violations: Vec<String>,
    /// Peak number of simultaneously blocked workers observed.
    pub max_blocked: usize,
}

impl WatchdogReport {
    /// True when no deadlock-freedom invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty() && self.rank_violations.is_empty()
    }

    /// Folds another section's findings into this run-wide report: checks
    /// add up, cycles and rank violations are kept once each, and
    /// `max_blocked` keeps the larger peak.
    pub fn absorb(&mut self, other: WatchdogReport) {
        self.checks += other.checks;
        for c in other.cycles {
            if !self.cycles.contains(&c) {
                self.cycles.push(c);
            }
        }
        for v in other.rank_violations {
            if !self.rank_violations.contains(&v) {
                self.rank_violations.push(v);
            }
        }
        self.max_blocked = self.max_blocked.max(other.max_blocked);
    }
}

#[derive(Debug, Default)]
struct State {
    /// lock id → worker currently holding it.
    holder: BTreeMap<usize, usize>,
    /// worker → lock id it is blocked acquiring.
    waiting: BTreeMap<usize, usize>,
    /// worker → ranks currently held (insertion order).
    held_ranks: BTreeMap<usize, Vec<usize>>,
    report: WatchdogReport,
}

/// Thread-safe waits-for-graph watchdog shared by a section's workers.
#[derive(Debug, Default)]
pub struct Watchdog {
    state: Mutex<State>,
}

impl Watchdog {
    /// Creates an empty watchdog.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// Worker `w` is about to block acquiring lock `l`. Runs a cycle check
    /// and validates rank order against `w`'s held locks.
    pub fn acquiring(&self, w: usize, l: usize) {
        let mut st = self.state.lock();
        // Rank monotonicity: every already-held rank must be < l.
        if let Some(held) = st.held_ranks.get(&w) {
            if let Some(&max_held) = held.iter().max() {
                if l <= max_held {
                    let msg = format!(
                        "worker {w} acquiring lock {l} while holding rank {max_held} \
                         (ranks must strictly increase)"
                    );
                    if !st.report.rank_violations.contains(&msg) {
                        st.report.rank_violations.push(msg);
                    }
                }
            }
        }
        st.waiting.insert(w, l);
        let blocked = st.waiting.len();
        if blocked > st.report.max_blocked {
            st.report.max_blocked = blocked;
        }
        self.check_locked(&mut st);
    }

    /// Worker `w` now holds lock `l`.
    pub fn acquired(&self, w: usize, l: usize) {
        let mut st = self.state.lock();
        st.waiting.remove(&w);
        st.holder.insert(l, w);
        st.held_ranks.entry(w).or_default().push(l);
    }

    /// Worker `w` released lock `l`.
    pub fn released(&self, w: usize, l: usize) {
        let mut st = self.state.lock();
        if st.holder.get(&l) == Some(&w) {
            st.holder.remove(&l);
        }
        if let Some(held) = st.held_ranks.get_mut(&w) {
            if let Some(pos) = held.iter().rposition(|&r| r == l) {
                held.remove(pos);
            }
        }
    }

    /// Worker `w` stopped waiting without acquiring (cancellation).
    pub fn wait_abandoned(&self, w: usize) {
        self.state.lock().waiting.remove(&w);
    }

    /// Explicit cycle check; returns the first cycle found this call.
    pub fn check(&self) -> Option<Vec<usize>> {
        let mut st = self.state.lock();
        self.check_locked(&mut st)
    }

    /// Snapshot of the report.
    pub fn report(&self) -> WatchdogReport {
        self.state.lock().report.clone()
    }

    /// Walks worker → (lock it waits for) → (that lock's holder) chains
    /// looking for a cycle. Records any cycle found in the report.
    fn check_locked(&self, st: &mut State) -> Option<Vec<usize>> {
        st.report.checks += 1;
        let waiting: Vec<usize> = st.waiting.keys().copied().collect();
        for &start in &waiting {
            let mut path = vec![start];
            let mut cur = start;
            while let Some(&lock) = st.waiting.get(&cur) {
                let Some(&next) = st.holder.get(&lock) else {
                    break;
                };
                if let Some(pos) = path.iter().position(|&p| p == next) {
                    let mut cycle = path[pos..].to_vec();
                    // Canonicalize: rotate so the smallest worker leads.
                    if let Some(min_pos) = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &w)| w)
                        .map(|(i, _)| i)
                    {
                        cycle.rotate_left(min_pos);
                    }
                    if !st.report.cycles.contains(&cycle) {
                        st.report.cycles.push(cycle.clone());
                    }
                    return Some(cycle);
                }
                path.push(next);
                cur = next;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_rank_ordered_schedule_reports_no_findings() {
        let wd = Watchdog::new();
        // Two workers, locks acquired in rank order 0 then 1.
        for w in 0..2 {
            wd.acquiring(w, 0);
            wd.acquired(w, 0);
            wd.acquiring(w, 1);
            wd.acquired(w, 1);
            wd.released(w, 1);
            wd.released(w, 0);
        }
        let r = wd.report();
        assert!(r.is_clean(), "{r:?}");
        assert!(r.checks >= 4);
    }

    #[test]
    fn rank_inversion_is_flagged() {
        let wd = Watchdog::new();
        wd.acquiring(0, 1);
        wd.acquired(0, 1);
        wd.acquiring(0, 0); // inversion: 0 ≤ held rank 1
        let r = wd.report();
        assert_eq!(r.rank_violations.len(), 1, "{r:?}");
        assert!(r.rank_violations[0].contains("worker 0"));
    }

    #[test]
    fn two_worker_cycle_is_detected() {
        let wd = Watchdog::new();
        // w0 holds l0, w1 holds l1; each wants the other's lock.
        wd.acquiring(0, 0);
        wd.acquired(0, 0);
        wd.acquiring(1, 1);
        wd.acquired(1, 1);
        wd.acquiring(0, 1);
        let cycle = wd.acquiring_returns_cycle(1, 0);
        assert_eq!(cycle, Some(vec![0, 1]));
        assert!(!wd.report().is_clean());
    }

    #[test]
    fn absorb_sums_checks_dedups_findings_and_keeps_peak() {
        let mut run = WatchdogReport {
            checks: 3,
            cycles: vec![vec![0, 1]],
            rank_violations: vec!["a".into()],
            max_blocked: 4,
        };
        run.absorb(WatchdogReport {
            checks: 5,
            cycles: vec![vec![0, 1], vec![1, 2]],
            rank_violations: vec!["a".into(), "b".into()],
            max_blocked: 2,
        });
        assert_eq!(run.checks, 8);
        assert_eq!(run.cycles, vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(run.rank_violations, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(run.max_blocked, 4);
        run.absorb(WatchdogReport {
            max_blocked: 7,
            ..WatchdogReport::default()
        });
        assert_eq!((run.checks, run.max_blocked), (8, 7));
    }

    impl Watchdog {
        fn acquiring_returns_cycle(&self, w: usize, l: usize) -> Option<Vec<usize>> {
            self.acquiring(w, l);
            self.check()
        }
    }

    #[test]
    fn abandoned_waits_clear_edges() {
        let wd = Watchdog::new();
        wd.acquiring(0, 0);
        wd.acquired(0, 0);
        wd.acquiring(1, 0);
        wd.wait_abandoned(1);
        assert_eq!(wd.check(), None);
    }

    #[test]
    fn released_lock_breaks_chain() {
        let wd = Watchdog::new();
        wd.acquiring(0, 0);
        wd.acquired(0, 0);
        wd.acquiring(1, 0); // w1 waits on w0
        assert_eq!(wd.check(), None);
        wd.released(0, 0);
        wd.acquired(1, 0);
        assert_eq!(wd.check(), None);
        assert!(wd.report().is_clean());
    }
}
