//! Runtime waits-for-graph watchdog.
//!
//! The sync engine's deadlock-freedom argument (paper §4.6) is static:
//! rank-ordered lock insertion plus an acyclic queue topology admit no
//! waits-for cycle. This module *checks that claim at runtime*. Workers
//! report `acquiring` / `acquired` / `released` transitions; the watchdog
//! maintains the waits-for graph (worker → worker through the resource's
//! current holder) and independently validates rank monotonicity — a
//! worker must only acquire locks of strictly increasing rank (lock ids
//! *are* ranks; see `commset-transform`'s `SyncEngine`).
//!
//! Executors report `acquiring` on every acquisition *attempt*, before
//! they know whether the lock is free, so the waits-for edge it adds is
//! in-flight until `acquired` (or `wait_abandoned`) clears it, and
//! [`WatchdogReport::max_blocked`] counts in-flight acquisitions, not
//! only workers that actually blocked. Each attempt runs one cycle check,
//! and that check is incremental: the graph is functional (a worker waits
//! on at most one lock, a lock has at most one holder) and only
//! `acquiring` adds an edge out of a worker — `acquired` also redirects a
//! lock's waiters, but to a worker that just stopped waiting and so has
//! no edge out — so every new cycle runs through the worker that is
//! acquiring. The check therefore follows the single chain out of that
//! worker, for at most as many hops as there are waiting workers, and
//! allocates only when the chain closes back on it. [`Watchdog::check`]
//! keeps the full walk over every waiter, for diagnosis.
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
    /// worker → lock id it is attempting to acquire.
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

    /// Worker `w` is attempting to acquire lock `l` — called on every
    /// attempt, whether or not the lock turns out to be free. Validates
    /// rank order against `w`'s held locks and runs one cycle check on
    /// the waits-for chain out of `w` (the only place a new cycle can
    /// appear).
    pub fn acquiring(&self, w: usize, l: usize) {
        let mut st = self.state.lock();
        st.enter_wait(w, l);
        st.record_cycle_through(w);
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

    /// Explicit cycle check over the whole waits-for graph; returns the
    /// first cycle found this call.
    pub fn check(&self) -> Option<Vec<usize>> {
        let mut st = self.state.lock();
        st.report.checks += 1;
        st.full_walk()
    }

    /// Snapshot of the report.
    pub fn report(&self) -> WatchdogReport {
        self.state.lock().report.clone()
    }
}

impl State {
    /// Worker `w` starts an attempt on lock `l`: counts the check, flags
    /// a rank inversion against `w`'s held locks, adds the waits-for
    /// edge and tracks the peak of in-flight acquisitions.
    fn enter_wait(&mut self, w: usize, l: usize) {
        self.report.checks += 1;
        // Rank monotonicity: every already-held rank must be < l.
        if let Some(held) = self.held_ranks.get(&w) {
            if let Some(&max_held) = held.iter().max() {
                if l <= max_held {
                    let msg = format!(
                        "worker {w} acquiring lock {l} while holding rank {max_held} \
                         (ranks must strictly increase)"
                    );
                    if !self.report.rank_violations.contains(&msg) {
                        self.report.rank_violations.push(msg);
                    }
                }
            }
        }
        self.waiting.insert(w, l);
        let blocked = self.waiting.len();
        if blocked > self.report.max_blocked {
            self.report.max_blocked = blocked;
        }
    }

    /// The worker `cur` waits on, through the holder of its lock.
    fn waits_on(&self, cur: usize) -> Option<usize> {
        let lock = self.waiting.get(&cur)?;
        self.holder.get(lock).copied()
    }

    /// Follows the chain out of `w` and records the cycle if it closes
    /// back on `w`. Every worker on a cycle is waiting, so a chain that
    /// has not returned to `w` within `waiting.len()` hops either ended or
    /// entered a cycle `w` is not on — one that an earlier `acquiring`
    /// already recorded.
    fn record_cycle_through(&mut self, w: usize) {
        let mut cur = w;
        for _ in 0..self.waiting.len() {
            match self.waits_on(cur) {
                None => return,
                Some(next) if next == w => {
                    let mut cycle = vec![w];
                    let mut m = self.waits_on(w).expect("w is on a cycle");
                    while m != w {
                        cycle.push(m);
                        m = self.waits_on(m).expect("every cycle member waits");
                    }
                    self.record(cycle);
                    return;
                }
                Some(next) => cur = next,
            }
        }
    }

    /// Walks worker → (lock it waits for) → (that lock's holder) chains
    /// from every waiter looking for a cycle. Records the first cycle
    /// found in the report and returns it.
    fn full_walk(&mut self) -> Option<Vec<usize>> {
        let waiting: Vec<usize> = self.waiting.keys().copied().collect();
        for &start in &waiting {
            let mut path = vec![start];
            let mut cur = start;
            while let Some(next) = self.waits_on(cur) {
                if let Some(pos) = path.iter().position(|&p| p == next) {
                    let cycle = path[pos..].to_vec();
                    return Some(self.record(cycle));
                }
                path.push(next);
                cur = next;
            }
        }
        None
    }

    /// Canonicalizes `cycle` (rotated so the smallest worker leads),
    /// records it once and returns it.
    fn record(&mut self, mut cycle: Vec<usize>) -> Vec<usize> {
        if let Some(min_pos) = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, &w)| w)
            .map(|(i, _)| i)
        {
            cycle.rotate_left(min_pos);
        }
        if !self.report.cycles.contains(&cycle) {
            self.report.cycles.push(cycle.clone());
        }
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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

        /// The reference `acquiring`: the same bookkeeping, then the full
        /// walk over every waiter instead of the chain out of `w`.
        fn acquiring_by_full_walk(&self, w: usize, l: usize) {
            let mut st = self.state.lock();
            st.enter_wait(w, l);
            st.full_walk();
        }
    }

    #[test]
    fn two_disjoint_cycles_are_both_recorded() {
        let wd = Watchdog::new();
        for (w, l) in [(0, 0), (1, 1), (2, 2), (3, 3)] {
            wd.acquiring(w, l);
            wd.acquired(w, l);
        }
        wd.acquiring(0, 1);
        wd.acquiring(1, 0);
        wd.acquiring(2, 3);
        wd.acquiring(3, 2);
        assert_eq!(wd.report().cycles, vec![vec![0, 1], vec![2, 3]]);
    }

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Acquiring(usize, usize),
        Acquired(usize, usize),
        Released(usize, usize),
        Abandoned(usize),
    }

    /// A seeded random legal event sequence: a worker attempts a lock it
    /// does not hold (and may retry while it waits), acquires it only once
    /// it is free, releases what it holds, or abandons its wait.
    fn legal_events(rng: &mut SplitMix64, workers: usize, locks: usize, len: usize) -> Vec<Event> {
        let mut waiting: Vec<Option<usize>> = vec![None; workers];
        let mut holder: Vec<Option<usize>> = vec![None; locks];
        let mut events = Vec::with_capacity(len);
        while events.len() < len {
            let w = rng.next_below(workers as u64) as usize;
            let held: Vec<usize> = (0..locks).filter(|&l| holder[l] == Some(w)).collect();
            let event = match waiting[w] {
                Some(l) if holder[l].is_none() && rng.next_below(3) != 0 => {
                    waiting[w] = None;
                    holder[l] = Some(w);
                    Event::Acquired(w, l)
                }
                Some(l) if rng.next_below(3) == 0 => Event::Acquiring(w, l),
                Some(_) if rng.next_below(8) == 0 => {
                    waiting[w] = None;
                    Event::Abandoned(w)
                }
                Some(_) => continue,
                None if !held.is_empty() && rng.next_below(3) == 0 => {
                    let l = held[rng.next_below(held.len() as u64) as usize];
                    holder[l] = None;
                    Event::Released(w, l)
                }
                None => {
                    let l = rng.next_below(locks as u64) as usize;
                    if held.contains(&l) {
                        continue;
                    }
                    waiting[w] = Some(l);
                    Event::Acquiring(w, l)
                }
            };
            events.push(event);
        }
        events
    }

    /// The incremental check against the full-walk reference on seeded
    /// random legal sequences: identical counters and rank findings, and
    /// every cycle the reference records is recorded too.
    #[test]
    fn incremental_check_matches_the_full_walk() {
        let mut rng = SplitMix64::new(0xD1FF_C4EC);
        let (mut with_cycles, mut more_cycles) = (0, 0);
        for _ in 0..1200 {
            let workers = 1 + rng.next_below(8) as usize;
            let locks = 1 + rng.next_below(6) as usize;
            let events = legal_events(&mut rng, workers, locks, 120);
            let (inc, reference) = (Watchdog::new(), Watchdog::new());
            for &e in &events {
                match e {
                    Event::Acquiring(w, l) => {
                        inc.acquiring(w, l);
                        reference.acquiring_by_full_walk(w, l);
                    }
                    Event::Acquired(w, l) => {
                        inc.acquired(w, l);
                        reference.acquired(w, l);
                    }
                    Event::Released(w, l) => {
                        inc.released(w, l);
                        reference.released(w, l);
                    }
                    Event::Abandoned(w) => {
                        inc.wait_abandoned(w);
                        reference.wait_abandoned(w);
                    }
                }
            }
            let (got, want) = (inc.report(), reference.report());
            assert_eq!(got.checks, want.checks, "{events:?}");
            assert_eq!(got.max_blocked, want.max_blocked, "{events:?}");
            assert_eq!(got.rank_violations, want.rank_violations, "{events:?}");
            for c in &want.cycles {
                assert!(got.cycles.contains(c), "{c:?} missing: {events:?}");
            }
            with_cycles += usize::from(!want.cycles.is_empty());
            more_cycles += usize::from(got.cycles.len() > want.cycles.len());
        }
        // The sequences must actually exercise the cycle path, including
        // graphs where the reference's first-found walk misses a cycle.
        assert!(with_cycles > 100, "{with_cycles} sequences with cycles");
        assert!(
            more_cycles > 0,
            "no sequence with a cycle the reference missed"
        );
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
