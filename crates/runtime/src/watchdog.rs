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
//! The discrete-event simulator is single-threaded and owns a
//! [`WaitsFor`]: dense tables indexed by lock id and worker index, sized
//! from the section's workers and ranks and grown on demand, so an
//! attempt, a grant or a release is a few indexed loads and stores, with
//! no map lookups and, once each worker's held-rank stack has reached its
//! depth, no allocation.
//!
//! Real threads share a [`Watchdog`], which takes no shared lock on that
//! path. Each worker keeps its held ranks, its `checks` count and its rank
//! violations in its own cache-padded slot; the waits-for edges are
//! atomic `waiting` and `holder` tables, and `max_blocked` is the
//! `fetch_max` peak of one in-flight counter. Because workers that all
//! acquire in strictly increasing rank cannot form a waits-for cycle
//! (§4.6), the threaded watchdog runs the incremental chain walk only
//! once a rank violation has been recorded; its [`Watchdog::check`], the
//! deadline monitor's escalation, keeps the full walk. Replayed from one
//! thread, a [`Watchdog`] reports exactly what a [`WaitsFor`] does for
//! the same events: `checks`, `cycles`, `rank_violations` and
//! `max_blocked`.
//!
//! Violations never panic: they accumulate in the [`WatchdogReport`] that
//! executors surface, and the torture suite asserts the report is clean
//! under every adversarial schedule.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cumulative findings of one watchdog (snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Checks performed: one per acquisition attempt, plus one per
    /// explicit `check()`. Every attempt checks rank order; a
    /// [`WaitsFor`] also walks the attempt's waits-for chain, a threaded
    /// [`Watchdog`] only once a rank violation has been recorded (the
    /// count is the same either way).
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

/// The waits-for state of one section, for a single owner: the
/// simulator holds it directly. [`Watchdog`] is its lock-free twin for
/// real threads.
#[derive(Debug, Default)]
pub struct WaitsFor {
    /// lock id → worker currently holding it.
    holder: Vec<Option<usize>>,
    /// worker → lock id it is attempting to acquire.
    waiting: Vec<Option<usize>>,
    /// Workers with a `waiting` entry: the in-flight attempts, and the
    /// cycle check's hop bound.
    blocked: usize,
    /// worker → ranks currently held (insertion order). A stack keeps its
    /// capacity across releases.
    held_ranks: Vec<Vec<usize>>,
    report: WatchdogReport,
}

impl WaitsFor {
    /// Creates the state for `workers` workers over lock ranks
    /// `0..ranks`; larger ids grow the tables on first use.
    pub fn new(workers: usize, ranks: usize) -> Self {
        WaitsFor {
            holder: vec![None; ranks],
            waiting: vec![None; workers],
            blocked: 0,
            held_ranks: vec![Vec::new(); workers],
            report: WatchdogReport::default(),
        }
    }

    /// Worker `w` is attempting to acquire lock `l` — called on every
    /// attempt, whether or not the lock turns out to be free. Validates
    /// rank order against `w`'s held locks and runs one cycle check on
    /// the waits-for chain out of `w` (the only place a new cycle can
    /// appear).
    pub fn acquiring(&mut self, w: usize, l: usize) {
        self.enter_wait(w, l);
        self.record_cycle_through(w);
    }

    /// Worker `w` now holds lock `l`.
    pub fn acquired(&mut self, w: usize, l: usize) {
        self.stop_waiting(w);
        if l >= self.holder.len() {
            self.holder.resize(l + 1, None);
        }
        self.holder[l] = Some(w);
        self.grow_workers(w);
        self.held_ranks[w].push(l);
    }

    /// Worker `w` released lock `l`.
    pub fn released(&mut self, w: usize, l: usize) {
        if let Some(h) = self.holder.get_mut(l) {
            if *h == Some(w) {
                *h = None;
            }
        }
        if let Some(held) = self.held_ranks.get_mut(w) {
            if let Some(pos) = held.iter().rposition(|&r| r == l) {
                held.remove(pos);
            }
        }
    }

    /// Worker `w` stopped waiting without acquiring (cancellation).
    pub fn wait_abandoned(&mut self, w: usize) {
        self.stop_waiting(w);
    }

    /// Explicit cycle check over the whole waits-for graph; returns the
    /// first cycle found this call.
    pub fn check(&mut self) -> Option<Vec<usize>> {
        self.report.checks += 1;
        self.full_walk()
    }

    /// The findings so far.
    pub fn report(&self) -> &WatchdogReport {
        &self.report
    }

    /// The findings, consuming the state.
    pub fn into_report(self) -> WatchdogReport {
        self.report
    }

    fn grow_workers(&mut self, w: usize) {
        if w >= self.waiting.len() {
            self.waiting.resize(w + 1, None);
            self.held_ranks.resize_with(w + 1, Vec::new);
        }
    }

    fn stop_waiting(&mut self, w: usize) {
        if let Some(slot) = self.waiting.get_mut(w) {
            if slot.take().is_some() {
                self.blocked -= 1;
            }
        }
    }

    /// Worker `w` starts an attempt on lock `l`: counts the check, flags
    /// a rank inversion against `w`'s held locks, adds the waits-for
    /// edge and tracks the peak of in-flight acquisitions.
    fn enter_wait(&mut self, w: usize, l: usize) {
        self.report.checks += 1;
        self.grow_workers(w);
        // Rank monotonicity: every already-held rank must be < l.
        if let Some(&max_held) = self.held_ranks[w].iter().max() {
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
        if self.waiting[w].replace(l).is_none() {
            self.blocked += 1;
        }
        if self.blocked > self.report.max_blocked {
            self.report.max_blocked = self.blocked;
        }
    }

    /// The worker `cur` waits on, through the holder of its lock.
    fn waits_on(&self, cur: usize) -> Option<usize> {
        let lock = (*self.waiting.get(cur)?)?;
        *self.holder.get(lock)?
    }

    /// Runs the incremental check from `w` ([`chain_through`]) and
    /// records the cycle it finds; returns the hops taken.
    fn record_cycle_through(&mut self, w: usize) -> usize {
        let (hops, cycle) = chain_through(w, self.blocked, |x| self.waits_on(x));
        if let Some(cycle) = cycle {
            self.record(cycle);
        }
        hops
    }

    /// Records and returns the first cycle of the full walk
    /// ([`first_cycle`]).
    fn full_walk(&mut self) -> Option<Vec<usize>> {
        let cycle = first_cycle(self.waiting.len(), |x| self.waits_on(x))?;
        Some(self.record(cycle))
    }

    /// Canonicalizes `cycle` (rotated so the smallest worker leads),
    /// records it once and returns it.
    fn record(&mut self, mut cycle: Vec<usize>) -> Vec<usize> {
        canonicalize(&mut cycle);
        if !self.report.cycles.contains(&cycle) {
            self.report.cycles.push(cycle.clone());
        }
        cycle
    }
}

/// Marks an empty entry of the threaded watchdog's `waiting` and
/// `holder` tables.
const NONE: usize = usize::MAX;

/// Aligns its contents to their own cache lines (128 bytes covers the
/// adjacent-line prefetch pair), so one worker's writes never invalidate
/// a line another worker reads.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// One worker's private part of the threaded watchdog.
#[derive(Debug)]
struct WorkerSlot {
    /// Lock id the worker is attempting, or [`NONE`]. Written only by the
    /// worker; read by the chain walks.
    waiting: AtomicUsize,
    /// Uncontended: only the worker itself locks it until the report is
    /// taken.
    local: Mutex<WorkerLocal>,
}

#[derive(Debug, Default)]
struct WorkerLocal {
    /// Ranks currently held (insertion order).
    held: Vec<usize>,
    /// Acquisition attempts (each one rank check).
    checks: u64,
    /// Rank violations, each with its run-wide sequence number so the
    /// report lists them in the order they happened.
    violations: Vec<(u64, String)>,
}

/// Thread-safe waits-for-graph watchdog shared by a section's workers.
///
/// Rank order is checked in each worker's own padded slot. The waits-for
/// edges live in atomic tables (`waiting` per worker, `holder` per lock)
/// and the in-flight attempts in one counter whose peak is kept with
/// `fetch_max`, so an attempt, a grant or a release takes no shared lock.
/// Workers that all acquire in strictly increasing rank cannot close a
/// waits-for cycle (§4.6: around a cycle every wait would be for a rank
/// above the one before it), so an attempt walks its chain only once a
/// rank violation has been recorded. [`check`](Self::check) always walks
/// every waiter; it is the deadline monitor's diagnosis.
///
/// Worker indices and lock ids must be below the sizes given to
/// [`new`](Self::new). Replayed from one thread, the report equals a
/// [`WaitsFor`]'s for the same events.
#[derive(Debug)]
pub struct Watchdog {
    workers: Box<[Padded<WorkerSlot>]>,
    /// lock id → worker holding it, or [`NONE`].
    holder: Box<[AtomicUsize]>,
    /// Workers with a `waiting` entry.
    in_flight: Padded<AtomicUsize>,
    /// Peak of `in_flight`.
    max_blocked: Padded<AtomicUsize>,
    /// Rank violations recorded so far; non-zero turns the chain walk on.
    violations: Padded<AtomicU64>,
    /// Explicit [`check`](Self::check) calls.
    explicit_checks: AtomicU64,
    cycles: Mutex<Vec<Vec<usize>>>,
}

impl Default for Watchdog {
    /// A watchdog for 64 workers over 64 ranks (64 is the CLI's thread
    /// limit).
    fn default() -> Self {
        Watchdog::new(64, 64)
    }
}

impl Watchdog {
    /// Creates a watchdog for workers `0..workers` over lock ranks
    /// `0..ranks`.
    pub fn new(workers: usize, ranks: usize) -> Self {
        Watchdog {
            workers: (0..workers)
                .map(|_| {
                    Padded(WorkerSlot {
                        waiting: AtomicUsize::new(NONE),
                        local: Mutex::new(WorkerLocal::default()),
                    })
                })
                .collect(),
            holder: (0..ranks).map(|_| AtomicUsize::new(NONE)).collect(),
            in_flight: Padded::default(),
            max_blocked: Padded::default(),
            violations: Padded::default(),
            explicit_checks: AtomicU64::new(0),
            cycles: Mutex::new(Vec::new()),
        }
    }

    /// Worker `w` is attempting to acquire lock `l` (see
    /// [`WaitsFor::acquiring`]): checks rank order against `w`'s held
    /// locks and, once any rank violation exists, runs the cycle check on
    /// the chain out of `w`.
    pub fn acquiring(&self, w: usize, l: usize) {
        self.enter_wait(w, l);
        if self.violations.0.load(Ordering::SeqCst) > 0 {
            self.record_cycle_through(w);
        }
    }

    /// Worker `w` now holds lock `l`.
    pub fn acquired(&self, w: usize, l: usize) {
        self.stop_waiting(w);
        self.holder[l].store(w, Ordering::SeqCst);
        self.workers[w].0.local.lock().held.push(l);
    }

    /// Worker `w` released lock `l`. A sibling that took `l` in between
    /// keeps its entry.
    pub fn released(&self, w: usize, l: usize) {
        if let Some(h) = self.holder.get(l) {
            let _ = h.compare_exchange(w, NONE, Ordering::SeqCst, Ordering::Relaxed);
        }
        if let Some(slot) = self.workers.get(w) {
            let mut local = slot.0.local.lock();
            if let Some(pos) = local.held.iter().rposition(|&r| r == l) {
                local.held.remove(pos);
            }
        }
    }

    /// Worker `w` stopped waiting without acquiring (cancellation).
    pub fn wait_abandoned(&self, w: usize) {
        self.stop_waiting(w);
    }

    /// Explicit cycle check over the whole waits-for graph; returns the
    /// first cycle found this call. On live threads the tables change
    /// under the walk, so a cycle counts only if every edge on it still
    /// holds when re-read.
    pub fn check(&self) -> Option<Vec<usize>> {
        self.explicit_checks.fetch_add(1, Ordering::Relaxed);
        self.full_walk()
    }

    /// Snapshot of the report.
    pub fn report(&self) -> WatchdogReport {
        let mut checks = self.explicit_checks.load(Ordering::Relaxed);
        let mut violations: Vec<(u64, String)> = Vec::new();
        for slot in self.workers.iter() {
            let local = slot.0.local.lock();
            checks += local.checks;
            violations.extend(local.violations.iter().cloned());
        }
        violations.sort_by_key(|&(seq, _)| seq);
        WatchdogReport {
            checks,
            cycles: self.cycles.lock().clone(),
            rank_violations: violations.into_iter().map(|(_, msg)| msg).collect(),
            max_blocked: self.max_blocked.0.load(Ordering::Relaxed),
        }
    }

    /// Counts the attempt, flags a rank inversion against `w`'s held
    /// locks, adds the waits-for edge and tracks the in-flight peak.
    fn enter_wait(&self, w: usize, l: usize) {
        let slot = &self.workers[w].0;
        {
            let mut local = slot.local.lock();
            local.checks += 1;
            if let Some(&max_held) = local.held.iter().max() {
                if l <= max_held {
                    let msg = format!(
                        "worker {w} acquiring lock {l} while holding rank {max_held} \
                         (ranks must strictly increase)"
                    );
                    if !local.violations.iter().any(|(_, m)| *m == msg) {
                        let seq = self.violations.0.fetch_add(1, Ordering::SeqCst);
                        local.violations.push((seq, msg));
                    }
                }
            }
        }
        if slot.waiting.swap(l, Ordering::SeqCst) == NONE {
            let now = self.in_flight.0.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_blocked.0.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn stop_waiting(&self, w: usize) {
        if let Some(slot) = self.workers.get(w) {
            if slot.0.waiting.swap(NONE, Ordering::SeqCst) != NONE {
                self.in_flight.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// The worker `cur` waits on, through the holder of its lock.
    fn waits_on(&self, cur: usize) -> Option<usize> {
        let lock = self.workers.get(cur)?.0.waiting.load(Ordering::SeqCst);
        let h = self.holder.get(lock)?.load(Ordering::SeqCst);
        (h != NONE).then_some(h)
    }

    /// The incremental check from `w` ([`chain_through`]), bounded by
    /// the worker count (the in-flight count may be stale here).
    fn record_cycle_through(&self, w: usize) {
        if let (_, Some(cycle)) = chain_through(w, self.workers.len(), |x| self.waits_on(x)) {
            self.record(cycle);
        }
    }

    /// The full walk ([`first_cycle`]); the cycle it meets is recorded
    /// only if it still holds.
    fn full_walk(&self) -> Option<Vec<usize>> {
        let cycle = first_cycle(self.workers.len(), |x| self.waits_on(x))?;
        self.still_holds(&cycle).then(|| self.record(cycle))
    }

    /// Re-reads every edge of `cycle`.
    fn still_holds(&self, cycle: &[usize]) -> bool {
        let next = cycle.iter().cycle().skip(1);
        cycle
            .iter()
            .zip(next)
            .all(|(&a, &b)| self.waits_on(a) == Some(b))
    }

    /// Canonicalizes `cycle`, records it once and returns it.
    fn record(&self, mut cycle: Vec<usize>) -> Vec<usize> {
        canonicalize(&mut cycle);
        let mut cycles = self.cycles.lock();
        if !cycles.contains(&cycle) {
            cycles.push(cycle.clone());
        }
        cycle
    }
}

/// Follows the waits-for chain out of `w` for at most `bound` hops and
/// returns the hops taken, plus the cycle through `w` if the chain
/// closes back on it. Every worker on a cycle is waiting, so with `bound`
/// at least the number of waiting workers, a chain that has not returned
/// to `w` in time either ended or entered a cycle `w` is not on — one
/// that an earlier attempt already recorded. The cycle is collected by a
/// second pass, which a live sibling may cut short: then none is
/// returned.
fn chain_through(
    w: usize,
    bound: usize,
    waits_on: impl Fn(usize) -> Option<usize>,
) -> (usize, Option<Vec<usize>>) {
    let mut cur = w;
    for hop in 1..=bound {
        match waits_on(cur) {
            None => return (hop, None),
            Some(next) if next == w => {
                let mut cycle = vec![w];
                let mut m = waits_on(w);
                while let Some(x) = m {
                    if x == w {
                        return (hop, Some(cycle));
                    }
                    if cycle.len() >= bound {
                        break;
                    }
                    cycle.push(x);
                    m = waits_on(x);
                }
                return (hop, None);
            }
            Some(next) => cur = next,
        }
    }
    (bound, None)
}

/// Walks worker → (lock it waits for) → (that lock's holder) chains from
/// every waiter below `workers`, in ascending worker order, and returns
/// the first cycle met.
fn first_cycle(workers: usize, waits_on: impl Fn(usize) -> Option<usize>) -> Option<Vec<usize>> {
    for start in 0..workers {
        let Some(mut next) = waits_on(start) else {
            continue;
        };
        let mut path = vec![start];
        loop {
            if let Some(pos) = path.iter().position(|&p| p == next) {
                return Some(path.split_off(pos));
            }
            path.push(next);
            match waits_on(next) {
                Some(n) => next = n,
                None => break,
            }
        }
    }
    None
}

/// Rotates `cycle` so its smallest worker leads.
fn canonicalize(cycle: &mut [usize]) {
    if let Some(min_pos) = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, &w)| w)
        .map(|(i, _)| i)
    {
        cycle.rotate_left(min_pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn clean_rank_ordered_schedule_reports_no_findings() {
        let wd = Watchdog::default();
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
        let wd = Watchdog::default();
        wd.acquiring(0, 1);
        wd.acquired(0, 1);
        wd.acquiring(0, 0); // inversion: 0 ≤ held rank 1
        let r = wd.report();
        assert_eq!(r.rank_violations.len(), 1, "{r:?}");
        assert!(r.rank_violations[0].contains("worker 0"));
    }

    #[test]
    fn two_worker_cycle_is_detected() {
        let wd = Watchdog::default();
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
            self.enter_wait(w, l);
            self.full_walk();
        }
    }

    #[test]
    fn two_disjoint_cycles_are_both_recorded() {
        let wd = Watchdog::default();
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
            let (inc, reference) = (Watchdog::default(), Watchdog::default());
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

    /// The map-based state the dense tables replaced, kept verbatim as
    /// the reference, plus the hop count of each incremental check.
    #[derive(Debug, Default)]
    struct MapState {
        holder: std::collections::BTreeMap<usize, usize>,
        waiting: std::collections::BTreeMap<usize, usize>,
        held_ranks: std::collections::BTreeMap<usize, Vec<usize>>,
        report: WatchdogReport,
    }

    impl MapState {
        fn acquiring(&mut self, w: usize, l: usize) -> usize {
            self.report.checks += 1;
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
            let mut cur = w;
            for hop in 1..=self.waiting.len() {
                match self.waits_on(cur) {
                    None => return hop,
                    Some(next) if next == w => {
                        let mut cycle = vec![w];
                        let mut m = self.waits_on(w).expect("w is on a cycle");
                        while m != w {
                            cycle.push(m);
                            m = self.waits_on(m).expect("every cycle member waits");
                        }
                        self.record(cycle);
                        return hop;
                    }
                    Some(next) => cur = next,
                }
            }
            self.waiting.len()
        }

        fn acquired(&mut self, w: usize, l: usize) {
            self.waiting.remove(&w);
            self.holder.insert(l, w);
            self.held_ranks.entry(w).or_default().push(l);
        }

        fn released(&mut self, w: usize, l: usize) {
            if self.holder.get(&l) == Some(&w) {
                self.holder.remove(&l);
            }
            if let Some(held) = self.held_ranks.get_mut(&w) {
                if let Some(pos) = held.iter().rposition(|&r| r == l) {
                    held.remove(pos);
                }
            }
        }

        fn wait_abandoned(&mut self, w: usize) {
            self.waiting.remove(&w);
        }

        fn check(&mut self) -> Option<Vec<usize>> {
            self.report.checks += 1;
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

        fn waits_on(&self, cur: usize) -> Option<usize> {
            let lock = self.waiting.get(&cur)?;
            self.holder.get(lock).copied()
        }

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

    /// The dense tables against the map-based reference on seeded random
    /// legal sequences: locks `0..locks` plus shard-style ranks above
    /// them, retried and abandoned waits, and interleaved full checks.
    /// The whole report must be equal — cycles and violations in the
    /// same order — and every incremental check must take the same hops.
    /// The tables are sized for the plan's locks only (and sometimes for
    /// no worker), so the shard ranks and workers grow them on demand.
    #[test]
    fn dense_tables_match_the_map_reference() {
        let mut rng = SplitMix64::new(0x0DE5_E7AB);
        let (mut with_cycles, mut with_violations, mut grown) = (0, 0, 0);
        for _ in 0..1500 {
            let workers = 1 + rng.next_below(8) as usize;
            let locks = 1 + rng.next_below(6) as usize;
            let shards = rng.next_below(4) as usize;
            let sized_workers = if rng.next_below(4) == 0 { 0 } else { workers };
            let events = legal_events(&mut rng, workers, locks + shards, 120);
            let mut dense = WaitsFor::new(sized_workers, locks);
            let mut reference = MapState::default();
            for (k, &e) in events.iter().enumerate() {
                match e {
                    Event::Acquiring(w, l) => {
                        dense.enter_wait(w, l);
                        let hops = dense.record_cycle_through(w);
                        assert_eq!(hops, reference.acquiring(w, l), "event {k}: {events:?}");
                    }
                    Event::Acquired(w, l) => {
                        dense.acquired(w, l);
                        reference.acquired(w, l);
                    }
                    Event::Released(w, l) => {
                        dense.released(w, l);
                        reference.released(w, l);
                    }
                    Event::Abandoned(w) => {
                        dense.wait_abandoned(w);
                        reference.wait_abandoned(w);
                    }
                }
                if rng.next_below(16) == 0 {
                    assert_eq!(dense.check(), reference.check(), "event {k}: {events:?}");
                }
            }
            assert_eq!(dense.report(), &reference.report, "{events:?}");
            with_cycles += usize::from(!reference.report.cycles.is_empty());
            with_violations += usize::from(!reference.report.rank_violations.is_empty());
            grown += usize::from(dense.holder.len() > locks || dense.waiting.len() > sized_workers);
        }
        assert!(with_cycles > 100, "{with_cycles} sequences with cycles");
        assert!(with_violations > 100, "{with_violations} with violations");
        assert!(grown > 100, "{grown} sequences grew the tables");
    }

    #[test]
    fn abandoned_waits_clear_edges() {
        let wd = Watchdog::default();
        wd.acquiring(0, 0);
        wd.acquired(0, 0);
        wd.acquiring(1, 0);
        wd.wait_abandoned(1);
        assert_eq!(wd.check(), None);
    }

    #[test]
    fn released_lock_breaks_chain() {
        let wd = Watchdog::default();
        wd.acquiring(0, 0);
        wd.acquired(0, 0);
        wd.acquiring(1, 0); // w1 waits on w0
        assert_eq!(wd.check(), None);
        wd.released(0, 0);
        wd.acquired(1, 0);
        assert_eq!(wd.check(), None);
        assert!(wd.report().is_clean());
    }

    /// Replays `events` into a threaded watchdog and into the reference
    /// single-owner state, with a full check wherever `checks` says.
    fn replay_both(
        events: &[Event],
        workers: usize,
        ranks: usize,
        checks: &[bool],
    ) -> (WatchdogReport, WatchdogReport) {
        let wd = Watchdog::new(workers, ranks);
        let mut reference = WaitsFor::new(workers, ranks);
        for (k, &e) in events.iter().enumerate() {
            match e {
                Event::Acquiring(w, l) => {
                    wd.acquiring(w, l);
                    reference.acquiring(w, l);
                }
                Event::Acquired(w, l) => {
                    wd.acquired(w, l);
                    reference.acquired(w, l);
                }
                Event::Released(w, l) => {
                    wd.released(w, l);
                    reference.released(w, l);
                }
                Event::Abandoned(w) => {
                    wd.wait_abandoned(w);
                    reference.wait_abandoned(w);
                }
            }
            if checks[k] {
                assert_eq!(wd.check(), reference.check(), "event {k}: {events:?}");
            }
        }
        (wd.report(), reference.into_report())
    }

    /// The threaded watchdog against [`WaitsFor`] on the seeded legal
    /// sequences, each extended by a rank inversion that closes a
    /// two-worker cycle: the whole report must be equal, so skipping the
    /// chain walk until a rank violation loses no cycle.
    #[test]
    fn threaded_watchdog_matches_waits_for() {
        let mut rng = SplitMix64::new(0x7EAD_ED0C);
        let (mut with_cycles, mut with_violations, mut clean) = (0, 0, 0);
        for _ in 0..1500 {
            let workers = 2 + rng.next_below(7) as usize;
            let locks = 2 + rng.next_below(5) as usize;
            // Short sequences are often rank-ordered throughout.
            let len = if rng.next_below(4) == 0 { 10 } else { 120 };
            let mut events = legal_events(&mut rng, workers, locks, len);
            if rng.next_below(2) == 0 {
                // Two fresh locks above the sequence's: worker `a` takes
                // the lower then wants the upper, worker `b` holds the
                // upper and wants the lower — a rank inversion and a
                // cycle, unless `a` or `b` is still waiting from the
                // random prefix (then the tail is skipped).
                let (a, b) = (0, 1);
                let (lo, hi) = (locks, locks + 1);
                let idle = |w: usize| {
                    let mut waiting = false;
                    for e in &events {
                        match *e {
                            Event::Acquiring(x, _) if x == w => waiting = true,
                            Event::Acquired(x, _) | Event::Abandoned(x) if x == w => {
                                waiting = false
                            }
                            _ => {}
                        }
                    }
                    !waiting
                };
                if idle(a) && idle(b) {
                    events.extend([
                        Event::Acquiring(a, lo),
                        Event::Acquired(a, lo),
                        Event::Acquiring(b, hi),
                        Event::Acquired(b, hi),
                        Event::Acquiring(a, hi),
                        Event::Acquiring(b, lo),
                    ]);
                }
            }
            let checks: Vec<bool> = events.iter().map(|_| rng.next_below(16) == 0).collect();
            let (got, want) = replay_both(&events, workers, locks + 2, &checks);
            assert_eq!(got, want, "{events:?}");
            with_cycles += usize::from(!want.cycles.is_empty());
            with_violations += usize::from(!want.rank_violations.is_empty());
            clean += usize::from(want.is_clean());
        }
        assert!(with_cycles > 100, "{with_cycles} sequences with cycles");
        assert!(with_violations > 100, "{with_violations} with violations");
        assert!(clean > 10, "{clean} clean sequences");
    }

    /// Real threads on real locks in rank order: a clean report, one
    /// check per attempt, and never more attempts in flight than threads.
    #[test]
    fn rank_ordered_threads_on_real_locks_stay_clean() {
        use crate::lock::{LockKind, RawLock};
        const THREADS: usize = 4;
        const LOCKS: usize = 3;
        const ROUNDS: usize = 2000;
        let wd = Watchdog::new(THREADS, LOCKS);
        let locks: Vec<RawLock> = (0..LOCKS).map(|_| RawLock::new(LockKind::Mutex)).collect();
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let (wd, locks) = (&wd, &locks);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        // Each round takes an ascending subset of ranks.
                        let take: Vec<usize> =
                            (0..LOCKS).filter(|l| (round + w) % (l + 2) != 0).collect();
                        for &l in &take {
                            wd.acquiring(w, l);
                            locks[l].acquire();
                            wd.acquired(w, l);
                        }
                        for &l in take.iter().rev() {
                            locks[l].release();
                            wd.released(w, l);
                        }
                    }
                });
            }
        });
        let expected: usize = (0..THREADS)
            .map(|w| {
                (0..ROUNDS)
                    .map(|round| (0..LOCKS).filter(|l| (round + w) % (l + 2) != 0).count())
                    .sum::<usize>()
            })
            .sum();
        let r = wd.report();
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.checks, expected as u64);
        assert!((1..=THREADS).contains(&r.max_blocked), "{r:?}");
        assert_eq!(wd.check(), None);
    }
}
