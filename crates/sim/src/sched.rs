//! Scheduler helper: minimum-clock thread selection with a run-ahead
//! horizon.
//!
//! The DES invariant — shared interactions happen in global time order —
//! holds because the executor always advances the *runnable* thread with
//! the smallest local clock (ties to the lowest index); every other
//! thread's future interactions carry later timestamps.
//!
//! Picking that thread anew before every retired op would rescan all
//! workers per op. Instead, [`pick_with_horizon`] returns the picked
//! thread together with the first clock at which some other runnable
//! thread would win the pick. While the picked thread only runs plain
//! ops — which move no clock but its own and wake or block nobody — it
//! keeps the pick exactly until its clock reaches that horizon, so the
//! executor may step it repeatedly without rescanning and the step
//! sequence is the one a per-op pick would produce.

/// Picks the runnable thread with the smallest clock (ties broken by
/// index, for determinism) and its run-ahead horizon. `clocks` yields
/// each thread's clock, `None` for a thread that is not runnable.
///
/// The horizon is the smallest clock among runnable lower-index threads
/// and the smallest clock + 1 among runnable higher-index threads (a
/// lower index wins a tie): the picked thread `i` stays the pick exactly
/// while its clock is below the horizon. `u64::MAX` when `i` is the only
/// runnable thread. Returns `None` when no thread is runnable.
pub fn pick_with_horizon(clocks: impl IntoIterator<Item = Option<u64>>) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    // Smallest clock among runnable threads before / after `best`, the
    // latter already + 1.
    let (mut below, mut above) = (u64::MAX, u64::MAX);
    for (j, clock) in clocks.into_iter().enumerate() {
        let Some(c) = clock else { continue };
        match best {
            Some((_, b)) if c >= b => above = above.min(c.saturating_add(1)),
            Some((_, b)) => {
                // Every runnable thread seen so far now precedes the new
                // pick, and the old pick held the smallest of their clocks.
                below = b;
                above = u64::MAX;
                best = Some((j, c));
            }
            None => best = Some((j, c)),
        }
    }
    best.map(|(i, _)| (i, below.min(above)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_runtime::rng::SplitMix64;

    /// Reference per-op pick: the runnable thread with the smallest
    /// clock, ties to the lowest index.
    fn pick_min_clock(clocks: &[u64], runnable: &[bool]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..clocks.len() {
            if !runnable[i] {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) if clocks[i] < clocks[b] => Some(i),
                other => other,
            };
        }
        best
    }

    fn pick(clocks: &[u64], runnable: &[bool]) -> Option<(usize, u64)> {
        pick_with_horizon(clocks.iter().zip(runnable).map(|(&c, &r)| r.then_some(c)))
    }

    #[test]
    fn picks_min_among_runnable() {
        let clocks = [50, 10, 30];
        assert_eq!(pick(&clocks, &[true, true, true]), Some((1, 31)));
        assert_eq!(pick(&clocks, &[true, false, true]), Some((2, 50)));
        assert_eq!(pick(&clocks, &[false, true, false]), Some((1, u64::MAX)));
        assert_eq!(pick(&clocks, &[false, false, false]), None);
    }

    #[test]
    fn ties_break_deterministically() {
        let clocks = [5, 5, 5];
        assert_eq!(pick(&clocks, &[true, true, true]), Some((0, 6)));
        assert_eq!(pick(&clocks, &[false, true, true]), Some((1, 6)));
    }

    /// For the picked thread `i` and any candidate clock `c`:
    /// `c < horizon` exactly when the per-op pick with `clocks[i] = c`
    /// still returns `i`. Seeded clocks drawn from a small range so ties
    /// are common.
    #[test]
    fn horizon_is_exactly_where_the_pick_changes() {
        let mut rng = SplitMix64::new(0x5EED_0A4E_AD00);
        for _ in 0..4000 {
            let n = 1 + rng.next_below(8) as usize;
            let mut clocks: Vec<u64> = (0..n).map(|_| 100 + rng.next_below(12)).collect();
            let runnable: Vec<bool> = (0..n).map(|_| rng.next_below(4) != 0).collect();
            let picked = pick(&clocks, &runnable);
            assert_eq!(
                picked.map(|(i, _)| i),
                pick_min_clock(&clocks, &runnable),
                "{clocks:?} {runnable:?}"
            );
            let Some((i, horizon)) = picked else { continue };
            for _ in 0..8 {
                let c = 96 + rng.next_below(20);
                clocks[i] = c;
                assert_eq!(
                    c < horizon,
                    pick_min_clock(&clocks, &runnable) == Some(i),
                    "i={i} c={c} horizon={horizon} {clocks:?} {runnable:?}"
                );
            }
        }
    }
}
