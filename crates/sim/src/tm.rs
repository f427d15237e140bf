//! The optimistic-synchronization (transactional memory) model.
//!
//! Transactions are executed atomically at the simulation level (the DES
//! serializes state mutation anyway); the *model* decides whether a
//! transaction would have aborted under optimistic concurrency — a
//! conflicting write committed between begin and commit — and charges the
//! redo work accordingly.

use crate::cost::CostModel;

/// Global transactional-conflict bookkeeping. Channels are the intrinsic
/// table's dense channel ids.
#[derive(Debug, Clone, Default)]
pub struct TmModel {
    /// Time of the last committed write, by channel id (0 = never).
    last_write: Vec<u64>,
    /// Total commits (statistics).
    pub commits: u64,
    /// Total aborts (statistics).
    pub aborts: u64,
    /// Commits that escalated to the modeled rank-0 global lock after
    /// repeated aborts (the starvation fallback, statistics).
    pub fallbacks: u64,
}

/// An in-flight modeled transaction.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// Begin time.
    pub start: u64,
    /// Channel ids read (each once).
    pub reads: Vec<u32>,
    /// Channel ids written (each once).
    pub writes: Vec<u32>,
    /// Accumulated work (re-charged on abort).
    pub work: u64,
}

impl TxRecord {
    /// Adds channel `c` to the read set.
    pub fn read(&mut self, c: u32) {
        if !self.reads.contains(&c) {
            self.reads.push(c);
        }
    }

    /// Adds channel `c` to the write set.
    pub fn write(&mut self, c: u32) {
        if !self.writes.contains(&c) {
            self.writes.push(c);
        }
    }
}

impl TmModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a transaction at `t` (after charging `tx_begin`).
    pub fn begin(&self, t: u64, cm: &CostModel) -> TxRecord {
        TxRecord {
            start: t + cm.tx_begin,
            reads: Vec::new(),
            writes: Vec::new(),
            work: 0,
        }
    }

    /// Attempts to commit at time `t`. On success returns
    /// `Ok(completion)`; on conflict returns `Err(retry_work)` — the time
    /// the thread wasted and must redo.
    ///
    /// # Errors
    ///
    /// An `Err` is a modeled abort, not a failure of the simulation.
    pub fn commit(&mut self, tx: &TxRecord, t: u64, cm: &CostModel) -> Result<u64, u64> {
        let conflict = tx
            .reads
            .iter()
            .chain(&tx.writes)
            .any(|&c| self.last_write.get(c as usize).copied().unwrap_or(0) > tx.start);
        if conflict {
            self.aborts += 1;
            // Wasted: everything since begin, plus the validation cost.
            let wasted = (t - tx.start) + cm.tx_commit;
            return Err(wasted);
        }
        self.commits += 1;
        let done = t + cm.tx_commit;
        self.record_writes(tx, done);
        Ok(done)
    }

    /// Commits unconditionally at `t` under the modeled rank-0 global
    /// lock — the starvation fallback a transaction escalates to after
    /// exhausting its optimistic retry budget. Charges the global lock's
    /// acquire/release plus the commit validation, always succeeds, and
    /// bumps the `fallbacks` counter.
    pub fn commit_pessimistic(&mut self, tx: &TxRecord, t: u64, cm: &CostModel) -> u64 {
        self.fallbacks += 1;
        self.commits += 1;
        let done = t + cm.lock_acquire + cm.tx_commit + cm.lock_release;
        self.record_writes(tx, done);
        done
    }

    fn record_writes(&mut self, tx: &TxRecord, done: u64) {
        for &c in &tx.writes {
            let c = c as usize;
            if self.last_write.len() <= c {
                self.last_write.resize(c + 1, 0);
            }
            self.last_write[c] = done;
        }
    }

    /// Records an injected (forced) abort at time `t`: charges the same
    /// wasted work a real conflict would and bumps the abort counter.
    pub fn forced_abort(&mut self, tx: &TxRecord, t: u64, cm: &CostModel) -> u64 {
        self.aborts += 1;
        (t.saturating_sub(tx.start)) + cm.tx_commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_transactions_commit() {
        let cm = CostModel::default();
        let mut tm = TmModel::new();
        let mut tx1 = tm.begin(0, &cm);
        tx1.write(0);
        let c1 = tm.commit(&tx1, 100, &cm).unwrap();
        let mut tx2 = tm.begin(c1, &cm);
        tx2.write(1);
        assert!(tm.commit(&tx2, c1 + 100, &cm).is_ok());
        assert_eq!(tm.aborts, 0);
    }

    #[test]
    fn overlapping_write_aborts_reader() {
        let cm = CostModel::default();
        let mut tm = TmModel::new();
        // Reader starts first...
        let mut reader = tm.begin(0, &cm);
        reader.read(0);
        // ...writer begins and commits a write to A in between...
        let mut writer = tm.begin(10, &cm);
        writer.write(0);
        let _ = tm.commit(&writer, 500, &cm).unwrap();
        // ...reader's commit must abort.
        let r = tm.commit(&reader, 1000, &cm);
        assert!(r.is_err());
        let wasted = r.unwrap_err();
        assert!(wasted >= 1000 - reader.start);
        assert_eq!(tm.aborts, 1);
    }

    #[test]
    fn pessimistic_commit_always_succeeds_and_counts() {
        let cm = CostModel::default();
        let mut tm = TmModel::new();
        // A writer commits to A after the victim began — an optimistic
        // commit would abort forever under a steady conflict stream.
        let mut victim = tm.begin(0, &cm);
        victim.read(0);
        let mut writer = tm.begin(10, &cm);
        writer.write(0);
        tm.commit(&writer, 500, &cm).unwrap();
        assert!(tm.commit(&victim, 1000, &cm).is_err());
        let done = tm.commit_pessimistic(&victim, 2000, &cm);
        assert!(done > 2000);
        assert_eq!(tm.fallbacks, 1);
        assert_eq!(tm.commits, 2);
    }

    #[test]
    fn forced_abort_charges_wasted_work() {
        let cm = CostModel::default();
        let mut tm = TmModel::new();
        let tx = tm.begin(0, &cm);
        let wasted = tm.forced_abort(&tx, 100, &cm);
        assert!(wasted >= 100 - tx.start);
        assert_eq!(tm.aborts, 1);
    }

    #[test]
    fn serialized_rechecks_succeed() {
        let cm = CostModel::default();
        let mut tm = TmModel::new();
        // Retry after an abort with a fresh (later) begin succeeds.
        let mut tx = tm.begin(0, &cm);
        tx.write(0);
        tm.commit(&tx, 50, &cm).unwrap();
        let mut retry = tm.begin(2000, &cm);
        retry.read(0);
        assert!(tm.commit(&retry, 2100, &cm).is_ok());
    }
}
