//! Simulated SPSC queues with visibility latency and backpressure.

use crate::cost::CostModel;
use std::collections::VecDeque;

/// Result of a simulated push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Pushed; the producer's clock advances to this time.
    Pushed(u64),
    /// Queue full; the producer must block and retry after the next pop.
    Full,
}

/// Result of a simulated pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopOutcome {
    /// Got a value; the consumer's clock advances to the given time.
    Popped(u64, u64),
    /// Queue empty; the consumer must block and retry after the next push.
    Empty,
}

/// A simulated bounded FIFO between one producer and one consumer thread.
#[derive(Debug, Clone)]
pub struct SimQueue {
    /// Capacity in elements.
    pub capacity: usize,
    /// Queued (visible_at, bits) pairs.
    items: VecDeque<(u64, u64)>,
    /// Total pushes (statistics).
    pub pushes: u64,
    /// Pops that found the queue empty (statistics).
    pub empty_pops: u64,
}

impl SimQueue {
    /// Creates an empty queue.
    pub fn new(capacity: usize) -> Self {
        SimQueue {
            capacity: capacity.max(1),
            items: VecDeque::new(),
            pushes: 0,
            empty_pops: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Producer pushes `bits` at time `t`.
    pub fn push(&mut self, t: u64, bits: u64, cm: &CostModel) -> PushOutcome {
        if self.items.len() >= self.capacity {
            return PushOutcome::Full;
        }
        self.pushes += 1;
        let done = t + cm.queue_op;
        self.items.push_back((done + cm.queue_latency, bits));
        PushOutcome::Pushed(done)
    }

    /// Consumer pops at time `t`.
    pub fn pop(&mut self, t: u64, cm: &CostModel) -> PopOutcome {
        match self.items.front().copied() {
            None => {
                self.empty_pops += 1;
                PopOutcome::Empty
            }
            Some((visible_at, bits)) => {
                self.items.pop_front();
                let done = t.max(visible_at) + cm.queue_op;
                PopOutcome::Popped(bits, done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_with_latency() {
        let cm = CostModel::default();
        let mut q = SimQueue::new(4);
        assert_eq!(q.pop(0, &cm), PopOutcome::Empty);
        let PushOutcome::Pushed(p1) = q.push(100, 7, &cm) else {
            panic!()
        };
        assert_eq!(p1, 100 + cm.queue_op);
        // Consumer popping immediately waits for visibility.
        let PopOutcome::Popped(bits, t) = q.pop(0, &cm) else {
            panic!()
        };
        assert_eq!(bits, 7);
        assert_eq!(t, p1 + cm.queue_latency + cm.queue_op);
        // Consumer popping late pays only the op cost.
        q.push(200, 8, &cm);
        let PopOutcome::Popped(_, t2) = q.pop(10_000, &cm) else {
            panic!()
        };
        assert_eq!(t2, 10_000 + cm.queue_op);
    }

    #[test]
    fn backpressure_when_full() {
        let cm = CostModel::default();
        let mut q = SimQueue::new(2);
        assert!(matches!(q.push(0, 1, &cm), PushOutcome::Pushed(_)));
        assert!(matches!(q.push(1, 2, &cm), PushOutcome::Pushed(_)));
        assert_eq!(q.push(2, 3, &cm), PushOutcome::Full);
        let _ = q.pop(100, &cm);
        assert!(matches!(q.push(101, 3, &cm), PushOutcome::Pushed(_)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn order_preserved() {
        let cm = CostModel::default();
        let mut q = SimQueue::new(8);
        for i in 0..5 {
            q.push(i, i, &cm);
        }
        for i in 0..5 {
            let PopOutcome::Popped(bits, _) = q.pop(1000, &cm) else {
                panic!()
            };
            assert_eq!(bits, i);
        }
    }
}
