//! Slot liveness — the backward dataflow the bytecode compiler's
//! superinstruction fusion is guarded by.
//!
//! A fused op may skip materializing an intermediate slot (the compare
//! feeding a branch, the constant feeding an immediate-form arithmetic
//! op) only when nothing downstream reads it. This module computes the
//! classic per-block live-in/live-out sets from [`Inst::def`]/
//! [`Inst::for_each_use`], plus the per-instruction "live after" sets a
//! peephole needs to make that call. Every set is a run of `u64` words in
//! a flat buffer, so the pass allocates a few buffers per function, not a
//! set per block or per instruction.

use crate::repr::{Function, Inst, Slot, Terminator};

/// A read-only slot bitset: one function's slots, 64 to a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSet<'a> {
    words: &'a [u64],
}

impl SlotSet<'_> {
    /// Membership test.
    pub fn contains(&self, s: Slot) -> bool {
        let i = s.0 as usize;
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
}

fn insert(words: &mut [u64], s: Slot) {
    let i = s.0 as usize;
    words[i / 64] |= 1u64 << (i % 64);
}

/// The slot a terminator itself reads: a branch's condition or the
/// returned value.
fn term_use(term: &Terminator) -> Option<Slot> {
    match term {
        Terminator::Br { cond, .. } => Some(*cond),
        Terminator::Ret(v) => *v,
        Terminator::Jump(_) => None,
    }
}

/// Applies one instruction's transfer function backwards:
/// `live = (live - def) ∪ uses`.
fn transfer(live: &mut [u64], inst: &Inst) {
    if let Some(d) = inst.def() {
        let i = d.0 as usize;
        if let Some(w) = live.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }
    inst.for_each_use(|u| insert(live, u));
}

/// Copies `src` over `dst`; returns true if anything changed.
fn store(dst: &mut [u64], src: &[u64]) -> bool {
    let changed = dst != src;
    dst.copy_from_slice(src);
    changed
}

/// Per-function liveness: block-level live-in/live-out sets, `stride`
/// words per block in two flat buffers.
#[derive(Debug)]
pub struct Liveness {
    stride: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Computes liveness for `f` by iterating the backward dataflow to a
    /// fixed point (blocks are few; no worklist finesse needed).
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let stride = f.slots.len().div_ceil(64);
        let mut live_in = vec![0u64; n * stride];
        let mut live_out = vec![0u64; n * stride];
        let mut out = vec![0u64; stride];
        let mut live = vec![0u64; stride];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let block = &f.blocks[b];
                out.fill(0);
                block.term.for_each_successor(|succ| {
                    let at = succ.0 as usize * stride;
                    for (o, w) in out.iter_mut().zip(&live_in[at..at + stride]) {
                        *o |= *w;
                    }
                });
                live.copy_from_slice(&out);
                if let Some(s) = term_use(&block.term) {
                    insert(&mut live, s);
                }
                for node in block.insts.iter().rev() {
                    transfer(&mut live, &node.inst);
                }
                let at = b * stride;
                changed |= store(&mut live_out[at..at + stride], &out);
                changed |= store(&mut live_in[at..at + stride], &live);
            }
        }
        Liveness {
            stride,
            live_in,
            live_out,
        }
    }

    /// Slots live on entry to block `b`.
    pub fn live_in(&self, b: usize) -> SlotSet<'_> {
        SlotSet {
            words: &self.live_in[b * self.stride..(b + 1) * self.stride],
        }
    }

    /// Slots live on exit from block `b` (before the terminator's own
    /// uses — i.e. the union of successor live-ins).
    pub fn live_out(&self, b: usize) -> SlotSet<'_> {
        SlotSet {
            words: &self.live_out[b * self.stride..(b + 1) * self.stride],
        }
    }

    /// Fills `after` with the "live after instruction `i`" sets of block
    /// `b`, computed by one backward walk: entry `i` is the set of slots
    /// read at or after instruction `i + 1` (including the terminator) on
    /// some path. `after` is overwritten, so one buffer serves every
    /// block of a function.
    pub fn live_after(&self, f: &Function, b: usize, after: &mut LiveAfter) {
        let block = &f.blocks[b];
        let stride = self.stride;
        let n = block.insts.len();
        after.stride = stride;
        after.words.clear();
        after.words.resize(n * stride, 0);
        if n == 0 {
            return;
        }
        // The last entry is live-out plus the terminator's own read; each
        // earlier entry is its successor entry through the later
        // instruction's transfer function.
        let last = &mut after.words[(n - 1) * stride..];
        last.copy_from_slice(self.live_out(b).words);
        if let Some(s) = term_use(&block.term) {
            insert(last, s);
        }
        for i in (1..n).rev() {
            let (head, tail) = after.words.split_at_mut(i * stride);
            let prev = &mut head[(i - 1) * stride..];
            prev.copy_from_slice(&tail[..stride]);
            transfer(prev, &block.insts[i].inst);
        }
    }
}

/// One block's "live after" sets ([`Liveness::live_after`]), `stride`
/// words per instruction in one flat buffer.
#[derive(Debug, Default)]
pub struct LiveAfter {
    stride: usize,
    words: Vec<u64>,
}

impl LiveAfter {
    /// The slots live after instruction `i` of the block last filled in.
    pub fn get(&self, i: usize) -> SlotSet<'_> {
        SlotSet {
            words: &self.words[i * self.stride..(i + 1) * self.stride],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::IntrinsicTable;
    use crate::lower::lower_program;
    use crate::repr::Module;

    fn module(src: &str) -> Module {
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, IntrinsicTable::new()).unwrap()
    }

    #[test]
    fn loop_variable_is_live_around_the_backedge() {
        let m = module(
            "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }",
        );
        let f = m.funcs.iter().find(|f| f.name == "main").unwrap();
        let lv = Liveness::compute(f);
        // Find the block whose terminator is the conditional branch: both
        // the accumulator and the induction variable must be live into it.
        let (header, _) = f
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| matches!(b.term, Terminator::Br { .. }))
            .expect("loop header");
        let live = lv.live_in(header);
        let live_count = (0..f.slots.len())
            .filter(|i| live.contains(Slot(*i as u32)))
            .count();
        assert!(live_count >= 2, "s and i live at the header");
    }

    #[test]
    fn dead_compare_temp_is_not_live_after_its_branch_block() {
        let m = module("int main() { int i = 3; if (i < 5) { return 1; } return 0; }");
        let f = m.funcs.iter().find(|f| f.name == "main").unwrap();
        let lv = Liveness::compute(f);
        for (b, block) in f.blocks.iter().enumerate() {
            if let Terminator::Br { cond, .. } = block.term {
                assert!(
                    !lv.live_out(b).contains(cond),
                    "the compare temp feeds only the branch"
                );
            }
        }
    }

    #[test]
    fn live_after_tracks_intra_block_reads() {
        let m = module("int main() { int a = 1; int b = a + 2; int c = b * 3; return c; }");
        let f = m.funcs.iter().find(|f| f.name == "main").unwrap();
        let lv = Liveness::compute(f);
        let mut after = LiveAfter::default();
        lv.live_after(f, 0, &mut after);
        let block = &f.blocks[0];
        // Every def that is read later in the block is live right after
        // its defining instruction.
        for (i, node) in block.insts.iter().enumerate() {
            if let Some(d) = node.inst.def() {
                let read_later = block.insts[i + 1..]
                    .iter()
                    .any(|n| n.inst.uses().contains(&d))
                    || matches!(block.term, Terminator::Ret(Some(s)) if s == d);
                assert_eq!(after.get(i).contains(d), read_later, "inst {i}");
            }
        }
    }
}
