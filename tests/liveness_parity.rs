//! Liveness parity: the allocation-free liveness pass the bytecode
//! compiler's fusion is guarded by must compute exactly what the
//! straightforward algorithm computes. On every instruction of every
//! workload's sequential module, of every transformed module its schemes
//! produce (2 and 8 threads), and of every `samples/bytecode/*.cmm`
//! fixture:
//!
//! * `Inst::for_each_use` visits exactly `Inst::uses()`, in order, and
//!   `Terminator::for_each_successor` exactly `Terminator::successors()`;
//! * live-in, live-out and live-after sets equal those of the reference
//!   copy below, which builds a fresh vector per use list and a fresh set
//!   per block and per instruction.

use commset::spec::{build_table, parse_effects};
use commset::Compiler;
use commset_ir::{BlockId, Function, Inst, LiveAfter, Liveness, Module, Slot, SlotSet, Terminator};
use commset_workloads::all;

/// The reference algorithm: owned sets, `Vec`-returning visitors.
mod reference {
    use super::*;

    #[derive(Clone, PartialEq)]
    pub struct Set(Vec<u64>);

    impl Set {
        fn new(nslots: usize) -> Self {
            Set(vec![0; nslots.div_ceil(64)])
        }
        pub fn contains(&self, s: Slot) -> bool {
            let i = s.0 as usize;
            self.0
                .get(i / 64)
                .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
        }
        fn insert(&mut self, s: Slot) {
            let i = s.0 as usize;
            self.0[i / 64] |= 1u64 << (i % 64);
        }
        fn remove(&mut self, s: Slot) {
            let i = s.0 as usize;
            if let Some(w) = self.0.get_mut(i / 64) {
                *w &= !(1u64 << (i % 64));
            }
        }
        fn union_with(&mut self, other: &Set) {
            for (a, b) in self.0.iter_mut().zip(&other.0) {
                *a |= *b;
            }
        }
    }

    fn transfer(live: &mut Set, inst: &Inst) {
        if let Some(d) = inst.def() {
            live.remove(d);
        }
        for u in inst.uses() {
            live.insert(u);
        }
    }

    fn term_uses(live: &mut Set, term: &Terminator) {
        match term {
            Terminator::Br { cond, .. } => live.insert(*cond),
            Terminator::Ret(Some(s)) => live.insert(*s),
            _ => {}
        }
    }

    pub struct Reference {
        pub live_in: Vec<Set>,
        pub live_out: Vec<Set>,
        pub live_after: Vec<Vec<Set>>,
    }

    pub fn compute(f: &Function) -> Reference {
        let n = f.blocks.len();
        let nslots = f.slots.len();
        let mut live_in = vec![Set::new(nslots); n];
        let mut live_out = vec![Set::new(nslots); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let block = &f.blocks[b];
                let mut out = Set::new(nslots);
                for succ in block.term.successors() {
                    out.union_with(&live_in[succ.0 as usize]);
                }
                let mut live = out.clone();
                term_uses(&mut live, &block.term);
                for node in block.insts.iter().rev() {
                    transfer(&mut live, &node.inst);
                }
                changed |= live_out[b] != out;
                live_out[b] = out;
                changed |= live_in[b] != live;
                live_in[b] = live;
            }
        }
        let live_after = (0..n)
            .map(|b| {
                let block = &f.blocks[b];
                let mut live = live_out[b].clone();
                term_uses(&mut live, &block.term);
                let mut after = vec![Set::new(nslots); block.insts.len()];
                for (i, node) in block.insts.iter().enumerate().rev() {
                    after[i] = live.clone();
                    transfer(&mut live, &node.inst);
                }
                after
            })
            .collect();
        Reference {
            live_in,
            live_out,
            live_after,
        }
    }
}

fn same_set(what: &str, nslots: usize, got: SlotSet<'_>, want: &reference::Set) {
    for s in (0..nslots as u32).map(Slot) {
        assert_eq!(got.contains(s), want.contains(s), "{what}: slot {}", s.0);
    }
}

/// Checks every function of `m`; returns the instructions checked.
fn check_module(label: &str, m: &Module) -> usize {
    let mut insts = 0;
    let mut after = LiveAfter::default();
    for f in &m.funcs {
        let at = |b: usize| format!("{label}: {} block {b}", f.name);
        let nslots = f.slots.len();
        for (b, block) in f.blocks.iter().enumerate() {
            for (i, node) in block.insts.iter().enumerate() {
                let mut visited: Vec<Slot> = Vec::new();
                node.inst.for_each_use(|s| visited.push(s));
                assert_eq!(visited, node.inst.uses(), "{} inst {i}", at(b));
            }
            let mut succs: Vec<BlockId> = Vec::new();
            block.term.for_each_successor(|s| succs.push(s));
            assert_eq!(succs, block.term.successors(), "{} terminator", at(b));
        }
        let lv = Liveness::compute(f);
        let want = reference::compute(f);
        for (b, block) in f.blocks.iter().enumerate() {
            same_set(
                &format!("{} live-in", at(b)),
                nslots,
                lv.live_in(b),
                &want.live_in[b],
            );
            same_set(
                &format!("{} live-out", at(b)),
                nslots,
                lv.live_out(b),
                &want.live_out[b],
            );
            lv.live_after(f, b, &mut after);
            for i in 0..block.insts.len() {
                let what = format!("{} live-after {i}", at(b));
                same_set(&what, nslots, after.get(i), &want.live_after[b][i]);
            }
            insts += block.insts.len();
        }
    }
    insts
}

#[test]
fn liveness_matches_the_reference_on_every_workload_module() {
    let mut insts = 0;
    let mut transformed = 0;
    for w in all() {
        let compiler = w.compiler();
        let plain = compiler
            .analyze(&w.plain_source())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let seq = compiler
            .compile_sequential(&plain)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        insts += check_module(&format!("{} sequential", w.name), &seq);
        for spec in &w.schemes {
            let analysis = w
                .analyze(spec.variant)
                .unwrap_or_else(|e| panic!("{} {}: {e}", w.name, spec.label));
            for threads in [2, 8] {
                // A scheme that does not apply has no module to check.
                if let Ok((m, _)) = compiler.compile(&analysis, spec.scheme, threads, spec.sync) {
                    let label = format!("{} {} x{threads}", w.name, spec.label);
                    insts += check_module(&label, &m);
                    transformed += 1;
                }
            }
        }
    }
    assert!(transformed > 0, "no transformed module was checked");
    assert!(insts > 1000, "only {insts} instructions checked");
}

#[test]
fn liveness_matches_the_reference_on_the_bytecode_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/bytecode");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("samples/bytecode exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "cmm") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("fixture reads");
        let table = build_table(&src, &parse_effects("").expect("empty sidecar")).expect("table");
        let compiler = Compiler::new(table);
        let analysis = compiler.analyze(&src).expect("fixture analyzes");
        let m = compiler
            .compile_sequential(&analysis)
            .expect("fixture lowers");
        assert!(check_module(&path.display().to_string(), &m) > 0);
        checked += 1;
    }
    assert!(checked > 0, "no bytecode fixture found");
}
