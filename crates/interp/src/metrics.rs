//! Per-worker local metrics accumulation for the executors.
//!
//! [`MetricsLocal`] is the hot-path half of the metrics layer: a flat
//! opcode-retire array plus a small site→cost map that a worker updates
//! privately while stepping (no shared state, no locks, no allocation on
//! the common path), then resolves to names and folds into a
//! [`MetricsRegistry`] exactly once at worker exit. On the DES the
//! executor accumulates one of these inline; on real threads each worker
//! owns one and publishes through a `MetricsSink`.

use crate::bytecode::{BcModule, OPCODE_NAMES};
use commset_ir::Module;
use commset_telemetry::MetricsRegistry;
use std::collections::HashMap;

/// Privately-owned retire counters for one worker: per-opcode retires
/// and per-`(function, op offset)` retired cost. Attribution to source
/// block names happens once, at publication.
#[derive(Debug, Clone, Default)]
pub struct MetricsLocal {
    opcodes: [u64; OPCODE_NAMES.len()],
    sites: HashMap<(u32, u32), u64>,
}

impl MetricsLocal {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one retired op: `site` as sampled from [`BcVm::site`]
    /// *before* the step, `cost` as reported by the step outcome.
    ///
    /// [`BcVm::site`]: crate::bytecode::BcVm::site
    pub fn retire(&mut self, bc: &BcModule, site: (u32, u32), cost: u64) {
        let (func, pc) = site;
        let bf = &bc.funcs[func as usize];
        self.opcodes[bf.ops[pc as usize].kind()] += 1;
        *self.sites.entry(site).or_insert(0) += cost;
    }

    /// True when nothing has been retired.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() && self.opcodes.iter().all(|n| *n == 0)
    }

    /// Resolves sites to `func:bbN` block names and folds everything
    /// into `out`.
    pub fn publish(&self, module: &Module, bc: &BcModule, out: &mut MetricsRegistry) {
        for (kind, n) in self.opcodes.iter().enumerate() {
            out.record_opcode(OPCODE_NAMES[kind], *n);
        }
        for ((func, pc), cost) in &self.sites {
            let bf = &bc.funcs[*func as usize];
            let block = bf.block_of(*pc);
            let name = module
                .funcs
                .get(*func as usize)
                .map_or(bf.name.as_str(), |f| f.name.as_str());
            out.record_block(&format!("{name}:bb{block}"), *cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::BcVm;
    use crate::globals::PlainGlobals;
    use crate::vm::StepOutcome;

    #[test]
    fn retires_attribute_to_opcodes_and_blocks() {
        let unit = commset_lang::compile_unit(
            "int main() { int s; int i; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + i; } return s; }",
        )
        .unwrap();
        let m =
            commset_ir::lower_program(&unit.program, commset_ir::IntrinsicTable::new()).unwrap();
        let bc = BcModule::compile(&m);
        let mut vm = BcVm::for_name(&m, &bc, "main", &[]).unwrap();
        let mut g = PlainGlobals::new(&m);
        let mut local = MetricsLocal::new();
        loop {
            let site = vm.site().expect("running");
            match vm.step(&mut g).unwrap() {
                StepOutcome::Ran { cost } => local.retire(&bc, site, cost),
                StepOutcome::Finished(v) => {
                    assert_eq!(v, Some(commset_runtime::Value::Int(6)));
                    break;
                }
                StepOutcome::Special(_) => unreachable!("no intrinsics"),
            }
        }
        assert!(!local.is_empty());
        let mut reg = MetricsRegistry::new();
        local.publish(&m, &bc, &mut reg);
        // The loop body block dominates retired cost; every block name
        // carries the function name.
        assert!(reg.blocks().keys().all(|k| k.starts_with("main:bb")));
        let total_ops: u64 = reg.opcodes().values().sum();
        assert!(total_ops > 4, "loop retired several ops: {total_ops}");
    }
}
