//! The sequential executor — the evaluation baseline.

use crate::bytecode::{BcModule, BcVm};
use crate::error::ExecError;
use crate::exec_core::{dispatch, outside_section};
use crate::globals::PlainGlobals;
use crate::vm::StepOutcome;
use commset_ir::Module;
use commset_runtime::{Registry, Value, World};
use commset_sim::CostModel;

/// Result of a sequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqOutcome {
    /// `main`'s return value.
    pub result: Option<Value>,
    /// Total simulated time.
    pub sim_time: u64,
    /// Instructions retired.
    pub insts: u64,
}

/// Runs `entry` to completion on one simulated core.
///
/// # Errors
///
/// Returns [`ExecError::MissingHandler`] before running if the module
/// calls a world intrinsic `registry` has no handler for,
/// [`ExecError::ParallelIntrinsicInSequential`] if the program
/// executes parallel-runtime intrinsics (`__par_invoke` etc.) — sequential
/// programs must be untransformed — and propagates any dynamic error from
/// [`BcVm::step`] (division by zero, out-of-bounds indexing, ...).
pub fn run_sequential(
    module: &Module,
    registry: &Registry,
    world: &mut World,
    cm: &CostModel,
    entry: &str,
) -> Result<SeqOutcome, ExecError> {
    let bc = BcModule::compile(module);
    let dispatch = dispatch(registry, module, &bc, world)?;
    let mut globals = PlainGlobals::new(module);
    let mut vm = BcVm::for_name(module, &bc, entry, &[])?;
    let mut sim_time: u64 = 0;
    let mut insts: u64 = 0;
    loop {
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => {
                sim_time += cost * cm.inst;
                insts += 1;
            }
            StepOutcome::Special(p) => {
                if p.op.is_some() {
                    return Err(outside_section(module, &p));
                }
                let id = p.intrinsic.0 as usize;
                let out = dispatch.call(id, world, &p.args);
                sim_time += module.intrinsics.sig(id).base_cost + out.extra_cost;
                vm.resolve_special(out.value);
            }
            StepOutcome::Finished(result) => {
                return Ok(SeqOutcome {
                    result,
                    sim_time,
                    insts,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_ir::{lower_program, IntrinsicTable};
    use commset_lang::ast::Type;
    use commset_runtime::intrinsics::IntrinsicOutcome;

    #[test]
    fn runs_program_with_world_intrinsics() {
        let mut table = IntrinsicTable::new();
        table.register("bump", vec![Type::Int], Type::Int, &[], &["CTR"], 50);
        let unit = commset_lang::compile_unit(
            "extern int bump(int by); int main() { int last = 0; for (int i = 0; i < 5; i = i + 1) { last = bump(2); } return last; }",
        )
        .unwrap();
        let module = lower_program(&unit.program, table).unwrap();
        let mut registry = Registry::new();
        registry.register("bump", |world, args| {
            let c = world.get_mut::<i64>("ctr");
            *c += args[0].as_int();
            IntrinsicOutcome::value(*c).with_cost(7)
        });
        let mut world = World::new();
        world.install("ctr", 0i64);
        let out = run_sequential(
            &module,
            &registry,
            &mut world,
            &CostModel::default(),
            "main",
        )
        .unwrap();
        assert_eq!(out.result, Some(Value::Int(10)));
        assert_eq!(*world.get::<i64>("ctr"), 10);
        // 5 calls x (50 base + 7 extra) plus instruction time.
        assert!(out.sim_time >= 5 * 57);
        assert!(out.insts > 20);
    }

    #[test]
    fn dynamic_error_surfaces_not_panics() {
        let unit = commset_lang::compile_unit("int main() { int x = 1; int y = 0; return x / y; }")
            .unwrap();
        let module = lower_program(&unit.program, IntrinsicTable::new()).unwrap();
        let registry = Registry::new();
        let mut world = World::new();
        let err = run_sequential(
            &module,
            &registry,
            &mut world,
            &CostModel::default(),
            "main",
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DivisionByZero {
                func: "main".into()
            }
        );
    }

    #[test]
    fn unknown_entry_is_an_error() {
        let unit = commset_lang::compile_unit("int main() { return 0; }").unwrap();
        let module = lower_program(&unit.program, IntrinsicTable::new()).unwrap();
        let registry = Registry::new();
        let mut world = World::new();
        let err = run_sequential(
            &module,
            &registry,
            &mut world,
            &CostModel::default(),
            "nope",
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownFunction {
                name: "nope".into()
            }
        );
    }
}
