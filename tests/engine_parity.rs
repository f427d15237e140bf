//! Reference-interpreter parity: the bytecode engine every executor runs
//! against the tree-walk `Vm`, the reference implementation of the same
//! resumable semantics. Each workload's sequential module runs to
//! completion on both machines, every intrinsic resolved through the
//! workload's own registry on a fresh world, and every observable must be
//! identical: the result, the total retired cost, the special sequence
//! (intrinsic id + arguments) and the final world. Two small programs
//! pin the bytecode engine's reuse of returned call frames: a reused
//! frame must start from the callee's initial registers and local arrays,
//! at every depth of a recursion.

use commset_interp::globals::PlainGlobals;
use commset_interp::vm::GlobalMem;
use commset_interp::{BcModule, BcVm, ExecError, StepOutcome, Vm};
use commset_ir::{IntrinsicId, IntrinsicTable, Module};
use commset_lang::ast::Type;
use commset_runtime::{Registry, Value, World};
use commset_workloads::{all, Workload};

/// The slice of the resumable contract a full sequential run needs.
trait Machine {
    fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError>;
    fn resolve(&mut self, v: Value);
}

impl Machine for Vm<'_> {
    fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
        Vm::step(self, g)
    }
    fn resolve(&mut self, v: Value) {
        self.resolve_special(v);
    }
}

impl Machine for BcVm<'_> {
    fn step(&mut self, g: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
        BcVm::step(self, g)
    }
    fn resolve(&mut self, v: Value) {
        self.resolve_special(v);
    }
}

/// Everything one sequential run exposes.
struct Run {
    result: Option<Value>,
    cost: u64,
    specials: Vec<(IntrinsicId, Vec<Value>)>,
    world: World,
}

fn run(vm: &mut dyn Machine, module: &Module, registry: &Registry, mut world: World) -> Run {
    let mut globals = PlainGlobals::new(module);
    let mut cost = 0u64;
    let mut specials = Vec::new();
    let result = loop {
        match vm.step(&mut globals).expect("sequential run succeeds") {
            StepOutcome::Ran { cost: c } => cost += c,
            StepOutcome::Special(p) => {
                let name = module.intrinsics.name(p.intrinsic.0 as usize);
                let out = registry.call(name, &mut world, &p.args);
                specials.push((p.intrinsic, p.args.clone()));
                vm.resolve(out.value);
            }
            StepOutcome::Finished(v) => break v,
        }
    };
    Run {
        result,
        cost,
        specials,
        world,
    }
}

fn sequential_module(w: &Workload) -> Module {
    let compiler = w.compiler();
    let analysis = compiler
        .analyze(&w.plain_source())
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    compiler
        .compile_sequential(&analysis)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

#[test]
fn bytecode_matches_the_reference_vm_on_every_workload() {
    for w in all() {
        let module = sequential_module(&w);
        let bc = BcModule::compile(&module);
        let mut tree = Vm::for_name(&module, "main", &[]).unwrap();
        let mut byte = BcVm::for_name(&module, &bc, "main", &[]).unwrap();
        let t = run(&mut tree, &module, &w.registry, (w.make_world)());
        let b = run(&mut byte, &module, &w.registry, (w.make_world)());
        assert_eq!(t.result, b.result, "{}: results differ", w.name);
        assert_eq!(t.cost, b.cost, "{}: total retired cost differs", w.name);
        assert!(!t.specials.is_empty(), "{}: no intrinsic ran", w.name);
        assert_eq!(
            t.specials, b.specials,
            "{}: special sequences differ",
            w.name
        );
        (w.validate)(&t.world, &b.world)
            .unwrap_or_else(|e| panic!("{}: worlds diverge: {e}", w.name));
        (w.validate)(&b.world, &t.world)
            .unwrap_or_else(|e| panic!("{}: worlds diverge: {e}", w.name));
    }
}

/// `f(0)` writes a local array element and a register that `f(1)` reads
/// without writing: a reused frame must hand `f(1)` zeros.
const FRESH_LOCALS: &str = r#"
    extern void emit(int v);
    int f(int k) {
        int a[4];
        int x;
        if (k == 0) {
            a[1] = 7;
            x = 9;
        }
        emit(a[1] + x);
        a[2] = a[2] + k;
        return a[1] * 100 + x + a[2];
    }
    int main() {
        int s = 0;
        for (int i = 0; i < 6; i = i + 1) {
            s = s + f(i % 2);
        }
        return s;
    }
"#;

/// Frames of every depth are returned and reused while deeper calls
/// are live.
const RECURSIVE: &str = r#"
    extern void emit(int v);
    int fib(int n) {
        int memo[2];
        memo[0] = n;
        if (n < 2) {
            emit(n);
            return n;
        }
        int r = fib(n - 1) + fib(n - 2);
        memo[1] = r;
        emit(memo[0] * 1000 + memo[1]);
        return memo[1];
    }
    int main() {
        return fib(10);
    }
"#;

#[test]
fn reused_call_frames_match_the_reference_vm() {
    let mut table = IntrinsicTable::new();
    table.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 5);
    let mut registry = Registry::new();
    registry.register("emit", |_, _| commset_runtime::IntrinsicOutcome::unit());
    // f(0) = 709 three times, f(1) = 1 three times; fib(10) = 55.
    for (src, want) in [(FRESH_LOCALS, 2130), (RECURSIVE, 55)] {
        let unit = commset_lang::compile_unit(src).unwrap();
        let module = commset_ir::lower_program(&unit.program, table.clone()).unwrap();
        let bc = BcModule::compile(&module);
        let mut tree = Vm::for_name(&module, "main", &[]).unwrap();
        let mut byte = BcVm::for_name(&module, &bc, "main", &[]).unwrap();
        let t = run(&mut tree, &module, &registry, World::new());
        let b = run(&mut byte, &module, &registry, World::new());
        assert_eq!(t.result, Some(Value::Int(want)), "reference result");
        assert_eq!(b.result, t.result, "results differ");
        assert_eq!(b.cost, t.cost, "total retired cost differs");
        assert!(!t.specials.is_empty());
        assert_eq!(b.specials, t.specials, "special sequences differ");
    }
}
