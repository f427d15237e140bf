//! The resumable Cmm virtual machine.
//!
//! `step()` retires exactly one instruction (or terminator). Calls to
//! program functions push frames internally; calls to *intrinsics* pause
//! the machine with a [`StepOutcome::Special`] event — the executor
//! computes the result (world access, queue/lock interaction, blocking)
//! and resumes the machine with [`Vm::resolve_special`]. This design lets
//! the discrete-event executor interleave many machines deterministically
//! and lets the thread executor block on real primitives, with one VM
//! implementation.
//!
//! Dynamic errors the type system cannot rule out — division by zero,
//! out-of-bounds indexing, mixed-type operations — surface as
//! [`ExecError`] values carrying the current function as source context;
//! the machine never panics on program input.

use crate::error::ExecError;
use commset_ir::repr::{
    Arg, ArrRef, Block, Callee, Const, FuncId, Function, Inst, IntrinsicId, Module, Slot,
    Terminator,
};
use commset_lang::ast::{BinOp, Type, UnOp};
use commset_runtime::Value;
use commset_transform::{runtime_op, RtOp};

/// An out-of-bounds global-array access, reported by a [`GlobalMem`]
/// backend; the VM attaches function context and converts it to
/// [`ExecError::IndexOutOfBounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobError {
    /// The offending index.
    pub index: i64,
    /// The array's length.
    pub len: usize,
}

/// Global-memory backend used by a VM.
pub trait GlobalMem {
    /// Reads a scalar global.
    fn load(&mut self, g: commset_ir::GlobalId) -> Value;
    /// Writes a scalar global.
    fn store(&mut self, g: commset_ir::GlobalId, v: Value);
    /// Reads a global array element.
    ///
    /// # Errors
    ///
    /// Returns [`OobError`] when `idx` is outside the array.
    fn load_elem(&mut self, g: commset_ir::GlobalId, idx: i64) -> Result<Value, OobError>;
    /// Writes a global array element.
    ///
    /// # Errors
    ///
    /// Returns [`OobError`] when `idx` is outside the array.
    fn store_elem(&mut self, g: commset_ir::GlobalId, idx: i64, v: Value) -> Result<(), OobError>;
}

/// One activation record.
#[derive(Debug)]
struct Frame {
    func: FuncId,
    block: usize,
    idx: usize,
    slots: Vec<Value>,
    arrays: Vec<Vec<Value>>,
    /// Where the caller wants this frame's return value.
    ret_dst: Option<Slot>,
    /// True when this frame belongs to a watched function (call-event
    /// recording, see [`Vm::watch_calls`]).
    watched: bool,
}

/// A call-boundary event of a *watched* function (see
/// [`Vm::watch_calls`]): the trace recorder uses these to observe
/// commutative-region entries and exits, which are ordinary program-function
/// calls invisible to the driving executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CallEvent {
    /// True for an entry (frame push), false for an exit (frame pop).
    pub enter: bool,
    /// The watched function (its name is `module.func(func).name`).
    pub func: FuncId,
    /// Argument values at entry (empty for exits).
    pub args: Vec<Value>,
    /// Number of watched frames on the stack *after* the event.
    pub depth: usize,
}

#[derive(Debug, Default)]
struct WatchState {
    set: std::collections::BTreeSet<FuncId>,
    events: Vec<CallEvent>,
    depth: usize,
}

/// A pending intrinsic call awaiting its result.
#[derive(Debug, Clone)]
pub struct PendingSpecial {
    /// The intrinsic being called.
    pub intrinsic: IntrinsicId,
    /// The decoded runtime op; `None` for a world call.
    pub op: Option<RtOp>,
    /// Evaluated arguments (string literals become interned handles via
    /// `str_args`).
    pub args: Vec<Value>,
    /// String-literal arguments, position-paired with `args` slots holding
    /// a placeholder `Int(0)`.
    pub str_args: Vec<(usize, String)>,
}

/// What one `step()` did.
#[derive(Debug)]
pub enum StepOutcome {
    /// An instruction retired; `cost` abstract units were spent.
    Ran {
        /// Abstract cost units (the executor scales them).
        cost: u64,
    },
    /// The machine is paused on an intrinsic call; resolve it with
    /// [`Vm::resolve_special`].
    Special(PendingSpecial),
    /// The entry function returned.
    Finished(Option<Value>),
}

/// A resumable virtual machine executing one logical thread.
pub struct Vm<'m> {
    module: &'m Module,
    frames: Vec<Frame>,
    pending: bool,
    finished: bool,
    watch: Option<WatchState>,
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("depth", &self.frames.len())
            .field("pending", &self.pending)
            .field("finished", &self.finished)
            .finish()
    }
}

pub(crate) fn zero_of(ty: Type) -> Value {
    match ty {
        Type::Float => Value::Float(0.0),
        _ => Value::Int(0),
    }
}

fn new_frame(
    f: &Function,
    func: FuncId,
    args: &[Value],
    ret_dst: Option<Slot>,
) -> Result<Frame, ExecError> {
    if args.len() != f.param_count {
        return Err(ExecError::ArityMismatch {
            func: f.name.clone(),
            expected: f.param_count,
            got: args.len(),
        });
    }
    let mut slots: Vec<Value> = f.slots.iter().map(|s| zero_of(s.ty)).collect();
    slots[..args.len()].copy_from_slice(args);
    let arrays = f
        .arrays
        .iter()
        .map(|a| vec![zero_of(a.ty); a.len])
        .collect();
    Ok(Frame {
        func,
        block: 0,
        idx: 0,
        slots,
        arrays,
        ret_dst,
        watched: false,
    })
}

impl<'m> Vm<'m> {
    /// Creates a machine poised to run `func(args...)`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ArityMismatch`] when `args` does not match the
    /// function's parameter count.
    pub fn new(module: &'m Module, func: FuncId, args: &[Value]) -> Result<Self, ExecError> {
        let f = module.func(func);
        Ok(Vm {
            module,
            frames: vec![new_frame(f, func, args, None)?],
            pending: false,
            finished: false,
            watch: None,
        })
    }

    /// Convenience: machine for a function by name.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownFunction`] when the function does not
    /// exist and [`ExecError::ArityMismatch`] on a bad argument count.
    pub fn for_name(module: &'m Module, name: &str, args: &[Value]) -> Result<Self, ExecError> {
        let id = module
            .func_id(name)
            .ok_or_else(|| ExecError::UnknownFunction {
                name: name.to_string(),
            })?;
        Vm::new(module, id, args)
    }

    /// True once the entry function has returned.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Starts recording [`CallEvent`]s for calls to the given functions.
    /// Unknown names are ignored. Calling again replaces the watch set but
    /// keeps undrained events.
    pub fn watch_calls<'a>(&mut self, funcs: impl IntoIterator<Item = &'a str>) {
        let mut set = std::collections::BTreeSet::new();
        for name in funcs {
            if let Some(id) = self.module.func_id(name) {
                set.insert(id);
            }
        }
        let st = self.watch.get_or_insert_with(WatchState::default);
        st.set = set;
    }

    /// Watches every module function whose name starts with `prefix` —
    /// the outlined commutative regions are `__commset_region_*`.
    pub fn watch_calls_matching(&mut self, prefix: &str) {
        let names: Vec<String> = self
            .module
            .funcs
            .iter()
            .filter(|f| f.name.starts_with(prefix))
            .map(|f| f.name.clone())
            .collect();
        self.watch_calls(names.iter().map(String::as_str));
    }

    /// Removes and returns the recorded call-boundary events.
    pub fn drain_call_events(&mut self) -> Vec<CallEvent> {
        match &mut self.watch {
            Some(st) => std::mem::take(&mut st.events),
            None => Vec::new(),
        }
    }

    /// Number of watched frames currently on the stack (`> 0` means the
    /// machine is inside a commutative region).
    pub fn watched_depth(&self) -> usize {
        self.watch.as_ref().map_or(0, |st| st.depth)
    }

    /// Name of the function currently on top of the stack (diagnostics).
    pub fn current_function(&self) -> &str {
        match self.frames.last() {
            Some(fr) => &self.module.func(fr.func).name,
            None => "<finished>",
        }
    }

    /// Supplies the result of the pending intrinsic call and advances.
    ///
    /// # Panics
    ///
    /// Panics if no special is pending — an executor bug, unreachable from
    /// program input.
    pub fn resolve_special(&mut self, value: Value) {
        assert!(self.pending, "no pending special");
        self.pending = false;
        let fr = self.frames.last_mut().expect("frame");
        let cur = &self.module.func(fr.func).blocks[fr.block];
        if let Inst::Call { dst: Some(d), .. } = &cur.insts[fr.idx].inst {
            fr.slots[d.0 as usize] = value;
        }
        fr.idx += 1;
    }

    /// Abandons the pending intrinsic call so it can be retried later
    /// (used by executors when a queue operation must block).
    pub fn retry_special_later(&mut self) {
        assert!(self.pending, "no pending special");
        self.pending = false;
    }

    /// Executes one instruction or terminator.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on dynamic errors the type system does not
    /// rule out (array index out of bounds, division by zero, mixed
    /// operand types), with the current function as source context.
    ///
    /// # Panics
    ///
    /// Panics when stepping a finished or pending machine — executor
    /// contract violations, unreachable from program input.
    pub fn step(&mut self, globals: &mut dyn GlobalMem) -> Result<StepOutcome, ExecError> {
        assert!(!self.pending, "resolve the pending special first");
        assert!(!self.finished, "machine already finished");
        let module = self.module;
        let fr = self.frames.last_mut().expect("frame");
        let func = module.func(fr.func);
        let fname = &func.name;
        let block: &Block = &func.blocks[fr.block];
        if fr.idx >= block.insts.len() {
            // Terminator.
            match &block.term {
                Terminator::Jump(b) => {
                    fr.block = b.0 as usize;
                    fr.idx = 0;
                }
                Terminator::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let taken = fr.slots[cond.0 as usize].is_true();
                    fr.block = if taken {
                        then_bb.0 as usize
                    } else {
                        else_bb.0 as usize
                    };
                    fr.idx = 0;
                }
                Terminator::Ret(v) => {
                    let value = v.map(|s| fr.slots[s.0 as usize]);
                    let ret_dst = fr.ret_dst;
                    let popped = self.frames.pop().expect("frame");
                    if popped.watched {
                        if let Some(st) = &mut self.watch {
                            st.depth = st.depth.saturating_sub(1);
                            st.events.push(CallEvent {
                                enter: false,
                                func: popped.func,
                                args: Vec::new(),
                                depth: st.depth,
                            });
                        }
                    }
                    match self.frames.last_mut() {
                        Some(caller) => {
                            if let (Some(d), Some(v)) = (ret_dst, value) {
                                caller.slots[d.0 as usize] = v;
                            }
                            caller.idx += 1;
                        }
                        None => {
                            self.finished = true;
                            return Ok(StepOutcome::Finished(value));
                        }
                    }
                }
            }
            return Ok(StepOutcome::Ran { cost: 1 });
        }
        let inst = &block.insts[fr.idx].inst;
        match inst {
            Inst::Const { dst, value } => {
                fr.slots[dst.0 as usize] = match value {
                    Const::Int(v) => Value::Int(*v),
                    Const::Float(v) => Value::Float(*v),
                };
            }
            Inst::Copy { dst, src } => {
                fr.slots[dst.0 as usize] = fr.slots[src.0 as usize];
            }
            Inst::Un { dst, op, src } => {
                let v = fr.slots[src.0 as usize];
                fr.slots[dst.0 as usize] = eval_un(*op, v, fname)?;
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let a = fr.slots[lhs.0 as usize];
                let b = fr.slots[rhs.0 as usize];
                fr.slots[dst.0 as usize] = eval_bin(*op, a, b, fname)?;
            }
            Inst::Cast { dst, ty, src } => {
                let v = fr.slots[src.0 as usize];
                fr.slots[dst.0 as usize] = match (ty, v) {
                    (Type::Float, Value::Int(i)) => Value::Float(i as f64),
                    (Type::Int, Value::Float(f)) => Value::Int(f as i64),
                    _ => v,
                };
            }
            Inst::LoadG { dst, global } => {
                fr.slots[dst.0 as usize] = globals.load(*global);
            }
            Inst::StoreG { global, src } => {
                globals.store(*global, fr.slots[src.0 as usize]);
            }
            Inst::LoadElem { dst, arr, idx } => {
                let i = fr.slots[idx.0 as usize].as_int();
                fr.slots[dst.0 as usize] = match arr {
                    ArrRef::Local(a) => {
                        let arr = &fr.arrays[a.0 as usize];
                        match usize::try_from(i).ok().and_then(|i| arr.get(i)) {
                            Some(v) => *v,
                            None => {
                                return Err(ExecError::IndexOutOfBounds {
                                    func: fname.clone(),
                                    index: i,
                                    len: arr.len(),
                                    global: false,
                                })
                            }
                        }
                    }
                    ArrRef::Global(g) => {
                        globals
                            .load_elem(*g, i)
                            .map_err(|e| ExecError::IndexOutOfBounds {
                                func: fname.clone(),
                                index: e.index,
                                len: e.len,
                                global: true,
                            })?
                    }
                };
            }
            Inst::StoreElem { arr, idx, src } => {
                let i = fr.slots[idx.0 as usize].as_int();
                let v = fr.slots[src.0 as usize];
                match arr {
                    ArrRef::Local(a) => {
                        let arr = &mut fr.arrays[a.0 as usize];
                        let len = arr.len();
                        match usize::try_from(i).ok().and_then(|i| arr.get_mut(i)) {
                            Some(slot) => *slot = v,
                            None => {
                                return Err(ExecError::IndexOutOfBounds {
                                    func: fname.clone(),
                                    index: i,
                                    len,
                                    global: false,
                                })
                            }
                        }
                    }
                    ArrRef::Global(g) => {
                        globals
                            .store_elem(*g, i, v)
                            .map_err(|e| ExecError::IndexOutOfBounds {
                                func: fname.clone(),
                                index: e.index,
                                len: e.len,
                                global: true,
                            })?
                    }
                }
            }
            Inst::Call { dst, callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(match a {
                        Arg::Slot(s) => fr.slots[s.0 as usize],
                        Arg::Str(_) => Value::Int(0),
                    });
                }
                match callee {
                    Callee::Func(fid) => {
                        let callee_fn = module.func(*fid);
                        let mut frame = new_frame(callee_fn, *fid, &vals, *dst)?;
                        if let Some(st) = &mut self.watch {
                            if st.set.contains(fid) {
                                frame.watched = true;
                                st.depth += 1;
                                st.events.push(CallEvent {
                                    enter: true,
                                    func: *fid,
                                    args: vals.clone(),
                                    depth: st.depth,
                                });
                            }
                        }
                        self.frames.push(frame);
                        return Ok(StepOutcome::Ran { cost: 3 });
                    }
                    Callee::Intrinsic(iid) => {
                        // String literals only reach intrinsics, so the
                        // owned copies for `PendingSpecial` are made here
                        // rather than on every call instruction.
                        let str_args = args
                            .iter()
                            .enumerate()
                            .filter_map(|(i, a)| match a {
                                Arg::Str(s) => Some((i, s.clone())),
                                Arg::Slot(_) => None,
                            })
                            .collect();
                        // `dst` is re-read from the instruction when the
                        // executor resolves the call.
                        let _ = dst;
                        self.pending = true;
                        return Ok(StepOutcome::Special(PendingSpecial {
                            intrinsic: *iid,
                            op: runtime_op(self.module.intrinsics.name(iid.0 as usize)),
                            args: vals,
                            str_args,
                        }));
                    }
                }
            }
        }
        fr.idx += 1;
        Ok(StepOutcome::Ran { cost: 1 })
    }
}

pub(crate) fn eval_un(op: UnOp, v: Value, func: &str) -> Result<Value, ExecError> {
    Ok(match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
        (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
        (UnOp::Not, v) => Value::from(!v.is_true()),
        (UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
        (UnOp::BitNot, Value::Float(_)) => {
            return Err(ExecError::TypeError {
                func: func.to_string(),
                detail: "bitwise not on float".to_string(),
            })
        }
    })
}

pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value, func: &str) -> Result<Value, ExecError> {
    use BinOp::*;
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            Add => Value::Int(x.wrapping_add(y)),
            Sub => Value::Int(x.wrapping_sub(y)),
            Mul => Value::Int(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    return Err(ExecError::DivisionByZero {
                        func: func.to_string(),
                    });
                }
                Value::Int(x.wrapping_div(y))
            }
            Rem => {
                if y == 0 {
                    return Err(ExecError::RemainderByZero {
                        func: func.to_string(),
                    });
                }
                Value::Int(x.wrapping_rem(y))
            }
            Shl => Value::Int(x.wrapping_shl(y as u32)),
            Shr => Value::Int(((x as u64) >> (y as u32 & 63)) as i64),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
            BitAnd => Value::Int(x & y),
            BitOr => Value::Int(x | y),
            BitXor => Value::Int(x ^ y),
            And => Value::from(x != 0 && y != 0),
            Or => Value::from(x != 0 || y != 0),
        },
        (Value::Float(x), Value::Float(y)) => match op {
            Add => Value::Float(x + y),
            Sub => Value::Float(x - y),
            Mul => Value::Float(x * y),
            Div => Value::Float(x / y),
            Lt => Value::from(x < y),
            Le => Value::from(x <= y),
            Gt => Value::from(x > y),
            Ge => Value::from(x >= y),
            Eq => Value::from(x == y),
            Ne => Value::from(x != y),
            other => {
                return Err(ExecError::TypeError {
                    func: func.to_string(),
                    detail: format!("operator {} on floats", other.as_str()),
                })
            }
        },
        (a, b) => {
            return Err(ExecError::TypeError {
                func: func.to_string(),
                detail: format!("mixed operand types: {a} {} {b}", op.as_str()),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::globals::PlainGlobals;
    use commset_ir::{lower_program, IntrinsicTable};

    fn module(src: &str) -> Module {
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, IntrinsicTable::new()).unwrap()
    }

    fn try_main(src: &str) -> Result<Option<Value>, ExecError> {
        let m = module(src);
        let mut globals = PlainGlobals::new(&m);
        let mut vm = Vm::for_name(&m, "main", &[])?;
        loop {
            match vm.step(&mut globals)? {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Finished(v) => return Ok(v),
                StepOutcome::Special(_) => panic!("unexpected intrinsic"),
            }
        }
    }

    fn run_main(src: &str) -> Option<Value> {
        try_main(src).expect("program must run")
    }

    #[test]
    fn arithmetic_and_loops() {
        let v = run_main(
            "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i % 2 == 0) s += i; } return s; }",
        );
        assert_eq!(v, Some(Value::Int(20)));
    }

    #[test]
    fn function_calls_and_recursion() {
        let v = run_main(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }",
        );
        assert_eq!(v, Some(Value::Int(55)));
    }

    #[test]
    fn floats_and_casts() {
        let v = run_main(
            "int main() { float x = 1.5; float y = x * 2.0; return int(y) + int(float(3)); }",
        );
        assert_eq!(v, Some(Value::Int(6)));
    }

    #[test]
    fn globals_and_arrays() {
        let v = run_main(
            "int g = 5; int a[4]; int main() { a[0] = g; a[1] = a[0] * 2; int buf[2]; buf[1] = a[1] + 1; g = buf[1]; return g; }",
        );
        assert_eq!(v, Some(Value::Int(11)));
    }

    #[test]
    fn short_circuit_semantics() {
        // g() must not run when f() is false: detect via a global.
        let v = run_main(
            "int g = 0; int f() { return 0; } int h() { g = 1; return 1; } int main() { if (f() && h()) { return 9; } return g; }",
        );
        assert_eq!(v, Some(Value::Int(0)), "h() must not execute");
    }

    #[test]
    fn while_and_break_continue() {
        let v = run_main(
            "int main() { int s = 0; int i = 0; while (1) { i = i + 1; if (i > 10) break; if (i % 3 != 0) continue; s += i; } return s; }",
        );
        assert_eq!(v, Some(Value::Int(18)), "3 + 6 + 9");
    }

    #[test]
    fn intrinsic_pauses_machine() {
        let m = module("extern int ask(int x); int main() { return ask(21) * 2; }");
        let mut globals = PlainGlobals::new(&m);
        let mut vm = Vm::for_name(&m, "main", &[]).unwrap();
        loop {
            match vm.step(&mut globals).unwrap() {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Special(p) => {
                    assert_eq!(p.args, vec![Value::Int(21)]);
                    vm.resolve_special(Value::Int(p.args[0].as_int() + 1));
                }
                StepOutcome::Finished(v) => {
                    assert_eq!(v, Some(Value::Int(44)));
                    break;
                }
            }
        }
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let err = try_main("int main() { int z = 0; return 1 / z; }").unwrap_err();
        assert_eq!(
            err,
            ExecError::DivisionByZero {
                func: "main".into()
            }
        );
    }

    #[test]
    fn remainder_by_zero_is_an_error() {
        let err = try_main("int main() { int z = 0; return 1 % z; }").unwrap_err();
        assert_eq!(
            err,
            ExecError::RemainderByZero {
                func: "main".into()
            }
        );
    }

    #[test]
    fn array_bounds_are_an_error_with_context() {
        let err = try_main("int main() { int a[2]; a[5] = 1; return 0; }").unwrap_err();
        assert_eq!(
            err,
            ExecError::IndexOutOfBounds {
                func: "main".into(),
                index: 5,
                len: 2,
                global: false,
            }
        );
    }

    #[test]
    fn negative_index_is_an_error() {
        let err = try_main("int main() { int a[2]; int i = 0 - 1; return a[i]; }").unwrap_err();
        assert!(
            matches!(err, ExecError::IndexOutOfBounds { index: -1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn global_array_bounds_carry_context() {
        let err =
            try_main("int g[3]; int helper() { return g[7]; } int main() { return helper(); }")
                .unwrap_err();
        assert_eq!(
            err,
            ExecError::IndexOutOfBounds {
                func: "helper".into(),
                index: 7,
                len: 3,
                global: true,
            }
        );
    }

    #[test]
    fn watched_calls_record_entries_and_exits() {
        let m = module(
            "int helper(int x) { return x + 1; } int main() { int a = helper(1); return helper(a); }",
        );
        let mut globals = PlainGlobals::new(&m);
        let mut vm = Vm::for_name(&m, "main", &[]).unwrap();
        vm.watch_calls(["helper"]);
        assert_eq!(vm.watched_depth(), 0);
        let mut events = Vec::new();
        let mut max_depth = 0;
        loop {
            match vm.step(&mut globals).unwrap() {
                StepOutcome::Ran { .. } => {
                    max_depth = max_depth.max(vm.watched_depth());
                    events.extend(vm.drain_call_events());
                }
                StepOutcome::Finished(v) => {
                    assert_eq!(v, Some(Value::Int(3)));
                    break;
                }
                StepOutcome::Special(_) => panic!("unexpected intrinsic"),
            }
        }
        events.extend(vm.drain_call_events());
        assert_eq!(max_depth, 1, "helper frames are watched while active");
        assert_eq!(vm.watched_depth(), 0);
        let shape: Vec<(bool, &str)> = events
            .iter()
            .map(|e| (e.enter, m.func(e.func).name.as_str()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (true, "helper"),
                (false, "helper"),
                (true, "helper"),
                (false, "helper"),
            ]
        );
        assert_eq!(events[0].args, vec![Value::Int(1)]);
        assert_eq!(events[2].args, vec![Value::Int(2)]);
    }

    #[test]
    fn unwatched_vm_records_nothing() {
        let m = module("int helper(int x) { return x; } int main() { return helper(4); }");
        let mut globals = PlainGlobals::new(&m);
        let mut vm = Vm::for_name(&m, "main", &[]).unwrap();
        loop {
            match vm.step(&mut globals).unwrap() {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Finished(_) => break,
                StepOutcome::Special(_) => panic!("unexpected intrinsic"),
            }
        }
        assert!(vm.drain_call_events().is_empty());
    }

    #[test]
    fn unknown_entry_function_is_an_error() {
        let m = module("int main() { return 0; }");
        let err = Vm::for_name(&m, "nonexistent", &[]).err().unwrap();
        assert_eq!(
            err,
            ExecError::UnknownFunction {
                name: "nonexistent".into()
            }
        );
    }

    #[test]
    fn entry_arity_mismatch_is_an_error() {
        let m = module("int main() { return 0; }");
        let err = Vm::for_name(&m, "main", &[Value::Int(1)]).err().unwrap();
        assert!(
            matches!(
                err,
                ExecError::ArityMismatch {
                    expected: 0,
                    got: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
