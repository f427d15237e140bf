//! AST-to-IR lowering.
//!
//! Lowering happens *after* the CommSet metadata manager has outlined
//! commutative regions and cloned call paths at the AST level, so every
//! lowered function corresponds to a (possibly synthesized) Cmm function.
//! Instruction provenance keeps the statement-level PDG in sync with the
//! IR.

use crate::builder::FunctionBuilder;
use crate::effects::IntrinsicTable;
use crate::repr::*;
use commset_lang::ast::{
    AssignOp, BinOp, Block as AstBlock, Expr, ExprKind, Item, LValue, Program, Stmt, StmtKind,
    Type, UnOp,
};
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::token::Span;
use std::collections::HashMap;

/// Lowers a whole program to an IR [`Module`].
///
/// Extern declarations resolve against `intrinsics`; externs the table does
/// not know are auto-registered with a conservative effect signature
/// (read/write of the catch-all `WORLD` channel).
///
/// # Errors
///
/// Returns a diagnostic on internal type inconsistencies (a well-checked
/// program never triggers one) or on extern/intrinsic signature mismatches.
pub fn lower_program(
    program: &Program,
    mut intrinsics: IntrinsicTable,
) -> Result<Module, Diagnostic> {
    // Pass 1: ids for globals, functions and intrinsics.
    let mut func_ids: HashMap<String, FuncId> = HashMap::new();
    let mut func_sigs: HashMap<String, (Vec<Type>, Type)> = HashMap::new();
    let mut intrinsic_ids: HashMap<String, (IntrinsicId, Vec<Type>, Type)> = HashMap::new();
    let mut next_func = 0u32;
    for item in &program.items {
        match item {
            Item::Func(f) => {
                func_ids.insert(f.name.clone(), FuncId(next_func));
                func_sigs.insert(
                    f.name.clone(),
                    (f.params.iter().map(|p| p.ty).collect(), f.ret),
                );
                next_func += 1;
            }
            Item::Extern(e) => {
                let params: Vec<Type> = e.params.iter().map(|p| p.ty).collect();
                let idx = match intrinsics.lookup(&e.name) {
                    Some((idx, sig)) => {
                        if sig.params != params || sig.ret != e.ret {
                            return Err(Diagnostic::new(
                                Phase::Lower,
                                format!(
                                    "extern `{}` does not match the registered intrinsic signature",
                                    e.name
                                ),
                                e.span,
                            ));
                        }
                        idx
                    }
                    None => intrinsics.register(
                        &e.name,
                        params.clone(),
                        e.ret,
                        &["WORLD"],
                        &["WORLD"],
                        5,
                    ),
                };
                intrinsic_ids.insert(e.name.clone(), (IntrinsicId(idx as u32), params, e.ret));
            }
            _ => {}
        }
    }
    let mut module = Module::new(intrinsics);
    for item in &program.items {
        if let Item::Global(g) = item {
            let init = g.init.as_ref().map(|e| match &e.kind {
                ExprKind::IntLit(v) => Const::Int(*v),
                ExprKind::FloatLit(v) => Const::Float(*v),
                _ => unreachable!("sema enforces literal global initializers"),
            });
            module.add_global(GlobalDecl {
                name: g.name.clone(),
                ty: g.ty,
                len: g.array_len,
                init,
            });
        }
    }
    // Pass 2: lower each function.
    for item in &program.items {
        if let Item::Func(f) = item {
            let lowered = FuncLower {
                module: &module,
                func_ids: &func_ids,
                func_sigs: &func_sigs,
                intrinsic_ids: &intrinsic_ids,
                builder: FunctionBuilder::new(
                    &f.name,
                    &f.params
                        .iter()
                        .map(|p| (p.name.clone(), p.ty))
                        .collect::<Vec<_>>(),
                    f.ret,
                ),
                scopes: vec![f
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.name.clone(), Binding::Scalar(Slot(i as u32))))
                    .collect()],
                loop_targets: Vec::new(),
                array_types: HashMap::new(),
            }
            .lower(&f.body)?;
            module.add_func(lowered);
        }
    }
    Ok(module)
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Scalar(Slot),
    Array(ArrayId),
}

struct FuncLower<'a> {
    module: &'a Module,
    func_ids: &'a HashMap<String, FuncId>,
    func_sigs: &'a HashMap<String, (Vec<Type>, Type)>,
    intrinsic_ids: &'a HashMap<String, (IntrinsicId, Vec<Type>, Type)>,
    builder: FunctionBuilder,
    scopes: Vec<HashMap<String, Binding>>,
    /// (break target, continue target) per enclosing loop.
    loop_targets: Vec<(BlockId, BlockId)>,
    /// Element types of declared local arrays.
    array_types: HashMap<ArrayId, Type>,
}

impl FuncLower<'_> {
    fn lower(mut self, body: &AstBlock) -> Result<Function, Diagnostic> {
        self.lower_block(body)?;
        Ok(self.builder.finish())
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Phase::Lower, msg, span)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        for s in self.scopes.iter().rev() {
            if let Some(&b) = s.get(name) {
                return Some(b);
            }
        }
        None
    }

    /// Resolves a name to a local binding or a global.
    fn resolve(&self, name: &str, span: Span) -> Result<Resolved, Diagnostic> {
        if let Some(b) = self.lookup(name) {
            return Ok(match b {
                Binding::Scalar(s) => Resolved::Local(s),
                Binding::Array(a) => Resolved::LocalArray(a),
            });
        }
        if let Some(g) = self.module.global_id(name) {
            return Ok(if self.module.global(g).len.is_some() {
                Resolved::GlobalArray(g)
            } else {
                Resolved::Global(g)
            });
        }
        Err(self.err(format!("unresolved variable `{name}`"), span))
    }

    fn lower_block(&mut self, b: &AstBlock) -> Result<(), Diagnostic> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            if !self.builder.current_open() {
                break; // unreachable code after break/continue/return
            }
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        self.builder.set_stmt(s.id);
        match &s.kind {
            StmtKind::VarDecl {
                name,
                ty,
                array_len,
                init,
            } => {
                let binding = match array_len {
                    Some(n) => {
                        let a = self.builder.new_array(name.clone(), *ty, *n);
                        self.array_types.insert(a, *ty);
                        Binding::Array(a)
                    }
                    None => Binding::Scalar(self.builder.new_slot(name.clone(), *ty)),
                };
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), binding);
                if let (Some(init), Binding::Scalar(slot)) = (init, binding) {
                    let v = self.lower_expr(init)?;
                    self.builder.push(Inst::Copy { dst: slot, src: v });
                }
                Ok(())
            }
            StmtKind::Assign { target, op, value } => {
                self.builder.set_stmt(s.id);
                let rhs = self.lower_expr(value)?;
                self.builder.set_stmt(s.id);
                match target {
                    LValue::Var(name, span) => match self.resolve(name, *span)? {
                        Resolved::Local(slot) => {
                            let v = self.apply_compound(*op, || Ok(slot), rhs, *span)?;
                            if v != slot {
                                self.builder.push(Inst::Copy { dst: slot, src: v });
                            }
                            Ok(())
                        }
                        Resolved::Global(g) => {
                            let v = if *op == AssignOp::Set {
                                rhs
                            } else {
                                let cur = self.builder.new_temp(self.module.global(g).ty);
                                self.builder.push(Inst::LoadG {
                                    dst: cur,
                                    global: g,
                                });
                                self.compound_bin(*op, cur, rhs)
                            };
                            self.builder.push(Inst::StoreG { global: g, src: v });
                            Ok(())
                        }
                        _ => Err(self.err(format!("cannot assign array `{name}`"), *span)),
                    },
                    LValue::Index(name, idx, span) => {
                        let idx = self.lower_expr(idx)?;
                        self.builder.set_stmt(s.id);
                        let (arr, elem_ty) = match self.resolve(name, *span)? {
                            Resolved::LocalArray(a) => (ArrRef::Local(a), self.array_ty(a)),
                            Resolved::GlobalArray(g) => {
                                (ArrRef::Global(g), self.module.global(g).ty)
                            }
                            _ => return Err(self.err(format!("`{name}` is not an array"), *span)),
                        };
                        let v = if *op == AssignOp::Set {
                            rhs
                        } else {
                            let cur = self.builder.new_temp(elem_ty);
                            self.builder.push(Inst::LoadElem { dst: cur, arr, idx });
                            self.compound_bin(*op, cur, rhs)
                        };
                        self.builder.push(Inst::StoreElem { arr, idx, src: v });
                        Ok(())
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.lower_expr(cond)?;
                self.builder.set_stmt(s.id);
                let then_bb = self.builder.new_block();
                let join = self.builder.new_block();
                let else_bb = if else_branch.is_some() {
                    self.builder.new_block()
                } else {
                    join
                };
                self.builder.terminate(Terminator::Br {
                    cond: c,
                    then_bb,
                    else_bb,
                });
                self.builder.switch_to(then_bb);
                self.lower_stmt(then_branch)?;
                if self.builder.current_open() {
                    self.builder.terminate(Terminator::Jump(join));
                }
                if let Some(e) = else_branch {
                    self.builder.switch_to(else_bb);
                    self.lower_stmt(e)?;
                    if self.builder.current_open() {
                        self.builder.terminate(Terminator::Jump(join));
                    }
                }
                self.builder.switch_to(join);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let head = self.builder.new_block();
                let body_bb = self.builder.new_block();
                let exit = self.builder.new_block();
                self.builder.terminate(Terminator::Jump(head));
                self.builder.switch_to(head);
                self.builder.set_stmt(s.id);
                let c = self.lower_expr(cond)?;
                self.builder.set_stmt(s.id);
                self.builder.terminate(Terminator::Br {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.builder.switch_to(body_bb);
                self.loop_targets.push((exit, head));
                self.lower_stmt(body)?;
                self.loop_targets.pop();
                if self.builder.current_open() {
                    self.builder.terminate(Terminator::Jump(head));
                }
                self.builder.switch_to(exit);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let head = self.builder.new_block();
                let body_bb = self.builder.new_block();
                let step_bb = self.builder.new_block();
                let exit = self.builder.new_block();
                self.builder.set_stmt(s.id);
                self.builder.terminate(Terminator::Jump(head));
                self.builder.switch_to(head);
                self.builder.set_stmt(s.id);
                match cond {
                    Some(c) => {
                        let cv = self.lower_expr(c)?;
                        self.builder.set_stmt(s.id);
                        self.builder.terminate(Terminator::Br {
                            cond: cv,
                            then_bb: body_bb,
                            else_bb: exit,
                        });
                    }
                    None => self.builder.terminate(Terminator::Jump(body_bb)),
                }
                self.builder.switch_to(body_bb);
                self.loop_targets.push((exit, step_bb));
                self.lower_stmt(body)?;
                self.loop_targets.pop();
                if self.builder.current_open() {
                    self.builder.terminate(Terminator::Jump(step_bb));
                }
                self.builder.switch_to(step_bb);
                if let Some(st) = step {
                    self.lower_stmt(st)?;
                }
                self.builder.set_stmt(s.id);
                self.builder.terminate(Terminator::Jump(head));
                self.builder.switch_to(exit);
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Return(v) => {
                let slot = match v {
                    Some(e) => Some(self.lower_expr(e)?),
                    None => None,
                };
                self.builder.set_stmt(s.id);
                self.builder.terminate(Terminator::Ret(slot));
                Ok(())
            }
            StmtKind::Break => {
                let (brk, _) = *self
                    .loop_targets
                    .last()
                    .ok_or_else(|| self.err("break outside loop", s.span))?;
                self.builder.terminate(Terminator::Jump(brk));
                Ok(())
            }
            StmtKind::Continue => {
                let (_, cont) = *self
                    .loop_targets
                    .last()
                    .ok_or_else(|| self.err("continue outside loop", s.span))?;
                self.builder.terminate(Terminator::Jump(cont));
                Ok(())
            }
            StmtKind::ExprStmt(e) => {
                let ExprKind::Call(name, args) = &e.kind else {
                    return Err(self.err("expression statement must be a call", e.span));
                };
                self.lower_call(name, args, e.span, false)?;
                Ok(())
            }
            StmtKind::Block(b) => self.lower_block(b),
        }
    }

    fn array_ty(&self, a: ArrayId) -> Type {
        self.local_array_ty(a)
    }

    fn compound_bin(&mut self, op: AssignOp, cur: Slot, rhs: Slot) -> Slot {
        let bin = match op {
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Set => unreachable!(),
        };
        let dst = self.builder.new_temp(self.builder.slot_ty(cur));
        self.builder.push(Inst::Bin {
            dst,
            op: bin,
            lhs: cur,
            rhs,
        });
        dst
    }

    fn apply_compound(
        &mut self,
        op: AssignOp,
        slot: impl FnOnce() -> Result<Slot, Diagnostic>,
        rhs: Slot,
        _span: Span,
    ) -> Result<Slot, Diagnostic> {
        if op == AssignOp::Set {
            return Ok(rhs);
        }
        let cur = slot()?;
        Ok(self.compound_bin(op, cur, rhs))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Slot, Diagnostic> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let dst = self.builder.new_temp(Type::Int);
                self.builder.push(Inst::Const {
                    dst,
                    value: Const::Int(*v),
                });
                Ok(dst)
            }
            ExprKind::FloatLit(v) => {
                let dst = self.builder.new_temp(Type::Float);
                self.builder.push(Inst::Const {
                    dst,
                    value: Const::Float(*v),
                });
                Ok(dst)
            }
            ExprKind::StrLit(_) => Err(self.err(
                "string literal outside an intrinsic argument position",
                e.span,
            )),
            ExprKind::Var(name) => match self.resolve(name, e.span)? {
                Resolved::Local(s) => Ok(s),
                Resolved::Global(g) => {
                    let dst = self.builder.new_temp(self.module.global(g).ty);
                    self.builder.push(Inst::LoadG { dst, global: g });
                    Ok(dst)
                }
                _ => Err(self.err(format!("array `{name}` used as a scalar"), e.span)),
            },
            ExprKind::Unary(op, a) => {
                let v = self.lower_expr(a)?;
                let ty = match op {
                    UnOp::Neg => self.builder.slot_ty(v),
                    UnOp::Not | UnOp::BitNot => Type::Int,
                };
                let dst = self.builder.new_temp(ty);
                self.builder.push(Inst::Un {
                    dst,
                    op: *op,
                    src: v,
                });
                Ok(dst)
            }
            ExprKind::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                self.lower_short_circuit(*op, a, b)
            }
            ExprKind::Binary(op, a, b) => {
                let lhs = self.lower_expr(a)?;
                let rhs = self.lower_expr(b)?;
                let ty = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => self.builder.slot_ty(lhs),
                    _ => Type::Int,
                };
                let dst = self.builder.new_temp(ty);
                self.builder.push(Inst::Bin {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                });
                Ok(dst)
            }
            ExprKind::Call(name, args) => self
                .lower_call(name, args, e.span, true)?
                .ok_or_else(|| self.err(format!("void call `{name}` used as a value"), e.span)),
            ExprKind::Index(name, idx) => {
                let idx = self.lower_expr(idx)?;
                let (arr, ty) = match self.resolve(name, e.span)? {
                    Resolved::LocalArray(a) => (ArrRef::Local(a), self.local_array_ty(a)),
                    Resolved::GlobalArray(g) => (ArrRef::Global(g), self.module.global(g).ty),
                    _ => return Err(self.err(format!("`{name}` is not an array"), e.span)),
                };
                let dst = self.builder.new_temp(ty);
                self.builder.push(Inst::LoadElem { dst, arr, idx });
                Ok(dst)
            }
            ExprKind::Cast(ty, a) => {
                let v = self.lower_expr(a)?;
                let dst = self.builder.new_temp(*ty);
                self.builder.push(Inst::Cast {
                    dst,
                    ty: *ty,
                    src: v,
                });
                Ok(dst)
            }
        }
    }

    fn local_array_ty(&self, a: ArrayId) -> Type {
        self.array_types
            .get(&a)
            .copied()
            .expect("array declared before use")
    }

    fn lower_short_circuit(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Slot, Diagnostic> {
        let result = self.builder.new_temp(Type::Int);
        let va = self.lower_expr(a)?;
        let rhs_bb = self.builder.new_block();
        let short_bb = self.builder.new_block();
        let join = self.builder.new_block();
        match op {
            BinOp::And => self.builder.terminate(Terminator::Br {
                cond: va,
                then_bb: rhs_bb,
                else_bb: short_bb,
            }),
            BinOp::Or => self.builder.terminate(Terminator::Br {
                cond: va,
                then_bb: short_bb,
                else_bb: rhs_bb,
            }),
            _ => unreachable!(),
        }
        // Short-circuit value: 0 for `&&`, 1 for `||`.
        self.builder.switch_to(short_bb);
        self.builder.push(Inst::Const {
            dst: result,
            value: Const::Int(if op == BinOp::Or { 1 } else { 0 }),
        });
        self.builder.terminate(Terminator::Jump(join));
        // Full evaluation: result = (b != 0).
        self.builder.switch_to(rhs_bb);
        let vb = self.lower_expr(b)?;
        let zero = self.builder.new_temp(Type::Int);
        self.builder.push(Inst::Const {
            dst: zero,
            value: Const::Int(0),
        });
        self.builder.push(Inst::Bin {
            dst: result,
            op: BinOp::Ne,
            lhs: vb,
            rhs: zero,
        });
        self.builder.terminate(Terminator::Jump(join));
        self.builder.switch_to(join);
        Ok(result)
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        want_value: bool,
    ) -> Result<Option<Slot>, Diagnostic> {
        let mut lowered: Vec<Arg> = Vec::with_capacity(args.len());
        for a in args {
            if let ExprKind::StrLit(s) = &a.kind {
                lowered.push(Arg::Str(s.clone()));
            } else {
                lowered.push(Arg::Slot(self.lower_expr(a)?));
            }
        }
        let (callee, ret) = if let Some(&fid) = self.func_ids.get(name) {
            let (_, ret) = &self.func_sigs[name];
            (Callee::Func(fid), *ret)
        } else if let Some((iid, _, ret)) = self.intrinsic_ids.get(name) {
            (Callee::Intrinsic(*iid), *ret)
        } else {
            return Err(self.err(format!("call to unresolved function `{name}`"), span));
        };
        let dst = if want_value && ret != Type::Void {
            Some(self.builder.new_temp(ret))
        } else {
            None
        };
        self.builder.push(Inst::Call {
            dst,
            callee,
            args: lowered,
        });
        Ok(dst)
    }
}

enum Resolved {
    Local(Slot),
    LocalArray(ArrayId),
    Global(GlobalId),
    GlobalArray(GlobalId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_src(src: &str) -> Module {
        let unit = commset_lang::compile_unit(src).unwrap();
        lower_program(&unit.program, IntrinsicTable::new()).unwrap()
    }

    #[test]
    fn lowers_arithmetic_function() {
        let m = lower_src("int add(int a, int b) { return a + b * 2; }");
        let f = m.func(m.func_id("add").unwrap());
        assert_eq!(f.param_count, 2);
        assert!(f.inst_count() >= 3);
    }

    #[test]
    fn lowers_for_loop_with_recognizable_shape() {
        let m = lower_src(
            "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s += i; } return s; }",
        );
        let f = m.func(m.func_id("main").unwrap());
        // entry, head, body, step, exit at least.
        assert!(f.blocks.len() >= 5, "blocks = {}", f.blocks.len());
    }

    #[test]
    fn lowers_globals_and_arrays() {
        let m = lower_src(
            "int g = 7; float arr[4]; void f() { g = g + 1; arr[2] = 1.5; float x = arr[2]; }",
        );
        assert_eq!(m.globals.len(), 2);
        let f = m.func(m.func_id("f").unwrap());
        let has = |pred: &dyn Fn(&Inst) -> bool| {
            f.blocks
                .iter()
                .any(|b| b.insts.iter().any(|n| pred(&n.inst)))
        };
        assert!(has(&|i| matches!(i, Inst::LoadG { .. })));
        assert!(has(&|i| matches!(i, Inst::StoreG { .. })));
        assert!(has(&|i| matches!(
            i,
            Inst::StoreElem {
                arr: ArrRef::Global(_),
                ..
            }
        )));
        assert!(has(&|i| matches!(
            i,
            Inst::LoadElem {
                arr: ArrRef::Global(_),
                ..
            }
        )));
    }

    #[test]
    fn extern_calls_resolve_to_intrinsics() {
        let mut table = IntrinsicTable::new();
        table.register("rng_next", vec![], Type::Int, &["SEED"], &["SEED"], 10);
        let unit =
            commset_lang::compile_unit("extern int rng_next(); int main() { return rng_next(); }")
                .unwrap();
        let m = lower_program(&unit.program, table).unwrap();
        let f = m.func(m.func_id("main").unwrap());
        let call = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|n| match &n.inst {
                Inst::Call { callee, .. } => Some(*callee),
                _ => None,
            })
            .unwrap();
        assert!(matches!(call, Callee::Intrinsic(_)));
    }

    #[test]
    fn unknown_extern_gets_conservative_effects() {
        let m = lower_src("extern void mystery(int x); int main() { mystery(1); return 0; }");
        let (_, sig) = m.intrinsics.lookup("mystery").unwrap();
        assert!(!sig.is_pure());
        assert_eq!(sig.reads, sig.writes, "reads and writes WORLD");
        assert_eq!(m.intrinsics.channels.name(sig.writes[0]), "WORLD");
    }

    #[test]
    fn extern_signature_mismatch_is_error() {
        let mut table = IntrinsicTable::new();
        table.register("op", vec![Type::Int], Type::Void, &[], &["A"], 1);
        let unit = commset_lang::compile_unit("extern int op(int x); int main() { return op(1); }")
            .unwrap();
        assert!(lower_program(&unit.program, table).is_err());
    }

    #[test]
    fn short_circuit_produces_branches() {
        let m = lower_src(
            "extern int f(); extern int g(); int main() { if (f() && g()) { return 1; } return 0; }",
        );
        let main = m.func(m.func_id("main").unwrap());
        // Both calls must be in *different* blocks (g only evaluated when f
        // is true).
        let call_blocks: Vec<usize> = main
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.insts.iter().any(|n| matches!(n.inst, Inst::Call { .. })))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(call_blocks.len(), 2);
        assert_ne!(call_blocks[0], call_blocks[1]);
    }

    #[test]
    fn break_and_continue_lower_to_jumps() {
        let m = lower_src(
            "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i == 3) continue; if (i == 7) break; s += i; } return s; }",
        );
        let f = m.func(m.func_id("main").unwrap());
        assert!(f.blocks.len() >= 7);
    }

    #[test]
    fn string_args_lower_to_str() {
        let m = lower_src(
            "extern void log_msg(handle tag, int v); int main() { log_msg(\"URL\", 3); return 0; }",
        );
        let f = m.func(m.func_id("main").unwrap());
        let args = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|n| match &n.inst {
                Inst::Call { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(&args[0], Arg::Str(s) if s == "URL"));
        assert!(matches!(args[1], Arg::Slot(_)));
    }
}
