//! Shared AST code-generation helpers for the parallelizing transforms.

use commset_analysis::hotloop::HotLoop;
use commset_analysis::metadata::ManagedUnit;
use commset_lang::ast::ReductionOp;
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::token::Span;
use std::collections::{BTreeMap, BTreeSet};

/// Fresh-id counter shared by a transform invocation.
#[derive(Debug)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    /// Starts allocating at `managed.next_stmt_id`.
    pub fn new(start: u32) -> Self {
        IdGen { next: start }
    }

    /// Returns a fresh statement id.
    pub fn fresh(&mut self) -> StmtId {
        let id = StmtId(self.next);
        self.next += 1;
        id
    }

    /// The next id that would be allocated.
    pub fn watermark(&self) -> u32 {
        self.next
    }
}

// -- expression builders -----------------------------------------------------

/// Integer literal.
pub fn e_int(v: i64) -> Expr {
    Expr::new(ExprKind::IntLit(v), Span::default())
}

/// Variable reference.
pub fn e_var(name: impl Into<String>) -> Expr {
    Expr::new(ExprKind::Var(name.into()), Span::default())
}

/// Function/intrinsic call.
pub fn e_call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
    Expr::new(ExprKind::Call(name.into(), args), Span::default())
}

/// Binary operation.
pub fn e_bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::new(
        ExprKind::Binary(op, Box::new(a), Box::new(b)),
        Span::default(),
    )
}

/// Cast.
pub fn e_cast(ty: Type, e: Expr) -> Expr {
    Expr::new(ExprKind::Cast(ty, Box::new(e)), Span::default())
}

// -- statement builders -------------------------------------------------------

/// `expr;`
pub fn s_expr(ids: &mut IdGen, e: Expr) -> Stmt {
    Stmt::plain(ids.fresh(), StmtKind::ExprStmt(e), Span::default())
}

/// `ty name = init;` (or bare declaration).
pub fn s_decl(ids: &mut IdGen, name: impl Into<String>, ty: Type, init: Option<Expr>) -> Stmt {
    Stmt::plain(
        ids.fresh(),
        StmtKind::VarDecl {
            name: name.into(),
            ty,
            array_len: None,
            init,
        },
        Span::default(),
    )
}

/// `name = value;`
pub fn s_assign(ids: &mut IdGen, name: impl Into<String>, value: Expr) -> Stmt {
    Stmt::plain(
        ids.fresh(),
        StmtKind::Assign {
            target: LValue::Var(name.into(), Span::default()),
            op: AssignOp::Set,
            value,
        },
        Span::default(),
    )
}

/// `{ ... }`
pub fn s_block(ids: &mut IdGen, stmts: Vec<Stmt>) -> Stmt {
    Stmt::plain(
        ids.fresh(),
        StmtKind::Block(Block {
            stmts,
            span: Span::default(),
        }),
        Span::default(),
    )
}

/// `while (cond) { body }`
pub fn s_while(ids: &mut IdGen, cond: Expr, body: Vec<Stmt>) -> Stmt {
    let b = s_block(ids, body);
    Stmt::plain(
        ids.fresh(),
        StmtKind::While {
            cond,
            body: Box::new(b),
        },
        Span::default(),
    )
}

/// `for (init; cond; step) { body }`
pub fn s_for(ids: &mut IdGen, init: Stmt, cond: Expr, step: Stmt, body: Vec<Stmt>) -> Stmt {
    let b = s_block(ids, body);
    Stmt::plain(
        ids.fresh(),
        StmtKind::For {
            init: Some(Box::new(init)),
            cond: Some(cond),
            step: Some(Box::new(step)),
            body: Box::new(b),
        },
        Span::default(),
    )
}

/// `if (cond) { then }`
pub fn s_if(ids: &mut IdGen, cond: Expr, then: Vec<Stmt>) -> Stmt {
    let b = s_block(ids, then);
    Stmt::plain(
        ids.fresh(),
        StmtKind::If {
            cond,
            then_branch: Box::new(b),
            else_branch: None,
        },
        Span::default(),
    )
}

/// Recursively renumbers all statement ids in `s`.
pub fn renumber(s: &mut Stmt, ids: &mut IdGen) {
    s.id = ids.fresh();
    match &mut s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            renumber(then_branch, ids);
            if let Some(e) = else_branch {
                renumber(e, ids);
            }
        }
        StmtKind::While { body, .. } => renumber(body, ids),
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                renumber(i, ids);
            }
            if let Some(st) = step {
                renumber(st, ids);
            }
            renumber(body, ids);
        }
        StmtKind::Block(b) => {
            for x in &mut b.stmts {
                renumber(x, ids);
            }
        }
        _ => {}
    }
}

/// What a runtime intrinsic does: the executors' decoded view of the
/// calls the sync engine emits. Every intrinsic name outside
/// [`RUNTIME_EXTERNS`] is a world call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtOp {
    /// `__par_invoke(section)`: run a parallel section.
    ParInvoke,
    /// `__lock_acquire(l)`: take the rank-`l` CommSet lock.
    LockAcquire,
    /// `__lock_release(l)`: release the rank-`l` CommSet lock.
    LockRelease,
    /// `__q_push(q, v)` / `__q_push_f(q, v)`: enqueue on pipeline queue `q`.
    Push {
        /// The value is a float (`_f` variant).
        float: bool,
    },
    /// `__q_pop(q)` / `__q_pop_f(q)`: dequeue from pipeline queue `q`.
    Pop {
        /// The value is a float (`_f` variant).
        float: bool,
    },
    /// `__tx_begin()`: open a transaction window.
    TxBegin,
    /// `__tx_commit()`: commit the open transaction window.
    TxCommit,
}

/// The runtime intrinsics generated code relies on, with their extern
/// declarations (added to the program if not already present) and the op
/// each one decodes to. This is the only name table of the runtime
/// intrinsics: executors decode through [`runtime_op`].
pub const RUNTIME_EXTERNS: &[(&str, &str, RtOp)] = &[
    (
        "__q_push",
        "extern void __q_push(int q, int v);",
        RtOp::Push { float: false },
    ),
    (
        "__q_pop",
        "extern int __q_pop(int q);",
        RtOp::Pop { float: false },
    ),
    (
        "__q_push_f",
        "extern void __q_push_f(int q, float v);",
        RtOp::Push { float: true },
    ),
    (
        "__q_pop_f",
        "extern float __q_pop_f(int q);",
        RtOp::Pop { float: true },
    ),
    (
        "__lock_acquire",
        "extern void __lock_acquire(int l);",
        RtOp::LockAcquire,
    ),
    (
        "__lock_release",
        "extern void __lock_release(int l);",
        RtOp::LockRelease,
    ),
    ("__tx_begin", "extern void __tx_begin();", RtOp::TxBegin),
    ("__tx_commit", "extern void __tx_commit();", RtOp::TxCommit),
    (
        "__par_invoke",
        "extern void __par_invoke(int section);",
        RtOp::ParInvoke,
    ),
];

/// Decodes an intrinsic name: `Some(op)` for a runtime intrinsic, `None`
/// for a world call.
pub fn runtime_op(name: &str) -> Option<RtOp> {
    RUNTIME_EXTERNS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|(.., op)| *op)
}

/// Ensures the runtime extern declarations exist in `program`.
pub fn ensure_runtime_externs(program: &mut Program) {
    let present: BTreeSet<String> = program
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Extern(e) => Some(e.name.clone()),
            _ => None,
        })
        .collect();
    for (name, decl, _) in RUNTIME_EXTERNS {
        if present.contains(*name) {
            continue;
        }
        let tokens = commset_lang::lexer::lex(decl).expect("static extern decl lexes");
        let parsed = commset_lang::parser::parse(tokens, decl).expect("static extern decl parses");
        program.items.extend(parsed.items);
    }
}

/// Map from variable name to type for the hot function's params and locals.
///
/// # Errors
///
/// Fails if the same name is declared with two different types anywhere in
/// the function (the transforms rely on unique names in the hot function).
pub fn hot_var_types(
    managed: &ManagedUnit,
    func: &str,
) -> Result<BTreeMap<String, Type>, Diagnostic> {
    let f = managed
        .program
        .items
        .iter()
        .find_map(|i| match i {
            Item::Func(fd) if fd.name == func => Some(fd),
            _ => None,
        })
        .ok_or_else(|| Diagnostic::global(Phase::Commset, format!("missing function `{func}`")))?;
    let mut out: BTreeMap<String, Type> = BTreeMap::new();
    let mut conflict: Option<String> = None;
    for p in &f.params {
        out.insert(p.name.clone(), p.ty);
    }
    walk_stmts(&f.body, &mut |s| {
        if let StmtKind::VarDecl { name, ty, .. } = &s.kind {
            if let Some(prev) = out.insert(name.clone(), *ty) {
                if prev != *ty {
                    conflict = Some(name.clone());
                }
            }
        }
    });
    match conflict {
        Some(n) => Err(Diagnostic::global(
            Phase::Commset,
            format!("variable `{n}` is declared with two types in `{func}`; rename one for parallelization"),
        )),
        None => Ok(out),
    }
}

/// Clones the hot loop's top-level body statements from the program.
pub fn clone_body_stmts(managed: &ManagedUnit, hot: &HotLoop) -> Vec<Stmt> {
    let f = managed
        .program
        .items
        .iter()
        .find_map(|i| match i {
            Item::Func(fd) if fd.name == hot.func => Some(fd),
            _ => None,
        })
        .expect("hot function exists");
    let loop_stmt = f
        .body
        .stmts
        .iter()
        .find(|s| s.id == hot.stmt_id)
        .expect("hot loop exists");
    let body = match &loop_stmt.kind {
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => body,
        _ => unreachable!(),
    };
    match &body.kind {
        StmtKind::Block(b) => b.stmts.clone(),
        _ => vec![(**body).clone()],
    }
}

/// Checks that no scalar written by the loop body is used after the loop
/// (the transforms do not merge loop live-outs back) — except declared
/// reduction accumulators, which are merged and written back.
///
/// # Errors
///
/// Returns a diagnostic naming the offending variable.
pub fn check_no_live_outs(managed: &ManagedUnit, hot: &HotLoop) -> Result<(), Diagnostic> {
    let f = managed
        .program
        .items
        .iter()
        .find_map(|i| match i {
            Item::Func(fd) if fd.name == hot.func => Some(fd),
            _ => None,
        })
        .expect("hot function exists");
    let exempt: BTreeSet<&String> = hot.reductions.iter().map(|r| &r.var).collect();
    let written: BTreeSet<&String> = hot
        .body
        .iter()
        .flat_map(|s| &s.reg_writes)
        .filter(|v| !exempt.contains(v))
        .collect();
    let mut after = false;
    let mut used_after: BTreeSet<String> = BTreeSet::new();
    for s in &f.body.stmts {
        if s.id == hot.stmt_id {
            after = true;
            continue;
        }
        if !after {
            continue;
        }
        walk_one(s, &mut |x| {
            stmt_exprs(x, &mut |e| {
                walk_expr(e, &mut |y| {
                    if let ExprKind::Var(n) = &y.kind {
                        used_after.insert(n.clone());
                    }
                });
            });
        });
    }
    if let Some(v) = written.iter().find(|v| used_after.contains(**v)) {
        return Err(Diagnostic::global(
            Phase::Commset,
            format!(
                "loop-written variable `{v}` is used after the hot loop; parallelization does not merge live-outs"
            ),
        ));
    }
    Ok(())
}

fn walk_one(s: &Stmt, f: &mut dyn FnMut(&Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_one(then_branch, f);
            if let Some(e) = else_branch {
                walk_one(e, f);
            }
        }
        StmtKind::While { body, .. } => walk_one(body, f),
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                walk_one(i, f);
            }
            if let Some(st) = step {
                walk_one(st, f);
            }
            walk_one(body, f);
        }
        StmtKind::Block(b) => {
            for x in &b.stmts {
                walk_one(x, f);
            }
        }
        _ => {}
    }
}

/// Environment-global name for a live-in variable.
pub fn env_global(section: i64, var: &str) -> String {
    format!("__env{section}_{var}")
}

/// The identity element of a reduction.
pub fn reduction_identity(op: ReductionOp, ty: Type) -> Expr {
    use commset_lang::ast::ExprKind;
    let float = |v: f64| Expr::new(ExprKind::FloatLit(v), Span::default());
    match (op, ty) {
        (ReductionOp::Add, Type::Float) => float(0.0),
        (ReductionOp::Add, _) => e_int(0),
        (ReductionOp::Mul, Type::Float) => float(1.0),
        (ReductionOp::Mul, _) => e_int(1),
        (ReductionOp::Max, Type::Float) => float(-1.0e300),
        (ReductionOp::Max, _) => e_int(i64::MIN / 2),
        (ReductionOp::Min, Type::Float) => float(1.0e300),
        (ReductionOp::Min, _) => e_int(i64::MAX / 2),
    }
}

/// Statements merging a worker-local reduction copy into the environment
/// global, under the dedicated reduction lock.
pub fn reduction_merge(
    ids: &mut IdGen,
    op: ReductionOp,
    var: &str,
    section: i64,
    lock_id: i64,
) -> Vec<Stmt> {
    let env = env_global(section, var);
    let update = match op {
        ReductionOp::Add => s_assign(
            ids,
            env.clone(),
            e_bin(BinOp::Add, e_var(env.clone()), e_var(var)),
        ),
        ReductionOp::Mul => s_assign(
            ids,
            env.clone(),
            e_bin(BinOp::Mul, e_var(env.clone()), e_var(var)),
        ),
        ReductionOp::Max => {
            let assign = s_assign(ids, env.clone(), e_var(var));
            s_if(
                ids,
                e_bin(BinOp::Gt, e_var(var), e_var(env.clone())),
                vec![assign],
            )
        }
        ReductionOp::Min => {
            let assign = s_assign(ids, env.clone(), e_var(var));
            s_if(
                ids,
                e_bin(BinOp::Lt, e_var(var), e_var(env.clone())),
                vec![assign],
            )
        }
    };
    vec![
        s_expr(ids, e_call("__lock_acquire", vec![e_int(lock_id)])),
        update,
        s_expr(ids, e_call("__lock_release", vec![e_int(lock_id)])),
    ]
}

/// Adds one environment global per live-in, rewrites `main`'s loop into
/// env stores plus `__par_invoke(section)`, and returns the live-in list.
pub fn publish_environment(
    program: &mut Program,
    managed: &ManagedUnit,
    hot: &HotLoop,
    var_types: &BTreeMap<String, Type>,
    section: i64,
    ids: &mut IdGen,
) -> Result<Vec<(String, Type)>, Diagnostic> {
    let mut live: Vec<(String, Type)> = Vec::new();
    for v in &hot.live_ins {
        let ty = *var_types.get(v).ok_or_else(|| {
            Diagnostic::global(Phase::Commset, format!("unknown type for live-in `{v}`"))
        })?;
        live.push((v.clone(), ty));
    }
    for (v, ty) in &live {
        program.items.push(Item::Global(GlobalDecl {
            name: env_global(section, v),
            ty: *ty,
            array_len: None,
            init: None,
            span: Span::default(),
        }));
    }
    // Rewrite main: replace the loop statement.
    let f = program
        .items
        .iter_mut()
        .find_map(|i| match i {
            Item::Func(fd) if fd.name == hot.func => Some(fd),
            _ => None,
        })
        .expect("hot function exists");
    let pos = f
        .body
        .stmts
        .iter()
        .position(|s| s.id == hot.stmt_id)
        .expect("hot loop present");
    let mut replacement: Vec<Stmt> = Vec::new();
    for (v, _) in &live {
        replacement.push(s_assign(ids, env_global(section, v), e_var(v.clone())));
    }
    replacement.push(s_expr(ids, e_call("__par_invoke", vec![e_int(section)])));
    // Reduction accumulators flow back into the sequential continuation.
    for r in &hot.reductions {
        replacement.push(s_assign(
            ids,
            r.var.clone(),
            e_var(env_global(section, &r.var)),
        ));
    }
    f.body.stmts.splice(pos..=pos, replacement);
    let _ = managed;
    Ok(live)
}

/// Statements loading the live-ins a generated function needs. Declared
/// reduction accumulators initialize to the operator's identity instead of
/// loading the environment (each context accumulates privately).
pub fn live_in_loads(
    live: &[(String, Type)],
    needed: &BTreeSet<String>,
    reductions: &[ReductionPragma],
    section: i64,
    ids: &mut IdGen,
) -> Vec<Stmt> {
    live.iter()
        .filter(|(v, _)| needed.contains(v))
        .map(|(v, ty)| match reductions.iter().find(|r| &r.var == v) {
            Some(r) => s_decl(ids, v.clone(), *ty, Some(reduction_identity(r.op, *ty))),
            None => s_decl(ids, v.clone(), *ty, Some(e_var(env_global(section, v)))),
        })
        .collect()
}

/// All variable names an expression or statement list mentions.
pub fn vars_mentioned(stmts: &[Stmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in stmts {
        walk_one(s, &mut |x| {
            if let StmtKind::Assign { target, .. } = &x.kind {
                out.insert(target.name().to_string());
            }
            stmt_exprs(x, &mut |e| {
                walk_expr(e, &mut |y| match &y.kind {
                    ExprKind::Var(n) => {
                        out.insert(n.clone());
                    }
                    ExprKind::Index(n, _) => {
                        out.insert(n.clone());
                    }
                    _ => {}
                });
            });
        });
    }
    out
}

/// Variables mentioned by a single expression.
pub fn expr_vars(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_expr(e, &mut |y| {
        if let ExprKind::Var(n) = &y.kind {
            out.insert(n.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use commset_ir::IntrinsicTable;

    fn setup(src: &str) -> (ManagedUnit, HotLoop) {
        let a = Compiler::new(IntrinsicTable::new()).analyze(src).unwrap();
        (a.managed, a.hot)
    }

    #[test]
    fn publish_environment_rewrites_main() {
        let (managed, hot) = setup(
            "extern int op(int x); int main() { int n = 8; for (int i = 0; i < n; i = i + 1) { int v = op(n); } return 0; }",
        );
        let mut program = managed.program.clone();
        let var_types = hot_var_types(&managed, "main").unwrap();
        let mut ids = IdGen::new(managed.next_stmt_id);
        let live =
            publish_environment(&mut program, &managed, &hot, &var_types, 0, &mut ids).unwrap();
        assert_eq!(live, vec![("n".to_string(), Type::Int)]);
        let printed = commset_lang::printer::print_program(&program);
        assert!(printed.contains("__env0_n = n"), "{printed}");
        assert!(printed.contains("__par_invoke(0)"), "{printed}");
        assert!(!printed.contains("for ("), "loop replaced: {printed}");
    }

    #[test]
    fn live_out_detection() {
        let (managed, hot) = setup(
            "extern int op(int x); int main() { int last = 0; for (int i = 0; i < 5; i = i + 1) { last = op(i); } return last; }",
        );
        let err = check_no_live_outs(&managed, &hot).unwrap_err();
        assert!(err.message.contains("last"), "{err}");
    }

    #[test]
    fn no_live_out_when_unused_after() {
        let (managed, hot) = setup(
            "extern int op(int x); int main() { for (int i = 0; i < 5; i = i + 1) { int v = op(i); } return 0; }",
        );
        assert!(check_no_live_outs(&managed, &hot).is_ok());
    }

    #[test]
    fn runtime_externs_added_once() {
        let mut p = Program::default();
        ensure_runtime_externs(&mut p);
        let n = p.items.len();
        ensure_runtime_externs(&mut p);
        assert_eq!(p.items.len(), n);
        assert_eq!(n, RUNTIME_EXTERNS.len());
    }

    #[test]
    fn runtime_externs_decode_to_their_ops() {
        for (name, decl, op) in RUNTIME_EXTERNS {
            assert!(decl.contains(&format!(" {name}(")), "{name}: {decl}");
            assert_eq!(runtime_op(name), Some(*op), "{name}");
            match op {
                RtOp::Push { float } | RtOp::Pop { float } => {
                    assert_eq!(*float, name.ends_with("_f"), "{name}")
                }
                _ => assert!(!name.ends_with("_f"), "{name}"),
            }
        }
        let ops: BTreeSet<String> = RUNTIME_EXTERNS
            .iter()
            .map(|(.., op)| format!("{op:?}"))
            .collect();
        assert_eq!(ops.len(), RUNTIME_EXTERNS.len(), "one entry per op");
        // Everything else is a world call, `__`-prefixed user intrinsics
        // and near-misses included.
        for name in [
            "emit",
            "fs_read",
            "__user_hook",
            "__q_peek",
            "__lock",
            "__par_invoke2",
        ] {
            assert_eq!(runtime_op(name), None, "{name}");
        }
    }

    #[test]
    fn hot_var_types_collects_params_and_locals() {
        let (managed, _) = setup(
            "extern int op(int x); int main() { int n = 8; float acc = 0.0; for (int i = 0; i < n; i = i + 1) { int v = op(i); } return 0; }",
        );
        let t = hot_var_types(&managed, "main").unwrap();
        assert_eq!(t["n"], Type::Int);
        assert_eq!(t["acc"], Type::Float);
        assert_eq!(t["i"], Type::Int);
    }
}
