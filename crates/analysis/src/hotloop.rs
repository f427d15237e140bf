//! Locating the parallelization target loop and computing per-statement
//! read/write sets.
//!
//! The paper selects hot loops via runtime profiling (§4); our workloads
//! are single-hot-loop programs, so the target is the first top-level loop
//! of a designated function (by default `main`), with the Table-2 execution
//! fractions recorded in the workload descriptors.

use crate::effects::{FuncEffects, Location};
use crate::metadata::ManagedUnit;
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::token::Span;
use std::collections::{BTreeSet, HashMap};

/// Whether the loop trip structure admits static iteration scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopShape {
    /// `for (iv = init; iv < bound; iv = iv + step)` with a loop-invariant
    /// bound — DOALL-schedulable.
    Countable {
        /// Induction variable name.
        iv: String,
        /// Initial value expression.
        init: Expr,
        /// Comparison at the header (`<`, `<=`, `>`, `>=`, `!=`).
        cmp: BinOp,
        /// Loop-invariant bound expression.
        bound: Expr,
        /// Signed step.
        step: i64,
    },
    /// Any other loop (e.g. pointer chasing) — pipeline-only.
    Uncountable {
        /// The loop condition.
        cond: Expr,
    },
}

impl LoopShape {
    /// True for [`LoopShape::Countable`].
    pub fn is_countable(&self) -> bool {
        matches!(self, LoopShape::Countable { .. })
    }

    /// The induction variable name, if countable.
    pub fn iv(&self) -> Option<&str> {
        match self {
            LoopShape::Countable { iv, .. } => Some(iv),
            LoopShape::Uncountable { .. } => None,
        }
    }
}

/// One call site contributing a memory access (used by Algorithm 1 to bind
/// predicate arguments to actuals).
#[derive(Debug, Clone, PartialEq)]
pub struct CallRef {
    /// The called function.
    pub callee: String,
    /// Actual argument expressions at the call site.
    pub args: Vec<Expr>,
    /// Call location.
    pub span: Span,
}

/// One abstract memory access performed by a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct MemAccess {
    /// The location touched.
    pub loc: Location,
    /// Whether it may write.
    pub write: bool,
    /// The call responsible, or `None` for direct global/array accesses.
    pub via: Option<CallRef>,
    /// True if the location is an array declared *inside* the loop body
    /// (fresh per iteration, so never loop-carried).
    pub iter_private: bool,
    /// For instance-partitioned channels: the handle variable the access
    /// targets (None = unknown, conservative).
    pub instance: Option<String>,
}

/// A top-level statement of the hot-loop body with its dependence sets.
#[derive(Debug, Clone)]
pub struct LoopStmt {
    /// The statement id.
    pub id: StmtId,
    /// Its source span.
    pub span: Span,
    /// Short printable label (for PDG dumps and diagnostics).
    pub label: String,
    /// Scalar locals read (transitively, at this statement).
    pub reg_reads: BTreeSet<String>,
    /// Scalar locals possibly written.
    pub reg_writes: BTreeSet<String>,
    /// Scalar locals definitely written (unconditional direct assignment).
    pub must_writes: BTreeSet<String>,
    /// Abstract memory accesses.
    pub mem: Vec<MemAccess>,
    /// Estimated per-iteration weight (for pipeline balancing).
    pub weight: u64,
}

/// One write to a handle variable within the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandleWrite {
    /// Position of the writing statement in the body.
    pub pos: usize,
    /// True if the written value is a fresh instance (allocator call).
    pub fresh: bool,
    /// True if the write executes unconditionally each iteration.
    pub must: bool,
}

/// The analyzed hot loop.
#[derive(Debug, Clone)]
pub struct HotLoop {
    /// The containing function.
    pub func: String,
    /// The loop statement's id.
    pub stmt_id: StmtId,
    /// The loop statement's span.
    pub span: Span,
    /// Countable or not.
    pub shape: LoopShape,
    /// Scalar variables the loop condition reads.
    pub cond_reads: BTreeSet<String>,
    /// Top-level body statements, in order.
    pub body: Vec<LoopStmt>,
    /// Names of locals declared before the loop that the body uses
    /// (the parallel environment that codegen must pass to workers).
    pub live_ins: BTreeSet<String>,
    /// Per handle variable: its body writers, for the fresh-instance
    /// reasoning over instance-partitioned channels.
    pub handle_writers: std::collections::BTreeMap<String, Vec<HandleWrite>>,
    /// Declared reduction accumulators (`CommSetReduction`), validated:
    /// every body write is a matching update and no other statement reads
    /// the variable.
    pub reductions: Vec<ReductionPragma>,
}

fn err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Phase::Commset, msg, span)
}

/// Finds and analyzes the hot loop of `func` in the managed program.
///
/// `intrinsics` supplies the effect channels and base costs of direct
/// intrinsic calls from the loop body.
///
/// # Errors
///
/// Returns a diagnostic if the function has no top-level loop, or if the
/// loop body uses control flow the statement-level PDG cannot model
/// (top-level `break`/`continue`).
pub fn find_hot_loop(
    managed: &ManagedUnit,
    summaries: &HashMap<String, FuncEffects>,
    intrinsics: &commset_ir::IntrinsicTable,
    func: &str,
) -> Result<HotLoop, Diagnostic> {
    let f = managed
        .program
        .items
        .iter()
        .find_map(|i| match i {
            Item::Func(fd) if fd.name == func => Some(fd),
            _ => None,
        })
        .ok_or_else(|| {
            Diagnostic::global(
                Phase::Commset,
                format!("no function `{func}` to parallelize"),
            )
        })?;
    let loop_stmt = f
        .body
        .stmts
        .iter()
        .find(|s| matches!(s.kind, StmtKind::For { .. } | StmtKind::While { .. }))
        .ok_or_else(|| err(format!("`{func}` has no top-level loop"), f.span))?;

    // Locals of the enclosing function (loop-body arrays counted
    // separately) and global names.
    let globals = &managed.globals;

    let (shape, cond_reads, body_stmts) = match &loop_stmt.kind {
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let shape = classify_for(init.as_deref(), cond.as_ref(), step.as_deref(), body)
                .unwrap_or_else(|| LoopShape::Uncountable {
                    cond: cond.clone().unwrap_or_else(|| Expr::int(1)),
                });
            let mut cond_reads = BTreeSet::new();
            if let Some(c) = cond {
                collect_var_reads(c, &mut cond_reads);
            }
            (shape, cond_reads, body_as_stmts(body))
        }
        StmtKind::While { cond, body } => {
            let mut cond_reads = BTreeSet::new();
            collect_var_reads(cond, &mut cond_reads);
            (
                LoopShape::Uncountable { cond: cond.clone() },
                cond_reads,
                body_as_stmts(body),
            )
        }
        _ => unreachable!(),
    };

    // Reject top-level non-local control flow (simplifies dominance to
    // statement order).
    for s in &body_stmts {
        let mut depth = 0u32;
        let mut bad: Option<Span> = None;
        check_ctl(s, &mut depth, &mut bad);
        if let Some(sp) = bad {
            return Err(err(
                "hot-loop body uses break/continue at loop level; restructure the loop",
                sp,
            ));
        }
    }

    // Arrays declared inside the body are iteration-private.
    let mut body_arrays: BTreeSet<String> = BTreeSet::new();
    let mut body_decls: BTreeSet<String> = BTreeSet::new();
    for s in &body_stmts {
        walk_stmt(s, &mut |x| {
            if let StmtKind::VarDecl {
                name, array_len, ..
            } = &x.kind
            {
                body_decls.insert(name.clone());
                if array_len.is_some() {
                    body_arrays.insert(name.clone());
                }
            }
        });
    }
    // Arrays declared before the loop in the hot function.
    let mut outer_arrays: BTreeSet<String> = BTreeSet::new();
    for s in &f.body.stmts {
        if s.id == loop_stmt.id {
            break;
        }
        walk_stmt(s, &mut |x| {
            if let StmtKind::VarDecl {
                name,
                array_len: Some(_),
                ..
            } = &x.kind
            {
                outer_arrays.insert(name.clone());
            }
        });
    }

    let mut body = Vec::new();
    for (idx, s) in body_stmts.iter().enumerate() {
        body.push(analyze_stmt(
            s,
            idx,
            summaries,
            intrinsics,
            &managed.sigs,
            globals,
            &body_arrays,
            &outer_arrays,
        ));
    }

    // Live-ins: names read anywhere in the body (or by predicates/cond)
    // that are not declared in the body and are not globals.
    let mut used: BTreeSet<String> = cond_reads.clone();
    for st in &body {
        used.extend(st.reg_reads.iter().cloned());
        used.extend(st.reg_writes.iter().cloned());
    }
    let iv_name = shape.iv().map(str::to_string);
    let live_ins: BTreeSet<String> = used
        .into_iter()
        .filter(|n| {
            !body_decls.contains(n)
                && !globals.contains_key(n)
                && Some(n.as_str()) != iv_name.as_deref()
        })
        .collect();

    // Handle-variable writers (fresh-instance reasoning for
    // instance-partitioned channels).
    let fresh_fns = crate::effects::fresh_functions(&managed.program, intrinsics);
    let is_fresh_call = |name: &str| intrinsics.is_fresh_handle(name) || fresh_fns.contains(name);
    let mut handle_writers: std::collections::BTreeMap<String, Vec<HandleWrite>> =
        std::collections::BTreeMap::new();
    for (pos, stmt_ast) in body_stmts.iter().enumerate() {
        for v in &body[pos].reg_writes {
            let fresh = match &stmt_ast.kind {
                StmtKind::Assign {
                    target: LValue::Var(name, _),
                    op: AssignOp::Set,
                    value:
                        Expr {
                            kind: ExprKind::Call(f, _),
                            ..
                        },
                } if name == v => is_fresh_call(f),
                StmtKind::VarDecl {
                    name,
                    init:
                        Some(Expr {
                            kind: ExprKind::Call(f, _),
                            ..
                        }),
                    ..
                } if name == v => is_fresh_call(f),
                _ => false,
            };
            handle_writers
                .entry(v.clone())
                .or_default()
                .push(HandleWrite {
                    pos,
                    fresh,
                    must: body[pos].must_writes.contains(v),
                });
        }
    }

    // Validate declared reductions: each body write of the accumulator is
    // an update matching the declared operator, and nothing else reads it.
    for r in &loop_stmt.reductions {
        if cond_reads.contains(&r.var) {
            return Err(err(
                format!(
                    "reduction variable `{}` cannot steer the loop condition",
                    r.var
                ),
                r.span,
            ));
        }
        for (pos, st) in body_stmts.iter().enumerate() {
            let writes = body[pos].reg_writes.contains(&r.var);
            let reads = body[pos].reg_reads.contains(&r.var);
            if writes {
                if !is_reduction_update(st, &r.var, r.op) {
                    return Err(err(
                        format!(
                            "statement updates reduction variable `{}` with a form that does not match `{}`",
                            r.var,
                            r.op.as_str()
                        ),
                        st.span,
                    ));
                }
            } else if reads {
                return Err(err(
                    format!(
                        "reduction variable `{}` is read outside its updates; partial sums would be observable",
                        r.var
                    ),
                    st.span,
                ));
            }
        }
    }

    Ok(HotLoop {
        func: func.to_string(),
        stmt_id: loop_stmt.id,
        span: loop_stmt.span,
        shape,
        cond_reads,
        body,
        live_ins,
        handle_writers,
        reductions: loop_stmt.reductions.clone(),
    })
}

/// Recognizes the update forms a reduction permits: `v += e` / `v = v + e`
/// / `v = e + v` (Add), the `*` analogues (Mul), and the guarded-copy
/// pattern `if (x > v) v = x;` (Max) / `if (x < v) v = x;` (Min), with `e`
/// not reading `v`.
fn is_reduction_update(s: &Stmt, var: &str, op: ReductionOp) -> bool {
    let rhs_avoids_var = |e: &Expr| {
        let mut reads = BTreeSet::new();
        collect_var_reads(e, &mut reads);
        !reads.contains(var)
    };
    match (&s.kind, op) {
        (
            StmtKind::Assign {
                target: LValue::Var(v, _),
                op: AssignOp::Add,
                value,
            },
            ReductionOp::Add,
        ) if v == var => rhs_avoids_var(value),
        (
            StmtKind::Assign {
                target: LValue::Var(v, _),
                op: AssignOp::Mul,
                value,
            },
            ReductionOp::Mul,
        ) if v == var => rhs_avoids_var(value),
        (
            StmtKind::Assign {
                target: LValue::Var(v, _),
                op: AssignOp::Set,
                value,
            },
            ReductionOp::Add,
        ) if v == var => {
            matches!(&value.kind,
                ExprKind::Binary(BinOp::Add, a, b)
                    if (matches!(&a.kind, ExprKind::Var(x) if x == var) && rhs_avoids_var(b))
                        || (matches!(&b.kind, ExprKind::Var(x) if x == var) && rhs_avoids_var(a)))
        }
        (
            StmtKind::Assign {
                target: LValue::Var(v, _),
                op: AssignOp::Set,
                value,
            },
            ReductionOp::Mul,
        ) if v == var => {
            matches!(&value.kind,
                ExprKind::Binary(BinOp::Mul, a, b)
                    if (matches!(&a.kind, ExprKind::Var(x) if x == var) && rhs_avoids_var(b))
                        || (matches!(&b.kind, ExprKind::Var(x) if x == var) && rhs_avoids_var(a)))
        }
        (
            StmtKind::If {
                cond,
                then_branch,
                else_branch: None,
            },
            ReductionOp::Max | ReductionOp::Min,
        ) => {
            let guard_ok = match (&cond.kind, op) {
                (ExprKind::Binary(BinOp::Gt, a, b), ReductionOp::Max)
                | (ExprKind::Binary(BinOp::Lt, a, b), ReductionOp::Min) => {
                    rhs_avoids_var(a) && matches!(&b.kind, ExprKind::Var(x) if x == var)
                }
                _ => false,
            };
            let assign_ok = |st: &Stmt| {
                matches!(&st.kind,
                    StmtKind::Assign { target: LValue::Var(v, _), op: AssignOp::Set, value }
                        if v == var && rhs_avoids_var(value))
            };
            let body_ok = match &then_branch.kind {
                StmtKind::Block(b) => b.stmts.len() == 1 && assign_ok(&b.stmts[0]),
                _ => assign_ok(then_branch),
            };
            guard_ok && body_ok
        }
        _ => false,
    }
}

fn body_as_stmts(body: &Stmt) -> Vec<Stmt> {
    match &body.kind {
        StmtKind::Block(b) => b.stmts.clone(),
        _ => vec![body.clone()],
    }
}

/// Recognizes the countable-for shape at the AST level.
fn classify_for(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Stmt>,
    body: &Stmt,
) -> Option<LoopShape> {
    let init = init?;
    let (iv, init_expr) = match &init.kind {
        StmtKind::VarDecl {
            name,
            ty: Type::Int,
            array_len: None,
            init: Some(e),
        } => (name.clone(), e.clone()),
        StmtKind::Assign {
            target: LValue::Var(name, _),
            op: AssignOp::Set,
            value,
        } => (name.clone(), value.clone()),
        _ => return None,
    };
    let cond = cond?;
    let ExprKind::Binary(cmp, lhs, rhs) = &cond.kind else {
        return None;
    };
    if !matches!(
        cmp,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Ne
    ) {
        return None;
    }
    let (cmp, bound) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Var(n), _) if *n == iv => (*cmp, (**rhs).clone()),
        (_, ExprKind::Var(n)) if *n == iv => (flip(*cmp), (**lhs).clone()),
        _ => return None,
    };
    let step_stmt = step?;
    let step_val = match &step_stmt.kind {
        StmtKind::Assign {
            target: LValue::Var(n, _),
            op: AssignOp::Add,
            value:
                Expr {
                    kind: ExprKind::IntLit(c),
                    ..
                },
        } if *n == iv => *c,
        StmtKind::Assign {
            target: LValue::Var(n, _),
            op: AssignOp::Sub,
            value:
                Expr {
                    kind: ExprKind::IntLit(c),
                    ..
                },
        } if *n == iv => -*c,
        StmtKind::Assign {
            target: LValue::Var(n, _),
            op: AssignOp::Set,
            value:
                Expr {
                    kind: ExprKind::Binary(op, a, b),
                    ..
                },
        } if *n == iv => match (op, &a.kind, &b.kind) {
            (BinOp::Add, ExprKind::Var(v), ExprKind::IntLit(c)) if *v == iv => *c,
            (BinOp::Add, ExprKind::IntLit(c), ExprKind::Var(v)) if *v == iv => *c,
            (BinOp::Sub, ExprKind::Var(v), ExprKind::IntLit(c)) if *v == iv => -*c,
            _ => return None,
        },
        _ => return None,
    };
    if step_val == 0 {
        return None;
    }
    // The bound and the IV must not be written in the body; the IV must not
    // be written either (beyond the step).
    let mut bound_vars = BTreeSet::new();
    collect_var_reads(&bound, &mut bound_vars);
    bound_vars.insert(iv.clone());
    let mut violated = false;
    walk_stmt(body, &mut |x| {
        if let StmtKind::Assign { target, .. } = &x.kind {
            if bound_vars.contains(target.name()) {
                violated = true;
            }
        }
        if let StmtKind::VarDecl { name, .. } = &x.kind {
            // Shadowing declarations make invariance analysis murky; treat
            // as violation only for the IV itself.
            if *name == iv {
                violated = true;
            }
        }
    });
    if violated {
        return None;
    }
    Some(LoopShape::Countable {
        iv,
        init: init_expr,
        cmp,
        bound,
        step: step_val,
    })
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn check_ctl(s: &Stmt, depth: &mut u32, bad: &mut Option<Span>) {
    match &s.kind {
        StmtKind::Break | StmtKind::Continue if *depth == 0 && bad.is_none() => {
            *bad = Some(s.span);
        }
        StmtKind::While { body, .. } => {
            *depth += 1;
            check_ctl(body, depth, bad);
            *depth -= 1;
        }
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                check_ctl(i, depth, bad);
            }
            if let Some(st) = step {
                check_ctl(st, depth, bad);
            }
            *depth += 1;
            check_ctl(body, depth, bad);
            *depth -= 1;
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            check_ctl(then_branch, depth, bad);
            if let Some(e) = else_branch {
                check_ctl(e, depth, bad);
            }
        }
        StmtKind::Block(b) => {
            for x in &b.stmts {
                check_ctl(x, depth, bad);
            }
        }
        _ => {}
    }
}

fn collect_var_reads(e: &Expr, out: &mut BTreeSet<String>) {
    walk_expr(e, &mut |x| {
        if let ExprKind::Var(n) = &x.kind {
            out.insert(n.clone());
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn analyze_stmt(
    s: &Stmt,
    idx: usize,
    summaries: &HashMap<String, FuncEffects>,
    intrinsics: &commset_ir::IntrinsicTable,
    sigs: &HashMap<String, commset_lang::sema::FuncSig>,
    globals: &HashMap<String, (Type, Option<usize>)>,
    body_arrays: &BTreeSet<String>,
    outer_arrays: &BTreeSet<String>,
) -> LoopStmt {
    // Names declared inside this statement's subtree are private to it —
    // except a name declared by the statement itself at top level, which is
    // visible to sibling statements.
    let mut declared: BTreeSet<String> = BTreeSet::new();
    walk_stmt(s, &mut |x| {
        if let StmtKind::VarDecl { name, .. } = &x.kind {
            declared.insert(name.clone());
        }
    });
    if let StmtKind::VarDecl { name, .. } = &s.kind {
        declared.remove(name);
    }
    let is_scalar_local =
        |n: &str| !globals.contains_key(n) && !body_arrays.contains(n) && !outer_arrays.contains(n);

    // Statement-private handle aliases (e.g. an inlined callee's renamed
    // parameter `handle __inl0_fp = fp;`): resolve instance attribution
    // through single-assignment copy chains back to the enclosing scope.
    let mut alias: HashMap<String, String> = HashMap::new();
    let mut private_write_counts: HashMap<String, u32> = HashMap::new();
    walk_stmt(s, &mut |x| match &x.kind {
        StmtKind::VarDecl {
            name,
            init:
                Some(Expr {
                    kind: ExprKind::Var(src),
                    ..
                }),
            ..
        } if declared.contains(name) => {
            alias.insert(name.clone(), src.clone());
            *private_write_counts.entry(name.clone()).or_insert(0) += 1;
        }
        StmtKind::VarDecl { name, init, .. } if declared.contains(name) && init.is_some() => {
            *private_write_counts.entry(name.clone()).or_insert(0) += 1;
        }
        StmtKind::Assign { target, .. } if declared.contains(target.name()) => {
            *private_write_counts
                .entry(target.name().to_string())
                .or_insert(0) += 1;
        }
        _ => {}
    });
    let canonical_instance = move |mut v: String| -> String {
        let mut hops = 0;
        while let Some(src) = alias.get(&v) {
            if private_write_counts.get(&v).copied().unwrap_or(0) != 1 || hops > 8 {
                break;
            }
            v = src.clone();
            hops += 1;
        }
        v
    };

    let mut reg_reads = BTreeSet::new();
    let mut reg_writes = BTreeSet::new();
    let mut must_writes = BTreeSet::new();
    let mut mem: Vec<MemAccess> = Vec::new();
    let mut weight: u64 = 0;
    if let StmtKind::VarDecl {
        name,
        init: Some(_),
        ..
    } = &s.kind
    {
        if is_scalar_local(name) {
            reg_writes.insert(name.clone());
        }
    }

    // Direct must-writes: unconditional top-level assignment.
    match &s.kind {
        StmtKind::Assign { target, .. }
            if is_scalar_local(target.name()) && matches!(target, LValue::Var(..)) =>
        {
            must_writes.insert(target.name().to_string());
        }
        StmtKind::VarDecl {
            name,
            init: Some(_),
            ..
        } => {
            must_writes.insert(name.clone());
        }
        StmtKind::Block(b) => {
            // A top-level block: its direct children execute
            // unconditionally too.
            for c in &b.stmts {
                if let StmtKind::Assign {
                    target: LValue::Var(n, _),
                    ..
                } = &c.kind
                {
                    if is_scalar_local(n) && !declared.contains(n) {
                        must_writes.insert(n.clone());
                    }
                }
            }
        }
        _ => {}
    }

    walk_stmt(s, &mut |x| {
        weight += 1;
        if let StmtKind::Assign { target, op, .. } = &x.kind {
            let n = target.name();
            match target {
                LValue::Var(..) => {
                    if declared.contains(n) {
                        // private to the statement
                    } else if globals.contains_key(n) {
                        mem.push(MemAccess {
                            loc: Location::Global(n.to_string()),
                            write: true,
                            via: None,
                            iter_private: false,
                            instance: None,
                        });
                        if *op != AssignOp::Set {
                            mem.push(MemAccess {
                                loc: Location::Global(n.to_string()),
                                write: false,
                                via: None,
                                iter_private: false,
                                instance: None,
                            });
                        }
                    } else {
                        reg_writes.insert(n.to_string());
                        if *op != AssignOp::Set {
                            reg_reads.insert(n.to_string());
                        }
                    }
                }
                LValue::Index(..) => {
                    if !declared.contains(n) {
                        let (loc, priv_) = array_loc(n, globals, body_arrays);
                        mem.push(MemAccess {
                            loc: loc.clone(),
                            write: true,
                            via: None,
                            iter_private: priv_,
                            instance: None,
                        });
                        if *op != AssignOp::Set {
                            mem.push(MemAccess {
                                loc,
                                write: false,
                                via: None,
                                iter_private: priv_,
                                instance: None,
                            });
                        }
                    }
                }
            }
        }
        stmt_exprs(x, &mut |e| {
            walk_expr(e, &mut |y| match &y.kind {
                ExprKind::Var(n) => {
                    if declared.contains(n) {
                    } else if globals.contains_key(n) {
                        mem.push(MemAccess {
                            loc: Location::Global(n.clone()),
                            write: false,
                            via: None,
                            iter_private: false,
                            instance: None,
                        });
                    } else {
                        reg_reads.insert(n.clone());
                    }
                }
                ExprKind::Index(n, _) if !declared.contains(n) => {
                    let (loc, priv_) = array_loc(n, globals, body_arrays);
                    mem.push(MemAccess {
                        loc,
                        write: false,
                        via: None,
                        iter_private: priv_,
                        instance: None,
                    });
                }
                ExprKind::Call(name, args) => {
                    let call = CallRef {
                        callee: name.clone(),
                        args: args.clone(),
                        span: y.span,
                    };
                    // For instance-partitioned channels: which handle
                    // variable does this call target? Attribution follows
                    // the callee's first handle-typed parameter (regions
                    // and intrinsics alike pass the instance there).
                    let handle_param_pos =
                        |param_tys: &[Type]| param_tys.iter().position(|t| *t == Type::Handle);
                    let instance_of = |pos: Option<usize>| -> Option<String> {
                        let p = pos?;
                        match args.get(p).map(|a| &a.kind) {
                            Some(ExprKind::Var(v)) => Some(canonical_instance(v.clone())),
                            _ => None,
                        }
                    };
                    if let Some(fx) = summaries.get(name) {
                        weight += 20;
                        let inst = instance_of(sigs.get(name).and_then(|s| {
                            handle_param_pos(&s.params.iter().map(|(_, t)| *t).collect::<Vec<_>>())
                        }));
                        let instance_for = |loc: &Location| -> Option<String> {
                            match loc {
                                Location::Channel(c) if intrinsics.is_per_instance_name(c) => {
                                    inst.clone()
                                }
                                _ => None,
                            }
                        };
                        for r in &fx.reads {
                            mem.push(MemAccess {
                                loc: r.clone(),
                                write: false,
                                via: Some(call.clone()),
                                iter_private: false,
                                instance: instance_for(r),
                            });
                        }
                        for w in &fx.writes {
                            mem.push(MemAccess {
                                loc: w.clone(),
                                write: true,
                                via: Some(call.clone()),
                                iter_private: false,
                                instance: instance_for(w),
                            });
                        }
                    } else {
                        // Intrinsic.
                        match intrinsics.lookup(name) {
                            Some((_, sig)) => {
                                weight += sig.base_cost;
                                let inst = instance_of(handle_param_pos(&sig.params));
                                for c in &sig.reads {
                                    mem.push(MemAccess {
                                        loc: Location::Channel(
                                            intrinsics.channels.name(*c).to_string(),
                                        ),
                                        write: false,
                                        via: Some(call.clone()),
                                        iter_private: false,
                                        instance: if intrinsics.is_per_instance(*c) {
                                            inst.clone()
                                        } else {
                                            None
                                        },
                                    });
                                }
                                for c in &sig.writes {
                                    mem.push(MemAccess {
                                        loc: Location::Channel(
                                            intrinsics.channels.name(*c).to_string(),
                                        ),
                                        write: true,
                                        via: Some(call.clone()),
                                        iter_private: false,
                                        instance: if intrinsics.is_per_instance(*c) {
                                            inst.clone()
                                        } else {
                                            None
                                        },
                                    });
                                }
                            }
                            None => {
                                weight += 5;
                                for write in [false, true] {
                                    mem.push(MemAccess {
                                        loc: Location::Channel("WORLD".to_string()),
                                        write,
                                        via: Some(call.clone()),
                                        iter_private: false,
                                        instance: None,
                                    });
                                }
                            }
                        }
                    }
                }
                _ => {}
            });
        });
    });

    let label = format!("S{idx}");
    LoopStmt {
        id: s.id,
        span: s.span,
        label,
        reg_reads,
        reg_writes,
        must_writes,
        mem,
        weight: weight.max(1),
    }
}

fn array_loc(
    n: &str,
    globals: &HashMap<String, (Type, Option<usize>)>,
    body_arrays: &BTreeSet<String>,
) -> (Location, bool) {
    if globals.contains_key(n) {
        (Location::GlobalArray(n.to_string()), false)
    } else {
        (Location::LocalArray(n.to_string()), body_arrays.contains(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::manage;
    use commset_ir::IntrinsicTable;

    fn setup(src: &str) -> (ManagedUnit, HashMap<String, FuncEffects>, IntrinsicTable) {
        let mut table = IntrinsicTable::new();
        table.register("fs_open", vec![Type::Int], Type::Handle, &[], &["FS"], 50);
        table.register("fs_close", vec![Type::Handle], Type::Void, &[], &["FS"], 30);
        table.register(
            "compute",
            vec![Type::Handle],
            Type::Int,
            &["FS_DATA"],
            &[],
            500,
        );
        table.register(
            "print_digest",
            vec![Type::Int],
            Type::Void,
            &[],
            &["CONSOLE"],
            40,
        );
        table.register(
            "ll_next",
            vec![Type::Handle],
            Type::Handle,
            &["GRAPH"],
            &[],
            10,
        );
        let unit = commset_lang::compile_unit(src).unwrap();
        let managed = manage(unit).unwrap();
        let summaries = crate::effects::summarize(&managed.program, &table);
        (managed, summaries, table)
    }

    const MD5ISH: &str = r#"
        extern handle fs_open(int idx);
        extern void fs_close(handle fp);
        extern int compute(handle fp);
        extern void print_digest(int d);
        int main() {
            int n = 10;
            for (int i = 0; i < n; i = i + 1) {
                handle fp = fs_open(i);
                int d = compute(fp);
                print_digest(d);
                fs_close(fp);
            }
            return 0;
        }
    "#;

    #[test]
    fn finds_countable_loop() {
        let (managed, summ, table) = setup(MD5ISH);
        let hot = find_hot_loop(&managed, &summ, &table, "main").unwrap();
        assert!(hot.shape.is_countable());
        assert_eq!(hot.shape.iv(), Some("i"));
        assert_eq!(hot.body.len(), 4);
        assert!(hot.live_ins.contains("n") || hot.cond_reads.contains("n"));
    }

    #[test]
    fn stmt_effects_attribute_calls() {
        let (managed, summ, table) = setup(MD5ISH);
        let hot = find_hot_loop(&managed, &summ, &table, "main").unwrap();
        let open = &hot.body[0];
        assert!(open
            .mem
            .iter()
            .any(|a| a.loc == Location::Channel("FS".into()) && a.write));
        assert_eq!(open.mem[0].via.as_ref().unwrap().callee, "fs_open");
        assert!(open.reg_writes.contains("fp"));
        let digest = &hot.body[2];
        assert!(digest.reg_reads.contains("d"));
        assert!(digest
            .mem
            .iter()
            .any(|a| a.loc == Location::Channel("CONSOLE".into())));
    }

    #[test]
    fn while_loop_is_uncountable() {
        let (managed, summ, table) = setup(
            r#"
            extern handle ll_next(handle h);
            int main() {
                handle node = handle(1);
                while (int(node) != 0) {
                    node = ll_next(node);
                }
                return 0;
            }
            "#,
        );
        let hot = find_hot_loop(&managed, &summ, &table, "main").unwrap();
        assert!(!hot.shape.is_countable());
        assert!(hot.cond_reads.contains("node"));
        assert_eq!(hot.body.len(), 1);
        assert!(hot.body[0].must_writes.contains("node"));
    }

    #[test]
    fn body_written_bound_is_uncountable() {
        let (managed, summ, table) = setup(
            "int main() { int n = 10; for (int i = 0; i < n; i = i + 1) { n = n - 1; } return n; }",
        );
        let hot = find_hot_loop(&managed, &summ, &table, "main").unwrap();
        assert!(!hot.shape.is_countable());
    }

    #[test]
    fn top_level_break_is_rejected() {
        let (managed, summ, table) = setup(
            "int main() { for (int i = 0; i < 9; i = i + 1) { if (i == 3) break; } return 0; }",
        );
        // The break sits inside an `if` at top level — still loop-level.
        assert!(find_hot_loop(&managed, &summ, &table, "main").is_err());
    }

    #[test]
    fn no_loop_is_an_error() {
        let (managed, summ, table) = setup("int main() { return 0; }");
        assert!(find_hot_loop(&managed, &summ, &table, "main").is_err());
    }

    #[test]
    fn body_declared_arrays_are_iter_private() {
        let (managed, summ, table) = setup(
            "int main() { for (int i = 0; i < 4; i = i + 1) { int buf[8]; buf[0] = i; int x = buf[0]; } return 0; }",
        );
        let hot = find_hot_loop(&managed, &summ, &table, "main").unwrap();
        // Array accesses appear but are iteration-private... except they are
        // declared inside the same top-level statement (the VarDecl is its
        // own statement), so accesses in later statements reference it.
        let writes: Vec<&MemAccess> = hot
            .body
            .iter()
            .flat_map(|s| &s.mem)
            .filter(|a| matches!(a.loc, Location::LocalArray(_)))
            .collect();
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|a| a.iter_private));
    }
}
