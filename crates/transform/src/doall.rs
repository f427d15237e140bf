//! The DOALL transform (paper §4.5): static cyclic scheduling of loop
//! iterations onto worker threads, legal once the relaxed PDG has no
//! effective loop-carried dependence and the loop is countable.

use crate::codegen::*;
use crate::plan::*;
use crate::sync::SyncEngine;
use commset_analysis::hotloop::{HotLoop, LoopShape};
use commset_analysis::metadata::ManagedUnit;
use commset_analysis::pdg::Pdg;
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::token::Span;
use std::collections::BTreeSet;

fn err(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::global(Phase::Commset, msg)
}

/// Applies DOALL with `nthreads` workers, cyclic iteration distribution
/// and the given sync mode.
///
/// # Errors
///
/// Fails when the loop is not countable, when effective loop-carried
/// dependences remain, when the loop has scalar live-outs, or when TM mode
/// is requested for members performing irrevocable I/O.
#[allow(clippy::too_many_arguments)]
pub fn apply_doall(
    managed: &ManagedUnit,
    hot: &HotLoop,
    pdg: &Pdg,
    summaries: &std::collections::HashMap<String, commset_analysis::effects::FuncEffects>,
    irrevocable: &BTreeSet<String>,
    nthreads: usize,
    sync: SyncMode,
    section: i64,
) -> Result<ParallelProgram, Diagnostic> {
    apply_doall_scheduled(
        managed,
        hot,
        pdg,
        summaries,
        irrevocable,
        nthreads,
        sync,
        section,
        IterSchedule::Cyclic,
    )
}

/// [`apply_doall`] with an explicit iteration schedule (used by the
/// scheduling ablation).
///
/// # Errors
///
/// As [`apply_doall`]; additionally, `Blocked` requires a `<`/`<=` bound
/// with a positive step.
#[allow(clippy::too_many_arguments)]
pub fn apply_doall_scheduled(
    managed: &ManagedUnit,
    hot: &HotLoop,
    pdg: &Pdg,
    summaries: &std::collections::HashMap<String, commset_analysis::effects::FuncEffects>,
    irrevocable: &BTreeSet<String>,
    nthreads: usize,
    sync: SyncMode,
    section: i64,
    schedule: IterSchedule,
) -> Result<ParallelProgram, Diagnostic> {
    let LoopShape::Countable {
        iv,
        init,
        cmp,
        bound,
        step,
    } = &hot.shape
    else {
        return Err(err("DOALL requires a countable loop"));
    };
    if *cmp == BinOp::Ne {
        return Err(err("DOALL does not support `!=` loop bounds"));
    }
    if !pdg.doall_legal() {
        let inhibitors: Vec<String> = pdg
            .inhibitors()
            .iter()
            .map(|e| {
                format!(
                    "{} -> {}",
                    pdg.nodes[e.src.0].label, pdg.nodes[e.dst.0].label
                )
            })
            .collect();
        return Err(err(format!(
            "DOALL illegal: loop-carried dependences remain ({})",
            inhibitors.join(", ")
        )));
    }
    check_no_live_outs(managed, hot)?;
    let engine = SyncEngine::new(managed, sync);
    engine.check_tm_applicable(managed, summaries, irrevocable)?;

    let mut ids = IdGen::new(managed.next_stmt_id);
    let mut program = managed.program.clone();
    ensure_runtime_externs(&mut program);
    let var_types = hot_var_types(managed, &hot.func)?;
    let live = publish_environment(&mut program, managed, hot, &var_types, section, &mut ids)?;

    // Worker: for (iv = init + tid*step; iv cmp bound; iv += step*nt) body.
    let worker_name = format!("__par{section}_doall");
    let mut body_stmts = clone_body_stmts(managed, hot);
    for s in &mut body_stmts {
        renumber(s, &mut ids);
    }
    let mut needed: BTreeSet<String> = vars_mentioned(&body_stmts);
    needed.extend(expr_vars(init));
    needed.extend(expr_vars(bound));
    let mut stmts = live_in_loads(&live, &needed, &hot.reductions, section, &mut ids);
    match schedule {
        IterSchedule::Cyclic => {
            // for (iv = init + tid*step; iv cmp bound; iv += step*nt) body
            let init_stmt = s_decl(
                &mut ids,
                iv.clone(),
                Type::Int,
                Some(e_bin(
                    BinOp::Add,
                    init.clone(),
                    e_bin(BinOp::Mul, e_var("__tid"), e_int(*step)),
                )),
            );
            let cond = e_bin(*cmp, e_var(iv.clone()), bound.clone());
            let step_stmt = Stmt::plain(
                ids.fresh(),
                StmtKind::Assign {
                    target: LValue::Var(iv.clone(), Span::default()),
                    op: AssignOp::Add,
                    value: e_bin(BinOp::Mul, e_int(*step), e_var("__nt")),
                },
                Span::default(),
            );
            stmts.push(s_for(&mut ids, init_stmt, cond, step_stmt, body_stmts));
        }
        IterSchedule::Blocked => {
            if !matches!(cmp, BinOp::Lt | BinOp::Le) || *step <= 0 {
                return Err(err(
                    "blocked DOALL scheduling requires an ascending `<`/`<=` loop",
                ));
            }
            // __total = ceil((bound [+1 for <=] - init) / step)
            let span_expr = {
                let upper = if *cmp == BinOp::Le {
                    e_bin(BinOp::Add, bound.clone(), e_int(1))
                } else {
                    bound.clone()
                };
                e_bin(BinOp::Sub, upper, init.clone())
            };
            stmts.push(s_decl(
                &mut ids,
                "__total",
                Type::Int,
                Some(e_bin(
                    BinOp::Div,
                    e_bin(BinOp::Add, span_expr, e_int(*step - 1)),
                    e_int(*step),
                )),
            ));
            stmts.push(s_decl(
                &mut ids,
                "__chunk",
                Type::Int,
                Some(e_bin(
                    BinOp::Div,
                    e_bin(
                        BinOp::Sub,
                        e_bin(BinOp::Add, e_var("__total"), e_var("__nt")),
                        e_int(1),
                    ),
                    e_var("__nt"),
                )),
            ));
            stmts.push(s_decl(
                &mut ids,
                "__hi",
                Type::Int,
                Some(e_bin(
                    BinOp::Mul,
                    e_bin(BinOp::Add, e_var("__tid"), e_int(1)),
                    e_var("__chunk"),
                )),
            ));
            // for (__j = tid*chunk; __j < __hi && __j < __total; __j += 1)
            //     { int iv = init + __j*step; body }
            let init_stmt = s_decl(
                &mut ids,
                "__j",
                Type::Int,
                Some(e_bin(BinOp::Mul, e_var("__tid"), e_var("__chunk"))),
            );
            let cond = e_bin(
                BinOp::And,
                e_bin(BinOp::Lt, e_var("__j"), e_var("__hi")),
                e_bin(BinOp::Lt, e_var("__j"), e_var("__total")),
            );
            let step_stmt = Stmt::plain(
                ids.fresh(),
                StmtKind::Assign {
                    target: LValue::Var("__j".into(), Span::default()),
                    op: AssignOp::Add,
                    value: e_int(1),
                },
                Span::default(),
            );
            let mut inner = vec![s_decl(
                &mut ids,
                iv.clone(),
                Type::Int,
                Some(e_bin(
                    BinOp::Add,
                    init.clone(),
                    e_bin(BinOp::Mul, e_var("__j"), e_int(*step)),
                )),
            )];
            inner.extend(body_stmts);
            stmts.push(s_for(&mut ids, init_stmt, cond, step_stmt, inner));
        }
    }
    // Merge reduction accumulators into the environment under the
    // dedicated reduction lock (appended after the sync engine's locks).
    let reduction_lock = engine.locks.len() as i64;
    for r in &hot.reductions {
        stmts.extend(reduction_merge(
            &mut ids,
            r.op,
            &r.var,
            section,
            reduction_lock,
        ));
    }
    program.items.push(Item::Func(FuncDecl {
        name: worker_name.clone(),
        ret: Type::Void,
        params: vec![
            Param {
                name: "__tid".into(),
                ty: Type::Int,
                span: Span::default(),
            },
            Param {
                name: "__nt".into(),
                ty: Type::Int,
                span: Span::default(),
            },
        ],
        body: Block {
            stmts,
            span: Span::default(),
        },
        instances: Vec::new(),
        named_args: Vec::new(),
        span: Span::default(),
    }));

    engine.insert_in(&mut program, std::slice::from_ref(&worker_name), &mut ids);

    let workers: Vec<WorkerSpec> = (0..nthreads)
        .map(|t| WorkerSpec {
            func: worker_name.clone(),
            tid: t as i64,
            nt: nthreads as i64,
            stage: 0,
        })
        .collect();
    let mut locks = engine.locks.clone();
    if !hot.reductions.is_empty() {
        locks.push(LockSpec {
            id: reduction_lock,
            set: "__reduction".to_string(),
            members: Vec::new(),
        });
    }
    Ok(ParallelProgram {
        program,
        plan: ParallelPlan {
            scheme: Scheme::Doall,
            sync,
            nthreads,
            workers,
            queues: Vec::new(),
            locks,
            stage_desc: vec![format!("DOALL x{nthreads} ({schedule})")],
            section,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use commset_ir::IntrinsicTable;
    use commset_lang::printer::print_program;

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("rng", vec![], Type::Int, &["SEED"], &["SEED"], 10);
        t.register("sink", vec![Type::Int], Type::Void, &[], &["OUT"], 10);
        t
    }

    fn run(src: &str, sync: SyncMode) -> Result<ParallelProgram, Diagnostic> {
        let c = Compiler::new(table()).with_irrevocable(&["OUT"]);
        c.compile_to_ast(&c.analyze(src).unwrap(), Scheme::Doall, 4, sync)
    }

    const RELAXED: &str = r#"
        extern int rng();
        extern void sink(int v);
        int main() {
            int n = 100;
            for (int i = 0; i < n; i = i + 1) {
                int v = 0;
                #pragma CommSet(SELF)
                { v = rng(); }
                #pragma CommSet(SELF)
                { sink(v); }
            }
            return 0;
        }
    "#;

    #[test]
    fn generates_worker_and_plan() {
        let pp = run(RELAXED, SyncMode::Spin).unwrap();
        assert_eq!(pp.plan.scheme, Scheme::Doall);
        assert_eq!(pp.plan.workers.len(), 4);
        assert_eq!(pp.plan.locks.len(), 2, "two SELF sets synchronized");
        let printed = print_program(&pp.program);
        assert!(
            printed.contains("void __par0_doall(int __tid, int __nt)"),
            "{printed}"
        );
        assert!(printed.contains("__par_invoke(0)"), "{printed}");
        assert!(
            printed.contains("(0 + (__tid * 1))"),
            "cyclic init: {printed}"
        );
        assert!(printed.contains("i += (1 * __nt)"), "{printed}");
        assert!(printed.contains("__lock_acquire"), "{printed}");
    }

    #[test]
    fn unrelaxed_loop_is_rejected() {
        let src = r#"
            extern int rng();
            int main() {
                int n = 100;
                for (int i = 0; i < n; i = i + 1) {
                    int v = rng();
                }
                return 0;
            }
        "#;
        let e = run(src, SyncMode::Spin).unwrap_err();
        assert!(e.message.contains("DOALL illegal"), "{e}");
    }

    #[test]
    fn uncountable_is_rejected() {
        let src = r#"
            extern int rng();
            int main() {
                int p = 1;
                while (p != 0) {
                    #pragma CommSet(SELF)
                    { p = rng(); }
                }
                return 0;
            }
        "#;
        let e = run(src, SyncMode::Spin).unwrap_err();
        assert!(e.message.contains("countable"), "{e}");
    }

    #[test]
    fn tm_rejected_for_irrevocable_members() {
        let e = run(RELAXED, SyncMode::Tm).unwrap_err();
        assert!(e.message.contains("irrevocable"), "{e}");
    }

    #[test]
    fn blocked_schedule_generates_chunked_worker() {
        let a = Compiler::new(table()).analyze(RELAXED).unwrap();
        let pp = apply_doall_scheduled(
            &a.managed,
            &a.hot,
            &a.pdg,
            &a.summaries,
            &BTreeSet::new(),
            4,
            SyncMode::Lib,
            0,
            IterSchedule::Blocked,
        )
        .unwrap();
        let printed = print_program(&pp.program);
        assert!(printed.contains("__chunk"), "{printed}");
        assert!(printed.contains("__total"), "{printed}");
        assert!(
            pp.plan.stage_desc[0].contains("blocked"),
            "{:?}",
            pp.plan.stage_desc
        );
    }

    #[test]
    fn lib_mode_has_no_locks() {
        let pp = run(RELAXED, SyncMode::Lib).unwrap();
        assert!(pp.plan.locks.is_empty());
        assert!(!print_program(&pp.program).contains("__lock_acquire(0"));
    }
}
