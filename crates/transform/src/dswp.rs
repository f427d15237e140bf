//! DSWP and PS-DSWP code generation (paper §4.5).
//!
//! The DAG-SCC (after commutativity relaxation) is partitioned into
//! pipeline stages; each stage becomes a generated Cmm function. For
//! countable loops every stage replicates the induction control; for
//! uncountable loops stage 0 owns the loop and broadcasts per-iteration
//! control tokens. Cross-stage values travel over SPSC queues; the
//! PS-DSWP parallel stage is replicated with round-robin iteration
//! distribution and per-replica queues (in-order merge at the downstream
//! sequential stage, which preserves output determinism).

use crate::codegen::*;
use crate::partition::{self, Partition};
use crate::plan::*;
use crate::sync::SyncEngine;
use commset_analysis::hotloop::{HotLoop, LoopShape};
use commset_analysis::metadata::ManagedUnit;
use commset_analysis::pdg::{DepKind, Pdg};
use commset_analysis::scc::DagScc;
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::token::Span;
use std::collections::{BTreeMap, BTreeSet};

fn err(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::global(Phase::Commset, msg)
}

/// One cross-stage communication: variable `var` from stage `from` to
/// stage `to` over queues `[qbase, qbase + instances)`.
///
/// `value_pos` is the original body position whose reaching value must be
/// sent: the producer pushes after executing all of its statements with
/// positions `< value_pos` (start of its iteration for purely loop-carried
/// values, right after the defining statement otherwise).
#[derive(Debug, Clone)]
struct Comm {
    from: usize,
    to: usize,
    var: String,
    ty: Type,
    qbase: i64,
    instances: usize,
    value_pos: usize,
}

/// Applies DSWP (`replicate = false`) or PS-DSWP (`replicate = true`).
///
/// # Errors
///
/// Fails when no pipeline of at least two stages exists, when PS-DSWP
/// finds no replicable stage, or when sync/live-out preconditions fail.
#[allow(clippy::too_many_arguments)]
pub fn apply_pipeline(
    managed: &ManagedUnit,
    hot: &HotLoop,
    pdg: &Pdg,
    dag: &DagScc,
    summaries: &std::collections::HashMap<String, commset_analysis::effects::FuncEffects>,
    irrevocable: &BTreeSet<String>,
    nthreads: usize,
    sync: SyncMode,
    section: i64,
) -> Result<ParallelProgram, Diagnostic> {
    let replicate = false;
    build_pipeline(
        managed,
        hot,
        pdg,
        dag,
        summaries,
        irrevocable,
        nthreads,
        sync,
        section,
        replicate,
    )
}

/// PS-DSWP entry point.
#[allow(clippy::too_many_arguments)]
pub fn apply_ps_dswp(
    managed: &ManagedUnit,
    hot: &HotLoop,
    pdg: &Pdg,
    dag: &DagScc,
    summaries: &std::collections::HashMap<String, commset_analysis::effects::FuncEffects>,
    irrevocable: &BTreeSet<String>,
    nthreads: usize,
    sync: SyncMode,
    section: i64,
) -> Result<ParallelProgram, Diagnostic> {
    build_pipeline(
        managed,
        hot,
        pdg,
        dag,
        summaries,
        irrevocable,
        nthreads,
        sync,
        section,
        true,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_pipeline(
    managed: &ManagedUnit,
    hot: &HotLoop,
    pdg: &Pdg,
    dag: &DagScc,
    summaries: &std::collections::HashMap<String, commset_analysis::effects::FuncEffects>,
    irrevocable: &BTreeSet<String>,
    nthreads: usize,
    sync: SyncMode,
    section: i64,
    replicate: bool,
) -> Result<ParallelProgram, Diagnostic> {
    check_no_live_outs(managed, hot)?;
    let engine = SyncEngine::new(managed, sync);
    engine.check_tm_applicable(managed, summaries, irrevocable)?;
    let var_types = hot_var_types(managed, &hot.func)?;
    for reserved in ["__j", "__tid", "__nt", "__go"] {
        if var_types.contains_key(reserved) {
            return Err(err(format!(
                "variable name `{reserved}` is reserved by the pipeline transform"
            )));
        }
    }

    let mut units = partition::units(pdg, dag, hot);
    // For countable loops every stage replicates the induction control, so
    // a unit holding only the condition node carries no work; drop it
    // rather than wasting a pipeline stage on it.
    if hot.shape.is_countable() {
        units.retain(|u| u.nodes != vec![0]);
    }
    let part: Partition = if replicate {
        partition::partition_ps_dswp(&units)
            .ok_or_else(|| err("PS-DSWP inapplicable: no replicable stage"))?
    } else {
        partition::partition_dswp(&units, nthreads)
    };
    if part.stages.len() < 2 && part.parallel_stage.is_none() {
        return Err(err("DSWP found no pipeline (single stage)"));
    }
    // For uncountable loops, the loop-control node must sit in stage 0.
    if !hot.shape.is_countable() {
        match part.stage_of(0) {
            Some(0) => {}
            _ => {
                return Err(err(
                    "pipeline partition does not place loop control in stage 0",
                ))
            }
        }
    }
    let n_stages = part.stages.len();
    let seq_stages = n_stages - usize::from(part.parallel_stage.is_some());
    let replicas = match part.parallel_stage {
        Some(_) => {
            if nthreads <= seq_stages {
                return Err(err(format!(
                    "PS-DSWP needs more than {seq_stages} threads for {seq_stages} sequential stage(s)"
                )));
            }
            nthreads - seq_stages
        }
        None => 1,
    };
    if part.parallel_stage.is_none() && part.stages.len() > nthreads {
        return Err(err("DSWP produced more stages than threads"));
    }

    // Stage statement lists (indices into hot.body).
    let stage_stmts: Vec<Vec<usize>> = part
        .stages
        .iter()
        .map(|nodes| {
            let mut v: Vec<usize> = nodes.iter().filter(|&&n| n > 0).map(|&n| n - 1).collect();
            v.sort_unstable();
            v
        })
        .collect();
    let stage_of_stmt =
        |i: usize| -> usize { part.stage_of(i + 1).expect("every stmt is assigned") };

    // -- communications -----------------------------------------------------
    let mut queues: Vec<QueueSpec> = Vec::new();
    let mut next_q: i64 = 0;
    let mut alloc_q = |what: String, instances: usize, queues: &mut Vec<QueueSpec>| -> i64 {
        let base = next_q;
        for k in 0..instances {
            queues.push(QueueSpec {
                id: base + k as i64,
                capacity: 64,
                what: format!("{what}[{k}]"),
            });
        }
        next_q += instances as i64;
        base
    };
    // Pass 1: gather cross-stage value flows (first consumer position per
    // (from, to, var)) and intra-iteration ordering pairs.
    let mut value_flows: BTreeMap<(usize, usize, String), usize> = BTreeMap::new();
    let mut token_pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for e in &pdg.edges {
        if e.src.0 == 0 || e.dst.0 == 0 {
            continue; // loop control handled separately
        }
        if e.induction {
            continue;
        }
        let s = stage_of_stmt(e.src.0 - 1);
        let t = stage_of_stmt(e.dst.0 - 1);
        if s == t {
            continue;
        }
        match &e.kind {
            DepKind::RegFlow(v) => {
                if s > t {
                    return Err(err(format!(
                        "internal: backward cross-stage register dependence on `{v}`"
                    )));
                }
                let pos = e.dst.0 - 1;
                value_flows
                    .entry((s, t, v.clone()))
                    .and_modify(|p| *p = (*p).min(pos))
                    .or_insert(pos);
            }
            DepKind::Memory { .. } => {
                // Only intra-iteration ordering survives relaxation; an
                // ico edge pointing backward in stage order imposes no
                // cross-stage constraint within one iteration.
                if e.effective_intra() && s < t && !(e.carried && e.comm.is_none()) {
                    let after = e.src.0; // push after the source statement
                    token_pairs
                        .entry((s, t))
                        .and_modify(|p| *p = (*p).max(after))
                        .or_insert(after);
                }
            }
            DepKind::Control => {}
        }
    }
    let mut comms: Vec<Comm> = Vec::new();
    for ((s, t, v), value_pos) in &value_flows {
        let (s, t) = (*s, *t);
        let ty = *var_types
            .get(v)
            .ok_or_else(|| err(format!("no type for communicated variable `{v}`")))?;
        let instances = if Some(s) == part.parallel_stage || Some(t) == part.parallel_stage {
            replicas
        } else {
            1
        };
        let qbase = alloc_q(format!("S{s}->S{t} {v}"), instances, &mut queues);
        comms.push(Comm {
            from: s,
            to: t,
            var: v.clone(),
            ty,
            qbase,
            instances,
            value_pos: *value_pos,
        });
    }
    // Token queues only where no data queue already orders the pair.
    let data_pairs: BTreeSet<(usize, usize)> = comms.iter().map(|c| (c.from, c.to)).collect();
    for ((s, t), after) in token_pairs {
        if data_pairs.contains(&(s, t)) {
            continue;
        }
        let instances = if Some(s) == part.parallel_stage || Some(t) == part.parallel_stage {
            replicas
        } else {
            1
        };
        let qbase = alloc_q(format!("S{s}->S{t} token"), instances, &mut queues);
        comms.push(Comm {
            from: s,
            to: t,
            var: format!("__tok_{s}_{t}"),
            ty: Type::Int,
            qbase,
            instances,
            value_pos: after,
        });
    }
    // Control queues for uncountable loops: stage 0 -> every other stage.
    let countable = hot.shape.is_countable();
    let mut ctl_bases: BTreeMap<usize, (i64, usize)> = BTreeMap::new();
    if !countable {
        for t in 1..n_stages {
            let instances = if Some(t) == part.parallel_stage {
                replicas
            } else {
                1
            };
            let qbase = alloc_q(format!("S0->S{t} control"), instances, &mut queues);
            ctl_bases.insert(t, (qbase, instances));
        }
    }

    // -- program assembly ----------------------------------------------------
    let mut ids = IdGen::new(managed.next_stmt_id);
    let mut program = managed.program.clone();
    ensure_runtime_externs(&mut program);
    let live = publish_environment(&mut program, managed, hot, &var_types, section, &mut ids)?;
    let body = clone_body_stmts(managed, hot);

    let mut workers: Vec<WorkerSpec> = Vec::new();
    let mut stage_desc: Vec<String> = Vec::new();
    let mut stage_names: Vec<String> = Vec::new();
    for (k, stmts_idx) in stage_stmts.iter().enumerate() {
        let is_parallel = Some(k) == part.parallel_stage;
        let fname = format!("__par{section}_stage{k}");
        stage_names.push(fname.clone());
        let f = gen_stage(
            GenStage {
                hot,
                reduction_lock: engine.locks.len() as i64,
                part: &part,
                comms: &comms,
                ctl_bases: &ctl_bases,
                live: &live,
                body: &body,
                section,
                stage: k,
                stmts_idx,
                is_parallel,
                replicas,
                n_stages,
            },
            &mut ids,
        )?;
        program.items.push(Item::Func(f));
        let nthreads_here = if is_parallel { replicas } else { 1 };
        for r in 0..nthreads_here {
            workers.push(WorkerSpec {
                func: fname.clone(),
                tid: r as i64,
                nt: nthreads_here as i64,
                stage: k,
            });
        }
        let w: u64 = stmts_idx.iter().map(|&i| hot.body[i].weight).sum();
        stage_desc.push(if is_parallel {
            format!("S{k}: DOALL x{replicas} (w={w})")
        } else {
            format!("S{k}: Sequential (w={w})")
        });
    }
    engine.insert_in(&mut program, &stage_names, &mut ids);

    let scheme = if part.parallel_stage.is_some() {
        Scheme::PsDswp
    } else {
        Scheme::Dswp
    };
    let total_threads = workers.len();
    let mut locks = engine.locks.clone();
    if !hot.reductions.is_empty() {
        locks.push(LockSpec {
            id: engine.locks.len() as i64,
            set: "__reduction".to_string(),
            members: Vec::new(),
        });
    }
    Ok(ParallelProgram {
        program,
        plan: ParallelPlan {
            scheme,
            sync,
            nthreads: total_threads,
            workers,
            queues,
            locks,
            stage_desc,
            section,
        },
    })
}

struct GenStage<'a> {
    hot: &'a HotLoop,
    reduction_lock: i64,
    part: &'a Partition,
    comms: &'a [Comm],
    ctl_bases: &'a BTreeMap<usize, (i64, usize)>,
    live: &'a [(String, Type)],
    body: &'a [Stmt],
    section: i64,
    stage: usize,
    stmts_idx: &'a [usize],
    is_parallel: bool,
    replicas: usize,
    n_stages: usize,
}

/// `__q_pop` / `__q_pop_f` expression for a typed value.
fn pop_expr(q: Expr, ty: Type) -> Expr {
    match ty {
        Type::Float => e_call("__q_pop_f", vec![q]),
        Type::Handle => e_cast(Type::Handle, e_call("__q_pop", vec![q])),
        _ => e_call("__q_pop", vec![q]),
    }
}

/// `__q_push` statement for a typed value.
fn push_stmt(ids: &mut IdGen, q: Expr, var: &str, ty: Type) -> Stmt {
    match ty {
        Type::Float => s_expr(ids, e_call("__q_push_f", vec![q, e_var(var)])),
        Type::Handle => s_expr(
            ids,
            e_call("__q_push", vec![q, e_cast(Type::Int, e_var(var))]),
        ),
        _ => s_expr(ids, e_call("__q_push", vec![q, e_var(var)])),
    }
}

fn gen_stage(g: GenStage<'_>, ids: &mut IdGen) -> Result<FuncDecl, Diagnostic> {
    let GenStage {
        hot,
        reduction_lock,
        part,
        comms,
        ctl_bases,
        live,
        body,
        section,
        stage,
        stmts_idx,
        is_parallel,
        replicas,
        n_stages,
    } = g;
    // Queue index expression from this stage's point of view.
    // A queue family with `instances > 1` involves the parallel stage:
    // - the parallel replica uses its fixed index `__tid`;
    // - a sequential peer selects by `__j % R`.
    let qexpr = |c: &Comm| -> Expr {
        if c.instances == 1 {
            e_int(c.qbase)
        } else if is_parallel {
            e_bin(BinOp::Add, e_int(c.qbase), e_var("__tid"))
        } else {
            e_bin(
                BinOp::Add,
                e_int(c.qbase),
                e_bin(BinOp::Rem, e_var("__j"), e_int(replicas as i64)),
            )
        }
    };

    // Clone this stage's statements.
    let stmts: Vec<Stmt> = stmts_idx
        .iter()
        .map(|&i| {
            let mut s = body[i].clone();
            renumber(&mut s, ids);
            s
        })
        .collect();

    // Incoming pops (fresh declarations at iteration start) and outgoing
    // pushes (inserted after the last local statement whose original
    // position precedes the communicated value position).
    let mut pops: Vec<Stmt> = Vec::new();
    // (local insertion index, push statement)
    let mut pushes: Vec<(usize, Stmt)> = Vec::new();
    for c in comms {
        if c.to == stage {
            let ty = if c.var.starts_with("__tok_") {
                Type::Int
            } else {
                c.ty
            };
            pops.push(s_decl(ids, c.var.clone(), ty, Some(pop_expr(qexpr(c), ty))));
        }
        if c.from == stage {
            let local_idx = stmts_idx.iter().filter(|&&p| p < c.value_pos).count();
            let push = if c.var.starts_with("__tok_") {
                s_expr(ids, e_call("__q_push", vec![qexpr(c), e_int(1)]))
            } else {
                push_stmt(ids, qexpr(c), &c.var, c.ty)
            };
            pushes.push((local_idx, push));
        }
    }
    // Interleave stage statements with their pushes.
    let mut interleaved: Vec<Stmt> = Vec::new();
    for (local, s) in stmts.into_iter().enumerate() {
        for (idx, p) in &pushes {
            if *idx == local {
                interleaved.push(p.clone());
            }
        }
        interleaved.push(s);
    }
    let n_local = stmts_idx.len();
    for (idx, p) in pushes {
        if idx >= n_local {
            interleaved.push(p);
        }
    }
    let mut stmts = interleaved;

    let mut iter_body: Vec<Stmt> = Vec::new();
    // Stage 0 of an uncountable loop broadcasts the control token first.
    let countable = hot.shape.is_countable();
    if !countable && stage == 0 {
        for (&t, &(base, instances)) in ctl_bases {
            let _ = t;
            if instances == 1 {
                iter_body.push(s_expr(ids, e_call("__q_push", vec![e_int(base), e_int(1)])));
            } else {
                iter_body.push(s_expr(
                    ids,
                    e_call(
                        "__q_push",
                        vec![
                            e_bin(
                                BinOp::Add,
                                e_int(base),
                                e_bin(BinOp::Rem, e_var("__j"), e_int(instances as i64)),
                            ),
                            e_int(1),
                        ],
                    ),
                ));
            }
        }
    }
    iter_body.append(&mut pops);
    iter_body.append(&mut stmts);

    // Does generated code reference `__j`?
    let needs_j = !is_parallel
        && (comms
            .iter()
            .any(|c| (c.to == stage || c.from == stage) && c.instances > 1)
            || (!countable && stage == 0 && ctl_bases.values().any(|&(_, inst)| inst > 1)));
    if needs_j {
        iter_body.push(Stmt::plain(
            ids.fresh(),
            StmtKind::Assign {
                target: LValue::Var("__j".into(), Span::default()),
                op: AssignOp::Add,
                value: e_int(1),
            },
            Span::default(),
        ));
    }

    // Live-in loads: everything this stage's code mentions.
    let mut needed: BTreeSet<String> = vars_mentioned(&iter_body);
    match &hot.shape {
        LoopShape::Countable { init, bound, .. } => {
            needed.extend(expr_vars(init));
            needed.extend(expr_vars(bound));
        }
        LoopShape::Uncountable { cond } => {
            if stage == 0 {
                needed.extend(expr_vars(cond));
            }
        }
    }
    let mut func_body: Vec<Stmt> = live_in_loads(live, &needed, &hot.reductions, section, ids);
    if needs_j {
        func_body.push(s_decl(ids, "__j", Type::Int, Some(e_int(0))));
    }

    match &hot.shape {
        LoopShape::Countable {
            iv,
            init,
            cmp,
            bound,
            step,
        } => {
            let (start, stride) = if is_parallel {
                (
                    e_bin(
                        BinOp::Add,
                        init.clone(),
                        e_bin(BinOp::Mul, e_var("__tid"), e_int(*step)),
                    ),
                    *step * replicas as i64,
                )
            } else {
                (init.clone(), *step)
            };
            let init_stmt = s_decl(ids, iv.clone(), Type::Int, Some(start));
            let cond = e_bin(*cmp, e_var(iv.clone()), bound.clone());
            let step_stmt = Stmt::plain(
                ids.fresh(),
                StmtKind::Assign {
                    target: LValue::Var(iv.clone(), Span::default()),
                    op: AssignOp::Add,
                    value: e_int(stride),
                },
                Span::default(),
            );
            func_body.push(s_for(ids, init_stmt, cond, step_stmt, iter_body));
        }
        LoopShape::Uncountable { cond } => {
            if stage == 0 {
                func_body.push(s_while(ids, cond.clone(), iter_body));
                // Close every control queue instance with a 0 token.
                for (&t, &(base, instances)) in ctl_bases {
                    let _ = t;
                    for k in 0..instances {
                        func_body.push(s_expr(
                            ids,
                            e_call("__q_push", vec![e_int(base + k as i64), e_int(0)]),
                        ));
                    }
                }
            } else {
                let (base, instances) = ctl_bases[&stage];
                let ctl = if instances == 1 {
                    e_int(base)
                } else {
                    e_bin(BinOp::Add, e_int(base), e_var("__tid"))
                };
                func_body.push(s_while(ids, e_call("__q_pop", vec![ctl]), iter_body));
            }
        }
    }
    // Merge reduction accumulators this stage updates.
    for r in &hot.reductions {
        let writes_here = stmts_idx
            .iter()
            .any(|&i| hot.body[i].reg_writes.contains(&r.var));
        if writes_here {
            func_body.extend(reduction_merge(ids, r.op, &r.var, section, reduction_lock));
        }
    }
    let _ = n_stages;
    let _ = part;
    Ok(FuncDecl {
        name: format!("__par{section}_stage{stage}"),
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
            stmts: func_body,
            span: Span::default(),
        },
        instances: Vec::new(),
        named_args: Vec::new(),
        span: Span::default(),
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
        t.register("produce", vec![Type::Int], Type::Int, &["IN"], &["IN"], 20);
        t.register("heavy", vec![Type::Int], Type::Int, &[], &[], 800);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 30);
        t.register(
            "ll_next",
            vec![Type::Handle],
            Type::Handle,
            &["LL"],
            &["LL"],
            15,
        );
        t.register("rngf", vec![], Type::Float, &["SEED"], &["SEED"], 12);
        t.register("use_f", vec![Type::Float], Type::Void, &[], &[], 40);
        t
    }

    fn run(src: &str, nthreads: usize, replicate: bool) -> Result<ParallelProgram, Diagnostic> {
        let c = Compiler::new(table()).with_irrevocable(&["OUT", "IN"]);
        let scheme = if replicate {
            Scheme::PsDswp
        } else {
            Scheme::Dswp
        };
        c.compile_to_ast(&c.analyze(src).unwrap(), scheme, nthreads, SyncMode::Lib)
    }

    /// produce (ordered) -> heavy (pure) -> emit (ordered): the md5sum
    /// shape with a deterministic-output constraint.
    const PIPE: &str = r#"
        extern int produce(int i);
        extern int heavy(int x);
        extern void emit(int y);
        int main() {
            int n = 100;
            for (int i = 0; i < n; i = i + 1) {
                int x = produce(i);
                int y = heavy(x);
                emit(y);
            }
            return 0;
        }
    "#;

    #[test]
    fn dswp_builds_sequential_pipeline() {
        let pp = run(PIPE, 3, false).unwrap();
        assert_eq!(pp.plan.scheme, Scheme::Dswp);
        assert!(pp.plan.workers.len() >= 2, "{:?}", pp.plan.stage_desc);
        assert!(!pp.plan.queues.is_empty());
        let printed = print_program(&pp.program);
        assert!(printed.contains("__par0_stage0"), "{printed}");
        assert!(printed.contains("__q_push("), "{printed}");
        assert!(printed.contains("__q_pop("), "{printed}");
    }

    #[test]
    fn ps_dswp_replicates_the_pure_stage() {
        let pp = run(PIPE, 8, true).unwrap();
        assert_eq!(pp.plan.scheme, Scheme::PsDswp);
        // 2 sequential stages (produce, emit) + 6 replicas.
        let seq: Vec<_> = pp
            .plan
            .stage_desc
            .iter()
            .filter(|d| d.contains("Sequential"))
            .collect();
        assert_eq!(seq.len(), 2, "{:?}", pp.plan.stage_desc);
        assert_eq!(pp.plan.workers.len(), 8, "{:?}", pp.plan.workers);
        let printed = print_program(&pp.program);
        // Sequential stages select replica queues by __j % R.
        assert!(printed.contains("% 6"), "{printed}");
        // The parallel stage uses cyclic iteration distribution.
        assert!(printed.contains("(__tid * 1)"), "{printed}");
    }

    #[test]
    fn uncountable_loop_uses_control_queues() {
        let src = r#"
            extern handle ll_next(handle h);
            extern int heavy(int x);
            extern void emit(int y);
            int main() {
                handle node = handle(1);
                while (int(node) != 0) {
                    int y = heavy(int(node));
                    emit(y);
                    node = ll_next(node);
                }
                return 0;
            }
        "#;
        let pp = run(src, 4, true).unwrap();
        let printed = print_program(&pp.program);
        assert!(
            pp.plan.queues.iter().any(|q| q.what.contains("control")),
            "{:?}",
            pp.plan.queues
        );
        // Stage 0 closes control queues with a 0 token after the loop.
        assert!(printed.contains(", 0)"), "{printed}");
        assert!(printed.contains("while (__q_pop("), "{printed}");
    }

    #[test]
    fn float_values_use_typed_queues() {
        let src = r#"
            extern float rngf();
            extern void use_f(float v);
            extern void emit(int y);
            int main() {
                int n = 10;
                for (int i = 0; i < n; i = i + 1) {
                    float v = rngf();
                    use_f(v);
                    emit(i);
                }
                return 0;
            }
        "#;
        let pp = run(src, 2, false).unwrap();
        let printed = print_program(&pp.program);
        if printed.contains("__q_push_f") {
            assert!(printed.contains("__q_pop_f"), "{printed}");
        }
        let _ = pp;
    }

    #[test]
    fn single_stage_pipeline_is_rejected() {
        // Everything fused into one SCC: no pipeline.
        let src = r#"
            extern int produce(int i);
            int main() {
                int n = 10;
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + produce(acc);
                }
                return 0;
            }
        "#;
        let r = run(src, 2, false);
        assert!(r.is_err(), "{:?}", r.map(|p| p.plan.stage_desc));
    }
}
