//! The CommSet Synchronization Engine (paper §4.6).
//!
//! Each synchronized CommSet receives a unique *rank* — a topological order
//! of the CommSet graph (callers before callees), so that nested member
//! invocations acquire locks in globally consistent rank order. Every
//! statement that invokes a member function is wrapped in rank-ordered
//! `__lock_acquire` / `__lock_release` calls (or `__tx_begin`/`__tx_commit`
//! in TM mode). Sets marked `CommSetNoSync`, and the `Lib` mode, suppress
//! insertion. Rank ordering plus the acyclic queue topology preserve the
//! deadlock-freedom invariants.

use crate::codegen::{e_call, e_int, s_block, s_decl, s_expr, IdGen};
use crate::plan::{LockSpec, SyncMode};
use commset_analysis::callgraph::CallGraph;
use commset_analysis::metadata::ManagedUnit;
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::sema::SetId;
use commset_lang::token::Span;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Prepared synchronization context for one parallelization.
#[derive(Debug, Clone)]
pub struct SyncEngine {
    /// Mode in effect.
    pub mode: SyncMode,
    /// Locks, indexed by lock id; `locks[i].set` names the CommSet.
    pub locks: Vec<LockSpec>,
    /// member function → lock ids to acquire (already rank-sorted).
    member_locks: HashMap<String, Vec<i64>>,
}

impl SyncEngine {
    /// Builds the engine: ranks the synchronized sets and precomputes each
    /// member's lock list.
    pub fn new(managed: &ManagedUnit, mode: SyncMode) -> SyncEngine {
        // Sets that need compiler-inserted synchronization.
        let sync_sets: Vec<SetId> = managed
            .commsets
            .iter()
            .filter(|s| !s.nosync && mode != SyncMode::Lib)
            .filter(|s| managed.members.iter().any(|m| m.set == s.id))
            .map(|s| s.id)
            .collect();
        // Rank: topological order of the CommSet graph (caller sets first).
        let cg = CallGraph::new(&managed.program);
        let mut order: Vec<SetId> = sync_sets.clone();
        order.sort_by(|&a, &b| {
            let a_calls_b = set_calls_set(managed, &cg, a, b);
            let b_calls_a = set_calls_set(managed, &cg, b, a);
            match (a_calls_b, b_calls_a) {
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                _ => a.cmp(&b),
            }
        });
        let mut rank: BTreeMap<SetId, i64> = BTreeMap::new();
        // Extern intrinsics reachable from each set's members: the world
        // calls the set's lock actually guards (LockSpec::members).
        let externs: BTreeSet<&str> = managed
            .program
            .items
            .iter()
            .filter_map(|it| match it {
                Item::Extern(e) => Some(e.name.as_str()),
                _ => None,
            })
            .collect();
        // Direct extern calls per defined function. The call graph keeps
        // only defined functions as nodes, so intrinsic calls must be
        // collected with their own walk.
        let mut direct_externs: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for item in &managed.program.items {
            let Item::Func(f) = item else { continue };
            let mut out = BTreeSet::new();
            walk_stmts(&f.body, &mut |st| {
                stmt_exprs(st, &mut |e| {
                    walk_expr(e, &mut |x| {
                        if let ExprKind::Call(name, _) = &x.kind {
                            if externs.contains(name.as_str()) {
                                out.insert(name.clone());
                            }
                        }
                    })
                });
            });
            direct_externs.insert(f.name.as_str(), out);
        }
        let mut locks = Vec::new();
        for (i, &s) in order.iter().enumerate() {
            rank.insert(s, i as i64);
            let mut members: BTreeSet<String> = BTreeSet::new();
            for m in managed.members.iter().filter(|m| m.set == s) {
                if externs.contains(m.func.as_str()) {
                    members.insert(m.func.clone());
                }
                if let Some(de) = direct_externs.get(m.func.as_str()) {
                    members.extend(de.iter().cloned());
                }
                for f in cg.reachable(&m.func) {
                    if let Some(de) = direct_externs.get(f.as_str()) {
                        members.extend(de.iter().cloned());
                    }
                }
            }
            locks.push(LockSpec {
                id: i as i64,
                set: managed.set(s).name.clone(),
                members: members.into_iter().collect(),
            });
        }
        let mut member_locks: HashMap<String, Vec<i64>> = HashMap::new();
        for m in &managed.members {
            if let Some(&r) = rank.get(&m.set) {
                let e = member_locks.entry(m.func.clone()).or_default();
                if !e.contains(&r) {
                    e.push(r);
                }
            }
        }
        for l in member_locks.values_mut() {
            l.sort_unstable();
        }
        SyncEngine {
            mode,
            locks,
            member_locks,
        }
    }

    /// Checks TM applicability: members whose effect summaries touch an
    /// irrevocable channel cannot run in a transaction.
    ///
    /// # Errors
    ///
    /// Names the offending member and channel.
    pub fn check_tm_applicable(
        &self,
        managed: &ManagedUnit,
        summaries: &HashMap<String, commset_analysis::effects::FuncEffects>,
        irrevocable: &BTreeSet<String>,
    ) -> Result<(), Diagnostic> {
        if self.mode != SyncMode::Tm {
            return Ok(());
        }
        for func in self.member_locks.keys() {
            if let Some(fx) = summaries.get(func) {
                for loc in fx.reads.iter().chain(&fx.writes) {
                    if let commset_analysis::effects::Location::Channel(c) = loc {
                        if irrevocable.contains(c) {
                            return Err(Diagnostic::global(
                                Phase::Commset,
                                format!(
                                    "transactions are not applicable: member `{func}` performs irrevocable I/O on channel `{c}`"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        let _ = managed;
        Ok(())
    }

    /// Inserts synchronization around member invocations in `func` and in
    /// every program function transitively reachable from it, in place.
    pub fn insert_in(&self, program: &mut Program, roots: &[String], ids: &mut IdGen) {
        if self.mode == SyncMode::Lib {
            return;
        }
        let cg = CallGraph::new(program);
        let mut targets: BTreeSet<String> = roots.iter().cloned().collect();
        for r in roots {
            targets.extend(cg.reachable(r));
        }
        // Member functions themselves are protected by their caller's
        // locks; do not insert inside them (their nested member calls are
        // distinct sets with their own wrapping at the call statement).
        for item in &mut program.items {
            let Item::Func(f) = item else { continue };
            if !targets.contains(&f.name) {
                continue;
            }
            let mut stmts = std::mem::take(&mut f.body.stmts);
            self.wrap_stmts(&mut stmts, ids);
            f.body.stmts = stmts;
        }
    }

    fn wrap_stmts(&self, stmts: &mut Vec<Stmt>, ids: &mut IdGen) {
        let mut i = 0;
        while i < stmts.len() {
            // Recurse first so inner statements are wrapped at the
            // innermost level.
            match &mut stmts[i].kind {
                StmtKind::Block(b) => {
                    let mut inner = std::mem::take(&mut b.stmts);
                    self.wrap_stmts(&mut inner, ids);
                    b.stmts = inner;
                    i += 1;
                    continue;
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.wrap_one(then_branch, ids);
                    if let Some(e) = else_branch {
                        self.wrap_one(e, ids);
                    }
                    i += 1;
                    continue;
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                    self.wrap_one(body, ids);
                    i += 1;
                    continue;
                }
                _ => {}
            }
            let locks = self.stmt_locks(&stmts[i]);
            if locks.is_empty() {
                i += 1;
                continue;
            }
            // Split `ty v = call(...)` into `ty v;` + wrapped assignment so
            // the declaration survives the wrapping block's scope.
            let replaced = std::mem::replace(
                &mut stmts[i],
                Stmt::plain(ids.fresh(), StmtKind::Break, Span::default()),
            );
            let (mut pre, core) = match replaced.kind {
                StmtKind::VarDecl {
                    name,
                    ty,
                    array_len: None,
                    init: Some(init),
                } => (
                    vec![s_decl(ids, name.clone(), ty, None)],
                    Stmt::plain(
                        ids.fresh(),
                        StmtKind::Assign {
                            target: LValue::Var(name, Span::default()),
                            op: AssignOp::Set,
                            value: init,
                        },
                        Span::default(),
                    ),
                ),
                other_kind => (
                    vec![],
                    Stmt {
                        kind: other_kind,
                        id: replaced.id,
                        span: replaced.span,
                        instances: replaced.instances,
                        named_block: replaced.named_block,
                        named_arg_adds: replaced.named_arg_adds,
                        reductions: replaced.reductions,
                    },
                ),
            };
            let mut wrapped: Vec<Stmt> = Vec::new();
            match self.mode {
                SyncMode::Tm => {
                    wrapped.push(s_expr(ids, e_call("__tx_begin", vec![])));
                    wrapped.push(core);
                    wrapped.push(s_expr(ids, e_call("__tx_commit", vec![])));
                }
                SyncMode::Mutex | SyncMode::Spin => {
                    for &l in &locks {
                        wrapped.push(s_expr(ids, e_call("__lock_acquire", vec![e_int(l)])));
                    }
                    wrapped.push(core);
                    for &l in locks.iter().rev() {
                        wrapped.push(s_expr(ids, e_call("__lock_release", vec![e_int(l)])));
                    }
                }
                SyncMode::Lib => unreachable!(),
            }
            let block = s_block(ids, wrapped);
            pre.push(block);
            let n = pre.len();
            stmts.splice(i..=i, pre);
            i += n;
        }
    }

    fn wrap_one(&self, s: &mut Stmt, ids: &mut IdGen) {
        // Treat a lone child statement as a one-element list.
        if let StmtKind::Block(b) = &mut s.kind {
            let mut inner = std::mem::take(&mut b.stmts);
            self.wrap_stmts(&mut inner, ids);
            b.stmts = inner;
            return;
        }
        let mut v = vec![std::mem::replace(
            s,
            Stmt::plain(StmtId(u32::MAX), StmtKind::Break, Span::default()),
        )];
        self.wrap_stmts(&mut v, ids);
        if v.len() == 1 {
            *s = v.pop().unwrap();
        } else {
            *s = s_block(ids, v);
        }
    }

    /// Lock ids (rank-sorted) of the member calls a leaf statement makes.
    fn stmt_locks(&self, s: &Stmt) -> Vec<i64> {
        let mut locks: BTreeSet<i64> = BTreeSet::new();
        stmt_exprs(s, &mut |e| {
            walk_expr(e, &mut |x| {
                if let ExprKind::Call(name, _) = &x.kind {
                    if let Some(ls) = self.member_locks.get(name) {
                        locks.extend(ls.iter().copied());
                    }
                }
            });
        });
        locks.into_iter().collect()
    }
}

fn set_calls_set(managed: &ManagedUnit, cg: &CallGraph, a: SetId, b: SetId) -> bool {
    let ams: Vec<&str> = managed
        .members
        .iter()
        .filter(|m| m.set == a)
        .map(|m| m.func.as_str())
        .collect();
    let bms: Vec<&str> = managed
        .members
        .iter()
        .filter(|m| m.set == b)
        .map(|m| m.func.as_str())
        .collect();
    ams.iter()
        .any(|x| bms.iter().any(|y| cg.calls_transitively(x, y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_analysis::metadata::manage;
    use commset_lang::printer::print_program;

    fn managed(src: &str) -> ManagedUnit {
        manage(commset_lang::compile_unit(src).unwrap()).unwrap()
    }

    const TWO_SETS: &str = r#"
        #pragma CommSetDecl(A, Group)
        #pragma CommSetDecl(B, Group)
        extern void opa(int k);
        extern void opb(int k);
        extern void opc(int k);
        int main() {
            for (int i = 0; i < 4; i = i + 1) {
                #pragma CommSet(A)
                { opa(i); }
                #pragma CommSet(B)
                { opb(i); }
                #pragma CommSet(A, B)
                { opc(i); }
            }
            return 0;
        }
    "#;

    #[test]
    fn locks_are_created_per_synchronized_set() {
        let m = managed(TWO_SETS);
        let engine = SyncEngine::new(&m, SyncMode::Mutex);
        assert_eq!(engine.locks.len(), 2);
        let names: Vec<&str> = engine.locks.iter().map(|l| l.set.as_str()).collect();
        assert!(names.contains(&"A") && names.contains(&"B"));
    }

    #[test]
    fn multi_membership_acquires_both_locks_in_rank_order() {
        let m = managed(TWO_SETS);
        let engine = SyncEngine::new(&m, SyncMode::Mutex);
        let mut program = m.program.clone();
        let mut ids = IdGen::new(m.next_stmt_id);
        engine.insert_in(&mut program, &["main".to_string()], &mut ids);
        let printed = print_program(&program);
        // The opc region's call statement is wrapped with two acquires.
        let acq0 = printed.matches("__lock_acquire(0)").count();
        let acq1 = printed.matches("__lock_acquire(1)").count();
        assert_eq!(acq0, 2, "{printed}");
        assert_eq!(acq1, 2, "{printed}");
        // Acquires are adjacent and rank-ordered; releases reverse.
        let squeezed: String = printed.split_whitespace().collect();
        assert!(
            squeezed.contains("__lock_acquire(0);__lock_acquire(1);"),
            "{printed}"
        );
        assert!(
            squeezed.contains("__lock_release(1);__lock_release(0);"),
            "{printed}"
        );
    }

    #[test]
    fn lib_mode_inserts_nothing() {
        let m = managed(TWO_SETS);
        let engine = SyncEngine::new(&m, SyncMode::Lib);
        let mut program = m.program.clone();
        let mut ids = IdGen::new(m.next_stmt_id);
        engine.insert_in(&mut program, &["main".to_string()], &mut ids);
        let printed = print_program(&program);
        assert!(!printed.contains("__lock_acquire"), "{printed}");
        assert!(engine.locks.is_empty());
    }

    #[test]
    fn nosync_sets_are_skipped() {
        let m = managed(
            r#"
            #pragma CommSetDecl(L, Group)
            #pragma CommSetNoSync(L)
            extern void logit(int k);
            int main() {
                for (int i = 0; i < 4; i = i + 1) {
                    #pragma CommSet(L)
                    { logit(i); }
                }
                return 0;
            }
            "#,
        );
        let engine = SyncEngine::new(&m, SyncMode::Mutex);
        assert!(engine.locks.is_empty());
        let mut program = m.program.clone();
        let mut ids = IdGen::new(m.next_stmt_id);
        engine.insert_in(&mut program, &["main".to_string()], &mut ids);
        assert!(!print_program(&program).contains("__lock_acquire"));
    }

    #[test]
    fn tm_mode_wraps_in_transactions() {
        let m = managed(TWO_SETS);
        let engine = SyncEngine::new(&m, SyncMode::Tm);
        let mut program = m.program.clone();
        let mut ids = IdGen::new(m.next_stmt_id);
        engine.insert_in(&mut program, &["main".to_string()], &mut ids);
        let printed = print_program(&program);
        assert!(printed.contains("__tx_begin()"), "{printed}");
        assert_eq!(
            printed.matches("__tx_begin()").count(),
            printed.matches("__tx_commit()").count()
        );
    }

    #[test]
    fn decl_from_member_call_splits_declaration() {
        let m = managed(
            r#"
            #pragma CommSetDecl(S, Self)
            extern int rng();
            int main() {
                for (int i = 0; i < 4; i = i + 1) {
                    int v = 0;
                    #pragma CommSet(S)
                    { v = rng(); }
                    int w = v + 1;
                }
                return 0;
            }
            "#,
        );
        let engine = SyncEngine::new(&m, SyncMode::Spin);
        let mut program = m.program.clone();
        let mut ids = IdGen::new(m.next_stmt_id);
        engine.insert_in(&mut program, &["main".to_string()], &mut ids);
        let printed = print_program(&program);
        // The region call `v = __commset_region_1(...)` is an assignment and
        // must be wrapped.
        assert!(printed.contains("__lock_acquire(0)"), "{printed}");
        // `v` stays usable after the wrapping block.
        assert!(printed.contains("int w = (v + 1);"), "{printed}");
    }

    #[test]
    fn nested_set_ranks_follow_call_order() {
        let m = managed(
            r#"
            #pragma CommSetDecl(OUTER, Group)
            #pragma CommSetDecl(INNER, Group)
            extern void opa(int k);
            extern void opb(int k);
            int main() {
                for (int i = 0; i < 4; i = i + 1) {
                    #pragma CommSet(OUTER)
                    {
                        opa(i);
                        #pragma CommSet(INNER)
                        { opb(i); }
                    }
                    #pragma CommSet(INNER)
                    { opb(i + 1); }
                }
                return 0;
            }
            "#,
        );
        let engine = SyncEngine::new(&m, SyncMode::Mutex);
        // OUTER's members call INNER's members, so OUTER must rank first.
        assert_eq!(engine.locks[0].set, "OUTER");
        assert_eq!(engine.locks[1].set, "INNER");
    }
}
