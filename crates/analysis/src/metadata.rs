//! The CommSet Metadata Manager (paper §4.2).
//!
//! Three canonicalization steps run before any dependence analysis:
//!
//! 1. **Call-path inlining** — every `CommSetNamedArgAdd` call site gets the
//!    callee inlined, so the enabled copy of the named block lands in the
//!    caller's scope where the predicate arguments are live. Call sites that
//!    do not enable the block keep calling the original function and retain
//!    sequential semantics.
//! 2. **Region outlining** — every commutative compound statement is
//!    extracted into its own function (innermost-first, so nested regions
//!    work). After this step *all* CommSet members are functions, exactly as
//!    in the paper.
//! 3. **Well-formedness** — no transitive calls between members of the same
//!    set, and the CommSet graph (set-to-set transitive call edges) is
//!    acyclic. Violations are compile errors; the parallelizer's
//!    deadlock-freedom guarantee rests on these checks.

use crate::callgraph::{find_cycle, CallGraph};
use commset_lang::ast::*;
use commset_lang::diag::{Diagnostic, Phase};
use commset_lang::sema::{CheckedUnit, CommSetDef, FuncSig, MemberRef, SetId};
use commset_lang::token::Span;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A CommSet membership after canonicalization: always a whole function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncMember {
    /// The member function.
    pub func: String,
    /// The set it belongs to.
    pub set: SetId,
    /// For each predicate argument, the index of the member function's
    /// parameter carrying that argument (empty for unpredicated sets).
    pub arg_params: Vec<usize>,
    /// Original annotation site.
    pub span: Span,
}

/// The canonicalized program and its CommSet tables.
#[derive(Debug, Clone)]
pub struct ManagedUnit {
    /// The transformed program (inlined + outlined).
    pub program: Program,
    /// All CommSets (sema's plus implicit sets created for clones).
    pub commsets: Vec<CommSetDef>,
    /// All memberships, now function-level.
    pub members: Vec<FuncMember>,
    /// Updated signatures (original functions plus outlined regions).
    pub sigs: HashMap<String, FuncSig>,
    /// Global variables.
    pub globals: HashMap<String, (commset_lang::ast::Type, Option<usize>)>,
    /// Outlined region name → the source span of the original block.
    pub region_origins: HashMap<String, Span>,
    /// First statement id that is free for later transforms.
    pub next_stmt_id: u32,
}

impl ManagedUnit {
    /// The set with id `id`.
    pub fn set(&self, id: SetId) -> &CommSetDef {
        &self.commsets[id.0 as usize]
    }

    /// Looks up a set by name.
    pub fn set_by_name(&self, name: &str) -> Option<&CommSetDef> {
        self.commsets.iter().find(|s| s.name == name)
    }

    /// All memberships of `func`.
    pub fn memberships_of(&self, func: &str) -> Vec<&FuncMember> {
        self.members.iter().filter(|m| m.func == func).collect()
    }

    /// Sets shared by `f` and `g` under which they may commute:
    /// a Group set containing both (as distinct members), or — when
    /// `f == g` — a Self set containing the function.
    pub fn common_sets(&self, f: &str, g: &str) -> Vec<SetId> {
        let fs: BTreeSet<SetId> = self.memberships_of(f).iter().map(|m| m.set).collect();
        let gs: BTreeSet<SetId> = self.memberships_of(g).iter().map(|m| m.set).collect();
        fs.intersection(&gs)
            .filter(|&&s| {
                let kind = self.set(s).kind;
                if f == g {
                    kind == SetKind::SelfSet
                } else {
                    kind == SetKind::Group
                }
            })
            .copied()
            .collect()
    }
}

/// Runs the metadata manager over a checked unit.
///
/// # Errors
///
/// Returns a diagnostic if inlining preconditions fail (callee shape), if a
/// commutative block captures an outer local array or writes more than one
/// outer scalar, or if the well-formedness checks fail.
pub fn manage(unit: CheckedUnit) -> Result<ManagedUnit, Diagnostic> {
    let mut next_stmt_id = max_stmt_id(&unit.program) + 1;
    let mut mgr = Manager {
        commsets: unit.commsets.clone(),
        members: Vec::new(),
        sigs: unit.sigs.clone(),
        globals: unit.globals.clone(),
        region_origins: HashMap::new(),
        block_memberships: unit
            .members
            .iter()
            .filter_map(|m| match &m.member {
                MemberRef::Block(id) => Some((*id, (m.set, m.args.clone(), m.span))),
                MemberRef::Func(_) => None,
            })
            .fold(HashMap::new(), |mut acc, (id, entry)| {
                acc.entry(id).or_insert_with(Vec::new).push(entry);
                acc
            }),
        region_counter: 0,
        inline_counter: 0,
    };
    // Interface-level members carry over directly.
    for m in &unit.members {
        if let MemberRef::Func(name) = &m.member {
            let sig = &unit.sigs[name];
            let mut arg_params = Vec::new();
            for a in &m.args {
                let ExprKind::Var(pname) = &a.kind else {
                    unreachable!("sema enforces parameter-name args at interfaces");
                };
                let idx = sig
                    .params
                    .iter()
                    .position(|(n, _)| n == pname)
                    .expect("sema validated the parameter");
                arg_params.push(idx);
            }
            mgr.members.push(FuncMember {
                func: name.clone(),
                set: m.set,
                arg_params,
                span: m.span,
            });
        }
    }

    let mut program = unit.program;
    // Step 1: inline call paths that enable named blocks.
    mgr.inline_enabled_calls(&mut program, &unit.arg_adds, &mut next_stmt_id)?;
    // Step 2: outline commutative regions, innermost first.
    mgr.outline_regions(&mut program, &mut next_stmt_id)?;
    // Step 3: well-formedness.
    mgr.check_well_formedness(&program)?;

    Ok(ManagedUnit {
        program,
        commsets: mgr.commsets,
        members: mgr.members,
        sigs: mgr.sigs,
        globals: mgr.globals,
        region_origins: mgr.region_origins,
        next_stmt_id,
    })
}

fn max_stmt_id(p: &Program) -> u32 {
    let mut max = 0;
    for item in &p.items {
        if let Item::Func(f) = item {
            walk_stmts(&f.body, &mut |s| max = max.max(s.id.0));
        }
    }
    max
}

fn err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Phase::Commset, msg, span)
}

struct Manager {
    commsets: Vec<CommSetDef>,
    members: Vec<FuncMember>,
    sigs: HashMap<String, FuncSig>,
    globals: HashMap<String, (Type, Option<usize>)>,
    region_origins: HashMap<String, Span>,
    /// Original block memberships from sema: StmtId → (set, args, span).
    block_memberships: HashMap<StmtId, Vec<(SetId, Vec<Expr>, Span)>>,
    region_counter: u32,
    inline_counter: u32,
}

impl Manager {
    fn fresh_self_set(&mut self, tag: &str, span: Span) -> SetId {
        let id = SetId(self.commsets.len() as u32);
        self.commsets.push(CommSetDef {
            id,
            name: format!("__self_{tag}"),
            kind: SetKind::SelfSet,
            predicate: None,
            nosync: false,
            span,
        });
        id
    }

    // -----------------------------------------------------------------
    // Step 1: inlining
    // -----------------------------------------------------------------

    fn inline_enabled_calls(
        &mut self,
        program: &mut Program,
        arg_adds: &[commset_lang::sema::ArgAddSite],
        next_stmt_id: &mut u32,
    ) -> Result<(), Diagnostic> {
        for add in arg_adds {
            // Snapshot the callee.
            let callee = program
                .items
                .iter()
                .find_map(|i| match i {
                    Item::Func(f) if f.name == add.callee => Some(f.clone()),
                    _ => None,
                })
                .ok_or_else(|| err(format!("unknown callee `{}`", add.callee), add.span))?;
            if !callee.instances.is_empty() {
                return Err(err(
                    format!(
                        "cannot inline `{}`: it is itself an interface-level CommSet member",
                        callee.name
                    ),
                    add.span,
                ));
            }
            let caller = program
                .items
                .iter_mut()
                .find_map(|i| match i {
                    Item::Func(f) if f.name == add.in_func => Some(f),
                    _ => None,
                })
                .ok_or_else(|| err(format!("unknown caller `{}`", add.in_func), add.span))?;
            let k = self.inline_counter;
            self.inline_counter += 1;
            let mut done = false;
            inline_in_stmts(
                &mut caller.body.stmts,
                add,
                &callee,
                k,
                next_stmt_id,
                &mut done,
            )?;
            if !done {
                return Err(err(
                    format!(
                        "could not find the enabling call to `{}` for block `{}`",
                        add.callee, add.block
                    ),
                    add.span,
                ));
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Step 2: outlining
    // -----------------------------------------------------------------

    fn outline_regions(
        &mut self,
        program: &mut Program,
        next_stmt_id: &mut u32,
    ) -> Result<(), Diagnostic> {
        let mut new_funcs: Vec<FuncDecl> = Vec::new();
        for item in &mut program.items {
            let Item::Func(f) = item else { continue };
            let mut scopes: Vec<HashMap<String, (Type, Option<usize>)>> = vec![f
                .params
                .iter()
                .map(|p| (p.name.clone(), (p.ty, None)))
                .collect()];
            let fname = f.name.clone();
            self.outline_in_stmts(
                &mut f.body.stmts,
                &mut scopes,
                &fname,
                &mut new_funcs,
                next_stmt_id,
            )?;
        }
        for nf in new_funcs {
            self.sigs.insert(
                nf.name.clone(),
                FuncSig {
                    ret: nf.ret,
                    params: nf.params.iter().map(|p| (p.name.clone(), p.ty)).collect(),
                    is_extern: false,
                },
            );
            program.items.push(Item::Func(nf));
        }
        Ok(())
    }

    fn outline_in_stmts(
        &mut self,
        stmts: &mut [Stmt],
        scopes: &mut Vec<HashMap<String, (Type, Option<usize>)>>,
        in_func: &str,
        new_funcs: &mut Vec<FuncDecl>,
        next_stmt_id: &mut u32,
    ) -> Result<(), Diagnostic> {
        scopes.push(HashMap::new());
        for stmt in stmts.iter_mut() {
            self.outline_stmt(stmt, scopes, in_func, new_funcs, next_stmt_id)?;
            // Record declarations so later siblings see them.
            if let StmtKind::VarDecl {
                name,
                ty,
                array_len,
                ..
            } = &stmt.kind
            {
                scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), (*ty, *array_len));
            }
        }
        scopes.pop();
        Ok(())
    }

    fn outline_stmt(
        &mut self,
        stmt: &mut Stmt,
        scopes: &mut Vec<HashMap<String, (Type, Option<usize>)>>,
        in_func: &str,
        new_funcs: &mut Vec<FuncDecl>,
        next_stmt_id: &mut u32,
    ) -> Result<(), Diagnostic> {
        // Post-order: descend first so nested regions are extracted before
        // their parents.
        match &mut stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.outline_stmt(then_branch, scopes, in_func, new_funcs, next_stmt_id)?;
                if let Some(e) = else_branch {
                    self.outline_stmt(e, scopes, in_func, new_funcs, next_stmt_id)?;
                }
            }
            StmtKind::While { body, .. } => {
                self.outline_stmt(body, scopes, in_func, new_funcs, next_stmt_id)?
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                scopes.push(HashMap::new());
                if let Some(i) = init {
                    if let StmtKind::VarDecl {
                        name,
                        ty,
                        array_len,
                        ..
                    } = &i.kind
                    {
                        scopes
                            .last_mut()
                            .unwrap()
                            .insert(name.clone(), (*ty, *array_len));
                    }
                }
                self.outline_stmt(body, scopes, in_func, new_funcs, next_stmt_id)?;
                if let Some(st) = step {
                    self.outline_stmt(st, scopes, in_func, new_funcs, next_stmt_id)?;
                }
                scopes.pop();
            }
            StmtKind::Block(b) => {
                let mut stmts = std::mem::take(&mut b.stmts);
                self.outline_in_stmts(&mut stmts, scopes, in_func, new_funcs, next_stmt_id)?;
                b.stmts = stmts;
            }
            _ => {}
        }
        // Now outline this statement if it is a commutative block.
        let memberships = self.resolve_block_memberships(stmt)?;
        if memberships.is_empty() {
            return Ok(());
        }
        let StmtKind::Block(block) = &stmt.kind else {
            unreachable!("sema enforces block-level annotations on compounds");
        };
        // Free-variable analysis.
        let (reads, writes, arrays) = free_vars(block);
        let lookup = |name: &str| -> Option<(Type, Option<usize>)> {
            for s in scopes.iter().rev() {
                if let Some(&v) = s.get(name) {
                    return Some(v);
                }
            }
            None
        };
        // Outer local arrays cannot be captured by value.
        for a in &arrays {
            if lookup(a).is_some() {
                return Err(err(
                    format!(
                        "commutative block captures outer local array `{a}`; move the array into the block or make it global"
                    ),
                    stmt.span,
                ));
            }
        }
        let free_reads: Vec<(String, Type)> = reads
            .iter()
            .filter_map(|n| lookup(n).map(|(ty, _)| (n.clone(), ty)))
            .collect();
        let free_writes: Vec<(String, Type)> = writes
            .iter()
            .filter_map(|n| lookup(n).map(|(ty, _)| (n.clone(), ty)))
            .collect();
        if free_writes.len() > 1 {
            return Err(err(
                format!(
                    "commutative block writes {} outer locals ({}); restructure so it writes at most one",
                    free_writes.len(),
                    free_writes
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                stmt.span,
            ));
        }
        // Parameters: predicate args first (deduplicated, stable), then the
        // remaining free reads, then the written var if not yet present.
        let mut params: Vec<(String, Type)> = Vec::new();
        let param_index = |params: &mut Vec<(String, Type)>, name: &str, ty: Type| -> usize {
            if let Some(i) = params.iter().position(|(n, _)| n == name) {
                i
            } else {
                params.push((name.to_string(), ty));
                params.len() - 1
            }
        };
        let mut member_entries: Vec<(SetId, Vec<usize>, Span)> = Vec::new();
        for (set, args, span) in &memberships {
            let mut idxs = Vec::new();
            for a in args {
                let ExprKind::Var(name) = &a.kind else {
                    return Err(err("predicate arguments must be variables", *span));
                };
                let Some((ty, None)) = lookup(name) else {
                    return Err(err(
                        format!("predicate argument `{name}` is not an in-scope scalar"),
                        *span,
                    ));
                };
                idxs.push(param_index(&mut params, name, ty));
            }
            member_entries.push((*set, idxs, *span));
        }
        for (n, ty) in &free_reads {
            param_index(&mut params, n, *ty);
        }
        let ret = match free_writes.first() {
            Some((n, ty)) => {
                param_index(&mut params, n, *ty);
                Some((n.clone(), *ty))
            }
            None => None,
        };
        // Synthesize the region function.
        self.region_counter += 1;
        let region_name = format!("__commset_region_{}", self.region_counter);
        self.region_origins.insert(region_name.clone(), stmt.span);
        let StmtKind::Block(block) = std::mem::replace(&mut stmt.kind, StmtKind::Break) else {
            unreachable!();
        };
        let mut body_stmts = block.stmts;
        if let Some((w, _)) = &ret {
            body_stmts.push(Stmt::plain(
                fresh_id(next_stmt_id),
                StmtKind::Return(Some(Expr::var(w.clone()))),
                stmt.span,
            ));
        }
        new_funcs.push(FuncDecl {
            name: region_name.clone(),
            ret: ret.as_ref().map(|(_, t)| *t).unwrap_or(Type::Void),
            params: params
                .iter()
                .map(|(n, t)| Param {
                    name: n.clone(),
                    ty: *t,
                    span: stmt.span,
                })
                .collect(),
            body: Block {
                stmts: body_stmts,
                span: block.span,
            },
            instances: Vec::new(),
            named_args: Vec::new(),
            span: stmt.span,
        });
        // Register memberships.
        for (set, arg_params, span) in member_entries {
            self.members.push(FuncMember {
                func: region_name.clone(),
                set,
                arg_params,
                span,
            });
        }
        // Replace the block with a call.
        let call = Expr::new(
            ExprKind::Call(
                region_name,
                params.iter().map(|(n, _)| Expr::var(n.clone())).collect(),
            ),
            stmt.span,
        );
        stmt.kind = match ret {
            Some((w, _)) => StmtKind::Assign {
                target: LValue::Var(w, stmt.span),
                op: AssignOp::Set,
                value: call,
            },
            None => StmtKind::ExprStmt(call),
        };
        stmt.instances.clear();
        stmt.named_block = None;
        Ok(())
    }

    /// Memberships of a block statement: sema's table for original ids,
    /// re-resolved pragma instances for inlined clones.
    fn resolve_block_memberships(
        &mut self,
        stmt: &Stmt,
    ) -> Result<Vec<(SetId, Vec<Expr>, Span)>, Diagnostic> {
        if stmt.instances.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(ms) = self.block_memberships.remove(&stmt.id) {
            return Ok(ms);
        }
        // A clone produced by inlining: resolve instance names again.
        let mut out = Vec::new();
        for inst in &stmt.instances {
            let set = match &inst.set {
                SetRef::SelfImplicit => {
                    self.fresh_self_set(&format!("clone_{}", stmt.id.0), inst.span)
                }
                SetRef::Named(n) => self
                    .commsets
                    .iter()
                    .find(|s| &s.name == n)
                    .map(|s| s.id)
                    .ok_or_else(|| err(format!("undeclared CommSet `{n}`"), inst.span))?,
            };
            out.push((set, inst.args.clone(), inst.span));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Step 3: well-formedness
    // -----------------------------------------------------------------

    fn check_well_formedness(&self, program: &Program) -> Result<(), Diagnostic> {
        let cg = CallGraph::new(program);
        // (b) No transitive calls between members of the same set.
        let mut by_set: BTreeMap<SetId, Vec<&FuncMember>> = BTreeMap::new();
        for m in &self.members {
            by_set.entry(m.set).or_default().push(m);
        }
        for (set, members) in &by_set {
            for a in members {
                for b in members {
                    if cg.calls_transitively(&a.func, &b.func) {
                        return Err(err(
                            format!(
                                "ill-defined CommSet `{}`: member `{}` transitively calls member `{}`",
                                self.commsets[set.0 as usize].name, a.func, b.func
                            ),
                            a.span,
                        ));
                    }
                }
            }
        }
        // CommSet graph: S1 -> S2 if a member of S1 transitively calls a
        // member of S2.
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (s1, m1s) in &by_set {
            let name1 = self.commsets[s1.0 as usize].name.clone();
            let entry = edges.entry(name1).or_default();
            for (s2, m2s) in &by_set {
                if s1 == s2 {
                    continue;
                }
                let reach = m1s
                    .iter()
                    .any(|a| m2s.iter().any(|b| cg.calls_transitively(&a.func, &b.func)));
                if reach {
                    entry.insert(self.commsets[s2.0 as usize].name.clone());
                }
            }
        }
        if let Some(cycle) = find_cycle(&edges) {
            return Err(Diagnostic::global(
                Phase::Commset,
                format!(
                    "ill-formed CommSets: cycle in the CommSet graph ({})",
                    cycle.join(" -> ")
                ),
            ));
        }
        Ok(())
    }
}

fn fresh_id(next: &mut u32) -> StmtId {
    let id = StmtId(*next);
    *next += 1;
    id
}

// ---------------------------------------------------------------------------
// Inlining machinery
// ---------------------------------------------------------------------------

/// Recursively searches `stmts` for the statement annotated with `add` and
/// splices the inlined callee in its place.
fn inline_in_stmts(
    stmts: &mut Vec<Stmt>,
    add: &commset_lang::sema::ArgAddSite,
    callee: &FuncDecl,
    k: u32,
    next_stmt_id: &mut u32,
    done: &mut bool,
) -> Result<(), Diagnostic> {
    let mut i = 0;
    while i < stmts.len() {
        if stmts[i].id == add.stmt {
            let target = &mut stmts[i];
            target.named_arg_adds.retain(|a| a.block != add.block);
            match &mut target.kind {
                StmtKind::Block(b) => {
                    // Find the enabling call among the block's statements.
                    let mut j = 0;
                    let mut found = false;
                    while j < b.stmts.len() {
                        if stmt_calls(&b.stmts[j], &callee.name) {
                            let original = b.stmts.remove(j);
                            let replacement =
                                inline_call_stmt(original, add, callee, k, next_stmt_id)?;
                            for (off, s) in replacement.into_iter().enumerate() {
                                b.stmts.insert(j + off, s);
                            }
                            found = true;
                            break;
                        }
                        j += 1;
                    }
                    if !found {
                        return Err(err(
                            format!("no call to `{}` inside the annotated block", callee.name),
                            add.span,
                        ));
                    }
                }
                _ => {
                    let original = stmts.remove(i);
                    let replacement = inline_call_stmt(original, add, callee, k, next_stmt_id)?;
                    for (off, s) in replacement.into_iter().enumerate() {
                        stmts.insert(i + off, s);
                    }
                }
            }
            *done = true;
            return Ok(());
        }
        // Recurse into compound structure.
        match &mut stmts[i].kind {
            StmtKind::Block(b) => {
                inline_in_stmts(&mut b.stmts, add, callee, k, next_stmt_id, done)?
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                inline_in_one(then_branch, add, callee, k, next_stmt_id, done)?;
                if let Some(e) = else_branch {
                    inline_in_one(e, add, callee, k, next_stmt_id, done)?;
                }
            }
            StmtKind::While { body, .. } => {
                inline_in_one(body, add, callee, k, next_stmt_id, done)?
            }
            StmtKind::For { body, .. } => inline_in_one(body, add, callee, k, next_stmt_id, done)?,
            _ => {}
        }
        if *done {
            return Ok(());
        }
        i += 1;
    }
    Ok(())
}

fn inline_in_one(
    stmt: &mut Stmt,
    add: &commset_lang::sema::ArgAddSite,
    callee: &FuncDecl,
    k: u32,
    next_stmt_id: &mut u32,
    done: &mut bool,
) -> Result<(), Diagnostic> {
    if let StmtKind::Block(b) = &mut stmt.kind {
        return inline_in_stmts(&mut b.stmts, add, callee, k, next_stmt_id, done);
    }
    // A non-block child cannot carry the annotation (sema would have put it
    // on a block) but may contain nested blocks.
    match &mut stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            inline_in_one(then_branch, add, callee, k, next_stmt_id, done)?;
            if let Some(e) = else_branch {
                inline_in_one(e, add, callee, k, next_stmt_id, done)?;
            }
        }
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
            inline_in_one(body, add, callee, k, next_stmt_id, done)?
        }
        _ => {}
    }
    Ok(())
}

/// True if this statement *directly* performs a call to `name` in one of
/// the inlinable shapes.
fn stmt_calls(stmt: &Stmt, name: &str) -> bool {
    match &stmt.kind {
        StmtKind::VarDecl {
            init:
                Some(Expr {
                    kind: ExprKind::Call(n, _),
                    ..
                }),
            ..
        } => n == name,
        StmtKind::Assign {
            value:
                Expr {
                    kind: ExprKind::Call(n, _),
                    ..
                },
            ..
        } => n == name,
        StmtKind::ExprStmt(Expr {
            kind: ExprKind::Call(n, _),
            ..
        }) => n == name,
        _ => false,
    }
}

/// Inlines `callee` at the given call statement, returning the replacement
/// statement sequence.
fn inline_call_stmt(
    original: Stmt,
    add: &commset_lang::sema::ArgAddSite,
    callee: &FuncDecl,
    k: u32,
    next_stmt_id: &mut u32,
) -> Result<Vec<Stmt>, Diagnostic> {
    // Validate callee shape: returns only as the final top-level statement.
    let n = callee.body.stmts.len();
    for (i, s) in callee.body.stmts.iter().enumerate() {
        let mut has_return = false;
        walk_stmt(s, &mut |x| {
            if matches!(x.kind, StmtKind::Return(_)) {
                has_return = true;
            }
        });
        if has_return && i + 1 != n {
            return Err(err(
                format!(
                    "cannot inline `{}`: `return` must be its final statement",
                    callee.name
                ),
                add.span,
            ));
        }
    }
    if n > 0 {
        // Even the final statement must be a *top-level* return (or none).
        let last = &callee.body.stmts[n - 1];
        let mut nested_return = false;
        walk_stmt(last, &mut |x| {
            if matches!(x.kind, StmtKind::Return(_)) && x.id != last.id {
                nested_return = true;
            }
        });
        if nested_return && !matches!(last.kind, StmtKind::Return(_)) {
            return Err(err(
                format!(
                    "cannot inline `{}`: `return` must be its final top-level statement",
                    callee.name
                ),
                add.span,
            ));
        }
    }

    // Extract the call expression and result binding from the original.
    let (call_args, binding) = match original.kind {
        StmtKind::VarDecl {
            name,
            ty,
            init: Some(Expr { kind: ExprKind::Call(_, args), .. }),
            ..
        } => (args, Some((name, ty, true))),
        StmtKind::Assign {
            target,
            op: AssignOp::Set,
            value: Expr { kind: ExprKind::Call(_, args), .. },
        } => match target {
            LValue::Var(name, _) => (args, Some((name, Type::Void, false))),
            LValue::Index(..) => {
                return Err(err(
                    "cannot inline into an array-element assignment",
                    add.span,
                ))
            }
        },
        StmtKind::ExprStmt(Expr { kind: ExprKind::Call(_, args), .. }) => (args, None),
        _ => {
            return Err(err(
                "the enabling statement must be a direct call, assignment-from-call, or declaration-from-call",
                add.span,
            ))
        }
    };
    if call_args.len() != callee.params.len() {
        return Err(err("argument count mismatch while inlining", add.span));
    }

    // Rename map: params and all locals of the callee.
    let prefix = format!("__inl{k}_");
    let mut rename: HashMap<String, String> = HashMap::new();
    for p in &callee.params {
        rename.insert(p.name.clone(), format!("{prefix}{}", p.name));
    }
    let mut body = callee.body.clone();
    walk_stmts_mut(&mut body.stmts, &mut |s| {
        if let StmtKind::VarDecl { name, .. } = &mut s.kind {
            let fresh = format!("{prefix}{name}");
            rename.insert(name.clone(), fresh.clone());
            *name = fresh;
        }
    });
    // Apply renames to every reference, fresh ids, and handle annotations.
    let mut out: Vec<Stmt> = Vec::new();
    // Parameter bindings.
    for (p, arg) in callee.params.iter().zip(call_args) {
        out.push(Stmt::plain(
            fresh_id(next_stmt_id),
            StmtKind::VarDecl {
                name: rename[&p.name].clone(),
                ty: p.ty,
                array_len: None,
                init: Some(arg),
            },
            add.span,
        ));
    }
    // Body.
    let mut ret_expr: Option<Expr> = None;
    let body_len = body.stmts.len();
    for (i, mut s) in body.stmts.into_iter().enumerate() {
        rename_in_stmt(&mut s, &rename);
        renumber(&mut s, next_stmt_id);
        annotate_clone(&mut s, add);
        if i + 1 == body_len {
            if let StmtKind::Return(e) = s.kind {
                ret_expr = e;
                continue;
            }
        }
        out.push(s);
    }
    // Result binding.
    if let Some((name, ty, is_decl)) = binding {
        let e = ret_expr.ok_or_else(|| {
            err(
                format!(
                    "`{}` must end with `return` to be inlined here",
                    callee.name
                ),
                add.span,
            )
        })?;
        if is_decl {
            // Declare first (in the *caller* scope), then assign within
            // the same sequence.
            out.insert(
                0,
                Stmt::plain(
                    fresh_id(next_stmt_id),
                    StmtKind::VarDecl {
                        name: name.clone(),
                        ty,
                        array_len: None,
                        init: None,
                    },
                    add.span,
                ),
            );
        }
        out.push(Stmt::plain(
            fresh_id(next_stmt_id),
            StmtKind::Assign {
                target: LValue::Var(name, add.span),
                op: AssignOp::Set,
                value: e,
            },
            add.span,
        ));
    }
    Ok(out)
}

/// Attaches the enabling instances to the clone of the named block and
/// strips names from every named block copy.
fn annotate_clone(s: &mut Stmt, add: &commset_lang::sema::ArgAddSite) {
    walk_one_mut(s, &mut |x| {
        if x.named_block.as_deref() == Some(add.block.as_str()) {
            x.instances = add.instances.clone();
        }
        x.named_block = None;
    });
}

fn rename_in_stmt(s: &mut Stmt, rename: &HashMap<String, String>) {
    let fix = |n: &mut String| {
        if let Some(r) = rename.get(n) {
            *n = r.clone();
        }
    };
    walk_one_mut(s, &mut |x| {
        match &mut x.kind {
            StmtKind::Assign { target, .. } => match target {
                LValue::Var(n, _) | LValue::Index(n, _, _) => fix(n),
            },
            StmtKind::VarDecl { .. } => {} // already renamed
            _ => {}
        }
        for inst in &mut x.instances {
            for a in &mut inst.args {
                rename_in_expr(a, rename);
            }
        }
        stmt_exprs_mut(x, &mut |e| rename_in_expr(e, rename));
    });
}

fn rename_in_expr(e: &mut Expr, rename: &HashMap<String, String>) {
    match &mut e.kind {
        ExprKind::Var(n) => {
            if let Some(r) = rename.get(n) {
                *n = r.clone();
            }
        }
        ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => rename_in_expr(a, rename),
        ExprKind::Index(n, i) => {
            if let Some(r) = rename.get(n) {
                *n = r.clone();
            }
            rename_in_expr(i, rename);
        }
        ExprKind::Binary(_, a, b) => {
            rename_in_expr(a, rename);
            rename_in_expr(b, rename);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                rename_in_expr(a, rename);
            }
        }
        _ => {}
    }
}

fn renumber(s: &mut Stmt, next: &mut u32) {
    walk_one_mut(s, &mut |x| {
        x.id = StmtId(*next);
        *next += 1;
    });
}

// -- small mutable AST walkers ------------------------------------------------

fn walk_one_mut(s: &mut Stmt, f: &mut dyn FnMut(&mut Stmt)) {
    f(s);
    match &mut s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_one_mut(then_branch, f);
            if let Some(e) = else_branch {
                walk_one_mut(e, f);
            }
        }
        StmtKind::While { body, .. } => walk_one_mut(body, f),
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                walk_one_mut(i, f);
            }
            if let Some(st) = step {
                walk_one_mut(st, f);
            }
            walk_one_mut(body, f);
        }
        StmtKind::Block(b) => {
            for x in &mut b.stmts {
                walk_one_mut(x, f);
            }
        }
        _ => {}
    }
}

fn walk_stmts_mut(stmts: &mut [Stmt], f: &mut dyn FnMut(&mut Stmt)) {
    for s in stmts {
        walk_one_mut(s, f);
    }
}

fn stmt_exprs_mut(s: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    match &mut s.kind {
        StmtKind::VarDecl { init: Some(e), .. } => f(e),
        StmtKind::Assign { target, value, .. } => {
            if let LValue::Index(_, idx, _) = target {
                f(idx);
            }
            f(value);
        }
        StmtKind::If { cond, .. } => f(cond),
        StmtKind::While { cond, .. } => f(cond),
        StmtKind::For { cond: Some(c), .. } => f(c),
        StmtKind::Return(Some(e)) => f(e),
        StmtKind::ExprStmt(e) => f(e),
        _ => {}
    }
}

/// Free scalar reads/writes and referenced array names of a block,
/// excluding names declared anywhere inside the block.
fn free_vars(block: &Block) -> (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>) {
    let mut declared = BTreeSet::new();
    for s in &block.stmts {
        walk_stmt(s, &mut |x| {
            if let StmtKind::VarDecl { name, .. } = &x.kind {
                declared.insert(name.clone());
            }
        });
    }
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    let mut arrays = BTreeSet::new();
    for s in &block.stmts {
        walk_stmt(s, &mut |x| {
            if let StmtKind::Assign { target, .. } = &x.kind {
                match target {
                    LValue::Var(n, _) => {
                        if !declared.contains(n) {
                            writes.insert(n.clone());
                        }
                    }
                    LValue::Index(n, _, _) => {
                        if !declared.contains(n) {
                            arrays.insert(n.clone());
                        }
                    }
                }
            }
            stmt_exprs(x, &mut |e| {
                walk_expr(e, &mut |y| match &y.kind {
                    ExprKind::Var(n) if !declared.contains(n) => {
                        reads.insert(n.clone());
                    }
                    ExprKind::Index(n, _) if !declared.contains(n) => {
                        arrays.insert(n.clone());
                    }
                    _ => {}
                });
            });
        });
    }
    (reads, writes, arrays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::compile_unit;
    use commset_lang::printer::print_program;

    fn manage_src(src: &str) -> ManagedUnit {
        manage(compile_unit(src).unwrap()).unwrap()
    }

    #[test]
    fn outlines_simple_region() {
        let m = manage_src(
            r#"
            extern int op(int k);
            int main() {
                int acc = 0;
                for (int i = 0; i < 4; i = i + 1) {
                    #pragma CommSet(SELF)
                    { acc = acc + op(i); }
                }
                return acc;
            }
            "#,
        );
        assert_eq!(m.members.len(), 1);
        let member = &m.members[0];
        assert!(member.func.starts_with("__commset_region_"));
        // Region reads acc and i, writes acc -> params {acc, i}, returns int.
        let sig = &m.sigs[&member.func];
        assert_eq!(sig.ret, Type::Int);
        let names: Vec<&str> = sig.params.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"acc") && names.contains(&"i"), "{names:?}");
        // The loop body now assigns from a region call.
        let printed = print_program(&m.program);
        assert!(printed.contains("acc = __commset_region_1("), "{printed}");
    }

    #[test]
    fn predicate_args_become_leading_params() {
        let m = manage_src(
            r#"
            #pragma CommSetDecl(FSET, Group)
            #pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
            extern void op(int k);
            extern void op2(int k);
            int main() {
                for (int i = 0; i < 4; i = i + 1) {
                    #pragma CommSet(FSET(i))
                    { op(7); }
                    #pragma CommSet(FSET(i))
                    { op2(8); }
                }
                return 0;
            }
            "#,
        );
        // `i` is not read inside the block but must still be a parameter.
        let fset = m.set_by_name("FSET").unwrap().id;
        for member in m.members.iter().filter(|m| m.set == fset) {
            assert_eq!(member.arg_params, vec![0]);
            let sig = &m.sigs[&member.func];
            assert_eq!(sig.params[0].0, "i");
        }
    }

    #[test]
    fn rejects_block_writing_two_outer_locals() {
        let r = manage(
            compile_unit(
                r#"
                extern int op(int k);
                int main() {
                    int a = 0; int b = 0;
                    for (int i = 0; i < 4; i = i + 1) {
                        #pragma CommSet(SELF)
                        { a = op(i); b = op(i); }
                    }
                    return a + b;
                }
                "#,
            )
            .unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_block_capturing_outer_array() {
        let r = manage(
            compile_unit(
                r#"
                int main() {
                    int buf[4];
                    for (int i = 0; i < 4; i = i + 1) {
                        #pragma CommSet(SELF)
                        { buf[0] = i; }
                    }
                    return 0;
                }
                "#,
            )
            .unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn nested_regions_outline_innermost_first() {
        let m = manage_src(
            r#"
            #pragma CommSetDecl(A, Group)
            #pragma CommSetDecl(B, Group)
            extern void opa(int k);
            extern void opb(int k);
            int main() {
                for (int i = 0; i < 4; i = i + 1) {
                    #pragma CommSet(A)
                    {
                        opa(i);
                        #pragma CommSet(B)
                        { opb(i); }
                    }
                }
                return 0;
            }
            "#,
        );
        assert_eq!(m.members.len(), 2);
        // The outer region (member of A) calls the inner region function.
        let a = m.set_by_name("A").unwrap().id;
        let outer = m.members.iter().find(|x| x.set == a).unwrap();
        let cg = CallGraph::new(&m.program);
        let b = m.set_by_name("B").unwrap().id;
        let inner = m.members.iter().find(|x| x.set == b).unwrap();
        assert!(cg.calls_transitively(&outer.func, &inner.func));
    }

    #[test]
    fn same_set_nesting_is_ill_defined() {
        let r = manage(
            compile_unit(
                r#"
                #pragma CommSetDecl(A, Group)
                extern void op(int k);
                int main() {
                    for (int i = 0; i < 4; i = i + 1) {
                        #pragma CommSet(A)
                        {
                            op(i);
                            #pragma CommSet(A)
                            { op(i); }
                        }
                    }
                    return 0;
                }
                "#,
            )
            .unwrap(),
        );
        let e = r.unwrap_err();
        assert!(e.message.contains("ill-defined"), "{e}");
    }

    #[test]
    fn inlines_enabled_named_block() {
        let m = manage_src(
            r#"
            #pragma CommSetDecl(SSET, Self)
            #pragma CommSetPredicate(SSET, (a), (b), a != b)
            extern int fs_read(handle fp);
            #pragma CommSetNamedArg(READB)
            int mdfile(handle fp) {
                int acc = 0;
                #pragma CommSetNamedBlock(READB)
                { acc = acc + fs_read(fp); }
                return acc;
            }
            int main() {
                int total = 0;
                for (int i = 0; i < 4; i = i + 1) {
                    handle fp = handle(i);
                    #pragma CommSetNamedArgAdd(READB, SSET(i))
                    { int d = mdfile(fp); total = total + d; }
                }
                return total;
            }
            "#,
        );
        // One member: the outlined clone of READB, in SSET, predicated on i.
        let sset = m.set_by_name("SSET").unwrap().id;
        let ms: Vec<_> = m.members.iter().filter(|x| x.set == sset).collect();
        assert_eq!(ms.len(), 1);
        let member = ms[0];
        let sig = &m.sigs[&member.func];
        // Leading param is the caller's `i`.
        assert_eq!(sig.params[member.arg_params[0]].0, "i");
        // mdfile itself is unchanged and still exists for other clients.
        assert!(m.sigs.contains_key("mdfile"));
        let printed = print_program(&m.program);
        assert!(
            printed.contains("__inl0_"),
            "inlined locals are renamed: {printed}"
        );
    }

    #[test]
    fn interface_members_carry_over() {
        let m = manage_src(
            r#"
            #pragma CommSetDecl(S, Group)
            #pragma CommSetPredicate(S, (a), (b), a != b)
            extern void io(int k);
            #pragma CommSet(S(n))
            int f(int z, int n) { io(n); return z; }
            #pragma CommSet(S(q))
            int g(int q) { io(q); return q; }
            int main() { return f(1, 2) + g(3); }
            "#,
        );
        let s = m.set_by_name("S").unwrap().id;
        let ms: Vec<_> = m.members.iter().filter(|x| x.set == s).collect();
        assert_eq!(ms.len(), 2);
        let f = ms.iter().find(|x| x.func == "f").unwrap();
        assert_eq!(f.arg_params, vec![1], "n is f's second parameter");
        let g = ms.iter().find(|x| x.func == "g").unwrap();
        assert_eq!(g.arg_params, vec![0]);
    }

    #[test]
    fn common_sets_respects_kinds() {
        let m = manage_src(
            r#"
            #pragma CommSetDecl(G, Group)
            extern void io(int k);
            #pragma CommSet(G, SELF)
            int f(int n) { io(n); return n; }
            #pragma CommSet(G)
            int g(int q) { io(q); return q; }
            int main() { return f(1) + g(3); }
            "#,
        );
        let g = m.set_by_name("G").unwrap().id;
        // f and g commute under the Group set.
        assert_eq!(m.common_sets("f", "g"), vec![g]);
        // f commutes with itself only under its implicit SELF set.
        let selfs = m.common_sets("f", "f");
        assert_eq!(selfs.len(), 1);
        assert_eq!(m.set(selfs[0]).kind, SetKind::SelfSet);
        // g does not commute with itself (Group membership only).
        assert!(m.common_sets("g", "g").is_empty());
    }
}
