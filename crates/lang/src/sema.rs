//! Semantic analysis: type checking, COMMSET resolution, predicate function
//! synthesis and the paper's *well-definedness* checks (§3.1, §4.1).
//!
//! The output [`CheckedUnit`] is the interface consumed by AST-to-IR
//! lowering and by the CommSet metadata manager: it contains the (possibly
//! extended) program plus fully resolved set declarations, memberships,
//! named blocks and call-site enablements.

use crate::ast::*;
use crate::diag::{Diagnostic, Phase};
use crate::token::Span;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Identifier of a resolved CommSet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(pub u32);

impl std::fmt::Display for SetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cs{}", self.0)
    }
}

/// A resolved CommSet declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSetDef {
    /// Unique id (also the default synchronization rank order).
    pub id: SetId,
    /// Source name, or a synthesized `__self_*` name for implicit `SELF`
    /// sets.
    pub name: String,
    /// Self or Group semantics.
    pub kind: SetKind,
    /// The predicate, if the set is predicated.
    pub predicate: Option<PredicateDef>,
    /// True if `CommSetNoSync` applies: members are already thread safe.
    pub nosync: bool,
    /// Declaration site (or the first use, for implicit sets).
    pub span: Span,
}

/// A resolved `CommSetPredicate`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateDef {
    /// Name of the synthesized predicate function (`__pred_<SET>`).
    pub func_name: String,
    /// First member's parameter names.
    pub params1: Vec<String>,
    /// Second member's parameter names.
    pub params2: Vec<String>,
    /// Inferred parameter types (length = `params1.len()`), shared by both
    /// lists.
    pub param_tys: Vec<Type>,
    /// The predicate expression.
    pub body: Expr,
}

/// What kind of entity a CommSet member is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemberRef {
    /// A whole function (interface-level commutativity).
    Func(String),
    /// A structured code block in client code, identified by its statement
    /// id.
    Block(StmtId),
}

impl std::fmt::Display for MemberRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemberRef::Func(n) => write!(f, "fn {n}"),
            MemberRef::Block(id) => write!(f, "block {id}"),
        }
    }
}

/// One membership: `member` belongs to `set` with predicate actuals `args`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberDef {
    /// The member.
    pub member: MemberRef,
    /// The set joined.
    pub set: SetId,
    /// Predicate actual arguments (empty for unpredicated sets).
    pub args: Vec<Expr>,
    /// Annotation site.
    pub span: Span,
}

/// A named optional block (`CommSetNamedBlock`) exported at an interface.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedBlockDef {
    /// The function whose body contains the block.
    pub owner: String,
    /// The block statement.
    pub stmt: StmtId,
}

/// A call site enabling a named block via `CommSetNamedArgAdd`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgAddSite {
    /// The annotated statement.
    pub stmt: StmtId,
    /// The function containing the call site.
    pub in_func: String,
    /// The callee exporting the block.
    pub callee: String,
    /// The enabled block.
    pub block: String,
    /// The sets the block joins, with predicate actuals evaluated in the
    /// *caller's* context.
    pub instances: Vec<CommSetInstance>,
    /// The resolved set of each instance (implicit `SELF` sets included).
    pub resolved_sets: Vec<SetId>,
    /// Annotation site.
    pub span: Span,
}

/// A function or intrinsic signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSig {
    /// Return type.
    pub ret: Type,
    /// Parameter names and types.
    pub params: Vec<(String, Type)>,
    /// True for `extern` intrinsics.
    pub is_extern: bool,
}

/// The result of semantic analysis.
#[derive(Debug, Clone)]
pub struct CheckedUnit {
    /// The program, extended with synthesized predicate functions.
    pub program: Program,
    /// All CommSets (named and implicit), indexed by [`SetId`].
    pub commsets: Vec<CommSetDef>,
    /// All memberships.
    pub members: Vec<MemberDef>,
    /// Named optional blocks by name.
    pub named_blocks: HashMap<String, NamedBlockDef>,
    /// Call-site enablements of named blocks.
    pub arg_adds: Vec<ArgAddSite>,
    /// Signatures of all functions and intrinsics.
    pub sigs: HashMap<String, FuncSig>,
    /// Global variables: name → (type, array length).
    pub globals: HashMap<String, (Type, Option<usize>)>,
}

impl CheckedUnit {
    /// Looks up a set by id.
    pub fn set(&self, id: SetId) -> &CommSetDef {
        &self.commsets[id.0 as usize]
    }

    /// Looks up a set by source name.
    pub fn set_by_name(&self, name: &str) -> Option<&CommSetDef> {
        self.commsets.iter().find(|s| s.name == name)
    }
}

/// Runs semantic analysis on a parsed program.
///
/// # Errors
///
/// Returns the first type error, COMMSET resolution error, or
/// well-definedness violation.
pub fn analyze(program: Program) -> Result<CheckedUnit, Diagnostic> {
    Analyzer::new().run(program)
}

fn err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Phase::Sema, msg, span)
}

#[derive(Default)]
struct Analyzer {
    sigs: HashMap<String, FuncSig>,
    globals: HashMap<String, (Type, Option<usize>)>,
    sets: Vec<CommSetDef>,
    set_ids: HashMap<String, SetId>,
    members: Vec<MemberDef>,
    named_blocks: HashMap<String, NamedBlockDef>,
    arg_adds: Vec<ArgAddSite>,
    /// Deferred predicate-argument type observations: set → Vec<(types, span)>.
    pred_arg_tys: HashMap<SetId, Vec<(Vec<Type>, Span)>>,
}

impl Analyzer {
    fn new() -> Self {
        Analyzer::default()
    }

    fn run(mut self, mut program: Program) -> Result<CheckedUnit, Diagnostic> {
        self.collect_signatures(&program)?;
        self.collect_global_pragmas(&program)?;
        for item in &program.items {
            if let Item::Func(f) = item {
                self.check_function(f)?;
            }
        }
        self.resolve_arg_add_callees()?;
        let mut next_stmt_id = 0u32;
        for item in &program.items {
            if let Item::Func(f) = item {
                walk_stmts(&f.body, &mut |s| {
                    next_stmt_id = next_stmt_id.max(s.id.0 + 1)
                });
            }
        }
        let pred_funcs = self.finalize_predicates(&mut next_stmt_id)?;
        for f in pred_funcs {
            self.sigs.insert(
                f.name.clone(),
                FuncSig {
                    ret: f.ret,
                    params: f.params.iter().map(|p| (p.name.clone(), p.ty)).collect(),
                    is_extern: false,
                },
            );
            program.items.push(Item::Func(f));
        }
        Ok(CheckedUnit {
            program,
            commsets: self.sets,
            members: self.members,
            named_blocks: self.named_blocks,
            arg_adds: self.arg_adds,
            sigs: self.sigs,
            globals: self.globals,
        })
    }

    fn collect_signatures(&mut self, program: &Program) -> Result<(), Diagnostic> {
        for item in &program.items {
            match item {
                Item::Extern(e) => {
                    let sig = FuncSig {
                        ret: e.ret,
                        params: e.params.iter().map(|p| (p.name.clone(), p.ty)).collect(),
                        is_extern: true,
                    };
                    if self.sigs.insert(e.name.clone(), sig).is_some() {
                        return Err(err(
                            format!("duplicate declaration of `{}`", e.name),
                            e.span,
                        ));
                    }
                }
                Item::Func(f) => {
                    for p in &f.params {
                        if p.ty == Type::Void {
                            return Err(err("parameter cannot have type `void`", p.span));
                        }
                    }
                    let sig = FuncSig {
                        ret: f.ret,
                        params: f.params.iter().map(|p| (p.name.clone(), p.ty)).collect(),
                        is_extern: false,
                    };
                    if self.sigs.insert(f.name.clone(), sig).is_some() {
                        return Err(err(
                            format!("duplicate declaration of `{}`", f.name),
                            f.span,
                        ));
                    }
                }
                Item::Global(g) => {
                    if g.ty == Type::Void {
                        return Err(err("global cannot have type `void`", g.span));
                    }
                    if let Some(init) = &g.init {
                        if g.array_len.is_some() {
                            return Err(err("array globals cannot have initializers", g.span));
                        }
                        let ok = matches!(
                            (&init.kind, g.ty),
                            (ExprKind::IntLit(_), Type::Int) | (ExprKind::FloatLit(_), Type::Float)
                        );
                        if !ok {
                            return Err(err(
                                "global initializer must be a literal of the declared type",
                                init.span,
                            ));
                        }
                    }
                    if self
                        .globals
                        .insert(g.name.clone(), (g.ty, g.array_len))
                        .is_some()
                    {
                        return Err(err(format!("duplicate global `{}`", g.name), g.span));
                    }
                }
                Item::Pragma(_) => {}
            }
        }
        Ok(())
    }

    fn collect_global_pragmas(&mut self, program: &Program) -> Result<(), Diagnostic> {
        for item in &program.items {
            let Item::Pragma(p) = item else { continue };
            match p {
                GlobalPragma::Decl { name, kind, span } => {
                    if self.set_ids.contains_key(name) {
                        return Err(err(format!("duplicate CommSetDecl `{name}`"), *span));
                    }
                    let id = SetId(self.sets.len() as u32);
                    self.set_ids.insert(name.clone(), id);
                    self.sets.push(CommSetDef {
                        id,
                        name: name.clone(),
                        kind: *kind,
                        predicate: None,
                        nosync: false,
                        span: *span,
                    });
                }
                GlobalPragma::Predicate {
                    set,
                    params1,
                    params2,
                    body,
                    span,
                } => {
                    let Some(&id) = self.set_ids.get(set) else {
                        return Err(err(
                            format!("CommSetPredicate for undeclared set `{set}`"),
                            *span,
                        ));
                    };
                    let def = &mut self.sets[id.0 as usize];
                    if def.predicate.is_some() {
                        return Err(err(
                            format!("duplicate CommSetPredicate for `{set}`"),
                            *span,
                        ));
                    }
                    let mut seen: HashSet<&str> = HashSet::new();
                    for n in params1.iter().chain(params2) {
                        if !seen.insert(n) {
                            return Err(err(
                                format!("predicate parameter `{n}` appears twice"),
                                *span,
                            ));
                        }
                    }
                    check_predicate_purity(body, params1, params2)?;
                    def.predicate = Some(PredicateDef {
                        func_name: format!("__pred_{set}"),
                        params1: params1.clone(),
                        params2: params2.clone(),
                        param_tys: Vec::new(), // inferred later from instances
                        body: body.clone(),
                    });
                }
                GlobalPragma::NoSync { set, span } => {
                    let Some(&id) = self.set_ids.get(set) else {
                        return Err(err(
                            format!("CommSetNoSync for undeclared set `{set}`"),
                            *span,
                        ));
                    };
                    self.sets[id.0 as usize].nosync = true;
                }
            }
        }
        Ok(())
    }

    /// Creates (or reuses) the implicit anonymous Self set for an entity.
    fn implicit_self_set(&mut self, entity: &str, span: Span) -> SetId {
        let name = format!("__self_{entity}");
        if let Some(&id) = self.set_ids.get(&name) {
            return id;
        }
        let id = SetId(self.sets.len() as u32);
        self.set_ids.insert(name.clone(), id);
        self.sets.push(CommSetDef {
            id,
            name,
            kind: SetKind::SelfSet,
            predicate: None,
            nosync: false,
            span,
        });
        id
    }

    /// Resolves an instance's set reference (creating the implicit `SELF`
    /// set if needed), validates predicate arity and records the argument
    /// types for later inference. Returns the resolved set.
    fn observe_instance(
        &mut self,
        inst: &CommSetInstance,
        entity_tag: &str,
        arg_tys: Vec<Type>,
    ) -> Result<SetId, Diagnostic> {
        let set = match &inst.set {
            SetRef::SelfImplicit => {
                if !inst.args.is_empty() {
                    return Err(err(
                        "implicit `SELF` cannot be predicated; declare a named Self set with CommSetDecl",
                        inst.span,
                    ));
                }
                self.implicit_self_set(entity_tag, inst.span)
            }
            SetRef::Named(name) => match self.set_ids.get(name) {
                Some(&id) => id,
                None => {
                    return Err(err(
                        format!("use of undeclared CommSet `{name}`"),
                        inst.span,
                    ))
                }
            },
        };
        let def = &self.sets[set.0 as usize];
        match &def.predicate {
            Some(p) => {
                if inst.args.len() != p.params1.len() {
                    return Err(err(
                        format!(
                            "set `{}` expects {} predicate argument(s), got {}",
                            def.name,
                            p.params1.len(),
                            inst.args.len()
                        ),
                        inst.span,
                    ));
                }
                self.pred_arg_tys
                    .entry(set)
                    .or_default()
                    .push((arg_tys, inst.span));
            }
            None => {
                if !inst.args.is_empty() {
                    return Err(err(
                        format!(
                            "set `{}` is not predicated but arguments were supplied",
                            def.name
                        ),
                        inst.span,
                    ));
                }
            }
        }
        Ok(set)
    }

    fn add_member(
        &mut self,
        member: MemberRef,
        inst: &CommSetInstance,
        entity_tag: &str,
        arg_tys: Vec<Type>,
    ) -> Result<(), Diagnostic> {
        let set = self.observe_instance(inst, entity_tag, arg_tys)?;
        let def = &self.sets[set.0 as usize];
        if self
            .members
            .iter()
            .any(|m| m.member == member && m.set == set)
        {
            return Err(err(
                format!("`{member}` is already a member of `{}`", def.name),
                inst.span,
            ));
        }
        self.members.push(MemberDef {
            member,
            set,
            args: inst.args.clone(),
            span: inst.span,
        });
        Ok(())
    }

    fn check_function(&mut self, f: &FuncDecl) -> Result<(), Diagnostic> {
        // Interface-level instances: args must be parameter names.
        let instances = f.instances.clone();
        for inst in &instances {
            let mut arg_tys = Vec::new();
            for a in &inst.args {
                let ExprKind::Var(name) = &a.kind else {
                    return Err(err(
                        "interface-level predicate arguments must be parameter names",
                        a.span,
                    ));
                };
                let Some((_, ty)) = f
                    .params
                    .iter()
                    .map(|p| (&p.name, p.ty))
                    .find(|(n, _)| *n == name)
                else {
                    return Err(err(
                        format!("`{name}` is not a parameter of `{}`", f.name),
                        a.span,
                    ));
                };
                arg_tys.push(ty);
            }
            self.add_member(
                MemberRef::Func(f.name.clone()),
                inst,
                &format!("fn_{}", f.name),
                arg_tys,
            )?;
        }
        // Body: type check + collect block-level annotations.
        let mut checker = FuncChecker {
            analyzer: self,
            func: f,
            scopes: vec![f
                .params
                .iter()
                .map(|p| (p.name.clone(), (p.ty, None)))
                .collect()],
            loop_depth: 0,
            found_named_blocks: Vec::new(),
        };
        checker.check_block(&f.body)?;
        let found = std::mem::take(&mut checker.found_named_blocks);
        // Exported named args must all correspond to named blocks in the
        // body, and vice versa.
        for exported in &f.named_args {
            if !found.iter().any(|n| n == exported) {
                return Err(err(
                    format!(
                        "`{}` exports named block `{exported}` but its body declares no such block",
                        f.name
                    ),
                    f.span,
                ));
            }
        }
        for declared in &found {
            if !f.named_args.contains(declared) {
                return Err(err(
                    format!(
                        "named block `{declared}` in `{}` is not exported with CommSetNamedArg",
                        f.name
                    ),
                    f.span,
                ));
            }
        }
        Ok(())
    }

    /// After all functions are checked, bind each `CommSetNamedArgAdd` to
    /// the callee that exports the block.
    fn resolve_arg_add_callees(&mut self) -> Result<(), Diagnostic> {
        for add in &self.arg_adds {
            let Some(nb) = self.named_blocks.get(&add.block) else {
                return Err(err(
                    format!("CommSetNamedArgAdd names unknown block `{}`", add.block),
                    add.span,
                ));
            };
            if nb.owner != add.callee {
                return Err(err(
                    format!(
                        "block `{}` belongs to `{}`, but the annotated statement calls `{}`",
                        add.block, nb.owner, add.callee
                    ),
                    add.span,
                ));
            }
        }
        Ok(())
    }

    /// Infers predicate parameter types and synthesizes the predicate
    /// functions (paper §4.1: "synthesizes a C function for every
    /// COMMSETPREDICATE ... argument types are automatically inferred").
    fn finalize_predicates(&mut self, next_stmt_id: &mut u32) -> Result<Vec<FuncDecl>, Diagnostic> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            let Some(pred) = &mut set.predicate else {
                continue;
            };
            let obs = self.pred_arg_tys.get(&set.id).cloned().unwrap_or_default();
            if obs.is_empty() {
                return Err(err(
                    format!(
                        "predicated set `{}` has no instances supplying arguments",
                        set.name
                    ),
                    set.span,
                ));
            }
            let (tys, first_span) = &obs[0];
            for (other, span) in &obs[1..] {
                if other != tys {
                    return Err(err(
                        format!(
                            "inconsistent predicate argument types for set `{}`",
                            set.name
                        ),
                        *span,
                    ));
                }
            }
            pred.param_tys = tys.clone();
            // Type check the predicate body under the inferred types.
            let mut scope: HashMap<String, (Type, Option<usize>)> = HashMap::new();
            for (name, ty) in pred
                .params1
                .iter()
                .chain(&pred.params2)
                .zip(tys.iter().chain(tys.iter()))
            {
                scope.insert(name.clone(), (*ty, None));
            }
            let empty_sigs = HashMap::new();
            let ty = type_of_expr(&pred.body, &[scope.clone()], &empty_sigs, &HashMap::new())?;
            if ty != Type::Int {
                return Err(err(
                    format!("predicate for `{}` must evaluate to int (bool)", set.name),
                    *first_span,
                ));
            }
            // Synthesize `int __pred_<SET>(t a1.., t b1..) { return body; }`.
            let params: Vec<Param> = pred
                .params1
                .iter()
                .chain(&pred.params2)
                .zip(tys.iter().chain(tys.iter()))
                .map(|(name, ty)| Param {
                    name: name.clone(),
                    ty: *ty,
                    span: set.span,
                })
                .collect();
            out.push(FuncDecl {
                name: pred.func_name.clone(),
                ret: Type::Int,
                params,
                body: Block {
                    stmts: vec![Stmt::plain(
                        {
                            let id = StmtId(*next_stmt_id);
                            *next_stmt_id += 1;
                            id
                        },
                        StmtKind::Return(Some(pred.body.clone())),
                        set.span,
                    )],
                    span: set.span,
                },
                instances: Vec::new(),
                named_args: Vec::new(),
                span: set.span,
            });
        }
        Ok(out)
    }
}

/// Rejects impure predicate expressions: only the declared parameters,
/// literals and operators are allowed (no calls, no globals, no arrays), so
/// purity holds by construction ("tested for purity by inspection of its
/// body", §4.2).
fn check_predicate_purity(
    body: &Expr,
    params1: &[String],
    params2: &[String],
) -> Result<(), Diagnostic> {
    let mut bad: Option<Diagnostic> = None;
    walk_expr(body, &mut |e| {
        if bad.is_some() {
            return;
        }
        match &e.kind {
            ExprKind::Call(name, _) => {
                bad = Some(err(
                    format!("predicate must be pure: call to `{name}` is not allowed"),
                    e.span,
                ))
            }
            ExprKind::Index(..) => {
                bad = Some(err(
                    "predicate must be pure: array access is not allowed",
                    e.span,
                ))
            }
            ExprKind::StrLit(_) => {
                bad = Some(err("string literals are not allowed in predicates", e.span))
            }
            ExprKind::Var(n) if !params1.contains(n) && !params2.contains(n) => {
                bad = Some(err(
                    format!("predicate refers to `{n}`, which is not a predicate parameter"),
                    e.span,
                ));
            }
            _ => {}
        }
    });
    match bad {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Per-function type checking and annotation collection
// ---------------------------------------------------------------------------

struct FuncChecker<'a> {
    analyzer: &'a mut Analyzer,
    func: &'a FuncDecl,
    /// Lexical scopes: name → (type, array length).
    scopes: Vec<HashMap<String, (Type, Option<usize>)>>,
    loop_depth: u32,
    found_named_blocks: Vec<String>,
}

impl FuncChecker<'_> {
    fn lookup(&self, name: &str) -> Option<(Type, Option<usize>)> {
        for scope in self.scopes.iter().rev() {
            if let Some(&v) = scope.get(name) {
                return Some(v);
            }
        }
        self.analyzer.globals.get(name).copied()
    }

    fn check_block(&mut self, b: &Block) -> Result<(), Diagnostic> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn expr_ty(&self, e: &Expr) -> Result<Type, Diagnostic> {
        type_of_expr_scoped(e, &self.scopes, &self.analyzer.sigs, &self.analyzer.globals)
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        self.check_annotations(s)?;
        match &s.kind {
            StmtKind::VarDecl {
                name,
                ty,
                array_len,
                init,
            } => {
                if *ty == Type::Void {
                    return Err(err("variable cannot have type `void`", s.span));
                }
                if let Some(init) = init {
                    if array_len.is_some() {
                        return Err(err("array locals cannot have initializers", s.span));
                    }
                    let ity = self.expr_ty(init)?;
                    if ity != *ty {
                        return Err(err(
                            format!("initializer has type `{ity}`, expected `{ty}`"),
                            init.span,
                        ));
                    }
                }
                let scope = self.scopes.last_mut().unwrap();
                if scope.insert(name.clone(), (*ty, *array_len)).is_some() {
                    return Err(err(
                        format!("`{name}` is already declared in this scope"),
                        s.span,
                    ));
                }
                Ok(())
            }
            StmtKind::Assign { target, op, value } => {
                let vty = self.expr_ty(value)?;
                let (tty, arr) = self.lookup(target.name()).ok_or_else(|| {
                    err(
                        format!("undeclared variable `{}`", target.name()),
                        target.span(),
                    )
                })?;
                match target {
                    LValue::Var(..) => {
                        if arr.is_some() {
                            return Err(err(
                                format!("cannot assign to array `{}` as a scalar", target.name()),
                                target.span(),
                            ));
                        }
                    }
                    LValue::Index(_, idx, _) => {
                        if arr.is_none() {
                            return Err(err(
                                format!("`{}` is not an array", target.name()),
                                target.span(),
                            ));
                        }
                        let ity = self.expr_ty(idx)?;
                        if ity != Type::Int {
                            return Err(err("array index must be int", idx.span));
                        }
                    }
                }
                if vty != tty {
                    return Err(err(
                        format!("cannot assign `{vty}` to `{tty}` target"),
                        value.span,
                    ));
                }
                if *op != AssignOp::Set && !matches!(tty, Type::Int | Type::Float) {
                    return Err(err("compound assignment requires int or float", s.span));
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.expr_ty(cond)? != Type::Int {
                    return Err(err("condition must be int", cond.span));
                }
                self.check_stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.check_stmt(e)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                if self.expr_ty(cond)? != Type::Int {
                    return Err(err("condition must be int", cond.span));
                }
                self.loop_depth += 1;
                let r = self.check_stmt(body);
                self.loop_depth -= 1;
                r
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(i)?;
                }
                if let Some(c) = cond {
                    if self.expr_ty(c)? != Type::Int {
                        return Err(err("condition must be int", c.span));
                    }
                }
                if let Some(st) = step {
                    self.check_stmt(st)?;
                }
                self.loop_depth += 1;
                let r = self.check_stmt(body);
                self.loop_depth -= 1;
                self.scopes.pop();
                r
            }
            StmtKind::Return(v) => match (v, self.func.ret) {
                (None, Type::Void) => Ok(()),
                (None, ret) => Err(err(
                    format!("`{}` must return a `{ret}` value", self.func.name),
                    s.span,
                )),
                (Some(e), ret) => {
                    let ty = self.expr_ty(e)?;
                    if ret == Type::Void {
                        Err(err(
                            format!("void function `{}` cannot return a value", self.func.name),
                            e.span,
                        ))
                    } else if ty != ret {
                        Err(err(
                            format!("return type mismatch: expected `{ret}`, found `{ty}`"),
                            e.span,
                        ))
                    } else {
                        Ok(())
                    }
                }
            },
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    Err(err("`break`/`continue` outside of a loop", s.span))
                } else {
                    Ok(())
                }
            }
            StmtKind::ExprStmt(e) => {
                if !matches!(e.kind, ExprKind::Call(..)) {
                    return Err(err("expression statement must be a call", e.span));
                }
                self.expr_ty(e)?;
                Ok(())
            }
            StmtKind::Block(b) => self.check_block(b),
        }
    }

    /// Collects block-level memberships, named blocks and call-site
    /// enablements, validating their contexts.
    fn check_annotations(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        for r in &s.reductions {
            if !matches!(s.kind, StmtKind::For { .. } | StmtKind::While { .. }) {
                return Err(err("CommSetReduction must annotate a loop", r.span));
            }
            match self.lookup(&r.var) {
                Some((Type::Int | Type::Float, None)) => {}
                Some(_) => {
                    return Err(err(
                        format!(
                            "reduction variable `{}` must be a scalar int or float",
                            r.var
                        ),
                        r.span,
                    ))
                }
                None => {
                    return Err(err(
                        format!("reduction variable `{}` is not in scope", r.var),
                        r.span,
                    ))
                }
            }
        }
        if !s.instances.is_empty() || s.named_block.is_some() {
            if !matches!(s.kind, StmtKind::Block(_)) {
                return Err(err(
                    "COMMSET block annotations require a compound statement",
                    s.span,
                ));
            }
            check_well_defined_block(s)?;
        }
        if let Some(name) = &s.named_block {
            match self.analyzer.named_blocks.entry(name.clone()) {
                Entry::Occupied(_) => {
                    return Err(err(
                        format!("named block `{name}` is declared more than once"),
                        s.span,
                    ))
                }
                Entry::Vacant(v) => {
                    v.insert(NamedBlockDef {
                        owner: self.func.name.clone(),
                        stmt: s.id,
                    });
                }
            }
            self.found_named_blocks.push(name.clone());
        }
        let instances = s.instances.clone();
        for inst in &instances {
            let arg_tys = self.block_instance_arg_tys(inst)?;
            self.analyzer.add_member(
                MemberRef::Block(s.id),
                inst,
                &format!("blk_{}", s.id.0),
                arg_tys,
            )?;
        }
        if !s.named_arg_adds.is_empty() {
            // Find the callee exporting each enabled block among the calls
            // inside this statement.
            let mut callees: Vec<String> = Vec::new();
            stmt_exprs(s, &mut |e| {
                if let ExprKind::Call(name, _) = &e.kind {
                    callees.push(name.clone());
                }
            });
            // Nested statements too (the annotation may sit on a block).
            if let StmtKind::Block(b) = &s.kind {
                walk_stmts(b, &mut |inner| {
                    stmt_exprs(inner, &mut |e| {
                        if let ExprKind::Call(name, _) = &e.kind {
                            callees.push(name.clone());
                        }
                    });
                });
            }
            for add in s.named_arg_adds.clone() {
                let Some(callee) = callees
                    .iter()
                    .find(|c| self.analyzer.sigs.contains_key(*c))
                    .cloned()
                else {
                    return Err(err(
                        "CommSetNamedArgAdd must annotate a statement containing a call",
                        add.span,
                    ));
                };
                let mut resolved_sets = Vec::new();
                for inst in &add.instances {
                    // Validate predicate args in the caller's scope and
                    // record their types for inference.
                    let tys = self.block_instance_arg_tys(inst)?;
                    let set = self.analyzer.observe_instance(
                        inst,
                        &format!("nbadd_{}_{}", s.id.0, add.block),
                        tys,
                    )?;
                    resolved_sets.push(set);
                }
                self.analyzer.arg_adds.push(ArgAddSite {
                    stmt: s.id,
                    in_func: self.func.name.clone(),
                    callee,
                    block: add.block.clone(),
                    instances: add.instances.clone(),
                    resolved_sets,
                    span: add.span,
                });
            }
        }
        Ok(())
    }

    /// Validates that block-instance predicate arguments are in-scope scalar
    /// variables ("variables with primitive type that have a well-defined
    /// value at the beginning of the compound statement", §3.2) and returns
    /// their types.
    fn block_instance_arg_tys(&self, inst: &CommSetInstance) -> Result<Vec<Type>, Diagnostic> {
        let mut tys = Vec::new();
        for a in &inst.args {
            let ExprKind::Var(name) = &a.kind else {
                return Err(err(
                    "block-level predicate arguments must be variables",
                    a.span,
                ));
            };
            let Some((ty, arr)) = self.lookup(name) else {
                return Err(err(format!("undeclared variable `{name}`"), a.span));
            };
            if arr.is_some() {
                return Err(err(
                    format!("predicate argument `{name}` must be a scalar"),
                    a.span,
                ));
            }
            tys.push(ty);
        }
        Ok(tys)
    }
}

/// Enforces the paper's well-definedness condition (a): a commutative block
/// must have only local, structured control flow — no `return`, and any
/// `break`/`continue` must target a loop *inside* the block.
fn check_well_defined_block(s: &Stmt) -> Result<(), Diagnostic> {
    fn walk(s: &Stmt, loop_depth: u32) -> Result<(), Diagnostic> {
        match &s.kind {
            StmtKind::Return(_) => Err(err(
                "`return` inside a commutative block is not allowed (non-local control flow)",
                s.span,
            )),
            StmtKind::Break | StmtKind::Continue if loop_depth == 0 => Err(err(
                "`break`/`continue` would leave the commutative block; its parent loop must be inside the block",
                s.span,
            )),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk(then_branch, loop_depth)?;
                if let Some(e) = else_branch {
                    walk(e, loop_depth)?;
                }
                Ok(())
            }
            StmtKind::While { body, .. } => walk(body, loop_depth + 1),
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(i) = init {
                    walk(i, loop_depth)?;
                }
                if let Some(st) = step {
                    walk(st, loop_depth)?;
                }
                walk(body, loop_depth + 1)
            }
            StmtKind::Block(b) => {
                for inner in &b.stmts {
                    walk(inner, loop_depth)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
    let StmtKind::Block(b) = &s.kind else {
        return Ok(());
    };
    for inner in &b.stmts {
        walk(inner, 0)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Expression typing
// ---------------------------------------------------------------------------

fn type_of_expr_scoped(
    e: &Expr,
    scopes: &[HashMap<String, (Type, Option<usize>)>],
    sigs: &HashMap<String, FuncSig>,
    globals: &HashMap<String, (Type, Option<usize>)>,
) -> Result<Type, Diagnostic> {
    let lookup = |name: &str| -> Option<(Type, Option<usize>)> {
        for scope in scopes.iter().rev() {
            if let Some(&v) = scope.get(name) {
                return Some(v);
            }
        }
        globals.get(name).copied()
    };
    match &e.kind {
        ExprKind::IntLit(_) => Ok(Type::Int),
        ExprKind::FloatLit(_) => Ok(Type::Float),
        ExprKind::StrLit(_) => Err(err(
            "string literals are only allowed as intrinsic arguments",
            e.span,
        )),
        ExprKind::Var(n) => match lookup(n) {
            Some((_, Some(_))) => Err(err(
                format!("array `{n}` cannot be used as a scalar value"),
                e.span,
            )),
            Some((ty, None)) => Ok(ty),
            None => Err(err(format!("undeclared variable `{n}`"), e.span)),
        },
        ExprKind::Unary(op, a) => {
            let ty = type_of_expr_scoped(a, scopes, sigs, globals)?;
            match op {
                UnOp::Neg => {
                    if matches!(ty, Type::Int | Type::Float) {
                        Ok(ty)
                    } else {
                        Err(err("negation requires int or float", e.span))
                    }
                }
                UnOp::Not | UnOp::BitNot => {
                    if ty == Type::Int {
                        Ok(Type::Int)
                    } else {
                        Err(err("logical/bitwise not requires int", e.span))
                    }
                }
            }
        }
        ExprKind::Binary(op, a, b) => {
            let ta = type_of_expr_scoped(a, scopes, sigs, globals)?;
            let tb = type_of_expr_scoped(b, scopes, sigs, globals)?;
            use BinOp::*;
            match op {
                Add | Sub | Mul | Div => {
                    if ta == tb && matches!(ta, Type::Int | Type::Float) {
                        Ok(ta)
                    } else {
                        Err(err(
                            format!("arithmetic requires matching int or float operands, found `{ta}` and `{tb}`"),
                            e.span,
                        ))
                    }
                }
                Rem | Shl | Shr | BitAnd | BitOr | BitXor | And | Or => {
                    if ta == Type::Int && tb == Type::Int {
                        Ok(Type::Int)
                    } else {
                        Err(err("integer operator requires int operands", e.span))
                    }
                }
                Lt | Le | Gt | Ge => {
                    if ta == tb && matches!(ta, Type::Int | Type::Float) {
                        Ok(Type::Int)
                    } else {
                        Err(err(
                            "comparison requires matching int or float operands",
                            e.span,
                        ))
                    }
                }
                Eq | Ne => {
                    if ta == tb && ta != Type::Void {
                        Ok(Type::Int)
                    } else {
                        Err(err("equality requires matching non-void operands", e.span))
                    }
                }
            }
        }
        ExprKind::Call(name, args) => {
            let Some(sig) = sigs.get(name) else {
                return Err(err(format!("call to undeclared function `{name}`"), e.span));
            };
            if args.len() != sig.params.len() {
                return Err(err(
                    format!(
                        "`{name}` expects {} argument(s), got {}",
                        sig.params.len(),
                        args.len()
                    ),
                    e.span,
                ));
            }
            for (arg, (pname, pty)) in args.iter().zip(&sig.params) {
                // String literals are allowed only for extern intrinsics
                // expecting a handle (e.g. named channels).
                if matches!(arg.kind, ExprKind::StrLit(_)) && sig.is_extern {
                    continue;
                }
                let aty = type_of_expr_scoped(arg, scopes, sigs, globals)?;
                if aty != *pty {
                    return Err(err(
                        format!("argument `{pname}` of `{name}` expects `{pty}`, found `{aty}`"),
                        arg.span,
                    ));
                }
            }
            Ok(sig.ret)
        }
        ExprKind::Index(name, idx) => {
            let Some((ty, arr)) = lookup(name) else {
                return Err(err(format!("undeclared variable `{name}`"), e.span));
            };
            if arr.is_none() {
                return Err(err(format!("`{name}` is not an array"), e.span));
            }
            if type_of_expr_scoped(idx, scopes, sigs, globals)? != Type::Int {
                return Err(err("array index must be int", idx.span));
            }
            Ok(ty)
        }
        ExprKind::Cast(ty, a) => {
            let aty = type_of_expr_scoped(a, scopes, sigs, globals)?;
            match (aty, ty) {
                (Type::Int, Type::Float)
                | (Type::Float, Type::Int)
                | (Type::Int, Type::Int)
                | (Type::Float, Type::Float)
                | (Type::Int, Type::Handle)
                | (Type::Handle, Type::Int) => Ok(*ty),
                _ => Err(err(format!("invalid cast from `{aty}` to `{ty}`"), e.span)),
            }
        }
    }
}

fn type_of_expr(
    e: &Expr,
    scopes: &[HashMap<String, (Type, Option<usize>)>],
    sigs: &HashMap<String, FuncSig>,
    globals: &HashMap<String, (Type, Option<usize>)>,
) -> Result<Type, Diagnostic> {
    type_of_expr_scoped(e, scopes, sigs, globals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_unit;

    #[test]
    fn checks_simple_program() {
        let unit = compile_unit("int main() { int x = 1; float y = 2.5; return x; }").unwrap();
        assert!(unit.commsets.is_empty());
        assert_eq!(unit.sigs["main"].ret, Type::Int);
    }

    #[test]
    fn rejects_type_mismatch() {
        assert!(compile_unit("int main() { int x = 1.5; return x; }").is_err());
        assert!(compile_unit("int main() { float y = 1.0; return y; }").is_err());
        assert!(compile_unit("int main() { return 1 + 2.0; }").is_err());
    }

    #[test]
    fn rejects_undeclared() {
        assert!(compile_unit("int main() { return y; }").is_err());
        assert!(compile_unit("int main() { return f(); }").is_err());
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(compile_unit("int main() { break; return 0; }").is_err());
    }

    #[test]
    fn rejects_array_misuse() {
        assert!(compile_unit("int a[4]; int main() { return a; }").is_err());
        assert!(compile_unit("int x; int main() { return x[0]; }").is_err());
        assert!(compile_unit("int a[4]; int main() { a = 3; return 0; }").is_err());
    }

    #[test]
    fn casts_are_checked() {
        assert!(compile_unit("int main() { float f = float(3); return int(f); }").is_ok());
        assert!(compile_unit("int main() { handle h = handle(3); return int(h); }").is_ok());
        assert!(
            compile_unit("int main() { handle h = handle(3); float f = float(h); return 0; }")
                .is_err()
        );
    }

    fn md5_like() -> &'static str {
        r#"
        #pragma CommSetDecl(FSET, Group)
        #pragma CommSetPredicate(FSET, (i1), (i2), i1 != i2)
        extern handle fs_open(int idx);
        extern void fs_close(handle fp);
        extern void print_digest(int d);
        extern int compute(handle fp);
        int main() {
            for (int i = 0; i < 10; i = i + 1) {
                handle fp = handle(0);
                #pragma CommSet(SELF, FSET(i))
                { fp = fs_open(i); }
                int d = compute(fp);
                #pragma CommSet(SELF, FSET(i))
                { print_digest(d); }
                #pragma CommSet(SELF, FSET(i))
                { fs_close(fp); }
            }
            return 0;
        }
        "#
    }

    #[test]
    fn resolves_group_set_with_predicate() {
        let unit = compile_unit(md5_like()).unwrap();
        let fset = unit.set_by_name("FSET").unwrap();
        assert_eq!(fset.kind, SetKind::Group);
        let pred = fset.predicate.as_ref().unwrap();
        assert_eq!(pred.param_tys, vec![Type::Int]);
        assert_eq!(unit.members.iter().filter(|m| m.set == fset.id).count(), 3);
        // Three anonymous SELF sets were created.
        let self_sets = unit
            .commsets
            .iter()
            .filter(|s| s.kind == SetKind::SelfSet)
            .count();
        assert_eq!(self_sets, 3);
        // The predicate function was synthesized and registered.
        assert!(unit.sigs.contains_key("__pred_FSET"));
    }

    #[test]
    fn rejects_undeclared_set_use() {
        let src = "int main() { for (int i = 0; i < 2; i = i + 1) {\n#pragma CommSet(NOPE)\n{ int x = 0; } } return 0; }";
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn rejects_predicated_implicit_self() {
        let src = "int main() { for (int i = 0; i < 2; i = i + 1) {\n#pragma CommSet(SELF(i))\n{ int x = 0; } } return 0; }";
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn rejects_wrong_predicate_arity() {
        let src = r#"
        #pragma CommSetDecl(S, Group)
        #pragma CommSetPredicate(S, (a), (b), a != b)
        int main() { for (int i = 0; i < 2; i = i + 1) {
        #pragma CommSet(S(i, i))
        { int x = 0; } } return 0; }
        "#;
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn rejects_impure_predicate() {
        let src = r#"
        #pragma CommSetDecl(S, Group)
        #pragma CommSetPredicate(S, (a), (b), a != g)
        int g;
        int main() { return 0; }
        "#;
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn rejects_return_inside_commutative_block() {
        let src = "int main() { for (int i = 0; i < 2; i = i + 1) {\n#pragma CommSet(SELF)\n{ return 1; } } return 0; }";
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn allows_local_break_inside_commutative_block() {
        let src = "int main() { for (int i = 0; i < 2; i = i + 1) {\n#pragma CommSet(SELF)\n{ while (1) { break; } } } return 0; }";
        assert!(compile_unit(src).is_ok());
    }

    #[test]
    fn rejects_nonlocal_break_inside_commutative_block() {
        let src = "int main() { for (int i = 0; i < 2; i = i + 1) {\n#pragma CommSet(SELF)\n{ break; } } return 0; }";
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn named_block_export_resolution() {
        let src = r#"
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
            for (int i = 0; i < 4; i = i + 1) {
                handle fp = handle(i);
                #pragma CommSetNamedArgAdd(READB, SSET(i))
                { int d = mdfile(fp); }
            }
            return 0;
        }
        "#;
        let unit = compile_unit(src).unwrap();
        assert_eq!(unit.named_blocks["READB"].owner, "mdfile");
        assert_eq!(unit.arg_adds.len(), 1);
        assert_eq!(unit.arg_adds[0].callee, "mdfile");
        assert_eq!(unit.arg_adds[0].block, "READB");
    }

    #[test]
    fn unexported_named_block_is_error() {
        let src = r#"
        int f() {
            #pragma CommSetNamedBlock(B)
            { int x = 0; }
            return 0;
        }
        int main() { return f(); }
        "#;
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn named_arg_without_block_is_error() {
        let src = r#"
        #pragma CommSetNamedArg(B)
        int f() { return 0; }
        int main() { return f(); }
        "#;
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn duplicate_membership_is_error() {
        let src = r#"
        #pragma CommSetDecl(S, Group)
        int main() { for (int i = 0; i < 2; i = i + 1) {
        #pragma CommSet(S, S)
        { int x = 0; } } return 0; }
        "#;
        assert!(compile_unit(src).is_err());
    }

    #[test]
    fn interface_member_args_must_be_params() {
        let src = r#"
        #pragma CommSetDecl(S, Group)
        #pragma CommSetPredicate(S, (a), (b), a != b)
        #pragma CommSet(S(k))
        int f(int n) { return n; }
        int main() { return f(1); }
        "#;
        assert!(compile_unit(src).is_err());
        let ok = r#"
        #pragma CommSetDecl(S, Group)
        #pragma CommSetPredicate(S, (a), (b), a != b)
        #pragma CommSet(S(n))
        int f(int n) { return n; }
        int main() { return f(1); }
        "#;
        let unit = compile_unit(ok).unwrap();
        assert_eq!(unit.members[0].member, MemberRef::Func("f".to_string()));
    }

    #[test]
    fn expr_stmt_must_be_call() {
        assert!(compile_unit("int main() { 1 + 2; return 0; }").is_err());
    }

    #[test]
    fn nosync_flag_is_recorded() {
        let src = r#"
        #pragma CommSetDecl(L, Group)
        #pragma CommSetNoSync(L)
        extern void log_msg(int x);
        int main() { for (int i = 0; i < 2; i = i + 1) {
        #pragma CommSet(L)
        { log_msg(i); } } return 0; }
        "#;
        let unit = compile_unit(src).unwrap();
        assert!(unit.set_by_name("L").unwrap().nosync);
    }
}
