//! Abstract syntax tree for Cmm, including the COMMSET pragma forms.
//!
//! Every statement carries a program-unique [`StmtId`]; COMMSET instance
//! annotations attach to statements (compound blocks) and function
//! declarations exactly as the paper's directives do (§3.2).

use crate::token::Span;
use std::fmt;

/// The scalar types of Cmm.
///
/// `Handle` is an opaque reference to an object owned by the runtime's
/// virtual world (files, matrices, itemsets, ...) — the moral equivalent of
/// a `FILE*` or object pointer in the paper's C programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer (also used for booleans).
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Opaque runtime-object reference.
    Handle,
    /// No value; only valid as a return type.
    Void,
}

impl Type {
    /// Concrete-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Type::Int => "int",
            Type::Float => "float",
            Type::Handle => "handle",
            Type::Void => "void",
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Program-unique identifier of a statement, assigned by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// An `extern` intrinsic declaration.
    Extern(ExternDecl),
    /// A global variable (scalar or fixed-size array).
    Global(GlobalDecl),
    /// A function definition.
    Func(FuncDecl),
    /// A global-scope COMMSET pragma (`CommSetDecl`, `CommSetPredicate`,
    /// `CommSetNoSync`).
    Pragma(GlobalPragma),
}

/// `extern` declaration of a runtime intrinsic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    /// Intrinsic name, resolved against the runtime registry at link time.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Source location.
    pub span: Span,
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// `Some(n)` for `ty name[n];`.
    pub array_len: Option<usize>,
    /// Optional scalar initializer (constant expression).
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// `#pragma CommSet(...)` instances attached to this declaration
    /// (interface-level commutativity).
    pub instances: Vec<CommSetInstance>,
    /// Named optional blocks exported at this interface via
    /// `#pragma CommSetNamedArg(...)`.
    pub named_args: Vec<String>,
    /// Source location of the header.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A statement with its COMMSET annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Program-unique id.
    pub id: StmtId,
    /// The statement proper.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
    /// `#pragma CommSet(...)` instances (valid only on compound statements).
    pub instances: Vec<CommSetInstance>,
    /// `#pragma CommSetNamedBlock(NAME)` naming this compound statement.
    pub named_block: Option<String>,
    /// `#pragma CommSetNamedArgAdd(...)` directives at a call site.
    pub named_arg_adds: Vec<NamedArgAdd>,
    /// `#pragma CommSetReduction(...)` directives (valid on loops).
    pub reductions: Vec<ReductionPragma>,
}

impl Stmt {
    /// Creates an unannotated statement.
    pub fn plain(id: StmtId, kind: StmtKind, span: Span) -> Self {
        Stmt {
            id,
            kind,
            span,
            instances: Vec::new(),
            named_block: None,
            named_arg_adds: Vec::new(),
            reductions: Vec::new(),
        }
    }

    /// Returns true if this statement carries any COMMSET annotation.
    pub fn is_annotated(&self) -> bool {
        !self.instances.is_empty()
            || self.named_block.is_some()
            || !self.named_arg_adds.is_empty()
            || !self.reductions.is_empty()
    }
}

/// The statement forms of Cmm.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration, optionally an array, optionally
    /// initialized.
    VarDecl {
        /// Variable name.
        name: String,
        /// Element type.
        ty: Type,
        /// `Some(n)` for an array of length `n`.
        array_len: Option<usize>,
        /// Optional initializer (scalars only).
        init: Option<Expr>,
    },
    /// Assignment through an lvalue.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Plain or compound assignment.
        op: AssignOp,
        /// Right-hand side.
        value: Expr,
    },
    /// Two-way conditional.
    If {
        /// Condition (int-typed, nonzero = true).
        cond: Expr,
        /// Taken branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// Pre-tested loop.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// C-style counted loop.
    For {
        /// Optional init statement (declaration or assignment).
        init: Option<Box<Stmt>>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `return expr?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An expression evaluated for effect (must contain a call).
    ExprStmt(Expr),
    /// A nested compound statement — the unit COMMSET block annotations
    /// attach to.
    Block(Block),
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String, Span),
    /// An element of an array variable.
    Index(String, Box<Expr>, Span),
}

impl LValue {
    /// The name of the variable being assigned.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n, _) | LValue::Index(n, _, _) => n,
        }
    }

    /// Source location of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, s) | LValue::Index(_, _, s) => *s,
        }
    }
}

/// Plain (`=`) or compound (`+=`, `-=`, `*=`) assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
}

impl AssignOp {
    /// Concrete-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
        }
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Convenience constructor for an integer literal with a default span.
    pub fn int(v: i64) -> Self {
        Expr::new(ExprKind::IntLit(v), Span::default())
    }

    /// Convenience constructor for a variable reference with a default span.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::new(ExprKind::Var(name.into()), Span::default())
    }
}

/// The expression forms of Cmm.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// String literal (only as an intrinsic argument).
    StrLit(String),
    /// Variable reference.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Direct call to a function or intrinsic.
    Call(String, Vec<Expr>),
    /// Array element read.
    Index(String, Box<Expr>),
    /// Explicit conversion, written `int(e)` or `float(e)`.
    Cast(Type, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (int 0/1).
    Not,
    /// Bitwise complement.
    BitNot,
}

impl UnOp {
    /// Concrete-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Binary operators, in Cmm's precedence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Concrete-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::BitAnd => "&",
            BinOp::BitXor => "^",
            BinOp::BitOr => "|",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding power used by the Pratt parser; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Shl | BinOp::Shr => 8,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::BitAnd => 5,
            BinOp::BitXor => 4,
            BinOp::BitOr => 3,
            BinOp::And => 2,
            BinOp::Or => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// COMMSET pragma forms (paper §3.2, Figure 4)
// ---------------------------------------------------------------------------

/// Whether a declared CommSet is a *Self* set (each member commutes with
/// dynamic instances of itself) or a *Group* set (distinct members commute
/// pairwise, but not with themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetKind {
    /// Self-commutativity.
    SelfSet,
    /// Pairwise group commutativity.
    Group,
}

impl SetKind {
    /// Concrete-syntax spelling (`Self` / `Group`).
    pub fn as_str(self) -> &'static str {
        match self {
            SetKind::SelfSet => "Self",
            SetKind::Group => "Group",
        }
    }
}

/// A COMMSET pragma that appears at global scope.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalPragma {
    /// `#pragma CommSetDecl(NAME, Self|Group)`
    Decl {
        /// Set name.
        name: String,
        /// Self or Group.
        kind: SetKind,
        /// Source location.
        span: Span,
    },
    /// `#pragma CommSetPredicate(NAME, (a, ...), (b, ...), expr)`
    ///
    /// The two parameter lists bind to the instance arguments of an
    /// arbitrary *pair* of members executed in two parallel contexts; the
    /// expression must be pure and decides whether that pair commutes.
    Predicate {
        /// The predicated set.
        set: String,
        /// First member's parameter list.
        params1: Vec<String>,
        /// Second member's parameter list.
        params2: Vec<String>,
        /// The predicate body.
        body: Expr,
        /// Source location.
        span: Span,
    },
    /// `#pragma CommSetNoSync(NAME)` — the set's members are already
    /// thread-safe (separately compiled library), so the synchronization
    /// engine must not insert locks for them.
    NoSync {
        /// The set name.
        set: String,
        /// Source location.
        span: Span,
    },
}

/// Reference to a set in a `CommSet(...)` instance list.
#[derive(Debug, Clone, PartialEq)]
pub enum SetRef {
    /// The `SELF` keyword: an implicit, anonymous Self set private to the
    /// annotated entity.
    SelfImplicit,
    /// A named set declared with `CommSetDecl` (or `SELF` redeclared with a
    /// name to allow predication, per §3.2).
    Named(String),
}

/// One element of a `#pragma CommSet(...)` instance list: a set reference
/// plus the actual arguments supplied to the set's predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSetInstance {
    /// Which set is being joined.
    pub set: SetRef,
    /// Predicate actual arguments: variables of the client's program state
    /// (for blocks) or parameter names (for interface declarations).
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// The operator of a `CommSetReduction` (the IPOT-style reduction
/// annotation the paper names as an easy integration, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// Sum (`+`), identity 0.
    Add,
    /// Product (`*`), identity 1.
    Mul,
    /// Maximum, identity i64::MIN / -inf.
    Max,
    /// Minimum, identity i64::MAX / +inf.
    Min,
}

impl ReductionOp {
    /// Concrete-syntax spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Max => "max",
            ReductionOp::Min => "min",
        }
    }
}

/// `#pragma CommSetReduction(var, op)` preceding a loop: `var` is a
/// privatizable reduction accumulator — each parallel context accumulates
/// locally and the results merge under `op` at the join.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionPragma {
    /// The accumulator variable.
    pub var: String,
    /// The reduction operator.
    pub op: ReductionOp,
    /// Source location.
    pub span: Span,
}

/// `#pragma CommSetNamedArgAdd(BLOCK, item, ...)` at a call site: enables
/// the optional commuting behavior of the callee's named block by adding it
/// to the given sets.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedArgAdd {
    /// The exported block name being enabled.
    pub block: String,
    /// The sets (with predicate args) the block joins.
    pub instances: Vec<CommSetInstance>,
    /// Source location.
    pub span: Span,
}

/// Visits every statement in a block, depth-first, in source order.
pub fn walk_stmts<'a>(block: &'a Block, visit: &mut dyn FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        walk_stmt(stmt, visit);
    }
}

/// Visits `stmt` and every statement nested in it, depth-first, in source
/// order (a `for` visits its init, then its step, then its body).
pub fn walk_stmt<'a>(stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Stmt)) {
    visit(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmt(then_branch, visit);
            if let Some(e) = else_branch {
                walk_stmt(e, visit);
            }
        }
        StmtKind::While { body, .. } => walk_stmt(body, visit),
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, visit);
            }
            if let Some(s) = step {
                walk_stmt(s, visit);
            }
            walk_stmt(body, visit);
        }
        StmtKind::Block(b) => walk_stmts(b, visit),
        _ => {}
    }
}

/// Visits every expression in a statement (not descending into nested
/// statements).
pub fn stmt_exprs<'a>(stmt: &'a Stmt, visit: &mut dyn FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::VarDecl { init: Some(e), .. } => walk_expr(e, visit),
        StmtKind::Assign { target, value, .. } => {
            if let LValue::Index(_, idx, _) = target {
                walk_expr(idx, visit);
            }
            walk_expr(value, visit);
        }
        StmtKind::If { cond, .. } => walk_expr(cond, visit),
        StmtKind::While { cond, .. } => walk_expr(cond, visit),
        StmtKind::For { cond: Some(c), .. } => walk_expr(c, visit),
        StmtKind::Return(Some(e)) => walk_expr(e, visit),
        StmtKind::ExprStmt(e) => walk_expr(e, visit),
        _ => {}
    }
}

/// Visits `expr` and all sub-expressions, pre-order.
pub fn walk_expr<'a>(expr: &'a Expr, visit: &mut dyn FnMut(&'a Expr)) {
    visit(expr);
    match &expr.kind {
        ExprKind::Unary(_, e) | ExprKind::Index(_, e) | ExprKind::Cast(_, e) => walk_expr(e, visit),
        ExprKind::Binary(_, a, b) => {
            walk_expr(a, visit);
            walk_expr(b, visit);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_orders_mul_above_add() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn walk_expr_visits_all_nodes() {
        // 1 + f(2, 3) * -x
        let e = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::int(1)),
                Box::new(Expr::new(
                    ExprKind::Binary(
                        BinOp::Mul,
                        Box::new(Expr::new(
                            ExprKind::Call("f".into(), vec![Expr::int(2), Expr::int(3)]),
                            Span::default(),
                        )),
                        Box::new(Expr::new(
                            ExprKind::Unary(UnOp::Neg, Box::new(Expr::var("x"))),
                            Span::default(),
                        )),
                    ),
                    Span::default(),
                )),
            ),
            Span::default(),
        );
        let mut count = 0;
        walk_expr(&e, &mut |_| count += 1);
        assert_eq!(count, 8);
    }

    #[test]
    fn stmt_is_annotated() {
        let mut s = Stmt::plain(StmtId(0), StmtKind::Break, Span::default());
        assert!(!s.is_annotated());
        s.named_block = Some("READB".into());
        assert!(s.is_annotated());
    }
}
