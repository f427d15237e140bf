//! Symbolic interpretation of `CommSetPredicate` bodies (paper §4.4).
//!
//! Algorithm 1 needs to prove a predicate *always true* given inequality or
//! equality assertions about the bindings of corresponding parameters
//! (`Assert(i1 != i2)` for induction variables on separate iterations). The
//! interpreter evaluates the predicate over symbolic values with
//! three-valued logic: a proof succeeds only when the result is
//! [`Tri::True`] under every valuation consistent with the assertions.

use commset_lang::ast::{BinOp, Expr, ExprKind, UnOp};
use commset_lang::sema::PredicateDef;
use std::collections::HashMap;

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// True under every consistent valuation.
    True,
    /// False under every consistent valuation.
    False,
    /// Neither provable nor refutable.
    Unknown,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

/// Known relation between the two bindings of one predicate parameter pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// The two bindings are definitely equal.
    Eq,
    /// The two bindings are definitely different.
    Ne,
    /// Nothing is known.
    Unknown,
}

/// A symbolic value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SVal {
    /// A compile-time integer.
    Const(i64),
    /// The i-th symbol (2k = first binding of pair k, 2k+1 = second).
    Sym(u32),
    /// An affine form `Sym + offset` (covers `i1 + 1 != i2 + 1`).
    SymOff(u32, i64),
    /// Anything else.
    Opaque,
}

/// Proves `pred` under per-pair relations `rels` (one per parameter pair).
///
/// Returns [`Tri::True`] only if the predicate is true for every valuation
/// consistent with `rels`.
pub fn prove(pred: &PredicateDef, rels: &[Rel]) -> Tri {
    debug_assert_eq!(rels.len(), pred.params1.len());
    let mut env: HashMap<&str, SVal> = HashMap::new();
    for (k, name) in pred.params1.iter().enumerate() {
        env.insert(name.as_str(), SVal::Sym(2 * k as u32));
    }
    for (k, name) in pred.params2.iter().enumerate() {
        env.insert(name.as_str(), SVal::Sym(2 * k as u32 + 1));
    }
    eval_bool(&pred.body, &env, rels)
}

/// Relation between two symbols, derived from the pair table.
fn sym_rel(a: u32, b: u32, rels: &[Rel]) -> Rel {
    if a == b {
        return Rel::Eq;
    }
    if a / 2 == b / 2 {
        return rels[(a / 2) as usize];
    }
    Rel::Unknown
}

/// Folds constants and affine offsets exactly: a fold that overflows
/// `i64` (the VM would wrap, or trap on a division) is [`SVal::Opaque`],
/// which can only weaken a proof.
#[allow(clippy::only_used_in_recursion)]
fn eval_val(e: &Expr, env: &HashMap<&str, SVal>, rels: &[Rel]) -> SVal {
    match &e.kind {
        ExprKind::IntLit(v) => SVal::Const(*v),
        ExprKind::Var(n) => env.get(n.as_str()).copied().unwrap_or(SVal::Opaque),
        ExprKind::Unary(UnOp::Neg, a) => match eval_val(a, env, rels) {
            SVal::Const(v) => v.checked_neg().map_or(SVal::Opaque, SVal::Const),
            _ => SVal::Opaque,
        },
        ExprKind::Binary(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let va = eval_val(a, env, rels);
            // `x - c` folds as `x + (-c)`; nothing else is subtracted.
            let vb = match (op, eval_val(b, env, rels)) {
                (BinOp::Add, v) => v,
                (_, SVal::Const(c)) => c.checked_neg().map_or(SVal::Opaque, SVal::Const),
                _ => SVal::Opaque,
            };
            match (va, vb) {
                (SVal::Const(x), SVal::Const(y)) => x.checked_add(y).map(SVal::Const),
                (SVal::Sym(s), SVal::Const(c)) | (SVal::Const(c), SVal::Sym(s)) => {
                    Some(SVal::SymOff(s, c))
                }
                (SVal::SymOff(s, o), SVal::Const(c)) | (SVal::Const(c), SVal::SymOff(s, o)) => {
                    o.checked_add(c).map(|o| SVal::SymOff(s, o))
                }
                _ => None,
            }
            .unwrap_or(SVal::Opaque)
        }
        ExprKind::Binary(op, a, b) => {
            let va = eval_val(a, env, rels);
            let vb = eval_val(b, env, rels);
            match (op, va, vb) {
                (BinOp::Mul, SVal::Const(x), SVal::Const(y)) => x.checked_mul(y),
                (BinOp::Div, SVal::Const(x), SVal::Const(y)) => x.checked_div(y),
                (BinOp::Rem, SVal::Const(x), SVal::Const(y)) => x.checked_rem(y),
                _ => None,
            }
            .map_or(SVal::Opaque, SVal::Const)
        }
        _ => SVal::Opaque,
    }
}

fn eval_bool(e: &Expr, env: &HashMap<&str, SVal>, rels: &[Rel]) -> Tri {
    match &e.kind {
        ExprKind::IntLit(v) => {
            if *v != 0 {
                Tri::True
            } else {
                Tri::False
            }
        }
        ExprKind::Unary(UnOp::Not, a) => eval_bool(a, env, rels).not(),
        ExprKind::Binary(BinOp::And, a, b) => eval_bool(a, env, rels).and(eval_bool(b, env, rels)),
        ExprKind::Binary(BinOp::Or, a, b) => eval_bool(a, env, rels).or(eval_bool(b, env, rels)),
        ExprKind::Binary(
            op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            a,
            b,
        ) => {
            let va = eval_val(a, env, rels);
            let vb = eval_val(b, env, rels);
            compare(*op, va, vb, rels)
        }
        _ => Tri::Unknown,
    }
}

fn compare(op: BinOp, a: SVal, b: SVal, rels: &[Rel]) -> Tri {
    // Normalize SymOff with zero offset.
    let norm = |v: SVal| match v {
        SVal::SymOff(s, 0) => SVal::Sym(s),
        other => other,
    };
    let a = norm(a);
    let b = norm(b);
    match (a, b) {
        (SVal::Const(x), SVal::Const(y)) => {
            let r = match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                _ => return Tri::Unknown,
            };
            if r {
                Tri::True
            } else {
                Tri::False
            }
        }
        (SVal::Sym(x), SVal::Sym(y)) => rel_compare(op, sym_rel(x, y, rels)),
        (SVal::SymOff(x, ox), SVal::SymOff(y, oy)) => {
            // s1 + o1 <op> s2 + o2: decidable for Eq/Ne when the symbols'
            // relation and offsets combine cleanly. Ordered ops are not:
            // the VM's addition wraps, so s + 2 > s + 1 fails at i64::MAX.
            match sym_rel(x, y, rels) {
                Rel::Eq if matches!(op, BinOp::Eq | BinOp::Ne) => {
                    // Reduces to o1 <op> o2.
                    compare(op, SVal::Const(ox), SVal::Const(oy), rels)
                }
                Rel::Ne if ox == oy => rel_compare(op, Rel::Ne),
                _ => Tri::Unknown,
            }
        }
        (SVal::Sym(x), SVal::SymOff(y, o)) | (SVal::SymOff(y, o), SVal::Sym(x)) => {
            // Only equality-ish conclusions are safe, and only when the
            // symbols are equal: s <op> s + o reduces to 0 <op> o
            // (respecting side for inequalities is not attempted).
            if sym_rel(x, y, rels) == Rel::Eq && matches!(op, BinOp::Eq | BinOp::Ne) {
                compare(op, SVal::Const(0), SVal::Const(o), rels)
            } else {
                Tri::Unknown
            }
        }
        _ => Tri::Unknown,
    }
}

fn rel_compare(op: BinOp, rel: Rel) -> Tri {
    match (op, rel) {
        (BinOp::Eq, Rel::Eq) => Tri::True,
        (BinOp::Eq, Rel::Ne) => Tri::False,
        (BinOp::Ne, Rel::Eq) => Tri::False,
        (BinOp::Ne, Rel::Ne) => Tri::True,
        (BinOp::Le | BinOp::Ge, Rel::Eq) => Tri::True,
        (BinOp::Lt | BinOp::Gt, Rel::Eq) => Tri::False,
        _ => Tri::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_lang::ast::Type;
    use commset_lang::parser::parse_expr;

    fn pred(p1: &[&str], p2: &[&str], body: &str) -> PredicateDef {
        PredicateDef {
            func_name: "__pred_T".into(),
            params1: p1.iter().map(|s| s.to_string()).collect(),
            params2: p2.iter().map(|s| s.to_string()).collect(),
            param_tys: vec![Type::Int; p1.len()],
            body: parse_expr(body).unwrap(),
        }
    }

    #[test]
    fn proves_induction_inequality() {
        let p = pred(&["i1"], &["i2"], "i1 != i2");
        assert_eq!(prove(&p, &[Rel::Ne]), Tri::True);
        assert_eq!(prove(&p, &[Rel::Eq]), Tri::False);
        assert_eq!(prove(&p, &[Rel::Unknown]), Tri::Unknown);
    }

    #[test]
    fn handles_disjunction_and_negation() {
        let p = pred(&["a"], &["b"], "a < b || a > b || 0");
        // a != b does not resolve < or > individually, so Unknown.
        assert_eq!(prove(&p, &[Rel::Ne]), Tri::Unknown);
        let q = pred(&["a"], &["b"], "!(a == b)");
        assert_eq!(prove(&q, &[Rel::Ne]), Tri::True);
    }

    #[test]
    fn multi_pair_conjunction() {
        let p = pred(&["x", "k"], &["y", "l"], "x != y && k == l");
        assert_eq!(prove(&p, &[Rel::Ne, Rel::Eq]), Tri::True);
        assert_eq!(prove(&p, &[Rel::Ne, Rel::Ne]), Tri::False);
        assert_eq!(prove(&p, &[Rel::Ne, Rel::Unknown]), Tri::Unknown);
    }

    #[test]
    fn affine_offsets() {
        let p = pred(&["i1"], &["i2"], "i1 + 1 != i2 + 1");
        assert_eq!(prove(&p, &[Rel::Ne]), Tri::True);
        let q = pred(&["i1"], &["i2"], "i1 != i2 + 1");
        assert_eq!(prove(&q, &[Rel::Eq]), Tri::True, "i = i + 1 is impossible");
        assert_eq!(prove(&q, &[Rel::Ne]), Tri::Unknown);
    }

    #[test]
    fn constants_fold() {
        let p = pred(&["a"], &["b"], "1 == 1");
        assert_eq!(prove(&p, &[Rel::Unknown]), Tri::True);
        let q = pred(&["a"], &["b"], "2 * 3 == 6 && a == a");
        assert_eq!(prove(&q, &[Rel::Unknown]), Tri::True);
    }

    #[test]
    fn overflowing_folds_are_opaque() {
        // i64::MIN / -1 traps in Rust and wraps in the VM.
        let p = pred(
            &["k1"],
            &["k2"],
            "(k1 != k2) && ((-9223372036854775807 - 1) / -1 != 0)",
        );
        assert_eq!(prove(&p, &[Rel::Ne]), Tri::Unknown);
        let q = pred(&["a"], &["b"], "9223372036854775807 + 1 != 0");
        assert_eq!(prove(&q, &[Rel::Unknown]), Tri::Unknown);
        let r = pred(&["a"], &["b"], "-(-9223372036854775807 - 1) != 0");
        assert_eq!(prove(&r, &[Rel::Unknown]), Tri::Unknown);
        let s = pred(&["a"], &["b"], "a - (-9223372036854775807 - 1) != b");
        assert_eq!(prove(&s, &[Rel::Eq]), Tri::Unknown);
    }

    #[test]
    fn ordered_offset_compare_is_not_proven() {
        // At i = i64::MAX - 1 the VM computes i + 2 > i + 1 as false.
        let p = pred(&["i1"], &["i2"], "i1 + 2 > i2 + 1");
        assert_eq!(prove(&p, &[Rel::Eq]), Tri::Unknown);
        let i = i64::MAX - 1;
        assert!(i.wrapping_add(2) <= i.wrapping_add(1));
        // Equality of the same offsets still decides.
        let q = pred(&["i1"], &["i2"], "i1 + 2 != i2 + 1");
        assert_eq!(prove(&q, &[Rel::Eq]), Tri::True);
    }

    #[test]
    fn opaque_forms_are_unknown() {
        let p = pred(&["a"], &["b"], "a % 2 != b % 2");
        assert_eq!(prove(&p, &[Rel::Ne]), Tri::Unknown);
    }

    #[test]
    fn same_symbol_comparisons() {
        let p = pred(&["a"], &["b"], "a <= a");
        assert_eq!(prove(&p, &[Rel::Unknown]), Tri::True);
        let q = pred(&["a"], &["b"], "a < a");
        assert_eq!(prove(&q, &[Rel::Unknown]), Tri::False);
    }
}
