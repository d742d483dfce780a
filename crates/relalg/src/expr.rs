//! Boolean/value expressions: the language of column constraints and
//! `WHERE` clauses.
//!
//! The paper builds constraints from column names, literals, sets of
//! literals, the relational operators `=`, `≠`, `in`, the boolean
//! operators `and`, `or`, `not`, and the ternary form
//! `cond ? true-expr : false-expr`. This module implements exactly that
//! language, plus named predicate sets such as `isrequest(inmsg)` which
//! the paper uses in its invariants.
//!
//! Expressions are first *bound* against a schema ([`Expr::bind`]) so
//! evaluation works on column indices with no per-row name lookups. The
//! solver binds each column constraint once per solve; its compiled path
//! folds the bound tree in place ([`BoundExpr::fold`]) and lowers it.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::Value;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;

/// Context supplied at evaluation time: named sets usable as predicates
/// (`isrequest(x)` ⇔ `x in isrequest`).
pub trait EvalContext {
    /// Membership test for named set `name`.
    fn set_contains(&self, name: Sym, v: Value) -> Result<bool>;

    /// Enumerate the members of named set `name`, when this context can.
    /// `None` (the default) means the set is opaque or undefined, and
    /// callers must test membership through
    /// [`EvalContext::set_contains`]. Contexts that can enumerate let
    /// [`BoundExpr::fold`] turn a set call into a literal list.
    fn set_members(&self, _name: Sym) -> Option<Vec<Value>> {
        None
    }
}

/// An empty context: any named-set reference errors.
pub struct NoContext;

impl EvalContext for NoContext {
    fn set_contains(&self, name: Sym, _v: Value) -> Result<bool> {
        Err(Error::NoSuchSet(name.to_string()))
    }
}

/// A context backed by a map of named sets.
#[derive(Default, Clone)]
pub struct SetContext {
    sets: HashMap<Sym, HashSet<Value>>,
}

impl SetContext {
    /// Empty context.
    pub fn new() -> SetContext {
        SetContext::default()
    }

    /// Define (or replace) a named set.
    pub fn define<I: IntoIterator<Item = Value>>(&mut self, name: &str, values: I) {
        self.sets
            .insert(Sym::intern(name), values.into_iter().collect());
    }
}

impl EvalContext for SetContext {
    fn set_contains(&self, name: Sym, v: Value) -> Result<bool> {
        self.sets
            .get(&name)
            .map(|s| s.contains(&v))
            .ok_or_else(|| Error::NoSuchSet(name.to_string()))
    }

    fn set_members(&self, name: Sym) -> Option<Vec<Value>> {
        self.sets.get(&name).map(|s| s.iter().copied().collect())
    }
}

/// An unbound expression over column names.
#[derive(Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Col(Sym),
    /// A parse-time identifier: resolves to a column if the schema has
    /// one of this name, otherwise to a symbolic literal. This mirrors
    /// the paper's SQL style, where `dirpv = zero` compares the column
    /// `dirpv` with the enumerated constant `zero`.
    Ident(Sym),
    /// A literal value.
    Lit(Value),
    /// Equality (`=`). NULL compares like a normal value.
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality (`!=` / `<>`).
    Ne(Box<Expr>, Box<Expr>),
    /// Set membership: `e in (v1, v2, …)`.
    In(Box<Expr>, Vec<Value>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Named-set predicate call, e.g. `isrequest(inmsg)`.
    Call(Sym, Box<Expr>),
    /// The paper's ternary constraint `c ? t : f`, equivalent to
    /// `(c and t) or (not c and f)`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Boolean literal `true` (the constraint of an unconstrained column).
    True,
    /// Boolean literal `false`.
    False,
}

impl Expr {
    /// `Expr::Col` from a name.
    pub fn col(name: &str) -> Expr {
        Expr::Col(Sym::intern(name))
    }

    /// `Expr::Lit` from a symbolic literal.
    pub fn sym(name: &str) -> Expr {
        Expr::Lit(Value::sym(name))
    }

    /// `Expr::Lit(Value::Null)`.
    pub fn null() -> Expr {
        Expr::Lit(Value::Null)
    }

    /// `col = "lit"` shorthand.
    pub fn col_eq(name: &str, lit: &str) -> Expr {
        Expr::Eq(Box::new(Expr::col(name)), Box::new(Expr::sym(lit)))
    }

    /// `col = NULL` shorthand.
    pub fn col_is_null(name: &str) -> Expr {
        Expr::Eq(Box::new(Expr::col(name)), Box::new(Expr::null()))
    }

    /// `col in (lits…)` shorthand.
    pub fn col_in(name: &str, lits: &[&str]) -> Expr {
        Expr::In(
            Box::new(Expr::col(name)),
            lits.iter().map(|s| Value::sym(s)).collect(),
        )
    }

    /// `self and rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self or rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `not self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self ? t : f`.
    pub fn ternary(self, t: Expr, f: Expr) -> Expr {
        Expr::Ternary(Box::new(self), Box::new(t), Box::new(f))
    }

    /// Conjunction of many expressions (`True` if empty).
    pub fn all<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::True,
            Some(first) => it.fold(first, |acc, e| acc.and(e)),
        }
    }

    /// Disjunction of many expressions (`False` if empty).
    pub fn any<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::False,
            Some(first) => it.fold(first, |acc, e| acc.or(e)),
        }
    }

    /// Column names referenced by this expression.
    pub fn columns(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<Sym>) {
        match self {
            // `Ident` may or may not be a column; callers using
            // `columns()` for dependency analysis treat it as a
            // potential column reference.
            Expr::Col(c) | Expr::Ident(c) => out.push(*c),
            Expr::Lit(_) | Expr::True | Expr::False => {}
            Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::In(e, _) | Expr::Not(e) | Expr::Call(_, e) => e.collect_columns(out),
            Expr::Ternary(c, t, f) => {
                c.collect_columns(out);
                t.collect_columns(out);
                f.collect_columns(out);
            }
        }
    }

    /// Bind against a schema, resolving column names to indices.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        self.bind_with(&mut |name| Ok(schema.index_of(name)))
    }

    /// Bind with a custom column resolver. `resolve` returns the row
    /// index for a name, `Ok(None)` if the name is not a column (an
    /// [`Expr::Ident`] then becomes a symbolic literal; an explicit
    /// [`Expr::Col`] errors), or `Err` for e.g. ambiguous references.
    pub fn bind_with(
        &self,
        resolve: &mut dyn FnMut(Sym) -> Result<Option<usize>>,
    ) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(c) => match resolve(*c)? {
                Some(i) => BoundExpr::Col(i),
                None => return Err(Error::NoSuchColumn(c.to_string(), "expression".to_string())),
            },
            Expr::Ident(c) => match resolve(*c)? {
                Some(i) => BoundExpr::Col(i),
                None => BoundExpr::Lit(Value::Sym(*c)),
            },
            Expr::Lit(v) => BoundExpr::Lit(*v),
            Expr::Eq(a, b) => BoundExpr::Eq(
                Box::new(a.bind_with(resolve)?),
                Box::new(b.bind_with(resolve)?),
            ),
            Expr::Ne(a, b) => BoundExpr::Ne(
                Box::new(a.bind_with(resolve)?),
                Box::new(b.bind_with(resolve)?),
            ),
            Expr::In(e, vs) => BoundExpr::In(Box::new(e.bind_with(resolve)?), vs.clone()),
            Expr::And(a, b) => BoundExpr::And(
                Box::new(a.bind_with(resolve)?),
                Box::new(b.bind_with(resolve)?),
            ),
            Expr::Or(a, b) => BoundExpr::Or(
                Box::new(a.bind_with(resolve)?),
                Box::new(b.bind_with(resolve)?),
            ),
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind_with(resolve)?)),
            Expr::Call(name, e) => BoundExpr::Call(*name, Box::new(e.bind_with(resolve)?)),
            Expr::Ternary(c, t, f) => BoundExpr::Ternary(
                Box::new(c.bind_with(resolve)?),
                Box::new(t.bind_with(resolve)?),
                Box::new(f.bind_with(resolve)?),
            ),
            Expr::True => BoundExpr::True,
            Expr::False => BoundExpr::False,
        })
    }

    /// Is this the literal `true`?
    pub fn is_true(&self) -> bool {
        matches!(self, Expr::True)
    }

    /// Rewrite [`Expr::Ident`] nodes: identifiers for which `is_column`
    /// holds become explicit [`Expr::Col`] references, all others
    /// become symbolic literals. This mirrors the resolution
    /// [`Expr::bind_with`] performs at bind time, but keeps the result
    /// an `Expr` so static analysis can work on it unbound.
    pub fn resolve_idents(&self, is_column: &dyn Fn(Sym) -> bool) -> Expr {
        match self {
            Expr::Ident(c) => {
                if is_column(*c) {
                    Expr::Col(*c)
                } else {
                    Expr::Lit(Value::Sym(*c))
                }
            }
            Expr::Col(_) | Expr::Lit(_) | Expr::True | Expr::False => self.clone(),
            Expr::Eq(a, b) => Expr::Eq(
                Box::new(a.resolve_idents(is_column)),
                Box::new(b.resolve_idents(is_column)),
            ),
            Expr::Ne(a, b) => Expr::Ne(
                Box::new(a.resolve_idents(is_column)),
                Box::new(b.resolve_idents(is_column)),
            ),
            Expr::In(e, vs) => Expr::In(Box::new(e.resolve_idents(is_column)), vs.clone()),
            Expr::And(a, b) => Expr::And(
                Box::new(a.resolve_idents(is_column)),
                Box::new(b.resolve_idents(is_column)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.resolve_idents(is_column)),
                Box::new(b.resolve_idents(is_column)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.resolve_idents(is_column))),
            Expr::Call(name, e) => Expr::Call(*name, Box::new(e.resolve_idents(is_column))),
            Expr::Ternary(c, t, f) => Expr::Ternary(
                Box::new(c.resolve_idents(is_column)),
                Box::new(t.resolve_idents(is_column)),
                Box::new(f.resolve_idents(is_column)),
            ),
        }
    }
}

/// Pretty-print in the constraint language's own syntax: the output of
/// `Display` re-parses (via [`crate::parse_expr`]) to an equal AST
/// (with explicit [`Expr::Col`] references rendered as bare
/// identifiers, which the parser reads back as [`Expr::Ident`]).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn lit(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match v {
                Value::Sym(s) => write!(f, "\"{s}\""),
                Value::Null => write!(f, "NULL"),
                Value::Int(i) => write!(f, "{i}"),
                Value::Bool(b) => write!(f, "{b}"),
            }
        }
        match self {
            Expr::Col(c) | Expr::Ident(c) => write!(f, "{c}"),
            Expr::Lit(v) => lit(v, f),
            Expr::Eq(a, b) => write!(f, "{a} = {b}"),
            Expr::Ne(a, b) => write!(f, "{a} != {b}"),
            Expr::In(e, vs) => {
                write!(f, "{e} in (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    lit(v, f)?;
                }
                write!(f, ")")
            }
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "not ({e})"),
            Expr::Call(n, e) => write!(f, "{n}({e})"),
            Expr::Ternary(c, t, x) => write!(f, "({c} ? {t} : {x})"),
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Ident(c) => write!(f, "{c}?"),
            Expr::Lit(v) => write!(f, "{v:?}"),
            Expr::Eq(a, b) => write!(f, "({a:?} = {b:?})"),
            Expr::Ne(a, b) => write!(f, "({a:?} != {b:?})"),
            Expr::In(e, vs) => write!(f, "({e:?} in {vs:?})"),
            Expr::And(a, b) => write!(f, "({a:?} and {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} or {b:?})"),
            Expr::Not(e) => write!(f, "(not {e:?})"),
            Expr::Call(n, e) => write!(f, "{n}({e:?})"),
            Expr::Ternary(c, t, x) => write!(f, "({c:?} ? {t:?} : {x:?})"),
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
        }
    }
}

/// An expression bound to a schema: column references are indices.
/// Evaluation is allocation-free.
#[derive(Clone, Debug, PartialEq)]
pub enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Equality.
    Eq(Box<BoundExpr>, Box<BoundExpr>),
    /// Inequality.
    Ne(Box<BoundExpr>, Box<BoundExpr>),
    /// Membership in a literal list.
    In(Box<BoundExpr>, Vec<Value>),
    /// Conjunction (short-circuit).
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Disjunction (short-circuit).
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
    /// Named-set predicate.
    Call(Sym, Box<BoundExpr>),
    /// The ternary `c ? t : f`: the condition is evaluated once, then
    /// one arm, each as a predicate. The condition is pure, so this is
    /// `(c and t) or (not c and f)`, results and errors included.
    Ternary(Box<BoundExpr>, Box<BoundExpr>, Box<BoundExpr>),
    /// Constant true.
    True,
    /// Constant false.
    False,
}

impl BoundExpr {
    /// Evaluate to a [`Value`] on `row`.
    pub fn eval(&self, row: &[Value], ctx: &dyn EvalContext) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(i) => row[*i],
            BoundExpr::Lit(v) => *v,
            BoundExpr::Eq(a, b) => Value::Bool(a.eval(row, ctx)? == b.eval(row, ctx)?),
            BoundExpr::Ne(a, b) => Value::Bool(a.eval(row, ctx)? != b.eval(row, ctx)?),
            BoundExpr::In(e, vs) => Value::Bool(vs.contains(&e.eval(row, ctx)?)),
            BoundExpr::And(a, b) => {
                if a.eval_bool(row, ctx)? {
                    Value::Bool(b.eval_bool(row, ctx)?)
                } else {
                    Value::Bool(false)
                }
            }
            BoundExpr::Or(a, b) => {
                if a.eval_bool(row, ctx)? {
                    Value::Bool(true)
                } else {
                    Value::Bool(b.eval_bool(row, ctx)?)
                }
            }
            BoundExpr::Not(e) => Value::Bool(!e.eval_bool(row, ctx)?),
            BoundExpr::Call(name, e) => Value::Bool(ctx.set_contains(*name, e.eval(row, ctx)?)?),
            BoundExpr::Ternary(c, t, f) => Value::Bool(if c.eval_bool(row, ctx)? {
                t.eval_bool(row, ctx)?
            } else {
                f.eval_bool(row, ctx)?
            }),
            BoundExpr::True => Value::Bool(true),
            BoundExpr::False => Value::Bool(false),
        })
    }

    /// Evaluate as a predicate; errors if the result is not boolean.
    pub fn eval_bool(&self, row: &[Value], ctx: &dyn EvalContext) -> Result<bool> {
        match self.eval(row, ctx)? {
            Value::Bool(b) => Ok(b),
            other => Err(Error::NotBoolean(format!("{other:?}"))),
        }
    }

    /// Constant-fold, consuming the tree and reusing its boxes: no
    /// column is fixed, so only constant sub-expressions fold, to
    /// [`BoundExpr::True`], [`BoundExpr::False`] or literals, and a
    /// named-set call over a literal folds when `ctx` answers it. A call
    /// on a set `ctx` can enumerate ([`EvalContext::set_members`])
    /// becomes the literal list `in (…)`, which decides exactly what the
    /// call would; enumerable sets never error. The folding keeps
    /// [`BoundExpr::eval_bool`]'s results and errors: `=` is plain value
    /// equality (so `NULL = NULL` holds), and `and`/`or`/ternaries fold
    /// only where the short-circuit evaluator would skip the dropped
    /// operand, or where a kept operand is a predicate whose own
    /// evaluation already checks it is boolean. So `c and false` stays as
    /// it is: the evaluator still evaluates `c`, which may fail.
    pub fn fold(self, ctx: &dyn EvalContext) -> BoundExpr {
        use BoundExpr::{And, Call, Col, Eq, False, In, Lit, Ne, Not, Or, Ternary, True};
        match self {
            Col(_) | Lit(_) | True | False => self,
            Eq(a, b) => {
                let (a, b) = (fold_box(a, ctx), fold_box(b, ctx));
                match (&*a, &*b) {
                    (Lit(x), Lit(y)) => BoundExpr::truth(x == y),
                    _ => Eq(a, b),
                }
            }
            Ne(a, b) => {
                let (a, b) = (fold_box(a, ctx), fold_box(b, ctx));
                match (&*a, &*b) {
                    (Lit(x), Lit(y)) => BoundExpr::truth(x != y),
                    _ => Ne(a, b),
                }
            }
            In(e, vs) => {
                let e = fold_box(e, ctx);
                match *e {
                    Lit(v) => BoundExpr::truth(vs.contains(&v)),
                    _ => In(e, vs),
                }
            }
            And(a, b) => {
                let a = fold_box(a, ctx);
                if *a == False {
                    return False;
                }
                let b = fold_box(b, ctx);
                if *a == True && b.is_predicate() {
                    *b
                } else if *b == True && a.is_predicate() {
                    *a
                } else {
                    And(a, b)
                }
            }
            Or(a, b) => {
                let a = fold_box(a, ctx);
                if *a == True {
                    return True;
                }
                let b = fold_box(b, ctx);
                if *a == False && b.is_predicate() {
                    *b
                } else if *b == False && a.is_predicate() {
                    *a
                } else {
                    Or(a, b)
                }
            }
            Not(e) => {
                let e = fold_box(e, ctx);
                match *e {
                    True => False,
                    False => True,
                    _ => Not(e),
                }
            }
            Call(name, e) => {
                let e = fold_box(e, ctx);
                if let Lit(v) = *e {
                    if let Ok(b) = ctx.set_contains(name, v) {
                        return BoundExpr::truth(b);
                    }
                }
                match ctx.set_members(name) {
                    Some(members) => In(e, members),
                    None => Call(name, e),
                }
            }
            Ternary(c, t, f) => {
                let (c, t, f) = (fold_box(c, ctx), fold_box(t, ctx), fold_box(f, ctx));
                match *c {
                    True if t.is_predicate() => *t,
                    False if f.is_predicate() => *f,
                    _ => Ternary(c, t, f),
                }
            }
        }
    }

    /// The constant `b`.
    fn truth(b: bool) -> BoundExpr {
        if b {
            BoundExpr::True
        } else {
            BoundExpr::False
        }
    }

    /// Does evaluating this give a boolean or an error, never another
    /// value? Only a column or a literal can give another.
    fn is_predicate(&self) -> bool {
        !matches!(self, BoundExpr::Col(_) | BoundExpr::Lit(_))
    }
}

/// [`BoundExpr::fold`] the tree in `e`, in its own box.
fn fold_box(mut e: Box<BoundExpr>, ctx: &dyn EvalContext) -> Box<BoundExpr> {
    *e = std::mem::replace(&mut *e, BoundExpr::True).fold(ctx);
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["inmsg", "dirst", "dirpv"]).unwrap()
    }

    fn row(a: &str, b: &str, c: &str) -> Vec<Value> {
        vec![Value::sym(a), Value::sym(b), Value::sym(c)]
    }

    #[test]
    fn eq_and_ne() {
        let s = schema();
        let e = Expr::col_eq("inmsg", "readex").bind(&s).unwrap();
        assert!(e
            .eval_bool(&row("readex", "SI", "one"), &NoContext)
            .unwrap());
        assert!(!e.eval_bool(&row("read", "SI", "one"), &NoContext).unwrap());

        let ne = Expr::Ne(Box::new(Expr::col("dirst")), Box::new(Expr::sym("I")))
            .bind(&s)
            .unwrap();
        assert!(ne
            .eval_bool(&row("readex", "SI", "one"), &NoContext)
            .unwrap());
        assert!(!ne
            .eval_bool(&row("readex", "I", "one"), &NoContext)
            .unwrap());
    }

    #[test]
    fn ternary_matches_paper_semantics() {
        // inmsg = "data" and dirst = "Busy-d" ? dirpv = zero : dirpv = one
        let s = schema();
        let c = Expr::col_eq("inmsg", "data").and(Expr::col_eq("dirst", "Busy-d"));
        let e = c
            .ternary(Expr::col_eq("dirpv", "zero"), Expr::col_eq("dirpv", "one"))
            .bind(&s)
            .unwrap();
        // Condition holds: require zero.
        assert!(e
            .eval_bool(&row("data", "Busy-d", "zero"), &NoContext)
            .unwrap());
        assert!(!e
            .eval_bool(&row("data", "Busy-d", "one"), &NoContext)
            .unwrap());
        // Condition fails: require one.
        assert!(e
            .eval_bool(&row("readex", "SI", "one"), &NoContext)
            .unwrap());
        assert!(!e
            .eval_bool(&row("readex", "SI", "zero"), &NoContext)
            .unwrap());
    }

    #[test]
    fn in_set_membership() {
        let s = schema();
        let e = Expr::col_in("dirst", &["I", "SI"]).bind(&s).unwrap();
        assert!(e.eval_bool(&row("x", "SI", "one"), &NoContext).unwrap());
        assert!(!e.eval_bool(&row("x", "MESI", "one"), &NoContext).unwrap());
    }

    #[test]
    fn null_literal_equality() {
        let s = schema();
        let e = Expr::col_is_null("dirpv").bind(&s).unwrap();
        let mut r = row("x", "SI", "unused");
        r[2] = Value::Null;
        assert!(e.eval_bool(&r, &NoContext).unwrap());
        assert!(!e.eval_bool(&row("x", "SI", "one"), &NoContext).unwrap());
    }

    #[test]
    fn call_uses_named_sets() {
        let s = schema();
        let mut ctx = SetContext::new();
        ctx.define("isrequest", [Value::sym("readex"), Value::sym("wb")]);
        let e = Expr::Call(Sym::intern("isrequest"), Box::new(Expr::col("inmsg")))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row("readex", "I", "zero"), &ctx).unwrap());
        assert!(!e.eval_bool(&row("data", "I", "zero"), &ctx).unwrap());
        // Unknown set errors.
        assert!(e
            .eval_bool(&row("readex", "I", "zero"), &NoContext)
            .is_err());
    }

    #[test]
    fn unknown_column_fails_at_bind_time() {
        let s = schema();
        assert!(Expr::col_eq("nocol", "x").bind(&s).is_err());
    }

    #[test]
    fn non_boolean_predicate_is_an_error() {
        let s = schema();
        let e = Expr::col("inmsg").bind(&s).unwrap();
        assert!(e
            .eval_bool(&row("readex", "I", "zero"), &NoContext)
            .is_err());
    }

    #[test]
    fn all_and_any_combinators() {
        let s = schema();
        let t = Expr::all([]).bind(&s).unwrap();
        assert!(t.eval_bool(&row("a", "b", "c"), &NoContext).unwrap());
        let f = Expr::any([]).bind(&s).unwrap();
        assert!(!f.eval_bool(&row("a", "b", "c"), &NoContext).unwrap());

        let both = Expr::all([Expr::col_eq("inmsg", "a"), Expr::col_eq("dirst", "b")])
            .bind(&s)
            .unwrap();
        assert!(both.eval_bool(&row("a", "b", "c"), &NoContext).unwrap());
        assert!(!both.eval_bool(&row("a", "x", "c"), &NoContext).unwrap());
    }

    #[test]
    fn ident_resolves_to_column_or_literal() {
        let s = schema();
        // `dirpv = zero`: dirpv is a column, zero is not → literal.
        let e = Expr::Eq(
            Box::new(Expr::Ident(Sym::intern("dirpv"))),
            Box::new(Expr::Ident(Sym::intern("zero"))),
        )
        .bind(&s)
        .unwrap();
        assert!(e.eval_bool(&row("x", "SI", "zero"), &NoContext).unwrap());
        assert!(!e.eval_bool(&row("x", "SI", "one"), &NoContext).unwrap());
    }

    #[test]
    fn explicit_col_requires_resolution() {
        let s = schema();
        assert!(Expr::Col(Sym::intern("nope")).bind(&s).is_err());
    }

    #[test]
    fn columns_are_collected_sorted_unique() {
        let e = Expr::col_eq("dirst", "SI")
            .and(Expr::col_eq("inmsg", "readex"))
            .or(Expr::col_eq("dirst", "I"));
        let cols: Vec<&str> = e.columns().iter().map(|c| c.as_str()).collect();
        assert_eq!(cols, ["dirst", "inmsg"]);
    }
}
