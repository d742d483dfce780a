//! Differential property test for the CCL003 branch-reachability check.
//!
//! The lint evaluates each constraint set-at-a-time over bitmasks of the
//! condition-column product. The oracle here is the direct reading of
//! the check: enumerate every assignment of the condition columns, walk
//! the constraint once per assignment with a three-valued (Kleene)
//! evaluator that marks which arm of each ternary it takes, and report
//! the arms no assignment ever took. This is a splitmix64 suite in the
//! style of `relalg/tests/bytecode.rs`: deterministic random specs over
//! 2–4 small-domain columns, comparing the rendered CCL003/CCL019
//! findings of `lint_exprs` with the oracle's.

use ccsql_lint::expr_lint::lint_exprs;
use ccsql_lint::LintReport;
use ccsql_obs::SplitMix64;
use ccsql_relalg::expr::{EvalContext, SetContext};
use ccsql_relalg::solver::{ColumnDef, TableSpec};
use ccsql_relalg::{Expr, Span, Sym, Value};
use std::collections::HashMap;

const COLS: &[&str] = &["c0", "c1", "c2", "c3"];
const SETS: &[&str] = &["isreq", "nosuchset"];

fn pool() -> Vec<Value> {
    vec![
        Value::sym("x"),
        Value::sym("y"),
        Value::sym("z"),
        Value::Null,
        Value::Int(1),
        Value::Bool(true),
    ]
}

fn gen_value(r: &mut SplitMix64) -> Value {
    let p = pool();
    p[r.gen_range_u32(p.len() as u32) as usize]
}

/// A column table of 0–3 values. Empty tables are rare but legal: the
/// condition product is then empty and every arm is unreachable.
fn gen_domain(r: &mut SplitMix64) -> Vec<Value> {
    let n = if r.gen_bool(0.03) {
        0
    } else {
        1 + r.gen_range_u32(3)
    };
    let mut out: Vec<Value> = Vec::new();
    while out.len() < n as usize {
        let v = gen_value(r);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// A value-position operand: a column (sometimes undeclared), a literal,
/// a non-column identifier, or a ternary choosing between operands.
fn gen_operand(r: &mut SplitMix64, ncols: usize, depth: u32) -> Expr {
    match r.gen_range_u32(10) {
        0..=3 => Expr::Ident(Sym::intern(COLS[r.gen_range_u32(ncols as u32) as usize])),
        4 => Expr::col("undeclared"),
        5 | 6 => Expr::Lit(gen_value(r)),
        7 => Expr::Ident(Sym::intern("x")),
        _ if depth > 0 => gen_bool(r, ncols, depth - 1).ternary(
            gen_operand(r, ncols, depth - 1),
            gen_operand(r, ncols, depth - 1),
        ),
        _ => Expr::Lit(gen_value(r)),
    }
}

/// A boolean-position expression with ternaries in condition, arm and
/// value positions. A bare operand occasionally stands where a boolean
/// belongs, so non-boolean conditions are exercised too.
fn gen_bool(r: &mut SplitMix64, ncols: usize, depth: u32) -> Expr {
    if depth == 0 || r.gen_bool(0.25) {
        let d = depth.saturating_sub(1);
        return match r.gen_range_u32(12) {
            0 => Expr::True,
            1 => Expr::False,
            2 => gen_operand(r, ncols, d),
            3..=5 => Expr::Eq(
                Box::new(gen_operand(r, ncols, d)),
                Box::new(gen_operand(r, ncols, d)),
            ),
            6 | 7 => Expr::Ne(
                Box::new(gen_operand(r, ncols, d)),
                Box::new(gen_operand(r, ncols, d)),
            ),
            8 | 9 => {
                let n = 1 + r.gen_range_u32(3);
                let vs = (0..n).map(|_| gen_value(r)).collect();
                Expr::In(Box::new(gen_operand(r, ncols, d)), vs)
            }
            _ => Expr::Call(
                Sym::intern(SETS[r.gen_range_u32(SETS.len() as u32) as usize]),
                Box::new(gen_operand(r, ncols, d)),
            ),
        };
    }
    let d = depth - 1;
    match r.gen_range_u32(6) {
        0 => gen_bool(r, ncols, d).and(gen_bool(r, ncols, d)),
        1 => gen_bool(r, ncols, d).or(gen_bool(r, ncols, d)),
        2 => gen_bool(r, ncols, d).negate(),
        _ => gen_bool(r, ncols, d).ternary(gen_bool(r, ncols, d), gen_bool(r, ncols, d)),
    }
}

fn has_ternary(e: &Expr) -> bool {
    match e {
        Expr::Ternary(..) => true,
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            has_ternary(a) || has_ternary(b)
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => has_ternary(x),
        _ => false,
    }
}

/// Same guards, fresh ternary-free leaves: the shape of a second output
/// column in a rule chain, which shares the first one's marks.
fn releaf(e: &Expr, r: &mut SplitMix64, ncols: usize) -> Expr {
    if !has_ternary(e) {
        return gen_bool(r, ncols, 0);
    }
    match e {
        Expr::Ternary(c, t, f) => (**c)
            .clone()
            .ternary(releaf(t, r, ncols), releaf(f, r, ncols)),
        Expr::And(a, b) => releaf(a, r, ncols).and(releaf(b, r, ncols)),
        Expr::Or(a, b) => releaf(a, r, ncols).or(releaf(b, r, ncols)),
        Expr::Not(x) => releaf(x, r, ncols).negate(),
        other => other.clone(),
    }
}

// --- The oracle: one three-valued walk per assignment -----------------

enum K {
    Val(Value),
    Bool(bool),
    Unknown,
}

#[derive(Clone, Copy, Default)]
struct Mark {
    then_taken: bool,
    else_taken: bool,
    cond_unknown: bool,
}

/// Evaluate `e` under `env`, marking the arm each ternary takes. Untaken
/// arms are not walked, so their ternaries are numbered but never marked.
fn walk(
    e: &Expr,
    env: &HashMap<Sym, Value>,
    ctx: &dyn EvalContext,
    next: &mut usize,
    marks: &mut [Mark],
) -> K {
    match e {
        Expr::Col(c) => env.get(c).map_or(K::Unknown, |v| K::Val(*v)),
        Expr::Ident(c) => K::Val(Value::Sym(*c)),
        Expr::Lit(v) => K::Val(*v),
        Expr::True => K::Bool(true),
        Expr::False => K::Bool(false),
        Expr::Eq(a, b) | Expr::Ne(a, b) => {
            let (ka, kb) = (
                walk(a, env, ctx, next, marks),
                walk(b, env, ctx, next, marks),
            );
            match (ka, kb) {
                (K::Val(x), K::Val(y)) => K::Bool((x == y) == matches!(e, Expr::Eq(..))),
                _ => K::Unknown,
            }
        }
        Expr::In(x, vs) => match walk(x, env, ctx, next, marks) {
            K::Val(v) => K::Bool(vs.contains(&v)),
            _ => K::Unknown,
        },
        Expr::Call(name, x) => match walk(x, env, ctx, next, marks) {
            K::Val(v) => ctx.set_contains(*name, v).map_or(K::Unknown, K::Bool),
            _ => K::Unknown,
        },
        Expr::And(a, b) => {
            let (ka, kb) = (
                walk(a, env, ctx, next, marks),
                walk(b, env, ctx, next, marks),
            );
            match (ka, kb) {
                (K::Bool(false), _) | (_, K::Bool(false)) => K::Bool(false),
                (K::Bool(true), K::Bool(true)) => K::Bool(true),
                _ => K::Unknown,
            }
        }
        Expr::Or(a, b) => {
            let (ka, kb) = (
                walk(a, env, ctx, next, marks),
                walk(b, env, ctx, next, marks),
            );
            match (ka, kb) {
                (K::Bool(true), _) | (_, K::Bool(true)) => K::Bool(true),
                (K::Bool(false), K::Bool(false)) => K::Bool(false),
                _ => K::Unknown,
            }
        }
        Expr::Not(x) => match walk(x, env, ctx, next, marks) {
            K::Bool(b) => K::Bool(!b),
            _ => K::Unknown,
        },
        Expr::Ternary(c, t, f) => {
            let my = *next;
            *next += 1;
            let kc = walk(c, env, ctx, next, marks);
            // Pre-order ids of the skipped arm's ternaries.
            let skip = |e: &Expr, next: &mut usize| {
                let mut n = Vec::new();
                conds(e, &mut n);
                *next += n.len();
            };
            match kc {
                K::Bool(true) => {
                    marks[my].then_taken = true;
                    let r = walk(t, env, ctx, next, marks);
                    skip(f, next);
                    r
                }
                K::Bool(false) => {
                    marks[my].else_taken = true;
                    skip(t, next);
                    walk(f, env, ctx, next, marks)
                }
                _ => {
                    marks[my].cond_unknown = true;
                    walk(t, env, ctx, next, marks);
                    walk(f, env, ctx, next, marks);
                    K::Unknown
                }
            }
        }
    }
}

/// Ternaries in pre-order: (condition, else-arm holds a ternary).
fn conds<'a>(e: &'a Expr, out: &mut Vec<(&'a Expr, bool)>) {
    match e {
        Expr::Ternary(c, t, f) => {
            out.push((c, has_ternary(f)));
            conds(c, out);
            conds(t, out);
            conds(f, out);
        }
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            conds(a, out);
            conds(b, out);
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => conds(x, out),
        _ => {}
    }
}

/// The oracle's rendered CCL003/CCL019 findings for `spec`.
fn oracle(spec: &TableSpec, ctx: &dyn EvalContext) -> Vec<String> {
    let is_column = |s: Sym| spec.columns.iter().any(|c| c.name == s);
    let mut out = Vec::new();
    for col in spec.columns.iter().filter(|c| !c.constraint.is_true()) {
        let e = col.constraint.resolve_idents(&is_column);
        let mut cs = Vec::new();
        conds(&e, &mut cs);
        if cs.is_empty() {
            continue;
        }
        let mut cols: Vec<&ColumnDef> = spec
            .columns
            .iter()
            .filter(|d| cs.iter().any(|(c, _)| c.columns().contains(&d.name)))
            .collect();
        cols.sort_by_key(|d| d.name);
        let head = format!("{}.{}", spec.name, col.name);
        let product: u64 = cols.iter().map(|d| d.values.len() as u64).product();
        if product > 1 << 19 {
            out.push(format!(
                "{head}: info CCL019: branch reachability skipped: condition domain \
                 exceeds 524288 assignments"
            ));
            continue;
        }
        let mut marks = vec![Mark::default(); cs.len()];
        for n in 0..product {
            let mut env = HashMap::new();
            let mut rest = n;
            for d in cols.iter().rev() {
                let r = d.values.len() as u64;
                env.insert(d.name, d.values[(rest % r) as usize]);
                rest /= r;
            }
            let mut next = 0;
            walk(&e, &env, ctx, &mut next, &mut marks);
            assert_eq!(next, cs.len(), "oracle numbering drifted");
        }
        for (m, (c, else_nested)) in marks.iter().zip(&cs) {
            if m.cond_unknown {
                continue;
            }
            if !m.then_taken {
                out.push(format!(
                    "{head}: warn CCL003: then-branch of `{c} ? … : …` is unreachable: \
                     the condition never holds on any path that reaches it"
                ));
            }
            if !m.else_taken && *else_nested {
                out.push(format!(
                    "{head}: warn CCL003: else-branch of `{c} ? … : …` is unreachable: \
                     the condition always holds where it is reached"
                ));
            }
        }
    }
    out
}

fn lint_findings(spec: &TableSpec, ctx: &dyn EvalContext) -> Vec<String> {
    let mut report = LintReport::new();
    lint_exprs(spec, ctx, &|_| Span::UNKNOWN, &mut report);
    report
        .diagnostics()
        .iter()
        .filter(|d| d.code == "CCL003" || d.code == "CCL019")
        .map(|d| d.render())
        .collect()
}

#[test]
fn mask_reachability_matches_per_assignment_oracle() {
    let mut ctx = SetContext::new();
    ctx.define("isreq", [Value::sym("x"), Value::Int(1), Value::Null]);
    let mut rng = SplitMix64::new(0x0CC1_0003);
    let (mut with_findings, mut unknown_conds, mut shared) = (0u32, 0u32, 0u32);
    for case in 0..3000u32 {
        let ncols = 2 + rng.gen_range_u32(3) as usize;
        let mut columns: Vec<ColumnDef> = COLS[..ncols]
            .iter()
            .map(|c| ColumnDef::input(c, gen_domain(&mut rng), Expr::True))
            .collect();
        let first = gen_bool(&mut rng, ncols, 4);
        columns.push(ColumnDef::output("o", pool(), first.clone()));
        if rng.gen_bool(0.5) {
            shared += 1;
            let second = releaf(&first, &mut rng, ncols);
            columns.push(ColumnDef::output("o2", pool(), second));
        } else {
            let other = gen_bool(&mut rng, ncols, 3);
            columns.push(ColumnDef::output("o2", pool(), other));
        }
        let spec = TableSpec {
            name: format!("P{case}"),
            columns,
        };
        let want = oracle(&spec, &ctx);
        let got = lint_findings(&spec, &ctx);
        assert_eq!(got, want, "case {case}: {first}");
        with_findings += u32::from(!want.is_empty());
        unknown_conds += u32::from(spec.columns.iter().any(|c| {
            let mut cs = Vec::new();
            conds(&c.constraint, &mut cs);
            cs.iter().any(|(c, _)| c.to_string().contains("nosuchset"))
        }));
    }
    // The generator must reach both verdicts and the opaque-call path
    // for the comparison to mean anything.
    assert!(
        with_findings > 300,
        "only {with_findings} cases with findings"
    );
    assert!(with_findings < 2700, "{with_findings} cases with findings");
    assert!(
        unknown_conds > 100,
        "only {unknown_conds} opaque conditions"
    );
    assert!(shared > 1000, "only {shared} shared-skeleton cases");
}
