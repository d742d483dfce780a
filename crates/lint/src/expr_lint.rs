//! Expression-level lints over a single table spec: unknown columns
//! (CCL001), out-of-domain comparisons (CCL002), unreachable ternary
//! branches (CCL003), assignments forcing a column outside its own
//! table (CCL004), and all-branches-NULL outputs (CCL005).
//!
//! The reachability analysis (CCL003) ranges over the product of the
//! columns appearing in ternary *conditions* only — for rule-chain
//! constraints those are the controller's input columns, a small finite
//! product — and evaluates each constraint set-at-a-time instead of
//! once per assignment. The product is numbered densely (mixed radix,
//! last column fastest), so a set of assignments is a bitmask and
//! `col = v` / `col in (…)` are masks built on demand from the column's
//! stride. Every node evaluates, path-independently, to the sets of
//! assignments where it is true, false, or each value it can take
//! (unknown is the rest), combined word by word with Kleene rules;
//! named-set calls are asked once per domain value. One top-down walk
//! then carries a *path* mask — the assignments on which a node is
//! reached — and at each ternary records whether the then/else arm is
//! taken (path ∧ true, path ∧ false non-empty) or the condition is
//! unknown somewhere on the path. `and`/`or` do not short-circuit, so a
//! ternary nested under either operand is always visited; an arm is
//! walked under the path minus where the condition definitely goes the
//! other way, which is exactly the path sensitivity the check needs: a
//! branch shadowed by an identical outer condition gets an empty path
//! and is reported even though its condition is satisfiable in
//! isolation. This agrees with evaluating every assignment through a
//! three-valued walker and marking the arms it takes.

use crate::diag::{codes, Diagnostic, LintReport, Severity};
use ccsql_relalg::expr::EvalContext;
use ccsql_relalg::solver::{ColumnRole, TableSpec};
use ccsql_relalg::{Expr, Span, Sym, Value};
use std::collections::HashMap;

/// Assignment budget for the per-constraint reachability enumeration.
/// Above this the check is skipped with a CCL019 note.
const REACH_BUDGET: u64 = 1 << 19;

/// Run all expression-level lints for `spec`. `span_of` maps a column
/// name to the source span of its constraint ([`Span::UNKNOWN`] for
/// built-in specs). Returns the number of condition-product assignments
/// the reachability check evaluated.
pub fn lint_exprs(
    spec: &TableSpec,
    ctx: &dyn EvalContext,
    span_of: &dyn Fn(&str) -> Span,
    report: &mut LintReport,
) -> u64 {
    let is_column = |s: Sym| spec.columns.iter().any(|c| c.name == s);
    let table_of: HashMap<Sym, &[Value]> = spec
        .columns
        .iter()
        .map(|c| (c.name, c.values.as_slice()))
        .collect();

    // Reachability marks are cached per condition skeleton: in a rule
    // chain every output column shares the same guard sequence, so the
    // pass runs once per table, not once per column.
    let mut reach_cache: HashMap<String, Option<Vec<Mark>>> = HashMap::new();
    let mut evaluated = 0u64;

    for col in &spec.columns {
        if col.constraint.is_true() {
            continue;
        }
        let name = col.name.as_str();
        let at = span_of(name);
        let e = col.constraint.resolve_idents(&is_column);

        check_comparisons(spec, &table_of, col.name, &e, name, at, report);
        if col.role == ColumnRole::Output {
            check_all_null(col.name, &col.values, &e, &spec.name, name, at, report);
        }
        evaluated +=
            check_reachability(spec, &table_of, ctx, &e, name, at, &mut reach_cache, report);
    }
    evaluated
}

/// CCL001 / CCL002 / CCL004: walk every comparison node.
fn check_comparisons(
    spec: &TableSpec,
    table_of: &HashMap<Sym, &[Value]>,
    own: Sym,
    e: &Expr,
    col_name: &str,
    at: Span,
    report: &mut LintReport,
) {
    let visit = |e: &Expr, report: &mut LintReport| match e {
        Expr::Eq(a, b) | Expr::Ne(a, b) => {
            let (col, lit) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (Some(*c), Some(*v)),
                (Expr::Lit(v), Expr::Col(c)) => (Some(*c), Some(*v)),
                (Expr::Col(_), Expr::Col(_)) => (None, None),
                (x, y) => {
                    // Neither side is a column: a comparison between two
                    // constants, almost certainly a mistyped column name.
                    report.push(
                        Diagnostic::new(
                            codes::UNKNOWN_COLUMN,
                            Severity::Error,
                            &spec.name,
                            col_name,
                            format!(
                                "comparison `{x} {} {y}` references no declared column \
                                 (mistyped column name?)",
                                if matches!(e, Expr::Eq(..)) { "=" } else { "!=" }
                            ),
                        )
                        .at(at),
                    );
                    (None, None)
                }
            };
            if let (Some(c), Some(v)) = (col, lit) {
                if let Some(dom) = table_of.get(&c) {
                    if !dom.contains(&v) {
                        if c == own && matches!(e, Expr::Eq(..)) {
                            report.push(
                                Diagnostic::new(
                                    codes::FORCED_OUT_OF_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "constraint assigns `{col_name} = {}`, which is \
                                         outside the column table",
                                        Expr::Lit(v)
                                    ),
                                )
                                .at(at),
                            );
                        } else {
                            report.push(
                                Diagnostic::new(
                                    codes::VALUE_NOT_IN_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "`{c}` is compared against {}, which is not in \
                                         its column table",
                                        Expr::Lit(v)
                                    ),
                                )
                                .at(at),
                            );
                        }
                    }
                }
            }
        }
        Expr::In(lhs, vs) => match lhs.as_ref() {
            Expr::Col(c) => {
                if let Some(dom) = table_of.get(c) {
                    for v in vs {
                        if !dom.contains(v) {
                            report.push(
                                Diagnostic::new(
                                    codes::VALUE_NOT_IN_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "`{c} in (…)` lists {}, which is not in its \
                                         column table",
                                        Expr::Lit(*v)
                                    ),
                                )
                                .at(at),
                            );
                        }
                    }
                }
            }
            other => {
                report.push(
                    Diagnostic::new(
                        codes::UNKNOWN_COLUMN,
                        Severity::Error,
                        &spec.name,
                        col_name,
                        format!(
                            "`{other} in (…)` references no declared column \
                             (mistyped column name?)"
                        ),
                    )
                    .at(at),
                );
            }
        },
        _ => {}
    };
    walk(e, &mut |n, r| visit(n, r), report);
}

/// Pre-order traversal calling `f` on every node.
fn walk(e: &Expr, f: &mut dyn FnMut(&Expr, &mut LintReport), report: &mut LintReport) {
    f(e, report);
    match e {
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            walk(a, f, report);
            walk(b, f, report);
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => walk(x, f, report),
        Expr::Ternary(c, t, x) => {
            walk(c, f, report);
            walk(t, f, report);
            walk(x, f, report);
        }
        _ => {}
    }
}

/// CCL005: an output constraint whose every assignment leaf is
/// `col = NULL` describes a transition that can never do anything.
fn check_all_null(
    own: Sym,
    values: &[Value],
    e: &Expr,
    table: &str,
    col_name: &str,
    at: Span,
    report: &mut LintReport,
) {
    if !values.iter().any(|v| *v != Value::Null) {
        return; // a NULL-only table is all this column can hold
    }
    let mut leaves = 0usize;
    let mut null_leaves = 0usize;
    let mut other_admission = false;
    let mut visit = |n: &Expr, _: &mut LintReport| match n {
        Expr::Eq(a, b) => {
            let lit = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) if *c == own => Some(v),
                (Expr::Lit(v), Expr::Col(c)) if *c == own => Some(v),
                _ => None,
            };
            if let Some(v) = lit {
                leaves += 1;
                if *v == Value::Null {
                    null_leaves += 1;
                }
            }
        }
        Expr::Ne(a, b)
            if matches!(a.as_ref(), Expr::Col(c) if *c == own)
                || matches!(b.as_ref(), Expr::Col(c) if *c == own) =>
        {
            other_admission = true;
        }
        Expr::In(lhs, _) => {
            if matches!(lhs.as_ref(), Expr::Col(c) if *c == own) {
                other_admission = true;
            }
        }
        _ => {}
    };
    walk(e, &mut visit, report);
    if leaves > 0 && leaves == null_leaves && !other_admission {
        report.push(
            Diagnostic::new(
                codes::ALL_BRANCHES_NULL,
                Severity::Warn,
                table,
                col_name,
                format!(
                    "every branch assigns `{col_name} = NULL`: this output can never \
                     do anything"
                ),
            )
            .at(at),
        );
    }
}

/// Per-ternary reachability marks.
#[derive(Default)]
struct Mark {
    then_taken: bool,
    else_taken: bool,
    cond_unknown: bool,
}

/// CCL003 (+ CCL019 over budget): branch reachability over the
/// condition columns' product. Returns the number of assignments
/// evaluated (zero on a cache hit or a skip).
#[allow(clippy::too_many_arguments)]
fn check_reachability(
    spec: &TableSpec,
    table_of: &HashMap<Sym, &[Value]>,
    ctx: &dyn EvalContext,
    e: &Expr,
    col_name: &str,
    at: Span,
    cache: &mut HashMap<String, Option<Vec<Mark>>>,
    report: &mut LintReport,
) -> u64 {
    // Collect ternary conditions (pre-order, with whether the else-arm
    // carries nested logic) and the columns they use.
    let mut conds: Vec<(&Expr, bool)> = Vec::new();
    collect_conds(e, &mut conds);
    if conds.is_empty() {
        return 0;
    }
    let mut cond_cols: Vec<Sym> = Vec::new();
    for (c, _) in &conds {
        for s in c.columns() {
            if table_of.contains_key(&s) && !cond_cols.contains(&s) {
                cond_cols.push(s);
            }
        }
    }
    cond_cols.sort();

    let mut evaluated = 0u64;
    let marks = cache.entry(skeleton(e)).or_insert_with(|| {
        let doms: Vec<&[Value]> = cond_cols.iter().map(|c| table_of[c]).collect();
        let product = Product::new(cond_cols, doms)?;
        evaluated = product.len;
        let mut reach = Reach {
            full: product.full(),
            product,
            ctx,
            marks: Vec::with_capacity(conds.len()),
        };
        let all = reach.full.clone();
        reach.visit(e, &all, false);
        Some(reach.marks)
    });

    match marks {
        None => report.push(
            Diagnostic::new(
                codes::ANALYSIS_SKIPPED,
                Severity::Info,
                &spec.name,
                col_name,
                format!(
                    "branch reachability skipped: condition domain exceeds {REACH_BUDGET} \
                     assignments"
                ),
            )
            .at(at),
        ),
        Some(marks) => {
            for (i, m) in marks.iter().enumerate() {
                if m.cond_unknown {
                    continue;
                }
                if !m.then_taken {
                    report.push(
                        Diagnostic::new(
                            codes::UNREACHABLE_BRANCH,
                            Severity::Warn,
                            &spec.name,
                            col_name,
                            format!(
                                "then-branch of `{} ? … : …` is unreachable: the condition \
                                 never holds on any path that reaches it",
                                conds[i].0
                            ),
                        )
                        .at(at),
                    );
                }
                // An always-true condition whose else-arm is a terminal
                // assignment is the rule-chain idiom: the final rule of
                // an exhaustive chain makes the trailing default leaf
                // dead by construction. Only report a dead else-arm when
                // it skips real nested logic.
                if !m.else_taken && conds[i].1 {
                    report.push(
                        Diagnostic::new(
                            codes::UNREACHABLE_BRANCH,
                            Severity::Warn,
                            &spec.name,
                            col_name,
                            format!(
                                "else-branch of `{} ? … : …` is unreachable: the condition \
                                 always holds where it is reached",
                                conds[i].0
                            ),
                        )
                        .at(at),
                    );
                }
            }
        }
    }
    evaluated
}

/// Pre-order list of (ternary condition, else-arm-has-nested-ternary)
/// pairs (the node numbering the mark walk reproduces).
fn collect_conds<'a>(e: &'a Expr, out: &mut Vec<(&'a Expr, bool)>) {
    match e {
        Expr::Ternary(c, t, f) => {
            out.push((c, has_ternary(f)));
            collect_conds(c, out);
            collect_conds(t, out);
            collect_conds(f, out);
        }
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            collect_conds(a, out);
            collect_conds(b, out);
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => collect_conds(x, out),
        _ => {}
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

/// Structural cache key: ternary nesting with conditions spelled out and
/// ternary-free arms collapsed to `_` (assignment leaves differ between
/// the output columns of one rule chain; the guards do not).
fn skeleton(e: &Expr) -> String {
    fn go(e: &Expr, out: &mut String) {
        if !has_ternary(e) {
            out.push('_');
            return;
        }
        match e {
            Expr::Ternary(c, t, f) => {
                out.push('(');
                out.push_str(&c.to_string());
                out.push('?');
                go(t, out);
                out.push(':');
                go(f, out);
                out.push(')');
            }
            Expr::And(a, b) => {
                out.push_str("&(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Or(a, b) => {
                out.push_str("|(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Not(x) => {
                out.push('!');
                go(x, out);
            }
            Expr::Eq(a, b) => {
                out.push_str("=(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Ne(a, b) => {
                out.push_str("#(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::In(x, _) | Expr::Call(_, x) => {
                out.push_str("f(");
                go(x, out);
                out.push(')');
            }
            _ => out.push('_'),
        }
    }
    let mut s = String::new();
    go(e, &mut s);
    s
}

/// A set of assignments of the condition product: bit `n` stands for
/// the assignment numbered `n`.
type Mask = Vec<u64>;

/// The condition columns' product, numbered densely in mixed radix with
/// the last column fastest: column `i` holds domain position
/// `(n / stride[i]) % domain_len` in assignment `n`.
struct Product<'a> {
    cols: Vec<Sym>,
    doms: Vec<&'a [Value]>,
    strides: Vec<u64>,
    len: u64,
    words: usize,
}

impl<'a> Product<'a> {
    /// `None` when the product exceeds [`REACH_BUDGET`].
    fn new(cols: Vec<Sym>, doms: Vec<&'a [Value]>) -> Option<Product<'a>> {
        let len = doms
            .iter()
            .try_fold(1u64, |a, d| a.checked_mul(d.len() as u64))
            .filter(|&n| n <= REACH_BUDGET)?;
        let mut strides = vec![1u64; doms.len()];
        for i in (0..doms.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1].saturating_mul(doms[i + 1].len() as u64);
        }
        Some(Product {
            cols,
            doms,
            strides,
            len,
            words: len.div_ceil(64) as usize,
        })
    }

    fn empty(&self) -> Mask {
        vec![0; self.words]
    }

    fn full(&self) -> Mask {
        let mut m = self.empty();
        set_range(&mut m, 0, self.len);
        m
    }

    /// Assignments where column `i` sits at a domain position `pick`
    /// accepts, built from the column's stride.
    fn digit_mask(&self, i: usize, pick: impl Fn(usize) -> bool) -> Mask {
        let (stride, radix) = (self.strides[i], self.doms[i].len() as u64);
        let mut m = self.empty();
        for d in (0..radix).filter(|&d| pick(d as usize)) {
            let mut lo = d * stride;
            while lo < self.len {
                set_range(&mut m, lo, lo + stride);
                lo += stride * radix;
            }
        }
        m
    }
}

/// Set bits `lo..hi`.
fn set_range(m: &mut [u64], lo: u64, hi: u64) {
    if lo >= hi {
        return;
    }
    let (lw, hw) = ((lo / 64) as usize, (hi / 64) as usize);
    let (lb, hb) = (lo % 64, hi % 64);
    if lw == hw {
        m[lw] |= ((1u64 << (hb - lb)) - 1) << lb;
        return;
    }
    m[lw] |= !0u64 << lb;
    m[lw + 1..hw].fill(!0);
    if hb > 0 {
        m[hw] |= (1u64 << hb) - 1;
    }
}

fn and(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

fn and_not(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x & !y).collect()
}

fn or(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x | y).collect()
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d |= s);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// A node's three-valued result at every assignment of the product,
/// as the per-assignment evaluator would produce it: a value, true,
/// false, or unknown. Path-independent.
enum KMask {
    /// Unknown everywhere (an unfixed column, or a value nobody asked
    /// for).
    Unknown,
    /// The same value everywhere.
    Lit(Value),
    /// The value of condition column `i`.
    Col(usize),
    /// Disjoint true, false and per-value sets; unknown elsewhere.
    Sets {
        t: Mask,
        f: Mask,
        vals: Vec<(Value, Mask)>,
    },
}

/// The set-at-a-time reachability pass over one constraint.
struct Reach<'a> {
    product: Product<'a>,
    full: Mask,
    ctx: &'a dyn EvalContext,
    /// Ternary marks in pre-order, pushed as each ternary is entered.
    marks: Vec<Mark>,
}

impl Reach<'_> {
    fn boolean(t: Mask, f: Mask) -> KMask {
        KMask::Sets {
            t,
            f,
            vals: Vec::new(),
        }
    }

    /// Where the node is true and false; values count as unknown.
    fn tf(&self, k: KMask) -> (Mask, Mask) {
        match k {
            KMask::Sets { t, f, .. } => (t, f),
            _ => (self.product.empty(), self.product.empty()),
        }
    }

    /// The node's value sets (booleans excluded), materialised.
    fn vals(&self, k: &KMask) -> Vec<(Value, Mask)> {
        match k {
            KMask::Unknown => Vec::new(),
            KMask::Lit(v) => vec![(*v, self.full.clone())],
            KMask::Col(i) => (0..self.product.doms[*i].len())
                .map(|d| {
                    let m = self.product.digit_mask(*i, |x| x == d);
                    (self.product.doms[*i][d], m)
                })
                .collect(),
            KMask::Sets { vals, .. } => vals.clone(),
        }
    }

    /// `a = b` as (true, false) sets: known only where both sides are
    /// values. `col = literal`, the common case, builds one stride mask
    /// instead of the column's whole partition.
    fn eq(&self, a: &KMask, b: &KMask) -> (Mask, Mask) {
        let p = &self.product;
        match (a, b) {
            (KMask::Col(i), KMask::Lit(v)) | (KMask::Lit(v), KMask::Col(i)) => {
                let t = p.digit_mask(*i, |d| p.doms[*i][d] == *v);
                let f = and_not(&self.full, &t);
                (t, f)
            }
            _ => {
                let (mut t, mut f) = (p.empty(), p.empty());
                let vb = self.vals(b);
                for (x, ma) in self.vals(a) {
                    for (y, mb) in &vb {
                        let dst = if x == *y { &mut t } else { &mut f };
                        dst.iter_mut()
                            .zip(ma.iter().zip(mb))
                            .for_each(|(d, (l, r))| *d |= l & r);
                    }
                }
                (t, f)
            }
        }
    }

    /// Split the node's values by a per-value verdict: `Some(b)` sends
    /// the value's assignments to the true/false set, `None` leaves them
    /// unknown. `verdict` runs once per domain position or value set,
    /// never per assignment.
    fn classify(&self, k: &KMask, verdict: impl Fn(Value) -> Option<bool>) -> (Mask, Mask) {
        let p = &self.product;
        match k {
            KMask::Col(i) => {
                let v: Vec<Option<bool>> = p.doms[*i].iter().map(|x| verdict(*x)).collect();
                (
                    p.digit_mask(*i, |d| v[d] == Some(true)),
                    p.digit_mask(*i, |d| v[d] == Some(false)),
                )
            }
            _ => {
                let (mut t, mut f) = (p.empty(), p.empty());
                for (x, m) in self.vals(k) {
                    match verdict(x) {
                        Some(true) => or_into(&mut t, &m),
                        Some(false) => or_into(&mut f, &m),
                        None => {}
                    }
                }
                (t, f)
            }
        }
    }

    /// `k` restricted to the assignments in `m`, as explicit sets (value
    /// sets left empty by the restriction are dropped).
    fn restrict(&self, k: KMask, m: &[u64]) -> (Mask, Mask, Vec<(Value, Mask)>) {
        let (t, f, vals) = match k {
            KMask::Sets { t, f, vals } => (t, f, vals),
            k => (self.product.empty(), self.product.empty(), self.vals(&k)),
        };
        let vals = vals
            .into_iter()
            .map(|(v, vm)| (v, and(&vm, m)))
            .filter(|(_, vm)| vm.iter().any(|w| *w != 0))
            .collect();
        (and(&t, m), and(&f, m), vals)
    }

    /// Evaluate `e` over the whole product and record the marks of every
    /// ternary inside it, given `path`: the assignments on which `e` is
    /// reached. The result is computed only when `need` is set (an
    /// operand of something whose value matters); otherwise `Unknown`
    /// is returned and only the marks are recorded.
    fn visit(&mut self, e: &Expr, path: &[u64], need: bool) -> KMask {
        match e {
            Expr::Col(c) => match self.product.cols.iter().position(|x| x == c) {
                Some(i) => KMask::Col(i),
                None => KMask::Unknown,
            },
            Expr::Ident(c) => KMask::Lit(Value::Sym(*c)),
            Expr::Lit(v) => KMask::Lit(*v),
            Expr::True => Reach::boolean(self.full.clone(), self.product.empty()),
            Expr::False => Reach::boolean(self.product.empty(), self.full.clone()),
            Expr::Eq(a, b) | Expr::Ne(a, b) => {
                let ka = self.visit(a, path, need);
                let kb = self.visit(b, path, need);
                if !need {
                    return KMask::Unknown;
                }
                let (t, f) = self.eq(&ka, &kb);
                match e {
                    Expr::Eq(..) => Reach::boolean(t, f),
                    _ => Reach::boolean(f, t),
                }
            }
            Expr::In(x, vs) => {
                let k = self.visit(x, path, need);
                if !need {
                    return KMask::Unknown;
                }
                let (t, f) = self.classify(&k, |v| Some(vs.contains(&v)));
                Reach::boolean(t, f)
            }
            Expr::Call(name, x) => {
                let k = self.visit(x, path, need);
                if !need {
                    return KMask::Unknown;
                }
                let (t, f) = self.classify(&k, |v| self.ctx.set_contains(*name, v).ok());
                Reach::boolean(t, f)
            }
            // Kleene, no short-circuit: both sides always visited.
            Expr::And(a, b) | Expr::Or(a, b) => {
                let ka = self.visit(a, path, need);
                let kb = self.visit(b, path, need);
                if !need {
                    return KMask::Unknown;
                }
                let ((ta, fa), (tb, fb)) = (self.tf(ka), self.tf(kb));
                match e {
                    Expr::And(..) => Reach::boolean(and(&ta, &tb), or(&fa, &fb)),
                    _ => Reach::boolean(or(&ta, &tb), and(&fa, &fb)),
                }
            }
            Expr::Not(x) => {
                let k = self.visit(x, path, need);
                if !need {
                    return KMask::Unknown;
                }
                let (t, f) = self.tf(k);
                Reach::boolean(f, t)
            }
            Expr::Ternary(c, t, f) => {
                let my = self.marks.len();
                self.marks.push(Mark::default());
                let (ct, cf) = {
                    let k = self.visit(c, path, true);
                    self.tf(k)
                };
                // Where the condition is unknown (an opaque predicate or
                // an unfixed column) both arms are possibly reachable —
                // the safe direction for this check.
                self.marks[my] = Mark {
                    then_taken: intersects(path, &ct),
                    else_taken: intersects(path, &cf),
                    cond_unknown: path
                        .iter()
                        .zip(ct.iter().zip(&cf))
                        .any(|(p, (t, f))| p & !(t | f) != 0),
                };
                // The arms see the path minus where the condition is
                // definitely the other way; only the else-path and (when
                // the result is wanted) the condition sets stay alive
                // while the arms are walked.
                let then_path = and_not(path, &cf);
                let else_path = and_not(path, &ct);
                let cond = need.then_some((ct, cf));
                let kt = self.visit(t, &then_path, need);
                drop(then_path);
                let kf = self.visit(f, &else_path, need);
                let Some((ct, cf)) = cond else {
                    return KMask::Unknown;
                };
                let (mut rt, mut rf, mut vals) = self.restrict(kt, &ct);
                let (et, ef, evals) = self.restrict(kf, &cf);
                or_into(&mut rt, &et);
                or_into(&mut rf, &ef);
                vals.extend(evals);
                KMask::Sets { t: rt, f: rf, vals }
            }
        }
    }
}
