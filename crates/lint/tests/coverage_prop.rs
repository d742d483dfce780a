//! Differential property test for the coverage lints (CCL010 uncovered
//! input, CCL011 nondeterministic input, CCL006 vestigial value).
//!
//! The lint answers these as queries over one incremental solve. The
//! oracle here is the direct reading of the definitions: walk the full
//! cross product of the column tables, call an input assignment legal
//! when every input-only constraint holds, and count the satisfying
//! full rows of each legal input. This is a splitmix64 suite in the
//! style of `reach_prop.rs`: deterministic random specs with 2–4 inputs
//! and 1–3 outputs over domains of 2–4 values, error-free boolean
//! constraints, and input and output columns in random order (so the
//! solver's inputs-first reorder is exercised too).

use ccsql_lint::{lint_table, LintReport};
use ccsql_obs::SplitMix64;
use ccsql_relalg::expr::NoContext;
use ccsql_relalg::solver::{ColumnDef, ColumnRole, TableSpec};
use ccsql_relalg::{Expr, Span, Sym, Value};
use std::collections::{HashMap, HashSet};

fn pool() -> Vec<Value> {
    vec![
        Value::sym("x"),
        Value::sym("y"),
        Value::sym("z"),
        Value::Null,
        Value::Int(1),
    ]
}

/// A column table of 2–4 distinct values.
fn gen_domain(r: &mut SplitMix64) -> Vec<Value> {
    let mut p = pool();
    r.shuffle(&mut p);
    p.truncate(2 + r.gen_range_u32(3) as usize);
    p
}

/// An error-free boolean over the columns `cols`: comparisons of a
/// column with a literal or another column, membership tests, and
/// and/or/not/ternary combinations of them.
fn gen_bool(r: &mut SplitMix64, cols: &[&ColumnDef], depth: u32) -> Expr {
    let pick = |r: &mut SplitMix64| cols[r.gen_range_u32(cols.len() as u32) as usize];
    if depth == 0 || r.gen_bool(0.3) {
        let c = pick(r);
        let lit = |r: &mut SplitMix64| c.values[r.gen_range_u32(c.values.len() as u32) as usize];
        let col = Box::new(Expr::Col(c.name));
        return match r.gen_range_u32(8) {
            0..=2 => Expr::Eq(col, Box::new(Expr::Lit(lit(r)))),
            3 => Expr::Ne(col, Box::new(Expr::Lit(lit(r)))),
            4 | 5 => Expr::In(col, vec![lit(r), lit(r)]),
            6 => Expr::Eq(col, Box::new(Expr::Col(pick(r).name))),
            _ if r.gen_bool(0.5) => Expr::True,
            _ => Expr::False,
        };
    }
    let d = depth - 1;
    match r.gen_range_u32(6) {
        0 => gen_bool(r, cols, d).and(gen_bool(r, cols, d)),
        1 => gen_bool(r, cols, d).or(gen_bool(r, cols, d)),
        2 => gen_bool(r, cols, d).negate(),
        _ => gen_bool(r, cols, d).ternary(gen_bool(r, cols, d), gen_bool(r, cols, d)),
    }
}

/// A random spec: inputs constrained over inputs (the legality filter),
/// outputs over every column, each constraint present with even odds.
fn gen_spec(r: &mut SplitMix64, case: u32) -> TableSpec {
    let n_in = 2 + r.gen_range_u32(3) as usize;
    let n_out = 1 + r.gen_range_u32(3) as usize;
    let mut columns: Vec<ColumnDef> = Vec::new();
    for i in 0..n_in {
        columns.push(ColumnDef::input(
            &format!("i{i}"),
            gen_domain(r),
            Expr::True,
        ));
    }
    for o in 0..n_out {
        columns.push(ColumnDef::output(
            &format!("o{o}"),
            gen_domain(r),
            Expr::True,
        ));
    }
    for k in 0..columns.len() {
        if r.gen_bool(0.5) {
            continue;
        }
        let scope: Vec<&ColumnDef> = if k < n_in {
            columns[..n_in].iter().collect()
        } else {
            columns.iter().collect()
        };
        let e = gen_bool(r, &scope, 3);
        columns[k].constraint = e;
    }
    r.shuffle(&mut columns);
    TableSpec {
        name: format!("P{case}"),
        columns,
    }
}

fn holds(e: &Expr, env: &HashMap<Sym, Value>) -> bool {
    let val = |e: &Expr| match e {
        Expr::Col(c) => env[c],
        Expr::Lit(v) => *v,
        other => unreachable!("generator emits no value-position {other}"),
    };
    match e {
        Expr::True => true,
        Expr::False => false,
        Expr::Eq(a, b) => val(a) == val(b),
        Expr::Ne(a, b) => val(a) != val(b),
        Expr::In(x, vs) => vs.contains(&val(x)),
        Expr::And(a, b) => holds(a, env) && holds(b, env),
        Expr::Or(a, b) => holds(a, env) || holds(b, env),
        Expr::Not(x) => !holds(x, env),
        Expr::Ternary(c, t, f) => {
            if holds(c, env) {
                holds(t, env)
            } else {
                holds(f, env)
            }
        }
        other => unreachable!("generator emits no boolean {other}"),
    }
}

/// Assignment number `n` of `cols` in odometer order (last column
/// fastest), written into `env`.
fn assign(cols: &[&ColumnDef], mut n: usize, env: &mut HashMap<Sym, Value>) {
    for c in cols.iter().rev() {
        env.insert(c.name, c.values[n % c.values.len()]);
        n /= c.values.len();
    }
}

fn render(cols: &[&ColumnDef], env: &HashMap<Sym, Value>) -> String {
    let parts: Vec<String> = cols
        .iter()
        .map(|c| format!("{}={}", c.name, Expr::Lit(env[&c.name])))
        .collect();
    parts.join(", ")
}

/// The oracle's rendered CCL010/CCL011/CCL006 findings, sorted.
fn oracle(spec: &TableSpec) -> Vec<String> {
    let (inputs, outputs): (Vec<&ColumnDef>, Vec<&ColumnDef>) = spec
        .columns
        .iter()
        .partition(|c| c.role == ColumnRole::Input);
    let is_input = |s: &Sym| inputs.iter().any(|c| c.name == *s);
    let (input_only, residual): (Vec<&Expr>, Vec<&Expr>) = spec
        .columns
        .iter()
        .map(|c| &c.constraint)
        .partition(|e| e.columns().iter().all(is_input));
    let size = |cols: &[&ColumnDef]| cols.iter().map(|c| c.values.len()).product::<usize>();
    let mut used: HashMap<Sym, HashSet<Value>> = spec
        .columns
        .iter()
        .map(|c| (c.name, HashSet::new()))
        .collect();
    let (mut uncovered, mut nondet) = (Vec::new(), Vec::new());
    let mut legal = 0;
    let mut env = HashMap::new();
    for n in 0..size(&inputs) {
        assign(&inputs, n, &mut env);
        if !input_only.iter().all(|e| holds(e, &env)) {
            continue;
        }
        legal += 1;
        for c in &inputs {
            used.get_mut(&c.name).unwrap().insert(env[&c.name]);
        }
        let mut rows = 0;
        for m in 0..size(&outputs) {
            assign(&outputs, m, &mut env);
            if residual.iter().all(|e| holds(e, &env)) {
                rows += 1;
                for c in &outputs {
                    used.get_mut(&c.name).unwrap().insert(env[&c.name]);
                }
            }
        }
        match rows {
            0 => uncovered.push(render(&inputs, &env)),
            1 => {}
            _ => nondet.push(render(&inputs, &env)),
        }
    }
    let t = &spec.name;
    let mut out = Vec::new();
    for (code, found, each, summary) in [
        (
            "CCL010",
            &uncovered,
            "no output row satisfies the constraints for legal input",
            "legal inputs admit no output row",
        ),
        (
            "CCL011",
            &nondet,
            "constraints admit 2+ distinct output rows for legal input",
            "legal inputs admit 2+ distinct output rows",
        ),
    ] {
        for w in found.iter().take(3) {
            out.push(format!("{t}: error {code}: {each} {w}"));
        }
        if found.len() > 3 {
            out.push(format!(
                "{t}: error {code}: {} {summary} in total (3 shown)",
                found.len()
            ));
        }
    }
    if legal > 0 {
        for c in &spec.columns {
            let (role, carrier) = match c.role {
                ColumnRole::Input => ("input", "legal input row"),
                ColumnRole::Output => ("output", "generated row"),
            };
            for v in c.values.iter().filter(|v| !used[&c.name].contains(v)) {
                out.push(format!(
                    "{t}.{}: warn CCL006: {role} column table declares {} but no {carrier} \
                     ever carries it — vestigial domain value",
                    c.name,
                    Expr::Lit(*v)
                ));
            }
        }
    }
    out.sort();
    out
}

fn lint_findings(spec: &TableSpec) -> Vec<String> {
    let mut report = LintReport::new();
    lint_table(spec, &NoContext, &|_| Span::UNKNOWN, &mut report);
    let mut out: Vec<String> = report
        .diagnostics()
        .iter()
        .filter(|d| ["CCL010", "CCL011", "CCL006"].contains(&d.code))
        .map(|d| d.render())
        .collect();
    out.sort();
    out
}

#[test]
fn coverage_queries_match_the_cross_product_oracle() {
    let mut rng = SplitMix64::new(0x0CC1_0010);
    let mut seen: HashMap<&str, u32> = HashMap::new();
    let mut reordered = 0u32;
    for case in 0..1500u32 {
        let spec = gen_spec(&mut rng, case);
        let want = oracle(&spec);
        let got = lint_findings(&spec);
        assert_eq!(got, want, "case {case}: {spec:?}");
        for code in ["CCL010", "CCL011", "CCL006", "in total"] {
            if want.iter().any(|f| f.contains(code)) {
                *seen.entry(code).or_default() += 1;
            }
        }
        let first_output = spec
            .columns
            .iter()
            .position(|c| c.role == ColumnRole::Output)
            .unwrap();
        reordered += u32::from(
            spec.columns[first_output..]
                .iter()
                .any(|c| c.role == ColumnRole::Input),
        );
    }
    // Every query, the witness cap and the reorder must be exercised
    // for the comparison to mean anything.
    for code in ["CCL010", "CCL011", "CCL006", "in total"] {
        let n = seen.get(code).copied().unwrap_or(0);
        assert!(n > 100, "only {n} cases with {code}");
    }
    assert!(reordered > 500, "only {reordered} reordered specs");
}
