//! Differential tests for the bytecode constraint engine.
//!
//! The compiled solver path is only sound if [`Program`] evaluation is
//! *observably identical* to the tree-walking interpreter — same
//! booleans, same errors, in the same places. This is a self-contained
//! splitmix64 property suite: deterministic random expressions × random
//! rows, comparing the full `Result<bool, Error>` of both engines; a
//! second one that solves random table specs compiled (the masked
//! extension step) and interpreted, rows in order or the same error,
//! and checks the shared incremental step loop against the monolithic
//! walk; a third that does both for long rule chains, the shape the
//! compiler lowers through a switch on the column their guards test
//! first; plus golden end-to-end checks that the shipped spec files
//! solve byte-identically with compilation on and off.

use ccsql_obs::SplitMix64;
use ccsql_relalg::compile::{compile_constraint, MIN_KEYED_ARMS};
use ccsql_relalg::expr::{EvalContext, NoContext, SetContext};
use ccsql_relalg::{
    parse_specfile, specfile, BoundExpr, ColumnDef, Error, Expr, GenMode, GenOptions, GenStats,
    Program, Schema, Sym, TableSpec, Value,
};

const SYMS: &[&str] = &["a", "b", "readex", "idone", "Busy-sd"];
const COLS: &[&str] = &["c0", "c1", "c2", "c3"];

fn gen_value(r: &mut SplitMix64) -> Value {
    match r.gen_range_u32(5) {
        0 => Value::Null,
        1 => Value::Bool(r.gen_bool(0.5)),
        2 => Value::Int(r.gen_range_u64(7) as i64 - 2),
        _ => Value::sym(SYMS[r.gen_range_u32(SYMS.len() as u32) as usize]),
    }
}

fn gen_row(r: &mut SplitMix64) -> Vec<Value> {
    COLS.iter().map(|_| gen_value(r)).collect()
}

/// A comparison operand: a column, a non-column identifier (binds to a
/// symbolic literal) or a literal.
fn gen_operand(r: &mut SplitMix64) -> Expr {
    match r.gen_range_u32(4) {
        0 | 1 => Expr::Ident(Sym::intern(
            COLS[r.gen_range_u32(COLS.len() as u32) as usize],
        )),
        2 => Expr::Ident(Sym::intern("freeident")),
        _ => Expr::Lit(gen_value(r)),
    }
}

/// Random expression of bounded depth. Mostly parser-shaped boolean
/// forms, with a low-probability *bare column* leaf so the non-boolean
/// error paths (`NotBoolean` in `not`/`and`/`or`/ternary and at the
/// root) get exercised too.
fn gen_expr(r: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || r.gen_bool(0.3) {
        return match r.gen_range_u32(10) {
            0 => Expr::True,
            1 => Expr::False,
            2 => gen_operand(r), // bare operand: usually a type error
            3..=5 => Expr::Eq(Box::new(gen_operand(r)), Box::new(gen_operand(r))),
            6 | 7 => Expr::Ne(Box::new(gen_operand(r)), Box::new(gen_operand(r))),
            _ => {
                let n = 1 + r.gen_range_u32(3);
                let vs = (0..n).map(|_| gen_value(r)).collect();
                Expr::In(Box::new(gen_operand(r)), vs)
            }
        };
    }
    match r.gen_range_u32(5) {
        0 => gen_expr(r, depth - 1).and(gen_expr(r, depth - 1)),
        1 => gen_expr(r, depth - 1).or(gen_expr(r, depth - 1)),
        2 => gen_expr(r, depth - 1).negate(),
        3 => gen_expr(r, depth - 1).ternary(gen_expr(r, depth - 1), gen_expr(r, depth - 1)),
        _ => Expr::Call(Sym::intern("isrequest"), Box::new(gen_expr(r, depth - 1))),
    }
}

/// `e` with every ternary `c ? t : f` written out as
/// `(c and t) or (not c and f)`: the reference the ternary node must
/// evaluate like.
fn desugar(e: &BoundExpr) -> BoundExpr {
    let d = |x: &BoundExpr| Box::new(desugar(x));
    match e {
        BoundExpr::Ternary(c, t, f) => BoundExpr::Or(
            Box::new(BoundExpr::And(d(c), d(t))),
            Box::new(BoundExpr::And(Box::new(BoundExpr::Not(d(c))), d(f))),
        ),
        BoundExpr::Eq(a, b) => BoundExpr::Eq(d(a), d(b)),
        BoundExpr::Ne(a, b) => BoundExpr::Ne(d(a), d(b)),
        BoundExpr::And(a, b) => BoundExpr::And(d(a), d(b)),
        BoundExpr::Or(a, b) => BoundExpr::Or(d(a), d(b)),
        BoundExpr::Not(x) => BoundExpr::Not(d(x)),
        BoundExpr::In(x, vs) => BoundExpr::In(d(x), vs.clone()),
        BoundExpr::Call(name, x) => BoundExpr::Call(*name, d(x)),
        BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::True | BoundExpr::False => e.clone(),
    }
}

fn isrequest_context() -> SetContext {
    let mut ctx = SetContext::new();
    ctx.define(
        "isrequest",
        [Value::sym("readex"), Value::Bool(true), Value::Int(1)],
    );
    ctx
}

#[test]
fn program_eval_matches_interpreter_on_random_exprs() {
    let schema = Schema::new(COLS.iter().copied()).unwrap();
    let ctx = isrequest_context();
    let mut rng = SplitMix64::new(0xB17E_C0DE);
    let mut errors = 0u32;
    for case in 0..4000u32 {
        let e = gen_expr(&mut rng, 4);
        let bound = match e.bind(&schema) {
            Ok(b) => b,
            Err(_) => continue, // unreachable: all idents resolve
        };
        let prog = Program::compile(&bound);
        let reference = desugar(&bound);
        for _ in 0..4 {
            let row = gen_row(&mut rng);
            // Under the defined context and (deliberately) under the
            // empty one, where every `isrequest` call errors.
            let want = bound.eval_bool(&row, &ctx);
            assert_eq!(
                want,
                reference.eval_bool(&row, &ctx),
                "case {case}: ternary"
            );
            let got = prog.eval_row(&row, &ctx);
            assert_eq!(got, want, "case {case}: {e} over {row:?}");
            let want_nc = bound.eval_bool(&row, &NoContext);
            let reference_nc = reference.eval_bool(&row, &NoContext);
            assert_eq!(want_nc, reference_nc, "case {case} (NoContext): ternary");
            let got_nc = prog.eval_row(&row, &NoContext);
            assert_eq!(got_nc, want_nc, "case {case} (NoContext): {e} over {row:?}");
            if want.is_err() {
                errors += 1;
            }
            // Constant folding (the solver's actual compile pipeline)
            // must preserve every result, errors included.
            let folded = compile_constraint(&e, &schema, &ctx).unwrap();
            assert_eq!(
                folded.eval_row(&row, &ctx),
                want,
                "case {case} (folded): {e} over {row:?}"
            );
            let folded_nc = compile_constraint(&e, &schema, &NoContext).unwrap();
            assert_eq!(
                folded_nc.eval_row(&row, &NoContext),
                want_nc,
                "case {case} (folded, NoContext): {e} over {row:?}"
            );
        }
    }
    // The generator must actually reach the error paths for this suite
    // to mean anything.
    assert!(errors > 100, "only {errors} error cases generated");
}

/// A rule chain of 8–27 arms, a ternary spine or an `or` chain, on the
/// columns of [`COLS`]. About 80% of its guards lead with a key on one
/// column, `cK = lit`, `lit = cK` or `cK in (lits)`, alone or before
/// random conjuncts; the column is sometimes the last one, the new
/// column of `eval_row` and of a spec's last step. Keys draw on `NULL`,
/// booleans, ints and symbols. The other guards, the arms' results and
/// the else are random expressions, so they can be non-boolean or call
/// `isrequest`, which is missing from the empty context. With `nest`,
/// some of them, and a conjunct after some keys, are smaller chains,
/// which may key on another column and be switched inside the buckets
/// of this one.
fn gen_chain(r: &mut SplitMix64, nest: bool) -> Expr {
    let last = COLS.len() - 1;
    let col = COLS[if r.gen_bool(0.3) {
        last
    } else {
        r.gen_range_u32(COLS.len() as u32) as usize
    }];
    let key_col = || Box::new(Expr::Ident(Sym::intern(col)));
    let part = |r: &mut SplitMix64, p: f64| match nest && r.gen_bool(p) {
        true => gen_chain(r, false),
        false => gen_expr(r, 2),
    };
    let arms = MIN_KEYED_ARMS + r.gen_range_u32(20) as usize;
    let guards: Vec<Expr> = (0..arms)
        .map(|_| {
            if !r.gen_bool(0.8) {
                return part(r, 0.2);
            }
            let key = match r.gen_range_u32(4) {
                0 => Expr::Eq(Box::new(Expr::Lit(gen_value(r))), key_col()),
                1 => {
                    let n = 1 + r.gen_range_u32(3);
                    Expr::In(key_col(), (0..n).map(|_| gen_value(r)).collect())
                }
                _ => Expr::Eq(key_col(), Box::new(Expr::Lit(gen_value(r)))),
            };
            match r.gen_range_u32(3) {
                0 => key,
                1 => key.and(part(r, 0.1)),
                _ => key.and(gen_expr(r, 1)).and(gen_expr(r, 1)),
            }
        })
        .collect();
    if r.gen_bool(0.5) {
        Expr::any(guards)
    } else {
        let otherwise = part(r, 0.4);
        guards
            .into_iter()
            .rev()
            .fold(otherwise, |chain, g| g.ternary(part(r, 0.1), chain))
    }
}

/// A random row whose cells are sometimes a value no key can name.
fn gen_chain_row(r: &mut SplitMix64) -> Vec<Value> {
    let mut row = gen_row(r);
    for cell in &mut row {
        if r.gen_bool(0.15) {
            *cell = Value::sym("unkeyed");
        }
    }
    row
}

#[test]
fn switched_chains_evaluate_like_the_interpreter() {
    let schema = Schema::new(COLS.iter().copied()).unwrap();
    let ctx = isrequest_context();
    let mut rng = SplitMix64::new(0xC4A1_2F0E);
    let (mut indexed, mut nested, mut errors) = (0u32, 0u32, 0u32);
    for case in 0..3000u32 {
        let e = gen_chain(&mut rng, true);
        let bound = e.bind(&schema).unwrap();
        let prog = Program::compile(&bound);
        indexed += u32::from(prog.indexed() > 0);
        nested += u32::from(prog.indexed() > 1);
        let folded = compile_constraint(&e, &schema, &ctx).unwrap();
        let folded_nc = compile_constraint(&e, &schema, &NoContext).unwrap();
        for _ in 0..4 {
            let row = gen_chain_row(&mut rng);
            for (c, name) in [
                (&ctx as &dyn EvalContext, "SetContext"),
                (&NoContext, "NoContext"),
            ] {
                let want = bound.eval_bool(&row, c);
                errors += u32::from(want.is_err());
                let got = prog.eval_row(&row, c);
                assert_eq!(got, want, "case {case} ({name}): {e} over {row:?}");
            }
            let want = bound.eval_bool(&row, &ctx);
            assert_eq!(folded.eval_row(&row, &ctx), want, "case {case} (folded)");
            let want = bound.eval_bool(&row, &NoContext);
            let got = folded_nc.eval_row(&row, &NoContext);
            assert_eq!(got, want, "case {case} (folded, NoContext)");
        }
    }
    assert!(indexed > 2000, "only {indexed} of 3000 chains were indexed");
    assert!(
        nested > 1500,
        "only {nested} programs switched a chain inside another"
    );
    assert!(errors > 2000, "only {errors} error outcomes");
}

#[test]
fn specs_ending_in_a_switched_chain_solve_like_the_interpreter() {
    let ctx = isrequest_context();
    let mut rng = SplitMix64::new(0x0D15_7A7C);
    let (mut indexed, mut errors) = (0u32, 0u32);
    for case in 0..1500u32 {
        let mut spec = TableSpec::new("Chain");
        for (k, name) in COLS.iter().enumerate() {
            let last = k == COLS.len() - 1;
            let n = 1 + rng.gen_range_u32(if last { 10 } else { 4 });
            let mut values: Vec<Value> = (0..n).map(|_| gen_value(&mut rng)).collect();
            if rng.gen_bool(0.2) {
                values.push(Value::sym("unkeyed"));
            }
            let constraint = if last {
                gen_chain(&mut rng, true)
            } else if rng.gen_bool(0.15) {
                gen_expr(&mut rng, 2)
            } else {
                Expr::True
            };
            spec.push(ColumnDef::input(name, values, constraint));
        }
        let what = |c: &str| format!("case {case} ({c}): {:?}", spec.columns);
        for run in [
            solve_both(&spec, &ctx, &what("SetContext")),
            solve_both(&spec, &NoContext, &what("NoContext")),
        ] {
            match run {
                Some(stats) => indexed += u32::from(stats.indexed > 0),
                None => errors += 1,
            }
        }
    }
    assert!(indexed > 500, "only {indexed} solves ran an indexed chain");
    assert!(errors > 300, "only {errors} error cases generated");
}

/// Every shipped spec pack, in name order.
fn shipped_specs() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut specs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ccsql"))
        .collect();
    specs.sort();
    specs
}

#[test]
fn shipped_specs_solve_identically_compiled_and_interpreted() {
    let specs = shipped_specs();
    assert!(specs.len() >= 7, "{specs:?}");
    for path in specs {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap();
        let sf = parse_specfile(&text).unwrap();
        let (compiled, cfail) = specfile::solve_specfile_with(&sf, true).unwrap();
        let (interp, ifail) = specfile::solve_specfile_with(&sf, false).unwrap();
        assert_eq!(compiled.len(), interp.len(), "{name}: row count differs");
        for (i, (a, b)) in compiled.rows().zip(interp.rows()).enumerate() {
            assert_eq!(a, b, "{name}: row {i} differs");
        }
        assert_eq!(cfail.len(), ifail.len(), "{name}: check verdicts differ");
        for ((na, ra), (nb, rb)) in cfail.iter().zip(ifail.iter()) {
            assert_eq!(na, nb);
            assert!(ra.rows().eq(rb.rows()), "{name}: witness rows differ");
        }
    }
}

/// Solve `spec` compiled and interpreted under `ctx` and require the
/// same result: the same rows in the same order, or the same error.
/// Returns the compiled run's stats when it succeeds.
fn solve_both<C: EvalContext>(spec: &TableSpec, ctx: &C, what: &str) -> Option<GenStats> {
    let compiled = spec.generate_with(GenMode::Incremental.into(), ctx);
    let interp = spec.generate_with(GenOptions::interpreted(GenMode::Incremental), ctx);
    match (compiled, interp) {
        (Ok((a, cs)), Ok((b, is))) => {
            let same = a.len() == b.len() && a.rows().eq(b.rows());
            assert!(same, "{what}: rows differ\n{a:?}\nvs\n{b:?}");
            assert_eq!(cs.candidates, is.candidates, "{what}: candidates differ");
            assert_eq!(is.evals, is.candidates, "{what}: interpreted evals");
            assert_eq!(is.indexed, 0, "{what}: interpreted indexed");
            assert!(cs.evals <= cs.candidates, "{what}: compiled evals");
            Some(cs)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{what}: errors differ");
            None
        }
        (a, b) => panic!(
            "{what}: compiled {:?} vs interpreted {:?}",
            a.map(|(r, _)| r.len()),
            b.map(|(r, _)| r.len())
        ),
    }
}

/// Solve `spec` incrementally and monolithically under `ctx` and, when
/// both succeed, require the same rows in the same order. Errors are
/// not compared: the monolithic conjunction short-circuits in column
/// order and can meet a different error first. Returns whether both
/// succeeded.
fn monolithic_agrees<C: EvalContext>(spec: &TableSpec, ctx: &C, what: &str) -> bool {
    let inc = spec.generate(GenMode::Incremental, ctx);
    let mono = spec.generate(GenMode::Monolithic, ctx);
    let (Ok((a, _)), Ok((b, _))) = (inc, mono) else {
        return false;
    };
    let same = a.len() == b.len() && a.rows().eq(b.rows());
    assert!(
        same,
        "{what}: incremental and monolithic rows differ\n{a:?}\nvs\n{b:?}"
    );
    true
}

/// A random spec of 2–4 columns over [`COLS`]: small domains (repeats
/// allowed) of symbols, ints, bools and `NULL`, each column constrained
/// by a random expression or left free.
fn gen_spec(r: &mut SplitMix64) -> TableSpec {
    let mut spec = TableSpec::new("Rand");
    for name in &COLS[..2 + r.gen_range_u32(3) as usize] {
        let values = (0..1 + r.gen_range_u32(6)).map(|_| gen_value(r)).collect();
        let constraint = if r.gen_bool(0.2) {
            Expr::True
        } else {
            gen_expr(r, 3)
        };
        spec.push(ColumnDef::input(name, values, constraint));
    }
    spec
}

#[test]
fn masked_steps_solve_like_the_interpreter_on_random_specs() {
    let ctx = isrequest_context();
    let mut rng = SplitMix64::new(0x5EED_AA5C);
    let (mut errors, mut masked, mut monolithic) = (0u32, 0u32, 0u32);
    for case in 0..3000u32 {
        let spec = gen_spec(&mut rng);
        let what = |c: &str| format!("case {case} ({c}): {:?}", spec.columns);
        for run in [
            solve_both(&spec, &ctx, &what("SetContext")),
            solve_both(&spec, &NoContext, &what("NoContext")),
        ] {
            match run {
                Some(stats) if stats.evals < stats.candidates => masked += 1,
                Some(_) => {}
                None => errors += 1,
            }
        }
        monolithic += u32::from(monolithic_agrees(&spec, &ctx, &what("SetContext")));
        monolithic += u32::from(monolithic_agrees(&spec, &NoContext, &what("NoContext")));
    }
    assert!(errors > 100, "only {errors} error cases generated");
    assert!(masked > 100, "the masked step ran in only {masked} cases");
    assert!(
        monolithic > 1000,
        "only {monolithic} monolithic solves compared"
    );
}

#[test]
fn a_column_past_the_mask_width_is_solved_per_candidate() {
    let mut spec = TableSpec::new("Wide");
    spec.push(ColumnDef::input(
        "a",
        vec![Value::sym("x"), Value::sym("y")],
        Expr::True,
    ));
    let wide: Vec<Value> = (0..65).map(Value::Int).collect();
    let constraint = ccsql_relalg::parse_expr("a = x ? b in (0, 64) : b = 63").unwrap();
    spec.push(ColumnDef::input("b", wide, constraint));
    let stats = solve_both(&spec, &NoContext, "65 values").unwrap();
    assert_eq!(stats.rows, 3);
    assert_eq!(stats.steps[1].evals, stats.steps[1].candidates);
    // One value fewer fits a mask: one evaluation per row.
    spec.columns[1].values.pop();
    let stats = solve_both(&spec, &NoContext, "64 values").unwrap();
    assert_eq!(stats.rows, 2);
    assert_eq!(stats.steps[1].evals, 2);
}

#[test]
fn a_later_program_only_sees_the_values_earlier_ones_kept() {
    // Both constraints become ready when `b` is added, `a`'s first.
    // It keeps only `b = true`; `b`'s own reads `b` bare, which is not
    // a boolean for `s` or `NULL`. Per candidate the conjunction stops
    // before the second constraint sees them, so the masked step must
    // not fail on them.
    let is_true = ccsql_relalg::parse_expr("b = true").unwrap();
    let bare = Expr::Col(Sym::intern("b"));
    let mut spec = TableSpec::new("Short");
    spec.push(ColumnDef::input(
        "a",
        vec![Value::sym("x")],
        is_true.clone(),
    ));
    let b = vec![Value::sym("s"), Value::Bool(true), Value::Null];
    spec.push(ColumnDef::input("b", b, bare.clone()));
    let stats = solve_both(&spec, &NoContext, "short-circuit").unwrap();
    assert_eq!(stats.rows, 1);
    // One masked pass settled the row, with no per-candidate rerun.
    assert_eq!(stats.steps[1].evals, 1);
    // In the other order the bare read comes first and fails on `s`.
    spec.columns[0].constraint = bare;
    spec.columns[1].constraint = is_true;
    let err = spec.generate_default().map(|_| ()).unwrap_err();
    assert_eq!(err, Error::NotBoolean("\"s\"".to_string()));
    assert_eq!(
        solve_both(&spec, &NoContext, "reversed").map(|s| s.rows),
        None
    );
}

#[test]
fn a_failing_row_reports_the_first_error_in_value_order() {
    // Both constraints become ready when `b` is added, `a`'s first. For
    // `s1` that one reads `a` bare, which is not a boolean; for `s0` it
    // holds and `b`'s own constraint reads `b` bare. The masked pass
    // runs `s1`'s path first and meets the error on `x`, but `s0` comes
    // first in value order, so its error is the one the solve reports.
    let guard = ccsql_relalg::parse_expr("b = s1 ? a : true").unwrap();
    let mut spec = TableSpec::new("FirstError");
    spec.push(ColumnDef::input("a", vec![Value::sym("x")], guard));
    let b = vec![Value::sym("s0"), Value::sym("s1")];
    spec.push(ColumnDef::input("b", b, Expr::Col(Sym::intern("b"))));
    let want = Error::NotBoolean("\"s0\"".to_string());
    for opts in [
        GenMode::Incremental.into(),
        GenOptions::interpreted(GenMode::Incremental),
    ] {
        let got = spec.generate_with(opts, &NoContext).map(|_| ());
        assert_eq!(got, Err(want.clone()));
    }
}

#[test]
fn an_over_budget_step_keeps_its_row_budget_error() {
    let mut spec = TableSpec::new("Big");
    for name in ["a", "b", "o"] {
        let values = (0..100)
            .map(|i| Value::sym(&format!("{name}{i}")))
            .collect();
        spec.push(ColumnDef::input(name, values, Expr::True));
    }
    let want = Error::RowBudget {
        table: "Big".to_string(),
        column: "o".to_string(),
        candidates: 1_000_000,
    };
    for opts in [
        GenMode::Incremental.into(),
        GenOptions::interpreted(GenMode::Incremental),
    ] {
        let got = spec.generate_with(opts, &NoContext).map(|_| ());
        assert_eq!(got, Err(want.clone()));
    }
}
