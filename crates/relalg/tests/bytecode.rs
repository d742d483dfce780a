//! Differential tests for the bytecode constraint engine.
//!
//! The compiled solver path is only sound if [`Program`] evaluation is
//! *observably identical* to the tree-walking interpreter — same
//! booleans, same errors, in the same places. This is a self-contained
//! splitmix64 property suite: deterministic random expressions × random
//! rows, comparing the full `Result<bool, Error>` of both engines, plus
//! golden end-to-end checks that the shipped spec files solve
//! byte-identically with compilation on and off.

use ccsql_obs::SplitMix64;
use ccsql_relalg::compile::compile_constraint;
use ccsql_relalg::expr::{NoContext, SetContext};
use ccsql_relalg::{parse_specfile, specfile, Expr, Program, Schema, Sym, Value};

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

#[test]
fn program_eval_matches_interpreter_on_random_exprs() {
    let schema = Schema::new(COLS.iter().copied()).unwrap();
    let mut ctx = SetContext::new();
    ctx.define(
        "isrequest",
        [Value::sym("readex"), Value::Bool(true), Value::Int(1)],
    );
    let mut rng = SplitMix64::new(0xB17E_C0DE);
    let mut errors = 0u32;
    for case in 0..4000u32 {
        let e = gen_expr(&mut rng, 4);
        let bound = match e.bind(&schema) {
            Ok(b) => b,
            Err(_) => continue, // unreachable: all idents resolve
        };
        let prog = Program::compile(&bound);
        for _ in 0..4 {
            let row = gen_row(&mut rng);
            // Under the defined context and (deliberately) under the
            // empty one, where every `isrequest` call errors.
            let want = bound.eval_bool(&row, &ctx);
            let got = prog.eval_row(&row, &ctx);
            assert_eq!(got, want, "case {case}: {e} over {row:?}");
            let want_nc = bound.eval_bool(&row, &NoContext);
            let got_nc = prog.eval_row(&row, &NoContext);
            assert_eq!(got_nc, want_nc, "case {case} (NoContext): {e} over {row:?}");
            if want.is_err() {
                errors += 1;
            }
            // Constant folding (the solver's actual compile pipeline)
            // must preserve every defined result.
            if let Ok(b) = want {
                let folded = compile_constraint(&e, &schema, &ctx).unwrap();
                assert_eq!(
                    folded.eval_row(&row, &ctx),
                    Ok(b),
                    "case {case} (folded): {e} over {row:?}"
                );
            }
        }
    }
    // The generator must actually reach the error paths for this suite
    // to mean anything.
    assert!(errors > 100, "only {errors} error cases generated");
}

fn spec_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

#[test]
fn shipped_specs_solve_identically_compiled_and_interpreted() {
    for name in ["fig3.ccsql", "fig3_buggy.ccsql"] {
        let text = std::fs::read_to_string(spec_path(name)).unwrap();
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
