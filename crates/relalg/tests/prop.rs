//! Property tests for the relational engine: algebraic laws of the
//! operators, the display ↔ parse round trip, `in`-list parsing and
//! solver-mode agreement. A self-contained splitmix64 suite in the style
//! of `bytecode.rs`: each property runs a fixed number of deterministic
//! random cases, and a failure message names the case.

use ccsql_obs::SplitMix64;
use ccsql_relalg::expr::{NoContext, SetContext};
use ccsql_relalg::solver::ColumnDef;
use ccsql_relalg::{ops, parse_expr, Expr, GenMode, Relation, Schema, Sym, TableSpec, Value};

const SYMS: &[&str] = &["a", "b", "c", "d", "readex", "idone", "NULLX"];
const CASES: u64 = 256;

/// Run `body` once per case, each with its own seeded stream.
fn for_cases(salt: u64, mut body: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        body(case, &mut SplitMix64::new(salt ^ (case << 16)));
    }
}

fn gen_sym(r: &mut SplitMix64) -> Value {
    Value::sym(SYMS[r.gen_range_u32(SYMS.len() as u32) as usize])
}

fn gen_value(r: &mut SplitMix64) -> Value {
    match r.gen_range_u32(4) {
        0 => Value::Null,
        1 => gen_sym(r),
        2 => Value::Int(r.gen_range_u64(13) as i64 - 3),
        _ => Value::Bool(r.gen_bool(0.5)),
    }
}

/// A relation `c0..c{cols}` with fewer than `max_rows` random rows.
fn gen_relation(r: &mut SplitMix64, cols: usize, max_rows: u64) -> Relation {
    let mut rel = Relation::with_columns((0..cols).map(|i| format!("c{i}"))).unwrap();
    for _ in 0..r.gen_range_u64(max_rows) {
        let row: Vec<Value> = (0..cols).map(|_| gen_value(r)).collect();
        rel.push_row(&row).unwrap();
    }
    rel
}

/// Parser-shaped random expression (comparison operands are identifiers
/// and literals, as the grammar produces).
fn gen_expr(r: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || r.gen_bool(0.3) {
        let ident = Expr::Ident(Sym::intern(
            ["c0", "c1", "xx", "busy_q"][r.gen_range_u32(4) as usize],
        ));
        let lit = match r.gen_range_u32(3) {
            0 => Expr::Lit(gen_sym(r)),
            1 => Expr::Lit(Value::Int(r.gen_range_u64(25) as i64 - 5)),
            _ => Expr::Lit(Value::Null),
        };
        return match r.gen_range_u32(5) {
            0 => Expr::Eq(Box::new(ident), Box::new(lit)),
            1 => Expr::Ne(Box::new(ident), Box::new(lit)),
            2 => {
                let vs = (0..1 + r.gen_range_u32(3)).map(|_| gen_sym(r)).collect();
                Expr::In(Box::new(ident), vs)
            }
            3 => Expr::True,
            _ => Expr::False,
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
fn display_parse_round_trip() {
    for_cases(0x0D15_9A25, |case, r| {
        let e = gen_expr(r, 4);
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("case {case}: unparseable {printed:?}: {err}"));
        assert_eq!(reparsed, e, "case {case}: printed {printed}");
    });
}

#[test]
fn distinct_is_idempotent_and_preserves_membership() {
    for_cases(0xD157_1AC7, |case, r| {
        let rel = gen_relation(r, 3, 30);
        let once = rel.distinct();
        let twice = once.distinct();
        assert!(once.set_eq(&twice), "case {case}");
        assert_eq!(once.len(), twice.len(), "case {case}");
        for row in rel.rows() {
            assert!(once.contains_row(row), "case {case}: lost {row:?}");
        }
        assert!(once.len() <= rel.len(), "case {case}");
    });
}

#[test]
fn union_is_commutative_as_sets() {
    for_cases(0x0C0A_1E5C, |case, r| {
        let a = gen_relation(r, 2, 20);
        let b = gen_relation(r, 2, 20);
        let ab = ops::union(&a, &b).unwrap();
        let ba = ops::union(&b, &a).unwrap();
        assert!(ab.set_eq(&ba), "case {case}");
        assert_eq!(ab.len(), a.len() + b.len(), "case {case}");
    });
}

#[test]
fn difference_and_intersection_partition() {
    for_cases(0xD1FF_E4E2, |case, r| {
        let a = gen_relation(r, 2, 25);
        let b = gen_relation(r, 2, 25);
        let diff = ops::difference(&a, &b).unwrap();
        let inter = ops::intersect(&a, &b).unwrap();
        // diff ∪ inter ≡ a (as sets).
        let rejoined = ops::union(&diff, &inter).unwrap();
        assert!(rejoined.distinct().set_eq(&a.distinct()), "case {case}");
        // diff ∩ b = ∅.
        assert!(ops::intersect(&diff, &b).unwrap().is_empty(), "case {case}");
    });
}

#[test]
fn select_partitions_rows() {
    let p = Expr::col_eq("c0", "a");
    let not_p = p.clone().negate();
    for_cases(0x5E1E_C7ED, |case, r| {
        let rel = gen_relation(r, 2, 30);
        let yes = ops::select(&rel, &p, &NoContext).unwrap();
        let no = ops::select(&rel, &not_p, &NoContext).unwrap();
        assert_eq!(yes.len() + no.len(), rel.len(), "case {case}");
        for row in yes.rows() {
            assert_eq!(row[0], Value::sym("a"), "case {case}");
        }
    });
}

#[test]
fn projection_keeps_row_count() {
    for_cases(0x960E_C7ED, |case, r| {
        let rel = gen_relation(r, 3, 25);
        let p = ops::project_str(&rel, &["c2", "c0"]).unwrap();
        assert_eq!(p.len(), rel.len(), "case {case}");
        assert_eq!(p.arity(), 2, "case {case}");
        for (orig, proj) in rel.rows().zip(p.rows()) {
            assert_eq!(orig[2], proj[0], "case {case}");
            assert_eq!(orig[0], proj[1], "case {case}");
        }
    });
}

#[test]
fn cross_product_cardinality() {
    for_cases(0xC055_0001, |case, r| {
        let a = gen_relation(r, 1, 12);
        let b = gen_relation(r, 2, 12);
        let c = ops::cross(&a, &b, "r").unwrap();
        assert_eq!(c.len(), a.len() * b.len(), "case {case}");
        assert_eq!(c.arity(), 3, "case {case}");
    });
}

#[test]
fn equi_join_subset_of_cross() {
    for_cases(0xE0_1015, |case, r| {
        let a = gen_relation(r, 2, 15);
        let b = gen_relation(r, 2, 15);
        let j = ops::equi_join(&a, &b, &[("c0", "c0")], "r").unwrap();
        for row in j.rows() {
            // Join key matched (left c0 == right c0 at position 2).
            assert_eq!(row[0], row[2], "case {case}");
        }
        assert!(j.len() <= a.len() * b.len(), "case {case}");
    });
}

#[test]
fn parser_handles_arbitrary_in_lists() {
    let schema = Schema::new(["c0"]).unwrap();
    for_cases(0x1111_5751, |case, r| {
        let items: Vec<usize> = (0..1 + r.gen_range_u32(4))
            .map(|_| r.gen_range_u32(SYMS.len() as u32) as usize)
            .collect();
        let list: Vec<String> = items.iter().map(|&i| format!("\"{}\"", SYMS[i])).collect();
        let sql = format!("c0 in ({})", list.join(", "));
        let b = parse_expr(&sql).unwrap().bind(&schema).unwrap();
        for (i, s) in SYMS.iter().enumerate() {
            assert_eq!(
                b.eval_bool(&[Value::sym(s)], &NoContext).unwrap(),
                items.contains(&i),
                "case {case}: {sql} on {s}"
            );
        }
    });
}

#[test]
fn solver_modes_agree_on_random_specs() {
    // Two input columns over random sub-domains with a coupling
    // constraint, plus two or three output columns functionally
    // determined by `a`.
    const DOM: [&str; 4] = ["p", "q", "r", "s"];
    fn pick(r: &mut SplitMix64) -> &'static str {
        DOM[r.gen_range_u32(4) as usize]
    }
    fn sub_domain(r: &mut SplitMix64) -> Vec<Value> {
        let mut v: Vec<Value> = (0..1 + r.gen_range_u32(3))
            .map(|_| Value::sym(pick(r)))
            .collect();
        v.sort();
        v.dedup();
        v
    }
    let all: Vec<Value> = DOM.iter().map(|s| Value::sym(s)).collect();
    let ctx = SetContext::new();
    for_cases(0x5017_E255, |case, r| {
        let mut spec = TableSpec::new("t");
        spec.push(ColumnDef::input("a", sub_domain(r), Expr::True));
        let pin = pick(r);
        spec.push(ColumnDef::input(
            "b",
            sub_domain(r),
            parse_expr(&format!("a = \"{pin}\" ? b = \"{pin}\" : true")).unwrap(),
        ));
        for o in 0..2 + r.gen_range_u32(2) {
            let (x, y, z) = (pick(r), pick(r), pick(r));
            spec.push(ColumnDef::output(
                &format!("o{o}"),
                all.clone(),
                parse_expr(&format!("a = \"{x}\" ? o{o} = \"{y}\" : o{o} = \"{z}\"")).unwrap(),
            ));
        }
        let (mono, ms) = spec.generate(GenMode::Monolithic, &ctx).unwrap();
        let (inc, is) = spec.generate(GenMode::Incremental, &ctx).unwrap();
        assert!(mono.set_eq(&inc), "case {case}");
        // The monolithic walk inspects the whole cross product
        // |a|·|b|·4^k, which for k ≥ 2 outputs outgrows the incremental
        // walk's at most |a| + |a|·|b|·(1 + 4k) candidates.
        assert!(ms.candidates >= is.candidates, "case {case}");
    });
}
