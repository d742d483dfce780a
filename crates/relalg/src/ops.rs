//! Relational algebra over [`Relation`].
//!
//! These are the operations the paper's methodology relies on: selection,
//! projection, renaming, cross product, hash equi-join, union, difference
//! and distinct. They are pure functions producing new relations.

use crate::error::{Error, Result};
use crate::expr::{BoundExpr, EvalContext, Expr};
use crate::relation::{hash_cols, Relation};
use crate::symbol::Sym;
use crate::value::Value;
use ccsql_obs::hash::{FxBuildHasher, FxHashMap, FxHashSet};

/// σ — rows satisfying `pred`.
pub fn select(rel: &Relation, pred: &Expr, ctx: &dyn EvalContext) -> Result<Relation> {
    let bound = pred.bind(rel.schema())?;
    select_bound(rel, &bound, ctx)
}

/// σ with a pre-bound predicate (hot path for the solver).
pub fn select_bound(rel: &Relation, pred: &BoundExpr, ctx: &dyn EvalContext) -> Result<Relation> {
    let mut out = Relation::new(rel.schema().clone());
    for r in rel.rows() {
        if pred.eval_bool(r, ctx)? {
            out.push_row_unchecked(r);
        }
    }
    Ok(out)
}

/// π — projection onto named columns (repeats allowed).
pub fn project(rel: &Relation, cols: &[Sym]) -> Result<Relation> {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| rel.schema().require(*c, "project"))
        .collect::<Result<_>>()?;
    let schema = rel.schema().project(&idx)?;
    let mut out = Relation::new(schema);
    out.reserve_rows(rel.len());
    let mut buf: Vec<Value> = Vec::with_capacity(idx.len());
    for r in rel.rows() {
        buf.clear();
        buf.extend(idx.iter().map(|&i| r[i]));
        out.push_row_unchecked(&buf);
    }
    Ok(out)
}

/// π by string names.
pub fn project_str(rel: &Relation, cols: &[&str]) -> Result<Relation> {
    let syms: Vec<Sym> = cols.iter().map(|c| Sym::intern(c)).collect();
    project(rel, &syms)
}

/// ρ — rename a column.
pub fn rename(rel: &Relation, from: &str, to: &str) -> Result<Relation> {
    let schema = rel.schema().rename(Sym::intern(from), to)?;
    let mut out = Relation::new(schema);
    out.reserve_rows(rel.len());
    for r in rel.rows() {
        out.push_row_unchecked(r);
    }
    Ok(out)
}

/// × — cross product. Right-hand columns clashing with left names are
/// qualified as `prefix.col`.
pub fn cross(left: &Relation, right: &Relation, prefix: &str) -> Result<Relation> {
    let schema = left.schema().concat(right.schema(), prefix)?;
    let mut out = Relation::new(schema);
    out.reserve_rows(left.len() * right.len());
    let mut buf: Vec<Value> = Vec::with_capacity(left.arity() + right.arity());
    for l in left.rows() {
        for r in right.rows() {
            buf.clear();
            buf.extend_from_slice(l);
            buf.extend_from_slice(r);
            out.push_row_unchecked(&buf);
        }
    }
    Ok(out)
}

/// ⋈ — hash equi-join on pairs of (left column, right column).
///
/// The result schema is `left ++ right` with clashing right columns
/// qualified by `prefix`. Join keys from the right side are retained
/// (callers project afterwards if they want natural-join shape).
pub fn equi_join(
    left: &Relation,
    right: &Relation,
    on: &[(&str, &str)],
    prefix: &str,
) -> Result<Relation> {
    if on.is_empty() {
        return cross(left, right, prefix);
    }
    let lkeys: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema().require(Sym::intern(l), "join left"))
        .collect::<Result<_>>()?;
    let rkeys: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema().require(Sym::intern(r), "join right"))
        .collect::<Result<_>>()?;

    // Build side: the smaller relation (halves peak memory and build cost
    // when the inputs are lopsided, which the closure's candidate joins are).
    let schema = left.schema().concat(right.schema(), prefix)?;
    let mut out = Relation::new(schema);
    let mut buf: Vec<Value> = Vec::with_capacity(left.arity() + right.arity());

    let build_left = left.len() < right.len();
    let (build, bkeys, probe, pkeys) = if build_left {
        (left, &lkeys, right, &rkeys)
    } else {
        (right, &rkeys, left, &lkeys)
    };
    let mut table: FxHashMap<u64, Vec<usize>> =
        FxHashMap::with_capacity_and_hasher(build.len(), FxBuildHasher);
    for (i, r) in build.rows().enumerate() {
        table.entry(hash_cols(r, bkeys)).or_default().push(i);
    }
    if build_left {
        // The index is on the left, so the probe loop runs right-major.
        // Collect matches per left row and emit them left-major afterwards
        // so output order is independent of which side was indexed
        // (ascending left index, then ascending right index — the same
        // order the right-indexed branch below produces).
        let mut matched: Vec<Vec<usize>> = vec![Vec::new(); left.len()];
        for (pi, p) in probe.rows().enumerate() {
            let h = hash_cols(p, pkeys);
            if let Some(cands) = table.get(&h) {
                for &bi in cands {
                    let b = build.row(bi);
                    if bkeys
                        .iter()
                        .zip(pkeys.iter())
                        .all(|(&bk, &pk)| b[bk] == p[pk])
                    {
                        matched[bi].push(pi);
                    }
                }
            }
        }
        for (li, ris) in matched.iter().enumerate() {
            if ris.is_empty() {
                continue;
            }
            let l = left.row(li);
            for &ri in ris {
                buf.clear();
                buf.extend_from_slice(l);
                buf.extend_from_slice(right.row(ri));
                out.push_row_unchecked(&buf);
            }
        }
    } else {
        for p in probe.rows() {
            let h = hash_cols(p, pkeys);
            if let Some(cands) = table.get(&h) {
                for &bi in cands {
                    let b = build.row(bi);
                    if bkeys
                        .iter()
                        .zip(pkeys.iter())
                        .all(|(&bk, &pk)| b[bk] == p[pk])
                    {
                        buf.clear();
                        buf.extend_from_slice(p);
                        buf.extend_from_slice(b);
                        out.push_row_unchecked(&buf);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// ∪ — multiset union (schemas must match by name & order).
pub fn union(a: &Relation, b: &Relation) -> Result<Relation> {
    if !a.schema().same_as(b.schema()) {
        return Err(Error::SchemaMismatch(format!(
            "union: {:?} vs {:?}",
            a.schema(),
            b.schema()
        )));
    }
    let mut out = Relation::new(a.schema().clone());
    out.reserve_rows(a.len() + b.len());
    for r in a.rows() {
        out.push_row_unchecked(r);
    }
    for r in b.rows() {
        out.push_row_unchecked(r);
    }
    Ok(out)
}

/// − — set difference (rows of `a` not occurring in `b`).
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation> {
    if !a.schema().same_as(b.schema()) {
        return Err(Error::SchemaMismatch(format!(
            "difference: {:?} vs {:?}",
            a.schema(),
            b.schema()
        )));
    }
    let bset: FxHashSet<Vec<Value>> = b.rows().map(|r| r.to_vec()).collect();
    let mut out = Relation::new(a.schema().clone());
    for r in a.rows() {
        if !bset.contains(r) {
            out.push_row_unchecked(r);
        }
    }
    Ok(out)
}

/// ∩ — set intersection.
pub fn intersect(a: &Relation, b: &Relation) -> Result<Relation> {
    if !a.schema().same_as(b.schema()) {
        return Err(Error::SchemaMismatch(format!(
            "intersect: {:?} vs {:?}",
            a.schema(),
            b.schema()
        )));
    }
    let bset: FxHashSet<Vec<Value>> = b.rows().map(|r| r.to_vec()).collect();
    let mut out = Relation::new(a.schema().clone());
    for r in a.rows() {
        if bset.contains(r) {
            out.push_row_unchecked(r);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::NoContext;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn mk(cols: &[&str], rows: &[&[&str]]) -> Relation {
        let mut r = Relation::with_columns(cols.iter().copied()).unwrap();
        for row in rows {
            let vals: Vec<Value> = row.iter().map(|s| v(s)).collect();
            r.push_row(&vals).unwrap();
        }
        r
    }

    #[test]
    fn select_filters() {
        let r = mk(&["m", "s"], &[&["readex", "local"], &["data", "home"]]);
        let out = select(&r, &Expr::col_eq("s", "home"), &NoContext).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[v("data"), v("home")]);
    }

    #[test]
    fn project_reorders_and_repeats() {
        let r = mk(&["a", "b"], &[&["1", "2"]]);
        let out = project_str(&r, &["b", "a", "b"]).unwrap();
        assert_eq!(out.row(0), &[v("2"), v("1"), v("2")]);
        assert_eq!(out.schema().columns()[2].as_str(), "b#1");
    }

    #[test]
    fn project_unknown_column_errors() {
        let r = mk(&["a"], &[&["1"]]);
        assert!(project_str(&r, &["zz"]).is_err());
    }

    #[test]
    fn cross_product_sizes_and_qualification() {
        let a = mk(&["x"], &[&["1"], &["2"]]);
        let b = mk(&["x", "y"], &[&["p", "q"], &["r", "s"], &["t", "u"]]);
        let c = cross(&a, &b, "b").unwrap();
        assert_eq!(c.len(), 6);
        let names: Vec<&str> = c.schema().columns().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["x", "b.x", "y"]);
    }

    #[test]
    fn equi_join_matches_keys() {
        let a = mk(
            &["m", "d"],
            &[&["wb", "home"], &["readex", "home"], &["q", "rem"]],
        );
        let b = mk(&["src", "m2"], &[&["home", "compl"], &["home", "mread"]]);
        let j = equi_join(&a, &b, &[("d", "src")], "r").unwrap();
        // Both "home" rows of a join both rows of b: 2*2 = 4.
        assert_eq!(j.len(), 4);
        assert!(j.rows().all(|r| r[1] == v("home") && r[2] == v("home")));
    }

    #[test]
    fn equi_join_smaller_left_build_keeps_schema_order() {
        let a = mk(&["m", "d"], &[&["wb", "home"]]);
        let b = mk(
            &["src", "m2"],
            &[&["home", "compl"], &["home", "mread"], &["rem", "x"]],
        );
        let j = equi_join(&a, &b, &[("d", "src")], "r").unwrap();
        // Index is built on `a` (smaller), but rows stay `left ++ right`.
        assert_eq!(j.len(), 2);
        assert!(j
            .rows()
            .all(|r| r[0] == v("wb") && r[1] == v("home") && r[2] == v("home")));
        let names: Vec<&str> = j.schema().columns().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["m", "d", "src", "m2"]);
    }

    #[test]
    fn equi_join_output_order_is_left_major_for_either_build_side() {
        // Output order must be ascending left row, then ascending right
        // row, no matter which side the hash index is built on.
        let small = mk(&["m", "d"], &[&["a", "k1"], &["b", "k2"]]);
        let big = mk(
            &["src", "m2"],
            &[&["k2", "x"], &["k1", "y"], &["k1", "z"], &["k2", "w"]],
        );
        // Left is smaller → index built on the left side.
        let j = equi_join(&small, &big, &[("d", "src")], "r").unwrap();
        let got: Vec<(Value, Value)> = j.rows().map(|r| (r[0], r[3])).collect();
        assert_eq!(
            got,
            vec![
                (v("a"), v("y")),
                (v("a"), v("z")),
                (v("b"), v("x")),
                (v("b"), v("w")),
            ]
        );
        // Right is smaller → index built on the right side; same order rule.
        let j2 = equi_join(&big, &small, &[("src", "d")], "r").unwrap();
        let got2: Vec<(Value, Value)> = j2.rows().map(|r| (r[0], r[2])).collect();
        assert_eq!(
            got2,
            vec![
                (v("k2"), v("b")),
                (v("k1"), v("a")),
                (v("k1"), v("a")),
                (v("k2"), v("b")),
            ]
        );
    }

    #[test]
    fn equi_join_empty_on_falls_back_to_cross() {
        let a = mk(&["x"], &[&["1"]]);
        let b = mk(&["y"], &[&["2"], &["3"]]);
        assert_eq!(equi_join(&a, &b, &[], "b").unwrap().len(), 2);
    }

    #[test]
    fn union_difference_intersect() {
        let a = mk(&["x"], &[&["1"], &["2"]]);
        let b = mk(&["x"], &[&["2"], &["3"]]);
        assert_eq!(union(&a, &b).unwrap().len(), 4);
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0), &[v("1")]);
        let i = intersect(&a, &b).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.row(0), &[v("2")]);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = mk(&["x"], &[&["1"]]);
        let b = mk(&["y"], &[&["1"]]);
        assert!(union(&a, &b).is_err());
        assert!(difference(&a, &b).is_err());
        assert!(intersect(&a, &b).is_err());
    }

    #[test]
    fn rename_column() {
        let a = mk(&["x", "y"], &[&["1", "2"]]);
        let r = rename(&a, "y", "z").unwrap();
        assert_eq!(r.schema().index_of_str("z"), Some(1));
        assert_eq!(r.row(0), &[v("1"), v("2")]);
    }
}
