//! Relations: a schema plus row-major flat storage.
//!
//! Rows are stored contiguously in one `Vec<Value>` (stride = arity),
//! which keeps scans cache-friendly and avoids one allocation per row —
//! the constraint solver materialises millions of candidate rows in the
//! monolithic mode the paper benchmarks against.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::Value;
use ccsql_obs::hash::{FxBuildHasher, FxHashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A borrowed view of one row.
pub type RowRef<'a> = &'a [Value];

/// A relation (table): schema + rows. Duplicate rows are allowed unless
/// removed with [`Relation::distinct`]; set-oriented operations in
/// [`crate::ops`] treat relations as multisets except where noted.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    data: Vec<Value>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            data: Vec::new(),
        }
    }

    /// Empty relation with the given column names.
    pub fn with_columns<I, S>(names: I) -> Result<Relation>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Ok(Relation::new(Schema::new(names)?))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.schema.arity() == 0 {
            0
        } else {
            self.data.len() / self.schema.arity()
        }
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Append a row. Errors if the arity does not match.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Append a row without arity checking (hot path; debug-asserts arity).
    pub fn push_row_unchecked(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.schema.arity());
        self.data.extend_from_slice(row);
    }

    /// Reserve capacity for `rows` additional rows.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows * self.schema.arity());
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        let a = self.schema.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterator over rows.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        let a = self.schema.arity().max(1);
        self.data.chunks_exact(a)
    }

    /// Cell access by row index and column name.
    pub fn get(&self, row: usize, col: &str) -> Option<Value> {
        let idx = self.schema.index_of_str(col)?;
        Some(self.row(row)[idx])
    }

    /// All values of one column, in row order.
    pub fn column_values(&self, col: &str) -> Result<Vec<Value>> {
        let idx = self
            .schema
            .index_of_str(col)
            .ok_or_else(|| Error::NoSuchColumn(col.to_string(), "column_values".into()))?;
        Ok(self.rows().map(|r| r[idx]).collect())
    }

    /// True if `row` occurs in this relation.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        row.len() == self.arity() && self.rows().any(|r| r == row)
    }

    /// Remove duplicate rows, preserving first-occurrence order.
    pub fn distinct(&self) -> Relation {
        let mut seen: FxHashSet<u64> =
            FxHashSet::with_capacity_and_hasher(self.len(), FxBuildHasher);
        // Hash-first dedup with collision verification against a stash of
        // representative indices (hash collisions across u64 keys are
        // unlikely but must not corrupt checker results).
        let mut reps: Vec<usize> = Vec::new();
        let mut out = Relation::new(self.schema.clone());
        for (i, r) in self.rows().enumerate() {
            let h = hash_row(r);
            if seen.insert(h) {
                reps.push(i);
                out.push_row_unchecked(r);
            } else if !reps.iter().any(|&j| self.row(j) == r) {
                // Same hash, different row: keep it.
                reps.push(i);
                out.push_row_unchecked(r);
            }
        }
        out
    }

    /// Sort rows lexicographically (deterministic reports / golden files).
    pub fn sorted(&self) -> Relation {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| self.row(a).cmp(self.row(b)));
        let mut out = Relation::new(self.schema.clone());
        out.reserve_rows(self.len());
        for i in idx {
            out.push_row_unchecked(self.row(i));
        }
        out
    }

    /// Set-equality: same schema, same set of rows (ignoring duplicates
    /// and order).
    pub fn set_eq(&self, other: &Relation) -> bool {
        if !self.schema.same_as(&other.schema) {
            return false;
        }
        let a = self.distinct().sorted();
        let b = other.distinct().sorted();
        a.data == b.data
    }

    /// True if every row of `self` occurs in `other` (set containment).
    pub fn subset_of(&self, other: &Relation) -> bool {
        if !self.schema.same_as(&other.schema) {
            return false;
        }
        let set: FxHashSet<Vec<Value>> = other.rows().map(|r| r.to_vec()).collect();
        self.rows().all(|r| set.contains(r))
    }

    /// Column index or error (convenience used across the crate).
    pub fn col_idx(&self, name: Sym, ctx: &str) -> Result<usize> {
        self.schema.require(name, ctx)
    }
}

/// Hash one row to a u64 (used for distinct/join buckets). Uses the
/// fast multiply-xor hasher: rows are trusted internal data, so
/// SipHash's DoS resistance would be pure overhead here.
pub(crate) fn hash_row(row: &[Value]) -> u64 {
    let mut h = ccsql_obs::hash::FxHasher::default();
    row.hash(&mut h);
    h.finish()
}

/// Hash selected columns of a row, element-wise with no length prefix:
/// the equi-join hashes its build and probe sides with it.
pub(crate) fn hash_cols(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = ccsql_obs::hash::FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

impl fmt::Debug for Relation {
    /// Bounded preview (first 20 rows) rather than megabytes of output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation {:?} ({} rows)", self.schema, self.len())?;
        for r in self.rows().take(20) {
            writeln!(f, "  {:?}", r)?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn rel2(rows: &[(&str, &str)]) -> Relation {
        let mut r = Relation::with_columns(["a", "b"]).unwrap();
        for (x, y) in rows {
            r.push_row(&[v(x), v(y)]).unwrap();
        }
        r
    }

    #[test]
    fn push_and_read_rows() {
        let r = rel2(&[("x", "y"), ("p", "q")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[v("p"), v("q")]);
        assert_eq!(r.get(0, "b"), Some(v("y")));
        assert_eq!(r.get(0, "nope"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::with_columns(["a", "b"]).unwrap();
        assert!(matches!(
            r.push_row(&[v("x")]),
            Err(Error::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn distinct_preserves_order_and_drops_dups() {
        let r = rel2(&[("x", "y"), ("p", "q"), ("x", "y")]);
        let d = r.distinct();
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(0), &[v("x"), v("y")]);
        assert_eq!(d.row(1), &[v("p"), v("q")]);
    }

    #[test]
    fn set_eq_ignores_order_and_multiplicity() {
        let a = rel2(&[("x", "y"), ("p", "q"), ("x", "y")]);
        let b = rel2(&[("p", "q"), ("x", "y")]);
        assert!(a.set_eq(&b));
        let c = rel2(&[("p", "q")]);
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn subset_of_works() {
        let a = rel2(&[("x", "y")]);
        let b = rel2(&[("x", "y"), ("p", "q")]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
    }

    #[test]
    fn sorted_is_lexicographic() {
        let r = rel2(&[("p", "q"), ("a", "z"), ("a", "b")]);
        let s = r.sorted();
        assert_eq!(s.row(0), &[v("a"), v("b")]);
        assert_eq!(s.row(1), &[v("a"), v("z")]);
        assert_eq!(s.row(2), &[v("p"), v("q")]);
    }

    #[test]
    fn column_values_and_contains() {
        let r = rel2(&[("x", "y"), ("p", "q")]);
        assert_eq!(r.column_values("a").unwrap(), vec![v("x"), v("p")]);
        assert!(r.column_values("zz").is_err());
        assert!(r.contains_row(&[v("p"), v("q")]));
        assert!(!r.contains_row(&[v("p"), v("z")]));
        assert!(!r.contains_row(&[v("p")]));
    }

    #[test]
    fn null_participates_in_distinct() {
        let mut r = Relation::with_columns(["a"]).unwrap();
        r.push_row(&[Value::Null]).unwrap();
        r.push_row(&[Value::Null]).unwrap();
        assert_eq!(r.distinct().len(), 1);
    }
}
