//! Columnar relation layout for the compiled solver path.
//!
//! [`crate::relation::Relation`] stores rows as one flat row-major
//! `Vec<Value>` — the right shape for reports and set algebra, the
//! wrong one for candidate filtering, where each extension step reads
//! every cell of a column across hundreds of thousands of candidates.
//! [`ColumnarRelation`] keeps one dense `Vec<u32>` of interned value
//! ids ([`Value::vid`]) **per column**: a [`crate::compile::Program`]
//! evaluating column `c` of candidate `i` is a single indexed word
//! load, no per-row `Vec<Value>` materialisation, and surviving rows
//! are gathered column-at-a-time into fresh columns — sequential reads
//! and writes on both sides.
//!
//! Conversions are exact: ids are injective, so
//! `from_relation(r).to_relation() == r` including row order, which is
//! what lets the solver do all intermediate work columnar and only
//! decode once at the end.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{vid_decode_table, Value};

/// A relation stored column-major as interned value ids.
#[derive(Clone, Debug)]
pub struct ColumnarRelation {
    schema: Schema,
    cols: Vec<Vec<u32>>,
}

impl ColumnarRelation {
    /// An empty relation with `schema.arity()` empty columns.
    pub fn new(schema: Schema) -> ColumnarRelation {
        let cols = (0..schema.arity()).map(|_| Vec::new()).collect();
        ColumnarRelation { schema, cols }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of rows (length of every column).
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `c` as a dense id slice.
    #[inline]
    pub fn col(&self, c: usize) -> &[u32] {
        &self.cols[c]
    }

    /// Mutable access to column `c` (bulk appends during extension).
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut Vec<u32> {
        &mut self.cols[c]
    }

    /// Intern every cell of `r` into the id pool, column by column.
    pub fn from_relation(r: &Relation) -> ColumnarRelation {
        let mut out = ColumnarRelation::new(r.schema().clone());
        for c in 0..r.arity() {
            out.cols[c].reserve(r.len());
        }
        for row in r.rows() {
            for (c, v) in row.iter().enumerate() {
                out.cols[c].push(v.vid());
            }
        }
        out
    }

    /// Decode back to a row-major [`Relation`], preserving row order.
    pub fn to_relation(&self) -> Relation {
        let decode = vid_decode_table();
        let mut out = Relation::new(self.schema.clone());
        out.reserve_rows(self.len());
        let mut row: Vec<Value> = vec![Value::Null; self.arity()];
        for i in 0..self.len() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = decode[self.cols[c][i] as usize];
            }
            out.push_row_unchecked(&row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut r = Relation::with_columns(["a", "b"]).unwrap();
        r.push_row(&[Value::sym("x"), Value::Null]).unwrap();
        r.push_row(&[Value::Int(7), Value::sym("y")]).unwrap();
        r.push_row(&[Value::sym("x"), Value::sym("x")]).unwrap();
        r
    }

    #[test]
    fn round_trip_preserves_rows_and_order() {
        let r = sample();
        let c = ColumnarRelation::from_relation(&r);
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        let back = c.to_relation();
        assert_eq!(back.len(), r.len());
        for (a, b) in r.rows().zip(back.rows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn columns_hold_interned_ids() {
        let c = ColumnarRelation::from_relation(&sample());
        assert_eq!(c.col(0)[0], Value::sym("x").vid());
        assert_eq!(c.col(0)[2], c.col(1)[2], "same value, same id");
        assert_eq!(c.col(1)[0], crate::value::NULL_VID);
    }

    #[test]
    fn empty_relation_round_trips() {
        let r = Relation::with_columns(["a"]).unwrap();
        let c = ColumnarRelation::from_relation(&r);
        assert!(c.is_empty());
        assert_eq!(c.to_relation().len(), 0);
    }
}
