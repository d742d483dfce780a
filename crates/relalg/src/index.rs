//! Hash indexes over relations.
//!
//! The deadlock-analysis composition step probes "rows whose (source,
//! destination, channel) columns equal K" millions of times; a hash index
//! turns each probe into O(bucket).

use crate::error::Result;
use crate::relation::{hash_cols, Relation};
use crate::symbol::Sym;
use crate::value::Value;
use ccsql_obs::hash::{FxBuildHasher, FxHashMap};

/// A multi-column hash index: key columns → row indices.
pub struct Index {
    key_cols: Vec<usize>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

impl Index {
    /// Build an index over `cols` of `rel`.
    pub fn build(rel: &Relation, cols: &[&str]) -> Result<Index> {
        let key_cols: Vec<usize> = cols
            .iter()
            .map(|c| rel.schema().require(Sym::intern(c), "index"))
            .collect::<Result<_>>()?;
        let mut buckets: FxHashMap<u64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(rel.len(), FxBuildHasher);
        for (i, r) in rel.rows().enumerate() {
            buckets
                .entry(hash_cols(r, &key_cols))
                .or_default()
                .push(i as u32);
        }
        Ok(Index { key_cols, buckets })
    }

    /// Row indices of `rel` whose key columns equal `key` (exact check
    /// performed; hash collisions are filtered out).
    pub fn probe<'a>(
        &'a self,
        rel: &'a Relation,
        key: &'a [Value],
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(key.len(), self.key_cols.len());
        // Must hash exactly like `hash_cols` (element-wise FxHasher).
        let mut h = ccsql_obs::hash::FxHasher::default();
        use std::hash::{Hash, Hasher};
        for v in key {
            v.hash(&mut h);
        }
        let bucket = self.buckets.get(&h.finish());
        bucket
            .into_iter()
            .flatten()
            .map(|&i| i as usize)
            .filter(move |&i| {
                let row = rel.row(i);
                self.key_cols.iter().zip(key).all(|(&c, &k)| row[c] == k)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn sample() -> Relation {
        let mut r = Relation::with_columns(["m", "s", "d"]).unwrap();
        for (m, s, d) in [
            ("wb", "home", "home"),
            ("idone", "remote", "home"),
            ("mread", "home", "home"),
            ("compl", "home", "local"),
        ] {
            r.push_row(&[v(m), v(s), v(d)]).unwrap();
        }
        r
    }

    #[test]
    fn probe_finds_matching_rows() {
        let r = sample();
        let ix = Index::build(&r, &["s", "d"]).unwrap();
        let hits: Vec<usize> = ix.probe(&r, &[v("home"), v("home")]).collect();
        assert_eq!(hits, vec![0, 2]);
        let none: Vec<usize> = ix.probe(&r, &[v("local"), v("home")]).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn probe_verifies_exact_keys() {
        // Even if hashes collide, only exact key matches are returned.
        let r = sample();
        let ix = Index::build(&r, &["m"]).unwrap();
        let hits: Vec<usize> = ix.probe(&r, &[v("compl")]).collect();
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn unknown_column_errors() {
        let r = sample();
        assert!(Index::build(&r, &["nope"]).is_err());
    }
}
