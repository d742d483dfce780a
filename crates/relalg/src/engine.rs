//! The database: named tables, named sets (predicate functions like
//! `isrequest`), and SQL query execution.

use crate::error::{Error, Result};
use crate::expr::{EvalContext, Expr, SetContext};
use crate::parser::{parse_query, Projection, Query, SelectItem, TableRef};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::Value;
use std::collections::HashMap;

/// A named set of values, usable in expressions as `name(x)`.
pub type NamedSet = Vec<Value>;

/// An in-memory relational database.
///
/// Holds named [`Relation`]s and named sets, executes the SQL subset of
/// [`crate::parser`], and exposes the emptiness checks the paper's
/// invariants are written as (`[Select …] = empty`).
#[derive(Default)]
pub struct Database {
    tables: HashMap<Sym, Relation>,
    sets: SetContext,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Empty database whose expressions see the named sets of `sets`
    /// (usable as `name(x)`).
    pub fn with_sets(sets: SetContext) -> Database {
        Database {
            tables: HashMap::new(),
            sets,
        }
    }

    /// Create an empty table with the given columns.
    pub fn create_table<I, S>(&mut self, name: &str, cols: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let sym = Sym::intern(name);
        if self.tables.contains_key(&sym) {
            return Err(Error::TableExists(name.to_string()));
        }
        self.tables.insert(sym, Relation::new(Schema::new(cols)?));
        Ok(())
    }

    /// Register (or replace) a relation under `name`.
    pub fn put_table(&mut self, name: &str, rel: Relation) {
        self.tables.insert(Sym::intern(name), rel);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(&Sym::intern(name))
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// Insert one row into `name`.
    pub fn insert(&mut self, name: &str, row: &[Value]) -> Result<()> {
        let sym = Sym::intern(name);
        let rel = self
            .tables
            .get_mut(&sym)
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))?;
        rel.push_row(row)
    }

    /// The evaluation context (named sets) of this database.
    pub fn context(&self) -> &dyn EvalContext {
        &self.sets
    }

    /// Parse and execute a query. `CREATE TABLE … AS` stores and also
    /// returns the result.
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        let q = parse_query(sql)?;
        self.execute(&q)
    }

    /// Execute a parsed query.
    pub fn execute(&mut self, q: &Query) -> Result<Relation> {
        match q {
            Query::Select {
                distinct,
                projection,
                from,
                predicate,
                order_by,
            } => {
                let count = matches!(projection, Projection::CountStar);
                let items = match projection {
                    Projection::Star | Projection::CountStar => None,
                    Projection::Columns(items) | Projection::GroupCount(items) => {
                        Some(items.as_slice())
                    }
                };
                let mut rel = self.execute_select(items, from, predicate.as_ref())?;
                if *distinct {
                    rel = rel.distinct();
                }
                if count {
                    // COUNT(*): a single-cell relation named `count`.
                    let mut out = Relation::with_columns(["count"])?;
                    out.push_row(&[Value::Int(rel.len() as i64)])?;
                    return Ok(out);
                }
                if matches!(projection, Projection::GroupCount(_)) {
                    rel = group_count(&rel)?;
                }
                if !order_by.is_empty() {
                    rel = order_rows(&rel, order_by)?;
                }
                Ok(rel)
            }
            Query::CreateTableAs { name, query } => {
                let rel = self.execute(query)?;
                self.tables.insert(*name, rel.clone());
                Ok(rel)
            }
            Query::Insert { table, values } => {
                let rel = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| Error::NoSuchTable(table.to_string()))?;
                rel.push_row(values)?;
                // Return the inserted row, SQL-RETURNING style.
                let mut out = Relation::new(rel.schema().clone());
                out.push_row(values)?;
                Ok(out)
            }
            Query::Delete { table, predicate } => {
                let rel = self
                    .tables
                    .get(table)
                    .ok_or_else(|| Error::NoSuchTable(table.to_string()))?;
                let (kept, deleted) = match predicate {
                    None => (Relation::new(rel.schema().clone()), rel.clone()),
                    Some(p) => {
                        let bound = p.bind(rel.schema())?;
                        let mut kept = Relation::new(rel.schema().clone());
                        let mut deleted = Relation::new(rel.schema().clone());
                        for r in rel.rows() {
                            if bound.eval_bool(r, &self.sets)? {
                                deleted.push_row_unchecked(r);
                            } else {
                                kept.push_row_unchecked(r);
                            }
                        }
                        (kept, deleted)
                    }
                };
                self.tables.insert(*table, kept);
                Ok(deleted)
            }
        }
    }

    /// The paper's invariant form: `[Select …] = empty`. Returns `Ok(rel)`
    /// where callers treat a non-empty `rel` as the violation witness.
    pub fn check_empty(&mut self, sql: &str) -> Result<Relation> {
        self.query(sql)
    }

    fn execute_select(
        &self,
        items: Option<&[SelectItem]>,
        from: &[TableRef],
        predicate: Option<&Expr>,
    ) -> Result<Relation> {
        if from.is_empty() {
            return Err(Error::SchemaMismatch("FROM list is empty".into()));
        }
        // Resolve FROM tables.
        let mut rels: Vec<&Relation> = Vec::with_capacity(from.len());
        for tr in from {
            rels.push(
                self.tables
                    .get(&tr.table)
                    .ok_or_else(|| Error::NoSuchTable(tr.table.to_string()))?,
            );
        }

        // Combined column space: (alias, column) pairs in table order with
        // running offsets into the concatenated row.
        struct ColInfo {
            alias: Sym,
            name: Sym,
            offset: usize,
        }
        let mut cols: Vec<ColInfo> = Vec::new();
        let mut offset = 0;
        for (ti, tr) in from.iter().enumerate() {
            for (ci, &c) in rels[ti].schema().columns().iter().enumerate() {
                cols.push(ColInfo {
                    alias: tr.alias,
                    name: c,
                    offset: offset + ci,
                });
            }
            offset += rels[ti].arity();
        }
        let total_arity = offset;

        // Name resolution: "col" (must be unambiguous) or "alias.col".
        let resolve_name = |name: Sym| -> Result<Option<usize>> {
            let s = name.as_str();
            if let Some(dot) = s.find('.') {
                let (a, c) = (Sym::intern(&s[..dot]), Sym::intern(&s[dot + 1..]));
                let hits: Vec<usize> = cols
                    .iter()
                    .filter(|ci| ci.alias == a && ci.name == c)
                    .map(|ci| ci.offset)
                    .collect();
                return match hits.len() {
                    0 => Ok(None),
                    1 => Ok(Some(hits[0])),
                    _ => Err(Error::AmbiguousColumn(s.to_string())),
                };
            }
            let hits: Vec<usize> = cols
                .iter()
                .filter(|ci| ci.name == name)
                .map(|ci| ci.offset)
                .collect();
            match hits.len() {
                0 => Ok(None),
                1 => Ok(Some(hits[0])),
                _ => Err(Error::AmbiguousColumn(s.to_string())),
            }
        };

        // Bind predicate against the combined space.
        let bound = match predicate {
            Some(e) => Some(e.bind_with(&mut |n| resolve_name(n))?),
            None => None,
        };

        // Output columns.
        let out_indices: Vec<usize>;
        let out_names: Vec<String>;
        match items {
            None => {
                out_indices = (0..total_arity).collect();
                // Qualify duplicated names so the output schema is valid.
                let mut name_counts: HashMap<Sym, usize> = HashMap::new();
                for ci in &cols {
                    *name_counts.entry(ci.name).or_insert(0) += 1;
                }
                out_names = cols
                    .iter()
                    .map(|ci| {
                        if name_counts[&ci.name] > 1 {
                            format!("{}.{}", ci.alias, ci.name)
                        } else {
                            ci.name.to_string()
                        }
                    })
                    .collect();
            }
            Some(list) => {
                let mut idx = Vec::with_capacity(list.len());
                let mut names = Vec::with_capacity(list.len());
                for it in list {
                    let lookup = match it.qualifier {
                        Some(q) => Sym::intern(&format!("{}.{}", q, it.column)),
                        None => it.column,
                    };
                    match resolve_name(lookup)? {
                        Some(off) => idx.push(off),
                        None => {
                            return Err(Error::NoSuchColumn(
                                lookup.to_string(),
                                "select list".to_string(),
                            ))
                        }
                    }
                    names.push(it.column.to_string());
                }
                // Dedup output names (repeat → name#k).
                let mut seen: HashMap<String, usize> = HashMap::new();
                out_names = names
                    .into_iter()
                    .map(|n| {
                        let k = seen.entry(n.clone()).or_insert(0);
                        let out = if *k == 0 {
                            n.clone()
                        } else {
                            format!("{n}#{k}")
                        };
                        *k += 1;
                        out
                    })
                    .collect();
                out_indices = idx;
            }
        }

        let mut out = Relation::new(Schema::new(out_names)?);

        // Nested-loop cross product with on-the-fly predicate evaluation
        // and projection: never materialises the full product.
        let mut combined: Vec<Value> = vec![Value::Null; total_arity];
        let mut proj: Vec<Value> = vec![Value::Null; out_indices.len()];
        let mut cursors = vec![0usize; from.len()];
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(out);
        }
        'outer: loop {
            // Assemble the combined row.
            let mut off = 0;
            for (ti, rel) in rels.iter().enumerate() {
                let row = rel.row(cursors[ti]);
                combined[off..off + row.len()].copy_from_slice(row);
                off += row.len();
            }
            let keep = match &bound {
                Some(p) => p.eval_bool(&combined, &self.sets)?,
                None => true,
            };
            if keep {
                for (k, &i) in out_indices.iter().enumerate() {
                    proj[k] = combined[i];
                }
                out.push_row_unchecked(&proj);
            }
            // Advance the odometer.
            let mut ti = from.len();
            loop {
                if ti == 0 {
                    break 'outer;
                }
                ti -= 1;
                cursors[ti] += 1;
                if cursors[ti] < rels[ti].len() {
                    break;
                }
                cursors[ti] = 0;
            }
        }
        Ok(out)
    }
}

/// Aggregate a projected relation into `(group columns…, count)` rows,
/// in first-occurrence group order.
fn group_count(rel: &Relation) -> Result<Relation> {
    let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for r in rel.rows() {
        let key = r.to_vec();
        match counts.get_mut(&key) {
            Some(c) => *c += 1,
            None => {
                counts.insert(key.clone(), 1);
                order.push(key);
            }
        }
    }
    let mut cols: Vec<String> = rel
        .schema()
        .columns()
        .iter()
        .map(|c| c.to_string())
        .collect();
    cols.push("count".to_string());
    let mut out = Relation::new(crate::Schema::new(cols)?);
    for key in order {
        let mut row = key.clone();
        row.push(Value::Int(counts[&key]));
        out.push_row_unchecked(&row);
    }
    Ok(out)
}

/// Sort a relation by `ORDER BY` keys (each with a descending flag).
fn order_rows(rel: &Relation, keys: &[(SelectItem, bool)]) -> Result<Relation> {
    let idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(item, desc)| {
            let name = match item.qualifier {
                Some(q) => Sym::intern(&format!("{}.{}", q, item.column)),
                None => item.column,
            };
            rel.schema()
                .index_of(name)
                .map(|i| (i, *desc))
                .ok_or_else(|| Error::NoSuchColumn(name.to_string(), "order by".to_string()))
        })
        .collect::<Result<_>>()?;
    let mut order: Vec<usize> = (0..rel.len()).collect();
    order.sort_by(|&a, &b| {
        for &(i, desc) in &idx {
            let cmp = rel.row(a)[i].cmp(&rel.row(b)[i]);
            let cmp = if desc { cmp.reverse() } else { cmp };
            if cmp != std::cmp::Ordering::Equal {
                return cmp;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = Relation::new(rel.schema().clone());
    out.reserve_rows(rel.len());
    for i in order {
        out.push_row_unchecked(rel.row(i));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table("D", ["inmsg", "dirst", "dirpv"]).unwrap();
        for (m, s, p) in [
            ("readex", "SI", "one"),
            ("readex", "I", "zero"),
            ("data", "Busy-d", "zero"),
            ("idone", "Busy-s", "one"),
        ] {
            db.insert("D", &[v(m), v(s), v(p)]).unwrap();
        }
        db
    }

    #[test]
    fn simple_select_where() {
        let mut db = sample_db();
        let r = db
            .query(r#"select inmsg, dirpv from D where dirst = "SI""#)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[v("readex"), v("one")]);
    }

    #[test]
    fn select_star() {
        let mut db = sample_db();
        let r = db.query("select * from D").unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.arity(), 3);
    }

    #[test]
    fn select_without_where_keeps_all() {
        let mut db = sample_db();
        let r = db.query("select inmsg from D").unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn distinct_dedups() {
        let mut db = sample_db();
        db.insert("D", &[v("readex"), v("SI"), v("one")]).unwrap();
        let all = db
            .query("select inmsg from D where inmsg = readex")
            .unwrap();
        assert_eq!(all.len(), 3);
        let d = db
            .query("select distinct inmsg from D where inmsg = readex")
            .unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn self_join_with_aliases() {
        let mut db = sample_db();
        // Pairs of rows with the same presence-vector encoding.
        let r = db
            .query(
                "select d1.inmsg, d2.inmsg from D d1, D d2 \
                 where d1.dirpv = d2.dirpv and not d1.inmsg = d2.inmsg",
            )
            .unwrap();
        // zero: (readex/I, data/Busy-d) both directions; one: (readex/SI, idone) both.
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema().columns()[1].as_str(), "inmsg#1");
    }

    #[test]
    fn ambiguous_unqualified_column_errors() {
        let mut db = sample_db();
        let err = db
            .query("select inmsg from D d1, D d2 where dirst = SI")
            .unwrap_err();
        assert!(matches!(err, Error::AmbiguousColumn(_)));
    }

    #[test]
    fn create_table_as_stores_result() {
        let mut db = sample_db();
        db.query(r#"create table busy as select * from D where dirst = "Busy-d""#)
            .unwrap();
        assert_eq!(db.table("busy").unwrap().len(), 1);
        // And it is queryable.
        let r = db.query("select inmsg from busy").unwrap();
        assert_eq!(r.row(0), &[v("data")]);
    }

    #[test]
    fn named_set_predicates_in_queries() {
        let mut sets = SetContext::new();
        sets.define("isrequest", [v("readex"), v("wb")]);
        let mut db = Database {
            sets,
            ..sample_db()
        };
        let r = db
            .query("select inmsg from D where isrequest(inmsg)")
            .unwrap();
        assert_eq!(r.len(), 2);
        let err = db
            .query("select inmsg from D where nosuch(inmsg)")
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchSet(_)));
    }

    #[test]
    fn empty_check_shape() {
        // The paper's invariant style: query must return the empty set.
        let mut db = sample_db();
        let r = db
            .check_empty(r#"select dirst, dirpv from D where dirst = "MESI" and not dirpv = one"#)
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn missing_table_and_column_errors() {
        let mut db = sample_db();
        assert!(matches!(
            db.query("select x from NOPE"),
            Err(Error::NoSuchTable(_))
        ));
        assert!(matches!(
            db.query("select nocol from D"),
            Err(Error::NoSuchColumn(..))
        ));
    }

    #[test]
    fn duplicate_create_rejected_but_put_replaces() {
        let mut db = sample_db();
        assert!(matches!(
            db.create_table("D", ["x"]),
            Err(Error::TableExists(_))
        ));
        let rel = Relation::with_columns(["x"]).unwrap();
        db.put_table("D", rel);
        assert_eq!(db.table("D").unwrap().arity(), 1);
    }

    #[test]
    fn cross_join_of_empty_table_is_empty() {
        let mut db = sample_db();
        db.create_table("E", ["q"]).unwrap();
        let r = db.query("select inmsg, q from D, E").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn qualified_column_in_predicate_of_single_table() {
        let mut db = sample_db();
        let r = db
            .query("select inmsg from D d where d.dirst = SI")
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn count_star() {
        let mut sets = SetContext::new();
        sets.define("isrequest", [v("readex")]);
        let mut db = Database {
            sets,
            ..sample_db()
        };
        let r = db
            .query("select count(*) from D where isrequest(inmsg)")
            .unwrap();
        assert_eq!(r.arity(), 1);
        assert_eq!(r.row(0)[0], Value::Int(2));
        let all = db.query("select count(*) from D").unwrap();
        assert_eq!(all.row(0)[0], Value::Int(4));
        let distinct = db
            .query("select distinct count(*) from D where inmsg = readex")
            .unwrap();
        assert_eq!(distinct.row(0)[0], Value::Int(2));
    }

    #[test]
    fn group_by_counts() {
        let mut db = sample_db();
        let r = db
            .query("select inmsg, count(*) from D group by inmsg order by count desc, inmsg")
            .unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.schema().columns()[1].as_str(), "count");
        // readex appears twice, data and idone once each.
        assert_eq!(r.row(0), &[v("readex"), Value::Int(2)]);
        assert_eq!(r.len(), 3);
        // Group columns must match the GROUP BY list.
        assert!(db
            .query("select inmsg, count(*) from D group by dirst")
            .is_err());
        // GROUP BY required with a mixed projection.
        assert!(db.query("select inmsg, count(*) from D").is_err());
        // Multi-column grouping.
        let r = db
            .query("select inmsg, dirst, count(*) from D group by inmsg, dirst")
            .unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.rows().all(|row| row[2] == Value::Int(1)));
    }

    #[test]
    fn order_by_sorts() {
        let mut db = sample_db();
        let r = db
            .query("select inmsg, dirst from D order by inmsg")
            .unwrap();
        let col: Vec<String> = r.rows().map(|row| row[0].to_string()).collect();
        let mut sorted = col.clone();
        sorted.sort();
        assert_eq!(col, sorted);
        let r = db.query("select inmsg from D order by inmsg desc").unwrap();
        assert_eq!(r.row(0)[0], v("readex"));
        // Multi-key with mixed direction.
        let r = db
            .query("select inmsg, dirst from D order by inmsg asc, dirst desc")
            .unwrap();
        assert_eq!(r.len(), 4);
        // Unknown key errors.
        assert!(db.query("select inmsg from D order by zzz").is_err());
    }

    #[test]
    fn insert_and_delete() {
        let mut db = sample_db();
        let inserted = db
            .query(r#"insert into D values ("wb", "MESI", "one")"#)
            .unwrap();
        assert_eq!(inserted.len(), 1);
        assert_eq!(db.table("D").unwrap().len(), 5);
        let deleted = db.query(r#"delete from D where inmsg = "wb""#).unwrap();
        assert_eq!(deleted.len(), 1);
        assert_eq!(db.table("D").unwrap().len(), 4);
        // Delete everything.
        let deleted = db.query("delete from D").unwrap();
        assert_eq!(deleted.len(), 4);
        assert!(db.table("D").unwrap().is_empty());
        // Arity mismatch rejected.
        assert!(db.query(r#"insert into D values ("only-one")"#).is_err());
        assert!(db.query("delete from NOPE").is_err());
    }
}
