//! # `ccsql-relalg` — a from-scratch in-memory relational engine
//!
//! This crate is the substrate that plays the role Oracle 8 played in
//! *Subramaniam, "Early Error Detection in Industrial Strength Cache
//! Coherence Protocols Using SQL", IPPS 2003*: a relational database with
//!
//! * named tables of interned, typed values ([`Relation`], [`Database`]),
//! * the relational algebra the paper relies on — selection, projection,
//!   cross product, equi-join, union, difference, distinct ([`ops`]),
//! * a parser for the SQL subset and the ternary *column constraint*
//!   expressions the paper writes its specifications in ([`parse_query`],
//!   [`parse_expr`]),
//! * the finite-domain **constraint solver** that turns column tables +
//!   column constraints into controller tables, in both the monolithic
//!   (full cross product) and incremental (column-at-a-time) modes the
//!   paper measures ([`solver`]),
//! * and plain-text / CSV / markdown report generation ([`report`]).
//!
//! ## NULL semantics
//!
//! Unlike ANSI SQL, the paper uses `NULL` as an ordinary *marker value*: a
//! don't-care on input columns and a no-op on output columns. Accordingly
//! [`Value::Null`] compares equal to itself and participates in joins and
//! `DISTINCT` like any other value.
//!
//! ## Quick example
//!
//! ```
//! use ccsql_relalg::{Database, Value};
//!
//! let mut db = Database::new();
//! db.create_table("v", &["m", "s", "d", "vc"]).unwrap();
//! db.insert("v", &[Value::sym("readex"), Value::sym("local"),
//!                  Value::sym("home"), Value::sym("VC0")]).unwrap();
//! let r = db.query("select m, vc from v where s = \"local\"").unwrap();
//! assert_eq!(r.len(), 1);
//! ```

pub mod columnar;
pub mod compile;
pub mod error;
pub mod expr;
pub mod ops;
pub mod parser;
pub mod relation;
pub mod report;
pub mod schema;
pub mod solver;
pub mod specfile;
pub mod symbol;
pub mod value;

mod engine;

pub use columnar::ColumnarRelation;
pub use compile::Program;
pub use engine::{Database, NamedSet};
pub use error::{Error, Result, Span};
pub use expr::{BoundExpr, EvalContext, Expr};
pub use parser::{parse_expr, parse_query, Query};
pub use relation::{Relation, RowRef};
pub use schema::Schema;
pub use solver::{ColumnDef, GenMode, GenOptions, GenStats, GenStep, TableSpec};
pub use specfile::{parse_specfile, SpecFile, SpecMeta};
pub use symbol::Sym;
pub use value::Value;
