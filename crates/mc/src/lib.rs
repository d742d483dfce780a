//! # `ccsql-mc` — Murphi-style explicit-state model checker (baseline)
//!
//! The paper positions its SQL-based static analysis against formal
//! model checkers: "Model checkers based on formal approaches have a
//! lot of reasoning power and can detect such deadlocks. However, to
//! use these tools, the controller tables need to be extensively
//! abstracted to avoid the state explosion problem."
//!
//! This crate is that baseline: a heavily abstracted single-line model
//! of the same directory MESI protocol ([`model::Model`]) explored by
//! breadth-first search ([`explore::explore_with`]). `ccsql mc` shows the
//! exponential growth of its state space against the table-size-bounded
//! cost of the SQL analyses.

pub mod compact;
pub mod engine;
pub mod explore;
pub mod model;
pub mod spec;
pub mod spill;
pub mod state;

pub use compact::{canon, orbit_size, pack, unpack, Compact};
pub use engine::DEFAULT_SHARDS;
pub use explore::{explore_with, McOpts, McOutcome, McStats};
pub use model::Model;
pub use spec::{SpecMachine, SpecMcOpts, SpecMcOutcome, SpecMcStats, SpecSimReport, SpecVerdict};
pub use state::State;
