//! # `ccsql-suite` — facade crate
//!
//! Re-exports the whole reproduction of *Subramaniam, "Early Error
//! Detection in Industrial Strength Cache Coherence Protocols Using
//! SQL", IPPS 2003* so the repository-level examples and integration
//! tests can span every crate:
//!
//! * [`relalg`] — the from-scratch relational engine (tables, SQL
//!   subset, finite-domain constraint solver);
//! * [`protocol`] — the ASURA-style protocol: 8 controller
//!   specifications as column tables + column constraints;
//! * [`core`] — table generation, the SQL invariant suite, the
//!   virtual-channel deadlock analysis, and the hardware mapping;
//! * [`sim`] — the table-driven multiprocessor simulator;
//! * [`mc`] — the Murphi-style explicit-state model checker baseline;
//! * [`obs`] — the dependency-free observability layer shared by all
//!   of the above (see DESIGN.md § Observability).

pub use ccsql as core;
pub use ccsql_mc as mc;
pub use ccsql_obs as obs;
pub use ccsql_protocol as protocol;
pub use ccsql_relalg as relalg;
pub use ccsql_sim as sim;
