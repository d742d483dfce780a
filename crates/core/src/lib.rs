//! # `ccsql` — table-driven design and early error detection for cache
//! coherence protocols
//!
//! This crate is the primary contribution of *Subramaniam, "Early Error
//! Detection in Industrial Strength Cache Coherence Protocols Using
//! SQL", IPPS 2003*, rebuilt as a Rust library on top of the
//! [`ccsql_relalg`] relational engine and the [`ccsql_protocol`]
//! ASURA-style protocol specification:
//!
//! * [`gen`] — push-button generation of all 8 controller tables from
//!   SQL column constraints (section 3);
//! * [`vc`] / [`depend`] / [`vcg`] — static deadlock detection: virtual
//!   channel assignments, controller dependency tables, pairwise
//!   composition under the five quad-placement relations and the
//!   message-ignoring relaxation, and cycle analysis of the virtual
//!   channel dependency graph (section 4.1, Figure 4);
//! * [`invariants`] — the ~50-invariant suite checked as SQL emptiness
//!   queries (section 4.3);
//! * [`hwmap`] / [`codegen`] — mapping the debugged directory table onto
//!   the split request/response hardware implementation, with the
//!   reconstruction check and report-generation emitters (section 5);
//! * [`report`] — Figure-4-style deadlock narratives.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ccsql::gen::GeneratedProtocol;
//! use ccsql::depend::{protocol_dependency_table, AnalysisConfig};
//! use ccsql::vc::VcAssignment;
//! use ccsql::vcg::Vcg;
//!
//! let gen = GeneratedProtocol::generate_default().unwrap();
//! let deps = protocol_dependency_table(
//!     &gen, &VcAssignment::v1(), &AnalysisConfig::default()).unwrap();
//! let vcg = Vcg::build(&deps);
//! for cycle in vcg.cycles() {
//!     println!("potential deadlock: {:?}", cycle.channels);
//! }
//! ```

pub mod codegen;
pub mod depend;
pub mod diff;
pub mod gen;
pub mod hwmap;
pub mod invariants;
pub mod liveness;
pub mod report;
pub mod vc;
pub mod vcg;
pub mod walker;

pub use depend::{protocol_dependency_table, AnalysisConfig, DependencyTable};
pub use gen::GeneratedProtocol;
pub use hwmap::HwMapping;
pub use report::{deadlock_report, DeadlockReport};
pub use vc::VcAssignment;
pub use vcg::Vcg;
