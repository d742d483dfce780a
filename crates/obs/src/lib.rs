//! # `ccsql-obs` — dependency-free observability
//!
//! The observability layer shared by every stage of the pipeline: the
//! solver (`ccsql-relalg`), lint and flows (`ccsql-lint`), dependency
//! analysis and cycle search (`ccsql`), the simulator (`ccsql-sim`) and
//! the model checker (`ccsql-mc`). It is deliberately **std-only** —
//! the build environment has no network access, so nothing here may
//! pull an external crate.
//!
//! * [`flight`] — the one recorder: a hierarchical span tree with
//!   stable ids, typed per-span args (every counter a stage reports
//!   about itself) and per-thread parent tracking. It is exported as
//!   Chrome trace-event / Perfetto JSON (`--trace-out FILE.json`) and
//!   folded into per-stage self times (`ccsql stats` and the
//!   benchmark). Off by default: a disabled span is one relaxed atomic
//!   load.
//! * [`heartbeat`] — a monotonic-clock ticker thread printing the
//!   recorder's most recently closed span, with its args, as a live
//!   stderr progress line (`--heartbeat[=MS]`); provably result-neutral
//!   (see the module docs).
//! * [`json`] — a hand-rolled JSON writer; no serde.
//! * [`mem`] — a resident-bytes gauge with a high-water mark, the
//!   out-of-core explorer's memory ledger.
//!
//! [`rng`] additionally provides the deterministic splitmix64 PRNG the
//! simulator uses for seeded workloads and scheduling, replacing the
//! external `rand` crate, and [`hash`] the `FxHash`-style fast hasher
//! (plus `FxHashMap`/`FxHashSet` aliases) used on the hot paths — the
//! model checker's visited set, the dependency-closure dedup maps and
//! the relational join buckets — where SipHash's DoS resistance is
//! pure overhead on trusted keys.

pub mod flight;
pub mod hash;
pub mod heartbeat;
pub mod json;
pub mod mem;
pub mod rng;

pub use flight::FieldValue;
pub use hash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mem::{MemGauge, MemLease};
pub use rng::SplitMix64;
