//! # `ccsql-obs` — dependency-free tracing and metrics
//!
//! The observability layer shared by every stage of the pipeline:
//! solver ([`ccsql-relalg`]), dependency analysis and cycle search
//! ([`ccsql`]), the simulator ([`ccsql-sim`]) and the model checker
//! ([`ccsql-mc`]). It is deliberately **std-only** — the build
//! environment has no network access, so nothing here may pull an
//! external crate.
//!
//! Three pieces:
//!
//! * [`metrics`] — a registry of counters, gauges and log-scale
//!   histograms (p50/p90/p99 export). Stages record end-of-run
//!   aggregates, so the hot loops pay only a relaxed atomic load when
//!   observability is disabled (the default).
//! * [`trace`] — typed events with `key=value` fields in a bounded
//!   ring buffer (overflow increments a dropped-events counter rather
//!   than growing without limit).
//! * [`json`] — a hand-rolled JSON writer and the JSONL exporter
//!   (`--metrics=out.jsonl` in the CLI); no serde.
//!
//! Two more on top of those (the flight recorder, PR 6):
//!
//! * [`flight`] — a hierarchical span tree with stable ids, per-span
//!   counters and per-thread parent tracking, exported as Chrome
//!   trace-event / Perfetto JSON (`--trace-out FILE.json`).
//! * [`heartbeat`] — a monotonic-clock ticker thread emitting live
//!   stderr progress lines and ring records for long `mc`/`fuzz`/solve
//!   runs (`--heartbeat[=MS]`); provably result-neutral (see the module
//!   docs).
//!
//! [`rng`] additionally provides the deterministic splitmix64 PRNG the
//! simulator uses for seeded workloads and scheduling, replacing the
//! external `rand` crate, and [`hash`] the `FxHash`-style fast hasher
//! (plus `FxHashMap`/`FxHashSet` aliases) used on the hot paths — the
//! model checker's visited set, the dependency-closure dedup maps and
//! the relational join buckets — where SipHash's DoS resistance is
//! pure overhead on trusted keys.
//!
//! ## Global state and enablement
//!
//! [`global()`] returns the process-wide registry and [`global_ring()`]
//! the process-wide event ring. Both are inert until [`set_enabled`]
//! (metrics) / [`set_trace_enabled`] (events) are flipped on — every
//! recording helper first checks a relaxed [`AtomicBool`], so with
//! observability off the overhead in a hot loop is a single predictable
//! branch.
//!
//! Metric names are stage-prefixed: `solver.rows_pruned`,
//! `depend.rows_composed`, `vcg.scc_max_size`, `sim.steps`,
//! `mc.states_per_sec`, … (see DESIGN.md § Observability for the full
//! schema).

pub mod flight;
pub mod hash;
pub mod heartbeat;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod rng;
pub mod trace;

pub use hash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use mem::{MemGauge, MemLease};
pub use metrics::{MetricValue, Registry, Snapshot};
pub use rng::SplitMix64;
pub use trace::{Event, FieldValue, Ring};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_CAP: AtomicUsize = AtomicUsize::new(trace::DEFAULT_RING_CAP);

/// Is metric recording into the global registry on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global metric recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is event tracing into the global ring on?
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn global event tracing on or off.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Capacity the global ring was (or will be) created with, and the cap
/// simulators should use for their local rings (`--trace=N`).
pub fn trace_cap() -> usize {
    TRACE_CAP.load(Ordering::Relaxed)
}

/// Set the preferred ring capacity. Only affects the global ring if
/// called before its first use.
pub fn set_trace_cap(cap: usize) {
    TRACE_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::new)
}

/// The process-wide event ring.
pub fn global_ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(trace_cap()))
}

/// Record `value` on the global counter `name` (no-op when disabled).
#[inline]
pub fn counter_add(name: &str, value: u64) {
    if enabled() {
        global().counter(name).add(value);
    }
}

/// Set the global gauge `name` (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        global().gauge(name).set(value);
    }
}

/// Record `value` into the global histogram `name` (no-op when
/// disabled).
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if enabled() {
        global().histogram(name).record(value);
    }
}

/// Push an event onto the global ring (no-op unless tracing is on).
#[inline]
pub fn emit(stage: &'static str, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if trace_enabled() {
        global_ring().push(stage, name, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_helpers_are_inert() {
        // Default state is disabled: nothing must land in the registry.
        set_enabled(false);
        counter_add("test.never", 7);
        histogram_record("test.never_us", 7);
        assert!(global()
            .snapshot()
            .metrics
            .iter()
            .all(|m| !m.name.starts_with("test.never")));
    }

    #[test]
    fn enabled_helpers_record() {
        set_enabled(true);
        counter_add("test.lib_counter", 3);
        counter_add("test.lib_counter", 4);
        gauge_set("test.lib_gauge", 2.5);
        let snap = global().snapshot();
        let c = snap.get("test.lib_counter").expect("counter present");
        assert_eq!(c, MetricValue::Counter(7));
        assert_eq!(snap.get("test.lib_gauge"), Some(MetricValue::Gauge(2.5)));
        set_enabled(false);
    }
}
