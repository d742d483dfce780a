//! System-level tests of the observability surface: the simulator's
//! counters and step log must be a pure function of the seeded
//! configuration, and the disabled flight recorder must stay close to
//! free on the model checker's hot path.

use ccsql_suite::core::gen::GeneratedProtocol;
use ccsql_suite::mc::{explore_with, McOpts, McOutcome, Model};
use ccsql_suite::protocol::topology::NodeId;
use ccsql_suite::sim::{Mix, Outcome, Schedule, Sim, SimConfig, SimStats, Workload};
use std::sync::OnceLock;
use std::time::Instant;

fn generated() -> &'static GeneratedProtocol {
    static G: OnceLock<GeneratedProtocol> = OnceLock::new();
    G.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

/// Everything a seeded run reports about itself: its stats, its
/// spec-row coverage, its completed operations per kind and its step
/// log.
type RunReport = (
    SimStats,
    Vec<(&'static str, usize, usize)>,
    Vec<(&'static str, u64)>,
    Vec<String>,
);

fn run_seeded(seed: u64) -> RunReport {
    let cfg = SimConfig {
        quads: 2,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        schedule: Schedule::Random(seed),
        max_steps: 1_000_000,
    };
    let nodes: Vec<NodeId> = (0..2)
        .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
        .collect();
    let wl = Workload::random(&nodes, 60, 16, Mix::default(), seed);
    let mut sim = Sim::new(generated(), cfg, wl);
    sim.enable_trace_with_cap(256);
    let out = sim.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    let completed = sim
        .latency_report()
        .into_iter()
        .map(|(op, agg)| (op, agg.count))
        .collect();
    (sim.stats, sim.coverage_report(), completed, sim.trace())
}

#[test]
fn sim_counters_are_deterministic_across_identical_runs() {
    // Two runs with the same seed and configuration must report the
    // same counters, coverage and step log (none carries wall-clock):
    // the splitmix64 schedule/workload PRNG is the only randomness.
    let a = run_seeded(7);
    let b = run_seeded(7);
    assert!(a.0.steps > 0 && a.0.msgs > 0, "{:?}", a.0);
    assert!(a.1.iter().any(|&(_, hit, _)| hit > 0), "{:?}", a.1);
    assert!(!a.2.is_empty());
    assert!(!a.3.is_empty());
    assert_eq!(a, b);
    // And a different seed must actually change something.
    let c = run_seeded(8);
    assert_ne!(a, c);
}

#[test]
#[ignore = "timing test — run manually with `cargo test -- --ignored`"]
fn mc_disabled_observability_overhead_is_small() {
    // With the flight recorder off every span is one relaxed atomic
    // load, and the explorer opens spans per run and per BFS level,
    // never per state. The design target is ≤5% hot-loop overhead when
    // disabled; the assertion is relaxed to 25% because wall-clock
    // comparisons on shared machines are noisy.
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    let time_runs = |n: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t = Instant::now();
            let (out, _) = explore_with(
                &m,
                m.initial(),
                &McOpts {
                    budget: 10_000_000,
                    ..McOpts::default()
                },
            );
            assert_eq!(out, McOutcome::Verified);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    ccsql_suite::obs::flight::set_enabled(false);
    let disabled = time_runs(3);
    ccsql_suite::obs::flight::set_enabled(true);
    let enabled = time_runs(3);
    ccsql_suite::obs::flight::set_enabled(false);
    assert!(
        disabled <= enabled * 1.25,
        "disabled {disabled:.4}s vs enabled {enabled:.4}s"
    );
}
