//! System-level property tests: for seeded random seeds and workload
//! shapes, the debugged tables drive a machine that (with the fixed
//! channel assignment) always drains and always stays coherent. A past
//! failing case (seed 5709) is replayed by name.

use ccsql_suite::core::gen::GeneratedProtocol;
use ccsql_suite::obs::SplitMix64;
use ccsql_suite::protocol::topology::NodeId;
use ccsql_suite::sim::{Mix, Outcome, Schedule, Sim, SimConfig, Workload};
use std::sync::OnceLock;

fn generated() -> &'static GeneratedProtocol {
    static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
    GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

fn drains_coherently(seed: u64, quads: usize, write_pct: u32, addrs: u32) {
    let cfg = SimConfig {
        quads,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        schedule: Schedule::Random(seed),
        max_steps: 3_000_000,
    };
    let nodes: Vec<NodeId> = (0..quads)
        .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
        .collect();
    let mix = Mix {
        write: write_pct,
        evict: 10,
        flush: 5,
        io: 5,
    };
    let wl = Workload::random(&nodes, 60, addrs, mix, seed);
    let mut sim = Sim::new(generated(), cfg, wl);
    let out = sim.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "seed {seed}: {out:?}");
    sim.audit().unwrap();
}

// A random sweep once shrank a failing case of
// `any_seed_drains_coherently_with_the_fix` to `seed = 5709` (all other
// parameters at their minima). Replay it at the shrunk shape and across
// the parameter grid the sweep explores around it.
#[test]
fn regression_seed_5709_shrunk_case() {
    drains_coherently(5709, 1, 0, 2);
}

#[test]
fn regression_seed_5709_parameter_grid() {
    for quads in [1usize, 2] {
        for write_pct in [0u32, 30, 59] {
            for addrs in [2u32, 9] {
                drains_coherently(5709, quads, write_pct, addrs);
            }
        }
    }
}

/// The static analysis says V2's dependency graph is acyclic, so no
/// channel capacity can deadlock the machine — provided the structural
/// sizing rule holds (snoop buffers hold one slot per node in the quad,
/// so capacity 1 requires 1 node per quad).
fn capacity_one_drains(seed: u64) {
    let cfg = SimConfig {
        quads: 3,
        nodes_per_quad: 1,
        vc_capacity: 1,
        dedicated_mem_path: true,
        schedule: Schedule::Random(seed),
        max_steps: 3_000_000,
    };
    let nodes: Vec<NodeId> = (0..3).map(|q| NodeId::new(q, 0)).collect();
    let wl = Workload::random(&nodes, 40, 6, Mix::default(), seed);
    let mut sim = Sim::new(generated(), cfg, wl);
    let out = sim.run().unwrap();
    assert!(
        !out.is_deadlock(),
        "seed {seed}: statically-verified assignment deadlocked: {out:?}"
    );
    assert!(matches!(out, Outcome::Quiescent), "seed {seed}: {out:?}");
    sim.audit().unwrap();
}

#[test]
fn regression_seed_5709_capacity_one() {
    capacity_one_drains(5709);
}

// Each case runs a full simulation; keep the count moderate.
const CASES: u64 = 12;

#[test]
fn any_seed_drains_coherently_with_the_fix() {
    let mut r = SplitMix64::new(0x5EED_0001);
    for _ in 0..CASES {
        let seed = r.next_u64();
        let quads = 1 + r.gen_range_u64(2) as usize;
        let write_pct = r.gen_range_u32(60);
        let addrs = 2 + r.gen_range_u32(8);
        drains_coherently(seed, quads, write_pct, addrs);
    }
}

#[test]
fn capacity_one_is_still_deadlock_free_with_the_fix() {
    let mut r = SplitMix64::new(0x5EED_0002);
    for _ in 0..CASES {
        capacity_one_drains(r.next_u64());
    }
}
