//! End-to-end integration: the paper's complete flow across all crates
//! — specify → generate → statically debug → map to hardware → execute.

use ccsql_suite::core::depend::{protocol_dependency_table, AnalysisConfig};
use ccsql_suite::core::gen::GeneratedProtocol;
use ccsql_suite::core::hwmap::HwMapping;
use ccsql_suite::core::invariants;
use ccsql_suite::core::report::deadlock_report;
use ccsql_suite::core::vc::VcAssignment;
use ccsql_suite::protocol::topology::NodeId;
use ccsql_suite::sim::{CpuOp, Fig4, Mix, Outcome, Schedule, Sim, SimConfig, Workload};
use std::sync::OnceLock;

fn generated() -> &'static GeneratedProtocol {
    static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
    GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

#[test]
fn full_pipeline_generate_debug_map_execute() {
    let gen = generated();

    // 1. All eight tables generated; D matches the paper's shape.
    let d = gen.table("D").unwrap();
    assert_eq!(d.arity(), 30);
    assert!((430..=570).contains(&d.len()));

    // 2. Static debugging: all invariants hold, V2 is deadlock-free.
    let mut gen2 = GeneratedProtocol::generate_default().unwrap();
    let results = invariants::check_all(&mut gen2.db).unwrap();
    assert!(invariants::failures(&results).is_empty());
    let deps =
        protocol_dependency_table(gen, &VcAssignment::v2(), &AnalysisConfig::default()).unwrap();
    let rep = deadlock_report(gen, "V2", &deps);
    assert!(rep.cycles.is_empty());

    // 3. Hardware mapping preserves the debugged table.
    let mapping = HwMapping::build(gen).unwrap();
    assert_eq!(mapping.impl_tables.len(), 9);
    assert!(mapping.check(d).unwrap().ok());

    // 4. The debugged tables execute coherently.
    let cfg = SimConfig {
        quads: 2,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        schedule: Schedule::Random(7),
        max_steps: 2_000_000,
    };
    let nodes: Vec<NodeId> = (0..2)
        .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
        .collect();
    let wl = Workload::random(&nodes, 100, 8, Mix::default(), 7);
    let mut sim = Sim::new(gen, cfg, wl);
    let out = sim.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    sim.audit().unwrap();
}

#[test]
fn static_and_dynamic_deadlock_analyses_agree() {
    let gen = generated();
    // Static: V1 cyclic on {VC2, VC4}; V2 acyclic.
    let v1 =
        protocol_dependency_table(gen, &VcAssignment::v1(), &AnalysisConfig::default()).unwrap();
    let v1_rep = deadlock_report(gen, "V1", &v1);
    assert!(!v1_rep.cycles.is_empty());
    let v2 =
        protocol_dependency_table(gen, &VcAssignment::v2(), &AnalysisConfig::default()).unwrap();
    assert!(deadlock_report(gen, "V2", &v2).cycles.is_empty());

    // Dynamic: the same dichotomy, on the executing machine.
    let dyn_v1 = Fig4::default().replay(gen, false).unwrap();
    let Outcome::Deadlock(info) = dyn_v1 else {
        panic!("V1 machine must deadlock: {dyn_v1:?}");
    };
    // The dynamic cycle involves the statically-predicted channels.
    let static_channels: Vec<String> = v1_rep
        .cycles
        .iter()
        .flat_map(|c| c.channels.iter().map(|s| s.to_string()))
        .collect();
    for ch in &info.channels {
        assert!(
            static_channels.contains(ch),
            "dynamic channel {ch} not in static prediction {static_channels:?}"
        );
    }
    let dyn_v2 = Fig4::default().replay(gen, true).unwrap();
    assert!(matches!(dyn_v2, Outcome::Quiescent));
}

/// Deadlocking runs out of `runs` random schedules from the Figure-4
/// start state at VC capacity 1, with the shared VC4 (`V1`) or the
/// dedicated memory path (`V2`).
fn fig4_random_schedule_deadlocks(dedicated: bool, runs: u64) -> u64 {
    let fig = Fig4::default();
    let mut deadlocks = 0;
    for seed in 0..runs {
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 1,
            dedicated_mem_path: dedicated,
            schedule: Schedule::Random(seed),
            max_steps: 100_000,
        };
        // l1 evicts B (write back), l2 writes A (read exclusive).
        let mut per_node = vec![Vec::new(); 4];
        per_node[0] = vec![CpuOp::Evict(fig.b)];
        per_node[1] = vec![CpuOp::Write(fig.a)];
        let mut sim = Sim::new(generated(), cfg, Workload::scripted(per_node));
        sim.set_cache(fig.remote, fig.a, "M", 100);
        sim.set_dir(fig.a, "MESI", &[fig.remote]);
        sim.set_expected(fig.a, 100);
        sim.set_cache(fig.l1, fig.b, "M", 200);
        sim.set_dir(fig.b, "MESI", &[fig.l1]);
        sim.set_expected(fig.b, 200);
        if sim.run().unwrap().is_deadlock() {
            deadlocks += 1;
        }
    }
    deadlocks
}

#[test]
fn random_schedules_deadlock_v1_but_never_v2() {
    // Beyond the scripted replay: the Figure-4 race fires under some
    // random schedules with the shared VC4 and under none with the fix.
    let runs = 200;
    let v1 = fig4_random_schedule_deadlocks(false, runs);
    let v2 = fig4_random_schedule_deadlocks(true, runs);
    println!("E-SIM: V1 {v1}/{runs} schedules deadlock, V2 {v2}/{runs}");
    assert!(v1 > 0, "the V1 race must fire under some schedule");
    assert_eq!(v2, 0, "V2 must never deadlock");
}

#[test]
fn deterministic_simulation_for_fixed_seed() {
    let gen = generated();
    let run = || {
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 2,
            dedicated_mem_path: true,
            schedule: Schedule::Random(11),
            max_steps: 2_000_000,
        };
        let nodes: Vec<NodeId> = (0..2)
            .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
            .collect();
        let wl = Workload::random(&nodes, 80, 8, Mix::default(), 11);
        let mut sim = Sim::new(gen, cfg, wl);
        sim.run().unwrap();
        let s = sim.stats;
        (s.steps, s.issued, s.completed, s.retries, s.msgs)
    };
    assert_eq!(run(), run(), "same seed must give identical runs");
}

#[test]
fn sql_queries_span_generated_tables() {
    let mut gen = GeneratedProtocol::generate_default().unwrap();
    // Cross-table query: every snoop D can send has a handler row in R.
    let snoops = gen
        .db
        .query("select distinct remmsg from D where not remmsg = NULL")
        .unwrap();
    for row in snoops.rows() {
        let snoop = row[0].to_string();
        let handled = gen
            .db
            .query(&format!("select inmsg from R where inmsg = \"{snoop}\""))
            .unwrap();
        assert!(!handled.is_empty(), "snoop {snoop} unhandled by RAC");
    }
    // The paper's verbatim mutual-exclusion invariant.
    let witnesses = gen
        .db
        .query(r#"select dirst, bdirst from D where not dirst = "I" and not bdirst = "I""#)
        .unwrap();
    assert!(witnesses.is_empty());
}

#[test]
fn seeded_specification_bug_is_caught_by_the_pipeline() {
    use ccsql_suite::relalg::Value;
    // Corrupt the generated D (as a designer typo would) and verify the
    // static checks catch it before "implementation".
    let mut gen = GeneratedProtocol::generate_default().unwrap();
    let d = gen.db.table("D").unwrap().clone();
    let schema = d.schema();
    let mut bad = d.clone();
    let mut row = d.row(100).to_vec();
    // A request row that silently drops the retry on a busy line.
    row[schema.index_of_str("inmsg").unwrap()] = Value::sym("readex");
    row[schema.index_of_str("bdirst").unwrap()] = Value::sym("Busy-w-m");
    row[schema.index_of_str("locmsg").unwrap()] = Value::Null;
    bad.push_row(&row).unwrap();
    gen.db.put_table("D", bad);
    let results = invariants::check_all(&mut gen.db).unwrap();
    let failed = invariants::failures(&results);
    assert!(
        failed.contains(&"D-retry-on-busy"),
        "expected the serialisation invariant to fire, got {failed:?}"
    );
}
