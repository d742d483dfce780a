//! Chaos-mode integration tests: the regression for the old
//! `expect("retry goes to the sender")` panic, the differential oracle
//! pinning zero-rate chaos to byte-identical behaviour (stats and step
//! log), the step log's bounded retention, coherence audits under 10%
//! fault rates, and the table-row coverage baseline for the paper
//! scenarios.

use ccsql::gen::GeneratedProtocol;
use ccsql_protocol::topology::NodeId;
use ccsql_sim::channel::VcId;
use ccsql_sim::msg::{Endpoint, SimMsg};
use ccsql_sim::{
    CpuOp, FaultPlan, FaultRates, Fig4, Mix, Outcome, Schedule, Sim, SimConfig, SimError, Workload,
};
use std::sync::OnceLock;

fn generated() -> &'static GeneratedProtocol {
    static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
    GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

fn nodes_of(quads: usize, per_quad: usize) -> Vec<NodeId> {
    (0..quads)
        .flat_map(|q| (0..per_quad).map(move |n| NodeId::new(q, n)))
        .collect()
}

fn random_sim(quads: usize, per_quad: usize, ops: usize, seed: u64) -> Sim {
    let cfg = SimConfig {
        quads,
        nodes_per_quad: per_quad,
        vc_capacity: per_quad.max(2),
        dedicated_mem_path: true,
        schedule: Schedule::Random(seed),
        max_steps: 2_000_000,
    };
    let nodes = nodes_of(quads, per_quad);
    let wl = Workload::random(&nodes, ops, 8, Mix::default(), seed);
    Sim::new(generated(), cfg, wl)
}

/// Build the machine one step short of the old panic: a directory with
/// a busy (snooping) transaction open, and a forged request on VC0 that
/// did not come from a node. The matching D row answers `retry`, which
/// needs a node sender.
fn sim_with_forged_retry_input() -> Sim {
    let cfg = SimConfig {
        quads: 1,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        schedule: Schedule::Fixed,
        max_steps: 100_000,
    };
    let owner = NodeId::new(0, 1);
    let addr = 0;
    let mut per_node = vec![Vec::new(); 2];
    per_node[0] = vec![CpuOp::Write(addr)];
    let mut sim = Sim::new(generated(), cfg, Workload::scripted(per_node));
    sim.set_cache(owner, addr, "M", 7);
    sim.set_dir(addr, "MESI", &[owner]);
    sim.set_expected(addr, 7);
    // Node 0 issues readex(addr); the directory snoops the owner and
    // opens a busy transaction, so any further request must be retried.
    assert!(sim.try_issue(0).unwrap().worked(), "readex must issue");
    assert!(sim.try_dir(0).unwrap().worked(), "directory must open busy");
    let forged = SimMsg::new("read", addr, Endpoint::Mem(0), Endpoint::Dir(0));
    sim.channels.send(0, VcId::Vc(0), forged);
    sim
}

/// Regression for the `expect("retry goes to the sender")` panic in
/// `engine.rs`: a retry row hit by a message with no node sender must
/// surface as a structured `SimError`, not a panic.
#[test]
fn retry_without_sender_is_a_structured_error() {
    let mut sim = sim_with_forged_retry_input();
    let err = match sim.try_dir(0) {
        Err(e) => e,
        Ok(_) => panic!("forged senderless request must not be processed"),
    };
    assert!(
        matches!(err, SimError::RetryWithoutSender { .. }),
        "expected RetryWithoutSender, got: {err}"
    );
    assert!(err.to_string().contains("no node sender"), "{err}");
}

/// The same forged message under chaos mode is discarded as a stray —
/// graceful degradation instead of failing the run.
#[test]
fn chaos_mode_discards_the_senderless_retry_as_a_stray() {
    let mut sim = sim_with_forged_retry_input();
    sim.enable_chaos(FaultPlan::quiet(1));
    assert!(sim.try_dir(0).unwrap().worked(), "stray must be consumed");
    assert_eq!(sim.stats.strays, 1);
    // The machine still drains and stays coherent.
    let out = sim.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    sim.audit().unwrap();
}

/// Differential oracle: chaos mode with every fault rate at zero must
/// be byte-identical to a plain run with the same workload seed —
/// identical stats and an identical event trace. Pinned across 3 seeds
/// and 2 topologies.
#[test]
fn zero_rate_chaos_is_byte_identical_to_a_plain_run() {
    for &(quads, per_quad) in &[(2usize, 2usize), (1, 2)] {
        for seed in [11u64, 12, 13] {
            let mut plain = random_sim(quads, per_quad, 60, seed);
            plain.enable_trace_with_cap(100_000);
            let plain_out = plain.run().unwrap();

            let mut chaos = random_sim(quads, per_quad, 60, seed);
            chaos.enable_trace_with_cap(100_000);
            chaos.enable_chaos(FaultPlan::quiet(seed ^ 0xdead_beef));
            let chaos_out = chaos.run().unwrap();

            assert_eq!(
                plain.stats, chaos.stats,
                "stats diverged at {quads}x{per_quad} seed {seed}"
            );
            assert_eq!(
                plain.trace(),
                chaos.trace(),
                "trace diverged at {quads}x{per_quad} seed {seed}"
            );
            assert!(
                matches!(plain_out, Outcome::Quiescent),
                "plain {quads}x{per_quad} seed {seed}: {plain_out:?}"
            );
            assert!(
                matches!(chaos_out, Outcome::Quiescent),
                "chaos {quads}x{per_quad} seed {seed}: {chaos_out:?}"
            );
            assert_eq!(chaos.stats.faults_injected, 0);
            plain.audit().unwrap();
            chaos.audit().unwrap();
        }
    }
}

/// The step log the oracle above compares is bounded: a small cap
/// retains exactly the newest lines of an uncapped run's log and counts
/// every eviction; a log that is off keeps nothing.
#[test]
fn step_log_keeps_the_newest_lines_and_counts_evictions() {
    let run = |cap: Option<usize>| {
        let mut sim = random_sim(2, 2, 60, 7);
        if let Some(cap) = cap {
            sim.enable_trace_with_cap(cap);
        }
        assert!(matches!(sim.run().unwrap(), Outcome::Quiescent));
        (sim.trace(), sim.trace_dropped())
    };
    let (all, dropped) = run(Some(100_000));
    assert_eq!(dropped, 0);
    assert!(all.len() > 4, "{all:?}");
    assert!(all[0].starts_with("sim."), "{all:?}");
    assert!(all[all.len() - 1].starts_with("sim.outcome kind=quiescent steps="));
    let (tail, dropped) = run(Some(4));
    assert_eq!(tail, all[all.len() - 4..]);
    assert_eq!(dropped, (all.len() - 4) as u64);
    assert_eq!(run(None), (Vec::new(), 0));
}

/// Chaos runs are reproducible: the same (workload seed, fault seed)
/// pair produces identical stats, fault counters, and traces.
#[test]
fn chaos_runs_are_reproducible_for_a_seed_pair() {
    let run = || {
        let mut sim = random_sim(2, 2, 60, 5);
        sim.enable_trace_with_cap(100_000);
        sim.enable_chaos(FaultPlan::uniform(99, 0.05));
        let _ = sim.run().unwrap();
        (sim.stats, sim.fault_stats().unwrap(), sim.trace())
    };
    let (s1, f1, t1) = run();
    let (s2, f2, t2) = run();
    assert_eq!(s1, s2);
    assert_eq!(f1, f2);
    assert_eq!(t1, t2);
    assert!(s1.faults_injected > 0, "5% rates must inject something");
}

/// At drop/dup/delay rates of 10% the machine must never panic, and at
/// these three seeds the coherence audit passes on whatever outcome the
/// run reaches (some end `Outcome::Stalled`). Other seeds end in a
/// coherence violation: drops and duplicates can cost correctness, not
/// only liveness (DESIGN.md §10), so this pins these seeds only.
#[test]
fn audit_passes_under_ten_percent_chaos() {
    for &(quads, per_quad, ops) in &[(2usize, 2usize, 40usize), (4, 4, 15)] {
        for seed in [101u64, 102, 103] {
            let mut sim = random_sim(quads, per_quad, ops, seed);
            let plan = FaultPlan {
                seed: seed.wrapping_mul(0x9e37_79b9),
                rates: FaultRates {
                    drop: 0.10,
                    duplicate: 0.10,
                    delay: 0.10,
                    reorder: 0.02,
                },
                ..FaultPlan::default()
            };
            sim.enable_chaos(plan);
            let out = sim
                .run()
                .unwrap_or_else(|e| panic!("{quads}x{per_quad} seed {seed}: {e}"));
            assert!(
                matches!(
                    out,
                    Outcome::Quiescent | Outcome::Stalled { .. } | Outcome::StepLimit
                ),
                "{quads}x{per_quad} seed {seed}: {out:?}"
            );
            sim.audit()
                .unwrap_or_else(|e| panic!("{quads}x{per_quad} seed {seed}: {e}"));
            assert!(
                sim.stats.faults_injected > 0,
                "{quads}x{per_quad} seed {seed}: no faults injected"
            );
        }
    }
}

/// A targeted one-shot drop of the snoop response wedges exactly one
/// transaction; the boundary machinery reports it instead of hanging
/// or panicking.
#[test]
fn targeted_snoop_response_drop_degrades_gracefully() {
    let cfg = SimConfig {
        quads: 1,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        schedule: Schedule::Fixed,
        max_steps: 500_000,
    };
    let owner = NodeId::new(0, 1);
    let addr = 0;
    let mut per_node = vec![Vec::new(); 2];
    per_node[0] = vec![CpuOp::Write(addr)];
    let mut sim = Sim::new(generated(), cfg, Workload::scripted(per_node));
    sim.set_cache(owner, addr, "M", 7);
    sim.set_dir(addr, "MESI", &[owner]);
    sim.set_expected(addr, 7);
    let mut plan = FaultPlan::quiet(3);
    // Drop every invalidation acknowledgement: the transaction can
    // never complete.
    for nth in 0..64 {
        plan.targeted.push(ccsql_sim::TargetedFault {
            msg: "idone".into(),
            nth,
            kind: ccsql_sim::FaultKind::Drop,
        });
    }
    plan.timeout_steps = 50;
    plan.max_retries = 3;
    sim.enable_chaos(plan);
    let out = sim.run().unwrap();
    let Outcome::Stalled { diagnosis } = out else {
        panic!("expected Stalled, got {out:?}");
    };
    assert!(!diagnosis.is_empty());
    assert!(
        diagnosis.iter().any(|d| d.contains("abandoned"))
            || diagnosis.iter().any(|d| d.contains("stuck")),
        "{diagnosis:?}"
    );
    assert!(sim.stats.faults_injected > 0);
    // The write never completed, so the serialisation order still says
    // the owner's original value — and the audit agrees.
    sim.audit().unwrap();
}

// ---------------------------------------------------------- coverage

/// Union row coverage over a set of runs: `(covered, total)` per table
/// plus the never-hit row indices.
fn union_coverage(sims: &[Sim], table: &'static str) -> (usize, usize, Vec<usize>) {
    let total = sims[0]
        .coverage_report()
        .into_iter()
        .find(|(t, _, _)| *t == table)
        .map(|(_, _, tot)| tot)
        .unwrap();
    let mut hit = vec![false; total];
    for sim in sims {
        for idx in sim.covered_rows(table) {
            hit[idx] = true;
        }
    }
    let covered = hit.iter().filter(|h| **h).count();
    let missing: Vec<usize> = (0..total).filter(|&i| !hit[i]).collect();
    (covered, total, missing)
}

/// A Figure-2-style scenario: a line read-shared by two nodes, then
/// written by a third (read-exclusive with multiple sharers to
/// invalidate), then flushed.
fn fig2_style_sim() -> Sim {
    let cfg = SimConfig {
        quads: 1,
        nodes_per_quad: 3,
        vc_capacity: 3,
        dedicated_mem_path: true,
        schedule: Schedule::Fixed,
        max_steps: 200_000,
    };
    let addr = 0;
    let wl = Workload::scripted(vec![
        vec![CpuOp::Read(addr), CpuOp::Flush(addr)],
        vec![CpuOp::Read(addr)],
        vec![CpuOp::Write(addr), CpuOp::Read(addr)],
    ]);
    Sim::new(generated(), cfg, wl)
}

/// The paper scenarios (Fig2-style sharing/invalidation, the Fig4
/// writeback race) plus random workloads must exercise at least the
/// recorded baseline fraction of the generated D/M/N rows. On failure
/// the never-hit rows are listed so the gap is actionable.
#[test]
fn paper_scenarios_meet_the_coverage_baseline() {
    let gen = generated();
    let mut sims: Vec<Sim> = Vec::new();

    let fig4 = Fig4::default();
    let mut s = fig4.build(gen, true);
    s.try_issue(0).unwrap();
    s.try_dir(1).unwrap();
    s.try_issue(1).unwrap();
    s.try_dir(1).unwrap();
    s.try_rac(1).unwrap();
    let out = s.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    sims.push(s);

    let mut s = fig2_style_sim();
    let out = s.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    sims.push(s);

    for seed in [21u64, 22, 23] {
        let mut s = random_sim(2, 2, 200, seed);
        let out = s.run().unwrap();
        assert!(matches!(out, Outcome::Quiescent), "seed {seed}: {out:?}");
        sims.push(s);
    }

    // Baselines recorded in EXPERIMENTS.md (E-CHAOS): the paper
    // scenarios + 3 random seeds exercise at least this many rows.
    // D's total is dominated by the 440 retry interleavings over busy
    // encodings, most unreachable without deeper concurrency, hence
    // the low-looking floor. M's floor is 5 of 7: rows 5–6 (`mupd`,
    // `mflush`) are memory commands the executable engine never emits.
    for (table, floor) in [("D", 40usize), ("M", 5), ("N", 24)] {
        let (covered, total, missing) = union_coverage(&sims, table);
        assert!(
            covered >= floor,
            "table {table}: only {covered}/{total} rows exercised \
             (baseline {floor}); never-hit rows: {missing:?}"
        );
    }
}
