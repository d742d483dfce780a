//! Pins the simulator's observable behaviour. Each case folds, into one
//! 64-bit FNV-1a digest per group:
//!
//! * the run's stats, its outcome (the deadlock and stalled text, or
//!   the error) and its coherence audit;
//! * `fault_stats`, `coverage_report`, `covered_rows` of every table and
//!   `latency_report`;
//! * the step log (`trace()` at the default cap of 4096 lines) and
//!   `trace_dropped`.
//!
//! The groups cover random workloads at seeds 1–20 with the dedicated
//! memory path on and off on four machine shapes, every named sharing
//! pattern, chaos at uniform 5% and at the fuzzer's rates, the Figure-4
//! replay with and without the fix, and the number of random Figure-4
//! schedules that deadlock under the shared VC4. A change to any table
//! lookup, scheduling decision, message route, report text or counter
//! moves a digest.
//!
//! The last test builds reports that used to depend on hash-map
//! iteration order (the full buffer a blocked plan names, the violation
//! an audit reports first) in fresh simulators and requires one text.

use ccsql::gen::GeneratedProtocol;
use ccsql_protocol::topology::NodeId;
use ccsql_sim::channel::VcId;
use ccsql_sim::msg::{Endpoint, SimMsg};
use ccsql_sim::{
    CpuOp, FaultPlan, FaultRates, Fig4, Mix, Outcome, Schedule, Sim, SimConfig, Workload, PATTERNS,
};
use std::sync::OnceLock;

fn generated() -> &'static GeneratedProtocol {
    static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
    GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

/// `(group, digest)`, in the order [`digests`] computes them.
const DIGESTS: [(&str, u64); 13] = [
    ("random 2x2 dedicated", 0x218e344befd1791d),
    ("random 2x2 shared", 0xc6792b084c1d8ea9),
    ("random 1x4 dedicated", 0x1b97a7a44c96c4d9),
    ("random 1x4 shared", 0x1aac02713d88b851),
    ("random 4x1 dedicated", 0x69e014df36ef355e),
    ("random 4x1 shared", 0x0570b3bf12990345),
    ("random 3x2 dedicated", 0x7c950bb73a92fc47),
    ("random 3x2 shared", 0x2c0f966e42b4bf6b),
    ("patterns", 0xd67aadf3d555f03a),
    ("chaos uniform 5%", 0x5d4d819da1cc4e69),
    ("chaos fuzz rates", 0x3c495d7ac0fa062f),
    ("fig4", 0x9dde27d96f3249f3),
    ("fig4 V1 schedules", 0x31530f80e0218bb9),
];

/// Random Figure-4 schedules under the shared VC4 that deadlock, out of
/// 200 (the count `tests/end_to_end.rs` asserts is nonzero).
const FIG4_V1_DEADLOCKS: u64 = 13;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a digest over lines of text.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(FNV_OFFSET)
    }

    /// Fold one line, terminated so that adjacent lines cannot run
    /// together.
    fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn nodes_of(quads: usize, per_quad: usize) -> Vec<NodeId> {
    (0..quads)
        .flat_map(|q| (0..per_quad).map(move |n| NodeId::new(q, n)))
        .collect()
}

/// The CLI's `sim` machine: VC capacity at least the nodes per quad.
fn config(quads: usize, per_quad: usize, dedicated: bool, seed: u64) -> SimConfig {
    SimConfig {
        quads,
        nodes_per_quad: per_quad,
        vc_capacity: per_quad.max(2),
        dedicated_mem_path: dedicated,
        schedule: Schedule::Random(seed),
        max_steps: 2_000_000,
    }
}

/// Run `sim` with the step log on and fold everything it reports.
fn fold_run(h: &mut Digest, mut sim: Sim) {
    sim.enable_trace();
    fold_outcome(h, &mut sim);
}

/// Run `sim` (its step log already set up) and fold its reports.
fn fold_outcome(h: &mut Digest, sim: &mut Sim) {
    match sim.run() {
        Ok(Outcome::Deadlock(info)) => h.line(&format!("deadlock\n{info}")),
        Ok(Outcome::Stalled { diagnosis }) => {
            h.line("stalled");
            for d in diagnosis {
                h.line(&d);
            }
        }
        Ok(other) => h.line(&format!("{other:?}")),
        Err(e) => h.line(&format!("error: {e}")),
    }
    h.line(&format!("{:?}", sim.stats));
    h.line(&format!("{:?}", sim.audit().map_err(|e| e.to_string())));
    h.line(&format!("{:?}", sim.fault_stats()));
    h.line(&format!("{:?}", sim.coverage_report()));
    for table in ["D", "M", "N", "R"] {
        h.line(&format!("{table} {:?}", sim.covered_rows(table)));
    }
    for (op, agg) in sim.latency_report() {
        h.line(&format!("{op} {} {} {}", agg.count, agg.total, agg.max));
    }
    for line in sim.trace() {
        h.line(&line);
    }
    h.line(&format!("dropped {}", sim.trace_dropped()));
}

/// The Figure-4 start state, driven to its critical point.
fn fig4_critical(dedicated: bool) -> Sim {
    let mut sim = Fig4::default().build(generated(), dedicated);
    sim.enable_trace();
    assert!(sim.try_issue(0).unwrap().worked());
    assert!(sim.try_dir(1).unwrap().worked());
    assert!(sim.try_issue(1).unwrap().worked());
    assert!(sim.try_dir(1).unwrap().worked());
    assert!(sim.try_rac(1).unwrap().worked());
    sim
}

/// `tests/end_to_end.rs`'s random Figure-4 schedules under the shared
/// VC4: the seeds whose run deadlocks.
fn fig4_v1_schedules(h: &mut Digest) -> u64 {
    let fig = Fig4::default();
    let mut deadlocks = 0;
    for seed in 0..200 {
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 1,
            dedicated_mem_path: false,
            schedule: Schedule::Random(seed),
            max_steps: 100_000,
        };
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
        let out = sim.run().unwrap();
        if out.is_deadlock() {
            deadlocks += 1;
            h.line(&format!(
                "seed {seed} deadlocks after {} steps",
                sim.stats.steps
            ));
        }
    }
    deadlocks
}

/// Every group's digest, in [`DIGESTS`] order, and the V1 count.
fn digests() -> (Vec<(&'static str, u64)>, u64) {
    let gen = generated();
    let mut out = Vec::new();
    for (quads, per_quad, names) in [
        (2, 2, ["random 2x2 dedicated", "random 2x2 shared"]),
        (1, 4, ["random 1x4 dedicated", "random 1x4 shared"]),
        (4, 1, ["random 4x1 dedicated", "random 4x1 shared"]),
        (3, 2, ["random 3x2 dedicated", "random 3x2 shared"]),
    ] {
        for (dedicated, name) in [(true, names[0]), (false, names[1])] {
            let mut h = Digest::new();
            for seed in 1..=20 {
                let wl = Workload::random(&nodes_of(quads, per_quad), 40, 8, Mix::default(), seed);
                fold_run(
                    &mut h,
                    Sim::new(gen, config(quads, per_quad, dedicated, seed), wl),
                );
            }
            out.push((name, h.0));
        }
    }

    let mut h = Digest::new();
    for &pattern in PATTERNS {
        let wl = Workload::pattern(&nodes_of(2, 2), pattern, 40, 17);
        fold_run(&mut h, Sim::new(gen, config(2, 2, true, 17), wl));
    }
    out.push(("patterns", h.0));

    let fuzz_rates = |r: f64| FaultRates {
        drop: r,
        duplicate: r,
        delay: r,
        reorder: r / 5.0,
    };
    for (name, rates) in [
        ("chaos uniform 5%", vec![FaultRates::uniform(0.05)]),
        (
            "chaos fuzz rates",
            vec![fuzz_rates(0.02), fuzz_rates(0.05), fuzz_rates(0.10)],
        ),
    ] {
        let mut h = Digest::new();
        for rates in rates {
            for seed in 1..=5 {
                let wl = Workload::random(&nodes_of(2, 2), 40, 8, Mix::default(), seed);
                let mut sim = Sim::new(gen, config(2, 2, true, seed), wl);
                let mut plan = FaultPlan::quiet(seed ^ 0x5eed);
                plan.rates = rates;
                sim.enable_chaos(plan);
                fold_run(&mut h, sim);
            }
        }
        out.push((name, h.0));
    }

    let mut h = Digest::new();
    for dedicated in [false, true] {
        fold_outcome(&mut h, &mut fig4_critical(dedicated));
    }
    out.push(("fig4", h.0));

    let mut h = Digest::new();
    let v1 = fig4_v1_schedules(&mut h);
    out.push(("fig4 V1 schedules", h.0));
    (out, v1)
}

#[test]
fn simulator_reports_match_their_pinned_digests() {
    let (got, v1) = digests();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        (got.as_slice(), v1),
        (&DIGESTS[..], FIG4_V1_DEADLOCKS),
        "digests moved; the run gives\n{table}and {v1} V1 deadlocks"
    );
}

/// A plan that needs two full buffers names the first of them in plan
/// order, and an audit that meets two violations reports the one at
/// the lowest address, in every fresh simulator.
#[test]
fn reports_do_not_depend_on_hash_order() {
    let report = || {
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 1,
            dedicated_mem_path: true,
            schedule: Schedule::Fixed,
            max_steps: 1_000,
        };
        let mut sim = Sim::new(generated(), cfg, Workload::scripted(vec![Vec::new(); 4]));
        let (q0n0, q0n1, q1n0, q1n1) = (
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            NodeId::new(1, 0),
            NodeId::new(1, 1),
        );
        // Line 2 (home quad 0) is shared in both quads; q0n0 asks for it
        // exclusively while both quads' snoop buffers are full, so the
        // directory's plan needs a slot in each.
        sim.set_dir(2, "SI", &[q0n1, q1n0]);
        sim.set_cache(q0n1, 2, "S", 0);
        sim.set_cache(q1n0, 2, "S", 0);
        sim.channels.send(
            0,
            VcId::Vc(0),
            SimMsg::new("readex", 2, Endpoint::Node(q0n0), Endpoint::Dir(0)),
        );
        for (quad, to) in [(0, q0n0), (1, q1n1)] {
            let snoop = SimMsg::new("sinv", 6, Endpoint::Dir(0), Endpoint::Node(to));
            sim.channels.send(quad, VcId::Vc(1), snoop);
        }
        let (_, blocked) = sim.step().unwrap();
        let blocked: Vec<String> = blocked.into_iter().map(|(why, _)| why).collect();
        // Two lines with two exclusive owners each.
        for (addr, a, b) in [(5, q1n0, q1n1), (3, q0n1, q0n0)] {
            sim.set_cache(a, addr, "M", 1);
            sim.set_cache(b, addr, "E", 1);
        }
        let audit = sim.audit().unwrap_err().to_string();
        (blocked, audit)
    };
    let first = report();
    assert_eq!(
        first.0,
        [
            "D0 processing readex(0x2) q0n0→D0 needs a slot on quad 0 VC1",
            "RAC q1n1 processing sinv(0x6) D0→q1n1 needs a slot on quad 0 VC2",
        ]
    );
    assert_eq!(
        first.1,
        "coherence violation: 0x3 has multiple exclusive owners: [NodeId { quad: 0, node: 0 }, \
         NodeId { quad: 0, node: 1 }]"
    );
    for _ in 1..20 {
        assert_eq!(report(), first);
    }
}
