//! The cross-validation harness of the flow analysis: three independent
//! deadlock verdicts must agree.
//!
//! 1. **Parameterized** — the flow waits-for graph, decided symbolically
//!    in the node count (`ccsql_lint::flows`).
//! 2. **Concrete** — cycles of the virtual-channel dependency graph
//!    built from the same tables (`ccsql::vcg` via the flows cross-check).
//! 3. **Operational** — the explicit-state model checker exploring the
//!    fixed protocol (`ccsql_mc`), whose `Stuck` outcome is a deadlock.
//!
//! The release-build equivalent over the shipped binaries lives in
//! scripts/verify.sh; this test keeps the invariant enforced at
//! `cargo test` granularity (debug build, so mc runs at small N).

use ccsql::depend::{protocol_dependency_table, AnalysisConfig};
use ccsql::gen::GeneratedProtocol;
use ccsql::vc::VcAssignment;
use ccsql::vcg::Vcg;
use ccsql_lint::flows::{analyze_protocol, analyze_specfile, FlowsAnalysis, N_RANGE};
use ccsql_relalg::specfile::parse_specfile;

fn analyze_spec_path(name: &str, v: &VcAssignment) -> FlowsAnalysis {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let sf = parse_specfile(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    analyze_specfile(&sf, v).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Parameterized verdict == concrete VCG verdict, at every N in range.
/// (The flow graph's verdict is N-uniform once it holds at min_nodes;
/// the concrete VCG is N-free by construction — so agreement at the
/// boolean level is exactly agreement at every N.)
fn assert_agreement(name: &str, a: &FlowsAnalysis) {
    assert!(
        a.agrees_with_vcg(),
        "{name}: parameterized verdict (deadlock-free={}) disagrees with \
         concrete VCG ({} cycle(s))",
        a.deadlock_free_all_n(),
        a.vcg_cycles.len()
    );
    for n in N_RANGE {
        assert_eq!(
            a.deadlock_at(n),
            !a.vcg_cycles.is_empty(),
            "{name}: verdicts diverge at N={n}"
        );
    }
}

#[test]
fn fig3_spec_verdicts_agree_and_are_clean() {
    let a = analyze_spec_path("fig3.ccsql", &VcAssignment::v1());
    assert!(a.uncovered.is_empty(), "fig3 must be fully covered");
    assert!(a.deadlock_free_all_n());
    assert_agreement("fig3", &a);
}

#[test]
fn fig3_flowbug_rejected_at_every_n_with_vc2_vc4_witness() {
    let a = analyze_spec_path("fig3_flowbug.ccsql", &VcAssignment::v1());
    assert!(a.uncovered.is_empty(), "flowbug must be fully covered");
    assert!(!a.deadlock_free_all_n());
    assert_agreement("fig3_flowbug", &a);
    for n in N_RANGE {
        assert!(a.deadlock_at(n), "the seeded cycle must close at N={n}");
    }
    // The witness is the paper's Figure-4 channel pair.
    let c = a
        .cycles
        .iter()
        .find(|c| c.corroborated)
        .expect("a corroborated cycle");
    assert_eq!(c.cycle.channels, ["VC2", "VC4"]);
    assert_eq!(c.cycle.min_nodes, 2);
}

#[test]
fn protocol_verdicts_agree_for_every_assignment() {
    let gen = GeneratedProtocol::generate_default().unwrap();
    for (v, expect_deadlock) in [
        (VcAssignment::v0(), true),
        (VcAssignment::v1(), true),
        (VcAssignment::v2(), false),
    ] {
        let name = v.name;
        let a = analyze_protocol(&gen, &v).unwrap();
        assert_eq!(
            a.deadlock_free_all_n(),
            !expect_deadlock,
            "{name}: wrong parameterized verdict"
        );
        assert_agreement(name, &a);
    }
}

/// Composition never changes the VCG's cyclic components: the sorted
/// SCC channel sets of the full dependency table, under pairwise
/// composition and under the transitive closure, equal those of the
/// direct rows the flows cross-check builds.
#[test]
fn composition_keeps_the_cyclic_components_of_the_direct_rows() {
    let gen = GeneratedProtocol::generate_default().unwrap();
    let sorted = |mut sets: Vec<Vec<String>>| {
        for s in &mut sets {
            s.sort();
        }
        sets.sort();
        sets
    };
    for (v, want) in [
        (VcAssignment::v0(), vec![vec!["VC0", "VC1", "VC2"]]),
        (VcAssignment::v1(), vec![vec!["VC2", "VC4"]]),
        (VcAssignment::v2(), vec![]),
    ] {
        let name = v.name;
        let direct = sorted(analyze_protocol(&gen, &v).unwrap().vcg_cycles);
        assert_eq!(direct, want, "{name}: direct-row cycles");
        for transitive_closure in [false, true] {
            let cfg = AnalysisConfig {
                transitive_closure,
                ..AnalysisConfig::default()
            };
            let table = protocol_dependency_table(&gen, &v, &cfg).unwrap();
            let composed = Vcg::build(&table)
                .cycles()
                .iter()
                .map(|c| c.channels.iter().map(|s| s.to_string()).collect())
                .collect();
            assert_eq!(
                sorted(composed),
                direct,
                "{name}: composition (closure: {transitive_closure}) changed the cycles"
            );
        }
    }
}

/// The operational leg: the fixed protocol (whose channel discipline is
/// assignment V2) must be deadlock-free in the explicit-state model too.
/// Debug builds keep N small; scripts/verify.sh runs the release binary
/// over the full N=2..5 range.
#[test]
fn model_checker_agrees_with_v2_verdict() {
    use ccsql_mc::{explore_with, McOpts, Model};
    let gen = GeneratedProtocol::generate_default().unwrap();
    let flows = analyze_protocol(&gen, &VcAssignment::v2()).unwrap();
    assert!(flows.deadlock_free_all_n());
    for nodes in 2..=3 {
        let model = Model {
            nodes,
            quota: 1,
            resp_depth: 2,
        };
        let (outcome, _) = explore_with(
            &model,
            model.initial(),
            &McOpts {
                budget: 5_000_000,
                threads: 2,
                symmetry: true,
                ..McOpts::default()
            },
        );
        assert_eq!(
            outcome,
            ccsql_mc::McOutcome::Verified,
            "mc at nodes={nodes} must agree with the parameterized verdict"
        );
    }
}
