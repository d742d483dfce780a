//! Symmetry-on/off equivalence gates (the soundness pin for the orbit
//! quotient, required by scripts/verify.sh).
//!
//! At every small configuration and every thread count, the reduced
//! exploration must agree with the full one on the *verdict*, and its
//! per-orbit sizes must sum to the full reachable count exactly — the
//! strongest equivalence short of replaying the whole space. With a
//! seeded bug, both modes must report the violation and the reduced
//! witness must itself violate the property (witness validity).

use ccsql_mc::{explore_from, explore_with, McOpts, McOutcome, Model, State};

fn sym(m: &Model, init: State, threads: usize) -> (McOutcome, ccsql_mc::McStats) {
    explore_with(
        m,
        init,
        &McOpts {
            budget: 10_000_000,
            threads,
            symmetry: true,
            ..McOpts::default()
        },
    )
}

#[test]
fn verdicts_and_exact_counts_agree_at_2_and_3_nodes() {
    for nodes in [2, 3] {
        for quota in [1, 2] {
            let m = Model {
                nodes,
                quota,
                resp_depth: 2,
            };
            let (full_out, full) = explore_from(&m, m.initial(), 10_000_000, 1);
            assert_eq!(full_out, McOutcome::Verified);
            for threads in [1, 2, 8] {
                let (out, st) = sym(&m, m.initial(), threads);
                assert_eq!(out, full_out, "nodes={nodes} quota={quota} t={threads}");
                assert_eq!(
                    st.orbit_states, full.states as u64,
                    "nodes={nodes} quota={quota} t={threads}: orbit total != full count"
                );
                assert!(
                    st.states <= full.states,
                    "nodes={nodes} quota={quota}: quotient larger than full space"
                );
                // At >= 3 nodes the quotient must genuinely bite.
                if nodes >= 3 {
                    assert!(
                        st.states < full.states,
                        "nodes={nodes} quota={quota}: no reduction"
                    );
                }
            }
        }
    }
}

#[test]
fn symmetry_runs_are_identical_across_thread_counts() {
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    let (out1, st1) = sym(&m, m.initial(), 1);
    for threads in [2, 8] {
        let (out_n, st_n) = sym(&m, m.initial(), threads);
        assert_eq!(out1, out_n, "{threads} threads");
        assert_eq!(st1.states, st_n.states, "{threads} threads");
        assert_eq!(st1.orbit_states, st_n.orbit_states, "{threads} threads");
        assert_eq!(st1.transitions, st_n.transitions, "{threads} threads");
        assert_eq!(st1.dedup_hits, st_n.dedup_hits, "{threads} threads");
        assert_eq!(st1.depth, st_n.depth, "{threads} threads");
        assert_eq!(st1.levels, st_n.levels, "{threads} threads");
        assert_eq!(st1.frontier_peak, st_n.frontier_peak, "{threads} threads");
        assert_eq!(st1.witness, st_n.witness, "{threads} threads");
    }
}

#[test]
fn seeded_violation_is_found_in_both_modes_with_a_valid_witness() {
    // Corrupt initial state: an exclusive copy coexists with a sharer.
    // The violation is on the initial state itself, so both modes must
    // find it immediately; the reduced witness is the orbit
    // representative — possibly a renumbering — and must itself fail
    // the property (witness validity).
    let m = Model {
        nodes: 2,
        quota: 1,
        resp_depth: 2,
    };
    let mut init = m.initial();
    init.cache[0] = ccsql_mc::state::Cache::M;
    init.cache[1] = ccsql_mc::state::Cache::S;

    let (full_out, full) = explore_from(&m, init, 1_000, 1);
    assert_eq!(
        full_out,
        McOutcome::Violation("single-writer: M/E coexists with S")
    );
    let full_witness = full.witness.expect("full witness");
    assert!(m.check(&full_witness).is_some());

    for threads in [1, 2, 8] {
        let (out, st) = sym(&m, init, threads);
        assert_eq!(out, full_out, "{threads} threads");
        let w = st.witness.expect("reduced witness");
        assert_eq!(
            m.check(&w),
            m.check(&full_witness),
            "witness property mismatch at {threads} threads"
        );
        // The reduced witness is in the same orbit as the seeded state.
        assert_eq!(
            ccsql_mc::canon(ccsql_mc::pack(&w)),
            ccsql_mc::canon(ccsql_mc::pack(&init)),
        );
    }
}

#[test]
fn deep_violation_is_reported_in_both_modes() {
    // Seed the bug one step *away* from the initial state (a poisoned
    // response in flight), so the violation is discovered during BFS
    // rather than on the root: exercises the canonicalised successor
    // path, not just the root check.
    let m = Model {
        nodes: 3,
        quota: 1,
        resp_depth: 2,
    };
    let mut init = m.initial();
    init.cache[0] = ccsql_mc::state::Cache::S;
    init.pv = 0b001;
    init.dir = ccsql_mc::state::Dir::Si;
    init.resp[1] = ccsql_mc::state::RespQueue::from_slice(&[ccsql_mc::state::Resp::EData]);
    init.pend[1] = Some(ccsql_mc::state::Req::ReadEx);

    let (full_out, _) = explore_from(&m, init, 100_000, 1);
    let (sym_out, st) = sym(&m, init, 1);
    assert_eq!(full_out, sym_out);
    assert!(
        matches!(sym_out, McOutcome::Violation(_)),
        "expected a violation, got {sym_out:?}"
    );
    let w = st.witness.expect("witness");
    assert!(m.check(&w).is_some(), "reduced witness does not violate");
}
