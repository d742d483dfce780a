//! Parallel-vs-sequential equivalence for the BFS explorer.
//!
//! The exploration contract is strict: for ANY thread count the
//! outcome, every statistic and the violation witness are identical to
//! the single-threaded run (workers scan disjoint chunks of the level;
//! the merge replays their candidates in chunk order, reproducing the
//! sequential discovery order exactly). These tests pin that contract
//! at 1, 2 and 8 threads on verified, violating and budget-capped runs.

use ccsql_mc::state::{Cache, PerNode, Req, Resp, RespQueue};
use ccsql_mc::{explore_with, McOpts, McOutcome, McStats, Model, State};

/// All deterministic fields of [`McStats`] (everything but wall-clock
/// time and the thread count itself).
#[allow(clippy::type_complexity)]
fn deterministic_fields(
    s: &McStats,
) -> (
    usize,
    u64,
    u64,
    u64,
    usize,
    usize,
    usize,
    usize,
    Option<&State>,
) {
    (
        s.states,
        s.orbit_states,
        s.transitions,
        s.dedup_hits,
        s.frontier_peak,
        s.depth,
        s.levels,
        s.arena_bytes,
        s.witness.as_ref(),
    )
}

#[test]
fn verified_space_is_identical_at_1_2_8_threads() {
    // nodes=3 / quota=2 is big enough (~37k states, frontier peak well
    // past the parallel cutover) to exercise the threaded scan path.
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    let (o1, s1) = explore_with(
        &m,
        m.initial(),
        &McOpts {
            budget: 1_000_000,
            threads: 1,
            ..McOpts::default()
        },
    );
    assert_eq!(o1, McOutcome::Verified);
    for threads in [2, 8] {
        let (on, sn) = explore_with(
            &m,
            m.initial(),
            &McOpts {
                budget: 1_000_000,
                threads,
                ..McOpts::default()
            },
        );
        assert_eq!(o1, on, "outcome at {threads} threads");
        assert_eq!(
            deterministic_fields(&s1),
            deterministic_fields(&sn),
            "stats at {threads} threads"
        );
        assert_eq!(sn.threads, threads);
    }
}

#[test]
fn violation_witness_is_identical_at_1_2_8_threads() {
    // Seed a bug a level below the root: node 1 already holds S while
    // an exclusive-data response is in flight to it. Completing the
    // pending ReadEx puts M next to S — the single-writer violation —
    // so the checker must pick the same lowest-(depth, BFS-order)
    // witness whichever worker finds it first.
    let m = Model {
        nodes: 2,
        quota: 1,
        resp_depth: 2,
    };
    let mut init = m.initial();
    init.cache = PerNode::from_slice(&[Cache::S, Cache::I]);
    init.pend[1] = Some(Req::ReadEx);
    init.resp[1] = RespQueue::from_slice(&[Resp::EData]);
    let (o1, s1) = explore_with(
        &m,
        init,
        &McOpts {
            budget: 1_000_000,
            threads: 1,
            ..McOpts::default()
        },
    );
    assert_eq!(
        o1,
        McOutcome::Violation("single-writer: M/E coexists with S")
    );
    assert!(s1.witness.is_some());
    for threads in [2, 8] {
        let (on, sn) = explore_with(
            &m,
            init,
            &McOpts {
                budget: 1_000_000,
                threads,
                ..McOpts::default()
            },
        );
        assert_eq!(o1, on, "outcome at {threads} threads");
        assert_eq!(
            deterministic_fields(&s1),
            deterministic_fields(&sn),
            "stats at {threads} threads"
        );
    }
}

#[test]
fn budget_cutoff_is_identical_at_1_2_8_threads() {
    // The budget must clip the arena at the same state for every
    // thread count (enforced in the sequential merge, never mid-scan).
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    let budget = 5_000;
    let (o1, s1) = explore_with(
        &m,
        m.initial(),
        &McOpts {
            budget,
            threads: 1,
            ..McOpts::default()
        },
    );
    assert_eq!(o1, McOutcome::BudgetExceeded);
    assert!(s1.states <= budget);
    for threads in [2, 8] {
        let (on, sn) = explore_with(
            &m,
            m.initial(),
            &McOpts {
                budget,
                threads,
                ..McOpts::default()
            },
        );
        assert_eq!(o1, on, "outcome at {threads} threads");
        assert_eq!(
            deterministic_fields(&s1),
            deterministic_fields(&sn),
            "stats at {threads} threads"
        );
    }
}
