//! Out-of-core determinism gates (required by scripts/verify.sh).
//!
//! The sharded engine promises that the verdict, every deterministic
//! statistic and the witness are byte-identical for every
//! (threads, shards, mem-budget) combination — spilling to disk is an
//! implementation detail, never an observable one. These tests pin
//! that promise on the builtin ASURA model (verified, seeded-violation
//! and budget-aborted runs) and on zoo spec packs, one of them with an
//! undrainable counterexample, and check that no spill file survives a
//! run, completed or aborted.

use ccsql_mc::{explore_with, McOpts, McOutcome, McStats, Model, SpecMcOpts, State};

const SHARDS: [usize; 3] = [1, 4, 16];
const THREADS: [usize; 3] = [1, 2, 8];
/// A 4 KiB resident target: far below any arena in these tests, so the
/// maintenance pass must spill everything it is allowed to spill.
const TINY: usize = 4 * 1024;

fn run(m: &Model, init: State, opts: &McOpts) -> (McOutcome, McStats) {
    explore_with(m, init, opts)
}

/// The statistics that must not depend on threads, shards or spilling.
fn deterministic_fields(st: &McStats) -> (usize, u64, u64, u64, usize, usize, usize, usize) {
    (
        st.states,
        st.orbit_states,
        st.transitions,
        st.dedup_hits,
        st.frontier_peak,
        st.depth,
        st.levels,
        st.arena_bytes,
    )
}

fn assert_matrix_identical(m: &Model, init: State, budget: usize, symmetry: bool) {
    assert_matrix_identical_opt(m, init, budget, symmetry, true)
}

fn assert_matrix_identical_opt(
    m: &Model,
    init: State,
    budget: usize,
    symmetry: bool,
    expect_spill: bool,
) {
    let (base_out, base) = run(
        m,
        init,
        &McOpts {
            budget,
            threads: 1,
            symmetry,
            shards: 1,
            mem_budget: 0,
            spill_dir: None,
        },
    );
    for shards in SHARDS {
        for threads in THREADS {
            for mem_budget in [0, TINY] {
                let (out, st) = run(
                    m,
                    init,
                    &McOpts {
                        budget,
                        threads,
                        symmetry,
                        shards,
                        mem_budget,
                        spill_dir: None,
                    },
                );
                let tag =
                    format!("sym={symmetry} shards={shards} threads={threads} mem={mem_budget}");
                assert_eq!(out, base_out, "verdict differs: {tag}");
                assert_eq!(
                    deterministic_fields(&st),
                    deterministic_fields(&base),
                    "stats differ: {tag}"
                );
                assert_eq!(st.witness, base.witness, "witness differs: {tag}");
                if mem_budget > 0 {
                    // A search that ends within a level or two may
                    // finish before any maintenance pass runs.
                    assert!(
                        !expect_spill || st.spilled_bytes > 0,
                        "no spill despite tiny budget: {tag}"
                    );
                } else {
                    assert_eq!(st.spilled_bytes, 0, "spill without budget: {tag}");
                }
            }
        }
    }
}

#[test]
fn verified_space_is_identical_across_shards_threads_and_mem_budget() {
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    assert_matrix_identical(&m, m.initial(), 10_000_000, false);
    assert_matrix_identical(&m, m.initial(), 10_000_000, true);
}

#[test]
fn seeded_violation_witness_is_identical_under_spill() {
    // The bug sits one BFS step away from the root (a poisoned
    // response in flight), so the violation is discovered mid-search —
    // the spilled visited index and the witness both matter.
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
    let (out, st) = run(
        &m,
        init,
        &McOpts {
            budget: 100_000,
            mem_budget: TINY,
            ..McOpts::default()
        },
    );
    assert!(matches!(out, McOutcome::Violation(_)), "got {out:?}");
    assert!(st.witness.is_some());
    // The bug is hit within two levels — too early for a maintenance
    // spill — so only the identity half of the matrix applies.
    assert_matrix_identical_opt(&m, init, 100_000, false, false);
    assert_matrix_identical_opt(&m, init, 100_000, true, false);
}

#[test]
fn budget_cutoff_is_exact_and_identical_under_spill() {
    let m = Model {
        nodes: 4,
        quota: 2,
        resp_depth: 2,
    };
    let budget = 30_000;
    let (out, st) = run(
        &m,
        m.initial(),
        &McOpts {
            budget,
            mem_budget: TINY,
            ..McOpts::default()
        },
    );
    assert_eq!(out, McOutcome::BudgetExceeded);
    assert_eq!(st.states, budget, "budget cutoff must be exact");
    assert_matrix_identical(&m, m.initial(), budget, false);
}

#[test]
fn spilling_run_keeps_its_resident_peak_under_the_memory_budget() {
    // The 60k-state prefix of the nodes=4/quota=2 space without
    // symmetry outgrows a 1.5 MiB resident budget, so the run has to
    // spill; spilling must change nothing, and at 1 and 2 threads the
    // all-inclusive resident peak must stay under the budget. At 8
    // threads each worker's block lease and candidate buffer have a
    // 64 KiB floor, so the peak depends on how many workers fill their
    // buffers at once and can exceed so small a budget; there only
    // the identity and the spill are checked.
    let m = Model {
        nodes: 4,
        quota: 2,
        resp_depth: 2,
    };
    let (budget, mem_budget) = (60_000, 1_536 * 1024);
    let (base_out, base) = run(
        &m,
        m.initial(),
        &McOpts {
            budget,
            ..McOpts::default()
        },
    );
    for threads in THREADS {
        let (out, st) = run(
            &m,
            m.initial(),
            &McOpts {
                budget,
                threads,
                mem_budget,
                ..McOpts::default()
            },
        );
        assert_eq!(out, base_out, "verdict differs: threads={threads}");
        assert_eq!(
            deterministic_fields(&st),
            deterministic_fields(&base),
            "stats differ: threads={threads}"
        );
        assert_eq!(
            st.witness, base.witness,
            "witness differs: threads={threads}"
        );
        assert!(st.spilled_bytes > 0, "no spill: threads={threads}");
        assert!(
            threads > 2 || st.mem_peak_bytes <= mem_budget,
            "resident peak {} over the {mem_budget}-byte budget: threads={threads}",
            st.mem_peak_bytes
        );
    }
}

#[test]
fn no_spill_file_survives_completed_or_aborted_runs() {
    let base = std::env::temp_dir().join(format!("ccsql-ooc-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let m = Model {
        nodes: 3,
        quota: 2,
        resp_depth: 2,
    };
    // A completed (verified) run and a budget-aborted run, both forced
    // to spill into `base`.
    for budget in [10_000_000, 2_000] {
        let (_, st) = run(
            &m,
            m.initial(),
            &McOpts {
                budget,
                threads: 2,
                mem_budget: TINY,
                spill_dir: Some(base.clone()),
                ..McOpts::default()
            },
        );
        assert!(st.spilled_bytes > 0, "run must actually spill");
        let leftovers: Vec<_> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            leftovers.is_empty(),
            "spill files survived (budget={budget}): {leftovers:?}"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

// ---- zoo spec packs through the same engine -------------------------

fn spec_machine(rel_path: &str) -> ccsql_mc::SpecMachine {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel_path);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let sf = ccsql_relalg::specfile::parse_specfile(&text).unwrap();
    let (rel, failures) = ccsql_relalg::specfile::solve_specfile(&sf).unwrap();
    assert!(failures.is_empty());
    ccsql_mc::SpecMachine::build(&sf, &rel).unwrap()
}

#[test]
fn spec_packs_render_identically_across_shards_threads_and_mem_budget() {
    for pack in [
        "specs/fig3.ccsql",
        "specs/phase_priority.ccsql",
        "specs/bedrock_moesif_buggy.ccsql",
    ] {
        let m = spec_machine(pack);
        for symmetry in [false, true] {
            let base_opts = SpecMcOpts {
                agents: 2,
                symmetry,
                ..SpecMcOpts::default()
            };
            let base = m.explore(&base_opts);
            let base_text = base.render();
            let base_json = base.render_json(&m.table, &base_opts);
            for shards in SHARDS {
                for threads in [1, 2] {
                    for mem_budget in [0, 1] {
                        let out = m.explore(&SpecMcOpts {
                            threads,
                            shards,
                            mem_budget,
                            ..base_opts.clone()
                        });
                        let tag = format!(
                            "{pack} sym={symmetry} shards={shards} threads={threads} \
                             mem={mem_budget}"
                        );
                        assert_eq!(out.render(), base_text, "render differs: {tag}");
                        // Rendered against the *base* options so the
                        // comparison is byte-for-byte.
                        assert_eq!(
                            out.render_json(&m.table, &base_opts),
                            base_json,
                            "json differs: {tag}"
                        );
                    }
                }
            }
        }
    }
}
