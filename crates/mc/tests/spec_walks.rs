//! Pins the spec machines' transition relation and their walks. For
//! every pack under `specs/` that builds a transaction machine, one
//! 64-bit FNV-1a digest folds, in order:
//!
//! * the render of a seeded walk (`simulate(agents, seed, 3000)`) for
//!   1–4 agents × 20 seeds, which depends on every successor's state,
//!   the order successors are emitted in and the rows they fire;
//! * the JSON render of an exhaustive exploration for 1–3 agents with
//!   symmetry off and on, which carries the counts, the covered rows
//!   and any counterexample's path and state;
//! * one spilled, threaded, sharded exploration, rendered the same way.
//!
//! A change to any row's guard or effect, to the successor order, to
//! the transition labels or to the state rendering moves a digest.

use ccsql_mc::{SpecMachine, SpecMcOpts};
use ccsql_relalg::specfile::{parse_specfile, solve_specfile_with};

/// Steps per seeded walk.
const WALK_STEPS: usize = 3_000;
/// Seeds per agent count.
const SEEDS: u64 = 20;

/// `(pack, digest)` for every pack that builds a machine, sorted.
const DIGESTS: [(&str, u64); 4] = [
    ("bedrock_moesif", 0x8f4b_86dc_c9ac_5ac7),
    ("bedrock_moesif_buggy", 0x88e5_125a_c0a3_bfc6),
    ("fig3", 0xc6fd_a31f_6408_b77d),
    ("phase_priority", 0xacc5_3afb_e2be_6083),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one line of text, terminated so that adjacent lines cannot
/// run together.
fn fold_line(h: u64, line: &str) -> u64 {
    fnv1a(fnv1a(h, line.as_bytes()), b"\n")
}

/// Every pack under `specs/` whose table solves cleanly and builds a
/// machine, sorted by name.
fn machines() -> Vec<(String, SpecMachine)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ccsql"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let Ok(sf) = parse_specfile(&text) else {
            continue;
        };
        let Ok((rel, failures)) = solve_specfile_with(&sf, true) else {
            continue;
        };
        if !failures.is_empty() {
            continue;
        }
        if let Ok(m) = SpecMachine::build(&sf, &rel) {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((stem, m));
        }
    }
    out
}

fn digest(m: &SpecMachine) -> u64 {
    let mut h = FNV_OFFSET;
    for agents in 1..=4 {
        for seed in 1..=SEEDS {
            h = fold_line(h, &m.simulate(agents, seed, WALK_STEPS).render(seed));
        }
    }
    for agents in 1..=3 {
        for symmetry in [false, true] {
            let opts = SpecMcOpts {
                agents,
                symmetry,
                ..SpecMcOpts::default()
            };
            h = fold_line(h, &m.explore(&opts).render_json(&m.table, &opts));
        }
    }
    let spilled = SpecMcOpts {
        agents: 3,
        threads: 2,
        shards: 4,
        mem_budget: 16 << 10,
        ..SpecMcOpts::default()
    };
    fold_line(h, &m.explore(&spilled).render_json(&m.table, &spilled))
}

#[test]
fn spec_machines_walk_and_explore_as_pinned() {
    let machines = machines();
    let names: Vec<&str> = machines.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = DIGESTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the packs that build a machine changed");
    let mut mismatches = Vec::new();
    for ((name, m), (_, want)) in machines.iter().zip(&DIGESTS) {
        let got = digest(m);
        if got != *want {
            mismatches.push(format!("(\"{name}\", {got:#018x}) expected {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
