//! Property test: `Vcg::simple_cycles` against a brute-force simple
//! cycle enumerator, over randomly generated small VCGs.
//!
//! No property-testing framework is available (zero-dependency repo),
//! so this is the classic hand-rolled shape: a seeded `SplitMix64`
//! drives case generation, every failure prints its seed, and re-running
//! with that seed reproduces the case exactly.

use ccsql::depend::{Assignment, DepRow, DependencyTable, Provenance};
use ccsql::vcg::Vcg;
use ccsql_obs::SplitMix64;
use ccsql_protocol::topology::{QuadPlacement, Role};
use ccsql_relalg::Sym;
use std::collections::BTreeSet;

const MAX_CHANNELS: usize = 8;
const CASES: u64 = 200;

fn vc(i: usize) -> Sym {
    Sym::intern(&format!("VC{i}"))
}

/// A random dependency table over at most [`MAX_CHANNELS`] channels.
/// Edge density is itself randomised per case so the suite covers the
/// sparse (mostly acyclic) and dense (many overlapping cycles) regimes.
fn random_table(rng: &mut SplitMix64) -> DependencyTable {
    let n = 2 + (rng.next_u64() as usize) % (MAX_CHANNELS - 1);
    let density_pct = 5 + rng.next_u64() % 40;
    let mut rows = Vec::new();
    for from in 0..n {
        for to in 0..n {
            if rng.next_u64() % 100 < density_pct {
                rows.push(DepRow {
                    input: Assignment {
                        msg: Sym::intern("m_in"),
                        src: Role::Home,
                        dest: Role::Home,
                        vc: vc(from),
                    },
                    output: Assignment {
                        msg: Sym::intern("m_out"),
                        src: Role::Home,
                        dest: Role::Home,
                        vc: vc(to),
                    },
                    placement: QuadPlacement::AllDistinct,
                    provenance: Provenance::Direct {
                        controller: Sym::intern("T"),
                        row: 0,
                    },
                });
            }
        }
    }
    DependencyTable { rows }
}

/// Canonical form of a simple cycle: rotate the vertex sequence so the
/// smallest vertex leads. Two edge lists describe the same simple cycle
/// iff their canonical forms agree.
fn canon(edges: &[ccsql::vcg::Edge]) -> Vec<Sym> {
    let verts: Vec<Sym> = edges.iter().map(|e| e.from).collect();
    let min = verts
        .iter()
        .enumerate()
        .min_by_key(|&(_, v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = verts[min..].to_vec();
    out.extend_from_slice(&verts[..min]);
    out
}

/// Brute-force enumeration of every simple cycle: DFS from each root
/// over nodes ≥ root (the same canonical rooting the implementation
/// uses, re-derived independently from the raw adjacency).
fn brute_force_cycles(table: &DependencyTable) -> BTreeSet<Vec<Sym>> {
    // Independent adjacency reconstruction from the rows.
    let mut verts: Vec<Sym> = table
        .rows
        .iter()
        .flat_map(|r| [r.input.vc, r.output.vc])
        .collect();
    verts.sort();
    verts.dedup();
    let idx = |s: Sym| verts.iter().position(|&v| v == s).unwrap();
    let mut adj = vec![BTreeSet::new(); verts.len()];
    for r in &table.rows {
        adj[idx(r.input.vc)].insert(idx(r.output.vc));
    }
    let mut out = BTreeSet::new();
    let n = verts.len();
    for root in 0..n {
        let mut stack = vec![(root, vec![root])];
        while let Some((v, path)) = stack.pop() {
            for &w in &adj[v] {
                if w == root {
                    out.insert(canon_indices(&path, &verts));
                } else if w > root && !path.contains(&w) {
                    let mut p = path.clone();
                    p.push(w);
                    stack.push((w, p));
                }
            }
        }
    }
    out
}

fn canon_indices(path: &[usize], verts: &[Sym]) -> Vec<Sym> {
    let syms: Vec<Sym> = path.iter().map(|&i| verts[i]).collect();
    let min = syms
        .iter()
        .enumerate()
        .min_by_key(|&(_, v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = syms[min..].to_vec();
    out.extend_from_slice(&syms[..min]);
    out
}

#[test]
fn simple_cycles_match_brute_force() {
    let mut rng = SplitMix64::new(0xCC5A_11DE_ADBE_EF01);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let mut case_rng = SplitMix64::new(seed);
        let table = random_table(&mut case_rng);
        let expected = brute_force_cycles(&table);
        let g = Vcg::build(&table);

        // Uncapped enumeration must agree exactly with brute force.
        let got = g.simple_cycles(usize::MAX);
        let got_canon: BTreeSet<Vec<Sym>> = got.iter().map(|c| canon(c)).collect();
        assert_eq!(
            got_canon.len(),
            got.len(),
            "case {case} (seed {seed:#x}): duplicate simple cycles"
        );
        assert_eq!(
            got_canon, expected,
            "case {case} (seed {seed:#x}): cycle sets differ"
        );

        // Every reported edge list is a closed walk over real edges.
        for c in &got {
            assert_eq!(c[0].from, c[c.len() - 1].to, "seed {seed:#x}: not closed");
            for w in c.windows(2) {
                assert_eq!(w[0].to, w[1].from, "seed {seed:#x}: walk breaks");
            }
            for e in c {
                assert!(
                    g.has_edge(e.from.as_str(), e.to.as_str()),
                    "seed {seed:#x}: phantom edge {} -> {}",
                    e.from,
                    e.to
                );
            }
        }

        // The cap truncates (never pads) and is exact below the total.
        let total = expected.len();
        for limit in [0, 1, total / 2, total, total + 3] {
            let capped = g.simple_cycles(limit).len();
            assert_eq!(
                capped,
                total.min(limit),
                "case {case} (seed {seed:#x}): limit {limit} of {total}"
            );
        }

        // SCC verdict consistency: cycles exist iff some simple cycle does.
        assert_eq!(
            g.is_acyclic(),
            expected.is_empty(),
            "case {case} (seed {seed:#x}): SCC and enumeration disagree"
        );
    }
}

/// The truncation counter in the deadlock report: a graph with more
/// simple cycles than the cap must set the flag; a small one must not.
#[test]
fn report_truncation_flag_tracks_cap() {
    use ccsql::gen::GeneratedProtocol;
    use ccsql::report::deadlock_report;

    // A complete digraph on 6 vertices has 409 simple cycles — far past
    // the report's cap of 32.
    let mut rows = Vec::new();
    for from in 0..6 {
        for to in 0..6 {
            if from != to {
                rows.push(DepRow {
                    input: Assignment {
                        msg: Sym::intern("m"),
                        src: Role::Home,
                        dest: Role::Home,
                        vc: vc(from),
                    },
                    output: Assignment {
                        msg: Sym::intern("m"),
                        src: Role::Home,
                        dest: Role::Home,
                        vc: vc(to),
                    },
                    placement: QuadPlacement::AllDistinct,
                    provenance: Provenance::Direct {
                        controller: Sym::intern("T"),
                        row: 0,
                    },
                });
            }
        }
    }
    let dense = DependencyTable { rows };
    assert_eq!(brute_force_cycles(&dense).len(), 409);
    let gen = GeneratedProtocol::generate_default().unwrap();
    let rep = deadlock_report(&gen, "T", &dense);
    assert!(rep.simple_cycles_truncated);
    assert_eq!(rep.simple_cycles, 32, "count reports the cap, not beyond");
    assert!(rep.render().contains('≥'), "render marks the lower bound");
}
