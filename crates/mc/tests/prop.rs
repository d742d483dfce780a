//! Seeded random walks through the model checker's transition relation:
//! states keep their structural sanity, and quiescent states only ever
//! enable issue rules. (Safety along walks needs no test of its own: the
//! exhaustive `Verified` runs in `parallel.rs` and `symmetry.rs` check
//! every reachable state.)

use ccsql_mc::{Model, State};
use ccsql_obs::SplitMix64;

const CASES: u64 = 64;

/// A walk of up to `max_len` random successor choices from the initial
/// state, stopping early at a state with no successors.
fn walk(model: &Model, r: &mut SplitMix64, max_len: u64) -> Vec<State> {
    let mut s = model.initial();
    let mut path = vec![s];
    for _ in 0..r.gen_range_u64(max_len) {
        let succ = model.successors(&s);
        if succ.is_empty() {
            break;
        }
        s = succ[r.gen_range_u64(succ.len() as u64) as usize];
        path.push(s);
    }
    path
}

#[test]
fn walks_preserve_structure() {
    for case in 0..CASES {
        let r = &mut SplitMix64::new(0x3A1C_5000 ^ case);
        let nodes = 2 + r.gen_range_u64(2) as usize;
        let m = Model {
            nodes,
            quota: 2,
            resp_depth: 2,
        };
        for s in walk(&m, r, 60) {
            assert_eq!(s.nodes(), nodes, "case {case}");
            // The presence vector never names nodes outside the system.
            assert_eq!(s.pv >> nodes, 0, "case {case}: {s:?}");
            // Busy pending counts stay within the node count.
            if let Some(b) = s.busy {
                assert!((b.pending as usize) < nodes.max(2), "case {case}: {s:?}");
                assert!((b.requester as usize) < nodes, "case {case}: {s:?}");
            }
            // Response queues respect the bound.
            for q in &s.resp {
                assert!(q.len() <= 2, "case {case}: {s:?}");
            }
        }
    }
}

#[test]
fn quiescent_states_are_stable_or_issue() {
    for case in 0..CASES {
        let r = &mut SplitMix64::new(0x0015_5AE5 ^ case);
        let nodes = 2 + r.gen_range_u64(2) as usize;
        let m = Model {
            nodes,
            quota: 1,
            resp_depth: 2,
        };
        for s in walk(&m, r, 40) {
            if s.quiescent() {
                // From quiescence the only enabled rules are issues.
                for t in m.successors(&s) {
                    let issued = (0..nodes).filter(|&i| t.req[i].is_some()).count();
                    assert_eq!(issued, 1, "case {case}: {s:?} -> {t:?}");
                }
            }
        }
    }
}
