//! Properties of the protocol domain — presence-vector algebra,
//! placement canonicalisation and busy-state naming, checked
//! exhaustively over their (small) domains — and structural invariants
//! of every generated controller table.

use ccsql_protocol::states;
use ccsql_protocol::topology::{NodeId, PresenceVector, QuadPlacement, Role, PLACEMENTS};
use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::{GenMode, Relation};
use std::sync::OnceLock;

/// Every node of the 4-quad × 4-node system.
fn all_nodes() -> impl Iterator<Item = NodeId> {
    (0..4).flat_map(|q| (0..4).map(move |n| NodeId::new(q, n)))
}

/// Every 16-bit presence vector.
fn all_pvs() -> impl Iterator<Item = PresenceVector> {
    (0..=u16::MAX).map(PresenceVector)
}

#[test]
fn pv_set_clear_inverse() {
    for pv in all_pvs() {
        for n in all_nodes() {
            let mut with = pv;
            with.set(n);
            assert!(with.contains(n));
            let mut without = with;
            without.clear(n);
            assert!(!without.contains(n));
            // Clearing only removes that node.
            assert_eq!(without.0, pv.0 & !(1 << n.flat()), "{pv:?} {n}");
        }
    }
}

#[test]
fn pv_encoding_matches_count() {
    for pv in all_pvs() {
        let want = match pv.count() {
            0 => "zero",
            1 => "one",
            _ => "gone",
        };
        assert_eq!(pv.encoding(), want, "{pv:?}");
        assert_eq!(pv.nodes().len() as u32, pv.count(), "{pv:?}");
    }
}

#[test]
fn pv_ops_preserve_validity() {
    for pv in all_pvs() {
        for n in all_nodes() {
            assert!(pv.apply_op("inc", n).contains(n));
            assert!(!pv.apply_op("dec", n).contains(n));
            let repl = pv.apply_op("repl", n);
            assert_eq!(repl.count(), 1);
            assert!(repl.contains(n));
            let drepl = pv.apply_op("drepl", n);
            if pv.0 == 0 {
                assert!(drepl.contains(n));
            } else {
                assert_eq!(drepl, pv, "{n}");
            }
        }
    }
}

#[test]
fn placement_canon_is_idempotent_projection() {
    for &placement in PLACEMENTS {
        for r in [Role::Local, Role::Home, Role::Remote] {
            let once = placement.canon(r);
            assert_eq!(placement.canon(once), once, "{placement:?}");
            // same_quad is an equivalence relation under canon.
            assert!(placement.same_quad(r, r));
        }
        // AllDistinct is the only identity placement.
        let identity = [Role::Local, Role::Home, Role::Remote]
            .iter()
            .all(|&r| placement.canon(r) == r);
        assert_eq!(identity, placement == QuadPlacement::AllDistinct);
    }
}

#[test]
fn busy_state_names_parse_back() {
    // Skip the leading idle "I".
    for name in &states::busy_states()[1..] {
        assert!(states::family_of_busy(name).is_some(), "{name}");
        assert!(states::pending_of_busy(name).is_some(), "{name}");
    }
}

// ------------------------------------------------------------------
// Structural properties of every generated table (deterministic, but
// expressed as exhaustive checks across all controllers).

fn tables() -> &'static Vec<(&'static str, Relation)> {
    static TABLES: OnceLock<Vec<(&'static str, Relation)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let p = ProtocolSpec::asura();
        let ctx = ProtocolSpec::eval_context();
        p.controllers
            .iter()
            .map(|c| {
                (
                    c.name,
                    c.spec.generate(GenMode::Incremental, &ctx).unwrap().0,
                )
            })
            .collect()
    })
}

#[test]
fn every_table_has_functional_inputs() {
    // The inputs of each table form a key: the controllers are
    // deterministic state machines.
    let p = ProtocolSpec::asura();
    for (name, rel) in tables() {
        let spec = &p.controller(name).unwrap().spec;
        let inputs = spec.input_names();
        let mut seen = std::collections::HashSet::new();
        let idx: Vec<usize> = inputs
            .iter()
            .map(|c| rel.schema().index_of(*c).unwrap())
            .collect();
        for r in rel.rows() {
            let key: Vec<_> = idx.iter().map(|&i| r[i]).collect();
            assert!(
                seen.insert(key.clone()),
                "{name}: duplicate input combination {key:?}"
            );
        }
    }
}

#[test]
fn every_cell_is_within_its_column_table() {
    let p = ProtocolSpec::asura();
    for (name, rel) in tables() {
        let spec = &p.controller(name).unwrap().spec;
        for col in &spec.columns {
            let i = rel.schema().index_of(col.name).unwrap();
            for r in rel.rows() {
                assert!(
                    col.values.contains(&r[i]),
                    "{name}.{}: illegal value {:?}",
                    col.name,
                    r[i]
                );
            }
        }
    }
}

#[test]
fn message_triples_are_null_consistent() {
    let p = ProtocolSpec::asura();
    for (name, rel) in tables() {
        let ctrl = p.controller(name).unwrap();
        for t in ctrl.input_triples.iter().chain(&ctrl.output_triples) {
            let m = rel.schema().index_of_str(t.msg).unwrap();
            let s = rel.schema().index_of_str(t.src).unwrap();
            let d = rel.schema().index_of_str(t.dest).unwrap();
            for r in rel.rows() {
                // For outputs NULL-ness must agree; inputs may have
                // NULL src (processor-side ops) with a real message.
                if r[m].is_null() {
                    assert!(
                        r[s].is_null() && r[d].is_null(),
                        "{name}: {} NULL but src/dest set",
                        t.msg
                    );
                }
            }
        }
    }
}
