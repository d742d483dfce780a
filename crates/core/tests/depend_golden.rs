//! Pins the protocol dependency tables. For each channel assignment
//! (V0, V1, V2), analysis configuration (the default and
//! `exact_only`) and closure setting (one composition pass, or the
//! transitive closure), one 64-bit FNV-1a digest folds every row's
//! input, output, placement and provenance in table order, so a change
//! to which rows exist, their order or the pair a composed row names as
//! its witness moves a digest.

use ccsql::depend::{protocol_dependency_table, AnalysisConfig};
use ccsql::gen::GeneratedProtocol;
use ccsql::vc::VcAssignment;

/// `(assignment, config, closure, rows, digest)`.
const DIGESTS: [(&str, &str, bool, usize, u64); 12] = [
    ("V0", "default", false, 1716, 0x814873a85335af85),
    ("V0", "default", true, 3221, 0xd006f61c8b4d375e),
    ("V0", "exact_only", false, 102, 0x51624648aa3cc0d4),
    ("V0", "exact_only", true, 177, 0x9c0f06607893f723),
    ("V1", "default", false, 1413, 0x87ecf67513916a64),
    ("V1", "default", true, 2587, 0xaabafcbc168a94ef),
    ("V1", "exact_only", false, 102, 0x983f841945f438e0),
    ("V1", "exact_only", true, 177, 0xff075eda22b2764b),
    ("V2", "default", false, 785, 0x3382d5dd600d48f6),
    ("V2", "default", true, 995, 0x55d4f92b96329b0f),
    ("V2", "exact_only", false, 72, 0xfd1728036d26837d),
    ("V2", "exact_only", true, 80, 0xba65089d18e9f7a8),
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

#[test]
fn dependency_tables_match_their_pinned_digests() {
    let gen = GeneratedProtocol::generate_default().unwrap();
    let mut got = Vec::new();
    for v in [VcAssignment::v0(), VcAssignment::v1(), VcAssignment::v2()] {
        for (config, base) in [
            ("default", AnalysisConfig::default()),
            ("exact_only", AnalysisConfig::exact_only()),
        ] {
            for closure in [false, true] {
                let cfg = AnalysisConfig {
                    transitive_closure: closure,
                    ..base.clone()
                };
                let table = protocol_dependency_table(&gen, &v, &cfg).unwrap();
                let mut h = FNV_OFFSET;
                for r in &table.rows {
                    let line = format!(
                        "{:?} {:?} {:?} {:?}\n",
                        r.input, r.output, r.placement, r.provenance
                    );
                    h = fnv1a(h, line.as_bytes());
                }
                got.push((v.name, config, closure, table.rows.len(), h));
            }
        }
    }
    let listing: String = got
        .iter()
        .map(|(v, c, closure, rows, d)| {
            format!("    (\"{v}\", \"{c}\", {closure}, {rows}, {d:#018x}),\n")
        })
        .collect();
    assert_eq!(got, DIGESTS, "digests moved; the tables give\n{listing}");
}
