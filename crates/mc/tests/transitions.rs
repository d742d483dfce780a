//! Pins the builtin model's transition relation and its orbit
//! representatives. Seeded random walks fold every visited state and
//! each of its successors, packed and in emission order, into one 64-bit
//! FNV-1a digest per configuration, so a change to any rule, to the
//! order the rules fire in, or to the packed encoding moves a digest. A
//! second digest folds each successor's orbit representative and orbit
//! size: `tests/canon.rs` checks canon's laws, which any consistent
//! choice of representative satisfies, while this pins the choice that
//! every symmetric witness and spilled word depends on. The `Debug`
//! rendering of a state, which `ccsql mc` prints as its witness line, is
//! pinned as well.

use ccsql_mc::state::{Busy, Cache, Dir, Req, Resp, Snoop};
use ccsql_mc::{canon, orbit_size, pack, Model, State};
use ccsql_obs::SplitMix64;

/// States visited per configuration.
const STEPS: usize = 2_000;
/// A walk restarts from the initial state with probability 1/this per
/// step, so it covers shallow and deep states alike.
const RESTART_ONE_IN: u64 = 64;

/// `(nodes, quota, resp_depth, transitions, representatives)`: nodes
/// 2..=5 × quota 1..=3 at response depth 2, plus depths 1 and 3 at three
/// nodes. `transitions` is the digest of the walk's packed states,
/// `representatives` that of its successors' orbit representatives and
/// orbit sizes.
const DIGESTS: [(usize, u8, usize, u64, u64); 18] = [
    (2, 1, 2, 0xc2ee_56d0_486b_1112, 0x0d11_992c_6704_095d),
    (2, 2, 2, 0x2eff_15b5_0b3b_32a3, 0x748c_dfcf_f61e_69fc),
    (2, 3, 2, 0xec92_95f7_3527_7142, 0xa918_0fef_8c44_2163),
    (3, 1, 2, 0xb198_1207_8ab0_22a5, 0x2630_43fc_5ce6_284c),
    (3, 2, 2, 0xfc86_14a5_f426_ac7b, 0x46b2_746b_9fdd_d6e2),
    (3, 3, 2, 0x7519_cbcb_3baf_35ac, 0xaac2_6eed_9b18_5092),
    (4, 1, 2, 0x88dc_6cdc_ef94_d81b, 0xb5ab_01e8_30f7_9a8f),
    (4, 2, 2, 0xee42_5039_4d4e_6be6, 0xd57b_3d82_5438_f27f),
    (4, 3, 2, 0x9309_826d_863d_2c8e, 0xa5bb_f0c9_74b3_3bc4),
    (5, 1, 2, 0xca6e_9ef5_4631_a3c4, 0x8bcb_7355_817b_8cec),
    (5, 2, 2, 0xf40f_07fe_3a26_9889, 0x0e13_6a52_5278_70f9),
    (5, 3, 2, 0x4675_fb70_afda_4dd7, 0x66d1_1e25_1e63_593f),
    (3, 1, 1, 0x1cb0_6b2c_00f9_4a84, 0x095a_6dda_1f60_d3bc),
    (3, 2, 1, 0x5301_c248_181d_c358, 0x962a_67d2_3a7e_09ca),
    (3, 3, 1, 0xc2db_a70d_9e2d_4f94, 0x0544_0b3d_1412_6c3e),
    (3, 1, 3, 0xdc70_cccd_48d5_38c7, 0x53e0_e07b_974f_7325),
    (3, 2, 3, 0xc5ab_ccb5_677a_4fea, 0x6323_cc56_e034_c6eb),
    (3, 3, 3, 0x1f10_84f4_994f_2278, 0x4258_6cb4_c11d_91d5),
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

fn fold_state(h: u64, s: &State) -> u64 {
    fnv1a(h, &pack(s).0.to_le_bytes())
}

/// Fold the orbit representative of `s` and the size of its orbit.
fn fold_orbit(h: u64, s: &State) -> u64 {
    let c = pack(s);
    let h = fnv1a(h, &canon(c).0.to_le_bytes());
    fnv1a(h, &orbit_size(c).to_le_bytes())
}

/// The two digests of one seeded walk: each state, its successor count,
/// then its successors in emission order; and each successor's orbit
/// representative and orbit size, in the same order.
fn walk_digests(model: &Model) -> (u64, u64) {
    let seed = 0x7A5E_0000
        ^ ((model.nodes as u64) << 8)
        ^ (u64::from(model.quota) << 4)
        ^ model.resp_depth as u64;
    let mut rng = SplitMix64::new(seed);
    let (mut h, mut orbits) = (FNV_OFFSET, FNV_OFFSET);
    let mut s = model.initial();
    for _ in 0..STEPS {
        let mut succ = model.successors(&s);
        h = fold_state(h, &s);
        h = fnv1a(h, &(succ.len() as u64).to_le_bytes());
        for t in &succ {
            h = fold_state(h, t);
            orbits = fold_orbit(orbits, t);
        }
        s = if succ.is_empty() || rng.gen_range_u64(RESTART_ONE_IN) == 0 {
            model.initial()
        } else {
            let i = rng.gen_range_u64(succ.len() as u64) as usize;
            succ.swap_remove(i)
        };
    }
    (h, orbits)
}

#[test]
fn random_walks_fire_the_same_transitions_in_the_same_order() {
    let mut mismatches = Vec::new();
    for &(nodes, quota, resp_depth, want, want_orbits) in &DIGESTS {
        let model = Model {
            nodes,
            quota,
            resp_depth,
        };
        let (got, got_orbits) = walk_digests(&model);
        if (got, got_orbits) != (want, want_orbits) {
            mismatches.push(format!(
                "({nodes}, {quota}, {resp_depth}, {got:#018x}, {got_orbits:#018x}) \
                 expected {want:#018x}, {want_orbits:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn a_busy_state_with_queued_responses_prints_as_before() {
    let mut s = State::initial(3, 2);
    s.cache[0] = Cache::M;
    s.cache[2] = Cache::S;
    s.pend[0] = Some(Req::Wb);
    s.pend[1] = Some(Req::ReadEx);
    s.req[1] = Some(Req::ReadEx);
    s.snoop[2] = Some(Snoop::Inv);
    s.sresp[2] = true;
    s.resp[0].push(Resp::Compl);
    s.resp[2].push(Resp::Retry);
    s.resp[2].push(Resp::Data);
    s.quota[1] = 1;
    s.dir = Dir::Mesi;
    s.pv = 0b101;
    s.busy = Some(Busy {
        req: Req::ReadEx,
        requester: 1,
        pending: 1,
    });
    assert_eq!(
        format!("{s:?}"),
        "State { cache: [M, I, S], pend: [Some(Wb), Some(ReadEx), None], \
         req: [None, Some(ReadEx), None], snoop: [None, None, Some(Inv)], \
         sresp: [false, false, true], resp: [[Compl], [], [Retry, Data]], dir: Mesi, \
         pv: 5, busy: Some(Busy { req: ReadEx, requester: 1, pending: 1 }), \
         quota: [2, 1, 2] }"
    );
}
