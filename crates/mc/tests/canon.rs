//! Property tests for the packed-state encoding and the orbit
//! canonicaliser, driven by a deterministic `SplitMix64` stream. These
//! pin the three algebraic laws
//! the symmetry reduction's soundness rests on:
//!
//! 1. `unpack(pack(s)) == s` — the 128-bit encoding is lossless;
//! 2. `canon(canon(c)) == canon(c)` — canonicalisation is idempotent;
//! 3. `canon(pack(σ·s)) == canon(pack(s))` for every node permutation
//!    `σ` — orbit members collapse to one representative;
//!
//! plus the two facts that make the quotient *sound* and *exact*:
//! `Model::check` cannot distinguish orbit members, and `orbit_size`
//! equals the number of distinct states enumeration of all `n!`
//! permutations produces.

use ccsql_mc::state::{Busy, Cache, Dir, Req, Resp, Snoop};
use ccsql_mc::{canon, orbit_size, pack, unpack, Model, State};
use ccsql_obs::SplitMix64;

const CASES: usize = 400;

/// A random in-bounds state: every field drawn independently, so the
/// generator covers corners BFS from the initial state never reaches
/// (the encoding and canon must be total over the packed domain).
fn random_state(rng: &mut SplitMix64, nodes: usize) -> State {
    let mut s = State::initial(nodes, 0);
    let caches = [Cache::M, Cache::E, Cache::S, Cache::I];
    let reqs = [
        None,
        Some(Req::Read),
        Some(Req::ReadEx),
        Some(Req::Upgrade),
        Some(Req::Wb),
        Some(Req::Replace),
    ];
    let snoops = [None, Some(Snoop::Inv), Some(Snoop::Down)];
    let resps = [Resp::Data, Resp::EData, Resp::Compl, Resp::Retry];
    for i in 0..nodes {
        s.cache[i] = caches[rng.gen_range_u32(4) as usize];
        s.pend[i] = reqs[rng.gen_range_u32(6) as usize];
        s.req[i] = reqs[rng.gen_range_u32(6) as usize];
        s.snoop[i] = snoops[rng.gen_range_u32(3) as usize];
        s.sresp[i] = rng.gen_bool(0.5);
        let len = rng.gen_range_u32(4) as usize;
        for _ in 0..len {
            s.resp[i].push(resps[rng.gen_range_u32(4) as usize]);
        }
        s.quota[i] = rng.gen_range_u32(4) as u8;
        if rng.gen_bool(0.5) {
            s.pv |= 1 << i;
        }
    }
    s.dir = [Dir::I, Dir::Si, Dir::Mesi][rng.gen_range_u32(3) as usize];
    if rng.gen_bool(0.5) {
        s.busy = Some(Busy {
            req: reqs[1 + rng.gen_range_u32(5) as usize].unwrap(),
            requester: rng.gen_range_u32(nodes as u32) as u8,
            pending: rng.gen_range_u32(8) as u8,
        });
    }
    s
}

/// All permutations of `0..n` (n ≤ 5 → at most 120).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            go(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[test]
fn pack_unpack_round_trips_random_states() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..CASES {
        let nodes = 1 + rng.gen_range_u32(5) as usize;
        let s = random_state(&mut rng, nodes);
        let c = pack(&s);
        assert_eq!(c.nodes(), nodes);
        assert_eq!(unpack(c), s, "case {case}: round-trip broke\n{s:#?}");
    }
}

#[test]
fn canon_is_idempotent_on_random_states() {
    let mut rng = SplitMix64::new(0xB0BA);
    for case in 0..CASES {
        let nodes = 1 + rng.gen_range_u32(5) as usize;
        let c = pack(&random_state(&mut rng, nodes));
        let once = canon(c);
        assert_eq!(canon(once), once, "case {case}: canon not idempotent");
        // The representative is a member of the orbit: same multiset of
        // node lanes, same orbit size.
        assert_eq!(orbit_size(once), orbit_size(c), "case {case}");
    }
}

#[test]
fn canon_is_invariant_under_every_permutation() {
    let mut rng = SplitMix64::new(0xFACADE);
    for case in 0..CASES {
        // Full n! sweep at n ≤ 4; n = 5's 120 permutations are covered
        // by the smaller CASES multiplier below.
        let nodes = 2 + rng.gen_range_u32(3) as usize;
        let s = random_state(&mut rng, nodes);
        let rep = canon(pack(&s));
        for perm in permutations(nodes) {
            let t = s.permuted(&perm);
            assert_eq!(
                canon(pack(&t)),
                rep,
                "case {case}: canon(σ·s) != canon(s) for σ={perm:?}\n{s:#?}"
            );
        }
    }
    // n = 5, sampled cases (120 permutations each).
    for case in 0..25 {
        let s = random_state(&mut rng, 5);
        let rep = canon(pack(&s));
        for perm in permutations(5) {
            assert_eq!(canon(pack(&s.permuted(&perm))), rep, "5-node case {case}");
        }
    }
}

#[test]
fn orbit_size_matches_explicit_enumeration() {
    use std::collections::HashSet;
    let mut rng = SplitMix64::new(0xDECADE);
    for case in 0..150 {
        let nodes = 2 + rng.gen_range_u32(4) as usize;
        let s = random_state(&mut rng, nodes);
        let distinct: HashSet<_> = permutations(nodes)
            .iter()
            .map(|p| pack(&s.permuted(p)).0)
            .collect();
        assert_eq!(
            orbit_size(pack(&s)),
            distinct.len() as u64,
            "case {case}: orbit_size disagrees with enumeration over {nodes}! perms"
        );
    }
}

#[test]
fn check_cannot_distinguish_orbit_members() {
    // The soundness precondition of the quotient: every safety property
    // is permutation-invariant, so checking the representative is
    // checking the whole orbit.
    let mut rng = SplitMix64::new(0x5EED);
    for case in 0..CASES {
        let nodes = 2 + rng.gen_range_u32(3) as usize;
        let m = Model {
            nodes,
            quota: 1,
            resp_depth: 3,
        };
        let s = random_state(&mut rng, nodes);
        let verdict = m.check(&s);
        for perm in permutations(nodes) {
            assert_eq!(
                m.check(&s.permuted(&perm)),
                verdict,
                "case {case}: check() told orbit members apart under σ={perm:?}"
            );
        }
    }
}
