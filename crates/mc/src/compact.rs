//! Bit-packed states and node-permutation (scalarset) canonicalisation.
//!
//! The abstract machine's nodes are fully symmetric: permuting the node
//! indices of a reachable state yields another reachable state, and
//! every safety property of [`crate::model::Model::check`] is a count
//! over nodes, so it cannot tell orbit members apart. The explorer
//! therefore only needs to visit one representative per permutation
//! orbit — the classic Murphi scalarset quotient (Norris Ip & Dill) —
//! which divides the reachable space by up to `n!`.
//!
//! Two pieces live here:
//!
//! * [`pack`] / [`unpack`] — a [`Compact`] encoding of a whole
//!   [`State`] in one `u128` (16 bytes): a 12-bit global header
//!   (directory state + in-flight transaction), one 22-bit *lane* per
//!   node, and the node count in the top bits. The visited arena stores
//!   these words instead of heap-backed `State`s: membership probes
//!   compare a `u128`, and 400k states cost 6.4 MB instead of
//!   ~hundreds of bytes each across seven `Vec`s.
//! * [`canon`] — the orbit canonicaliser. Because the per-node lane
//!   carries *everything* that moves with a node under a permutation —
//!   cache state, pending op, request/snoop/response slots, quota,
//!   **and the node's presence-vector bit** — while the only remaining
//!   node reference (the busy transaction's requester) is appended as a
//!   tie-breaking bit, a state is exactly (global header, multiset of
//!   augmented lanes). Sorting the lanes therefore yields the
//!   lexicographically-least member of the orbit in `O(n log n)`
//!   instead of enumerating `n!` permutations.
//!
//! [`orbit_size`] computes `n! / ∏ (lane multiplicity)!` — the exact
//! number of full states a canonical representative stands for. Summing
//! it over the quotient's reachable states reproduces the full
//! reachable count exactly, which `tests/symmetry.rs` uses as an
//! equivalence gate against a symmetry-off run.

use crate::state::{Busy, Cache, Dir, Req, Resp, Snoop, State};

/// Largest node count the 128-bit encoding supports
/// (`12 + 22·5 + 3 = 125 ≤ 128` bits).
pub const MAX_NODES: usize = 5;
/// Largest per-node operation quota (2-bit field).
pub const MAX_QUOTA: u8 = 3;
/// Largest response-queue depth (2-bit length + 3 × 2-bit entries).
pub const MAX_RESP_DEPTH: usize = 3;

/// Global header width: dir (2) + busy present (1) + busy.req (3) +
/// busy.requester (3) + busy.pending (3).
const GLOBAL_BITS: u32 = 12;
/// Per-node lane width: cache (2) + pend (3) + req (3) + snoop (2) +
/// sresp (1) + in_pv (1) + quota (2) + resp len (2) + 3 resp entries
/// (2 each).
const LANE_BITS: u32 = 22;
const LANE_MASK: u128 = (1 << LANE_BITS) - 1;
/// The node count lives above the last lane (3 bits, values 1..=5).
const NODES_SHIFT: u32 = GLOBAL_BITS + LANE_BITS * MAX_NODES as u32;
/// Busy-requester field position within the global header.
const REQUESTER_SHIFT: u32 = 6;

#[inline]
fn lane_shift(i: usize) -> u32 {
    GLOBAL_BITS + LANE_BITS * i as u32
}

/// A whole abstract-machine state in one `u128`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Compact(pub u128);

impl std::fmt::Debug for Compact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Compact({:#034x})", self.0)
    }
}

impl Compact {
    /// Node count stored in the encoding (self-describing, so
    /// [`unpack`] needs no side channel).
    pub fn nodes(&self) -> usize {
        ((self.0 >> NODES_SHIFT) & 0x7) as usize
    }
}

#[inline]
fn cache_code(c: Cache) -> u128 {
    match c {
        Cache::I => 0,
        Cache::S => 1,
        Cache::E => 2,
        Cache::M => 3,
    }
}

#[inline]
fn cache_from(v: u128) -> Cache {
    match v & 0x3 {
        0 => Cache::I,
        1 => Cache::S,
        2 => Cache::E,
        _ => Cache::M,
    }
}

#[inline]
fn req_code(r: Option<Req>) -> u128 {
    match r {
        None => 0,
        Some(Req::Read) => 1,
        Some(Req::ReadEx) => 2,
        Some(Req::Upgrade) => 3,
        Some(Req::Wb) => 4,
        Some(Req::Replace) => 5,
    }
}

#[inline]
fn req_from(v: u128) -> Option<Req> {
    match v & 0x7 {
        0 => None,
        1 => Some(Req::Read),
        2 => Some(Req::ReadEx),
        3 => Some(Req::Upgrade),
        4 => Some(Req::Wb),
        _ => Some(Req::Replace),
    }
}

#[inline]
fn snoop_code(s: Option<Snoop>) -> u128 {
    match s {
        None => 0,
        Some(Snoop::Inv) => 1,
        Some(Snoop::Down) => 2,
    }
}

#[inline]
fn snoop_from(v: u128) -> Option<Snoop> {
    match v & 0x3 {
        0 => None,
        1 => Some(Snoop::Inv),
        _ => Some(Snoop::Down),
    }
}

#[inline]
fn resp_code(r: Resp) -> u128 {
    match r {
        Resp::Data => 0,
        Resp::EData => 1,
        Resp::Compl => 2,
        Resp::Retry => 3,
    }
}

#[inline]
fn resp_from(v: u128) -> Resp {
    match v & 0x3 {
        0 => Resp::Data,
        1 => Resp::EData,
        2 => Resp::Compl,
        _ => Resp::Retry,
    }
}

#[inline]
fn dir_code(d: Dir) -> u128 {
    match d {
        Dir::I => 0,
        Dir::Si => 1,
        Dir::Mesi => 2,
    }
}

#[inline]
fn dir_from(v: u128) -> Dir {
    match v & 0x3 {
        0 => Dir::I,
        1 => Dir::Si,
        _ => Dir::Mesi,
    }
}

/// Pack `s` into its 128-bit encoding.
///
/// Panics when `s` exceeds the encoding bounds ([`MAX_NODES`],
/// [`MAX_QUOTA`], [`MAX_RESP_DEPTH`]); the explorer validates the model
/// parameters up front, so reachable states always fit.
pub fn pack(s: &State) -> Compact {
    let n = s.nodes();
    assert!(
        (1..=MAX_NODES).contains(&n),
        "pack: {n} nodes exceed MAX_NODES={MAX_NODES}"
    );
    let mut w: u128 = (n as u128) << NODES_SHIFT;
    w |= dir_code(s.dir);
    if let Some(b) = s.busy {
        debug_assert!((b.requester as usize) < n && (b.pending as usize) < 8);
        w |= 1 << 2;
        w |= req_code(Some(b.req)) << 3;
        w |= (b.requester as u128) << REQUESTER_SHIFT;
        w |= (b.pending as u128) << 9;
    }
    for i in 0..n {
        assert!(
            s.quota[i] <= MAX_QUOTA,
            "pack: quota {} exceeds MAX_QUOTA={MAX_QUOTA}",
            s.quota[i]
        );
        assert!(
            s.resp[i].len() <= MAX_RESP_DEPTH,
            "pack: resp queue depth {} exceeds MAX_RESP_DEPTH={MAX_RESP_DEPTH}",
            s.resp[i].len()
        );
        let mut lane: u128 = cache_code(s.cache[i]);
        lane |= req_code(s.pend[i]) << 2;
        lane |= req_code(s.req[i]) << 5;
        lane |= snoop_code(s.snoop[i]) << 8;
        lane |= (s.sresp[i] as u128) << 10;
        lane |= (s.in_pv(i) as u128) << 11;
        lane |= (s.quota[i] as u128) << 12;
        lane |= (s.resp[i].len() as u128) << 14;
        for (k, &r) in s.resp[i].iter().enumerate() {
            lane |= resp_code(r) << (16 + 2 * k as u32);
        }
        w |= lane << lane_shift(i);
    }
    Compact(w)
}

/// Unpack a [`Compact`] word back into the structural [`State`].
/// Inverse of [`pack`]: `unpack(pack(s)) == s` for every in-bounds
/// state (pinned by the round-trip property tests).
pub fn unpack(c: Compact) -> State {
    let n = c.nodes();
    let w = c.0;
    let mut s = State::initial(n, 0);
    s.dir = dir_from(w);
    if (w >> 2) & 1 == 1 {
        s.busy = Some(Busy {
            req: req_from(w >> 3).expect("busy transaction carries a request"),
            requester: ((w >> REQUESTER_SHIFT) & 0x7) as u8,
            pending: ((w >> 9) & 0x7) as u8,
        });
    }
    let mut pv = 0u16;
    for i in 0..n {
        let lane = w >> lane_shift(i);
        s.cache[i] = cache_from(lane);
        s.pend[i] = req_from(lane >> 2);
        s.req[i] = req_from(lane >> 5);
        s.snoop[i] = snoop_from(lane >> 8);
        s.sresp[i] = (lane >> 10) & 1 == 1;
        if (lane >> 11) & 1 == 1 {
            pv |= 1 << i;
        }
        s.quota[i] = ((lane >> 12) & 0x3) as u8;
        let len = ((lane >> 14) & 0x3) as usize;
        s.resp[i] = (0..len).map(|k| resp_from(lane >> (16 + 2 * k))).collect();
    }
    s.pv = pv;
    s
}

/// The augmented per-node sort keys: the 22-bit lane with the
/// busy-requester membership appended as the low bit. Everything that a
/// node permutation moves is in here, so two nodes with equal keys are
/// fully interchangeable.
#[inline]
fn node_keys(c: Compact) -> ([u32; MAX_NODES], usize) {
    let n = c.nodes();
    let w = c.0;
    let busy = (w >> 2) & 1 == 1;
    let requester = ((w >> REQUESTER_SHIFT) & 0x7) as usize;
    let mut keys = [0u32; MAX_NODES];
    for (i, k) in keys.iter_mut().enumerate().take(n) {
        let lane = ((w >> lane_shift(i)) & LANE_MASK) as u32;
        *k = (lane << 1) | u32::from(busy && requester == i);
    }
    (keys, n)
}

/// Insertion sort — `n ≤ 5`, branch-predictable, no allocation.
#[inline]
fn sort_keys(keys: &mut [u32]) {
    for i in 1..keys.len() {
        let mut j = i;
        while j > 0 && keys[j - 1] > keys[j] {
            keys.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Canonicalise `c` to the lexicographically-least member of its
/// node-permutation orbit by sorting the augmented node lanes.
///
/// Idempotent and permutation-invariant: `canon(σ·s) == canon(s)` for
/// every node permutation `σ` (pinned by the property tests in
/// `tests/canon.rs`).
pub fn canon(c: Compact) -> Compact {
    let (mut keys, n) = node_keys(c);
    let keys = &mut keys[..n];
    sort_keys(keys);
    // Rebuild: global header minus the requester field, then the sorted
    // lanes; the requester index is wherever its tag bit landed.
    let mut w = c.0 & !(0x7u128 << REQUESTER_SHIFT);
    for i in 0..n {
        w &= !(LANE_MASK << lane_shift(i));
    }
    for (i, &k) in keys.iter().enumerate() {
        w |= ((k >> 1) as u128) << lane_shift(i);
        if k & 1 == 1 {
            w |= (i as u128) << REQUESTER_SHIFT;
        }
    }
    Compact(w)
}

const FACT: [u64; MAX_NODES + 1] = [1, 1, 2, 6, 24, 120];

/// Number of distinct full states in the orbit of `c`:
/// `n! / ∏ multiplicity!` over the multiset of augmented node lanes.
pub fn orbit_size(c: Compact) -> u64 {
    let (mut keys, n) = node_keys(c);
    let keys = &mut keys[..n];
    sort_keys(keys);
    let mut size = FACT[n];
    let mut run = 1usize;
    for i in 1..n {
        if keys[i] == keys[i - 1] {
            run += 1;
        } else {
            size /= FACT[run];
            run = 1;
        }
    }
    size / FACT[run]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_round_trips_and_is_canonical() {
        for n in 1..=MAX_NODES {
            let s = State::initial(n, 2);
            let c = pack(&s);
            assert_eq!(c.nodes(), n);
            assert_eq!(unpack(c), s);
            // All nodes identical → already canonical, orbit of one.
            assert_eq!(canon(c), c);
            assert_eq!(orbit_size(c), 1);
        }
    }

    #[test]
    fn busy_and_queues_round_trip() {
        let mut s = State::initial(3, 1);
        s.cache = vec![Cache::M, Cache::I, Cache::S];
        s.pend = vec![Some(Req::Wb), None, Some(Req::Upgrade)];
        s.req = vec![None, Some(Req::ReadEx), None];
        s.snoop = vec![None, None, Some(Snoop::Down)];
        s.sresp = vec![false, true, false];
        s.resp = vec![vec![Resp::Retry, Resp::Data], vec![], vec![Resp::EData]];
        s.dir = Dir::Mesi;
        s.pv = 0b101;
        s.busy = Some(Busy {
            req: Req::Read,
            requester: 2,
            pending: 1,
        });
        s.quota = vec![0, 3, 1];
        assert_eq!(unpack(pack(&s)), s);
    }

    #[test]
    fn canon_sorts_two_swapped_nodes_to_one_representative() {
        let mut a = State::initial(2, 1);
        a.cache[0] = Cache::M;
        a.pv = 0b01;
        a.dir = Dir::Mesi;
        let b = a.permuted(&[1, 0]);
        assert_ne!(pack(&a), pack(&b));
        assert_eq!(canon(pack(&a)), canon(pack(&b)));
        assert_eq!(orbit_size(pack(&a)), 2);
    }

    #[test]
    fn requester_moves_with_its_node() {
        // Two otherwise-identical nodes distinguished only by which one
        // the busy transaction belongs to: the orbit has 2 members and
        // canon must agree after swapping them.
        let mut a = State::initial(2, 1);
        a.busy = Some(Busy {
            req: Req::ReadEx,
            requester: 1,
            pending: 1,
        });
        let b = a.permuted(&[1, 0]);
        assert_eq!(b.busy.unwrap().requester, 0);
        assert_eq!(canon(pack(&a)), canon(pack(&b)));
        assert_eq!(orbit_size(pack(&a)), 2);
        // The canonical witness is still a state of the same orbit.
        let w = unpack(canon(pack(&a)));
        assert!(w.busy.is_some());
    }

    #[test]
    fn orbit_size_counts_multiplicities() {
        // 4 nodes: two identical invalid nodes, two distinct ones →
        // 4! / 2! = 12.
        let mut s = State::initial(4, 1);
        s.cache[0] = Cache::S;
        s.cache[1] = Cache::E;
        s.pv = 0b0011;
        s.dir = Dir::Mesi;
        assert_eq!(orbit_size(pack(&s)), 12);
    }

    #[test]
    #[should_panic(expected = "MAX_NODES")]
    fn pack_rejects_too_many_nodes() {
        let s = State::initial(MAX_NODES + 1, 1);
        let _ = pack(&s);
    }
}
