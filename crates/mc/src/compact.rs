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
//!   node, and the node count in the top bits. The engine's sorted runs
//!   and spill files store these words instead of the 64-byte inline
//!   `State`s, so 400k states cost 6.4 MB. Every codec function works
//!   on the word's lanes: `split` cuts it at fixed shifts into the
//!   header, `[u32; MAX_NODES]` lanes and the node count, and `join`
//!   puts them back, so no codec function shifts a `u128` by a variable
//!   amount. [`pack`] builds the header and each lane in `u32` and
//!   joins once; [`unpack`] decodes the lanes into per-field arrays and
//!   builds the `State` from them in one go. Both work on stack values
//!   and never allocate, so the explorer's expand (unpack, check, step,
//!   pack) stays off the heap.
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

use crate::state::{Busy, Cache, Dir, PerNode, Req, Resp, RespQueue, Snoop, State};

/// Largest node count the 128-bit encoding supports
/// (`12 + 22·5 + 3 = 125 ≤ 128` bits).
pub const MAX_NODES: usize = 5;
/// Largest per-node operation quota (2-bit field).
pub const MAX_QUOTA: u8 = 3;
/// Largest response-queue depth (2-bit length + 3 × 2-bit entries).
pub const MAX_RESP_DEPTH: usize = 3;
/// Largest count of outstanding snoop responses (3-bit field).
const MAX_PENDING: u8 = 7;

/// Global header width: dir (2) + busy present (1) + busy.req (3) +
/// busy.requester (3) + busy.pending (3).
const GLOBAL_BITS: u32 = 12;
/// Per-node lane width: cache (2) + pend (3) + req (3) + snoop (2) +
/// sresp (1) + in_pv (1) + quota (2) + resp len (2) + 3 resp entries
/// (2 each).
const LANE_BITS: u32 = 22;
const LANE_MASK: u32 = (1 << LANE_BITS) - 1;
/// The node count lives above the last lane (3 bits, values 1..=5).
const NODES_SHIFT: u32 = GLOBAL_BITS + LANE_BITS * MAX_NODES as u32;
/// Busy-requester field position within the global header.
const REQUESTER_SHIFT: u32 = 6;

/// Bit position of lane `i` in the word.
const fn lane_shift(i: usize) -> u32 {
    GLOBAL_BITS + LANE_BITS * i as u32
}

// `split` and `join` are written out for this layout: lanes 0 and 1 in
// the low half, lane 2 across the halves, lanes 3, 4 and the node count
// in the high half; a full response queue fills its lane.
const _: () = assert!(
    MAX_NODES == 5
        && lane_shift(2) < 64
        && lane_shift(3) > 64
        && NODES_SHIFT + 3 <= 128
        && 16 + 2 * MAX_RESP_DEPTH as u32 == LANE_BITS
);

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

/// A word cut into its fields: the 12-bit header, one 22-bit lane per
/// node slot (zero past the node count) and the node count.
struct Lanes {
    header: u32,
    lane: [u32; MAX_NODES],
    nodes: usize,
}

/// Cut `c` at fixed shifts of its two `u64` halves.
#[inline]
fn split(c: Compact) -> Lanes {
    let lo = c.0 as u64;
    let hi = (c.0 >> 64) as u64;
    let lane = |bits: u64| (bits & u64::from(LANE_MASK)) as u32;
    Lanes {
        header: (lo & ((1 << GLOBAL_BITS) - 1)) as u32,
        lane: [
            lane(lo >> lane_shift(0)),
            lane(lo >> lane_shift(1)),
            lane(lo >> lane_shift(2) | hi << (64 - lane_shift(2))),
            lane(hi >> (lane_shift(3) - 64)),
            lane(hi >> (lane_shift(4) - 64)),
        ],
        nodes: ((hi >> (NODES_SHIFT - 64)) & 0x7) as usize,
    }
}

/// The inverse of [`split`].
#[inline]
fn join(w: &Lanes) -> Compact {
    let l = w.lane.map(u64::from);
    let lo =
        u64::from(w.header) | l[0] << lane_shift(0) | l[1] << lane_shift(1) | l[2] << lane_shift(2);
    let hi = l[2] >> (64 - lane_shift(2))
        | l[3] << (lane_shift(3) - 64)
        | l[4] << (lane_shift(4) - 64)
        | (w.nodes as u64) << (NODES_SHIFT - 64);
    Compact(u128::from(hi) << 64 | u128::from(lo))
}

#[inline]
fn cache_code(c: Cache) -> u32 {
    match c {
        Cache::I => 0,
        Cache::S => 1,
        Cache::E => 2,
        Cache::M => 3,
    }
}

#[inline]
fn cache_from(v: u32) -> Cache {
    match v & 0x3 {
        0 => Cache::I,
        1 => Cache::S,
        2 => Cache::E,
        _ => Cache::M,
    }
}

#[inline]
fn req_code(r: Option<Req>) -> u32 {
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
fn req_from(v: u32) -> Option<Req> {
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
fn snoop_code(s: Option<Snoop>) -> u32 {
    match s {
        None => 0,
        Some(Snoop::Inv) => 1,
        Some(Snoop::Down) => 2,
    }
}

#[inline]
fn snoop_from(v: u32) -> Option<Snoop> {
    match v & 0x3 {
        0 => None,
        1 => Some(Snoop::Inv),
        _ => Some(Snoop::Down),
    }
}

#[inline]
fn resp_code(r: Resp) -> u32 {
    match r {
        Resp::Data => 0,
        Resp::EData => 1,
        Resp::Compl => 2,
        Resp::Retry => 3,
    }
}

#[inline]
fn resp_from(v: u32) -> Resp {
    match v & 0x3 {
        0 => Resp::Data,
        1 => Resp::EData,
        2 => Resp::Compl,
        _ => Resp::Retry,
    }
}

#[inline]
fn dir_code(d: Dir) -> u32 {
    match d {
        Dir::I => 0,
        Dir::Si => 1,
        Dir::Mesi => 2,
    }
}

#[inline]
fn dir_from(v: u32) -> Dir {
    match v & 0x3 {
        0 => Dir::I,
        1 => Dir::Si,
        _ => Dir::Mesi,
    }
}

/// Pack `s` into its 128-bit encoding.
///
/// Panics when `s` exceeds the encoding bounds ([`MAX_NODES`],
/// [`MAX_QUOTA`], a busy requester that is not one of the nodes, more
/// than 7 outstanding snoop responses); the explorer validates the
/// model parameters up front, so reachable states always fit. A
/// response queue cannot exceed [`MAX_RESP_DEPTH`]: that is its
/// capacity.
pub fn pack(s: &State) -> Compact {
    let n = s.nodes();
    assert!(
        (1..=MAX_NODES).contains(&n),
        "pack: {n} nodes exceed MAX_NODES={MAX_NODES}"
    );
    let mut header = dir_code(s.dir);
    if let Some(b) = s.busy {
        assert!(
            usize::from(b.requester) < n,
            "pack: busy requester {} is not one of the {n} nodes",
            b.requester
        );
        assert!(
            b.pending <= MAX_PENDING,
            "pack: busy pending {} exceeds MAX_PENDING={MAX_PENDING}",
            b.pending
        );
        header |= 1 << 2
            | req_code(Some(b.req)) << 3
            | u32::from(b.requester) << REQUESTER_SHIFT
            | u32::from(b.pending) << 9;
    }
    let (cache, pend, req, snoop) = (&s.cache[..n], &s.pend[..n], &s.req[..n], &s.snoop[..n]);
    let (sresp, resp, quota) = (&s.sresp[..n], &s.resp[..n], &s.quota[..n]);
    let mut lane = [0u32; MAX_NODES];
    for i in 0..n {
        assert!(
            quota[i] <= MAX_QUOTA,
            "pack: quota {} exceeds MAX_QUOTA={MAX_QUOTA}",
            quota[i]
        );
        let mut l = cache_code(cache[i])
            | req_code(pend[i]) << 2
            | req_code(req[i]) << 5
            | snoop_code(snoop[i]) << 8
            | u32::from(sresp[i]) << 10
            | u32::from(s.in_pv(i)) << 11
            | u32::from(quota[i]) << 12
            | (resp[i].len() as u32) << 14;
        for (k, &r) in resp[i].iter().enumerate() {
            l |= resp_code(r) << (16 + 2 * k);
        }
        lane[i] = l;
    }
    join(&Lanes {
        header,
        lane,
        nodes: n,
    })
}

/// One node field decoded from every lane, as a vector of `n`.
#[inline]
fn per_node<T: Copy + Default>(
    lane: &[u32; MAX_NODES],
    n: usize,
    f: impl Fn(u32) -> T,
) -> PerNode<T> {
    PerNode::from_parts(lane.map(f), n)
}

/// Unpack a [`Compact`] word back into the structural [`State`].
/// Inverse of [`pack`]: `unpack(pack(s)) == s` for every in-bounds
/// state (pinned by the round-trip property tests). Panics when the
/// word's node count exceeds [`MAX_NODES`].
pub fn unpack(c: Compact) -> State {
    let Lanes {
        header: h,
        lane,
        nodes: n,
    } = split(c);
    assert!(
        n <= MAX_NODES,
        "unpack: {n} nodes exceed MAX_NODES={MAX_NODES}"
    );
    let busy = (h >> 2 & 1 == 1).then(|| Busy {
        req: req_from(h >> 3).expect("busy transaction carries a request"),
        requester: (h >> REQUESTER_SHIFT & 0x7) as u8,
        pending: (h >> 9 & 0x7) as u8,
    });
    let pv = lane
        .iter()
        .enumerate()
        .fold(0u16, |pv, (i, &l)| pv | ((l >> 11 & 1) as u16) << i);
    State {
        cache: per_node(&lane, n, cache_from),
        pend: per_node(&lane, n, |l| req_from(l >> 2)),
        req: per_node(&lane, n, |l| req_from(l >> 5)),
        snoop: per_node(&lane, n, |l| snoop_from(l >> 8)),
        sresp: per_node(&lane, n, |l| l >> 10 & 1 == 1),
        resp: per_node(&lane, n, |l| {
            let entries = std::array::from_fn(|k| resp_from(l >> (16 + 2 * k)));
            RespQueue::from_parts(entries, (l >> 14 & 0x3) as usize)
        }),
        dir: dir_from(h),
        pv: pv & ((1 << n) - 1),
        busy,
        quota: per_node(&lane, n, |l| (l >> 12 & 0x3) as u8),
    }
}

/// The augmented per-node sort keys: the 22-bit lane with the
/// busy-requester membership appended as the low bit. Everything that a
/// node permutation moves is in here, so two nodes with equal keys are
/// fully interchangeable.
#[inline]
fn node_keys(l: &Lanes) -> [u32; MAX_NODES] {
    let busy = l.header >> 2 & 1 == 1;
    let requester = (l.header >> REQUESTER_SHIFT & 0x7) as usize;
    std::array::from_fn(|i| l.lane[i] << 1 | u32::from(busy && requester == i))
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
    let mut l = split(c);
    let n = l.nodes;
    let mut keys = node_keys(&l);
    sort_keys(&mut keys[..n]);
    // The sorted lanes, and the requester index wherever its tag bit
    // landed.
    l.header &= !(0x7 << REQUESTER_SHIFT);
    for (i, &k) in keys[..n].iter().enumerate() {
        l.lane[i] = k >> 1;
        l.header |= ((k & 1) * i as u32) << REQUESTER_SHIFT;
    }
    join(&l)
}

const FACT: [u64; MAX_NODES + 1] = [1, 1, 2, 6, 24, 120];

/// Number of distinct full states in the orbit of `c`:
/// `n! / ∏ multiplicity!` over the multiset of augmented node lanes.
pub fn orbit_size(c: Compact) -> u64 {
    let l = split(c);
    let n = l.nodes;
    let mut keys = node_keys(&l);
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
    use crate::state::{PerNode, RespQueue};

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
        s.cache = PerNode::from_slice(&[Cache::M, Cache::I, Cache::S]);
        s.pend = PerNode::from_slice(&[Some(Req::Wb), None, Some(Req::Upgrade)]);
        s.req = PerNode::from_slice(&[None, Some(Req::ReadEx), None]);
        s.snoop = PerNode::from_slice(&[None, None, Some(Snoop::Down)]);
        s.sresp = PerNode::from_slice(&[false, true, false]);
        s.resp = PerNode::from_slice(&[
            RespQueue::from_slice(&[Resp::Retry, Resp::Data]),
            RespQueue::new(),
            RespQueue::from_slice(&[Resp::EData]),
        ]);
        s.dir = Dir::Mesi;
        s.pv = 0b101;
        s.busy = Some(Busy {
            req: Req::Read,
            requester: 2,
            pending: 1,
        });
        s.quota = PerNode::from_slice(&[0, 3, 1]);
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
    fn split_and_join_cut_each_lane_at_its_place() {
        // One field at a time set to all ones: lane 2 straddles the two
        // `u64` halves, the node count sits above lane 4.
        let header = (1u128 << GLOBAL_BITS) - 1;
        let w = split(Compact(header));
        assert_eq!((w.header, w.lane, w.nodes), (0xfff, [0; MAX_NODES], 0));
        assert_eq!(join(&w), Compact(header));
        for i in 0..MAX_NODES {
            let c = Compact(u128::from(LANE_MASK) << lane_shift(i));
            let w = split(c);
            let mut lane = [0; MAX_NODES];
            lane[i] = LANE_MASK;
            assert_eq!((w.header, w.lane, w.nodes), (0, lane, 0), "lane {i}");
            assert_eq!(join(&w), c, "lane {i}");
        }
        let c = Compact(0x7 << NODES_SHIFT);
        assert_eq!(split(c).nodes, 7);
        assert_eq!(join(&split(c)), c);
    }

    fn busy_state(requester: u8, pending: u8) -> State {
        let mut s = State::initial(3, 1);
        s.busy = Some(Busy {
            req: Req::ReadEx,
            requester,
            pending,
        });
        s
    }

    #[test]
    #[should_panic(expected = "MAX_PENDING")]
    fn pack_rejects_eight_pending_snoop_responses() {
        // Pending 8 would set bit 12, node 0's cache field.
        let _ = pack(&busy_state(0, MAX_PENDING + 1));
    }

    #[test]
    #[should_panic(expected = "is not one of the 3 nodes")]
    fn pack_rejects_a_requester_past_the_node_count() {
        // The requester field holds 0..8, but canon tags only the lanes
        // of real nodes: requester 3 of 3 nodes would lose its tag.
        let _ = pack(&busy_state(3, 1));
    }

    #[test]
    #[should_panic(expected = "MAX_NODES")]
    fn unpack_rejects_a_node_count_of_six() {
        let _ = unpack(Compact(6 << NODES_SHIFT));
    }

    #[test]
    #[should_panic(expected = "MAX_NODES")]
    fn unpack_rejects_a_node_count_of_seven() {
        let _ = unpack(Compact(7 << NODES_SHIFT));
    }

    #[test]
    #[should_panic(expected = "MAX_NODES")]
    fn pack_rejects_too_many_nodes() {
        // A state cannot even hold more nodes than `pack` encodes:
        // `State::initial` panics first, naming the same bound.
        let s = State::initial(MAX_NODES + 1, 1);
        let _ = pack(&s);
    }
}
