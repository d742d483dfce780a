//! The abstracted protocol state for explicit-state model checking.
//!
//! As the paper notes, "to use these tools, the controller tables need
//! to be extensively abstracted to avoid the state explosion problem".
//! This module is that abstraction: a single cache line, symmetric
//! nodes, small bounded message slots — the classic Murphi-style model
//! of a directory MESI protocol (one abstract home, N abstract nodes).
//!
//! A [`State`] lives entirely inline: each per-node field is an
//! [`InlineVec`] of at most [`MAX_NODES`] entries and each response
//! queue one of at most [`MAX_RESP_DEPTH`], so a state is a `Copy`
//! value of 64 bytes. The explorer unpacks a state, checks it, steps
//! its successors and packs them again without touching the heap.

use crate::compact::{MAX_NODES, MAX_RESP_DEPTH};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector of at most `N` elements stored inline: a length and
/// `[T; N]`. It derefs to the slice of its first `len` elements, so
/// indexing, iteration and the slice methods work as on a `Vec`;
/// equality, hashing and `Debug` see only that slice.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The empty vector.
    pub fn new() -> Self {
        assert!(N <= u8::MAX as usize, "InlineVec: capacity {N} exceeds 255");
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// `len` copies of `value`. Panics when `len` exceeds the capacity.
    pub fn from_elem(value: T, len: usize) -> Self {
        assert!(len <= N, "InlineVec: length {len} exceeds capacity {N}");
        let mut v = Self::new();
        v.items[..len].fill(value);
        v.len = len as u8;
        v
    }

    /// A copy of `items`. Panics when they exceed the capacity.
    pub fn from_slice(items: &[T]) -> Self {
        let len = items.len();
        assert!(len <= N, "InlineVec: length {len} exceeds capacity {N}");
        let mut v = Self::new();
        v.items[..len].copy_from_slice(items);
        v.len = len as u8;
        v
    }

    /// The first `len` of `items`: the packed-state decoder builds whole
    /// vectors at once. Panics when `len` exceeds the capacity.
    pub(crate) fn from_parts(items: [T; N], len: usize) -> Self {
        assert!(N <= u8::MAX as usize, "InlineVec: capacity {N} exceeds 255");
        assert!(len <= N, "InlineVec: length {len} exceeds capacity {N}");
        InlineVec {
            len: len as u8,
            items,
        }
    }

    /// Append `value`. Panics when the vector is full.
    pub fn push(&mut self, value: T) {
        let len = self.len as usize;
        assert!(len < N, "InlineVec: push beyond capacity {N}");
        self.items[len] = value;
        self.len += 1;
    }

    /// Remove and return the element at `index`, shifting the rest
    /// left. Panics when `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        let len = self.len as usize;
        assert!(
            index < len,
            "InlineVec: remove index {index} out of bounds for length {len}"
        );
        let value = self.items[index];
        self.items.copy_within(index + 1..len, index);
        self.len -= 1;
        value
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One entry per node.
pub type PerNode<T> = InlineVec<T, MAX_NODES>;

/// A node's bounded response queue, oldest first.
pub type RespQueue = InlineVec<Resp, MAX_RESP_DEPTH>;

/// MESI cache state, compact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cache {
    /// Modified.
    M,
    /// Exclusive.
    E,
    /// Shared.
    S,
    /// Invalid.
    #[default]
    I,
}

/// Directory state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// No cached copy.
    I,
    /// Shared-or-invalid; sharers in the presence bitset.
    Si,
    /// One owner (any MESI state possible there).
    Mesi,
}

/// A processor request (node → directory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Req {
    /// Shared read.
    Read,
    /// Read exclusive.
    ReadEx,
    /// Shared → exclusive, no data.
    Upgrade,
    /// Write back a modified line.
    Wb,
    /// Drop a clean line.
    Replace,
}

/// A snoop (directory → node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Snoop {
    /// Invalidate.
    Inv,
    /// Downgrade to shared (owner supplies data).
    Down,
}

/// A response (directory → node). The default is the one whose packed
/// code is zero; it only fills unused queue slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Resp {
    /// Shared data.
    #[default]
    Data,
    /// Exclusive data (also completes writes).
    EData,
    /// Completion without data (upgrade, write back, replace).
    Compl,
    /// Try again.
    Retry,
}

/// The in-flight transaction at the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Busy {
    /// The request being served.
    pub req: Req,
    /// The requesting node.
    pub requester: u8,
    /// Outstanding snoop responses.
    pub pending: u8,
}

/// One global state of the abstract machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct State {
    /// Per-node cache state.
    pub cache: PerNode<Cache>,
    /// Per-node pending request at the node (issued, not completed).
    pub pend: PerNode<Option<Req>>,
    /// Per-node request slot in flight to the directory.
    pub req: PerNode<Option<Req>>,
    /// Per-node snoop slot in flight from the directory.
    pub snoop: PerNode<Option<Snoop>>,
    /// Per-node snoop response in flight to the directory.
    pub sresp: PerNode<bool>,
    /// Per-node response queue from the directory (bounded).
    pub resp: PerNode<RespQueue>,
    /// Directory state.
    pub dir: Dir,
    /// Presence bitset.
    pub pv: u16,
    /// In-flight transaction.
    pub busy: Option<Busy>,
    /// Remaining operations each node may still issue (bounds the
    /// reachable space; `None`-like saturation at 255).
    pub quota: PerNode<u8>,
}

impl State {
    /// Initial state: everything invalid, `quota` operations per node.
    /// Panics when `nodes` exceeds [`MAX_NODES`].
    pub fn initial(nodes: usize, quota: u8) -> State {
        assert!(
            nodes <= MAX_NODES,
            "State::initial: {nodes} nodes exceed MAX_NODES={MAX_NODES}"
        );
        State {
            cache: PerNode::from_elem(Cache::I, nodes),
            pend: PerNode::from_elem(None, nodes),
            req: PerNode::from_elem(None, nodes),
            snoop: PerNode::from_elem(None, nodes),
            sresp: PerNode::from_elem(false, nodes),
            resp: PerNode::from_elem(RespQueue::new(), nodes),
            dir: Dir::I,
            pv: 0,
            busy: None,
            quota: PerNode::from_elem(quota, nodes),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cache.len()
    }

    /// Sharer count.
    pub fn sharers(&self) -> u32 {
        self.pv.count_ones()
    }

    /// Is node `i` in the presence vector?
    pub fn in_pv(&self, i: usize) -> bool {
        self.pv & (1 << i) != 0
    }

    /// Apply the node permutation `perm` (old index `i` becomes
    /// `perm[i]`): every per-node field, the presence bitset and the
    /// busy transaction's requester move together. Used by the
    /// symmetry-reduction property tests; the hot-path canonicaliser
    /// works on the packed form ([`crate::compact::canon`]).
    pub fn permuted(&self, perm: &[usize]) -> State {
        let n = self.nodes();
        assert_eq!(perm.len(), n, "permutation arity mismatch");
        let mut t = State::initial(n, 0);
        let mut pv = 0u16;
        for (i, &j) in perm.iter().enumerate() {
            t.cache[j] = self.cache[i];
            t.pend[j] = self.pend[i];
            t.req[j] = self.req[i];
            t.snoop[j] = self.snoop[i];
            t.sresp[j] = self.sresp[i];
            t.resp[j] = self.resp[i];
            t.quota[j] = self.quota[i];
            if self.in_pv(i) {
                pv |= 1 << j;
            }
        }
        t.dir = self.dir;
        t.pv = pv;
        t.busy = self.busy.map(|mut b| {
            b.requester = perm[b.requester as usize] as u8;
            b
        });
        t
    }

    /// True when nothing is in flight and no node has a pending op.
    pub fn quiescent(&self) -> bool {
        self.busy.is_none()
            && self.pend.iter().all(|p| p.is_none())
            && self.req.iter().all(|r| r.is_none())
            && self.snoop.iter().all(|s| s.is_none())
            && self.sresp.iter().all(|s| !s)
            && self.resp.iter().all(|r| r.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_quiescent() {
        let s = State::initial(3, 2);
        assert!(s.quiescent());
        assert_eq!(s.nodes(), 3);
        assert_eq!(s.sharers(), 0);
        assert!(!s.in_pv(0));
    }

    #[test]
    fn permutation_moves_every_node_field_together() {
        let mut s = State::initial(3, 2);
        s.cache = PerNode::from_slice(&[Cache::M, Cache::S, Cache::I]);
        s.pv = 0b011;
        s.quota = PerNode::from_slice(&[0, 1, 2]);
        let t = s.permuted(&[2, 0, 1]);
        assert_eq!(
            t.cache,
            PerNode::from_slice(&[Cache::S, Cache::I, Cache::M])
        );
        assert_eq!(t.pv, 0b101);
        assert_eq!(t.quota, PerNode::from_slice(&[1, 2, 0]));
        // Identity round-trips.
        assert_eq!(t.permuted(&[1, 2, 0]), s);
    }

    #[test]
    fn states_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let a = State::initial(2, 1);
        let mut b = State::initial(2, 1);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        b.cache[1] = Cache::M;
        assert!(!set.contains(&b));
    }

    #[test]
    fn inline_vecs_compare_and_hash_their_live_elements_only() {
        use std::collections::hash_map::DefaultHasher;
        let mut q = RespQueue::new();
        q.push(Resp::Retry);
        q.push(Resp::Data);
        q.push(Resp::EData);
        assert_eq!(q.remove(0), Resp::Retry);
        assert_eq!(q[..], [Resp::Data, Resp::EData]);
        assert_eq!(format!("{q:?}"), "[Data, EData]");
        // `remove` leaves a stale copy in the freed slot; equality and
        // hashing must not see it.
        let same = RespQueue::from_slice(&[Resp::Data, Resp::EData]);
        assert_eq!(q, same);
        let hash = |v: &RespQueue| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&q), hash(&same));
    }
}
