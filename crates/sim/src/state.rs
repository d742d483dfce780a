//! Architectural state of the simulated machine.

use crate::msg::Addr;
use crate::tables::vocab;
use crate::workload::CpuOp;
use ccsql_obs::hash::FxHashMap;
use ccsql_protocol::topology::{NodeId, PresenceVector};
use ccsql_relalg::Sym;

/// One directory entry (a line cached somewhere in the system).
#[derive(Clone, Copy, Debug)]
pub struct DirEntry {
    /// Directory state: `SI` or `MESI` (absent entry = `I`).
    pub st: Sym,
    /// The real 16-bit presence vector (the tables see its
    /// `zero`/`one`/`gone` encoding).
    pub pv: PresenceVector,
}

/// One busy-directory entry (a transaction in flight).
#[derive(Clone, Copy, Debug)]
pub struct BusyEntry {
    /// Busy state (e.g. `Busy-sd`).
    pub st: Sym,
    /// Outstanding snoop responses (the tables see its encoding).
    pub pending: u32,
    /// The requesting node (target of `locmsg`).
    pub requester: NodeId,
    /// The request that opened the transaction.
    pub req: Sym,
    /// Sharer set at transaction start (base for `inc`/`dec` presence
    /// vector operations at completion).
    pub saved_pv: PresenceVector,
    /// Responders whose snoop response has been collected. Hardware
    /// directories track *which* nodes answered, not just how many —
    /// which makes a duplicated snoop response (or the extra `idone` a
    /// duplicated snoop provokes) idempotent instead of corrupting the
    /// outstanding-response count.
    pub answered: PresenceVector,
}

/// Per-quad protocol-engine state: directory, busy directory, home
/// memory and I/O space contents.
#[derive(Default)]
pub struct QuadState {
    /// The directory.
    pub dir: FxHashMap<Addr, DirEntry>,
    /// The busy directory.
    pub busy: FxHashMap<Addr, BusyEntry>,
    /// Home memory contents (unwritten lines read as 0).
    pub mem: FxHashMap<Addr, u64>,
    /// I/O space contents.
    pub io: FxHashMap<Addr, u64>,
}

impl QuadState {
    /// The directory state name for `addr` (`I` when absent).
    pub fn dirst(&self, addr: Addr) -> Sym {
        self.dir.get(&addr).map_or(vocab().i, |e| e.st)
    }

    /// Presence vector for `addr` (empty when absent).
    pub fn dirpv(&self, addr: Addr) -> PresenceVector {
        self.dir.get(&addr).map(|e| e.pv).unwrap_or_default()
    }

    /// The busy state name for `addr` (`I` when absent).
    pub fn bdirst(&self, addr: Addr) -> Sym {
        self.busy.get(&addr).map_or(vocab().i, |e| e.st)
    }

    /// The `zero`/`one`/`gone` encoding of the pending count of `addr`.
    pub fn bdirpv_encoding(&self, addr: Addr) -> Sym {
        vocab().count_encoding(self.busy.get(&addr).map_or(0, |e| e.pending))
    }
}

/// An in-flight processor operation at a node.
#[derive(Clone, Copy, Debug)]
pub struct PendTxn {
    /// Pending state name from the node table (`p_read`, `p_write`, …).
    pub st: Sym,
    /// Address of the operation.
    pub addr: Addr,
    /// The originating processor operation (for retry re-issue).
    pub op: CpuOp,
    /// The value a pending write will install.
    pub value: u64,
    /// Engine step at which the operation was issued (latency base).
    pub issued_at: u64,
    /// Retransmission attempts made so far (chaos mode only).
    pub attempts: u32,
    /// Engine step at which the protocol boundary declares this
    /// attempt timed out and retransmits (`u64::MAX` = no timeout,
    /// the non-chaos default).
    pub deadline: u64,
    /// The exact request message sent for this operation, kept so a
    /// timeout can retransmit it verbatim. Re-issuing through the
    /// workload path instead would lose the write-back payload: the
    /// cache line is removed when the op is issued, so the data only
    /// survives inside this message.
    pub msg: Option<crate::msg::SimMsg>,
}

/// Per-node state: cache contents and the (single) pending transaction.
#[derive(Default)]
pub struct NodeState {
    /// Cache: address → (MESI state, data). Absent = `I`.
    pub cache: FxHashMap<Addr, (Sym, u64)>,
    /// The pending processor operation, if any.
    pub pend: Option<PendTxn>,
    /// Staged data received before completion (readex@SI flow).
    pub staged: Option<u64>,
    /// The snoop-hold register: a snoop colliding with this node's own
    /// pending transaction on the same line is parked here (freeing the
    /// snoop channel) and replayed when the transaction completes. At
    /// most one such snoop can exist because the directory serialises
    /// transactions per address.
    pub held_snoop: Option<crate::msg::SimMsg>,
    /// Retries observed by this node.
    pub retries: u64,
    /// Consecutive retries of the current operation without a
    /// completion in between; chaos mode abandons the op when this
    /// exceeds the plan's retry budget (a fault may have wedged the
    /// transaction it keeps colliding with).
    pub redo_streak: u64,
}

impl NodeState {
    /// The MESI state name for `addr` (`I` when absent).
    pub fn cachest(&self, addr: Addr) -> Sym {
        self.cache.get(&addr).map_or(vocab().i, |e| e.0)
    }

    /// The pending-state name for the node table (`none` when idle).
    pub fn pendst(&self) -> Sym {
        self.pend.map_or(vocab().none, |p| p.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_read_as_invalid() {
        let q = QuadState::default();
        assert_eq!(q.dirst(5).as_str(), "I");
        assert_eq!(q.bdirst(5).as_str(), "I");
        assert_eq!(q.bdirpv_encoding(5).as_str(), "zero");
        assert_eq!(q.dirpv(5).count(), 0);

        let n = NodeState::default();
        assert_eq!(n.cachest(5).as_str(), "I");
        assert_eq!(n.pendst().as_str(), "none");
    }

    #[test]
    fn busy_encoding_tracks_pending() {
        let mut q = QuadState::default();
        q.busy.insert(
            7,
            BusyEntry {
                st: Sym::intern("Busy-sd"),
                pending: 2,
                requester: NodeId::new(0, 0),
                req: Sym::intern("readex"),
                saved_pv: PresenceVector::new(),
                answered: PresenceVector::new(),
            },
        );
        assert_eq!(q.bdirpv_encoding(7).as_str(), "gone");
        q.busy.get_mut(&7).unwrap().pending = 1;
        assert_eq!(q.bdirpv_encoding(7).as_str(), "one");
    }
}
