//! Deterministic fault injection ("chaos mode") at the protocol
//! boundary.
//!
//! Real ASURA-class interconnects drop, duplicate, delay and reorder
//! messages; the statically-debugged tables are only trustworthy if
//! the machine built from them *degrades gracefully* under that
//! adversarial timing. A [`FaultPlan`] describes fault probabilities
//! plus targeted one-shot faults; the runtime
//! [`FaultInjector`] draws every decision from its own [`SplitMix64`]
//! stream — completely separate from the scheduling RNG — so a chaos
//! run is byte-reproducible from its `(workload seed, fault seed)`
//! pair.
//!
//! Determinism rules (pinned by the differential-oracle tests):
//!
//! * decisions are drawn in a fixed order per message — drop, then
//!   duplicate, then delay, then reorder — and a draw happens **only**
//!   when the corresponding rate is nonzero, so an all-zero plan
//!   consumes no randomness and is byte-identical to a chaos-free run;
//! * delayed messages live in a limbo queue ordered by
//!   `(release step, insertion sequence)`, so release order never
//!   depends on hash iteration or timing.

use crate::channel::VcId;
use crate::msg::{Endpoint, SimMsg};
use ccsql_obs::SplitMix64;
use ccsql_protocol::messages::{self, MsgClass, MsgKind};

/// The longest random delay, in engine steps.
const MAX_DELAY: u64 = 8;

/// Which fault kinds a message class may take (the fault boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultScope {
    /// All four fault kinds.
    All,
    /// Drops only: the message resolves a transaction at a consumer
    /// that has no way to reject a stale or duplicated copy.
    DropOnly,
    /// Never faulted.
    Exempt,
}

/// Fault probabilities (all in `[0, 1]`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a message is silently discarded.
    pub drop: f64,
    /// Probability a message is delivered twice (the duplicate is
    /// suppressed when the target buffer has no free slot — a fault
    /// must never violate the finite-buffer invariant).
    pub duplicate: f64,
    /// Probability a message is parked in limbo for 1..=8 engine steps
    /// before delivery.
    pub delay: f64,
    /// Probability a message is enqueued at the *front* of its buffer,
    /// overtaking everything already queued.
    pub reorder: f64,
}

impl FaultRates {
    /// Uniform rates: drop = duplicate = delay = reorder = `r`.
    pub fn uniform(r: f64) -> FaultRates {
        FaultRates {
            drop: r,
            duplicate: r,
            delay: r,
            reorder: r,
        }
    }
}

/// A targeted one-shot fault: apply `kind` to the `nth` (0-based) sent
/// message whose name matches `msg`. Used by regression tests to hit a
/// precise interleaving ("drop the first `data` response") without
/// relying on probabilities.
#[derive(Clone, Debug)]
pub struct TargetedFault {
    /// Message name to match (`"data"`, `"sinv"`, …).
    pub msg: String,
    /// Which matching send to hit (0 = the first).
    pub nth: u64,
    /// What to do to it.
    pub kind: FaultKind,
}

/// The four fault kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Discard the message.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Park it in limbo for the given number of steps.
    Delay(u64),
    /// Enqueue it at the front of its buffer.
    Reorder,
}

/// A complete chaos configuration: fault probabilities, the fault
/// seed, and the protocol-boundary resilience knobs (timeout, bounded
/// retry with exponential backoff).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the fault RNG (independent of the workload/schedule
    /// seed).
    pub seed: u64,
    /// Rates applied to every shared virtual channel and the dedicated
    /// path.
    pub rates: FaultRates,
    /// Targeted one-shot faults.
    pub targeted: Vec<TargetedFault>,
    /// Steps a pending processor operation may wait before the node's
    /// protocol boundary retransmits its request. Must be much larger
    /// than any clean-run transaction latency so a zero-rate plan
    /// never fires a timeout (the differential-oracle determinism rule
    /// depends on it).
    pub timeout_steps: u64,
    /// Retransmission attempts before an operation is abandoned and
    /// reported in [`crate::engine::Outcome::Stalled`].
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: FaultRates::default(),
            targeted: Vec::new(),
            timeout_steps: 1_000,
            max_retries: 6,
        }
    }
}

impl FaultPlan {
    /// A plan with uniform drop/duplicate/delay/reorder rate `r` on
    /// every channel.
    pub fn uniform(seed: u64, r: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates::uniform(r),
            ..FaultPlan::default()
        }
    }

    /// A zero-rate plan: chaos machinery armed, no faults injected.
    /// Runs under this plan must be byte-identical to chaos-free runs.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether this plan can ever discard a message (probabilistic
    /// drop rate somewhere, or a targeted drop). Engine failsafes that
    /// change protocol behaviour key off this rather than off chaos
    /// being armed, so a quiet plan stays byte-identical to a
    /// chaos-free run.
    pub fn can_drop(&self) -> bool {
        self.rates.drop > 0.0
            || self
                .targeted
                .iter()
                .any(|t| matches!(t.kind, FaultKind::Drop))
    }
}

/// Fault counters of one chaos run (their total is
/// `SimStats::faults_injected`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages discarded.
    pub drops: u64,
    /// Messages delivered twice.
    pub duplicates: u64,
    /// Duplicates suppressed because the buffer was full.
    pub dup_suppressed: u64,
    /// Messages parked in limbo.
    pub delays: u64,
    /// Messages enqueued at the front of their buffer.
    pub reorders: u64,
}

impl FaultStats {
    /// Total faults injected (suppressed duplicates do not count — no
    /// fault was actually applied).
    pub fn injected(&self) -> u64 {
        self.drops + self.duplicates + self.delays + self.reorders
    }
}

/// What the injector decided to do with one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Enqueue normally.
    Deliver,
    /// Discard.
    Drop,
    /// Enqueue now and, capacity permitting, once more.
    Duplicate,
    /// Park in limbo for this many steps.
    Delay(u64),
    /// Enqueue at the front of the buffer.
    Front,
}

/// One message parked in limbo.
#[derive(Clone, Copy, Debug)]
struct Limbo {
    release: u64,
    seq: u64,
    quad: u8,
    vc: VcId,
    msg: SimMsg,
}

/// The runtime fault injector: plan + RNG + limbo queue + counters.
pub struct FaultInjector {
    /// The plan this injector executes.
    pub plan: FaultPlan,
    rng: SplitMix64,
    limbo: Vec<Limbo>,
    seq: u64,
    /// Per-name send counts (for targeted faults), in first-seen order.
    name_counts: Vec<(ccsql_relalg::Sym, u64)>,
    /// Fault counters.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Build from a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let rng = SplitMix64::new(plan.seed);
        FaultInjector {
            plan,
            rng,
            limbo: Vec::new(),
            seq: 0,
            name_counts: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Decide the fate of `msg` about to be sent, and account for it. Targeted faults take priority
    /// over the probabilistic draws; probabilistic draws happen in the
    /// fixed order drop → duplicate → delay → reorder, each only when
    /// its rate is nonzero. Some message classes take fewer fault
    /// kinds — see `FaultInjector::scope` for the fault boundary.
    pub fn decide(&mut self, msg: &SimMsg) -> Decision {
        let scope = Self::scope(msg);
        if scope == FaultScope::Exempt {
            return Decision::Deliver;
        }
        let n = self.bump_name_count(msg.name);
        if let Some(kind) = self.targeted_kind(msg, n) {
            if scope == FaultScope::All || matches!(kind, FaultKind::Drop) {
                return self.account(match kind {
                    FaultKind::Drop => Decision::Drop,
                    FaultKind::Duplicate => Decision::Duplicate,
                    FaultKind::Delay(s) => Decision::Delay(s.max(1)),
                    FaultKind::Reorder => Decision::Front,
                });
            }
        }
        let r = self.plan.rates;
        if r.drop > 0.0 && self.rng.gen_bool(r.drop) {
            return self.account(Decision::Drop);
        }
        if scope == FaultScope::DropOnly {
            return Decision::Deliver;
        }
        if r.duplicate > 0.0 && self.rng.gen_bool(r.duplicate) {
            return self.account(Decision::Duplicate);
        }
        if r.delay > 0.0 && self.rng.gen_bool(r.delay) {
            let steps = 1 + self.rng.gen_range_u64(MAX_DELAY);
            return self.account(Decision::Delay(steps));
        }
        if r.reorder > 0.0 && self.rng.gen_bool(r.reorder) {
            return self.account(Decision::Front);
        }
        Decision::Deliver
    }

    /// The fault boundary: which fault kinds may hit `msg`.
    ///
    /// * I/O-space messages are exempt. The I/O side channel has no
    ///   serialising directory, so a duplicated, delayed, or
    ///   retransmitted `iowrite` would re-apply a stale value *after*
    ///   a later write — data corruption, not a liveness cost. The
    ///   chaos harness targets the coherence protocol, whose directory
    ///   serialisation is exactly what makes faults recoverable;
    ///   targeted faults naming an I/O message are silently inert.
    /// * Node-bound memory-class responses (`data`, `edata`, `compl`,
    ///   `retry`, …) take drops only. These messages *resolve* a
    ///   node's pending transaction, and the node — which has no
    ///   transaction tags — matches them by address alone: a
    ///   duplicated or delayed completion could resolve a *later*
    ///   transaction on the same line with stale data. A dropped
    ///   completion is retransmitted after its timeout.
    /// * Everything else (requests, snoops, snoop responses, the
    ///   directory↔memory traffic) takes all four kinds: duplicates
    ///   meet the directory's busy serialisation, the per-responder
    ///   `answered` vector, and the stray-discard guards.
    ///
    /// That recovery is incomplete: some drops and duplicates still end
    /// in a coherence violation (DESIGN.md §10).
    fn scope(msg: &SimMsg) -> FaultScope {
        match messages::message(msg.name.as_str()) {
            Some(m) if m.class == MsgClass::Io => FaultScope::Exempt,
            Some(m)
                if m.kind == MsgKind::Response
                    && m.class == MsgClass::Memory
                    && matches!(msg.dest, Endpoint::Node(_)) =>
            {
                FaultScope::DropOnly
            }
            _ => FaultScope::All,
        }
    }

    fn account(&mut self, d: Decision) -> Decision {
        match d {
            Decision::Deliver => {}
            Decision::Drop => self.stats.drops += 1,
            Decision::Duplicate => self.stats.duplicates += 1,
            Decision::Delay(_) => self.stats.delays += 1,
            Decision::Front => self.stats.reorders += 1,
        }
        d
    }

    /// Record a suppressed duplicate (buffer had no free slot).
    pub fn duplicate_suppressed(&mut self) {
        self.stats.duplicates -= 1;
        self.stats.dup_suppressed += 1;
    }

    fn bump_name_count(&mut self, name: ccsql_relalg::Sym) -> u64 {
        if let Some(e) = self.name_counts.iter_mut().find(|(n, _)| *n == name) {
            let n = e.1;
            e.1 += 1;
            n
        } else {
            self.name_counts.push((name, 1));
            0
        }
    }

    fn targeted_kind(&self, msg: &SimMsg, occurrence: u64) -> Option<FaultKind> {
        self.plan
            .targeted
            .iter()
            .find(|t| t.msg == msg.name.as_str() && t.nth == occurrence)
            .map(|t| t.kind)
    }

    /// Park `msg` in limbo until step `now + steps`.
    pub fn park(&mut self, quad: u8, vc: VcId, msg: SimMsg, now: u64, steps: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.limbo.push(Limbo {
            release: now + steps,
            seq,
            quad,
            vc,
            msg,
        });
    }

    /// Messages due at step `now`, in `(release, seq)` order, removed
    /// from limbo. The engine re-parks any it cannot deliver (full
    /// buffer) for one more step.
    pub fn due(&mut self, now: u64) -> Vec<(u8, VcId, SimMsg)> {
        let mut due: Vec<Limbo> = Vec::new();
        self.limbo.retain(|l| {
            if l.release <= now {
                due.push(*l);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|l| (l.release, l.seq));
        due.into_iter().map(|l| (l.quad, l.vc, l.msg)).collect()
    }

    /// Messages still parked in limbo.
    pub fn limbo_len(&self) -> usize {
        self.limbo.len()
    }

    /// The earliest limbo release step, if any message is parked.
    pub fn next_release(&self) -> Option<u64> {
        self.limbo.iter().map(|l| l.release).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Endpoint;
    use ccsql_protocol::topology::NodeId;

    fn m(name: &str) -> SimMsg {
        SimMsg::new(name, 1, Endpoint::Node(NodeId::new(0, 0)), Endpoint::Dir(0))
    }

    #[test]
    fn zero_plan_draws_nothing_and_delivers_everything() {
        let mut f = FaultInjector::new(FaultPlan::quiet(9));
        for _ in 0..100 {
            assert_eq!(f.decide(&m("read")), Decision::Deliver);
        }
        assert_eq!(f.stats.injected(), 0);
        // The RNG was never consumed: a fresh generator produces the
        // same next value.
        let mut probe = SplitMix64::new(9);
        let mut inner = SplitMix64::new(9);
        assert_eq!(probe.next_u64(), inner.next_u64());
    }

    #[test]
    fn decisions_are_reproducible_for_a_seed() {
        let plan = FaultPlan::uniform(42, 0.3);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..200 {
            assert_eq!(a.decide(&m("sinv")), b.decide(&m("sinv")));
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.injected() > 0, "0.3 rates must fire in 200 draws");
    }

    #[test]
    fn targeted_fault_hits_the_nth_occurrence_only() {
        let mut plan = FaultPlan::quiet(1);
        plan.targeted.push(TargetedFault {
            msg: "data".into(),
            nth: 1,
            kind: FaultKind::Drop,
        });
        let mut f = FaultInjector::new(plan);
        assert_eq!(f.decide(&m("data")), Decision::Deliver);
        assert_eq!(f.decide(&m("data")), Decision::Drop);
        assert_eq!(f.decide(&m("data")), Decision::Deliver);
        assert_eq!(f.decide(&m("sinv")), Decision::Deliver);
        assert_eq!(f.stats.drops, 1);
    }

    #[test]
    fn limbo_releases_in_release_then_seq_order() {
        let mut f = FaultInjector::new(FaultPlan::quiet(0));
        f.park(0, VcId::Vc(0), m("a"), 0, 5); // release 5, seq 0
        f.park(0, VcId::Vc(0), m("b"), 0, 3); // release 3, seq 1
        f.park(0, VcId::Vc(0), m("c"), 1, 2); // release 3, seq 2
        assert_eq!(f.limbo_len(), 3);
        assert_eq!(f.next_release(), Some(3));
        assert!(f.due(2).is_empty());
        let due = f.due(4);
        let names: Vec<&str> = due.iter().map(|(_, _, m)| m.name.as_str()).collect();
        assert_eq!(names, ["b", "c"]);
        let due = f.due(5);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].2.name.as_str(), "a");
        assert_eq!(f.limbo_len(), 0);
    }

    #[test]
    fn suppressed_duplicates_do_not_count_as_injected() {
        let mut f = FaultInjector::new(FaultPlan::quiet(0));
        f.account(Decision::Duplicate);
        assert_eq!(f.stats.injected(), 1);
        f.duplicate_suppressed();
        assert_eq!(f.stats.injected(), 0);
        assert_eq!(f.stats.dup_suppressed, 1);
    }
}
