//! The discrete-event engine: executes the *generated controller
//! tables* over finite virtual-channel buffers.
//!
//! Every controller decision is a row lookup in the corresponding table
//! (`D`, `N`, `R`, `M`); a missing row is surfaced as
//! [`SimError::NoRow`] — the dynamic analogue of the paper's "table is
//! specified only for the legal input combinations".
//!
//! Deadlock is detected operationally: a step in which no controller
//! can make progress while messages remain queued (or transactions
//! remain pending) is a deadlock, and the report lists who is blocked
//! on which channel — the dynamic counterpart of a cycle in the
//! statically-computed virtual channel dependency graph.

use crate::channel::{Channels, VcId};
use crate::fault::{Decision, FaultInjector, FaultPlan, FaultStats};
use crate::msg::{Addr, Endpoint, SimMsg};
use crate::state::{BusyEntry, DirEntry, NodeState, PendTxn, QuadState};
use crate::tables::{vocab, CpuRes, IssueKind, PvOp, RspKind, Store, Tables, Upd, Vocab};
use crate::workload::{CpuOp, Workload};
use ccsql::gen::GeneratedProtocol;
use ccsql_obs::hash::FxHashMap;
use ccsql_obs::{FieldValue, SplitMix64};
use ccsql_protocol::topology::{NodeId, PresenceVector};
use ccsql_relalg::{Sym, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;

/// Addresses with this bit set live in I/O space (never cached).
pub const IO_SPACE: Addr = 0x8000_0000;

/// Controller scheduling policy.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// Fixed round-robin order each step.
    Fixed,
    /// Seeded random shuffle each step (exposes race-dependent
    /// deadlocks such as Figure 4).
    Random(u64),
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of quads (1–4).
    pub quads: usize,
    /// Nodes per quad (1–4).
    pub nodes_per_quad: usize,
    /// Capacity of each shared virtual-channel buffer.
    ///
    /// Structural sizing rule: a read-exclusive may snoop every node of
    /// a quad at once, so `vc_capacity` must be ≥ `nodes_per_quad` or
    /// the machine can starve on the snoop channel regardless of the
    /// channel assignment.
    pub vc_capacity: usize,
    /// Route the directory's memory operations over the dedicated path
    /// (the paper's Figure-4 fix / assignment `V2`). `false` models the
    /// pre-fix assignment `V1` (everything on VC4).
    pub dedicated_mem_path: bool,
    /// Scheduling policy.
    pub schedule: Schedule,
    /// Step budget for [`Sim::run`].
    pub max_steps: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 2,
            dedicated_mem_path: true,
            schedule: Schedule::Fixed,
            max_steps: 1_000_000,
        }
    }
}

/// Simulation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Engine steps executed.
    pub steps: u64,
    /// Processor operations issued to the network.
    pub issued: u64,
    /// Processor operations satisfied locally (cache hits).
    pub hits: u64,
    /// Transactions completed at the directory.
    pub completed: u64,
    /// Retry responses observed by nodes.
    pub retries: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Read-return values checked against the serialisation order.
    pub read_checks: u64,
    /// Faults actually applied by chaos mode (0 outside chaos).
    pub faults_injected: u64,
    /// Pending-operation timeouts fired at the protocol boundary.
    pub timeouts: u64,
    /// Request messages retransmitted after a timeout.
    pub retransmits: u64,
    /// Stray messages discarded in chaos mode (duplicated or obsolete
    /// deliveries the protocol state no longer expects).
    pub strays: u64,
    /// Processor operations abandoned after exhausting retries.
    pub abandoned: u64,
}

/// Why a simulation run ended.
#[derive(Debug)]
pub enum Outcome {
    /// All work drained; every queue empty, no pending transactions.
    Quiescent,
    /// No controller can progress but work remains.
    Deadlock(DeadlockInfo),
    /// Step budget exhausted.
    StepLimit,
    /// Chaos mode: the machine drained what it could, but injected
    /// faults cost liveness — operations were abandoned after
    /// exhausting their retries, or transactions are permanently stuck.
    /// Graceful degradation instead of a panic. The coherence audit
    /// still runs on this outcome, and it can fail: a dropped or
    /// duplicated message can cost coherence too (DESIGN.md §10).
    Stalled {
        /// What got stuck and why, one line per casualty.
        diagnosis: Vec<String>,
    },
}

impl Outcome {
    /// Is this a deadlock?
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Outcome::Deadlock(_))
    }
}

/// Description of a dynamic deadlock.
#[derive(Debug)]
pub struct DeadlockInfo {
    /// Blocked controllers and what they wait for.
    pub blocked: Vec<String>,
    /// Channels involved (needed-but-full plus stuck non-empty).
    pub channels: Vec<String>,
    /// Snapshot of all non-empty buffers.
    pub queues: Vec<(u8, VcId, Vec<String>)>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DEADLOCK involving {}", self.channels.join(", "))?;
        for b in &self.blocked {
            writeln!(f, "  blocked: {b}")?;
        }
        for (q, vc, msgs) in &self.queues {
            writeln!(f, "  quad {q} {vc}: {}", msgs.join(" | "))?;
        }
        Ok(())
    }
}

/// Simulation errors: protocol specification holes or coherence
/// violations detected by the built-in checker.
#[derive(Debug)]
pub enum SimError {
    /// No controller-table row matches the situation.
    NoRow {
        /// Controller table name.
        controller: &'static str,
        /// The lookup key.
        key: String,
    },
    /// The value checker caught stale data.
    Coherence(String),
    /// A directory row demanded a `retry` response but the triggering
    /// message did not come from a node, so there is no one to retry.
    /// Outside chaos mode this is a protocol-specification error (it
    /// used to be a panic); chaos mode discards the message as a stray
    /// instead.
    RetryWithoutSender {
        /// The message the directory was processing.
        msg: String,
    },
    /// A response arrived that no protocol state expects (no pending
    /// transaction, wrong address, or a completed transaction). Outside
    /// chaos mode this indicates a broken table; chaos mode discards it
    /// as a stray instead.
    UnexpectedResponse {
        /// Where and what, rendered.
        context: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoRow { controller, key } => {
                write!(f, "no row in table {controller} for inputs {key}")
            }
            SimError::Coherence(m) => write!(f, "coherence violation: {m}"),
            SimError::RetryWithoutSender { msg } => {
                write!(
                    f,
                    "retry response demanded for {msg}, which has no node sender"
                )
            }
            SimError::UnexpectedResponse { context } => {
                write!(f, "unexpected response: {context}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A blocked-controller description plus the `(quad, channel)` slots it
/// needs.
pub type BlockedReason = (String, Vec<(u8, VcId)>);

enum Progress {
    Worked,
    Idle,
    Blocked(Stall),
}

/// A controller attempt whose plan did not fit: who was blocked and the
/// first full buffer in plan order. It is rendered only when a report
/// needs it.
#[derive(Clone, Copy)]
struct Stall {
    who: Waiter,
    slot: (u8, VcId),
}

#[derive(Clone, Copy)]
enum Waiter {
    Dir(u8, SimMsg),
    Mem(u8, SimMsg),
    Rac(NodeId, SimMsg),
    Issue(NodeId, CpuOp),
}

impl Stall {
    fn reason(&self) -> BlockedReason {
        let who = match self.who {
            Waiter::Dir(q, msg) => format!("D{q} processing {msg}"),
            Waiter::Mem(q, msg) => format!("M{q} processing {msg}"),
            Waiter::Rac(node, msg) => format!("RAC {node} processing {msg}"),
            Waiter::Issue(node, op) => format!("{node} issuing {op:?}"),
        };
        let (q, vc) = self.slot;
        (
            format!("{who} needs a slot on quad {q} {vc}"),
            vec![self.slot],
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ctrl {
    Dir(u8),
    Mem(u8),
    NodeRsp(u8),
    Rac(u8),
    Held(usize),
    Issue(usize),
}

/// Names of the executed tables, in coverage-report order.
const TABLE_NAMES: [&str; 4] = ["D", "M", "N", "R"];
/// [`Sim::coverage`] slots of the tables.
const COV_D: usize = 0;
const COV_M: usize = 1;
const COV_N: usize = 2;
const COV_R: usize = 3;

/// Processor operations in latency-slot order ([`op_slot`]).
pub(crate) const CPU_OPS: [CpuOp; 6] = [
    CpuOp::Read(0),
    CpuOp::Write(0),
    CpuOp::Evict(0),
    CpuOp::Flush(0),
    CpuOp::IoRead(0),
    CpuOp::IoWrite(0),
];

pub(crate) fn op_slot(op: CpuOp) -> usize {
    match op {
        CpuOp::Read(_) => 0,
        CpuOp::Write(_) => 1,
        CpuOp::Evict(_) => 2,
        CpuOp::Flush(_) => 3,
        CpuOp::IoRead(_) => 4,
        CpuOp::IoWrite(_) => 5,
    }
}

/// A message with no payload.
fn message(name: Sym, addr: Addr, src: Endpoint, dest: Endpoint) -> SimMsg {
    SimMsg {
        name,
        addr,
        src,
        dest,
        payload: None,
    }
}

/// The simulator.
pub struct Sim {
    /// Configuration.
    pub cfg: SimConfig,
    tables: Tables,
    v: &'static Vocab,
    /// Transport buffers.
    pub channels: Channels,
    quads: Vec<QuadState>,
    /// Per-node state, in node-list order.
    nodes: Vec<NodeState>,
    node_list: Vec<NodeId>,
    workload: Workload,
    rng: Option<SplitMix64>,
    /// Counters.
    pub stats: SimStats,
    /// Serialisation-order expected value per coherent address.
    expected: FxHashMap<Addr, u64>,
    expected_io: FxHashMap<Addr, u64>,
    version: u64,
    /// Bounded step log (enable with [`Sim::enable_trace`]). `None`
    /// means it is off — the per-event cost is a single `Option` check.
    log: Option<StepLog>,
    /// Latency per operation type, indexed like [`CPU_OPS`].
    latency: [LatAgg; CPU_OPS.len()],
    /// Per-table row hit counts, indexed like [`TABLE_NAMES`] and then
    /// by row id: how often each specification row was exercised
    /// (table coverage).
    coverage: [Vec<u64>; TABLE_NAMES.len()],
    /// Fault injector (chaos mode); `None` keeps every hot path
    /// byte-identical to the pre-chaos engine.
    chaos: Option<FaultInjector>,
    /// Diagnoses of operations abandoned after exhausting retries.
    abandoned: Vec<String>,
    /// This step's controller order (reused across steps).
    order: Vec<Ctrl>,
    /// The messages the current controller attempt sends (reused).
    plan: Vec<SimMsg>,
    /// This step's blocked attempts.
    stalls: Vec<Stall>,
}

/// Default retention of the step log ([`Sim::enable_trace`]).
const DEFAULT_TRACE_CAP: usize = 4096;

/// The simulator's step log: rendered `sim.<event> key=value …` lines,
/// at most `cap` of them. When full, the oldest line is evicted and
/// counted, so a long run can never grow the log without bound. One
/// thread drives a [`Sim`], so the log is a plain owned deque.
struct StepLog {
    cap: usize,
    dropped: u64,
    lines: VecDeque<String>,
}

impl StepLog {
    fn push(&mut self, name: &str, fields: Vec<(&'static str, FieldValue)>) {
        let mut line = format!("sim.{name}");
        for (k, v) in fields {
            write!(line, " {k}={v}").expect("writing to a String cannot fail");
        }
        if self.lines.len() >= self.cap {
            self.lines.pop_front();
            self.dropped += 1;
        }
        self.lines.push_back(line);
    }
}

/// Latency aggregate for one operation type (in engine steps).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatAgg {
    /// Completed operations.
    pub count: u64,
    /// Sum of latencies.
    pub total: u64,
    /// Maximum latency.
    pub max: u64,
}

impl LatAgg {
    /// Mean latency in steps.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

impl Sim {
    /// Build a simulator running the given generated tables.
    pub fn new(gen: &GeneratedProtocol, cfg: SimConfig, workload: Workload) -> Sim {
        let v = vocab();
        let tables = Tables::decode(gen);
        let node_list: Vec<NodeId> = (0..cfg.quads)
            .flat_map(|q| (0..cfg.nodes_per_quad).map(move |n| NodeId::new(q, n)))
            .collect();
        assert_eq!(
            workload.queues.len(),
            node_list.len(),
            "workload must have one queue per node"
        );
        let nodes = node_list.iter().map(|_| NodeState::default()).collect();
        let rng = match cfg.schedule {
            Schedule::Fixed => None,
            Schedule::Random(seed) => Some(SplitMix64::new(seed)),
        };
        let coverage = [
            tables.d.len(),
            tables.m.len(),
            tables.n.len(),
            tables.r.len(),
        ]
        .map(|rows| vec![0; rows]);
        Sim {
            cfg,
            tables,
            v,
            channels: Channels::new(cfg.quads, cfg.vc_capacity),
            quads: (0..cfg.quads).map(|_| QuadState::default()).collect(),
            nodes,
            node_list,
            workload,
            rng,
            stats: SimStats::default(),
            expected: FxHashMap::default(),
            expected_io: FxHashMap::default(),
            version: 0,
            log: None,
            latency: [LatAgg::default(); CPU_OPS.len()],
            coverage,
            chaos: None,
            abandoned: Vec::new(),
            order: Vec::new(),
            plan: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// Position of `node` in the node list; panics for a node this
    /// machine does not have.
    fn node_idx(&self, node: NodeId) -> usize {
        let (q, n) = (node.quad as usize, node.node as usize);
        assert!(
            q < self.cfg.quads && n < self.cfg.nodes_per_quad,
            "node {node} is not in this machine"
        );
        q * self.cfg.nodes_per_quad + n
    }

    /// Arm chaos mode: all subsequent sends pass through the fault
    /// injector, pending operations get timeouts and bounded
    /// retransmission, and stray messages are discarded (counted in
    /// [`SimStats::strays`]) instead of failing the run. Must be called
    /// before the first step.
    pub fn enable_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(FaultInjector::new(plan));
    }

    /// Is chaos armed with a plan that can actually discard messages?
    /// Failsafes that alter protocol behaviour key off this so a quiet
    /// plan stays byte-identical to a chaos-free run.
    fn chaos_lossy(&self) -> bool {
        self.chaos.as_ref().is_some_and(|f| f.plan.can_drop())
    }

    /// The fault injector's counters, if chaos mode is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.chaos.as_ref().map(|f| f.stats)
    }

    /// Diagnoses of operations abandoned after exhausting retries.
    pub fn abandoned(&self) -> &[String] {
        &self.abandoned
    }

    /// Keep a step log of the run, retaining the last 4096 lines.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with_cap(DEFAULT_TRACE_CAP);
    }

    /// Keep a step log retaining at most `cap` lines (at least one).
    pub fn enable_trace_with_cap(&mut self, cap: usize) {
        let cap = cap.max(1);
        self.log = Some(StepLog {
            cap,
            dropped: 0,
            lines: VecDeque::with_capacity(cap.min(1024)),
        });
    }

    /// The retained step-log lines (`sim.<event> key=value …`), oldest
    /// first; empty when the log is off.
    pub fn trace(&self) -> Vec<String> {
        self.log
            .as_ref()
            .map(|l| l.lines.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Lines evicted from the bounded step log.
    pub fn trace_dropped(&self) -> u64 {
        self.log.as_ref().map_or(0, |l| l.dropped)
    }

    /// Append one line to the step log; the field closure only runs
    /// when the log is on, so the disabled path does no formatting or
    /// allocation at all.
    #[inline]
    fn trace_event<F>(&mut self, name: &'static str, fields: F)
    where
        F: FnOnce() -> Vec<(&'static str, FieldValue)>,
    {
        if let Some(log) = &mut self.log {
            log.push(name, fields());
        }
    }

    /// Home quad of an address.
    pub fn home_quad(&self, addr: Addr) -> u8 {
        ((addr & !IO_SPACE) as usize % self.cfg.quads) as u8
    }

    /// The virtual channel carrying `msg` (mirrors
    /// `ccsql::vc::VcAssignment`).
    pub fn vc_for(&self, msg: &SimMsg) -> VcId {
        let req = self.v.requests.contains(&msg.name);
        match (msg.src, msg.dest) {
            (Endpoint::Node(_), Endpoint::Dir(_)) if req => VcId::Vc(0),
            (Endpoint::Dir(_), Endpoint::Node(_)) if req => VcId::Vc(1),
            (Endpoint::Node(_), Endpoint::Dir(_)) => VcId::Vc(2),
            (Endpoint::Mem(_), Endpoint::Dir(_)) => VcId::Vc(2),
            (Endpoint::Dir(_), Endpoint::Node(_)) => VcId::Vc(3),
            (Endpoint::Dir(_), Endpoint::Mem(_)) => {
                let path = msg.name == self.v.mread || msg.name == self.v.mwrite;
                if self.cfg.dedicated_mem_path && path {
                    VcId::Path
                } else {
                    VcId::Vc(4)
                }
            }
            other => panic!("no channel for {other:?}"),
        }
    }

    /// The buffer `msg` is sent to.
    fn buffer(&self, msg: &SimMsg) -> (u8, VcId) {
        (msg.dest.quad(), self.vc_for(msg))
    }

    /// How many messages of `self.plan` from index `from` on go to `buf`.
    fn plan_needs(&self, from: usize, buf: (u8, VcId)) -> usize {
        self.plan[from..]
            .iter()
            .filter(|m| self.buffer(m) == buf)
            .count()
    }

    /// The first buffer, in plan order, without room for the messages
    /// `self.plan` sends to it, treating one slot of `freeing` as
    /// available (the input buffer being popped). A buffer's first
    /// message counts all of the plan's messages to it, and a later one
    /// fewer, so a full buffer is met at its first message.
    fn full_buffer(&self, freeing: Option<(u8, VcId)>) -> Option<(u8, VcId)> {
        (0..self.plan.len()).find_map(|i| {
            let (q, vc) = self.buffer(&self.plan[i]);
            let mut free = self.channels.free(q, vc);
            if freeing == Some((q, vc)) {
                free = free.saturating_add(1);
            }
            (free < self.plan_needs(i, (q, vc))).then_some((q, vc))
        })
    }

    /// Send every message of `self.plan`, in order.
    fn send_all(&mut self) {
        for i in 0..self.plan.len() {
            let m = self.plan[i];
            let (quad, vc) = self.buffer(&m);
            let decision = match &mut self.chaos {
                Some(f) => f.decide(&m),
                None => Decision::Deliver,
            };
            match decision {
                Decision::Deliver => {
                    self.trace_event("send", || {
                        vec![("msg", m.to_string().into()), ("vc", vc.to_string().into())]
                    });
                    self.channels.send(quad, vc, m);
                    self.stats.msgs += 1;
                }
                Decision::Drop => {
                    self.stats.faults_injected += 1;
                    self.trace_event("fault_drop", || {
                        vec![("msg", m.to_string().into()), ("vc", vc.to_string().into())]
                    });
                }
                Decision::Duplicate => {
                    self.stats.faults_injected += 1;
                    self.trace_event("send", || {
                        vec![("msg", m.to_string().into()), ("vc", vc.to_string().into())]
                    });
                    self.channels.send(quad, vc, m);
                    self.stats.msgs += 1;
                    // Slots reserved by `full_buffer` for messages later
                    // in this plan must not be stolen by the duplicate.
                    let spare = self.plan_needs(i + 1, (quad, vc));
                    if self.channels.free(quad, vc) > spare {
                        self.trace_event("fault_dup", || {
                            vec![("msg", m.to_string().into()), ("vc", vc.to_string().into())]
                        });
                        self.channels.send(quad, vc, m);
                        self.stats.msgs += 1;
                    } else {
                        self.stats.faults_injected -= 1;
                        if let Some(f) = &mut self.chaos {
                            f.duplicate_suppressed();
                        }
                    }
                }
                Decision::Delay(steps) => {
                    self.stats.faults_injected += 1;
                    let now = self.stats.steps;
                    self.trace_event("fault_delay", || {
                        vec![("msg", m.to_string().into()), ("steps", steps.into())]
                    });
                    if let Some(f) = &mut self.chaos {
                        f.park(quad, vc, m, now, steps);
                    }
                }
                Decision::Front => {
                    self.stats.faults_injected += 1;
                    self.trace_event("fault_reorder", || {
                        vec![("msg", m.to_string().into()), ("vc", vc.to_string().into())]
                    });
                    self.channels.send_front(quad, vc, m);
                    self.stats.msgs += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------ setup
    // (public so scripted scenarios can pre-establish machine state)

    /// Install a cache line at a node.
    pub fn set_cache(&mut self, node: NodeId, addr: Addr, st: &str, value: u64) {
        let i = self.node_idx(node);
        let ns = &mut self.nodes[i];
        if st == "I" {
            ns.cache.remove(&addr);
        } else {
            ns.cache.insert(addr, (Sym::intern(st), value));
        }
    }

    /// Install a directory entry at the home quad of `addr`.
    pub fn set_dir(&mut self, addr: Addr, st: &str, sharers: &[NodeId]) {
        let q = self.home_quad(addr) as usize;
        let mut pv = PresenceVector::new();
        for &n in sharers {
            pv.set(n);
        }
        if st == "I" {
            self.quads[q].dir.remove(&addr);
        } else {
            self.quads[q].dir.insert(
                addr,
                DirEntry {
                    st: Sym::intern(st),
                    pv,
                },
            );
        }
    }

    /// Write home memory directly.
    pub fn set_mem(&mut self, addr: Addr, value: u64) {
        let q = self.home_quad(addr) as usize;
        self.quads[q].mem.insert(addr, value);
    }

    /// Declare the serialisation-order value of `addr` (for scripted
    /// scenarios that pre-install written lines).
    pub fn set_expected(&mut self, addr: Addr, value: u64) {
        self.expected.insert(addr, value);
    }

    /// Directory state (for assertions in tests).
    pub fn dir_state(&self, addr: Addr) -> (String, u32) {
        let q = &self.quads[self.home_quad(addr) as usize];
        (q.dirst(addr).to_string(), q.dirpv(addr).count())
    }

    /// Cache state of a node (for assertions in tests).
    pub fn cache_state(&self, node: NodeId, addr: Addr) -> (String, u64) {
        let ns = &self.nodes[self.node_idx(node)];
        ns.cache
            .get(&addr)
            .map(|&(st, v)| (st.to_string(), v))
            .unwrap_or(("I".to_string(), 0))
    }

    /// Memory contents at the home of `addr`.
    pub fn mem_value(&self, addr: Addr) -> u64 {
        let q = &self.quads[self.home_quad(addr) as usize];
        *q.mem.get(&addr).unwrap_or(&0)
    }

    /// Chaos mode: the protocol boundary is giving up on an operation
    /// whose stored message is a payload-carrying writeback — the only
    /// architectural copy of a modified line (the cache entry is
    /// released when the writeback issues, so the stored message *is*
    /// the writeback buffer). Drain it directly to home memory over the
    /// dedicated datapath, exactly as `flush@M` and snooped-`M` lines
    /// already do, so abandoning the writeback does not lose its data.
    fn failsafe_writeback(&mut self, pend: &PendTxn) {
        let Some(m) = pend.msg else {
            return;
        };
        if m.name != self.v.wb {
            return;
        }
        let Some(v) = m.payload else {
            return;
        };
        let h = self.home_quad(m.addr) as usize;
        self.quads[h].mem.insert(m.addr, v);
        self.trace_event("failsafe_wb", || {
            vec![("addr", (m.addr as u64).into()), ("value", v.into())]
        });
    }

    /// Chaos mode only: consume and count a message the protocol state
    /// no longer expects (a duplicate of an already-processed delivery,
    /// or a response to an abandoned operation). Strays are harmless by
    /// construction — discarding one is indistinguishable from the
    /// network having dropped it.
    fn discard_stray(&mut self, q: u8, vc: VcId, msg: &SimMsg, at: &'static str) -> Progress {
        self.channels.pop(q, vc);
        self.stats.strays += 1;
        self.trace_event("stray", || {
            vec![("at", at.into()), ("msg", msg.to_string().into())]
        });
        Progress::Worked
    }

    // -------------------------------------------------------- directory

    /// One directory-controller attempt at quad `q` (responses first).
    pub fn try_dir(&mut self, q: u8) -> Result<CtrlStep, SimError> {
        for vc in [VcId::Vc(2), VcId::Vc(0)] {
            match self.dir_process(q, vc)? {
                Progress::Idle => continue,
                p => return Ok(CtrlStep(p)),
            }
        }
        Ok(CtrlStep(Progress::Idle))
    }

    fn dir_process(&mut self, q: u8, vc: VcId) -> Result<Progress, SimError> {
        let Some(msg) = self.channels.head(q, vc).copied() else {
            return Ok(Progress::Idle);
        };
        let v = self.v;
        let addr = msg.addr;
        let qs = &self.quads[q as usize];
        let busy = qs.busy.get(&addr).copied();
        let dirst = qs.dirst(addr);
        let dirpv = qs.dirpv(addr);
        let key = [
            Value::Sym(msg.name),
            Value::Sym(dirst),
            Value::Sym(v.count_encoding(dirpv.count())),
            Value::Sym(qs.bdirst(addr)),
            Value::Sym(qs.bdirpv_encoding(addr)),
        ];
        // Retry rows use the NULL don't-care busy presence vector.
        let null_key = {
            let mut k2 = key;
            k2[4] = Value::Null;
            k2
        };
        let d = &self.tables.d;
        let Some((row_idx, &row)) = d.lookup(&key).or_else(|| d.lookup(&null_key)) else {
            if self.chaos.is_some() {
                return Ok(self.discard_stray(q, vc, &msg, "D"));
            }
            return Err(SimError::NoRow {
                controller: "D",
                key: format!("{key:?}"),
            });
        };

        // -------- plan outputs
        let sender = match msg.src {
            Endpoint::Node(n) => Some(n),
            _ => None,
        };
        let requester = busy.map(|b| b.requester).or(sender);

        // A retry answers the message's sender; a duplicated or delayed
        // non-node message can hit a retry row with no sender to answer.
        if row.loc_retry && sender.is_none() {
            if self.chaos.is_some() {
                return Ok(self.discard_stray(q, vc, &msg, "D"));
            }
            return Err(SimError::RetryWithoutSender {
                msg: msg.to_string(),
            });
        }
        if row.locmsg.is_some() && !row.loc_retry && requester.is_none() {
            if self.chaos.is_some() {
                return Ok(self.discard_stray(q, vc, &msg, "D"));
            }
            return Err(SimError::UnexpectedResponse {
                context: format!("D{q}: {msg} needs a requester but none is known"),
            });
        }
        // A row updating a busy entry can meet a missing entry when a
        // duplicated response arrives after the transaction completed.
        if row.bdirupd == Upd::Write && busy.is_none() {
            if self.chaos.is_some() {
                return Ok(self.discard_stray(q, vc, &msg, "D"));
            }
            return Err(SimError::UnexpectedResponse {
                context: format!("D{q}: {msg} updates a busy entry that does not exist"),
            });
        }
        // Hardware directories collect snoop responses in a vector of
        // responders, not a bare count: a response from a node that
        // already answered is a duplicate (or the echo of a duplicated
        // snoop) and must not decrement the outstanding count again.
        if row.bdirupd == Upd::Write && row.nxtbdirpv == PvOp::Dec {
            if let (Some(b), Some(s)) = (busy, sender) {
                if b.answered.contains(s) {
                    if self.chaos.is_some() {
                        return Ok(self.discard_stray(q, vc, &msg, "D"));
                    }
                    return Err(SimError::UnexpectedResponse {
                        context: format!("D{q}: {msg} is a second response from {s}"),
                    });
                }
            }
        }

        self.plan.clear();
        if let Some(l) = row.locmsg {
            let target = if row.loc_retry {
                sender.expect("checked above")
            } else {
                requester.expect("checked above")
            };
            let mut out = message(l, addr, Endpoint::Dir(q), Endpoint::Node(target));
            // Data-bearing responses forward the incoming payload.
            if row.loc_payload {
                out.payload = msg.payload;
            }
            self.plan.push(out);
        }
        let mut snooped = 0;
        if let Some(r) = row.remmsg {
            // Snoops go to the current sharers; an upgrading requester
            // keeps its copy and is not snooped.
            for t in dirpv.nodes() {
                if !(row.upgrade && Some(t) == requester) {
                    self.plan
                        .push(message(r, addr, Endpoint::Dir(q), Endpoint::Node(t)));
                    snooped += 1;
                }
            }
        }
        if let Some(mm) = row.memmsg {
            let mut out = message(mm, addr, Endpoint::Dir(q), Endpoint::Mem(q));
            if row.mem_payload {
                out.payload = msg.payload;
            }
            self.plan.push(out);
        }

        if let Some(slot) = self.full_buffer(Some((q, vc))) {
            return Ok(Progress::Blocked(Stall {
                who: Waiter::Dir(q, msg),
                slot,
            }));
        }

        // -------- commit
        self.channels.pop(q, vc);
        self.coverage[COV_D][row_idx] += 1;
        self.trace_event("dir", || {
            vec![
                ("quad", (q as u64).into()),
                ("row", row_idx.into()),
                ("msg", msg.to_string().into()),
            ]
        });
        let qs = &mut self.quads[q as usize];

        // Busy-directory update.
        match row.bdirupd {
            Upd::Alloc => {
                let st = row.nxtbdirst.expect("alloc names a busy state");
                // The busy presence vector counts outstanding snoop
                // responses when snoops were sent; for non-snooping
                // transactions `repl` copies the sharer count so the
                // completion row can distinguish shared from unshared
                // lines (read@SI vs read@I).
                let pending = if snooped > 0 {
                    snooped
                } else if row.nxtbdirpv == PvOp::Repl {
                    dirpv.count()
                } else {
                    0
                };
                qs.busy.insert(
                    addr,
                    BusyEntry {
                        st,
                        pending,
                        requester: sender.expect("requests come from nodes"),
                        req: msg.name,
                        saved_pv: dirpv,
                        answered: PresenceVector::new(),
                    },
                );
            }
            Upd::Write => {
                let e = qs.busy.get_mut(&addr).expect("busy entry");
                if let Some(st) = row.nxtbdirst {
                    e.st = st;
                }
                if row.nxtbdirpv == PvOp::Dec {
                    e.pending = e.pending.saturating_sub(1);
                    if let Some(s) = sender {
                        e.answered.set(s);
                    }
                }
            }
            Upd::Dealloc => {
                qs.busy.remove(&addr);
            }
            Upd::Keep => {}
        }

        // Directory update. Presence-vector operations use the sharer
        // set saved at transaction start (or the live one when no
        // transaction is involved) with the requester as operand.
        match row.dirupd {
            Upd::Dealloc => {
                qs.dir.remove(&addr);
            }
            Upd::Alloc | Upd::Write => {
                let base = busy.map(|b| b.saved_pv).unwrap_or(dirpv);
                let operand = requester.expect("directory update needs a requester");
                let pv = match row.nxtdirpv {
                    PvOp::Inc => {
                        let mut p = base;
                        p.set(operand);
                        p
                    }
                    PvOp::Repl => {
                        let mut p = PresenceVector::new();
                        p.set(operand);
                        p
                    }
                    PvOp::Dec => {
                        let mut p = base;
                        p.clear(operand);
                        p
                    }
                    PvOp::Drepl => {
                        let mut p = base;
                        p.clear(operand);
                        if p.count() == 0 {
                            let mut r2 = PresenceVector::new();
                            r2.set(operand);
                            r2
                        } else {
                            p
                        }
                    }
                    PvOp::Keep => base,
                };
                let st = row.nxtdirst.unwrap_or(dirst);
                qs.dir.insert(addr, DirEntry { st, pv });
            }
            Upd::Keep => {}
        }

        if row.cmpl {
            self.stats.completed += 1;
        }
        self.send_all();
        Ok(Progress::Worked)
    }

    // ----------------------------------------------------------- memory

    /// One home-memory-controller attempt at quad `q`.
    pub fn try_mem(&mut self, q: u8) -> Result<CtrlStep, SimError> {
        for vc in [VcId::Path, VcId::Vc(4)] {
            let Some(msg) = self.channels.head(q, vc).copied() else {
                continue;
            };
            let key = [Value::Sym(msg.name)];
            let Some((row_idx, &row)) = self.tables.m.lookup(&key) else {
                if self.chaos.is_some() {
                    return Ok(CtrlStep(self.discard_stray(q, vc, &msg, "M")));
                }
                return Err(SimError::NoRow {
                    controller: "M",
                    key: format!("{key:?}"),
                });
            };
            self.plan.clear();
            if let Some(o) = row.outmsg {
                let mut reply = message(o, msg.addr, Endpoint::Mem(q), Endpoint::Dir(q));
                let qs = &self.quads[q as usize];
                reply.payload = match row.reads {
                    Store::Mem => Some(*qs.mem.get(&msg.addr).unwrap_or(&0)),
                    Store::Io => Some(*qs.io.get(&msg.addr).unwrap_or(&0)),
                    Store::Neither => None,
                };
                self.plan.push(reply);
            }
            if let Some(slot) = self.full_buffer(Some((q, vc))) {
                return Ok(CtrlStep(Progress::Blocked(Stall {
                    who: Waiter::Mem(q, msg),
                    slot,
                })));
            }
            self.channels.pop(q, vc);
            self.coverage[COV_M][row_idx] += 1;
            self.trace_event("mem", || {
                vec![
                    ("quad", (q as u64).into()),
                    ("row", row_idx.into()),
                    ("msg", msg.to_string().into()),
                ]
            });
            if let Some(v) = msg.payload {
                let qs = &mut self.quads[q as usize];
                match row.writes {
                    Store::Mem => {
                        qs.mem.insert(msg.addr, v);
                    }
                    Store::Io => {
                        qs.io.insert(msg.addr, v);
                    }
                    Store::Neither => {}
                }
            }
            self.send_all();
            return Ok(CtrlStep(Progress::Worked));
        }
        Ok(CtrlStep(Progress::Idle))
    }

    // ------------------------------------------------- node (responses)

    /// Process the head of quad `q`'s VC3 buffer at its destination
    /// node. Response processing emits no messages, so VC3 always
    /// drains.
    pub fn try_node_rsp(&mut self, q: u8) -> Result<CtrlStep, SimError> {
        let Some(msg) = self.channels.head(q, VcId::Vc(3)).copied() else {
            return Ok(CtrlStep(Progress::Idle));
        };
        let Endpoint::Node(node) = msg.dest else {
            panic!("VC3 carries node responses");
        };
        let v = self.v;
        let ni = self.node_idx(node);
        let addr = msg.addr;
        // A duplicated or delayed response can arrive after its
        // transaction completed (no pend) or after an abandoned op was
        // replaced by one for another address.
        let pend = match self.nodes[ni].pend {
            Some(p) if p.addr == addr => p,
            other => {
                let why = if other.is_none() {
                    "no pending transaction"
                } else {
                    "a pending transaction for a different address"
                };
                if self.chaos.is_some() {
                    return Ok(CtrlStep(self.discard_stray(q, VcId::Vc(3), &msg, "N")));
                }
                return Err(SimError::UnexpectedResponse {
                    context: format!("{node} received {msg} but has {why}"),
                });
            }
        };
        let key = [
            Value::Sym(msg.name),
            // I/O addresses are never cached → "I"
            Value::Sym(self.nodes[ni].cachest(addr)),
            Value::Sym(pend.st),
        ];
        let Some((row_idx, &row)) = self.tables.n.lookup(&key) else {
            if self.chaos.is_some() {
                return Ok(CtrlStep(self.discard_stray(q, VcId::Vc(3), &msg, "N")));
            }
            return Err(SimError::NoRow {
                controller: "N",
                key: format!("{key:?}"),
            });
        };
        debug_assert!(row.outmsg.is_none(), "responses emit nothing");
        let cpures = row.cpures.expect("cpures is total");

        self.channels.pop(q, VcId::Vc(3));
        self.coverage[COV_N][row_idx] += 1;
        let ns = &mut self.nodes[ni];

        // Cache update: the new value is the response payload for reads,
        // the pending written value for writes.
        if let Some(st) = row.nxtcachest {
            if st == v.i {
                ns.cache.remove(&addr);
            } else {
                let value = if pend.st == v.p_write {
                    pend.value
                } else {
                    msg.payload.unwrap_or(0)
                };
                ns.cache.insert(addr, (st, value));
            }
        }
        if row.nxtpendst == Some(v.none) {
            ns.pend = None;
        }

        // Checker + bookkeeping.
        let mut err = None;
        match cpures {
            CpuRes::Done => {
                ns.redo_streak = 0;
                let lat = self.stats.steps.saturating_sub(pend.issued_at);
                let agg = &mut self.latency[op_slot(pend.op)];
                agg.count += 1;
                agg.total += lat;
                agg.max = agg.max.max(lat);
                if pend.st == v.p_read && row.rsp == RspKind::Data {
                    self.stats.read_checks += 1;
                    let want = *self.expected.get(&addr).unwrap_or(&0);
                    let got = msg.payload.unwrap_or(0);
                    if want != got {
                        err = Some(format!(
                            "{node} read 0x{addr:x}: got {got}, serialisation order says {want}"
                        ));
                    }
                } else if pend.st == v.p_write {
                    self.expected.insert(addr, pend.value);
                } else if pend.st == v.p_io && row.rsp == RspKind::IoData {
                    self.stats.read_checks += 1;
                    let want = *self.expected_io.get(&addr).unwrap_or(&0);
                    let got = msg.payload.unwrap_or(0);
                    if want != got {
                        err = Some(format!(
                            "{node} ioread 0x{addr:x}: got {got}, expected {want}"
                        ));
                    }
                } else if pend.st == v.p_io && row.rsp == RspKind::IoCompl {
                    self.expected_io.insert(addr, pend.value);
                }
            }
            CpuRes::Redo => {
                // Retried: re-issue the processor op from the front.
                self.stats.retries += 1;
                let max_streak = self.chaos.as_ref().map(|f| f.plan.max_retries as u64);
                // A retried writeback cannot be re-issued through the
                // workload path — the cache line is already gone, so a
                // fresh issue would send an empty writeback. Drain the
                // buffered data instead; the evict is then
                // architecturally complete.
                let wb_payload = self.chaos_lossy()
                    && pend
                        .msg
                        .is_some_and(|m| m.name == v.wb && m.payload.is_some());
                if wb_payload {
                    self.failsafe_writeback(&pend);
                    let ns = &mut self.nodes[ni];
                    ns.retries += 1;
                    ns.redo_streak = 0;
                    return Ok(CtrlStep(Progress::Worked));
                }
                let ns = &mut self.nodes[ni];
                ns.retries += 1;
                ns.redo_streak += 1;
                let streak = ns.redo_streak;
                if max_streak.is_some_and(|m| streak > m) {
                    // Chaos mode: a fault broke the transaction this op
                    // keeps colliding with (e.g. a dropped snoop
                    // response left the line busy forever). Abandon the
                    // op instead of retrying until the step budget.
                    ns.redo_streak = 0;
                    self.stats.abandoned += 1;
                    self.abandoned.push(format!(
                        "{node}: {:?} on 0x{addr:x} abandoned after {streak} consecutive retries",
                        pend.op
                    ));
                    self.trace_event("abandon", || {
                        vec![
                            ("node", node.to_string().into()),
                            ("op", format!("{:?}", pend.op).into()),
                        ]
                    });
                } else {
                    self.workload.queues[ni].push_front(pend.op);
                }
            }
            CpuRes::Other => {}
        }
        self.trace_event("node_rsp", || {
            vec![
                ("node", node.to_string().into()),
                ("row", row_idx.into()),
                ("msg", msg.to_string().into()),
            ]
        });
        if let Some(e) = err {
            return Err(SimError::Coherence(e));
        }
        Ok(CtrlStep(Progress::Worked))
    }

    // -------------------------------------------------------------- RAC

    /// Process the head of quad `q`'s VC1 buffer (a snoop) at its
    /// destination node's remote access cache.
    ///
    /// A snoop colliding with the destination node's own pending
    /// transaction on the same line is parked in the node's snoop-hold
    /// register (real RACs implement this with transient states), so
    /// the snoop channel always drains. Exception: a pending *flush*
    /// snoops its own already-invalidated line — answered immediately,
    /// as the flush completion depends on this very response.
    pub fn try_rac(&mut self, q: u8) -> Result<CtrlStep, SimError> {
        let Some(msg) = self.channels.head(q, VcId::Vc(1)).copied() else {
            return Ok(CtrlStep(Progress::Idle));
        };
        let Endpoint::Node(node) = msg.dest else {
            panic!("VC1 carries snoops to nodes");
        };
        let ni = self.node_idx(node);
        if self.snoop_collides(ni, &msg) {
            if self.nodes[ni].held_snoop.is_some() {
                // A duplicated snoop would be the second held one; the
                // directory serialises per address, so outside chaos
                // mode this cannot happen.
                if self.chaos.is_some() {
                    return Ok(CtrlStep(self.discard_stray(q, VcId::Vc(1), &msg, "RAC")));
                }
                panic!("second held snoop at {node} — the directory must serialise per address");
            }
            self.channels.pop(q, VcId::Vc(1));
            self.nodes[ni].held_snoop = Some(msg);
            self.trace_event("rac_hold", || {
                vec![
                    ("node", node.to_string().into()),
                    ("msg", msg.to_string().into()),
                ]
            });
            return Ok(CtrlStep(Progress::Worked));
        }
        self.rac_answer(msg, Some((q, VcId::Vc(1))))
    }

    /// Replay the held snoop of node-list entry `idx`, if its pending
    /// collision has cleared.
    pub fn try_held_snoop(&mut self, idx: usize) -> Result<CtrlStep, SimError> {
        let Some(msg) = self.nodes[idx].held_snoop else {
            return Ok(CtrlStep(Progress::Idle));
        };
        if self.snoop_collides(idx, &msg) {
            return Ok(CtrlStep(Progress::Idle));
        }
        let p = self.rac_answer(msg, None)?;
        if p.worked() {
            self.nodes[idx].held_snoop = None;
        }
        Ok(p)
    }

    /// Does `msg` hit the pending transaction of node-list entry `idx`?
    fn snoop_collides(&self, idx: usize, msg: &SimMsg) -> bool {
        match self.nodes[idx].pend {
            Some(p) => p.addr == msg.addr && p.st != self.v.p_flush,
            None => false,
        }
    }

    /// Answer a snoop at its destination RAC. `pop_from` names the
    /// buffer the snoop is consumed from (None when replaying a held
    /// snoop).
    fn rac_answer(
        &mut self,
        msg: SimMsg,
        pop_from: Option<(u8, VcId)>,
    ) -> Result<CtrlStep, SimError> {
        let Endpoint::Node(node) = msg.dest else {
            panic!("snoops target nodes");
        };
        let v = self.v;
        let ni = self.node_idx(node);
        let addr = msg.addr;
        let ns = &self.nodes[ni];
        let cache_value = ns.cache.get(&addr).map(|&(_, val)| val);
        let key = [Value::Sym(msg.name), Value::Sym(ns.cachest(addr))];
        let Some((row_idx, &row)) = self.tables.r.lookup(&key) else {
            if let Some((q, vc)) = pop_from {
                if self.chaos.is_some() {
                    return Ok(CtrlStep(self.discard_stray(q, vc, &msg, "R")));
                }
            }
            return Err(SimError::NoRow {
                controller: "R",
                key: format!("{key:?}"),
            });
        };
        let rsp = row.rspmsg.expect("snoops are answered");
        let home = match msg.src {
            Endpoint::Dir(h) => h,
            _ => panic!("snoops come from a directory"),
        };
        let mut reply = message(rsp, addr, Endpoint::Node(node), Endpoint::Dir(home));
        if row.rsp_payload {
            reply.payload = cache_value;
        }
        self.plan.clear();
        self.plan.push(reply);
        if let Some(slot) = self.full_buffer(pop_from) {
            return Ok(CtrlStep(Progress::Blocked(Stall {
                who: Waiter::Rac(node, msg),
                slot,
            })));
        }
        if let Some((q, vc)) = pop_from {
            self.channels.pop(q, vc);
        }
        self.coverage[COV_R][row_idx] += 1;
        // The owner's modified data is written back over the dedicated
        // writeback datapath before the invalidation completes (the
        // Figure-4 narrative: "the remote node writes back its modified
        // line A to memory before receiving sinv(A)"). A lossy fault
        // plan extends this to every snoop of a modified line: the
        // data-bearing snoop response can be dropped in flight, and the
        // datapath write is what keeps a fault from turning into data
        // loss after the owner has already downgraded.
        if row.modified && (row.sinv || self.chaos_lossy()) {
            if let Some(val) = cache_value {
                let h = self.home_quad(addr) as usize;
                self.quads[h].mem.insert(addr, val);
            }
        }
        let ns = &mut self.nodes[ni];
        if let Some(st) = row.nxtlinest {
            if st == v.i {
                ns.cache.remove(&addr);
            } else if let Some(e) = ns.cache.get_mut(&addr) {
                e.0 = st;
            }
        }
        self.trace_event("rac_answer", || {
            vec![
                ("node", node.to_string().into()),
                ("row", row_idx.into()),
                ("msg", msg.to_string().into()),
            ]
        });
        self.send_all();
        Ok(CtrlStep(Progress::Worked))
    }

    // ------------------------------------------------------------ issue

    /// Let node `idx` (in node-list order) issue its next processor op.
    pub fn try_issue(&mut self, idx: usize) -> Result<CtrlStep, SimError> {
        let node = self.node_list[idx];
        let v = self.v;
        if self.nodes[idx].pend.is_some() {
            return Ok(CtrlStep(Progress::Idle));
        }
        let Some(&op) = self.workload.queues[idx].front() else {
            return Ok(CtrlStep(Progress::Idle));
        };
        let addr = if op.is_io() {
            op.addr() | IO_SPACE
        } else {
            op.addr()
        };
        let ns = &self.nodes[idx];
        let cached = ns.cache.get(&addr).copied();
        let cachest = ns.cachest(addr);
        let key = [
            Value::Sym(v.cpu[op_slot(op)]),
            Value::Sym(cachest),
            Value::Sym(ns.pendst()),
        ];
        let Some((issue_row_idx, &row)) = self.tables.n.lookup(&key) else {
            return Err(SimError::NoRow {
                controller: "N",
                key: format!("{key:?}"),
            });
        };

        let home = self.home_quad(addr);
        self.plan.clear();
        let mut value = 0;
        if let Some(o) = row.outmsg {
            let mut m = message(o, addr, Endpoint::Node(node), Endpoint::Dir(home));
            match row.issue {
                IssueKind::Writeback => {
                    m.payload = cached.map(|(_, val)| val);
                }
                IssueKind::IoWrite => {
                    self.version += 1;
                    value = self.version;
                    m.payload = Some(value);
                }
                IssueKind::Versioned => {
                    self.version += 1;
                    value = self.version;
                }
                IssueKind::Plain => {}
            }
            self.plan.push(m);
            if let Some(slot) = self.full_buffer(None) {
                return Ok(CtrlStep(Progress::Blocked(Stall {
                    who: Waiter::Issue(node, op),
                    slot,
                })));
            }
        }

        // Commit the issue.
        self.workload.queues[idx].pop_front();
        self.coverage[COV_N][issue_row_idx] += 1;
        // A flushed modified line is written back over the dedicated
        // datapath before the system-wide flush proceeds.
        if matches!(op, CpuOp::Flush(_)) && cachest == v.m {
            if let Some((_, val)) = cached {
                let h = self.home_quad(addr) as usize;
                self.quads[h].mem.insert(addr, val);
            }
        }
        let ns = &mut self.nodes[idx];
        if let Some(st) = row.nxtcachest {
            if st == v.i {
                ns.cache.remove(&addr);
            } else {
                // Write hit on an exclusive line: new value, new version.
                self.version += 1;
                let val = self.version;
                ns.cache.insert(addr, (st, val));
                self.expected.insert(addr, val);
            }
        }
        if row.outmsg.is_some() {
            let pendst = row.nxtpendst.expect("a sent request has a pending state");
            let issued_at = self.stats.steps;
            // I/O ops are outside the fault boundary (the injector
            // never faults I/O messages), so they get no timeout: a
            // spurious retransmitted iowrite would re-apply its value
            // to the un-serialised I/O space.
            let deadline = match &self.chaos {
                Some(f) if !op.is_io() => issued_at + f.plan.timeout_steps,
                _ => u64::MAX,
            };
            let sent = self.plan.first().copied();
            self.nodes[idx].pend = Some(PendTxn {
                st: pendst,
                addr,
                op,
                value,
                issued_at,
                attempts: 0,
                deadline,
                msg: sent,
            });
            self.stats.issued += 1;
            self.trace_event("issue", || {
                vec![
                    ("node", node.to_string().into()),
                    ("op", format!("{op:?}").into()),
                ]
            });
            self.send_all();
        } else {
            self.stats.hits += 1;
        }
        Ok(CtrlStep(Progress::Worked))
    }

    // ------------------------------------------------------------- loop

    /// Fill `self.order` with every controller in the fixed round-robin
    /// order.
    fn fill_order(&mut self) {
        self.order.clear();
        for q in 0..self.cfg.quads as u8 {
            self.order
                .extend([Ctrl::Dir(q), Ctrl::Mem(q), Ctrl::NodeRsp(q), Ctrl::Rac(q)]);
        }
        for i in 0..self.node_list.len() {
            self.order.extend([Ctrl::Held(i), Ctrl::Issue(i)]);
        }
    }

    /// Chaos-mode housekeeping at the start of a step: deliver limbo
    /// messages whose delay expired (postponing any whose buffer is
    /// full), then fire pending-operation timeouts — retransmitting the
    /// stored original request with exponential backoff, or abandoning
    /// the op once its retry budget is spent. Everything runs in fixed
    /// deterministic order (limbo by `(release, seq)`, nodes in
    /// node-list order) so chaos runs stay byte-reproducible.
    fn chaos_tick(&mut self) {
        if self.chaos.is_none() {
            return;
        }
        let now = self.stats.steps;
        let due = self.chaos.as_mut().expect("chaos").due(now);
        for (quad, vc, msg) in due {
            if self.channels.free(quad, vc) == 0 {
                // Buffer full: the message stays in flight one more step.
                self.chaos
                    .as_mut()
                    .expect("chaos")
                    .park(quad, vc, msg, now, 1);
            } else {
                self.trace_event("fault_release", || {
                    vec![
                        ("msg", msg.to_string().into()),
                        ("vc", vc.to_string().into()),
                    ]
                });
                self.channels.send(quad, vc, msg);
                self.stats.msgs += 1;
            }
        }
        let (timeout_steps, max_retries) = {
            let p = &self.chaos.as_ref().expect("chaos").plan;
            (p.timeout_steps, p.max_retries)
        };
        for i in 0..self.node_list.len() {
            let node = self.node_list[i];
            let Some(p) = self.nodes[i].pend else {
                continue;
            };
            if p.deadline > now {
                continue;
            }
            if p.attempts >= max_retries {
                self.failsafe_writeback(&p);
                self.nodes[i].pend = None;
                self.stats.abandoned += 1;
                self.abandoned.push(format!(
                    "{node}: {:?} on 0x{:x} abandoned after {} retransmissions",
                    p.op, p.addr, p.attempts
                ));
                self.trace_event("abandon", || {
                    vec![
                        ("node", node.to_string().into()),
                        ("op", format!("{:?}", p.op).into()),
                    ]
                });
                continue;
            }
            let Some(msg) = p.msg else {
                continue;
            };
            let vc = self.vc_for(&msg);
            let quad = msg.dest.quad();
            if self.channels.free(quad, vc) == 0 {
                // Cannot retransmit into a full buffer; retry shortly
                // without consuming an attempt.
                if let Some(pd) = &mut self.nodes[i].pend {
                    pd.deadline = now + 4;
                }
                continue;
            }
            if let Some(pd) = &mut self.nodes[i].pend {
                pd.attempts += 1;
                pd.deadline = now + (timeout_steps << pd.attempts.min(6));
            }
            self.stats.timeouts += 1;
            self.stats.retransmits += 1;
            self.trace_event("retransmit", || {
                vec![
                    ("node", node.to_string().into()),
                    ("msg", msg.to_string().into()),
                ]
            });
            self.channels.send(quad, vc, msg);
            self.stats.msgs += 1;
        }
    }

    /// One engine step: every controller gets one attempt. Returns the
    /// number that made progress plus the blocked descriptions.
    pub fn step(&mut self) -> Result<(usize, Vec<BlockedReason>), SimError> {
        let worked = self.step_quietly()?;
        Ok((worked, self.stalls.iter().map(Stall::reason).collect()))
    }

    /// [`Sim::step`], leaving this step's blocked attempts unrendered in
    /// `self.stalls`.
    fn step_quietly(&mut self) -> Result<usize, SimError> {
        self.chaos_tick();
        self.fill_order();
        if let Some(rng) = &mut self.rng {
            rng.shuffle(&mut self.order);
        }
        self.stalls.clear();
        let mut worked = 0;
        for i in 0..self.order.len() {
            let p = match self.order[i] {
                Ctrl::Dir(q) => self.try_dir(q)?,
                Ctrl::Mem(q) => self.try_mem(q)?,
                Ctrl::NodeRsp(q) => self.try_node_rsp(q)?,
                Ctrl::Rac(q) => self.try_rac(q)?,
                Ctrl::Held(i) => self.try_held_snoop(i)?,
                Ctrl::Issue(i) => self.try_issue(i)?,
            };
            match p.0 {
                Progress::Worked => worked += 1,
                Progress::Idle => {}
                Progress::Blocked(stall) => self.stalls.push(stall),
            }
        }
        self.stats.steps += 1;
        Ok(worked)
    }

    /// Is all work drained?
    pub fn quiescent(&self) -> bool {
        self.channels.in_flight() == 0
            && self
                .nodes
                .iter()
                .all(|n| n.pend.is_none() && n.held_snoop.is_none())
            && self.workload.remaining() == 0
            && self.chaos.as_ref().map(|f| f.limbo_len()).unwrap_or(0) == 0
    }

    /// Chaos mode: will future steps produce events on their own (limbo
    /// releases or pending-operation timeouts)? When true, a
    /// zero-progress step is not a deadlock yet.
    fn chaos_pending_events(&self) -> bool {
        match &self.chaos {
            Some(f) => {
                f.limbo_len() > 0
                    || self
                        .nodes
                        .iter()
                        .any(|n| n.pend.is_some_and(|p| p.deadline != u64::MAX))
            }
            None => false,
        }
    }

    /// Chaos mode: transactions wedged at the directory (busy entries
    /// that will never complete because a fault ate a message).
    fn chaos_stuck(&self) -> bool {
        self.chaos.is_some() && self.quads.iter().any(|q| !q.busy.is_empty())
    }

    /// Abandoned-op diagnoses plus any permanently-busy transactions.
    fn diagnosis(&self) -> Vec<String> {
        let mut d = self.abandoned.clone();
        for line in self.debug_busy() {
            d.push(format!("stuck transaction: {line}"));
        }
        d
    }

    /// Run until quiescence, deadlock, or the step budget.
    ///
    /// On return (including the error paths) the run's [`SimStats`]
    /// are recorded as args of its `sim/run` span.
    pub fn run(&mut self) -> Result<Outcome, SimError> {
        let fspan = ccsql_obs::flight::span("sim", "run");
        let out = self.run_inner();
        if fspan.is_live() {
            let s = &self.stats;
            for (k, v) in [
                ("steps", s.steps),
                ("issued", s.issued),
                ("completed", s.completed),
                ("hits", s.hits),
                ("retries", s.retries),
                ("msgs", s.msgs),
                ("read_checks", s.read_checks),
                ("faults_injected", s.faults_injected),
                ("timeouts", s.timeouts),
                ("retransmits", s.retransmits),
                ("strays", s.strays),
                ("abandoned", s.abandoned),
            ] {
                fspan.arg(k, v);
            }
        }
        if let Ok(o) = &out {
            let steps = self.stats.steps;
            self.trace_event("outcome", || {
                let kind = match o {
                    Outcome::Quiescent => "quiescent",
                    Outcome::Deadlock(_) => "deadlock",
                    Outcome::StepLimit => "step_limit",
                    Outcome::Stalled { .. } => "stalled",
                };
                vec![("kind", kind.into()), ("steps", steps.into())]
            });
        }
        out
    }

    fn run_inner(&mut self) -> Result<Outcome, SimError> {
        loop {
            if self.stats.steps as usize >= self.cfg.max_steps {
                return Ok(Outcome::StepLimit);
            }
            let worked = self.step_quietly()?;
            if worked == 0 {
                if self.quiescent() {
                    if !self.abandoned.is_empty() || self.chaos_stuck() {
                        return Ok(Outcome::Stalled {
                            diagnosis: self.diagnosis(),
                        });
                    }
                    return Ok(Outcome::Quiescent);
                }
                // Chaos mode: timeouts or limbo releases will still
                // fire; not a deadlock yet.
                if self.chaos_pending_events() {
                    continue;
                }
                // No progress but work remains: deadlock.
                let mut channels: Vec<String> =
                    self.stalls.iter().map(|s| s.slot.1.to_string()).collect();
                for (_, vc, _) in self.channels.snapshot() {
                    channels.push(vc.to_string());
                }
                channels.sort();
                channels.dedup();
                let info = DeadlockInfo {
                    blocked: self.stalls.iter().map(|s| s.reason().0).collect(),
                    channels,
                    queues: self.channels.snapshot(),
                };
                if self.stats.faults_injected > 0 {
                    // Injected faults caused this; report it as graceful
                    // degradation, keeping hard Deadlock for genuine
                    // protocol/assignment bugs.
                    let mut diagnosis = self.diagnosis();
                    diagnosis.push(info.to_string());
                    return Ok(Outcome::Stalled { diagnosis });
                }
                return Ok(Outcome::Deadlock(info));
            }
        }
    }

    /// Final coherence audit at quiescence: at most one exclusive owner
    /// per line; every valid cache copy and home memory agree with the
    /// serialisation order for lines with no dirty owner. Lines are
    /// checked in ascending address order and each line's holders are
    /// listed in node-list order, so a failing audit names the same
    /// violation on every run.
    pub fn audit(&self) -> Result<(), SimError> {
        let v = self.v;
        let mut owners: BTreeMap<Addr, Vec<NodeId>> = BTreeMap::new();
        let mut sharers: BTreeMap<Addr, Vec<(NodeId, u64)>> = BTreeMap::new();
        for (&node, ns) in self.node_list.iter().zip(&self.nodes) {
            for (&addr, &(st, val)) in &ns.cache {
                if st == v.m || st == v.e {
                    owners.entry(addr).or_default().push(node);
                } else if st == v.s {
                    sharers.entry(addr).or_default().push((node, val));
                }
            }
        }
        for (addr, os) in &owners {
            if os.len() > 1 {
                return Err(SimError::Coherence(format!(
                    "0x{addr:x} has multiple exclusive owners: {os:?}"
                )));
            }
            if let Some(sh) = sharers.get(addr) {
                if !sh.is_empty() {
                    return Err(SimError::Coherence(format!(
                        "0x{addr:x} owned by {os:?} but also shared by {sh:?}"
                    )));
                }
            }
        }
        let mut expected: Vec<(Addr, u64)> = self.expected.iter().map(|(&a, &w)| (a, w)).collect();
        expected.sort_unstable();
        for (addr, want) in expected {
            // The authoritative copy: the dirty owner's cache, else memory.
            let dirty = owners.get(&addr).and_then(|os| {
                os.first().and_then(|&n| {
                    self.nodes[self.node_idx(n)]
                        .cache
                        .get(&addr)
                        .map(|&(_, val)| val)
                })
            });
            let have = dirty.unwrap_or_else(|| self.mem_value(addr));
            if have != want {
                return Err(SimError::Coherence(format!(
                    "0x{addr:x}: authoritative value {have}, serialisation order says {want}"
                )));
            }
            for (node, val) in sharers.get(&addr).into_iter().flatten() {
                if *val != want {
                    return Err(SimError::Coherence(format!(
                        "0x{addr:x}: stale shared copy {val} at {node}, expected {want}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The outcome of one controller attempt (opaque: inspect with
/// [`CtrlStep::worked`] / [`CtrlStep::blocked`]).
pub struct CtrlStep(Progress);

impl CtrlStep {
    /// Did the controller do something?
    pub fn worked(&self) -> bool {
        matches!(self.0, Progress::Worked)
    }

    /// Was it blocked on a full channel?
    pub fn blocked(&self) -> bool {
        matches!(self.0, Progress::Blocked(..))
    }
}

impl Sim {
    /// Specification-row coverage: for each controller table, how many
    /// of its rows were exercised by this run (rows hit, rows total).
    /// The paper's late-phase "protocol testing" measured exactly this
    /// kind of coverage against the specification.
    pub fn coverage_report(&self) -> Vec<(&'static str, usize, usize)> {
        TABLE_NAMES
            .iter()
            .zip(&self.coverage)
            .map(|(&name, hits)| (name, hits.iter().filter(|&&h| h > 0).count(), hits.len()))
            .collect()
    }

    /// Row hit counts of `controller`, if the engine executes it.
    fn hits(&self, controller: &str) -> &[u64] {
        TABLE_NAMES
            .iter()
            .position(|&t| t == controller)
            .map_or(&[], |t| &self.coverage[t])
    }

    /// Row indices of `controller` exercised by this run, ascending
    /// (for unioning coverage across runs, e.g. by `ccsql fuzz`).
    pub fn covered_rows(&self, controller: &'static str) -> Vec<usize> {
        (0..)
            .zip(self.hits(controller))
            .filter(|(_, &h)| h > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Row indices of `controller` never exercised by this run.
    pub fn uncovered_rows(&self, controller: &'static str) -> Vec<usize> {
        (0..)
            .zip(self.hits(controller))
            .filter(|(_, &h)| h == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-operation-type latency aggregates (engine steps from issue
    /// to completion), sorted by operation name.
    pub fn latency_report(&self) -> Vec<(&'static str, LatAgg)> {
        let mut v: Vec<(&'static str, LatAgg)> = CPU_OPS
            .iter()
            .zip(self.latency)
            .filter(|(_, a)| a.count > 0)
            .map(|(op, a)| (op.inmsg(), a))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Debug helper: all busy-directory entries, rendered.
    pub fn debug_busy(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (q, qs) in self.quads.iter().enumerate() {
            for (addr, b) in &qs.busy {
                out.push(format!(
                    "q{q} addr {addr:x}: {} pending={} req={} by {}",
                    b.st, b.pending, b.req, b.requester
                ));
            }
        }
        out.sort();
        out
    }
}
