//! The shared out-of-core exploration core: a shard-owned, spillable,
//! level-synchronous BFS over any [`Space`].
//!
//! Both explorers in this crate — the builtin bit-packed protocol
//! model ([`mod@crate::explore`]) and the compiled spec machines
//! ([`crate::spec`]) — route through this engine, so the out-of-core
//! ceiling lift applies to the whole protocol zoo, not just the
//! hand-written model.
//!
//! ## Architecture: shard-owned sorted runs
//!
//! States are fixed-width, totally ordered *words* ([`Word`]). The
//! visited set is hash-partitioned into `shards` disjoint shards; each
//! shard owns its slice of the space end-to-end: a list of sorted
//! *runs* (one per BFS level, periodically compacted). Every sorted run
//! the engine handles — visited runs and exchanged candidates alike —
//! is hot (a sorted `Vec`) or cold (a prefix-compressed run at an
//! offset of a spill file, see [`crate::spill`]), and one cursor reads
//! both kinds. There is **no global hash index and no merge barrier**:
//! a level is processed as
//!
//! 1. **Expand** — workers stream the frontier runs in blocks and
//!    expand each state; successor words are routed to per-worker,
//!    per-destination-shard buffers (the *bucket exchange*). Buffers
//!    that outgrow their share of the memory budget are sorted and
//!    flushed to an exchange file holding one run per destination
//!    shard.
//! 2. **Merge** — each shard is merged independently (workers pick
//!    shards off a queue in deterministic shard order; shards never
//!    share state): the shard's candidate runs are k-way merged
//!    into one sorted distinct stream, which is then set-subtracted
//!    against the shard's existing runs by advancing a monotone cursor
//!    per run. Survivors form the shard's next run — already sorted,
//!    already deduplicated, with no cross-shard communication.
//! 3. **Maintain** — per shard, runs are compacted (k-way merged) when
//!    they accumulate, and hot runs are spilled oldest-first while the
//!    resident footprint exceeds its share of `mem_budget`.
//!
//! ## Determinism rules
//!
//! Every reported quantity is defined so that it cannot depend on
//! thread count, shard count, or memory budget:
//!
//! * `states`, `transitions`, `dedup_hits`, `frontier_peak`, `levels`,
//!   `orbit_states` are *per-level set quantities*: the set of states
//!   discovered at level `k` is a pure function of the level-`k−1`
//!   set, so any partition of the work yields the same totals
//!   (`dedup_hits` is defined as `transitions − distinct new states`,
//!   summed per completed level).
//! * The **witness rule**: among all violating/stuck states found
//!   while expanding a level, the minimum word wins (replacing the
//!   seed engine's lowest-BFS-order rule, which depended on insertion
//!   order). The earliest level still wins overall because levels are
//!   processed in order, and a level is always expanded to completion
//!   before the verdict is taken.
//! * The **budget rule**: on the level where the distinct-state budget
//!   would be crossed, the initial level included, exactly
//!   `budget − states_so_far` states are kept — the globally smallest
//!   new words — so the final count equals the budget for every
//!   (threads, shards, mem_budget) combination. A zero budget never
//!   verifies.
//! * Parent links (recorded when the payload is a [`ParentLink`]) keep
//!   the minimum `(parent word, label)` pair per state, which the sorted
//!   merge computes naturally; they are listed by level, then by
//!   ascending word, an order no shard count can change.
//! * Spilling is pure storage: a run's words round-trip bit-exactly,
//!   so only the explicitly nondeterministic accounting fields
//!   (`spilled_bytes`, `mem_peak_bytes` and the phase clocks) can
//!   differ between configurations.
//!
//! ## Phase clocks
//!
//! Each level's phases are timed at their boundaries, never per state:
//! `expand_ns` and `merge_ns` are the wall times of phases 1 and 2,
//! `maintain_ns` that of phase 3, and `exchange_ns` the time spent
//! inside exchange-file flushes during phase 1, summed over workers.
//! They are args of the `mc/level` span, and their run totals are in
//! [`EngineStats`], which both explorers publish on their run's
//! `mc/explore` span (`explore_span`, `EngineStats::publish`).
//!
//! The matrix tests in `tests/out_of_core.rs` pin these rules across
//! shard counts {1, 4, 16} × threads {1, 2, 8} × budgets that force
//! spilling at two-node scale.

use crate::spill::{RunReader, RunWriter, SpillDir, IO_BUF_BYTES};
use ccsql_obs::flight::FlightSpan;
use ccsql_obs::hash::fx_hash_one;
use ccsql_obs::{MemGauge, MemLease};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A state as a fixed-width, totally ordered, hashable word. The byte
/// encoding must be order-preserving (big-endian style): the spill
/// codec compresses shared prefixes of *sorted* byte strings, and cold
/// merges compare the decoded words.
pub trait Word:
    Copy + Ord + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug + 'static
{
    /// Encoded width in bytes (1..=255).
    const WIDTH: usize;
    /// Serialise into exactly [`Word::WIDTH`] bytes, order-preserving.
    fn write_bytes(&self, out: &mut [u8]);
    /// Deserialise from exactly [`Word::WIDTH`] bytes.
    fn read_bytes(buf: &[u8]) -> Self;
}

/// Per-successor payload carried through the exchange: either nothing
/// (`()`, the plain state path) or a [`ParentLink`] for counterexample
/// reconstruction. A run with a payload of non-zero width records
/// parent links and edges ([`EngineOut::parents`], [`EngineOut::edges`]);
/// a `()` run records neither.
pub trait Payload<W: Word>: Copy + Send + Sync + 'static {
    /// Encoded width in bytes (may be 0).
    const WIDTH: usize;
    /// Build the payload for a successor emitted from `src` with
    /// `label`.
    fn make(src: W, label: u32) -> Self;
    fn write_bytes(&self, out: &mut [u8]);
    fn read_bytes(buf: &[u8]) -> Self;
    /// Deterministic tie-break when the same word is reached twice:
    /// keep the "smaller" payload.
    fn prefer(self, other: Self) -> Self;
}

impl<W: Word> Payload<W> for () {
    const WIDTH: usize = 0;
    fn make(_src: W, _label: u32) {}
    fn write_bytes(&self, _out: &mut [u8]) {}
    fn read_bytes(_buf: &[u8]) {}
    fn prefer(self, _other: Self) {}
}

/// The discovering transition of a state: parent word plus a
/// space-defined label id. The engine keeps the minimum (parent,
/// label) pair per state, so counterexample paths are identical for
/// every (threads, shards, mem_budget) combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParentLink<W: Word> {
    pub parent: W,
    pub label: u32,
}

impl<W: Word> Payload<W> for ParentLink<W> {
    const WIDTH: usize = W::WIDTH + 4;
    fn make(src: W, label: u32) -> Self {
        ParentLink { parent: src, label }
    }
    fn write_bytes(&self, out: &mut [u8]) {
        self.parent.write_bytes(&mut out[..W::WIDTH]);
        out[W::WIDTH..].copy_from_slice(&self.label.to_be_bytes());
    }
    fn read_bytes(buf: &[u8]) -> Self {
        ParentLink {
            parent: W::read_bytes(&buf[..W::WIDTH]),
            label: u32::from_be_bytes(buf[W::WIDTH..].try_into().unwrap()),
        }
    }
    fn prefer(self, other: Self) -> Self {
        if (self.parent, self.label) <= (other.parent, other.label) {
            self
        } else {
            other
        }
    }
}

/// Successor sink handed to [`Space::expand`] for one state.
pub struct Emitter<'a, W: Word> {
    succs: &'a mut Vec<(W, u32)>,
    violated: bool,
    quiescent: bool,
}

impl<W: Word> Emitter<'_, W> {
    /// Emit one successor (already canonicalised if the space explores
    /// a symmetry quotient) with a space-defined label id.
    pub fn succ(&mut self, w: W, label: u32) {
        self.succs.push((w, label));
    }

    /// Flag the expanded state as violating a safety property. Its
    /// emitted successors are discarded (a violating state is
    /// terminal) and it becomes a witness candidate.
    pub fn violation(&mut self) {
        self.violated = true;
    }

    /// Flag the expanded state as legitimately successor-free: without
    /// this, a state with no successors is reported as stuck.
    pub fn quiescent(&mut self) {
        self.quiescent = true;
    }
}

/// A state space explorable by the engine.
pub trait Space: Sync {
    type W: Word;

    /// Expand one state: emit its successors (canonical under the
    /// space's symmetry, if any) and/or flag violation / quiescence.
    /// Must be a pure function of the word.
    fn expand(&self, w: Self::W, em: &mut Emitter<'_, Self::W>);

    /// How many full states the word stands for (1 without symmetry;
    /// the orbit size when the space explores a quotient).
    fn orbit_weight(&self, _w: Self::W) -> u128 {
        1
    }

    /// Size of the coverage bitmap (0 disables coverage tracking).
    fn coverage_slots(&self) -> usize {
        0
    }

    /// Map an emitted successor label to a coverage slot.
    fn cover_slot(&self, _label: u32) -> Option<usize> {
        None
    }
}

/// Engine options. `mem_budget == 0` means unlimited (fully resident,
/// no spilling).
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Distinct-state budget (exact: the engine stops at exactly this
    /// many states when the space is larger).
    pub budget: usize,
    /// Worker threads; results are identical for every count.
    pub threads: usize,
    /// Number of disjoint state shards; results are identical for
    /// every count ≥ 1.
    pub shards: usize,
    /// Resident-memory target in bytes (0 = unlimited). Visited runs
    /// and exchange buffers spill to temp files to stay under it; the
    /// honest peak (including irreducible working buffers) is reported
    /// in [`EngineStats::mem_peak_bytes`].
    pub mem_budget: usize,
    /// Base directory for the run's spill directory (OS temp dir when
    /// `None`). The directory is removed when the exploration ends,
    /// normally or by panic.
    pub spill_dir: Option<PathBuf>,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            budget: usize::MAX,
            threads: 1,
            shards: DEFAULT_SHARDS,
            mem_budget: 0,
            spill_dir: None,
        }
    }
}

/// Why the exploration stopped (witness words are level states).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOutcome<W: Word> {
    Verified,
    Violation(W),
    Stuck(W),
    BudgetExceeded,
}

/// Deterministic counters plus (explicitly nondeterministic) memory
/// accounting for one exploration.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Distinct states (exactly `budget` on a budget-exceeded run).
    pub states: usize,
    /// Σ orbit weights over the distinct states.
    pub orbit_states: u128,
    /// Successors emitted from expanded, non-violating states.
    pub transitions: u64,
    /// `transitions − distinct new states`, summed per completed level.
    pub dedup_hits: u64,
    /// Widest expanded level.
    pub frontier_peak: usize,
    /// Levels expanded (the root level counts as one).
    pub levels: usize,
    pub threads: usize,
    pub shards: usize,
    /// Logical bytes of all distinct state words (`states × width`).
    pub arena_bytes: usize,
    /// Logical bytes of the widest level (`frontier_peak × width`).
    pub frontier_bytes: usize,
    /// The configured resident target (0 = unlimited).
    pub mem_budget: usize,
    /// Peak of the engine's all-inclusive resident ledger: hot runs,
    /// exchange buffers, decode blocks, spill I/O buffers, parent and
    /// edge capture. Varies with threads/shards; never part of the
    /// determinism gates.
    pub mem_peak_bytes: usize,
    /// Total bytes written to spill files (0 when fully resident).
    pub spilled_bytes: u64,
    /// Wall time of the expand phases, in nanoseconds. This and the
    /// other phase clocks vary from run to run; never part of the
    /// determinism gates.
    pub expand_ns: u64,
    /// Time spent flushing exchange buffers to exchange files, summed
    /// over workers (0 when nothing was flushed).
    pub exchange_ns: u64,
    /// Wall time of the merge phases.
    pub merge_ns: u64,
    /// Wall time of the maintain phases (compaction and spilling).
    pub maintain_ns: u64,
}

/// Open a run's `mc/explore` span with the options both explorers
/// share; [`EngineStats::publish`] attaches the run's totals to it.
pub(crate) fn explore_span(opts: &EngineOpts, symmetry: bool) -> FlightSpan<'static> {
    let span = ccsql_obs::flight::span("mc", "explore");
    span.arg("budget", opts.budget);
    span.arg("threads", opts.threads.max(1));
    span.arg("symmetry", u64::from(symmetry));
    span.arg("shards", opts.shards.max(1));
    span.arg("mem_budget", opts.mem_budget);
    span
}

impl EngineStats {
    /// Attach the run's totals and its `outcome` to its `mc/explore`
    /// span ([`explore_span`]). `depth` is the deepest level's index,
    /// one less than `levels`.
    pub(crate) fn publish(&self, span: &FlightSpan<'_>, outcome: &str) {
        span.arg("states", self.states);
        span.arg(
            "orbit_states",
            self.orbit_states.min(u64::MAX as u128) as u64,
        );
        span.arg("transitions", self.transitions);
        span.arg("dedup_hits", self.dedup_hits);
        span.arg("levels", self.levels);
        span.arg("depth", self.levels.saturating_sub(1));
        span.arg("frontier_peak", self.frontier_peak);
        span.arg("arena_bytes", self.arena_bytes);
        span.arg("frontier_bytes", self.frontier_bytes);
        span.arg("mem_peak_bytes", self.mem_peak_bytes);
        span.arg("spilled_bytes", self.spilled_bytes);
        span.arg("expand_ns", self.expand_ns);
        span.arg("exchange_ns", self.exchange_ns);
        span.arg("merge_ns", self.merge_ns);
        span.arg("maintain_ns", self.maintain_ns);
        span.arg("outcome", outcome);
    }
}

/// Everything an exploration returns.
pub struct EngineOut<W: Word, P> {
    pub outcome: EngineOutcome<W>,
    pub stats: EngineStats,
    /// Discovery-order list of (state, payload): levels in order, words
    /// ascending within a level, the same for every shard count. Root
    /// states carry no entry. Empty for a `()` payload.
    pub parents: Vec<(W, P)>,
    /// Coverage bitmap ([`Space::coverage_slots`] wide).
    pub coverage: Vec<bool>,
    /// All (src, dst) transition word pairs, resident and unordered:
    /// treat them as a set (the spec machines' drain check reads them).
    /// Empty for a `()` payload.
    pub edges: Vec<(W, W)>,
}

/// Default shard count: enough merge parallelism for any plausible
/// thread count without fragmenting small explorations.
pub const DEFAULT_SHARDS: usize = 64;

/// Minimum frontier share per worker: below it, fewer workers run.
/// This is the PR-5 min-work rule, now applied uniformly — including
/// the symmetry path, whose canonicalisation cost made small levels
/// look worth spawning for while the spawn overhead still dominated
/// (symmetry runs once got 0.92× as fast on more threads).
const MIN_WORK_PER_WORKER: usize = 512;
/// Words per expansion block pulled off the shared frontier cursor.
const BLOCK_WORDS: usize = 4096;
/// Compact a shard once it accumulates this many non-frontier runs.
const MAX_RUNS: usize = 8;

#[inline]
fn shard_of<W: Word>(w: &W, shards: usize) -> usize {
    if shards <= 1 {
        0
    } else {
        (fx_hash_one(w) % shards as u64) as usize
    }
}

/// One sorted run of distinct words and their payloads. A shard's
/// visited runs carry `()`; exchanged candidates carry the space's
/// payload.
enum Run<W, P> {
    Hot(Vec<(W, P)>),
    /// `count` words starting `offset` bytes into a spill file, which
    /// may hold further runs.
    Cold {
        path: PathBuf,
        offset: u64,
        count: u64,
    },
}

impl<W, P> Run<W, P> {
    fn len(&self) -> u64 {
        match self {
            Run::Hot(v) => v.len() as u64,
            Run::Cold { count, .. } => *count,
        }
    }

    fn hot_bytes(&self) -> usize {
        match self {
            Run::Hot(v) => std::mem::size_of_val(v.as_slice()),
            Run::Cold { .. } => 0,
        }
    }
}

/// Monotone read cursor over one run. A cold cursor leases its
/// reader's I/O buffer on the gauge while it is open.
struct Cursor<'a, W: Word, P: Payload<W>> {
    head: Option<(W, P)>,
    src: CursorSrc<'a, W, P>,
}

enum CursorSrc<'a, W, P> {
    Hot(std::slice::Iter<'a, (W, P)>),
    Cold {
        reader: RunReader,
        buf: Vec<u8>,
        _lease: MemLease<'a>,
    },
}

impl<'a, W: Word, P: Payload<W>> Cursor<'a, W, P> {
    fn open(run: &'a Run<W, P>, gauge: &'a MemGauge) -> Cursor<'a, W, P> {
        let src = match run {
            Run::Hot(v) => CursorSrc::Hot(v.iter()),
            &Run::Cold {
                ref path,
                offset,
                count,
            } => CursorSrc::Cold {
                reader: RunReader::open_at(path, W::WIDTH, P::WIDTH, offset, count)
                    .expect("open spill run"),
                buf: vec![0u8; W::WIDTH + P::WIDTH],
                _lease: MemLease::new(gauge, IO_BUF_BYTES),
            },
        };
        let mut c = Cursor { head: None, src };
        c.advance();
        c
    }

    fn head(&self) -> Option<(W, P)> {
        self.head
    }

    fn advance(&mut self) {
        self.head = match &mut self.src {
            CursorSrc::Hot(it) => it.next().copied(),
            CursorSrc::Cold { reader, buf, .. } => {
                let (wb, pb) = buf.split_at_mut(W::WIDTH);
                if reader.next_into(wb, pb).expect("read spill run") {
                    Some((W::read_bytes(wb), P::read_bytes(pb)))
                } else {
                    None
                }
            }
        };
    }

    /// Advance past all words `< w`; report whether the cursor sits on
    /// `w`. Callers must probe with ascending `w`.
    fn contains(&mut self, w: W) -> bool {
        while let Some((h, _)) = self.head() {
            if h >= w {
                return h == w;
            }
            self.advance();
        }
        false
    }
}

/// Pop the minimum head across `cursors`, advancing only the first
/// cursor that holds it: a word held by several cursors pops once per
/// cursor.
fn kway_pop<W: Word, P: Payload<W>>(cursors: &mut [Cursor<'_, W, P>]) -> Option<(W, P)> {
    let mut best: Option<(usize, W)> = None;
    for (i, c) in cursors.iter().enumerate() {
        if let Some((w, _)) = c.head() {
            if best.is_none_or(|(_, bw)| w < bw) {
                best = Some((i, w));
            }
        }
    }
    let (i, _) = best?;
    let head = cursors[i].head();
    cursors[i].advance();
    head
}

/// A spill file being written through the codec, one run after another,
/// with its I/O buffer leased on the gauge.
struct SpillWriter<'g, W, P> {
    path: PathBuf,
    writer: RunWriter,
    buf: Vec<u8>,
    _lease: MemLease<'g>,
    _run: std::marker::PhantomData<(W, P)>,
}

impl<'g, W: Word, P: Payload<W>> SpillWriter<'g, W, P> {
    fn create(dir: &SpillDir, tag: &str, gauge: &'g MemGauge) -> SpillWriter<'g, W, P> {
        let path = dir.next_file(tag);
        let writer = RunWriter::create(&path, W::WIDTH, P::WIDTH).expect("create spill file");
        SpillWriter {
            path,
            writer,
            buf: vec![0u8; W::WIDTH + P::WIDTH],
            _lease: MemLease::new(gauge, IO_BUF_BYTES),
            _run: std::marker::PhantomData,
        }
    }

    /// Write `items` (ascending, distinct words) as the file's next run.
    fn run(&mut self, items: impl IntoIterator<Item = (W, P)>) -> Run<W, P> {
        let offset = self.writer.offset();
        let (wb, pb) = self.buf.split_at_mut(W::WIDTH);
        for (w, p) in items {
            w.write_bytes(wb);
            p.write_bytes(pb);
            self.writer.push(wb, pb).expect("write spill file");
        }
        Run::Cold {
            path: self.path.clone(),
            offset,
            count: self.writer.end_run(),
        }
    }

    /// Flush the file, add its bytes to `spilled` and return its path.
    fn finish(self, spilled: &AtomicU64) -> PathBuf {
        let (_, bytes) = self.writer.finish().expect("finish spill file");
        spilled.fetch_add(bytes, Ordering::Relaxed);
        self.path
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Violation,
    Stuck,
}

/// Per-worker expansion output for one level.
struct WorkerOut<W: Word, P: Payload<W>> {
    /// Per destination shard: the flushed candidate runs, then the
    /// sorted, locally deduplicated hot buffer.
    cands: Vec<Vec<Run<W, P>>>,
    /// Exchange files flushed this level.
    files: Vec<PathBuf>,
    transitions: u64,
    /// Minimum violating/stuck word seen this level.
    event: Option<(W, EventKind)>,
    coverage: Vec<bool>,
    edges: Vec<(W, W)>,
    /// Gauge bytes still accounted for the surviving hot buffers.
    accounted: usize,
    /// Nanoseconds spent flushing exchange files.
    exchange_ns: u64,
}

fn better_event<W: Word>(
    a: Option<(W, EventKind)>,
    b: Option<(W, EventKind)>,
) -> Option<(W, EventKind)> {
    match (a, b) {
        (Some((wa, ka)), Some((wb, kb))) => {
            if wa <= wb {
                Some((wa, ka))
            } else {
                Some((wb, kb))
            }
        }
        (x, None) => x,
        (None, y) => y,
    }
}

/// Sort by word and collapse equal words onto their preferred payload.
fn sort_dedup<W: Word, P: Payload<W>>(buf: &mut Vec<(W, P)>) {
    buf.sort_unstable_by_key(|&(w, _)| w);
    let mut out = 0usize;
    let mut i = 0usize;
    while i < buf.len() {
        let (w, mut p) = buf[i];
        i += 1;
        while i < buf.len() && buf[i].0 == w {
            p = p.prefer(buf[i].1);
            i += 1;
        }
        buf[out] = (w, p);
        out += 1;
    }
    buf.truncate(out);
}

/// Shared, lazily decoded frontier: workers pull sorted word blocks
/// from the level's runs under a mutex (decode is cheap relative to
/// expansion, so the lock is not contended).
struct FrontierSource<'a, W: Word> {
    inner: Mutex<FrontierIter<'a, W>>,
    gauge: &'a MemGauge,
}

struct FrontierIter<'a, W: Word> {
    runs: std::vec::IntoIter<&'a Run<W, ()>>,
    cursor: Option<Cursor<'a, W, ()>>,
}

impl<W: Word> FrontierSource<'_, W> {
    /// Pull up to [`BLOCK_WORDS`] frontier words into `out`; false when
    /// the frontier is exhausted.
    fn next_block(&self, out: &mut Vec<W>) -> bool {
        out.clear();
        let mut guard = self.inner.lock().expect("frontier lock");
        let it = &mut *guard;
        while out.len() < BLOCK_WORDS {
            let cursor = match &mut it.cursor {
                Some(c) => c,
                None => match it.runs.next() {
                    Some(run) => it.cursor.insert(Cursor::open(run, self.gauge)),
                    None => break,
                },
            };
            match cursor.head() {
                Some((w, ())) => {
                    out.push(w);
                    cursor.advance();
                }
                None => it.cursor = None,
            }
        }
        !out.is_empty()
    }
}

/// Per-shard merge result: the next run, pre-sorted and distinct.
struct ShardMergeOut<W, P> {
    new: Vec<(W, P)>,
    orbit: u128,
}

/// K-way-merge the candidate runs of one shard, folding the payloads of
/// a word that several runs hold, subtract the shard's visited runs,
/// and return the survivors.
fn merge_shard<W: Word, P: Payload<W>>(
    cands: &[Run<W, P>],
    visited: &[Run<W, ()>],
    gauge: &MemGauge,
    orbit_weight: &impl Fn(&W) -> u128,
) -> ShardMergeOut<W, P> {
    let mut streams: Vec<Cursor<'_, W, P>> = cands.iter().map(|r| Cursor::open(r, gauge)).collect();
    let mut seen: Vec<Cursor<'_, W, ()>> = visited.iter().map(|r| Cursor::open(r, gauge)).collect();
    let mut out = ShardMergeOut {
        new: Vec::new(),
        orbit: 0,
    };
    let mut next = kway_pop(&mut streams);
    while let Some((w, mut p)) = next {
        next = kway_pop(&mut streams);
        while let Some((_, q)) = next.filter(|&(nw, _)| nw == w) {
            p = p.prefer(q);
            next = kway_pop(&mut streams);
        }
        if seen.iter_mut().any(|c| c.contains(w)) {
            continue; // already visited
        }
        out.new.push((w, p));
        out.orbit += orbit_weight(&w);
    }
    out
}

/// Run the engine over `space` from the initial words (deduplicated
/// and sorted internally; they form level 0). Parent links and edges
/// are recorded when `P` has a non-zero width ([`ParentLink`]).
pub fn run<S: Space, P: Payload<S::W>>(
    space: &S,
    inits: &[S::W],
    opts: &EngineOpts,
) -> EngineOut<S::W, P> {
    let threads = opts.threads.max(1);
    let shards = opts.shards.max(1);
    let records = P::WIDTH > 0;
    let wsize = std::mem::size_of::<S::W>();
    let entry_size = std::mem::size_of::<(S::W, P)>();
    let gauge = MemGauge::new();
    let spill_enabled = opts.mem_budget > 0;
    let spill_dir: Option<SpillDir> = if spill_enabled {
        Some(SpillDir::create(opts.spill_dir.as_deref()).expect("create spill dir"))
    } else {
        None
    };
    let spilled_total = AtomicU64::new(0);

    // Seed the shards with the initial words.
    let mut stores: Vec<Vec<Run<S::W, ()>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut init_sorted: Vec<S::W> = inits.to_vec();
    init_sorted.sort_unstable();
    init_sorted.dedup();
    // Level 0 obeys the budget rule too: only the `budget` smallest
    // initial words are admitted, and a zero budget verifies nothing.
    let over_at_root = opts.budget == 0 || init_sorted.len() > opts.budget;
    init_sorted.truncate(opts.budget);
    let mut states: usize = 0;
    let mut orbit_states: u128 = 0;
    let mut parents: Vec<(S::W, P)> = Vec::new();
    let mut edges: Vec<(S::W, S::W)> = Vec::new();
    let mut coverage = vec![false; space.coverage_slots()];
    for w in init_sorted {
        let store = &mut stores[shard_of(&w, shards)];
        match store.last_mut() {
            Some(Run::Hot(words)) => words.push((w, ())),
            _ => store.push(Run::Hot(vec![(w, ())])),
        }
        states += 1;
        orbit_states += space.orbit_weight(w);
        gauge.add(wsize);
    }
    // (shard, run index) of each live frontier run.
    let mut frontier: Vec<(usize, usize)> = (0..shards)
        .filter(|&s| !stores[s].is_empty())
        .map(|s| (s, 0))
        .collect();
    let mut frontier_len: usize = states;

    let mut transitions: u64 = 0;
    let mut dedup_hits: u64 = 0;
    let mut frontier_peak: usize = 0;
    let mut levels: usize = 0;
    let mut tracked_aux: usize = 0; // gauge-accounted parents+edges bytes
    let (mut expand_ns, mut exchange_ns, mut merge_ns, mut maintain_ns) = (0u64, 0u64, 0u64, 0u64);

    let outcome = 'bfs: loop {
        if frontier_len == 0 && !over_at_root {
            break EngineOutcome::Verified;
        }
        if states >= opts.budget {
            break EngineOutcome::BudgetExceeded;
        }
        levels += 1;
        frontier_peak = frontier_peak.max(frontier_len);
        let level_span = ccsql_obs::flight::span("mc", "level");
        level_span.arg("depth", levels as u64 - 1);
        level_span.arg("width", frontier_len as u64);

        // ---- Phase 1: expand ------------------------------------------------
        let phase = Instant::now();
        let workers = if threads <= 1 {
            1
        } else {
            threads.min((frontier_len / MIN_WORK_PER_WORKER).max(1))
        };
        let cand_cap_bytes = if spill_enabled {
            (opts.mem_budget / (4 * workers)).max(64 * 1024)
        } else {
            usize::MAX
        };
        let source = FrontierSource {
            inner: Mutex::new(FrontierIter {
                runs: frontier
                    .iter()
                    .map(|&(s, r)| &stores[s][r])
                    .collect::<Vec<_>>()
                    .into_iter(),
                cursor: None,
            }),
            gauge: &gauge,
        };
        let expand_worker = || -> WorkerOut<S::W, P> {
            let mut out = WorkerOut {
                cands: (0..shards).map(|_| Vec::new()).collect(),
                files: Vec::new(),
                transitions: 0,
                event: None,
                coverage: vec![false; space.coverage_slots()],
                edges: Vec::new(),
                accounted: 0,
                exchange_ns: 0,
            };
            let mut bufs: Vec<Vec<(S::W, P)>> = (0..shards).map(|_| Vec::new()).collect();
            let mut block: Vec<S::W> = Vec::with_capacity(BLOCK_WORDS);
            let mut scratch: Vec<(S::W, u32)> = Vec::new();
            let block_lease = MemLease::new(&gauge, BLOCK_WORDS * wsize);
            let mut buffered: usize = 0;
            while source.next_block(&mut block) {
                for &w in &block {
                    scratch.clear();
                    let mut em = Emitter {
                        succs: &mut scratch,
                        violated: false,
                        quiescent: false,
                    };
                    space.expand(w, &mut em);
                    let (violated, quiescent) = (em.violated, em.quiescent);
                    if violated {
                        out.event = better_event(out.event, Some((w, EventKind::Violation)));
                        continue;
                    }
                    if scratch.is_empty() {
                        if !quiescent {
                            out.event = better_event(out.event, Some((w, EventKind::Stuck)));
                        }
                        continue;
                    }
                    for &(sw, label) in scratch.iter() {
                        out.transitions += 1;
                        if let Some(slot) = space.cover_slot(label) {
                            out.coverage[slot] = true;
                        }
                        if records {
                            out.edges.push((w, sw));
                        }
                        bufs[shard_of(&sw, shards)].push((sw, P::make(w, label)));
                        buffered += entry_size;
                    }
                }
                if buffered > out.accounted {
                    gauge.add(buffered - out.accounted);
                    out.accounted = buffered;
                }
                if buffered > cand_cap_bytes {
                    // Flush: one exchange file holding one sorted run per
                    // destination shard.
                    let flush = Instant::now();
                    let dir = spill_dir.as_ref().expect("spill dir exists under budget");
                    let mut file = SpillWriter::create(dir, "xchg", &gauge);
                    for (buf, cands) in bufs.iter_mut().zip(&mut out.cands) {
                        if !buf.is_empty() {
                            sort_dedup(buf);
                            cands.push(file.run(std::mem::take(buf)));
                        }
                    }
                    out.files.push(file.finish(&spilled_total));
                    gauge.sub(out.accounted);
                    out.accounted = 0;
                    buffered = 0;
                    out.exchange_ns += elapsed_ns(flush);
                }
            }
            for (mut buf, cands) in bufs.into_iter().zip(&mut out.cands) {
                if !buf.is_empty() {
                    sort_dedup(&mut buf);
                    cands.push(Run::Hot(buf));
                }
            }
            drop(block_lease);
            out
        };
        let mut worker_outs: Vec<WorkerOut<S::W, P>> = if workers == 1 {
            vec![expand_worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(expand_worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mc expand worker panicked"))
                    .collect()
            })
        };
        drop(source);
        let level_expand_ns = elapsed_ns(phase);

        // Fold per-worker counters and the minimum-word event.
        let mut event: Option<(S::W, EventKind)> = None;
        let mut level_transitions: u64 = 0;
        let mut level_exchange_ns: u64 = 0;
        let mut bufs_accounted: usize = 0;
        for wo in &mut worker_outs {
            level_transitions += wo.transitions;
            level_exchange_ns += wo.exchange_ns;
            event = better_event(event, wo.event);
            bufs_accounted += wo.accounted;
            for (a, b) in coverage.iter_mut().zip(&wo.coverage) {
                *a |= *b;
            }
            edges.append(&mut wo.edges);
        }
        transitions += level_transitions;
        expand_ns += level_expand_ns;
        exchange_ns += level_exchange_ns;
        level_span.arg("expand_ns", level_expand_ns);
        level_span.arg("exchange_ns", level_exchange_ns);
        if let Some((w, kind)) = event {
            gauge.sub(bufs_accounted);
            break match kind {
                EventKind::Violation => EngineOutcome::Violation(w),
                EventKind::Stuck => EngineOutcome::Stuck(w),
            };
        }

        // ---- Phase 2: merge (per shard; shards are disjoint, so ------------
        // ---- workers share nothing but the shard queue) ---------------------
        let phase = Instant::now();
        let mut cands: Vec<Vec<Run<S::W, P>>> = (0..shards).map(|_| Vec::new()).collect();
        let mut files: Vec<PathBuf> = Vec::new();
        for wo in worker_outs {
            for (all, mine) in cands.iter_mut().zip(wo.cands) {
                all.extend(mine);
            }
            files.extend(wo.files);
        }
        let next_shard = AtomicUsize::new(0);
        let orbit_weight = |w: &S::W| space.orbit_weight(*w);
        let merge_worker = || -> Vec<(usize, ShardMergeOut<S::W, P>)> {
            let mut outs = Vec::new();
            loop {
                let sh = next_shard.fetch_add(1, Ordering::Relaxed);
                if sh >= shards {
                    return outs;
                }
                let out = merge_shard(&cands[sh], &stores[sh], &gauge, &orbit_weight);
                gauge.add(out.new.len() * wsize);
                outs.push((sh, out));
            }
        };
        let merge_workers = if threads <= 1 || frontier_len < MIN_WORK_PER_WORKER {
            1
        } else {
            threads.min(shards)
        };
        let mut merged = if merge_workers == 1 {
            merge_worker()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..merge_workers)
                    .map(|_| scope.spawn(merge_worker))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("mc merge worker panicked"))
                    .collect()
            })
        };
        // Shard order: the next frontier is read in it.
        merged.sort_unstable_by_key(|&(sh, _)| sh);
        // Exchange buffers and files are dead once merged.
        drop(cands);
        gauge.sub(bufs_accounted);
        for path in &files {
            let _ = std::fs::remove_file(path);
        }
        let new_total: usize = merged.iter().map(|(_, m)| m.new.len()).sum();
        dedup_hits += level_transitions - new_total as u64;
        let level_merge_ns = elapsed_ns(phase);
        merge_ns += level_merge_ns;
        level_span.arg("merge_ns", level_merge_ns);

        // ---- Budget rule: keep the globally smallest k new words -----------
        if states + new_total > opts.budget {
            let mut kept: Vec<(S::W, P)> = merged.into_iter().flat_map(|(_, m)| m.new).collect();
            kept.sort_unstable_by_key(|&(w, _)| w);
            kept.truncate(opts.budget - states);
            states += kept.len();
            orbit_states += kept
                .iter()
                .map(|&(w, _)| space.orbit_weight(w))
                .sum::<u128>();
            if records {
                parents.extend(kept);
            }
            break 'bfs EngineOutcome::BudgetExceeded;
        }

        // ---- Commit the level ----------------------------------------------
        states += new_total;
        frontier.clear();
        frontier_len = new_total;
        if records {
            let level_start = parents.len();
            for (_, m) in &merged {
                parents.extend_from_slice(&m.new);
            }
            parents[level_start..].sort_unstable_by_key(|&(w, _)| w);
            let aux = edges.len() * std::mem::size_of::<(S::W, S::W)>()
                + parents.len() * std::mem::size_of::<(S::W, P)>();
            if aux > tracked_aux {
                gauge.add(aux - tracked_aux);
                tracked_aux = aux;
            }
        }
        for (sh, m) in merged {
            orbit_states += m.orbit;
            if m.new.is_empty() {
                continue;
            }
            stores[sh].push(Run::Hot(m.new.into_iter().map(|(w, _)| (w, ())).collect()));
            frontier.push((sh, stores[sh].len() - 1));
        }
        level_span.arg("new_states", new_total as u64);

        // ---- Phase 3: maintain (compaction + spill policy) -----------------
        let phase = Instant::now();
        maintain(
            &mut stores,
            &mut frontier,
            opts.mem_budget,
            &gauge,
            spill_dir.as_ref(),
            &spilled_total,
        );
        let level_maintain_ns = elapsed_ns(phase);
        maintain_ns += level_maintain_ns;
        level_span.arg("maintain_ns", level_maintain_ns);

        // Running totals: the most recently closed level span shows how
        // far a long exploration has got.
        level_span.arg("states", states as u64);
        level_span.arg("transitions", transitions);
        level_span.arg("orbit_states", orbit_states.min(u64::MAX as u128) as u64);
        level_span.arg("resident_bytes", gauge.current() as u64);
        level_span.arg("spilled_bytes", spilled_total.load(Ordering::Relaxed));
    };

    EngineOut {
        outcome,
        stats: EngineStats {
            states,
            orbit_states,
            transitions,
            dedup_hits,
            frontier_peak,
            levels,
            threads,
            shards,
            arena_bytes: states * wsize,
            frontier_bytes: frontier_peak * wsize,
            mem_budget: opts.mem_budget,
            mem_peak_bytes: gauge.peak(),
            spilled_bytes: spilled_total.load(Ordering::Relaxed),
            expand_ns,
            exchange_ns,
            merge_ns,
            maintain_ns,
        },
        parents,
        coverage,
        edges,
    }
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Post-level maintenance: compact shards that accumulated too many
/// runs, then spill hot runs oldest-first while the resident footprint
/// exceeds half the budget (the other half is headroom for the next
/// level's exchange buffers). Neither operation can change any
/// reported deterministic quantity — runs round-trip bit-exactly.
/// `spill_dir` is `Some` exactly when `mem_budget > 0`.
fn maintain<W: Word>(
    stores: &mut [Vec<Run<W, ()>>],
    frontier: &mut [(usize, usize)],
    mem_budget: usize,
    gauge: &MemGauge,
    spill_dir: Option<&SpillDir>,
    spilled_total: &AtomicU64,
) {
    // Compaction: merge every run except a live frontier run, keeping
    // the per-level cursor scans bounded by MAX_RUNS + 1 per shard.
    for (sh, runs) in stores.iter_mut().enumerate() {
        let frontier_here = frontier.iter().any(|&(s, _)| s == sh);
        let compactable = if frontier_here {
            runs.len() - 1
        } else {
            runs.len()
        };
        if compactable <= MAX_RUNS {
            continue;
        }
        let tail = runs.split_off(compactable);
        let old: Vec<Run<W, ()>> = std::mem::take(runs);
        let hot_freed: usize = old.iter().map(Run::hot_bytes).sum();
        let mut cursors: Vec<Cursor<'_, W, ()>> =
            old.iter().map(|r| Cursor::open(r, gauge)).collect();
        // Runs hold disjoint sorted sets, so a k-way min-merge suffices.
        let merged_words = std::iter::from_fn(|| kway_pop(&mut cursors));
        let merged = match spill_dir {
            None => {
                let total: u64 = old.iter().map(Run::len).sum();
                let mut words = Vec::with_capacity(total as usize);
                words.extend(merged_words);
                gauge.add(std::mem::size_of_val(words.as_slice()));
                Run::Hot(words)
            }
            Some(dir) => spill_run(dir, gauge, spilled_total, merged_words),
        };
        drop(cursors);
        gauge.sub(hot_freed);
        for r in old {
            if let Run::Cold { path, .. } = r {
                let _ = std::fs::remove_file(path);
            }
        }
        runs.push(merged);
        runs.extend(tail);
        // A frontier run keeps its last-run position.
        for f in frontier.iter_mut() {
            if f.0 == sh {
                f.1 = runs.len() - 1;
            }
        }
    }

    // Spill policy: oldest hot runs first, round-robin across shards.
    let Some(dir) = spill_dir else {
        return;
    };
    let target = mem_budget / 2;
    let mut resident: usize = stores
        .iter()
        .flat_map(|rs| rs.iter().map(Run::hot_bytes))
        .sum();
    if resident <= target {
        return;
    }
    'spill: for age in 0..MAX_RUNS + 2 {
        for runs in stores.iter_mut() {
            let Some(Run::Hot(words)) = runs.get(age) else {
                continue;
            };
            let hot = std::mem::size_of_val(words.as_slice());
            runs[age] = spill_run(dir, gauge, spilled_total, words.iter().copied());
            gauge.sub(hot);
            resident -= hot;
            if resident <= target {
                break 'spill;
            }
        }
    }
}

/// Write `items` (ascending, distinct words) as a one-run spill file.
fn spill_run<W: Word>(
    dir: &SpillDir,
    gauge: &MemGauge,
    spilled_total: &AtomicU64,
    items: impl IntoIterator<Item = (W, ())>,
) -> Run<W, ()> {
    let mut file = SpillWriter::create(dir, "run", gauge);
    let run = file.run(items);
    file.finish(spilled_total);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic word: a u64 in big-endian encoding.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct TW(u64);

    impl Word for TW {
        const WIDTH: usize = 8;
        fn write_bytes(&self, out: &mut [u8]) {
            out.copy_from_slice(&self.0.to_be_bytes());
        }
        fn read_bytes(buf: &[u8]) -> Self {
            TW(u64::from_be_bytes(buf.try_into().unwrap()))
        }
    }

    /// A synthetic space: pseudo-random 3-regular expander over
    /// `0..size`, with an optional violating value and quiescent sinks.
    struct Toy {
        size: u64,
        violating: Option<u64>,
    }

    impl Space for Toy {
        type W = TW;
        fn expand(&self, w: TW, em: &mut Emitter<'_, TW>) {
            if Some(w.0) == self.violating {
                em.violation();
                return;
            }
            if w.0 % 97 == 13 {
                em.quiescent();
                return;
            }
            for k in 1..=3u64 {
                let next =
                    w.0.wrapping_mul(6364136223846793005)
                        .wrapping_add(k * 1442695040888963407)
                        % self.size;
                em.succ(TW(next), k as u32);
            }
        }
    }

    fn opts(threads: usize, shards: usize, mem: usize, budget: usize) -> EngineOpts {
        EngineOpts {
            budget,
            threads,
            shards,
            mem_budget: mem,
            ..EngineOpts::default()
        }
    }

    /// A reachable word roughly `frac` of the way through discovery
    /// order, for planting violations at a known-reachable state.
    fn reachable_word(size: u64, frac: f64) -> u64 {
        let toy = Toy {
            size,
            violating: None,
        };
        let out = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &opts(1, 1, 0, usize::MAX));
        let idx = ((out.parents.len() as f64) * frac) as usize;
        out.parents[idx.min(out.parents.len() - 1)].0 .0
    }

    type Fields = (
        EngineOutcome<TW>,
        usize,
        u128,
        u64,
        u64,
        usize,
        usize,
        usize,
    );

    fn fields<P>(out: &EngineOut<TW, P>) -> Fields {
        let s = &out.stats;
        (
            out.outcome,
            s.states,
            s.orbit_states,
            s.transitions,
            s.dedup_hits,
            s.frontier_peak,
            s.levels,
            s.arena_bytes,
        )
    }

    #[test]
    fn results_are_identical_across_threads_shards_and_budgets() {
        let toy = Toy {
            size: 40_000,
            violating: None,
        };
        let base = run::<_, ()>(&toy, &[TW(1)], &opts(1, 1, 0, usize::MAX));
        assert_eq!(base.outcome, EngineOutcome::Verified);
        assert!(base.stats.states > 10_000, "{}", base.stats.states);
        for threads in [2, 8] {
            for shards in [1, 4, 16] {
                for mem in [0, 64 * 1024] {
                    let out = run::<_, ()>(&toy, &[TW(1)], &opts(threads, shards, mem, usize::MAX));
                    assert_eq!(fields(&out), fields(&base), "t{threads} s{shards} m{mem}");
                    if mem > 0 {
                        assert!(out.stats.spilled_bytes > 0, "tiny budget must spill");
                    }
                }
            }
        }
    }

    #[test]
    fn budget_is_exact_for_every_configuration() {
        let toy = Toy {
            size: 40_000,
            violating: None,
        };
        let base = run::<_, ()>(&toy, &[TW(1)], &opts(1, 1, 0, 5_000));
        assert_eq!(base.outcome, EngineOutcome::BudgetExceeded);
        assert_eq!(base.stats.states, 5_000);
        for (threads, shards, mem) in [(2, 4, 0), (8, 16, 32 * 1024), (1, 16, 0)] {
            let out = run::<_, ()>(&toy, &[TW(1)], &opts(threads, shards, mem, 5_000));
            assert_eq!(fields(&out), fields(&base), "t{threads} s{shards} m{mem}");
        }
        // A budget up to the number of distinct initial words (four
        // here) admits that many of them and expands no level; a zero
        // budget admits none and never verifies, not even a run with no
        // initial word.
        let inits = [TW(9), TW(4), TW(7), TW(4), TW(2)];
        for (threads, shards, mem) in [(1, 1, 0), (2, 4, 0), (8, 16, 32 * 1024)] {
            for budget in [0, 2, 4] {
                let out = run::<_, ()>(&toy, &inits, &opts(threads, shards, mem, budget));
                assert_eq!(
                    out.outcome,
                    EngineOutcome::BudgetExceeded,
                    "budget {budget}"
                );
                assert_eq!((out.stats.states, out.stats.levels), (budget, 0));
            }
            let out = run::<_, ()>(&toy, &[], &opts(threads, shards, mem, 0));
            assert_eq!(out.outcome, EngineOutcome::BudgetExceeded);
        }
    }

    #[test]
    fn violation_witness_is_identical_for_every_configuration() {
        let toy = Toy {
            size: 40_000,
            violating: Some(reachable_word(40_000, 0.6)),
        };
        let base = run::<_, ()>(&toy, &[TW(1)], &opts(1, 1, 0, usize::MAX));
        let EngineOutcome::Violation(w) = base.outcome else {
            panic!("expected violation, got {:?}", base.outcome);
        };
        for (threads, shards, mem) in [(8, 16, 0), (2, 4, 16 * 1024)] {
            let out = run::<_, ()>(&toy, &[TW(1)], &opts(threads, shards, mem, usize::MAX));
            assert_eq!(out.outcome, EngineOutcome::Violation(w));
            assert_eq!(fields(&out), fields(&base));
        }
    }

    #[test]
    fn parent_links_reach_the_root_and_agree_across_configurations() {
        let target = reachable_word(10_000, 0.8);
        let toy = Toy {
            size: 10_000,
            violating: Some(target),
        };
        let out = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &opts(4, 8, 0, usize::MAX));
        let EngineOutcome::Violation(w) = out.outcome else {
            panic!("expected violation, got {:?}", out.outcome);
        };
        let map: std::collections::HashMap<TW, ParentLink<TW>> =
            out.parents.iter().map(|&(w, p)| (w, p)).collect();
        // Walk to the root; the chain must terminate.
        let mut cur = w;
        let mut hops = 0;
        while cur != TW(1) {
            cur = map.get(&cur).expect("parent chain broken").parent;
            hops += 1;
            assert!(hops <= out.stats.levels, "parent chain too long");
        }
        // And be identical under a different configuration.
        let out2 = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &opts(1, 1, 8 * 1024, usize::MAX));
        assert_eq!(out2.outcome, EngineOutcome::Violation(w));
        let map2: std::collections::HashMap<TW, ParentLink<TW>> =
            out2.parents.iter().map(|&(w, p)| (w, p)).collect();
        let mut cur = w;
        while cur != TW(1) {
            let (a, b) = (map.get(&cur), map2.get(&cur));
            assert_eq!(a.copied(), b.copied(), "parent links diverge at {cur:?}");
            cur = a.expect("parent chain broken").parent;
        }
    }

    #[test]
    fn stuck_states_are_reported_with_the_minimum_witness() {
        // A space where some states dead-end without being quiescent.
        struct DeadEnd;
        impl Space for DeadEnd {
            type W = TW;
            fn expand(&self, w: TW, em: &mut Emitter<'_, TW>) {
                if w.0 < 5 {
                    em.succ(TW(w.0 + 1), 0);
                    em.succ(TW(w.0 + 100), 0);
                }
                // words ≥ 5: no successors, not quiescent → stuck
            }
        }
        let out = run::<_, ()>(&DeadEnd, &[TW(0)], &opts(1, 4, 0, usize::MAX));
        let EngineOutcome::Stuck(w) = out.outcome else {
            panic!("expected stuck, got {:?}", out.outcome);
        };
        assert_eq!(w, TW(100), "minimum stuck word at the earliest level");
    }

    #[test]
    fn quiescent_sinks_do_not_count_as_stuck() {
        struct AllQuiet;
        impl Space for AllQuiet {
            type W = TW;
            fn expand(&self, w: TW, em: &mut Emitter<'_, TW>) {
                if w.0 < 10 {
                    em.succ(TW(w.0 + 1), 0);
                } else {
                    em.quiescent();
                }
            }
        }
        let out = run::<_, ()>(&AllQuiet, &[TW(0)], &opts(2, 4, 0, usize::MAX));
        assert_eq!(out.outcome, EngineOutcome::Verified);
        assert_eq!(out.stats.states, 11);
    }

    #[test]
    fn spill_files_do_not_survive_the_run() {
        let base = std::env::temp_dir().join(format!("ccsql-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let toy = Toy {
            size: 40_000,
            violating: None,
        };
        let mut o = opts(2, 4, 16 * 1024, usize::MAX);
        o.spill_dir = Some(base.clone());
        let out = run::<_, ()>(&toy, &[TW(1)], &o);
        assert!(out.stats.spilled_bytes > 0);
        let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
        assert!(leftovers.is_empty(), "spill leftovers: {leftovers:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn phase_clocks_time_every_phase_of_a_spilled_run() {
        let toy = Toy {
            size: 40_000,
            violating: None,
        };
        let s = run::<_, ()>(&toy, &[TW(1)], &opts(1, 4, 64 * 1024, usize::MAX)).stats;
        assert!(s.spilled_bytes > 0, "{s:?}");
        assert!(
            s.expand_ns > 0 && s.merge_ns > 0 && s.maintain_ns > 0,
            "{s:?}"
        );
        // One worker flushes inside its own expand phase.
        assert!(s.exchange_ns > 0 && s.exchange_ns <= s.expand_ns, "{s:?}");
        let resident = run::<_, ()>(&toy, &[TW(1)], &opts(1, 4, 0, usize::MAX)).stats;
        assert_eq!(resident.exchange_ns, 0, "a resident run flushes nothing");
    }

    #[test]
    fn coverage_and_edges_are_complete() {
        struct Covered;
        impl Space for Covered {
            type W = TW;
            fn expand(&self, w: TW, em: &mut Emitter<'_, TW>) {
                if w.0 < 6 {
                    em.succ(TW(w.0 + 1), (w.0 % 3) as u32);
                } else {
                    em.quiescent();
                }
            }
            fn coverage_slots(&self) -> usize {
                4
            }
            fn cover_slot(&self, label: u32) -> Option<usize> {
                Some(label as usize)
            }
        }
        let out = run::<_, ParentLink<TW>>(&Covered, &[TW(0)], &opts(1, 2, 0, usize::MAX));
        assert_eq!(out.coverage, vec![true, true, true, false]);
        let mut edges = out.edges.clone();
        edges.sort();
        let want: Vec<(TW, TW)> = (0..6).map(|i| (TW(i), TW(i + 1))).collect();
        assert_eq!(edges, want);
    }
}
