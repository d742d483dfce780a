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
//! *runs* (one per BFS level, periodically compacted), where each run
//! is either hot (a sorted `Vec<W>`) or cold (a prefix-compressed
//! spill file, see [`crate::spill`]). There is **no global hash index
//! and no merge barrier**: a level is processed as
//!
//! 1. **Expand** — workers stream the frontier runs in blocks and
//!    expand each state; successor words are routed to per-worker,
//!    per-destination-shard buffers (the *bucket exchange*). Buffers
//!    that outgrow their share of the memory budget are sorted and
//!    spilled as candidate segments.
//! 2. **Merge** — each shard is merged independently (workers pick
//!    shards off a queue in deterministic shard order; shards never
//!    share state): the shard's candidate streams are k-way merged
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
//!   would be crossed, exactly `budget − states_so_far` states are
//!   kept — the globally smallest new words — so the final count
//!   equals the budget for every (threads, shards, mem_budget)
//!   combination.
//! * Parent links (when tracked) keep the minimum `(parent word,
//!   label)` pair per state, which the sorted merge computes
//!   naturally; the discovery-order list is level → shard → ascending
//!   word, all deterministic.
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
//! inside candidate-file flushes during phase 1, summed over workers.
//! They are args of the `mc/level` span, and their run totals are in
//! [`EngineStats`].
//!
//! The matrix tests in `tests/out_of_core.rs` pin these rules across
//! shard counts {1, 4, 16} × threads {1, 2, 8} × budgets that force
//! spilling at two-node scale.

use crate::spill::{RunReader, RunWriter, SpillDir, IO_BUF_BYTES};
use ccsql_obs::hash::fx_hash_one;
use ccsql_obs::{MemGauge, MemLease};
use std::io::{Seek, Write};
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
/// reconstruction.
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
    /// Record discovery order and parent links (required for
    /// counterexample paths).
    pub track_parents: bool,
    /// Record every transition as a (src, dst) word pair (required for
    /// the spec machines' drain check). Edges stay resident and arrive
    /// in no particular order — treat them as a set.
    pub capture_edges: bool,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            budget: usize::MAX,
            threads: 1,
            shards: DEFAULT_SHARDS,
            mem_budget: 0,
            spill_dir: None,
            track_parents: false,
            capture_edges: false,
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
    /// Time spent flushing exchange buffers to candidate files, summed
    /// over workers (0 when nothing was flushed).
    pub exchange_ns: u64,
    /// Wall time of the merge phases.
    pub merge_ns: u64,
    /// Wall time of the maintain phases (compaction and spilling).
    pub maintain_ns: u64,
}

/// Everything an exploration returns.
pub struct EngineOut<W: Word, P> {
    pub outcome: EngineOutcome<W>,
    pub stats: EngineStats,
    /// Discovery-order list of (state, payload) — levels in order,
    /// shards in order within a level, words ascending within a shard.
    /// Root states carry no entry. Empty unless
    /// [`EngineOpts::track_parents`].
    pub parents: Vec<(W, P)>,
    /// Coverage bitmap ([`Space::coverage_slots`] wide).
    pub coverage: Vec<bool>,
    /// All (src, dst) transition word pairs, unordered. Empty unless
    /// [`EngineOpts::capture_edges`].
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

/// One sorted run of distinct words owned by a shard.
struct Run<W: Word> {
    data: RunData<W>,
    count: u64,
}

enum RunData<W: Word> {
    Hot(Vec<W>),
    Cold { path: PathBuf },
}

impl<W: Word> Run<W> {
    fn hot_bytes(&self) -> usize {
        match &self.data {
            RunData::Hot(v) => v.len() * std::mem::size_of::<W>(),
            RunData::Cold { .. } => 0,
        }
    }
}

/// Monotone read cursor over one run (hot slice or cold stream).
enum RunCursor<'a, W: Word> {
    Hot(&'a [W], usize),
    Cold {
        reader: RunReader,
        cur: Option<W>,
        buf: Vec<u8>,
    },
}

impl<W: Word> RunCursor<'_, W> {
    fn open(run: &Run<W>) -> RunCursor<'_, W> {
        match &run.data {
            RunData::Hot(v) => RunCursor::Hot(v, 0),
            RunData::Cold { path } => {
                let reader = RunReader::open(path, W::WIDTH, 0, run.count).expect("open spill run");
                let mut c = RunCursor::Cold {
                    reader,
                    cur: None,
                    buf: vec![0u8; W::WIDTH],
                };
                c.advance();
                c
            }
        }
    }

    fn head(&self) -> Option<W> {
        match self {
            RunCursor::Hot(v, pos) => v.get(*pos).copied(),
            RunCursor::Cold { cur, .. } => *cur,
        }
    }

    fn advance(&mut self) {
        match self {
            RunCursor::Hot(_, pos) => *pos += 1,
            RunCursor::Cold { reader, cur, buf } => {
                *cur = if reader.next_into(buf, &mut []).expect("read spill run") {
                    Some(W::read_bytes(buf))
                } else {
                    None
                };
            }
        }
    }

    /// Advance past all words `< w`; report whether the cursor sits on
    /// `w`. Callers must probe with ascending `w`.
    fn contains(&mut self, w: &W) -> bool {
        while matches!(self.head(), Some(h) if h < *w) {
            self.advance();
        }
        self.head() == Some(*w)
    }
}

/// A spilled exchange file: per-destination-shard sorted candidate
/// segments, seekable by segment.
struct CandFile {
    path: PathBuf,
    segments: Vec<CandSegment>,
}

#[derive(Clone, Copy)]
struct CandSegment {
    shard: u32,
    offset: u64,
    count: u64,
}

/// Sorted candidate stream for one shard: an in-memory buffer or one
/// spilled exchange segment.
enum CandStream<'a, W: Word, P: Payload<W>> {
    Hot(&'a [(W, P)], usize),
    Cold {
        reader: RunReader,
        cur: Option<(W, P)>,
        wbuf: Vec<u8>,
        pbuf: Vec<u8>,
    },
}

impl<'a, W: Word, P: Payload<W>> CandStream<'a, W, P> {
    fn open_segment(path: &std::path::Path, seg: CandSegment) -> CandStream<'a, W, P> {
        let mut file = std::fs::File::open(path).expect("open exchange file");
        file.seek(std::io::SeekFrom::Start(seg.offset))
            .expect("seek exchange segment");
        let reader = RunReader::from_file(file, W::WIDTH, P::WIDTH, seg.count);
        let mut s = CandStream::Cold {
            reader,
            cur: None,
            wbuf: vec![0u8; W::WIDTH],
            pbuf: vec![0u8; P::WIDTH],
        };
        s.advance();
        s
    }

    fn head(&self) -> Option<(W, P)> {
        match self {
            CandStream::Hot(v, pos) => v.get(*pos).copied(),
            CandStream::Cold { cur, .. } => *cur,
        }
    }

    fn advance(&mut self) {
        match self {
            CandStream::Hot(_, pos) => *pos += 1,
            CandStream::Cold {
                reader,
                cur,
                wbuf,
                pbuf,
            } => {
                *cur = if reader.next_into(wbuf, pbuf).expect("read exchange segment") {
                    Some((W::read_bytes(wbuf), P::read_bytes(pbuf)))
                } else {
                    None
                };
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Violation,
    Stuck,
}

/// Per-worker expansion output for one level.
struct WorkerOut<W: Word, P: Payload<W>> {
    /// Per-destination-shard sorted, locally deduplicated candidates.
    bufs: Vec<Vec<(W, P)>>,
    transitions: u64,
    /// Minimum violating/stuck word seen this level.
    event: Option<(W, EventKind)>,
    coverage: Vec<bool>,
    edges: Vec<(W, W)>,
    /// Gauge bytes still accounted for the surviving hot buffers.
    accounted: usize,
    /// Nanoseconds spent flushing candidate files.
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
}

struct FrontierIter<'a, W: Word> {
    runs: Vec<&'a Run<W>>,
    next_run: usize,
    cursor: Option<RunCursor<'a, W>>,
}

impl<W: Word> FrontierSource<'_, W> {
    /// Pull up to [`BLOCK_WORDS`] frontier words into `out`; false when
    /// the frontier is exhausted.
    fn next_block(&self, out: &mut Vec<W>) -> bool {
        out.clear();
        let mut it = self.inner.lock().expect("frontier lock");
        while out.len() < BLOCK_WORDS {
            if it.cursor.is_none() {
                if it.next_run >= it.runs.len() {
                    break;
                }
                let run = it.runs[it.next_run];
                it.next_run += 1;
                it.cursor = Some(RunCursor::open(run));
            }
            let mut exhausted = false;
            match it.cursor.as_mut().expect("cursor set") {
                RunCursor::Hot(v, pos) => {
                    let take = (v.len() - *pos).min(BLOCK_WORDS - out.len());
                    out.extend_from_slice(&v[*pos..*pos + take]);
                    *pos += take;
                    exhausted = *pos == v.len();
                }
                c @ RunCursor::Cold { .. } => {
                    while out.len() < BLOCK_WORDS {
                        match c.head() {
                            Some(w) => {
                                out.push(w);
                                c.advance();
                            }
                            None => {
                                exhausted = true;
                                break;
                            }
                        }
                    }
                }
            }
            if exhausted {
                it.cursor = None;
            }
        }
        !out.is_empty()
    }
}

/// Per-shard inputs to the merge phase.
struct ShardMergeIn<W: Word, P: Payload<W>> {
    bufs: Vec<Vec<(W, P)>>,
    /// (exchange-file index, segment) pairs destined for this shard.
    segments: Vec<(usize, CandSegment)>,
}

/// Per-shard merge result: the next run, pre-sorted and distinct.
struct ShardMergeOut<W: Word, P: Payload<W>> {
    new_words: Vec<W>,
    new_payloads: Vec<P>,
    orbit: u128,
}

/// One hand-off slot per shard, claimed by whichever merge worker pulls
/// the shard off the queue.
type ShardSlots<T> = Vec<Mutex<Option<T>>>;

/// K-way-merge the candidate streams of one shard, subtract the
/// shard's runs, and return the survivors.
fn merge_shard<W: Word, P: Payload<W>>(
    input: ShardMergeIn<W, P>,
    runs: &[Run<W>],
    cand_files: &[CandFile],
    orbit_weight: &impl Fn(&W) -> u128,
    track_parents: bool,
) -> ShardMergeOut<W, P> {
    let mut streams: Vec<CandStream<'_, W, P>> = Vec::new();
    for buf in &input.bufs {
        if !buf.is_empty() {
            streams.push(CandStream::Hot(buf, 0));
        }
    }
    for &(fi, seg) in &input.segments {
        streams.push(CandStream::open_segment(&cand_files[fi].path, seg));
    }
    let mut cursors: Vec<RunCursor<'_, W>> = runs.iter().map(RunCursor::open).collect();
    let mut out = ShardMergeOut {
        new_words: Vec::new(),
        new_payloads: Vec::new(),
        orbit: 0,
    };
    loop {
        // Minimum word across stream heads, payloads folded.
        let mut min: Option<(W, P)> = None;
        for s in &streams {
            if let Some((w, p)) = s.head() {
                min = Some(match min {
                    None => (w, p),
                    Some((mw, _)) if w < mw => (w, p),
                    Some((mw, mp)) if w == mw => (mw, mp.prefer(p)),
                    Some(m) => m,
                });
            }
        }
        let Some((w, p)) = min else { break };
        // Pop every stream sitting on `w` (all payloads for `w` were
        // folded above, before any stream advances).
        for s in &mut streams {
            while matches!(s.head(), Some((hw, _)) if hw == w) {
                s.advance();
            }
        }
        if cursors.iter_mut().any(|c| c.contains(&w)) {
            continue; // already visited
        }
        out.new_words.push(w);
        if track_parents {
            out.new_payloads.push(p);
        }
        out.orbit += orbit_weight(&w);
    }
    out
}

/// Run the engine over `space` from the initial words (deduplicated
/// and sorted internally; they form level 0).
pub fn run<S: Space, P: Payload<S::W>>(
    space: &S,
    inits: &[S::W],
    opts: &EngineOpts,
) -> EngineOut<S::W, P> {
    let threads = opts.threads.max(1);
    let shards = opts.shards.max(1);
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
    let mut stores: Vec<Vec<Run<S::W>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut init_sorted: Vec<S::W> = inits.to_vec();
    init_sorted.sort_unstable();
    init_sorted.dedup();
    let mut states: usize = 0;
    let mut orbit_states: u128 = 0;
    let mut parents: Vec<(S::W, P)> = Vec::new();
    let mut edges: Vec<(S::W, S::W)> = Vec::new();
    let mut coverage = vec![false; space.coverage_slots()];
    {
        let mut per_shard: Vec<Vec<S::W>> = (0..shards).map(|_| Vec::new()).collect();
        for w in init_sorted {
            per_shard[shard_of(&w, shards)].push(w);
        }
        for (sh, words) in per_shard.into_iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            states += words.len();
            for w in &words {
                orbit_states += space.orbit_weight(*w);
            }
            gauge.add(words.len() * wsize);
            stores[sh].push(Run {
                count: words.len() as u64,
                data: RunData::Hot(words),
            });
        }
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
        if frontier_len == 0 {
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
                runs: frontier.iter().map(|&(s, r)| &stores[s][r]).collect(),
                next_run: 0,
                cursor: None,
            }),
        };
        let cand_files: Mutex<Vec<CandFile>> = Mutex::new(Vec::new());
        let expand_worker = || -> WorkerOut<S::W, P> {
            let mut out = WorkerOut {
                bufs: (0..shards).map(|_| Vec::new()).collect(),
                transitions: 0,
                event: None,
                coverage: vec![false; space.coverage_slots()],
                edges: Vec::new(),
                accounted: 0,
                exchange_ns: 0,
            };
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
                        if opts.capture_edges {
                            out.edges.push((w, sw));
                        }
                        out.bufs[shard_of(&sw, shards)].push((sw, P::make(w, label)));
                        buffered += entry_size;
                    }
                }
                if buffered > out.accounted {
                    gauge.add(buffered - out.accounted);
                    out.accounted = buffered;
                }
                if buffered > cand_cap_bytes {
                    // Flush: one exchange file holding a sorted,
                    // prefix-coded segment per destination shard.
                    let flush = Instant::now();
                    let dir = spill_dir.as_ref().expect("spill dir exists under budget");
                    let path = dir.next_file("xchg");
                    let mut file = CandFile {
                        path: path.clone(),
                        segments: Vec::new(),
                    };
                    let mut writer = std::io::BufWriter::with_capacity(
                        IO_BUF_BYTES,
                        std::fs::File::create(&path).expect("create exchange file"),
                    );
                    let io_lease = MemLease::new(&gauge, IO_BUF_BYTES);
                    let mut offset: u64 = 0;
                    let mut wbuf = vec![0u8; S::W::WIDTH];
                    let mut pbuf = vec![0u8; P::WIDTH];
                    let mut prev = vec![0u8; S::W::WIDTH];
                    for (sh, buf) in out.bufs.iter_mut().enumerate() {
                        if buf.is_empty() {
                            continue;
                        }
                        sort_dedup(buf);
                        let mut seg_bytes: u64 = 0;
                        for (i, (w, p)) in buf.iter().enumerate() {
                            w.write_bytes(&mut wbuf);
                            p.write_bytes(&mut pbuf);
                            let shared = if i == 0 {
                                0
                            } else {
                                prev.iter()
                                    .zip(wbuf.iter())
                                    .take_while(|(a, b)| a == b)
                                    .count()
                            };
                            writer.write_all(&[shared as u8]).expect("write exchange");
                            writer.write_all(&wbuf[shared..]).expect("write exchange");
                            writer.write_all(&pbuf).expect("write exchange");
                            seg_bytes += 1 + (S::W::WIDTH - shared) as u64 + P::WIDTH as u64;
                            prev.copy_from_slice(&wbuf);
                        }
                        file.segments.push(CandSegment {
                            shard: sh as u32,
                            offset,
                            count: buf.len() as u64,
                        });
                        offset += seg_bytes;
                        buf.clear();
                        buf.shrink_to_fit();
                    }
                    writer.flush().expect("flush exchange file");
                    drop(io_lease);
                    spilled_total.fetch_add(offset, Ordering::Relaxed);
                    gauge.sub(out.accounted);
                    out.accounted = 0;
                    buffered = 0;
                    cand_files.lock().expect("cand files lock").push(file);
                    out.exchange_ns += elapsed_ns(flush);
                }
            }
            for buf in out.bufs.iter_mut() {
                sort_dedup(buf);
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
        let cand_files = cand_files.into_inner().expect("cand files");
        let level_expand_ns = elapsed_ns(phase);

        // Fold per-worker counters and the minimum-word event.
        let mut event: Option<(S::W, EventKind)> = None;
        let mut level_transitions: u64 = 0;
        let mut level_exchange_ns: u64 = 0;
        let mut bufs_accounted: usize = 0;
        for wo in &worker_outs {
            level_transitions += wo.transitions;
            level_exchange_ns += wo.exchange_ns;
            event = better_event(event, wo.event);
            bufs_accounted += wo.accounted;
            for (a, b) in coverage.iter_mut().zip(&wo.coverage) {
                *a |= *b;
            }
        }
        transitions += level_transitions;
        expand_ns += level_expand_ns;
        exchange_ns += level_exchange_ns;
        level_span.arg("expand_ns", level_expand_ns);
        level_span.arg("exchange_ns", level_exchange_ns);
        if opts.capture_edges {
            for wo in &mut worker_outs {
                edges.append(&mut wo.edges);
            }
        }
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
        let merge_inputs: ShardSlots<ShardMergeIn<S::W, P>> =
            (0..shards).map(|_| Mutex::new(None)).collect();
        {
            let mut per_shard: Vec<ShardMergeIn<S::W, P>> = (0..shards)
                .map(|_| ShardMergeIn {
                    bufs: Vec::new(),
                    segments: Vec::new(),
                })
                .collect();
            for wo in &mut worker_outs {
                for (sh, buf) in wo.bufs.drain(..).enumerate() {
                    if !buf.is_empty() {
                        per_shard[sh].bufs.push(buf);
                    }
                }
            }
            for (fi, f) in cand_files.iter().enumerate() {
                for seg in &f.segments {
                    per_shard[seg.shard as usize].segments.push((fi, *seg));
                }
            }
            for (sh, input) in per_shard.into_iter().enumerate() {
                *merge_inputs[sh].lock().expect("merge input") = Some(input);
            }
        }
        let merge_outs: ShardSlots<ShardMergeOut<S::W, P>> =
            (0..shards).map(|_| Mutex::new(None)).collect();
        let next_shard = AtomicUsize::new(0);
        let orbit_weight = |w: &S::W| space.orbit_weight(*w);
        let merge_worker = || loop {
            let sh = next_shard.fetch_add(1, Ordering::Relaxed);
            if sh >= shards {
                break;
            }
            let input = merge_inputs[sh]
                .lock()
                .expect("merge input")
                .take()
                .expect("merge input present");
            let out = merge_shard(
                input,
                &stores[sh],
                &cand_files,
                &orbit_weight,
                opts.track_parents,
            );
            gauge.add(out.new_words.len() * wsize);
            *merge_outs[sh].lock().expect("merge out") = Some(out);
        };
        let merge_workers = if threads <= 1 || frontier_len < MIN_WORK_PER_WORKER {
            1
        } else {
            threads.min(shards)
        };
        if merge_workers == 1 {
            merge_worker();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..merge_workers)
                    .map(|_| scope.spawn(merge_worker))
                    .collect();
                for h in handles {
                    h.join().expect("mc merge worker panicked");
                }
            });
        }
        // Exchange buffers and files are dead once merged.
        drop(worker_outs);
        gauge.sub(bufs_accounted);
        for f in &cand_files {
            let _ = std::fs::remove_file(&f.path);
        }
        let mut new_runs: Vec<ShardMergeOut<S::W, P>> = merge_outs
            .into_iter()
            .map(|m| m.into_inner().expect("merge out").expect("merge out set"))
            .collect();
        let new_total: usize = new_runs.iter().map(|r| r.new_words.len()).sum();
        dedup_hits += level_transitions - new_total as u64;
        let level_merge_ns = elapsed_ns(phase);
        merge_ns += level_merge_ns;
        level_span.arg("merge_ns", level_merge_ns);

        // ---- Budget rule: keep the globally smallest k new words -----------
        if states + new_total > opts.budget {
            let k = opts.budget - states;
            let mut heads = vec![0usize; shards];
            let mut popped = 0usize;
            while popped < k {
                let mut best: Option<(S::W, usize)> = None;
                for (sh, run) in new_runs.iter().enumerate() {
                    if let Some(w) = run.new_words.get(heads[sh]) {
                        if best.is_none_or(|(bw, _)| *w < bw) {
                            best = Some((*w, sh));
                        }
                    }
                }
                let Some((w, sh)) = best else { break };
                heads[sh] += 1;
                popped += 1;
                orbit_states += space.orbit_weight(w);
            }
            states += popped;
            if opts.track_parents {
                for (sh, run) in new_runs.iter_mut().enumerate() {
                    for i in 0..heads[sh] {
                        parents.push((run.new_words[i], run.new_payloads[i]));
                    }
                }
            }
            break 'bfs EngineOutcome::BudgetExceeded;
        }

        // ---- Commit the level ----------------------------------------------
        states += new_total;
        frontier.clear();
        frontier_len = new_total;
        for (sh, run) in new_runs.iter_mut().enumerate() {
            orbit_states += run.orbit;
            if opts.track_parents {
                for (w, p) in run.new_words.iter().zip(run.new_payloads.iter()) {
                    parents.push((*w, *p));
                }
            }
            if run.new_words.is_empty() {
                continue;
            }
            let words = std::mem::take(&mut run.new_words);
            stores[sh].push(Run {
                count: words.len() as u64,
                data: RunData::Hot(words),
            });
            frontier.push((sh, stores[sh].len() - 1));
        }
        if opts.track_parents || opts.capture_edges {
            let aux = edges.len() * std::mem::size_of::<(S::W, S::W)>()
                + parents.len() * std::mem::size_of::<(S::W, P)>();
            if aux > tracked_aux {
                gauge.add(aux - tracked_aux);
                tracked_aux = aux;
            }
        }
        level_span.arg("new_states", new_total as u64);

        // ---- Phase 3: maintain (compaction + spill policy) -----------------
        let phase = Instant::now();
        maintain(
            &mut stores,
            &mut frontier,
            opts,
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
fn maintain<W: Word>(
    stores: &mut [Vec<Run<W>>],
    frontier: &mut [(usize, usize)],
    opts: &EngineOpts,
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
        let old: Vec<Run<W>> = std::mem::take(runs);
        let hot_freed: usize = old.iter().map(Run::hot_bytes).sum();
        let mut cursors: Vec<RunCursor<'_, W>> = old.iter().map(RunCursor::open).collect();
        // Runs hold disjoint sorted sets, so a k-way min-merge suffices.
        let merged = if opts.mem_budget == 0 {
            let total: u64 = old.iter().map(|r| r.count).sum();
            let mut words: Vec<W> = Vec::with_capacity(total as usize);
            while let Some(w) = kway_pop(&mut cursors) {
                words.push(w);
            }
            gauge.add(words.len() * std::mem::size_of::<W>());
            Run {
                count: words.len() as u64,
                data: RunData::Hot(words),
            }
        } else {
            let dir = spill_dir.expect("spill dir exists under budget");
            let path = dir.next_file("run");
            let mut writer = RunWriter::create(&path, W::WIDTH, 0).expect("create compacted run");
            let io_lease = MemLease::new(gauge, IO_BUF_BYTES);
            let mut buf = vec![0u8; W::WIDTH];
            while let Some(w) = kway_pop(&mut cursors) {
                w.write_bytes(&mut buf);
                writer.push(&buf, &[]).expect("write compacted run");
            }
            let (count, bytes) = writer.finish().expect("finish compacted run");
            drop(io_lease);
            spilled_total.fetch_add(bytes, Ordering::Relaxed);
            Run {
                count,
                data: RunData::Cold { path },
            }
        };
        drop(cursors);
        gauge.sub(hot_freed);
        for r in old {
            if let RunData::Cold { path } = r.data {
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
    if opts.mem_budget == 0 {
        return;
    }
    let target = opts.mem_budget / 2;
    let mut resident: usize = stores
        .iter()
        .flat_map(|rs| rs.iter().map(Run::hot_bytes))
        .sum();
    if resident <= target {
        return;
    }
    let dir = spill_dir.expect("spill dir exists under budget");
    'spill: for age in 0..MAX_RUNS + 2 {
        for runs in stores.iter_mut() {
            if age >= runs.len() {
                continue;
            }
            let run = &mut runs[age];
            let hot = run.hot_bytes();
            if hot == 0 {
                continue;
            }
            let RunData::Hot(words) = &run.data else {
                continue;
            };
            let path = dir.next_file("run");
            let mut writer = RunWriter::create(&path, W::WIDTH, 0).expect("create spill run");
            let io_lease = MemLease::new(gauge, IO_BUF_BYTES);
            let mut buf = vec![0u8; W::WIDTH];
            for w in words {
                w.write_bytes(&mut buf);
                writer.push(&buf, &[]).expect("write spill run");
            }
            let (_, bytes) = writer.finish().expect("finish spill run");
            drop(io_lease);
            spilled_total.fetch_add(bytes, Ordering::Relaxed);
            run.data = RunData::Cold { path };
            gauge.sub(hot);
            resident -= hot;
            if resident <= target {
                break 'spill;
            }
        }
    }
}

/// Pop the global minimum across disjoint sorted cursors.
fn kway_pop<W: Word>(cursors: &mut [RunCursor<'_, W>]) -> Option<W> {
    let mut best: Option<(W, usize)> = None;
    for (i, c) in cursors.iter().enumerate() {
        if let Some(w) = c.head() {
            if best.is_none_or(|(bw, _)| w < bw) {
                best = Some((w, i));
            }
        }
    }
    let (w, i) = best?;
    cursors[i].advance();
    Some(w)
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
        let mut o = opts(1, 1, 0, usize::MAX);
        o.track_parents = true;
        let out = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &o);
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
        let mut o = opts(4, 8, 0, usize::MAX);
        o.track_parents = true;
        let out = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &o);
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
        let mut o2 = opts(1, 1, 8 * 1024, usize::MAX);
        o2.track_parents = true;
        let out2 = run::<_, ParentLink<TW>>(&toy, &[TW(1)], &o2);
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
        let mut o = opts(1, 2, 0, usize::MAX);
        o.capture_edges = true;
        let out = run::<_, ()>(&Covered, &[TW(0)], &o);
        assert_eq!(out.coverage, vec![true, true, true, false]);
        let mut edges = out.edges.clone();
        edges.sort();
        let want: Vec<(TW, TW)> = (0..6).map(|i| (TW(i), TW(i + 1))).collect();
        assert_eq!(edges, want);
    }
}
