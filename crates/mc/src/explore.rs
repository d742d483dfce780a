//! Model exploration as an adapter over the shared out-of-core engine
//! ([`crate::engine`]).
//!
//! The builtin directory-MESI model ([`crate::model::Model`]) is
//! exposed to the engine as a [`Space`] over bit-packed [`Compact`]
//! words (16 bytes each, see [`crate::compact`]): a state is unpacked
//! into a stack [`State`] only at the model boundary, and
//! [`Model::for_each_successor`] hands each successor to a callback
//! that packs it (and, with [`McOpts::symmetry`] on, canonicalises it
//! to the lexicographically least member of its node-permutation
//! orbit) straight into the exchange, so expanding a state allocates
//! nothing. The engine owns everything else — sharding, sorted-run
//! dedup, spilling under [`McOpts::mem_budget`], parallel expansion
//! and merge — so this module is mostly translation: `McOpts` →
//! `EngineOpts`, `EngineOutcome` word witnesses → unpacked [`State`]s
//! plus the re-derived property name, `EngineStats` → [`McStats`].
//!
//! With symmetry on the BFS explores the *quotient* graph: one
//! representative per orbit, dividing the reachable space by up to
//! `n!` on fully node-permutable states. Soundness rests on the
//! initial state and every checked property being permutation
//! invariant (see DESIGN.md §11); the equivalence gates in
//! `tests/symmetry.rs` pin the on/off verdicts against each other at
//! small configurations.
//!
//! Determinism: a run with any (threads, shards, mem_budget)
//! combination is byte-identical in outcome, counts and witness to
//! every other — see the engine's witness/budget rules. The witness
//! under a violation or stuck outcome is the minimum packed word among
//! the earliest level's events (an orbit representative under
//! symmetry): a genuine violating state, possibly a node-renumbering
//! of the one a differently-configured run of the *seed* engine would
//! have reported.

use crate::compact::{canon, orbit_size, pack, unpack, Compact};
use crate::engine::{
    self, Emitter, EngineOpts, EngineOutcome, EngineStats, Space, Word, DEFAULT_SHARDS,
};
use crate::model::Model;
use crate::state::State;
use std::path::PathBuf;
use std::time::{Duration, Instant};

impl Word for Compact {
    const WIDTH: usize = 16;
    fn write_bytes(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0.to_be_bytes());
    }
    fn read_bytes(buf: &[u8]) -> Self {
        Compact(u128::from_be_bytes(buf.try_into().unwrap()))
    }
}

/// Why the exploration stopped.
#[derive(Debug, PartialEq, Eq)]
pub enum McOutcome {
    /// Full state space explored; all properties hold.
    Verified,
    /// A safety property failed (name included).
    Violation(&'static str),
    /// A non-quiescent state with no successors (deadlock/livelock in
    /// the abstract machine).
    Stuck,
    /// The state budget ran out (the state-explosion outcome).
    BudgetExceeded,
}

/// Exploration options.
#[derive(Clone, Debug)]
pub struct McOpts {
    /// Distinct-state budget (quotient states when `symmetry` is on).
    /// Exact: a budget-exceeded run stops at exactly this many states.
    pub budget: usize,
    /// Worker threads (results are identical for every count).
    pub threads: usize,
    /// Canonicalise states to their orbit representative before
    /// visiting: explore the symmetry-reduced quotient graph.
    pub symmetry: bool,
    /// Disjoint state shards (results are identical for every count).
    pub shards: usize,
    /// Resident-memory target in bytes; 0 = unlimited (no spilling).
    pub mem_budget: usize,
    /// Base directory for spill files (OS temp dir when `None`).
    pub spill_dir: Option<PathBuf>,
}

impl Default for McOpts {
    fn default() -> McOpts {
        McOpts {
            budget: 1_000_000,
            threads: 1,
            symmetry: false,
            shards: DEFAULT_SHARDS,
            mem_budget: 0,
            spill_dir: None,
        }
    }
}

/// Exploration statistics.
#[derive(Debug)]
pub struct McStats {
    /// Distinct states visited (orbit representatives when symmetry
    /// reduction is on).
    pub states: usize,
    /// Full states represented: the sum of orbit sizes over `states`.
    /// Equals `states` with symmetry off; with symmetry on it equals
    /// the state count a symmetry-off run would report, which
    /// `tests/symmetry.rs` uses as an exactness gate.
    pub orbit_states: u64,
    /// Transitions fired (from orbit representatives only, under
    /// symmetry).
    pub transitions: u64,
    /// Transitions whose target state had already been seen
    /// (`transitions − distinct new states`, per completed level).
    pub dedup_hits: u64,
    /// Largest BFS level observed.
    pub frontier_peak: usize,
    /// Maximum BFS depth reached.
    pub depth: usize,
    /// BFS levels processed.
    pub levels: usize,
    /// Worker threads used.
    pub threads: usize,
    /// State shards used.
    pub shards: usize,
    /// Whether symmetry reduction was on.
    pub symmetry: bool,
    /// Logical bytes of all packed distinct states (16 per state) —
    /// resident or spilled.
    pub arena_bytes: usize,
    /// Logical bytes of the widest BFS level (16 per state).
    pub frontier_bytes: usize,
    /// The configured resident-memory target (0 = unlimited).
    pub mem_budget: usize,
    /// Peak of the all-inclusive resident ledger: hot runs, exchange
    /// buffers, decode blocks and spill I/O buffers. Varies with
    /// threads/shards — excluded from the determinism gates.
    pub mem_peak_bytes: usize,
    /// Total bytes written to spill files (0 when fully resident).
    /// Excluded from the determinism gates.
    pub spilled_bytes: u64,
    /// The violating (or stuck) state, when the outcome is
    /// [`McOutcome::Violation`] or [`McOutcome::Stuck`] — identical
    /// for every (threads, shards, mem_budget) combination by the
    /// engine's minimum-word witness rule. Under symmetry it is the
    /// orbit representative: a genuine violating state, possibly a
    /// node-renumbering of the one a full run reports.
    pub witness: Option<State>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The builtin model as an engine [`Space`].
struct ModelSpace<'a> {
    model: &'a Model,
    symmetry: bool,
}

impl Space for ModelSpace<'_> {
    type W = Compact;

    fn expand(&self, w: Compact, em: &mut Emitter<'_, Compact>) {
        let s = unpack(w);
        if self.model.check(&s).is_some() {
            em.violation();
            return;
        }
        let mut any = false;
        self.model.for_each_successor(&s, |t| {
            any = true;
            let c = pack(&t);
            em.succ(if self.symmetry { canon(c) } else { c }, 0);
        });
        if !any && s.quiescent() {
            em.quiescent();
        }
    }

    fn orbit_weight(&self, w: Compact) -> u128 {
        if self.symmetry {
            orbit_size(w) as u128
        } else {
            1
        }
    }
}

/// Explore the model's state space up to `budget` distinct states
/// (single worker, no symmetry reduction, fully resident).
pub fn explore(model: &Model, budget: usize) -> (McOutcome, McStats) {
    explore_threads(model, budget, 1)
}

/// Explore with `threads` workers, no symmetry reduction. Guaranteed
/// byte-identical to [`explore`] in outcome, statistics and witness.
pub fn explore_threads(model: &Model, budget: usize, threads: usize) -> (McOutcome, McStats) {
    explore_from(model, model.initial(), budget, threads)
}

/// Explore from an explicit initial state (used by the equivalence
/// tests to seed a reachable bug), no symmetry reduction.
pub fn explore_from(
    model: &Model,
    init: State,
    budget: usize,
    threads: usize,
) -> (McOutcome, McStats) {
    explore_with(
        model,
        init,
        &McOpts {
            budget,
            threads,
            ..McOpts::default()
        },
    )
}

/// Explore with explicit [`McOpts`] — the full interface: budget,
/// worker count, symmetry reduction, shard count and memory budget.
pub fn explore_with(model: &Model, init: State, opts: &McOpts) -> (McOutcome, McStats) {
    model
        .validate()
        .expect("model parameters must pass Model::validate");
    let start = Instant::now();
    let run_span = ccsql_obs::flight::span("mc", "explore");
    run_span.arg("budget", opts.budget as u64);
    run_span.arg("threads", opts.threads.max(1) as u64);
    run_span.arg("symmetry", u64::from(opts.symmetry));
    run_span.arg("shards", opts.shards.max(1) as u64);
    run_span.arg("mem_budget", opts.mem_budget as u64);

    let space = ModelSpace {
        model,
        symmetry: opts.symmetry,
    };
    let mut c0 = pack(&init);
    if opts.symmetry {
        c0 = canon(c0);
    }
    let eopts = EngineOpts {
        budget: opts.budget,
        threads: opts.threads.max(1),
        shards: opts.shards.max(1),
        mem_budget: opts.mem_budget,
        spill_dir: opts.spill_dir.clone(),
        track_parents: false,
        capture_edges: false,
    };
    let out = engine::run::<_, ()>(&space, &[c0], &eopts);

    let (outcome, witness) = match out.outcome {
        EngineOutcome::Verified => (McOutcome::Verified, None),
        EngineOutcome::BudgetExceeded => (McOutcome::BudgetExceeded, None),
        EngineOutcome::Stuck(w) => (McOutcome::Stuck, Some(unpack(w))),
        EngineOutcome::Violation(w) => {
            let s = unpack(w);
            let prop = model
                .check(&s)
                .expect("witness must violate a property on re-check");
            (McOutcome::Violation(prop), Some(s))
        }
    };
    let stats = mc_stats(&out.stats, opts.symmetry, witness, start.elapsed());
    run_span.arg("states", stats.states as u64);
    run_span.arg("orbit_states", stats.orbit_states);
    run_span.arg("transitions", stats.transitions);
    run_span.arg("dedup_hits", stats.dedup_hits);
    run_span.arg("levels", stats.levels as u64);
    run_span.arg("depth", stats.depth as u64);
    run_span.arg("frontier_peak", stats.frontier_peak as u64);
    run_span.arg("arena_bytes", stats.arena_bytes as u64);
    run_span.arg("frontier_bytes", stats.frontier_bytes as u64);
    run_span.arg("mem_peak_bytes", stats.mem_peak_bytes as u64);
    run_span.arg("spilled_bytes", stats.spilled_bytes);
    run_span.arg("expand_ns", out.stats.expand_ns);
    run_span.arg("exchange_ns", out.stats.exchange_ns);
    run_span.arg("merge_ns", out.stats.merge_ns);
    run_span.arg("maintain_ns", out.stats.maintain_ns);
    run_span.arg(
        "outcome",
        match &outcome {
            McOutcome::Verified => "verified",
            McOutcome::Violation(_) => "violation",
            McOutcome::Stuck => "stuck",
            McOutcome::BudgetExceeded => "budget_exceeded",
        },
    );
    (outcome, stats)
}

/// Translate engine statistics into the model-checker report.
fn mc_stats(
    es: &EngineStats,
    symmetry: bool,
    witness: Option<State>,
    elapsed: Duration,
) -> McStats {
    McStats {
        states: es.states,
        orbit_states: es.orbit_states.min(u64::MAX as u128) as u64,
        transitions: es.transitions,
        dedup_hits: es.dedup_hits,
        frontier_peak: es.frontier_peak.max(1),
        depth: es.levels.saturating_sub(1),
        levels: es.levels,
        threads: es.threads,
        shards: es.shards,
        symmetry,
        arena_bytes: es.arena_bytes,
        frontier_bytes: es.frontier_bytes,
        mem_budget: es.mem_budget,
        mem_peak_bytes: es.mem_peak_bytes,
        spilled_bytes: es.spilled_bytes,
        witness,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_model_verifies() {
        let m = Model {
            nodes: 2,
            quota: 1,
            resp_depth: 2,
        };
        let (out, stats) = explore(&m, 1_000_000);
        assert_eq!(out, McOutcome::Verified, "{stats:?}");
        assert!(stats.states > 10);
        assert!(stats.transitions >= stats.states as u64 - 1);
        assert!(stats.depth > 2);
        assert!(stats.witness.is_none());
        assert_eq!(stats.orbit_states, stats.states as u64);
        assert_eq!(stats.arena_bytes, stats.states * 16);
        assert_eq!(stats.frontier_bytes, stats.frontier_peak * 16);
        assert_eq!(stats.spilled_bytes, 0, "no spilling without a budget");
    }

    #[test]
    fn two_node_two_op_model_verifies() {
        let m = Model {
            nodes: 2,
            quota: 2,
            resp_depth: 2,
        };
        let (out, stats) = explore(&m, 5_000_000);
        assert_eq!(out, McOutcome::Verified, "{stats:?}");
    }

    #[test]
    fn state_count_explodes_with_nodes() {
        // The paper's point: explicit-state exploration grows violently
        // with the number of nodes, while the SQL static checks operate
        // on fixed-size tables.
        let count = |nodes| {
            let m = Model {
                nodes,
                quota: 1,
                resp_depth: 2,
            };
            explore(&m, 10_000_000).1.states
        };
        let s2 = count(2);
        let s3 = count(3);
        let s4 = count(4);
        assert!(s3 > 4 * s2, "2→3 nodes: {s2} → {s3}");
        assert!(s4 > 4 * s3, "3→4 nodes: {s3} → {s4}");
    }

    #[test]
    fn symmetry_reduces_states_but_agrees_on_the_verdict() {
        let m = Model {
            nodes: 3,
            quota: 1,
            resp_depth: 2,
        };
        let (full_out, full) = explore(&m, 10_000_000);
        let (sym_out, sym) = explore_with(
            &m,
            m.initial(),
            &McOpts {
                budget: 10_000_000,
                symmetry: true,
                ..McOpts::default()
            },
        );
        assert_eq!(full_out, sym_out);
        assert!(
            sym.states < full.states,
            "{} !< {}",
            sym.states,
            full.states
        );
        // The quotient represents the full space *exactly*.
        assert_eq!(sym.orbit_states, full.states as u64);
        assert!(sym.symmetry);
        assert!(!full.symmetry);
    }

    #[test]
    fn budget_exhaustion_is_exact() {
        let m = Model {
            nodes: 3,
            quota: 2,
            resp_depth: 2,
        };
        let (out, stats) = explore(&m, 50);
        assert_eq!(out, McOutcome::BudgetExceeded);
        assert_eq!(stats.states, 50, "the budget rule is exact");
    }

    #[test]
    fn seeded_bug_is_found() {
        // Break the model: make it grant exclusive data while sharers
        // survive, by exploring from a corrupt initial state.
        let m = Model {
            nodes: 2,
            quota: 1,
            resp_depth: 2,
        };
        let mut init = m.initial();
        init.cache[0] = crate::state::Cache::M;
        init.cache[1] = crate::state::Cache::S;
        let (out, stats) = explore_from(&m, init, 1_000, 1);
        assert_eq!(
            out,
            McOutcome::Violation("single-writer: M/E coexists with S")
        );
        assert_eq!(stats.witness, Some(init));
    }

    #[test]
    fn forced_spill_agrees_with_resident_runs() {
        // An artificially tiny budget forces spilling even at 2 nodes;
        // every deterministic field must match the resident run.
        let m = Model {
            nodes: 2,
            quota: 2,
            resp_depth: 2,
        };
        let base = explore_with(&m, m.initial(), &McOpts::default());
        let spilled = explore_with(
            &m,
            m.initial(),
            &McOpts {
                mem_budget: 4 * 1024,
                shards: 4,
                ..McOpts::default()
            },
        );
        assert_eq!(base.0, spilled.0);
        assert_eq!(base.1.states, spilled.1.states);
        assert_eq!(base.1.transitions, spilled.1.transitions);
        assert_eq!(base.1.dedup_hits, spilled.1.dedup_hits);
        assert_eq!(base.1.depth, spilled.1.depth);
        assert_eq!(base.1.frontier_peak, spilled.1.frontier_peak);
        assert!(spilled.1.spilled_bytes > 0, "tiny budget must spill");
        assert_eq!(base.1.spilled_bytes, 0);
    }

    #[test]
    fn thread_counts_agree_in_module() {
        // Quick in-crate equivalence check; the full matrix lives in
        // tests/parallel.rs (and tests/symmetry.rs for the quotient,
        // tests/out_of_core.rs for the shards × mem-budget matrix).
        let m = Model {
            nodes: 3,
            quota: 1,
            resp_depth: 2,
        };
        let (o1, s1) = explore_threads(&m, 1_000_000, 1);
        let (o4, s4) = explore_threads(&m, 1_000_000, 4);
        assert_eq!(o1, o4);
        assert_eq!(s1.states, s4.states);
        assert_eq!(s1.transitions, s4.transitions);
        assert_eq!(s1.dedup_hits, s4.dedup_hits);
        assert_eq!(s1.depth, s4.depth);
        assert_eq!(s1.frontier_peak, s4.frontier_peak);
        assert_eq!(s1.orbit_states, s4.orbit_states);
    }
}
