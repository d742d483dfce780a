//! One spec pack through the zoo's five stages, and the steps the spec
//! commands share.
//!
//! [`run`] takes a pack through lint, the compiled solve diffed against
//! the interpreted oracle, flows on the compiled table, the spec model
//! check and a seeded walk, and returns one typed [`Verdict`] per stage
//! with its detail text; `ccsql zoo` renders them. `lint`, `solve`,
//! `flows`, `mc --spec` and `sim --spec` go through the same steps:
//! `open` reads and parses a pack, `lint` and `solve` lint it and solve
//! it once, and `machine` builds its transaction machine, whose agent
//! ceiling `fit` checks.

use ccsql::vc::VcAssignment;
use ccsql_lint::{LintReport, Severity};
use ccsql_mc::{SpecMachine, SpecMcOpts, SpecVerdict};
use ccsql_relalg::specfile::{check_specfile, parse_specfile, solve_specfile_with};
use ccsql_relalg::{expr::SetContext, report, Relation, SpecFile};
use std::path::Path;

/// A solved table and the static checks that failed on it, each with
/// its witnesses.
pub(crate) type Solved = (Relation, Vec<(String, Relation)>);

/// One stage's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The stage had nothing to run on: no clean table, or no machine.
    Skip,
}

impl Verdict {
    fn of(pass: bool) -> Verdict {
        if pass {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    /// `pass`, `fail` or `skip`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Skip => "skip",
        }
    }
}

/// What one stage of [`run`] found.
#[derive(Clone, Debug)]
pub struct Stage {
    /// `lint`, `solve`, `flows`, `specmc` or `specsim`.
    pub name: &'static str,
    pub verdict: Verdict,
    pub detail: String,
}

/// What [`run`] runs a pack with.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The channel assignment of the flows stage.
    pub vc: VcAssignment,
    /// The agents, state budget, shards and memory budget of the model
    /// check and the agents of the walk; the stage sets threads and
    /// symmetry itself.
    pub mc: SpecMcOpts,
    /// Steps of each seeded walk.
    pub sim_steps: usize,
}

impl Settings {
    /// The zoo's two tiers under V1. The quick one is the verify.sh
    /// gate; the full one covers deeper interleavings (3 agents reach
    /// the occupied-reservation rows of the phase-priority pack).
    pub fn tier(quick: bool) -> Settings {
        Settings {
            vc: VcAssignment::v1(),
            mc: SpecMcOpts {
                agents: if quick { 2 } else { 3 },
                ..SpecMcOpts::default()
            },
            sim_steps: if quick { 2_000 } else { 10_000 },
        }
    }
}

/// Read and parse the spec file at `path`; every error names the path.
pub(crate) fn open(path: impl AsRef<Path>) -> Result<SpecFile, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_specfile(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Lint spec files under the context `solve` solves them in (no named
/// sets), so the lint's one solve of each table is the table [`solve`]
/// computes. Returns the report and each file's solved table, input
/// columns first (`None` where the solver rejects it).
pub(crate) fn lint(files: &[&SpecFile]) -> (LintReport, Vec<Option<Relation>>) {
    ccsql_lint::lint_specfiles_with(files, &SetContext::new(), &VcAssignment::v1())
}

/// Solve a spec file and run its checks. On the compiled path `linted`,
/// the lint's table of the spec, is the one the solve computes when its
/// columns come in the declared order: the lint solves a spec that
/// declares an output before an input inputs-first.
pub(crate) fn solve(
    sf: &SpecFile,
    linted: Option<Relation>,
    compile: bool,
) -> ccsql_relalg::Result<Solved> {
    match linted {
        Some(rel) if compile && rel.schema().columns() == sf.spec.column_names() => {
            check_specfile(sf, &rel).map(|failures| (rel, failures))
        }
        _ => solve_specfile_with(sf, compile),
    }
}

/// Build the transaction machine of `sf` from its solved table. A table
/// that fails a static check builds none.
pub(crate) fn machine(sf: &SpecFile, (rel, failures): &Solved) -> Result<SpecMachine, String> {
    if !failures.is_empty() {
        return Err(format!(
            "{} static check(s) failed — fix the table before running the machine",
            failures.len()
        ));
    }
    SpecMachine::build(sf, rel)
}

/// Open the pack at `path`, solve it compiled and build its machine:
/// the front half of `mc --spec` and `sim --spec`.
pub(crate) fn open_machine(path: &str) -> Result<SpecMachine, String> {
    let sf = open(path)?;
    let solved = solve(&sf, None, true).map_err(|e| format!("{path}: {e}"))?;
    machine(&sf, &solved).map_err(|e| format!("{path}: {e}"))
}

/// The agent ceiling of `mc --spec` and the zoo's model check: a state
/// of `m` must fit the engine word with one lane per agent, which
/// [`SpecMachine::explore`] asserts. More agents is an error naming the
/// pack and the limit, which each caller prefixes with where its agent
/// count came from.
pub(crate) fn fit(m: &SpecMachine, agents: usize, path: impl AsRef<Path>) -> Result<(), String> {
    if agents > m.max_agents() {
        return Err(format!(
            "{}: a {} state holds at most {} agent(s)",
            path.as_ref().display(),
            m.table,
            m.max_agents()
        ));
    }
    Ok(())
}

/// Run the pack at `path` through the zoo's five stages. Only a pack
/// that cannot be read or parsed is an error; every other problem is a
/// stage's `Fail`. A clean pack whose declared machine does not build
/// fails both machine stages, and one with no clean table or no
/// `machine` directives skips them.
pub fn run(path: impl AsRef<Path>, settings: &Settings) -> Result<Vec<Stage>, String> {
    let path = path.as_ref();
    let sf = open(path)?;
    let mut stages = Vec::with_capacity(5);
    let mut push = |name, verdict, detail| {
        stages.push(Stage {
            name,
            verdict,
            detail,
        })
    };

    // Lint: boundary hygiene, coverage, nondeterminism, …
    let (lints, tables) = lint(&[&sf]);
    let (errors, warns) = (lints.count(Severity::Error), lints.count(Severity::Warn));
    let detail = format!("{errors} error(s), {warns} warning(s)");
    push("lint", Verdict::of(!lints.failed()), detail);

    // Solve, compiled and interpreted, diffed byte for byte. The
    // compiled side is the lint's table where it can be.
    let compiled = solve(&sf, tables.into_iter().next().flatten(), true);
    let mut clean = None;
    match (&compiled, solve(&sf, None, false)) {
        (Ok(c), Ok((ri, fi))) => {
            let identical = report::ascii_table(&c.0.sorted()) == report::ascii_table(&ri.sorted());
            let pass = identical && c.1.is_empty() && fi.is_empty();
            push(
                "solve",
                Verdict::of(pass),
                format!(
                    "{} row(s), compiled==interpreted: {identical}, failed check(s): {}",
                    c.0.len(),
                    c.1.len()
                ),
            );
            clean = Some(c).filter(|_| pass);
        }
        (c, i) => {
            let err = c.as_ref().err().or(i.as_ref().err()).map(|e| e.to_string());
            let detail = format!("solve failed: {}", err.unwrap_or_default());
            push("solve", Verdict::Fail, detail);
        }
    }

    // Flows: the deadlock analysis of the compiled table.
    let flows = match &compiled {
        Ok((rel, _)) => ccsql_lint::flows::FlowUniverse::from_specfile(&sf, rel, &settings.vc)
            .map(ccsql_lint::flows::analyze),
        Err(e) => Err(format!("cannot solve spec `{}`: {e}", sf.spec.name)),
    };
    match flows {
        Ok(a) => {
            let free = a.deadlock_free_all_n();
            let detail = format!("deadlock-free for every N: {free}");
            push("flows", Verdict::of(free), detail);
        }
        Err(e) => push("flows", Verdict::Fail, format!("flow analysis failed: {e}")),
    }

    // The machine stages need a clean table and the pack's machine.
    let declared = clean.is_some() && !sf.meta.machines.is_empty();
    let built = match clean {
        Some(solved) => machine(&sf, solved),
        None => Err("no clean solved table".to_string()),
    };
    let m = match built {
        Ok(m) => m,
        Err(e) => {
            let (verdict, detail) = if declared {
                (Verdict::Fail, format!("machine does not build: {e}"))
            } else {
                (Verdict::Skip, format!("skipped: {e}"))
            };
            push("specmc", verdict, detail.clone());
            push("specsim", verdict, detail);
            return Ok(stages);
        }
    };
    let agents = settings.mc.agents;
    let (pass, detail) = match fit(&m, agents, path) {
        Ok(()) => specmc(&m, &settings.mc),
        Err(e) => (false, format!("{agents} agent(s) is too many for {e}")),
    };
    push("specmc", Verdict::of(pass), detail);
    // The seeded walk, run twice: it must be deterministic, never get
    // stuck, and complete at least one transaction.
    let walk = m.simulate(agents, 5, settings.sim_steps);
    let deterministic = walk.render(5) == m.simulate(agents, 5, settings.sim_steps).render(5);
    push(
        "specsim",
        Verdict::of(walk.stuck.is_none() && deterministic && walk.completions > 0),
        format!("{}, deterministic: {deterministic}", walk.render(5)),
    );
    Ok(stages)
}

/// The model-check stage: one thread without symmetry, then symmetry at
/// 1 and 2 threads. The verdicts must agree, the orbit sizes must sum
/// back to the full state count, and the two symmetric runs must render
/// byte-identically. Returns whether it passed, and its detail.
fn specmc(m: &SpecMachine, opts: &SpecMcOpts) -> (bool, String) {
    let at = |threads, symmetry| SpecMcOpts {
        threads,
        symmetry,
        ..opts.clone()
    };
    let full = m.explore(&at(1, false));
    let sym_opts = at(1, true);
    let sym = m.explore(&sym_opts);
    let threaded = m.explore(&at(2, true));
    let identity = full.verdict == sym.verdict
        && sym.stats.orbit_states == full.stats.states as u128
        && sym.render_json(&m.table, &sym_opts) == threaded.render_json(&m.table, &sym_opts);
    (
        full.verdict == SpecVerdict::Verified && identity,
        format!(
            "verdict {}, {} state(s) ({} orbit reps), rows {}/{}, sym/thread identity: {identity}",
            full.verdict.as_str(),
            full.stats.states,
            sym.stats.states,
            full.stats.rows_covered,
            full.stats.rows_total,
        ),
    )
}
