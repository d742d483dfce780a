//! The `ccsql` command line — the paper's "push-button manner" as a
//! tool: generate the controller tables from constraints, check them,
//! analyse deadlocks, map to hardware, simulate, and query the central
//! database ad hoc.
//!
//! The commands and their flags are listed in [`USAGE`], and each
//! command accepts exactly the flags it reads (`COMMANDS`; a test keeps
//! the two in step).
//!
//! Observability is one recorder, the `ccsql-obs` flight recorder: every
//! stage opens spans and attaches its counters to them as span args.
//! The global `--trace-out FILE.json` flag (accepted anywhere on the
//! command line) records the span tree across the whole pipeline and
//! writes it as Chrome trace-event JSON (loadable in
//! `ui.perfetto.dev`); `ccsql stats` folds the same recording into a
//! per-stage table and one line per call into a stage.
//! `--heartbeat[=MS]` prints the span that closed most recently, with
//! its counters, as a live progress line on stderr — provably without
//! changing any result byte (see `ccsql_obs::heartbeat`).
//!
//! The library entry point [`run`] returns the rendered output, so the
//! whole surface is unit-testable. The spec commands share the steps
//! of [`pack`], which also runs one pack through the zoo's stages.

pub mod pack;

use ccsql::depend::{dependency_table, protocol_dependency_table, AnalysisConfig};
use ccsql::gen::GeneratedProtocol;
use ccsql::hwmap::{HwMapping, IMPL_INPUTS};
use ccsql::liveness::BusyGraph;
use ccsql::report::deadlock_report;
use ccsql::vc::VcAssignment;
use ccsql::{codegen, invariants};
use ccsql_mc::{explore_with, McOpts, McOutcome, Model, SpecMcOpts, SpecVerdict};
use ccsql_protocol::states;
use ccsql_protocol::topology::NodeId;
use ccsql_relalg::report;
use ccsql_sim::{
    FaultPlan, FaultRates, Fig4, Mix, Outcome, Schedule, Sim, SimConfig, Workload, PATTERNS,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Top-level usage text.
pub const USAGE: &str = "\
ccsql — table-driven cache coherence design & early error detection (IPPS 2003)

USAGE:
    ccsql [--trace-out FILE.json] [--heartbeat[=MS]] <command> ...

    ccsql gen      [--table NAME] [--format ascii|csv|md]
    ccsql check    [--liveness]
    ccsql deadlock [--assignment v0|v1|v2] [--exact-only] [--closure] [--json]
                   [--no-flows]
    ccsql flows    FILE.ccsql | --protocol  [--assignment v0|v1|v2] [--json] [--dot]
    ccsql map      [--emit verilog|rust] [--table NAME]
    ccsql sim      [--seed N] [--quads N] [--nodes N] [--ops N] [--shared-vc4]
                   [--chaos] [--fault-seed N] [--faults drop=R,dup=R,delay=R,reorder=R]
                   [--coverage-report] [--spec FILE.ccsql]
    ccsql fuzz     [--rounds N] [--seed N] [--out FILE.jsonl] [--quick]
    ccsql mc       [--nodes N] [--quota N] [--resp-depth N] [--budget N] [--threads N]
                   [--no-symmetry] [--shards N] [--mem-budget BYTES] [--spill-dir DIR]
                   [--spec FILE.ccsql [--json]]
    ccsql fig4     [--fixed]
    ccsql query    \"SELECT ... FROM D ...\"
    ccsql lint     [--json] [--protocol] [--assignment v0|v1|v2] FILE.ccsql ...
    ccsql solve    FILE.ccsql [--format ascii|csv|md] [--no-lint] [--no-compile]
    ccsql walk     [--request MSG --dirst ST --sharers N]
    ccsql stats    [<command> ...]
    ccsql zoo      [DIR] [--quick] [--assignment v0|v1|v2] [--shards N]
                   [--mem-budget BYTES] [--spill-dir DIR]

ZOO:
    zoo runs every spec pack under DIR (default: specs) through the
    whole pipeline — lint, compiled-vs-interpreted solve, flows/VCG,
    spec-machine model checking (symmetry x threads identity) and a
    seeded spec simulation — and prints a per-(protocol, stage) JSONL
    verdict table. Packs named *_buggy / *_flowbug are seeded-bug
    fixtures: zoo fails unless at least one stage rejects them; every
    other pack must pass every stage. Output is deterministic
    byte-for-byte across runs and thread counts.

GLOBAL FLAGS (accepted anywhere):
    --trace-out FILE.json  record pipeline spans, with every stage's counters as
                           span args, and write a Chrome/Perfetto trace
    --heartbeat[=MS]       every MS ms (default 1000; 0 = off), print the span that
                           closed last, with its counters, on stderr; never changes
                           any result byte

STATS:
    stats runs a command (default: gen, deadlock v1, sim and mc) with the
    flight recorder on, then appends the per-stage span table and one
    `stage/name ms=... key=value ...` line per span that enters a stage,
    carrying its wall time and that stage's counters.

THREADS:
    --threads N  worker threads for the model checker's parallel BFS (mc);
                 default: available parallelism (1 with --spec). Results are
                 byte-identical for every thread count.

SYMMETRY:
    mc explores the node-permutation quotient by default (one canonical
    representative per orbit; up to nodes! fewer states, same verdict).
    --no-symmetry explores the full space instead.

OUT-OF-CORE:
    --shards N          hash-partition states into N shard-owned stores
                        (default 64); results are identical for every N.
    --mem-budget BYTES  spill cold state segments and completed frontier
                        levels to temp files once resident bytes exceed
                        the budget (suffixes K/M/G accepted; 0 = fully
                        resident). Verdict, counts and witness are
                        byte-identical with and without spilling.
    --spill-dir DIR     where spill files live (default: system temp);
                        they are removed on exit, even on panic.
";

/// A command and the flags it reads, declared once.
struct Command {
    name: &'static str,
    /// Flags that take a value: read through [`Opts::value`],
    /// [`Opts::num`] and [`Opts::bytes`]; [`positional`] skips their
    /// value slots.
    values: &'static [&'static str],
    /// Flags that take no value: read through [`Opts::flag`].
    flags: &'static [&'static str],
}

const fn cmd(
    name: &'static str,
    values: &'static [&'static str],
    flags: &'static [&'static str],
) -> Command {
    Command {
        name,
        values,
        flags,
    }
}

/// Every command with exactly the flags it reads. `stats` passes its
/// arguments on to the command it runs, so it declares none.
const COMMANDS: &[Command] = &[
    cmd("gen", &["--table", "--format"], &[]),
    cmd("check", &[], &["--liveness"]),
    cmd(
        "deadlock",
        &["--assignment"],
        &["--exact-only", "--closure", "--json", "--no-flows"],
    ),
    cmd(
        "flows",
        &["--assignment"],
        &["--protocol", "--json", "--dot"],
    ),
    cmd("map", &["--emit", "--table"], &[]),
    cmd(
        "sim",
        &[
            "--seed",
            "--quads",
            "--nodes",
            "--ops",
            "--fault-seed",
            "--faults",
            "--spec",
        ],
        &["--shared-vc4", "--chaos", "--coverage-report"],
    ),
    cmd("fuzz", &["--rounds", "--seed", "--out"], &["--quick"]),
    cmd(
        "mc",
        &[
            "--nodes",
            "--quota",
            "--resp-depth",
            "--budget",
            "--threads",
            "--shards",
            "--mem-budget",
            "--spill-dir",
            "--spec",
        ],
        &["--no-symmetry", "--json"],
    ),
    cmd("fig4", &[], &["--fixed"]),
    cmd("query", &[], &[]),
    cmd("lint", &["--assignment"], &["--json", "--protocol"]),
    cmd("solve", &["--format"], &["--no-lint", "--no-compile"]),
    cmd("walk", &["--request", "--dirst", "--sharers"], &[]),
    cmd("stats", &[], &[]),
    cmd(
        "zoo",
        &["--assignment", "--shards", "--mem-budget", "--spill-dir"],
        &["--quick"],
    ),
    cmd("help", &[], &[]),
];

/// Parsed `--flag value` options of one command.
struct Opts<'a> {
    cmd: &'static Command,
    args: &'a [String],
}

impl<'a> Opts<'a> {
    /// The options of command `name`. An unknown command, a flag the
    /// command does not read, and a value flag that comes last or is
    /// followed by another `--flag` are errors naming the culprit, never
    /// a silent default.
    fn new(name: &str, args: &'a [String]) -> Result<Opts<'a>, String> {
        let cmd = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("unknown command {name:?}\n\n{USAGE}"))?;
        for (i, a) in args.iter().enumerate() {
            if cmd.values.contains(&a.as_str()) {
                if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                    return Err(format!("{a} expects a value"));
                }
            } else if a.starts_with("--") && !cmd.flags.contains(&a.as_str()) {
                return Err(format!("unknown flag {a}"));
            }
        }
        Ok(Opts { cmd, args })
    }

    fn flag(&self, name: &str) -> bool {
        debug_assert!(
            self.cmd.flags.contains(&name),
            "{} reads {name} as a flag but does not declare it in COMMANDS",
            self.cmd.name
        );
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        debug_assert!(
            self.cmd.values.contains(&name),
            "{} reads {name} as a value but does not declare it in COMMANDS",
            self.cmd.name
        );
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Parse an integer flag straight into the caller's type, so a value
    /// the type cannot hold is an error naming the flag, never a
    /// wrapped-around cast.
    fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        v.parse()
            .map_err(|e: std::num::ParseIntError| match e.kind() {
                std::num::IntErrorKind::PosOverflow => format!(
                    "{name} expects a number that fits in {}, got {v:?}",
                    std::any::type_name::<T>()
                ),
                _ => format!("{name} expects a number, got {v:?}"),
            })
    }

    /// [`Opts::num`] for a count that must be at least 1: zero threads,
    /// shards or states is an error naming the flag, never a silent
    /// clamp to one or a budget no state fits.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            0 => Err(format!("{name} expects a number of at least 1, got 0")),
            n => Ok(n),
        }
    }

    /// Parse a byte-size flag with an optional K/M/G suffix
    /// (`--mem-budget 64M`).
    fn bytes(&self, name: &str, default: usize) -> Result<usize, String> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        let (digits, mult) = match v.char_indices().next_back() {
            Some((i, 'k' | 'K')) => (&v[..i], 1usize << 10),
            Some((i, 'm' | 'M')) => (&v[..i], 1 << 20),
            Some((i, 'g' | 'G')) => (&v[..i], 1 << 30),
            _ => (v, 1),
        };
        digits
            .parse::<usize>()
            .map(|n| n * mult)
            .map_err(|_| format!("{name} expects bytes with an optional K/M/G suffix, got {v:?}"))
    }
}

/// Run the CLI on `args` (without the program name); returns the
/// rendered output or an error message.
///
/// Global observability flags (`--trace-out FILE.json`,
/// `--heartbeat[=MS]`) are stripped before the command dispatch; each
/// switches the flight recorder on. `--trace-out` writes the recorder's
/// span tree as Chrome trace-event JSON after the dispatch — on the
/// error path too, so a failing check still leaves its trace behind.
/// `--heartbeat` runs the one heartbeat ticker for the whole dispatch.
pub fn run(args: &[String]) -> Result<String, String> {
    let (rest, trace_out, heartbeat_ms) = strip_obs_flags(args)?;
    let ticker = ccsql_obs::heartbeat::Ticker::start(heartbeat_ms, ccsql_obs::flight::global());
    let result = dispatch(&rest);
    drop(ticker);
    let mut trace_note = String::new();
    if let Some(path) = &trace_out {
        let spans = ccsql_obs::flight::snapshot();
        let json = ccsql_obs::flight::chrome_trace_json(&spans);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        trace_note = format!("trace: {} span(s) -> {path}\n", spans.len());
    }
    result.map(|mut out| {
        out.push_str(&trace_note);
        out
    })
}

/// Strip the global observability flags and switch the flight recorder
/// on when one asks for it; returns the remaining arguments, the
/// `--trace-out` path and the heartbeat interval (0 = off).
fn strip_obs_flags(args: &[String]) -> Result<(Vec<String>, Option<String>, u64), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut trace_out = None;
    let mut heartbeat_ms = 0;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--metrics") || a == "--trace" || a.starts_with("--trace=") {
            // A removed flag names its replacement, which the generic
            // unknown-flag error could not.
            return Err(format!(
                "{a}: the metrics file and the event trace were removed; \
                 use --trace-out FILE.json (span args carry every counter) \
                 or `ccsql stats <command>`"
            ));
        } else if a == "--trace-out" {
            i += 1;
            match args.get(i) {
                Some(path) if !path.starts_with("--") => trace_out = Some(path.clone()),
                _ => return Err("--trace-out expects a file path".into()),
            }
        } else if let Some(path) = a.strip_prefix("--trace-out=") {
            if path.is_empty() {
                return Err("--trace-out expects a file path".into());
            }
            trace_out = Some(path.to_string());
        } else if a == "--heartbeat" {
            heartbeat_ms = ccsql_obs::heartbeat::DEFAULT_HEARTBEAT_MS;
        } else if let Some(n) = a.strip_prefix("--heartbeat=") {
            heartbeat_ms = n
                .parse()
                .map_err(|_| format!("--heartbeat expects milliseconds, got {n:?}"))?;
        } else {
            rest.push(a.clone());
        }
        i += 1;
    }
    if trace_out.is_some() || heartbeat_ms > 0 {
        ccsql_obs::flight::set_enabled(true);
    }
    Ok((rest, trace_out, heartbeat_ms))
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let Some(name) = args.first() else {
        return Err(USAGE.to_string());
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    // `stats` runs a command line of its own: that command checks it.
    if name == "stats" {
        return cmd_stats(&args[1..]);
    }
    let opts = Opts::new(name, &args[1..])?;
    match name {
        "gen" => cmd_gen(&opts, &generate()?),
        "check" => cmd_check(&opts),
        "deadlock" => cmd_deadlock(&opts, &generate()?),
        "flows" => cmd_flows(&opts),
        "map" => cmd_map(&opts),
        "sim" => match opts.value("--spec") {
            Some(path) => cmd_spec_sim(&opts, path),
            None => cmd_sim(&opts, &generate()?),
        },
        "fuzz" => cmd_fuzz(&opts),
        "mc" => cmd_mc(&opts),
        "fig4" => cmd_fig4(&opts),
        "query" => cmd_query(&opts),
        "lint" => cmd_lint(&opts),
        "solve" => cmd_solve(&opts),
        "walk" => cmd_walk(&opts),
        "zoo" => cmd_zoo(&opts),
        // `help`, the one other command `COMMANDS` declares.
        _ => Ok(USAGE.to_string()),
    }
}

/// Solve the eight ASURA tables. `gen`, `deadlock` and `sim` take the
/// result from their caller, so `stats` solves once for its whole
/// default pipeline.
fn generate() -> Result<GeneratedProtocol, String> {
    GeneratedProtocol::generate_default().map_err(|e| format!("generation failed: {e}"))
}

fn cmd_gen(opts: &Opts, gen: &GeneratedProtocol) -> Result<String, String> {
    let mut out = String::new();
    match opts.value("--table") {
        Some(name) => {
            let rel = gen.table(name).map_err(|e| e.to_string())?;
            match opts.value("--format").unwrap_or("ascii") {
                "csv" => out.push_str(&report::csv(&rel.sorted())),
                "md" => out.push_str(&report::markdown_table(&rel.sorted())),
                "ascii" => out.push_str(&report::ascii_table(&rel.sorted())),
                f => return Err(format!("unknown format {f:?}")),
            }
        }
        None => {
            for c in &gen.spec.controllers {
                let t = gen.table(c.name).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "{:<4} {:>5} rows x {:>2} columns",
                    c.name,
                    t.len(),
                    t.arity()
                )
                .unwrap();
            }
        }
    }
    Ok(out)
}

fn cmd_check(opts: &Opts) -> Result<String, String> {
    let mut gen = generate()?;
    let results = invariants::check_all(&mut gen.db).map_err(|e| e.to_string())?;
    let failed = invariants::failures(&results);
    let mut out = String::new();
    writeln!(
        out,
        "{} invariants checked: {} violated",
        results.len(),
        failed.len()
    )
    .unwrap();
    for r in &results {
        if !r.holds() {
            writeln!(out, "VIOLATED {} — witnesses:", r.name).unwrap();
            out.push_str(&report::ascii_table(&r.witnesses));
        }
    }
    if opts.flag("--liveness") {
        let graph = BusyGraph::build(
            gen.table("D").map_err(|e| e.to_string())?,
            &states::busy_states(),
        )
        .map_err(|e| e.to_string())?;
        out.push_str(&graph.render());
        if !graph.ok() {
            return Err(out);
        }
    }
    if failed.is_empty() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn parse_assignment(opts: &Opts) -> Result<VcAssignment, String> {
    match opts.value("--assignment").unwrap_or("v1") {
        "v0" | "V0" => Ok(VcAssignment::v0()),
        "v1" | "V1" => Ok(VcAssignment::v1()),
        "v2" | "V2" => Ok(VcAssignment::v2()),
        other => Err(format!("unknown assignment {other:?} (v0|v1|v2)")),
    }
}

fn cmd_deadlock(opts: &Opts, gen: &GeneratedProtocol) -> Result<String, String> {
    let v = parse_assignment(opts)?;
    let mut cfg = if opts.flag("--exact-only") {
        AnalysisConfig::exact_only()
    } else {
        AnalysisConfig::default()
    };
    cfg.transitive_closure = opts.flag("--closure");
    // Parameterized flow pre-pass (skip with --no-flows): the symbolic
    // verdict is printed first and cross-checked against the concrete
    // one — a disagreement is a tool bug worth failing loudly on. Its
    // resolved flow rows also build the dependency table.
    let flows = if opts.flag("--no-flows") {
        None
    } else {
        Some(ccsql_lint::flows::analyze_protocol(gen, &v)?)
    };
    let deps = match &flows {
        Some(f) => dependency_table(&f.universe.rows, &cfg),
        None => protocol_dependency_table(gen, &v, &cfg).map_err(|e| e.to_string())?,
    };
    let rep = deadlock_report(gen, v.name, &deps);
    if let Some(f) = &flows {
        if f.deadlock_free_all_n() != rep.cycles.is_empty() {
            return Err(format!(
                "flow analysis disagrees with the concrete VCG: parameterized \
                 deadlock-free={} but {} concrete cycle(s); {} row(s) without \
                 flow cover may explain the gap (rerun `ccsql flows --protocol \
                 --assignment {}` for details)",
                f.deadlock_free_all_n(),
                rep.cycles.len(),
                f.uncovered.len(),
                v.name,
            ));
        }
    }
    if opts.flag("--json") {
        let mut json = rep.render_json(&deps);
        if let Some(f) = &flows {
            // Graft the flows object into the deadlock object so the
            // output stays one canonical JSON value.
            let flows_json = f.render_json();
            json.truncate(json.trim_end().len() - 1); // drop "}\n"
            json.push_str(",\"flows\":");
            json.push_str(flows_json.trim_end());
            json.push_str("}\n");
        }
        return if rep.cycles.is_empty() {
            Ok(json)
        } else {
            Err(json)
        };
    }
    let mut rendered = String::new();
    if let Some(f) = &flows {
        let verdict = if f.deadlock_free_all_n() {
            "deadlock-free for every node count".to_string()
        } else {
            let n = f
                .cycles
                .iter()
                .filter(|c| c.corroborated)
                .map(|c| c.cycle.min_nodes)
                .min()
                .unwrap_or(2);
            format!("parameterized wait-cycle closes at every N>={n}")
        };
        writeln!(
            rendered,
            "flow pre-pass: {} flow(s), {} uncovered row(s); {verdict}",
            f.extraction.flows.len(),
            f.uncovered.len(),
        )
        .unwrap();
    }
    rendered.push_str(&rep.render());
    if rep.cycles.is_empty() {
        Ok(rendered)
    } else {
        // Cycles found: report on stderr-style error path so scripts can
        // gate on the exit code, but still carry the full narrative.
        Err(rendered)
    }
}

/// `ccsql flows` — parameterized deadlock-freedom via message-flow
/// composition (Sethi/Talupur/Malik style): extract per-transaction
/// flows from the solved tables, build the flow waits-for graph, and
/// decide wait-cycle freedom symbolically in the node count.
fn cmd_flows(opts: &Opts) -> Result<String, String> {
    let v = parse_assignment(opts)?;
    let analysis = if opts.flag("--protocol") {
        let gen = generate()?;
        ccsql_lint::flows::analyze_protocol(&gen, &v)?
    } else {
        let path = positional(opts)
            .first()
            .copied()
            .ok_or_else(|| "flows expects a .ccsql spec file (or --protocol)".to_string())?;
        ccsql_lint::flows::analyze_specfile(&pack::open(path)?, &v)?
    };
    let mut report = ccsql_lint::LintReport::new();
    analysis.lint(&mut report);
    report.finish();
    let out = if opts.flag("--json") {
        analysis.render_json()
    } else if opts.flag("--dot") {
        analysis.render_dot()
    } else {
        let mut s = analysis.render_human();
        if !report.diagnostics().is_empty() {
            s.push_str(&report.render_human());
        }
        s
    };
    // Exit status reflects the deadlock verdict (CCL031). Coverage
    // warnings (CCL030) and unrealisable cycles (CCL032) are advisory
    // here — `ccsql lint` remains the boundary-hygiene gate.
    if analysis.deadlock_free_all_n() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_map(opts: &Opts) -> Result<String, String> {
    let gen = generate()?;
    let mapping = HwMapping::build(&gen).map_err(|e| e.to_string())?;
    let check = mapping
        .check(gen.table("D").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(
        out,
        "ED: {} rows x {} cols; 9 implementation tables; reconstruction={} preservation={}",
        mapping.ed.len(),
        mapping.ed.arity(),
        check.ed_reconstructed,
        check.d_preserved
    )
    .unwrap();
    if let Some(emit) = opts.value("--emit") {
        let table = opts.value("--table").unwrap_or("Request_locmsg");
        let rel = mapping
            .impl_tables
            .iter()
            .find(|(n, _)| n == table)
            .map(|(_, r)| r)
            .ok_or_else(|| format!("no implementation table {table:?}"))?;
        let n_inputs = IMPL_INPUTS.len() + 11;
        match emit {
            "verilog" => out.push_str(&codegen::verilog_case(table, rel, n_inputs)),
            "rust" => out.push_str(&codegen::rust_match(table, rel, n_inputs)),
            other => return Err(format!("unknown emitter {other:?} (verilog|rust)")),
        }
    }
    if check.ok() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Parse `--faults drop=0.05,dup=0.01,delay=0.02,reorder=0.01` (any
/// subset; unnamed kinds stay 0).
fn parse_fault_rates(s: &str) -> Result<FaultRates, String> {
    let mut r = FaultRates::default();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("--faults expects k=v pairs, got {part:?}"))?;
        let p: f64 = v
            .parse()
            .map_err(|_| format!("--faults {k}: bad rate {v:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--faults {k}: rate {p} outside 0..=1"));
        }
        match k {
            "drop" => r.drop = p,
            "dup" | "duplicate" => r.duplicate = p,
            "delay" => r.delay = p,
            "reorder" => r.reorder = p,
            other => {
                return Err(format!(
                    "--faults: unknown fault kind {other:?} (drop|dup|delay|reorder)"
                ))
            }
        }
    }
    Ok(r)
}

/// `sim --spec FILE.ccsql`: a seeded random walk over the spec pack's
/// transaction machine instead of the ASURA system simulator.
fn cmd_spec_sim(opts: &Opts, path: &str) -> Result<String, String> {
    let m = pack::open_machine(path)?;
    let agents = spec_agents(opts)?;
    let seed = opts.num::<u64>("--seed", 1)?;
    let steps = opts.num::<usize>("--ops", 10_000)?;
    let r = m.simulate(agents, seed, steps);
    let text = format!("{}\n", r.render(seed));
    if r.stuck.is_none() {
        Ok(text)
    } else {
        Err(text)
    }
}

fn cmd_sim(opts: &Opts, gen: &GeneratedProtocol) -> Result<String, String> {
    let quads = opts.num::<usize>("--quads", 2)?;
    let nodes_per_quad = opts.num::<usize>("--nodes", 2)?;
    let ops = opts.num::<usize>("--ops", 100)?;
    let seed = opts.num::<u64>("--seed", 1)?;
    if !(1..=4).contains(&quads) || !(1..=4).contains(&nodes_per_quad) {
        return Err("quads and nodes must be 1..=4".into());
    }
    let chaos = opts.flag("--chaos")
        || opts.value("--faults").is_some()
        || opts.value("--fault-seed").is_some();
    let cfg = SimConfig {
        quads,
        nodes_per_quad,
        vc_capacity: nodes_per_quad.max(2),
        dedicated_mem_path: !opts.flag("--shared-vc4"),
        schedule: Schedule::Random(seed),
        max_steps: 10_000_000,
    };
    let nodes: Vec<NodeId> = (0..quads)
        .flat_map(|q| (0..nodes_per_quad).map(move |n| NodeId::new(q, n)))
        .collect();
    let wl = Workload::random(&nodes, ops, 16, Mix::default(), seed);
    let mut sim = Sim::new(gen, cfg, wl);
    if chaos {
        let mut plan = FaultPlan::quiet(opts.num("--fault-seed", seed)?);
        plan.rates = match opts.value("--faults") {
            Some(s) => parse_fault_rates(s)?,
            None => FaultRates::uniform(0.05),
        };
        sim.enable_chaos(plan);
    }
    let out = sim.run().map_err(|e| e.to_string())?;
    let s = sim.stats;
    let mut text = String::new();
    writeln!(
        text,
        "{} steps, {} issued, {} hits, {} completed, {} retries, {} msgs, {} reads checked",
        s.steps, s.issued, s.hits, s.completed, s.retries, s.msgs, s.read_checks
    )
    .unwrap();
    if let Some(fs) = sim.fault_stats() {
        writeln!(
            text,
            "faults: {} injected ({} drops, {} dups, {} delays, {} reorders), \
             {} timeouts, {} retransmits, {} strays, {} abandoned",
            fs.injected(),
            fs.drops,
            fs.duplicates,
            fs.delays,
            fs.reorders,
            s.timeouts,
            s.retransmits,
            s.strays,
            s.abandoned
        )
        .unwrap();
    }
    match out {
        Outcome::Quiescent | Outcome::Stalled { .. } => {
            sim.audit().map_err(|e| e.to_string())?;
            write!(text, "spec-row coverage:").unwrap();
            for (name, hit, total) in sim.coverage_report() {
                write!(text, " {name} {hit}/{total}").unwrap();
            }
            text.push('\n');
            if opts.flag("--coverage-report") {
                for (name, _, total) in sim.coverage_report() {
                    let missing = sim.uncovered_rows(name);
                    writeln!(
                        text,
                        "{name}: {}/{total} rows exercised; never hit: {missing:?}",
                        total - missing.len()
                    )
                    .unwrap();
                }
            }
            if let Outcome::Stalled { diagnosis } = &out {
                for d in diagnosis {
                    writeln!(text, "stalled: {d}").unwrap();
                }
                writeln!(text, "stalled — degraded but coherent").unwrap();
            } else {
                writeln!(text, "quiescent — coherent").unwrap();
            }
            Ok(text)
        }
        Outcome::Deadlock(info) => {
            writeln!(text, "{info}").unwrap();
            Err(text)
        }
        Outcome::StepLimit => Err(format!("{text}step limit exceeded")),
    }
}

/// Tables whose row coverage the fuzzer unions across rounds.
const FUZZ_TABLES: [&str; 4] = ["D", "M", "N", "R"];

/// Steer the workload mix toward the operations that could exercise
/// the still-uncovered D rows: map each never-hit row's `inmsg` back
/// to the processor operation that emits it, and weight the mix by the
/// gap counts. Mostly-busy gaps are retry interleavings — closing them
/// needs contention, so the hot set shrinks too.
fn steered_mix(
    gen: &GeneratedProtocol,
    covered_d: &std::collections::BTreeSet<usize>,
) -> (Mix, u32) {
    let Ok(d) = gen.table("D") else {
        return (Mix::default(), 16);
    };
    // Row order here matches the engine's coverage indices: the
    // simulator decodes this relation without reordering its rows.
    let sym = |i: usize, col: &str| match d.get(i, col) {
        Some(ccsql_relalg::Value::Sym(s)) => Some(s.as_str()),
        _ => None,
    };
    let (mut w, mut e, mut f, mut io, mut busy) = (0u32, 0u32, 0u32, 0u32, 0u32);
    let mut gaps = 0u32;
    for i in 0..d.len() {
        if covered_d.contains(&i) {
            continue;
        }
        gaps += 1;
        match sym(i, "inmsg") {
            Some("readex") | Some("upgrade") => w += 1,
            Some("wb") => e += 1,
            Some("flush") => f += 1,
            Some("ioread") | Some("iowrite") => io += 1,
            _ => {}
        }
        if sym(i, "bdirst").is_some_and(|s| s != "I") {
            busy += 1;
        }
    }
    let total = (w + e + f + io).max(1);
    let mix = Mix {
        write: (60 * w / total).max(10),
        evict: (60 * e / total).max(10),
        flush: (60 * f / total).max(5),
        io: (60 * io / total).max(5),
    };
    let addrs = if busy * 2 > gaps.max(1) { 4 } else { 16 };
    (mix, addrs)
}

/// `ccsql fuzz` — the coverage-closing chaos driver. Round 0 is a
/// clean random baseline; later rounds perturb the workload seed and
/// the fault seed together, alternate steered random mixes (aimed at
/// the never-exercised generated table rows) with the named sharing
/// patterns, and ramp the fault rates. Every round is audited; one
/// JSON line per round plus a `fuzz-summary` line are emitted (and
/// written to `--out` when given). The whole run is a pure function of
/// `--seed`: two invocations with the same seed are byte-identical.
fn cmd_fuzz(opts: &Opts) -> Result<String, String> {
    let gen = generate()?;
    let quick = opts.flag("--quick");
    let rounds = opts.num::<usize>("--rounds", if quick { 4 } else { 12 })?;
    let seed = opts.num::<u64>("--seed", 1)?;
    if rounds < 2 {
        return Err("fuzz needs at least 2 rounds (round 0 is the random baseline)".into());
    }
    let ops = if quick { 40 } else { 120 };
    let mut root = ccsql_obs::SplitMix64::new(seed);
    let mut wl_rng = root.fork();
    let mut fault_rng = root.fork();

    let mut covered: Vec<std::collections::BTreeSet<usize>> =
        vec![Default::default(); FUZZ_TABLES.len()];
    let mut totals = [0usize; FUZZ_TABLES.len()];
    let mut jsonl = String::new();
    let (mut audit_failures, mut faults_total, mut retries_total) = (0u64, 0u64, 0u64);
    let mut baseline_rows = 0usize;

    let nodes: Vec<NodeId> = (0..2)
        .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
        .collect();

    for round in 0..rounds {
        let round_span = ccsql_obs::flight::span("fuzz", "round");
        round_span.arg("round", round as u64);
        let wl_seed = wl_rng.next_u64();
        let fault_seed = fault_rng.next_u64();
        let rate = if round == 0 {
            0.0
        } else {
            [0.02, 0.05, 0.10][(round - 1) % 3]
        };
        let (wl, kind, addrs) = if round == 0 {
            (
                Workload::random(&nodes, ops, 16, Mix::default(), wl_seed),
                "baseline".to_string(),
                16,
            )
        } else if round % 3 == 2 {
            let p = PATTERNS[(round / 3) % PATTERNS.len()];
            (
                Workload::pattern(&nodes, p, ops, wl_seed),
                format!("pattern:{p:?}"),
                16,
            )
        } else {
            let (mix, addrs) = steered_mix(&gen, &covered[0]);
            (
                Workload::random(&nodes, ops, addrs, mix, wl_seed),
                "steered".to_string(),
                addrs,
            )
        };
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 2,
            dedicated_mem_path: true,
            schedule: Schedule::Random(wl_seed),
            max_steps: 2_000_000,
        };
        let mut sim = Sim::new(&gen, cfg, wl);
        if rate > 0.0 {
            let mut plan = FaultPlan::quiet(fault_seed);
            plan.rates = FaultRates {
                drop: rate,
                duplicate: rate,
                delay: rate,
                reorder: rate / 5.0,
            };
            sim.enable_chaos(plan);
        }
        let out = sim.run().map_err(|e| format!("round {round}: {e}"))?;
        let outcome = match &out {
            Outcome::Quiescent => "quiescent",
            Outcome::Stalled { .. } => "stalled",
            Outcome::StepLimit => "steplimit",
            Outcome::Deadlock(info) => {
                return Err(format!(
                    "round {round} ({kind}): unexpected deadlock\n{info}"
                ))
            }
        };
        let audit = match sim.audit() {
            Ok(()) => "pass".to_string(),
            Err(e) => {
                audit_failures += 1;
                format!("fail: {e}")
            }
        };
        let mut new_rows = 0usize;
        for (&t, set) in FUZZ_TABLES.iter().zip(covered.iter_mut()) {
            for i in sim.covered_rows(t) {
                if set.insert(i) {
                    new_rows += 1;
                }
            }
        }
        for (slot, (_, _, total)) in totals.iter_mut().zip(sim.coverage_report()) {
            *slot = total;
        }
        let rows_covered: usize = covered.iter().map(|s| s.len()).sum();
        if round == 0 {
            baseline_rows = rows_covered;
        }
        let fs = sim.fault_stats().unwrap_or_default();
        faults_total += fs.injected();
        retries_total += sim.stats.retries;
        let per_table = format!(
            "{{\"D\":{},\"M\":{},\"N\":{},\"R\":{}}}",
            covered[0].len(),
            covered[1].len(),
            covered[2].len(),
            covered[3].len()
        );
        jsonl.push_str(
            &ccsql_obs::json::JsonObj::new()
                .str("type", "fuzz-round")
                .u64("round", round as u64)
                .str("kind", &kind)
                .u64("wl_seed", wl_seed)
                .u64("fault_seed", fault_seed)
                .f64("rate", rate)
                .u64("addrs", addrs as u64)
                .str("outcome", outcome)
                .str("audit", &audit)
                .u64("faults_injected", fs.injected())
                .u64("retries", sim.stats.retries)
                .u64("timeouts", sim.stats.timeouts)
                .u64("retransmits", sim.stats.retransmits)
                .u64("strays", sim.stats.strays)
                .u64("abandoned", sim.stats.abandoned)
                .u64("new_rows", new_rows as u64)
                .u64("rows_covered", rows_covered as u64)
                .raw("rows", &per_table)
                .finish(),
        );
        jsonl.push('\n');

        round_span.arg("kind", kind.as_str());
        round_span.arg("outcome", outcome);
        round_span.arg("new_rows", new_rows as u64);
        round_span.arg("rows_covered", rows_covered as u64);
        round_span.arg("faults_injected", fs.injected());
    }

    let rows_covered: usize = covered.iter().map(|s| s.len()).sum();
    let rows_total: usize = totals.iter().sum();
    jsonl.push_str(
        &ccsql_obs::json::JsonObj::new()
            .str("type", "fuzz-summary")
            .u64("rounds", rounds as u64)
            .u64("seed", seed)
            .u64("audit_failures", audit_failures)
            .u64("faults_injected", faults_total)
            .u64("retries", retries_total)
            .u64("baseline_rows", baseline_rows as u64)
            .u64("rows_covered", rows_covered as u64)
            .u64("rows_total", rows_total as u64)
            .u64("coverage_gain", (rows_covered - baseline_rows) as u64)
            .finish(),
    );
    jsonl.push('\n');

    if let Some(path) = opts.value("--out") {
        std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let mut text = jsonl;
    writeln!(
        text,
        "fuzz: {rounds} rounds, {rows_covered}/{rows_total} rows covered \
         (baseline {baseline_rows}), {faults_total} faults injected, \
         {audit_failures} audit failure(s)"
    )
    .unwrap();
    if audit_failures > 0 {
        return Err(format!("{text}coherence audit failed under chaos"));
    }
    if faults_total == 0 {
        return Err(format!(
            "{text}no faults were injected — the chaos path is dead"
        ));
    }
    if rows_covered <= baseline_rows {
        return Err(format!(
            "{text}coverage-closing rounds did not beat the round-0 random baseline"
        ));
    }
    Ok(text)
}

/// Default worker count: the machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `--mem-budget` and `--spill-dir`, shared by every command that model
/// checks. Under a non-zero budget the engine spills, so the directory
/// is proved usable up front — a spill directory is created there and
/// dropped again — and a bad path is an error naming the flag instead
/// of a panic in the middle of the run.
fn spill_opts(opts: &Opts) -> Result<(usize, Option<PathBuf>), String> {
    let mem_budget = opts.bytes("--mem-budget", 0)?;
    let spill_dir = opts.value("--spill-dir").map(PathBuf::from);
    if mem_budget > 0 {
        ccsql_mc::spill::SpillDir::create(spill_dir.as_deref()).map_err(|e| {
            let base = spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            format!(
                "--spill-dir {}: cannot create a spill directory there: {e}",
                base.display()
            )
        })?;
    }
    Ok((mem_budget, spill_dir))
}

fn cmd_mc(opts: &Opts) -> Result<String, String> {
    // `--spec FILE.ccsql`: model-check the spec pack's transaction
    // machine (any protocol with `machine` directives) instead of the
    // built-in ASURA model.
    if let Some(path) = opts.value("--spec") {
        let m = pack::open_machine(path)?;
        let (mem_budget, spill_dir) = spill_opts(opts)?;
        let mc = SpecMcOpts {
            agents: spec_agents(opts)?,
            threads: opts.count("--threads", 1)?,
            symmetry: !opts.flag("--no-symmetry"),
            budget: opts.count("--budget", 1_000_000)?,
            shards: opts.count("--shards", ccsql_mc::DEFAULT_SHARDS)?,
            mem_budget,
            spill_dir,
        };
        pack::fit(&m, mc.agents, path)
            .map_err(|e| format!("--nodes {} is too many for {e}", mc.agents))?;
        let out = m.explore(&mc);
        let mut text = if opts.flag("--json") {
            out.render_json(&m.table, &mc)
        } else {
            out.render()
        };
        text.push('\n');
        return if out.verdict == SpecVerdict::Verified {
            Ok(text)
        } else {
            Err(text)
        };
    }
    let nodes = opts.num::<usize>("--nodes", 2)?;
    let quota = opts.num::<u8>("--quota", 1)?;
    let resp_depth = opts.num::<usize>("--resp-depth", 2)?;
    let budget = opts.count("--budget", 1_000_000)?;
    let threads = opts.count("--threads", default_threads())?;
    let symmetry = !opts.flag("--no-symmetry");
    let shards = opts.count("--shards", ccsql_mc::DEFAULT_SHARDS)?;
    let (mem_budget, spill_dir) = spill_opts(opts)?;
    let m = Model {
        nodes,
        quota,
        resp_depth,
    };
    m.validate()?;
    let (out, stats) = explore_with(
        &m,
        m.initial(),
        &McOpts {
            budget,
            threads,
            symmetry,
            shards,
            mem_budget,
            spill_dir,
        },
    );
    let mut text = String::new();
    writeln!(
        text,
        "{} distinct states, {} transitions ({} dedup hits), depth {}, frontier peak {}, \
         {} thread(s), {:?}",
        stats.states,
        stats.transitions,
        stats.dedup_hits,
        stats.depth,
        stats.frontier_peak,
        stats.threads,
        stats.elapsed
    )
    .unwrap();
    if stats.symmetry {
        writeln!(
            text,
            "symmetry: {} orbit representatives for {} full states \
             (orbit reduction {:.2}x), arena {} bytes ({} bytes/state)",
            stats.states,
            stats.orbit_states,
            stats.orbit_states as f64 / (stats.states.max(1)) as f64,
            stats.arena_bytes,
            stats.arena_bytes.checked_div(stats.states).unwrap_or(0),
        )
        .unwrap();
    } else {
        writeln!(
            text,
            "symmetry: off, arena {} bytes ({} bytes/state)",
            stats.arena_bytes,
            stats.arena_bytes.checked_div(stats.states).unwrap_or(0),
        )
        .unwrap();
    }
    // Resident-peak and spilled bytes vary with scheduling, so this
    // line only appears when the user opted into a memory budget — the
    // default output stays byte-identical across runs.
    if stats.mem_budget > 0 {
        writeln!(
            text,
            "out-of-core: {} shard(s), budget {} bytes, resident peak {} bytes, \
             spilled {} bytes",
            stats.shards, stats.mem_budget, stats.mem_peak_bytes, stats.spilled_bytes,
        )
        .unwrap();
    }
    match out {
        McOutcome::Verified => {
            writeln!(text, "verified — all safety properties hold").unwrap();
            Ok(text)
        }
        McOutcome::Violation(prop) => {
            writeln!(text, "VIOLATION: {prop}").unwrap();
            if let Some(w) = &stats.witness {
                writeln!(text, "witness: {w:?}").unwrap();
            }
            Err(text)
        }
        McOutcome::Stuck => {
            writeln!(text, "stuck non-quiescent state reached").unwrap();
            if let Some(w) = &stats.witness {
                writeln!(text, "witness: {w:?}").unwrap();
            }
            Err(text)
        }
        McOutcome::BudgetExceeded => {
            writeln!(text, "state budget ({budget}) exceeded").unwrap();
            Err(text)
        }
    }
}

/// `ccsql stats [<command> …]` — run a command (or, with no arguments,
/// a representative pipeline touching the solver, the deadlock
/// analysis, the simulator and the model checker) with the flight
/// recorder on, then append the per-stage span table and one
/// `stage/name key=value …` line per span that enters a stage: the
/// counters of every call into a stage, in call order.
fn cmd_stats(inner: &[String]) -> Result<String, String> {
    ccsql_obs::flight::set_enabled(true);
    let first = ccsql_obs::flight::global().len();
    let mut out = String::new();
    let mut inner_failed = false;
    if inner.is_empty() {
        let argv =
            |s: &str| -> Vec<String> { s.split_whitespace().map(|x| x.to_string()).collect() };
        // One solve of the ASURA tables serves gen, deadlock and sim.
        let gen = generate()?;
        out.push_str(&cmd_gen(&Opts::new("gen", &[])?, &gen)?);
        // V1 has cycles by design: the Err path still records the
        // depend/flows spans we are after.
        let v1 = argv("--assignment v1");
        let _ = cmd_deadlock(&Opts::new("deadlock", &v1)?, &gen);
        let sim = argv("--seed 1 --ops 40");
        out.push_str(&cmd_sim(&Opts::new("sim", &sim)?, &gen)?);
        out.push_str(&dispatch(&argv("mc --nodes 2 --quota 1"))?);
    } else {
        match dispatch(inner) {
            Ok(o) => out.push_str(&o),
            Err(e) => {
                out.push_str(&e);
                inner_failed = true;
            }
        }
    }
    // Every stage records on the thread that calls it (the mc workers
    // record nothing), so this thread's spans are the whole run, and a
    // concurrent caller of the library never lands in the report.
    let track = ccsql_obs::flight::current_track();
    let spans: Vec<_> = ccsql_obs::flight::snapshot()
        .split_off(first)
        .into_iter()
        .filter(|s| s.track == track)
        .collect();
    let spans = &spans[..];
    out.push_str("\n=== spans ===\n");
    out.push_str(&stage_table(spans));
    for s in spans
        .iter()
        .filter(|s| ccsql_obs::flight::is_entry(spans, s))
    {
        writeln!(out, "{s}").unwrap();
    }
    if inner_failed {
        Err(out)
    } else {
        Ok(out)
    }
}

/// The per-stage spans / total / self-time table that `stats` prints
/// for a recording (or the tail of one).
fn stage_table(spans: &[ccsql_obs::flight::SpanNode]) -> String {
    let summary = ccsql_obs::flight::stage_summary(spans);
    let total_self: u64 = summary.iter().map(|s| s.self_us).sum();
    let mut text = String::new();
    writeln!(
        text,
        "{:<10} {:>6} {:>12} {:>12} {:>6}",
        "stage", "spans", "total_ms", "self_ms", "self%"
    )
    .unwrap();
    for s in &summary {
        writeln!(
            text,
            "{:<10} {:>6} {:>12.3} {:>12.3} {:>5.1}%",
            s.stage,
            s.spans,
            s.total_us as f64 / 1e3,
            s.self_us as f64 / 1e3,
            100.0 * s.self_us as f64 / total_self.max(1) as f64
        )
        .unwrap();
    }
    text
}

fn cmd_fig4(opts: &Opts) -> Result<String, String> {
    let gen = generate()?;
    let dedicated = opts.flag("--fixed");
    let out = Fig4::default()
        .replay(&gen, dedicated)
        .map_err(|e| e.to_string())?;
    match out {
        Outcome::Deadlock(info) => {
            if dedicated {
                Err(format!("unexpected deadlock with the fix:\n{info}"))
            } else {
                Ok(format!("{info}"))
            }
        }
        Outcome::Quiescent => {
            if dedicated {
                Ok(
                    "quiescent — the dedicated directory→memory path removes the deadlock\n"
                        .to_string(),
                )
            } else {
                Err("expected the Figure-4 deadlock".to_string())
            }
        }
        Outcome::StepLimit => Err("step limit exceeded".to_string()),
        Outcome::Stalled { diagnosis } => Err(format!(
            "unexpected stall (chaos is never armed for fig4): {diagnosis:?}"
        )),
    }
}

fn cmd_query(opts: &Opts) -> Result<String, String> {
    let sql = opts
        .args
        .first()
        .ok_or_else(|| "query expects an SQL string".to_string())?;
    let mut gen = generate()?;
    let rel = gen.db.query(sql).map_err(|e| e.to_string())?;
    Ok(format!(
        "{}({} rows)\n",
        report::ascii_table(&rel),
        rel.len()
    ))
}

/// `--nodes` for the spec-machine engines (`mc --spec`, `sim --spec`):
/// the number of symmetric requesters, at least one.
fn spec_agents(opts: &Opts) -> Result<usize, String> {
    match opts.num::<usize>("--nodes", 2)? {
        0 => Err("--nodes must be at least 1 for a spec machine".into()),
        agents => Ok(agents),
    }
}

/// `ccsql zoo [DIR] [--quick]` — the protocol-zoo matrix: every spec
/// pack under DIR runs through [`pack::run`]'s stages. Spec packs named
/// `*_buggy` / `*_flowbug` are seeded-bug fixtures that MUST be
/// rejected by at least one stage; every other pack must pass all of
/// them. Prints one JSONL verdict per (protocol, stage) plus a summary
/// line; the whole output is deterministic across runs.
fn cmd_zoo(opts: &Opts) -> Result<String, String> {
    let mut settings = pack::Settings::tier(opts.flag("--quick"));
    let dir = positional(opts).first().copied().unwrap_or("specs");
    settings.vc = parse_assignment(opts)?;
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ccsql"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .ccsql spec packs under {dir}"));
    }
    // --shards / --mem-budget / --spill-dir steer the out-of-core
    // machinery and never change a verdict byte (the model-check
    // stage's identity checks would catch it if they did).
    (settings.mc.mem_budget, settings.mc.spill_dir) = spill_opts(opts)?;
    settings.mc.shards = opts.count("--shards", ccsql_mc::DEFAULT_SHARDS)?;
    let mut out = String::new();
    let (mut seeded, mut verdicts) = (0, 0);
    let mut broken: Vec<String> = Vec::new();
    for path in &paths {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        let expect_reject = name.ends_with("_buggy") || name.ends_with("_flowbug");
        seeded += usize::from(expect_reject);
        let stages = pack::run(path, &settings)?;
        let failed: Vec<&str> = stages
            .iter()
            .filter(|s| s.verdict == pack::Verdict::Fail)
            .map(|s| s.name)
            .collect();
        if expect_reject && failed.is_empty() {
            broken.push(format!(
                "{name}: seeded-bug pack sailed through every stage"
            ));
        } else if !expect_reject && !failed.is_empty() {
            broken.push(format!("{name}: clean pack failed {}", failed.join(", ")));
        }
        for s in &stages {
            // One JSONL line; a multi-line detail is folded onto it.
            let line = ccsql_obs::json::JsonObj::new()
                .str("protocol", name)
                .str("stage", s.name)
                .str("verdict", s.verdict.as_str())
                .str("detail", &s.detail.replace('\n', " | "))
                .finish();
            writeln!(out, "{line}").unwrap();
        }
        verdicts += stages.len();
    }
    writeln!(
        out,
        "zoo: {} pack(s) ({} clean, {} seeded-bug), {} stage verdict(s), expectations {}",
        paths.len(),
        paths.len() - seeded,
        seeded,
        verdicts,
        if broken.is_empty() { "met" } else { "BROKEN" }
    )
    .unwrap();
    for b in &broken {
        writeln!(out, "  {b}").unwrap();
    }
    if broken.is_empty() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Positional (non-flag) arguments: everything that is not a `--flag`
/// and not the value slot of one of the command's value flags.
fn positional<'a>(opts: &Opts<'a>) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in opts.args {
        if skip {
            skip = false;
        } else if opts.cmd.values.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn cmd_lint(opts: &Opts) -> Result<String, String> {
    let report = if opts.flag("--protocol") {
        let v = parse_assignment(opts)?;
        ccsql_lint::lint_protocol(&ccsql_protocol::ProtocolSpec::asura(), &v)
    } else {
        let paths = positional(opts);
        if paths.is_empty() {
            return Err("lint expects .ccsql spec files (or --protocol)".to_string());
        }
        let files: Vec<_> = paths.iter().map(pack::open).collect::<Result<_, _>>()?;
        pack::lint(&files.iter().collect::<Vec<_>>()).0
    };
    let out = if opts.flag("--json") {
        report.render_jsonl()
    } else {
        report.render_human()
    };
    if report.failed() {
        Err(out)
    } else {
        Ok(out)
    }
}

fn cmd_solve(opts: &Opts) -> Result<String, String> {
    let path = positional(opts)
        .first()
        .copied()
        .ok_or_else(|| "solve expects a .ccsql database-input file".to_string())?;
    let sf = pack::open(path)?;
    let mut linted = None;
    if !opts.flag("--no-lint") {
        // Early error detection: lint the spec before spending time on
        // the solve. `--no-lint` bypasses the gate.
        let (report, tables) = pack::lint(&[&sf]);
        if report.failed() {
            return Err(format!(
                "{}\nlint found problems in {path}; fix them or rerun with --no-lint",
                report.render_human()
            ));
        }
        linted = tables.into_iter().next().flatten();
    }
    // `--no-compile`: solve with the interpreted oracle instead of the
    // compiled bytecode path; the outputs must be byte-identical (the
    // differential gate in scripts/verify.sh diffs them).
    let compile = !opts.flag("--no-compile");
    let (rel, failures) = pack::solve(&sf, linted, compile).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(
        out,
        "table {}: {} rows x {} columns; {} static check(s), {} failed",
        sf.spec.name,
        rel.len(),
        rel.arity(),
        sf.checks.len(),
        failures.len()
    )
    .unwrap();
    match opts.value("--format").unwrap_or("ascii") {
        "csv" => out.push_str(&report::csv(&rel.sorted())),
        "md" => out.push_str(&report::markdown_table(&rel.sorted())),
        "ascii" => out.push_str(&report::ascii_table(&rel.sorted())),
        f => return Err(format!("unknown format {f:?}")),
    }
    for (name, witnesses) in &failures {
        writeln!(out, "CHECK FAILED {name} — witnesses:").unwrap();
        out.push_str(&report::ascii_table(witnesses));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(out)
    }
}

fn cmd_walk(opts: &Opts) -> Result<String, String> {
    let gen = generate()?;
    let mut out = String::new();
    match opts.value("--request") {
        Some(req) => {
            let dirst = opts.value("--dirst").unwrap_or("I");
            let sharers = opts.num::<u32>("--sharers", 0)?;
            let w = ccsql::walker::walk(&gen, req, dirst, sharers).map_err(|e| e.to_string())?;
            out.push_str(&w.render());
            if !w.completed {
                return Err(out);
            }
        }
        None => {
            let starts = ccsql::walker::all_starts(&gen).map_err(|e| e.to_string())?;
            for (req, dirst, sharers) in starts {
                let w =
                    ccsql::walker::walk(&gen, &req, &dirst, sharers).map_err(|e| e.to_string())?;
                out.push_str(&w.render());
                out.push('\n');
                if !w.completed {
                    return Err(out);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&[]).is_err());
        assert!(run(&argv("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn gen_lists_tables() {
        let out = run(&argv("gen")).unwrap();
        assert!(out.contains("D"));
        assert!(out.contains("498 rows x 30 columns") || out.contains("rows x 30"));
    }

    #[test]
    fn gen_formats_table() {
        let out = run(&argv("gen --table M --format csv")).unwrap();
        assert!(out.starts_with("inmsg,"));
        assert!(out.contains("mread"));
        assert!(run(&argv("gen --table NOPE")).is_err());
        assert!(run(&argv("gen --table M --format bogus")).is_err());
    }

    #[test]
    fn check_passes_on_debugged_tables() {
        let out = run(&argv("check --liveness")).unwrap();
        assert!(out.contains("0 violated"));
        assert!(out.contains("no hangs"));
    }

    #[test]
    fn deadlock_exit_semantics() {
        // v2 clean → Ok; v1 cyclic → Err carrying the narrative.
        let ok = run(&argv("deadlock --assignment v2")).unwrap();
        assert!(ok.contains("absence of deadlocks"));
        let err = run(&argv("deadlock --assignment v1")).unwrap_err();
        assert!(err.contains("VC2"));
        assert!(err.contains("VC4"));
        assert!(run(&argv("deadlock --assignment vX")).is_err());
    }

    #[test]
    fn map_reports_and_emits() {
        let out = run(&argv("map")).unwrap();
        assert!(out.contains("reconstruction=true preservation=true"));
        let v = run(&argv("map --emit verilog --table Response_dir")).unwrap();
        assert!(v.contains("module Response_dir"));
        assert!(run(&argv("map --emit bogus")).is_err());
        assert!(run(&argv("map --emit rust --table NOPE")).is_err());
    }

    #[test]
    fn sim_runs_and_fig4_replays() {
        let out = run(&argv("sim --seed 3 --ops 40")).unwrap();
        assert!(out.contains("quiescent — coherent"));
        let out = run(&argv("fig4")).unwrap();
        assert!(out.contains("DEADLOCK"));
        let out = run(&argv("fig4 --fixed")).unwrap();
        assert!(out.contains("quiescent"));
        assert!(run(&argv("sim --quads 9")).is_err());
        assert!(run(&argv("sim --seed abc")).is_err());
    }

    #[test]
    fn sim_chaos_and_coverage_report() {
        let out = run(&argv("sim --seed 3 --ops 40 --chaos")).unwrap();
        assert!(out.contains("injected"), "{out}");
        assert!(
            out.contains("coherent"),
            "chaos run ended incoherent:\n{out}"
        );
        // Same seed pair twice → byte-identical output.
        assert_eq!(
            run(&argv("sim --seed 3 --ops 40 --chaos --fault-seed 9")).unwrap(),
            run(&argv("sim --seed 3 --ops 40 --chaos --fault-seed 9")).unwrap()
        );
        let out = run(&argv("sim --seed 3 --ops 60 --coverage-report")).unwrap();
        assert!(out.contains("coverage"), "{out}");
        assert!(out.contains("never hit"), "{out}");
        // Bad fault specs are rejected up front.
        assert!(run(&argv("sim --faults drop=2.0")).is_err());
        assert!(run(&argv("sim --faults bogus")).is_err());
        assert!(run(&argv("sim --faults drop=x")).is_err());
    }

    #[test]
    fn fuzz_quick_is_deterministic_and_audits_clean() {
        let a = run(&argv("fuzz --quick --seed 1")).unwrap();
        let b = run(&argv("fuzz --quick --seed 1")).unwrap();
        assert_eq!(a, b, "fuzz output is not a pure function of --seed");
        assert!(a.contains("\"type\":\"fuzz-summary\""), "{a}");
        assert!(a.contains("\"audit_failures\":0"), "{a}");
        // The chaos path is alive and coverage beats the clean baseline.
        let summary = a
            .lines()
            .find(|l| l.contains("\"type\":\"fuzz-summary\""))
            .unwrap();
        assert!(!summary.contains("\"faults_injected\":0"), "{summary}");
        assert!(summary.contains("coverage_gain"), "{summary}");
        let c = run(&argv("fuzz --quick --seed 2")).unwrap();
        assert_ne!(a, c, "different seeds should explore differently");
    }

    #[test]
    fn solve_runs_database_inputs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.ccsql");
        let out = run(&["solve".to_string(), path.to_string()]).unwrap();
        assert!(out.contains("table Fig3"), "{out}");
        assert!(out.contains("0 failed"), "{out}");
        assert!(out.contains("Busy-sd"), "{out}");
        assert!(run(&argv("solve /nonexistent.ccsql")).is_err());
        assert!(run(&argv("solve")).is_err());
    }

    #[test]
    fn lint_reports_seeded_bugs() {
        let buggy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3_buggy.ccsql");
        let err = run(&["lint".to_string(), buggy.to_string()]).unwrap_err();
        for code in ["CCL003", "CCL010", "CCL020"] {
            assert!(err.contains(code), "missing {code} in:\n{err}");
        }
        let json = run(&["lint".to_string(), "--json".to_string(), buggy.to_string()]).unwrap_err();
        assert!(json.contains("\"kind\":\"lint\""), "{json}");
        assert!(json.contains("\"kind\":\"lint-summary\""), "{json}");
    }

    #[test]
    fn lint_clean_specs_and_protocol() {
        let fig3 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.ccsql");
        let out = run(&["lint".to_string(), fig3.to_string()]).unwrap();
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
        let out = run(&argv("lint --protocol")).unwrap();
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
        assert!(run(&argv("lint")).is_err());
        assert!(run(&argv("lint --protocol --assignment bogus")).is_err());
    }

    #[test]
    fn solve_lint_prepass_blocks_buggy_specs() {
        let buggy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3_buggy.ccsql");
        let err = run(&["solve".to_string(), buggy.to_string()]).unwrap_err();
        assert!(err.contains("rerun with --no-lint"), "{err}");
        assert!(err.contains("CCL010"), "{err}");
        let out = run(&[
            "solve".to_string(),
            buggy.to_string(),
            "--no-lint".to_string(),
        ])
        .unwrap();
        assert!(out.contains("table Fig3Buggy"), "{out}");
    }

    /// Write `text` to `name` under the temp dir and return its path.
    fn temp_spec(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    #[test]
    fn solve_prints_the_lint_prepass_table() {
        // On the compiled path the lint's one solve is the table `solve`
        // prints; `--no-compile` solves again with the interpreted oracle.
        let fig3 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.ccsql");
        let solves = |path: &str, flags: &str, table: &str| {
            let out = run(&argv(&format!("stats solve {path} {flags}"))).unwrap();
            let prefix = format!("solve/{table} ms=");
            out.lines().filter(|l| l.starts_with(&prefix)).count()
        };
        assert_eq!(solves(fig3, "", "Fig3"), 1);
        assert_eq!(solves(fig3, "--no-lint", "Fig3"), 1);
        assert_eq!(solves(fig3, "--no-compile", "Fig3"), 2);
        let solve = |path: &str, flags: &str| run(&argv(&format!("solve {path} {flags}"))).unwrap();
        assert_eq!(solve(fig3, ""), solve(fig3, "--no-lint"));
        // The lint solves a spec that declares an output before an input
        // inputs-first, so `solve` solves the declared order itself.
        let path = temp_spec(
            "ccsql_cli_output_first.ccsql",
            "table T\n\
             output o = p, q\n\
             input a = x, y\n\
             constrain o: a = x ? o = p : o = q\n",
        );
        assert_eq!(solves(&path, "", "T"), 2);
        let out = solve(&path, "");
        assert!(out.contains("| o | a |"), "{out}");
        assert_eq!(out, solve(&path, "--no-lint"));
    }

    #[test]
    fn lint_solves_specs_under_the_context_solve_uses() {
        // `isrequest` is a named set of the built-in protocol, not of spec
        // files: `solve` rejects the table, and the lint's one solve of it
        // reports the same error instead of vestigial-value findings.
        let path = temp_spec(
            "ccsql_cli_named_set.ccsql",
            "table T\n\
             input inmsg = readex, data\n\
             output o = p\n\
             constrain inmsg: isrequest(inmsg)\n",
        );
        let out = run(&["lint".to_string(), path.clone()]).unwrap();
        assert!(out.contains("info CCL019"), "{out}");
        assert!(
            out.contains("no such named set/predicate: isrequest"),
            "{out}"
        );
        assert!(!out.contains("CCL006"), "{out}");
        let err = run(&argv(&format!("solve {path} --no-lint"))).unwrap_err();
        assert!(err.contains("isrequest"), "{err}");
    }

    #[test]
    fn row_budget_fails_every_solve_closed() {
        // 100 x 100 x 100 unconstrained values: adding `o` takes 10^6
        // candidate rows, over the budget. Every stage that solves the
        // spec fails with the budget error; the lint notes it.
        let values = |col: &str| -> String {
            let vs: Vec<String> = (0..100).map(|i| format!("{col}{i}")).collect();
            vs.join(", ")
        };
        let path = temp_spec(
            "ccsql_cli_row_budget.ccsql",
            &format!(
                "table Big\ninput a = {}\ninput b = {}\noutput o = {}\nflow a, o\n",
                values("a"),
                values("b"),
                values("o")
            ),
        );
        let budget = "table Big: adding column o takes 1000000 candidate rows, \
                      over the 500000-row budget";
        for cmd in [
            "solve --no-lint",
            "solve --no-lint --no-compile",
            "flows",
            "mc --spec",
            "sim --spec",
        ] {
            let err = run(&argv(&format!("{cmd} {path}"))).unwrap_err();
            assert!(err.contains(budget), "{cmd}: {err}");
        }
        let err = run(&argv(&format!("lint {path}"))).unwrap_err();
        assert!(
            err.contains(&format!(
                "Big: info CCL019: coverage skipped: the solver rejects the table ({budget})"
            )),
            "{err}"
        );
    }

    #[test]
    fn walk_charts_transactions() {
        let out = run(&argv("walk --request readex --dirst SI --sharers 1")).unwrap();
        assert!(out.contains("local → D : readex"));
        assert!(out.contains("D → remote : sinv"));
        assert!(out.contains("completed"));
        let all = run(&argv("walk")).unwrap();
        assert!(all.matches("completed").count() >= 20);
        assert!(run(&argv("walk --request bogus")).is_err());
    }

    #[test]
    fn mc_explores_and_reports() {
        let out = run(&argv("mc --nodes 2 --quota 1")).unwrap();
        assert!(out.contains("verified"), "{out}");
        assert!(out.contains("distinct states"), "{out}");
        let err = run(&argv("mc --budget 10")).unwrap_err();
        assert!(err.contains("budget"), "{err}");
        assert!(run(&argv("mc --nodes 9")).is_err());
        assert!(run(&argv("mc --nodes 1")).is_err());
        assert!(run(&argv("mc --quota 0")).is_err());
        assert!(run(&argv("mc --resp-depth 7")).is_err());
        // An out-of-range value is an error naming the flag, not a
        // wrapped cast (257 as u8 would be a valid quota of 1).
        let err = run(&argv("mc --nodes 2 --quota 257")).unwrap_err();
        assert!(err.contains("--quota"), "{err}");
        // A spill directory that cannot be created is an error naming
        // the flag, not a panic inside the engine.
        for bad in ["/proc/nope", "/dev/null"] {
            let cmd =
                format!("mc --nodes 3 --quota 2 --no-symmetry --mem-budget 64K --spill-dir {bad}");
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(err.contains("--spill-dir") && err.contains(bad), "{err}");
        }
        // A zero count is an error naming its flag, not a run on one
        // thread or one shard, or a budget no state fits.
        let fig3 = zoo_spec("fig3");
        let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        for (cmd, flag) in [
            ("mc --threads 0".to_string(), "--threads"),
            ("mc --shards 0 --mem-budget 64K".to_string(), "--shards"),
            ("mc --budget 0".to_string(), "--budget"),
            (format!("mc --spec {fig3} --threads 0"), "--threads"),
            (format!("mc --spec {fig3} --shards 0"), "--shards"),
            (format!("mc --spec {fig3} --budget 0"), "--budget"),
            (format!("zoo {specs} --quick --shards 0"), "--shards"),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} expects a number of at least 1, got 0"),
                "{cmd}"
            );
        }
    }

    #[test]
    fn mc_symmetry_reduces_and_agrees_with_full() {
        // Symmetry on by default: the report shows the orbit reduction.
        let sym = run(&argv("mc --nodes 3 --quota 1")).unwrap();
        assert!(sym.contains("orbit reduction"), "{sym}");
        assert!(sym.contains("verified"), "{sym}");
        let full = run(&argv("mc --nodes 3 --quota 1 --no-symmetry")).unwrap();
        assert!(full.contains("symmetry: off"), "{full}");
        assert!(full.contains("verified"), "{full}");
        // The symmetry run's orbit total equals the full run's count:
        // "N orbit representatives for M full states" vs "M distinct".
        let full_states: usize = full
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .expect("full state count leads the report");
        assert!(
            sym.contains(&format!("for {full_states} full states")),
            "sym run does not account for exactly {full_states} states:\n{sym}"
        );
        let sym_states: usize = sym.split_whitespace().next().unwrap().parse().unwrap();
        assert!(sym_states < full_states, "{sym_states} !< {full_states}");
        // The previously budget-bound ASURA config now verifies outright.
        let asura = run(&argv("mc --nodes 4 --quota 2 --budget 400000")).unwrap();
        assert!(asura.contains("verified"), "{asura}");
    }

    /// The metrics file and the event trace are gone: their flags fail
    /// closed, naming the replacement.
    #[test]
    fn removed_observability_flags_fail_closed() {
        let path = std::env::temp_dir().join("ccsql_cli_removed_metrics.jsonl");
        let _ = std::fs::remove_file(&path);
        let metrics = format!("--metrics={}", path.display());
        for args in [
            vec!["sim".into(), metrics, "--ops".into(), "5".into()],
            argv("--trace sim --ops 5"),
            argv("sim --trace=8 --ops 5"),
            argv("sim --metrics"),
        ] {
            let err = run(&args).unwrap_err();
            assert!(err.contains("--trace-out"), "{args:?}: {err}");
        }
        assert!(!path.exists(), "a removed flag wrote {}", path.display());
    }

    /// A flag the command does not read is an error naming it, never a
    /// run with the defaults — also when another command reads it.
    #[test]
    fn unknown_flags_fail_closed() {
        let fig3 = zoo_spec("fig3");
        for (cmd, flag) in [
            ("mc --node 3 --quota 1".to_string(), "--node"),
            ("mc --nodes 3 --no-symetry".to_string(), "--no-symetry"),
            ("gen --tabel D".to_string(), "--tabel"),
            ("gen --stats".to_string(), "--stats"),
            ("gen --quick".to_string(), "--quick"),
            (
                format!("sim --spec {fig3} --no-symmetry --ops 10"),
                "--no-symmetry",
            ),
            (
                "deadlock --assignment v2 --threads 2".to_string(),
                "--threads",
            ),
            ("stats gen --quick".to_string(), "--quick"),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag {flag}")),
                "{cmd}: {err}"
            );
        }
    }

    /// Each command's `USAGE` entry names exactly the flags `COMMANDS`
    /// declares for it, and every command but `help` has an entry.
    #[test]
    fn usage_lists_exactly_each_commands_flags() {
        let section = USAGE
            .split("\n\n")
            .find(|p| p.contains("    ccsql gen "))
            .expect("the USAGE command list");
        // An entry is a `    ccsql NAME …` line plus its indented
        // continuation lines.
        let mut entries: Vec<(String, std::collections::BTreeSet<String>)> = Vec::new();
        for line in section.lines() {
            if let Some(rest) = line.strip_prefix("    ccsql ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                entries.push((name.to_string(), Default::default()));
            } else if !line.starts_with("        ") {
                continue;
            }
            let Some((_, flags)) = entries.last_mut() else {
                continue;
            };
            for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if token.starts_with("--") {
                    flags.insert(token.to_string());
                }
            }
        }
        for c in COMMANDS.iter().filter(|c| c.name != "help") {
            let (_, listed) = entries
                .iter()
                .find(|(name, _)| name == c.name)
                .unwrap_or_else(|| panic!("USAGE has no entry for {}", c.name));
            let declared: std::collections::BTreeSet<String> = c
                .values
                .iter()
                .chain(c.flags)
                .map(|f| f.to_string())
                .collect();
            assert_eq!(listed, &declared, "USAGE vs COMMANDS for {}", c.name);
        }
        for (name, _) in &entries {
            assert!(
                COMMANDS.iter().any(|c| c.name == name),
                "USAGE lists {name}, which COMMANDS does not declare"
            );
        }
    }

    #[test]
    fn stats_renders_the_recording() {
        let out = run(&argv("stats mc --nodes 2 --quota 1")).unwrap();
        assert!(out.contains("verified"), "{out}");
        assert!(out.contains("=== spans ==="), "{out}");
        assert!(out.contains("self_ms"), "{out}");
        assert!(
            out.lines().any(|l| l.starts_with("mc ")),
            "no mc row in the stage table:\n{out}"
        );
        // One line per entry span, carrying the stage's counters.
        assert!(
            out.lines().any(|l| l.starts_with("mc/explore ")
                && l.contains(" states=")
                && l.contains(" orbit_states=")
                && l.contains(" outcome=verified")),
            "no mc/explore line:\n{out}"
        );
        // Each line leads with the span's wall time: `stats gen` times
        // every controller's solve.
        let out = run(&argv("stats gen")).unwrap();
        for t in ["D", "M", "N", "R", "C", "IO", "L", "CFG"] {
            assert!(
                out.lines().any(|l| l.starts_with(&format!("solve/{t} ms="))
                    && l.contains(" rows=")
                    && l.contains(" candidates=")),
                "no solve/{t} line:\n{out}"
            );
        }
        // The masked extension step evaluates D's constraints once per
        // row where it can, not once per candidate, and D's ten
        // rule-driven chains and its legality chain switch on `inmsg`.
        assert!(
            out.contains(" rows=498 columns=30 candidates=62842 evals=16222 indexed=11"),
            "{out}"
        );
        // The default pipeline solves the ASURA tables once for gen,
        // deadlock and sim.
        let out = run(&argv("stats")).unwrap();
        let solves = out.lines().filter(|l| l.starts_with("solve/D ms=")).count();
        assert_eq!(solves, 1, "{out}");
    }

    #[test]
    fn deadlock_resolves_the_flow_rows_once() {
        // The flows pre-pass resolves the protocol's rows, and the
        // dependency table is built from them; without the pre-pass the
        // table resolves them itself.
        for cmd in [
            "stats deadlock --assignment v1",
            "stats deadlock --assignment v1 --no-flows",
        ] {
            let out = run(&argv(cmd)).unwrap_or_else(|e| e);
            let resolves = out
                .lines()
                .filter(|l| l.starts_with("depend/resolve "))
                .count();
            assert_eq!(resolves, 1, "{cmd}:\n{out}");
            assert!(out.contains("depend/build ms="), "{cmd}:\n{out}");
        }
    }

    #[test]
    fn the_closure_composes_only_pairs_with_a_new_side() {
        // Composing every pair in every round of V1's closure makes
        // 266,754 candidates; a round that composes only the pairs with
        // a side the round before added makes 110,918.
        let out = run(&argv("stats deadlock --assignment v1 --closure")).unwrap_err();
        assert!(
            out.contains(" rows=2587 rounds=4 candidates=110918 dedup_hits=110996"),
            "{out}"
        );
    }

    #[test]
    fn flows_analyzes_specs() {
        let fig3 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.ccsql");
        let out = run(&["flows".to_string(), fig3.to_string()]).unwrap();
        assert!(out.contains("deadlock-free for every N"), "{out}");
        // The seeded Figure-4 fixture is rejected with CCL031 naming the
        // VC2/VC4 cycle, at every node count.
        let bug = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/fig3_flowbug.ccsql"
        );
        let err = run(&["flows".to_string(), bug.to_string()]).unwrap_err();
        assert!(err.contains("CCL031"), "{err}");
        assert!(err.contains("VC2") && err.contains("VC4"), "{err}");
        assert!(err.contains("every N>=2"), "{err}");
        // JSON mode: one well-formed value, byte-identical across runs.
        let j1 = run(&["flows".to_string(), bug.to_string(), "--json".to_string()]).unwrap_err();
        let j2 = run(&["flows".to_string(), bug.to_string(), "--json".to_string()]).unwrap_err();
        assert_eq!(j1, j2, "flows --json must be deterministic");
        json_check::parse(&j1).unwrap_or_else(|e| panic!("bad JSON ({e}): {j1}"));
        assert!(j1.contains("\"deadlock_free_all_n\":false"), "{j1}");
        let dot = run(&["flows".to_string(), bug.to_string(), "--dot".to_string()]).unwrap_err();
        assert!(dot.starts_with("digraph flows {"), "{dot}");
        assert!(run(&argv("flows")).is_err());
        assert!(run(&argv("flows --protocol --assignment bogus")).is_err());
        // A role-less `flow` directive is an input error, not a guess.
        let roleless = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3_buggy.ccsql");
        let err = run(&["flows".to_string(), roleless.to_string()]).unwrap_err();
        assert!(err.contains("no role-tagged flow columns"), "{err}");
    }

    #[test]
    fn flows_protocol_verdict_tracks_assignment() {
        let clean = run(&argv("flows --protocol --assignment v2")).unwrap();
        assert!(clean.contains("deadlock-free for every N"), "{clean}");
        let err = run(&argv("flows --protocol --assignment v1")).unwrap_err();
        assert!(err.contains("CCL031"), "{err}");
        assert!(err.contains("every N>=2"), "{err}");
    }

    #[test]
    fn deadlock_json_carries_cycle_witnesses() {
        let err = run(&argv("deadlock --assignment v1 --json")).unwrap_err();
        json_check::parse(&err).unwrap_or_else(|e| panic!("bad JSON ({e})"));
        // Every cycle edge names the dependency-table row realising it.
        assert!(err.contains("\"witness\":{\"index\":"), "{err}");
        assert!(err.contains("\"provenance\":{\"kind\":"), "{err}");
        assert!(err.contains("\"deadlock_free\":false"), "{err}");
        // The flows pre-pass verdict is grafted in by default…
        assert!(err.contains("\"flows\":{"), "{err}");
        let ok = run(&argv("deadlock --assignment v2 --json")).unwrap();
        json_check::parse(&ok).unwrap_or_else(|e| panic!("bad JSON ({e})"));
        assert!(ok.contains("\"deadlock_free\":true"), "{ok}");
        // …and dropped with --no-flows.
        let bare = run(&argv("deadlock --assignment v2 --json --no-flows")).unwrap();
        assert!(!bare.contains("\"flows\""), "{bare}");
        let human = run(&argv("deadlock --assignment v2")).unwrap();
        assert!(human.contains("flow pre-pass:"), "{human}");
    }

    /// Minimal JSON validator: checks the whole document is one
    /// well-formed value (the `--json` reports must stay machine-readable).
    mod json_check {
        pub fn parse(s: &str) -> Result<(), String> {
            let b = s.as_bytes();
            let i = value(b, ws(b, 0))?;
            if ws(b, i) == b.len() {
                Ok(())
            } else {
                Err(format!("trailing bytes at {i}"))
            }
        }
        fn ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Result<usize, String> {
            match b.get(i) {
                Some(b'{') => composite(b, i, b'}', true),
                Some(b'[') => composite(b, i, b']', false),
                Some(b'"') => string(b, i),
                Some(b't') => literal(b, i, "true"),
                Some(b'f') => literal(b, i, "false"),
                Some(b'n') => literal(b, i, "null"),
                Some(_) => number(b, i),
                None => Err("unexpected end of input".into()),
            }
        }
        fn composite(b: &[u8], i: usize, close: u8, keyed: bool) -> Result<usize, String> {
            let mut i = ws(b, i + 1);
            if b.get(i) == Some(&close) {
                return Ok(i + 1);
            }
            loop {
                if keyed {
                    i = ws(b, string(b, i)?);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i += 1;
                }
                i = ws(b, value(b, ws(b, i))?);
                match b.get(i) {
                    Some(b',') => i = ws(b, i + 1),
                    Some(&c) if c == close => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or close at {i}")),
                }
            }
        }
        fn string(b: &[u8], i: usize) -> Result<usize, String> {
            if b.get(i) != Some(&b'"') {
                return Err(format!("expected string at {i}"));
            }
            let mut i = i + 1;
            while let Some(&c) = b.get(i) {
                match c {
                    b'"' => return Ok(i + 1),
                    b'\\' => i += 2,
                    _ => i += 1,
                }
            }
            Err("unterminated string".into())
        }
        fn literal(b: &[u8], i: usize, lit: &str) -> Result<usize, String> {
            if b[i..].starts_with(lit.as_bytes()) {
                Ok(i + lit.len())
            } else {
                Err(format!("bad literal at {i}"))
            }
        }
        fn number(b: &[u8], i: usize) -> Result<usize, String> {
            let start = i;
            let mut i = i;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            if i == start {
                return Err(format!("expected a value at {i}"));
            }
            std::str::from_utf8(&b[start..i])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(|_| i)
                .ok_or_else(|| format!("bad number at {start}"))
        }
    }

    #[test]
    fn mc_accepts_threads() {
        let out = run(&argv("mc --nodes 2 --quota 1 --threads 2")).unwrap();
        assert!(out.contains("2 thread(s)"), "{out}");
        assert!(run(&argv("mc --threads abc")).is_err());
        let err = run(&argv("mc --nodes 2 --threads")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    /// Heartbeats must never change a result byte: the ticker only
    /// *reads* the flight recorder, and writes only to stderr — stdout
    /// is compared byte for byte here, at both thread counts for mc,
    /// for a spec machine, for the zoo and across seeds for fuzz.
    #[test]
    fn heartbeat_is_result_neutral() {
        // The mc report's only nondeterministic bytes are the elapsed
        // wall-clock on the "N thread(s), <time>" line; blank that one
        // token and byte-compare the rest.
        let normalize = |s: String| -> String {
            s.lines()
                .map(|l| match l.find("thread(s), ") {
                    Some(i) => format!("{}<wallclock>", &l[..i + "thread(s), ".len()]),
                    None => l.to_string(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        for t in ["1", "2"] {
            let cmd = format!("mc --nodes 3 --quota 1 --threads {t}");
            let base = normalize(run(&argv(&cmd)).unwrap());
            let hb = normalize(run(&argv(&format!("{cmd} --heartbeat=1"))).unwrap());
            assert_eq!(base, hb, "heartbeat changed mc output at {t} thread(s)");
        }
        let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        for cmd in [
            format!("mc --spec {} --nodes 3", zoo_spec("phase_priority")),
            format!("zoo {specs} --quick"),
        ] {
            let base = run(&argv(&cmd)).unwrap();
            let hb = run(&argv(&format!("{cmd} --heartbeat=1"))).unwrap();
            assert_eq!(base, hb, "heartbeat changed the output of {cmd}");
        }
        for seed in ["1", "2"] {
            let cmd = format!("fuzz --quick --seed {seed}");
            let base = run(&argv(&cmd)).unwrap();
            let hb = run(&argv(&format!("{cmd} --heartbeat=1"))).unwrap();
            assert_eq!(base, hb, "heartbeat changed fuzz output for seed {seed}");
        }
    }

    /// Pull `"key":N` out of one serialized trace event.
    fn event_num(chunk: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\":");
        let at = chunk
            .find(&pat)
            .unwrap_or_else(|| panic!("no {key} in {chunk}"))
            + pat.len();
        chunk[at..]
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
    }

    #[test]
    fn stats_writes_valid_perfetto_trace() {
        let tmp = std::env::temp_dir();
        let trace = tmp.join("ccsql_stats_test.trace.json");
        let out = run(&[
            "--trace-out".into(),
            trace.display().to_string(),
            "stats".into(),
        ])
        .unwrap();
        assert!(out.contains("=== spans ==="), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        json_check::parse(&text).unwrap_or_else(|e| panic!("trace is not JSON: {e}"));
        for stage in ["solve", "depend", "flows", "mc", "sim"] {
            assert!(
                text.contains(&format!("\"cat\":\"{stage}\"")),
                "no {stage} span in trace"
            );
        }
        // Timestamps are non-decreasing in file order (spans are appended
        // at begin time under one lock), and "X" events nest properly on
        // each thread track: a span never outlives its enclosing span.
        let mut last_ts = 0u64;
        let mut stacks: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for chunk in text.split("{\"ph\":\"X\"").skip(1) {
            let (tid, ts, dur) = (
                event_num(chunk, "tid"),
                event_num(chunk, "ts"),
                event_num(chunk, "dur"),
            );
            assert!(ts >= last_ts, "ts went backwards: {ts} < {last_ts}");
            last_ts = ts;
            let stack = stacks.entry(tid).or_default();
            while stack.last().is_some_and(|&end| end <= ts) {
                stack.pop();
            }
            if let Some(&end) = stack.last() {
                assert!(
                    ts + dur <= end,
                    "span [{ts},{}] escapes [..,{end}]",
                    ts + dur
                );
            }
            stack.push(ts + dur);
        }
        // The stage spans carry the counters the stages report.
        let mc = ["\"orbit_states\":", "\"dedup_hits\":", "\"depth\":"];
        assert!(has_span(&text, "\"cat\":\"mc\",\"name\":\"explore\"", &mc));
        let sim = ["\"retries\":", "\"msgs\":"];
        assert!(has_span(&text, "\"cat\":\"sim\",\"name\":\"run\"", &sim));
        let _ = std::fs::remove_file(&trace);
        // `lint --protocol` splits each controller's lint time into its
        // expression and coverage halves.
        let lint_trace = tmp.join("ccsql_lint_protocol_test.trace.json");
        run(&[
            "--trace-out".into(),
            lint_trace.display().to_string(),
            "lint".into(),
            "--protocol".into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&lint_trace).unwrap();
        json_check::parse(&text).unwrap_or_else(|e| panic!("trace is not JSON: {e}"));
        for name in ["exprs", "coverage"] {
            assert!(
                text.contains(&format!("\"cat\":\"lint\",\"name\":\"{name}\"")),
                "no lint/{name} span in the lint --protocol trace"
            );
        }
        let _ = std::fs::remove_file(&lint_trace);
        // Bad flag forms are rejected up front.
        assert!(run(&argv("sim --trace-out")).is_err());
        assert!(run(&argv("sim --trace-out --seed 1")).is_err());
        assert!(run(&argv("sim --trace-out=")).is_err());
        assert!(run(&argv("sim --heartbeat=abc")).is_err());
        let err = run(&argv("profile specs/fig3.ccsql")).unwrap_err();
        assert!(err.contains("unknown command \"profile\""), "{err}");
    }

    /// Does some serialized trace event contain `span` (a
    /// `"cat":…,"name":…` pair) and every one of `args`? The recorder
    /// is process-wide, so the trace may hold other tests' spans too.
    fn has_span(trace: &str, span: &str, args: &[&str]) -> bool {
        trace
            .split("{\"ph\":\"X\"")
            .any(|e| e.contains(span) && args.iter().all(|a| e.contains(a)))
    }

    /// Long-running subcommands leave their counters on their spans:
    /// fuzz per round, lint per entry point.
    #[test]
    fn trace_out_carries_fuzz_and_lint_counters() {
        let tmp = std::env::temp_dir();
        let p = tmp.join("ccsql_trace_fuzz.json");
        let mut args = vec!["--trace-out".into(), p.display().to_string()];
        args.extend(argv("fuzz --quick --seed 1"));
        run(&args).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let round = ["\"new_rows\":", "\"rows_covered\":", "\"faults_injected\":"];
        assert!(has_span(
            &text,
            "\"cat\":\"fuzz\",\"name\":\"round\"",
            &round
        ));
        let _ = std::fs::remove_file(&p);

        let p = tmp.join("ccsql_trace_lint.json");
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.ccsql");
        let args = vec![
            "--trace-out".into(),
            p.display().to_string(),
            "lint".into(),
            spec.into(),
        ];
        run(&args).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let lint = ["\"errors\":0", "\"warnings\":0", "\"infos\":"];
        assert!(has_span(
            &text,
            "\"cat\":\"lint\",\"name\":\"specfiles\"",
            &lint
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn zoo_emits_the_verdict_matrix_and_validates_flags() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let out = run(&argv(&format!("zoo {dir} --quick"))).unwrap();
        assert!(out.contains("expectations met"), "{out}");
        for stage in ["lint", "solve", "flows", "specmc", "specsim"] {
            assert!(out.contains(&format!("\"stage\":\"{stage}\"")), "{out}");
        }
        // Summary counts agree with the fixture layout under specs/.
        assert!(out.contains("7 pack(s) (3 clean, 4 seeded-bug)"), "{out}");
        // A value flag before DIR takes its value with it.
        let shards = run(&argv(&format!("zoo --shards 4 {dir} --quick"))).unwrap();
        assert_eq!(shards, out);
        assert!(run(&argv("zoo /nonexistent-zoo-dir")).is_err());
        assert!(run(&argv(&format!("zoo {dir} --assignment bogus"))).is_err());
        // A directory with no spec packs is an error, not an empty pass.
        let empty = std::env::temp_dir().join("ccsql_zoo_empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&["zoo".into(), empty.display().to_string()]).unwrap_err();
        assert!(err.contains("no .ccsql spec packs"), "{err}");
        let _ = std::fs::remove_dir(&empty);
    }

    #[test]
    fn zoo_fails_a_clean_pack_whose_machine_does_not_build() {
        // A lint-clean pack with 130 request kinds: its agent lanes
        // cannot encode them, so the machine stages fail, naming why.
        let reqs: Vec<String> = (0..130).map(|k| format!("r{k}")).collect();
        let reqs = reqs.join(", ");
        let pack = format!(
            "table Ping\ninput inmsg = {reqs}, data\ninput insrc = local, home\n\
             input st = I, B\noutput locmsg = data, NULL\noutput memmsg = mread, NULL\n\
             output nxtst = DONE, B\n\
             flow inmsg(insrc, home), locmsg(home, local), memmsg(home, home)\n\
             extern send {reqs}, data\nextern recv data, mread\n\
             machine st = nxtst, init I, stable I, map DONE -> init\n\
             constrain insrc: inmsg = data ? insrc = home : insrc = local\n\
             constrain st: inmsg = data ? st = B : st = I\n\
             constrain locmsg: inmsg = data ? locmsg = data : locmsg = NULL\n\
             constrain memmsg: inmsg = data ? memmsg = NULL : memmsg = mread\n\
             constrain nxtst: inmsg = data ? nxtst = DONE : nxtst = B\n"
        );
        let dir = std::env::temp_dir().join(format!("ccsql_zoo_lanes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ping.ccsql"), pack).unwrap();
        let err = run(&["zoo".into(), dir.display().to_string(), "--quick".into()]).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            err.contains("\"stage\":\"lint\",\"verdict\":\"pass\""),
            "{err}"
        );
        for stage in ["specmc", "specsim"] {
            assert!(
                err.contains(&format!(
                    "\"stage\":\"{stage}\",\"verdict\":\"fail\",\"detail\":\"machine does \
                     not build: 130 request kind(s)"
                )),
                "{err}"
            );
        }
        assert!(
            err.contains("ping: clean pack failed specmc, specsim"),
            "{err}"
        );
    }

    #[test]
    fn zoo_solves_each_pack_once_compiled() {
        // The lint's table is the solve stage's compiled side and the
        // flows stage's input; only the interpreted oracle solves again.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let out = run(&argv(&format!("stats zoo {dir} --quick"))).unwrap();
        let solves = out.lines().filter(|l| l.starts_with("solve/Fig3 ms="));
        assert_eq!(solves.count(), 2, "{out}");
    }

    #[test]
    fn spec_mc_flag_verifies_packs_and_rejects_unanimatable_ones() {
        let spec = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/phase_priority.ccsql"
        );
        let out = run(&argv(&format!("mc --spec {spec}"))).unwrap();
        assert!(out.contains("specmc: verified"), "{out}");
        let json = run(&argv(&format!("mc --spec {spec} --json"))).unwrap();
        assert!(json.contains("\"verdict\":\"verified\""), "{json}");
        json_check::parse(&json).unwrap_or_else(|e| panic!("bad JSON ({e}): {json}"));
        assert!(run(&argv("mc --spec /nonexistent.ccsql")).is_err());
        // More agents than a state word holds is an error naming the
        // limit, not a panic inside the engine.
        let fig3 = zoo_spec("fig3");
        let err = run(&argv(&format!("mc --spec {fig3} --nodes 40"))).unwrap_err();
        assert!(
            err.contains("--nodes 40") && err.contains("at most"),
            "{err}"
        );
        // So are zero agents.
        let err = run(&argv(&format!("mc --spec {fig3} --nodes 0"))).unwrap_err();
        assert!(err.contains("--nodes must be at least 1"), "{err}");
        // fig3_buggy carries no operational directives (and a broken
        // table): it cannot be animated as a machine.
        let buggy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3_buggy.ccsql");
        assert!(run(&argv(&format!("mc --spec {buggy}"))).is_err());
    }

    #[test]
    fn spec_sim_flag_walks_a_pack_and_reports_completions() {
        let spec = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../specs/bedrock_moesif.ccsql"
        );
        let out = run(&argv(&format!("sim --spec {spec} --seed 3 --ops 500"))).unwrap();
        assert!(out.contains("completion(s)"), "{out}");
        assert!(!out.contains("STUCK"), "{out}");
        assert!(run(&argv("sim --spec /nonexistent.ccsql")).is_err());
        let err = run(&argv(&format!("sim --spec {spec} --nodes 0"))).unwrap_err();
        assert!(err.contains("--nodes must be at least 1"), "{err}");
    }

    #[test]
    fn every_spec_command_names_the_file_in_a_parse_error() {
        let path = temp_spec(
            &format!("ccsql_two_tables_{}.ccsql", std::process::id()),
            "table A\ntable B\ninput a = x\n",
        );
        let want = format!("{path}: parse error at 2:1: duplicate `table` directive");
        for cmd in ["lint", "solve", "flows", "mc --spec", "sim --spec"] {
            let err = run(&argv(&format!("{cmd} {path}"))).unwrap_err();
            assert_eq!(err, want, "{cmd}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A spec exploration publishes its run totals on one `mc/explore`
    /// span, as the builtin one does.
    #[test]
    fn stats_mc_spec_prints_the_exploration_totals() {
        let out = run(&argv(&format!("stats mc --spec {}", zoo_spec("fig3")))).unwrap();
        let explore: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("mc/explore "))
            .collect();
        assert_eq!(explore.len(), 1, "{out}");
        assert!(explore[0].contains(" agents=2 states=15 "), "{out}");
        assert!(explore[0].ends_with(" outcome=verified"), "{out}");
    }

    /// Absolute path of a zoo spec pack.
    fn zoo_spec(name: &str) -> String {
        format!("{}/../../specs/{name}.ccsql", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn flows_dot_renders_every_zoo_protocol_deterministically() {
        for name in ["fig3", "bedrock_moesif", "phase_priority"] {
            let args = ["flows".to_string(), zoo_spec(name), "--dot".to_string()];
            let dot = run(&args).unwrap_or_else(|e| panic!("flows --dot {name}: {e}"));
            assert!(dot.starts_with("digraph flows {"), "{name}: {dot}");
            assert!(dot.trim_end().ends_with('}'), "{name}: {dot}");
            assert_eq!(
                dot,
                run(&args).unwrap(),
                "{name}: --dot must be deterministic"
            );
        }
    }

    #[test]
    fn query_runs_sql() {
        let out = run(&[
            "query".to_string(),
            "select count(*) from D where isrequest(inmsg)".to_string(),
        ])
        .unwrap();
        assert!(out.contains("count"));
        assert!(run(&argv("query")).is_err());
        assert!(run(&["query".to_string(), "selec bogus".to_string()]).is_err());
    }
}
