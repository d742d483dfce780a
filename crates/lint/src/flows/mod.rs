//! Parameterized deadlock-freedom via flow composition
//! (Sethi/Talupur/Malik, over the paper's `V(m,s,d,v)` machinery).
//!
//! Pipeline, all deterministic:
//!
//! 1. [`model`] — reduce solved controller tables to a [`FlowUniverse`]
//!    of accept/emit triples with their virtual channels;
//! 2. [`extract`] — recover per-transaction *flows* (BFS trees rooted
//!    at environment-injected triples) and flag rows no flow covers
//!    (CCL030);
//! 3. [`graph`] — build the flow-waits-for graph over `(flow, step,
//!    VC)` nodes and find wait-cycles symbolically in the node count;
//! 4. [`xcheck`] — build the concrete dependency table / VCG from the
//!    same rows with `ccsql::depend`'s own builder: corroborated cycles
//!    are parameterized deadlocks (CCL031), uncorroborated ones triage
//!    notes (CCL032).
//!
//! The result renders as human text, canonical JSON (byte-identical
//! across runs) or GraphViz DOT, and feeds a [`LintReport`].

pub mod extract;
pub mod graph;
pub mod model;
pub mod xcheck;

pub use extract::{Extraction, Flow, FlowStep};
pub use graph::{family_at, quads_needed, FlowCycle, Node, WaitGraph};
pub use model::{EnvSource, FlowAssign, FlowRow, FlowUniverse};
pub use xcheck::Concrete;

use crate::diag::{codes, Diagnostic, LintReport, Severity};
use ccsql::gen::GeneratedProtocol;
use ccsql::vc::VcAssignment;
use ccsql_obs::json::{write_json_str, JsonObj};
use ccsql_relalg::SpecFile;

/// The node counts the cross-validation sweeps (N = 2..=5).
pub const N_RANGE: std::ops::RangeInclusive<usize> = 2..=5;
/// Quads at which the placement family saturates (`L≠H≠R` needs 3).
pub const SATURATION_QUADS: usize = 3;
/// At most this many per-row CCL030 diagnostics; the rest aggregate.
const UNCOVERED_DIAG_CAP: usize = 16;

/// A wait-cycle with its concrete classification.
#[derive(Clone, Debug)]
pub struct ClassifiedCycle {
    /// The cycle as found in the waits-for graph.
    pub cycle: FlowCycle,
    /// Did the concrete VCG reproduce it? Corroborated cycles are
    /// CCL031 errors, the rest CCL032 notes.
    pub corroborated: bool,
}

/// The complete result of one flow analysis.
pub struct FlowsAnalysis {
    /// The universe analysed.
    pub universe: FlowUniverse,
    /// Extracted flows and coverage.
    pub extraction: Extraction,
    /// The waits-for graph (kept for DOT rendering).
    pub graph: WaitGraph,
    /// Rows no flow covers, ascending.
    pub uncovered: Vec<usize>,
    /// Wait-cycles, sorted by channel set.
    pub cycles: Vec<ClassifiedCycle>,
    /// Channel sets of the concrete VCG's cycles.
    pub vcg_cycles: Vec<Vec<String>>,
}

/// Analyse a parsed spec file: solve it (compiled constraint programs,
/// as everywhere), build the universe from its role-tagged `flow`
/// directives, run the pipeline.
pub fn analyze_specfile(sf: &SpecFile, v: &VcAssignment) -> Result<FlowsAnalysis, String> {
    let (rel, _) = ccsql_relalg::specfile::solve_specfile(sf)
        .map_err(|e| format!("cannot solve spec `{}`: {e}", sf.spec.name))?;
    let u = FlowUniverse::from_specfile(sf, &rel, v)?;
    Ok(analyze(u))
}

/// Analyse the generated built-in protocol under `v`.
pub fn analyze_protocol(
    gen: &GeneratedProtocol,
    v: &VcAssignment,
) -> Result<FlowsAnalysis, String> {
    let u = FlowUniverse::from_protocol(gen, v)?;
    Ok(analyze(u))
}

/// Run the pipeline over a prepared universe.
pub fn analyze(u: FlowUniverse) -> FlowsAnalysis {
    let fspan = ccsql_obs::flight::span("flows", "analyze");
    fspan.arg("universe", u.name.as_str());
    fspan.arg("assignment", u.assignment.as_str());
    let extraction = extract::extract(&u);
    let graph = WaitGraph::build(&u, &extraction);
    let flow_cycles = graph.cycles(&u, &extraction);
    let concrete = Concrete::build(&u);
    let cycles: Vec<ClassifiedCycle> = flow_cycles
        .into_iter()
        .map(|cycle| ClassifiedCycle {
            corroborated: concrete.corroborates(&cycle.channels),
            cycle,
        })
        .collect();
    let uncovered = extraction.uncovered();
    fspan.arg("cycles", cycles.len());
    fspan.arg("uncovered", uncovered.len());
    FlowsAnalysis {
        uncovered,
        cycles,
        vcg_cycles: concrete.cycle_channels,
        universe: u,
        extraction,
        graph,
    }
}

impl FlowsAnalysis {
    /// Can a corroborated wait-cycle close with `n` quads?
    pub fn deadlock_at(&self, n: usize) -> bool {
        self.cycles
            .iter()
            .any(|c| c.corroborated && c.cycle.min_nodes <= n)
    }

    /// Deadlock-free for *every* node count?
    pub fn deadlock_free_all_n(&self) -> bool {
        !self.cycles.iter().any(|c| c.corroborated)
    }

    /// Does the parameterized verdict agree with the concrete VCG?
    /// (Guaranteed when coverage is complete; see DESIGN.md §14.)
    pub fn agrees_with_vcg(&self) -> bool {
        self.deadlock_free_all_n() == self.vcg_cycles.is_empty()
    }

    /// Append CCL030/CCL031/CCL032 findings to a report.
    pub fn lint(&self, report: &mut LintReport) {
        for (i, &ri) in self.uncovered.iter().enumerate() {
            let row = &self.universe.rows[ri];
            if i == UNCOVERED_DIAG_CAP {
                report.push(Diagnostic::new(
                    codes::NO_FLOW_COVER,
                    Severity::Warn,
                    row.table.as_str(),
                    "",
                    format!(
                        "…and {} more rows without flow cover",
                        self.uncovered.len() - UNCOVERED_DIAG_CAP
                    ),
                ));
                break;
            }
            let accepts: Vec<String> = row.accepts.iter().map(FlowAssign::describe).collect();
            report.push(Diagnostic::new(
                codes::NO_FLOW_COVER,
                Severity::Warn,
                row.table.as_str(),
                "",
                format!(
                    "row {} (accepts {}) is reachable from no environment-initiated flow; \
                     the parameterized verdict cannot account for its waits",
                    row.row,
                    if accepts.is_empty() {
                        "nothing".to_string()
                    } else {
                        format!("`{}`", accepts.join("`, `"))
                    }
                ),
            ));
        }
        for c in &self.cycles {
            let (code, sev, tail) = if c.corroborated {
                (
                    codes::PARAM_WAIT_CYCLE,
                    Severity::Error,
                    format!(
                        "closes with {} concurrent transaction(s), so it holds for every N>={}",
                        c.cycle.min_nodes, c.cycle.min_nodes
                    ),
                )
            } else {
                (
                    codes::UNREALISABLE_FLOW_CYCLE,
                    Severity::Info,
                    "the concrete dependency table reproduces no such cycle".to_string(),
                )
            };
            report.push(Diagnostic::new(
                code,
                sev,
                &self.universe.name,
                "",
                format!(
                    "parameterized wait-cycle over {}: {}; {}",
                    c.cycle.channels.join("/"),
                    self.witness_chain(&c.cycle),
                    tail
                ),
            ));
        }
    }

    /// Human-readable witness chain of a cycle: flow/step/VC per node,
    /// placement per coupling.
    pub fn witness_chain(&self, c: &FlowCycle) -> String {
        let mut parts = Vec::new();
        let mut hub_no = 0usize;
        for &n in &c.path {
            match &self.graph.nodes[n] {
                Node::Accept { flow, step, vc } => {
                    let triple = self
                        .graph
                        .node_assign(&self.universe, &self.extraction, n)
                        .map(FlowAssign::describe)
                        .unwrap_or_default();
                    parts.push(format!(
                        "flow `{}` step {step} holds {vc} [{triple}]",
                        self.extraction.flows[*flow].name
                    ));
                }
                Node::Emit { vc, .. } => {
                    let triple = self
                        .graph
                        .node_assign(&self.universe, &self.extraction, n)
                        .map(FlowAssign::describe)
                        .unwrap_or_default();
                    parts.push(format!("needs {vc} [{triple}]"));
                }
                Node::Hub { vc } => {
                    let p = c.placements.get(hub_no).copied().unwrap_or("?");
                    hub_no += 1;
                    parts.push(format!("couples on {vc} under {p}"));
                }
            }
        }
        parts.join(" → ")
    }

    /// Human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Flow analysis: {} under {} ===\n",
            self.universe.name, self.universe.assignment
        ));
        out.push_str(&format!(
            "rows: {}, flows: {}, steps: {}, coverage: {}/{}\n",
            self.universe.rows.len(),
            self.extraction.flows.len(),
            self.extraction.step_count(),
            self.universe.rows.len() - self.uncovered.len(),
            self.universe.rows.len(),
        ));
        for f in &self.extraction.flows {
            out.push_str(&format!("  flow {} ({} step(s))\n", f.name, f.steps.len()));
        }
        out.push_str(&format!(
            "waits-for graph: {} node(s), {} edge(s)\n",
            self.graph.nodes.len(),
            self.graph.edge_count(),
        ));
        out.push_str(&format!(
            "concrete VCG (direct rows, all placements): {}\n",
            if self.vcg_cycles.is_empty() {
                "acyclic".to_string()
            } else {
                format!(
                    "cyclic ({})",
                    self.vcg_cycles
                        .iter()
                        .map(|c| c.join("/"))
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        ));
        for c in &self.cycles {
            out.push_str(&format!(
                "cycle over {}: couplings {}, min nodes {}, corroborated: {}\n",
                c.cycle.channels.join("/"),
                c.cycle.couplings,
                c.cycle.min_nodes,
                if c.corroborated { "yes" } else { "no" }
            ));
        }
        let verdicts: Vec<String> = N_RANGE
            .map(|n| {
                format!(
                    "N={n}: {}",
                    if self.deadlock_at(n) {
                        "deadlock"
                    } else {
                        "deadlock-free"
                    }
                )
            })
            .collect();
        out.push_str(&format!("per-N verdicts: {}\n", verdicts.join(", ")));
        out.push_str(&format!(
            "verdict: {} (placement family saturates at {SATURATION_QUADS} quads)\n",
            if self.deadlock_free_all_n() {
                "deadlock-free for every N".to_string()
            } else {
                let n = self
                    .cycles
                    .iter()
                    .filter(|c| c.corroborated)
                    .map(|c| c.cycle.min_nodes)
                    .min()
                    .unwrap_or(2);
                format!("parameterized deadlock for every N>={n}")
            }
        ));
        out
    }

    /// Canonical JSON rendering (single object, byte-identical across
    /// runs).
    pub fn render_json(&self) -> String {
        let arr = |items: Vec<String>| format!("[{}]", items.join(","));
        let str_arr = |items: &[String]| arr(items.iter().map(|s| json_str(s)).collect::<Vec<_>>());
        let node_json = |n: usize| -> String {
            match &self.graph.nodes[n] {
                Node::Accept { flow, step, vc } => JsonObj::new()
                    .str("kind", "accept")
                    .str("flow", &self.extraction.flows[*flow].name)
                    .u64("step", *step as u64)
                    .str("vc", vc)
                    .finish(),
                Node::Emit {
                    flow,
                    step,
                    emit,
                    vc,
                } => JsonObj::new()
                    .str("kind", "emit")
                    .str("flow", &self.extraction.flows[*flow].name)
                    .u64("step", *step as u64)
                    .u64("emit", *emit as u64)
                    .str("vc", vc)
                    .finish(),
                Node::Hub { vc } => JsonObj::new().str("kind", "hub").str("vc", vc).finish(),
            }
        };
        let cycles = arr(self
            .cycles
            .iter()
            .map(|c| {
                JsonObj::new()
                    .raw("channels", &str_arr(&c.cycle.channels))
                    .raw(
                        "path",
                        &arr(c.cycle.path.iter().map(|&n| node_json(n)).collect()),
                    )
                    .u64("couplings", c.cycle.couplings as u64)
                    .u64("min_nodes", c.cycle.min_nodes as u64)
                    .raw(
                        "placements",
                        &arr(c.cycle.placements.iter().map(|p| json_str(p)).collect()),
                    )
                    .raw(
                        "corroborated",
                        if c.corroborated { "true" } else { "false" },
                    )
                    .finish()
            })
            .collect());
        let flows = arr(self
            .extraction
            .flows
            .iter()
            .map(|f| {
                JsonObj::new()
                    .str("name", &f.name)
                    .u64("steps", f.steps.len() as u64)
                    .finish()
            })
            .collect());
        let verdicts = arr(N_RANGE
            .map(|n| {
                JsonObj::new()
                    .u64("n", n as u64)
                    .raw(
                        "deadlock",
                        if self.deadlock_at(n) { "true" } else { "false" },
                    )
                    .finish()
            })
            .collect());
        let mut out = JsonObj::new()
            .str("kind", "flows")
            .str("universe", &self.universe.name)
            .str("assignment", &self.universe.assignment)
            .u64("rows", self.universe.rows.len() as u64)
            .raw("flows", &flows)
            .u64("steps", self.extraction.step_count() as u64)
            .raw(
                "uncovered_rows",
                &arr(self.uncovered.iter().map(|r| r.to_string()).collect()),
            )
            .u64("graph_nodes", self.graph.nodes.len() as u64)
            .u64("graph_edges", self.graph.edge_count() as u64)
            .raw("cycles", &cycles)
            .raw(
                "vcg_cycles",
                &arr(self.vcg_cycles.iter().map(|c| str_arr(c)).collect()),
            )
            .raw("verdicts", &verdicts)
            .raw(
                "deadlock_free_all_n",
                if self.deadlock_free_all_n() {
                    "true"
                } else {
                    "false"
                },
            )
            .u64("saturation_quads", SATURATION_QUADS as u64)
            .finish();
        out.push('\n');
        out
    }

    /// GraphViz DOT rendering of the waits-for graph, cycles
    /// highlighted.
    pub fn render_dot(&self) -> String {
        let on_cycle: std::collections::HashSet<usize> = self
            .cycles
            .iter()
            .flat_map(|c| c.cycle.path.iter().copied())
            .collect();
        let mut out = String::from("digraph flows {\n  rankdir=LR;\n");
        for (i, n) in self.graph.nodes.iter().enumerate() {
            let (label, shape) = match n {
                Node::Accept { flow, step, vc } => (
                    format!("{}#{step}\\nholds {vc}", self.extraction.flows[*flow].name),
                    "ellipse",
                ),
                Node::Emit { flow, step, vc, .. } => (
                    format!("{}#{step}\\nneeds {vc}", self.extraction.flows[*flow].name),
                    "box",
                ),
                Node::Hub { vc } => (format!("hub {vc}"), "diamond"),
            };
            let color = if on_cycle.contains(&i) {
                " color=red"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{i} [label=\"{label}\" shape={shape}{color}];\n"
            ));
        }
        for e in self.graph.edge_list() {
            out.push_str(&format!("  n{} -> n{};\n", e.0, e.1));
        }
        out.push_str("}\n");
        out
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_relalg::parse_specfile;

    fn analyze_src(src: &str) -> FlowsAnalysis {
        let sf = parse_specfile(src).expect("spec parses");
        analyze_specfile(&sf, &VcAssignment::v1()).expect("universe builds")
    }

    // An acyclic request/response pair: accept a request on VC0, answer
    // on VC3 — no channel is ever waited on while held by its feeder.
    const CLEAN: &str = "table T\n\
        input req = readex\n\
        input src = local\n\
        output rsp = data, NULL\n\
        flow req(src, home), rsp(home, local)\n\
        extern send readex\n\
        extern recv data\n\
        constrain rsp: req = readex ? rsp = data : rsp = NULL\n";

    // The Figure-4 shape in two rows: hold idone (VC2) while needing
    // mread (VC4); hold wb (VC4) while needing compl (VC2).
    const CYCLIC: &str = "table T\n\
        input req = idone, wb\n\
        input src = remote, home\n\
        output mem = mread, NULL\n\
        output ack = compl, NULL\n\
        flow req(src, home), mem(home, home), ack(home, home)\n\
        extern send idone, wb\n\
        extern recv mread, compl\n\
        constrain src: req = idone ? src = remote : src = home\n\
        constrain mem: req = idone ? mem = mread : mem = NULL\n\
        constrain ack: req = wb ? ack = compl : ack = NULL\n";

    #[test]
    fn clean_spec_is_deadlock_free_at_every_n() {
        let a = analyze_src(CLEAN);
        assert!(a.uncovered.is_empty());
        assert!(a.cycles.is_empty());
        assert!(a.deadlock_free_all_n());
        assert!(a.agrees_with_vcg());
        for n in N_RANGE {
            assert!(!a.deadlock_at(n));
        }
        let mut report = LintReport::new();
        a.lint(&mut report);
        report.finish();
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn fig4_shape_is_flagged_at_every_n() {
        let a = analyze_src(CYCLIC);
        assert!(a.uncovered.is_empty());
        assert_eq!(a.cycles.len(), 1, "one VC2/VC4 cycle");
        let c = &a.cycles[0];
        assert!(c.corroborated);
        assert_eq!(c.cycle.channels, vec!["VC2".to_string(), "VC4".to_string()]);
        assert_eq!(c.cycle.min_nodes, 2);
        // The idone holder couples to the wb instance's compl only when
        // remote aliases home: the paper's L!=H=R placement.
        assert!(
            c.cycle.placements.contains(&"L!=H=R"),
            "{:?}",
            c.cycle.placements
        );
        assert!(a.agrees_with_vcg());
        for n in N_RANGE {
            assert!(a.deadlock_at(n), "deadlock must hold at N={n}");
        }
        let mut report = LintReport::new();
        a.lint(&mut report);
        report.finish();
        assert!(report.failed());
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, codes::PARAM_WAIT_CYCLE);
        assert!(
            d.message.contains("VC2") && d.message.contains("VC4"),
            "{}",
            d.message
        );
    }

    #[test]
    fn unreachable_row_reports_ccl030() {
        // Nothing sends `idone`: its rows are extracted by no flow.
        let src = CYCLIC.replace("extern send idone, wb\n", "extern send wb\n");
        let a = analyze_src(&src);
        assert_eq!(a.uncovered.len(), 1);
        // The missing row is exactly the VC2→VC4 half: without it the
        // flow graph loses the cycle while the concrete VCG keeps it —
        // the unsoundness CCL030 exists to flag.
        assert!(a.deadlock_free_all_n());
        assert!(!a.agrees_with_vcg());
        let mut report = LintReport::new();
        a.lint(&mut report);
        report.finish();
        assert_eq!(report.diagnostics()[0].code, codes::NO_FLOW_COVER);
    }

    #[test]
    fn uncorroborated_cycle_reports_ccl032_info() {
        // The corroboration invariant (every flow cycle is a closed walk
        // of the concrete VCG) makes CCL032 unreachable from real input;
        // exercise the reporting path directly.
        let mut a = analyze_src(CYCLIC);
        a.cycles[0].corroborated = false;
        let mut report = LintReport::new();
        a.lint(&mut report);
        report.finish();
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, codes::UNREALISABLE_FLOW_CYCLE);
        assert_eq!(d.severity, Severity::Info);
        assert!(!report.failed(), "info findings never fail the gate");
    }

    #[test]
    fn json_rendering_is_stable_and_wellformed() {
        let a1 = analyze_src(CYCLIC).render_json();
        let a2 = analyze_src(CYCLIC).render_json();
        assert_eq!(a1, a2, "byte-identical across runs");
        assert!(a1.contains("\"kind\":\"flows\""));
        assert!(a1.contains("\"deadlock_free_all_n\":false"));
        let dot = analyze_src(CYCLIC).render_dot();
        assert!(dot.starts_with("digraph flows {"));
        assert!(dot.contains("shape=diamond"));
    }

    #[test]
    fn placement_family_saturates_at_three_quads() {
        assert_eq!(family_at(2).len(), 4, "all but L!=H!=R");
        assert_eq!(family_at(3).len(), 5);
        assert_eq!(family_at(3), family_at(4));
        assert_eq!(family_at(4), family_at(5));
    }

    #[test]
    fn protocol_universe_builds_and_v2_is_clean() {
        let gen = GeneratedProtocol::generate_default().unwrap();
        let a = analyze_protocol(&gen, &VcAssignment::v2()).unwrap();
        // Full coverage: the `srdex` rows that used to sit dormant in R
        // (vestigial under `OwnerTransfer::ViaMemory`, CCL006) now exist
        // only in the Direct revision, so every row is flow-reachable.
        assert_eq!(a.uncovered.len(), 0, "uncovered: {:?}", a.uncovered);
        assert!(a.deadlock_free_all_n());
        assert!(a.agrees_with_vcg());
        let a1 = analyze_protocol(&gen, &VcAssignment::v1()).unwrap();
        assert!(!a1.deadlock_free_all_n(), "V1 has the Figure-4 cycle");
        assert!(a1.agrees_with_vcg());
    }
}
