//! Human-readable deadlock reports: reconstruct a Figure-4-style
//! narrative from the cycle witnesses of the dependency analysis.

use crate::depend::{DependencyTable, MatchMode, Provenance};
use crate::gen::GeneratedProtocol;
use crate::vcg::{Cycle, Vcg};

/// A full deadlock-analysis report for one virtual-channel assignment.
pub struct DeadlockReport {
    /// The assignment name (`V0`, `V1`, `V2`).
    pub assignment: &'static str,
    /// Total dependency rows analysed.
    pub dependency_rows: usize,
    /// Channels in the VCG.
    pub channels: Vec<String>,
    /// VCG edges as `(from, to)` strings.
    pub edges: Vec<(String, String)>,
    /// The cycles found (one per non-trivial strongly connected
    /// component).
    pub cycles: Vec<Cycle>,
    /// Distinct *simple* cycles (enumerated up to a cap of 32) — the
    /// paper's "several cycles leading to deadlocks".
    pub simple_cycles: usize,
    /// True when the simple-cycle enumeration hit its cap, i.e. the
    /// count above is a lower bound rather than an exact figure.
    pub simple_cycles_truncated: bool,
    /// Rendered narratives, one per cycle.
    pub narratives: Vec<String>,
}

/// Analyse a dependency table and narrate every cycle.
pub fn deadlock_report(
    gen: &GeneratedProtocol,
    assignment: &'static str,
    table: &DependencyTable,
) -> DeadlockReport {
    const SIMPLE_CYCLE_CAP: usize = 32;
    let vcg = Vcg::build(table);
    let cycles = vcg.cycles();
    let narratives = cycles
        .iter()
        .map(|c| narrate_cycle(gen, table, c))
        .collect();
    // Probe one past the cap so truncation is detectable rather than
    // silently reported as an exact count.
    let enumerated = vcg.simple_cycles(SIMPLE_CYCLE_CAP + 1).len();
    let simple_cycles_truncated = enumerated > SIMPLE_CYCLE_CAP;
    DeadlockReport {
        assignment,
        simple_cycles: enumerated.min(SIMPLE_CYCLE_CAP),
        simple_cycles_truncated,
        dependency_rows: table.rows.len(),
        channels: vcg.channels().iter().map(|c| c.to_string()).collect(),
        edges: vcg
            .edges()
            .iter()
            .map(|e| (e.from.to_string(), e.to.to_string()))
            .collect(),
        cycles,
        narratives,
    }
}

/// Render one cycle in the style of the paper's Figure-4 analysis:
/// the channel cycle, the dependency rows realising each edge, and the
/// underlying controller-table rows.
pub fn narrate_cycle(gen: &GeneratedProtocol, table: &DependencyTable, cycle: &Cycle) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let chain: Vec<&str> = cycle.channels.iter().map(|c| c.as_str()).collect();
    writeln!(
        s,
        "POTENTIAL DEADLOCK: cyclic dependency involving channel(s) {}",
        chain.join(", ")
    )
    .unwrap();
    for e in &cycle.edges {
        let row = &table.rows[e.witness];
        writeln!(
            s,
            "  {} -> {}: ({}, {}, {}, {}) depends on ({}, {}, {}, {})  [placement {}]",
            e.from,
            e.to,
            row.input.msg,
            row.input.src,
            row.input.dest,
            row.input.vc,
            row.output.msg,
            row.output.src,
            row.output.dest,
            row.output.vc,
            row.placement.notation(),
        )
        .unwrap();
        match row.provenance {
            Provenance::Direct { controller, row: r } => {
                writeln!(
                    s,
                    "      direct from controller table {controller}, row {r}"
                )
                .unwrap();
                if let Some(desc) = describe_controller_row(gen, controller.as_str(), r) {
                    writeln!(s, "        {desc}").unwrap();
                }
            }
            Provenance::Composed { mode, .. } => {
                let wits = table.direct_witnesses(e.witness);
                let mode = match mode {
                    MatchMode::Exact => "exact match",
                    MatchMode::IgnoreMessages => "ignoring messages",
                };
                writeln!(s, "      composed ({mode}) from:").unwrap();
                for (c, r) in wits {
                    if let Some(desc) = describe_controller_row(gen, c.as_str(), r) {
                        writeln!(s, "        {c}[{r}]: {desc}").unwrap();
                    }
                }
            }
        }
    }
    s
}

/// One-line description of a controller-table row (its message flow).
fn describe_controller_row(
    gen: &GeneratedProtocol,
    controller: &str,
    row: usize,
) -> Option<String> {
    let ctrl = gen.controller(controller)?;
    let table = gen.table(controller).ok()?;
    if row >= table.len() {
        return None;
    }
    let r = table.row(row);
    let schema = table.schema();
    let mut parts = Vec::new();
    for t in &ctrl.input_triples {
        let m = r[schema.index_of_str(t.msg)?];
        if !m.is_null() {
            parts.push(format!(
                "in {}({}→{})",
                m,
                r[schema.index_of_str(t.src)?],
                r[schema.index_of_str(t.dest)?]
            ));
        }
    }
    for t in &ctrl.output_triples {
        let m = r[schema.index_of_str(t.msg)?];
        if !m.is_null() {
            parts.push(format!(
                "out {}({}→{})",
                m,
                r[schema.index_of_str(t.src)?],
                r[schema.index_of_str(t.dest)?]
            ));
        }
    }
    Some(parts.join(", "))
}

impl DeadlockReport {
    /// Render the report as one canonical JSON object (trailing
    /// newline), carrying for every edge of every cycle the full
    /// witness dependency-table row — assignments, placement, and
    /// provenance down to the controller-table rows that realise it.
    pub fn render_json(&self, table: &DependencyTable) -> String {
        use ccsql_obs::json::JsonObj;
        let strs = |xs: &[String]| -> String {
            let mut s = String::from("[");
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                ccsql_obs::json::write_json_str(&mut s, x);
            }
            s.push(']');
            s
        };
        let assign = |a: &crate::depend::Assignment| -> String {
            JsonObj::new()
                .str("msg", a.msg.as_str())
                .str("src", a.src.as_str())
                .str("dest", a.dest.as_str())
                .str("vc", a.vc.as_str())
                .finish()
        };
        let witness = |i: usize| -> String {
            let row = &table.rows[i];
            let prov = match row.provenance {
                Provenance::Direct { controller, row } => JsonObj::new()
                    .str("kind", "direct")
                    .str("controller", controller.as_str())
                    .u64("row", row as u64)
                    .finish(),
                Provenance::Composed { left, right, mode } => {
                    let mut wits = String::from("[");
                    for (wi, (c, r)) in table.direct_witnesses(i).into_iter().enumerate() {
                        if wi > 0 {
                            wits.push(',');
                        }
                        wits.push_str(
                            &JsonObj::new()
                                .str("controller", c.as_str())
                                .u64("row", r as u64)
                                .finish(),
                        );
                    }
                    wits.push(']');
                    JsonObj::new()
                        .str("kind", "composed")
                        .str(
                            "mode",
                            match mode {
                                MatchMode::Exact => "exact",
                                MatchMode::IgnoreMessages => "ignore_messages",
                            },
                        )
                        .u64("left", left as u64)
                        .u64("right", right as u64)
                        .raw("direct_witnesses", &wits)
                        .finish()
                }
            };
            JsonObj::new()
                .u64("index", i as u64)
                .raw("input", &assign(&row.input))
                .raw("output", &assign(&row.output))
                .str("placement", row.placement.notation())
                .raw("provenance", &prov)
                .finish()
        };
        let mut cycles = String::from("[");
        for (ci, c) in self.cycles.iter().enumerate() {
            if ci > 0 {
                cycles.push(',');
            }
            let chans: Vec<String> = c.channels.iter().map(|x| x.to_string()).collect();
            let mut edges = String::from("[");
            for (ei, e) in c.edges.iter().enumerate() {
                if ei > 0 {
                    edges.push(',');
                }
                edges.push_str(
                    &JsonObj::new()
                        .str("from", e.from.as_str())
                        .str("to", e.to.as_str())
                        .raw("witness", &witness(e.witness))
                        .finish(),
                );
            }
            edges.push(']');
            cycles.push_str(
                &JsonObj::new()
                    .raw("channels", &strs(&chans))
                    .raw("edges", &edges)
                    .finish(),
            );
        }
        cycles.push(']');
        let mut edges = String::from("[");
        for (i, (from, to)) in self.edges.iter().enumerate() {
            if i > 0 {
                edges.push(',');
            }
            edges.push_str(&JsonObj::new().str("from", from).str("to", to).finish());
        }
        edges.push(']');
        let mut out = JsonObj::new()
            .str("kind", "deadlock")
            .str("assignment", self.assignment)
            .u64("dependency_rows", self.dependency_rows as u64)
            .raw("channels", &strs(&self.channels))
            .raw("edges", &edges)
            .raw("cycles", &cycles)
            .u64("simple_cycles", self.simple_cycles as u64)
            .raw(
                "simple_cycles_truncated",
                if self.simple_cycles_truncated {
                    "true"
                } else {
                    "false"
                },
            )
            .raw(
                "deadlock_free",
                if self.cycles.is_empty() {
                    "true"
                } else {
                    "false"
                },
            )
            .finish();
        out.push('\n');
        out
    }

    /// Render the whole report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "=== Deadlock analysis for assignment {} ===",
            self.assignment
        )
        .unwrap();
        writeln!(
            s,
            "protocol dependency table: {} rows; VCG: {} channels, {} edges",
            self.dependency_rows,
            self.channels.len(),
            self.edges.len()
        )
        .unwrap();
        if self.cycles.is_empty() {
            writeln!(s, "no cycles: absence of deadlocks established").unwrap();
        } else {
            writeln!(
                s,
                "{} cyclic component(s), {}{} distinct simple cycle(s):",
                self.cycles.len(),
                if self.simple_cycles_truncated {
                    "≥"
                } else {
                    ""
                },
                self.simple_cycles
            )
            .unwrap();
            for n in &self.narratives {
                s.push_str(n);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::{protocol_dependency_table, AnalysisConfig};
    use crate::vc::VcAssignment;
    use std::sync::OnceLock;

    fn generated() -> &'static GeneratedProtocol {
        static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
        GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
    }

    #[test]
    fn v1_report_mentions_vc2_vc4() {
        let g = generated();
        let t =
            protocol_dependency_table(g, &VcAssignment::v1(), &AnalysisConfig::default()).unwrap();
        let rep = deadlock_report(g, "V1", &t);
        assert!(!rep.cycles.is_empty());
        let rendered = rep.render();
        assert!(rendered.contains("VC2"));
        assert!(rendered.contains("VC4"));
        assert!(rendered.contains("POTENTIAL DEADLOCK"));
    }

    #[test]
    fn v1_json_report_carries_edge_witnesses() {
        let g = generated();
        let t =
            protocol_dependency_table(g, &VcAssignment::v1(), &AnalysisConfig::default()).unwrap();
        let rep = deadlock_report(g, "V1", &t);
        let json = rep.render_json(&t);
        assert_eq!(json, rep.render_json(&t), "byte-identical across renders");
        assert!(json.ends_with('\n'));
        assert!(json.contains(r#""kind":"deadlock""#));
        assert!(json.contains(r#""deadlock_free":false"#));
        // Every cycle edge names its witness row with full provenance.
        assert!(json.contains(r#""witness":{"index":"#));
        assert!(json.contains(r#""placement":"#));
        assert!(json.contains(r#""kind":"direct""#) || json.contains(r#""kind":"composed""#));
    }

    #[test]
    fn v2_report_is_clean() {
        let g = generated();
        let t =
            protocol_dependency_table(g, &VcAssignment::v2(), &AnalysisConfig::default()).unwrap();
        let rep = deadlock_report(g, "V2", &t);
        assert!(rep.cycles.is_empty(), "cycles: {:?}", rep.render());
        assert!(rep.render().contains("absence of deadlocks"));
    }
}
