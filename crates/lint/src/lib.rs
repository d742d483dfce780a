//! # `ccsql-lint` — static analysis of constraint specs
//!
//! The paper's thesis is *early* error detection: catching protocol
//! bugs from the table specifications, before simulation. This crate
//! lints parsed `.ccsql` specs and the built-in controller declarations
//! directly, before any check, simulation or model checking runs. Four
//! analysis families:
//!
//! 1. **Expression-level** ([`expr_lint`]): references to undeclared
//!    columns (CCL001), comparisons against values outside a column
//!    table (CCL002), unreachable ternary branches over the declared
//!    domains (CCL003), constraints forcing a column outside its own
//!    table (CCL004), and outputs whose every branch is `NULL` (CCL005).
//! 2. **Table-shape** ([`coverage`]): queries over the one solve of each
//!    table — legal inputs admitting no output row (CCL010,
//!    incompleteness) or two and more (CCL011, nondeterminism), and
//!    declared values no row carries (CCL006).
//! 3. **Message flow** ([`flow`]): emitted messages nothing accepts
//!    (CCL020), accepted messages nothing emits (CCL021), emitted
//!    triples without a virtual-channel assignment (CCL022) or without
//!    a role-compatible receiver (CCL023).
//! 4. **Flow composition** ([`flows`]): parameterized deadlock freedom
//!    over extracted per-transaction flows — rows no flow covers
//!    (CCL030), wait-cycles that hold for every node count (CCL031),
//!    and flow cycles the concrete analysis cannot realise (CCL032).
//!
//! Analyses that cannot run (domain over budget, a table the solver
//! rejects) report an informational CCL019 rather than guessing. All
//! findings flow into a [`LintReport`] with stable codes, severities,
//! source spans, and a deterministic order; rendering is human-readable
//! or JSONL (the `ccsql-obs` export idiom).

pub mod coverage;
pub mod diag;
pub mod expr_lint;
pub mod flow;
pub mod flows;

pub use diag::{codes, Diagnostic, LintReport, Severity};
pub use flow::{Boundary, BoundaryTriple, FlowModel, FlowPoint, ANY};
pub use flows::FlowsAnalysis;

use ccsql::vc::VcAssignment;
use ccsql_obs::flight::FlightSpan;
use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::expr::EvalContext;
use ccsql_relalg::solver::{ColumnRole, TableSpec};
use ccsql_relalg::{Relation, Span, SpecFile, Value};

/// Lint a single table spec (expression + coverage families) and return
/// its solved table, input columns first, or `None` when the solver
/// rejects it. `span_of` maps a column name to its constraint's source
/// span; pass `|_| Span::UNKNOWN` for built-in specs.
pub fn lint_table(
    spec: &TableSpec,
    ctx: &dyn EvalContext,
    span_of: &dyn Fn(&str) -> Span,
    report: &mut LintReport,
) -> Option<Relation> {
    {
        let fspan = ccsql_obs::flight::span("lint", "exprs");
        fspan.arg("table", spec.name.as_str());
        let assignments = expr_lint::lint_exprs(spec, ctx, span_of, report);
        fspan.arg("assignments", assignments);
    }
    let fspan = ccsql_obs::flight::span("lint", "coverage");
    fspan.arg("table", spec.name.as_str());
    let (legal_inputs, table) = coverage::lint_coverage(spec, ctx, span_of, report);
    fspan.arg("legal_inputs", legal_inputs);
    table
}

/// Lint one or more parsed spec files together: per-table analyses for
/// each, plus the message-flow checks across all of them using their
/// `flow` / `extern` directives. Role-level flow checks (CCL022 /
/// CCL023) run under [`ccsql::vc::VcAssignment::v1`] for flow columns
/// carrying role slots; use [`lint_specfiles_with`] to pick another
/// assignment.
pub fn lint_specfiles(files: &[&SpecFile], ctx: &dyn EvalContext) -> LintReport {
    lint_specfiles_with(files, ctx, &VcAssignment::v1()).0
}

/// [`lint_specfiles`] with an explicit virtual-channel assignment for
/// the role-level flow checks. Also returns each file's solved table
/// as [`lint_table`] does, so a caller can use the lint's one solve
/// instead of solving again.
pub fn lint_specfiles_with(
    files: &[&SpecFile],
    ctx: &dyn EvalContext,
    vc: &VcAssignment,
) -> (LintReport, Vec<Option<Relation>>) {
    let fspan = ccsql_obs::flight::span("lint", "specfiles");
    fspan.arg("files", files.len());
    let mut report = LintReport::new();
    let mut model = FlowModel::default();
    let mut any_roles = false;
    let mut tables = Vec::with_capacity(files.len());
    for f in files {
        let solved = lint_table(
            &f.spec,
            ctx,
            &|col| f.meta.constraint_span(col),
            &mut report,
        );
        any_roles |= spec_flow_points(f, solved.as_ref(), &mut model);
        model
            .boundary
            .send
            .extend(f.meta.extern_send.iter().map(|m| BoundaryTriple::name(m)));
        model
            .boundary
            .recv
            .extend(f.meta.extern_recv.iter().map(|m| BoundaryTriple::name(m)));
        tables.push(solved);
    }
    // The role-level checks only have work to do once some spec declared
    // role slots; without them every triple carries `"*"` roles.
    let vc = any_roles.then_some(vc);
    flow::lint_flow(&model, vc, &mut report);
    (finish(report, &fspan), tables)
}

/// Collect a spec file's accept/emit [`FlowPoint`]s into `model`.
/// Returns whether any flow column carried role slots. Role-tagged
/// columns are expanded from the `solved` table (one triple per
/// distinct row projection) so per-row role columns resolve to real
/// roles; role-less columns expand declaration-level with [`ANY`] roles
/// exactly as before. A spec that failed to solve (`None`) falls back
/// to declaration-level points; the coverage lint already reports why.
fn spec_flow_points(f: &SpecFile, solved: Option<&Relation>, model: &mut FlowModel) -> bool {
    use std::collections::BTreeSet;
    let has_roles = f
        .meta
        .flow_columns
        .iter()
        .any(|fc| fc.src.is_some() || fc.dest.is_some());
    let mut seen: BTreeSet<(bool, String, String, String)> = BTreeSet::new();
    for fc in &f.meta.flow_columns {
        let Some(col) = f
            .spec
            .columns
            .iter()
            .find(|c| c.name.as_str() == fc.column.as_str())
        else {
            continue; // parse_specfile already rejects unknown names
        };
        let is_input = matches!(col.role, ColumnRole::Input);
        let at = f.meta.column_span(&fc.column);
        let mut push = |msg: String, src: String, dest: String| {
            if !seen.insert((is_input, msg.clone(), src.clone(), dest.clone())) {
                return;
            }
            let point = FlowPoint {
                table: f.spec.name.clone(),
                column: fc.column.clone(),
                at,
                msg,
                src,
                dest,
            };
            if is_input {
                model.accepts.push(point);
            } else {
                model.emits.push(point);
            }
        };
        let rel = solved.filter(|_| fc.src.is_some() || fc.dest.is_some());
        match rel {
            Some(rel) => {
                let idx = |name: &str| rel.schema().index_of_str(name);
                let Some(mi) = idx(&fc.column) else { continue };
                // A role slot names a column (read per row) or is a
                // role literal (constant for the whole column).
                let slot = |s: &Option<String>| -> (Option<usize>, String) {
                    match s {
                        Some(tok) => match idx(tok) {
                            Some(i) => (Some(i), String::new()),
                            None => (None, tok.clone()),
                        },
                        None => (None, ANY.to_string()),
                    }
                };
                let (si, sfix) = slot(&fc.src);
                let (di, dfix) = slot(&fc.dest);
                for row in rel.rows() {
                    let Value::Sym(msg) = &row[mi] else { continue };
                    let role_at = |i: Option<usize>, fixed: &str| match i {
                        Some(i) => match &row[i] {
                            Value::Sym(r) => r.to_string(),
                            _ => ANY.to_string(),
                        },
                        None => fixed.to_string(),
                    };
                    push(msg.to_string(), role_at(si, &sfix), role_at(di, &dfix));
                }
            }
            None => {
                for v in &col.values {
                    if let Value::Sym(s) = v {
                        push(s.to_string(), ANY.to_string(), ANY.to_string());
                    }
                }
            }
        }
    }
    has_roles
}

/// Lint the full built-in protocol: per-controller analyses plus the
/// cross-controller flow checks against the protocol's declared
/// external boundary ([`ProtocolSpec::flow_env`]) and the selected
/// virtual-channel assignment.
pub fn lint_protocol(p: &ProtocolSpec, vc: &VcAssignment) -> LintReport {
    let fspan = ccsql_obs::flight::span("lint", "protocol");
    let ctx = ProtocolSpec::eval_context();
    let mut report = LintReport::new();
    let mut model = FlowModel::default();

    for c in &p.controllers {
        lint_table(&c.spec, &ctx, &|_| Span::UNKNOWN, &mut report);

        // Expand the (message, source, destination) *column* triples to
        // value triples via the column tables.
        let expand = |triples: &[ccsql_protocol::MsgTriple], out: &mut Vec<FlowPoint>| {
            for t in triples {
                let values = |col: &str| -> Vec<String> {
                    c.spec
                        .columns
                        .iter()
                        .find(|cd| cd.name.as_str() == col)
                        .map(|cd| {
                            cd.values
                                .iter()
                                .filter_map(|v| match v {
                                    Value::Sym(s) => Some(s.to_string()),
                                    _ => None,
                                })
                                .collect()
                        })
                        .unwrap_or_default()
                };
                for msg in values(t.msg) {
                    for src in values(t.src) {
                        for dest in values(t.dest) {
                            out.push(FlowPoint {
                                table: c.name.to_string(),
                                column: t.msg.to_string(),
                                at: Span::UNKNOWN,
                                msg: msg.clone(),
                                src: src.clone(),
                                dest: dest.clone(),
                            });
                        }
                    }
                }
            }
        };
        expand(&c.input_triples, &mut model.accepts);
        expand(&c.output_triples, &mut model.emits);
    }

    let env = ProtocolSpec::flow_env();
    let triple = |t: &ccsql_protocol::FlowTriple| BoundaryTriple {
        msg: t.msg.to_string(),
        src: t.src.to_string(),
        dest: t.dest.to_string(),
    };
    model.boundary.send = env.sources.iter().map(triple).collect();
    model.boundary.recv = env.sinks.iter().map(triple).collect();

    flow::lint_flow(&model, Some(vc), &mut report);
    finish(report, &fspan)
}

/// Sort the report and record its severity counts on the entry span.
fn finish(mut report: LintReport, span: &FlightSpan) -> LintReport {
    report.finish();
    if span.is_live() {
        span.arg("errors", report.count(Severity::Error));
        span.arg("warnings", report.count(Severity::Warn));
        span.arg("infos", report.count(Severity::Info));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_relalg::parse_specfile;

    fn lint_src(src: &str) -> LintReport {
        let f = parse_specfile(src).expect("spec parses");
        lint_specfiles(&[&f], &ccsql_relalg::expr::NoContext)
    }

    #[test]
    fn minimal_clean_spec() {
        let r = lint_src(
            "table T\n\
             input a = x, y\n\
             output o = p, NULL\n\
             constrain o: a = x ? o = p : o = NULL\n",
        );
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn uncovered_input_detected() {
        // `a = y` admits no value for o: its constraint excludes the
        // whole column table.
        let r = lint_src(
            "table T\n\
             input a = x, y\n\
             output o = p, NULL\n\
             constrain o: a = x ? o = p : (o != p and o != NULL)\n",
        );
        // The lone legal row carries o = p, so NULL is also flagged as a
        // vestigial domain value.
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![codes::VESTIGIAL_DOMAIN_VALUE, codes::UNCOVERED_INPUT],
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn vestigial_domain_value_detected() {
        // `q` is declared in o's column table but no constraint branch
        // ever produces it, and `y` is declared for `a` but the filter
        // admits no row carrying it.
        let r = lint_src(
            "table T\n\
             input a = x, y\n\
             constrain a: a = x\n\
             output o = p, q, NULL\n\
             constrain o: a = x ? o = p : o = NULL\n",
        );
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![codes::VESTIGIAL_DOMAIN_VALUE; 3],
            "{}",
            r.render_human()
        );
        let cols: Vec<&str> = r.diagnostics().iter().map(|d| d.column.as_str()).collect();
        assert_eq!(cols, vec!["a", "o", "o"], "{}", r.render_human());
        assert!(!r.is_clean());
        assert!(r.failed(), "warnings gate the lint");
    }

    #[test]
    fn both_protocol_revisions_are_vestigial_free() {
        // Regression for the CCL006 sweep over the 8 ASURA controller
        // tables: every declared domain value is carried by some row in
        // whichever owner-transfer revision declares it.
        use ccsql_protocol::directory::OwnerTransfer;
        for transfer in [OwnerTransfer::ViaMemory, OwnerTransfer::Direct] {
            let p = ProtocolSpec::asura_with(transfer);
            let r = lint_protocol(&p, &VcAssignment::v2());
            let vestigial: Vec<String> = r
                .diagnostics()
                .iter()
                .filter(|d| d.code == codes::VESTIGIAL_DOMAIN_VALUE)
                .map(|d| format!("{}.{}", d.table, d.column))
                .collect();
            assert!(vestigial.is_empty(), "{transfer:?}: {vestigial:?}");
            assert!(!r.failed(), "{transfer:?}:\n{}", r.render_human());
        }
    }

    #[test]
    fn nondeterminism_detected() {
        let r = lint_src(
            "table T\n\
             input a = x, y\n\
             output o = p, q, NULL\n\
             constrain o: a = x ? o != NULL : o = NULL\n",
        );
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![codes::NONDETERMINISTIC], "{}", r.render_human());
    }

    #[test]
    fn unreachable_branch_detected() {
        // The inner `a = x` test sits in the else-arm of an identical
        // outer test: its then-branch can never be reached.
        let r = lint_src(
            "table T\n\
             input a = x, y\n\
             output o = p, q, NULL\n\
             constrain o: a = x ? o = p : (a = x ? o = q : o = NULL)\n",
        );
        // The dead branch was the only producer of q, so q is also
        // flagged as a vestigial domain value.
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![codes::UNREACHABLE_BRANCH, codes::VESTIGIAL_DOMAIN_VALUE],
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn flow_checks_across_files() {
        // T emits `m` which nothing accepts; accepts `z` nothing sends.
        let r = lint_src(
            "table T\n\
             input a = z\n\
             output o = m\n\
             flow a, o\n",
        );
        let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
        // Accept points (line 2) sort before emit points (line 3).
        assert_eq!(
            codes,
            vec![codes::ACCEPTED_NEVER_EMITTED, codes::EMITTED_NEVER_ACCEPTED],
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn extern_directives_suppress_flow_checks() {
        let r = lint_src(
            "table T\n\
             input a = z\n\
             output o = m\n\
             flow a, o\n\
             extern send z\n\
             extern recv m\n",
        );
        assert!(r.is_clean(), "{}", r.render_human());
    }
}
