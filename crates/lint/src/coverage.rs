//! Table-shape lints: input coverage (CCL010 / CCL011) and vestigial
//! domain values (CCL006) as queries over the solved table.
//!
//! The solver semantics are: a row of the generated table is a full
//! assignment over every column table satisfying *all* column
//! constraints. The incremental solver adds the input columns first, so
//! once every input column is in, its intermediate table holds exactly
//! the legal inputs (the assignments the input-only constraints admit).
//! One pass of [`TableSpec::generate_with_legal_inputs`] yields both
//! relations, and the coverage question becomes a grouping query, in
//! the paper's style of SQL checks that must return the empty set:
//! group the solved rows by their input values, then
//!
//! * CCL010: legal inputs with no group — the controller drops a legal
//!   input on the floor, and the solver silently prunes the row;
//! * CCL011: legal inputs whose group holds two or more rows — the table
//!   holds conflicting reactions;
//! * CCL006: declared input values no legal input carries, and declared
//!   output values no solved row carries.
//!
//! A table the solver rejects (a compile or evaluation error, or a step
//! over [`ROW_BUDGET`]) gets one CCL019 note carrying the solver's error
//! instead of findings.

use crate::diag::{codes, Diagnostic, LintReport, Severity};
use ccsql_relalg::expr::EvalContext;
use ccsql_relalg::solver::{ColumnRole, TableSpec, ROW_BUDGET};
use ccsql_relalg::{Error, Expr, Relation, Span, Value};
use std::collections::{HashMap, HashSet};

/// Witnesses reported per (table, code) before summarising.
const WITNESS_CAP: usize = 3;

/// Solve `spec` once and run the coverage queries over the result.
/// `span_of` maps a column name to its constraint's source span. Returns
/// the number of legal input rows (zero when the analysis does not apply
/// or the solver rejects the table) and the solved table, inputs first
/// (`None` when the solver rejects it).
pub fn lint_coverage(
    spec: &TableSpec,
    ctx: &dyn EvalContext,
    span_of: &dyn Fn(&str) -> Span,
    report: &mut LintReport,
) -> (usize, Option<Relation>) {
    let (inputs, outputs): (Vec<_>, Vec<_>) = spec
        .columns
        .iter()
        .partition(|c| c.role == ColumnRole::Input);
    let (legal, table) = match spec.generate_with_legal_inputs(ctx) {
        Ok(solved) => solved,
        Err(e) => {
            let why = match &e {
                Error::RowBudget { column, .. }
                    if inputs.iter().any(|c| c.name.as_str() == column) =>
                {
                    format!(
                        "input coverage skipped: legal-input enumeration exceeds \
                         {ROW_BUDGET} rows"
                    )
                }
                _ => format!("coverage skipped: the solver rejects the table ({e})"),
            };
            report.push(Diagnostic::new(
                codes::ANALYSIS_SKIPPED,
                Severity::Info,
                &spec.name,
                "",
                why,
            ));
            return (0, None);
        }
    };
    let Some(legal) = legal else {
        return (0, Some(table));
    };

    // Both relations list the input columns first: group the solved
    // rows by that prefix and look each legal input up.
    let mut groups: HashMap<&[Value], usize> = HashMap::new();
    for row in table.rows() {
        *groups.entry(&row[..inputs.len()]).or_default() += 1;
    }
    let (mut uncovered, mut nondet) = (Vec::new(), Vec::new());
    for row in legal.rows() {
        match groups.get(row) {
            None => uncovered.push(row),
            Some(&n) if n >= 2 => nondet.push(row),
            Some(_) => {}
        }
    }

    // Anchor table-level findings at the first output constraint span
    // when the spec came from a file.
    let at = outputs
        .iter()
        .map(|c| span_of(c.name.as_str()))
        .find(|s| s.is_known())
        .unwrap_or(Span::UNKNOWN);
    // One finding per witness, in legal-input order up to the cap, plus
    // a summary when there are more.
    for (code, rows, each, summary) in [
        (
            codes::UNCOVERED_INPUT,
            &uncovered,
            "no output row satisfies the constraints for legal input",
            "legal inputs admit no output row",
        ),
        (
            codes::NONDETERMINISTIC,
            &nondet,
            "constraints admit 2+ distinct output rows for legal input",
            "legal inputs admit 2+ distinct output rows",
        ),
    ] {
        let shown = rows.len().min(WITNESS_CAP);
        let mut msgs: Vec<String> = rows[..shown]
            .iter()
            .map(|row| {
                let cols = legal.schema().columns().iter().zip(*row);
                let w: Vec<String> = cols
                    .map(|(c, v)| format!("{c}={}", Expr::Lit(*v)))
                    .collect();
                format!("{each} {}", w.join(", "))
            })
            .collect();
        if rows.len() > shown {
            msgs.push(format!("{} {summary} in total ({shown} shown)", rows.len()));
        }
        for msg in msgs {
            report.push(Diagnostic::new(code, Severity::Error, &spec.name, "", msg).at(at));
        }
    }

    // CCL006: declared domain values the constraints dead-end. Skip the
    // check when there are no legal inputs at all (everything would be
    // vestigial; the real defect lies elsewhere).
    if !legal.is_empty() {
        for (k, col) in inputs.iter().chain(&outputs).enumerate() {
            let (role, rows, carrier) = if k < inputs.len() {
                ("input", &legal, "legal input row")
            } else {
                ("output", &table, "generated row")
            };
            let used: HashSet<Value> = rows.rows().map(|r| r[k]).collect();
            for v in col.values.iter().filter(|v| !used.contains(v)) {
                report.push(
                    Diagnostic::new(
                        codes::VESTIGIAL_DOMAIN_VALUE,
                        Severity::Warn,
                        &spec.name,
                        col.name.as_str(),
                        format!(
                            "{role} column table declares {} but no {carrier} ever carries \
                             it — vestigial domain value",
                            Expr::Lit(*v),
                        ),
                    )
                    .at(span_of(col.name.as_str())),
                );
            }
        }
    }
    (legal.len(), Some(table))
}
