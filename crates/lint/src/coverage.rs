//! Table-shape lints: symbolic input-coverage analysis (CCL010 /
//! CCL011) without running the full solver.
//!
//! The solver semantics are: a row of the generated table is a full
//! assignment over every column table satisfying *all* column
//! constraints. Splitting the constraints by dependency set —
//! constraints over input columns only act as the legality filter,
//! the rest relate outputs to inputs — the coverage question becomes:
//! for every legal input assignment, how many output completions exist?
//! Zero is an incompleteness bug (the controller drops a legal input on
//! the floor, and the solver silently prunes the row); two or more is
//! nondeterminism (the table would hold conflicting reactions).
//!
//! The walk runs on the same compiled [`Program`] bytecode as the
//! solver: every constraint is compiled once against an inputs-first
//! schema, legal inputs are enumerated incrementally as interned
//! value-id rows (a constraint applies as soon as its columns are all
//! assigned, pruning the partial product), and the output search
//! evaluates each residual constraint exactly once per branch at the
//! earliest depth where its columns are assigned. This replaces the
//! old per-row `Expr::reduce` partial evaluation and its per-constraint
//! memo tables with straight-line bytecode over `u32` ids.

use crate::diag::{codes, Diagnostic, LintReport, Severity};
use ccsql_relalg::expr::EvalContext;
use ccsql_relalg::solver::{ColumnRole, TableSpec};
use ccsql_relalg::{compile_constraint, Expr, Program, Schema, Span, Sym, Value};

/// Cap on the partial-row count during legal-input enumeration; above
/// it the analysis reports CCL019 and bails.
const ROW_BUDGET: usize = 500_000;
/// Witnesses reported per (table, code) before summarising.
const WITNESS_CAP: usize = 3;

/// Run the coverage analysis for `spec`. `span_of` maps a column name
/// to its constraint's source span. Returns the number of legal input
/// rows whose output completions were searched (zero when the analysis
/// does not apply or is skipped).
pub fn lint_coverage(
    spec: &TableSpec,
    ctx: &dyn EvalContext,
    span_of: &dyn Fn(&str) -> Span,
    report: &mut LintReport,
) -> usize {
    let is_column = |s: Sym| spec.columns.iter().any(|c| c.name == s);
    let inputs: Vec<&_> = spec
        .columns
        .iter()
        .filter(|c| c.role == ColumnRole::Input)
        .collect();
    let outputs: Vec<&_> = spec
        .columns
        .iter()
        .filter(|c| c.role == ColumnRole::Output)
        .collect();
    if inputs.is_empty() || outputs.is_empty() {
        return 0;
    }
    let input_set: Vec<Sym> = inputs.iter().map(|c| c.name).collect();

    let skipped = |report: &mut LintReport, why: String| {
        report.push(Diagnostic::new(
            codes::ANALYSIS_SKIPPED,
            Severity::Info,
            &spec.name,
            "",
            why,
        ));
    };

    // Compile every non-trivial constraint once against an inputs-first
    // schema, so a constraint's program is evaluable as soon as a row
    // prefix covers its columns (the solver's prefix-schema rule).
    let eval_schema = match Schema::new(
        input_set
            .iter()
            .chain(outputs.iter().map(|c| &c.name))
            .map(|s| s.as_str()),
    ) {
        Ok(s) => s,
        Err(_) => return 0, // duplicate column names: parser rejects these
    };
    struct C {
        owner: Sym,
        deps: Vec<Sym>,
        prog: Program,
        input_only: bool,
    }
    let mut constraints: Vec<C> = Vec::new();
    for c in spec.columns.iter().filter(|c| !c.constraint.is_true()) {
        let deps: Vec<Sym> = c
            .constraint
            .resolve_idents(&is_column)
            .columns()
            .into_iter()
            .filter(|s| spec.columns.iter().any(|c| c.name == *s))
            .collect();
        let prog = match compile_constraint(&c.constraint, &eval_schema, ctx) {
            Ok(p) => p,
            Err(e) => {
                skipped(
                    report,
                    format!(
                        "input coverage skipped: constraint on `{}` does not \
                         compile ({e})",
                        c.name
                    ),
                );
                return 0;
            }
        };
        let input_only = deps.iter().all(|d| input_set.contains(d));
        constraints.push(C {
            owner: c.name,
            deps,
            prog,
            input_only,
        });
    }
    let mut regs = vec![
        0u32;
        constraints
            .iter()
            .map(|c| c.prog.num_regs())
            .max()
            .unwrap_or(0)
    ];

    // --- Legal input enumeration -----------------------------------
    // Rows are interned value ids over the input prefix of the eval
    // schema, extended one column at a time.
    let mut rows: Vec<Vec<u32>> = vec![Vec::new()];
    let mut applied = vec![false; constraints.len()];
    for (k, col) in inputs.iter().enumerate() {
        if rows.len().saturating_mul(col.values.len()) > ROW_BUDGET {
            skipped(
                report,
                format!(
                    "input coverage skipped: legal-input enumeration exceeds {ROW_BUDGET} rows"
                ),
            );
            return 0;
        }
        let ids: Vec<u32> = col.values.iter().map(|v| v.vid()).collect();
        let mut next: Vec<Vec<u32>> = Vec::with_capacity(rows.len() * ids.len());
        for row in &rows {
            for &id in &ids {
                let mut r = row.clone();
                r.push(id);
                next.push(r);
            }
        }
        // Constraints whose columns are now all assigned filter here.
        let assigned = &input_set[..=k];
        for (ci, c) in constraints.iter().enumerate() {
            if applied[ci] || !c.input_only || !c.deps.iter().all(|d| assigned.contains(d)) {
                continue;
            }
            applied[ci] = true;
            let mut kept = Vec::with_capacity(next.len());
            for row in next.drain(..) {
                match c.prog.eval_ids(&row, ctx, &mut regs) {
                    Ok(true) => kept.push(row),
                    Ok(false) => {}
                    Err(e) => {
                        skipped(
                            report,
                            format!(
                                "input coverage skipped: constraint on `{}` does not \
                                 evaluate over the input domain ({e})",
                                c.owner
                            ),
                        );
                        return 0;
                    }
                }
            }
            next = kept;
        }
        rows = next;
    }

    // --- Output completion count per legal input --------------------
    // Each residual (not input-only) constraint becomes *ready* at the
    // first output depth where all its columns are assigned; the search
    // evaluates it exactly once per branch at that depth. An evaluation
    // error means the completion cannot be decided — treated as
    // unsatisfied, exactly like the solver dropping the row.
    let mut ready_at: Vec<Vec<&Program>> = vec![Vec::new(); outputs.len()];
    for c in constraints.iter().filter(|c| !c.input_only) {
        let depth = c
            .deps
            .iter()
            .filter_map(|d| outputs.iter().position(|o| o.name == *d))
            .max()
            .expect("residual constraint mentions at least one output");
        ready_at[depth].push(&c.prog);
    }
    let out_ids: Vec<Vec<u32>> = outputs
        .iter()
        .map(|c| c.values.iter().map(|v| v.vid()).collect())
        .collect();

    let mut uncovered: Vec<String> = Vec::new();
    let mut nondet: Vec<String> = Vec::new();
    let mut uncovered_total = 0usize;
    let mut nondet_total = 0usize;

    // Domain-value usage for the CCL006 vestigial-vocabulary lint: an
    // input value is used when some legal row carries it, an output
    // value when some completion of a legal input emits it. Rows with
    // 2+ completions stop at the cutoff, so usage under-approximates on
    // nondeterministic tables — which already fail CCL011 outright.
    let mut used: Vec<std::collections::HashSet<u32>> =
        vec![Default::default(); inputs.len() + outputs.len()];

    for row in &rows {
        for (k, &id) in row.iter().enumerate() {
            used[k].insert(id);
        }
        let mut buf = row.clone();
        let n = count_completions(
            &out_ids, &ready_at, &mut buf, 0, ctx, &mut regs, 2, &mut used,
        );
        if n == 0 {
            uncovered_total += 1;
            if uncovered.len() < WITNESS_CAP {
                uncovered.push(render_row(&input_set, row));
            }
        } else if n >= 2 {
            nondet_total += 1;
            if nondet.len() < WITNESS_CAP {
                nondet.push(render_row(&input_set, row));
            }
        }
    }

    // Anchor table-level findings at the first output constraint span
    // when the spec came from a file.
    let at = outputs
        .iter()
        .map(|c| span_of(c.name.as_str()))
        .find(|s| s.is_known())
        .unwrap_or(Span::UNKNOWN);
    emit_witnessed(
        report,
        codes::UNCOVERED_INPUT,
        &spec.name,
        at,
        &uncovered,
        uncovered_total,
        "no output row satisfies the constraints for legal input",
        "legal inputs admit no output row",
    );
    emit_witnessed(
        report,
        codes::NONDETERMINISTIC,
        &spec.name,
        at,
        &nondet,
        nondet_total,
        "constraints admit 2+ distinct output rows for legal input",
        "legal inputs admit 2+ distinct output rows",
    );

    // CCL006: declared domain values the constraints dead-end — never
    // carried by a legal input row, never emitted by any completion.
    // Skip the check when the table has no rows at all (everything
    // would be vestigial; the real defect lies elsewhere).
    if !rows.is_empty() {
        for (k, col) in inputs.iter().chain(outputs.iter()).enumerate() {
            let role = if k < inputs.len() { "input" } else { "output" };
            for v in col.values.iter().filter(|v| !used[k].contains(&v.vid())) {
                report.push(
                    Diagnostic::new(
                        codes::VESTIGIAL_DOMAIN_VALUE,
                        Severity::Warn,
                        &spec.name,
                        col.name.as_str(),
                        format!(
                            "{role} column table declares {} but no {} ever carries it \
                             — vestigial domain value",
                            Expr::Lit(*v),
                            if role == "input" {
                                "legal input row"
                            } else {
                                "generated row"
                            },
                        ),
                    )
                    .at(span_of(col.name.as_str())),
                );
            }
        }
    }
    rows.len()
}

#[allow(clippy::too_many_arguments)]
fn emit_witnessed(
    report: &mut LintReport,
    code: &'static str,
    table: &str,
    at: Span,
    witnesses: &[String],
    total: usize,
    each: &str,
    summary: &str,
) {
    for w in witnesses {
        report
            .push(Diagnostic::new(code, Severity::Error, table, "", format!("{each} {w}")).at(at));
    }
    if total > witnesses.len() {
        report.push(
            Diagnostic::new(
                code,
                Severity::Error,
                table,
                "",
                format!("{total} {summary} in total ({} shown)", witnesses.len()),
            )
            .at(at),
        );
    }
}

fn render_row(cols: &[Sym], row: &[u32]) -> String {
    let parts: Vec<String> = cols
        .iter()
        .zip(row)
        .map(|(c, &id)| format!("{c}={}", Expr::Lit(Value::from_vid(id))))
        .collect();
    parts.join(", ")
}

/// Count complete output assignments satisfying all residuals, stopping
/// at `cutoff`. `row` holds the legal input ids; outputs are pushed and
/// popped in depth order, and each program runs at its ready depth.
/// Every full completion marks its value ids in `used` (input ids at
/// their prefix positions are marked by the caller).
#[allow(clippy::too_many_arguments)]
fn count_completions(
    out_ids: &[Vec<u32>],
    ready_at: &[Vec<&Program>],
    row: &mut Vec<u32>,
    depth: usize,
    ctx: &dyn EvalContext,
    regs: &mut [u32],
    cutoff: usize,
    used: &mut [std::collections::HashSet<u32>],
) -> usize {
    if depth == out_ids.len() {
        for (k, &id) in row.iter().enumerate() {
            used[k].insert(id);
        }
        return 1;
    }
    let mut n = 0usize;
    for &id in &out_ids[depth] {
        row.push(id);
        let ok = ready_at[depth]
            .iter()
            .all(|p| matches!(p.eval_ids(row, ctx, regs), Ok(true)));
        if ok {
            n += count_completions(
                out_ids,
                ready_at,
                row,
                depth + 1,
                ctx,
                regs,
                cutoff - n,
                used,
            );
        }
        row.pop();
        if n >= cutoff {
            break;
        }
    }
    n
}
