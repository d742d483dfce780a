//! Golden diagnostics: one known-bad spec per lint code asserting the
//! exact rendered findings, plus the clean-spec regressions (fig3 and
//! every built-in controller) and the seeded-bug fixture
//! `specs/fig3_buggy.ccsql`.

use ccsql::vc::VcAssignment;
use ccsql_lint::{codes, lint_protocol, lint_specfiles, LintReport};
use ccsql_lint::{FlowModel, FlowPoint};
use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::expr::NoContext;
use ccsql_relalg::solver::{ColumnDef, TableSpec};
use ccsql_relalg::{parse_specfile, Expr, Span, Value};

fn lint_src(src: &str) -> LintReport {
    let f = parse_specfile(src).expect("spec parses");
    lint_specfiles(&[&f], &ProtocolSpec::eval_context())
}

/// Rendered findings (summary line dropped).
fn findings(r: &LintReport) -> Vec<String> {
    r.diagnostics().iter().map(|d| d.render()).collect()
}

#[test]
fn ccl001_unknown_column() {
    // `bogus` is not a column: the comparison is constant, and the
    // branch it guards is dead as a consequence.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: bogus = x ? o = p : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: error CCL001: comparison `\"bogus\" = \"x\"` references no \
             declared column (mistyped column name?)",
            "T.o at 4:14: warn CCL003: then-branch of `\"bogus\" = \"x\" ? … : …` is \
             unreachable: the condition never holds on any path that reaches it",
            "T.o at 4:14: warn CCL006: output column table declares \"p\" but no \
             generated row ever carries it — vestigial domain value",
        ]
    );
    assert!(r.failed());
}

#[test]
fn ccl002_value_not_in_domain() {
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: a in (x, zz) ? o = p : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: error CCL002: `a in (…)` lists \"zz\", which is not in its \
             column table",
        ]
    );
}

#[test]
fn ccl003_unreachable_branch() {
    // The inner `a = x` sits in the else-arm of an identical outer
    // test: its then-branch can never be reached.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, q, NULL\n\
         constrain o: a = x ? o = p : (a = x ? o = q : o = NULL)\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: warn CCL003: then-branch of `a = \"x\" ? … : …` is \
             unreachable: the condition never holds on any path that reaches it",
            "T.o at 4:14: warn CCL006: output column table declares \"q\" but no \
             generated row ever carries it — vestigial domain value",
        ]
    );
}

#[test]
fn ccl004_forced_out_of_domain() {
    // `o = q` with q outside the column table — and the input it guards
    // is uncovered as a consequence.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: a = x ? o = q : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: error CCL004: constraint assigns `o = \"q\"`, which is \
             outside the column table",
            "T.o at 4:14: warn CCL006: output column table declares \"p\" but no \
             generated row ever carries it — vestigial domain value",
            "T at 4:14: error CCL010: no output row satisfies the constraints for \
             legal input a=\"x\"",
        ]
    );
}

#[test]
fn ccl005_all_branches_null() {
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: a = x ? o = NULL : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: warn CCL005: every branch assigns `o = NULL`: this output \
             can never do anything",
            "T.o at 4:14: warn CCL006: output column table declares \"p\" but no \
             generated row ever carries it — vestigial domain value",
        ]
    );
}

#[test]
fn ccl010_uncovered_input() {
    // For a = y the constraint excludes the whole column table.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: a = x ? o = p : (o != p and o != NULL)\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 4:14: warn CCL006: output column table declares NULL but no \
             generated row ever carries it — vestigial domain value",
            "T at 4:14: error CCL010: no output row satisfies the constraints for \
             legal input a=\"y\"",
        ]
    );
}

#[test]
fn ccl011_nondeterministic() {
    // For a = x both p and q satisfy `o != NULL`.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, q, NULL\n\
         constrain o: a = x ? o != NULL : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T at 4:14: error CCL011: constraints admit 2+ distinct output rows for \
             legal input a=\"x\"",
        ]
    );
}

#[test]
fn ccl011_sees_every_output_row_of_a_nondeterministic_input() {
    // For a = x, p, q and r all satisfy `o != NULL`, and the solved
    // table carries all three: r is not vestigial.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, q, r, NULL\n\
         constrain o: a = x ? o != NULL : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T at 4:14: error CCL011: constraints admit 2+ distinct output rows for \
             legal input a=\"x\"",
        ]
    );
}

#[test]
fn ccl019_carries_the_solver_error() {
    // The then-arm `o` is a value, not a predicate: the solver rejects
    // the table, so coverage reports the solver's error instead of a
    // CCL010 on a = x.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         output o = p, NULL\n\
         constrain o: a = x ? o : o = NULL\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T: info CCL019: coverage skipped: the solver rejects the table \
             (expression is not boolean: \"p\")",
            "T.o at 4:14: warn CCL005: every branch assigns `o = NULL`: this output \
             can never do anything",
        ]
    );
}

#[test]
fn ccl019_reports_every_table_the_solver_rejects() {
    // No output column: there is no coverage to check, but `solve`
    // rejects the table (the bare `a` is a value, not a predicate), so
    // the lint must say so rather than report nothing.
    let r = lint_src(
        "table T\n\
         input a = x, y\n\
         constrain a: a\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T: info CCL019: coverage skipped: the solver rejects the table \
             (expression is not boolean: \"x\")",
        ]
    );
}

#[test]
fn ccl019_analysis_skipped_over_budget() {
    // Three 100-value inputs: 10^6 assignments exceed both the
    // reachability and the coverage enumeration budgets. Notes only —
    // the gate must not fail.
    let mut src = String::from("table T\n");
    for col in ["a", "b", "c"] {
        let vals: Vec<String> = (0..100).map(|i| format!("{col}{i}")).collect();
        src.push_str(&format!("input {col} = {}\n", vals.join(", ")));
    }
    src.push_str("output o = p, NULL\n");
    src.push_str("constrain o: a = a0 and b = b0 and c = c0 ? o = p : o = NULL\n");
    let r = lint_src(&src);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
    assert_eq!(
        codes,
        vec![codes::ANALYSIS_SKIPPED, codes::ANALYSIS_SKIPPED],
        "{}",
        r.render_human()
    );
    assert!(!r.failed(), "info notes must not fail the gate");
    assert!(!r.is_clean());
}

/// Reachability findings of `lint_exprs` alone over a table of inputs
/// with the given domain sizes (values `0..n`) and output `o`.
fn reach_findings(domains: &[(&str, i64)], constraint: Expr) -> Vec<String> {
    let mut columns: Vec<ColumnDef> = domains
        .iter()
        .map(|&(c, n)| ColumnDef::input(c, (0..n).map(Value::Int).collect(), Expr::True))
        .collect();
    let o = vec![Value::sym("p"), Value::sym("q"), Value::Null];
    columns.push(ColumnDef::output("o", o, constraint));
    let spec = TableSpec {
        name: "T".into(),
        columns,
    };
    let mut report = LintReport::new();
    ccsql_lint::expr_lint::lint_exprs(&spec, &NoContext, &|_| Span::UNKNOWN, &mut report);
    findings(&report)
}

/// `c0 = v0 and c1 = v1 and …` over (column, value) pairs.
fn all_eq(pairs: &[(&str, i64)]) -> Expr {
    Expr::all(
        pairs
            .iter()
            .map(|&(c, v)| Expr::Eq(Box::new(Expr::col(c)), Box::new(Expr::Lit(Value::Int(v))))),
    )
}

#[test]
fn ccl003_reach_budget_boundary() {
    // Exactly 2^19 assignments (8^5 x 16) is still analysed. The guard
    // holds only on the very last assignment (every column at its last
    // value), so the outer then-arm is reachable through the final bit
    // of the product alone, and the identical inner guard's then-arm is
    // shadowed.
    let cols = [("a", 8), ("b", 8), ("c", 8), ("d", 8), ("e", 8), ("f", 16)];
    let last = all_eq(&[("a", 7), ("b", 7), ("c", 7), ("d", 7), ("e", 7), ("f", 15)]);
    let o = |v: &str| Expr::col_eq("o", v);
    let e = last
        .clone()
        .ternary(o("p"), last.ternary(o("q"), Expr::col_is_null("o")));
    assert_eq!(
        reach_findings(&cols, e),
        vec![
            "T.o: warn CCL003: then-branch of `(((((a = 7 and b = 7) and c = 7) and \
             d = 7) and e = 7) and f = 15) ? … : …` is unreachable: the condition never \
             holds on any path that reaches it"
        ]
    );

    // 2^19 + 1 assignments (3 x 174763) is one over the budget: skipped
    // with a note instead of analysed.
    let cols = [("g", 3), ("h", 174_763)];
    let e = all_eq(&[("g", 0), ("h", 0)]).ternary(o("p"), Expr::col_is_null("o"));
    assert_eq!(
        reach_findings(&cols, e),
        vec![
            "T.o: info CCL019: branch reachability skipped: condition domain exceeds \
             524288 assignments"
        ]
    );
}

#[test]
fn ccl020_emitted_never_accepted() {
    let r = lint_src(
        "table T\n\
         input a = z\n\
         output o = m\n\
         flow a, o\n\
         extern send z\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.o at 3:8: error CCL020: emits `m`, which no controller input column \
             accepts and the environment does not consume",
        ]
    );
}

#[test]
fn ccl021_accepted_never_emitted() {
    let r = lint_src(
        "table T\n\
         input a = z\n\
         output o = m\n\
         flow a, o\n\
         extern recv m\n",
    );
    assert_eq!(
        findings(&r),
        vec![
            "T.a at 2:7: warn CCL021: accepts `z`, which no controller emits and the \
             environment does not send (dead input value)",
        ]
    );
}

#[test]
fn ccl022_ccl023_role_level_checks() {
    // A hand-built flow model: `bogusmsg` is accepted by name but on a
    // different role pair (CCL023), and V1 catalogues no channel for it
    // (CCL022).
    let point = |src: &str, dest: &str| FlowPoint {
        table: "L".to_string(),
        column: "outmsg".to_string(),
        at: Span::UNKNOWN,
        msg: "bogusmsg".to_string(),
        src: src.to_string(),
        dest: dest.to_string(),
    };
    let model = FlowModel {
        emits: vec![point("local", "home")],
        accepts: vec![point("home", "remote")],
        ..FlowModel::default()
    };
    let v1 = VcAssignment::v1();
    let mut report = LintReport::new();
    ccsql_lint::flow::lint_flow(&model, Some(&v1), &mut report);
    report.finish();
    assert_eq!(
        findings(&report),
        vec![
            format!(
                "L.outmsg: error CCL022: emits `bogusmsg` local→home, but {} assigns \
                 it no virtual channel on that role pair",
                v1.name
            ),
            "L.outmsg: error CCL023: emits `bogusmsg` local→home, but every \
             controller accepting `bogusmsg` expects a different source/destination \
             pair"
                .to_string(),
        ]
    );
}

// --- clean-spec regressions -----------------------------------------

#[test]
fn fig3_lints_clean() {
    let src = include_str!("../../../specs/fig3.ccsql");
    let r = lint_src(src);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn builtin_protocol_lints_clean() {
    // All 8 controllers, expression + coverage + cross-controller flow
    // against the declared boundary and the default VC assignment.
    let r = lint_protocol(&ProtocolSpec::asura(), &VcAssignment::v1());
    assert!(r.is_clean(), "{}", r.render_human());
}

// --- the seeded-bug fixture -----------------------------------------

#[test]
fn fig3_buggy_reports_each_seeded_bug() {
    let src = include_str!("../../../specs/fig3_buggy.ccsql");
    let r = lint_src(src);
    let codes_seen: Vec<&str> = r.diagnostics().iter().map(|d| d.code).collect();
    // Three distinct seeded-bug codes (CCL010 reports both uncovered
    // sharer-count witnesses of the same bug), plus the CCL006 fallout:
    // the dead `sfetch` flow, the rows the coverage hole swallows, and
    // the state the dead branch was the only writer of all leave
    // vestigial domain values behind.
    assert_eq!(
        codes_seen,
        vec![
            codes::EMITTED_NEVER_ACCEPTED,
            codes::VESTIGIAL_DOMAIN_VALUE,
            codes::VESTIGIAL_DOMAIN_VALUE,
            codes::UNCOVERED_INPUT,
            codes::UNCOVERED_INPUT,
            codes::UNREACHABLE_BRANCH,
            codes::VESTIGIAL_DOMAIN_VALUE,
        ],
        "{}",
        r.render_human()
    );
    assert!(r.failed());
    assert_eq!(
        findings(&r),
        vec![
            "Fig3Buggy.remmsg at 25:8: error CCL020: emits `sfetch`, which no \
             controller input column accepts and the environment does not consume",
            "Fig3Buggy.remmsg at 40:19: warn CCL006: output column table declares \
             \"sfetch\" but no generated row ever carries it — vestigial domain value",
            "Fig3Buggy.remmsg at 40:19: warn CCL006: output column table declares \
             \"sinv\" but no generated row ever carries it — vestigial domain value",
            "Fig3Buggy at 43:19: error CCL010: no output row satisfies the \
             constraints for legal input inmsg=\"readex\", dirst=\"SI\", dirpv=\"gone\"",
            "Fig3Buggy at 43:19: error CCL010: no output row satisfies the \
             constraints for legal input inmsg=\"readex\", dirst=\"SI\", dirpv=\"one\"",
            "Fig3Buggy.nxtdirst at 45:21: warn CCL003: then-branch of \
             `dirst = \"SI\" ? … : …` is unreachable: the condition never holds on any \
             path that reaches it",
            "Fig3Buggy.nxtdirst at 45:21: warn CCL006: output column table declares \
             \"Busy-sd\" but no generated row ever carries it — vestigial domain value",
        ]
    );
}

#[test]
fn phase_priority_buggy_reports_three_nondeterministic_witnesses() {
    // Four legal inputs admit two output rows each: the first three in
    // legal-input order are shown, and a summary counts them all.
    let src = include_str!("../../../specs/phase_priority_buggy.ccsql");
    let r = lint_src(src);
    let at = "PhasePriorityBuggy at 69:19: error CCL011:";
    let witness = |input: &str| {
        format!("{at} constraints admit 2+ distinct output rows for legal input {input}")
    };
    assert_eq!(
        findings(&r),
        vec![
            format!("{at} 4 legal inputs admit 2+ distinct output rows in total (3 shown)"),
            witness(
                "inmsg=\"read\", reqph=\"high\", insrc=\"local\", dirst=\"B-r\", pend=\"none\""
            ),
            witness(
                "inmsg=\"read\", reqph=\"high\", insrc=\"local\", dirst=\"B-x\", pend=\"none\""
            ),
            witness(
                "inmsg=\"readex\", reqph=\"high\", insrc=\"local\", dirst=\"B-r\", pend=\"none\""
            ),
        ]
    );
}
