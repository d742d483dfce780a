//! The diagnostics framework: stable codes, severities, source spans,
//! deterministic ordering, and the human-readable / JSONL renderers.
//!
//! Every diagnostic carries a stable `CCLnnn` code so tools (and golden
//! tests) can match on it, a severity, the table and column it concerns,
//! and a [`Span`] pointing into the spec source when one is known.

use ccsql_relalg::Span;
use std::fmt;

/// Diagnostic severity. `Error` and `Warn` both fail the lint gate
/// (`warn` marks findings that are suspicious rather than definitely
/// wrong, but a clean protocol spec should carry neither); `Info` never
/// fails — it reports analyses that were skipped, not problems found.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Definite spec defect.
    Error,
    /// Suspicious construct (dead branch, message nobody sends, …).
    Warn,
    /// Analysis note (e.g. a check skipped over budget).
    Info,
}

impl Severity {
    /// Lower-case label used in both renderers.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The stable diagnostic codes. Codes are append-only: a code's meaning
/// never changes once released, and retired codes are not reused.
pub mod codes {
    /// Comparison references no declared column (likely a typo'd name).
    pub const UNKNOWN_COLUMN: &str = "CCL001";
    /// A column is compared against a value outside its column table.
    pub const VALUE_NOT_IN_DOMAIN: &str = "CCL002";
    /// A ternary branch is unreachable over the declared domains.
    pub const UNREACHABLE_BRANCH: &str = "CCL003";
    /// A constraint forces its own column to a value outside its table.
    pub const FORCED_OUT_OF_DOMAIN: &str = "CCL004";
    /// Every branch of an output constraint assigns `NULL`.
    pub const ALL_BRANCHES_NULL: &str = "CCL005";
    /// A declared domain value no legal input row carries and no output
    /// row emits — vestigial vocabulary the constraints dead-end.
    pub const VESTIGIAL_DOMAIN_VALUE: &str = "CCL006";
    /// A legal input assignment no constraint admits (incompleteness).
    pub const UNCOVERED_INPUT: &str = "CCL010";
    /// A legal input assignment admits ≥ 2 output rows (nondeterminism).
    pub const NONDETERMINISTIC: &str = "CCL011";
    /// An analysis was skipped (domain over budget, opaque predicate…).
    pub const ANALYSIS_SKIPPED: &str = "CCL019";
    /// An emitted message no input column anywhere accepts.
    pub const EMITTED_NEVER_ACCEPTED: &str = "CCL020";
    /// An accepted message no output column anywhere emits.
    pub const ACCEPTED_NEVER_EMITTED: &str = "CCL021";
    /// An emitted (message, src, dest) triple has no virtual-channel
    /// assignment under the selected `V(m,s,d,v)`.
    pub const NO_VC_ASSIGNMENT: &str = "CCL022";
    /// An emitted (message, src, dest) triple is accepted by name only:
    /// no controller admits it on that role pair.
    pub const NO_COMPATIBLE_RECEIVER: &str = "CCL023";
    /// Flow extraction could not cover a table row: no extracted flow
    /// reaches it from any environment-initiated message.
    pub const NO_FLOW_COVER: &str = "CCL030";
    /// The flow-waits-for graph has a wait-cycle that holds for every
    /// node count: a parameterized deadlock.
    pub const PARAM_WAIT_CYCLE: &str = "CCL031";
    /// A flow-graph cycle the concrete dependency analysis cannot
    /// corroborate (no matching VCG cycle) — triage note, not a defect.
    pub const UNREALISABLE_FLOW_CYCLE: &str = "CCL032";

    /// Index of every stable code with its short title, in code order.
    /// Append-only like the constants above; the `readme_codes` test
    /// asserts the constants, this index, and README's lint table agree.
    pub const ALL: &[(&str, &str)] = &[
        (UNKNOWN_COLUMN, "comparison references no declared column"),
        (VALUE_NOT_IN_DOMAIN, "value outside the column table"),
        (UNREACHABLE_BRANCH, "unreachable ternary branch"),
        (FORCED_OUT_OF_DOMAIN, "column forced outside its table"),
        (ALL_BRANCHES_NULL, "every branch assigns NULL"),
        (VESTIGIAL_DOMAIN_VALUE, "domain value no row ever uses"),
        (UNCOVERED_INPUT, "legal input no constraint admits"),
        (NONDETERMINISTIC, "legal input admits two or more rows"),
        (ANALYSIS_SKIPPED, "analysis skipped"),
        (EMITTED_NEVER_ACCEPTED, "emitted message never accepted"),
        (ACCEPTED_NEVER_EMITTED, "accepted message never emitted"),
        (NO_VC_ASSIGNMENT, "emitted triple has no VC assignment"),
        (NO_COMPATIBLE_RECEIVER, "no receiver on that role pair"),
        (NO_FLOW_COVER, "row not covered by any extracted flow"),
        (PARAM_WAIT_CYCLE, "parameterized wait-cycle"),
        (
            UNREALISABLE_FLOW_CYCLE,
            "flow cycle not realisable concretely",
        ),
    ];
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`CCL001`…), see [`codes`].
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Table (controller) the finding concerns.
    pub table: String,
    /// Column the finding concerns (empty for table-level findings).
    pub column: String,
    /// Source position ([`Span::UNKNOWN`] for built-in specs).
    pub at: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Construct a finding with an unknown source position.
    pub fn new(
        code: &'static str,
        severity: Severity,
        table: &str,
        column: &str,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            table: table.to_string(),
            column: column.to_string(),
            at: Span::UNKNOWN,
            message,
        }
    }

    /// Attach a source position.
    pub fn at(mut self, at: Span) -> Diagnostic {
        self.at = at;
        self
    }

    /// Render as `table[.column][ at line:col]: severity CCLnnn: message`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.table);
        if !self.column.is_empty() {
            out.push('.');
            out.push_str(&self.column);
        }
        if self.at.is_known() {
            out.push_str(&format!(" at {}", self.at));
        }
        out.push_str(&format!(
            ": {} {}: {}",
            self.severity, self.code, self.message
        ));
        out
    }

    /// Render as a single JSON object (one JSONL record).
    pub fn to_json(&self) -> String {
        let mut obj = ccsql_obs::json::JsonObj::new()
            .str("kind", "lint")
            .str("code", self.code)
            .str("severity", self.severity.as_str())
            .str("table", &self.table)
            .str("column", &self.column);
        if self.at.is_known() {
            obj = obj
                .u64("line", self.at.line as u64)
                .u64("col", self.at.col as u64);
        }
        obj.str("message", &self.message).finish()
    }
}

/// The result of a lint run: all findings, deterministically ordered.
#[derive(Default, Debug)]
pub struct LintReport {
    diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Sort into the canonical order (table, position, code, column,
    /// message) and drop exact duplicates. Call once after all analyses.
    pub fn finish(&mut self) {
        self.diags.sort_by(|a, b| {
            (&a.table, a.at, a.code, &a.column, &a.message)
                .cmp(&(&b.table, b.at, b.code, &b.column, &b.message))
        });
        self.diags.dedup();
    }

    /// All findings, in canonical order once [`LintReport::finish`] ran.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == sev).count()
    }

    /// No findings at all (info included): the clean-spec condition.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Should the lint gate fail? Errors and warnings fail; info never.
    pub fn failed(&self) -> bool {
        self.diags.iter().any(|d| d.severity != Severity::Info)
    }

    /// Human-readable rendering, one finding per line, plus a summary
    /// line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }

    /// JSONL rendering: one JSON object per finding, plus a summary
    /// record (`kind = "lint-summary"`).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out.push_str(
            &ccsql_obs::json::JsonObj::new()
                .str("kind", "lint-summary")
                .u64("errors", self.count(Severity::Error) as u64)
                .u64("warnings", self.count(Severity::Warn) as u64)
                .u64("notes", self.count(Severity::Info) as u64)
                .finish(),
        );
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_dedup() {
        let mut r = LintReport::new();
        let d1 = Diagnostic::new(
            codes::UNCOVERED_INPUT,
            Severity::Error,
            "T",
            "b",
            "x".into(),
        );
        let d2 = Diagnostic::new(codes::UNKNOWN_COLUMN, Severity::Error, "T", "a", "y".into())
            .at(Span::new(2, 1));
        r.push(d1.clone());
        r.push(d2.clone());
        r.push(d1.clone());
        r.finish();
        // Unknown spans (0:0) sort before known ones; duplicates drop.
        assert_eq!(r.diagnostics(), &[d1, d2]);
        assert!(r.failed());
        assert!(!r.is_clean());
    }

    #[test]
    fn info_never_fails() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(
            codes::ANALYSIS_SKIPPED,
            Severity::Info,
            "T",
            "",
            "skipped".into(),
        ));
        r.finish();
        assert!(!r.failed());
        assert!(!r.is_clean());
    }

    #[test]
    fn render_formats() {
        let d = Diagnostic::new(
            codes::UNKNOWN_COLUMN,
            Severity::Error,
            "Fig3",
            "locmsg",
            "m".into(),
        )
        .at(Span::new(3, 7));
        assert_eq!(d.render(), "Fig3.locmsg at 3:7: error CCL001: m");
        let json = d.to_json();
        assert!(json.contains("\"code\":\"CCL001\""), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
    }
}
