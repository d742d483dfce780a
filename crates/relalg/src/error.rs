//! Error type shared across the engine, and the source [`Span`] carried
//! by parse diagnostics.

use std::fmt;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, Error>;

/// A 1-based line/column source position. `line == 0` means the
/// position is unknown (e.g. an error synthesised outside a parse).
/// Columns count bytes, which coincides with characters for the ASCII
/// spec syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// 1-based line number (0 = unknown).
    pub line: u32,
    /// 1-based byte column within the line (0 = unknown).
    pub col: u32,
}

impl Span {
    /// The unknown position.
    pub const UNKNOWN: Span = Span { line: 0, col: 0 };

    /// A known position.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// Compute the line/column of byte offset `offset` within `text`.
    /// Offsets past the end clamp to the position one past the last
    /// byte, so "unexpected EOF" errors still point somewhere useful.
    pub fn from_offset(text: &str, offset: usize) -> Span {
        let offset = offset.min(text.len());
        let mut line = 1u32;
        let mut col = 1u32;
        for b in text.as_bytes()[..offset].iter() {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Span { line, col }
    }

    /// Is this a real position (as opposed to [`Span::UNKNOWN`])?
    pub fn is_known(&self) -> bool {
        self.line > 0
    }

    /// Re-anchor a span produced by parsing a substring: the substring
    /// started at 1-based `(line, col)` of the enclosing source. Only
    /// meaningful for single-line substrings (constraint expressions),
    /// which is the only way the spec format embeds one.
    pub fn rebase(self, line: u32, col: u32) -> Span {
        if !self.is_known() {
            return Span::new(line, col);
        }
        Span::new(line + self.line - 1, col + self.col - 1)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors raised by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A referenced column does not exist in the schema (table context in `.1`).
    NoSuchColumn(String, String),
    /// A column reference was ambiguous across the FROM tables.
    AmbiguousColumn(String),
    /// Row arity does not match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// Two schemas that must match (union/difference) do not.
    SchemaMismatch(String),
    /// Syntax error from the SQL/constraint parser, with the 1-based
    /// line/column it occurred at ([`Span::UNKNOWN`] when synthesised
    /// outside a parse).
    Parse { at: Span, msg: String },
    /// An expression evaluated to a non-boolean where a predicate was needed.
    NotBoolean(String),
    /// A named set / predicate function is not defined.
    NoSuchSet(String),
    /// Constraint-solver specification problem.
    BadSpec(String),
    /// An incremental solve step would evaluate more candidate rows
    /// (intermediate rows × column values) than
    /// [`crate::solver::ROW_BUDGET`] allows.
    RowBudget {
        table: String,
        column: String,
        candidates: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoSuchTable(t) => write!(f, "no such table: {t}"),
            Error::TableExists(t) => write!(f, "table already exists: {t}"),
            Error::NoSuchColumn(c, ctx) => write!(f, "no such column: {c} (in {ctx})"),
            Error::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            Error::ArityMismatch { expected, got } => {
                write!(f, "row arity mismatch: expected {expected}, got {got}")
            }
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::Parse { at, msg } if at.is_known() => {
                write!(f, "parse error at {at}: {msg}")
            }
            Error::Parse { msg, .. } => write!(f, "parse error: {msg}"),
            Error::NotBoolean(e) => write!(f, "expression is not boolean: {e}"),
            Error::NoSuchSet(s) => write!(f, "no such named set/predicate: {s}"),
            Error::BadSpec(m) => write!(f, "bad table specification: {m}"),
            Error::RowBudget {
                table,
                column,
                candidates,
            } => write!(
                f,
                "table {table}: adding column {column} takes {candidates} candidate rows, \
                 over the {}-row budget",
                crate::solver::ROW_BUDGET
            ),
        }
    }
}

impl std::error::Error for Error {}
