//! The textual *database input* format.
//!
//! Section 1 of the paper: "The approach is used in a push-button
//! manner by creating a database input comprised of three components —
//! i) database table schema describing the individual controller table
//! columns and their legal values, ii) SQL constraints specifying the
//! behavior of the controllers, and iii) protocol static checks in
//! terms of SQL constraints and table operations."
//!
//! This module parses exactly that input as a plain-text file:
//!
//! ```text
//! # comment
//! table Fig3
//!
//! input  inmsg = readex, data, idone
//! input  dirst = I, SI, "Busy-sd", "Busy-s", "Busy-d"
//! output remmsg = sinv, NULL
//!
//! constrain dirpv: dirst = I ? dirpv = zero : true
//! constrain remmsg: inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL
//!
//! check pv-consistency: select dirst, dirpv from Fig3 where dirst = "I" and not dirpv = "zero"
//! ```
//!
//! * `table NAME` — the table being specified (exactly one).
//! * `input` / `output` — a column with its column table (legal values;
//!   `NULL` is the don't-care/no-op marker).
//! * `constrain COL: EXPR` — the column constraint (columns without one
//!   are unconstrained, i.e. `true`).
//! * `check NAME: SELECT …` — a static check: the query must return the
//!   empty set once the table is generated.
//!
//! Three optional directives describe the spec's *message flow* for the
//! linter (`ccsql lint`) and the flow analysis (`ccsql flows`); they
//! have no effect on table generation:
//!
//! * `flow COL, COL, …` — declares message columns. Input message
//!   columns receive messages, output message columns emit them. Each
//!   item may carry *role* slots: `flow COL(SRC, DEST)`, where `SRC` /
//!   `DEST` is either a declared column (the role is read per row from
//!   that column) or one of the literals `local` / `home` / `remote`
//!   (the role is constant for every message in the column). Items
//!   without role slots keep the `"*"` wildcard semantics.
//! * `extern send m1, m2, …` — messages the environment (everything
//!   outside the specs being linted) may send, so an input column
//!   accepting them is not a dead input.
//! * `extern recv m1, m2, …` — messages the environment consumes, so
//!   an output column emitting them is not unsendable.
//!
//! Four further optional directives give the spec an *operational*
//! reading — enough for a generic transaction machine (`ccsql zoo` /
//! the spec-level model checker in `ccsql-mc`) to execute the solved
//! table as a closed system. Like `flow`/`extern`, they have no effect
//! on table generation:
//!
//! * `machine COL = NXTCOL, init v1 v2 …[, stable v1 v2 …][, map X -> Y]…`
//!   — declares `COL` a controller *state variable* whose next value
//!   each row gives in output column `NXTCOL` (`NULL` = unchanged). The
//!   `init` clause lists the values exploration may start from; the
//!   `stable` clause (meaningful on the first `machine` directive, the
//!   *primary* state variable) lists the states in which a transaction
//!   is complete. `map` resolves transient next-values that are not
//!   themselves states: `map MESI -> I` rewrites them, `map inc -> +1`
//!   / `map dec -> -1` step along the declared value order (saturating
//!   at the ends), and `map MESI -> init` closes the transaction by
//!   resetting *every* state variable to its first `init` value.
//! * `multicast COL, …` — emissions in these output columns address
//!   many peers at once (e.g. one `sinv` invalidating every sharer), so
//!   the machine grants the environment more than one response credit.
//! * `complete COL = m1, m2, …` — delivering one of these messages to
//!   the `local` role completes the requester's transaction even when
//!   the controller itself stays busy (e.g. serving a pended request).
//! * `bounce COL = m1, m2, …` — delivering one of these messages to the
//!   `local` role *rejects* the request: the requester reposts it at
//!   the next higher value of its request-attribute column (priority
//!   escalation on retry).
//!
//! Every parse error carries the 1-based line/column it occurred at
//! ([`crate::error::Span`]); constraint-expression errors are re-anchored
//! from the expression substring to the real position in the file.

use crate::error::{Error, Result, Span};
use crate::expr::Expr;
use crate::parser::parse_expr;
use crate::solver::{ColumnDef, ColumnRole, TableSpec};
use crate::value::Value;

/// A parsed database input: the table specification plus its static
/// checks and the source/flow metadata the linter consumes.
pub struct SpecFile {
    /// The table specification (schema + column tables + constraints).
    pub spec: TableSpec,
    /// Static checks: `(name, sql)` pairs whose queries must be empty.
    pub checks: Vec<(String, String)>,
    /// Source spans and message-flow declarations.
    pub meta: SpecMeta,
}

/// One item of a `flow` directive: a message column, optionally tagged
/// with the source and destination *role* of every message it carries.
/// A role slot is either a declared column name (the role is read per
/// row from that column) or a role literal (`local` / `home` /
/// `remote`); `None` means the `"*"` wildcard (role unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowColumn {
    /// The message column.
    pub column: String,
    /// Source-role slot (column name or role literal).
    pub src: Option<String>,
    /// Destination-role slot (column name or role literal).
    pub dest: Option<String>,
}

impl FlowColumn {
    /// A role-less flow column (wildcard roles).
    pub fn bare(column: &str) -> FlowColumn {
        FlowColumn {
            column: column.to_string(),
            src: None,
            dest: None,
        }
    }
}

/// The role literals a `flow` role slot may use instead of a column.
pub const ROLE_LITERALS: [&str; 3] = ["local", "home", "remote"];

/// How a transient next-state value resolves to a state-variable value
/// (the `map` clauses of a `machine` directive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineStep {
    /// Rewrite to this (in-domain) value.
    To(Value),
    /// Step to the next value in the column's declared order
    /// (saturating at the last value).
    Up,
    /// Step to the previous value in the declared order (saturating at
    /// the first value).
    Down,
    /// Close the transaction: every machine variable resets to its
    /// first `init` value.
    Reset,
}

/// One `machine` directive: a state variable of the operational reading
/// of the spec (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineVar {
    /// The input column holding the variable's current value.
    pub column: String,
    /// The output column giving its next value (`NULL` = unchanged).
    pub next: String,
    /// Values exploration may start from (first = the reset value).
    pub init: Vec<Value>,
    /// States in which a transaction is complete (primary variable).
    pub stable: Vec<Value>,
    /// Transient next-value resolutions, in declaration order.
    pub maps: Vec<(Value, MachineStep)>,
}

/// Source metadata of a parsed spec file: where columns and constraints
/// were declared, plus the optional message-flow directives. Purely
/// informational — table generation ignores it; the linter uses it to
/// point diagnostics at real source positions and to run flow checks.
#[derive(Debug, Clone, Default)]
pub struct SpecMeta {
    /// Declaration position per column, in declaration order.
    pub column_spans: Vec<(String, Span)>,
    /// Position of each constraint's expression, per column.
    pub constraint_spans: Vec<(String, Span)>,
    /// Columns declared as message columns via `flow COL, …`.
    pub flow_columns: Vec<FlowColumn>,
    /// Messages the environment may send (`extern send …`).
    pub extern_send: Vec<String>,
    /// Messages the environment consumes (`extern recv …`).
    pub extern_recv: Vec<String>,
    /// State variables of the operational reading (`machine …`), in
    /// declaration order; the first is the primary state variable.
    pub machines: Vec<MachineVar>,
    /// Output columns whose emissions address many peers (`multicast`).
    pub multicast: Vec<String>,
    /// `(column, messages)` whose delivery to `local` completes a
    /// transaction (`complete COL = …`).
    pub complete_msgs: Vec<(String, Vec<Value>)>,
    /// `(column, messages)` whose delivery to `local` bounces the
    /// request to a higher priority (`bounce COL = …`).
    pub bounce_msgs: Vec<(String, Vec<Value>)>,
}

impl SpecMeta {
    /// Where column `name` was declared ([`Span::UNKNOWN`] if absent).
    pub fn column_span(&self, name: &str) -> Span {
        self.column_spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(Span::UNKNOWN)
    }

    /// Where column `name`'s constraint expression starts
    /// ([`Span::UNKNOWN`] if the column has no `constrain` directive).
    pub fn constraint_span(&self, name: &str) -> Span {
        self.constraint_spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(Span::UNKNOWN)
    }
}

/// Parse a database-input file.
pub fn parse_specfile(text: &str) -> Result<SpecFile> {
    let mut table_name: Option<String> = None;
    // (name, values, role) in declaration order.
    let mut columns: Vec<(String, Vec<Value>, ColumnRole)> = Vec::new();
    let mut constraints: Vec<(String, Expr)> = Vec::new();
    let mut checks: Vec<(String, String)> = Vec::new();
    let mut meta = SpecMeta::default();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // 1-based column of a substring of `raw` (same allocation).
        let col_of = |sub: &str| (sub.as_ptr() as usize - raw.as_ptr() as usize) as u32 + 1;
        let err = |msg: String| Error::Parse {
            at: Span::new(lineno as u32 + 1, col_of(line)),
            msg,
        };
        let (keyword, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(format!("expected a directive, found {line:?}")))?;
        let rest = rest.trim();
        match keyword {
            "table" => {
                if table_name.is_some() {
                    return Err(err("duplicate `table` directive".into()));
                }
                table_name = Some(rest.to_string());
            }
            "input" | "output" => {
                let (name, values) = rest
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected `NAME = v1, v2, …`, found {rest:?}")))?;
                let name = name.trim();
                if name.is_empty() {
                    return Err(err("empty column name".into()));
                }
                let role = if keyword == "input" {
                    ColumnRole::Input
                } else {
                    ColumnRole::Output
                };
                let vals: Vec<Value> = values
                    .split(',')
                    .map(|v| parse_value(v.trim()))
                    .collect::<Result<_>>()
                    .map_err(|e| err(format!("bad value list: {e}")))?;
                if vals.is_empty() {
                    return Err(err(format!("column {name} has no values")));
                }
                meta.column_spans
                    .push((name.to_string(), Span::new(lineno as u32 + 1, col_of(name))));
                columns.push((name.to_string(), vals, role));
            }
            "constrain" => {
                let (col, expr) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `constrain COL: EXPR`".into()))?;
                let expr = expr.trim();
                let expr_at = Span::new(lineno as u32 + 1, col_of(expr));
                // Errors inside the expression are re-anchored from the
                // substring's own (1-based, single-line) position to the
                // expression's position in this file.
                let e = parse_expr(expr).map_err(|e| match e {
                    Error::Parse { at, msg } => Error::Parse {
                        at: at.rebase(expr_at.line, expr_at.col),
                        msg: format!("bad constraint for {}: {msg}", col.trim()),
                    },
                    other => err(format!("bad constraint for {}: {other}", col.trim())),
                })?;
                meta.constraint_spans
                    .push((col.trim().to_string(), expr_at));
                constraints.push((col.trim().to_string(), e));
            }
            "flow" => {
                for item in split_flow_items(rest).into_iter().map(str::trim) {
                    if item.is_empty() {
                        return Err(err("expected `flow COL, COL(SRC, DEST), …`".into()));
                    }
                    meta.flow_columns.push(parse_flow_item(item).map_err(err)?);
                }
            }
            "extern" => {
                let (dir, msgs) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("expected `extern send|recv m1, m2, …`".into()))?;
                let list = match dir {
                    "send" => &mut meta.extern_send,
                    "recv" => &mut meta.extern_recv,
                    other => {
                        return Err(err(format!(
                            "expected `extern send` or `extern recv`, found `extern {other}`"
                        )))
                    }
                };
                for m in msgs.split(',').map(str::trim) {
                    if m.is_empty() {
                        return Err(err("empty message name in `extern` list".into()));
                    }
                    list.push(m.to_string());
                }
            }
            "check" => {
                let (name, sql) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `check NAME: SELECT …`".into()))?;
                checks.push((name.trim().to_string(), sql.trim().to_string()));
            }
            "machine" => {
                meta.machines.push(parse_machine_item(rest).map_err(err)?);
            }
            "multicast" => {
                for c in rest.split(',').map(str::trim) {
                    if c.is_empty() {
                        return Err(err("empty column name in `multicast` list".into()));
                    }
                    meta.multicast.push(c.to_string());
                }
            }
            "complete" | "bounce" => {
                let (col, vals) = rest.split_once('=').ok_or_else(|| {
                    err(format!(
                        "expected `{keyword} COL = m1, m2, …`, found {rest:?}"
                    ))
                })?;
                let col = col.trim();
                if col.is_empty() {
                    return Err(err(format!("`{keyword}` needs a column name")));
                }
                let vals: Vec<Value> = vals
                    .split(',')
                    .map(|v| parse_value(v.trim()))
                    .collect::<Result<_>>()
                    .map_err(|e| err(format!("bad `{keyword}` value list: {e}")))?;
                let list = if keyword == "complete" {
                    &mut meta.complete_msgs
                } else {
                    &mut meta.bounce_msgs
                };
                list.push((col.to_string(), vals));
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }

    let name = table_name.ok_or(Error::Parse {
        at: Span::UNKNOWN,
        msg: "missing `table NAME` directive".into(),
    })?;
    let mut spec = TableSpec::new(&name);
    for (cname, values, role) in columns {
        let constraint = constraints
            .iter()
            .find(|(c, _)| *c == cname)
            .map(|(_, e)| e.clone())
            .unwrap_or(Expr::True);
        let def = match role {
            ColumnRole::Input => ColumnDef::input(&cname, values, constraint),
            ColumnRole::Output => ColumnDef::output(&cname, values, constraint),
        };
        spec.push(def);
    }
    // A constraint or flow declaration naming an undeclared column is a
    // spec bug.
    for (c, _) in &constraints {
        if !spec.columns.iter().any(|col| col.name.as_str() == c) {
            return Err(Error::BadSpec(format!(
                "constraint for undeclared column {c}"
            )));
        }
    }
    let declared = |c: &str| spec.columns.iter().any(|col| col.name.as_str() == c);
    for fc in &meta.flow_columns {
        if !declared(&fc.column) {
            return Err(Error::BadSpec(format!(
                "`flow` declares undeclared column {}",
                fc.column
            )));
        }
        // A role slot must resolve: either a declared column holding the
        // role per row, or one of the fixed role literals.
        for role in [&fc.src, &fc.dest].into_iter().flatten() {
            if !declared(role) && !ROLE_LITERALS.contains(&role.as_str()) {
                return Err(Error::BadSpec(format!(
                    "`flow {}({}, {})`: role {role:?} is neither a declared column nor one of {}",
                    fc.column,
                    fc.src.as_deref().unwrap_or("?"),
                    fc.dest.as_deref().unwrap_or("?"),
                    ROLE_LITERALS.join("/"),
                )));
            }
        }
    }
    // The operational directives must name declared columns with
    // in-domain values — a `machine` pointing at a typo'd column or an
    // out-of-domain reset value is a spec bug worth rejecting at parse.
    let domain_of = |c: &str| {
        spec.columns
            .iter()
            .find(|col| col.name.as_str() == c)
            .map(|col| col.values.clone())
    };
    for (i, m) in meta.machines.iter().enumerate() {
        let sdom = domain_of(&m.column).ok_or_else(|| {
            Error::BadSpec(format!("`machine` declares undeclared column {}", m.column))
        })?;
        let ndom = domain_of(&m.next).ok_or_else(|| {
            Error::BadSpec(format!(
                "`machine {}`: next column {} is not declared",
                m.column, m.next
            ))
        })?;
        if meta.machines[..i].iter().any(|o| o.column == m.column) {
            return Err(Error::BadSpec(format!(
                "duplicate `machine` directive for column {}",
                m.column
            )));
        }
        for v in m.init.iter().chain(&m.stable) {
            if !sdom.contains(v) {
                return Err(Error::BadSpec(format!(
                    "`machine {}`: value {v} is not in the column's table",
                    m.column
                )));
            }
        }
        for (from, step) in &m.maps {
            if !ndom.contains(from) {
                return Err(Error::BadSpec(format!(
                    "`machine {}`: map source {from} is not a value of {}",
                    m.column, m.next
                )));
            }
            if let MachineStep::To(v) = step {
                if !sdom.contains(v) {
                    return Err(Error::BadSpec(format!(
                        "`machine {}`: map target {v} is not in the column's table",
                        m.column
                    )));
                }
            }
        }
    }
    for c in &meta.multicast {
        if !declared(c) {
            return Err(Error::BadSpec(format!(
                "`multicast` declares undeclared column {c}"
            )));
        }
    }
    for (kw, list) in [
        ("complete", &meta.complete_msgs),
        ("bounce", &meta.bounce_msgs),
    ] {
        for (col, vals) in list {
            let dom = domain_of(col).ok_or_else(|| {
                Error::BadSpec(format!("`{kw}` declares undeclared column {col}"))
            })?;
            for v in vals {
                if !dom.contains(v) {
                    return Err(Error::BadSpec(format!(
                        "`{kw} {col}`: value {v} is not in the column's table"
                    )));
                }
            }
        }
    }
    Ok(SpecFile { spec, checks, meta })
}

/// Split a `flow` directive's item list at top-level commas, so role
/// slots inside `COL(SRC, DEST)` stay attached to their item.
fn split_flow_items(rest: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, ch) in rest.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(&rest[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&rest[start..]);
    items
}

/// Parse one `flow` item: `COL` or `COL(SRC, DEST)`.
fn parse_flow_item(item: &str) -> std::result::Result<FlowColumn, String> {
    let Some((name, roles)) = item.split_once('(') else {
        return Ok(FlowColumn::bare(item));
    };
    let roles = roles
        .strip_suffix(')')
        .ok_or_else(|| format!("unterminated role list in flow item {item:?}"))?;
    let (src, dest) = roles
        .split_once(',')
        .ok_or_else(|| format!("expected `COL(SRC, DEST)` in flow item {item:?}"))?;
    let (name, src, dest) = (name.trim(), src.trim(), dest.trim());
    if name.is_empty() || src.is_empty() || dest.is_empty() || dest.contains(',') {
        return Err(format!("expected `COL(SRC, DEST)` in flow item {item:?}"));
    }
    Ok(FlowColumn {
        column: name.to_string(),
        src: Some(src.to_string()),
        dest: Some(dest.to_string()),
    })
}

/// Parse one `machine` directive body:
/// `COL = NXTCOL, init v1 v2 …[, stable v1 v2 …][, map X -> Y]…`.
fn parse_machine_item(rest: &str) -> std::result::Result<MachineVar, String> {
    let mut clauses = rest.split(',').map(str::trim);
    let head = clauses.next().unwrap_or("");
    let (column, next) = head
        .split_once('=')
        .ok_or_else(|| format!("expected `machine COL = NXTCOL, init …`, found {head:?}"))?;
    let (column, next) = (column.trim(), next.trim());
    if column.is_empty() || next.is_empty() {
        return Err(format!(
            "expected `machine COL = NXTCOL, …`, found {head:?}"
        ));
    }
    let mut m = MachineVar {
        column: column.to_string(),
        next: next.to_string(),
        init: Vec::new(),
        stable: Vec::new(),
        maps: Vec::new(),
    };
    let values = |list: &str| -> std::result::Result<Vec<Value>, String> {
        let vals: Vec<Value> = list
            .split_whitespace()
            .map(parse_value)
            .collect::<Result<_>>()
            .map_err(|e| format!("bad value in `machine {column}`: {e}"))?;
        if vals.is_empty() {
            return Err(format!("`machine {column}`: empty value list"));
        }
        Ok(vals)
    };
    for clause in clauses {
        let (kw, body) = clause
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("bad `machine` clause {clause:?}"))?;
        match kw {
            "init" => m.init = values(body.trim())?,
            "stable" => m.stable = values(body.trim())?,
            "map" => {
                let (from, to) = body
                    .split_once("->")
                    .ok_or_else(|| format!("expected `map X -> Y` in `machine {column}`"))?;
                let from = parse_value(from.trim())
                    .map_err(|e| format!("bad map source in `machine {column}`: {e}"))?;
                let step = match to.trim() {
                    "+1" => MachineStep::Up,
                    "-1" => MachineStep::Down,
                    "init" => MachineStep::Reset,
                    v => MachineStep::To(
                        parse_value(v)
                            .map_err(|e| format!("bad map target in `machine {column}`: {e}"))?,
                    ),
                };
                m.maps.push((from, step));
            }
            other => return Err(format!("unknown `machine` clause keyword {other:?}")),
        }
    }
    if m.init.is_empty() {
        return Err(format!("`machine {column}` needs an `init` clause"));
    }
    Ok(m)
}

/// Parse one value token: `NULL`, a quoted string, an integer, or a
/// bare symbol.
fn parse_value(tok: &str) -> Result<Value> {
    if tok.is_empty() {
        return Err(Error::Parse {
            at: Span::UNKNOWN,
            msg: "empty value".into(),
        });
    }
    if tok.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    if tok.eq_ignore_ascii_case("true") {
        return Ok(Value::Bool(true));
    }
    if tok.eq_ignore_ascii_case("false") {
        return Ok(Value::Bool(false));
    }
    if let Some(stripped) = tok.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        return Ok(Value::sym(stripped));
    }
    if let Ok(n) = tok.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    Ok(Value::sym(tok))
}

/// Generate the table from a database input and run its static checks
/// against the result. Returns the generated relation and any failing
/// checks with their witness relations.
pub fn solve_specfile(sf: &SpecFile) -> Result<(crate::Relation, Vec<(String, crate::Relation)>)> {
    solve_specfile_with(sf, true)
}

/// [`solve_specfile`] with compiled constraint evaluation switchable —
/// `compile: false` is the interpreted oracle behind `--no-compile`.
pub fn solve_specfile_with(
    sf: &SpecFile,
    compile: bool,
) -> Result<(crate::Relation, Vec<(String, crate::Relation)>)> {
    let opts = crate::GenOptions {
        mode: crate::GenMode::Incremental,
        compile,
    };
    let (rel, _) = sf
        .spec
        .generate_with(opts, &crate::expr::SetContext::new())?;
    let failures = check_specfile(sf, &rel)?;
    Ok((rel, failures))
}

/// Run the spec file's static checks against `rel`, its generated
/// table. Returns the failing checks with their witness relations.
pub fn check_specfile(
    sf: &SpecFile,
    rel: &crate::Relation,
) -> Result<Vec<(String, crate::Relation)>> {
    let mut db = crate::Database::new();
    db.put_table(&sf.spec.name, rel.clone());
    let mut failures = Vec::new();
    for (name, sql) in &sf.checks {
        let witnesses = db.query(sql)?;
        if !witnesses.is_empty() {
            failures.push((name.clone(), witnesses));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3_MINI: &str = r#"
# The readex slice of the directory controller, as a database input.
table Fig3

input inmsg = readex, data, idone
input dirst = I, SI, "Busy-sd", "Busy-s", "Busy-d"
input dirpv = zero, one, gone

output remmsg = sinv, NULL
output memmsg = mread, NULL

constrain dirst: inmsg = readex ? dirst in (I, SI) : (inmsg = data ? dirst in ("Busy-sd", "Busy-d") : dirst in ("Busy-sd", "Busy-s"))
constrain dirpv: dirst = I ? dirpv = zero : (dirst = SI ? dirpv in (one, gone) : (inmsg = data and dirst = "Busy-d" ? dirpv = zero : dirpv in (zero, one, gone)))
constrain remmsg: inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL
constrain memmsg: inmsg = readex ? memmsg = mread : memmsg = NULL

check sinv-only-on-shared-readex: select inmsg, dirst, remmsg from Fig3 where remmsg = "sinv" and not dirst = "SI"
check readex-always-reads-memory: select inmsg, memmsg from Fig3 where inmsg = "readex" and memmsg = NULL
"#;

    #[test]
    fn parses_and_solves_the_mini_input() {
        let sf = parse_specfile(FIG3_MINI).unwrap();
        assert_eq!(sf.spec.name, "Fig3");
        assert_eq!(sf.spec.columns.len(), 5);
        assert_eq!(sf.checks.len(), 2);
        let (rel, failures) = solve_specfile(&sf).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        // readex: I + SI×2 = 3; data: Busy-sd×3 + Busy-d×1 = 4;
        // idone: Busy-sd×3 + Busy-s×3 = 6 → 13 rows.
        assert_eq!(rel.len(), 13);
    }

    #[test]
    fn checks_fail_with_witnesses() {
        let bad = FIG3_MINI.replace(
            "check sinv-only-on-shared-readex: select inmsg, dirst, remmsg from Fig3 where remmsg = \"sinv\" and not dirst = \"SI\"",
            "check impossible: select inmsg from Fig3 where inmsg = \"readex\"",
        );
        let sf = parse_specfile(&bad).unwrap();
        let (_, failures) = solve_specfile(&sf).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "impossible");
        assert_eq!(failures[0].1.len(), 3);
    }

    #[test]
    fn error_cases() {
        assert!(parse_specfile("input a = x").is_err()); // no table
        assert!(parse_specfile("table t\ntable u").is_err()); // duplicate
        assert!(parse_specfile("table t\nbogus x").is_err()); // directive
        assert!(parse_specfile("table t\ninput a x, y").is_err()); // no '='
        assert!(parse_specfile("table t\ninput = x").is_err()); // no name
        assert!(parse_specfile("table t\ninput a = x\nconstrain b: true").is_err()); // unknown col
        assert!(parse_specfile("table t\ninput a = x\nconstrain a bad").is_err()); // no ':'
        assert!(parse_specfile("table t\ninput a = x\nconstrain a: ? ?").is_err());
        // bad expr
    }

    #[test]
    fn flow_role_slots_parse_and_validate() {
        let src = "table t\ninput a = x\ninput who = local, home\noutput o = y, NULL\n\
                   flow a(who, home), o";
        let sf = parse_specfile(src).unwrap();
        assert_eq!(
            sf.meta.flow_columns,
            vec![
                FlowColumn {
                    column: "a".into(),
                    src: Some("who".into()),
                    dest: Some("home".into()),
                },
                FlowColumn::bare("o"),
            ]
        );
        // Role slot neither a declared column nor a role literal.
        let bad = "table t\ninput a = x\nflow a(nowhere, home)";
        assert!(parse_specfile(bad).is_err());
        // Malformed role lists.
        assert!(parse_specfile("table t\ninput a = x\nflow a(home, local").is_err());
        assert!(parse_specfile("table t\ninput a = x\nflow a(home)").is_err());
        assert!(parse_specfile("table t\ninput a = x\nflow a(home, local, x)").is_err());
    }

    #[test]
    fn machine_directives_parse_and_validate() {
        let src = "table t\n\
                   input st = I, B\n\
                   input pv = zero, one, gone\n\
                   output nxtst = DONE, B, NULL\n\
                   output nxtpv = inc, dec, NULL\n\
                   output o = m, r, NULL\n\
                   machine st = nxtst, init I, stable I, map DONE -> init\n\
                   machine pv = nxtpv, init zero one, map inc -> +1, map dec -> -1\n\
                   multicast o\n\
                   complete o = m\n\
                   bounce o = r";
        let sf = parse_specfile(src).unwrap();
        assert_eq!(sf.meta.machines.len(), 2);
        let st = &sf.meta.machines[0];
        assert_eq!(st.column, "st");
        assert_eq!(st.next, "nxtst");
        assert_eq!(st.init, vec![Value::sym("I")]);
        assert_eq!(st.stable, vec![Value::sym("I")]);
        assert_eq!(st.maps, vec![(Value::sym("DONE"), MachineStep::Reset)]);
        let pv = &sf.meta.machines[1];
        assert_eq!(pv.init, vec![Value::sym("zero"), Value::sym("one")]);
        assert_eq!(
            pv.maps,
            vec![
                (Value::sym("inc"), MachineStep::Up),
                (Value::sym("dec"), MachineStep::Down),
            ]
        );
        assert_eq!(sf.meta.multicast, vec!["o".to_string()]);
        assert_eq!(
            sf.meta.complete_msgs,
            vec![("o".to_string(), vec![Value::sym("m")])]
        );
        assert_eq!(
            sf.meta.bounce_msgs,
            vec![("o".to_string(), vec![Value::sym("r")])]
        );
    }

    #[test]
    fn machine_directive_error_cases() {
        let base = "table t\ninput st = I, B\noutput nxtst = DONE, B, NULL\n";
        // Undeclared state / next columns.
        assert!(parse_specfile(&format!("{base}machine nope = nxtst, init I")).is_err());
        assert!(parse_specfile(&format!("{base}machine st = nope, init I")).is_err());
        // Missing init; out-of-domain init/stable/map values.
        assert!(parse_specfile(&format!("{base}machine st = nxtst, stable I")).is_err());
        assert!(parse_specfile(&format!("{base}machine st = nxtst, init X")).is_err());
        assert!(parse_specfile(&format!("{base}machine st = nxtst, init I, stable X")).is_err());
        assert!(parse_specfile(&format!("{base}machine st = nxtst, init I, map X -> I")).is_err());
        assert!(
            parse_specfile(&format!("{base}machine st = nxtst, init I, map DONE -> X")).is_err()
        );
        // Duplicate machine for a column; malformed clauses.
        assert!(parse_specfile(&format!(
            "{base}machine st = nxtst, init I\nmachine st = nxtst, init B"
        ))
        .is_err());
        assert!(parse_specfile(&format!("{base}machine st = nxtst, init I, bogus x")).is_err());
        assert!(parse_specfile(&format!("{base}machine st nxtst, init I")).is_err());
        // multicast / complete / bounce validation.
        assert!(parse_specfile(&format!("{base}multicast nope")).is_err());
        assert!(parse_specfile(&format!("{base}complete nope = m")).is_err());
        assert!(parse_specfile(&format!("{base}complete nxtst = m")).is_err());
        assert!(parse_specfile(&format!("{base}bounce nxtst = DONE\nbounce nope = x")).is_err());
    }

    #[test]
    fn value_token_forms() {
        assert_eq!(parse_value("NULL").unwrap(), Value::Null);
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("\"Busy-sd\"").unwrap(), Value::sym("Busy-sd"));
        assert_eq!(parse_value("readex").unwrap(), Value::sym("readex"));
        assert!(parse_value("").is_err());
    }
}
