//! Spec-level model checking: execute a solved `.ccsql` table as a
//! closed transaction machine and explore it exhaustively.
//!
//! The hand-written [`crate::Model`] covers exactly one protocol (the
//! ASURA-style directory MESI). This module is its generalisation for
//! the protocol zoo: any spec pack that carries the operational
//! directives (`machine`, and optionally `multicast` / `complete` /
//! `bounce`, see `ccsql_relalg::specfile`) defines a finite concurrent
//! system that can be model-checked without writing a line of Rust:
//!
//! * The directory's state is the `machine` variables; each solved row
//!   is a guarded transition on them.
//! * `N` symmetric requester agents post the request messages the spec
//!   declares `extern send` and whose rows accept them from the `local`
//!   role. A posted request is consumed when its row fires; the agent
//!   then waits until a completion is delivered back to `local`.
//! * Emissions towards `home`/`remote` grant the environment *response
//!   credits*; a row accepting a message from those roles can only fire
//!   while a credit is outstanding (`multicast` emissions grant
//!   [`RESPONSE_CAP`], i.e. "many").
//!
//! Exploration is a breadth-first search with the same discipline as
//! [`mod@crate::explore`]: byte-identical results at any thread count, and
//! an optional symmetry reduction over the requester permutation group
//! (agent lanes are sorted into a canonical order; the orbit sizes must
//! sum back to the full state count).
//!
//! One transition function serves the exploration, the seeded walk and
//! the violation witness: `SpecMachine::for_each_successor` builds each
//! successor in a caller-owned scratch slice and hands it to a
//! callback, so expanding a state allocates nothing. It visits only the
//! rows indexed under the state's primary-variable value.
//!
//! A state is one byte per machine variable, credit counter and agent
//! lane, so [`SpecMachine::build`] rejects what those bytes cannot
//! encode: a machine variable with more than 256 values, and more than
//! 127 (request, attribute) pairs for an agent lane.
//!
//! Four verdicts beyond budget exhaustion:
//!
//! * **stuck** — a reachable state with no enabled transition at all: a
//!   table-level deadlock (a transaction the table cannot finish).
//! * **violation** — a response delivered to `local` while no agent is
//!   waiting for one (the directory answering nobody), or a bounce
//!   without a consumed request.
//! * **undrainable** — a reachable state from which no quiescent state
//!   (all agents idle, primary state stable) is reachable: the system
//!   can run forever but never complete its work.
//! * **verified** — none of the above, within budget.

use crate::engine::{Emitter, EngineOpts, EngineOutcome, ParentLink, Space, Word};
use ccsql_obs::json::{write_json_str, JsonObj};
use ccsql_obs::FxHashMap;
use ccsql_protocol::topology::Role;
use ccsql_relalg::specfile::{MachineStep, SpecFile, ROLE_LITERALS};
use ccsql_relalg::{Relation, Value};
use std::fmt::Write as _;

/// Response credits granted by a `multicast` emission, and the cap the
/// per-role credit counters saturate at ("this many = many").
pub const RESPONSE_CAP: u8 = 2;

/// The most values a machine variable may have: a state holds its
/// domain index in one byte.
const MAX_VAR_VALUES: usize = 256;

/// The most (request, attribute) pairs an agent lane can encode: a lane
/// is one byte, `1 + pair·2 + active` (see [`SpecMachine::lane`]).
const MAX_LANE_PAIRS: usize = 127;

/// The most rows a machine may have, so that every transition label
/// (posts, completions and plain firings of up to [`SPEC_WORD_BYTES`]
/// agents) fits a `u32`.
const MAX_ROWS: usize = 1 << 24;

/// How a row updates one machine variable (maps already resolved).
#[derive(Clone, Copy, Debug)]
enum NextOp {
    /// `NULL` — keep the current value.
    Keep,
    /// Set to this domain index.
    Set(u8),
    /// Step up/down the declared value order, saturating at its ends.
    Up,
    Down,
    /// Reset every variable to its first `init` value.
    Reset,
}

/// What a row's emissions deliver to `local`; a `complete` message
/// outranks a plain one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Delivery {
    Nothing,
    /// Retires a requester only if the primary variable ends stable.
    Plain,
    /// A `complete` message: always retires a requester.
    Complete,
}

/// One solved row, precompiled for the machine.
#[derive(Clone, Debug)]
struct MRow {
    /// Required machine-variable values (domain indices).
    vars: Vec<u8>,
    src: Role,
    /// For `local` rows: the lane of the posted request the row
    /// consumes ([`SpecMachine::lane`]); 0 for the other roles.
    posted: u8,
    /// Response credits the emissions grant to the home and remote
    /// counters: one per emission, [`RESPONSE_CAP`] for a `multicast`
    /// one, at most the cap.
    grant: [u8; 2],
    /// A `bounce` message returns the consumed request to its agent.
    bounce: bool,
    delivery: Delivery,
    /// The last message delivered to `local` (for the violation text).
    local_msg: String,
    next: Vec<NextOp>,
    label: String,
}

/// One machine variable with its value domain.
#[derive(Clone, Debug)]
struct VarDef {
    name: String,
    domain: Vec<String>,
    init: Vec<u8>,
    /// Per-domain-index stability (primary variable only).
    stable: Vec<bool>,
}

/// A postable request: message name, shown in labels.
#[derive(Clone, Debug)]
struct ReqDef {
    msg: String,
}

/// The compiled transaction machine for one spec pack.
#[derive(Debug)]
pub struct SpecMachine {
    /// Table name, for reports.
    pub table: String,
    vars: Vec<VarDef>,
    rows: Vec<MRow>,
    /// `rows_at[v]`: the ids of the rows whose primary variable is `v`,
    /// ascending (one bucket per domain value of the primary variable).
    rows_at: Vec<Vec<u32>>,
    reqs: Vec<ReqDef>,
    /// Request-attribute domain (e.g. priority phases); `["-"]` when
    /// the spec has none.
    attr_domain: Vec<String>,
    /// Initial states the legality filter dropped (no row matches).
    pub dropped_inits: usize,
}

/// One enabled transition out of a state; its successor state travels
/// next to it ([`SpecMachine::for_each_successor`]). The label is a
/// dense numeric id (see [`SpecMachine::label_text`]) so the
/// exploration hot path never formats strings; labels are rendered only
/// when a counterexample path is printed.
#[derive(Clone, Copy)]
struct Succ {
    label: u32,
    row: Option<u32>,
    completed: bool,
}

/// A safety violation found while expanding a state.
struct Violation {
    label: String,
    msg: String,
}

/// Exploration options.
#[derive(Clone, Debug)]
pub struct SpecMcOpts {
    /// Number of symmetric requester agents: at least 1 and at most
    /// [`SpecMachine::max_agents`].
    pub agents: usize,
    /// Worker threads (results are byte-identical for every count).
    pub threads: usize,
    /// Explore the agent-permutation quotient instead of the full
    /// space (same verdict, fewer states).
    pub symmetry: bool,
    /// Maximum states to visit before giving up (exact: the engine
    /// stops at exactly this many states when the space is larger).
    pub budget: usize,
    /// Disjoint state shards (results identical for every count ≥ 1).
    pub shards: usize,
    /// Resident-memory target in bytes (0 = unlimited); see
    /// [`crate::engine::EngineOpts::mem_budget`].
    pub mem_budget: usize,
    /// Base directory for spill files (OS temp dir when `None`).
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for SpecMcOpts {
    fn default() -> SpecMcOpts {
        SpecMcOpts {
            agents: 2,
            threads: 1,
            symmetry: false,
            budget: 1_000_000,
            shards: crate::engine::DEFAULT_SHARDS,
            mem_budget: 0,
            spill_dir: None,
        }
    }
}

/// The exploration verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecVerdict {
    /// Exhaustive exploration found no problem.
    Verified,
    /// A reachable state has no enabled transition.
    Stuck,
    /// A response was delivered with nobody waiting (or a bounce
    /// without a consumed request).
    Violation,
    /// A reachable state cannot drain back to quiescence.
    Undrainable,
    /// The state budget ran out first.
    Budget,
}

impl SpecVerdict {
    /// Lower-case label used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpecVerdict::Verified => "verified",
            SpecVerdict::Stuck => "stuck",
            SpecVerdict::Violation => "violation",
            SpecVerdict::Undrainable => "undrainable",
            SpecVerdict::Budget => "budget-exceeded",
        }
    }
}

/// Deterministic exploration statistics (no wall-clock anywhere, so two
/// runs — at any thread count, symmetry on or off for the orbit sum —
/// render byte-identically).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecMcStats {
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    /// Table rows the exploration actually fired.
    pub rows_covered: usize,
    pub rows_total: usize,
    /// Σ orbit sizes over the canonical states (== the full state count
    /// when exploration completed); equals `states` without symmetry.
    pub orbit_states: u128,
    pub dropped_inits: usize,
}

/// The result of [`SpecMachine::explore`].
#[derive(Clone, Debug)]
pub struct SpecMcOutcome {
    pub verdict: SpecVerdict,
    pub stats: SpecMcStats,
    /// Problem description plus the transition path that reaches it
    /// (empty for `Verified`).
    pub counterexample: Vec<String>,
}

impl SpecMcOutcome {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "specmc: {} — {} state(s), {} transition(s), depth {}, rows {}/{} covered, orbit {}",
            self.verdict.as_str(),
            self.stats.states,
            self.stats.transitions,
            self.stats.depth,
            self.stats.rows_covered,
            self.stats.rows_total,
            self.stats.orbit_states,
        );
        if !self.counterexample.is_empty() {
            s.push('\n');
            s.push_str(&self.counterexample.join("\n"));
        }
        s
    }

    /// Canonical single-line JSON (for byte-identity gates).
    pub fn render_json(&self, table: &str, opts: &SpecMcOpts) -> String {
        let mut cx = String::from("[");
        for (i, line) in self.counterexample.iter().enumerate() {
            if i > 0 {
                cx.push(',');
            }
            write_json_str(&mut cx, line);
        }
        cx.push(']');
        JsonObj::new()
            .str("table", table)
            .u64("agents", opts.agents as u64)
            .raw("symmetry", if opts.symmetry { "true" } else { "false" })
            .str("verdict", self.verdict.as_str())
            .u64("states", self.stats.states as u64)
            .u64("transitions", self.stats.transitions as u64)
            .u64("depth", self.stats.depth as u64)
            .u64("rows_covered", self.stats.rows_covered as u64)
            .u64("rows_total", self.stats.rows_total as u64)
            .raw("orbit_states", &self.stats.orbit_states.to_string())
            .u64("dropped_inits", self.stats.dropped_inits as u64)
            .raw("counterexample", &cx)
            .finish()
    }
}

/// The result of a seeded random walk ([`SpecMachine::simulate`]).
#[derive(Clone, Debug)]
pub struct SpecSimReport {
    pub steps: usize,
    pub completions: usize,
    pub rows_covered: usize,
    pub rows_total: usize,
    /// Where the walk stopped short, if it did: the render of a state
    /// with no enabled transition, or the safety violation it ran into.
    pub stuck: Option<String>,
    /// `stuck` names a safety violation, not a stuck state.
    pub violation: bool,
}

impl SpecSimReport {
    /// One-line rendering (deterministic for a fixed seed).
    pub fn render(&self, seed: u64) -> String {
        match &self.stuck {
            None => format!(
                "specsim seed={seed}: {} step(s), {} completion(s), rows {}/{} covered",
                self.steps, self.completions, self.rows_covered, self.rows_total
            ),
            Some(v) if self.violation => format!(
                "specsim seed={seed}: VIOLATION after {} step(s): {v}",
                self.steps
            ),
            Some(st) => format!(
                "specsim seed={seed}: STUCK after {} step(s) at {st}",
                self.steps
            ),
        }
    }
}

impl SpecMachine {
    /// Compile the machine from a parsed spec and its solved relation.
    /// Fails with a diagnostic string when the spec lacks (or misuses)
    /// the operational directives.
    pub fn build(sf: &SpecFile, rel: &Relation) -> Result<SpecMachine, String> {
        if sf.meta.machines.is_empty() {
            return Err("spec has no `machine` directives (no operational reading)".into());
        }
        let col_idx = |name: &str| -> Result<usize, String> {
            sf.spec
                .columns
                .iter()
                .position(|c| c.name.as_str() == name)
                .ok_or_else(|| format!("column {name} not found"))
        };
        let is_input = |name: &str| {
            sf.spec.columns.iter().any(|c| {
                c.name.as_str() == name && c.role == ccsql_relalg::solver::ColumnRole::Input
            })
        };

        // The input flow column is the message column; its src slot
        // gives the per-row source role. Output flow columns emit.
        let mut msg_cols: Vec<&ccsql_relalg::specfile::FlowColumn> = Vec::new();
        let mut emit_cols: Vec<&ccsql_relalg::specfile::FlowColumn> = Vec::new();
        for fc in &sf.meta.flow_columns {
            if is_input(&fc.column) {
                msg_cols.push(fc);
            } else {
                emit_cols.push(fc);
            }
        }
        let [msg_fc] = msg_cols[..] else {
            return Err(format!(
                "need exactly one input flow column, found {}",
                msg_cols.len()
            ));
        };
        let src_slot = msg_fc
            .src
            .as_deref()
            .ok_or("the input flow column needs a source role slot")?;
        let msg_ci = col_idx(&msg_fc.column)?;

        // Machine variables.
        let machine_of = |name: &str| sf.meta.machines.iter().find(|m| m.column == name);
        let mut vars = Vec::new();
        let mut var_cis = Vec::new();
        let mut next_cis = Vec::new();
        for m in &sf.meta.machines {
            let ci = col_idx(&m.column)?;
            let domain: Vec<String> = sf.spec.columns[ci]
                .values
                .iter()
                .map(|v| v.to_string())
                .collect();
            if domain.len() > MAX_VAR_VALUES {
                return Err(format!(
                    "machine variable {} has {} values, but a state byte holds at most \
                     {MAX_VAR_VALUES}",
                    m.column,
                    domain.len()
                ));
            }
            let didx = |v: &Value| -> Result<u8, String> {
                sf.spec.columns[ci]
                    .values
                    .iter()
                    .position(|d| d == v)
                    .map(|i| i as u8)
                    .ok_or_else(|| format!("machine {}: value {v} not in domain", m.column))
            };
            let init = m.init.iter().map(didx).collect::<Result<Vec<_>, _>>()?;
            let mut stable = vec![false; domain.len()];
            for v in &m.stable {
                stable[didx(v)? as usize] = true;
            }
            vars.push(VarDef {
                name: m.column.clone(),
                domain,
                init,
                stable,
            });
            var_cis.push(ci);
            next_cis.push(col_idx(&m.next)?);
        }
        if vars[0].stable.iter().all(|s| !s) {
            return Err(format!(
                "primary machine variable {} needs a `stable` clause",
                vars[0].name
            ));
        }

        // The request-attribute column: an input column that is neither
        // the message column, nor a role slot, nor a machine variable.
        let role_cols: Vec<&str> = sf
            .meta
            .flow_columns
            .iter()
            .flat_map(|fc| [fc.src.as_deref(), fc.dest.as_deref()])
            .flatten()
            .filter(|r| !ROLE_LITERALS.contains(r))
            .collect();
        let mut attr_col: Option<(usize, Vec<String>)> = None;
        for (ci, c) in sf.spec.columns.iter().enumerate() {
            if c.role != ccsql_relalg::solver::ColumnRole::Input {
                continue;
            }
            let name = c.name.as_str();
            if ci == msg_ci || role_cols.contains(&name) || machine_of(name).is_some() {
                continue;
            }
            if attr_col.is_some() {
                return Err(format!(
                    "more than one request-attribute column ({} is the second); \
                     declare the extras as `machine` variables",
                    name
                ));
            }
            attr_col = Some((ci, c.values.iter().map(|v| v.to_string()).collect()));
        }
        let attr_domain = attr_col
            .as_ref()
            .map(|(_, d)| d.clone())
            .unwrap_or_else(|| vec!["-".to_string()]);

        // Emission columns with their per-column markers.
        let value_set = |list: &[(String, Vec<Value>)], col: &str| -> Vec<String> {
            list.iter()
                .filter(|(c, _)| c == col)
                .flat_map(|(_, vs)| vs.iter().map(|v| v.to_string()))
                .collect()
        };
        struct EmitCol {
            ci: usize,
            dest_lit: Option<Role>,
            dest_ci: Option<usize>,
            multicast: bool,
            complete: Vec<String>,
            bounce: Vec<String>,
        }
        let mut emits = Vec::new();
        for fc in &emit_cols {
            let dest = fc
                .dest
                .as_deref()
                .ok_or_else(|| format!("emit flow column {} needs a dest role slot", fc.column))?;
            let (dest_lit, dest_ci) = match Role::parse(dest) {
                Some(r) => (Some(r), None),
                None => (None, Some(col_idx(dest)?)),
            };
            emits.push(EmitCol {
                ci: col_idx(&fc.column)?,
                dest_lit,
                dest_ci,
                multicast: sf.meta.multicast.iter().any(|c| c == &fc.column),
                complete: value_set(&sf.meta.complete_msgs, &fc.column),
                bounce: value_set(&sf.meta.bounce_msgs, &fc.column),
            });
        }

        // Compile the rows.
        if rel.len() > MAX_ROWS {
            return Err(format!(
                "the table has {} rows, but a machine holds at most {MAX_ROWS}",
                rel.len()
            ));
        }
        let extern_send = &sf.meta.extern_send;
        let mut reqs: Vec<ReqDef> = Vec::new();
        let mut rows = Vec::new();
        // Per row: the (request, attribute) pair a `local` row consumes.
        let mut consumes: Vec<Option<(usize, usize)>> = Vec::with_capacity(rel.len());
        for r in 0..rel.len() {
            let row = rel.row(r);
            let val = |ci: usize| row.get(ci).cloned().unwrap_or(Value::Null);
            let msg = val(msg_ci).to_string();
            if !extern_send.contains(&msg) {
                return Err(format!(
                    "row {r}: accepted message {msg} is not in `extern send` — \
                     the machine could never inject it"
                ));
            }
            let src_val = match Role::parse(src_slot) {
                Some(r) => r,
                None => {
                    let ci = col_idx(src_slot)?;
                    let v = val(ci).to_string();
                    Role::parse(&v)
                        .ok_or_else(|| format!("row {r}: role column {src_slot} carries {v}"))?
                }
            };
            if src_val == Role::Local {
                let req = match reqs.iter().position(|q| q.msg == msg) {
                    Some(i) => i,
                    None => {
                        reqs.push(ReqDef { msg: msg.clone() });
                        reqs.len() - 1
                    }
                };
                let attr = match &attr_col {
                    Some((ci, dom)) => {
                        let v = val(*ci).to_string();
                        dom.iter()
                            .position(|d| *d == v)
                            .ok_or_else(|| format!("row {r}: attribute value {v} not in domain"))?
                    }
                    None => 0,
                };
                consumes.push(Some((req, attr)));
            } else {
                consumes.push(None);
            }
            let mut mvars = Vec::with_capacity(vars.len());
            let mut next = Vec::with_capacity(vars.len());
            for (vi, v) in vars.iter().enumerate() {
                let cur = val(var_cis[vi]).to_string();
                let idx = v
                    .domain
                    .iter()
                    .position(|d| *d == cur)
                    .ok_or_else(|| format!("row {r}: {} value {cur} not in domain", v.name))?;
                mvars.push(idx as u8);
                let nv = val(next_cis[vi]);
                let op = if nv == Value::Null {
                    NextOp::Keep
                } else {
                    let m = machine_of(&v.name).expect("machine var");
                    match m.maps.iter().find(|(from, _)| *from == nv) {
                        Some((_, MachineStep::To(t))) => NextOp::Set(
                            v.domain
                                .iter()
                                .position(|d| *d == t.to_string())
                                .expect("validated map target") as u8,
                        ),
                        Some((_, MachineStep::Up)) => NextOp::Up,
                        Some((_, MachineStep::Down)) => NextOp::Down,
                        Some((_, MachineStep::Reset)) => NextOp::Reset,
                        None => NextOp::Set(
                            v.domain
                                .iter()
                                .position(|d| *d == nv.to_string())
                                .ok_or_else(|| {
                                    format!(
                                        "row {r}: next value {nv} for {} is neither in the \
                                         domain nor covered by a `map` clause",
                                        v.name
                                    )
                                })? as u8,
                        ),
                    }
                };
                next.push(op);
            }
            // Fold the emissions, in column order, into the row's effect.
            let mut grant = [0u8; 2];
            let mut bounce = false;
            let mut delivery = Delivery::Nothing;
            let mut local_msg = String::new();
            for e in &emits {
                let v = val(e.ci);
                if v == Value::Null {
                    continue;
                }
                let msg = v.to_string();
                let dest = match e.dest_lit {
                    Some(r) => r,
                    None => {
                        let dv = val(e.dest_ci.unwrap()).to_string();
                        Role::parse(&dv)
                            .ok_or_else(|| format!("row {r}: dest role column carries {dv}"))?
                    }
                };
                match dest {
                    Role::Home | Role::Remote => {
                        let g = &mut grant[(dest == Role::Remote) as usize];
                        *g = if e.multicast {
                            RESPONSE_CAP
                        } else {
                            (*g + 1).min(RESPONSE_CAP)
                        };
                    }
                    Role::Local if e.bounce.contains(&msg) => bounce = true,
                    Role::Local => {
                        let kind = if e.complete.contains(&msg) {
                            Delivery::Complete
                        } else {
                            Delivery::Plain
                        };
                        delivery = delivery.max(kind);
                        local_msg = msg;
                    }
                }
            }
            let state_label: Vec<String> = vars
                .iter()
                .zip(&mvars)
                .map(|(v, i)| v.domain[*i as usize].clone())
                .collect();
            let label = format!(
                "row#{r} {msg}@{} in ({})",
                src_val.as_str(),
                state_label.join(","),
            );
            rows.push(MRow {
                vars: mvars,
                src: src_val,
                posted: 0,
                grant,
                bounce,
                delivery,
                local_msg,
                next,
                label,
            });
        }
        if reqs.is_empty() {
            return Err("no row accepts a request from the local role — nothing to post".into());
        }
        let pairs = reqs.len() * attr_domain.len();
        if pairs > MAX_LANE_PAIRS {
            return Err(format!(
                "{} request kind(s) × {} attribute value(s) make {pairs} (request, attribute) \
                 pairs, but an agent lane holds at most {MAX_LANE_PAIRS}",
                reqs.len(),
                attr_domain.len()
            ));
        }
        let mut rows_at = vec![Vec::new(); vars[0].domain.len()];
        for (ri, row) in rows.iter().enumerate() {
            rows_at[row.vars[0] as usize].push(ri as u32);
        }

        // Initial states: the cross product of the `init` lists,
        // filtered to combinations at least one row matches.
        let mut machine = SpecMachine {
            table: sf.spec.name.clone(),
            vars,
            rows,
            rows_at,
            reqs,
            attr_domain,
            dropped_inits: 0,
        };
        for (ri, pair) in consumes.into_iter().enumerate() {
            if let Some((req, attr)) = pair {
                machine.rows[ri].posted = machine.lane(req, attr, false);
            }
        }
        let inits = machine.initial_var_states();
        machine.dropped_inits = inits.dropped;
        if inits.states.is_empty() {
            return Err("no legal initial state (no `init` combination matches any row)".into());
        }
        Ok(machine)
    }

    /// The largest agent count [`SpecMachine::explore`] accepts: the
    /// machine variables, the two credit counters and one lane per
    /// agent must fit the engine's fixed-width state word.
    pub fn max_agents(&self) -> usize {
        SPEC_WORD_BYTES.saturating_sub(self.agent_off())
    }

    /// Number of postable request kinds (for reports).
    pub fn request_count(&self) -> usize {
        self.reqs.len()
    }

    /// Number of compiled rows (== solved table rows).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    // ---- state layout -------------------------------------------------
    // [ vars…, credit_home, credit_remote, agent lanes… ]

    fn nvars(&self) -> usize {
        self.vars.len()
    }

    fn agent_off(&self) -> usize {
        self.nvars() + 2
    }

    /// Agent-lane encoding: 0 = idle, else
    /// `1 + (req * A + attr) * 2 + active` with `A = |attr_domain|`.
    /// `build` admits at most [`MAX_LANE_PAIRS`] pairs, so the code is
    /// at most 254.
    fn lane(&self, req: usize, attr: usize, active: bool) -> u8 {
        let code = 1 + (req * self.attr_domain.len() + attr) * 2 + active as usize;
        debug_assert!(
            code <= u8::MAX as usize,
            "lane code {code} overflows its byte"
        );
        code as u8
    }

    /// Decode a lane into `(req, attr, active)`; `None` when idle.
    fn lane_decode(&self, lane: u8) -> Option<(usize, usize, bool)> {
        if lane == 0 {
            return None;
        }
        let a = self.attr_domain.len();
        let x = usize::from(lane - 1);
        Some(((x / 2) / a, (x / 2) % a, x % 2 == 1))
    }

    fn render_state(&self, st: &[u8]) -> String {
        let mut s = String::new();
        for (vi, v) in self.vars.iter().enumerate() {
            if vi > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{}={}", v.name, v.domain[st[vi] as usize]);
        }
        let _ = write!(
            s,
            " credits=h{}/r{} agents=[",
            st[self.nvars()],
            st[self.nvars() + 1]
        );
        for (i, lane) in st[self.agent_off()..].iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            match self.lane_decode(*lane) {
                None => s.push_str("idle"),
                Some((req, attr, active)) => {
                    let _ = write!(
                        s,
                        "{}{}:{}",
                        self.reqs[req].msg,
                        if self.attr_domain.len() > 1 {
                            format!(".{}", self.attr_domain[attr])
                        } else {
                            String::new()
                        },
                        if active { "active" } else { "posted" }
                    );
                }
            }
        }
        s.push(']');
        s
    }

    // ---- numeric transition labels ------------------------------------
    // Dense id space for a fixed agent count: posts first, then
    // completion deliveries, then plain row firings.
    //
    //   [0, A)          agent i posts request ri   (id = i·R + ri)
    //   [A, A + B)      row ri completes agent i   (id = A + ri·N + i)
    //   [A + B, …)      row ri fires plainly       (id = A + B + ri)
    //
    // with R = |reqs|, N = agents, A = N·R, B = N·|rows|.

    /// Render a numeric transition label exactly as the old string
    /// labels read (counterexample paths only — never the hot path).
    fn label_text(&self, agents: usize, label: u32) -> String {
        let l = label as usize;
        let a = agents * self.reqs.len();
        let b = agents * self.rows.len();
        if l < a {
            format!(
                "agent{} posts {}",
                l / self.reqs.len(),
                self.reqs[l % self.reqs.len()].msg
            )
        } else if l < a + b {
            let x = l - a;
            format!(
                "{} completes agent{}",
                self.rows[x / agents].label,
                x % agents
            )
        } else {
            self.rows[l - a - b].label.clone()
        }
    }

    /// The table row a transition label fires, if any (posts fire none).
    fn label_row(&self, agents: usize, label: u32) -> Option<usize> {
        let l = label as usize;
        let a = agents * self.reqs.len();
        let b = agents * self.rows.len();
        if l < a {
            None
        } else if l < a + b {
            Some((l - a) / agents)
        } else {
            Some(l - a - b)
        }
    }

    /// Initial machine-variable combinations: the `init` cross
    /// product, filtered to combinations at least one row matches.
    fn initial_var_states(&self) -> InitialStates {
        let mut combos: Vec<Vec<u8>> = vec![Vec::new()];
        for v in &self.vars {
            let mut next = Vec::new();
            for c in &combos {
                for i in &v.init {
                    let mut c2 = c.clone();
                    c2.push(*i);
                    next.push(c2);
                }
            }
            combos = next;
        }
        let mut dropped = 0usize;
        let states: Vec<Vec<u8>> = combos
            .into_iter()
            .filter(|c| {
                let ok = self
                    .rows
                    .iter()
                    .any(|r| r.vars.iter().zip(c.iter()).all(|(a, b)| a == b));
                if !ok {
                    dropped += 1;
                }
                ok
            })
            .collect();
        InitialStates { states, dropped }
    }

    /// Walk every enabled transition out of `st` in a fixed
    /// deterministic order: idle agents post their requests (agent by
    /// agent, request by request), then the rows indexed under the
    /// primary variable's value fire in ascending row order. Each
    /// successor is built in `scratch`, which is as long as `st`, and
    /// handed to `f` with its transition; nothing is allocated. A
    /// violating state returns its violation, and the successors `f`
    /// already saw belong to a terminal state: callers drop them.
    fn for_each_successor(
        &self,
        st: &[u8],
        agents: usize,
        scratch: &mut [u8],
        mut f: impl FnMut(&[u8], Succ),
    ) -> Result<(), Violation> {
        let nv = self.nvars();
        let ao = self.agent_off();
        let nreqs = self.reqs.len();
        // 1. Idle agents post requests (always enabled).
        scratch.copy_from_slice(st);
        for i in 0..agents {
            if st[ao + i] != 0 {
                continue;
            }
            for ri in 0..nreqs {
                scratch[ao + i] = self.lane(ri, 0, false);
                let label = (i * nreqs + ri) as u32;
                f(
                    scratch,
                    Succ {
                        label,
                        row: None,
                        completed: false,
                    },
                );
            }
            scratch[ao + i] = 0;
        }
        // 2. Rows fire.
        for &ri in &self.rows_at[st[0] as usize] {
            let row = &self.rows[ri as usize];
            if row.vars[1..].iter().zip(&st[1..nv]).any(|(v, s)| v != s) {
                continue;
            }
            match row.src {
                Role::Local => {
                    for i in 0..agents {
                        if st[ao + i] == row.posted {
                            self.fire(st, agents, ri, Some(i), scratch, &mut f)?;
                        }
                    }
                }
                // A response fires while its role holds a credit.
                Role::Home | Role::Remote => {
                    if st[nv + (row.src == Role::Remote) as usize] > 0 {
                        self.fire(st, agents, ri, None, scratch, &mut f)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Fire row `ri` from `st`, consuming agent `consumed`'s posted
    /// request when given: builds the successor in `scratch` and hands
    /// it to `f`, once per completion choice.
    fn fire(
        &self,
        st: &[u8],
        agents: usize,
        ri: u32,
        consumed: Option<usize>,
        s: &mut [u8],
        f: &mut impl FnMut(&[u8], Succ),
    ) -> Result<(), Violation> {
        let row = &self.rows[ri as usize];
        let nv = self.nvars();
        let ao = self.agent_off();
        s.copy_from_slice(st);
        // Consume the request / response credit.
        match row.src {
            // The posted lane (odd) becomes its active twin.
            Role::Local => s[ao + consumed.unwrap()] += 1,
            // A credit below the cap is precise and is spent; a
            // saturated counter means "many" and stays put.
            Role::Home | Role::Remote => {
                let ci = nv + (row.src == Role::Remote) as usize;
                if s[ci] < RESPONSE_CAP {
                    s[ci] -= 1;
                }
            }
        }
        // Emissions grant response credits; a counter saturates at the
        // cap.
        s[nv] = (s[nv] + row.grant[0]).min(RESPONSE_CAP);
        s[nv + 1] = (s[nv + 1] + row.grant[1]).min(RESPONSE_CAP);
        // Next state of the machine variables.
        let mut reset = false;
        for (vi, op) in row.next.iter().enumerate() {
            match op {
                NextOp::Keep => {}
                NextOp::Set(v) => s[vi] = *v,
                NextOp::Up => {
                    if usize::from(s[vi]) + 1 < self.vars[vi].domain.len() {
                        s[vi] += 1;
                    }
                }
                NextOp::Down => s[vi] = s[vi].saturating_sub(1),
                NextOp::Reset => reset = true,
            }
        }
        if reset {
            for (vi, v) in self.vars.iter().enumerate() {
                s[vi] = v.init[0];
            }
        }
        // Bounce: the consumed request reposts at the next attribute.
        if row.bounce {
            let Some(i) = consumed else {
                return Err(Violation {
                    label: row.label.clone(),
                    msg: "bounce emitted by a row that consumed no request".into(),
                });
            };
            let (req, attr, _) = self.lane_decode(s[ao + i]).unwrap();
            let esc = (attr + 1).min(self.attr_domain.len() - 1);
            s[ao + i] = self.lane(req, esc, false);
        }
        // Completion: a marked delivery, or any local delivery that
        // leaves the primary variable stable, retires one active agent:
        // each active lane in turn is zeroed, emitted and restored.
        if row.delivery != Delivery::Nothing {
            if !s[ao..].iter().any(|l| lane_active(*l)) {
                return Err(Violation {
                    label: row.label.clone(),
                    msg: format!(
                        "response {} delivered to local with no active requester",
                        row.local_msg
                    ),
                });
            }
            if row.delivery == Delivery::Complete || self.vars[0].stable[s[0] as usize] {
                let base = agents * self.reqs.len() + ri as usize * agents;
                for i in 0..agents {
                    let lane = s[ao + i];
                    if lane_active(lane) {
                        s[ao + i] = 0;
                        let label = (base + i) as u32;
                        f(
                            s,
                            Succ {
                                label,
                                row: Some(ri),
                                completed: true,
                            },
                        );
                        s[ao + i] = lane;
                    }
                }
                return Ok(());
            }
        }
        let label = (agents * self.reqs.len() + agents * self.rows.len() + ri as usize) as u32;
        f(
            s,
            Succ {
                label,
                row: Some(ri),
                completed: false,
            },
        );
        Ok(())
    }

    /// Canonicalise: sort the agent lanes (the requesters are
    /// interchangeable, so any permutation of lanes is the same state).
    fn canon(&self, st: &mut [u8]) {
        let ao = self.agent_off();
        st[ao..].sort_unstable();
    }

    /// Orbit size of a canonical state: the number of distinct lane
    /// permutations, `N! / Π (multiplicity!)`.
    fn orbit(&self, st: &[u8]) -> u128 {
        let lanes = &st[self.agent_off()..];
        let mut num: u128 = 1;
        for i in 2..=lanes.len() as u128 {
            num *= i;
        }
        let mut den: u128 = 1;
        let mut i = 0;
        while i < lanes.len() {
            let mut j = i;
            while j < lanes.len() && lanes[j] == lanes[i] {
                j += 1;
            }
            for k in 2..=(j - i) as u128 {
                den *= k;
            }
            i = j;
        }
        num / den
    }

    /// Exhaustive breadth-first exploration, routed through the shared
    /// out-of-core engine ([`crate::engine`]): the spec machines and
    /// the built-in model use the same shard-owned visited runs,
    /// exchange spill and exact budget rule, so shards / memory budget
    /// behave — and determinise — identically on both paths.
    ///
    /// Panics unless `1 <= opts.agents <= self.max_agents()`: callers
    /// check the agent count first, the way [`crate::explore_with`]
    /// expects `Model::validate` to pass.
    pub fn explore(&self, opts: &SpecMcOpts) -> SpecMcOutcome {
        let agents = opts.agents;
        assert!(agents >= 1, "a spec machine needs at least one agent");
        let len = self.agent_off() + agents;
        assert!(
            len <= SPEC_WORD_BYTES,
            "spec state needs {len} bytes ({} machine vars + 2 credits + {agents} agents) \
             but the engine word holds {SPEC_WORD_BYTES}; reduce the agent count",
            self.nvars()
        );
        let space = SpecSpace {
            m: self,
            agents,
            len,
            symmetry: opts.symmetry,
        };
        let inits_raw = self.initial_var_states();
        let mut inits: Vec<SpecWord> = Vec::with_capacity(inits_raw.states.len());
        for vars in &inits_raw.states {
            let mut st = vec![0u8; len];
            st[..self.nvars()].copy_from_slice(vars);
            if opts.symmetry {
                self.canon(&mut st);
            }
            inits.push(SpecWord::encode(&st));
        }
        let eopts = EngineOpts {
            budget: opts.budget,
            threads: opts.threads.max(1),
            shards: opts.shards.max(1),
            mem_budget: opts.mem_budget,
            spill_dir: opts.spill_dir.clone(),
        };
        let run_span = crate::engine::explore_span(&eopts, opts.symmetry);
        run_span.arg("agents", agents);
        let eout = crate::engine::run::<_, ParentLink<SpecWord>>(&space, &inits, &eopts);

        let stats = SpecMcStats {
            states: eout.stats.states,
            transitions: eout.stats.transitions as usize,
            depth: eout.stats.levels,
            rows_covered: eout.coverage.iter().filter(|f| **f).count(),
            rows_total: self.rows.len(),
            orbit_states: eout.stats.orbit_states,
            dropped_inits: self.dropped_inits,
        };
        let parent_of: FxHashMap<SpecWord, ParentLink<SpecWord>> =
            eout.parents.iter().map(|(w, p)| (*w, *p)).collect();
        let path_to = |w: SpecWord| -> Vec<String> {
            let mut path = Vec::new();
            let mut cur = w;
            while let Some(link) = parent_of.get(&cur) {
                path.push(format!("  {}", self.label_text(agents, link.label)));
                cur = link.parent;
            }
            path.reverse();
            path
        };

        let outcome = match eout.outcome {
            EngineOutcome::Violation(w) => {
                // The engine reports the minimum violating word of the
                // earliest violating level; re-expanding it recovers
                // the message and the offending row's label.
                let mut scratch = [0u8; SPEC_WORD_BYTES];
                let v = self
                    .for_each_successor(w.state(len), agents, &mut scratch[..len], |_, _| {})
                    .expect_err("violation witness must re-expand to the violation");
                let mut cx = vec![format!("violation: {} (at {})", v.msg, v.label)];
                cx.extend(path_to(w));
                cx.push(format!("  state: {}", self.render_state(w.state(len))));
                SpecMcOutcome {
                    verdict: SpecVerdict::Violation,
                    stats,
                    counterexample: cx,
                }
            }
            EngineOutcome::Stuck(w) => {
                let mut cx = vec!["stuck: no enabled transition".to_string()];
                cx.extend(path_to(w));
                cx.push(format!("  state: {}", self.render_state(w.state(len))));
                SpecMcOutcome {
                    verdict: SpecVerdict::Stuck,
                    stats,
                    counterexample: cx,
                }
            }
            EngineOutcome::BudgetExceeded => SpecMcOutcome {
                verdict: SpecVerdict::Budget,
                stats,
                counterexample: vec![format!(
                    "budget: {} state(s) explored without exhausting the space",
                    eout.stats.states
                )],
            },
            EngineOutcome::Verified => {
                // Drain check: every reachable state must be able to
                // reach a quiescent one (all agents idle, primary
                // variable stable) — reverse reachability over the
                // captured transition set. The discovery order is the
                // engine's level → ascending-word order (sorted roots
                // first), so the reported undrainable representative is
                // the minimum word of the earliest level that holds one,
                // identical for every (threads, shards, mem_budget)
                // combination.
                let mut order: Vec<SpecWord> = inits.clone();
                order.sort_unstable();
                order.dedup();
                order.extend(eout.parents.iter().map(|(w, _)| *w));
                let id_of: FxHashMap<SpecWord, u32> = order
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (*w, i as u32))
                    .collect();
                let n = order.len();
                let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (a, b) in &eout.edges {
                    rev[id_of[b] as usize].push(id_of[a]);
                }
                let ao = self.agent_off();
                let mut drains = vec![false; n];
                let mut queue: Vec<u32> = (0..n as u32)
                    .filter(|i| {
                        let st = order[*i as usize].state(len);
                        self.vars[0].stable[st[0] as usize] && st[ao..].iter().all(|l| *l == 0)
                    })
                    .collect();
                for q in &queue {
                    drains[*q as usize] = true;
                }
                while let Some(q) = queue.pop() {
                    for p in &rev[q as usize] {
                        if !drains[*p as usize] {
                            drains[*p as usize] = true;
                            queue.push(*p);
                        }
                    }
                }
                match drains.iter().position(|d| !d) {
                    Some(bad) => {
                        let w = order[bad];
                        let mut cx = vec!["undrainable: no path back to quiescence".to_string()];
                        cx.extend(path_to(w));
                        cx.push(format!("  state: {}", self.render_state(w.state(len))));
                        SpecMcOutcome {
                            verdict: SpecVerdict::Undrainable,
                            stats,
                            counterexample: cx,
                        }
                    }
                    None => SpecMcOutcome {
                        verdict: SpecVerdict::Verified,
                        stats,
                        counterexample: Vec::new(),
                    },
                }
            }
        };
        eout.stats.publish(&run_span, outcome.verdict.as_str());
        outcome
    }

    /// A seeded random walk over the same transition relation (the
    /// spec-level chaos simulator): picks one enabled transition per
    /// step. Deterministic for a fixed `(agents, seed, steps)`. The
    /// successors of a step are gathered into buffers the walk reuses,
    /// so its allocations do not grow with `steps`.
    /// Panics when `agents` is 0.
    pub fn simulate(&self, agents: usize, seed: u64, steps: usize) -> SpecSimReport {
        assert!(agents >= 1, "a spec machine needs at least one agent");
        let mut rng = ccsql_obs::rng::SplitMix64::new(seed);
        let inits = self.initial_var_states();
        let pick = (rng.next_u64() % inits.states.len() as u64) as usize;
        let len = self.agent_off() + agents;
        let mut st = vec![0u8; len];
        st[..self.nvars()].copy_from_slice(&inits.states[pick]);
        let mut scratch = vec![0u8; len];
        // The step's successor states back to back, and their transitions.
        let mut arena: Vec<u8> = Vec::new();
        let mut succs: Vec<Succ> = Vec::new();
        let mut rows_fired = vec![false; self.rows.len()];
        let mut completions = 0usize;
        let report = |steps: usize,
                      completions: usize,
                      rows_fired: &[bool],
                      stuck: Option<String>,
                      violation: bool| SpecSimReport {
            steps,
            completions,
            rows_covered: rows_fired.iter().filter(|f| **f).count(),
            rows_total: self.rows.len(),
            stuck,
            violation,
        };
        for step in 0..steps {
            arena.clear();
            succs.clear();
            let walked = self.for_each_successor(&st, agents, &mut scratch, |s, succ| {
                arena.extend_from_slice(s);
                succs.push(succ);
            });
            if let Err(v) = walked {
                let violation = format!("{} (at {})", v.msg, v.label);
                return report(step, completions, &rows_fired, Some(violation), true);
            }
            if succs.is_empty() {
                let stuck = self.render_state(&st);
                return report(step, completions, &rows_fired, Some(stuck), false);
            }
            let c = (rng.next_u64() % succs.len() as u64) as usize;
            let succ = succs[c];
            if let Some(r) = succ.row {
                rows_fired[r as usize] = true;
            }
            completions += succ.completed as usize;
            st.copy_from_slice(&arena[c * len..(c + 1) * len]);
        }
        report(steps, completions, &rows_fired, None, false)
    }
}

/// Whether an agent lane holds an active request: `1 + pair·2 + 1` is
/// even, a posted one odd and an idle one 0.
fn lane_active(lane: u8) -> bool {
    lane != 0 && lane.is_multiple_of(2)
}

/// Initial machine-variable combinations: the `init` cross product,
/// filtered to combinations at least one row matches.
struct InitialStates {
    states: Vec<Vec<u8>>,
    dropped: usize,
}

/// Fixed engine-word width for spec states: the packed state bytes,
/// zero-padded. Byte order equals state order, so the spill codec's
/// sorted-prefix compression applies directly. Generous enough for any
/// plausible spec (vars + 2 credits + agents ≤ 32 lanes).
const SPEC_WORD_BYTES: usize = 32;

/// A spec-machine state as an engine [`Word`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct SpecWord([u8; SPEC_WORD_BYTES]);

impl SpecWord {
    fn encode(st: &[u8]) -> SpecWord {
        let mut w = [0u8; SPEC_WORD_BYTES];
        w[..st.len()].copy_from_slice(st);
        SpecWord(w)
    }

    /// The live state bytes (the encoded length travels out-of-band).
    fn state(&self, len: usize) -> &[u8] {
        &self.0[..len]
    }
}

impl Word for SpecWord {
    const WIDTH: usize = SPEC_WORD_BYTES;

    fn write_bytes(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0);
    }

    fn read_bytes(buf: &[u8]) -> SpecWord {
        SpecWord(buf.try_into().expect("spec word width"))
    }
}

/// [`Space`] adapter for one (machine, agents, symmetry) configuration.
struct SpecSpace<'a> {
    m: &'a SpecMachine,
    agents: usize,
    /// Live bytes per state: `agent_off() + agents`.
    len: usize,
    symmetry: bool,
}

impl Space for SpecSpace<'_> {
    type W = SpecWord;

    fn expand(&self, w: SpecWord, em: &mut Emitter<'_, SpecWord>) {
        // Spec states are never quiescent-exempt: a state with no
        // enabled transition is a table-level deadlock, so
        // `em.quiescent()` is deliberately never called.
        let mut scratch = [0u8; SPEC_WORD_BYTES];
        let walked = self.m.for_each_successor(
            w.state(self.len),
            self.agents,
            &mut scratch[..self.len],
            |s, succ| {
                let mut next = SpecWord::encode(s);
                if self.symmetry {
                    self.m.canon(&mut next.0[..self.len]);
                }
                em.succ(next, succ.label);
            },
        );
        // A violating state is terminal: the engine drops what it
        // emitted, and `explore` re-expands the engine's minimum witness
        // to recover the message and the row's label.
        if walked.is_err() {
            em.violation();
        }
    }

    fn orbit_weight(&self, w: SpecWord) -> u128 {
        if self.symmetry {
            self.m.orbit(w.state(self.len))
        } else {
            1
        }
    }

    fn coverage_slots(&self) -> usize {
        self.m.rows.len()
    }

    fn cover_slot(&self, label: u32) -> Option<usize> {
        self.m.label_row(self.agents, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_relalg::specfile::{parse_specfile, solve_specfile};

    /// A tiny closed protocol: one request, one memory fetch, one
    /// response; the directory returns to idle on completion.
    const PING: &str = "\
table Ping
input inmsg = req, data
input insrc = local, home
input st = I, B
output locmsg = data, NULL
output memmsg = mread, NULL
output nxtst = DONE, B, NULL
flow inmsg(insrc, home), locmsg(home, local), memmsg(home, home)
extern send req, data
extern recv data, mread
machine st = nxtst, init I, stable I, map DONE -> init
constrain insrc: inmsg = req ? insrc = local : insrc = home
constrain st: inmsg = req ? st = I : st = B
constrain locmsg: inmsg = data ? locmsg = data : locmsg = NULL
constrain memmsg: inmsg = req ? memmsg = mread : memmsg = NULL
constrain nxtst: inmsg = req ? nxtst = B : nxtst = DONE
";

    fn machine(src: &str) -> SpecMachine {
        let sf = parse_specfile(src).unwrap();
        let (rel, failures) = solve_specfile(&sf).unwrap();
        assert!(failures.is_empty());
        SpecMachine::build(&sf, &rel).unwrap()
    }

    #[test]
    fn ping_verifies_and_covers_all_rows() {
        let m = machine(PING);
        assert_eq!(m.row_count(), 2);
        assert_eq!(m.request_count(), 1);
        let out = m.explore(&SpecMcOpts::default());
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert_eq!(out.stats.rows_covered, 2);
        assert!(out.stats.states > 1);
        assert_eq!(out.stats.orbit_states, out.stats.states as u128);
    }

    #[test]
    fn symmetry_and_threads_preserve_the_verdict_and_orbit_sum() {
        let m = machine(PING);
        let full = m.explore(&SpecMcOpts {
            agents: 3,
            ..SpecMcOpts::default()
        });
        let sym = m.explore(&SpecMcOpts {
            agents: 3,
            symmetry: true,
            ..SpecMcOpts::default()
        });
        assert_eq!(full.verdict, sym.verdict);
        assert!(sym.stats.states < full.stats.states);
        assert_eq!(sym.stats.orbit_states, full.stats.states as u128);
        for threads in [2, 8] {
            let t = m.explore(&SpecMcOpts {
                agents: 3,
                symmetry: true,
                threads,
                ..SpecMcOpts::default()
            });
            let o1 = sym.render_json(
                "Ping",
                &SpecMcOpts {
                    agents: 3,
                    symmetry: true,
                    ..SpecMcOpts::default()
                },
            );
            let o2 = t.render_json(
                "Ping",
                &SpecMcOpts {
                    agents: 3,
                    symmetry: true,
                    ..SpecMcOpts::default()
                },
            );
            assert_eq!(o1, o2, "threads={threads} changed the result");
        }
    }

    #[test]
    fn fig3_spec_pack_verifies() {
        let m = machine(include_str!("../../../specs/fig3.ccsql"));
        let out = m.explore(&SpecMcOpts::default());
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        // The three `gone`-in-busy rows are cold: `readex@SI` replaces
        // the present vector with `one` before any busy state, so the
        // only `gone` states are the initial SI ones. The machine makes
        // that visible rather than hiding it.
        assert_eq!(out.stats.rows_covered, 7, "{}", out.render());
        assert_eq!(out.stats.rows_total, 10);
        let sym = m.explore(&SpecMcOpts {
            symmetry: true,
            ..SpecMcOpts::default()
        });
        assert_eq!(sym.verdict, SpecVerdict::Verified);
        assert_eq!(sym.stats.orbit_states, out.stats.states as u128);
    }

    #[test]
    fn bedrock_moesif_spec_pack_verifies_with_full_row_coverage() {
        let m = machine(include_str!("../../../specs/bedrock_moesif.ccsql"));
        let out = m.explore(&SpecMcOpts::default());
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert_eq!(
            out.stats.rows_covered,
            out.stats.rows_total,
            "{}",
            out.render()
        );
    }

    #[test]
    fn phase_priority_spec_pack_verifies_with_full_row_coverage() {
        let m = machine(include_str!("../../../specs/phase_priority.ccsql"));
        assert_eq!(m.request_count(), 2);
        // Three agents: one in flight, one holding the reservation, and
        // one more bouncing off the occupied pending slot — the
        // smallest population that exercises every arbitration row.
        let out = m.explore(&SpecMcOpts {
            agents: 3,
            symmetry: true,
            ..SpecMcOpts::default()
        });
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert_eq!(
            out.stats.rows_covered,
            out.stats.rows_total,
            "{}",
            out.render()
        );
    }

    #[test]
    fn the_seeded_moesif_bug_is_rejected() {
        // The buggy sibling drops the invalidation-complete step: the
        // lint pipeline cannot see it (the table is well-formed), but
        // the machine proves a readex over a shared line never drains.
        let m = machine(include_str!("../../../specs/bedrock_moesif_buggy.ccsql"));
        let out = m.explore(&SpecMcOpts::default());
        assert_ne!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert!(!out.counterexample.is_empty());
    }

    #[test]
    fn a_dropped_completion_is_stuck() {
        // The data response no longer resolves the busy state: the
        // machine runs into a state where the credit is spent and the
        // agent waits forever.
        let bad = PING.replace(
            "constrain nxtst: inmsg = req ? nxtst = B : nxtst = DONE",
            "constrain nxtst: inmsg = req ? nxtst = B : nxtst = NULL",
        );
        let m = machine(&bad);
        let out = m.explore(&SpecMcOpts::default());
        // data@B keeps st=B: the walk loops B→B while the requester
        // stays active — never stuck (data can re-fire? no: credit is
        // consumed), so this lands in stuck or undrainable.
        assert!(
            matches!(out.verdict, SpecVerdict::Stuck | SpecVerdict::Undrainable),
            "{}",
            out.render()
        );
        assert!(!out.counterexample.is_empty());
    }

    #[test]
    fn an_orphan_response_is_a_violation() {
        // Deliver data to local on the *request* row, before any
        // response could be outstanding — the requester is active (it
        // was just consumed), so instead make the response row complete
        // while the machine is already idle: simplest orphan is a
        // home-sourced row that emits to local in a state where no
        // agent is active. Build it directly: req completes instantly
        // (DONE) but the credit keeps a data row fireable at I.
        let bad = "\
table Orphan
input inmsg = req, data
input insrc = local, home
input st = I
output locmsg = data, NULL
output memmsg = mread, NULL
output nxtst = DONE, NULL
flow inmsg(insrc, home), locmsg(home, local), memmsg(home, home)
extern send req, data
extern recv data, mread
machine st = nxtst, init I, stable I, map DONE -> init
constrain insrc: inmsg = req ? insrc = local : insrc = home
constrain locmsg: inmsg = data ? locmsg = data : locmsg = NULL
constrain memmsg: inmsg = req ? memmsg = mread : memmsg = NULL
constrain nxtst: inmsg = req ? nxtst = DONE : nxtst = NULL
";
        let m = machine(bad);
        let out = m.explore(&SpecMcOpts::default());
        assert_eq!(out.verdict, SpecVerdict::Violation, "{}", out.render());
        // The witness is re-expanded to name the violating row.
        assert_eq!(
            out.render(),
            "specmc: violation — 14 state(s), 26 transition(s), depth 7, rows 2/2 covered, \
             orbit 14\n\
             violation: response data delivered to local with no active requester \
             (at row#1 data@home in (I))\n  \
             agent1 posts req\n  \
             agent0 posts req\n  \
             row#0 req@local in (I)\n  \
             row#0 req@local in (I)\n  \
             row#1 data@home in (I) completes agent0\n  \
             row#1 data@home in (I) completes agent1\n  \
             state: st=I credits=h2/r0 agents=[idle idle]"
        );
        assert_eq!(
            m.simulate(2, 7, 500).render(7),
            "specsim seed=7: VIOLATION after 9 step(s): response data delivered to local \
             with no active requester (at row#1 data@home in (I))"
        );
    }

    /// PING with `n` request kinds `r0…`, each accepted from `local` in
    /// `I`; the `data` response completes the requester.
    fn ping_with_requests(n: usize) -> String {
        let reqs: Vec<String> = (0..n).map(|k| format!("r{k}")).collect();
        let reqs = reqs.join(", ");
        format!(
            "table Ping
input inmsg = {reqs}, data
input insrc = local, home
input st = I, B
output locmsg = data, NULL
output memmsg = mread, NULL
output nxtst = DONE, B, NULL
flow inmsg(insrc, home), locmsg(home, local), memmsg(home, home)
extern send {reqs}, data
extern recv data, mread
machine st = nxtst, init I, stable I, map DONE -> init
constrain insrc: inmsg = data ? insrc = home : insrc = local
constrain st: inmsg = data ? st = B : st = I
constrain locmsg: inmsg = data ? locmsg = data : locmsg = NULL
constrain memmsg: inmsg = data ? memmsg = NULL : memmsg = mread
constrain nxtst: inmsg = data ? nxtst = DONE : nxtst = B
"
        )
    }

    /// PING plus a counter `c` over `v0…v{n-1}` that starts at
    /// `v{start}` and steps up on every completion.
    fn counter(n: usize, start: usize) -> String {
        let values: Vec<String> = (0..n).map(|k| format!("v{k}")).collect();
        let values = values.join(", ");
        format!(
            "table Count
input inmsg = req, data
input insrc = local, home
input st = I, B
input c = {values}
output locmsg = data, NULL
output memmsg = mread, NULL
output nxtst = DONE, B, NULL
output nc = inc, NULL
flow inmsg(insrc, home), locmsg(home, local), memmsg(home, home)
extern send req, data
extern recv data, mread
machine st = nxtst, init I, stable I, map DONE -> I
machine c = nc, init v{start}, map inc -> +1
constrain insrc: inmsg = req ? insrc = local : insrc = home
constrain st: inmsg = req ? st = I : st = B
constrain locmsg: inmsg = data ? locmsg = data : locmsg = NULL
constrain memmsg: inmsg = req ? memmsg = mread : memmsg = NULL
constrain nxtst: inmsg = req ? nxtst = B : nxtst = DONE
constrain nc: inmsg = data ? nc = inc : nc = NULL
"
        )
    }

    fn build_error(src: &str) -> String {
        let sf = parse_specfile(src).unwrap();
        let (rel, failures) = solve_specfile(&sf).unwrap();
        assert!(failures.is_empty());
        SpecMachine::build(&sf, &rel).unwrap_err()
    }

    #[test]
    fn build_rejects_more_request_pairs_than_a_lane_encodes() {
        // 127 pairs fill the lane byte: codes up to 254.
        let m = machine(&ping_with_requests(127));
        let out = m.explore(&SpecMcOpts {
            agents: 1,
            ..SpecMcOpts::default()
        });
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert_eq!((out.stats.states, out.stats.rows_covered), (255, 128));
        // 130 would wrap lane 256 to "idle" and report a false violation.
        assert_eq!(
            build_error(&ping_with_requests(130)),
            "130 request kind(s) × 1 attribute value(s) make 130 (request, attribute) pairs, \
             but an agent lane holds at most 127"
        );
    }

    #[test]
    fn build_rejects_a_machine_variable_wider_than_a_state_byte() {
        // 300 values would wrap `v256…` onto `v0…` and merge states.
        assert_eq!(
            build_error(&counter(300, 255)),
            "machine variable c has 300 values, but a state byte holds at most 256"
        );
    }

    #[test]
    fn a_counter_steps_up_to_its_last_value_and_stays() {
        // 256 values fit a byte; stepping past `v255` must saturate, not
        // wrap to `v0`: the counter walks v250…v255 (6 values × 3
        // states per transaction) and fires 12 of its 512 rows.
        let m = machine(&counter(256, 250));
        let out = m.explore(&SpecMcOpts {
            agents: 1,
            ..SpecMcOpts::default()
        });
        assert_eq!(out.verdict, SpecVerdict::Verified, "{}", out.render());
        assert_eq!(
            (
                out.stats.states,
                out.stats.rows_covered,
                out.stats.rows_total
            ),
            (18, 12, 512)
        );
        let walk = m.simulate(1, 1, 1_000);
        assert_eq!(walk.rows_covered, 12, "{}", walk.render(1));
    }

    #[test]
    fn simulate_is_deterministic_and_completes_transactions() {
        let m = machine(PING);
        let a = m.simulate(2, 7, 500);
        let b = m.simulate(2, 7, 500);
        assert_eq!(a.render(7), b.render(7));
        assert!(a.stuck.is_none(), "{}", a.render(7));
        assert!(a.completions > 0);
        assert_eq!(a.rows_covered, 2);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn explore_refuses_zero_agents() {
        machine(PING).explore(&SpecMcOpts {
            agents: 0,
            ..SpecMcOpts::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn simulate_refuses_zero_agents() {
        machine(PING).simulate(0, 7, 500);
    }

    #[test]
    fn build_rejects_spec_without_machine_directives() {
        let src = PING.replace(
            "machine st = nxtst, init I, stable I, map DONE -> init\n",
            "",
        );
        let sf = parse_specfile(&src).unwrap();
        let (rel, _) = solve_specfile(&sf).unwrap();
        let err = SpecMachine::build(&sf, &rel).unwrap_err();
        assert!(err.contains("machine"), "{err}");
    }
}
