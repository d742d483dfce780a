//! The flow *universe*: solved controller tables reduced to their
//! message behaviour.
//!
//! Flow extraction works on one uniform shape regardless of where the
//! tables came from (a `.ccsql` spec file or the built-in protocol): a
//! list of [`FlowRow`]s, each the message view of one solved table row —
//! the `(message, source-role, destination-role)` triples it accepts
//! and emits, tagged with the virtual channel `V(m,s,d,v)` assigns the
//! triple — plus the [`EnvSource`] triples the environment may inject.
//! Everything downstream (tree extraction, the waits-for graph, the
//! concrete cross-check) consumes only this shape.

use ccsql::depend::protocol_flow_rows;
pub use ccsql::depend::{FlowAssign, FlowRow};
use ccsql::gen::GeneratedProtocol;
use ccsql::vc::VcAssignment;
use ccsql_protocol::topology::Role;
use ccsql_relalg::specfile::ROLE_LITERALS;
use ccsql_relalg::{Relation, SpecFile, Sym, Value};

/// A triple the environment may inject. Role slots are `None` when the
/// boundary declares only message names (`extern send` in spec files).
#[derive(Clone, Debug)]
pub struct EnvSource {
    /// Message name.
    pub msg: String,
    /// Source role, if declared.
    pub src: Option<Role>,
    /// Destination role, if declared.
    pub dest: Option<Role>,
}

impl EnvSource {
    /// Does this source trigger `accept`?
    pub fn matches(&self, accept: &FlowAssign) -> bool {
        self.msg == accept.msg.as_str()
            && self.src.is_none_or(|r| r == accept.src)
            && self.dest.is_none_or(|r| r == accept.dest)
    }

    /// Flow label: `msg(src→dest)` with `*` for undeclared roles.
    pub fn label(&self) -> String {
        let role = |r: Option<Role>| r.map_or("*", |r| r.as_str());
        format!("{}({}→{})", self.msg, role(self.src), role(self.dest))
    }
}

/// Everything flow analysis needs to know about a set of solved tables.
#[derive(Clone, Debug)]
pub struct FlowUniverse {
    /// Display name (spec table name or `protocol`).
    pub name: String,
    /// The `V(m,s,d,v)` assignment name the triples were tagged with.
    pub assignment: String,
    /// All rows, in (table, row) order.
    pub rows: Vec<FlowRow>,
    /// Environment-injected triples, in declaration order.
    pub sources: Vec<EnvSource>,
}

impl FlowUniverse {
    /// Build the universe of a solved spec file. Requires at least one
    /// `flow` column with role slots — without roles there is no
    /// `(m,s,d)` triple to assign channels to.
    pub fn from_specfile(
        sf: &SpecFile,
        rel: &Relation,
        v: &VcAssignment,
    ) -> Result<FlowUniverse, String> {
        let role_tagged: Vec<_> = sf
            .meta
            .flow_columns
            .iter()
            .filter(|fc| fc.src.is_some() && fc.dest.is_some())
            .collect();
        if role_tagged.is_empty() {
            return Err(format!(
                "spec `{}` declares no role-tagged flow columns; flow analysis needs \
                 `flow COL(SRC, DEST)` directives (SRC/DEST: a role column or one of {})",
                sf.spec.name,
                ROLE_LITERALS.join("/"),
            ));
        }
        let schema = rel.schema();
        // A role slot is a column index (per-row role) or a constant.
        let slot = |tok: &str| -> Result<std::result::Result<usize, Role>, String> {
            if let Some(i) = schema.index_of_str(tok) {
                return Ok(Ok(i));
            }
            Role::parse(tok)
                .map(Err)
                .ok_or_else(|| format!("flow role slot {tok:?} is neither a column nor a role"))
        };
        // (column index, input?, src slot, dest slot) per tagged column.
        let mut plans = Vec::new();
        for fc in &role_tagged {
            let Some(mi) = schema.index_of_str(&fc.column) else {
                continue;
            };
            let is_input = sf
                .spec
                .columns
                .iter()
                .find(|c| c.name.as_str() == fc.column.as_str())
                .is_some_and(|c| matches!(c.role, ccsql_relalg::solver::ColumnRole::Input));
            let src = slot(fc.src.as_deref().unwrap_or_default())?;
            let dest = slot(fc.dest.as_deref().unwrap_or_default())?;
            plans.push((mi, is_input, src, dest));
        }
        let table = Sym::intern(&sf.spec.name);
        let mut rows = Vec::with_capacity(rel.len());
        for (ri, row) in rel.rows().enumerate() {
            let mut fr = FlowRow {
                table,
                row: ri,
                accepts: Vec::new(),
                emits: Vec::new(),
            };
            for (mi, is_input, src, dest) in &plans {
                let Value::Sym(msg) = row[*mi] else { continue };
                let role_of = |s: &std::result::Result<usize, Role>| -> Option<Role> {
                    match s {
                        Ok(i) => match &row[*i] {
                            Value::Sym(r) => Role::parse(r.as_str()),
                            _ => None,
                        },
                        Err(r) => Some(*r),
                    }
                };
                let (Some(src), Some(dest)) = (role_of(src), role_of(dest)) else {
                    continue;
                };
                let assign = FlowAssign::new(v, msg, src, dest);
                if *is_input {
                    fr.accepts.push(assign);
                } else {
                    fr.emits.push(assign);
                }
            }
            rows.push(fr);
        }
        // `extern send` lists message names only: role-free sources.
        let sources = sf
            .meta
            .extern_send
            .iter()
            .map(|m| EnvSource {
                msg: m.clone(),
                src: None,
                dest: None,
            })
            .collect();
        Ok(FlowUniverse {
            name: sf.spec.name.clone(),
            assignment: v.name.to_string(),
            rows,
            sources,
        })
    }

    /// Build the universe of the generated built-in protocol: every
    /// controller table, triples resolved through the controllers'
    /// declared `(msg, src, dest)` column triples, sources from
    /// [`ccsql_protocol::ProtocolSpec::flow_env`].
    pub fn from_protocol(
        gen: &GeneratedProtocol,
        v: &VcAssignment,
    ) -> Result<FlowUniverse, String> {
        let rows = protocol_flow_rows(gen, v).map_err(|e| e.to_string())?;
        let sources = ccsql_protocol::ProtocolSpec::flow_env()
            .sources
            .iter()
            .map(|t| EnvSource {
                msg: t.msg.to_string(),
                src: Role::parse(t.src),
                dest: Role::parse(t.dest),
            })
            .collect();
        Ok(FlowUniverse {
            name: "protocol".to_string(),
            assignment: v.name.to_string(),
            rows,
            sources,
        })
    }
}
