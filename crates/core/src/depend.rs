//! Channel dependency tables (section 4.1).
//!
//! From each controller table and a virtual-channel assignment `V`, an
//! *individual controller dependency table* is derived: one row
//! `(m1, s1, d1, vc1, m2, s2, d2, vc2)` per (input assignment, output
//! assignment) pair of a controller transition. These tables are then
//! composed pairwise — an output assignment of one row matching the
//! input assignment of another infers the transitive dependency — under
//! three progressively relaxed matching regimes:
//!
//! 1. **exact match** (`m, s, d, v` all equal),
//! 2. **quad placement**: the five relations between the local, home and
//!    remote quads merge roles that share a quad (and hence share
//!    channels) before matching,
//! 3. **message-ignoring**: transaction interleavings couple channels
//!    regardless of the specific messages, so only `(s, d, v)` need
//!    match.
//!
//! The union of all individual and pairwise tables is the *protocol
//! dependency table* — the virtual channel dependency graph in tabular
//! form, analysed for cycles by [`crate::vcg`].
//!
//! Every direct row is built from one shape, the message view of a
//! solved table row ([`FlowRow`]): the built-in protocol's tables
//! ([`protocol_flow_rows`]) and the flow analysis of `ccsql-lint`, over
//! spec files too, go through the same [`dependency_table`].

use crate::gen::GeneratedProtocol;
use crate::vc::VcAssignment;
use ccsql_obs::hash::FxHashMap;
use ccsql_protocol::topology::{QuadPlacement, Role, PLACEMENTS};
use ccsql_protocol::ControllerSpec;
use ccsql_relalg::{Relation, Sym, Value};

/// A virtual-channel assignment instance: message `msg` travelling from
/// `src` to `dest` over channel `vc`. Roles are already canonicalised
/// under the quad placement of the table the assignment belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// Message name.
    pub msg: Sym,
    /// Source role (canonicalised).
    pub src: Role,
    /// Destination role (canonicalised).
    pub dest: Role,
    /// Virtual channel.
    pub vc: Sym,
}

/// How two assignments are matched during composition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchMode {
    /// `m, s, d, v` must all agree.
    Exact,
    /// Only `s, d, v` must agree ("the composition requirement is
    /// further relaxed to ignore the messages while matching").
    IgnoreMessages,
}

/// Where a dependency row came from (witness for deadlock reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Directly from a controller-table row.
    Direct {
        /// Controller table name.
        controller: Sym,
        /// Row index in the generated controller table.
        row: usize,
    },
    /// Inferred by composing two earlier dependency rows (indices into
    /// the owning [`DependencyTable::rows`]).
    Composed {
        /// Left row (provides the input assignment).
        left: usize,
        /// Right row (provides the output assignment).
        right: usize,
        /// Match mode used.
        mode: MatchMode,
    },
}

/// One dependency: `input` (the held resource) depends on `output` (the
/// resource that must be acquired).
#[derive(Clone, Copy, Debug)]
pub struct DepRow {
    /// The input assignment.
    pub input: Assignment,
    /// The output assignment.
    pub output: Assignment,
    /// The quad placement this row was derived under.
    pub placement: QuadPlacement,
    /// Where it came from.
    pub provenance: Provenance,
}

/// The protocol dependency table: deduplicated rows plus provenance.
pub struct DependencyTable {
    /// All rows (direct first, then composed), deduplicated on
    /// (input, output, placement).
    pub rows: Vec<DepRow>,
}

/// Configuration of the analysis (the ablation switches of the paper).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Quad placements to consider (paper: all five).
    pub placements: Vec<QuadPlacement>,
    /// Whether pairwise composition is performed at all.
    pub compose: bool,
    /// Whether the message-ignoring relaxation is applied during
    /// composition.
    pub ignore_messages: bool,
    /// Repeat composition to a fixpoint (the transitive closure the
    /// paper abandoned: "we abandoned this due to the excessive number
    /// of spurious cycles"). `false` = single pairwise pass.
    pub transitive_closure: bool,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            placements: PLACEMENTS.to_vec(),
            compose: true,
            ignore_messages: true,
            transitive_closure: false,
        }
    }
}

impl AnalysisConfig {
    /// Exact-match only: no placement merging (only `L≠H≠R`), no
    /// message-ignoring (ablation baseline).
    pub fn exact_only() -> AnalysisConfig {
        AnalysisConfig {
            placements: vec![QuadPlacement::AllDistinct],
            compose: true,
            ignore_messages: false,
            transitive_closure: false,
        }
    }
}

/// One accept or emit occurrence of a table row: a message triple with
/// its *physical* roles and the virtual channel `V` assigns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowAssign {
    /// Message name.
    pub msg: Sym,
    /// Physical source role.
    pub src: Role,
    /// Physical destination role.
    pub dest: Role,
    /// The shared channel of the triple; `None` when `V` assigns it no
    /// channel or a dedicated path (dedicated paths are private per
    /// message class, so nothing ever waits on them).
    pub vc: Option<Sym>,
}

impl FlowAssign {
    /// Resolve the triple `(msg, src, dest)` against `v`: the one
    /// channel resolver of the dependency table and the flow analysis.
    pub fn new(v: &VcAssignment, msg: Sym, src: Role, dest: Role) -> FlowAssign {
        let vc = v
            .lookup(msg.as_str(), src, dest)
            .filter(|vc| !v.is_dedicated(vc))
            .map(Sym::intern);
        FlowAssign { msg, src, dest, vc }
    }

    /// `msg src→dest` (the rendering shared by diagnostics and DOT).
    pub fn describe(&self) -> String {
        format!("{} {}→{}", self.msg, self.src, self.dest)
    }

    /// Same `(msg, src, dest)` triple?
    pub fn same_triple(&self, other: &FlowAssign) -> bool {
        self.msg == other.msg && self.src == other.src && self.dest == other.dest
    }

    /// The dependency-table assignment under `placement`: roles
    /// canonicalised, `None` off the shared channels.
    fn under(self, placement: QuadPlacement) -> Option<Assignment> {
        Some(Assignment {
            msg: self.msg,
            src: placement.canon(self.src),
            dest: placement.canon(self.dest),
            vc: self.vc?,
        })
    }
}

/// The message view of one solved table row: the triples it accepts and
/// emits, in the order of the table's triple columns.
#[derive(Clone, Debug)]
pub struct FlowRow {
    /// Owning table (controller) name.
    pub table: Sym,
    /// Row index in the solved table.
    pub row: usize,
    /// Triples the row consumes.
    pub accepts: Vec<FlowAssign>,
    /// Triples the row produces.
    pub emits: Vec<FlowAssign>,
}

impl FlowRow {
    /// The individual dependency rows of this table row under
    /// `placement`: one per (accept, emit) pair on shared channels
    /// ("multiple outgoing messages for an incoming message lead to
    /// multiple entries").
    fn dep_rows(&self, placement: QuadPlacement) -> impl Iterator<Item = DepRow> + '_ {
        self.accepts
            .iter()
            .filter_map(move |a| a.under(placement))
            .flat_map(move |input| {
                self.emits
                    .iter()
                    .filter_map(move |e| e.under(placement))
                    .map(move |output| DepRow {
                        input,
                        output,
                        placement,
                        provenance: Provenance::Direct {
                            controller: self.table,
                            row: self.row,
                        },
                    })
            })
    }
}

/// The message view of one controller table: one [`FlowRow`] per row,
/// each triple resolved through the controller's declared `(msg, src,
/// dest)` column triples. A triple whose cells are not a message and
/// two roles (`NULL` outputs) is no occurrence at all.
fn controller_flow_rows(ctrl: &ControllerSpec, table: &Relation, v: &VcAssignment) -> Vec<FlowRow> {
    let schema = table.schema();
    // Locate each triple's three columns once.
    let locate = |ts: &[ccsql_protocol::MsgTriple]| -> Vec<[usize; 3]> {
        ts.iter()
            .filter_map(|t| {
                Some([
                    schema.index_of_str(t.msg)?,
                    schema.index_of_str(t.src)?,
                    schema.index_of_str(t.dest)?,
                ])
            })
            .collect()
    };
    let (ins, outs) = (locate(&ctrl.input_triples), locate(&ctrl.output_triples));
    let name = Sym::intern(ctrl.name);
    table
        .rows()
        .enumerate()
        .map(|(ri, row)| {
            let resolve = |&[mi, si, di]: &[usize; 3]| -> Option<FlowAssign> {
                let role = |i: usize| Role::parse(row[i].as_sym()?.as_str());
                Some(FlowAssign::new(v, row[mi].as_sym()?, role(si)?, role(di)?))
            };
            FlowRow {
                table: name,
                row: ri,
                accepts: ins.iter().filter_map(resolve).collect(),
                emits: outs.iter().filter_map(resolve).collect(),
            }
        })
        .collect()
}

/// The message view of every controller table of `gen` under `v`, in
/// (controller, row) order, inside the `depend/resolve` span.
pub fn protocol_flow_rows(
    gen: &GeneratedProtocol,
    v: &VcAssignment,
) -> ccsql_relalg::Result<Vec<FlowRow>> {
    let _rspan = ccsql_obs::flight::span("depend", "resolve");
    let mut rows = Vec::new();
    for c in &gen.spec.controllers {
        rows.extend(controller_flow_rows(c, gen.table(c.name)?, v));
    }
    Ok(rows)
}

/// Extract the individual controller dependency table of one controller
/// under one quad placement.
///
/// For every controller-table row: the input `(msg, src, dest)` triple is
/// looked up in `V` (with the *physical* roles), roles are then
/// canonicalised under `placement`; each non-`NULL` output triple
/// likewise. One dependency row is added per output assignment
/// ("multiple outgoing messages for an incoming message lead to multiple
/// entries"). Assignments on dedicated paths contribute nothing.
pub fn controller_dependency_rows(
    ctrl: &ControllerSpec,
    table: &Relation,
    v: &VcAssignment,
    placement: QuadPlacement,
) -> Vec<DepRow> {
    controller_flow_rows(ctrl, table, v)
        .iter()
        .flat_map(|r| r.dep_rows(placement))
        .collect()
}

/// Composition match key: message (unless ignored), source, destination
/// and channel.
type Key = (Option<Sym>, Role, Role, Sym);

fn match_key(a: &Assignment, mode: MatchMode) -> Key {
    match mode {
        MatchMode::Exact => (Some(a.msg), a.src, a.dest, a.vc),
        MatchMode::IgnoreMessages => (None, a.src, a.dest, a.vc),
    }
}

/// Build the full protocol dependency table for assignment `v` under
/// configuration `cfg`.
pub fn protocol_dependency_table(
    gen: &GeneratedProtocol,
    v: &VcAssignment,
    cfg: &AnalysisConfig,
) -> ccsql_relalg::Result<DependencyTable> {
    Ok(dependency_table(&protocol_flow_rows(gen, v)?, cfg))
}

/// Build the dependency table of solved table rows under `cfg`: the
/// individual controller dependency tables placement-major (each
/// placement over every row in order), then — with `cfg.compose` — the
/// pairwise composition, all deduplicated on (input, output, placement).
pub fn dependency_table(rows: &[FlowRow], cfg: &AnalysisConfig) -> DependencyTable {
    let fspan = ccsql_obs::flight::span("depend", "build");
    let mut out: Vec<DepRow> = Vec::new();
    let mut seen: FxHashMap<(Assignment, Assignment, u8), usize> = FxHashMap::default();
    let mut dedup_hits: u64 = 0;
    let placement_id = |p: QuadPlacement| PLACEMENTS.iter().position(|&q| q == p).unwrap() as u8;

    let mut push = |out: &mut Vec<DepRow>, r: DepRow| -> bool {
        let key = (r.input, r.output, placement_id(r.placement));
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push(r);
                true
            }
        }
    };

    let direct_span = ccsql_obs::flight::span("depend", "direct");
    for &placement in &cfg.placements {
        for r in rows.iter().flat_map(|row| row.dep_rows(placement)) {
            if !push(&mut out, r) {
                dedup_hits += 1;
            }
        }
    }
    direct_span.arg("rows", out.len());
    drop(direct_span);

    if !cfg.compose {
        fspan.arg("rows", out.len());
        fspan.arg("dedup_hits", dedup_hits);
        return DependencyTable { rows: out };
    }

    // Pairwise composition (optionally to a fixpoint). Matching is done
    // within a placement: each placement models one physical layout.
    // The closure is semi-naive: a round composes only the pairs with at
    // least one side added by the round before, since a pair of two
    // older rows was composed in an earlier round and can only reproduce
    // a row already in the table. Skipping those pairs skips only
    // duplicates, so rows, their order and their provenance are those of
    // composing every pair in every round.
    let mut modes = vec![MatchMode::Exact];
    if cfg.ignore_messages {
        modes.push(MatchMode::IgnoreMessages);
    }
    // The build side of the hash join: rows by (placement, input key),
    // each bucket in ascending row order. Each round indexes only the
    // rows the round before added.
    let mut index: FxHashMap<(u8, Key), Vec<usize>> = FxHashMap::default();
    // Rows below `old` were composed with each other in an earlier round.
    let mut old = 0;
    let mut round = 0u64;
    let mut candidates = 0u64;
    loop {
        round += 1;
        let round_span = ccsql_obs::flight::span("depend", "round");
        round_span.arg("round", round);
        let rows_in = out.len();
        round_span.arg("rows_in", rows_in);
        for (i, r) in out.iter().enumerate().skip(old) {
            for &mode in &modes {
                index
                    .entry((placement_id(r.placement), match_key(&r.input, mode)))
                    .or_default()
                    .push(i);
            }
        }
        // Probe side, in (left, mode, right) order. An old left row
        // meets only the new suffix of its bucket. Rows pushed here lie
        // past `rows_in`, so they join the next round, not this one.
        let mut added = false;
        for li in 0..rows_in {
            let left = out[li];
            for &mode in &modes {
                let key = (placement_id(left.placement), match_key(&left.output, mode));
                let Some(bucket) = index.get(&key) else {
                    continue;
                };
                let from = if li < old {
                    bucket.partition_point(|&ri| ri < old)
                } else {
                    0
                };
                for &ri in &bucket[from..] {
                    candidates += 1;
                    let r = DepRow {
                        input: left.input,
                        output: out[ri].output,
                        placement: left.placement,
                        provenance: Provenance::Composed {
                            left: li,
                            right: ri,
                            mode,
                        },
                    };
                    if push(&mut out, r) {
                        added = true;
                    } else {
                        dedup_hits += 1;
                    }
                }
            }
        }
        old = rows_in;
        round_span.arg("rows_out", out.len());
        if !cfg.transitive_closure || !added {
            break;
        }
    }
    fspan.arg("rows", out.len());
    fspan.arg("rounds", round);
    fspan.arg("candidates", candidates);
    fspan.arg("dedup_hits", dedup_hits);
    DependencyTable { rows: out }
}

impl DependencyTable {
    /// The tabular form of the protocol dependency table (the paper's
    /// 8-column database table `m1,s1,d1,v1,m2,s2,d2,v2`, plus the
    /// placement relation).
    pub fn as_relation(&self) -> Relation {
        let mut rel =
            Relation::with_columns(["m1", "s1", "d1", "v1", "m2", "s2", "d2", "v2", "placement"])
                .expect("static schema");
        for r in &self.rows {
            rel.push_row(&[
                Value::Sym(r.input.msg),
                Value::sym(r.input.src.as_str()),
                Value::sym(r.input.dest.as_str()),
                Value::Sym(r.input.vc),
                Value::Sym(r.output.msg),
                Value::sym(r.output.src.as_str()),
                Value::sym(r.output.dest.as_str()),
                Value::Sym(r.output.vc),
                Value::sym(r.placement.notation()),
            ])
            .expect("arity");
        }
        rel
    }

    /// Trace the direct controller-row witnesses underlying row `i`.
    pub fn direct_witnesses(&self, i: usize) -> Vec<(Sym, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            match self.rows[j].provenance {
                Provenance::Direct { controller, row } => out.push((controller, row)),
                Provenance::Composed { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GeneratedProtocol;
    use std::sync::OnceLock;

    fn generated() -> &'static GeneratedProtocol {
        static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
        GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
    }

    #[test]
    fn directory_rows_include_figure4_r2() {
        // R2: (idone, remote, home, VC2) → (mread, home, home, VC4).
        let g = generated();
        let d = g.controller("D").unwrap();
        let rows = controller_dependency_rows(
            d,
            g.table("D").unwrap(),
            &VcAssignment::v1(),
            QuadPlacement::AllDistinct,
        );
        assert!(rows.iter().any(|r| {
            r.input.msg.as_str() == "idone"
                && r.input.src == Role::Remote
                && r.input.vc.as_str() == "VC2"
                && r.output.msg.as_str() == "mread"
                && r.output.vc.as_str() == "VC4"
        }));
    }

    #[test]
    fn memory_rows_include_figure4_r1() {
        // R1: (wb, home, home, VC4) → (compl, home, home, VC2).
        let g = generated();
        let m = g.controller("M").unwrap();
        let rows = controller_dependency_rows(
            m,
            g.table("M").unwrap(),
            &VcAssignment::v1(),
            QuadPlacement::AllDistinct,
        );
        assert!(rows.iter().any(|r| {
            r.input.msg.as_str() == "wb"
                && r.input.vc.as_str() == "VC4"
                && r.output.msg.as_str() == "compl"
                && r.output.vc.as_str() == "VC2"
        }));
    }

    #[test]
    fn placement_canonicalises_roles() {
        // Under L≠H=R the idone input assignment becomes (idone, home,
        // home, VC2) — the paper's R2′.
        let g = generated();
        let d = g.controller("D").unwrap();
        let rows = controller_dependency_rows(
            d,
            g.table("D").unwrap(),
            &VcAssignment::v1(),
            QuadPlacement::HomeRemote,
        );
        assert!(rows.iter().any(|r| {
            r.input.msg.as_str() == "idone"
                && r.input.src == Role::Home
                && r.input.dest == Role::Home
                && r.input.vc.as_str() == "VC2"
        }));
    }

    #[test]
    fn dedicated_path_contributes_no_rows() {
        let g = generated();
        let d = g.controller("D").unwrap();
        let rows = controller_dependency_rows(
            d,
            g.table("D").unwrap(),
            &VcAssignment::v2(),
            QuadPlacement::AllDistinct,
        );
        assert!(rows
            .iter()
            .all(|r| r.input.vc.as_str() != "PATH" && r.output.vc.as_str() != "PATH"));
        // In particular the idone→mread dependency is gone.
        assert!(!rows
            .iter()
            .any(|r| r.input.msg.as_str() == "idone" && r.output.msg.as_str() == "mread"));
    }

    #[test]
    fn composition_infers_figure4_cycle_row() {
        // Composing R1 with R2′ under L≠H=R with message-ignoring yields
        // R3: (wb, home, home, VC4, mread, home, home, VC4) — a VC4
        // self-dependency.
        let g = generated();
        let table =
            protocol_dependency_table(g, &VcAssignment::v1(), &AnalysisConfig::default()).unwrap();
        let r3 = table.rows.iter().position(|r| {
            r.placement == QuadPlacement::HomeRemote
                && r.input.msg.as_str() == "wb"
                && r.input.vc.as_str() == "VC4"
                && r.output.msg.as_str() == "mread"
                && r.output.vc.as_str() == "VC4"
        });
        let r3 = r3.expect("paper row R3 not inferred");
        // Its witnesses trace back to real controller rows in M and D.
        let wits = table.direct_witnesses(r3);
        let ctrls: Vec<&str> = wits.iter().map(|(c, _)| c.as_str()).collect();
        assert!(ctrls.contains(&"M") && ctrls.contains(&"D"));
    }

    #[test]
    fn no_composition_config_yields_only_direct_rows() {
        let g = generated();
        let cfg = AnalysisConfig {
            compose: false,
            ..AnalysisConfig::default()
        };
        let table = protocol_dependency_table(g, &VcAssignment::v1(), &cfg).unwrap();
        assert!(table
            .rows
            .iter()
            .all(|r| matches!(r.provenance, Provenance::Direct { .. })));
    }

    #[test]
    fn closure_adds_rows_over_single_pass() {
        let g = generated();
        let single =
            protocol_dependency_table(g, &VcAssignment::v0(), &AnalysisConfig::default()).unwrap();
        let closure = protocol_dependency_table(
            g,
            &VcAssignment::v0(),
            &AnalysisConfig {
                transitive_closure: true,
                ..AnalysisConfig::default()
            },
        )
        .unwrap();
        assert!(closure.rows.len() >= single.rows.len());
    }

    #[test]
    fn relation_form_has_nine_columns() {
        let g = generated();
        let table =
            protocol_dependency_table(g, &VcAssignment::v2(), &AnalysisConfig::default()).unwrap();
        let rel = table.as_relation();
        assert_eq!(rel.arity(), 9);
        assert_eq!(rel.len(), table.rows.len());
    }
}
