//! Flow extraction: from the flow universe to per-transaction message
//! flows.
//!
//! A *flow* (Sethi/Talupur/Malik) is the tree of table rows one
//! environment-initiated transaction can touch: the root steps are the
//! rows accepting the injected triple, and a row joins the flow when
//! some step of the flow emits a triple it accepts. Each [`FlowStep`]
//! records the row, the accept occurrence that activated it, and the
//! parent step whose emit delivered the message (the *message
//! precedence* relation).
//!
//! Extraction is a plain BFS per source, visiting each row at most once
//! per flow, so it always terminates and — because reachability is
//! monotone — the union of all flows is exactly the reachable-row
//! fixpoint. Rows outside that union are *uncovered*: no environment
//! transaction explains them, and the parameterized verdict cannot see
//! waits they might perform (diagnostic CCL030).

use super::model::{FlowAssign, FlowUniverse};
use ccsql_protocol::topology::Role;
use ccsql_relalg::Sym;

/// Accept occurrences `(row, accept)` indexed by their triple.
type AcceptIndex = std::collections::HashMap<(Sym, Role, Role), Vec<(usize, usize)>>;

/// One step of a flow: a table row activated by one accepted triple.
#[derive(Clone, Debug)]
pub struct FlowStep {
    /// Index into [`FlowUniverse::rows`].
    pub row: usize,
    /// Index of the activating accept in the row's `accepts` (`None`
    /// for spontaneous rows, which consume nothing).
    pub accept: Option<usize>,
    /// The step whose emit delivered the accepted triple (`None` for
    /// roots: the environment delivered it).
    pub parent: Option<usize>,
}

/// One extracted flow: the steps of one transaction type, in BFS order.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Flow label (`msg(src→dest)` of the initiating triple, or
    /// `spont:TABLE` for spontaneous rows).
    pub name: String,
    /// Steps; step 0.. are roots, parents always precede children.
    pub steps: Vec<FlowStep>,
}

/// The extraction result: all flows plus per-row coverage.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// Extracted flows, one per environment source (in source order)
    /// plus one per table with spontaneous rows.
    pub flows: Vec<Flow>,
    /// Per universe row: is it reached by at least one flow?
    pub covered: Vec<bool>,
}

impl Extraction {
    /// Indices of uncovered rows, ascending.
    pub fn uncovered(&self) -> Vec<usize> {
        (0..self.covered.len())
            .filter(|&i| !self.covered[i])
            .collect()
    }

    /// Total number of steps across all flows.
    pub fn step_count(&self) -> usize {
        self.flows.iter().map(|f| f.steps.len()).sum()
    }
}

/// Extract all flows of a universe.
pub fn extract(u: &FlowUniverse) -> Extraction {
    let fspan = ccsql_obs::flight::span("flows", "extract");
    fspan.arg("rows", u.rows.len());
    fspan.arg("sources", u.sources.len());
    let mut covered = vec![false; u.rows.len()];
    let mut flows = Vec::new();

    // Accept occurrences indexed by triple, so BFS expansion is a map
    // lookup instead of a scan over every row.
    let mut accept_index = AcceptIndex::new();
    for (ri, r) in u.rows.iter().enumerate() {
        for (ai, a) in r.accepts.iter().enumerate() {
            accept_index
                .entry((a.msg, a.src, a.dest))
                .or_default()
                .push((ri, ai));
        }
    }

    // One flow per environment source: roots are the rows accepting the
    // injected triple.
    for src in &u.sources {
        let roots: Vec<(usize, usize)> = u
            .rows
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| {
                r.accepts
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| src.matches(a))
                    .map(move |(ai, _)| (ri, ai))
            })
            .collect();
        if roots.is_empty() {
            continue;
        }
        let flow = grow(u, &accept_index, &src.label(), &roots, &mut covered);
        flows.push(flow);
    }

    // Rows consuming nothing but emitting something are environment-less
    // transactions of their own; group them per table.
    let mut spont_tables: Vec<Sym> = Vec::new();
    for r in &u.rows {
        if r.accepts.is_empty() && !r.emits.is_empty() && !spont_tables.contains(&r.table) {
            spont_tables.push(r.table);
        }
    }
    for table in spont_tables {
        let roots: Vec<(usize, usize)> = u
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.table == table && r.accepts.is_empty() && !r.emits.is_empty())
            .map(|(ri, _)| (ri, usize::MAX))
            .collect();
        flows.push(grow(
            u,
            &accept_index,
            &format!("spont:{table}"),
            &roots,
            &mut covered,
        ));
    }

    // Rows with neither accepts nor emits don't participate in message
    // flow at all — they are trivially covered (nothing to extract).
    for (ri, r) in u.rows.iter().enumerate() {
        if r.accepts.is_empty() && r.emits.is_empty() {
            covered[ri] = true;
        }
    }

    let extraction = Extraction { flows, covered };
    if fspan.is_live() {
        fspan.arg("flows", extraction.flows.len());
        fspan.arg("steps", extraction.step_count());
    }
    extraction
}

/// BFS one flow from its root (row, accept) pairs. `usize::MAX` as the
/// accept index marks a spontaneous root.
fn grow(
    u: &FlowUniverse,
    accept_index: &AcceptIndex,
    name: &str,
    roots: &[(usize, usize)],
    covered: &mut [bool],
) -> Flow {
    let mut steps: Vec<FlowStep> = Vec::new();
    let mut in_flow = vec![false; u.rows.len()];
    for &(ri, ai) in roots {
        if in_flow[ri] {
            continue;
        }
        in_flow[ri] = true;
        covered[ri] = true;
        steps.push(FlowStep {
            row: ri,
            accept: (ai != usize::MAX).then_some(ai),
            parent: None,
        });
    }
    let mut next = 0;
    while next < steps.len() {
        let si = next;
        next += 1;
        let row = &u.rows[steps[si].row];
        for emit in &row.emits {
            let Some(consumers) = accept_index.get(&(emit.msg, emit.src, emit.dest)) else {
                continue;
            };
            for &(ri, ai) in consumers {
                if in_flow[ri] {
                    continue;
                }
                in_flow[ri] = true;
                covered[ri] = true;
                steps.push(FlowStep {
                    row: ri,
                    accept: Some(ai),
                    parent: Some(si),
                });
            }
        }
    }
    Flow {
        name: name.to_string(),
        steps,
    }
}

/// The accept occurrence that activated `step`, if any.
pub fn step_accept<'u>(u: &'u FlowUniverse, step: &FlowStep) -> Option<&'u FlowAssign> {
    step.accept.map(|ai| &u.rows[step.row].accepts[ai])
}
