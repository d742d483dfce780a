//! The flow-waits-for graph and its symbolic cycle check.
//!
//! Nodes are `(flow, step, VC)` occurrences — a step *holding* its
//! accepted triple's channel, or *needing* credit on an emitted
//! triple's channel — plus one *hub* node per channel. Edges:
//!
//! * **resource wait** — within a step: the accept node waits on every
//!   emit node (the row holds its input's channel slot until all its
//!   outputs are sent);
//! * **message precedence** — a parent step's emit node precedes the
//!   child step's accept node (same triple, same channel);
//! * **coupling** — emit nodes feed their channel's hub and hubs feed
//!   every accept node holding that channel: credit on a channel is
//!   freed only when *some* instance holding a slot of it completes.
//!   Which concrete quad placement aliases the two role pairs involved
//!   is recorded per traversed hub as the cycle's placement witness.
//!
//! The check is symbolic in the node count: the graph is built once,
//! independent of N, and a cycle through `k` hubs needs at most
//! `max(2, k)` concurrent transaction instances to close — so it holds
//! for *every* N ≥ that bound. The quad-placement family saturates at
//! three quads (`L≠H≠R` is the most spread-out placement), which is why
//! no per-N re-analysis is ever required.

use super::extract::{Extraction, FlowStep};
use super::model::{FlowAssign, FlowUniverse};
use ccsql_protocol::topology::{QuadPlacement, PLACEMENTS};

/// A node of the waits-for graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Step `(flow, step)` holds its accepted triple's channel.
    Accept {
        /// Flow index.
        flow: usize,
        /// Step index within the flow.
        step: usize,
        /// Held channel.
        vc: String,
    },
    /// Step `(flow, step)` needs credit for its `emit`-th output.
    Emit {
        /// Flow index.
        flow: usize,
        /// Step index within the flow.
        step: usize,
        /// Emit occurrence index within the step's row.
        emit: usize,
        /// Required channel.
        vc: String,
    },
    /// Per-channel coupling hub.
    Hub {
        /// The channel.
        vc: String,
    },
}

impl Node {
    /// The channel this node concerns.
    pub fn vc(&self) -> &str {
        match self {
            Node::Accept { vc, .. } | Node::Emit { vc, .. } | Node::Hub { vc } => vc,
        }
    }
}

/// One wait-cycle found in the graph.
#[derive(Clone, Debug)]
pub struct FlowCycle {
    /// Distinct channels on the cycle, sorted.
    pub channels: Vec<String>,
    /// Node ids along the cycle (first node not repeated at the end).
    pub path: Vec<usize>,
    /// Number of hubs traversed = coupling points between instances.
    pub couplings: usize,
    /// Concurrent transaction instances that suffice to close the
    /// cycle: the verdict holds for every N ≥ this.
    pub min_nodes: usize,
    /// Per traversed hub: the quad placement witnessing that the
    /// emitting and holding role pairs alias (the least-merged one).
    pub placements: Vec<&'static str>,
}

/// The flow-waits-for graph.
pub struct WaitGraph {
    /// All nodes; step nodes first (flow/step/emit order), hubs last
    /// (channel order).
    pub nodes: Vec<Node>,
    adj: Vec<Vec<usize>>,
}

/// Quads a placement needs: how spread out its three roles are.
pub fn quads_needed(p: QuadPlacement) -> usize {
    match p {
        QuadPlacement::AllSame => 1,
        QuadPlacement::AllDistinct => 3,
        _ => 2,
    }
}

/// The placements realisable with `n` quads.
pub fn family_at(n: usize) -> Vec<QuadPlacement> {
    PLACEMENTS
        .iter()
        .copied()
        .filter(|&p| quads_needed(p) <= n)
        .collect()
}

impl WaitGraph {
    /// Build the graph from an extraction over its universe.
    pub fn build(u: &FlowUniverse, ex: &Extraction) -> WaitGraph {
        let fspan = ccsql_obs::flight::span("flows", "graph");
        let mut nodes = Vec::new();
        let mut adj: Vec<Vec<usize>> = Vec::new();
        let push = |nodes: &mut Vec<Node>, adj: &mut Vec<Vec<usize>>, n: Node| -> usize {
            nodes.push(n);
            adj.push(Vec::new());
            nodes.len() - 1
        };

        // Step nodes, in deterministic (flow, step, emit) order.
        let mut accept_id = vec![Vec::new(); ex.flows.len()];
        let mut emit_id = vec![Vec::new(); ex.flows.len()];
        for (fi, f) in ex.flows.iter().enumerate() {
            for (si, s) in f.steps.iter().enumerate() {
                let a = super::extract::step_accept(u, s)
                    .and_then(|a| a.vc)
                    .map(|vc| {
                        push(
                            &mut nodes,
                            &mut adj,
                            Node::Accept {
                                flow: fi,
                                step: si,
                                vc: vc.to_string(),
                            },
                        )
                    });
                accept_id[fi].push(a);
                let mut es = Vec::new();
                for (ei, e) in u.rows[s.row].emits.iter().enumerate() {
                    es.push(e.vc.map(|vc| {
                        push(
                            &mut nodes,
                            &mut adj,
                            Node::Emit {
                                flow: fi,
                                step: si,
                                emit: ei,
                                vc: vc.to_string(),
                            },
                        )
                    }));
                }
                emit_id[fi].push(es);
            }
        }
        // Hubs, in channel order.
        let mut channels: Vec<String> = nodes.iter().map(|n| n.vc().to_string()).collect();
        channels.sort();
        channels.dedup();
        let mut hub = std::collections::HashMap::new();
        for vc in &channels {
            let id = push(&mut nodes, &mut adj, Node::Hub { vc: vc.clone() });
            hub.insert(vc.clone(), id);
        }

        for (fi, f) in ex.flows.iter().enumerate() {
            for (si, s) in f.steps.iter().enumerate() {
                // Resource wait: hold the accept channel across emits.
                if let Some(a) = accept_id[fi][si] {
                    for e in emit_id[fi][si].iter().flatten() {
                        adj[a].push(*e);
                    }
                    // Coupling in: the hub frees a held slot.
                    adj[hub[nodes[a].vc()]].push(a);
                }
                for e in emit_id[fi][si].iter().flatten() {
                    // Coupling out: needing credit waits on the hub.
                    adj[*e].push(hub[nodes[*e].vc()]);
                }
                // Message precedence: parent's matching emit precedes
                // this step's accept.
                let (Some(pi), Some(a)) = (s.parent, accept_id[fi][si]) else {
                    continue;
                };
                let Some(acc) = super::extract::step_accept(u, s) else {
                    continue;
                };
                let parent_row = &u.rows[f.steps[pi].row];
                if let Some(ei) = parent_row.emits.iter().position(|e| e.same_triple(acc)) {
                    if let Some(e) = emit_id[fi][pi][ei] {
                        adj[e].push(a);
                    }
                }
            }
        }
        fspan.arg("nodes", nodes.len());
        fspan.arg("edges", adj.iter().map(Vec::len).sum::<usize>());
        WaitGraph { nodes, adj }
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// All edges as (from, to) node-id pairs, in construction order.
    pub fn edge_list(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for (f, nbrs) in self.adj.iter().enumerate() {
            for &t in nbrs {
                out.push((f, t));
            }
        }
        out
    }

    /// Find wait-cycles: one representative (shortest through its
    /// lowest node) per non-trivial strongly connected component,
    /// deduplicated on channel set. Deterministic.
    pub fn cycles(&self, u: &FlowUniverse, ex: &Extraction) -> Vec<FlowCycle> {
        let _fspan = ccsql_obs::flight::span("flows", "scc");
        let mut out: Vec<FlowCycle> = Vec::new();
        for scc in ccsql::vcg::tarjan(&self.adj, |&t| t) {
            if scc.len() < 2 {
                continue; // no self-edges by construction
            }
            let path = self.shortest_cycle_in(&scc);
            let cycle = self.describe_cycle(u, ex, path);
            if !out.iter().any(|c| c.channels == cycle.channels) {
                out.push(cycle);
            }
        }
        out.sort_by(|a, b| a.channels.cmp(&b.channels));
        out
    }

    /// Shortest closed walk through the component's smallest node id.
    fn shortest_cycle_in(&self, scc: &[usize]) -> Vec<usize> {
        let inside: std::collections::HashSet<usize> = scc.iter().copied().collect();
        let start = *scc.iter().min().expect("non-empty SCC");
        // BFS from start back to start, restricted to the SCC.
        let mut prev: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        'bfs: while let Some(n) = queue.pop_front() {
            for &m in &self.adj[n] {
                if !inside.contains(&m) {
                    continue;
                }
                if m == start {
                    prev.insert(start, n);
                    break 'bfs;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(m) {
                    e.insert(n);
                    queue.push_back(m);
                }
            }
        }
        // Walk back from start's predecessor.
        let mut path = vec![start];
        let mut at = prev[&start];
        while at != start {
            path.push(at);
            at = prev[&at];
        }
        path.reverse();
        path
    }

    /// Annotate a node path with channels, couplings and placements.
    fn describe_cycle(&self, u: &FlowUniverse, ex: &Extraction, path: Vec<usize>) -> FlowCycle {
        let mut channels: Vec<String> = path
            .iter()
            .map(|&n| self.nodes[n].vc().to_string())
            .collect();
        channels.sort();
        channels.dedup();
        let mut couplings = 0;
        let mut placements = Vec::new();
        for (i, &n) in path.iter().enumerate() {
            if !matches!(self.nodes[n], Node::Hub { .. }) {
                continue;
            }
            couplings += 1;
            let before = path[(i + path.len() - 1) % path.len()];
            let after = path[(i + 1) % path.len()];
            placements.push(
                self.coupling_placement(u, ex, before, after)
                    .map(QuadPlacement::notation)
                    .unwrap_or("?"),
            );
        }
        FlowCycle {
            channels,
            path,
            couplings,
            min_nodes: couplings.max(2),
            placements,
        }
    }

    /// The least-merged placement under which the role pair emitted
    /// into a hub aliases the role pair held on the hub's far side.
    fn coupling_placement(
        &self,
        u: &FlowUniverse,
        ex: &Extraction,
        emit_node: usize,
        accept_node: usize,
    ) -> Option<QuadPlacement> {
        let e = self.node_assign(u, ex, emit_node)?;
        let a = self.node_assign(u, ex, accept_node)?;
        PLACEMENTS
            .iter()
            .copied()
            .filter(|p| p.canon(e.src) == p.canon(a.src) && p.canon(e.dest) == p.canon(a.dest))
            .max_by_key(|&p| quads_needed(p))
    }

    /// The triple behind a step node.
    pub fn node_assign<'u>(
        &self,
        u: &'u FlowUniverse,
        ex: &Extraction,
        n: usize,
    ) -> Option<&'u FlowAssign> {
        match &self.nodes[n] {
            Node::Accept { flow, step, .. } => {
                let s: &FlowStep = &ex.flows[*flow].steps[*step];
                super::extract::step_accept(u, s)
            }
            Node::Emit {
                flow, step, emit, ..
            } => {
                let s = &ex.flows[*flow].steps[*step];
                Some(&u.rows[s.row].emits[*emit])
            }
            Node::Hub { .. } => None,
        }
    }
}
