//! The virtual channel dependency graph `VCG` and its cycle analysis.
//!
//! Vertices are virtual channels; there is an edge `(vc1, vc2)` for each
//! row of the protocol dependency table. "An absence of cycles in this
//! table indicates absence of deadlocks. Cycles in this table indicate
//! potential deadlocks and need to be analyzed."

use crate::depend::DependencyTable;
use ccsql_relalg::Sym;
use std::collections::HashMap;

/// One edge of the VCG with a witness dependency row.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Held channel.
    pub from: Sym,
    /// Required channel.
    pub to: Sym,
    /// Index of a witness row in the dependency table.
    pub witness: usize,
}

/// A cycle: the channels of one non-trivial strongly connected
/// component, plus a concrete edge sequence realising a cycle.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// Channels involved (sorted).
    pub channels: Vec<Sym>,
    /// A shortest closed walk through the component (edge list).
    pub edges: Vec<Edge>,
}

/// The virtual channel dependency graph.
pub struct Vcg {
    nodes: Vec<Sym>,
    /// adjacency: node index → (neighbour index, witness row).
    adj: Vec<Vec<(usize, usize)>>,
    node_index: HashMap<Sym, usize>,
}

impl Vcg {
    /// Build the VCG from a protocol dependency table.
    pub fn build(table: &DependencyTable) -> Vcg {
        let mut nodes: Vec<Sym> = Vec::new();
        let mut node_index: HashMap<Sym, usize> = HashMap::new();
        let intern = |nodes: &mut Vec<Sym>, node_index: &mut HashMap<Sym, usize>, s: Sym| {
            *node_index.entry(s).or_insert_with(|| {
                nodes.push(s);
                nodes.len() - 1
            })
        };
        let mut adj: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut seen_edges: HashMap<(usize, usize), usize> = HashMap::new();
        // Iterate rows in order so the first witness of each edge is
        // deterministic across runs.
        for (wit, row) in table.rows.iter().enumerate() {
            let f = intern(&mut nodes, &mut node_index, row.input.vc);
            let t = intern(&mut nodes, &mut node_index, row.output.vc);
            adj.resize(nodes.len(), Vec::new());
            if let std::collections::hash_map::Entry::Vacant(e) = seen_edges.entry((f, t)) {
                e.insert(wit);
                adj[f].push((t, wit));
            }
        }
        adj.resize(nodes.len(), Vec::new());
        // Deterministic order.
        for a in &mut adj {
            a.sort_by_key(|&(t, _)| nodes[t]);
        }
        Vcg {
            nodes,
            adj,
            node_index,
        }
    }

    /// The channel names (graph vertices), sorted.
    pub fn channels(&self) -> Vec<Sym> {
        let mut n = self.nodes.clone();
        n.sort();
        n
    }

    /// All edges.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for (f, nbrs) in self.adj.iter().enumerate() {
            for &(t, w) in nbrs {
                out.push(Edge {
                    from: self.nodes[f],
                    to: self.nodes[t],
                    witness: w,
                });
            }
        }
        out.sort_by_key(|e| (e.from, e.to));
        out
    }

    /// Does the graph contain an edge `from → to`?
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        let (Some(&f), Some(&t)) = (
            self.node_index.get(&Sym::intern(from)),
            self.node_index.get(&Sym::intern(to)),
        ) else {
            return false;
        };
        self.adj[f].iter().any(|&(n, _)| n == t)
    }

    /// Find all cycles: one [`Cycle`] per strongly connected component
    /// that is non-trivial (more than one node, or a self-loop).
    pub fn cycles(&self) -> Vec<Cycle> {
        let sccs = tarjan(&self.adj, |&(t, _)| t);
        let mut out = Vec::new();
        for scc in sccs {
            let nontrivial = scc.len() > 1 || self.adj[scc[0]].iter().any(|&(t, _)| t == scc[0]);
            if !nontrivial {
                continue;
            }
            let mut channels: Vec<Sym> = scc.iter().map(|&i| self.nodes[i]).collect();
            channels.sort();
            let edges = self.shortest_cycle_in(&scc);
            out.push(Cycle { channels, edges });
        }
        // Deterministic report order.
        out.sort_by(|a, b| a.channels.cmp(&b.channels));
        out
    }

    /// True iff the graph is acyclic (no deadlocks indicated).
    pub fn is_acyclic(&self) -> bool {
        self.cycles().is_empty()
    }

    /// Enumerate up to `limit` *simple* cycles (distinct channel
    /// sequences). The paper reports "several cycles leading to
    /// deadlocks" for the initial assignment; each simple cycle is one
    /// scenario to analyse.
    pub fn simple_cycles(&self, limit: usize) -> Vec<Vec<Edge>> {
        let mut out: Vec<Vec<Edge>> = Vec::new();
        let n = self.nodes.len();
        // DFS from each start node, only visiting nodes ≥ start (canonical
        // rooting avoids duplicates), collecting paths that close at start.
        for start in 0..n {
            if out.len() >= limit {
                break;
            }
            let mut path: Vec<Edge> = Vec::new();
            let mut on_path = vec![false; n];
            self.cycle_dfs(start, start, &mut path, &mut on_path, &mut out, limit);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn cycle_dfs(
        &self,
        start: usize,
        v: usize,
        path: &mut Vec<Edge>,
        on_path: &mut [bool],
        out: &mut Vec<Vec<Edge>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        on_path[v] = true;
        for &(w, wit) in &self.adj[v] {
            if out.len() >= limit {
                break;
            }
            if w == start {
                let mut cycle = path.clone();
                cycle.push(Edge {
                    from: self.nodes[v],
                    to: self.nodes[start],
                    witness: wit,
                });
                out.push(cycle);
            } else if w > start && !on_path[w] {
                path.push(Edge {
                    from: self.nodes[v],
                    to: self.nodes[w],
                    witness: wit,
                });
                self.cycle_dfs(start, w, path, on_path, out, limit);
                path.pop();
            }
        }
        on_path[v] = false;
    }

    /// A shortest closed walk inside an SCC: BFS from each node back to
    /// itself, keeping edges within the component.
    fn shortest_cycle_in(&self, scc: &[usize]) -> Vec<Edge> {
        use std::collections::VecDeque;
        let inside: Vec<bool> = {
            let mut v = vec![false; self.nodes.len()];
            for &i in scc {
                v[i] = true;
            }
            v
        };
        let mut best: Option<Vec<Edge>> = None;
        for &start in scc {
            // Self-loop is the shortest possible cycle.
            if let Some(&(_, w)) = self.adj[start].iter().find(|&&(t, _)| t == start) {
                let e = vec![Edge {
                    from: self.nodes[start],
                    to: self.nodes[start],
                    witness: w,
                }];
                if best.as_ref().map(|b| b.len() > 1).unwrap_or(true) {
                    best = Some(e);
                }
                continue;
            }
            // BFS back to start.
            let mut prev: HashMap<usize, (usize, usize)> = HashMap::new();
            let mut q = VecDeque::new();
            q.push_back(start);
            let mut found: Option<usize> = None;
            'bfs: while let Some(v) = q.pop_front() {
                for &(t, w) in &self.adj[v] {
                    if !inside[t] {
                        continue;
                    }
                    if t == start {
                        prev.insert(usize::MAX, (v, w)); // closing edge
                        found = Some(v);
                        break 'bfs;
                    }
                    if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(t) {
                        e.insert((v, w));
                        q.push_back(t);
                    }
                }
            }
            if let Some(last) = found {
                // Reconstruct path start → … → last, then closing edge.
                let mut rev: Vec<Edge> = Vec::new();
                let (_, closing_w) = prev[&usize::MAX];
                rev.push(Edge {
                    from: self.nodes[last],
                    to: self.nodes[start],
                    witness: closing_w,
                });
                let mut cur = last;
                while cur != start {
                    let (p, w) = prev[&cur];
                    rev.push(Edge {
                        from: self.nodes[p],
                        to: self.nodes[cur],
                        witness: w,
                    });
                    cur = p;
                }
                rev.reverse();
                if best.as_ref().map(|b| b.len() > rev.len()).unwrap_or(true) {
                    best = Some(rev);
                }
            }
        }
        best.unwrap_or_default()
    }
}

/// The strongly connected components of a graph given as adjacency
/// lists: node `v`'s edges are `adj[v]`, and `head` gives the node an
/// edge leads to. Tarjan's algorithm, iterative, so deep graphs cannot
/// overflow the stack. Deterministic: roots are tried in index order
/// and edges in list order, and the components come out in completion
/// order, each with its members ascending.
pub fn tarjan<E>(adj: &[Vec<E>], head: impl Fn(&E) -> usize) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Call stack frames: (node, neighbour cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(e) = adj[v].get(*cursor) {
                let w = head(e);
                *cursor += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::{Assignment, DepRow, Provenance};
    use ccsql_protocol::topology::{QuadPlacement, Role};

    fn asg(msg: &str, vc: &str) -> Assignment {
        Assignment {
            msg: Sym::intern(msg),
            src: Role::Home,
            dest: Role::Home,
            vc: Sym::intern(vc),
        }
    }

    fn dep(from: (&str, &str), to: (&str, &str)) -> DepRow {
        DepRow {
            input: asg(from.0, from.1),
            output: asg(to.0, to.1),
            placement: QuadPlacement::AllDistinct,
            provenance: Provenance::Direct {
                controller: Sym::intern("T"),
                row: 0,
            },
        }
    }

    fn table(rows: Vec<DepRow>) -> DependencyTable {
        DependencyTable { rows }
    }

    #[test]
    fn acyclic_graph_reports_no_cycles() {
        let t = table(vec![
            dep(("a", "VC0"), ("b", "VC1")),
            dep(("b", "VC1"), ("c", "VC2")),
            dep(("x", "VC0"), ("y", "VC3")),
        ]);
        let g = Vcg::build(&t);
        assert!(g.is_acyclic());
        assert_eq!(g.channels().len(), 4);
        assert_eq!(g.edges().len(), 3);
        assert!(g.has_edge("VC0", "VC1"));
        assert!(!g.has_edge("VC1", "VC0"));
    }

    #[test]
    fn two_cycle_detected() {
        let t = table(vec![
            dep(("idone", "VC2"), ("mread", "VC4")),
            dep(("wb", "VC4"), ("compl", "VC2")),
            dep(("r", "VC0"), ("s", "VC1")),
        ]);
        let g = Vcg::build(&t);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let names: Vec<&str> = cycles[0].channels.iter().map(|c| c.as_str()).collect();
        assert_eq!(names, ["VC2", "VC4"]);
        assert_eq!(cycles[0].edges.len(), 2);
        // The closed walk really closes.
        let e = &cycles[0].edges;
        assert_eq!(e[0].from, e[e.len() - 1].to);
    }

    #[test]
    fn self_loop_detected() {
        let t = table(vec![dep(("readex", "VC0"), ("mread", "VC0"))]);
        let g = Vcg::build(&t);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].channels.len(), 1);
        assert_eq!(cycles[0].edges.len(), 1);
    }

    #[test]
    fn simple_cycles_enumerated() {
        // Triangle plus a self-loop plus a 2-cycle sharing a node.
        let t = table(vec![
            dep(("a", "VC0"), ("b", "VC1")),
            dep(("b", "VC1"), ("c", "VC2")),
            dep(("c", "VC2"), ("a", "VC0")),
            dep(("s", "VC0"), ("s", "VC0")),
            dep(("x", "VC1"), ("y", "VC0")),
        ]);
        let g = Vcg::build(&t);
        let cycles = g.simple_cycles(10);
        // self-loop VC0→VC0, triangle VC0→VC1→VC2→VC0, 2-cycle VC0↔VC1.
        assert_eq!(cycles.len(), 3, "{cycles:?}");
        for c in &cycles {
            assert_eq!(c.first().unwrap().from, c.last().unwrap().to);
        }
        // The limit is honoured.
        assert_eq!(g.simple_cycles(1).len(), 1);
    }

    #[test]
    fn multiple_sccs_reported_deterministically() {
        let t = table(vec![
            dep(("a", "VC0"), ("b", "VC1")),
            dep(("b", "VC1"), ("a", "VC0")),
            dep(("c", "VC2"), ("d", "VC4")),
            dep(("d", "VC4"), ("c", "VC2")),
        ]);
        let g = Vcg::build(&t);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 2);
        assert!(cycles[0].channels < cycles[1].channels);
    }

    #[test]
    fn three_cycle_walk_reconstructed() {
        let t = table(vec![
            dep(("a", "VC0"), ("b", "VC1")),
            dep(("b", "VC1"), ("c", "VC2")),
            dep(("c", "VC2"), ("a", "VC0")),
        ]);
        let g = Vcg::build(&t);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 3);
        // Consecutive edges chain.
        for w in cycles[0].edges.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }
}
