//! Transition relation and safety properties of the abstract model.

use crate::state::{Busy, Cache, Dir, Req, Resp, Snoop, State};

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct Model {
    /// Number of symmetric nodes.
    pub nodes: usize,
    /// Operations each node may issue (drives depth).
    pub quota: u8,
    /// Response-queue bound per node.
    pub resp_depth: usize,
}

impl Default for Model {
    fn default() -> Model {
        Model {
            nodes: 2,
            quota: 2,
            resp_depth: 2,
        }
    }
}

impl Model {
    /// The initial state.
    pub fn initial(&self) -> State {
        State::initial(self.nodes, self.quota)
    }

    /// Check the parameters: at least two nodes, so that there is a
    /// remote node to snoop, and no more than the 128-bit packed
    /// encoding the explorer's visited arena uses ([`crate::compact`])
    /// holds. The CLI surfaces this as a friendly error;
    /// [`crate::explore::explore_with`] asserts it.
    pub fn validate(&self) -> Result<(), String> {
        use crate::compact::{MAX_NODES, MAX_QUOTA, MAX_RESP_DEPTH};
        if !(2..=MAX_NODES).contains(&self.nodes) {
            return Err(format!("nodes must be 2..={MAX_NODES}, got {}", self.nodes));
        }
        if !(1..=MAX_QUOTA).contains(&self.quota) {
            return Err(format!("quota must be 1..={MAX_QUOTA}, got {}", self.quota));
        }
        if !(1..=MAX_RESP_DEPTH).contains(&self.resp_depth) {
            return Err(format!(
                "resp-depth must be 1..={MAX_RESP_DEPTH}, got {}",
                self.resp_depth
            ));
        }
        Ok(())
    }

    /// All successor states of `s` (each enabled rule firing once).
    pub fn successors(&self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        for i in 0..self.nodes {
            self.issue_rules(s, i, &mut out);
            self.snoop_rule(s, i, &mut out);
            self.sresp_rule(s, i, &mut out);
            self.resp_rule(s, i, &mut out);
            self.dir_rule(s, i, &mut out);
        }
        out
    }

    /// Node `i` issues a new request (one successor per legal op).
    fn issue_rules(&self, s: &State, i: usize, out: &mut Vec<State>) {
        if s.pend[i].is_some() || s.req[i].is_some() || s.quota[i] == 0 {
            return;
        }
        let legal: &[Req] = match s.cache[i] {
            Cache::I => &[Req::Read, Req::ReadEx],
            Cache::S => &[Req::Upgrade, Req::Replace],
            Cache::E => &[Req::Replace],
            Cache::M => &[Req::Wb],
        };
        for &op in legal {
            let mut t = s.clone();
            t.pend[i] = Some(op);
            t.req[i] = Some(op);
            t.quota[i] -= 1;
            out.push(t);
        }
    }

    /// The directory consumes node `i`'s request.
    fn dir_rule(&self, s: &State, i: usize, out: &mut Vec<State>) {
        let Some(op) = s.req[i] else { return };
        // A transaction in flight: serialise with retry.
        if s.busy.is_some() {
            if s.resp[i].len() < self.resp_depth {
                let mut t = s.clone();
                t.req[i] = None;
                t.resp[i].push(Resp::Retry);
                out.push(t);
            }
            return;
        }
        let mut t = s.clone();
        t.req[i] = None;
        match (op, s.dir) {
            (Req::Read, Dir::I) => {
                // Exclusive grant (no sharers).
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.dir = Dir::Mesi;
                t.pv = 1 << i;
                t.resp[i].push(Resp::EData);
            }
            (Req::Read, Dir::Si) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.pv |= 1 << i;
                t.resp[i].push(Resp::Data);
            }
            (Req::Read, Dir::Mesi) => {
                // Downgrade the owner; complete when it answers.
                let owner = s.pv.trailing_zeros() as usize;
                if s.snoop[owner].is_some() {
                    return;
                }
                t.snoop[owner] = Some(Snoop::Down);
                t.busy = Some(Busy {
                    req: Req::Read,
                    requester: i as u8,
                    pending: 1,
                });
                t.dir = Dir::I; // moved to the busy "directory"
            }
            (Req::ReadEx, Dir::I) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.dir = Dir::Mesi;
                t.pv = 1 << i;
                t.resp[i].push(Resp::EData);
            }
            (Req::ReadEx, Dir::Si) | (Req::ReadEx, Dir::Mesi) => {
                // Invalidate every sharer/owner.
                let targets: Vec<usize> =
                    (0..self.nodes).filter(|&j| s.in_pv(j) && j != i).collect();
                if targets.is_empty() {
                    // Stale request (our own copy was the only one).
                    if s.resp[i].len() >= self.resp_depth {
                        return;
                    }
                    t.resp[i].push(Resp::Retry);
                    out.push(t);
                    return;
                }
                if targets.iter().any(|&j| s.snoop[j].is_some()) {
                    return;
                }
                for &j in &targets {
                    t.snoop[j] = Some(Snoop::Inv);
                }
                t.busy = Some(Busy {
                    req: Req::ReadEx,
                    requester: i as u8,
                    pending: targets.len() as u8,
                });
                t.dir = Dir::I;
            }
            (Req::Upgrade, Dir::Si) if s.in_pv(i) => {
                let others: Vec<usize> =
                    (0..self.nodes).filter(|&j| s.in_pv(j) && j != i).collect();
                if others.is_empty() {
                    if s.resp[i].len() >= self.resp_depth {
                        return;
                    }
                    t.dir = Dir::Mesi;
                    t.pv = 1 << i;
                    t.resp[i].push(Resp::Compl);
                } else {
                    if others.iter().any(|&j| s.snoop[j].is_some()) {
                        return;
                    }
                    for &j in &others {
                        t.snoop[j] = Some(Snoop::Inv);
                    }
                    t.busy = Some(Busy {
                        req: Req::Upgrade,
                        requester: i as u8,
                        pending: others.len() as u8,
                    });
                    t.dir = Dir::I;
                }
            }
            (Req::Upgrade, _) => {
                // Stale upgrade (line lost or taken over meanwhile).
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.resp[i].push(Resp::Retry);
            }
            (Req::Wb, Dir::Mesi) if s.in_pv(i) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.dir = Dir::I;
                t.pv = 0;
                t.resp[i].push(Resp::Compl);
            }
            (Req::Wb, _) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.resp[i].push(Resp::Retry);
            }
            (Req::Replace, d) if s.in_pv(i) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.pv &= !(1 << i);
                if t.pv == 0 {
                    t.dir = Dir::I;
                } else if d == Dir::Mesi {
                    t.dir = Dir::I;
                    t.pv = 0;
                }
                t.resp[i].push(Resp::Compl);
            }
            (Req::Replace, _) => {
                if s.resp[i].len() >= self.resp_depth {
                    return;
                }
                t.resp[i].push(Resp::Compl);
            }
        }
        out.push(t);
    }

    /// Node `i` answers a snoop.
    fn snoop_rule(&self, s: &State, i: usize, out: &mut Vec<State>) {
        let Some(sn) = s.snoop[i] else { return };
        if s.sresp[i] {
            return;
        }
        // Transient protection: a node with its own transaction pending
        // on the line parks the snoop until the transaction resolves
        // (the snoop-hold register of the concrete machine). In the
        // abstract model the snoop simply waits unless the node's
        // request has already been consumed and retried.
        if s.pend[i].is_some() && s.req[i].is_none() {
            // Our request is at the directory or a response is in
            // flight: answering now is the completion-window race.
            // Wait unless a retry is already queued for us.
            if !s.resp[i].contains(&Resp::Retry) {
                return;
            }
        }
        let mut t = s.clone();
        t.snoop[i] = None;
        match sn {
            Snoop::Inv => t.cache[i] = Cache::I,
            Snoop::Down => {
                if t.cache[i] == Cache::M || t.cache[i] == Cache::E {
                    t.cache[i] = Cache::S;
                }
            }
        }
        t.sresp[i] = true;
        out.push(t);
    }

    /// The directory collects node `i`'s snoop response.
    fn sresp_rule(&self, s: &State, i: usize, out: &mut Vec<State>) {
        if !s.sresp[i] {
            return;
        }
        let Some(b) = s.busy else { return };
        let mut t = s.clone();
        t.sresp[i] = false;
        let mut b2 = b;
        b2.pending -= 1;
        if b2.pending > 0 {
            t.busy = Some(b2);
            out.push(t);
            return;
        }
        // Transaction completes.
        let r = b.requester as usize;
        if s.resp[r].len() >= self.resp_depth {
            return;
        }
        t.busy = None;
        match b.req {
            Req::Read => {
                t.dir = Dir::Si;
                t.pv |= 1 << r;
                t.resp[r].push(Resp::Data);
            }
            Req::ReadEx => {
                t.dir = Dir::Mesi;
                t.pv = 1 << r;
                t.resp[r].push(Resp::EData);
            }
            Req::Upgrade => {
                t.dir = Dir::Mesi;
                t.pv = 1 << r;
                t.resp[r].push(Resp::Compl);
            }
            _ => unreachable!("only snooping transactions go busy"),
        }
        out.push(t);
    }

    /// Node `i` consumes a response.
    fn resp_rule(&self, s: &State, i: usize, out: &mut Vec<State>) {
        if s.resp[i].is_empty() {
            return;
        }
        let mut t = s.clone();
        let r = t.resp[i].remove(0);
        let pend = s.pend[i];
        match (r, pend) {
            (Resp::Data, _) => t.cache[i] = Cache::S,
            (Resp::EData, Some(Req::Read)) => t.cache[i] = Cache::E,
            (Resp::EData, _) => t.cache[i] = Cache::M,
            (Resp::Compl, Some(Req::Upgrade)) => t.cache[i] = Cache::M,
            (Resp::Compl, Some(Req::Wb) | Some(Req::Replace)) => t.cache[i] = Cache::I,
            (Resp::Compl, _) => {}
            (Resp::Retry, _) => {
                // Give the op back to the quota so it can be re-issued
                // against the (possibly changed) cache state; saturate
                // to keep the space finite.
                t.quota[i] = t.quota[i].saturating_add(1).min(self.quota);
            }
        }
        t.pend[i] = None;
        out.push(t);
    }

    /// Safety properties ("protocol invariants") of one state; returns
    /// the name of the first violated property.
    pub fn check(&self, s: &State) -> Option<&'static str> {
        // A node whose write back / replacement has been accepted by the
        // directory but not yet acknowledged still holds its (logically
        // dead) copy; it no longer counts as a writer.
        let leaving = |i: usize| matches!(s.pend[i], Some(Req::Wb) | Some(Req::Replace));
        let owners = (0..self.nodes)
            .filter(|&i| matches!(s.cache[i], Cache::M | Cache::E) && !leaving(i))
            .count();
        if owners > 1 {
            return Some("single-writer: more than one M/E copy");
        }
        if owners == 1 {
            let sharers = (0..self.nodes)
                .filter(|&i| s.cache[i] == Cache::S && !leaving(i))
                .count();
            if sharers > 0 {
                return Some("single-writer: M/E coexists with S");
            }
        }
        // Directory/presence consistency (the paper's invariant 1),
        // checked in stable states (no transaction in flight and no
        // messages pending — the table invariant talks about the
        // directory between transactions).
        if s.quiescent() {
            match s.dir {
                Dir::I if s.pv != 0 => return Some("dir I with sharers"),
                Dir::Si if s.sharers() < 1 => return Some("dir SI without sharers"),
                Dir::Mesi if s.sharers() != 1 => return Some("dir MESI without exactly one owner"),
                _ => {}
            }
            // Every cached copy is tracked.
            for i in 0..self.nodes {
                if s.cache[i] != Cache::I && !s.in_pv(i) {
                    return Some("cached copy missing from presence vector");
                }
                if matches!(s.cache[i], Cache::M | Cache::E) && s.dir != Dir::Mesi {
                    return Some("owned copy but directory not MESI");
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_has_issue_successors_only() {
        let m = Model {
            nodes: 2,
            quota: 1,
            resp_depth: 2,
        };
        let s = m.initial();
        let succ = m.successors(&s);
        // Each node can issue Read or ReadEx.
        assert_eq!(succ.len(), 4);
        assert!(m.check(&s).is_none());
    }

    #[test]
    fn read_grants_exclusive_when_alone() {
        let m = Model {
            nodes: 2,
            quota: 1,
            resp_depth: 2,
        };
        let mut s = m.initial();
        s.pend[0] = Some(Req::Read);
        s.req[0] = Some(Req::Read);
        s.quota[0] = 0;
        let succ = m.successors(&s);
        let granted = succ
            .iter()
            .find(|t| t.resp[0].contains(&Resp::EData))
            .expect("directory grants");
        assert_eq!(granted.dir, Dir::Mesi);
        assert!(granted.in_pv(0));
    }

    #[test]
    fn violation_detected_on_corrupt_state() {
        let m = Model::default();
        let mut s = m.initial();
        s.cache[0] = Cache::M;
        s.cache[1] = Cache::M;
        assert!(m.check(&s).is_some());
    }

    #[test]
    fn check_is_permutation_invariant_on_corrupt_states() {
        // The quotient construction is only sound if no property can
        // tell orbit members apart; spot-check it on violating states
        // (the sweep over random walks lives in tests/canon.rs).
        let m = Model {
            nodes: 3,
            quota: 2,
            resp_depth: 2,
        };
        let mut s = m.initial();
        s.cache = vec![Cache::M, Cache::S, Cache::I];
        for perm in [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]] {
            assert_eq!(m.check(&s), m.check(&s.permuted(&perm)), "{perm:?}");
        }
    }

    #[test]
    fn validate_bounds_parameters() {
        assert!(Model::default().validate().is_ok());
        let bad = |nodes, quota, resp_depth| {
            Model {
                nodes,
                quota,
                resp_depth,
            }
            .validate()
            .is_err()
        };
        assert!(bad(6, 1, 2));
        assert!(bad(2, 4, 2));
        assert!(bad(2, 1, 4));
        assert!(bad(0, 1, 2));
        assert!(bad(1, 1, 2));
    }

    #[test]
    fn busy_requests_are_retried() {
        let m = Model {
            nodes: 3,
            quota: 1,
            resp_depth: 2,
        };
        let mut s = m.initial();
        s.busy = Some(Busy {
            req: Req::ReadEx,
            requester: 0,
            pending: 1,
        });
        s.pend[1] = Some(Req::Read);
        s.req[1] = Some(Req::Read);
        let succ = m.successors(&s);
        assert!(succ
            .iter()
            .any(|t| t.resp[1].contains(&Resp::Retry) && t.req[1].is_none()));
    }
}
