//! The protocol invariant suite (section 4.3).
//!
//! Every invariant is an SQL query over the generated controller tables
//! that must return the **empty set**; a non-empty result is a violation
//! and the offending rows are the witness. "All of the protocol
//! invariants (around 50) are checked … within 5 minutes" — here the
//! whole suite runs in milliseconds, but the *shape* (invariant checking
//! ≪ table generation) shows in the benchmark's per-layer times.
//!
//! The three invariants quoted in the paper appear verbatim-adapted:
//! directory/presence-vector consistency, directory vs busy-directory
//! mutual exclusion, and request serialisation (retry on busy +
//! dealloc only on completion). The rest of the suite covers the same
//! table properties for every controller, plus cross-controller message
//! compatibility.

use ccsql_relalg::{Database, Relation};

/// One declarative invariant.
pub struct Invariant {
    /// Short identifier, e.g. `"D-dirpv-consistency"`.
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// The SQL whose result must be empty.
    pub sql: String,
}

impl Invariant {
    fn new(name: &'static str, description: &'static str, sql: impl Into<String>) -> Invariant {
        Invariant {
            name,
            description,
            sql: sql.into(),
        }
    }
}

/// Result of checking one invariant.
pub struct InvariantResult {
    /// The invariant's name.
    pub name: &'static str,
    /// The violating rows (empty ⇒ the invariant holds).
    pub witnesses: Relation,
}

impl InvariantResult {
    /// Did the invariant hold?
    pub fn holds(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// The full invariant suite over the 8 controller tables.
#[allow(clippy::vec_init_then_push)]
pub fn all_invariants() -> Vec<Invariant> {
    let mut inv = Vec::new();

    // ===================== Directory controller D =====================
    // (1) The paper's first invariant: directory state / presence vector
    // consistency. Split into its three clauses (the conjunction in the
    // paper's SQL is a typo — each clause must independently be empty).
    inv.push(Invariant::new(
        "D-pv-mesi",
        "MESI directory entries have exactly one owner",
        r#"select dirst, dirpv from D where dirst = "MESI" and not dirpv = "one""#,
    ));
    inv.push(Invariant::new(
        "D-pv-si",
        "SI directory entries have one or more sharers",
        r#"select dirst, dirpv from D where dirst = "SI" and not dirpv = "one" and not dirpv = "gone""#,
    ));
    inv.push(Invariant::new(
        "D-pv-i",
        "invalid directory entries have no sharers",
        r#"select dirst, dirpv from D where dirst = "I" and not dirpv = "zero""#,
    ));
    // (2) The paper's mutual-exclusion invariant, verbatim.
    inv.push(Invariant::new(
        "D-dir-bdir-exclusive",
        "a line is in the busy directory or the directory but not both",
        r#"select dirst, bdirst from D where not dirst = "I" and not bdirst = "I""#,
    ));
    // (3) Request serialisation, part 1: retry whenever the line is busy.
    inv.push(Invariant::new(
        "D-retry-on-busy",
        "a request is issued a retry response whenever a line is in the busy directory",
        r#"select inmsg, bdirst, locmsg from D where isrequest(inmsg) and not bdirst = "I" and not locmsg = "retry""#,
    ));
    // (3) part 2: a busy entry is deallocated only when the transaction
    // completes (D receives or sends a completion response).
    inv.push(Invariant::new(
        "D-dealloc-on-compl",
        "a busy directory entry is de-allocated only when a transaction completes",
        r#"select inmsg, bdirst, nxtbdirst, locmsg from D where not iscompletion(inmsg) and not iscompletion(locmsg) and not bdirst = "I" and nxtbdirst = "I""#,
    ));
    // Lookup-result consistency.
    inv.push(Invariant::new(
        "D-dirlk-consistent",
        "directory lookup hits iff the entry exists",
        r#"select dirst, dirlk from D where (dirst = "I" and dirlk = "hit") or (not dirst = "I" and dirlk = "miss")"#,
    ));
    inv.push(Invariant::new(
        "D-bdirlk-consistent",
        "busy directory lookup hits iff the entry exists",
        r#"select bdirst, bdirlk from D where (bdirst = "I" and bdirlk = "hit") or (not bdirst = "I" and bdirlk = "miss")"#,
    ));
    // Retry purity: a retried request has no side effects.
    inv.push(Invariant::new(
        "D-retry-pure",
        "retried requests have no side effects (no snoop, no memory op, no structure update, no completion)",
        r#"select locmsg, remmsg, memmsg, dirupd, bdirupd, cmpl from D where locmsg = "retry" and (not remmsg = NULL or not memmsg = NULL or not dirupd = NULL or not bdirupd = NULL or cmpl = "yes")"#,
    ));
    // Message-column triple consistency for all three output messages.
    for (m, src, dest, res) in [
        ("locmsg", "locmsgsrc", "locmsgdest", "locmsgres"),
        ("remmsg", "remmsgsrc", "remmsgdest", "remmsgres"),
        ("memmsg", "memmsgsrc", "memmsgdest", "memmsgres"),
    ] {
        inv.push(Invariant::new(
            match m {
                "locmsg" => "D-locmsg-triple",
                "remmsg" => "D-remmsg-triple",
                _ => "D-memmsg-triple",
            },
            "a message column and its src/dest/res columns are NULL together",
            format!(
                "select {m}, {src}, {dest}, {res} from D where \
                 ({m} = NULL and (not {src} = NULL or not {dest} = NULL or not {res} = NULL)) \
                 or (not {m} = NULL and ({src} = NULL or {dest} = NULL or {res} = NULL))"
            ),
        ));
    }
    // Structure-update semantics.
    inv.push(Invariant::new(
        "D-bdir-alloc",
        "busy allocation starts from an idle busy entry and names a busy state",
        r#"select bdirupd, bdirst, nxtbdirst from D where bdirupd = "alloc" and (not bdirst = "I" or nxtbdirst = "I" or nxtbdirst = NULL)"#,
    ));
    inv.push(Invariant::new(
        "D-bdir-dealloc",
        "busy deallocation ends in the idle busy state",
        r#"select bdirupd, nxtbdirst from D where bdirupd = "dealloc" and not nxtbdirst = "I""#,
    ));
    inv.push(Invariant::new(
        "D-dir-dealloc",
        "directory deallocation ends in the invalid directory state",
        r#"select dirupd, nxtdirst from D where dirupd = "dealloc" and not nxtdirst = "I""#,
    ));
    inv.push(Invariant::new(
        "D-dir-alloc",
        "directory allocation installs a real state",
        r#"select dirupd, nxtdirst from D where dirupd = "alloc" and (nxtdirst = "I" or nxtdirst = NULL)"#,
    ));
    inv.push(Invariant::new(
        "D-nxtbdirst-needs-upd",
        "busy state changes are accompanied by a busy directory update",
        r#"select nxtbdirst, bdirupd from D where not nxtbdirst = NULL and bdirupd = NULL"#,
    ));
    inv.push(Invariant::new(
        "D-nxtdirst-needs-upd",
        "directory state changes are accompanied by a directory update",
        r#"select nxtdirst, dirupd from D where not nxtdirst = NULL and dirupd = NULL"#,
    ));
    // Completion semantics.
    inv.push(Invariant::new(
        "D-cmpl-frees-busy",
        "a completing transition leaves no busy entry behind",
        r#"select cmpl, bdirst, nxtbdirst from D where cmpl = "yes" and not bdirst = "I" and not nxtbdirst = "I""#,
    ));
    inv.push(Invariant::new(
        "D-cmpl-response",
        "a completing transition answers the requester or consumes a completion",
        r#"select cmpl, locmsg, inmsg from D where cmpl = "yes" and locmsg = NULL and not iscompletion(inmsg)"#,
    ));
    // Input-side sanity.
    inv.push(Invariant::new(
        "D-requests-from-local",
        "requests reach the directory from the local node",
        r#"select inmsg, inmsgsrc from D where isrequest(inmsg) and not inmsgsrc = "local""#,
    ));
    inv.push(Invariant::new(
        "D-responses-not-local",
        "responses reach the directory from home or remote",
        r#"select inmsg, inmsgsrc from D where isresponse(inmsg) and inmsgsrc = "local""#,
    ));
    inv.push(Invariant::new(
        "D-requests-on-reqq",
        "requests arrive on the request queue",
        r#"select inmsg, inmsgres from D where isrequest(inmsg) and not inmsgres = "reqq""#,
    ));
    inv.push(Invariant::new(
        "D-responses-on-rspq",
        "responses arrive on the response queue",
        r#"select inmsg, inmsgres from D where isresponse(inmsg) and not inmsgres = "rspq""#,
    ));
    inv.push(Invariant::new(
        "D-responses-never-retried",
        "responses are never answered with retry",
        r#"select inmsg, locmsg from D where isresponse(inmsg) and locmsg = "retry""#,
    ));
    inv.push(Invariant::new(
        "D-responses-need-busy",
        "responses are consumed only while a transaction is in flight",
        r#"select inmsg, bdirst from D where isresponse(inmsg) and bdirst = "I""#,
    ));
    inv.push(Invariant::new(
        "D-snoop-only-on-request",
        "snoops are generated only while processing requests",
        r#"select inmsg, remmsg from D where remmsg in ("sinv", "sread", "sflush", "srdex") and not isrequest(inmsg) and not inmsg = "idone""#,
    ));
    inv.push(Invariant::new(
        "D-outputs-are-messages",
        "the directory's local responses are catalogued responses",
        r#"select locmsg from D where not locmsg = NULL and not isresponse(locmsg)"#,
    ));
    inv.push(Invariant::new(
        "D-remmsg-are-requests",
        "the directory's snoops are catalogued requests",
        r#"select remmsg from D where not remmsg = NULL and not isrequest(remmsg)"#,
    ));
    inv.push(Invariant::new(
        "D-busy-pv-null-only-retry",
        "the busy presence vector is a don't-care only on retried requests",
        r#"select inmsg, bdirpv, locmsg from D where bdirpv = NULL and not locmsg = "retry""#,
    ));

    // ====================== Memory controller M ======================
    inv.push(Invariant::new(
        "M-mread-data",
        "memory answers mread with data",
        r#"select inmsg, outmsg from M where inmsg = "mread" and not outmsg = "data""#,
    ));
    inv.push(Invariant::new(
        "M-wb-compl",
        "memory answers a forwarded write back with compl (Figure 4, row R1)",
        r#"select inmsg, outmsg from M where inmsg = "wb" and not outmsg = "compl""#,
    ));
    inv.push(Invariant::new(
        "M-mwrite-mcompl",
        "memory answers mwrite with mcompl",
        r#"select inmsg, outmsg from M where inmsg = "mwrite" and not outmsg = "mcompl""#,
    ));
    inv.push(Invariant::new(
        "M-responses-are-responses",
        "memory outputs are catalogued responses",
        r#"select outmsg from M where not outmsg = NULL and not isresponse(outmsg)"#,
    ));
    inv.push(Invariant::new(
        "M-home-only",
        "memory talks only to home-side controllers",
        r#"select outmsgdest from M where not outmsgdest = NULL and not outmsgdest = "home""#,
    ));

    // ======================== Node controller N ======================
    inv.push(Invariant::new(
        "N-requests-out",
        "node outputs are catalogued requests to home",
        r#"select outmsg, outmsgdest from N where not outmsg = NULL and (not isrequest(outmsg) or not outmsgdest = "home")"#,
    ));
    inv.push(Invariant::new(
        "N-wait-has-request",
        "a stalled processor op has sent a request",
        r#"select inmsg, cpures, outmsg from N where cpures = "wait" and outmsg = NULL and inmsg in (cpu_read, cpu_write, cpu_evict, cpu_flush, cpu_ioread, cpu_iowrite)"#,
    ));
    inv.push(Invariant::new(
        "N-retry-redo",
        "a retry response forces the processor to re-issue",
        r#"select inmsg, cpures from N where inmsg = "retry" and not cpures = "redo""#,
    ));
    inv.push(Invariant::new(
        "N-done-clears-pending",
        "a completed miss clears the pending state",
        r#"select inmsg, nxtpendst from N where (inmsg in (edata, compl, wbcompl, iodata, iocompl, ack) or (inmsg = data and pendst = "p_read")) and not nxtpendst = "none""#,
    ));
    inv.push(Invariant::new(
        "N-no-request-while-pending",
        "at most one outstanding transaction per node (single pending slot)",
        r#"select pendst, outmsg from N where not pendst = "none" and not outmsg = NULL"#,
    ));

    // ========================= RAC controller R ======================
    inv.push(Invariant::new(
        "R-snoops-answered",
        "every snoop is answered",
        r#"select inmsg, rspmsg from R where rspmsg = NULL"#,
    ));
    inv.push(Invariant::new(
        "R-sinv-invalidates",
        "an invalidation leaves the line invalid",
        r#"select inmsg, nxtlinest from R where inmsg = "sinv" and not nxtlinest = "I""#,
    ));
    inv.push(Invariant::new(
        "R-sinv-idone",
        "invalidations are acknowledged with idone (Figure 4)",
        r#"select inmsg, rspmsg from R where inmsg = "sinv" and not rspmsg = "idone""#,
    ));
    inv.push(Invariant::new(
        "R-sflush-cleans",
        "a flush snoop leaves the line invalid",
        r#"select inmsg, nxtlinest from R where inmsg = "sflush" and not nxtlinest = "I""#,
    ));
    inv.push(Invariant::new(
        "R-dirty-data-travels",
        "snooping a modified line yields data or a flush",
        r#"select inmsg, linest, rspmsg from R where linest = "M" and not rspmsg in (sdata, fdone, xferdone, idone)"#,
    ));
    inv.push(Invariant::new(
        "R-responses-to-home",
        "snoop responses go to the home directory",
        r#"select rspmsgdest from R where not rspmsgdest = NULL and not rspmsgdest = "home""#,
    ));

    // ======================== Cache controller C =====================
    inv.push(Invariant::new(
        "C-businv-invalidates",
        "a bus invalidation leaves the cache line invalid",
        r#"select op, nxtst from C where op = "bus_inv" and not nxtst = "I""#,
    ));
    inv.push(Invariant::new(
        "C-m-flushes",
        "a modified line hit by a foreign exclusive op flushes",
        r#"select op, st, action from C where st = "M" and op in (bus_rdx, bus_inv) and not action = "flush""#,
    ));
    inv.push(Invariant::new(
        "C-no-m-from-bus",
        "bus operations never install modified state",
        r#"select op, nxtst from C where op in (bus_rd, bus_rdx, bus_inv) and nxtst = "M""#,
    ));
    inv.push(Invariant::new(
        "C-write-gets-m",
        "a processor write ends in modified state",
        r#"select op, st, nxtst from C where op = "pwr" and not st = "M" and not nxtst = "M""#,
    ));

    // ========================= IO controller =========================
    inv.push(Invariant::new(
        "IO-owned-retries",
        "I/O operations against an owned device are retried",
        r#"select inmsg, iost, outmsg from IO where iost = "owned" and inmsg in (ioread, iowrite, iordex) and not outmsg = "retry""#,
    ));
    inv.push(Invariant::new(
        "IO-always-answers",
        "every I/O operation is answered",
        r#"select inmsg, outmsg from IO where outmsg = NULL"#,
    ));

    // ========================= Link controller =======================
    inv.push(Invariant::new(
        "L-no-forward-without-credit",
        "a flit is forwarded only when a downstream credit exists",
        r#"select bufst, credit, action from L where credit = "none" and bufst = "held" and action = "forward""#,
    ));
    inv.push(Invariant::new(
        "L-credit-conservation",
        "forwarding consumes exactly one credit",
        r#"select action, credupd from L where action = "forward" and not credupd = "dec""#,
    ));

    // ==================== Cross-controller coupling ===================
    // "The invariants involving other controllers and interactions of
    // controllers are similarly easily written in SQL."
    inv.push(Invariant::new(
        "X-snoops-consumable",
        "every snoop the directory sends is handled by the RAC",
        r#"select distinct remmsg from D where not remmsg = NULL and not remmsg in (sinv, sread, sflush, srdex, sfetch)"#,
    ));
    inv.push(Invariant::new(
        "X-memops-consumable",
        "every memory operation the directory sends is handled by memory",
        r#"select distinct memmsg from D where not memmsg = NULL and not memmsg in (mread, mwrite, wb, ioread, iowrite, mupd, mflush)"#,
    ));
    inv.push(Invariant::new(
        "X-locmsg-consumable",
        "every response the directory sends is consumed by the node controller",
        r#"select distinct locmsg from D where not locmsg = NULL and not locmsg in (data, edata, compl, retry, wbcompl, iodata, iocompl, ack, swapdata)"#,
    ));
    inv.push(Invariant::new(
        "X-rac-responses-consumable",
        "every RAC response is consumed by the directory",
        r#"select distinct rspmsg from R where not rspmsg = NULL and not rspmsg in (idone, sdata, fdone, sdone, xferdone)"#,
    ));
    inv.push(Invariant::new(
        "X-mem-responses-consumable",
        "every memory response is consumed by the directory",
        r#"select distinct outmsg from M where not outmsg = NULL and not outmsg in (data, mcompl, compl, iodata, iocompl, ack)"#,
    ));
    inv.push(Invariant::new(
        "X-node-requests-consumable",
        "every node request is handled by the directory",
        r#"select distinct outmsg from N where not outmsg = NULL and not outmsg in (read, readex, upgrade, wb, wbinv, flush, fetch, swap, replace, ioread, iowrite)"#,
    ));

    inv
}

/// Check every invariant against the database; returns one result per
/// invariant, in suite order.
pub fn check_all(db: &mut Database) -> ccsql_relalg::Result<Vec<InvariantResult>> {
    let invariants = all_invariants();
    let mut out = Vec::with_capacity(invariants.len());
    for inv in &invariants {
        let witnesses = db.check_empty(&inv.sql)?;
        out.push(InvariantResult {
            name: inv.name,
            witnesses,
        });
    }
    Ok(out)
}

/// Names of invariants that failed.
pub fn failures(results: &[InvariantResult]) -> Vec<&'static str> {
    results
        .iter()
        .filter(|r| !r.holds())
        .map(|r| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GeneratedProtocol;

    #[test]
    fn about_fifty_invariants() {
        // "All of the protocol invariants (around 50)…"
        let n = all_invariants().len();
        assert!((50..=60).contains(&n), "suite has {n} invariants");
    }

    #[test]
    fn debugged_tables_satisfy_all_invariants() {
        let mut g = GeneratedProtocol::generate_default().unwrap();
        let results = check_all(&mut g.db).unwrap();
        let bad = failures(&results);
        assert!(bad.is_empty(), "violated: {bad:?}");
    }

    #[test]
    fn a_seeded_bug_is_caught_with_witnesses() {
        use ccsql_relalg::Value;
        let mut g = GeneratedProtocol::generate_default().unwrap();
        // Seed the classic bug: a MESI entry with more than one owner.
        let d = g.db.table("D").unwrap();
        let schema = d.schema();
        let mut row: Vec<Value> = d.row(0).to_vec();
        row[schema.index_of_str("dirst").unwrap()] = Value::sym("MESI");
        row[schema.index_of_str("dirpv").unwrap()] = Value::sym("gone");
        let mut d2 = d.clone();
        d2.push_row(&row).unwrap();
        g.db.put_table("D", d2);

        let results = check_all(&mut g.db).unwrap();
        let bad = failures(&results);
        assert!(bad.contains(&"D-pv-mesi"), "got {bad:?}");
        let r = results.iter().find(|r| r.name == "D-pv-mesi").unwrap();
        assert_eq!(r.witnesses.len(), 1);
        assert_eq!(r.witnesses.row(0)[1], Value::sym("gone"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all_invariants().iter().map(|i| i.name).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
