//! Mapping the debugged table `D` onto hardware (section 5).
//!
//! The implementation splits `D` into a *request controller* and a
//! *response controller* working in parallel over finite queues
//! (`locmsg`, `remmsg`, `memmsg`, `lookup`, `upd`, `request`,
//! `response`), plus a feedback path from the response controller back
//! to the request controller:
//!
//! 1. [`extend_table`] builds the **extended table `ED`** from `D` by
//!    adding the implementation inputs `Qstatus` (any output queue or
//!    the busy directory full?) and `Dqstatus` (directory-update queue
//!    full?), the output `Fdback`, and the implementation-defined
//!    request `Dfdback`:
//!    * a request with `Qstatus = Full` is answered `retry` and has no
//!      other effect;
//!    * a response needing a directory update with `Dqstatus = Full`
//!      defers the update by emitting the feedback request `Dfdback`;
//!    * `Dfdback` rows re-attempt the deferred update.
//! 2. [`partition`] splits `ED` into **nine implementation tables** with
//!    `CREATE TABLE … AS SELECT DISTINCT` — one per output group of the
//!    request and response controllers.
//! 3. [`reconstruct`] joins the nine tables back together and
//!    [`HwMapping::check`] verifies that `ED` is reproduced exactly and
//!    that the original debugged `D` is contained in the mapping —
//!    "to ensure that no errors are introduced in mapping D".

use crate::gen::GeneratedProtocol;
use ccsql_protocol::messages;
use ccsql_relalg::ops;
use ccsql_relalg::{Database, Relation, Schema, Value};

/// Names of the implementation input columns added to `D`.
pub const IMPL_INPUTS: &[&str] = &["Qstatus", "Dqstatus"];

/// The nine implementation tables: (name, request side?, output columns).
pub const IMPL_TABLES: &[(&str, bool, &[&str])] = &[
    (
        "Request_locmsg",
        true,
        &["locmsg", "locmsgsrc", "locmsgdest", "locmsgres", "cmpl"],
    ),
    (
        "Request_remmsg",
        true,
        &["remmsg", "remmsgsrc", "remmsgdest", "remmsgres"],
    ),
    (
        "Request_memmsg",
        true,
        &["memmsg", "memmsgsrc", "memmsgdest", "memmsgres"],
    ),
    (
        "Request_dir",
        true,
        &["dirupd", "nxtdirst", "nxtdirpv", "Fdback"],
    ),
    ("Request_bdir", true, &["bdirupd", "nxtbdirst", "nxtbdirpv"]),
    (
        "Response_locmsg",
        false,
        &["locmsg", "locmsgsrc", "locmsgdest", "locmsgres", "cmpl"],
    ),
    (
        "Response_memmsg",
        false,
        &["memmsg", "memmsgsrc", "memmsgdest", "memmsgres"],
    ),
    (
        "Response_dir",
        false,
        &["dirupd", "nxtdirst", "nxtdirpv", "Fdback"],
    ),
    (
        "Response_bdir",
        false,
        &["bdirupd", "nxtbdirst", "nxtbdirpv"],
    ),
];

/// The complete hardware mapping artifact.
pub struct HwMapping {
    /// The extended table `ED`.
    pub ed: Relation,
    /// The nine implementation tables, in [`IMPL_TABLES`] order.
    pub impl_tables: Vec<(String, Relation)>,
    /// The database holding `D`, `ED` and the implementation tables.
    pub db: Database,
}

/// Output columns of `D` (everything that must be neutralised when a
/// request is bounced with retry).
const OUTPUT_COLS: &[&str] = &[
    "locmsg",
    "locmsgsrc",
    "locmsgdest",
    "locmsgres",
    "remmsg",
    "remmsgsrc",
    "remmsgdest",
    "remmsgres",
    "memmsg",
    "memmsgsrc",
    "memmsgdest",
    "memmsgres",
    "nxtdirst",
    "nxtdirpv",
    "nxtbdirst",
    "nxtbdirpv",
    "dirupd",
    "bdirupd",
    "cmpl",
];

const DIR_UPD_COLS: &[&str] = &["dirupd", "nxtdirst", "nxtdirpv"];

/// Build the extended table `ED` from the debugged `D`.
pub fn extend_table(d: &Relation) -> ccsql_relalg::Result<Relation> {
    let mut cols: Vec<String> = IMPL_INPUTS.iter().map(|s| s.to_string()).collect();
    cols.extend(d.schema().columns().iter().map(|c| c.to_string()));
    cols.push("Fdback".to_string());
    let mut ed = Relation::new(Schema::new(cols)?);

    let ds = d.schema();
    let idx = |name: &str| ds.index_of_str(name).expect("D column");
    let inmsg = idx("inmsg");
    let locmsg = idx("locmsg");
    let locsrc = idx("locmsgsrc");
    let locdest = idx("locmsgdest");
    let locres = idx("locmsgres");
    let cmpl = idx("cmpl");
    let dirupd = idx("dirupd");

    let full = Value::sym("Full");
    let notfull = Value::sym("NotFull");
    let retry = Value::sym("retry");

    let out_row = |q: Value, dq: Value, body: &[Value], fdback: Value, ed: &mut Relation| {
        let mut row = Vec::with_capacity(body.len() + 3);
        row.push(q);
        row.push(dq);
        row.extend_from_slice(body);
        row.push(fdback);
        ed.push_row_unchecked(&row);
    };

    let mut deferred: Vec<Vec<Value>> = Vec::new();
    for r in d.rows() {
        let m = r[inmsg].to_string();
        if messages::is_request(&m) {
            // Qstatus = NotFull: behave exactly as the debugged D.
            out_row(notfull, Value::Null, r, Value::Null, &mut ed);
            // Qstatus = Full: de-queue and answer retry, nothing else.
            let mut bounced = r.to_vec();
            for &c in OUTPUT_COLS {
                bounced[idx(c)] = Value::Null;
            }
            bounced[locmsg] = retry;
            bounced[locsrc] = Value::sym("home");
            bounced[locdest] = Value::sym("local");
            bounced[locres] = Value::sym("rspq");
            bounced[cmpl] = Value::sym("no");
            out_row(full, Value::Null, &bounced, Value::Null, &mut ed);
        } else if r[dirupd].is_null() {
            // Response with no directory update: Dqstatus irrelevant.
            out_row(Value::Null, Value::Null, r, Value::Null, &mut ed);
        } else {
            // Dqstatus = NotFull: original behaviour.
            out_row(Value::Null, notfull, r, Value::Null, &mut ed);
            // Dqstatus = Full: defer the directory update via Dfdback.
            let mut def = r.to_vec();
            for &c in DIR_UPD_COLS {
                def[idx(c)] = Value::Null;
            }
            out_row(Value::Null, full, &def, Value::sym("Dfdback"), &mut ed);
            // Remember the deferred update to synthesise Dfdback rows.
            let mut fd = r.to_vec();
            // The feedback request re-enters the request controller with
            // only the state inputs and the deferred update outputs.
            fd[inmsg] = Value::sym("Dfdback");
            fd[idx("inmsgsrc")] = Value::sym("home");
            fd[idx("inmsgdest")] = Value::sym("home");
            fd[idx("inmsgres")] = Value::sym("reqq");
            for &c in OUTPUT_COLS {
                if !DIR_UPD_COLS.contains(&c) {
                    fd[idx(c)] = Value::Null;
                }
            }
            fd[cmpl] = Value::sym("no");
            deferred.push(fd);
        }
    }
    // Dfdback rows: the deferred update applies when the update queue
    // has drained; if it is still full the feedback request circulates.
    for fd in deferred {
        out_row(notfull, Value::Null, &fd, Value::Null, &mut ed);
        let mut spin = fd.clone();
        for &c in DIR_UPD_COLS {
            spin[idx(c)] = Value::Null;
        }
        out_row(full, Value::Null, &spin, Value::sym("Dfdback"), &mut ed);
    }
    Ok(ed.distinct())
}

/// Partition `ED` into the nine implementation tables using
/// `CREATE TABLE … AS SELECT DISTINCT` (the paper's exact mechanism).
pub fn partition(db: &mut Database) -> ccsql_relalg::Result<Vec<(String, Relation)>> {
    let input_cols = {
        let ed = db.table("ED")?;
        let n_inputs = IMPL_INPUTS.len() + 11; // impl inputs + D's 11 inputs
        ed.schema().columns()[..n_inputs]
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
    };
    let mut out = Vec::with_capacity(IMPL_TABLES.len());
    for (name, is_request, outputs) in IMPL_TABLES {
        let pred = if *is_request {
            "isrequest(inmsg)"
        } else {
            "isresponse(inmsg)"
        };
        let cols = input_cols
            .iter()
            .map(|s| s.as_str())
            .chain(outputs.iter().copied())
            .collect::<Vec<_>>()
            .join(", ");
        let sql = format!("create table {name} as select distinct {cols} from ED where {pred}");
        let rel = db.query(&sql)?;
        out.push((name.to_string(), rel));
    }
    Ok(out)
}

/// Reconstruct `ED` from the nine implementation tables by joining each
/// side on the input columns and unioning the two sides.
pub fn reconstruct(db: &Database) -> ccsql_relalg::Result<Relation> {
    let ed = db.table("ED")?;
    let input_cols: Vec<String> = {
        let n_inputs = IMPL_INPUTS.len() + 11;
        ed.schema().columns()[..n_inputs]
            .iter()
            .map(|c| c.to_string())
            .collect()
    };
    let ed_cols: Vec<&str> = ed.schema().columns().iter().map(|c| c.as_str()).collect();

    let side = |is_request: bool| -> ccsql_relalg::Result<Relation> {
        let mut joined: Option<Relation> = None;
        for (name, req, _) in IMPL_TABLES {
            if *req != is_request {
                continue;
            }
            let t = db.table(name)?;
            joined = Some(match joined {
                None => t.clone(),
                Some(acc) => {
                    let on: Vec<(&str, &str)> = input_cols
                        .iter()
                        .map(|c| (c.as_str(), c.as_str()))
                        .collect();
                    let j = ops::equi_join(&acc, t, &on, "r")?;
                    // Drop the duplicated right-side key columns.
                    let keep: Vec<&str> = j
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| c.as_str())
                        .filter(|c| !c.starts_with("r."))
                        .collect();
                    ops::project_str(&j, &keep)?
                }
            });
        }
        let mut rel = joined.expect("at least one table per side");
        // The request side lacks the Fdback column (always NULL for
        // requests except the synthesised spin rows — those carry
        // Fdback on the response side only in our grouping); the
        // response side lacks the remmsg group (responses never snoop).
        // Add the missing columns as NULL so both sides have ED's shape.
        for col in &ed_cols {
            if rel.schema().index_of_str(col).is_none() {
                let mut cols: Vec<String> = rel
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| c.to_string())
                    .collect();
                cols.push(col.to_string());
                let mut wider = Relation::new(Schema::new(cols)?);
                for r in rel.rows() {
                    let mut row = r.to_vec();
                    row.push(Value::Null);
                    wider.push_row_unchecked(&row);
                }
                rel = wider;
            }
        }
        ops::project_str(&rel, &ed_cols)
    };

    let req = side(true)?;
    let rsp = side(false)?;
    Ok(ops::union(&req, &rsp)?.distinct())
}

impl HwMapping {
    /// Run the full mapping flow on a generated protocol.
    pub fn build(gen: &GeneratedProtocol) -> ccsql_relalg::Result<HwMapping> {
        let d = gen.table("D")?.clone();
        let ed = extend_table(&d)?;
        let mut db = Database::with_sets(GeneratedProtocol::context());
        db.put_table("D", d);
        db.put_table("ED", ed.clone());
        let impl_tables = partition(&mut db)?;
        Ok(HwMapping {
            ed,
            impl_tables,
            db,
        })
    }

    /// The reconstruction check: `ED` must be exactly reproducible from
    /// the nine implementation tables, and the original debugged `D`
    /// must be contained in the mapping (its behaviour at
    /// `Qstatus = NotFull` / `Dqstatus = NotFull`).
    pub fn check(&self, original_d: &Relation) -> ccsql_relalg::Result<HwCheck> {
        let rebuilt = reconstruct(&self.db)?;
        let ed_ok = rebuilt.set_eq(&self.ed);

        // Project the unconstrained-resource slice of ED back to D shape.
        let d_cols: Vec<&str> = original_d
            .schema()
            .columns()
            .iter()
            .map(|c| c.as_str())
            .collect();
        let mut sliced = Relation::new(original_d.schema().clone());
        let es = self.ed.schema();
        let q = es.index_of_str("Qstatus").unwrap();
        let dq = es.index_of_str("Dqstatus").unwrap();
        let inmsg = es.index_of_str("inmsg").unwrap();
        let proj: Vec<usize> = d_cols.iter().map(|c| es.index_of_str(c).unwrap()).collect();
        for r in self.ed.rows() {
            if r[inmsg] == Value::sym("Dfdback") {
                continue;
            }
            let unconstrained = (r[q] == Value::sym("NotFull")
                || (r[q].is_null() && r[dq] != Value::sym("Full")))
                && r[dq] != Value::sym("Full");
            if unconstrained {
                let row: Vec<Value> = proj.iter().map(|&i| r[i]).collect();
                sliced.push_row_unchecked(&row);
            }
        }
        let d_ok = original_d.subset_of(&sliced) && sliced.subset_of(original_d);
        Ok(HwCheck {
            ed_reconstructed: ed_ok,
            d_preserved: d_ok,
        })
    }
}

/// Result of the mapping-preservation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwCheck {
    /// `ED` is exactly reproducible from the implementation tables.
    pub ed_reconstructed: bool,
    /// The original debugged `D` is contained in the mapping.
    pub d_preserved: bool,
}

impl HwCheck {
    /// Both checks passed.
    pub fn ok(self) -> bool {
        self.ed_reconstructed && self.d_preserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn generated() -> &'static GeneratedProtocol {
        static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
        GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
    }

    #[test]
    fn ed_extends_d() {
        let g = generated();
        let d = g.table("D").unwrap();
        let ed = extend_table(d).unwrap();
        // 33 columns: Qstatus, Dqstatus + 30 + Fdback.
        assert_eq!(ed.arity(), 33);
        // Every request row doubles (Full/NotFull); responses with
        // updates triple (NotFull, Full, + Dfdback pair later).
        assert!(ed.len() > d.len());
        // Dfdback appears as an implementation-defined request.
        let inmsg = ed.schema().index_of_str("inmsg").unwrap();
        assert!(ed.rows().any(|r| r[inmsg] == Value::sym("Dfdback")));
    }

    #[test]
    fn full_queue_requests_retry() {
        let g = generated();
        let ed = extend_table(g.table("D").unwrap()).unwrap();
        let s = ed.schema();
        let q = s.index_of_str("Qstatus").unwrap();
        let inmsg = s.index_of_str("inmsg").unwrap();
        let locmsg = s.index_of_str("locmsg").unwrap();
        let remmsg = s.index_of_str("remmsg").unwrap();
        for r in ed.rows() {
            if r[q] == Value::sym("Full") && r[inmsg] != Value::sym("Dfdback") {
                assert_eq!(r[locmsg], Value::sym("retry"));
                assert_eq!(r[remmsg], Value::Null);
            }
        }
    }

    #[test]
    fn nine_implementation_tables() {
        let g = generated();
        let m = HwMapping::build(g).unwrap();
        assert_eq!(m.impl_tables.len(), 9);
        for (name, rel) in &m.impl_tables {
            assert!(!rel.is_empty(), "{name} empty");
        }
    }

    #[test]
    fn reconstruction_and_preservation_hold() {
        let g = generated();
        let m = HwMapping::build(g).unwrap();
        let check = m.check(g.table("D").unwrap()).unwrap();
        assert!(check.ed_reconstructed, "ED not reconstructible");
        assert!(check.d_preserved, "debugged D not preserved");
        assert!(check.ok());
    }

    #[test]
    fn corrupted_mapping_fails_check() {
        let g = generated();
        let mut m = HwMapping::build(g).unwrap();
        // Corrupt one implementation table: drop a row.
        let (name, rel) = m.impl_tables[0].clone();
        let mut smaller = Relation::new(rel.schema().clone());
        for r in rel.rows().skip(1) {
            smaller.push_row(r).unwrap();
        }
        m.db.put_table(&name, smaller.clone());
        m.impl_tables[0] = (name, smaller);
        let check = m.check(g.table("D").unwrap()).unwrap();
        assert!(!check.ed_reconstructed);
    }
}
