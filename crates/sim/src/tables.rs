//! Table-driven execution support: the generated controller tables,
//! decoded once into typed rows.
//!
//! This is the point of the paper's flow where "code is automatically
//! generated from these tables": the simulator executes the *debugged
//! tables themselves* — every controller decision is a row lookup, and a
//! missing row is a specification hole surfaced as an error.
//!
//! [`Tables::decode`] reads D, N, R and M once per simulator. Each row
//! becomes a typed struct: an output message or state is an
//! `Option<Sym>` (`NULL` is `None`), an operation column a small enum
//! whose `Keep` variant stands for `NULL` and any value the engine does
//! not act on, and a message property the engine branches on (does
//! this response carry data, is the snoop an invalidation) a flag. The
//! rows stay in the relation's order, so a row id is the relation's row
//! index, and a hash index over each table's key columns finds them.
//! The engine then compares interned symbols against [`Vocab`] and
//! never resolves a column or a word by name while it steps.

use crate::engine::CPU_OPS;
use ccsql::gen::GeneratedProtocol;
use ccsql_obs::hash::{FxHashMap, FxHashSet};
use ccsql_protocol::messages::{MsgKind, MESSAGES};
use ccsql_relalg::{Relation, Sym, Value};
use std::sync::OnceLock;

macro_rules! vocab {
    ($($field:ident = $word:literal,)*) => {
        /// The words the engine's step code compares against, interned
        /// once per process, plus the node-table input of each processor
        /// operation and the request class of every catalogue message.
        pub(crate) struct Vocab {
            $(
                #[doc = concat!("`", $word, "`")]
                pub $field: Sym,
            )*
            /// The node-table input message of each processor operation,
            /// indexed like [`CPU_OPS`].
            pub cpu: [Sym; CPU_OPS.len()],
            /// The catalogue's requests.
            pub requests: FxHashSet<Sym>,
        }

        impl Vocab {
            fn intern() -> Vocab {
                Vocab {
                    $($field: Sym::intern($word),)*
                    cpu: CPU_OPS.map(|op| Sym::intern(op.inmsg())),
                    requests: MESSAGES
                        .iter()
                        .filter(|m| m.kind == MsgKind::Request)
                        .map(|m| Sym::intern(m.name))
                        .collect(),
                }
            }
        }
    };
}

vocab! {
    i = "I",
    s = "S",
    e = "E",
    m = "M",
    none = "none",
    p_read = "p_read",
    p_write = "p_write",
    p_io = "p_io",
    p_flush = "p_flush",
    zero = "zero",
    one = "one",
    gone = "gone",
    wb = "wb",
    mread = "mread",
    mwrite = "mwrite",
}

impl Vocab {
    /// The `zero`/`one`/`gone` encoding of a count.
    pub(crate) fn count_encoding(&self, n: u32) -> Sym {
        match n {
            0 => self.zero,
            1 => self.one,
            _ => self.gone,
        }
    }
}

/// The process's vocabulary.
pub(crate) fn vocab() -> &'static Vocab {
    static VOCAB: OnceLock<Vocab> = OnceLock::new();
    VOCAB.get_or_init(Vocab::intern)
}

/// The word in a cell, `None` for `NULL`.
fn word(cell: Value) -> Option<&'static str> {
    cell.as_sym().map(Sym::as_str)
}

/// A presence-vector operation (`nxtdirpv`, `nxtbdirpv`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PvOp {
    Inc,
    Dec,
    Repl,
    Drepl,
    /// `NULL` or any other value: the vector stays as it is.
    Keep,
}

impl PvOp {
    fn decode(cell: Value) -> PvOp {
        match word(cell) {
            Some("inc") => PvOp::Inc,
            Some("dec") => PvOp::Dec,
            Some("repl") => PvOp::Repl,
            Some("drepl") => PvOp::Drepl,
            _ => PvOp::Keep,
        }
    }
}

/// A directory or busy-directory entry update (`dirupd`, `bdirupd`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Upd {
    Alloc,
    Write,
    Dealloc,
    /// `NULL` or any other value: no update.
    Keep,
}

impl Upd {
    fn decode(cell: Value) -> Upd {
        match word(cell) {
            Some("alloc") => Upd::Alloc,
            Some("write") => Upd::Write,
            Some("dealloc") => Upd::Dealloc,
            _ => Upd::Keep,
        }
    }
}

/// The processor response of a node row (`cpures`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CpuRes {
    Done,
    Redo,
    /// Any other value: no bookkeeping.
    Other,
}

/// The response a node row consumes, as its completion check sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RspKind {
    /// `data` or `edata`.
    Data,
    IoData,
    IoCompl,
    Other,
}

/// Which of a quad's stores a memory message reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Store {
    Mem,
    Io,
    Neither,
}

/// What issuing a node row's request does besides sending it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum IssueKind {
    /// `wb`: carries the cached line.
    Writeback,
    /// `iowrite`: carries a fresh version.
    IoWrite,
    /// `readex`, `upgrade`: will install a fresh version.
    Versioned,
    Plain,
}

/// A directory (`D`) row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DRow {
    pub locmsg: Option<Sym>,
    pub remmsg: Option<Sym>,
    pub memmsg: Option<Sym>,
    pub nxtdirst: Option<Sym>,
    pub nxtdirpv: PvOp,
    pub nxtbdirst: Option<Sym>,
    pub nxtbdirpv: PvOp,
    pub dirupd: Upd,
    pub bdirupd: Upd,
    /// `cmpl = yes`.
    pub cmpl: bool,
    /// `locmsg = retry`: answered to the sender, not the requester.
    pub loc_retry: bool,
    /// `locmsg` forwards the incoming payload.
    pub loc_payload: bool,
    /// `memmsg` forwards the incoming payload.
    pub mem_payload: bool,
    /// `inmsg = upgrade`: the requester keeps its copy and is not
    /// snooped.
    pub upgrade: bool,
}

/// A node (`N`) row: a processor operation issued, or a response
/// consumed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NRow {
    pub outmsg: Option<Sym>,
    pub issue: IssueKind,
    pub nxtcachest: Option<Sym>,
    pub nxtpendst: Option<Sym>,
    /// `None` when the cell is `NULL`.
    pub cpures: Option<CpuRes>,
    pub rsp: RspKind,
}

/// A remote-access-cache (`R`) row: a snoop answered.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RRow {
    pub rspmsg: Option<Sym>,
    /// `rspmsg` carries the cached line.
    pub rsp_payload: bool,
    pub nxtlinest: Option<Sym>,
    /// `inmsg = sinv`.
    pub sinv: bool,
    /// `linest = M`.
    pub modified: bool,
}

/// A home-memory (`M`) row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MRow {
    pub outmsg: Option<Sym>,
    /// The store `outmsg` returns data from.
    pub reads: Store,
    /// The store the incoming message writes its payload to.
    pub writes: Store,
}

/// One decoded controller table: rows in the relation's order and a
/// hash index from the key columns' values to a row id.
pub(crate) struct Table<R, const K: usize> {
    rows: Vec<R>,
    index: FxHashMap<[Value; K], usize>,
}

impl<R, const K: usize> Table<R, K> {
    /// Decode `rel` with `row` over `K` key columns; errors if a key
    /// column is missing or a key combination repeats (the controller
    /// table would be nondeterministic).
    fn decode(
        rel: &Relation,
        keys: [&str; K],
        row: impl Fn(&[Value]) -> R,
    ) -> Result<Table<R, K>, String> {
        let key_cols = columns(rel, keys)?;
        let mut index = FxHashMap::with_capacity_and_hasher(rel.len(), Default::default());
        let mut rows = Vec::with_capacity(rel.len());
        for (i, r) in rel.rows().enumerate() {
            let key = key_cols.map(|c| r[c]);
            if let Some(prev) = index.insert(key, i) {
                return Err(format!(
                    "nondeterministic table: rows {prev} and {i} share key {key:?}"
                ));
            }
            rows.push(row(r));
        }
        Ok(Table { rows, index })
    }

    /// The row id and row for `key`, if present.
    pub(crate) fn lookup(&self, key: &[Value; K]) -> Option<(usize, &R)> {
        self.index.get(key).map(|&i| (i, &self.rows[i]))
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Positions of `names` in `rel`'s schema.
fn columns<const N: usize>(rel: &Relation, names: [&str; N]) -> Result<[usize; N], String> {
    let mut out = [0; N];
    for (slot, name) in out.iter_mut().zip(names) {
        *slot = rel
            .schema()
            .index_of_str(name)
            .ok_or_else(|| format!("no column {name}"))?;
    }
    Ok(out)
}

/// The four tables the engine executes.
pub(crate) struct Tables {
    pub d: Table<DRow, 5>,
    pub n: Table<NRow, 3>,
    pub r: Table<RRow, 2>,
    pub m: Table<MRow, 1>,
}

impl Tables {
    /// Decode D, N, R and M of `gen`. Panics when a table is missing,
    /// lacks a column the engine reads or repeats a key.
    pub(crate) fn decode(gen: &GeneratedProtocol) -> Tables {
        let table = |name: &str| gen.table(name).expect(name);
        Tables {
            d: decode_d(table("D")).expect("D indexable"),
            n: decode_n(table("N")).expect("N indexable"),
            r: decode_r(table("R")).expect("R indexable"),
            m: decode_m(table("M")).expect("M indexable"),
        }
    }
}

fn decode_d(rel: &Relation) -> Result<Table<DRow, 5>, String> {
    let [inmsg, locmsg, remmsg, memmsg, nxtdirst, nxtdirpv, nxtbdirst, nxtbdirpv, dirupd, bdirupd, cmpl] =
        columns(
            rel,
            [
                "inmsg",
                "locmsg",
                "remmsg",
                "memmsg",
                "nxtdirst",
                "nxtdirpv",
                "nxtbdirst",
                "nxtbdirpv",
                "dirupd",
                "bdirupd",
                "cmpl",
            ],
        )?;
    Table::decode(rel, ["inmsg", "dirst", "dirpv", "bdirst", "bdirpv"], |r| {
        DRow {
            locmsg: r[locmsg].as_sym(),
            remmsg: r[remmsg].as_sym(),
            memmsg: r[memmsg].as_sym(),
            nxtdirst: r[nxtdirst].as_sym(),
            nxtdirpv: PvOp::decode(r[nxtdirpv]),
            nxtbdirst: r[nxtbdirst].as_sym(),
            nxtbdirpv: PvOp::decode(r[nxtbdirpv]),
            dirupd: Upd::decode(r[dirupd]),
            bdirupd: Upd::decode(r[bdirupd]),
            cmpl: word(r[cmpl]) == Some("yes"),
            loc_retry: word(r[locmsg]) == Some("retry"),
            loc_payload: matches!(
                word(r[locmsg]),
                Some("data" | "edata" | "swapdata" | "iodata")
            ),
            mem_payload: matches!(word(r[memmsg]), Some("mwrite" | "wb" | "iowrite")),
            upgrade: word(r[inmsg]) == Some("upgrade"),
        }
    })
}

fn decode_n(rel: &Relation) -> Result<Table<NRow, 3>, String> {
    let [inmsg, outmsg, nxtcachest, nxtpendst, cpures] = columns(
        rel,
        ["inmsg", "outmsg", "nxtcachest", "nxtpendst", "cpures"],
    )?;
    Table::decode(rel, ["inmsg", "cachest", "pendst"], |r| NRow {
        outmsg: r[outmsg].as_sym(),
        issue: match word(r[outmsg]) {
            Some("wb") => IssueKind::Writeback,
            Some("iowrite") => IssueKind::IoWrite,
            Some("readex" | "upgrade") => IssueKind::Versioned,
            _ => IssueKind::Plain,
        },
        nxtcachest: r[nxtcachest].as_sym(),
        nxtpendst: r[nxtpendst].as_sym(),
        cpures: word(r[cpures]).map(|w| match w {
            "done" => CpuRes::Done,
            "redo" => CpuRes::Redo,
            _ => CpuRes::Other,
        }),
        rsp: match word(r[inmsg]) {
            Some("data" | "edata") => RspKind::Data,
            Some("iodata") => RspKind::IoData,
            Some("iocompl") => RspKind::IoCompl,
            _ => RspKind::Other,
        },
    })
}

fn decode_r(rel: &Relation) -> Result<Table<RRow, 2>, String> {
    let [inmsg, linest, rspmsg, nxtlinest] =
        columns(rel, ["inmsg", "linest", "rspmsg", "nxtlinest"])?;
    Table::decode(rel, ["inmsg", "linest"], |r| RRow {
        rspmsg: r[rspmsg].as_sym(),
        rsp_payload: matches!(word(r[rspmsg]), Some("sdata" | "fdone" | "xferdone")),
        nxtlinest: r[nxtlinest].as_sym(),
        sinv: word(r[inmsg]) == Some("sinv"),
        modified: word(r[linest]) == Some("M"),
    })
}

fn decode_m(rel: &Relation) -> Result<Table<MRow, 1>, String> {
    let [inmsg, outmsg] = columns(rel, ["inmsg", "outmsg"])?;
    Table::decode(rel, ["inmsg"], |r| MRow {
        outmsg: r[outmsg].as_sym(),
        reads: match word(r[outmsg]) {
            Some("data") => Store::Mem,
            Some("iodata") => Store::Io,
            _ => Store::Neither,
        },
        writes: match word(r[inmsg]) {
            Some("wb" | "mwrite") => Store::Mem,
            Some("iowrite") => Store::Io,
            _ => Store::Neither,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn table() -> Relation {
        let mut r = Relation::with_columns(["inmsg", "st", "out"]).unwrap();
        r.push_row(&[v("ping"), v("idle"), v("pong")]).unwrap();
        r.push_row(&[v("ping"), v("busy"), Value::Null]).unwrap();
        r
    }

    fn decode(rel: &Relation, keys: [&str; 2]) -> Result<Table<Option<Sym>, 2>, String> {
        let [out] = columns(rel, ["out"])?;
        Table::decode(rel, keys, |r| r[out].as_sym())
    }

    #[test]
    fn lookup_finds_rows() {
        let t = decode(&table(), ["inmsg", "st"]).unwrap();
        let (i, out) = t.lookup(&[v("ping"), v("idle")]).unwrap();
        assert_eq!((i, out.unwrap().as_str()), (0, "pong"));
        let (i, out) = t.lookup(&[v("ping"), v("busy")]).unwrap();
        assert_eq!((i, *out), (1, None));
        assert!(t.lookup(&[v("poke"), v("idle")]).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut r = table();
        r.push_row(&[v("ping"), v("idle"), v("other")]).unwrap();
        assert!(decode(&r, ["inmsg", "st"]).is_err());
    }

    #[test]
    fn unknown_key_column_rejected() {
        assert!(decode(&table(), ["nope", "st"]).is_err());
    }

    #[test]
    fn operation_columns_keep_on_unknown_values() {
        assert_eq!(PvOp::decode(v("dec")), PvOp::Dec);
        assert_eq!(PvOp::decode(v("yes")), PvOp::Keep);
        assert_eq!(PvOp::decode(Value::Null), PvOp::Keep);
        assert_eq!(Upd::decode(v("dealloc")), Upd::Dealloc);
        assert_eq!(Upd::decode(v("inc")), Upd::Keep);
        let voc = vocab();
        assert!(voc.requests.contains(&Sym::intern("readex")));
        assert!(!voc.requests.contains(&Sym::intern("data")));
        assert_eq!(voc.count_encoding(2), voc.gone);
        assert_eq!(voc.cpu[1].as_str(), "cpu_write");
    }
}
