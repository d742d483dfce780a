//! The protocol message catalog (the paper's Figure 1).
//!
//! The ASURA protocol uses "around 50 different types of messages",
//! classified as **requests** and **responses**. The paper names a
//! handful explicitly (`readex`, `wb`, `sinv`, `mread`, `data`, `idone`,
//! `compl`, `retry`, and the implementation-level `Dfdback`); the rest of
//! the catalog below is reconstructed systematically from the transaction
//! families the paper describes (memory read/write, I/O read/write, and
//! special state-communication transactions).

use ccsql_relalg::Value;

/// Request or response — the classification the virtual-channel
/// assignment is based on ("assigned based on the source and the
/// destination and the classification of messages as requests vs.
/// responses").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A request (consumes a request channel slot until answered).
    Request,
    /// A response (must eventually sink).
    Response,
}

/// Which part of the protocol a message belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Coherent memory transactions issued by nodes.
    Memory,
    /// Snoop traffic from the home directory to remote nodes.
    Snoop,
    /// Directory ↔ home memory controller traffic.
    MemCtl,
    /// I/O space transactions.
    Io,
    /// Special transactions communicating state between controllers.
    Special,
}

/// One protocol message type.
#[derive(Clone, Copy, Debug)]
pub struct MessageDef {
    /// Wire name (used verbatim in controller tables).
    pub name: &'static str,
    /// Request or response.
    pub kind: MsgKind,
    /// Protocol class.
    pub class: MsgClass,
    /// Human description for Figure-1 style reports.
    pub desc: &'static str,
}

macro_rules! messages {
    ($($name:literal, $kind:ident, $class:ident, $desc:literal;)*) => {
        /// The full message catalog.
        pub const MESSAGES: &[MessageDef] = &[
            $(MessageDef {
                name: $name,
                kind: MsgKind::$kind,
                class: MsgClass::$class,
                desc: $desc,
            },)*
        ];
    };
}

messages! {
    // --- Coherent memory requests (local node → home directory) -------
    "read",     Request,  Memory,  "read shared copy of a line";
    "readex",   Request,  Memory,  "read exclusive ownership of a line";
    "upgrade",  Request,  Memory,  "upgrade shared copy to exclusive (no data)";
    "wb",       Request,  Memory,  "write back a modified line to memory";
    "wbinv",    Request,  Memory,  "write back and invalidate (eviction)";
    "flush",    Request,  Memory,  "flush line from all caches to memory";
    "fetch",    Request,  Memory,  "uncached fetch of a line";
    "swap",     Request,  Memory,  "atomic swap on a memory location";
    "replace",  Request,  Memory,  "notify replacement of a shared line";

    // --- Snoop requests (home directory → remote nodes) ---------------
    "sinv",     Request,  Snoop,   "invalidate the line in remote caches";
    "sread",    Request,  Snoop,   "downgrade remote modified line to shared, supply data";
    "sflush",   Request,  Snoop,   "flush remote modified line back to home";
    "srdex",    Request,  Snoop,   "transfer exclusive ownership from remote owner";
    "sfetch",   Request,  Snoop,   "fetch data from remote owner (uncached)";

    // --- Directory ↔ home memory controller ---------------------------
    "mread",    Request,  MemCtl,  "read line from home memory";
    "mwrite",   Request,  MemCtl,  "write line to home memory";
    "mupd",     Request,  MemCtl,  "update directory entry in memory-resident directory";
    "mflush",   Request,  MemCtl,  "force memory write of a pending buffer";

    // --- I/O space requests --------------------------------------------
    "ioread",   Request,  Io,      "read from I/O space";
    "iowrite",  Request,  Io,      "write to I/O space";
    "iordex",   Request,  Io,      "exclusive I/O read (device ownership)";
    "intr",     Request,  Io,      "deliver an interrupt transaction";
    "intack",   Request,  Io,      "interrupt acknowledge cycle";

    // --- Special state-communication requests -------------------------
    "cfgrd",    Request,  Special, "read a configuration register";
    "cfgwr",    Request,  Special, "write a configuration register";
    "sync",     Request,  Special, "synchronisation barrier between controllers";
    "probe",    Request,  Special, "query directory state (diagnostics)";
    "Dfdback",  Request,  Special, "implementation-level feedback request (response controller → request controller)";

    // --- Data-carrying responses ---------------------------------------
    "data",     Response, Memory,  "data from home memory";
    "edata",    Response, Memory,  "data with exclusive ownership";
    "sdata",    Response, Snoop,   "data supplied by a remote cache (shared)";
    "mdata",    Response, MemCtl,  "data from memory controller to directory";
    "iodata",   Response, Io,      "data from I/O space read";
    "cfgdata",  Response, Special, "configuration register contents";
    "swapdata", Response, Memory,  "old value returned by atomic swap";

    // --- Completion / status responses ---------------------------------
    "compl",    Response, Memory,  "transaction complete";
    "wbcompl",  Response, Memory,  "write back complete";
    "mcompl",   Response, MemCtl,  "memory write complete";
    "iocompl",  Response, Io,      "I/O write complete";
    "idone",    Response, Snoop,   "invalidation done at remote node";
    "sdone",    Response, Snoop,   "snoop processed at remote node (no data)";
    "fdone",    Response, Snoop,   "flush done at remote node";
    "xferdone", Response, Snoop,   "exclusive ownership transfer done";
    "retry",    Response, Memory,  "request must be retried (resource busy / line busy)";
    "nack",     Response, Memory,  "negative acknowledgement";
    "ack",      Response, Special, "positive acknowledgement";
    "syncdone", Response, Special, "synchronisation barrier complete";
    "intdone",  Response, Io,      "interrupt delivered";
    "cfgcompl", Response, Special, "configuration write complete";
    "perr",     Response, Special, "protocol error report";
    "derr",     Response, Memory,  "data error (uncorrectable ECC)";
    "proberes", Response, Special, "directory state probe result";
}

/// Look up a message by name.
pub fn message(name: &str) -> Option<&'static MessageDef> {
    MESSAGES.iter().find(|m| m.name == name)
}

/// True iff `name` is a request.
pub fn is_request(name: &str) -> bool {
    matches!(message(name), Some(m) if m.kind == MsgKind::Request)
}

/// All request names.
pub fn request_names() -> Vec<&'static str> {
    MESSAGES
        .iter()
        .filter(|m| m.kind == MsgKind::Request)
        .map(|m| m.name)
        .collect()
}

/// All response names.
pub fn response_names() -> Vec<&'static str> {
    MESSAGES
        .iter()
        .filter(|m| m.kind == MsgKind::Response)
        .map(|m| m.name)
        .collect()
}

/// All message names.
pub fn all_names() -> Vec<&'static str> {
    MESSAGES.iter().map(|m| m.name).collect()
}

/// The named sets the paper's SQL uses (`isrequest(…)`, `isresponse(…)`),
/// as (set name, members) pairs ready for `SetContext::define`.
pub fn named_sets() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        (
            "isrequest",
            request_names().iter().map(|n| Value::sym(n)).collect(),
        ),
        (
            "isresponse",
            response_names().iter().map(|n| Value::sym(n)).collect(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_about_fifty_messages() {
        // "Around 50 different types of messages are used in the protocol."
        assert!(
            (45..=55).contains(&MESSAGES.len()),
            "catalog has {} messages",
            MESSAGES.len()
        );
    }

    #[test]
    fn paper_named_messages_present() {
        for m in [
            "readex", "wb", "sinv", "mread", "data", "idone", "compl", "retry", "Dfdback",
        ] {
            assert!(message(m).is_some(), "missing paper message {m}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all_names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn request_response_partition() {
        assert_eq!(
            request_names().len() + response_names().len(),
            MESSAGES.len()
        );
        assert!(is_request("readex"));
        assert!(!is_request("compl"));
        assert!(!is_request("nonexistent"));
    }

    #[test]
    fn classes_cover_expected_examples() {
        assert_eq!(message("sinv").unwrap().class, MsgClass::Snoop);
        assert_eq!(message("mread").unwrap().class, MsgClass::MemCtl);
        assert_eq!(message("ioread").unwrap().class, MsgClass::Io);
        assert_eq!(message("Dfdback").unwrap().class, MsgClass::Special);
    }

    #[test]
    fn named_sets_shape() {
        let sets = named_sets();
        assert_eq!(sets.len(), 2);
        let isreq = &sets[0];
        assert_eq!(isreq.0, "isrequest");
        assert!(isreq.1.contains(&Value::sym("readex")));
        assert!(!isreq.1.contains(&Value::sym("compl")));
    }
}
