//! # `ccsql-protocol` — the ASURA-style directory MESI protocol
//!
//! This crate reconstructs the cache coherence protocol of the paper's
//! ASURA multiprocessor (up to 4 quads × 4 nodes × 4 CPUs, distributed
//! memory, one protocol engine with a directory per quad) as *table
//! specifications*: every controller is a multi-input/multi-output state
//! machine described by column tables and SQL column constraints, from
//! which the [`ccsql_relalg`] constraint solver generates the controller
//! tables.
//!
//! The 8 controller tables (section 6 of the paper: "A total of 8
//! controller database tables were automatically generated"):
//!
//! | table | controller | module |
//! |-------|------------|--------|
//! | `D`   | directory controller (30 columns, ~500 rows, ~40 busy states) | [`directory`] |
//! | `M`   | home memory controller | [`memory`] |
//! | `N`   | node controller (local) | [`node`] |
//! | `R`   | remote access cache controller | [`rac`] |
//! | `C`   | processor cache (MESI) controller | [`cache`] |
//! | `IO`  | I/O controller | [`io`] |
//! | `L`   | inter-quad link controller | [`link`] |
//! | `CFG` | configuration / special transactions | [`cfg`](mod@cfg) |

pub mod cache;
pub mod cfg;
pub mod directory;
pub mod io;
pub mod link;
pub mod memory;
pub mod messages;
pub mod node;
pub mod rac;
pub mod spec;
pub mod states;
pub mod topology;

pub use spec::{ControllerBuilder, ControllerSpec, MsgTriple, Rule};

use ccsql_relalg::expr::SetContext;

/// A concrete message flow endpoint: a (message, source role,
/// destination role) *value* triple — as opposed to [`MsgTriple`], which
/// names the *columns* carrying them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowTriple {
    /// Message name.
    pub msg: &'static str,
    /// Source role (`local` / `home` / `remote`).
    pub src: &'static str,
    /// Destination role.
    pub dest: &'static str,
}

impl FlowTriple {
    /// Construct a triple.
    pub const fn new(msg: &'static str, src: &'static str, dest: &'static str) -> FlowTriple {
        FlowTriple { msg, src, dest }
    }
}

/// The protocol's external model boundary: message triples injected by
/// the environment (CPUs, devices, firmware — `sources`) and consumed
/// by it (`sinks`). The flow linter uses this to tell a genuinely
/// unsendable / unreceivable message from one that simply crosses the
/// modeled boundary.
#[derive(Clone, Debug, Default)]
pub struct FlowEnv {
    /// Triples the environment may inject (accepted by some controller
    /// but emitted by none).
    pub sources: Vec<FlowTriple>,
    /// Triples the environment consumes (emitted by some controller but
    /// accepted by none).
    pub sinks: Vec<FlowTriple>,
}

/// The complete protocol: all 8 controller specifications.
pub struct ProtocolSpec {
    /// Controller specs in canonical order (D first).
    pub controllers: Vec<ControllerSpec>,
}

impl ProtocolSpec {
    /// Build the full ASURA-style protocol specification.
    pub fn asura() -> ProtocolSpec {
        ProtocolSpec::asura_with(directory::OwnerTransfer::ViaMemory)
    }

    /// Build the protocol with a chosen owner-transfer design for the
    /// directory (the revision knob).
    pub fn asura_with(transfer: directory::OwnerTransfer) -> ProtocolSpec {
        ProtocolSpec {
            controllers: vec![
                directory::directory_spec_with(transfer),
                memory::memory_spec(),
                node::node_spec(),
                rac::rac_spec_with(transfer),
                cache::cache_spec(),
                io::io_spec(),
                link::link_spec(),
                cfg::cfg_spec(),
            ],
        }
    }

    /// Look up a controller by table name.
    pub fn controller(&self, name: &str) -> Option<&ControllerSpec> {
        self.controllers.iter().find(|c| c.name == name)
    }

    /// The evaluation context every protocol table generation and
    /// invariant check needs: the `isrequest`/`isresponse` named sets
    /// plus the completion set used by the serialisation invariant.
    pub fn eval_context() -> SetContext {
        let mut ctx = SetContext::new();
        for (name, values) in messages::named_sets() {
            ctx.define(name, values);
        }
        ctx.define(
            "iscompletion",
            directory::COMPLETIONS
                .iter()
                .map(|n| ccsql_relalg::Value::sym(n)),
        );
        ctx
    }

    /// The protocol's external model boundary for the flow linter: the
    /// traffic that crosses into / out of the 8 modeled controllers.
    /// CPUs inject `cpu_*` operations into the node controller, firmware
    /// drives snoop fetches, directory updates, interrupt and special
    /// transactions; the environment consumes terminal responses no
    /// modeled controller reads (swap results, interrupt/ack/retry
    /// deliveries, configuration replies).
    pub fn flow_env() -> FlowEnv {
        let t = FlowTriple::new;
        FlowEnv {
            sources: vec![
                // CPU operations entering the node controller.
                t("cpu_read", "home", "local"),
                t("cpu_write", "home", "local"),
                t("cpu_evict", "home", "local"),
                t("cpu_flush", "home", "local"),
                t("cpu_ioread", "home", "local"),
                t("cpu_iowrite", "home", "local"),
                // Uncached fetch at the RAC, driven by the environment.
                t("sfetch", "home", "remote"),
                // Firmware-driven memory-directory maintenance.
                t("mupd", "home", "home"),
                t("mflush", "home", "home"),
                // Node-side operations injected above the node controller.
                t("wbinv", "local", "home"),
                t("fetch", "local", "home"),
                t("swap", "local", "home"),
                // Device-side I/O and interrupt traffic.
                t("iordex", "home", "home"),
                t("intr", "home", "home"),
                t("intack", "home", "home"),
                // Configuration / special transactions from firmware.
                t("cfgrd", "local", "home"),
                t("cfgwr", "local", "home"),
                t("sync", "local", "home"),
                t("probe", "local", "home"),
            ],
            sinks: vec![
                // Swap result returned straight to the requesting CPU.
                t("swapdata", "home", "local"),
                // Interrupt / acknowledgement deliveries to devices.
                t("intdone", "home", "home"),
                t("ack", "home", "home"),
                t("retry", "home", "home"),
                // Configuration replies consumed by firmware.
                t("cfgdata", "home", "local"),
                t("cfgcompl", "home", "local"),
                t("syncdone", "home", "local"),
                t("proberes", "home", "local"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_relalg::GenMode;

    #[test]
    fn eight_controllers() {
        let p = ProtocolSpec::asura();
        assert_eq!(p.controllers.len(), 8);
        let names: Vec<&str> = p.controllers.iter().map(|c| c.name).collect();
        assert_eq!(names, ["D", "M", "N", "R", "C", "IO", "L", "CFG"]);
        assert!(p.controller("D").is_some());
        assert!(p.controller("X").is_none());
    }

    #[test]
    fn all_tables_generate() {
        let p = ProtocolSpec::asura();
        let ctx = ProtocolSpec::eval_context();
        for c in &p.controllers {
            let (rel, _) = c
                .spec
                .generate(GenMode::Incremental, &ctx)
                .unwrap_or_else(|e| panic!("{} failed: {e}", c.name));
            assert!(!rel.is_empty(), "{} generated no rows", c.name);
        }
    }

    #[test]
    fn triples_reference_existing_columns() {
        let p = ProtocolSpec::asura();
        for c in &p.controllers {
            let names = c.spec.column_names();
            let has = |n: &str| names.iter().any(|s| s.as_str() == n);
            for t in c.input_triples.iter().chain(&c.output_triples) {
                assert!(has(t.msg), "{}: missing column {}", c.name, t.msg);
                assert!(has(t.src), "{}: missing column {}", c.name, t.src);
                assert!(has(t.dest), "{}: missing column {}", c.name, t.dest);
            }
        }
    }
}
