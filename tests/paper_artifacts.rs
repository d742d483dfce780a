//! Golden tests pinning the concrete artifacts the paper prints:
//! Figure 1 (message classes), the Figure 2 read-exclusive flow,
//! Figure 3 (the readex table), the Figure 4 rows R1/R2/R2′/R3, and the
//! headline numbers of sections 3–6.

use ccsql_suite::core::depend::{
    controller_dependency_rows, protocol_dependency_table, AnalysisConfig,
};
use ccsql_suite::core::gen::GeneratedProtocol;
use ccsql_suite::core::hwmap::HwMapping;
use ccsql_suite::core::invariants;
use ccsql_suite::core::vc::VcAssignment;
use ccsql_suite::core::vcg::Vcg;
use ccsql_suite::protocol::directory;
use ccsql_suite::protocol::messages;
use ccsql_suite::protocol::topology::{NodeId, QuadPlacement};
use ccsql_suite::relalg::{report, GenMode};
use ccsql_suite::sim::{CpuOp, Outcome, Sim, SimConfig, Workload};
use std::sync::OnceLock;

fn generated() -> &'static GeneratedProtocol {
    static GEN: OnceLock<GeneratedProtocol> = OnceLock::new();
    GEN.get_or_init(|| GeneratedProtocol::generate_default().unwrap())
}

#[test]
fn fig1_about_fifty_messages_with_request_response_split() {
    assert!((45..=55).contains(&messages::MESSAGES.len()));
    // The messages the paper names all exist with the right class.
    for (name, req) in [
        ("readex", true),
        ("wb", true),
        ("sinv", true),
        ("mread", true),
        ("Dfdback", true),
        ("data", false),
        ("idone", false),
        ("compl", false),
        ("retry", false),
    ] {
        assert_eq!(messages::is_request(name), req, "{name}");
    }
}

#[test]
fn fig2_readex_flow_ends_modified_at_the_requester() {
    // Figure 2: a local node in quad 0 issues readex for a line homed at
    // quad 1 while a remote node there shares it (directory state SI).
    let cfg = SimConfig {
        quads: 2,
        nodes_per_quad: 2,
        vc_capacity: 2,
        dedicated_mem_path: true,
        max_steps: 10_000,
        ..SimConfig::default()
    };
    let local = NodeId::new(0, 0);
    let remote = NodeId::new(1, 1);
    let addr = 1; // home quad = addr % 2
    let mut per_node = vec![Vec::new(); 4];
    per_node[0] = vec![CpuOp::Write(addr)]; // the local node's script
    let mut sim = Sim::new(generated(), cfg, Workload::scripted(per_node));
    sim.set_cache(remote, addr, "S", 7);
    sim.set_dir(addr, "SI", &[remote]);
    sim.set_mem(addr, 7);
    sim.set_expected(addr, 7);

    let out = sim.run().unwrap();
    assert!(matches!(out, Outcome::Quiescent), "{out:?}");
    sim.audit().unwrap();
    // "The directory state is updated with the value MESI" — one owner.
    assert_eq!(sim.dir_state(addr), ("MESI".to_string(), 1));
    assert_eq!(sim.cache_state(local, addr).0, "M");
    assert_eq!(sim.cache_state(remote, addr).0, "I");
}

#[test]
fn fig3_readex_table_golden() {
    let (rel, _) = directory::fig3_spec()
        .generate(GenMode::Incremental, &GeneratedProtocol::context())
        .unwrap();
    let golden = "\
inmsg,dirst,dirpv,locmsg,remmsg,memmsg,nxtdirst,nxtdirpv
data,Busy-d,zero,data,NULL,NULL,MESI,repl
data,Busy-sd,gone,data,NULL,NULL,Busy-s,NULL
data,Busy-sd,one,data,NULL,NULL,Busy-s,NULL
idone,Busy-s,gone,NULL,NULL,NULL,NULL,dec
idone,Busy-s,one,compl,NULL,NULL,MESI,repl
idone,Busy-sd,gone,NULL,NULL,NULL,NULL,dec
idone,Busy-sd,one,NULL,NULL,NULL,Busy-d,dec
readex,I,zero,NULL,NULL,mread,Busy-d,NULL
readex,SI,gone,NULL,sinv,mread,Busy-sd,repl
readex,SI,one,NULL,sinv,mread,Busy-sd,repl
";
    assert_eq!(report::csv(&rel.sorted()), golden);
}

#[test]
fn section3_table_d_headline_numbers() {
    let gen = generated();
    let d = gen.table("D").unwrap();
    // "This table is made of 30 columns and 500 rows and includes
    // around 40 Busy states."
    assert_eq!(d.arity(), 30);
    assert!((450..=550).contains(&d.len()), "rows: {}", d.len());
    let busy: std::collections::HashSet<_> = d
        .column_values("bdirst")
        .unwrap()
        .into_iter()
        .filter(|v| !v.is_null() && v.to_string() != "I")
        .collect();
    assert_eq!(busy.len(), 40);
}

#[test]
fn section4_about_fifty_invariants_all_hold() {
    let suite = invariants::all_invariants();
    assert!((50..=60).contains(&suite.len()));
    let mut gen = GeneratedProtocol::generate_default().unwrap();
    let results = invariants::check_all(&mut gen.db).unwrap();
    assert!(invariants::failures(&results).is_empty());
}

#[test]
fn fig4_rows_r1_r2_r2prime_r3() {
    let gen = generated();
    let v1 = VcAssignment::v1();

    // R1 in the memory controller dependency table (exact placement).
    let m_rows = controller_dependency_rows(
        gen.controller("M").unwrap(),
        gen.table("M").unwrap(),
        &v1,
        QuadPlacement::AllDistinct,
    );
    assert!(m_rows.iter().any(|r| r.input.msg.as_str() == "wb"
        && r.input.vc.as_str() == "VC4"
        && r.output.msg.as_str() == "compl"
        && r.output.vc.as_str() == "VC2"));

    // R2 in the directory controller dependency table.
    let d_rows = controller_dependency_rows(
        gen.controller("D").unwrap(),
        gen.table("D").unwrap(),
        &v1,
        QuadPlacement::AllDistinct,
    );
    assert!(d_rows.iter().any(|r| r.input.msg.as_str() == "idone"
        && r.input.src.as_str() == "remote"
        && r.output.msg.as_str() == "mread"
        && r.output.vc.as_str() == "VC4"));

    // R2′ under L≠H=R: the idone source canonicalises to home.
    let d_rows_hr = controller_dependency_rows(
        gen.controller("D").unwrap(),
        gen.table("D").unwrap(),
        &v1,
        QuadPlacement::HomeRemote,
    );
    assert!(d_rows_hr.iter().any(|r| r.input.msg.as_str() == "idone"
        && r.input.src.as_str() == "home"
        && r.output.msg.as_str() == "mread"));

    // R3 — the composed (wb, …, VC4, mread, …, VC4) row — and the cycle.
    let table = protocol_dependency_table(gen, &v1, &AnalysisConfig::default()).unwrap();
    assert!(table.rows.iter().any(|r| r.input.msg.as_str() == "wb"
        && r.input.vc.as_str() == "VC4"
        && r.output.msg.as_str() == "mread"
        && r.output.vc.as_str() == "VC4"
        && r.placement == QuadPlacement::HomeRemote));
    let vcg = Vcg::build(&table);
    assert!(vcg.has_edge("VC2", "VC4"));
    assert!(vcg.has_edge("VC4", "VC2"));
    let cycles = vcg.cycles();
    assert_eq!(cycles.len(), 1);
    let chans: Vec<&str> = cycles[0].channels.iter().map(|c| c.as_str()).collect();
    assert_eq!(chans, ["VC2", "VC4"]);
}

#[test]
fn section5_nine_tables_and_reconstruction() {
    let gen = generated();
    let mapping = HwMapping::build(gen).unwrap();
    assert_eq!(mapping.impl_tables.len(), 9);
    // ED adds exactly Qstatus, Dqstatus and Fdback.
    assert_eq!(mapping.ed.arity(), 33);
    assert!(mapping.check(gen.table("D").unwrap()).unwrap().ok());
    // Dfdback participates as an implementation-defined request.
    let inmsg = mapping.ed.schema().index_of_str("inmsg").unwrap();
    assert!(mapping.ed.rows().any(|r| r[inmsg].to_string() == "Dfdback"));
}

#[test]
fn section6_eight_controller_tables() {
    let gen = generated();
    assert_eq!(gen.spec.controllers.len(), 8);
    for c in &gen.spec.controllers {
        assert!(!gen.table(c.name).unwrap().is_empty());
    }
}

#[test]
fn footnote2_transitive_closure_inflates_spurious_cycles() {
    // "Our first attempt … was to do a transitive closure but we
    // abandoned this due to the excessive number of spurious cycles."
    let gen = generated();
    let single =
        protocol_dependency_table(gen, &VcAssignment::v0(), &AnalysisConfig::default()).unwrap();
    let closure = protocol_dependency_table(
        gen,
        &VcAssignment::v0(),
        &AnalysisConfig {
            transitive_closure: true,
            ..AnalysisConfig::default()
        },
    )
    .unwrap();
    assert!(closure.rows.len() > single.rows.len());
    let sc_single = Vcg::build(&single).simple_cycles(1000).len();
    let sc_closure = Vcg::build(&closure).simple_cycles(1000).len();
    assert!(
        sc_closure >= sc_single,
        "closure: {sc_closure} vs single: {sc_single}"
    );
}

#[test]
fn placement_relaxation_is_load_bearing() {
    // Without the quad-placement relaxation (exact matching only, all
    // quads distinct) the V0 home-sharing cycles disappear — the
    // relaxation is what finds them.
    let gen = generated();
    let exact =
        protocol_dependency_table(gen, &VcAssignment::v0(), &AnalysisConfig::exact_only()).unwrap();
    let full =
        protocol_dependency_table(gen, &VcAssignment::v0(), &AnalysisConfig::default()).unwrap();
    let c_exact = Vcg::build(&exact).simple_cycles(1000).len();
    let c_full = Vcg::build(&full).simple_cycles(1000).len();
    assert!(
        c_full > c_exact,
        "placements must add cycles: exact {c_exact}, full {c_full}"
    );
}
