//! The protocol-zoo matrix suite: every spec pack under `specs/` runs
//! through the full pipeline (lint → compiled/interpreted solve diff →
//! flows/VCG → spec-machine mc with symmetry/thread identity → seeded
//! sim), through `ccsql_cli::pack`, the pipeline `ccsql zoo` runs for
//! each pack and `scripts/verify.sh` gates on. The suite asserts the
//! matrix itself (completeness, clean packs pass, seeded-bug packs are
//! rejected) from the typed verdicts and then drills into the
//! per-protocol behaviour the summary line alone would hide.

use ccsql_cli::pack::{self, Settings, Verdict};
use std::collections::BTreeMap;

fn argv(cmd: &str) -> Vec<String> {
    cmd.split_whitespace().map(str::to_string).collect()
}

fn spec_dir() -> String {
    format!("{}/specs", env!("CARGO_MANIFEST_DIR"))
}

fn spec(name: &str) -> String {
    format!("{}/{name}.ccsql", spec_dir())
}

/// All spec-pack stems under `specs/`, sorted.
fn all_packs() -> Vec<String> {
    let mut packs: Vec<String> = std::fs::read_dir(spec_dir())
        .expect("specs/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ccsql"))
        .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .collect();
    packs.sort();
    packs
}

/// One spec pack's stages at the zoo's quick tier.
fn run_pack(path: impl AsRef<std::path::Path>) -> Vec<pack::Stage> {
    pack::run(path, &Settings::tier(true)).expect("the pack parses")
}

/// Every spec pack's verdicts at the quick tier: protocol → stage →
/// verdict.
fn verdicts() -> BTreeMap<String, BTreeMap<&'static str, Verdict>> {
    all_packs()
        .into_iter()
        .map(|p| {
            let stages = run_pack(spec(&p)).into_iter();
            let v = stages.map(|s| (s.name, s.verdict)).collect();
            (p, v)
        })
        .collect()
}

fn run_zoo(extra: &str) -> String {
    ccsql_cli::run(&argv(&format!("zoo {} {extra}", spec_dir())))
        .expect("zoo expectations must hold")
}

const STAGES: [&str; 5] = ["lint", "solve", "flows", "specmc", "specsim"];
const CLEAN: [&str; 3] = ["fig3", "bedrock_moesif", "phase_priority"];

#[test]
fn the_matrix_covers_every_spec_pack_and_every_stage() {
    let packs = all_packs();
    for pack in &packs {
        let stages: Vec<&str> = run_pack(spec(pack)).iter().map(|s| s.name).collect();
        assert_eq!(stages, STAGES, "{pack} does not run every stage in order");
    }
    // The zoo renders one verdict per (pack, stage).
    let out = run_zoo("--quick");
    let summary = format!(
        "zoo: {} pack(s) ({} clean, {} seeded-bug), {} stage verdict(s), expectations met",
        packs.len(),
        CLEAN.len(),
        packs.len() - CLEAN.len(),
        STAGES.len() * packs.len()
    );
    assert!(out.contains(&summary), "{out}");
}

#[test]
fn clean_protocols_pass_every_stage_and_seeded_bugs_are_rejected() {
    let v = verdicts();
    for pack in CLEAN {
        for stage in STAGES {
            assert_eq!(
                v[pack][stage],
                Verdict::Pass,
                "clean pack {pack} does not pass {stage}: {v:?}"
            );
        }
    }
    for pack in all_packs() {
        if !pack.ends_with("_buggy") && !pack.ends_with("_flowbug") {
            continue;
        }
        assert!(
            v[&pack].values().any(|verdict| *verdict == Verdict::Fail),
            "seeded-bug pack {pack} was not rejected by any stage: {v:?}"
        );
    }
    // The specific seeded bugs land where they were designed to land:
    // the MOESIF one is invisible to lint and only the machine finds
    // it; the phase-priority one is a lint-level nondeterminism.
    assert_eq!(v["bedrock_moesif_buggy"]["lint"], Verdict::Pass);
    assert_eq!(v["bedrock_moesif_buggy"]["specmc"], Verdict::Fail);
    assert_eq!(v["phase_priority_buggy"]["lint"], Verdict::Fail);
    assert_eq!(v["phase_priority_buggy"]["solve"], Verdict::Fail);
}

#[test]
fn the_zoo_report_is_deterministic_across_runs_and_tiers() {
    let a = run_zoo("--quick");
    let b = run_zoo("--quick");
    assert_eq!(a, b, "zoo --quick is not byte-deterministic");
    let full_a = run_zoo("");
    let full_b = run_zoo("");
    assert_eq!(full_a, full_b, "zoo (full tier) is not byte-deterministic");
}

#[test]
fn the_full_tier_reaches_the_rows_quick_cannot() {
    // Two agents cannot occupy the phase-priority reservation and
    // bounce a third request off it at the same time; three can. The
    // full tier must therefore reach full row coverage where the quick
    // tier reports a hole — the matrix watches analysis depth, not
    // just verdicts.
    let quick = run_zoo("--quick");
    let full = run_zoo("");
    let grab = |out: &str| -> String {
        out.lines()
            .find(|l| l.contains("\"protocol\":\"phase_priority\"") && l.contains("\"specmc\""))
            .unwrap_or_else(|| panic!("no phase_priority specmc line in:\n{out}"))
            .to_string()
    };
    assert!(grab(&quick).contains("rows 20/36"), "{quick}");
    assert!(grab(&full).contains("rows 36/36"), "{full}");
}

#[test]
fn spec_mc_runs_each_clean_protocol_from_the_cli() {
    for pack in CLEAN {
        let out = ccsql_cli::run(&argv(&format!("mc --spec {} --nodes 2", spec(pack))))
            .unwrap_or_else(|e| panic!("mc --spec {pack} rejected a clean protocol:\n{e}"));
        assert!(out.contains("specmc: verified"), "{pack}: {out}");
        // JSON rendering carries the verdict and the orbit accounting.
        let json =
            ccsql_cli::run(&argv(&format!("mc --spec {} --nodes 2 --json", spec(pack)))).unwrap();
        assert!(json.contains("\"verdict\":\"verified\""), "{pack}: {json}");
        assert!(json.contains("\"orbit_states\":"), "{pack}: {json}");
    }
}

#[test]
fn spec_mc_rejects_the_undrainable_moesif_variant_with_a_counterexample() {
    let err = ccsql_cli::run(&argv(&format!(
        "mc --spec {} --nodes 2",
        spec("bedrock_moesif_buggy")
    )))
    .expect_err("the seeded MOESIF bug must be rejected");
    assert!(err.contains("undrainable"), "{err}");
    assert!(err.contains("agent"), "counterexample path missing: {err}");
}

#[test]
fn spec_sim_walks_each_clean_protocol_deterministically() {
    for pack in CLEAN {
        let cmd = format!("sim --spec {} --seed 7 --ops 3000", spec(pack));
        let a = ccsql_cli::run(&argv(&cmd)).unwrap();
        let b = ccsql_cli::run(&argv(&cmd)).unwrap();
        assert_eq!(a, b, "{pack}: sim --spec is not deterministic");
        assert!(a.contains("completion(s)"), "{pack}: {a}");
        assert!(!a.contains("STUCK"), "{pack}: {a}");
    }
}

#[test]
fn zoo_rejects_a_directory_with_no_packs() {
    let empty = std::env::temp_dir().join(format!("ccsql-zoo-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).unwrap();
    let err = ccsql_cli::run(&["zoo".into(), empty.display().to_string()]).unwrap_err();
    let _ = std::fs::remove_dir(&empty);
    assert!(err.contains("no .ccsql spec packs"), "{err}");
}

#[test]
fn zoo_fails_a_pack_whose_state_cannot_hold_its_agents() {
    // fig3 plus 28 machine variables: 30 variables and the 2 credit
    // counters fill the 32-byte state word, leaving no agent lane.
    let mut text = std::fs::read_to_string(spec("fig3")).unwrap();
    for k in 0..28 {
        text.push_str(&format!(
            "input v{k} = a\noutput nv{k} = a, NULL\n\
             machine v{k} = nv{k}, init a\nconstrain nv{k}: nv{k} = NULL\n"
        ));
    }
    let dir = std::env::temp_dir().join(format!("ccsql-zoo-wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.ccsql");
    std::fs::write(&path, text).unwrap();
    let zoo = ccsql_cli::run(&["zoo".into(), dir.display().to_string(), "--quick".into()]);
    let stages = run_pack(&path);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(zoo.is_err(), "the zoo passed a pack it cannot model-check");
    let specmc = &stages[3];
    assert_eq!((specmc.name, specmc.verdict), ("specmc", Verdict::Fail));
    assert!(
        specmc.detail.contains("holds at most 0 agent(s)"),
        "{}",
        specmc.detail
    );
    assert_eq!(stages[4].name, "specsim", "{stages:?}");
}
