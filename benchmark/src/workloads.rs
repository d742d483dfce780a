//! The four workloads: the seeded inputs each makes at set-up, what one
//! iteration runs, and the check of its verdicts against
//! [`crate::answers`].
//!
//! Every call into a layer goes through [`layer`], which wraps it in a
//! `bench` flight span named after the layer. The spans are inert (one
//! branch) unless the traced pass switched the recorder on. An
//! iteration starts from spec text or `ProtocolSpec::asura()` and keeps
//! nothing from the iteration before.

use crate::answers::{self, McAnswer, Verdict};
use crate::kernels;
use ccsql::depend::{protocol_dependency_table, AnalysisConfig};
use ccsql::{invariants, GeneratedProtocol, VcAssignment, Vcg};
use ccsql_lint::{codes, flows, LintReport};
use ccsql_mc::spill::SpillDir;
use ccsql_mc::{explore_with, Compact, McOpts, McOutcome, McStats, Model, SpecMachine};
use ccsql_mc::{SpecMcOpts, SpecVerdict};
use ccsql_protocol::topology::NodeId;
use ccsql_protocol::ProtocolSpec;
use ccsql_relalg::specfile::{parse_specfile, solve_specfile_with};
use ccsql_relalg::GenMode;
use ccsql_sim::{CpuOp, Mix, Outcome, Schedule, Sim, SimConfig};
use std::path::Path;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's flow on the industrial ASURA tables: solve, lint,
    /// invariants, dependency/VCG/flows deadlock analysis for V1 and
    /// V2, simulation and a small model check.
    AsuraPipeline,
    /// Every spec pack through parse, lint, solve, flows, spec-machine
    /// model checking and a spec walk: many small inputs.
    Zoo,
    /// The builtin model at nodes=4 under symmetry, fully resident:
    /// expand and canon on every successor, spill bypassed.
    McSym,
    /// The builtin model at nodes=3, quota=3 without symmetry under a
    /// 2 MiB memory budget: spill-write, spill-read and merge, canon
    /// bypassed.
    McSpill,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AsuraPipeline,
        Workload::Zoo,
        Workload::McSym,
        Workload::McSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AsuraPipeline => "asura-pipeline",
            Workload::Zoo => "zoo",
            Workload::McSym => "mc-sym",
            Workload::McSpill => "mc-spill",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does set-up end with one untimed iteration? Every `ccsql mc` run
    /// starts cold, so the model checking workloads do not warm up.
    pub fn warms_up(self) -> bool {
        matches!(self, Workload::AsuraPipeline | Workload::Zoo)
    }

    /// The builtin model an mc workload explores, and whether it
    /// explores under symmetry.
    pub fn mc_model(self) -> Option<(Model, bool)> {
        match self {
            Workload::McSym => Some((MC_SYM_MODEL, true)),
            Workload::McSpill => Some((MC_SPILL_MODEL, false)),
            Workload::AsuraPipeline | Workload::Zoo => None,
        }
    }
}

const fn model(nodes: usize, quota: u8) -> Model {
    Model {
        nodes,
        quota,
        resp_depth: 2,
    }
}

/// The builtin models the workloads explore. Each exploration takes
/// well under a second, so a run times dozens of them and its median
/// is not at the mercy of one slow stretch of a shared host. mc-sym
/// covers the 2,252,157 states of nodes=4 through their orbit
/// representatives; mc-spill's space is three times its memory budget.
const ASURA_MODEL: Model = model(3, 2);
const MC_SYM_MODEL: Model = model(4, 2);
const MC_SPILL_MODEL: Model = model(3, 3);

/// Distinct-state budget of every builtin exploration: far above the
/// largest pinned space, so a run ends only by its verdict.
const MC_BUDGET: usize = 10_000_000;
/// mc-spill's resident-memory budget and shard count.
const SPILL_MEM_BUDGET: usize = 2 << 20;
const SPILL_SHARDS: usize = 16;
/// asura-pipeline's simulated machine: 2 quads x 2 nodes, each node
/// issuing this many operations over a 16-line hot set.
const SIM_OPS_PER_NODE: usize = 500;
/// zoo: agents and walk length of the spec-machine stages.
const SPEC_AGENTS: usize = 3;
const SPEC_SIM_STEPS: usize = 10_000;

/// Seeded inputs, made once per set-up and only read by iterations.
pub struct Prepared {
    pub workload: Workload,
    seed: u64,
    /// asura-pipeline: each simulated node's processor operations.
    sim_ops: Vec<Vec<CpuOp>>,
    /// zoo: `(pack name, spec text)` of every pack, in name order.
    packs: Vec<(String, String)>,
    /// mc-*: a seeded sample of reachable packed states (orbit
    /// representatives under symmetry) for the kernels.
    pub sample: Vec<Compact>,
    /// mc-spill: the directory the engine's spill directories go
    /// under; removed with everything in it on drop.
    spill_base: Option<SpillDir>,
}

/// Read the spec packs and make the workload's seeded inputs. `specs`
/// holds the `.ccsql` packs; spill files go under `scratch`.
pub fn prepare(
    workload: Workload,
    seed: u64,
    specs: &Path,
    scratch: &Path,
) -> Result<Prepared, String> {
    let mut p = Prepared {
        workload,
        seed,
        sim_ops: Vec::new(),
        packs: Vec::new(),
        sample: Vec::new(),
        spill_base: None,
    };
    match workload {
        Workload::AsuraPipeline => {
            let nodes: Vec<NodeId> = (0..2)
                .flat_map(|q| (0..2).map(move |n| NodeId::new(q, n)))
                .collect();
            let wl =
                ccsql_sim::Workload::random(&nodes, SIM_OPS_PER_NODE, 16, Mix::default(), seed);
            p.sim_ops = wl.queues.into_iter().map(Vec::from).collect();
        }
        Workload::Zoo => {
            for want in &answers::ZOO {
                let path = specs.join(format!("{}.ccsql", want.pack));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                p.packs.push((want.pack.to_string(), text));
            }
        }
        Workload::McSym | Workload::McSpill => {}
    }
    if let Some((model, symmetry)) = workload.mc_model() {
        p.sample = kernels::state_sample(&model, symmetry, seed);
    }
    if workload == Workload::McSpill {
        std::fs::create_dir_all(scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        p.spill_base = Some(
            SpillDir::create(Some(scratch))
                .map_err(|e| format!("cannot create a spill directory: {e}"))?,
        );
    }
    Ok(p)
}

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Verdicts that differ from the pinned answers, and aborted
    /// stages; empty when the iteration is correct.
    pub wrong: Vec<String>,
    /// Distinct states the iteration's model checking explored, and
    /// the seconds it spent exploring them.
    pub mc_states: u64,
    pub mc_secs: f64,
    /// Exact counts and ratios for the per-layer metrics.
    pub counts: Vec<(&'static str, f64)>,
}

impl Iteration {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// The last recorded value of count `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Run one iteration of the workload and check its verdicts.
pub fn iterate(p: &Prepared) -> Iteration {
    let mut it = Iteration::default();
    let result = match p.workload {
        Workload::AsuraPipeline => asura_pipeline(p, &mut it),
        Workload::Zoo => zoo(p, &mut it),
        Workload::McSym => mc_sym(&mut it),
        Workload::McSpill => mc_spill(p, &mut it),
    };
    if let Err(e) = result {
        it.wrong.push(format!("aborted: {e}"));
    }
    it
}

/// Call `f`, the work of one layer, inside a `bench` span named after
/// the layer.
fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = ccsql_obs::flight::span("bench", name);
    f()
}

fn asura_pipeline(p: &Prepared, it: &mut Iteration) -> Result<(), String> {
    let mut gen = layer("relalg.solve", || {
        GeneratedProtocol::generate(GenMode::Incremental)
    })
    .map_err(|e| format!("generate: {e}"))?;
    let candidates: u64 = gen.stats.values().map(|s| s.candidates).sum();
    let rows: u64 = gen.stats.values().map(|s| s.rows as u64).sum();
    it.expect(
        (candidates, rows) == (answers::ASURA_CANDIDATES, answers::ASURA_ROWS),
        || format!("solver: {rows} rows of {candidates} candidates"),
    );
    it.count("relalg.candidates", candidates as f64);
    it.count(
        "relalg.survivor_ratio",
        rows as f64 / candidates.max(1) as f64,
    );

    let lint = layer("lint.protocol", || {
        ccsql_lint::lint_protocol(&gen.spec, &VcAssignment::v2())
    });
    let findings = lint.diagnostics().len();
    it.expect(lint.is_clean(), || {
        format!("lint_protocol(V2): {findings} finding(s)")
    });
    it.count("lint.diagnostics", findings as f64);

    let results = layer("core.invariants", || invariants::check_all(&mut gen.db))
        .map_err(|e| format!("invariants: {e}"))?;
    let held = results.iter().filter(|r| r.holds()).count();
    it.expect(
        results.len() == answers::ASURA_INVARIANTS && held == results.len(),
        || format!("invariants: {held}/{} hold", results.len()),
    );
    it.count("core.invariants_checked", results.len() as f64);

    let cfg = AnalysisConfig {
        transitive_closure: true,
        ..AnalysisConfig::default()
    };
    let (mut depend_rows, mut vcg_cycles) = (0, 0);
    let assignments = [(VcAssignment::v1(), true), (VcAssignment::v2(), false)];
    for ((v, deadlocks), pinned_rows) in assignments.iter().zip(answers::ASURA_DEPEND_ROWS) {
        let deps = layer("core.depend", || protocol_dependency_table(&gen, v, &cfg))
            .map_err(|e| format!("{} dependency table: {e}", v.name))?;
        let cycles = layer("core.vcg", || Vcg::build(&deps).cycles()).len();
        let (free, ccl031) = layer("lint.flows", || {
            flows::analyze_protocol(&gen, v).map(|a| {
                let mut report = LintReport::new();
                a.lint(&mut report);
                let ccl031 = report
                    .diagnostics()
                    .iter()
                    .any(|d| d.code == codes::PARAM_WAIT_CYCLE);
                (a.deadlock_free_all_n(), ccl031)
            })
        })
        .map_err(|e| format!("{} flows: {e}", v.name))?;
        it.expect(deps.rows.len() == pinned_rows, || {
            format!("{} dependency table: {} rows", v.name, deps.rows.len())
        });
        it.expect(
            (cycles > 0, !free, ccl031) == (*deadlocks, *deadlocks, *deadlocks),
            || {
                format!(
                    "{}: {cycles} VCG cycle(s), deadlock-free for every N: {free}, CCL031: {ccl031}",
                    v.name
                )
            },
        );
        depend_rows += deps.rows.len();
        vcg_cycles += cycles;
    }
    it.count("core.depend_rows", depend_rows as f64);
    it.count("core.vcg_cycles", vcg_cycles as f64);

    let (outcome, steps) = layer("sim.run", || {
        let cfg = SimConfig {
            quads: 2,
            nodes_per_quad: 2,
            vc_capacity: 2,
            dedicated_mem_path: true,
            schedule: Schedule::Random(p.seed),
            max_steps: 10_000_000,
        };
        let mut sim = Sim::new(&gen, cfg, ccsql_sim::Workload::scripted(p.sim_ops.clone()));
        let outcome = sim.run().map_err(|e| format!("sim: {e}"))?;
        sim.audit()
            .map_err(|e| format!("sim coherence audit: {e}"))?;
        Ok::<_, String>((outcome, sim.stats.steps))
    })?;
    it.expect(matches!(outcome, Outcome::Quiescent), || {
        format!("sim ended {outcome:?}, not quiescent")
    });
    it.count("sim.steps", steps as f64);

    let opts = McOpts {
        budget: MC_BUDGET,
        symmetry: true,
        ..McOpts::default()
    };
    explore(it, &ASURA_MODEL, &opts, &answers::ASURA_MC);
    Ok(())
}

fn pass(ok: bool) -> Verdict {
    if ok {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

fn zoo(p: &Prepared, it: &mut Iteration) -> Result<(), String> {
    let vc = VcAssignment::v1();
    let opts = SpecMcOpts {
        agents: SPEC_AGENTS,
        symmetry: true,
        ..SpecMcOpts::default()
    };
    let (mut findings, mut spec_states, mut walk_steps) = (0, 0, 0);
    for ((name, text), want) in p.packs.iter().zip(&answers::ZOO) {
        let sf =
            layer("relalg.parse", || parse_specfile(text)).map_err(|e| format!("{name}: {e}"))?;
        let report = layer("lint.spec", || {
            ccsql_lint::lint_specfiles(&[&sf], &ProtocolSpec::eval_context())
        });
        findings += report.diagnostics().len();
        let solved = layer("relalg.solve", || solve_specfile_with(&sf, true));
        let deadlock_free = layer("lint.flows", || flows::analyze_specfile(&sf, &vc))
            .is_ok_and(|a| a.deadlock_free_all_n());
        let clean = match &solved {
            Ok((rel, failures)) if failures.is_empty() => Some(rel),
            _ => None,
        };
        let machine = clean.map(|rel| layer("mc.spec_build", || SpecMachine::build(&sf, rel)));
        let (mut specmc, mut specsim, mut states) = (Verdict::Skip, Verdict::Skip, None);
        if let Some(Ok(m)) = &machine {
            let t = Instant::now();
            let mc = layer("mc.spec_explore", || m.explore(&opts));
            it.mc_secs += t.elapsed().as_secs_f64();
            it.mc_states += mc.stats.states as u64;
            let walk = layer("mc.spec_sim", || {
                m.simulate(SPEC_AGENTS, p.seed, SPEC_SIM_STEPS)
            });
            specmc = pass(mc.verdict == SpecVerdict::Verified);
            specsim = match (walk.stuck.is_some(), want.specsim) {
                (true, _) => Verdict::Fail,
                (false, Verdict::Seeded) => Verdict::Seeded,
                (false, _) => pass(walk.completions > 0),
            };
            states = Some((mc.stats.states, mc.stats.orbit_states));
            spec_states += mc.stats.states;
            walk_steps += walk.steps;
        }
        let got = [
            pass(!report.failed()),
            pass(clean.is_some()),
            pass(deadlock_free),
            specmc,
            specsim,
        ];
        let pinned = [want.lint, want.solve, want.flows, want.specmc, want.specsim];
        it.expect(
            name == want.pack && got == pinned && states == want.spec_states,
            || {
                format!(
                    "{name}: verdicts {got:?} states {states:?}, want {pinned:?} {:?}",
                    want.spec_states
                )
            },
        );
    }
    it.count("lint.diagnostics", findings as f64);
    it.count("mc.spec_states", spec_states as f64);
    it.count("mc.spec_sim_steps", walk_steps as f64);
    Ok(())
}

/// mc-spill's exploration options, spilling under `spill_dir`.
pub fn mc_spill_opts(spill_dir: &Path) -> McOpts {
    McOpts {
        budget: MC_BUDGET,
        shards: SPILL_SHARDS,
        mem_budget: SPILL_MEM_BUDGET,
        spill_dir: Some(spill_dir.to_path_buf()),
        ..McOpts::default()
    }
}

fn mc_sym(it: &mut Iteration) -> Result<(), String> {
    let opts = McOpts {
        budget: MC_BUDGET,
        symmetry: true,
        ..McOpts::default()
    };
    explore(it, &MC_SYM_MODEL, &opts, &answers::MC_SYM);
    Ok(())
}

fn mc_spill(p: &Prepared, it: &mut Iteration) -> Result<(), String> {
    let base = p
        .spill_base
        .as_ref()
        .ok_or("mc-spill was prepared without a spill directory")?;
    let st = explore(
        it,
        &MC_SPILL_MODEL,
        &mc_spill_opts(base.path()),
        &answers::MC_SPILL,
    );
    it.expect(st.spilled_bytes > 0, || "mc-spill spilled nothing".into());
    it.expect(st.mem_peak_bytes <= SPILL_MEM_BUDGET, || {
        format!("resident peak {} bytes over the budget", st.mem_peak_bytes)
    });
    let left = std::fs::read_dir(base.path())
        .map_err(|e| format!("cannot list {}: {e}", base.path().display()))?
        .count();
    it.expect(left == 0, || format!("{left} spill entries left behind"));
    Ok(())
}

/// Explore `model` and check a `Verified` verdict with `want`'s counts.
pub fn explore(it: &mut Iteration, model: &Model, opts: &McOpts, want: &McAnswer) -> McStats {
    let t = Instant::now();
    let (outcome, st) = layer("mc.explore", || explore_with(model, model.initial(), opts));
    it.mc_secs += t.elapsed().as_secs_f64();
    it.mc_states += st.states as u64;
    let got = McAnswer {
        states: st.states,
        orbit_states: st.orbit_states,
        transitions: st.transitions,
        depth: st.depth,
    };
    it.expect(outcome == McOutcome::Verified && got == *want, || {
        format!("mc: {outcome:?} {got:?}, want Verified {want:?}")
    });
    it.count("mc.states", st.states as f64);
    it.count("mc.orbit_states", st.orbit_states as f64);
    it.count("mc.transitions", st.transitions as f64);
    it.count("mc.levels", st.levels as f64);
    it.count("mc.frontier_peak", st.frontier_peak as f64);
    it.count(
        "mc.dedup_ratio",
        st.dedup_hits as f64 / st.transitions.max(1) as f64,
    );
    it.count("mc.mem_peak_bytes", st.mem_peak_bytes as f64);
    it.count("mc.spilled_bytes", st.spilled_bytes as f64);
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, seed: u64) -> Iteration {
        let scratch = crate::out_dir().join(format!("test-{}", workload.name()));
        let p = prepare(workload, seed, &crate::specs_dir(), &scratch).expect("prepare");
        let it = iterate(&p);
        assert!(it.wrong.is_empty(), "{}: {:?}", workload.name(), it.wrong);
        assert!(it.mc_states > 0 && it.mc_secs > 0.0);
        it
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn asura_pipeline_verdicts_hold_on_several_seeds() {
        for seed in [1, 2, 977] {
            let it = smoke(Workload::AsuraPipeline, seed);
            assert_eq!(it.get("relalg.candidates"), Some(65_408.0));
            assert_eq!(it.get("core.invariants_checked"), Some(60.0));
            assert_eq!(it.get("mc.states"), Some(6_376.0));
            assert!(it.get("sim.steps").is_some_and(|s| s > 0.0));
        }
    }

    #[test]
    fn zoo_verdicts_hold_on_several_seeds() {
        for seed in [1, 2, 3, 5, 7, 977] {
            let it = smoke(Workload::Zoo, seed);
            assert_eq!(it.get("mc.spec_states"), Some(600.0));
        }
    }

    #[test]
    fn mc_sym_verdict_holds() {
        let it = smoke(Workload::McSym, 1);
        assert_eq!(it.get("mc.spilled_bytes"), Some(0.0));
    }

    #[test]
    fn mc_spill_verdict_holds_and_cleans_up() {
        let it = smoke(Workload::McSpill, 1);
        assert!(it.get("mc.spilled_bytes").is_some_and(|b| b > 0.0));
    }

    #[test]
    fn a_wrong_answer_fails_the_iteration() {
        let opts = McOpts {
            symmetry: true,
            ..McOpts::default()
        };
        let want = McAnswer {
            states: answers::ASURA_MC.states + 1,
            ..answers::ASURA_MC
        };
        let mut it = Iteration::default();
        explore(&mut it, &ASURA_MODEL, &opts, &want);
        assert_eq!(it.wrong.len(), 1, "{:?}", it.wrong);
    }
}
