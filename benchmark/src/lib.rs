//! # ccsql benchmark
//!
//! Time to verdict of the ccsql pipeline on four workloads
//! ([`workloads::Workload`]), with per-layer attribution measured from
//! outside: the harness wraps each call into a layer's public
//! functions in a flight span and folds the spans ([`fold`]), and times
//! the model checker's hot-path kernels on a seeded state sample
//! ([`kernels`]).
//!
//! One run measures one workload, closed-loop: one caller on one
//! thread, each iteration starting when the previous one ends, for a
//! fixed number of seconds. An untraced run reports the end-to-end
//! metrics; a traced run reports the per-layer ones. Every iteration's
//! verdicts are checked against [`answers`]. See `README.md` for the
//! metric definitions.

pub mod answers;
pub mod fold;
pub mod kernels;
pub mod stats;
pub mod workloads;

use ccsql_mc::spill::SpillDir;
use ccsql_obs::json::JsonObj;
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{iterate, Iteration, Prepared, Workload};

/// The repository's spec packs, read by the zoo workload.
pub fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../specs")
}

/// Where runs write traces and spill files (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-ups per untraced run; their median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Problems kept for the report; the rest are only counted.
const PROBLEMS_KEPT: usize = 10;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Supporting numbers (quartiles, sample count, ...), printed and
    /// written to `--out` but not part of the result line.
    pub extra: Vec<(&'static str, f64)>,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            // The result line holds numbers only: a share of an empty
            // measurement reports 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            extra: Vec::new(),
        }
    }

    fn with(mut self, extra: &[(&'static str, f64)]) -> Metric {
        self.extra.extend_from_slice(extra);
        self
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Iterations run, warm-ups included: each yields one set of
    /// verdicts.
    pub attempted: u64,
    /// Iterations with a wrong or aborted verdict.
    pub failed: u64,
    /// The first few wrong verdicts.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn result_json(&self) -> String {
        self.json(false)
    }

    /// The result with the run's parameters, problems and each
    /// metric's supporting numbers.
    pub fn detail_json(&self) -> String {
        self.json(true)
    }

    fn json(&self, detail: bool) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut o = JsonObj::new().f64("value", m.value).str("unit", m.unit);
            if detail {
                for &(k, v) in &m.extra {
                    o = o.f64(k, v);
                }
            }
            metrics = metrics.raw(&m.name, &o.finish());
        }
        let mut o = JsonObj::new();
        if detail {
            let mut problems = String::from("[");
            for (i, p) in self.problems.iter().enumerate() {
                if i > 0 {
                    problems.push(',');
                }
                ccsql_obs::json::write_json_str(&mut problems, p);
            }
            problems.push(']');
            o = o
                .str("workload", self.workload.name())
                .u64("seed", self.seed)
                .u64("trace", u64::from(self.trace))
                .raw("problems", &problems);
        }
        o.raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// One line per metric: name, value, unit and supporting numbers.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} seed={} trace={}: {} verdict(s), {} wrong\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        for p in &self.problems {
            out.push_str(&format!("  WRONG {p}\n"));
        }
        for m in &self.metrics {
            let extra: Vec<String> = m.extra.iter().map(|(k, v)| format!("{k}={v:.6}")).collect();
            out.push_str(&format!(
                "{:<28} {:>18.6} {:<8} {}\n",
                m.name,
                m.value,
                m.unit,
                extra.join(" ")
            ));
        }
        out
    }
}

/// Verdict tally over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, it: &Iteration) {
        self.attempted += 1;
        if !it.wrong.is_empty() {
            self.failed += 1;
            let room = PROBLEMS_KEPT.saturating_sub(self.problems.len());
            self.problems.extend(it.wrong.iter().take(room).cloned());
        }
    }
}

/// The iterations of one timed loop.
#[derive(Default)]
struct Pass {
    /// Seconds per iteration.
    secs: Vec<f64>,
    /// Seconds per iteration spent in model checking.
    mc_secs: Vec<f64>,
    /// The last iteration (its counts are exact, the same every time).
    last: Iteration,
}

/// Run iterations back to back until `seconds` have passed (at least
/// one), each inside a `bench/iteration` span, adding them to `pass`.
fn measure(p: &Prepared, seconds: f64, tally: &mut Tally, pass: &mut Pass) {
    let start = Instant::now();
    loop {
        let span = ccsql_obs::flight::span("bench", "iteration");
        let t = Instant::now();
        let it = iterate(p);
        pass.secs.push(t.elapsed().as_secs_f64());
        drop(span);
        tally.record(&it);
        pass.mc_secs.push(it.mc_secs);
        pass.last = it;
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Set the workload up: read the specs, make the seeded inputs and,
/// where the workload warms up, run one untimed iteration. Returns the
/// inputs and the seconds it took.
fn set_up(workload: Workload, seed: u64, tally: &mut Tally) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let p = workloads::prepare(workload, seed, &specs_dir(), &out_dir())?;
    if workload.warms_up() {
        tally.record(&iterate(&p));
    }
    Ok((p, t.elapsed().as_secs_f64()))
}

/// Run `workload` for `seconds`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut tally = Tally::default();
    let metrics = if trace {
        let (p, _) = set_up(workload, seed, &mut tally)?;
        traced(&p, seconds, &mut tally)?
    } else {
        // A fresh set-up before each of SETUP_REPEATS equal stretches of
        // the run: the set-up median then samples the host across the
        // whole run, as the iteration median does, rather than only the
        // first moments of a new process.
        let mut setups = Vec::new();
        let mut pass = Pass::default();
        for _ in 0..SETUP_REPEATS {
            let (p, secs) = set_up(workload, seed, &mut tally)?;
            setups.push(secs);
            measure(&p, seconds / SETUP_REPEATS as f64, &mut tally, &mut pass);
        }
        let t = Summary::of(&pass.secs);
        let setup = Summary::of(&setups);
        let rate = pass.last.mc_states as f64 / median(&pass.mc_secs);
        vec![
            Metric::new("time_to_verdict_s", t.median, "s").with(&[
                ("q1", t.q1),
                ("q3", t.q3),
                ("n", t.n as f64),
                ("tail", t.tail),
                ("tail_percentile", t.tail_pct),
            ]),
            Metric::new("states_per_sec", rate, "1/s"),
            Metric::new("peak_rss_mb", stats::peak_rss_bytes() as f64 / 1e6, "MB"),
            Metric::new("setup_s", setup.median, "s").with(&[
                ("q1", setup.q1),
                ("q3", setup.q3),
                ("n", setup.n as f64),
            ]),
        ]
    };
    Ok(Report {
        workload,
        seed,
        trace,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
    })
}

/// Per-layer seconds reported from the layer spans, as `<layer>_s`.
const LAYERS: [&str; 13] = [
    "relalg.parse",
    "relalg.solve",
    "lint.protocol",
    "lint.spec",
    "lint.flows",
    "core.invariants",
    "core.depend",
    "core.vcg",
    "sim.run",
    "mc.explore",
    "mc.spec_build",
    "mc.spec_explore",
    "mc.spec_sim",
];

/// The traced run: half the time untraced, half with the flight
/// recorder on, then the kernels (and on mc-spill a resident twin of
/// the exploration). Writes `out/bench-trace-<workload>.json`.
fn traced(p: &Prepared, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (cpu0, wait0) = stats::thread_schedstat();
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    measure(p, seconds / 2.0, tally, &mut plain);
    ccsql_obs::flight::set_enabled(true);
    measure(p, seconds / 2.0, tally, &mut traced);
    ccsql_obs::flight::set_enabled(false);
    let (cpu1, wait1) = stats::thread_schedstat();

    let spans = ccsql_obs::flight::snapshot();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("bench-trace-{}.json", p.workload.name()));
    std::fs::write(&path, ccsql_obs::flight::chrome_trace_json(&spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let f = fold::fold(&spans);

    let count = |name: &str| traced.last.get(name).unwrap_or(0.0);
    let layer_s = |name: &str| f.layer_s.get(name).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let (states, transitions) = (count("mc.states"), count("mc.transitions"));
    let explore_s = median(&plain.mc_secs);

    let mut k = kernels::Kernels::default();
    let (mut expand_share, mut canon_share, mut spill_overhead) = (0.0, 0.0, 0.0);
    if let Some((model, symmetry)) = p.workload.mc_model() {
        let spill = if p.workload == Workload::McSpill {
            Some(SpillDir::create(Some(&dir)).map_err(|e| format!("spill kernel dir: {e}"))?)
        } else {
            None
        };
        k = kernels::run(&model, &p.sample, spill.as_ref())
            .map_err(|e| format!("spill kernel: {e}"))?;
        expand_share = states * k.expand_ns * 1e-9 / explore_s;
        if symmetry {
            canon_share = (transitions * k.canon_ns + states * k.orbit_size_ns) * 1e-9 / explore_s;
        }
        if let Some(spill) = &spill {
            // The same space fully resident: what spilling costs.
            let mut twin = Iteration::default();
            let opts = ccsql_mc::McOpts {
                mem_budget: 0,
                ..workloads::mc_spill_opts(spill.path())
            };
            workloads::explore(&mut twin, &model, &opts, &answers::MC_SPILL);
            tally.record(&twin);
            spill_overhead = explore_s / twin.mc_secs - 1.0;
        }
    }

    let mut m: Vec<Metric> = LAYERS
        .iter()
        .map(|l| Metric::new(&format!("{l}_s"), layer_s(l), "s"))
        .collect();
    let candidates = count("relalg.candidates");
    let spec_sim_steps = count("mc.spec_sim_steps");
    let untraced = median(&plain.secs);
    m.extend([
        Metric::new("relalg.compile_s", f.compile_s, "s"),
        Metric::new("relalg.candidates", candidates, "count"),
        Metric::new(
            "relalg.candidates_per_sec",
            ratio(candidates, layer_s("relalg.solve")),
            "1/s",
        ),
        Metric::new(
            "relalg.survivor_ratio",
            count("relalg.survivor_ratio"),
            "ratio",
        ),
        Metric::new("lint.diagnostics", count("lint.diagnostics"), "count"),
        Metric::new(
            "core.invariants_checked",
            count("core.invariants_checked"),
            "count",
        ),
        Metric::new("core.depend_rows", count("core.depend_rows"), "count"),
        Metric::new("core.vcg_cycles", count("core.vcg_cycles"), "count"),
        Metric::new("sim.steps", count("sim.steps"), "count"),
        Metric::new(
            "sim.steps_per_sec",
            ratio(count("sim.steps"), layer_s("sim.run")),
            "1/s",
        ),
        Metric::new("mc.states", states, "count"),
        Metric::new("mc.orbit_states", count("mc.orbit_states"), "count"),
        Metric::new("mc.transitions", transitions, "count"),
        Metric::new("mc.levels", count("mc.levels"), "count"),
        Metric::new("mc.frontier_peak", count("mc.frontier_peak"), "count"),
        Metric::new("mc.dedup_ratio", count("mc.dedup_ratio"), "ratio"),
        Metric::new("mc.mem_peak_bytes", count("mc.mem_peak_bytes"), "B"),
        Metric::new("mc.spilled_bytes", count("mc.spilled_bytes"), "B"),
        Metric::new("mc.level_self_s", f.level_self_s, "s"),
        Metric::new("mc.expand_ns", k.expand_ns, "ns"),
        Metric::new("mc.successors_per_state", k.successors_per_state, "count"),
        Metric::new("mc.canon_ns", k.canon_ns, "ns"),
        Metric::new("mc.orbit_size_ns", k.orbit_size_ns, "ns"),
        Metric::new("mc.expand_share", expand_share, "ratio"),
        Metric::new("mc.canon_share", canon_share, "ratio"),
        Metric::new(
            "mc.engine_rest_s",
            if k.expand_ns > 0.0 {
                explore_s * (1.0 - expand_share - canon_share)
            } else {
                0.0
            },
            "s",
        ),
        Metric::new("mc.spill_write_mb_s", k.spill_write_mb_s, "MB/s"),
        Metric::new("mc.spill_read_mb_s", k.spill_read_mb_s, "MB/s"),
        Metric::new(
            "mc.spill_bytes_per_state",
            ratio(count("mc.spilled_bytes"), states),
            "B",
        ),
        Metric::new("mc.spill_overhead", spill_overhead, "ratio"),
        Metric::new("mc.spec_states", count("mc.spec_states"), "count"),
        Metric::new(
            "mc.spec_sim_steps_per_sec",
            ratio(spec_sim_steps, layer_s("mc.spec_sim")),
            "1/s",
        ),
        Metric::new(
            "obs.trace_overhead",
            median(&traced.secs) / untraced - 1.0,
            "ratio",
        )
        .with(&[
            ("traced_n", traced.secs.len() as f64),
            ("untraced_n", plain.secs.len() as f64),
        ]),
        Metric::new("obs.spans", f.spans_per_iteration, "count"),
        Metric::new("obs.span_coverage", f.coverage, "ratio").with(&[("min", f.min_coverage)]),
        Metric::new("host.cpu_s", cpu1.saturating_sub(cpu0) as f64 / 1e9, "s"),
        Metric::new(
            "host.runqueue_wait_s",
            wait1.saturating_sub(wait0) as f64 / 1e9,
            "s",
        ),
    ]);
    m.extend(
        f.stage_self_s
            .iter()
            .map(|(stage, s)| Metric::new(&format!("stage.{stage}.self_s"), *s, "s")),
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = text[start..].find(']').expect("a metric list") + start;
        text[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .split('"')
                    .nth(1)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn runs_report_the_metrics_the_benchmark_declares() {
        let plain = run(Workload::Zoo, 3, 0.05, false).expect("untraced run");
        assert!(plain.correct(), "{:?}", plain.problems);
        // Every warm-up and at least one timed iteration after each.
        assert!(plain.attempted >= 2 * SETUP_REPEATS as u64);
        assert_eq!(names(&plain), declared("end_to_end"));
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            plain.metrics
        );
        let line = plain.result_json();
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        assert!(line.contains("\"time_to_verdict_s\":{\"value\":"), "{line}");

        let traced = run(Workload::Zoo, 3, 0.05, true).expect("traced run");
        assert!(traced.correct(), "{:?}", traced.problems);
        assert_eq!(names(&traced), declared("per_layer"));
        let trace = out_dir().join("bench-trace-zoo.json");
        assert!(std::fs::read_to_string(trace)
            .unwrap()
            .contains("\"cat\":\"bench\""));
    }
}
