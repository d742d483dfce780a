//! Fold the traced pass's flight spans into per-layer times.
//!
//! The harness records one `bench/iteration` span per traced iteration
//! and, under it, one `bench/<layer>` span around each call into a
//! layer (`workloads::layer`). The library's own spans
//! (`solve/*`, `mc/level`, ...) nest inside those.

use crate::stats::median;
use ccsql_obs::flight::{stage_summary, SpanNode};
use std::collections::BTreeMap;

/// Stages whose self time is reported: the harness's own and those of
/// the library spans inside its layer spans.
pub const STAGES: [&str; 7] = ["bench", "solve", "lint", "flows", "depend", "sim", "mc"];

/// Per-iteration times folded from one traced pass.
#[derive(Debug, Default)]
pub struct Fold {
    pub iterations: usize,
    /// Median over iterations of each layer's summed span time (s).
    pub layer_s: BTreeMap<String, f64>,
    /// Median per iteration of the solver's constraint-compile spans (s).
    pub compile_s: f64,
    /// Median per iteration of the engine's per-level span self time (s).
    pub level_self_s: f64,
    /// The share of the iterations' wall time their layer spans cover,
    /// over all iterations and in the worst one. A preemption between
    /// two layer calls shows in the worst iteration only.
    pub coverage: f64,
    pub min_coverage: f64,
    pub spans_per_iteration: f64,
    /// Self time per iteration of each of [`STAGES`] (s).
    pub stage_self_s: Vec<(&'static str, f64)>,
}

/// `covered` over `total` microseconds; an empty interval is covered.
fn share(covered: u64, total: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

/// Fold `spans`, a complete snapshot (span `id` at index `id - 1`).
pub fn fold(spans: &[SpanNode]) -> Fold {
    let parent_of = |s: &SpanNode| spans.get((s.parent as usize).wrapping_sub(1));
    let mut child_us = vec![0u64; spans.len() + 1];
    for s in spans {
        if let Some(p) = parent_of(s) {
            child_us[p.id as usize] += s.dur_us;
        }
    }
    // Iteration index of every span under a `bench/iteration` root.
    let mut iter_of: Vec<Option<usize>> = vec![None; spans.len() + 1];
    let mut iter_us = Vec::new();
    for s in spans {
        iter_of[s.id as usize] = match parent_of(s) {
            Some(p) => iter_of[p.id as usize],
            None if s.stage == "bench" && s.name == "iteration" => {
                iter_us.push(s.dur_us);
                Some(iter_us.len() - 1)
            }
            None => None,
        };
    }
    let n = iter_us.len();
    let mut layers: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let (mut covered, mut compile, mut level_self) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    for s in spans {
        let Some(i) = iter_of[s.id as usize] else {
            continue;
        };
        let under_iteration =
            parent_of(s).is_some_and(|p| p.stage == "bench" && p.name == "iteration");
        match (s.stage, s.name.as_str()) {
            ("bench", name) if under_iteration => {
                layers.entry(name).or_insert_with(|| vec![0; n])[i] += s.dur_us;
                covered[i] += s.dur_us;
            }
            ("solve", "compile") => compile[i] += s.dur_us,
            ("mc", "level") => level_self[i] += s.dur_us.saturating_sub(child_us[s.id as usize]),
            _ => {}
        }
    }
    let secs = |us: &[u64]| median(&us.iter().map(|&u| u as f64 / 1e6).collect::<Vec<_>>());
    let summary = stage_summary(spans);
    Fold {
        iterations: n,
        layer_s: layers
            .iter()
            .map(|(name, us)| (name.to_string(), secs(us)))
            .collect(),
        compile_s: secs(&compile),
        level_self_s: secs(&level_self),
        coverage: share(covered.iter().sum(), iter_us.iter().sum()),
        min_coverage: covered
            .iter()
            .zip(&iter_us)
            .map(|(&c, &t)| share(c, t))
            .fold(f64::INFINITY, f64::min),
        spans_per_iteration: spans.len() as f64 / n.max(1) as f64,
        stage_self_s: STAGES
            .iter()
            .map(|&stage| {
                let us = summary
                    .iter()
                    .find(|s| s.stage == stage)
                    .map_or(0, |s| s.self_us);
                (stage, us as f64 / 1e6 / n.max(1) as f64)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        stage: &'static str,
        name: &str,
        start_us: u64,
        dur_us: u64,
    ) -> SpanNode {
        SpanNode {
            id,
            parent,
            track: 1,
            stage,
            name: name.to_string(),
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn layers_levels_and_coverage_fold_per_iteration() {
        let spans = vec![
            // Iteration 1: 100 us, layers cover 96.
            span(1, 0, "bench", "iteration", 0, 100),
            span(2, 1, "bench", "relalg.solve", 1, 40),
            span(3, 2, "solve", "compile", 2, 10),
            span(4, 1, "bench", "mc.explore", 42, 56),
            span(5, 4, "mc", "explore", 42, 56),
            span(6, 5, "mc", "level", 43, 30),
            span(7, 5, "mc", "level", 73, 20),
            // Iteration 2: 200 us, layers cover 190.
            span(8, 0, "bench", "iteration", 100, 200),
            span(9, 8, "bench", "relalg.solve", 101, 90),
            span(10, 9, "solve", "compile", 102, 30),
            span(11, 8, "bench", "mc.explore", 192, 100),
        ];
        let f = fold(&spans);
        assert_eq!(f.iterations, 2);
        close(f.layer_s["relalg.solve"], 65e-6);
        close(f.layer_s["mc.explore"], 78e-6);
        close(f.compile_s, 20e-6);
        close(f.level_self_s, 25e-6);
        close(f.coverage, 286.0 / 300.0);
        close(f.min_coverage, 0.95);
        close(f.spans_per_iteration, 5.5);
        // The harness's own stage keeps what the library spans leave
        // uncovered: (4 + 30 + 0) + (10 + 60 + 100) us over two
        // iterations.
        let stage = |name: &str| f.stage_self_s.iter().find(|s| s.0 == name).unwrap().1;
        close(stage("bench"), 102e-6);
        close(stage("mc"), 28e-6);
        close(stage("depend"), 0.0);
    }

    fn close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-12, "{got} != {want}");
    }

    #[test]
    fn spans_outside_iterations_are_ignored() {
        let spans = vec![
            span(1, 0, "mc", "explore", 0, 50),
            span(2, 1, "mc", "level", 0, 50),
            span(3, 0, "bench", "iteration", 60, 10),
            span(4, 3, "bench", "sim.run", 61, 9),
        ];
        let f = fold(&spans);
        assert_eq!(f.iterations, 1);
        close(f.level_self_s, 0.0);
        assert_eq!(f.layer_s.len(), 1);
        close(f.coverage, 0.9);
        close(f.min_coverage, 0.9);
    }
}
