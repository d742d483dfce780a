//! Kernels of the model checker's hot path, timed on a seeded sample of
//! reachable states outside the engine: the per-state expand work
//! (unpack, property check, successors, pack), the per-successor
//! symmetry work (canon, orbit size), and the spill run codec.

use crate::stats::median;
use ccsql_mc::spill::{RunReader, RunWriter, SpillDir};
use ccsql_mc::{canon, orbit_size, pack, unpack, Compact, Model};
use ccsql_obs::SplitMix64;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// States in the kernel sample.
pub const SAMPLE_STATES: usize = 100_000;
/// A walk restarts from the initial state with probability 1/this per
/// step, so the sample covers shallow and deep BFS levels.
const RESTART_ONE_IN: u64 = 64;
/// Times each kernel runs; the median is reported.
const PASSES: usize = 3;
/// Sorted runs written and read back by the spill kernel.
const SPILL_RUNS: usize = 8;

/// A seeded sample of reachable states, packed (and canonicalised when
/// `symmetry` is on, as the engine stores them): the states of seeded
/// random walks from the initial state.
pub fn state_sample(model: &Model, symmetry: bool, seed: u64) -> Vec<Compact> {
    let mut rng = SplitMix64::new(seed);
    let init = model.initial();
    let mut s = init.clone();
    let mut out = Vec::with_capacity(SAMPLE_STATES);
    while out.len() < SAMPLE_STATES {
        let c = pack(&s);
        out.push(if symmetry { canon(c) } else { c });
        let mut succ = model.successors(&s);
        s = if succ.is_empty() || rng.gen_range_u64(RESTART_ONE_IN) == 0 {
            init.clone()
        } else {
            let i = rng.gen_range_u64(succ.len() as u64) as usize;
            succ.swap_remove(i)
        };
    }
    out
}

/// Kernel timings on one sample.
#[derive(Clone, Debug, Default)]
pub struct Kernels {
    /// Nanoseconds per expanded state: unpack, check, successors, pack.
    pub expand_ns: f64,
    pub successors_per_state: f64,
    /// Nanoseconds per successor canonicalised.
    pub canon_ns: f64,
    /// Nanoseconds per orbit-size computation on a canonical word.
    pub orbit_size_ns: f64,
    /// Encoded megabytes (1e6 bytes) per second through the spill run
    /// writer and reader; 0 unless the spill kernel ran.
    pub spill_write_mb_s: f64,
    pub spill_read_mb_s: f64,
}

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Expand every sampled state as the engine does: the successor words
/// it emits, and the nanoseconds per state it took.
fn expand(model: &Model, sample: &[Compact]) -> (Vec<Compact>, f64) {
    let mut succ = Vec::with_capacity(sample.len() * 6);
    let t = Instant::now();
    for &c in sample {
        let s = unpack(c);
        black_box(model.check(&s));
        succ.extend(model.successors(&s).iter().map(pack));
    }
    (succ, ns_per(t, sample.len()))
}

/// Time the expand and symmetry kernels on `sample`, and the spill
/// codec on the sorted successor words when `spill` names a directory.
pub fn run(model: &Model, sample: &[Compact], spill: Option<&SpillDir>) -> io::Result<Kernels> {
    let mut expand_ns = Vec::new();
    let mut canon_ns = Vec::new();
    let mut orbit_ns = Vec::new();
    let mut words = Vec::new();
    for _ in 0..PASSES {
        let (succ, ns) = expand(model, sample);
        expand_ns.push(ns);
        let t = Instant::now();
        let reps: Vec<Compact> = succ.iter().map(|&c| canon(c)).collect();
        canon_ns.push(ns_per(t, succ.len()));
        let t = Instant::now();
        black_box(reps.iter().map(|&c| orbit_size(c)).sum::<u64>());
        orbit_ns.push(ns_per(t, reps.len()));
        words = succ;
    }
    let mut k = Kernels {
        expand_ns: median(&expand_ns),
        successors_per_state: words.len() as f64 / sample.len().max(1) as f64,
        canon_ns: median(&canon_ns),
        orbit_size_ns: median(&orbit_ns),
        ..Kernels::default()
    };
    if let Some(dir) = spill {
        words.sort_unstable();
        words.dedup();
        (k.spill_write_mb_s, k.spill_read_mb_s) = spill_io(&words, dir)?;
    }
    Ok(k)
}

/// Write `words` (ascending) as sorted runs and read them back, as the
/// engine's spill path does; `(write, read)` encoded MB/s.
fn spill_io(words: &[Compact], dir: &SpillDir) -> io::Result<(f64, f64)> {
    let (mut bytes, mut write_s, mut read_s) = (0u64, 0f64, 0f64);
    let mut buf = [0u8; 16];
    for _ in 0..SPILL_RUNS {
        let path = dir.next_file("kernel");
        let t = Instant::now();
        let mut w = RunWriter::create(&path, 16, 0)?;
        for c in words {
            w.push(&c.0.to_be_bytes(), &[])?;
        }
        let (count, encoded) = w.finish()?;
        write_s += t.elapsed().as_secs_f64();
        bytes += encoded;
        let t = Instant::now();
        let mut r = RunReader::open(&path, 16, 0, count)?;
        for c in words {
            if !r.next_into(&mut buf, &mut [])? || u128::from_be_bytes(buf) != c.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "spill kernel read back a different run",
                ));
            }
        }
        read_s += t.elapsed().as_secs_f64();
        std::fs::remove_file(&path)?;
    }
    let mb = bytes as f64 / 1e6;
    Ok((mb / write_s.max(1e-9), mb / read_s.max(1e-9)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model {
            nodes: 3,
            quota: 2,
            resp_depth: 2,
        }
    }

    #[test]
    fn sample_is_seeded_and_reachable() {
        let a = state_sample(&model(), true, 7);
        assert_eq!(a.len(), SAMPLE_STATES);
        assert_eq!(a, state_sample(&model(), true, 7));
        assert_ne!(a, state_sample(&model(), true, 8));
        assert!(a.iter().all(|&c| canon(c) == c));
        assert!(a.iter().all(|&c| model().check(&unpack(c)).is_none()));
    }

    #[test]
    fn kernels_time_every_stage_and_round_trip_spill_runs() {
        let sample = state_sample(&model(), false, 1);
        let base = crate::out_dir().join("test-kernels");
        std::fs::create_dir_all(&base).unwrap();
        let dir = SpillDir::create(Some(&base)).unwrap();
        let k = run(&model(), &sample, Some(&dir)).unwrap();
        assert!(k.expand_ns > 0.0 && k.canon_ns > 0.0 && k.orbit_size_ns > 0.0);
        assert!(k.successors_per_state > 1.0);
        assert!(k.spill_write_mb_s > 0.0 && k.spill_read_mb_s > 0.0);
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
    }
}
