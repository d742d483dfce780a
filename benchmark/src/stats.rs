//! Order statistics over timing samples, and parsers for the two
//! `/proc` files the harness reads.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// The highest percentile reported as the tail. On a shared host the
/// higher ones sit among the few iterations a neighbour slowed down,
/// and move from one run to the next by far more than the median.
pub const TAIL_MAX_PCT: usize = 90;

/// Quantile `q` (0..=1) of ascending `sorted`, linearly interpolated
/// between closest ranks. NaN for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Median, quartiles and tail of a set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest sample with at least [`TAIL_BEYOND`] samples above
    /// it, but not above the [`TAIL_MAX_PCT`] percentile; the maximum
    /// when that sample would not lie above the median (fewer than
    /// `2 * TAIL_BEYOND + 2` samples).
    pub tail: f64,
    /// The percentile `tail` stands at, 0..=100.
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let (tail, tail_pct) = if n >= 2 * TAIL_BEYOND + 2 {
            let beyond = TAIL_BEYOND.max(n * (100 - TAIL_MAX_PCT) / 100);
            (s[n - beyond - 1], 100.0 * (n - beyond) as f64 / n as f64)
        } else {
            (s.last().copied().unwrap_or(f64::NAN), 100.0)
        };
        Summary {
            n,
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            tail,
            tail_pct,
        }
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib * 1024),
        _ => None,
    }
}

/// `(on-CPU ns, run-queue wait ns)` from a `/proc/<pid>/schedstat`
/// text (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Peak resident set of this process in bytes (0 where `/proc` is
/// missing).
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm(&s))
        .unwrap_or(0)
}

/// This thread's `(on-CPU ns, run-queue wait ns)` so far (zeros where
/// `/proc` is missing).
pub fn thread_schedstat() -> (u64, u64) {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (3, 3.0, 2.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // 60 samples: the 11th largest is the p83.3 sample.
        let samples: Vec<f64> = (1..=60).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail, 50.0);
        assert_eq!(samples.iter().filter(|&&x| x > s.tail).count(), 10);
        assert!((s.tail_pct - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        // 1000 samples: p99 has ten beyond it, but the tail stops at p90.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.tail, s.tail_pct), (900.0, 90.0));
        // 22 samples: the 11th largest is the first above the median.
        let samples: Vec<f64> = (1..=22).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.median, s.tail), (11.5, 12.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let s = Summary::of(&[4.0, 6.0, 5.0]);
        assert_eq!((s.tail, s.tail_pct), (6.0, 100.0));
        // 21 samples: the 11th largest would be the median itself.
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, 21.0);
        let s = Summary::of(&[]);
        assert!(s.tail.is_nan() && s.median.is_nan());
    }

    #[test]
    fn vm_hwm_is_read_in_bytes() {
        let status = "Name:\tccsql\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t garbage kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("123456789 4567 89\n"),
            Some((123456789, 4567))
        );
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn this_process_reports_a_peak() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
