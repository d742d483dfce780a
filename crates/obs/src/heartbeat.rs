//! Live progress heartbeats: a monotonic-clock ticker thread for the
//! long-running stages (`mc`, `fuzz`, `solve`).
//!
//! A [`Ticker`] wakes every `--heartbeat[=MS]` interval, calls a
//! caller-supplied snapshot closure, and prints one progress line to
//! **stderr**. On drop it signals the thread, which emits a final tick
//! — so even a run shorter than the interval leaves at least one line,
//! and the last line reflects the end-of-run counters — and joins it.
//!
//! ## Why heartbeats are provably result-neutral
//!
//! The information flow is one-way: the workload publishes progress by
//! storing into shared atomics (once per BFS level / fuzz round — never
//! per state), and the ticker only *loads* those atomics. The workload
//! never reads anything the ticker writes, takes no lock the hot loop
//! contends on, and the ticker writes only to stderr — never to the
//! stdout result. Outputs are therefore byte-identical
//! with heartbeats on or off; `crates/cli` gates this in tests.
//!
//! ## Monotonic-clock rule
//!
//! All timing here (tick scheduling, elapsed seconds in the lines) uses
//! [`Instant`], never `SystemTime`: wall clocks can jump backwards
//! (NTP, suspend), which would yield negative rates and non-monotonic
//! elapsed times.

use crate::flight::FieldValue;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Heartbeat interval in milliseconds; 0 = disabled (the default).
static HEARTBEAT_MS: AtomicU64 = AtomicU64::new(0);

/// Default interval when `--heartbeat` is given without a value.
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;

/// Current heartbeat interval in milliseconds (0 = off).
#[inline]
pub fn heartbeat_ms() -> u64 {
    HEARTBEAT_MS.load(Ordering::Relaxed)
}

/// Set the heartbeat interval; 0 disables ticking.
pub fn set_heartbeat_ms(ms: u64) {
    HEARTBEAT_MS.store(ms, Ordering::Relaxed);
}

type Snap = dyn Fn() -> Vec<(&'static str, FieldValue)> + Send + 'static;

struct Shared {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// A live-progress ticker for one stage. Construct with
/// [`Ticker::start`]; drop to stop (final tick + join). Inert — no
/// thread spawned — when the heartbeat interval is 0.
pub struct Ticker {
    inner: Option<(Arc<Shared>, JoinHandle<()>)>,
}

impl Ticker {
    /// Start a ticker for `stage`. `snap` must only *read* shared state
    /// (atomics published by the workload) — see the module docs for
    /// the neutrality argument. Returns an inert ticker when heartbeats
    /// are disabled.
    pub fn start<F>(stage: &'static str, snap: F) -> Ticker
    where
        F: Fn() -> Vec<(&'static str, FieldValue)> + Send + 'static,
    {
        let ms = heartbeat_ms();
        if ms == 0 {
            return Ticker { inner: None };
        }
        let shared = Arc::new(Shared {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let snap: Box<Snap> = Box::new(snap);
        let handle = std::thread::Builder::new()
            .name(format!("heartbeat-{stage}"))
            .spawn(move || {
                let epoch = Instant::now();
                let mut stopped = thread_shared.stopped.lock().unwrap();
                while !*stopped {
                    let (guard, _timeout) = thread_shared
                        .cv
                        .wait_timeout(stopped, Duration::from_millis(ms))
                        .unwrap();
                    stopped = guard;
                    if !*stopped {
                        emit_tick(stage, epoch, &snap, false);
                    }
                }
                drop(stopped);
                // Final tick: a run shorter than one interval still
                // leaves a line, and the last line reflects the
                // end-of-run counters.
                emit_tick(stage, epoch, &snap, true);
            })
            .expect("spawn heartbeat thread");
        Ticker {
            inner: Some((shared, handle)),
        }
    }

    /// Is a ticker thread actually running?
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        if let Some((shared, handle)) = self.inner.take() {
            *shared.stopped.lock().unwrap() = true;
            shared.cv.notify_all();
            let _ = handle.join();
        }
    }
}

fn emit_tick(stage: &'static str, epoch: Instant, snap: &Snap, fin: bool) {
    let mut line = format!("ccsql[{stage}] +{:.1}s", epoch.elapsed().as_secs_f64());
    for (k, v) in snap() {
        write!(line, " {k}={v}").expect("writing to a String cannot fail");
    }
    if fin {
        line.push_str(" final=1");
    }
    eprintln!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The interval is process-global: tests that set it run one at a
    /// time.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// A snapshot closure reading `states`; it counts its calls into
    /// `seen.0` and keeps the last value it read in `seen.1`.
    fn snapshot(
        states: &Arc<AtomicU64>,
        seen: &Arc<Mutex<(u64, u64)>>,
    ) -> impl Fn() -> Vec<(&'static str, FieldValue)> + Send + 'static {
        let (states, seen) = (Arc::clone(states), Arc::clone(seen));
        move || {
            let v = states.load(Ordering::Relaxed);
            let mut seen = seen.lock().unwrap();
            *seen = (seen.0 + 1, v);
            vec![("states", FieldValue::U64(v))]
        }
    }

    #[test]
    fn disabled_ticker_is_inert() {
        let _serial = SERIAL.lock().unwrap();
        set_heartbeat_ms(0);
        let seen = Arc::new(Mutex::new((0, 0)));
        let t = Ticker::start("test_hb_off", snapshot(&Arc::default(), &seen));
        assert!(!t.active());
        drop(t);
        assert_eq!(seen.lock().unwrap().0, 0, "no thread, no snapshot call");
    }

    #[test]
    fn final_tick_reads_the_published_atomic() {
        let _serial = SERIAL.lock().unwrap();
        set_heartbeat_ms(2);
        let (counter, seen) = (Arc::new(AtomicU64::new(0)), Arc::new(Mutex::new((0, 0))));
        let t = Ticker::start("test_hb_on", snapshot(&counter, &seen));
        set_heartbeat_ms(0);
        assert!(t.active());
        counter.store(42, Ordering::Relaxed);
        drop(t); // stop + final tick + join
        let (calls, last) = *seen.lock().unwrap();
        assert!(calls >= 1, "at least the final tick ran");
        assert_eq!(last, 42, "the final tick sees the end-of-run value");
    }
}
