//! Live progress heartbeats: a monotonic-clock ticker thread that
//! prints the flight recording as it grows.
//!
//! A [`Ticker`] wakes every `--heartbeat[=MS]` interval and prints one
//! line to **stderr**: the elapsed time and the span that closed most
//! recently ([`Flight::last_closed`]), rendered as `ccsql stats` renders
//! it (`stage/name ms=… key=value …`). On drop it stops
//! the thread, which emits a final tick — so even a run shorter than
//! the interval leaves at least one line, and the last line shows the
//! last span of the run — and joins it. Every stage that opens spans
//! therefore has a heartbeat without knowing that heartbeats exist; the
//! `mc/level` spans carry running totals so that a long exploration
//! shows progress level by level.
//!
//! ## Why heartbeats are provably result-neutral
//!
//! The information flow is one-way: the ticker only *reads* the
//! recorder, under its lock, once per tick. The workload never reads
//! anything the ticker writes, and the ticker writes only to stderr —
//! never to the stdout result. Outputs are therefore byte-identical
//! with heartbeats on or off; `crates/cli` gates this in tests.
//!
//! ## Monotonic-clock rule
//!
//! All timing here (tick scheduling, elapsed seconds in the lines) uses
//! [`Instant`], never `SystemTime`: wall clocks can jump backwards
//! (NTP, suspend), which would yield non-monotonic elapsed times.

use crate::flight::{Flight, SpanNode};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default interval when `--heartbeat` is given without a value.
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;

/// A live-progress ticker over one recorder. Construct with
/// [`Ticker::start`]; drop to stop (final tick + join). Inert — no
/// thread spawned — when the interval is 0.
pub struct Ticker {
    /// Dropping the sender wakes the thread for its final tick; the
    /// thread returns the line that tick printed.
    inner: Option<(mpsc::Sender<()>, JoinHandle<String>)>,
}

impl Ticker {
    /// Print `flight`'s most recently closed span every `ms`
    /// milliseconds until dropped. Returns an inert ticker when `ms` is
    /// 0.
    pub fn start(ms: u64, flight: &'static Flight) -> Ticker {
        if ms == 0 {
            return Ticker { inner: None };
        }
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("heartbeat".into())
            .spawn(move || {
                let epoch = Instant::now();
                let tick = |fin| {
                    let line = line(epoch.elapsed(), flight.last_closed(), fin);
                    eprintln!("{line}");
                    line
                };
                while let Err(RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(Duration::from_millis(ms))
                {
                    tick(false);
                }
                tick(true)
            })
            .expect("spawn heartbeat thread");
        Ticker {
            inner: Some((stop, handle)),
        }
    }

    /// Stop the thread and join it; returns the final line it printed
    /// (`None` for an inert ticker).
    fn stop(&mut self) -> Option<String> {
        let (stop, handle) = self.inner.take()?;
        drop(stop);
        handle.join().ok()
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One heartbeat line: `ccsql +1.5s stage/name ms=… key=value …` — the
/// elapsed time, then the span as `ccsql stats` renders it — or just the
/// elapsed time while no span has closed.
fn line(elapsed: Duration, span: Option<SpanNode>, fin: bool) -> String {
    let mut line = format!("ccsql +{:.1}s", elapsed.as_secs_f64());
    if let Some(s) = span {
        line = format!("{line} {s}");
    }
    if fin {
        line.push_str(" final=1");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ticker_is_inert() {
        let flight: &'static Flight = Box::leak(Box::new(Flight::new()));
        let mut t = Ticker::start(0, flight);
        assert!(t.inner.is_none());
        assert_eq!(t.stop(), None, "no thread, no tick");
    }

    #[test]
    fn final_tick_shows_the_last_span_of_the_run() {
        let flight: &'static Flight = Box::leak(Box::new(Flight::new()));
        let mut t = Ticker::start(2, flight);
        {
            let s = flight.begin("mc", "level");
            s.arg("states", 42u64);
        }
        let last = t.stop().expect("the ticker ran its final tick");
        assert!(last.starts_with("ccsql +"), "{last}");
        assert!(last.contains("s mc/level ms="), "{last}");
        assert!(last.ends_with(" states=42 final=1"), "{last}");
    }

    #[test]
    fn a_line_shows_the_last_closed_span_and_its_args() {
        let f = Flight::new();
        let at = Duration::from_millis(1500);
        assert_eq!(line(at, f.last_closed(), false), "ccsql +1.5s");
        {
            let s = f.begin("mc", "level");
            s.arg("states", 42u64);
        }
        let span = f.last_closed().expect("the level closed");
        let ms = format!("{:.3}", span.dur_us as f64 / 1e3);
        assert_eq!(
            line(at, Some(span), true),
            format!("ccsql +1.5s mc/level ms={ms} states=42 final=1")
        );
    }
}
