//! Structured events in a bounded ring buffer.
//!
//! Events are typed (`key=value` fields, not preformatted strings) and
//! the ring has a hard capacity: when full the oldest event is evicted
//! and a dropped-events counter ticks, so a long simulation can never
//! grow an unbounded trace (the failure mode of the old
//! `Sim::trace: Vec<String>`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity (overridable with `--trace=N`).
pub const DEFAULT_RING_CAP: usize = 4096;

/// One typed field of an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Owned string (message renderings, table names, …).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (counts *all* events ever pushed,
    /// including evicted ones).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub t_us: u64,
    /// Pipeline stage (`"solver"`, `"sim"`, `"mc"`, …).
    pub stage: &'static str,
    /// Event name within the stage.
    pub name: &'static str,
    /// Typed `key=value` payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// `stage.name key=v key=v …` — the human-readable line form.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("{}.{}", self.stage, self.name);
        for (k, v) in &self.fields {
            write!(s, " {k}={v}").unwrap();
        }
        s
    }
}

/// A bounded event ring.
pub struct Ring {
    cap: usize,
    start: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<Event>>,
}

impl Ring {
    /// New ring holding at most `cap` events.
    pub fn new(cap: usize) -> Ring {
        let cap = cap.max(1);
        Ring {
            cap,
            start: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Push an event, evicting the oldest when full.
    pub fn push(
        &self,
        stage: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            seq,
            t_us: self.start.elapsed().as_micros() as u64,
            stage,
            name,
            fields,
        };
        let mut buf = self.buf.lock().unwrap();
        if buf.len() >= self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    /// Drop all retained events (dropped/seq counters keep counting).
    pub fn clear(&self) {
        self.buf.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ring: &Ring, n: u64) {
        ring.push("t", "e", vec![("n", n.into())]);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ring = Ring::new(4);
        for n in 0..10 {
            ev(&ring, n);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        // Oldest retained is event 6; order is preserved.
        let ns: Vec<u64> = snap
            .iter()
            .map(|e| match e.fields[0].1 {
                FieldValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ns, [6, 7, 8, 9]);
        assert_eq!(snap[0].seq, 6);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let ring = Ring::new(100);
        for n in 0..5 {
            ev(&ring, n);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot().len(), 5);
    }

    #[test]
    fn events_render_key_values() {
        let ring = Ring::new(8);
        ring.push(
            "sim",
            "send",
            vec![
                ("msg", "readex".into()),
                ("vc", "VC0".into()),
                ("q", 1u64.into()),
            ],
        );
        let line = ring.snapshot()[0].render();
        assert_eq!(line, "sim.send msg=readex vc=VC0 q=1");
    }
}
