//! Flight recorder: a hierarchical span tree over the whole pipeline,
//! exportable as Chrome trace-event JSON (loadable in `ui.perfetto.dev`).
//!
//! This is the crate's only recorder. Every stage opens spans at its
//! natural granularity and attaches what it counted as typed span args
//! ([`FlightSpan::arg`]): a span's duration is its timer and its args
//! are its counters, so one recording answers both "where did the time
//! go" and "how much work was that". Every span knows its parent
//! (tracked per thread, so nesting falls out of lexical scope) and
//! keeps a stable id equal to its begin order. The recorder is
//! coarse-grained by design: spans mark pipeline stages (a solve of one
//! controller, one dependency-closure round, one BFS level), never
//! per-row or per-state work, so the cost is a mutex push per stage
//! boundary and exactly one predictable branch when the recorder is off
//! (the default).
//!
//! ## Determinism
//!
//! Span *structure* (ids, names, stages, nesting) is a pure function of
//! the control flow that produced it: two runs of the same command
//! record the same tree, only the timestamps differ. `scripts/verify.sh`
//! gates on this. Timestamps come from one monotonic [`Instant`] epoch
//! per recorder — never the wall clock — and are assigned under the
//! recorder lock, so the exported event list is non-decreasing in `ts`
//! by construction.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One typed span arg.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (exported as `null` when not finite).
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

static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Open spans on this thread: (recorder address, span id), innermost
    /// last. The address keys the stack per recorder instance, so a
    /// local test recorder never corrupts the global one.
    static STACK: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    /// This thread's Perfetto track (tid), assigned on first span.
    static TRACK: RefCell<u32> = const { RefCell::new(0) };
}

/// Is flight recording into the global recorder on?
#[inline]
pub fn enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Turn global flight recording on or off (`--trace-out`,
/// `--heartbeat`, `ccsql stats`).
pub fn set_enabled(on: bool) {
    FLIGHT_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide flight recorder.
pub fn global() -> &'static Flight {
    static FLIGHT: OnceLock<Flight> = OnceLock::new();
    FLIGHT.get_or_init(Flight::new)
}

/// Begin a span on the global recorder; inert (id 0, no allocation)
/// when flight recording is disabled.
pub fn span(stage: &'static str, name: &str) -> FlightSpan<'static> {
    if enabled() {
        global().begin(stage, name)
    } else {
        FlightSpan {
            flight: global(),
            id: 0,
        }
    }
}

/// Snapshot of the global recorder's spans, in begin order.
pub fn snapshot() -> Vec<SpanNode> {
    global().snapshot()
}

/// This thread's track: the Perfetto `tid` of the spans it records.
pub fn current_track() -> u32 {
    TRACK.with(|t| {
        let mut t = t.borrow_mut();
        if *t == 0 {
            *t = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        }
        *t
    })
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Stable id: 1-based begin order within the recorder.
    pub id: u32,
    /// Parent span id (0 = root). The parent is the innermost span open
    /// on the *same thread* when this one began.
    pub parent: u32,
    /// Per-thread track (exported as the Perfetto `tid`). Nesting is
    /// guaranteed within a track, which is all the trace format needs.
    pub track: u32,
    /// Pipeline stage (`"lint"`, `"solve"`, `"mc"`, …) — the trace
    /// event category.
    pub stage: &'static str,
    /// Span name within the stage (a controller name, `"level"`, …).
    pub name: String,
    /// Microseconds since the recorder epoch (monotonic clock).
    pub start_us: u64,
    /// Duration in microseconds (0 while the span is still open).
    pub dur_us: u64,
    /// Per-span counters, attached with [`FlightSpan::arg`].
    pub args: Vec<(&'static str, FieldValue)>,
}

/// The one-line rendering of a span that `ccsql stats` and the
/// heartbeat share: `stage/name ms=1.234 key=value …`, the wall time
/// followed by the args in the order they were attached.
impl std::fmt::Display for SpanNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ms={:.3}",
            self.stage,
            self.name,
            self.dur_us as f64 / 1e3
        )?;
        for (k, v) in &self.args {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

struct Inner {
    epoch: Instant,
    spans: Vec<SpanNode>,
    /// Id of the span that closed most recently (0 = none yet).
    last_closed: u32,
}

/// A span-tree recorder. One global instance serves the pipeline
/// ([`global`]); tests may hold local instances.
pub struct Flight {
    inner: Mutex<Inner>,
}

impl Default for Flight {
    fn default() -> Flight {
        Flight::new()
    }
}

impl Flight {
    /// New empty recorder with a fresh monotonic epoch.
    pub fn new() -> Flight {
        Flight {
            inner: Mutex::new(Inner {
                epoch: Instant::now(),
                spans: Vec::new(),
                last_closed: 0,
            }),
        }
    }

    fn key(&self) -> usize {
        self as *const Flight as usize
    }

    /// Begin a span (always records, regardless of the global enable
    /// flag — the flag gates only the [`span`] helper).
    pub fn begin(&self, stage: &'static str, name: &str) -> FlightSpan<'_> {
        let track = current_track();
        let parent = STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(k, _)| k == self.key())
                .map(|&(_, id)| id)
                .unwrap_or(0)
        });
        let id = {
            let mut inner = self.inner.lock().unwrap();
            // The timestamp is taken under the lock so append order is
            // timestamp order (ts non-decreasing in the export).
            let start_us = inner.epoch.elapsed().as_micros() as u64;
            let id = inner.spans.len() as u32 + 1;
            inner.spans.push(SpanNode {
                id,
                parent,
                track,
                stage,
                name: name.to_string(),
                start_us,
                dur_us: 0,
                args: Vec::new(),
            });
            id
        };
        STACK.with(|s| s.borrow_mut().push((self.key(), id)));
        FlightSpan { flight: self, id }
    }

    /// Copy of all spans, in begin order.
    pub fn snapshot(&self) -> Vec<SpanNode> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// Copy of the span that closed most recently, or `None` while no
    /// span has closed. A span counts as closed when its guard drops,
    /// so a zero-length span counts, and an outer span that closes
    /// after its children is the one returned.
    pub fn last_closed(&self) -> Option<SpanNode> {
        let inner = self.inner.lock().expect("a span holder panicked");
        let i = inner.last_closed.checked_sub(1)?;
        inner.spans.get(i as usize).cloned()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII guard for an open flight span. Dropping it closes the span
/// (records the duration and pops the per-thread stack).
pub struct FlightSpan<'a> {
    flight: &'a Flight,
    id: u32,
}

impl FlightSpan<'_> {
    /// Is this a live (recording) span?
    pub fn is_live(&self) -> bool {
        self.id != 0
    }

    /// The span's stable id (0 for an inert span).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Attach a counter/arg to the span (no-op on an inert span).
    pub fn arg(&self, key: &'static str, value: impl Into<FieldValue>) {
        if self.id == 0 {
            return;
        }
        let mut inner = self.flight.inner.lock().unwrap();
        if let Some(s) = inner.spans.get_mut(self.id as usize - 1) {
            s.args.push((key, value.into()));
        }
    }
}

impl Drop for FlightSpan<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        {
            let mut inner = self.inner();
            let end_us = inner.epoch.elapsed().as_micros() as u64;
            if let Some(s) = inner.spans.get_mut(self.id as usize - 1) {
                s.dur_us = end_us.saturating_sub(s.start_us);
            }
            inner.last_closed = self.id;
        }
        let key = self.flight.key();
        STACK.with(|st| {
            let mut st = st.borrow_mut();
            if let Some(pos) = st.iter().rposition(|&(k, id)| k == key && id == self.id) {
                st.remove(pos);
            }
        });
    }
}

impl FlightSpan<'_> {
    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.flight.inner.lock().unwrap()
    }
}

/// Render spans as a Chrome trace-event JSON document (the format
/// `ui.perfetto.dev` and `chrome://tracing` load). Spans become
/// complete (`"ph":"X"`) events with microsecond `ts`/`dur`; nesting is
/// implied by time containment per `tid`, which the per-thread span
/// stack guarantees. Events are emitted in begin order, so `ts` is
/// non-decreasing across the document.
pub fn chrome_trace_json(spans: &[SpanNode]) -> String {
    use crate::json::JsonObj;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        &JsonObj::new()
            .str("ph", "M")
            .u64("pid", 1)
            .str("name", "process_name")
            .raw("args", "{\"name\":\"ccsql\"}")
            .finish(),
    );
    for s in spans {
        let mut args = JsonObj::new().u64("span_id", s.id as u64);
        if s.parent != 0 {
            args = args.u64("parent_id", s.parent as u64);
        }
        for (k, v) in &s.args {
            args = match v {
                FieldValue::U64(v) => args.u64(k, *v),
                FieldValue::I64(v) => args.i64(k, *v),
                FieldValue::F64(v) => args.f64(k, *v),
                FieldValue::Str(v) => args.str(k, v),
            };
        }
        out.push(',');
        out.push_str(
            &JsonObj::new()
                .str("ph", "X")
                .u64("pid", 1)
                .u64("tid", s.track as u64)
                .u64("ts", s.start_us)
                .u64("dur", s.dur_us)
                .str("cat", s.stage)
                .str("name", &s.name)
                .raw("args", &args.finish())
                .finish(),
        );
    }
    out.push_str("]}");
    out
}

/// Per-stage self-time summary computed from a span snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage (trace category).
    pub stage: &'static str,
    /// Spans recorded in the stage.
    pub spans: usize,
    /// Total wall time of the stage's *entry* spans (spans whose parent
    /// belongs to a different stage), i.e. time with the stage anywhere
    /// on the call path.
    pub total_us: u64,
    /// Self time: span durations minus the durations of their direct
    /// children (in any stage), summed over the stage's spans. Across
    /// all stages, self times partition the traced wall clock.
    pub self_us: u64,
}

/// Index of span `id` in `spans` — a snapshot or any part of one kept
/// in begin order (a tail, one thread's spans). `None` for the root id
/// 0 and for spans outside the part.
fn position(spans: &[SpanNode], id: u32) -> Option<usize> {
    spans.binary_search_by_key(&id, |s| s.id).ok()
}

/// Does `s` enter its stage: no parent within `spans`, or a parent in
/// another stage? Entry spans carry a stage's [`StageSummary::total_us`]
/// and the counters of one call into it.
pub fn is_entry(spans: &[SpanNode], s: &SpanNode) -> bool {
    position(spans, s.parent).is_none_or(|p| spans[p].stage != s.stage)
}

/// Fold a span snapshot (or the tail of one) into per-stage totals and
/// self times, in order of first appearance (deterministic).
pub fn stage_summary(spans: &[SpanNode]) -> Vec<StageSummary> {
    // dur of direct children, indexed by the parent's position.
    let mut child_dur = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = position(spans, s.parent) {
            child_dur[p] += s.dur_us;
        }
    }
    let mut out: Vec<StageSummary> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let idx = match out.iter().position(|st| st.stage == s.stage) {
            Some(idx) => idx,
            None => {
                out.push(StageSummary {
                    stage: s.stage,
                    spans: 0,
                    total_us: 0,
                    self_us: 0,
                });
                out.len() - 1
            }
        };
        out[idx].spans += 1;
        out[idx].self_us += s.dur_us.saturating_sub(child_dur[i]);
        if is_entry(spans, s) {
            out[idx].total_us += s.dur_us;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_args() {
        let f = Flight::new();
        {
            let root = f.begin("pipeline", "pipeline");
            root.arg("n", 7u64);
            {
                let child = f.begin("solve", "D");
                child.arg("rows", 498u64);
                let _grand = f.begin("solve", "column");
            }
            let sibling = f.begin("mc", "explore");
            drop(sibling);
        }
        let spans = f.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[0].id, "sibling after child closed");
        assert_eq!(spans[0].args, vec![("n", FieldValue::U64(7))]);
        // All closed: durations recorded, start times non-decreasing.
        assert!(spans.iter().all(|s| s.start_us <= s.start_us + s.dur_us));
        for w in spans.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
        // Ids are stable begin-order.
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn last_closed_is_the_latest_guard_dropped() {
        let f = Flight::new();
        let outer = f.begin("mc", "explore");
        assert!(f.last_closed().is_none(), "an open span is never returned");
        // Dropped at once: a zero-length span still counts as closed.
        drop(f.begin("mc", "level"));
        assert_eq!(f.last_closed().unwrap().name, "level");
        let open = f.begin("mc", "level2");
        assert_eq!(
            f.last_closed().unwrap().name,
            "level",
            "an open span is never returned"
        );
        drop(open);
        outer.arg("states", 6u64);
        drop(outer);
        let last = f.last_closed().unwrap();
        assert_eq!(
            (last.name.as_str(), last.args),
            ("explore", vec![("states", FieldValue::U64(6))]),
            "the outer span closed after its children"
        );
    }

    #[test]
    fn inert_span_records_nothing() {
        set_enabled(false);
        let before = global().len();
        {
            let s = span("mc", "level");
            assert!(!s.is_live());
            s.arg("states", 1u64);
        }
        assert_eq!(global().len(), before);
    }

    #[test]
    fn chrome_export_shape() {
        let f = Flight::new();
        {
            let root = f.begin("profile", "pipeline");
            root.arg("note", "x");
            let _c = f.begin("solve", "D");
        }
        let json = chrome_trace_json(&f.snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"cat\":\"solve\""), "{json}");
        assert!(json.contains("\"name\":\"pipeline\""), "{json}");
        assert!(json.contains("\"parent_id\":1"), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn stage_summary_partitions_time() {
        // Hand-build a tree: pipeline(100) -> solve(60) -> solve(40),
        // and pipeline -> mc(30).
        let mk = |id: u32, parent: u32, stage: &'static str, start: u64, dur: u64| SpanNode {
            id,
            parent,
            track: 1,
            stage,
            name: stage.to_string(),
            start_us: start,
            dur_us: dur,
            args: Vec::new(),
        };
        let spans = vec![
            mk(1, 0, "profile", 0, 100),
            mk(2, 1, "solve", 5, 60),
            mk(3, 2, "solve", 10, 40),
            mk(4, 1, "mc", 70, 30),
        ];
        let sum = stage_summary(&spans);
        assert_eq!(sum.len(), 3);
        let get = |st: &str| sum.iter().find(|s| s.stage == st).unwrap().clone();
        let profile = get("profile");
        assert_eq!((profile.total_us, profile.self_us), (100, 10));
        let solve = get("solve");
        // Entry span is the outer solve (60); self = (60-40) + 40.
        assert_eq!((solve.total_us, solve.self_us, solve.spans), (60, 60, 2));
        let mc = get("mc");
        assert_eq!((mc.total_us, mc.self_us), (30, 30));
        // Self times partition the root's wall clock:
        // 10 (profile) + 60 (solve: 20 outer + 40 inner) + 30 (mc).
        let total_self: u64 = sum.iter().map(|s| s.self_us).sum();
        assert_eq!(total_self, 100);
        // A tail of the snapshot: spans whose parent lies before it are
        // entry spans, and the parent's self time is not charged.
        let tail = stage_summary(&spans[1..]);
        assert_eq!(tail.len(), 2);
        assert_eq!(
            (tail[0].stage, tail[0].total_us, tail[0].self_us),
            ("solve", 60, 60)
        );
        assert_eq!(
            (tail[1].stage, tail[1].total_us, tail[1].self_us),
            ("mc", 30, 30)
        );
        assert!(is_entry(&spans[1..], &spans[1]) && !is_entry(&spans[1..], &spans[2]));
    }

    #[test]
    fn local_recorders_do_not_interfere() {
        let a = Flight::new();
        let b = Flight::new();
        let ra = a.begin("x", "a-root");
        let rb = b.begin("y", "b-root");
        let ca = a.begin("x", "a-child");
        drop(ca);
        drop(rb);
        drop(ra);
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.len(), 2);
        assert_eq!(sb.len(), 1);
        assert_eq!(sa[1].parent, sa[0].id, "a-child parents to a-root");
        assert_eq!(sb[0].parent, 0, "b-root is a root despite open a-root");
    }
}
