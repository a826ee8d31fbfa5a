//! # covest-telemetry
//!
//! The workspace's observability layer: deterministic **counters**, a
//! named **span/event** tree, and clock-injected timing — zero external
//! dependencies, always cheap, and a strict no-op when no recorder is
//! installed.
//!
//! The design splits observability into two kinds of data with two
//! different contracts:
//!
//! - **Counters** are *deterministic*: plain `u64` tallies (cache hits,
//!   fixpoint iterations, image calls) that are a pure function of the
//!   work performed. Counter output is byte-parity-checked across runs
//!   and across `--jobs` values, exactly like the rest of the engine's
//!   deterministic output.
//! - **Timings** are *wall-clock*: span durations and `Stopwatch`
//!   measurements. They are excluded from every parity check, the same
//!   rule the CLI applies to its `*_ms` JSON fields. In rendered
//!   summaries they appear strictly below the [`TIMINGS_MARKER`] line so
//!   tests can compare everything above it mechanically.
//!
//! Timestamps are injected through the [`Clock`] trait: production code
//! uses the [`Instant`]-backed [`WallClock`], tests drive a
//! [`ManualClock`] to get fully deterministic span logs. This crate is
//! the **only** crate in the workspace allowed to touch
//! `Instant::now()` — `covest-devlint`'s `raw-instant` rule enforces it.
//!
//! Instrumented library code never holds a recorder: it calls the free
//! functions [`span`], [`event`], and [`count`], which record into a
//! thread-local [`Telemetry`] recorder installed by the driver
//! ([`install`] / [`uninstall`]). Without a recorder they cost one
//! thread-local read. A recorder is plain owned data, so a worker thread
//! can install one per task and ship the finished recorder's forest and
//! counters back as part of the task result.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use covest_telemetry::chrome::{TraceFormat, TraceSink, TraceWriter};
//! use covest_telemetry::{self as telemetry, ManualClock, Telemetry};
//!
//! let clock = Arc::new(ManualClock::new());
//! telemetry::install(Telemetry::with_clock(clock.clone()));
//! {
//!     let _compile = telemetry::span("compile");
//!     clock.advance(Duration::from_micros(250));
//!     telemetry::count("image_calls", 3);
//! }
//! let rec = telemetry::uninstall().expect("recorder installed");
//! assert_eq!(rec.counters().get("image_calls"), 3);
//! let mut buf = Vec::new();
//! let mut trace = TraceWriter::new(&mut buf, TraceFormat::Jsonl);
//! trace.write_track(0, "demo", rec.records());
//! trace.finish().expect("Vec<u8> sink");
//! let text = String::from_utf8(buf).expect("UTF-8");
//! assert!(text.contains("\"name\":\"compile\""));
//! ```

pub mod chrome;
pub mod memory;
pub mod progress;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The line separating deterministic counter output (above) from
/// wall-clock timing output (below) in rendered summaries. Parity tests
/// compare everything above this marker byte-for-byte and ignore
/// everything below it — the same contract as the CLI's `*_ms` JSON
/// fields.
pub const TIMINGS_MARKER: &str = "-- timings --";

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

/// A monotonic time source, expressed as the [`Duration`] since the
/// clock's own epoch. Injected into [`Telemetry`] so tests can record
/// spans under a deterministic clock.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: [`Instant`]-backed, epoch = construction time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A deterministic test clock: time only moves when [`ManualClock::advance`]
/// is called. Microsecond resolution (the resolution of the JSONL log).
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A manual clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `d` (truncated to whole microseconds).
    pub fn advance(&self, d: Duration) {
        self.micros
            .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::Relaxed))
    }
}

/// A plain wall-clock duration measurement — the workspace-wide
/// replacement for ad-hoc `Instant::now()` pairs. Timing measured this
/// way is *non-deterministic by definition* and must stay in
/// timing-suffixed fields excluded from parity checks.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Deterministic named tallies: an insertion-ordered list of
/// `(name, u64)` pairs.
///
/// Counter values are a pure function of the work performed — never of
/// the clock, the scheduler, or the thread count — so two identical runs
/// produce byte-identical counter output. The insertion-ordered `Vec`
/// keeps rendering deterministic too (no hash-map iteration order) and
/// is cheaper than a map at the few dozen names the engine uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(String, u64)>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to `name`, creating it at the end of the order if
    /// new.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => self.entries.push((name.to_owned(), delta)),
        }
    }

    /// Raises `name` to at least `value` (for high-water marks, which
    /// must not be summed).
    pub fn set_max(&mut self, name: &str, value: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = (*v).max(value),
            None => self.entries.push((name.to_owned(), value)),
        }
    }

    /// The value of `name` (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// `true` if no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Sums `other` into `self` (every name added; use only when a sum
    /// is meaningful — high-water marks should go through
    /// [`Counters::set_max`]).
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }

    /// Renders the counters as aligned `name  value` lines, each
    /// prefixed by `indent` — the deterministic half of the summary
    /// table.
    pub fn render(&self, indent: &str) -> String {
        let width = self.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in self.iter() {
            let _ = writeln!(out, "{indent}{name:<width$}  {value}");
        }
        out
    }
}

// ---------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------

/// Whether a record is a phase with extent or an instantaneous event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A named phase with a start and (once closed) an end.
    Span,
    /// An instantaneous observation (e.g. one BFS step).
    Event,
}

/// One node of the recorded span tree.
///
/// Records live in a flat `Vec` with parent *indices*, so a finished
/// forest is plain `Send` data: a worker thread writes its task-local
/// tree to a trace sink as one track, or ships it back with the task
/// result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span or event.
    pub kind: RecordKind,
    /// Phase name (e.g. `compile`, `reachability`, `signal:grant`).
    pub name: String,
    /// Index of the enclosing span within the same record list, if any.
    pub parent: Option<usize>,
    /// Clock reading at open (spans) or at the instant (events).
    pub start: Duration,
    /// Clock reading at close; `None` for events and unclosed spans.
    pub end: Option<Duration>,
    /// Deterministic numeric payload (iteration counts, node counts, …)
    /// in attachment order.
    pub fields: Vec<(String, u64)>,
    /// Deterministic string payload (signal lists, modes, …) in
    /// attachment order. Rendered alongside [`SpanRecord::fields`] in
    /// every serialization.
    pub labels: Vec<(String, String)>,
}

/// Writes one record as a JSONL line. `id`/`parent` are passed
/// explicitly so streaming writers can rebase indices when
/// concatenating several forests into one file; `tid` tags the line
/// with its track (pool worker) index.
pub(crate) fn write_record_json(
    out: &mut String,
    r: &SpanRecord,
    id: usize,
    parent: Option<usize>,
    tid: u64,
) {
    let kind = match r.kind {
        RecordKind::Span => "span",
        RecordKind::Event => "event",
    };
    let _ = write!(
        out,
        "{{\"type\":\"{kind}\",\"id\":{id},\"parent\":{},\"name\":{},\"start_us\":{}",
        parent.map_or("null".to_owned(), |p| p.to_string()),
        json_string(&r.name),
        r.start.as_micros(),
    );
    if r.kind == RecordKind::Span {
        let _ = write!(
            out,
            ",\"end_us\":{}",
            r.end
                .map_or("null".to_owned(), |e| e.as_micros().to_string())
        );
    }
    let _ = write!(out, ",\"tid\":{tid}");
    if !r.fields.is_empty() || !r.labels.is_empty() {
        out.push_str(",\"fields\":{");
        let mut first = true;
        for (name, value) in &r.fields {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        for (name, value) in &r.labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{}", json_string(name), json_string(value));
        }
        out.push('}');
    }
    out.push_str("}\n");
}

/// Renders `s` as a JSON string literal, escaping per RFC 8259 (`"`,
/// `\`, and control characters as `\uXXXX`/short escapes). Rust's
/// `{:?}` is *not* a substitute — its `\u{7f}` brace form is invalid
/// JSON — so every string the JSON writers emit (trace files here,
/// `--json` and `--stats` in the front ends) goes through here.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------

/// An in-memory telemetry recorder: a span/event tree plus a
/// [`Counters`] accumulator, stamped by an injected [`Clock`].
///
/// Instrumented code does not see this type — it records through the
/// thread-local free functions ([`span`], [`event`], [`count`]) after a
/// driver [`install`]s the recorder on the current thread. A finished
/// recorder is plain data: [`Telemetry::into_parts`] hands the span
/// forest and counters to whoever merges or serializes them.
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    records: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    open: Vec<usize>,
    counters: Counters,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("records", &self.records.len())
            .field("open", &self.open)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Telemetry {
    /// A recorder on the production [`WallClock`].
    pub fn new() -> Self {
        Telemetry::with_clock(Arc::new(WallClock::new()))
    }

    /// A recorder on an injected clock (tests use [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Telemetry {
            clock,
            records: Vec::new(),
            open: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// The recorded forest, in record order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// The accumulated deterministic counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Decomposes the recorder into its span forest and counters.
    pub fn into_parts(self) -> (Vec<SpanRecord>, Counters) {
        (self.records, self.counters)
    }

    fn open_span(&mut self, name: String, sample: Option<memory::MemSample>) -> usize {
        let idx = self.records.len();
        self.records.push(SpanRecord {
            kind: RecordKind::Span,
            name,
            parent: self.open.last().copied(),
            start: self.clock.now(),
            end: None,
            fields: sample.map(memory::open_fields).unwrap_or_default(),
            labels: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    fn close_span(&mut self, idx: usize, sample: Option<memory::MemSample>) {
        let now = self.clock.now();
        if let Some(s) = sample {
            self.records[idx].fields.extend(memory::close_fields(s));
        }
        self.records[idx].end = Some(now);
        self.open.retain(|&i| i != idx);
    }

    fn push_event(
        &mut self,
        name: String,
        fields: &[(&str, u64)],
        sample: Option<memory::MemSample>,
    ) {
        let mut fields: Vec<(String, u64)> =
            fields.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
        if let Some(s) = sample {
            fields.extend(memory::open_fields(s));
        }
        self.records.push(SpanRecord {
            kind: RecordKind::Event,
            name,
            parent: self.open.last().copied(),
            start: self.clock.now(),
            end: None,
            fields,
            labels: Vec::new(),
        });
    }

    fn attach_field(&mut self, name: &str, value: u64) {
        if let Some(&idx) = self.open.last() {
            self.records[idx].fields.push((name.to_owned(), value));
        }
    }

    fn attach_label(&mut self, name: &str, value: &str) {
        if let Some(&idx) = self.open.last() {
            self.records[idx]
                .labels
                .push((name.to_owned(), value.to_owned()));
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Installs `recorder` as the current thread's telemetry sink. Replaces
/// (and drops) any previously installed recorder.
pub fn install(recorder: Telemetry) {
    CURRENT.with(|c| *c.borrow_mut() = Some(recorder));
}

/// Removes and returns the current thread's recorder, if any. The free
/// functions no-op again afterwards.
pub fn uninstall() -> Option<Telemetry> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// `true` if a recorder is installed on this thread. Instrumentation
/// whose *inputs* are expensive to compute (e.g. node counts for a BFS
/// event) should check this first; plain [`count`] calls need not.
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Opens a named span on the current thread's recorder. The returned
/// guard closes the span when dropped; without a recorder it is a
/// no-op. Spans nest by scope: records opened while the guard lives are
/// its children.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !is_active() {
        return SpanGuard { idx: None };
    }
    // Sampled before the recorder borrow: the sampler closes over the
    // driver's `BddManager` and must stay free to re-enter telemetry.
    let sample = memory::sample();
    let idx = CURRENT.with(|c| {
        c.borrow_mut()
            .as_mut()
            .map(|rec| rec.open_span(name.into(), sample))
    });
    SpanGuard { idx }
}

/// Records an instantaneous event with deterministic numeric fields
/// under the innermost open span. No-op without a recorder.
pub fn event(name: impl Into<String>, fields: &[(&str, u64)]) {
    if !is_active() {
        return;
    }
    let sample = memory::sample();
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            rec.push_event(name.into(), fields, sample);
        }
    });
}

/// Adds `delta` to the named deterministic counter. No-op without a
/// recorder.
pub fn count(name: &str, delta: u64) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            rec.counters.add(name, delta);
        }
    });
}

/// Attaches a deterministic numeric field to the innermost open span
/// (e.g. a fixpoint's final iteration count). No-op without a recorder
/// or outside any span.
pub fn span_field(name: &str, value: u64) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            rec.attach_field(name, value);
        }
    });
}

/// Attaches a deterministic string label to the innermost open span
/// (e.g. the signal list a shard multiplexes). No-op without a recorder
/// or outside any span.
pub fn span_label(name: &str, value: &str) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            rec.attach_label(name, value);
        }
    });
}

/// The names of the currently open spans joined by `/` (outermost
/// first) — the "where are we" context the progress heartbeat prints.
/// Empty without a recorder or outside any span.
pub fn open_span_path() -> String {
    CURRENT.with(|c| {
        c.borrow().as_ref().map_or_else(String::new, |rec| {
            let names: Vec<&str> = rec
                .open
                .iter()
                .map(|&i| rec.records[i].name.as_str())
                .collect();
            names.join("/")
        })
    })
}

/// A snapshot of the currently open spans — `(name, start)` outermost
/// first — for watchdog diagnostics. Empty without a recorder.
pub fn open_span_snapshot() -> Vec<(String, Duration)> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map_or_else(Vec::new, |rec| {
            rec.open
                .iter()
                .map(|&i| (rec.records[i].name.clone(), rec.records[i].start))
                .collect()
        })
    })
}

/// Closes its span on drop. Obtained from [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    idx: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let sample = memory::sample();
            CURRENT.with(|c| {
                if let Some(rec) = c.borrow_mut().as_mut() {
                    rec.close_span(idx, sample);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{TraceFormat, TraceSink, TraceWriter};

    fn manual() -> (Arc<ManualClock>, ()) {
        let clock = Arc::new(ManualClock::new());
        install(Telemetry::with_clock(clock.clone()));
        (clock, ())
    }

    #[test]
    fn spans_nest_and_stamp_deterministically() {
        let (clock, ()) = manual();
        {
            let _outer = span("outer");
            clock.advance(Duration::from_micros(10));
            {
                let _inner = span("inner");
                clock.advance(Duration::from_micros(5));
                span_field("iterations", 3);
            }
            clock.advance(Duration::from_micros(1));
        }
        let rec = uninstall().expect("installed");
        let records = rec.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "outer");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[0].start, Duration::from_micros(0));
        assert_eq!(records[0].end, Some(Duration::from_micros(16)));
        assert_eq!(records[1].name, "inner");
        assert_eq!(records[1].parent, Some(0));
        assert_eq!(records[1].start, Duration::from_micros(10));
        assert_eq!(records[1].end, Some(Duration::from_micros(15)));
        assert_eq!(records[1].fields, vec![("iterations".to_owned(), 3)]);
    }

    #[test]
    fn events_attach_to_open_span() {
        let (clock, ()) = manual();
        {
            let _bfs = span("reachability");
            clock.advance(Duration::from_micros(2));
            event("bfs_step", &[("frontier_nodes", 7), ("visited_nodes", 9)]);
        }
        let rec = uninstall().expect("installed");
        let ev = &rec.records()[1];
        assert_eq!(ev.kind, RecordKind::Event);
        assert_eq!(ev.parent, Some(0));
        assert_eq!(ev.start, Duration::from_micros(2));
        assert_eq!(ev.end, None);
        assert_eq!(ev.fields[0], ("frontier_nodes".to_owned(), 7));
    }

    #[test]
    fn jsonl_round_trips_shape() {
        let (_clock, ()) = manual();
        {
            let _s = span("compile");
            event("note \"quoted\"", &[("n", 1)]);
        }
        let rec = uninstall().expect("installed");
        let mut buf = Vec::new();
        let mut trace = TraceWriter::new(&mut buf, TraceFormat::Jsonl);
        trace.write_track(0, "test", rec.records());
        trace.finish().expect("vec sink");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"id\":0,\"parent\":null,\"name\":\"compile\",\
             \"start_us\":0,\"end_us\":0,\"tid\":0}"
        );
        assert!(lines[1].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"fields\":{\"n\":1}"));
    }

    #[test]
    fn counters_sum_max_and_render_in_insertion_order() {
        let mut c = Counters::new();
        c.add("b_second", 2);
        c.add("a_first", 1);
        c.add("b_second", 3);
        c.set_max("peak", 10);
        c.set_max("peak", 7);
        assert_eq!(c.get("b_second"), 5);
        assert_eq!(c.get("peak"), 10);
        assert_eq!(c.get("absent"), 0);
        let mut other = Counters::new();
        other.add("a_first", 9);
        other.add("c_new", 1);
        c.merge(&other);
        assert_eq!(c.get("a_first"), 10);
        let rendered = c.render("  ");
        let names: Vec<&str> = rendered
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(names, ["b_second", "a_first", "peak", "c_new"]);
    }

    #[test]
    fn free_functions_no_op_without_recorder() {
        assert!(uninstall().is_none());
        assert!(!is_active());
        let _s = span("ignored");
        event("ignored", &[]);
        count("ignored", 1);
        span_field("ignored", 1);
        assert!(uninstall().is_none());
    }

    #[test]
    fn stopwatch_measures_something_nonnegative() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
