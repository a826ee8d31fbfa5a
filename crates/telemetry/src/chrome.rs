//! Chrome trace-event export: the span forest as a Perfetto-loadable
//! timeline, plus the streaming trace writer both formats share.
//!
//! The Chrome trace-event format (the JSON array flavor) is what
//! `ui.perfetto.dev` and `chrome://tracing` ingest: spans become
//! complete events (`ph:"X"`, microsecond `ts`/`dur`), telemetry events
//! become thread-scoped instants (`ph:"i"`), and every **track** — one
//! per pool worker, `tid` = worker index + 1 (`covest check` runs its
//! one shard as worker 0) — is labeled through `thread_name` metadata.
//! Span fields and labels ride in `args`, so a shard span shows its
//! `signals` payload in the Perfetto side panel.
//!
//! Streaming: each pool worker hands its finished shard's forest to a
//! [`TraceSink`] as soon as the shard is done, so a long batch run never
//! buffers more than one shard's records per worker. [`TraceWriter`] is
//! the file sink behind `--trace`; it also speaks the native JSONL
//! format (one record per line with `id`/`parent` rebased per track and
//! a `tid` field), keeping the two formats behind one `--trace-format`
//! switch.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::str::FromStr;

use crate::{json_string, write_record_json, RecordKind, SpanRecord};

/// The on-disk flavor of a `--trace` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Native JSONL: one record object per line (the PR-6 format, plus
    /// a `tid` track field).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON array, for `ui.perfetto.dev`.
    Chrome,
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" | "perfetto" => Ok(TraceFormat::Chrome),
            other => Err(format!(
                "unknown trace format `{other}` (expected `jsonl` or `chrome`)"
            )),
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        })
    }
}

/// Where finished span forests go, one track at a time. Each pool
/// worker calls [`TraceSink::write_track`] (under a lock) as it finishes
/// a shard, so a sink must be `Send`; implementations buffer any I/O
/// error until [`TraceWriter::finish`] so workers never observe it.
pub trait TraceSink: Send {
    /// Appends `records` as (part of) the track `tid`, labeled `label`.
    /// A tid may receive several batches: a worker writes one batch per
    /// shard it executed, in execution order.
    fn write_track(&mut self, tid: u64, label: &str, records: &[SpanRecord]);
}

/// The streaming trace file writer behind `--trace`.
///
/// Tracks arrive incrementally via [`TraceSink::write_track`] and are
/// flushed to `out` immediately; memory use is bounded by the largest
/// single batch, not the run. [`TraceWriter::finish`] closes the
/// Chrome JSON array and surfaces the first deferred I/O error. A
/// writer dropped unfinished — its run failed part way — closes the
/// trace all the same, so the tracks written so far stay a loadable
/// file.
pub struct TraceWriter<W: io::Write> {
    out: W,
    format: TraceFormat,
    /// First write error, reported at [`TraceWriter::finish`].
    error: Option<io::Error>,
    /// JSONL: next record id, so ids stay unique across tracks.
    next_id: usize,
    /// Chrome: whether the opening `[` has been written.
    opened: bool,
    /// Chrome: tids that already carry `thread_name` metadata.
    named: BTreeSet<u64>,
    /// Whether the trace is closed.
    closed: bool,
}

impl<W: io::Write> TraceWriter<W> {
    /// A writer emitting `format` onto `out`.
    pub fn new(out: W, format: TraceFormat) -> Self {
        TraceWriter {
            out,
            format,
            error: None,
            next_id: 0,
            opened: false,
            named: BTreeSet::new(),
            closed: false,
        }
    }

    fn emit(&mut self, text: &str) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(text.as_bytes()) {
                self.error = Some(e);
            }
        }
    }

    /// Closes the trace (the Chrome array needs its `]`) and returns
    /// the first I/O error deferred from the streaming writes.
    pub fn finish(mut self) -> io::Result<()> {
        self.finish_into()
    }

    fn finish_into(&mut self) -> io::Result<()> {
        if std::mem::replace(&mut self.closed, true) {
            return Ok(());
        }
        if self.format == TraceFormat::Chrome {
            let text = if self.opened { "\n]\n" } else { "[]\n" };
            self.emit(text);
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl<W: io::Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.finish_into();
    }
}

impl<W: io::Write + Send> TraceSink for TraceWriter<W> {
    fn write_track(&mut self, tid: u64, label: &str, records: &[SpanRecord]) {
        if self.error.is_some() {
            return;
        }
        let mut buf = String::new();
        match self.format {
            TraceFormat::Jsonl => {
                let base = self.next_id;
                for (i, r) in records.iter().enumerate() {
                    write_record_json(&mut buf, r, base + i, r.parent.map(|p| base + p), tid);
                }
                self.next_id += records.len();
            }
            TraceFormat::Chrome => {
                if !self.opened {
                    buf.push('[');
                    self.opened = true;
                    self.emit(&buf);
                    buf.clear();
                }
                let mut first = self.named.is_empty() && self.next_id == 0;
                self.next_id = 1; // any event written ⇒ commas from now on
                if self.named.insert(tid) {
                    if !first {
                        buf.push(',');
                    }
                    first = false;
                    let _ = write!(
                        buf,
                        "\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":{}}}}}",
                        json_string(label)
                    );
                }
                for r in records {
                    if !first {
                        buf.push(',');
                    }
                    first = false;
                    buf.push('\n');
                    write_chrome_event(&mut buf, r, tid);
                }
            }
        }
        self.emit(&buf);
    }
}

fn write_chrome_event(out: &mut String, r: &SpanRecord, tid: u64) {
    let ts = r.start.as_micros();
    match r.kind {
        RecordKind::Span => {
            let dur = r.end.map_or(0, |e| e.saturating_sub(r.start).as_micros());
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":{},\"cat\":\"covest\",\
                 \"ts\":{ts},\"dur\":{dur}",
                json_string(&r.name)
            );
        }
        RecordKind::Event => {
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"name\":{},\
                 \"cat\":\"covest\",\"ts\":{ts}",
                json_string(&r.name)
            );
        }
    }
    if !r.fields.is_empty() || !r.labels.is_empty() {
        out.push_str(",\"args\":{");
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
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, span, span_field, span_label, uninstall, ManualClock, Telemetry};
    use std::sync::Arc;
    use std::time::Duration;

    fn forest() -> Vec<SpanRecord> {
        let clock = Arc::new(ManualClock::new());
        install(Telemetry::with_clock(clock.clone()));
        {
            let _shard = span("shard:demo");
            span_label("signals", "ack+req");
            span_field("properties", 2);
            clock.advance(Duration::from_micros(3));
            {
                let _c = span("compile");
                clock.advance(Duration::from_micros(4));
            }
        }
        uninstall().expect("installed").into_parts().0
    }

    #[test]
    fn render_emits_metadata_and_complete_events() {
        let records = forest();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TraceFormat::Chrome);
        w.write_track(1, "worker 0", &records);
        w.finish().expect("vec sink");
        let text = String::from_utf8(buf).expect("utf-8");
        assert!(text.starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"worker 0\"}}"
        ));
        assert!(text.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"shard:demo\",\"cat\":\"covest\",\
             \"ts\":0,\"dur\":7,\"args\":{\"properties\":2,\"signals\":\"ack+req\"}}"
        ));
        assert!(text.contains("\"name\":\"compile\",\"cat\":\"covest\",\"ts\":3,\"dur\":4"));
    }

    /// A finished writer and one dropped unfinished (its run failed)
    /// both close the array.
    #[test]
    fn empty_trace_is_a_valid_array() {
        for finish in [true, false] {
            let mut buf = Vec::new();
            let w = TraceWriter::new(&mut buf, TraceFormat::Chrome);
            if finish {
                w.finish().expect("vec sink");
            } else {
                drop(w);
            }
            assert_eq!(String::from_utf8(buf).unwrap(), "[]\n");
        }
    }

    #[test]
    fn jsonl_tracks_rebase_ids_and_tag_tid() {
        let records = forest();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, TraceFormat::Jsonl);
        w.write_track(1, "worker 0", &records);
        w.write_track(2, "worker 1", &records);
        w.finish().expect("vec sink");
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"id\":0") && lines[0].contains("\"tid\":1"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"id\":2") && lines[2].contains("\"tid\":2"));
        assert!(lines[3].contains("\"parent\":2"));
    }

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert_eq!(
            "chrome".parse::<TraceFormat>().unwrap(),
            TraceFormat::Chrome
        );
        assert_eq!(
            "perfetto".parse::<TraceFormat>().unwrap(),
            TraceFormat::Chrome
        );
        assert!("xml".parse::<TraceFormat>().is_err());
    }
}
