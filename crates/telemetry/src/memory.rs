//! Memory timeline sampling and per-phase peak-live attribution.
//!
//! The BDD arena is the estimator's dominant allocation, but the engine
//! crates must not depend on `covest-bdd` from here — so the driver
//! (covest-par's shard run, which `covest check` drives too) installs a
//! thread-local **sampler** closure over its manager via
//! [`set_mem_sampler`]. The recorder then
//! stamps a [`MemSample`] into the record stream at every span open,
//! span close, and event (BFS steps are events, so each step carries a
//! sample) — the memory *timeline*.
//!
//! [`peak_by_phase`] folds that timeline into a per-phase peak-live
//! attribution table. The attribution rule makes the table reconcile
//! **exactly** with the manager's `bdd_peak_live_nodes` counter: each
//! sample normally contributes its live-node gauge, but the first
//! sample that observes a new high-water mark contributes the mark
//! itself — the allocation that set it happened inside that sample's
//! phase, between the previous sample and this one. The table's maximum
//! therefore equals the final high-water mark, provided the forest ends
//! with a sampled close (the shard span guarantees this).
//!
//! Samples are deterministic: live nodes, arena capacity, and the
//! high-water mark are pure functions of the operation sequence, so the
//! memory timeline obeys the same byte-parity contract as counters.

use std::cell::RefCell;

use crate::{Counters, RecordKind, SpanRecord};

/// One reading of the driver's arena gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSample {
    /// Live (reachable-or-uncollected) nodes right now.
    pub live_nodes: u64,
    /// Bytes held by the arena, unique tables and operation caches.
    pub arena_bytes: u64,
    /// High-water mark of `live_nodes` since the manager was created.
    pub peak_live_nodes: u64,
}

/// Field names a span-open / event sample records under.
pub const OPEN_FIELDS: [&str; 3] = ["mem_live", "mem_bytes", "mem_peak"];
/// Field names a span-close sample records under.
pub const CLOSE_FIELDS: [&str; 3] = ["mem_live_close", "mem_bytes_close", "mem_peak_close"];

pub(crate) fn open_fields(s: MemSample) -> Vec<(String, u64)> {
    vec![
        (OPEN_FIELDS[0].to_owned(), s.live_nodes),
        (OPEN_FIELDS[1].to_owned(), s.arena_bytes),
        (OPEN_FIELDS[2].to_owned(), s.peak_live_nodes),
    ]
}

pub(crate) fn close_fields(s: MemSample) -> Vec<(String, u64)> {
    vec![
        (CLOSE_FIELDS[0].to_owned(), s.live_nodes),
        (CLOSE_FIELDS[1].to_owned(), s.arena_bytes),
        (CLOSE_FIELDS[2].to_owned(), s.peak_live_nodes),
    ]
}

thread_local! {
    static SAMPLER: RefCell<Option<Box<dyn Fn() -> MemSample>>> = const { RefCell::new(None) };
}

/// Installs `f` as the current thread's memory sampler. The recorder
/// calls it at every span open/close and event while both it and a
/// telemetry recorder are installed.
pub fn set_mem_sampler(f: impl Fn() -> MemSample + 'static) {
    SAMPLER.with(|s| *s.borrow_mut() = Some(Box::new(f)));
}

/// Removes the current thread's memory sampler, if any.
pub fn clear_mem_sampler() {
    SAMPLER.with(|s| *s.borrow_mut() = None);
}

/// One reading from the installed sampler (`None` without one).
pub fn sample() -> Option<MemSample> {
    // Taken out of the slot for the duration of the call so a sampler
    // that itself records telemetry cannot recurse into the borrow.
    let f = SAMPLER.with(|s| s.borrow_mut().take())?;
    let reading = f();
    SAMPLER.with(|s| {
        let mut slot = s.borrow_mut();
        if slot.is_none() {
            *slot = Some(f);
        }
    });
    Some(reading)
}

/// The phase a record's memory samples are attributed to: the innermost
/// enclosing span (including the record itself) named `compile`,
/// `reachability` (→ `reach`), `verify` (the machine's one verification
/// pass), or `signal:NAME`; `other` when no ancestor
/// matches (e.g. the shard root span).
pub fn phase_of(records: &[SpanRecord], index: usize) -> &str {
    let mut cursor = Some(index);
    while let Some(i) = cursor {
        let r = &records[i];
        if r.kind == RecordKind::Span {
            match r.name.as_str() {
                "compile" => return "compile",
                "reachability" => return "reach",
                "verify" => return "verify",
                name if name.starts_with("signal:") => return &records[i].name,
                _ => {}
            }
        }
        cursor = r.parent;
    }
    "other"
}

/// Folds a record forest's memory samples into a per-phase peak-live
/// table (phase name → peak live nodes attributed to it), in
/// first-touched phase order. See the module docs for the attribution
/// rule; [`table_peak`] of the result equals the forest's final
/// `mem_peak` reading exactly.
pub fn peak_by_phase(records: &[SpanRecord]) -> Counters {
    // Chronological sample order is the Euler tour of the span forest,
    // reconstructed from parent links alone (records append in open
    // order and spans nest by scope): before record `i` opens, every
    // open span that is not `i`'s parent must already have closed. This
    // is timestamp-free, so it is exact even under a ManualClock where
    // every stamp ties at zero.
    let mut order: Vec<(usize, bool)> = Vec::with_capacity(records.len() * 2);
    let mut stack: Vec<usize> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        while stack.last().copied() != r.parent {
            // A well-formed forest always has the parent on the stack;
            // bail instead of panicking on a malformed one.
            let Some(top) = stack.pop() else { break };
            order.push((top, true));
        }
        order.push((i, false));
        if r.kind == RecordKind::Span {
            stack.push(i);
        }
    }
    while let Some(top) = stack.pop() {
        order.push((top, true));
    }

    let field = |r: &SpanRecord, name: &str| -> Option<u64> {
        r.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let mut table = Counters::new();
    let mut prev_peak = 0u64;
    for (index, is_close) in order {
        let names = if is_close {
            &CLOSE_FIELDS
        } else {
            &OPEN_FIELDS
        };
        let r = &records[index];
        let (Some(live), Some(peak)) = (field(r, names[0]), field(r, names[2])) else {
            continue;
        };
        let mut value = live;
        if peak > prev_peak {
            value = value.max(peak);
            prev_peak = peak;
        }
        table.set_max(phase_of(records, index), value);
    }
    table
}

/// The maximum value in a [`peak_by_phase`] table (0 when empty) — the
/// figure that must equal `bdd_peak_live_nodes`.
pub fn table_peak(table: &Counters) -> u64 {
    table.iter().map(|(_, v)| v).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{event, install, span, uninstall, ManualClock, Telemetry};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn fake_sampler() -> Arc<AtomicU64> {
        // live = current value, peak = high-water of the values fed in.
        let live = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let (l, p) = (live.clone(), peak.clone());
        set_mem_sampler(move || {
            let v = l.load(Ordering::Relaxed);
            let hw = p.load(Ordering::Relaxed).max(v);
            p.store(hw, Ordering::Relaxed);
            MemSample {
                live_nodes: v,
                arena_bytes: v * 16,
                peak_live_nodes: hw,
            }
        });
        live
    }

    #[test]
    fn samples_ride_on_spans_and_events() {
        let clock = Arc::new(ManualClock::new());
        install(Telemetry::with_clock(clock.clone()));
        let live = fake_sampler();
        live.store(10, Ordering::Relaxed);
        {
            let _s = span("compile");
            live.store(50, Ordering::Relaxed);
            event("tick", &[("n", 1)]);
            live.store(20, Ordering::Relaxed);
        }
        clear_mem_sampler();
        let rec = uninstall().expect("installed");
        let records = rec.records();
        assert_eq!(records[0].fields[0], ("mem_live".to_owned(), 10));
        assert_eq!(records[0].fields[1], ("mem_bytes".to_owned(), 160));
        let close: Vec<_> = records[0]
            .fields
            .iter()
            .filter(|(n, _)| n.starts_with("mem_") && n.ends_with("_close"))
            .collect();
        assert_eq!(close.len(), 3);
        assert_eq!(*close[0], ("mem_live_close".to_owned(), 20));
        assert_eq!(*close[2], ("mem_peak_close".to_owned(), 50));
        // The event carries the user fields first, then the sample.
        assert_eq!(records[1].fields[0], ("n".to_owned(), 1));
        assert_eq!(records[1].fields[1], ("mem_live".to_owned(), 50));
    }

    #[test]
    fn peak_attribution_reconciles_with_high_water() {
        let clock = Arc::new(ManualClock::new());
        install(Telemetry::with_clock(clock.clone()));
        let live = fake_sampler();
        live.store(2, Ordering::Relaxed);
        {
            let _shard = span("shard:demo");
            {
                let _c = span("compile");
                live.store(100, Ordering::Relaxed);
                clock.advance(Duration::from_micros(1));
            }
            live.store(40, Ordering::Relaxed);
            {
                let _r = span("reachability");
                live.store(70, Ordering::Relaxed);
                event("bfs_step", &[("step", 1)]);
                live.store(60, Ordering::Relaxed);
                clock.advance(Duration::from_micros(1));
            }
            {
                let _v = span("verify");
                live.store(90, Ordering::Relaxed);
                clock.advance(Duration::from_micros(1));
            }
            {
                let _s = span("signal:ack");
                live.store(140, Ordering::Relaxed);
                clock.advance(Duration::from_micros(1));
            }
            live.store(30, Ordering::Relaxed);
        }
        clear_mem_sampler();
        let rec = uninstall().expect("installed");
        let table = peak_by_phase(rec.records());
        // compile's close observed the 100 high-water; signal:ack's
        // close observed the 140 one; reach never set a new mark so it
        // keeps its largest live gauge.
        assert_eq!(table.get("compile"), 100);
        assert_eq!(table.get("reach"), 70);
        assert_eq!(table.get("verify"), 90);
        assert_eq!(table.get("signal:ack"), 140);
        assert_eq!(table.get("other"), 30);
        assert_eq!(table_peak(&table), 140);
    }

    #[test]
    fn sampler_absent_means_no_mem_fields() {
        install(Telemetry::new());
        {
            let _s = span("compile");
        }
        let rec = uninstall().expect("installed");
        assert!(rec.records()[0].fields.is_empty());
        assert!(peak_by_phase(rec.records()).is_empty());
    }
}
