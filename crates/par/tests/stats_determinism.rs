//! Determinism contract for the telemetry profiles: every per-shard
//! counter is a pure function of (deck source, configuration) — never of
//! the scheduler, the thread count, the clock, or which worker executed
//! the shard. Two identical runs must produce byte-identical counters,
//! and so must runs that differ only in `jobs` — including runs with
//! more threads than the heaviest shard leaves work for. Durations
//! (`queue_wait`, `compile`, `reach`, `solve`) are wall-clock scheduling
//! facts by definition and are deliberately excluded from every parity
//! assertion here.

use std::fmt::Write as _;
use std::sync::Arc;

use covest_par::{run_batch, BatchReport, DeckJob, ParConfig, ShardProfile, WorkPlan};
use covest_telemetry::chrome::{TraceFormat, TraceWriter};
use covest_telemetry::{memory, ManualClock};

/// Every bundled circuit (generated deck + its Table-2 suite) plus
/// every checked-in `models/*.smv` deck — the same fleet the parity
/// suite locks.
fn all_decks() -> Vec<DeckJob> {
    use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};

    let with_specs = |mut deck: String, specs: &[covest_ctl::Formula]| -> String {
        for spec in specs {
            writeln!(deck, "SPEC {spec};").expect("write to string");
        }
        deck
    };

    let mut queue_suite = circular_queue::wrap_suite_initial();
    queue_suite.extend(circular_queue::full_suite());
    queue_suite.extend(circular_queue::empty_suite());
    let mut buffer_suite = priority_buffer::lo_suite_initial(4);
    buffer_suite.push(priority_buffer::lo_missing_case());
    buffer_suite.extend(priority_buffer::hi_suite(4));
    let mut pipeline_suite = pipeline::out_suite_initial(4);
    pipeline_suite.extend(pipeline::out_suite_hold());

    let mut decks = vec![
        DeckJob::new(
            "circuit:circular_queue",
            with_specs(circular_queue::deck(4), &queue_suite),
        ),
        DeckJob::new(
            "circuit:priority_buffer",
            with_specs(priority_buffer::deck(4, false), &buffer_suite),
        ),
        DeckJob::new(
            "circuit:counter",
            with_specs(counter::deck(), &counter::increment_properties()),
        ),
        DeckJob::new(
            "circuit:pipeline",
            with_specs(pipeline::deck(4), &pipeline_suite),
        ),
    ];

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut model_decks: Vec<DeckJob> = std::fs::read_dir(&dir)
        .expect("models directory")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "smv") {
                let name = format!("models/{}", path.file_name().unwrap().to_string_lossy());
                let src = std::fs::read_to_string(&path).expect("readable deck");
                Some(DeckJob::new(name, src))
            } else {
                None
            }
        })
        .collect();
    model_decks.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(!model_decks.is_empty(), "no decks under {}", dir.display());
    decks.extend(model_decks);
    decks
}

/// A lopsided fleet: one heavyweight shard (a sized counter whose suite
/// dwarfs everything else) plus a tail of one-bit togglers. The heavy
/// shard is taken first; at high job counts the other threads drain the
/// togglers while it runs, so the same decks land on different threads
/// than at `jobs = 1`.
fn storm_decks() -> Vec<DeckJob> {
    use covest_circuits::counter;
    let mut heavy = counter::deck_sized(48);
    for spec in counter::increment_properties_sized(48) {
        writeln!(heavy, "SPEC {spec};").expect("write to string");
    }
    let mut decks = vec![DeckJob::new("storm:heavy_counter", heavy)];
    for i in 0..8 {
        let toggler = format!(
            "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\n\
             SPEC AG (b -> AX !b);\nOBSERVED b;\n-- toggler {i}\n"
        );
        decks.push(DeckJob::new(format!("storm:toggler_{i}"), toggler));
    }
    decks
}

/// Flattens a report's profiles in merge order (decks in input order,
/// shards in shard-index order within each deck).
fn profiles(report: &BatchReport) -> Vec<&ShardProfile> {
    report
        .decks
        .iter()
        .flat_map(|d| d.profiles.iter())
        .collect()
}

/// Asserts two runs produced the same shards with byte-identical
/// counters. Durations are never compared.
fn assert_counter_parity(label: &str, a: &BatchReport, b: &BatchReport) {
    let (pa, pb) = (profiles(a), profiles(b));
    assert_eq!(pa.len(), pb.len(), "{label}: profile count");
    assert!(!pa.is_empty(), "{label}: profiling produced no profiles");
    for (x, y) in pa.iter().zip(&pb) {
        let tag = format!("{label}: {} / {:?}", x.deck, x.signals);
        assert_eq!(x.deck, y.deck, "{tag}: deck order");
        assert_eq!(x.signals, y.signals, "{tag}: signal order");
        assert_eq!(x.counters, y.counters, "{tag}: counters drifted");
        assert!(!x.counters.is_empty(), "{tag}: counters recorded");
    }
}

#[test]
fn identical_runs_produce_identical_counters() {
    let decks = all_decks();
    let config = ParConfig {
        jobs: 2,
        profile: true,
        ..Default::default()
    };
    let a = run_batch(&decks, &config, None).expect("first run");
    let b = run_batch(&decks, &config, None).expect("second run");
    assert_counter_parity("repeat", &a, &b);
}

#[test]
fn per_shard_counters_identical_across_job_counts() {
    let decks = all_decks();
    let one = ParConfig {
        jobs: 1,
        profile: true,
        ..Default::default()
    };
    let four = ParConfig {
        jobs: 4,
        profile: true,
        ..Default::default()
    };
    let a = run_batch(&decks, &one, None).expect("jobs=1 run");
    let b = run_batch(&decks, &four, None).expect("jobs=4 run");
    assert_counter_parity("jobs 1 vs 4", &a, &b);
}

/// The lopsided fleet at `jobs=8`: the per-shard counters must match a
/// `jobs=1` run byte for byte — a shard's manager exists only on the
/// thread that runs it, so which thread that is cannot perturb a single
/// deterministic value.
#[test]
fn counters_survive_forced_stealing() {
    let decks = storm_decks();
    let one = ParConfig {
        jobs: 1,
        profile: true,
        ..Default::default()
    };
    let eight = ParConfig {
        jobs: 8,
        profile: true,
        ..Default::default()
    };
    let a = run_batch(&decks, &one, None).expect("jobs=1 run");
    let b = run_batch(&decks, &eight, None).expect("jobs=8 run");
    assert_eq!((a.sched.workers, b.sched.workers), (1, 8));
    assert_counter_parity("storm jobs 1 vs 8", &a, &b);
}

#[test]
fn profiles_absent_unless_requested() {
    let decks = all_decks();
    let report = run_batch(&decks, &ParConfig::default(), None).expect("unprofiled run");
    assert!(
        report.decks.iter().all(|d| d.profiles.is_empty()),
        "profiles must only be collected when ParConfig::profile is set"
    );
}

/// A profiled config driven by an injected [`ManualClock`]: the clock
/// never advances, so every wall-clock stamp in the record stream ties
/// at zero and the *entire* span forest — names, nesting, deterministic
/// fields, memory-timeline samples — becomes parity-comparable.
fn clocked(jobs: usize) -> ParConfig {
    ParConfig {
        jobs,
        profile: true,
        clock: Some(Arc::new(ManualClock::new())),
        ..Default::default()
    }
}

/// Under an injected manual clock, two identical profiled runs agree on
/// the complete span forests — including the memory-timeline samples
/// (`mem_live`/`mem_bytes`/`mem_peak` and their `_close` twins) stamped
/// at every span boundary and BFS step — and on the peak-live
/// attribution tables folded from them. The table's maximum must also
/// reconcile exactly with the shard manager's high-water counter, and
/// the post-compile sift's before/after sizes are both set or both zero.
#[test]
fn memory_timelines_identical_across_repeat_runs() {
    let decks = all_decks();
    let a = run_batch(&decks, &clocked(2), None).expect("first run");
    let b = run_batch(&decks, &clocked(2), None).expect("second run");
    assert_counter_parity("clocked repeat", &a, &b);
    for (x, y) in profiles(&a).iter().zip(profiles(&b)) {
        let tag = format!("{} / {:?}", x.deck, x.signals);
        assert_eq!(x.spans, y.spans, "{tag}: span forest drifted");
        assert!(
            x.spans
                .iter()
                .any(|r| r.fields.iter().any(|(n, _)| n == memory::OPEN_FIELDS[0])),
            "{tag}: no memory samples in the span forest"
        );
        assert_eq!(
            x.peak_by_phase, y.peak_by_phase,
            "{tag}: peak attribution drifted"
        );
        assert_eq!(
            memory::table_peak(&x.peak_by_phase),
            x.peak_live_nodes(),
            "{tag}: peak table must reconcile with bdd_peak_live_nodes"
        );
        let (before, after) = x.reorder_sizes();
        assert_eq!(
            before == 0,
            after == 0,
            "{tag}: reorder sizes must be both unset or both set \
             (before {before}, after {after})"
        );
    }
}

/// The span forests themselves are `--jobs`-independent: a shard records
/// the same spans, fields, labels and memory samples whether the pool
/// ran one worker or four (the durations differ, but under the manual
/// clock every in-record stamp is zero).
#[test]
fn span_forests_identical_across_job_counts() {
    let decks = all_decks();
    let a = run_batch(&decks, &clocked(1), None).expect("jobs=1 run");
    let b = run_batch(&decks, &clocked(4), None).expect("jobs=4 run");
    assert_counter_parity("clocked jobs 1 vs 4", &a, &b);
    for (x, y) in profiles(&a).iter().zip(profiles(&b)) {
        let tag = format!("{} / {:?}", x.deck, x.signals);
        assert_eq!(x.spans, y.spans, "{tag}: span forest depends on jobs");
        assert_eq!(
            x.peak_by_phase, y.peak_by_phase,
            "{tag}: peak attribution depends on jobs"
        );
    }
}

/// The streamed Chrome trace carries the same spans and args at every
/// job count. Track ids and track order legitimately differ, so events
/// are normalized (tid scrubbed, metadata lines excluded) and compared
/// as sorted multisets.
#[test]
fn chrome_trace_events_identical_across_job_counts() {
    fn normalized_events(jobs: usize) -> Vec<String> {
        let decks = all_decks();
        let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Chrome);
        run_batch(&decks, &clocked(jobs), Some(&mut writer)).expect("profiled traced run");
        let text = String::from_utf8(writer.into_inner().expect("vec sink")).expect("utf-8 trace");
        let mut events: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\"") || l.contains("\"ph\":\"i\""))
            .map(|l| {
                let e = l.trim_end_matches(',');
                let at = e.find("\"tid\":").expect("events carry a tid");
                let rest = e[at + 6..].find(',').expect("tid is not last") + at + 6;
                format!("{}\"tid\":_{}", &e[..at], &e[rest..])
            })
            .collect();
        events.sort();
        events
    }
    let one = normalized_events(1);
    let four = normalized_events(4);
    assert!(!one.is_empty(), "trace recorded no events");
    assert_eq!(
        one, four,
        "chrome trace span names/args must not depend on --jobs"
    );
}

/// Streaming empties the profile's span buffer (the writer owns the
/// records now), while the unstreamed run keeps them — the bounded
/// memory contract of `--trace` on long batches.
#[test]
fn streaming_drains_profile_span_buffers() {
    let decks = all_decks();
    let mut writer = TraceWriter::new(Vec::new(), TraceFormat::Jsonl);
    let streamed = run_batch(&decks, &clocked(2), Some(&mut writer)).expect("streamed");
    writer.finish().expect("vec sink");
    let buffered = run_batch(&decks, &clocked(2), None).expect("buffered");
    assert!(
        profiles(&streamed).iter().all(|p| p.spans.is_empty()),
        "streamed profiles must not retain span forests"
    );
    assert!(
        profiles(&buffered).iter().all(|p| !p.spans.is_empty()),
        "unstreamed profiles must retain span forests"
    );
    // Draining the spans must not lose the attribution table.
    for (s, b) in profiles(&streamed).iter().zip(profiles(&buffered)) {
        assert_eq!(s.peak_by_phase, b.peak_by_phase, "{}", s.deck);
    }
}

/// A shard's `reach` time covers the reachability fixpoint: on every
/// profiled shard with tasks it is at least the duration of the
/// `reachability` span directly under the shard root, both read off the
/// same wall clock.
#[test]
fn reach_times_the_reachability_fixpoint() {
    let config = ParConfig {
        jobs: 2,
        profile: true,
        ..Default::default()
    };
    let report = run_batch(&all_decks(), &config, None).expect("profiled run");
    for p in profiles(&report).iter().filter(|p| !p.signals.is_empty()) {
        let spans: Vec<_> = p
            .spans
            .iter()
            .filter(|s| s.name == "reachability" && s.parent == Some(0))
            .collect();
        let [span] = spans[..] else {
            panic!("{}: one top-level reachability span", p.deck);
        };
        let fixpoint = span.end.expect("closed") - span.start;
        assert!(
            p.reach >= fixpoint,
            "{}: reach {:?} < reachability span {fixpoint:?}",
            p.deck,
            p.reach
        );
    }
}

/// Queue wait is attributed per shard as the time from the pool's start
/// to the shard's pickup, so no single shard can ever report waiting
/// longer than the whole pool ran: `queue_max ≤ wall`. (The *total* across shards may legitimately
/// exceed wall-clock — N shards wait concurrently — which is why the
/// bench reports a mean and a max; see DESIGN.md.)
#[test]
fn queue_wait_never_exceeds_pool_wall_clock() {
    let decks = all_decks();
    let config = ParConfig {
        jobs: 2,
        profile: true,
        ..Default::default()
    };
    let plan = WorkPlan::plan(&decks, &config).expect("plans");
    let sw = covest_telemetry::Stopwatch::start();
    let report = plan.run(&config).expect("runs");
    let wall = sw.elapsed();
    let queue_max = profiles(&report)
        .iter()
        .map(|p| p.queue_wait)
        .max()
        .expect("profiles present");
    assert!(
        queue_max <= wall,
        "per-shard queue wait ({queue_max:?}) exceeded pool wall-clock ({wall:?})"
    );
}
