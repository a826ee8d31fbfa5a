//! One coverage path: every deck is one shard — one machine, verified
//! once — and each signal's coverage reuses that verification.

use std::sync::Arc;

use covest_par::{run_batch, DeckJob, ParConfig, WorkPlan};
use covest_telemetry::{ManualClock, RecordKind, SpanRecord};

/// Two signals with disjoint cones and no property at all.
const SPECLESS: &str = "MODULE main\nVAR a : boolean;\n    b : boolean;\nASSIGN\n  \
                        init(a) := FALSE;\n  next(a) := !a;\n  init(b) := FALSE;\n  \
                        next(b) := b;\nOBSERVED a, b;\n";

/// A deck is one shard even when its signals' cones are disjoint. That
/// happens only when no property depends on a variable, and then no
/// property can cover a state.
#[test]
fn deck_with_disjoint_cones_is_one_shard() {
    let config = ParConfig::default();
    let plan = WorkPlan::plan(&[DeckJob::new("specless", SPECLESS)], &config).expect("plans");
    assert_eq!(plan.num_shards(), 1);
    assert_eq!(plan.num_tasks(), 2);
    let report = plan.run(&config).expect("runs");
    assert_eq!(report.sched.shards, 1);
    let rows: Vec<(&str, f64)> = report
        .outcomes()
        .map(|o| (o.signal.as_str(), o.row.covered_states))
        .collect();
    assert_eq!(rows, [("a", 0.0), ("b", 0.0)]);
    // Both rows come off the one machine.
    let nodes: Vec<usize> = report.outcomes().map(|o| o.row.verify_nodes).collect();
    assert_eq!(nodes[0], nodes[1]);
}

/// The names of `spans[i]`'s enclosing spans, innermost first.
fn ancestors(spans: &[SpanRecord], i: usize) -> Vec<&str> {
    let mut names = Vec::new();
    let mut cursor = spans[i].parent;
    while let Some(p) = cursor {
        names.push(spans[p].name.as_str());
        cursor = spans[p].parent;
    }
    names
}

/// A shard verifies its deck once: its profile holds exactly one
/// `verify` span, carrying the suite size, directly under the shard root
/// and outside every `signal:*` span. Under a manual clock the whole
/// forest repeats exactly.
#[test]
fn shard_verifies_its_deck_once() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../models/priority_buffer.smv"
    );
    let source = std::fs::read_to_string(path).expect("bundled deck");
    let decks = [DeckJob::new("priority_buffer", source)];
    let config = ParConfig {
        profile: true,
        clock: Some(Arc::new(ManualClock::new())),
        ..Default::default()
    };
    let report = run_batch(&decks, &config).expect("runs");
    let [profile] = report.decks[0].profiles.as_slice() else {
        panic!("one shard profile expected");
    };
    assert_eq!(profile.signals, ["hi_cnt", "lo_cnt"]);
    let spans = &profile.spans;
    let verify: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].kind == RecordKind::Span && spans[i].name == "verify")
        .collect();
    let [v] = verify.as_slice() else {
        panic!("one verify span expected, found {}", verify.len());
    };
    assert!(spans[*v].fields.contains(&(
        "properties".to_owned(),
        report.decks[0].num_properties as u64
    )));
    assert_eq!(report.decks[0].num_properties, 11);
    assert_eq!(ancestors(spans, *v), ["shard:priority_buffer"]);
    let signals = spans
        .iter()
        .filter(|s| s.name.starts_with("signal:"))
        .count();
    assert_eq!(signals, 2);
    assert!(
        profile.peak_by_phase.get("verify") > 0,
        "no verify phase row"
    );

    let again = run_batch(&decks, &config).expect("runs again");
    assert_eq!(again.decks[0].profiles[0].spans, *spans);
}
