//! Sequential ↔ parallel parity: the worker pool is pure mechanism.
//!
//! Over **every** bundled circuit and every `models/*.smv` deck, the
//! parallel engine must produce
//! coverage percentages (bit-for-bit, via `f64::to_bits`), per-property
//! verdicts, vacuity flags, state counts and uncovered-state **sets**
//! (compared as complete canonical listings, which over one universe
//! are equal exactly when the sets are) identical to the sequential
//! estimator. Separate tests pin
//! scheduling-independence: `jobs = 1` and `jobs = 4` (and a steal-storm
//! `jobs = 8` case where work stealing provably occurs) must agree on
//! every deterministic field, node counts and uncovered listings
//! included, because every shard runs its signals in declaration order
//! on its own fresh manager — wherever, and by whomever, it executes.

mod common;

use common::{all_decks, assert_semantic_parity, listing, run_sequential};
use covest_par::{run_batch, DeckJob, ParConfig, WorkPlan};

/// Every deck under the one engine configuration: sequential estimator
/// vs 4-way parallel pool.
#[test]
fn parallel_matches_sequential_across_mode_cross() {
    let decks = all_decks();
    let cfg = listing(4);
    let seq = run_sequential(&decks, &cfg).expect("sequential baseline");
    let par = run_batch(&decks, &cfg).expect("parallel batch");
    assert_semantic_parity("default config", &seq, &par);
}

/// Scheduling independence: with per-shard managers, `jobs = 1` and
/// `jobs = 4` reports agree on *everything* deterministic — including
/// node counts, which would diverge if shards shared managers across
/// scheduling boundaries.
#[test]
fn job_count_does_not_change_the_report() {
    let decks = all_decks();
    let plan = WorkPlan::plan(&decks, &listing(1)).expect("plans");
    let one = plan.run(&listing(1)).expect("jobs=1");
    let four = plan.run(&listing(4)).expect("jobs=4");
    assert_semantic_parity("jobs=1 vs jobs=4", &one, &four);
    for (a, b) in one.outcomes().zip(four.outcomes()) {
        assert_eq!(a.row.verify_nodes, b.row.verify_nodes, "{}", a.signal);
        assert_eq!(a.row.coverage_nodes, b.row.coverage_nodes, "{}", a.signal);
    }
}

/// The steal-storm case: a fleet engineered so whole-shard stealing
/// *provably* happens at `jobs = 8` (one heavyweight sized-counter shard
/// dealt to worker 0 with togglers queued behind it; the other workers
/// drain instantly and must steal) — and the full report is still byte
/// identical to `jobs = 1`: rows, node counts, and every uncovered
/// listing. Stealing moves a shard between threads before its private
/// manager exists, so it cannot perturb a single deterministic value.
#[test]
fn report_bytes_survive_forced_stealing() {
    use covest_circuits::counter;
    use std::fmt::Write as _;
    let mut heavy = counter::deck_sized(64);
    for spec in counter::increment_properties_sized(64) {
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

    let one = run_batch(&decks, &listing(1)).expect("jobs=1");
    let eight = run_batch(&decks, &listing(8)).expect("jobs=8");
    assert_eq!(one.sched.steals, 0, "one worker has nobody to steal from");
    assert!(
        eight.sched.steals > 0,
        "the storm fleet must force at least one steal at jobs=8 \
         (workers {}, shards {})",
        eight.sched.workers,
        eight.sched.shards,
    );
    assert_semantic_parity("steal storm jobs 1 vs 8", &one, &eight);
    for (a, b) in one.outcomes().zip(eight.outcomes()) {
        assert_eq!(a.row.verify_nodes, b.row.verify_nodes, "{}", a.signal);
        assert_eq!(a.row.coverage_nodes, b.row.coverage_nodes, "{}", a.signal);
    }
}

/// The planner decomposes per the paper's algorithm: one task per
/// observed signal, declaration order, verification-only decks get no
/// task, and the queue spans all decks (one shared thread budget).
#[test]
fn plan_shape_follows_signal_decomposition() {
    let toggler =
        "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\nSPEC AX b;\n";
    let decks = vec![
        DeckJob::new("no-signals", toggler),
        DeckJob {
            name: "override".into(),
            source: format!("{toggler}OBSERVED b;\n"),
            observed: vec!["b".into(), "b".into()],
        },
    ];
    let plan = WorkPlan::plan(&decks, &ParConfig::default()).expect("plans");
    assert_eq!(plan.num_shards(), 2);
    assert_eq!(plan.num_tasks(), 2, "2 override signals");
    let report = plan.run(&ParConfig::default()).expect("runs");
    assert_eq!(report.decks[0].signals.len(), 0);
    assert_eq!(report.decks[0].verdicts.len(), 1);
    assert_eq!(report.decks[1].signals.len(), 2);
}

/// Worker errors surface deterministically: the failed task with the
/// lowest task index wins, regardless of which worker hit it first.
#[test]
fn unknown_signal_fails_deterministically() {
    let toggler =
        "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\nSPEC AX b;\n";
    let decks = vec![DeckJob {
        name: "bad".into(),
        source: toggler.to_owned(),
        observed: vec!["nope1".into(), "nope2".into()],
    }];
    let cfg = ParConfig {
        jobs: 4,
        ..Default::default()
    };
    for _ in 0..4 {
        match run_batch(&decks, &cfg) {
            Err(covest_par::ParError::Task { deck, signal, .. }) => {
                assert_eq!(deck, "bad");
                assert_eq!(signal.as_deref(), Some("nope1"), "lowest task index wins");
            }
            other => panic!("expected a task error, got {other:?}"),
        }
    }
}

/// The parity fleet plus sized decks, so that the planner's threads
/// get decks of very different lengths.
fn fleet_with_sized_decks() -> Vec<DeckJob> {
    use covest_circuits::{counter, pipeline};
    use std::fmt::Write as _;

    let mut decks = all_decks();
    for n in [12, 24] {
        let mut deck = counter::deck_sized(n);
        for spec in counter::increment_properties_sized(n) {
            writeln!(deck, "SPEC {spec};").expect("write to string");
        }
        decks.push(DeckJob::new(format!("sized:counter_m{n}"), deck));
    }
    let mut deck = pipeline::deck_sized(6);
    for spec in pipeline::out_suite_initial(6)
        .into_iter()
        .chain(pipeline::out_suite_hold())
    {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    decks.push(DeckJob::new("sized:pipeline_d6", deck));
    decks
}

/// Decks are planned on the `jobs` threads, yet the plan is the same at
/// every thread count — tasks, shards, size estimates — and so is every
/// deterministic field of the report it runs to.
#[test]
fn plan_is_identical_across_planner_threads() {
    let decks = fleet_with_sized_decks();
    let base = WorkPlan::plan(&decks, &listing(1)).expect("plans");
    let base_report = base.run(&listing(1)).expect("runs");
    for jobs in [2, 4] {
        let plan = WorkPlan::plan(&decks, &listing(jobs)).expect("plans");
        assert_eq!(plan.num_tasks(), base.num_tasks(), "jobs={jobs}");
        assert_eq!(plan.num_shards(), base.num_shards(), "jobs={jobs}");
        assert_eq!(
            plan.task_size_estimates(),
            base.task_size_estimates(),
            "jobs={jobs}"
        );
        let report = plan.run(&listing(jobs)).expect("runs");
        assert_semantic_parity(&format!("planned at jobs={jobs}"), &base_report, &report);
        for (a, b) in base_report.decks.iter().zip(&report.decks) {
            assert_eq!(a.num_properties, b.num_properties, "{}", a.name);
        }
        for (a, b) in base_report.outcomes().zip(report.outcomes()) {
            assert_eq!(a.row.verify_nodes, b.row.verify_nodes, "{}", a.signal);
            assert_eq!(a.row.coverage_nodes, b.row.coverage_nodes, "{}", a.signal);
        }
    }
}

/// With two broken decks in the joblist, the one listed first is the
/// error, whichever thread plans which deck first. The second is the
/// longer, so the planner takes it before the first.
#[test]
fn first_listed_broken_deck_fails_the_plan_at_every_thread_count() {
    let toggler =
        "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\nSPEC AX b;\n";
    let decks = vec![
        DeckJob::new("good", toggler),
        DeckJob::new("broken-first", "MODULE main\nVAR x : snake;\n"),
        DeckJob::new("good-too", toggler),
        DeckJob::new(
            "broken-second",
            format!(
                "{toggler}SPEC EG b;\nOBSERVED b;\n{}",
                "-- padding\n".repeat(20)
            ),
        ),
    ];
    for jobs in [1, 2, 4] {
        for _ in 0..4 {
            let config = ParConfig {
                jobs,
                ..Default::default()
            };
            match WorkPlan::plan(&decks, &config) {
                Err(covest_par::ParError::Plan { deck, .. }) => {
                    assert_eq!(deck, "broken-first", "jobs={jobs}")
                }
                other => panic!("jobs={jobs}: expected a plan error, got {other:?}"),
            }
        }
    }
    // Alone, the second deck fails on its property, named as compile
    // names it.
    match WorkPlan::plan(&decks[3..], &ParConfig::default()) {
        Err(covest_par::ParError::Plan { message, .. }) => assert!(
            message.starts_with("model error: SPEC `EG b`: formula outside"),
            "{message}"
        ),
        other => panic!("expected a plan error, got {other:?}"),
    }
}

/// A bad deck is rejected at planning time, before any thread spawns.
#[test]
fn malformed_deck_fails_in_the_planner() {
    let decks = vec![DeckJob::new("broken", "MODULE main\nVAR x : snake;\n")];
    match run_batch(&decks, &ParConfig::default()) {
        Err(covest_par::ParError::Plan { deck, .. }) => assert_eq!(deck, "broken"),
        other => panic!("expected a plan error, got {other:?}"),
    }
}
