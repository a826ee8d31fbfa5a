//! Cone-of-influence parity: the pool's cone machines against the full
//! deck.
//!
//! Each shard compiles the statically pruned union of its deck's cones;
//! the sequential oracle (`common::run_sequential`) compiles the full
//! deck and projects onto each signal's cone afterwards. The
//! counting/sampling universe is the signal's cone either way, so every
//! deterministic report field — percentages (bit-for-bit), state counts,
//! verdicts, vacuity flags, and the uncovered *sets* themselves, listed
//! whole in canonical order — must agree exactly. A deterministic
//! sweep pins the whole bundled deck set; a property test samples random
//! decks and job counts; and the sized pipeline decks, whose debug
//! register chains lie outside every cone, must agree too while peaking
//! lower on the cone than on the full deck.

mod common;

use common::{all_decks, assert_semantic_parity, listing, run_sequential};
use covest_bdd::BddManager;
use covest_core::CoverageEstimator;
use covest_par::{
    compile_machine, cover_signal, plan_machine, run_batch, DeckJob, ParConfig, SignalTask,
};
use proptest::prelude::*;

/// Every bundled circuit and every `models/*.smv` deck: the pool's cone
/// machines and the full-deck oracle produce identical reports.
#[test]
fn coi_modes_agree_on_every_deck() {
    let decks = all_decks();
    let config = listing(4);
    let cone = run_batch(&decks, &config, None).expect("cone machines");
    let full = run_sequential(&decks, &config).expect("full decks");
    assert_semantic_parity("cone vs full deck", &full, &cone);
}

/// A sized pipeline deck (`gen-models --size N`) with its Table-2 suite.
fn sized_pipeline(stages: usize) -> DeckJob {
    use covest_circuits::pipeline;
    use std::fmt::Write as _;

    let mut deck = pipeline::deck_sized(stages);
    let suite = pipeline::out_suite_initial(stages)
        .into_iter()
        .chain(pipeline::out_suite_hold());
    for spec in suite {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    DeckJob::new(format!("sized:pipeline_d{stages}"), deck)
}

/// The peak live nodes of the shard body — compile and sift, verify
/// once, cover each signal — run on the unreduced module of `deck`, on a
/// fresh manager.
fn full_deck_peak(deck: &DeckJob) -> u64 {
    let module = covest_smv::parse_module(&deck.source).expect("deck parses");
    let signals: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
    let tasks = plan_machine(module.clone(), &signals)
        .expect("deck plans")
        .tasks;
    let bdd = BddManager::new();
    let (model, _) = compile_machine(&bdd, &module).expect("deck compiles");
    let estimator = CoverageEstimator::new(&model.fsm);
    let checker = estimator.checker(&model.fairness).expect("checker");
    let mut verification = estimator.verify(checker, &model.specs).expect("verifies");
    for task in &tasks {
        cover_signal(&estimator, &mut verification, &deck.name, task, 10).expect("covers");
    }
    bdd.stats().peak_live_nodes
}

/// The sized pipeline decks: each carries a debug register chain that no
/// property or signal reads, so the cone prunes it. The pool agrees with
/// the full-deck oracle on every deterministic field, and on the 8-stage
/// deck the profiled shard's peak live node count is lower than the full
/// deck's. The shard's work counters (peak live nodes, `image_calls`,
/// `bfs_steps`) are pinned: debug and release builds do the same BDD
/// work, so `cargo test` and a release run assert the same values.
#[test]
fn coi_lowers_the_peak_on_sized_pipelines() {
    let decks: Vec<DeckJob> = [4usize, 8].into_iter().map(sized_pipeline).collect();
    let config = ParConfig {
        profile: true,
        ..listing(1)
    };
    let cone = run_batch(&decks, &config, None).expect("sized pipelines run");
    let full = run_sequential(&decks, &config).expect("full decks run");
    assert_semantic_parity("sized pipelines, cone vs full deck", &full, &cone);

    let profile = &cone.decks[1].profiles[0];
    let full_peak = full_deck_peak(&decks[1]);
    assert!(
        profile.peak_live_nodes() < full_peak,
        "pipeline_d8: peak live nodes on the cone ({}) must stay below the full deck's ({full_peak})",
        profile.peak_live_nodes(),
    );
    let work = (
        profile.peak_live_nodes(),
        profile.counters.get("image_calls"),
        profile.counters.get("bfs_steps"),
    );
    assert_eq!(work, (3_536, 93, 28), "pipeline_d8, cone");
}

/// The GC checkpoints at the end of verification and of each signal's
/// coverage collect once the live nodes have doubled past 4,096. On the
/// 30-stage pipeline both fire after the startup sift's own collection;
/// the shard's peak live nodes, collections and `image_calls` are pinned
/// (the same in debug and release builds).
#[test]
fn gc_checkpoints_fire_on_a_sized_pipeline() {
    let decks = [sized_pipeline(30)];
    let config = ParConfig {
        profile: true,
        ..Default::default()
    };
    let report = run_batch(&decks, &config, None).expect("pipeline_d30 runs");
    let profile = &report.decks[0].profiles[0];
    let work = (
        profile.peak_live_nodes(),
        profile.counters.get("bdd_gc_runs"),
        profile.counters.get("image_calls"),
    );
    assert_eq!(work, (22_833, 3, 291), "pipeline_d30");
}

/// The models directory.
fn models() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

/// The machine `check` compiles for `source`, with its observed
/// signals' tasks: the cone of those signals when `cone` (`check
/// --coverage`), the full deck otherwise (plain `check`).
fn check_machine(source: &str, cone: bool) -> (covest_smv::Module, Vec<SignalTask>) {
    let module = covest_smv::parse_module(source).expect("deck parses");
    let signals: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
    let plan = plan_machine(module.clone(), &signals).expect("deck plans");
    let machine = if cone { plan.module } else { module };
    (machine, plan.tasks)
}

/// The startup sift, pinned: `compile_machine` on a fresh manager, on
/// the machines `check` builds. Compile hands the sift the same live set
/// however much garbage it leaves, so `(before, after, swaps)` move only
/// with the sift's walk or the compiled functions — the same in debug
/// and release builds.
#[test]
fn startup_sift_is_pinned() {
    let buffer = std::fs::read_to_string(models().join("priority_buffer.smv")).expect("deck reads");
    let pipeline = |stages| sized_pipeline(stages).source;
    let cases = [
        ("d100 cone", pipeline(100), true, (936, 927, 6_608)),
        ("d160 cone", pipeline(160), true, (1_476, 1_467, 10_448)),
        ("priority_buffer", buffer.clone(), false, (608, 435, 840)),
        ("priority_buffer cone", buffer, true, (561, 418, 724)),
    ];
    for (label, source, cone, want) in cases {
        let (machine, _) = check_machine(&source, cone);
        let bdd = BddManager::new();
        let (_model, sift) = compile_machine(&bdd, &machine).expect("deck compiles");
        assert_eq!((sift.before, sift.after, sift.swaps), want, "{label}");
    }
}

/// Compile leaves little garbage for the sift: on a fresh manager, the
/// arena holds at most twice the live nodes the sift starts from once
/// the `pipeline_d100` cone is compiled. (Conjoining `init` from the top
/// variable down used to leave 6,910 slots for 936 live nodes; compile
/// now leaves `init` as per-variable parts.)
#[test]
fn compile_leaves_the_sift_little_garbage() {
    let (machine, _) = check_machine(&sized_pipeline(100).source, true);
    let bdd = BddManager::new();
    let _model = covest_smv::compile_module(&bdd, &machine).expect("deck compiles");
    let slots = bdd.table_size();
    let sift = bdd.reduce_heap();
    assert!(
        slots <= 2 * sift.before,
        "pipeline_d100 cone: {slots} arena slots for {} live nodes",
        sift.before
    );
}

/// A small deck allocates small caches: `models/counter.smv`, compiled,
/// verified and covered on a fresh manager as `check --coverage` runs
/// it, never grows the arena to 2^10 slots, so every compute cache
/// keeps its starting 2^10 entries.
#[test]
fn counter_keeps_its_caches_at_2_to_the_10() {
    let source = std::fs::read_to_string(models().join("counter.smv")).expect("deck reads");
    let (machine, tasks) = check_machine(&source, true);
    let bdd = BddManager::new();
    let (model, _) = compile_machine(&bdd, &machine).expect("deck compiles");
    let estimator = CoverageEstimator::new(&model.fsm);
    let checker = estimator.checker(&model.fairness).expect("checker");
    let mut verification = estimator.verify(checker, &model.specs).expect("verifies");
    for task in &tasks {
        cover_signal(&estimator, &mut verification, "counter", task, 10).expect("covers");
    }
    assert!(bdd.table_size() < 1 << 10, "{} slots", bdd.table_size());
    assert_eq!(bdd.cache_entries(), [1 << 10; 3]);
}

proptest! {
    /// Random (deck, jobs) samples: the pool's cone machines agree with
    /// the full-deck oracle on every deterministic report field.
    #[test]
    fn coi_modes_agree_under_random_configs(
        pick in 0..1000usize,
        jobs in 1..5usize,
    ) {
        let decks = all_decks();
        let deck = vec![decks[pick % decks.len()].clone()];
        let label = format!("deck={} jobs={jobs}", deck[0].name);
        let config = listing(jobs);
        let cone = run_batch(&deck, &config, None).expect("cone machine");
        let full = run_sequential(&deck, &config).expect("full deck");
        assert_semantic_parity(&label, &full, &cone);
    }
}
