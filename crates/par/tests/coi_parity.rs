//! Cone-of-influence parity: `--coi on` and `--coi off` are two
//! implementations of one contract.
//!
//! With COI on, each coverage task compiles the statically pruned cone
//! deck and imports the cone-projected reachable set; with COI off it
//! compiles the full deck and the estimator projects onto the cone
//! afterwards. The counting/sampling universe is the signal's cone
//! either way, so every deterministic report field — percentages
//! (bit-for-bit), state counts, verdicts, vacuity flags, canonical
//! uncovered samples, and the uncovered *sets* themselves — must agree
//! exactly. A deterministic sweep pins the whole bundled deck set under
//! the default config; a property test samples random engine configs
//! (image × simplify × reorder × jobs) per deck; and the sized pipeline
//! decks, whose debug register chains lie outside every cone, must agree
//! too while peaking lower with COI on.

mod common;

use common::{all_decks, assert_semantic_parity};
use covest_bdd::ReorderMode;
use covest_par::{run_batch, BatchReport, DeckJob, ParConfig};
use covest_smv::{ImageConfig, ImageMethod, SimplifyConfig};
use proptest::prelude::*;

fn config(
    coi: bool,
    image: ImageMethod,
    simplify: SimplifyConfig,
    reorder: ReorderMode,
) -> ParConfig {
    ParConfig {
        jobs: 4,
        image: ImageConfig {
            method: image,
            simplify,
            ..Default::default()
        },
        reorder,
        coi,
        ..Default::default()
    }
}

/// Every bundled circuit and every `models/*.smv` deck: COI on and off
/// produce identical reports under the default engine config.
#[test]
fn coi_modes_agree_on_every_deck() {
    let decks = all_decks();
    let on = run_batch(
        &decks,
        &ParConfig {
            coi: true,
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("coi on");
    let off = run_batch(
        &decks,
        &ParConfig {
            coi: false,
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("coi off");
    assert_semantic_parity("coi on vs off", &on, &off);
}

/// The sized pipeline decks (`gen-models --size N`): each carries a
/// debug register chain that no property or signal reads, so COI prunes
/// it. Both modes agree on every deterministic field, and on the 8-stage
/// deck the profiled shard's peak live node count is lower with COI on.
#[test]
fn coi_lowers_the_peak_on_sized_pipelines() {
    use covest_circuits::pipeline;
    use std::fmt::Write as _;

    let decks: Vec<DeckJob> = [4usize, 8]
        .into_iter()
        .map(|stages| {
            let mut deck = pipeline::deck_sized(stages);
            let suite = pipeline::out_suite_initial(stages)
                .into_iter()
                .chain(pipeline::out_suite_hold());
            for spec in suite {
                writeln!(deck, "SPEC {spec};").expect("write to string");
            }
            DeckJob::new(format!("sized:pipeline_d{stages}"), deck)
        })
        .collect();
    let run = |coi: bool| {
        let config = ParConfig {
            coi,
            profile: true,
            ..Default::default()
        };
        run_batch(&decks, &config).expect("sized pipelines run")
    };
    let (on, off) = (run(true), run(false));
    assert_semantic_parity("sized pipelines, coi on vs off", &on, &off);

    let peak = |report: &BatchReport| report.decks[1].profiles[0].peak_live_nodes();
    assert!(
        peak(&on) < peak(&off),
        "pipeline_d8: peak live nodes with coi on ({}) must stay below coi off ({})",
        peak(&on),
        peak(&off)
    );
}

proptest! {
    /// Random (deck, image, simplify, reorder, jobs) samples: the two
    /// COI modes agree on every deterministic report field.
    #[test]
    fn coi_modes_agree_under_random_configs(
        pick in 0..1000usize,
        img in 0..2usize,
        simp in 0..3usize,
        ro in 0..3usize,
        jobs in 1..5usize,
    ) {
        let decks = all_decks();
        let deck = vec![decks[pick % decks.len()].clone()];
        let image = [ImageMethod::Partitioned, ImageMethod::Monolithic][img];
        let simplify = [
            SimplifyConfig::Off,
            SimplifyConfig::Restrict,
            SimplifyConfig::Constrain,
        ][simp];
        let reorder = [ReorderMode::Off, ReorderMode::Sift, ReorderMode::Auto][ro];
        let label = format!(
            "deck={} image={image} simplify={simplify} reorder={reorder:?} jobs={jobs}",
            deck[0].name
        );
        let mut on = config(true, image, simplify, reorder);
        on.jobs = jobs;
        let mut off = config(false, image, simplify, reorder);
        off.jobs = jobs;
        let ron = run_batch(&deck, &on).expect("coi on");
        let roff = run_batch(&deck, &off).expect("coi off");
        assert_semantic_parity(&label, &ron, &roff);
    }
}
