//! # covest-circuits
//!
//! The example circuits of the DAC'99 paper, rebuilt from their prose
//! descriptions, together with the property suites (including their
//! deliberate coverage holes) that drive the paper's Section 5
//! experiments:
//!
//! - [`counter`]: the introduction's modulo-5 counter with `stall` /
//!   `reset` inputs;
//! - [`toys`]: the explicit state graphs of Figures 1–3;
//! - [`priority_buffer`]: Circuit 1 — hi/lo priority entry counts as
//!   observed signals, a nearly-complete `lo_cnt` suite, and an
//!   injectable bug caught by the hole-closing property;
//! - [`circular_queue`]: Circuit 2 — wrap bit / full / empty observed
//!   signals, with the staged `wrap` suites (≈60% → more → 100%);
//! - [`pipeline`]: Circuit 3 — nested-Until eventuality properties under
//!   a `!stall` fairness constraint, with the 3-cycle output-hold hole.
//!
//! Every circuit is a generated SMV deck compiled through `covest-smv`,
//! so the models are also usable as plain-text fixtures.

use std::fmt::Write as _;

use covest_ctl::Formula;

pub mod circular_queue;
pub mod counter;
pub mod pipeline;
pub mod priority_buffer;
pub mod toys;

/// `deck` followed by one `SPEC` line per property.
pub fn with_specs(mut deck: String, specs: &[Formula]) -> String {
    for spec in specs {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    deck
}

/// The sized scaling decks `gen-models --size n` writes, as `(file name,
/// deck)` pairs: a counter counting `0..=n` and an `n`-stage pipeline,
/// each with its property suite.
pub fn sized_decks(n: u32) -> Vec<(String, String)> {
    let counter_deck = with_specs(
        counter::deck_sized(n),
        &counter::increment_properties_sized(n),
    );

    let stages = n as usize;
    let mut pipeline_suite = pipeline::out_suite_initial(stages);
    pipeline_suite.extend(pipeline::out_suite_hold());
    // The sized pipeline carries the debug chain: a cone-prunable tail
    // that gives the COI benchmark something real to cut away.
    let pipeline_deck = with_specs(pipeline::deck_sized(stages), &pipeline_suite);

    vec![
        (format!("counter_m{n}.smv"), counter_deck),
        (format!("pipeline_d{n}.smv"), pipeline_deck),
    ]
}
