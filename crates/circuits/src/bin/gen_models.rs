//! Regenerates the SMV decks under `models/` from the circuit generators,
//! so the CLI integration tests and the checked-in fixtures stay in sync
//! with `covest-circuits`.
//!
//! Usage: `cargo run -p covest-circuits --bin gen-models [DIR] [--size N]`
//! (DIR defaults to `models/` relative to the workspace root). `--help`
//! prints the usage; any other argument starting with `-` is rejected
//! with exit code 2 before anything is written.
//!
//! Without `--size`, writes the four fixed decks the test suite pins.
//! With `--size N`, writes *only* the sized scaling decks instead —
//! `counter_m{N}.smv` (counts `0..=N`) and `pipeline_d{N}.smv` (N stages)
//! — giving benchmarks a size axis without disturbing the checked-in
//! fixtures or the CI deck-sync gate.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

use covest_circuits::{counter, pipeline, priority_buffer};
use covest_ctl::Formula;

fn with_specs(mut deck: String, specs: &[Formula]) -> String {
    for spec in specs {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    deck
}

const USAGE: &str = "usage: gen-models [DIR] [--size N]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let mut dir: Option<PathBuf> = None;
    let mut size: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let n = args.next().unwrap_or_else(|| usage());
                size = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("gen-models: unknown flag `{flag}`");
                usage();
            }
            _ if dir.is_none() => dir = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models"));
    std::fs::create_dir_all(&dir).expect("create models dir");

    let decks: Vec<(String, String)> = match size {
        Some(n) => {
            if n == 0 {
                usage();
            }
            sized_decks(n)
        }
        None => default_decks(),
    };

    for (name, deck) in decks {
        let path = dir.join(name);
        std::fs::write(&path, deck).expect("write deck");
        println!("wrote {}", path.display());
    }
}

/// The four fixed decks the checked-in `models/` directory pins.
fn default_decks() -> Vec<(String, String)> {
    let counter_deck = with_specs(counter::deck(), &counter::increment_properties());

    let capacity = 4;
    let mut buffer_suite = priority_buffer::lo_suite_initial(capacity);
    buffer_suite.push(priority_buffer::lo_missing_case());
    buffer_suite.extend(priority_buffer::hi_suite(capacity));
    let buffer_deck = with_specs(priority_buffer::deck(capacity, false), &buffer_suite);
    let buggy_deck = with_specs(priority_buffer::deck(capacity, true), &buffer_suite);

    let stages = 4;
    let mut pipeline_suite = pipeline::out_suite_initial(stages);
    pipeline_suite.extend(pipeline::out_suite_hold());
    let pipeline_deck = with_specs(pipeline::deck(stages), &pipeline_suite);

    vec![
        ("counter.smv".to_owned(), counter_deck),
        ("priority_buffer.smv".to_owned(), buffer_deck),
        ("priority_buffer_buggy.smv".to_owned(), buggy_deck),
        ("pipeline.smv".to_owned(), pipeline_deck),
    ]
}

/// The sized scaling decks for a given size `n`: a counter counting
/// `0..=n` and an `n`-stage pipeline, each with its property suite.
fn sized_decks(n: u32) -> Vec<(String, String)> {
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
