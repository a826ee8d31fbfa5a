//! Helper program for `perfbench/run.py`.
//!
//! ```text
//! perfbench-harness gen WORKLOAD SEED DIR MODELS [--smoke]  write the workload's decks
//! perfbench-harness plan JOBLIST REPEAT                time WorkPlan::plan, untraced
//! perfbench-harness replay SPANS_OUT CLI_ARGS...       traced in-process layer replay
//! perfbench-harness reference DECK                     Definition 3 by enumeration
//! ```
//!
//! Every subcommand prints one JSON object on its last stdout line. The
//! timed program is always the release `covest` CLI; this helper only
//! builds inputs, times the one set-up call the CLI cannot expose
//! (`WorkPlan::plan` for `batch`), replays a workload layer by layer, and
//! computes reference answers.

mod reference;
mod replay;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use covest_circuits::{counter, pipeline};
use covest_core::json_string;
use covest_ctl::Formula;
use covest_par::{DeckJob, ParConfig, WorkPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Error = Box<dyn std::error::Error>;

/// The `--jobs` value of the `batch_fleet` workload: at most the two cores
/// the benchmark host has, so runs never oversubscribe it.
pub const BATCH_JOBS: usize = 2;

/// How many uncovered states the CLI samples per signal
/// (`UNCOVERED_SAMPLE_LIMIT` in the CLI).
pub const UNCOVERED_SAMPLE_LIMIT: usize = 10;

fn with_specs(mut deck: String, specs: &[Formula]) -> String {
    for spec in specs {
        writeln!(deck, "SPEC {spec};").expect("write to string");
    }
    deck
}

/// `counter_mN.smv` exactly as `gen-models --size N` writes it.
fn counter_deck(n: u32) -> (String, String) {
    (
        format!("counter_m{n}.smv"),
        with_specs(
            counter::deck_sized(n),
            &counter::increment_properties_sized(n),
        ),
    )
}

/// `pipeline_dN.smv` exactly as `gen-models --size N` writes it.
fn pipeline_deck(n: usize) -> (String, String) {
    let mut suite = pipeline::out_suite_initial(n);
    suite.extend(pipeline::out_suite_hold());
    (
        format!("pipeline_d{n}.smv"),
        with_specs(pipeline::deck_sized(n), &suite),
    )
}

/// The bundled decks: every `*.smv` directly under `models` (the
/// checked-in `models/`, which `gen-models` keeps in sync), by file name.
fn bundled_decks(models: &Path) -> Result<Vec<(String, String)>, Error> {
    let mut decks = Vec::new();
    for entry in std::fs::read_dir(models)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "smv") && path.is_file() {
            let name = path.file_name().expect("file name").to_string_lossy();
            decks.push((name.into_owned(), std::fs::read_to_string(&path)?));
        }
    }
    if decks.is_empty() {
        return Err(format!("no bundled decks under {}", models.display()).into());
    }
    decks.sort();
    Ok(decks)
}

/// Draws the `batch_fleet` members from `seed`.
///
/// Sizes are stratified: one counter per hundred of the m100–m500 band,
/// jittered by a few sizes around its stratum, and one pipeline per decade
/// of the d30–d80 band at the decade itself. Every seed therefore gets a
/// different fleet, but about the same total work: runtime is not smooth
/// in size (a pure uniform draw could put three m480s in one fleet and
/// double the wall-clock), and seeds must be comparable. The pipelines
/// hold the fleet's largest BDDs, and jittering them moved the median
/// peak RSS by up to 7% between seeds, against at most 2% between runs of
/// one seed.
///
/// The joblist order is fixed: bundled decks, then pipelines, then
/// counters, each ascending. The pool deals shards largest-first by cone
/// bits and breaks ties by joblist order, and the counters tie on cone
/// bits while their solve times differ tenfold, so a seeded order would
/// move the wall-clock by a third from one seed to the next. Listed last,
/// the costliest counter is dealt last on every seed.
fn draw_fleet(seed: u64, bundled: Vec<(String, String)>) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut decks = bundled;
    for n in [30, 40, 50, 60, 70, 80] {
        decks.push(pipeline_deck(n));
    }
    for centre in [100i64, 200, 300, 400, 500] {
        let n = (centre + rng.gen_range(-5i64..=5)).clamp(100, 500);
        decks.push(counter_deck(n as u32));
    }
    decks
}

/// `gen WORKLOAD SEED DIR MODELS [--smoke]`: writes the workload's decks
/// (and joblist) into `DIR` and prints the CLI arguments to time plus the
/// deck list. Check workloads keep fixed sizes; only the fleet depends on
/// the seed. The fleet's bundled decks are copied from `MODELS`.
fn cmd_gen(
    workload: &str,
    seed: u64,
    dir: &Path,
    models: &Path,
    smoke: bool,
) -> Result<String, Error> {
    std::fs::create_dir_all(dir)?;
    let (decks, args): (Vec<(String, String)>, Vec<String>) = match workload {
        "check_pipeline_deep" => {
            let deck = pipeline_deck(if smoke { 8 } else { 100 });
            let args = vec!["check".into(), deck.0.clone(), "--coverage".into()];
            (vec![deck], args)
        }
        "check_counter_wide" => {
            let deck = counter_deck(if smoke { 20 } else { 800 });
            let args = vec![
                "check".into(),
                deck.0.clone(),
                "--coverage".into(),
                "--traces".into(),
                "4".into(),
            ];
            (vec![deck], args)
        }
        "batch_fleet" => {
            let decks = if smoke {
                let mut decks = vec![counter_deck(20), pipeline_deck(4)];
                decks.extend(bundled_decks(models)?.into_iter().take(1));
                decks
            } else {
                draw_fleet(seed, bundled_decks(models)?)
            };
            let joblist: String = decks.iter().map(|(name, _)| format!("{name}\n")).collect();
            std::fs::write(dir.join("fleet.txt"), joblist)?;
            let args = vec![
                "batch".into(),
                "fleet.txt".into(),
                "--jobs".into(),
                BATCH_JOBS.to_string(),
            ];
            (decks, args)
        }
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    for (name, text) in &decks {
        std::fs::write(dir.join(name), text)?;
    }
    let quote = |v: &[String]| -> String {
        v.iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let names: Vec<String> = decks.iter().map(|(n, _)| n.clone()).collect();
    Ok(format!(
        "{{\"args\": [{}], \"decks\": [{}]}}",
        quote(&args),
        quote(&names)
    ))
}

/// Reads a joblist written by `gen` (one deck file name per line) the
/// way the CLI's `batch` does: the deck's display name is the joblist
/// entry, its path resolves against the joblist's directory.
pub fn read_joblist(path: &Path) -> Result<Vec<DeckJob>, Error> {
    let base = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut jobs = Vec::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let name = line.trim();
        if name.is_empty() {
            continue;
        }
        jobs.push(DeckJob::new(
            name,
            std::fs::read_to_string(base.join(name))?,
        ));
    }
    Ok(jobs)
}

/// The pool configuration `covest batch --jobs 2` builds with default
/// engine flags (`profile` stays off here: this is the untraced set-up).
pub fn batch_config() -> ParConfig {
    ParConfig {
        jobs: BATCH_JOBS,
        uncovered_limit: UNCOVERED_SAMPLE_LIMIT,
        ..Default::default()
    }
}

/// `plan JOBLIST REPEAT`: `WorkPlan::plan` over the fleet, untraced,
/// `REPEAT` times; prints each duration in seconds.
fn cmd_plan(joblist: &Path, repeat: usize) -> Result<String, Error> {
    let jobs = read_joblist(joblist)?;
    let config = batch_config();
    let mut times = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let t = Instant::now();
        let plan = WorkPlan::plan(&jobs, &config)?;
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(plan.num_shards());
    }
    let times: Vec<String> = times.iter().map(|t| format!("{t:.9}")).collect();
    Ok(format!("{{\"plan_s\": [{}]}}", times.join(", ")))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench-harness gen WORKLOAD SEED DIR MODELS [--smoke]\n\
         \u{20}      perfbench-harness plan JOBLIST REPEAT\n\
         \u{20}      perfbench-harness replay SPANS_OUT CLI_ARGS...\n\
         \u{20}      perfbench-harness reference DECK"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str);
    let result = match (arg(0), arg(1), arg(2), arg(3)) {
        (Some("gen"), Some(workload), Some(seed), Some(dir)) => match (seed.parse(), arg(4)) {
            (Ok(seed), Some(models)) => cmd_gen(
                workload,
                seed,
                Path::new(dir),
                Path::new(models),
                arg(5) == Some("--smoke"),
            ),
            _ => return usage(),
        },
        (Some("plan"), Some(joblist), Some(repeat), None) => match repeat.parse() {
            Ok(repeat) => cmd_plan(Path::new(joblist), repeat),
            Err(_) => return usage(),
        },
        (Some("replay"), Some(spans), Some(_), _) => replay::run(Path::new(spans), &args[2..]),
        (Some("reference"), Some(deck), None, None) => reference::run(Path::new(deck)),
        _ => return usage(),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
