//! Shared helpers for the par parity test suites: the full bundled deck
//! set and the semantic-parity assertion both `parity.rs` and
//! `coi_parity.rs` gate on, and the sequential oracle `parity.rs` holds
//! the pool against.

use std::time::Duration;

use covest_bdd::{BddManager, ReorderConfig, ReorderMode};
use covest_core::{CoverageEstimator, CoverageOptions, PropertyVerdict, ReportRow};
use covest_mc::ModelChecker;
use covest_par::{
    BatchReport, DeckJob, DeckReport, ParConfig, ParError, SchedStats, SignalOutcome,
};

/// Every bundled circuit as a self-contained deck (generated source +
/// its Table-2 property suite), plus every checked-in `models/*.smv`.
pub fn all_decks() -> Vec<DeckJob> {
    use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};
    use std::fmt::Write as _;

    let with_specs = |mut deck: String, specs: &[covest_ctl::Formula]| -> String {
        for spec in specs {
            writeln!(deck, "SPEC {spec};").expect("write to string");
        }
        deck
    };

    let mut decks = Vec::new();

    // The circular queue is the one bundled circuit without a models/
    // fixture; its three observed signals make it the best sharding test.
    let mut queue_suite = circular_queue::wrap_suite_initial();
    queue_suite.extend(circular_queue::full_suite());
    queue_suite.extend(circular_queue::empty_suite());
    decks.push(DeckJob::new(
        "circuit:circular_queue",
        with_specs(circular_queue::deck(4), &queue_suite),
    ));

    let mut buffer_suite = priority_buffer::lo_suite_initial(4);
    buffer_suite.push(priority_buffer::lo_missing_case());
    buffer_suite.extend(priority_buffer::hi_suite(4));
    decks.push(DeckJob::new(
        "circuit:priority_buffer",
        with_specs(priority_buffer::deck(4, false), &buffer_suite),
    ));

    decks.push(DeckJob::new(
        "circuit:counter",
        with_specs(counter::deck(), &counter::increment_properties()),
    ));

    let mut pipeline_suite = pipeline::out_suite_initial(4);
    pipeline_suite.extend(pipeline::out_suite_hold());
    decks.push(DeckJob::new(
        "circuit:pipeline",
        with_specs(pipeline::deck(4), &pipeline_suite),
    ));

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

/// Asserts every deterministic *semantic* field agrees between two
/// batch reports: percentages bit-for-bit, counts, verdicts, vacuity,
/// uncovered samples, and the uncovered sets themselves (imported into
/// one shared manager, where canonicity makes equality literal).
pub fn assert_semantic_parity(label: &str, seq: &BatchReport, par: &BatchReport) {
    assert_eq!(seq.decks.len(), par.decks.len(), "{label}: deck count");
    for (sd, pd) in seq.decks.iter().zip(&par.decks) {
        assert_eq!(sd.name, pd.name, "{label}: deck order");
        assert_eq!(
            sd.num_properties, pd.num_properties,
            "{label}: {0}",
            sd.name
        );
        assert_eq!(sd.verdicts, pd.verdicts, "{label}: {0} verdicts", sd.name);
        assert_eq!(
            sd.signals.len(),
            pd.signals.len(),
            "{label}: {0} signal count",
            sd.name
        );
        for (so, po) in sd.signals.iter().zip(&pd.signals) {
            let tag = format!("{label}: {}/{}", sd.name, so.signal);
            assert_eq!(so.signal, po.signal, "{tag}: signal order");
            assert_eq!(
                so.row.percent.to_bits(),
                po.row.percent.to_bits(),
                "{tag}: coverage percent (seq {} vs par {})",
                so.row.percent,
                po.row.percent
            );
            assert_eq!(
                so.row.covered_states.to_bits(),
                po.row.covered_states.to_bits(),
                "{tag}: covered count"
            );
            assert_eq!(
                so.row.space_states.to_bits(),
                po.row.space_states.to_bits(),
                "{tag}: space count"
            );
            assert_eq!(so.row.verdicts, po.row.verdicts, "{tag}: verdicts");
            assert_eq!(
                so.row.uncovered_sample, po.row.uncovered_sample,
                "{tag}: canonical uncovered sample"
            );
            // Semantic set equality on a shared manager.
            let probe = BddManager::new();
            let s = probe.import_bdd(&so.uncovered).expect("seq dump imports");
            let p = probe.import_bdd(&po.uncovered).expect("par dump imports");
            assert_eq!(s, p, "{tag}: uncovered set");
        }
    }
}

/// The sequential oracle: the same decks analyzed the way the
/// pre-parallel pipeline did — one manager per deck, one full-deck
/// compile, one reachability fixpoint shared by all of the deck's
/// signals, and a fresh verification per signal through
/// [`CoverageEstimator::analyze`]. Percentages, verdicts and uncovered
/// sets must be bit-identical to the pool's; node counts and timings
/// differ by construction (shared whole-deck manager vs per-shard
/// cone-reduced managers).
#[allow(dead_code)] // `coi_parity.rs` shares this module but not the oracle.
pub fn run_sequential(jobs: &[DeckJob], config: &ParConfig) -> Result<BatchReport, ParError> {
    let mut reports = Vec::with_capacity(jobs.len());
    for job in jobs {
        let bdd = BddManager::new();
        bdd.set_reorder_config(ReorderConfig {
            mode: config.reorder,
            ..Default::default()
        });
        let plan_err = |message: String| ParError::Plan {
            deck: job.name.clone(),
            message,
        };
        let model = covest_smv::compile_with(&bdd, &job.source, config.image)
            .map_err(|e| plan_err(e.to_string()))?;
        if config.reorder == ReorderMode::Sift {
            bdd.reduce_heap();
        }
        let signals = if job.observed.is_empty() {
            model.observed.clone()
        } else {
            job.observed.clone()
        };
        let task_err = |signal: Option<&String>, message: String| ParError::Task {
            deck: job.name.clone(),
            signal: signal.cloned(),
            message,
        };
        let mut report = DeckReport {
            name: job.name.clone(),
            num_properties: model.specs.len(),
            verdicts: Vec::new(),
            signals: Vec::new(),
            plan_time: Duration::ZERO,
            profiles: Vec::new(),
        };
        if signals.is_empty() {
            let mut mc = ModelChecker::new(&model.fsm);
            for fair in &model.fairness {
                mc.add_fairness(fair)
                    .map_err(|e| task_err(None, e.to_string()))?;
            }
            if config.image.simplify != covest_smv::SimplifyConfig::Off {
                mc.set_care(model.fsm.install_reachable_care());
            }
            for spec in &model.specs {
                let verdict = mc
                    .check(&spec.clone().into())
                    .map_err(|e| task_err(None, e.to_string()))?;
                report.verdicts.push(PropertyVerdict {
                    formula: spec.to_string(),
                    holds: verdict.holds(),
                    vacuous: false,
                });
            }
        } else {
            let estimator = CoverageEstimator::new(&model.fsm);
            // The oracle never compiles reduced decks, but the coverage
            // universe is still the per-signal cone — deck semantics, not
            // a COI-mode artifact — so it stays bit-comparable with the
            // pool under either `coi` setting.
            let module =
                covest_smv::parse_module(&job.source).map_err(|e| plan_err(e.to_string()))?;
            let graph = covest_analyze::DepGraph::new(&module);
            for signal in &signals {
                let cone = covest_analyze::task_cone(&module, &graph, signal)
                    .map_err(|message| task_err(Some(signal), message))?;
                let options = CoverageOptions {
                    fairness: model.fairness.clone(),
                    cone: Some(covest_analyze::cone_bit_names(&module, &cone)),
                    ..Default::default()
                };
                let analysis = estimator
                    .analyze(signal, &model.specs, &options)
                    .map_err(|e| task_err(Some(signal), e.to_string()))?;
                let universe = estimator.universe(options.cone.as_deref());
                let sample = estimator.sample_states_over(
                    &analysis.uncovered(),
                    &universe,
                    config.uncovered_limit,
                );
                let uncovered = analysis
                    .uncovered()
                    .export_bdd()
                    .map_err(|e| task_err(Some(signal), e.to_string()))?;
                let row =
                    ReportRow::from_analysis(&job.name, &analysis).with_uncovered_sample(sample);
                if report.verdicts.is_empty() {
                    report.verdicts = row.verdicts.clone();
                }
                report.signals.push(SignalOutcome {
                    deck: job.name.clone(),
                    signal: signal.clone(),
                    row,
                    uncovered,
                });
            }
        }
        reports.push(report);
    }
    Ok(BatchReport {
        decks: reports,
        sched: SchedStats::default(),
    })
}
