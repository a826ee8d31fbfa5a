//! One flow per property serves every observed signal: the start sets
//! are computed by the first cover step on a verification, and each
//! later signal costs no fixpoint and no image.

use covest_bdd::BddManager;
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_telemetry::{self as telemetry, Counters, Telemetry};

/// Runs `work` under a fresh recorder and returns its counters.
fn counted<T>(work: impl FnOnce() -> T) -> (T, Counters) {
    telemetry::install(Telemetry::new());
    let out = work();
    let recorder = telemetry::uninstall().expect("recorder installed");
    (out, recorder.counters().clone())
}

#[test]
fn a_second_signal_reuses_the_flows() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../models/priority_buffer.smv"
    );
    let src = std::fs::read_to_string(path).expect("bundled deck");
    let bdd = BddManager::new();
    let model = covest_smv::compile(&bdd, &src).expect("compiles");
    let est = CoverageEstimator::new(&model.fsm);
    let checker = est.checker(&model.fairness).expect("checker");
    let mut verification = est.verify(checker, &model.specs).expect("verifies");
    assert!(verification.all_hold(), "suite holds");
    let options = CoverageOptions::default();

    let (hi, first) = counted(|| est.cover(&mut verification, "hi_cnt", &options));
    assert!(
        first.get("image_calls") > 0,
        "the first cover computes the flows"
    );
    let (lo, second) = counted(|| est.cover(&mut verification, "lo_cnt", &options));
    for counter in ["image_calls", "preimage_calls", "bfs_steps"] {
        assert_eq!(second.get(counter), 0, "{counter} covering lo_cnt");
    }

    // Each cover step equals a fresh analysis of its signal alone.
    for analysis in [hi.expect("hi_cnt"), lo.expect("lo_cnt")] {
        let fresh = est
            .analyze(&analysis.observed, &model.specs, &options)
            .expect("fresh");
        assert_eq!(analysis.covered, fresh.covered, "{}", analysis.observed);
        let vacuous =
            |a: &CoverageAnalysis| a.properties.iter().map(|p| p.vacuous).collect::<Vec<_>>();
        assert_eq!(vacuous(&analysis), vacuous(&fresh), "{}", analysis.observed);
    }
}
