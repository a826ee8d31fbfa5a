//! Counterexamples and traces name the smallest states in declaration
//! order, so they do not depend on the variable order. On every bundled
//! deck, each failing property's counterexample and the traces to each
//! signal's uncovered states are identical on a manager the startup sift
//! reordered and on one left in declaration order.

use covest_bdd::BddManager;
use covest_core::{CoverageEstimator, CoverageOptions};
use covest_mc::Verdict;

/// Every deck under `models/`, by file name.
fn bundled_decks() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut decks: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("models directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable deck"))
        })
        .collect();
    decks.sort();
    assert!(!decks.is_empty(), "no decks under {}", dir.display());
    decks
}

/// The deck's counterexamples and up to three traces per signal to its
/// uncovered states, as printed, and whether the sift moved a variable.
fn witnesses(src: &str, sift: bool) -> (Vec<String>, bool) {
    let bdd = BddManager::new();
    let model = covest_smv::compile(&bdd, src).expect("deck compiles");
    let declared = bdd.current_order();
    if sift {
        bdd.reduce_heap();
    }
    let moved = bdd.current_order() != declared;
    let estimator = CoverageEstimator::new(&model.fsm);
    let mut checker = estimator.checker(&model.fairness).expect("checker");
    let mut out = Vec::new();
    for spec in &model.specs {
        let verdict = checker.check(&spec.clone().into()).expect("checks");
        if let Verdict::Fails {
            counterexample: Some(trace),
            ..
        } = verdict
        {
            out.push(format!("SPEC {spec}\n{trace}"));
        }
    }
    let options = CoverageOptions {
        fairness: model.fairness.clone(),
        ..Default::default()
    };
    for signal in &model.observed {
        let analysis = estimator
            .analyze(signal, &model.specs, &options)
            .expect("analyzes");
        for trace in estimator.traces_to_uncovered(&analysis, 3) {
            out.push(format!("{signal}\n{trace}"));
        }
    }
    (out, moved)
}

#[test]
fn witnesses_do_not_depend_on_the_variable_order() {
    let (mut printed, mut reordered) = (0, 0);
    for (name, src) in bundled_decks() {
        let (declared, _) = witnesses(&src, false);
        let (sifted, moved) = witnesses(&src, true);
        assert_eq!(sifted, declared, "{name}: witnesses follow the sift");
        printed += declared.len();
        reordered += usize::from(moved && !declared.is_empty());
    }
    assert!(printed > 0, "no deck printed a counterexample or a trace");
    assert!(reordered > 0, "no sift moved a deck that prints witnesses");
}
