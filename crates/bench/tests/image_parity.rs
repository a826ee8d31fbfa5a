//! The image oracle: `image`, `preimage` and `preimage_univ` must equal
//! the two-step product `(T ∧ S).exists(vars)` — a plain conjunction
//! followed by a quantification — on the machine's conjoined relation
//! [`SymbolicFsm::trans`], on every bundled circuit and every
//! `models/*.smv` deck, before and after the reachable set is computed
//! and cached. The engine runs the fused `and_exists` instead; on a
//! shared manager BDD canonicity makes semantic equality literal handle
//! equality. End to end, coverage percentages, per-property verdicts and
//! the uncovered state sets must be bit-identical across three reorder
//! histories: no startup sift, the default run, and the default run with
//! a forced sift and collection between verification and coverage.
//! Reordering and collection are pure representation changes; any
//! observable drift is a bug.

use covest_bdd::{BddManager, Func, VarId};
use covest_bench::table2_workloads;
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_ctl::Formula;
use covest_fsm::SymbolicFsm;
use covest_smv::CompiledModel;

/// Every bundled circuit, by Table-2 workload (deduplicated by circuit).
fn circuit_models(bdd: &BddManager) -> Vec<(String, CompiledModel)> {
    let mut out: Vec<(String, CompiledModel)> = Vec::new();
    for w in table2_workloads() {
        if out.iter().any(|(name, _)| name == w.circuit) {
            continue;
        }
        out.push((w.circuit.to_owned(), (w.build)(bdd)));
    }
    out
}

/// Every deck under `models/`.
fn deck_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut decks: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("models directory")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "smv") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let src = std::fs::read_to_string(&path).expect("readable deck");
                Some((name, src))
            } else {
                None
            }
        })
        .collect();
    decks.sort();
    assert!(!decks.is_empty(), "no decks found under {}", dir.display());
    decks
}

/// `(T ∧ s).exists(vars)`: the two-step product, never the fused one.
fn two_step(fsm: &SymbolicFsm, s: &Func, vars: &[VarId]) -> Func {
    fsm.trans().and(s).exists(vars)
}

/// Asserts the three image operations equal the two-step oracle over a
/// ladder of state sets grown from the initial states.
fn assert_image_oracle(bdd: &BddManager, name: &str, fsm: &SymbolicFsm) {
    let inputs = fsm.input_vars();
    let fwd: Vec<VarId> = fsm
        .current_vars()
        .into_iter()
        .chain(inputs.clone())
        .collect();
    let bwd: Vec<VarId> = fsm.next_vars().into_iter().chain(inputs).collect();
    let image = |s: &Func| two_step(fsm, s, &fwd).rename(&fsm.next_to_cur());
    let preimage = |s: &Func| two_step(fsm, &s.rename(&fsm.cur_to_next()), &bwd);

    // State sets: the BFS onion rings, their running union, and the
    // complement of the reachable set (exercises sets far from `init`).
    let mut sets = vec![fsm.init().clone(), bdd.constant(true), bdd.constant(false)];
    let rings = fsm.onion_rings(fsm.init());
    let mut union = bdd.constant(false);
    for r in &rings {
        union = union.or(r);
        sets.push(r.clone());
        sets.push(union.clone());
    }
    sets.push(union.not());

    // Before and after the reachable set exists: caching it must leave
    // every image untouched.
    for phase in ["before", "after"] {
        if phase == "after" {
            let _reach = fsm.reachable();
        }
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(
                fsm.image(s),
                image(s),
                "{name}: image diverges on set {i} ({phase} reachability)"
            );
            assert_eq!(
                fsm.preimage(s),
                preimage(s),
                "{name}: preimage diverges on set {i} ({phase} reachability)"
            );
            assert_eq!(
                fsm.preimage_univ(s),
                preimage(&s.not()).not(),
                "{name}: preimage_univ diverges on set {i} ({phase} reachability)"
            );
        }
    }
}

#[test]
fn circuits_image_ops_bit_identical() {
    let bdd = BddManager::new();
    for (name, model) in circuit_models(&bdd) {
        assert_image_oracle(&bdd, &name, &model.fsm);
    }
}

#[test]
fn decks_image_ops_bit_identical() {
    for (name, src) in deck_sources() {
        let bdd = BddManager::new();
        let model = covest_smv::compile(&bdd, &src).expect("deck compiles");
        assert_image_oracle(&bdd, &name, &model.fsm);
    }
}

/// Everything the paper-facing analysis reports, in a form comparable
/// across managers (and variable orders): the coverage percentage's bit
/// pattern, the per-property verdicts, and the uncovered state set as
/// sorted named minterms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SignalOutcome {
    signal: String,
    percent_bits: u64,
    holds: Vec<bool>,
    uncovered: Vec<Vec<(String, bool)>>,
}

fn outcome_of(estimator: &CoverageEstimator, analysis: &CoverageAnalysis) -> SignalOutcome {
    let mut uncovered = estimator.uncovered_states(analysis, usize::MAX);
    // Minterm enumeration order follows the (possibly resifted) variable
    // order; sort for a representation-independent comparison.
    uncovered.sort();
    SignalOutcome {
        signal: analysis.observed.clone(),
        percent_bits: analysis.percent().to_bits(),
        holds: analysis.properties.iter().map(|p| p.holds).collect(),
        uncovered,
    }
}

/// The reorder histories the outcome crosses compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum History {
    /// The declaration order: no startup sift.
    Unsifted,
    /// The default run: one sift after compile.
    Sifted,
    /// The default run plus a forced sift and collection between
    /// verification and coverage.
    Resifted,
}

const HISTORIES: [History; 3] = [History::Unsifted, History::Sifted, History::Resifted];

/// Verifies `properties` and covers `signal` on `fsm` under `history`'s
/// mid-run sift, after the caller's startup sift (if any).
fn cover_under(
    bdd: &BddManager,
    fsm: &SymbolicFsm,
    signal: &str,
    properties: &[Formula],
    options: &CoverageOptions,
    history: History,
) -> SignalOutcome {
    let estimator = CoverageEstimator::new(fsm);
    let checker = estimator.checker(&options.fairness).expect("checker");
    let mut verification = estimator.verify(checker, properties).expect("verifies");
    if history == History::Resifted {
        bdd.reduce_heap();
        bdd.gc();
    }
    let analysis = estimator
        .cover(&mut verification, signal, options)
        .expect("analyzes");
    outcome_of(&estimator, &analysis)
}

/// Runs a full coverage analysis of `deck` under one reorder history,
/// returning the per-signal outcomes.
fn analyze_deck(src: &str, history: History) -> Vec<SignalOutcome> {
    let bdd = BddManager::new();
    let model = covest_smv::compile(&bdd, src).expect("deck compiles");
    if history != History::Unsifted {
        bdd.reduce_heap();
    }
    let options = CoverageOptions {
        fairness: model.fairness.clone(),
        ..Default::default()
    };
    model
        .observed
        .iter()
        .map(|sig| cover_under(&bdd, &model.fsm, sig, &model.specs, &options, history))
        .collect()
}

/// Outcomes are bit-identical across [`HISTORIES`].
#[test]
fn decks_outcomes_bit_identical_across_reorder_histories() {
    for (name, src) in deck_sources() {
        let want = analyze_deck(&src, History::Sifted);
        for history in HISTORIES {
            assert_eq!(
                analyze_deck(&src, history),
                want,
                "{name}: outcomes diverge under {history:?}"
            );
        }
    }
}

/// Golden coverage percentages for the Table-2 workloads, pinned at
/// 1e-4 precision (the exact values the pre-handle-API implementation
/// produced). Guards the API redesign — and any future one — against
/// semantic drift in the analyses themselves.
#[test]
fn workloads_match_golden_coverage_percentages() {
    let golden: &[(&str, u64)] = &[
        ("hi_cnt", 1_000_000),
        ("lo_cnt", 935_484),
        ("wrap", 560_000),
        ("full", 1_000_000),
        ("empty", 1_000_000),
        ("out", 651_042),
        ("count", 833_333),
    ];
    for w in table2_workloads() {
        let expect = golden
            .iter()
            .find(|(sig, _)| *sig == w.signal)
            .unwrap_or_else(|| panic!("no golden value for {}", w.signal))
            .1;
        let bdd = BddManager::new();
        let model = (w.build)(&bdd);
        let estimator = CoverageEstimator::new(&model.fsm);
        let analysis = estimator
            .analyze(w.signal, &w.properties, &w.options)
            .expect("workload analyzes");
        let scaled = (analysis.percent() * 10_000.0).round() as u64;
        assert_eq!(
            scaled,
            expect,
            "{}/{}: coverage drifted from the golden value ({}%)",
            w.circuit,
            w.signal,
            analysis.percent()
        );
    }
}

/// Outcomes are bit-identical across [`HISTORIES`].
#[test]
fn workloads_outcomes_bit_identical_across_reorder_histories() {
    for w in table2_workloads() {
        let run = |history: History| -> SignalOutcome {
            let bdd = BddManager::new();
            let model = (w.build)(&bdd);
            if history != History::Unsifted {
                bdd.reduce_heap();
            }
            cover_under(
                &bdd,
                &model.fsm,
                w.signal,
                &w.properties,
                &w.options,
                history,
            )
        };
        let want = run(History::Sifted);
        for history in HISTORIES {
            assert_eq!(
                run(history),
                want,
                "{}/{}: outcomes diverge under {history:?}",
                w.circuit,
                w.signal
            );
        }
    }
}
