//! The image oracle: `image`, `preimage` and `preimage_univ` must equal
//! the two-step product `(T ∧ S).exists(vars)` — a plain conjunction
//! followed by a quantification — on the machine's conjoined relation
//! [`SymbolicFsm::trans`], on every bundled circuit and every
//! `models/*.smv` deck, before and after the reachable set is computed
//! and cached. The engine runs the fused `and_exists` instead; on a
//! shared manager BDD canonicity makes semantic equality literal handle
//! equality. End to end, coverage percentages, per-property verdicts and
//! the uncovered state sets must be bit-identical across the full
//! `--simplify off|restrict` × `--reorder off|sift|auto` cross-product.
//! Don't-care simplification (like reordering) is a pure representation
//! change; any observable drift is a bug.
//!
//! A representation gate rides along, on the priority buffer (the
//! Table-2 circuit whose reachable set is a small fraction of its state
//! space): under a GC after every fixpoint step, `restrict`
//! simplification must keep a lower live-node peak than no
//! simplification.

use covest_bdd::{BddManager, Func, ReorderConfig, ReorderMode, VarId};
use covest_bench::{table2_workloads, Workload};
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_fsm::{ImageConfig, SimplifyConfig, SymbolicFsm};
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
            let _reach = fsm.install_reachable_care();
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

/// The full simplify × reorder configuration matrix.
fn config_matrix() -> Vec<(ReorderMode, SimplifyConfig)> {
    let mut out = Vec::new();
    for reorder in [ReorderMode::Off, ReorderMode::Sift, ReorderMode::Auto] {
        for simplify in [SimplifyConfig::Off, SimplifyConfig::Restrict] {
            out.push((reorder, simplify));
        }
    }
    out
}

/// Runs a full coverage analysis of `deck` under one configuration,
/// returning the per-signal outcomes.
fn analyze_deck(src: &str, reorder: ReorderMode, simplify: SimplifyConfig) -> Vec<SignalOutcome> {
    let bdd = BddManager::new();
    bdd.set_reorder_config(ReorderConfig {
        mode: reorder,
        auto_threshold: 256, // fire at essentially every checkpoint
        ..Default::default()
    });
    let model = covest_smv::compile_with(
        &bdd,
        src,
        ImageConfig {
            simplify,
            ..Default::default()
        },
    )
    .expect("deck compiles");
    if reorder == ReorderMode::Sift {
        bdd.reduce_heap();
    }
    let estimator = CoverageEstimator::new(&model.fsm);
    let options = CoverageOptions {
        fairness: model.fairness.clone(),
        ..Default::default()
    };
    model
        .observed
        .iter()
        .map(|sig| {
            let a = estimator
                .analyze(sig, &model.specs, &options)
                .expect("analyzes");
            outcome_of(&estimator, &a)
        })
        .collect()
}

/// Outcomes are bit-identical across [`config_matrix`]. The image
/// dimension the name mentions has a single value: the one relation.
#[test]
fn decks_outcomes_bit_identical_across_simplify_image_reorder() {
    for (name, src) in deck_sources() {
        let mut baseline: Option<Vec<SignalOutcome>> = None;
        for (reorder, simplify) in config_matrix() {
            let got = analyze_deck(&src, reorder, simplify);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{name}: outcomes diverge at reorder={reorder:?} simplify={simplify}"
                ),
            }
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

/// Outcomes are bit-identical across [`config_matrix`]. The image
/// dimension the name mentions has a single value: the one relation.
#[test]
fn workloads_outcomes_bit_identical_across_simplify_image_reorder() {
    for w in table2_workloads() {
        let run = |reorder: ReorderMode, simplify: SimplifyConfig| -> SignalOutcome {
            let bdd = BddManager::new();
            bdd.set_reorder_config(ReorderConfig {
                mode: reorder,
                auto_threshold: 256,
                ..Default::default()
            });
            let model = (w.build)(&bdd);
            let mut fsm = model.fsm;
            fsm.set_image_config(ImageConfig {
                simplify,
                ..Default::default()
            });
            if reorder == ReorderMode::Sift {
                bdd.reduce_heap();
            }
            let estimator = CoverageEstimator::new(&fsm);
            let analysis = estimator
                .analyze(w.signal, &w.properties, &w.options)
                .expect("workload analyzes");
            outcome_of(&estimator, &analysis)
        };
        let mut baseline: Option<SignalOutcome> = None;
        for (reorder, simplify) in config_matrix() {
            let got = run(reorder, simplify);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{}/{}: outcomes diverge at reorder={reorder:?} simplify={simplify}",
                    w.circuit, w.signal
                ),
            }
        }
    }
}

/// The priority buffer's Table-2 workloads, which the peak gate below
/// runs on.
fn buffer_workloads() -> Vec<Workload> {
    let buffer: Vec<Workload> = table2_workloads()
        .into_iter()
        .filter(|w| w.circuit.contains("priority buffer"))
        .collect();
    assert!(
        !buffer.is_empty(),
        "no priority-buffer workloads: the peak gate would pass vacuously"
    );
    buffer
}

/// Sweeps reachability from the initial states with a garbage
/// collection after every image step, simplifying each frontier modulo
/// the unreached states under `simplify`. Returns the reached set and
/// the largest of `peak` and the live-node counts sampled around every
/// step: each sample is a working-set high-water mark, not cumulative
/// allocation.
fn gc_reach_sweep(
    bdd: &BddManager,
    fsm: &SymbolicFsm,
    simplify: SimplifyConfig,
    mut peak: usize,
) -> (Func, usize) {
    let mut reached = fsm.init().clone();
    let mut frontier = fsm.init().clone();
    loop {
        let img = fsm.image(&frontier);
        peak = peak.max(bdd.live_nodes());
        let fresh = img.diff(&reached);
        let done = fresh.is_false();
        frontier = simplify.apply(&fresh, &reached.not());
        reached = reached.or(&fresh);
        // Only live handles survive: the machine, the sets in scope.
        bdd.gc();
        peak = peak.max(bdd.live_nodes());
        if done {
            return (reached, peak);
        }
    }
}

/// Peak live nodes under one simplification mode, with a garbage
/// collection after every fixpoint step, through the phases
/// simplification targets:
///
/// 1. reachability (frontier-simplified per mode);
/// 2. a forward re-sweep ([`gc_reach_sweep`]) with the reachable set
///    cached;
/// 3. an `AG`-shaped backward sweep: `EF(viol)` for the complement of
///    the first half of the onion rings (the full-space shape `¬p` takes
///    in `AG p = ¬EF ¬p`), each preimage operand simplified modulo the
///    reachable states as the model checker's fixpoints do;
/// 4. the full coverage analysis, sampled once it completes.
fn simplify_sweep_peak(w: &Workload, simplify: SimplifyConfig) -> usize {
    let bdd = BddManager::new();
    let mut fsm = (w.build)(&bdd).fsm;
    fsm.set_image_config(ImageConfig {
        simplify,
        ..Default::default()
    });
    // Compile garbage is common to all arms.
    bdd.gc();
    let mut peak = bdd.live_nodes();

    let reach = fsm.install_reachable_care();
    bdd.gc();
    peak = peak.max(bdd.live_nodes());

    let (reached, swept) = gc_reach_sweep(&bdd, &fsm, simplify, peak);
    assert_eq!(reached, reach, "re-sweep must reproduce the reachable set");
    peak = swept;

    let rings = fsm.onion_rings(fsm.init());
    let mut prefix = bdd.constant(false);
    for r in rings.iter().take(rings.len() / 2 + 1) {
        prefix = prefix.or(r);
    }
    let mut z = prefix.not();
    drop((rings, prefix));
    bdd.gc();
    loop {
        let zs = simplify.apply(&z, &reach);
        let pre = fsm.preimage(&zs);
        peak = peak.max(bdd.live_nodes());
        let next = z.or(&pre);
        let done = next == z;
        z = next;
        drop((pre, zs));
        bdd.gc();
        peak = peak.max(bdd.live_nodes());
        if done {
            break;
        }
    }
    drop(z);

    let estimator = CoverageEstimator::new(&fsm);
    let _analysis = estimator
        .analyze(w.signal, &w.properties, &w.options)
        .expect("workload analyzes");
    bdd.gc();
    peak.max(bdd.live_nodes())
}

#[test]
fn restrict_sweep_peaks_below_off_on_the_buffer() {
    for w in buffer_workloads() {
        let off = simplify_sweep_peak(&w, SimplifyConfig::Off);
        let restrict = simplify_sweep_peak(&w, SimplifyConfig::Restrict);
        assert!(
            restrict < off,
            "{}/{}: restrict peak ({restrict}) must stay below the unsimplified peak ({off})",
            w.circuit,
            w.signal
        );
    }
}
