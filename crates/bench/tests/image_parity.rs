//! Cross-method parity: `image`, `preimage` and `preimage_univ` must be
//! **bit-identical** between [`ImageMethod::Monolithic`] and
//! [`ImageMethod::Partitioned`] on every bundled circuit and every
//! `models/*.smv` deck — on a shared manager (where BDD canonicity makes
//! semantic equality literal `Ref` equality), with and without an
//! installed reachable care set — and end-to-end through coverage
//! analysis: coverage percentages, per-property verdicts and the
//! uncovered state sets must be bit-identical across the full
//! `--simplify off|restrict|constrain` × `--image mono|part` ×
//! `--reorder off|sift|auto` cross-product. Don't-care simplification
//! (like partitioning and reordering before it) is a pure representation
//! change; any observable drift is a bug.
//!
//! Two representation gates ride along, on the priority buffer (the
//! Table-2 circuit whose partition keeps two clusters and whose reachable
//! set is a small fraction of its state space): under a GC after every
//! fixpoint step, the partitioned engine and `restrict` simplification
//! must each keep a lower live-node peak than the mode they replace.

use covest_bdd::{BddManager, Func, ReorderConfig, ReorderMode};
use covest_bench::{table2_workloads, Workload};
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_fsm::{ImageConfig, ImageMethod, SimplifyConfig, SymbolicFsm};
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

/// Asserts the three image operations agree between the machine's
/// partitioned engine and a monolithic twin, over a ladder of state sets
/// grown from the initial states.
fn assert_image_parity(bdd: &BddManager, name: &str, fsm: &SymbolicFsm) {
    assert_eq!(
        fsm.image_config().method,
        ImageMethod::Partitioned,
        "{name}: partitioned must be the default"
    );
    let mut mono = fsm.clone();
    mono.set_image_config(ImageConfig::monolithic());

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

    for (i, s) in sets.iter().enumerate() {
        let img_p = fsm.image(s);
        let img_m = mono.image(s);
        assert_eq!(img_p, img_m, "{name}: image diverges on set {i}");
        let pre_p = fsm.preimage(s);
        let pre_m = mono.preimage(s);
        assert_eq!(pre_p, pre_m, "{name}: preimage diverges on set {i}");
        let unv_p = fsm.preimage_univ(s);
        let unv_m = mono.preimage_univ(s);
        assert_eq!(unv_p, unv_m, "{name}: preimage_univ diverges on set {i}");
    }

    // Install the reachable care set (simplified transition clusters,
    // re-derived schedules) and re-check against the care-free monolithic
    // twin: the simplified relation must be invisible for every argument,
    // inside the care set (where it is actually consulted) and outside
    // (where the containment guard must route around it).
    let _reach = fsm.install_reachable_care();
    for (i, s) in sets.iter().enumerate() {
        assert_eq!(
            fsm.image(s),
            mono.image(s),
            "{name}: image diverges under installed care on set {i}"
        );
        assert_eq!(
            fsm.preimage(s),
            mono.preimage(s),
            "{name}: preimage diverges under installed care on set {i}"
        );
        assert_eq!(
            fsm.preimage_univ(s),
            mono.preimage_univ(s),
            "{name}: preimage_univ diverges under installed care on set {i}"
        );
    }
}

#[test]
fn circuits_image_ops_bit_identical() {
    let bdd = BddManager::new();
    for (name, model) in circuit_models(&bdd) {
        assert_image_parity(&bdd, &name, &model.fsm);
    }
}

#[test]
fn decks_image_ops_bit_identical() {
    for (name, src) in deck_sources() {
        let bdd = BddManager::new();
        let model = covest_smv::compile(&bdd, &src).expect("deck compiles");
        assert_image_parity(&bdd, &name, &model.fsm);
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

/// The full simplify × image × reorder configuration matrix.
fn config_matrix() -> Vec<(ReorderMode, ImageMethod, SimplifyConfig)> {
    let mut out = Vec::new();
    for reorder in [ReorderMode::Off, ReorderMode::Sift, ReorderMode::Auto] {
        for image in [ImageMethod::Monolithic, ImageMethod::Partitioned] {
            for simplify in [
                SimplifyConfig::Off,
                SimplifyConfig::Restrict,
                SimplifyConfig::Constrain,
            ] {
                out.push((reorder, image, simplify));
            }
        }
    }
    out
}

/// Runs a full coverage analysis of `deck` under one configuration,
/// returning the per-signal outcomes.
fn analyze_deck(
    src: &str,
    method: ImageMethod,
    reorder: ReorderMode,
    simplify: SimplifyConfig,
) -> Vec<SignalOutcome> {
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
            method,
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

#[test]
fn decks_outcomes_bit_identical_across_simplify_image_reorder() {
    for (name, src) in deck_sources() {
        let mut baseline: Option<Vec<SignalOutcome>> = None;
        for (reorder, image, simplify) in config_matrix() {
            let got = analyze_deck(&src, image, reorder, simplify);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{name}: outcomes diverge at reorder={reorder:?} \
                     image={image} simplify={simplify}"
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

#[test]
fn workloads_outcomes_bit_identical_across_simplify_image_reorder() {
    for w in table2_workloads() {
        let run = |method: ImageMethod,
                   reorder: ReorderMode,
                   simplify: SimplifyConfig|
         -> SignalOutcome {
            let bdd = BddManager::new();
            bdd.set_reorder_config(ReorderConfig {
                mode: reorder,
                auto_threshold: 256,
                ..Default::default()
            });
            let model = (w.build)(&bdd);
            let mut fsm = model.fsm;
            fsm.set_image_config(ImageConfig {
                method,
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
        for (reorder, image, simplify) in config_matrix() {
            let got = run(image, reorder, simplify);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "{}/{}: outcomes diverge at reorder={reorder:?} \
                     image={image} simplify={simplify}",
                    w.circuit, w.signal
                ),
            }
        }
    }
}

/// The priority buffer's Table-2 workloads, which the two peak gates
/// below run on.
fn buffer_workloads() -> Vec<Workload> {
    let buffer: Vec<Workload> = table2_workloads()
        .into_iter()
        .filter(|w| w.circuit.contains("priority buffer"))
        .collect();
    assert!(
        !buffer.is_empty(),
        "no priority-buffer workloads: the peak gates would pass vacuously"
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

/// Peak live nodes of [`gc_reach_sweep`] under `method`, from the
/// method-specific engine build on (so the partitioned arm's clustering
/// transients count, as the monolith's lazy conjunction does in its
/// first image call). Simplification is pinned off so that its
/// care-simplified cluster copies skew neither arm.
fn image_sweep_peak(w: &Workload, method: ImageMethod) -> usize {
    let bdd = BddManager::new();
    let mut fsm = (w.build)(&bdd).fsm;
    // Compile garbage is common to both arms; the machine is the live set.
    bdd.gc();
    let mut peak = bdd.live_nodes();
    fsm.set_image_config(ImageConfig {
        method,
        simplify: SimplifyConfig::Off,
        ..Default::default()
    });
    peak = peak.max(bdd.live_nodes());
    // The default-config clusters from the build and any rejected trial
    // merges are garbage now.
    bdd.gc();
    gc_reach_sweep(&bdd, &fsm, SimplifyConfig::Off, peak).1
}

#[test]
fn partitioned_sweep_peaks_below_monolithic_on_the_buffer() {
    for w in buffer_workloads() {
        let mono = image_sweep_peak(&w, ImageMethod::Monolithic);
        let part = image_sweep_peak(&w, ImageMethod::Partitioned);
        assert!(
            part < mono,
            "{}/{}: partitioned peak ({part}) must stay below monolithic peak ({mono})",
            w.circuit,
            w.signal
        );
    }
}

/// Peak live nodes under one simplification mode, on the default
/// partitioned engine, with a garbage collection after every fixpoint
/// step, through the phases simplification targets:
///
/// 1. reachability (frontier-simplified per mode) and care installation
///    (the simplified cluster copies are a cost the simplified arms carry
///    from here on);
/// 2. a forward re-sweep ([`gc_reach_sweep`]) on the care-installed
///    engine;
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
