//! Partitioned image computation: clustered transition relations with
//! early quantification.
//!
//! Every fixpoint in the workspace — `reachable(S0)`, the EX/EU/EG
//! fixpoints behind observability, the covered-set traversals — reduces
//! to image/preimage computation. Building the transition relation `T`
//! as one monolithic BDD is the dominant memory spike, so the default
//! engine keeps `T` as a *conjunctive partition* instead: the per-bit
//! parts are greedily merged into size-bounded clusters, and each
//! image/preimage is computed as a schedule-driven conjoin-and-quantify
//! (Burch–Clarke–Long early quantification) that eliminates every
//! variable at the earliest cluster where its support ends. The
//! monolithic path survives behind [`ImageMethod::Monolithic`] for A/B
//! comparison and is built lazily, only when actually requested.
//!
//! The clusters and the cached monolith are owned [`Func`] handles, so
//! the engine's transition relation pins itself across garbage collection
//! and reordering — no root enumeration is needed or possible.

use std::cell::RefCell;
use std::collections::BTreeSet;

use covest_bdd::{BddManager, Func, QuantSchedule, VarId};

/// How images and preimages are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImageMethod {
    /// Conjoin all transition parts into one BDD and use the two-operand
    /// fused relational product. Simple, but the monolith is usually the
    /// largest BDD in the system.
    Monolithic,
    /// Keep the transition relation as size-bounded clusters and sweep
    /// them with an early-quantification schedule (the default).
    #[default]
    Partitioned,
}

impl std::str::FromStr for ImageMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mono" | "monolithic" => Ok(ImageMethod::Monolithic),
            "part" | "partitioned" => Ok(ImageMethod::Partitioned),
            other => Err(format!(
                "unknown image method `{other}` (expected `mono` or `part`)"
            )),
        }
    }
}

impl std::fmt::Display for ImageMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageMethod::Monolithic => write!(f, "mono"),
            ImageMethod::Partitioned => write!(f, "part"),
        }
    }
}

/// How (and whether) BDDs are simplified against don't-care sets —
/// unreachable states above all. Every mode is observationally
/// equivalent: coverage percentages, verdicts and uncovered-state sets
/// are bit-identical across them (the parity suite asserts it); only
/// intermediate BDD sizes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimplifyConfig {
    /// No simplification anywhere.
    Off,
    /// Coudert–Madre `restrict` (sibling substitution): size-safe — a
    /// simplified BDD is never bigger than the original (the default).
    #[default]
    Restrict,
    /// Coudert–Madre `constrain` (generalized cofactor): stronger
    /// simplification that can, however, grow BDDs and pull care-set
    /// variables into supports.
    Constrain,
}

impl SimplifyConfig {
    /// Simplifies `f` modulo `care` per the mode. The identity
    /// `apply(f, c) & c == f & c` holds for every mode.
    pub fn apply(&self, f: &Func, care: &Func) -> Func {
        match self {
            SimplifyConfig::Off => f.clone(),
            SimplifyConfig::Restrict => f.restrict(care),
            SimplifyConfig::Constrain => f.constrain(care),
        }
    }
}

impl std::str::FromStr for SimplifyConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SimplifyConfig::Off),
            "restrict" => Ok(SimplifyConfig::Restrict),
            "constrain" => Ok(SimplifyConfig::Constrain),
            other => Err(format!(
                "unknown simplify mode `{other}` (expected off|restrict|constrain)"
            )),
        }
    }
}

impl std::fmt::Display for SimplifyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplifyConfig::Off => write!(f, "off"),
            SimplifyConfig::Restrict => write!(f, "restrict"),
            SimplifyConfig::Constrain => write!(f, "constrain"),
        }
    }
}

/// Configuration for [`ImageEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageConfig {
    /// Image computation method.
    pub method: ImageMethod,
    /// Maximum node count of a merged cluster: a transition part is
    /// folded into an existing cluster only while the conjunction stays
    /// at or below this bound. Small thresholds keep peak memory low;
    /// large ones converge on the monolith.
    pub cluster_threshold: usize,
    /// Don't-care simplification mode used by the fixpoint machinery:
    /// BFS frontiers, model-checker iterates, and — once a reachable
    /// care set is installed via [`ImageEngine::install_care`] — the
    /// transition clusters themselves.
    pub simplify: SimplifyConfig,
}

impl Default for ImageConfig {
    fn default() -> Self {
        ImageConfig {
            method: ImageMethod::default(),
            cluster_threshold: 500,
            simplify: SimplifyConfig::default(),
        }
    }
}

impl ImageConfig {
    /// The monolithic configuration (clustering threshold is unused).
    pub fn monolithic() -> Self {
        ImageConfig {
            method: ImageMethod::Monolithic,
            ..Default::default()
        }
    }
}

/// The image computation engine owned by a
/// [`SymbolicFsm`](crate::SymbolicFsm).
///
/// Holds a manager handle, the clustered transition relation, the three
/// early-quantification schedules (forward image, backward preimage, and
/// backward keeping inputs — the trace-replay variant), and a lazily
/// built monolithic `T` for [`ImageMethod::Monolithic`]. All BDD state is
/// owned [`Func`] handles: the engine keeps itself alive across
/// collection and reordering, and the schedules hold only variable ids.
#[derive(Debug, Clone)]
pub struct ImageEngine {
    config: ImageConfig,
    mgr: BddManager,
    clusters: Vec<Func>,
    /// Current-state + input variables (forward quantification set).
    fwd_vars: Vec<VarId>,
    /// Next-state + input variables (backward quantification set).
    bwd_vars: Vec<VarId>,
    /// Next-state variables only (backward, inputs kept).
    next_vars: Vec<VarId>,
    fwd: QuantSchedule,
    bwd: QuantSchedule,
    bwd_keep_inputs: QuantSchedule,
    /// Lazily conjoined monolithic transition relation.
    mono: RefCell<Option<Func>>,
    /// Care-simplified transition relation, installed once a reachable
    /// care set is known (see [`ImageEngine::install_care`]).
    care: RefCell<Option<CareState>>,
    /// Cached reachable-from-init set (computed by
    /// [`crate::SymbolicFsm::reachable`]). Like `mono` and `care`, it is
    /// derived from the transition relation and therefore shares the
    /// engine's lifecycle: rebuilding the engine (`set_image_config`,
    /// `constrain`) drops it.
    reach: RefCell<Option<Func>>,
}

/// The simplified transition relation derived from a care set: the
/// clusters simplified modulo the care states (over current variables)
/// and the forward quantification schedule re-derived for their — now
/// smaller — supports. A variable simplified out of every cluster lands
/// in the schedule's pre-quantification list, so it is still eliminated.
#[derive(Debug, Clone)]
struct CareState {
    /// The care set (over current-state variables) the clusters were
    /// simplified against — forward images route through this state only
    /// for argument sets contained in it, which is exactly the region
    /// where the simplification is invisible.
    care: Func,
    /// Simplified clusters (partitioned method) or the simplified
    /// monolith as a single element (monolithic method).
    clusters: Vec<Func>,
    /// Forward schedule over the simplified clusters (partitioned only).
    fwd: QuantSchedule,
}

impl ImageEngine {
    /// Builds an engine over the conjunctive partition `parts`.
    ///
    /// In partitioned mode, clusters are formed by greedy affinity
    /// merging: each part joins the existing cluster sharing the most
    /// support variables, unless the merged BDD would exceed
    /// `config.cluster_threshold` nodes, in which case it starts a new
    /// cluster. In monolithic mode the parts are kept as-is (no merge
    /// work): only the lazy full conjunction is ever formed.
    pub fn build(
        mgr: &BddManager,
        parts: &[Func],
        current_vars: &[VarId],
        input_vars: &[VarId],
        next_vars: &[VarId],
        config: ImageConfig,
    ) -> ImageEngine {
        let clusters = match config.method {
            ImageMethod::Partitioned => cluster_parts(parts, config.cluster_threshold),
            ImageMethod::Monolithic => parts.iter().filter(|p| !p.is_true()).cloned().collect(),
        };
        let mut fwd_vars = current_vars.to_vec();
        fwd_vars.extend_from_slice(input_vars);
        let mut bwd_vars = next_vars.to_vec();
        bwd_vars.extend_from_slice(input_vars);
        // The monolithic path quantifies over the lazy full conjunction
        // and never replays a schedule, so build them (sharing one
        // support computation) only when partitioning.
        let (fwd, bwd, bwd_keep_inputs) = match config.method {
            ImageMethod::Partitioned => {
                let mut schedules =
                    mgr.quant_schedule_many(&clusters, &[&fwd_vars, &bwd_vars, next_vars]);
                let bwd_keep_inputs = schedules.pop().expect("three lists in");
                let bwd = schedules.pop().expect("three lists in");
                let fwd = schedules.pop().expect("three lists in");
                (fwd, bwd, bwd_keep_inputs)
            }
            ImageMethod::Monolithic => Default::default(),
        };
        ImageEngine {
            config,
            mgr: mgr.clone(),
            clusters,
            fwd_vars,
            bwd_vars,
            next_vars: next_vars.to_vec(),
            fwd,
            bwd,
            bwd_keep_inputs,
            mono: RefCell::new(None),
            care: RefCell::new(None),
            reach: RefCell::new(None),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ImageConfig {
        self.config
    }

    /// The image method in use.
    pub fn method(&self) -> ImageMethod {
        self.config.method
    }

    /// The transition-relation clusters, in sweep order.
    pub fn clusters(&self) -> &[Func] {
        &self.clusters
    }

    /// The monolithic transition relation, conjoined (and cached) on
    /// first request. Partitioned-mode callers never pay for this.
    pub fn monolithic_trans(&self) -> Func {
        if let Some(t) = self.mono.borrow().as_ref() {
            return t.clone();
        }
        let t = self.mgr.and_many(&self.clusters);
        *self.mono.borrow_mut() = Some(t.clone());
        t
    }

    /// Seeds the monolith cache (used by `constrain` to extend an
    /// already-built monolith instead of re-conjoining all clusters).
    pub(crate) fn seed_mono(&self, trans: Func) {
        *self.mono.borrow_mut() = Some(trans);
    }

    /// The cached monolith, if it has been built.
    pub(crate) fn cached_mono(&self) -> Option<Func> {
        self.mono.borrow().clone()
    }

    /// The cached reachable-from-init set, if it has been computed.
    pub(crate) fn cached_reach(&self) -> Option<Func> {
        self.reach.borrow().clone()
    }

    /// Caches the reachable-from-init set.
    pub(crate) fn cache_reach(&self, reach: Func) {
        *self.reach.borrow_mut() = Some(reach);
    }

    /// Installs `care` (a set over current-state variables — in practice
    /// the reachable states) as the engine's don't-care region: every
    /// transition cluster is simplified modulo it and the forward
    /// quantification schedule is re-derived for the shrunken supports.
    ///
    /// Forward images consult the simplified relation only when the
    /// argument set is contained in `care` — precisely the region where
    /// `simplify(T, c) ∧ S = T ∧ S` makes the substitution invisible —
    /// so [`ImageEngine::forward`] (and everything above it) stays exact
    /// for **every** argument, in or out of the care set. Backward images
    /// always use the unsimplified clusters: a preimage is a function of
    /// the *current* variables and would only be trustworthy inside the
    /// care region.
    ///
    /// With [`SimplifyConfig::Off`] (or a trivial care set) any installed
    /// state is cleared instead. Rebuilding the engine
    /// ([`crate::SymbolicFsm::set_image_config`], `constrain`) drops the
    /// installed state with it — it is derived data, never carried over.
    pub fn install_care(&self, care: &Func, simplify: SimplifyConfig) {
        if simplify == SimplifyConfig::Off || care.is_const() {
            *self.care.borrow_mut() = None;
            return;
        }
        let (clusters, fwd) = match self.config.method {
            ImageMethod::Partitioned => {
                let clusters: Vec<Func> = self
                    .clusters
                    .iter()
                    .map(|t| simplify.apply(t, care))
                    .collect();
                let fwd = self.mgr.quant_schedule(&clusters, &self.fwd_vars);
                (clusters, fwd)
            }
            ImageMethod::Monolithic => (
                vec![simplify.apply(&self.monolithic_trans(), care)],
                QuantSchedule::default(),
            ),
        };
        *self.care.borrow_mut() = Some(CareState {
            care: care.clone(),
            clusters,
            fwd,
        });
    }

    /// The installed care set, if any.
    pub fn care_set(&self) -> Option<Func> {
        self.care.borrow().as_ref().map(|cs| cs.care.clone())
    }

    /// Forward image through the care-simplified relation, if one is
    /// installed and provably applicable (`set ⊆ care`).
    fn forward_care(&self, set: &Func) -> Option<Func> {
        let guard = self.care.borrow();
        let cs = guard.as_ref()?;
        if !set.leq(&cs.care) {
            return None;
        }
        Some(match self.config.method {
            ImageMethod::Partitioned => self.mgr.and_exists_schedule(set, &cs.clusters, &cs.fwd),
            ImageMethod::Monolithic => cs.clusters[0].and_exists(set, &self.fwd_vars),
        })
    }

    /// `∃ current, inputs. T ∧ set` — the forward image of a state set
    /// (over current variables), as a BDD over **next** variables.
    ///
    /// Exact for every argument set regardless of the installed care
    /// state (see [`ImageEngine::install_care`]).
    pub fn forward(&self, set: &Func) -> Func {
        covest_telemetry::count("image_calls", 1);
        if let Some(img) = self.forward_care(set) {
            return img;
        }
        match self.config.method {
            ImageMethod::Monolithic => self.monolithic_trans().and_exists(set, &self.fwd_vars),
            ImageMethod::Partitioned => {
                self.mgr.and_exists_schedule(set, &self.clusters, &self.fwd)
            }
        }
    }

    /// `∃ next, inputs. T ∧ set_next` — the existential preimage of a
    /// state set already renamed to **next** variables, as a BDD over
    /// current variables.
    pub fn backward(&self, set_next: &Func) -> Func {
        covest_telemetry::count("preimage_calls", 1);
        match self.config.method {
            ImageMethod::Monolithic => self.monolithic_trans().and_exists(set_next, &self.bwd_vars),
            ImageMethod::Partitioned => {
                self.mgr
                    .and_exists_schedule(set_next, &self.clusters, &self.bwd)
            }
        }
    }

    /// `∃ next. T ∧ set_next` — like [`ImageEngine::backward`] but keeping
    /// the input variables free: the result relates each predecessor
    /// state to the inputs justifying the transition. This is what trace
    /// replay needs, and it never forces the monolith to exist.
    pub fn backward_with_inputs(&self, set_next: &Func) -> Func {
        covest_telemetry::count("preimage_calls", 1);
        match self.config.method {
            ImageMethod::Monolithic => self
                .monolithic_trans()
                .and_exists(set_next, &self.next_vars),
            ImageMethod::Partitioned => {
                self.mgr
                    .and_exists_schedule(set_next, &self.clusters, &self.bwd_keep_inputs)
            }
        }
    }
}

/// Greedy affinity clustering: each part merges into the existing
/// cluster with the largest shared support (falling back to the most
/// recent cluster when no support overlaps), unless the merged BDD would
/// exceed `threshold` nodes — then it starts a new cluster.
fn cluster_parts(parts: &[Func], threshold: usize) -> Vec<Func> {
    let mut clusters: Vec<Func> = Vec::new();
    let mut supports: Vec<BTreeSet<VarId>> = Vec::new();
    for p in parts {
        if p.is_true() {
            continue;
        }
        let psup: BTreeSet<VarId> = p.support().into_iter().collect();
        let best = supports
            .iter()
            .enumerate()
            .map(|(i, csup)| (csup.intersection(&psup).count(), i))
            .filter(|&(shared, _)| shared > 0)
            .max_by_key(|&(shared, i)| (shared, std::cmp::Reverse(i)))
            .map(|(_, i)| i)
            .or(if clusters.is_empty() {
                None
            } else {
                Some(clusters.len() - 1)
            });
        if let Some(i) = best {
            let merged = clusters[i].and(p);
            if merged.node_count_capped(threshold.saturating_add(1)) <= threshold {
                clusters[i] = merged;
                supports[i].extend(psup);
                continue;
            }
        }
        clusters.push(p.clone());
        supports.push(psup);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three-bit shifter: b0' = inp, b1' = b0, b2' = b1. Each part's
    /// support is disjoint enough to exercise the schedule.
    fn shifter_parts(mgr: &BddManager) -> (Vec<Func>, Vec<VarId>, Vec<VarId>, Vec<VarId>) {
        let mut cur = Vec::new();
        let mut next = Vec::new();
        for i in 0..3 {
            cur.push(mgr.new_named_var(format!("b{i}")));
            next.push(mgr.new_named_var(format!("b{i}'")));
        }
        let inp = vec![mgr.new_named_var("inp")];
        let mut parts = Vec::new();
        let srcs = [inp[0], cur[0], cur[1]];
        for (i, &src) in srcs.iter().enumerate() {
            parts.push(mgr.var(next[i]).iff(&mgr.var(src)));
        }
        (parts, cur, inp, next)
    }

    fn engines(
        mgr: &BddManager,
        threshold: usize,
    ) -> (ImageEngine, ImageEngine, Vec<VarId>, Vec<VarId>) {
        let (parts, cur, inp, next) = shifter_parts(mgr);
        let part = ImageEngine::build(
            mgr,
            &parts,
            &cur,
            &inp,
            &next,
            ImageConfig {
                method: ImageMethod::Partitioned,
                cluster_threshold: threshold,
                ..Default::default()
            },
        );
        let mono = ImageEngine::build(mgr, &parts, &cur, &inp, &next, ImageConfig::monolithic());
        (part, mono, cur, next)
    }

    #[test]
    fn forward_and_backward_match_monolithic() {
        for threshold in [1, 4, 64, 10_000] {
            let mgr = BddManager::new();
            let (part, mono, cur, next) = engines(&mgr, threshold);
            // A handful of state sets over current vars.
            let c0 = mgr.var(cur[0]);
            let c1 = mgr.var(cur[1]);
            let c2 = mgr.var(cur[2]);
            let s1 = c0.and(&c1);
            let s2 = s1.or(&c2);
            let s3 = s2.not();
            for set in [mgr.constant(true), mgr.constant(false), c0, s1, s2, s3] {
                assert_eq!(
                    part.forward(&set),
                    mono.forward(&set),
                    "forward diverges at threshold {threshold}"
                );
            }
            // Preimage operands live over next vars.
            let n0 = mgr.var(next[0]);
            let n2 = mgr.var(next[2]);
            let t1 = n0.xor(&n2);
            for set_next in [mgr.constant(true), n0.clone(), t1] {
                assert_eq!(
                    part.backward(&set_next),
                    mono.backward(&set_next),
                    "backward diverges at threshold {threshold}"
                );
                assert_eq!(
                    part.backward_with_inputs(&set_next),
                    mono.backward_with_inputs(&set_next),
                    "backward_with_inputs diverges at threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn threshold_bounds_cluster_count() {
        let mgr = BddManager::new();
        let (part_tiny, ..) = engines(&mgr, 1);
        // Threshold 1 cannot merge anything: one cluster per part.
        assert_eq!(part_tiny.clusters().len(), 3);
        let mgr2 = BddManager::new();
        let (part_big, ..) = engines(&mgr2, 10_000);
        // A huge threshold merges every affine part.
        assert!(part_big.clusters().len() < 3);
    }

    #[test]
    fn monolith_is_lazy_and_cached() {
        let mgr = BddManager::new();
        let (part, ..) = engines(&mgr, 4);
        assert!(part.cached_mono().is_none());
        let t1 = part.monolithic_trans();
        let t2 = part.monolithic_trans();
        assert_eq!(t1, t2);
        assert_eq!(part.cached_mono(), Some(t1.clone()));
        // The cached monolith is an owned handle: it survives a rootless
        // collection without any explicit protection.
        mgr.gc();
        assert_eq!(part.monolithic_trans(), t1);
    }

    #[test]
    fn care_install_keeps_forward_exact() {
        for simplify in [SimplifyConfig::Restrict, SimplifyConfig::Constrain] {
            let mgr = BddManager::new();
            let (part, mono, cur, _next) = engines(&mgr, 4);
            let c0 = mgr.var(cur[0]);
            let c1 = mgr.var(cur[1]);
            // A nontrivial care set and argument sets inside and outside it.
            let care = c0.or(&c1);
            part.install_care(&care, simplify);
            assert_eq!(part.care_set(), Some(care.clone()));
            let inside = c0.and(&c1);
            let outside = care.not();
            let straddling = mgr.constant(true);
            for set in [inside, outside, straddling, care.clone()] {
                assert_eq!(
                    part.forward(&set),
                    mono.forward(&set),
                    "forward diverges under {simplify} care"
                );
            }
            // Off clears the installed state.
            part.install_care(&care, SimplifyConfig::Off);
            assert!(part.care_set().is_none());
        }
    }

    #[test]
    fn care_install_on_monolithic_engine() {
        let mgr = BddManager::new();
        let (part, mono, cur, _next) = engines(&mgr, 4);
        let care = mgr.var(cur[0]).or(&mgr.var(cur[2]));
        mono.install_care(&care, SimplifyConfig::Constrain);
        let sub = mgr.var(cur[0]);
        assert_eq!(mono.forward(&sub), part.forward(&sub));
    }

    #[test]
    fn simplify_parses_round_trip() {
        for (s, m) in [
            ("off", SimplifyConfig::Off),
            ("restrict", SimplifyConfig::Restrict),
            ("constrain", SimplifyConfig::Constrain),
        ] {
            assert_eq!(s.parse::<SimplifyConfig>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("licorice".parse::<SimplifyConfig>().is_err());
    }

    #[test]
    fn method_parses_round_trip() {
        for (s, m) in [
            ("mono", ImageMethod::Monolithic),
            ("monolithic", ImageMethod::Monolithic),
            ("part", ImageMethod::Partitioned),
            ("partitioned", ImageMethod::Partitioned),
        ] {
            assert_eq!(s.parse::<ImageMethod>().unwrap(), m);
        }
        assert!("hybrid".parse::<ImageMethod>().is_err());
        assert_eq!(ImageMethod::Partitioned.to_string(), "part");
    }
}
