//! The user-facing coverage estimator: multi-property analysis,
//! don't-cares, fairness, uncovered-state reporting and traces.
//!
//! This is the workflow of the paper's Section 4: verify a property
//! suite, compute the covered set per property, union them, relate the
//! result to the coverage space (reachable states, restricted to fair
//! paths and excluding user don't-cares), and help the user inspect the
//! holes. Verification happens once per machine
//! ([`CoverageEstimator::verify`]); each observed signal's
//! [`CoverageEstimator::cover`] then reads its covered sets off that
//! checker's memoized satisfaction sets.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use covest_bdd::{Func, VarId};
use covest_ctl::{Formula, PropExpr};
use covest_fsm::{SymbolicFsm, Trace};
use covest_mc::ModelChecker;
use covest_telemetry::{self as telemetry, Stopwatch};

use crate::covered::{CoveredSets, Flow};
use crate::error::CoverageError;
use crate::report::PropertyVerdict;

/// Per-property outcome within an analysis.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// The property.
    pub formula: Formula,
    /// Whether the model satisfies it.
    pub holds: bool,
    /// Whether the property passes *vacuously*: some implication inside
    /// it never triggers, so it constrains nothing (and covers nothing
    /// there). Usually a specification bug.
    pub vacuous: bool,
    /// Covered set contributed by this property (empty if it fails).
    /// An owned handle: the set stays valid for as long as the result is
    /// held, across any GC or reordering.
    pub covered: Func,
}

/// The result of a coverage analysis for one observed signal.
///
/// The state sets are owned [`Func`] handles, so a finished analysis can
/// be held across further analyses on the same manager — the GC
/// checkpoints inside those later runs cannot invalidate it.
#[derive(Debug, Clone)]
pub struct CoverageAnalysis {
    /// Observed signal name.
    pub observed: String,
    /// Per-property results, in input order.
    pub properties: Vec<PropertyResult>,
    /// Union of covered sets (intersected with the coverage space).
    pub covered: Func,
    /// The coverage space: reachable (fair) states minus don't-cares.
    pub space: Func,
    /// Number of states in `covered`.
    pub covered_count: f64,
    /// Number of states in `space`.
    pub space_count: f64,
    /// The current-state variables `covered` and `space` were counted
    /// over, in declaration order: every state bit, or the cone's bits
    /// ([`CoverageOptions::cone`]). Uncovered states are sampled over it.
    pub universe: Vec<VarId>,
    /// Wall-clock time spent verifying the properties.
    pub verify_time: Duration,
    /// BDD table size after verification (paper's "BDDs" column).
    pub verify_nodes: usize,
    /// Wall-clock time spent computing covered sets + the space.
    pub coverage_time: Duration,
    /// BDD table size after coverage estimation.
    pub coverage_nodes: usize,
}

impl CoverageAnalysis {
    /// Coverage percentage per Definition 4.
    ///
    /// An empty coverage space yields 100% (nothing to cover).
    pub fn percent(&self) -> f64 {
        if self.space_count == 0.0 {
            100.0
        } else {
            100.0 * self.covered_count / self.space_count
        }
    }

    /// The uncovered portion of the coverage space.
    pub fn uncovered(&self) -> Func {
        self.space.diff(&self.covered)
    }

    /// `true` if every property in the suite holds.
    pub fn all_hold(&self) -> bool {
        self.properties.iter().all(|p| p.holds)
    }
}

/// One machine's verification pass (see [`CoverageEstimator::verify`]):
/// the suite decided once on the machine's single checker, whose
/// memoized satisfaction sets every signal's
/// [`CoverageEstimator::cover`] reuses.
#[derive(Debug)]
pub struct Verification<'m> {
    sets: CoveredSets<'m>,
    properties: Vec<Formula>,
    holds: Vec<bool>,
    /// Each property's flow from the initial states, by suite index,
    /// computed by the first cover step. A failing property's flow is
    /// empty: it covers nothing and is not vacuous.
    flows: Vec<Flow>,
    /// Wall-clock time spent deciding the suite.
    pub time: Duration,
    /// BDD table size after verification (paper's "BDDs" column).
    pub nodes: usize,
}

impl<'m> Verification<'m> {
    /// Whether each property holds, in suite order.
    pub fn holds(&self) -> &[bool] {
        &self.holds
    }

    /// `true` if every property in the suite holds.
    pub fn all_hold(&self) -> bool {
        self.holds.iter().all(|&h| h)
    }

    /// The per-property verdicts, in suite order. Vacuity is read from
    /// the flows the first cover step computes; before any, no property
    /// is marked vacuous.
    pub fn verdicts(&self) -> Vec<PropertyVerdict> {
        self.properties
            .iter()
            .zip(&self.holds)
            .enumerate()
            .map(|(i, (p, &holds))| PropertyVerdict {
                formula: p.to_string(),
                holds,
                vacuous: self.flows.get(i).is_some_and(|f| f.vacuous),
            })
            .collect()
    }

    /// The machine's checker, for work that must share its memo — a
    /// failing property's counterexample, say.
    pub fn checker_mut(&mut self) -> &mut ModelChecker<'m> {
        self.sets.checker_mut()
    }
}

/// Options controlling an analysis.
#[derive(Debug, Clone, Default)]
pub struct CoverageOptions {
    /// Propositional don't-care predicate: states where the observed
    /// signal's value is irrelevant, excluded from the coverage space
    /// (Section 4.2).
    pub dont_cares: Option<PropExpr>,
    /// Fairness constraints (Section 4.3); coverage is then computed over
    /// states reachable along fair paths.
    pub fairness: Vec<PropExpr>,
    /// Cone-of-influence restriction: the state-bit *names* (declaration
    /// order) that span the coverage universe. When set, the covered set
    /// and the space are projected onto these bits (existentially
    /// quantifying everything else) after they are intersected, and
    /// counting/sampling runs over exactly these bits. Projection at that
    /// point is exact — see DESIGN.md "Static deck analysis &
    /// cone-of-influence" for the argument. `None` (default) keeps the
    /// full state-bit universe.
    pub cone: Option<Vec<String>>,
}

/// The coverage estimator for one machine.
///
/// # Examples
///
/// ```
/// use covest_bdd::BddManager;
/// use covest_fsm::Stg;
/// use covest_core::{CoverageEstimator, CoverageOptions};
/// use covest_ctl::parse_formula;
///
/// let mut stg = Stg::new("chain");
/// stg.add_states(4);
/// stg.add_path(&[0, 1, 2, 3]);
/// stg.add_edge(3, 3);
/// stg.mark_initial(0);
/// stg.label(0, "p1");
/// stg.label(1, "p1");
/// stg.label(2, "p1");
/// stg.label(3, "q");
/// let mgr = BddManager::new();
/// let fsm = stg.compile(&mgr)?;
/// let estimator = CoverageEstimator::new(&fsm);
/// let props = vec![parse_formula("A[p1 U q]").unwrap()];
/// let analysis = estimator.analyze("q", &props, &CoverageOptions::default())?;
/// assert!(analysis.all_hold());
/// assert_eq!(analysis.percent(), 25.0); // only the first q-state covered
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CoverageEstimator<'m> {
    fsm: &'m SymbolicFsm,
}

impl<'m> CoverageEstimator<'m> {
    /// Creates an estimator for `fsm`.
    pub fn new(fsm: &'m SymbolicFsm) -> Self {
        CoverageEstimator { fsm }
    }

    /// Runs the full analysis for `observed` over a property suite:
    /// [`CoverageEstimator::checker`], [`CoverageEstimator::verify`] and
    /// [`CoverageEstimator::cover`] in a row.
    ///
    /// The verification and coverage phases end at a GC checkpoint
    /// ([`covest_bdd::BddManager::gc_checkpoint`]). Every live handle —
    /// this machine, its checker state, and anything else the caller
    /// holds on the same manager — survives automatically; there is no
    /// root set to enumerate and nothing to protect.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError`] for unknown/non-boolean observed signals,
    /// bad cone entries or lowering failures. A failing property is no
    /// error: it is reported and covers nothing.
    pub fn analyze(
        &self,
        observed: &str,
        properties: &[Formula],
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        let checker = self.checker(&options.fairness)?;
        let mut verification = self.verify(checker, properties)?;
        self.cover(&mut verification, observed, options)
    }

    /// The machine's verification checker, under the `fairness`
    /// constraints. No reachability runs here; the first
    /// [`CoverageEstimator::cover`] computes it for the coverage space.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] if a constraint mentions unknown
    /// signals.
    pub fn checker(&self, fairness: &[PropExpr]) -> Result<ModelChecker<'m>, CoverageError> {
        let mut mc = ModelChecker::new(self.fsm);
        for fair in fairness {
            mc.add_fairness(fair)?;
        }
        Ok(mc)
    }

    /// Decides every property once, on `checker` (normally
    /// [`CoverageEstimator::checker`]'s), recording the verification time
    /// and table size under a `verify` span. Each signal's
    /// [`CoverageEstimator::cover`] then reuses this checker and its
    /// memoized satisfaction sets; nothing re-verifies.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn verify(
        &self,
        checker: ModelChecker<'m>,
        properties: &[Formula],
    ) -> Result<Verification<'m>, CoverageError> {
        let mgr = self.fsm.manager();
        let mut sets = CoveredSets::untargeted(checker);
        let t0 = Stopwatch::start();
        let verify_span = telemetry::span("verify");
        let mut holds = Vec::with_capacity(properties.len());
        for p in properties {
            holds.push(sets.verify(p)?);
        }
        telemetry::span_field("properties", properties.len() as u64);
        drop(verify_span);
        let time = t0.elapsed();
        let nodes = mgr.table_size();

        // Safe point between the verification and coverage phases: the
        // live working set is exactly the handles still alive (the
        // machine, the checker with its memoized satisfaction sets, and
        // the caller's); the fixpoints' intermediate results are garbage.
        mgr.gc_checkpoint();
        Ok(Verification {
            sets,
            properties: properties.to_vec(),
            holds,
            flows: Vec::new(),
            time,
            nodes,
        })
    }

    /// One observed signal's coverage on a verified machine: the covered
    /// set of every holding property, their union, and the coverage space
    /// (reachable fair states minus `options.dont_cares`), projected onto
    /// `options.cone` when set. The fairness constraints and the suite
    /// are the verification's; `options.fairness` is not read here.
    /// Every analysis of one verification reports its verification time
    /// and table size.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::BadConeEntry`] for a cone entry that does
    /// not name a distinct state bit, checked before any fixpoint runs;
    /// [`CoverageError::UnknownObserved`] for an unknown observed signal;
    /// [`CoverageError::Lower`] for unresolvable atoms.
    pub fn cover(
        &self,
        verification: &mut Verification<'m>,
        observed: &str,
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        self.check_cone(options.cone.as_deref())?;
        let mgr = self.fsm.manager().clone();
        // The coverage space's reachable part, computed by the first
        // cover step and cached on the machine.
        let reach = self.fsm.reachable();
        let _span = telemetry::span(format!("signal:{observed}"));
        let (verify_time, verify_nodes) = (verification.time, verification.nodes);
        let Verification {
            sets: cs,
            properties,
            holds,
            flows,
            ..
        } = verification;
        cs.retarget(observed)?;

        let t1 = Stopwatch::start();
        let coverage_span = telemetry::span("coverage");
        if flows.len() != properties.len() {
            flows.clear();
            for (p, &holds) in properties.iter().zip(holds.iter()) {
                let flow = if holds {
                    cs.flow(self.fsm.init(), p)?
                } else {
                    Flow::default()
                };
                flows.push(flow);
            }
        }
        let mut property_results = Vec::with_capacity(properties.len());
        let mut covered = mgr.constant(false);
        for ((p, &holds), flow) in properties.iter().zip(holds.iter()).zip(flows.iter()) {
            let c = if holds {
                cs.covered_by(p, flow)?
            } else {
                mgr.constant(false)
            };
            covered = covered.or(&c);
            property_results.push(PropertyResult {
                formula: p.clone(),
                holds,
                vacuous: flow.vacuous,
                covered: c,
            });
        }

        let fair = cs.checker_mut().fair_states();
        let mut space = reach.and(&fair);
        if let Some(dc) = &options.dont_cares {
            let dcf = self.fsm.signals().lower(&mgr, dc)?;
            space = space.diff(&dcf);
        }
        let covered = covered.and(&space);
        // Cone-of-influence restriction: project *after* intersecting the
        // covered set with the space — `covered` is then a cone predicate
        // conjoined with `space`, which makes ∃-projection exact (the
        // uncovered set derived from the projected pair equals the
        // projection of the full uncovered set; DESIGN.md).
        let (covered, space) = if let Some(bits) = &options.cone {
            let keep: HashSet<&str> = bits.iter().map(String::as_str).collect();
            let outside: Vec<VarId> = self
                .fsm
                .state_bits()
                .iter()
                .filter(|b| !keep.contains(b.name.as_str()))
                .map(|b| b.current)
                .collect();
            (covered.exists(&outside), space.exists(&outside))
        } else {
            (covered, space)
        };
        // Deterministic coverage-span payload: BDD sizes of the two
        // result sets, pure functions of (deck source, config) like the
        // counters — gathered only under a recorder, since node_count is
        // a traversal.
        if telemetry::is_active() {
            telemetry::span_field("covered_nodes", covered.node_count() as u64);
            telemetry::span_field("space_nodes", space.node_count() as u64);
        }
        drop(coverage_span);
        let coverage_time = t1.elapsed();
        let coverage_nodes = mgr.table_size();

        mgr.gc_checkpoint();

        let universe = self.state_universe(&covered, &space, options.cone.as_deref());
        let covered_count = covered.sat_count_over(&universe);
        let space_count = space.sat_count_over(&universe);

        Ok(CoverageAnalysis {
            observed: observed.to_owned(),
            properties: property_results,
            covered,
            space,
            covered_count,
            space_count,
            universe,
            verify_time,
            verify_nodes,
            coverage_time,
            coverage_nodes,
        })
    }

    /// Checks the contract of [`CoverageEstimator::universe`] up front:
    /// every cone entry names a distinct state bit of this machine.
    fn check_cone(&self, cone: Option<&[String]>) -> Result<(), CoverageError> {
        let Some(entries) = cone else {
            return Ok(());
        };
        let bits: HashSet<&str> = self
            .fsm
            .state_bits()
            .iter()
            .map(|b| b.name.as_str())
            .collect();
        let mut seen = HashSet::with_capacity(entries.len());
        match entries
            .iter()
            .find(|e| !bits.contains(e.as_str()) || !seen.insert(e.as_str()))
        {
            Some(bad) => Err(CoverageError::BadConeEntry(bad.clone())),
            None => Ok(()),
        }
    }

    /// Analyzes one property suite against **several observed signals at
    /// once**, returning a single analysis whose covered set is the union
    /// of the per-signal covered sets — the paper's Section 2 semantics
    /// for properties with multiple observable signals. The suite is
    /// verified once; each signal is one [`CoverageEstimator::cover`]
    /// step on that verification.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::analyze`].
    pub fn analyze_union(
        &self,
        observed: &[&str],
        properties: &[Formula],
        options: &CoverageOptions,
    ) -> Result<CoverageAnalysis, CoverageError> {
        assert!(!observed.is_empty(), "need at least one observed signal");
        let mut verification = self.verify(self.checker(&options.fairness)?, properties)?;
        let mut analyses = Vec::with_capacity(observed.len());
        for sig in observed {
            analyses.push(self.cover(&mut verification, sig, options)?);
        }
        // The analyses hold their sets as owned handles, so merging after
        // any number of intervening GC checkpoints is sound.
        let mut merged = analyses.pop().expect("nonempty");
        for a in &analyses {
            merged.covered = merged.covered.or(&a.covered);
            for (mine, theirs) in merged.properties.iter_mut().zip(&a.properties) {
                mine.covered = mine.covered.or(&theirs.covered);
            }
        }
        merged.covered_count = merged.covered.sat_count_over(&merged.universe);
        merged.observed = observed.join("+");
        Ok(merged)
    }

    /// Samples up to `limit` states of `set` as *canonical* minterms
    /// over an explicit variable universe (a cone-restricted analysis
    /// samples over the cone bits only): the lexicographically smallest
    /// assignments with respect to `vars`' order — for state sets, the
    /// machine's **declaration order** (false before true) — extracted
    /// by a cofactor walk and returned in ascending order.
    ///
    /// The sample is a pure function of the state set and the universe
    /// order — independent of the manager's variable order, reordering
    /// history, or which manager the set was computed on — so sequential
    /// and parallel runs print byte-identical reports.
    fn canonical_minterms_over(
        &self,
        set: &Func,
        vars: &[VarId],
        limit: usize,
    ) -> Vec<Vec<(VarId, bool)>> {
        let mgr = self.fsm.manager();
        // When the caller wants the whole set, lazy enumeration plus a
        // sort beats the one-BDD-diff-per-state walk below (which would
        // be quadratic in the set size) and yields the same canonical
        // declaration-order listing.
        if limit as f64 >= set.sat_count_over(vars) {
            let mut all: Vec<Vec<(VarId, bool)>> = set.minterms_over(vars).collect();
            all.sort_by(|a, b| {
                let key = |m: &[(VarId, bool)]| m.iter().map(|&(_, v)| v).collect::<Vec<_>>();
                key(a).cmp(&key(b))
            });
            return all;
        }
        let mut rest = set.clone();
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(cube) = rest.pick_minterm(vars) else {
                break;
            };
            let literals: Vec<Func> = cube.iter().map(|&(v, val)| mgr.literal(v, val)).collect();
            rest = rest.diff(&mgr.and_many(&literals));
            out.push(cube);
        }
        out
    }

    /// Lists up to `limit` states of `set` (over current variables) as
    /// named bit assignments over the universe `vars` (see
    /// [`CoverageEstimator::universe`]; a cone-restricted analysis samples
    /// its sets over the cone bits only), in the canonical
    /// declaration-order lexicographic order (see
    /// [`CoverageEstimator::uncovered_states`] for the determinism
    /// contract).
    pub fn sample_states_over(
        &self,
        set: &Func,
        vars: &[VarId],
        limit: usize,
    ) -> Vec<Vec<(String, bool)>> {
        self.canonical_minterms_over(set, vars, limit)
            .into_iter()
            .map(|m| {
                m.into_iter()
                    .map(|(v, val)| (self.bit_name(v).to_owned(), val))
                    .collect()
            })
            .collect()
    }

    /// The counting/sampling universe selected by an optional cone of
    /// state-bit names: the matching current-state [`VarId`]s in
    /// declaration order, or every state bit for `None`.
    ///
    /// # Panics
    ///
    /// Panics if a cone name does not name a state bit of this machine.
    pub fn universe(&self, cone: Option<&[String]>) -> Vec<VarId> {
        match cone {
            None => self.fsm.current_vars(),
            Some(bits) => {
                let vars: Vec<VarId> = self
                    .fsm
                    .state_bits()
                    .iter()
                    .filter(|b| bits.contains(&b.name))
                    .map(|b| b.current)
                    .collect();
                assert_eq!(
                    vars.len(),
                    bits.len(),
                    "every cone entry must name a distinct state bit"
                );
                vars
            }
        }
    }

    /// Lists up to `limit` uncovered states as named bit assignments over
    /// the universe the analysis counted ([`CoverageAnalysis::universe`]),
    /// so a cone analysis lists distinct cone states.
    ///
    /// The sample is deterministic: states come out sorted by their bit
    /// values in declaration order (false < true), regardless of the
    /// current variable order or any reordering history — so two runs
    /// that agree on the uncovered *set* (e.g. a sequential and a
    /// parallel analysis) produce diff-identical listings. A longer
    /// sample extends a shorter one.
    pub fn uncovered_states(
        &self,
        analysis: &CoverageAnalysis,
        limit: usize,
    ) -> Vec<Vec<(String, bool)>> {
        self.sample_states_over(&analysis.uncovered(), &analysis.universe, limit)
    }

    /// Generates shortest traces from the initial states to up to
    /// `limit` states of `set`, targeting the canonical sample
    /// [`CoverageEstimator::sample_states_over`] draws over `vars` (for a
    /// cone-restricted set, any reachable completion of the cone cube).
    pub fn traces_to_states_over(&self, set: &Func, vars: &[VarId], limit: usize) -> Vec<Trace> {
        self.traces_to_named_states(&self.sample_states_over(set, vars, limit))
    }

    /// Generates a shortest trace from the initial states to each of
    /// `states`, given as named state-bit values (a
    /// [`CoverageEstimator::sample_states_over`] listing, possibly drawn
    /// on another machine of the same deck): the target is the cube of
    /// the listed bits, so any reachable completion of a partial state.
    /// An unreachable target yields no trace.
    ///
    /// # Panics
    ///
    /// Panics if a name does not name a state bit of this machine.
    pub fn traces_to_named_states(&self, states: &[Vec<(String, bool)>]) -> Vec<Trace> {
        let mgr = self.fsm.manager();
        let bits: HashMap<&str, VarId> = self
            .fsm
            .state_bits()
            .iter()
            .map(|b| (b.name.as_str(), b.current))
            .collect();
        let mut traces = Vec::new();
        for state in states {
            let mut cube = mgr.constant(true);
            for (name, val) in state {
                let Some(&v) = bits.get(name.as_str()) else {
                    panic!("`{name}` names no state bit of this machine");
                };
                cube = cube.and(&mgr.literal(v, *val));
            }
            if let Some(trace) = self.fsm.trace_to(&cube) {
                traces.push(trace);
            }
        }
        traces
    }

    /// Generates shortest traces from the initial states to up to `limit`
    /// uncovered states (Section 3's aid for strengthening properties):
    /// the targets are [`CoverageEstimator::uncovered_states`]'s sample.
    pub fn traces_to_uncovered(&self, analysis: &CoverageAnalysis, limit: usize) -> Vec<Trace> {
        self.traces_to_states_over(&analysis.uncovered(), &analysis.universe, limit)
    }

    fn bit_name(&self, v: VarId) -> &str {
        self.fsm
            .state_bits()
            .iter()
            .find(|b| b.current == v)
            .map(|b| b.name.as_str())
            .unwrap_or("?")
    }

    fn state_universe(&self, covered: &Func, space: &Func, cone: Option<&[String]>) -> Vec<VarId> {
        // Counting universe: the state bits (or the cone bits). Signals
        // over inputs can leak input variables into covered sets; guard
        // against that in debug.
        let vars = self.universe(cone);
        debug_assert!(
            {
                let set: HashSet<VarId> = vars.iter().copied().collect();
                covered.support().iter().all(|v| set.contains(v))
                    && space.support().iter().all(|v| set.contains(v))
            },
            "covered/space must be state predicates"
        );
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_bdd::BddManager;
    use covest_ctl::parse_formula;
    use covest_fsm::Stg;

    fn f(s: &str) -> Formula {
        parse_formula(s).expect(s)
    }

    fn figure2(mgr: &BddManager) -> (Stg, SymbolicFsm) {
        let mut stg = Stg::new("figure2");
        stg.add_states(6);
        stg.add_path(&[0, 1, 2, 3, 4, 5]);
        stg.add_edge(5, 5);
        stg.mark_initial(0);
        for s in 0..4 {
            stg.label(s, "p1");
        }
        stg.label(4, "q");
        stg.label(5, "q");
        (stg.clone(), stg.compile(mgr).expect("compiles"))
    }

    #[test]
    fn analysis_reports_percent_and_holes() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("A[p1 U q]")], &CoverageOptions::default())
            .expect("analyzes");
        assert!(analysis.all_hold());
        assert_eq!(analysis.space_count, 6.0);
        assert_eq!(analysis.covered_count, 1.0);
        assert!((analysis.percent() - 100.0 / 6.0).abs() < 1e-9);
        let holes = est.uncovered_states(&analysis, 10);
        assert_eq!(holes.len(), 5);
    }

    #[test]
    fn additional_property_closes_holes() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        // Add a property checking q persists: AG(q -> AX q) covers state 5
        // (successor of q states); plus one checking ¬q on the prefix.
        let props = vec![f("A[p1 U q]"), f("AG (q -> AX q)"), f("AG (p1 -> !q)")];
        let analysis = est
            .analyze("q", &props, &CoverageOptions::default())
            .expect("analyzes");
        assert!(analysis.all_hold());
        assert_eq!(analysis.percent(), 100.0);
    }

    #[test]
    fn failing_property_contributes_nothing_by_default() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("AG q")], &CoverageOptions::default())
            .expect("analyzes");
        assert!(!analysis.all_hold());
        assert_eq!(analysis.covered_count, 0.0);
    }

    #[test]
    fn dont_cares_shrink_the_space() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        // Declare the p1-prefix as don't-care for q.
        let analysis = est
            .analyze(
                "q",
                &[f("A[p1 U q]"), f("AG (q -> AX q)")],
                &CoverageOptions {
                    dont_cares: Some(PropExpr::atom("p1")),
                    ..Default::default()
                },
            )
            .expect("analyzes");
        assert_eq!(analysis.space_count, 2.0); // states 4 and 5
        assert_eq!(analysis.percent(), 100.0);
    }

    #[test]
    fn traces_lead_to_uncovered_states() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let analysis = est
            .analyze("q", &[f("A[p1 U q]")], &CoverageOptions::default())
            .expect("analyzes");
        let traces = est.traces_to_uncovered(&analysis, 3);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert!(!t.steps.is_empty());
        }
    }

    /// Regression: `analyze_union` and a run of `cover` steps hold
    /// results from earlier steps across later ones, and the accumulated
    /// sets must survive every collection and sift in between. Under the
    /// RAII API this holds by ownership — the old explicit
    /// protect/unprotect bracketing is gone.
    #[test]
    fn union_is_stable_under_aggressive_auto_reordering() {
        let run = |forced: bool| -> (f64, f64) {
            let mgr = BddManager::new();
            let (_, fsm) = figure2(&mgr);
            let est = CoverageEstimator::new(&fsm);
            let force = || {
                if forced {
                    mgr.reduce_heap();
                    mgr.gc();
                }
            };
            let union = est
                .analyze_union(&["q", "p1"], &[f("A[p1 U q]")], &CoverageOptions::default())
                .expect("analyzes");
            force();
            let options = CoverageOptions::default();
            let checker = est.checker(&options.fairness).expect("checker");
            let mut verification = est.verify(checker, &[f("A[p1 U q]")]).expect("verifies");
            let signals: Vec<CoverageAnalysis> = ["q", "p1"]
                .iter()
                .map(|sig| {
                    est.cover(&mut verification, sig, &options)
                        .expect("analyzes")
                })
                .collect();
            force();
            // The held union still denotes the set it was counted on.
            let recount = union.covered.sat_count_over(&fsm.current_vars());
            assert_eq!(recount.to_bits(), union.covered_count.to_bits());
            (union.covered_count, signals[0].covered_count)
        };

        let (union_plain, first_plain) = run(false);
        let (union_forced, first_forced) = run(true);
        assert_eq!(union_plain.to_bits(), union_forced.to_bits());
        assert_eq!(first_plain.to_bits(), first_forced.to_bits());
    }

    /// The uncovered-state sample must be canonical: sorted by bit
    /// values in declaration order and invariant under reordering
    /// history — the property that makes sequential and parallel runs
    /// print diff-identical reports.
    #[test]
    fn uncovered_states_are_canonical_across_reorder_histories() {
        // `forced` sifts and collects at both GC checkpoints: after
        // verification and after coverage.
        let run = |forced: bool| -> Vec<Vec<(String, bool)>> {
            let mgr = BddManager::new();
            let (_, fsm) = figure2(&mgr);
            let est = CoverageEstimator::new(&fsm);
            let force = || {
                if forced {
                    mgr.reduce_heap();
                    mgr.gc();
                }
            };
            let options = CoverageOptions::default();
            let checker = est.checker(&options.fairness).expect("checker");
            let mut verification = est.verify(checker, &[f("A[p1 U q]")]).expect("verifies");
            force();
            let analysis = est
                .cover(&mut verification, "q", &options)
                .expect("analyzes");
            force();
            est.uncovered_states(&analysis, 10)
        };

        let plain = run(false);
        assert_eq!(plain.len(), 5);
        // Sorted ascending by declaration-order bit values (false < true).
        let keys: Vec<Vec<bool>> = plain
            .iter()
            .map(|s| s.iter().map(|&(_, v)| v).collect())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "sample must come out sorted");
        // Identical under a different reordering history.
        assert_eq!(plain, run(true));
    }

    /// A cone entry that names no state bit, or names one twice, is an
    /// error naming the entry — not a panic after the coverage fixpoints.
    #[test]
    fn bad_cone_entries_are_errors() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let first = fsm.state_bits()[0].name.clone();
        for (cone, bad) in [
            (vec![first.clone(), "nope".to_owned()], "nope"),
            (vec![first.clone(), first.clone()], first.as_str()),
        ] {
            let options = CoverageOptions {
                cone: Some(cone),
                ..Default::default()
            };
            let err = est.analyze("q", &[f("A[p1 U q]")], &options).unwrap_err();
            assert_eq!(err, CoverageError::BadConeEntry(bad.to_owned()));
            assert!(err.to_string().contains(&format!("`{bad}`")), "{err}");
        }
    }

    /// One verification serves every signal: each cover step reports the
    /// pass's time and table size, and the verdicts carry the vacuity the
    /// first cover decided.
    #[test]
    fn one_verification_covers_every_signal() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let est = CoverageEstimator::new(&fsm);
        let props = [f("A[p1 U q]"), f("AG (p1 & q -> AX q)")];
        let checker = est.checker(&[]).expect("no fairness");
        let mut verification = est.verify(checker, &props).expect("verifies");
        assert!(verification.all_hold());
        assert!(verification.verdicts().iter().all(|v| !v.vacuous));
        let options = CoverageOptions::default();
        let q = est.cover(&mut verification, "q", &options).expect("q");
        let p1 = est.cover(&mut verification, "p1", &options).expect("p1");
        assert_eq!((q.covered_count, p1.covered_count), (1.0, 4.0));
        for a in [&q, &p1] {
            assert_eq!(a.verify_nodes, verification.nodes);
            assert_eq!(a.verify_time, verification.time);
        }
        let vacuous: Vec<bool> = verification.verdicts().iter().map(|v| v.vacuous).collect();
        assert_eq!(vacuous, [false, true]);
        // Each cover step matches a fresh analysis of that signal alone.
        for a in [q, p1] {
            let fresh = est.analyze(&a.observed, &props, &options).expect("fresh");
            assert_eq!(a.covered, fresh.covered, "{}", a.observed);
            assert_eq!(a.space, fresh.space, "{}", a.observed);
        }
        assert!(matches!(
            est.cover(&mut verification, "zzz", &options),
            Err(CoverageError::UnknownObserved(_))
        ));
    }
}
