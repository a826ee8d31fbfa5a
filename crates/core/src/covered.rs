//! The symbolic covered-set algorithm — Table 1 of the DAC'99 paper.
//!
//! Coverage for a formula `g` (in the acceptable ACTL subset) and observed
//! signal `q` is computed recursively over the syntactic structure of `g`,
//! threading a set of *start states* `S0` downward:
//!
//! | formula           | covered set `C(S0, g)`                                    |
//! |-------------------|-----------------------------------------------------------|
//! | `b`               | `S0 ∩ depend(b)`                                          |
//! | `b → f`           | `C(S0 ∩ T(b), f)`                                         |
//! | `AX f`            | `C(forward(S0), f)`                                       |
//! | `AG f`            | `C(reachable(S0), f)`                                     |
//! | `A[f1 U f2]`      | `C(traverse(S0,f1,f2), f1) ∪ C(firstreached(S0,f2), f2)` |
//! | `f1 ∧ f2`         | `C(S0, f1) ∪ C(S0, f2)`                                   |
//!
//! with `depend(b) = T(b) ∩ ¬T(b[q := ¬q])`. The computed set equals the
//! covered set (per Definition 3) of the *observability-transformed*
//! formula `φ(g)` for observed signal `q'` — the algorithm never has to
//! build the transformed formula (Correctness Theorem, Section 3).

use covest_bdd::Func;
use covest_ctl::{Ctl, Formula, PropExpr, SignalRef};
use covest_fsm::{SignalValue, SymbolicFsm};
use covest_mc::ModelChecker;

use crate::error::CoverageError;

/// The covered-set computation engine for one machine and one observed
/// signal.
///
/// Wraps a [`ModelChecker`] whose memoized satisfaction sets are shared
/// between verification and coverage estimation, as the paper suggests.
/// All held state sets are owned [`Func`] handles, so the engine stays
/// valid across garbage collection and automatic reordering.
#[derive(Debug)]
pub struct CoveredSets<'m> {
    mc: ModelChecker<'m>,
    observed: String,
    /// Single-change interpretations of the observed signal. For a
    /// boolean signal there is one (its complement); for a numeric signal
    /// there is one per bit (that bit complemented). A state is covered
    /// when *some* single change there falsifies the property — the
    /// paper's multi-signal union semantics applied to the bits.
    flip_variants: Vec<SignalValue>,
}

impl<'m> CoveredSets<'m> {
    /// Creates the engine for `fsm` observing signal `observed`.
    ///
    /// Boolean observed signals follow Definition 2's duality directly;
    /// numeric (multi-bit) observed signals are handled as the union of
    /// their bits, per the paper's multiple-observable-signals remark.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::UnknownObserved`] if the signal is not
    /// defined on the machine.
    pub fn new(fsm: &'m SymbolicFsm, observed: impl Into<String>) -> Result<Self, CoverageError> {
        Self::with_checker(ModelChecker::new(fsm), observed)
    }

    /// Creates the engine reusing an existing checker (keeping its
    /// fairness constraints and memoized results).
    ///
    /// # Errors
    ///
    /// Same as [`CoveredSets::new`].
    pub fn with_checker(
        mc: ModelChecker<'m>,
        observed: impl Into<String>,
    ) -> Result<Self, CoverageError> {
        let mut sets = Self::untargeted(mc);
        sets.retarget(observed)?;
        Ok(sets)
    }

    /// An engine that observes no signal yet: it verifies, and
    /// [`CoveredSets::retarget`] points it at each signal to cover.
    pub(crate) fn untargeted(mc: ModelChecker<'m>) -> Self {
        CoveredSets {
            mc,
            observed: String::new(),
            flip_variants: Vec::new(),
        }
    }

    /// Points the engine at another observed signal, keeping the checker
    /// and its memoized satisfaction sets. The memo is signal-independent:
    /// [`CoveredSets::depend`] lowers its flipped interpretations outside
    /// the checker, so one verification serves every observed signal.
    ///
    /// # Errors
    ///
    /// Same as [`CoveredSets::new`]; the engine then keeps its previous
    /// target.
    pub fn retarget(&mut self, observed: impl Into<String>) -> Result<(), CoverageError> {
        let observed = observed.into();
        self.flip_variants = flip_variants_of(self.mc.fsm(), &observed)?;
        self.observed = observed;
        Ok(())
    }

    /// The observed signal's name.
    pub fn observed(&self) -> &str {
        &self.observed
    }

    /// The underlying model checker.
    pub fn checker_mut(&mut self) -> &mut ModelChecker<'m> {
        &mut self.mc
    }

    /// The machine under analysis.
    pub fn fsm(&self) -> &SymbolicFsm {
        self.mc.fsm()
    }

    /// `depend(b) = T(b) ∩ ¬T(b[q := ¬q])`: start states where the truth
    /// of `b` hinges on the value of the observed signal.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn depend(&mut self, b: &PropExpr) -> Result<Func, CoverageError> {
        let fsm = self.mc.fsm();
        let mgr = fsm.manager();
        let normal = fsm.signals().lower(mgr, b)?;
        let mut acc = mgr.constant(false);
        for variant in &self.flip_variants {
            let overrides = [(SignalRef::new(self.observed.clone()), variant.clone())];
            let flipped = fsm.signals().lower_with(mgr, b, &overrides)?;
            acc = acc.or(&normal.diff(&flipped));
        }
        Ok(acc)
    }

    /// `traverse(S0, f1, f2)`: states on paths from `S0` satisfying `f1`
    /// and not `f2`, up to but not including the first `f2` state.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn traverse(
        &mut self,
        s0: &Func,
        f1: &Formula,
        f2: &Formula,
    ) -> Result<Func, CoverageError> {
        let t1 = self.sat(f1)?;
        let t2 = self.sat(f2)?;
        let keep = t1.diff(&t2);
        let mut acc = s0.manager().constant(false);
        let mut cur = s0.clone();
        loop {
            let layer = cur.and(&keep);
            let fresh = layer.diff(&acc);
            if fresh.is_false() {
                return Ok(acc);
            }
            acc = acc.or(&fresh);
            cur = self.mc.fsm().image(&fresh);
        }
    }

    /// `firstreached(S0, f2)`: the first `f2`-satisfying states
    /// encountered while traversing forward from `S0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn firstreached(&mut self, s0: &Func, f2: &Formula) -> Result<Func, CoverageError> {
        let t2 = self.sat(f2)?;
        let nt2 = t2.not();
        let mgr = s0.manager();
        let mut acc = mgr.constant(false);
        let mut visited = mgr.constant(false);
        let mut cur = s0.clone();
        loop {
            acc = acc.or(&cur.and(&t2));
            let cont = cur.and(&nt2);
            let fresh = cont.diff(&visited);
            if fresh.is_false() {
                return Ok(acc);
            }
            visited = visited.or(&fresh);
            cur = self.mc.fsm().image(&fresh);
        }
    }

    /// The recursive covered-set computation `C(S0, g)` of Table 1.
    ///
    /// `AF` sugar is normalized away first.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn covered(&mut self, s0: &Func, g: &Formula) -> Result<Func, CoverageError> {
        let g = g.normalize();
        self.covered_rec(s0, &g)
    }

    fn covered_rec(&mut self, s0: &Func, g: &Formula) -> Result<Func, CoverageError> {
        match g {
            Formula::Prop(b) => {
                let d = self.depend(b)?;
                Ok(s0.and(&d))
            }
            Formula::Implies(b, f) => {
                let fsm = self.mc.fsm();
                let tb = fsm.signals().lower(fsm.manager(), b)?;
                self.covered_rec(&s0.and(&tb), f)
            }
            Formula::Ax(f) => {
                let s = self.mc.fsm().image(s0);
                self.covered_rec(&s, f)
            }
            Formula::Ag(f) => {
                let s = self.mc.fsm().reachable_from(s0);
                self.covered_rec(&s, f)
            }
            Formula::Au(f1, f2) => {
                let trav = self.traverse(s0, f1, f2)?;
                let c1 = self.covered_rec(&trav, f1)?;
                let first = self.firstreached(s0, f2)?;
                let c2 = self.covered_rec(&first, f2)?;
                Ok(c1.or(&c2))
            }
            Formula::And(f1, f2) => {
                let c1 = self.covered_rec(s0, f1)?;
                let c2 = self.covered_rec(s0, f2)?;
                Ok(c1.or(&c2))
            }
            Formula::Af(_) => unreachable!("normalize() removes AF"),
        }
    }

    /// Covered set of `g` from the machine's initial states: `C(S_I, g)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn covered_from_init(&mut self, g: &Formula) -> Result<Func, CoverageError> {
        let init = self.mc.fsm().init().clone();
        self.covered(&init, g)
    }

    /// Vacuity check: does some implication inside `g` never trigger
    /// along the start-set flow of the covered-set recursion?
    ///
    /// A property like `AG (b -> AX q)` with `b` unsatisfiable on the
    /// reachable states passes *vacuously*: it verifies, covers nothing,
    /// and usually indicates a typo in the antecedent. This is the
    /// antecedent-based vacuity notion that later literature pairs with
    /// the paper's coverage metric.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn vacuous(&mut self, g: &Formula) -> Result<bool, CoverageError> {
        let init = self.mc.fsm().init().clone();
        let g = g.normalize();
        self.vacuous_rec(&init, &g)
    }

    fn vacuous_rec(&mut self, s0: &Func, g: &Formula) -> Result<bool, CoverageError> {
        match g {
            Formula::Prop(_) => Ok(false),
            Formula::Implies(b, f) => {
                let fsm = self.mc.fsm();
                let tb = fsm.signals().lower(fsm.manager(), b)?;
                let trigger = s0.and(&tb);
                if trigger.is_false() {
                    return Ok(true);
                }
                self.vacuous_rec(&trigger, f)
            }
            Formula::Ax(f) => {
                let s = self.mc.fsm().image(s0);
                self.vacuous_rec(&s, f)
            }
            Formula::Ag(f) => {
                let s = self.mc.fsm().reachable_from(s0);
                self.vacuous_rec(&s, f)
            }
            Formula::Au(f1, f2) => {
                let trav = self.traverse(s0, f1, f2)?;
                let left = self.vacuous_rec(&trav, f1)?;
                let first = self.firstreached(s0, f2)?;
                let right = self.vacuous_rec(&first, f2)?;
                Ok(left || right)
            }
            Formula::And(f1, f2) => {
                let left = self.vacuous_rec(s0, f1)?;
                let right = self.vacuous_rec(s0, f2)?;
                Ok(left || right)
            }
            Formula::Af(_) => unreachable!("normalize() removes AF"),
        }
    }

    /// Satisfaction set of an acceptable-subset formula (delegates to the
    /// model checker, sharing its memo table).
    fn sat(&mut self, f: &Formula) -> Result<Func, CoverageError> {
        let ctl: Ctl = f.into();
        Ok(self.mc.sat(&ctl)?)
    }

    /// Verifies `g` from the initial states.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Lower`] for unresolvable atoms.
    pub fn verify(&mut self, g: &Formula) -> Result<bool, CoverageError> {
        let ctl: Ctl = g.into();
        Ok(self.mc.holds(&ctl)?)
    }
}

/// Computes the single-change interpretations of an observed signal:
/// its complement for boolean signals, one bit-complemented copy per bit
/// for numeric signals.
///
/// # Errors
///
/// Returns [`CoverageError::UnknownObserved`] if the signal is not
/// defined on the machine.
pub(crate) fn flip_variants_of(
    fsm: &SymbolicFsm,
    observed: &str,
) -> Result<Vec<SignalValue>, CoverageError> {
    match fsm.signals().get(observed).cloned() {
        Some(SignalValue::Bool(r)) => Ok(vec![SignalValue::Bool(r.not())]),
        Some(SignalValue::Num(sig)) => Ok((0..sig.bits.len())
            .map(|i| {
                let mut flipped = sig.clone();
                flipped.bits[i] = sig.bits[i].not();
                SignalValue::Num(flipped)
            })
            .collect()),
        None => Err(CoverageError::UnknownObserved(observed.to_owned())),
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

    #[test]
    fn broken_figure1_variant_fails_verification() {
        // Same shape as Figure 1 but with q missing on one of the 2-step
        // successors: verification must fail, confirming that coverage is
        // only meaningful after a successful check.
        let mgr = BddManager::new();
        let mut stg = Stg::new("figure1broken");
        stg.add_states(7);
        stg.add_path(&[0, 1, 2]);
        stg.add_path(&[0, 3, 4]); // state 4 lacks q
        stg.add_edge(2, 5);
        stg.add_edge(4, 5);
        stg.add_edge(5, 6);
        stg.add_edge(6, 5);
        stg.mark_initial(0);
        stg.label(0, "p1");
        stg.label(2, "q");
        stg.label(6, "q");
        let fsm = stg.compile(&mgr).expect("compiles");
        let prop = f("AG (p1 -> AX AX q)");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(!cs.verify(&prop).expect("verifies"));
    }

    /// Figure 1 variant where the property holds: both 2-step successors
    /// of the p1-state carry q, a third q state is incidental.
    fn figure1_ok(mgr: &BddManager) -> (Stg, SymbolicFsm) {
        let mut stg = Stg::new("figure1ok");
        stg.add_states(7);
        stg.add_path(&[0, 1, 2]);
        stg.add_path(&[0, 3, 4]);
        stg.add_edge(2, 5);
        stg.add_edge(4, 5);
        stg.add_edge(5, 6);
        stg.add_edge(6, 5);
        stg.mark_initial(0);
        stg.label(0, "p1");
        stg.label(2, "q");
        stg.label(4, "q");
        stg.label(6, "q");
        (stg.clone(), stg.compile(mgr).expect("compiles"))
    }

    #[test]
    fn figure1_covered_states_are_the_ax_ax_targets() {
        let mgr = BddManager::new();
        let (stg, fsm) = figure1_ok(&mgr);
        let prop = f("AG (p1 -> AX AX q)");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        let s2 = stg.state_fn(&fsm, 2);
        let s4 = stg.state_fn(&fsm, 4);
        assert_eq!(covered, s2.or(&s4), "exactly the demanded q-states");
        // State 6's q is incidental: not covered.
        let s6 = stg.state_fn(&fsm, 6);
        assert!(covered.and(&s6).is_false());
    }

    /// Figure 2: chain of p1 states ending in the first q state.
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
    fn figure2_until_covers_first_q_and_p1_prefix() {
        let mgr = BddManager::new();
        let (stg, fsm) = figure2(&mgr);
        let prop = f("A[p1 U q]");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        // firstreached marks state 4 (the first q state); the traverse
        // part contributes coverage of p1 w.r.t. observed q — but p1 does
        // not mention q, so its depend() is empty. Covered = {4}.
        let s4 = stg.state_fn(&fsm, 4);
        assert_eq!(covered, s4);
    }

    #[test]
    fn figure2_observing_p1_covers_the_prefix() {
        let mgr = BddManager::new();
        let (stg, fsm) = figure2(&mgr);
        let prop = f("A[p1 U q]");
        let mut cs = CoveredSets::new(&fsm, "p1").expect("p1 exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        // Observing p1: the traverse part covers the p1-prefix 0..=3.
        let mut expect = mgr.constant(false);
        for sid in 0..4 {
            expect = expect.or(&stg.state_fn(&fsm, sid));
        }
        assert_eq!(covered, expect);
    }

    #[test]
    fn implication_restricts_start_states() {
        let mgr = BddManager::new();
        // Two initial states: one with p, one without; q everywhere next.
        let mut stg = Stg::new("imp");
        stg.add_states(4);
        stg.add_edge(0, 2);
        stg.add_edge(1, 3);
        stg.add_edge(2, 2);
        stg.add_edge(3, 3);
        stg.mark_initial(0);
        stg.mark_initial(1);
        stg.label(0, "p");
        stg.label(2, "q");
        stg.label(3, "q");
        let fsm = stg.compile(&mgr).expect("compiles");
        let prop = f("p -> AX q");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        // Only successor of the p-initial-state is covered: state 2.
        let s2 = stg.state_fn(&fsm, 2);
        assert_eq!(covered, s2);
    }

    #[test]
    fn conjunction_unions_coverage() {
        let mgr = BddManager::new();
        let (stg, fsm) = figure2(&mgr);
        let prop = f("A[p1 U q] & AG (q -> AX q)");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        // First conjunct covers state 4; second covers successors of
        // q-states reachable: states 5 (from 4) and 5 (self-loop).
        let s4 = stg.state_fn(&fsm, 4);
        let s5 = stg.state_fn(&fsm, 5);
        assert_eq!(covered, s4.or(&s5));
    }

    #[test]
    fn depend_ignores_insensitive_states() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        // b = q | p1 : in states where p1 holds, q's value is irrelevant.
        let b = PropExpr::atom("q").or(PropExpr::atom("p1"));
        let d = cs.depend(&b).expect("lowers");
        // Depend = states where b true AND flipping q falsifies it
        // = (q ∨ p1) ∧ ¬(¬q ∨ p1) = q ∧ ¬p1.
        let fsm_sigs = fsm.signals();
        let q = match fsm_sigs.get("q") {
            Some(SignalValue::Bool(r)) => r.clone(),
            _ => unreachable!(),
        };
        let p1 = match fsm_sigs.get("p1") {
            Some(SignalValue::Bool(r)) => r.clone(),
            _ => unreachable!(),
        };
        assert_eq!(d, q.and(&p1.not()));
    }

    #[test]
    fn observed_signal_validation() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        assert!(matches!(
            CoveredSets::new(&fsm, "zzz").unwrap_err(),
            CoverageError::UnknownObserved(_)
        ));
    }

    #[test]
    fn vacuity_detection() {
        let mgr = BddManager::new();
        let (_, fsm) = figure2(&mgr);
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        // p1 & q is unreachable before state 4... actually state 4 has
        // q but not p1 in this fixture, so `p1 & q` never holds.
        let vac = f("AG (p1 & q -> AX q)");
        assert!(cs.verify(&vac).expect("verifies"));
        assert!(cs.vacuous(&vac).expect("checks"), "never triggers");
        let cov = cs.covered_from_init(&vac).expect("covers");
        assert!(cov.is_false(), "vacuous properties cover nothing");
        // A triggering implication is not vacuous.
        let real = f("AG (p1 -> !q)");
        assert!(!cs.vacuous(&real).expect("checks"));
        // Propositional formulas are never flagged.
        assert!(!cs.vacuous(&f("!q")).expect("checks"));
        // Nested: outer triggers, inner does not.
        let nested = f("AG (p1 -> AX (q -> AX q))");
        let nested_vac = cs.vacuous(&nested).expect("checks");
        // Successors of p1-states include state 4 (q holds) → triggers.
        assert!(!nested_vac);
    }

    #[test]
    fn af_normalizes_into_until_coverage() {
        let mgr = BddManager::new();
        let (stg, fsm) = figure2(&mgr);
        let prop = f("AF q");
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        assert!(cs.verify(&prop).expect("verifies"));
        let covered = cs.covered_from_init(&prop).expect("covered");
        let s4 = stg.state_fn(&fsm, 4);
        assert_eq!(covered, s4, "AF q behaves like A[TRUE U q]");
    }
}
