//! The symbolic CTL model-checking engine.

use std::collections::HashMap;

use covest_bdd::Func;
use covest_ctl::{Ctl, PropExpr, SignalRef};
use covest_fsm::{LowerError, SignalValue, SymbolicFsm};

use crate::verdict::Verdict;

/// A symbolic CTL model checker for one machine.
///
/// The checker borrows the machine and owns a memo table of satisfying
/// state sets keyed by sub-formula; re-checking related properties (and
/// running coverage estimation afterwards) reuses the cached fixpoints.
///
/// Every cached state set is an owned [`Func`], so the checker's memo
/// table (like the machine itself) survives garbage collection and
/// dynamic reordering without any root bookkeeping.
#[derive(Debug)]
pub struct ModelChecker<'m> {
    fsm: &'m SymbolicFsm,
    fairness: Vec<Func>,
    overrides: Vec<(SignalRef, SignalValue)>,
    cache: HashMap<Ctl, Func>,
    fair_states: Option<Func>,
}

/// Reports one CTL fixpoint iteration to the progress/watchdog channel
/// (see [`covest_telemetry::progress`]): the iterate's node count and
/// support width are what the heartbeat prints and the stall detector
/// watches. Both reads cost a traversal, so unmonitored runs pay only
/// one thread-local check per iteration.
fn fixpoint_tick(phase: &str, iteration: u64, iterate: &Func) {
    if covest_telemetry::progress::progress_active() {
        covest_telemetry::progress::fixpoint_progress(
            phase,
            iteration,
            iterate.node_count() as u64,
            iterate.support().len() as u64,
        );
    }
}

impl<'m> ModelChecker<'m> {
    /// Creates a checker with no fairness constraints.
    pub fn new(fsm: &'m SymbolicFsm) -> Self {
        ModelChecker {
            fsm,
            fairness: Vec::new(),
            overrides: Vec::new(),
            cache: HashMap::new(),
            fair_states: None,
        }
    }

    /// Does nothing: the checker simplifies no iterate against a care
    /// set. Kept only for the `perfbench` harness, which calls it;
    /// nothing under `crates/` does.
    pub fn set_care(&mut self, _care: Func) {}

    /// The machine under check.
    pub fn fsm(&self) -> &SymbolicFsm {
        self.fsm
    }

    /// Adds a fairness constraint: paths must satisfy `constraint`
    /// infinitely often (Section 4.3 of the paper). Invalidate-on-add:
    /// cached results are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] if the constraint mentions unknown signals.
    pub fn add_fairness(&mut self, constraint: &PropExpr) -> Result<(), LowerError> {
        let f = self.fsm.signals().lower(self.fsm.manager(), constraint)?;
        self.fairness.push(f);
        self.cache.clear();
        self.fair_states = None;
        Ok(())
    }

    /// Adds a raw (already lowered) fairness constraint.
    pub fn add_fairness_set(&mut self, states: Func) {
        self.fairness.push(states);
        self.cache.clear();
        self.fair_states = None;
    }

    /// Installs signal-interpretation overrides (used by the reference
    /// coverage implementation to evaluate primed/dual signals). Cached
    /// results are dropped.
    pub fn set_overrides(&mut self, overrides: Vec<(SignalRef, SignalValue)>) {
        self.overrides = overrides;
        self.cache.clear();
        self.fair_states = None;
    }

    /// The fairness constraints currently installed.
    pub fn fairness(&self) -> &[Func] {
        &self.fairness
    }

    /// States from which some fair path starts (`EG_fair TRUE`). With no
    /// constraints this is the whole state space.
    pub fn fair_states(&mut self) -> Func {
        if let Some(f) = &self.fair_states {
            return f.clone();
        }
        let f = if self.fairness.is_empty() {
            self.fsm.manager().constant(true)
        } else {
            let t = self.fsm.manager().constant(true);
            self.eg_fair(&t)
        };
        self.fair_states = Some(f.clone());
        f
    }

    /// The set of states satisfying `f` (over current-state variables).
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] if a propositional atom cannot be resolved
    /// against the machine's signals.
    pub fn sat(&mut self, f: &Ctl) -> Result<Func, LowerError> {
        if let Some(r) = self.cache.get(f) {
            return Ok(r.clone());
        }
        let result = match f {
            Ctl::Prop(p) => {
                self.fsm
                    .signals()
                    .lower_with(self.fsm.manager(), p, &self.overrides)?
            }
            Ctl::Not(a) => self.sat(a)?.not(),
            Ctl::And(a, b) => self.sat(a)?.and(&self.sat(b)?),
            Ctl::Or(a, b) => self.sat(a)?.or(&self.sat(b)?),
            Ctl::Implies(a, b) => self.sat(a)?.implies(&self.sat(b)?),
            Ctl::Ex(a) => {
                let sa = self.sat(a)?;
                self.ex_fair(&sa)
            }
            Ctl::Ax(a) => {
                // AX p = ¬EX ¬p (over fair paths).
                let nsa = self.sat(a)?.not();
                self.ex_fair(&nsa).not()
            }
            Ctl::Ef(a) => {
                let sa = self.sat(a)?;
                let t = self.fsm.manager().constant(true);
                self.eu_fair(&t, &sa)
            }
            Ctl::Ag(a) => {
                // AG p = ¬EF ¬p.
                let nsa = self.sat(a)?.not();
                let t = self.fsm.manager().constant(true);
                self.eu_fair(&t, &nsa).not()
            }
            Ctl::Eg(a) => {
                let sa = self.sat(a)?;
                self.eg_fair(&sa)
            }
            Ctl::Af(a) => {
                // AF p = ¬EG ¬p.
                let nsa = self.sat(a)?.not();
                self.eg_fair(&nsa).not()
            }
            Ctl::Eu(a, b) => {
                let sa = self.sat(a)?;
                let sb = self.sat(b)?;
                self.eu_fair(&sa, &sb)
            }
            Ctl::Au(a, b) => {
                // A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q).
                let sa = self.sat(a)?;
                let sb = self.sat(b)?;
                let nq = sb.not();
                let npq = sa.not().and(&nq);
                let escape = self.eu_fair(&nq, &npq);
                let stuck = self.eg_fair(&nq);
                escape.or(&stuck).not()
            }
        };
        self.cache.insert(f.clone(), result.clone());
        Ok(result)
    }

    /// `EX p` over fair paths: `EX (p ∧ fair)`.
    fn ex_fair(&mut self, p: &Func) -> Func {
        let fair = self.fair_states();
        self.fsm.preimage(&p.and(&fair))
    }

    /// `E[p U q]` over fair paths: `E[p U (q ∧ fair)]`.
    fn eu_fair(&mut self, p: &Func, q: &Func) -> Func {
        let fair = self.fair_states();
        self.eu_raw(p, &q.and(&fair))
    }

    /// Plain least-fixpoint `E[p U q]`.
    fn eu_raw(&self, p: &Func, q: &Func) -> Func {
        let mut z = q.clone();
        let mut iters = 0u64;
        loop {
            let pre = self.fsm.preimage(&z);
            let next = z.or(&p.and(&pre));
            iters += 1;
            fixpoint_tick("eu", iters, &next);
            if next == z {
                covest_telemetry::count("eu_iterations", iters);
                return z;
            }
            z = next;
        }
    }

    /// `EG p` under the installed fairness constraints (Emerson–Lei).
    fn eg_fair(&mut self, p: &Func) -> Func {
        if self.fairness.is_empty() {
            return self.eg_raw(p);
        }
        // νZ. p ∧ ⋀_c EX E[p U (Z ∧ c)]
        let constraints = self.fairness.clone();
        let mut z = self.fsm.manager().constant(true);
        let mut fair_iters = 0u64;
        loop {
            let mut next = p.clone();
            for c in &constraints {
                let zc = z.and(c);
                let reach = self.eu_raw(p, &zc);
                let pre = self.fsm.preimage(&reach);
                next = next.and(&pre);
            }
            covest_telemetry::count("eg_fair_iterations", 1);
            fair_iters += 1;
            fixpoint_tick("eg_fair", fair_iters, &next);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// Plain greatest-fixpoint `EG p`.
    fn eg_raw(&self, p: &Func) -> Func {
        let mut z = p.clone();
        let mut iters = 0u64;
        loop {
            let pre = self.fsm.preimage(&z);
            let next = z.and(&pre);
            iters += 1;
            fixpoint_tick("eg", iters, &next);
            if next == z {
                covest_telemetry::count("eg_iterations", iters);
                return z;
            }
            z = next;
        }
    }

    /// `true` iff every fair initial state satisfies `f`
    /// (`M, S_I ⊨ f`). Initial states with no fair path are vacuous.
    ///
    /// # Errors
    ///
    /// See [`ModelChecker::sat`].
    pub fn holds(&mut self, f: &Ctl) -> Result<bool, LowerError> {
        let sat = self.sat(f)?;
        let fair = self.fair_states();
        let init_fair = self.fsm.init().and(&fair);
        Ok(init_fair.leq(&sat))
    }

    /// Full check with verdict and counterexample construction.
    ///
    /// For a failing top-level `AG f` (possibly under conjunctions) the
    /// counterexample is a shortest trace from the initial states to a
    /// reachable state violating `f`; otherwise only the bad initial
    /// state is reported.
    ///
    /// # Errors
    ///
    /// See [`ModelChecker::sat`].
    pub fn check(&mut self, f: &Ctl) -> Result<Verdict, LowerError> {
        let sat = self.sat(f)?;
        let fair = self.fair_states();
        let init_fair = self.fsm.init().and(&fair);
        let bad = init_fair.diff(&sat);
        if bad.is_false() {
            return Ok(Verdict::Holds);
        }
        let cur = self.fsm.current_vars();
        let pick = bad.pick_minterm(&cur).expect("bad is nonempty");
        let bad_initial: Vec<(String, bool)> = self
            .fsm
            .state_bits()
            .iter()
            .zip(pick.iter())
            .map(|(b, &(_, v))| (b.name.clone(), v))
            .collect();
        let counterexample = self.counterexample(f)?;
        Ok(Verdict::Fails {
            bad_initial,
            counterexample,
        })
    }

    /// Attempts to build a trace witnessing the failure of `f`.
    fn counterexample(&mut self, f: &Ctl) -> Result<Option<Trace0>, LowerError> {
        match f {
            Ctl::Ag(inner) => {
                // Shortest path from the initial states to a reachable
                // violation of the body.
                let viol = self.sat(inner)?.not();
                let fair = self.fair_states();
                let viol_fair = viol.and(&fair);
                Ok(self.fsm.trace_to(&viol_fair))
            }
            Ctl::And(a, b) => {
                if !self.holds(a)? {
                    self.counterexample(a)
                } else {
                    self.counterexample(b)
                }
            }
            Ctl::Implies(a, b) => {
                // Failing initial state satisfies `a` but not `b`; if `b`
                // is itself traceable, recurse from the restricted start.
                let sa = self.sat(a)?;
                let init_a = self.fsm.init().and(&sa);
                self.counterexample_from(&init_a, b)
            }
            Ctl::Ax(inner) => {
                // One step to a successor violating the body.
                let viol = self.sat(inner)?.not();
                let fair = self.fair_states();
                let img = self.fsm.image(self.fsm.init());
                let target = img.and(&viol.and(&fair));
                Ok(self.fsm.trace_to(&target))
            }
            _ => Ok(None),
        }
    }

    /// Like [`ModelChecker::counterexample`] but starting from `from`
    /// instead of the initial states (used to thread implication
    /// antecedent restrictions).
    fn counterexample_from(&mut self, from: &Func, f: &Ctl) -> Result<Option<Trace0>, LowerError> {
        match f {
            Ctl::Ag(inner) => {
                let viol = self.sat(inner)?.not();
                let reach = self.fsm.reachable_from(from);
                Ok(self.fsm.trace_from_to(from, &reach.and(&viol)))
            }
            Ctl::Ax(inner) => {
                let viol = self.sat(inner)?.not();
                let img = self.fsm.image(from);
                Ok(self.fsm.trace_from_to(from, &img.and(&viol)))
            }
            _ => {
                // Fall back: the failing start state itself.
                let sf = self.sat(f)?;
                let bad = from.diff(&sf);
                if bad.is_false() {
                    return Ok(None);
                }
                Ok(self.fsm.trace_from_to(&bad, &bad))
            }
        }
    }

    /// Clears every cached state set: the per-formula memo table **and**
    /// the cached fair-states set (e.g. after unrelated work on the
    /// shared manager, to bound memory).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.fair_states = None;
    }
}

type Trace0 = covest_fsm::Trace;

#[cfg(test)]
mod tests {
    use super::*;
    use covest_bdd::BddManager;
    use covest_ctl::parse_formula;
    use covest_fsm::Stg;

    fn parse(s: &str) -> Ctl {
        parse_formula(s).expect(s).into()
    }

    /// 0 → 1 → 2 → 0 ring; q on state 2, p on states 0 and 1.
    fn ring3(mgr: &BddManager) -> (Stg, SymbolicFsm) {
        let mut stg = Stg::new("ring3");
        stg.add_states(3);
        stg.add_edge(0, 1);
        stg.add_edge(1, 2);
        stg.add_edge(2, 0);
        stg.mark_initial(0);
        stg.label(2, "q");
        stg.label(0, "p");
        stg.label(1, "p");
        let fsm = stg.compile(mgr).expect("compiles");
        (stg, fsm)
    }

    #[test]
    fn propositional_and_ax() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        assert!(mc.holds(&parse("p")).unwrap());
        assert!(!mc.holds(&parse("q")).unwrap());
        assert!(mc.holds(&parse("AX p")).unwrap());
        assert!(mc.holds(&parse("AX AX q")).unwrap());
        assert!(!mc.holds(&parse("AX q")).unwrap());
    }

    #[test]
    fn ag_au_af() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        assert!(mc.holds(&parse("AG (q -> AX p)")).unwrap());
        assert!(mc.holds(&parse("A[p U q]")).unwrap());
        assert!(mc.holds(&parse("AF q")).unwrap());
        assert!(!mc.holds(&parse("AG p")).unwrap());
    }

    #[test]
    fn au_requires_eventual_goal() {
        let mgr = BddManager::new();
        // 0 → 0 self-loop with p: A[p U q] must fail (q never comes).
        // State 1 (unreachable) defines the q signal.
        let mut stg = Stg::new("loop");
        stg.add_states(2);
        stg.add_edge(0, 0);
        stg.mark_initial(0);
        stg.label(0, "p");
        stg.label(1, "q");
        let fsm = stg.compile(&mgr).expect("compiles");
        let mut mc = ModelChecker::new(&fsm);
        assert!(!mc.holds(&parse("A[p U q]")).unwrap());
        assert!(mc.holds(&parse("AG p")).unwrap());
    }

    #[test]
    fn general_ctl_negation_and_e_ops() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        // EF q holds; EG p fails on the ring (q-state always reached).
        let efq = Ctl::Ef(Box::new(Ctl::prop(PropExpr::atom("q"))));
        assert!(mc.holds(&efq).unwrap());
        let egp = Ctl::Eg(Box::new(Ctl::prop(PropExpr::atom("p"))));
        assert!(!mc.holds(&egp).unwrap());
        // ¬EG p is AF ¬p.
        let not_egp = Ctl::Not(Box::new(egp));
        assert!(mc.holds(&not_egp).unwrap());
    }

    #[test]
    fn fairness_restricts_paths() {
        let mgr = BddManager::new();
        // Two branches from 0: loop at 1 (no q), loop at 2 (q).
        let mut stg = Stg::new("branch");
        stg.add_states(3);
        stg.add_edge(0, 1);
        stg.add_edge(0, 2);
        stg.add_edge(1, 1);
        stg.add_edge(2, 2);
        stg.mark_initial(0);
        stg.label(2, "q");
        stg.label(2, "fair_here");
        let fsm = stg.compile(&mgr).expect("compiles");
        // Without fairness, AF q fails (path through 1 never sees q).
        let mut mc = ModelChecker::new(&fsm);
        assert!(!mc.holds(&parse("AF q")).unwrap());
        // With fairness "infinitely often fair_here", only the 2-branch
        // is a fair path, so AF q holds.
        let mut mc2 = ModelChecker::new(&fsm);
        mc2.add_fairness(&PropExpr::atom("fair_here")).unwrap();
        assert!(mc2.holds(&parse("AF q")).unwrap());
        // fair states exclude the 1-loop.
        let fair = mc2.fair_states();
        assert_eq!(fair.sat_count_over(&fsm.current_vars()), 2.0); // states 0 and 2
    }

    #[test]
    fn verdict_includes_counterexample_for_ag() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        let v = mc.check(&parse("AG p")).unwrap();
        match v {
            Verdict::Fails {
                counterexample: Some(t),
                ..
            } => {
                // Shortest path to the q-state (distance 2).
                assert_eq!(t.len(), 2);
            }
            other => panic!("expected failure with trace, got {other:?}"),
        }
        let v2 = mc.check(&parse("AG (p | q)")).unwrap();
        assert!(v2.holds());
    }

    #[test]
    fn memoization_reuses_results() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        let f = parse("AG (p -> AX AX q)");
        let s1 = mc.sat(&f).unwrap();
        let nodes_before = mgr.live_nodes();
        let s2 = mc.sat(&f).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(mgr.live_nodes(), nodes_before);
    }

    #[test]
    fn counterexample_for_implication_and_ax() {
        let mgr = BddManager::new();
        let (_, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        // AX q fails: the one-step counterexample lands on a ¬q state.
        let v = mc.check(&parse("AX q")).unwrap();
        match v {
            Verdict::Fails {
                counterexample: Some(t),
                ..
            } => assert_eq!(t.len(), 1),
            other => panic!("expected traced failure, got {other:?}"),
        }
        // p -> AG q fails; the trace starts at a p-state.
        let v = mc.check(&parse("p -> AG q")).unwrap();
        match v {
            Verdict::Fails {
                counterexample: Some(t),
                ..
            } => assert!(!t.steps.is_empty()),
            other => panic!("expected traced failure, got {other:?}"),
        }
    }

    /// Regression: `clear_cache` used to leave the cached `fair_states`
    /// set alive. The cached set owns a root slot, so dropping it is
    /// directly observable through the manager's root count.
    #[test]
    fn clear_cache_drops_fair_states() {
        let mgr = BddManager::new();
        let mut stg = Stg::new("branch");
        stg.add_states(3);
        stg.add_edge(0, 1);
        stg.add_edge(0, 2);
        stg.add_edge(1, 1);
        stg.add_edge(2, 2);
        stg.mark_initial(0);
        stg.label(2, "q");
        let fsm = stg.compile(&mgr).expect("compiles");
        let mut mc = ModelChecker::new(&fsm);
        mc.add_fairness(&PropExpr::atom("q")).unwrap();
        // The fixpoint's first preimage conjoins and caches the
        // transition relation, whose root stays: take the baseline once
        // it exists.
        fsm.trans();
        let baseline = mgr.live_roots();
        let fair = mc.fair_states();
        assert!(
            !fair.is_const(),
            "fixture needs a nontrivial fair set for the root count to move"
        );
        drop(fair);
        assert_eq!(mgr.live_roots(), baseline + 1, "the cached set remains");
        mc.clear_cache();
        assert_eq!(mgr.live_roots(), baseline, "clear_cache must drop it");
    }

    #[test]
    fn overrides_flip_interpretation() {
        let mgr = BddManager::new();
        let (stg, fsm) = ring3(&mgr);
        let mut mc = ModelChecker::new(&fsm);
        // Override q to be true in state 0 instead of state 2.
        let s0 = stg.state_fn(&fsm, 0);
        mc.set_overrides(vec![(SignalRef::new("q"), SignalValue::Bool(s0))]);
        assert!(mc.holds(&parse("q")).unwrap());
    }
}
