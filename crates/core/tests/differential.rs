//! Differential validation of the Correctness Theorem (Section 3):
//! the symbolic covered-set algorithm of Table 1 must compute exactly the
//! Definition-3 covered set of the observability-transformed formula.
//!
//! We generate hundreds of random explicit-state machines and random
//! properties from the acceptable ACTL subset; whenever a property holds,
//! both implementations must agree on the covered set, state for state.

use covest_bdd::{BddManager, Func};
use covest_core::{
    reference_covered_set, CoverageError, CoveredSets, ReferenceMode, DEFAULT_STATE_LIMIT,
};
use covest_ctl::{parse_formula, Formula, PropExpr};
use covest_fsm::{Stg, SymbolicFsm};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Builds a random strongly-connected-ish STG with labels p, q, r.
fn random_stg(rng: &mut StdRng) -> Stg {
    let n = rng.gen_range(3..=7);
    let mut stg = Stg::new("random");
    stg.add_states(n);
    // A random spanning path keeps most states reachable.
    for i in 0..n - 1 {
        stg.add_edge(i, i + 1);
    }
    // Extra random edges.
    let extra = rng.gen_range(1..=n);
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        stg.add_edge(a, b);
    }
    // Close the end so paths do not dead-end into self-loops too often.
    let back = rng.gen_range(0..n);
    stg.add_edge(n - 1, back);
    stg.mark_initial(0);
    for s in 0..n {
        if rng.gen_bool(0.5) {
            stg.label(s, "p");
        }
        if rng.gen_bool(0.5) {
            stg.label(s, "q");
        }
        if rng.gen_bool(0.3) {
            stg.label(s, "r");
        }
    }
    // Ensure every label exists somewhere so lowering never fails.
    stg.label(rng.gen_range(0..n), "p");
    stg.label(rng.gen_range(0..n), "q");
    stg.label(rng.gen_range(0..n), "r");
    stg
}

/// Formula templates over atoms drawn from {p, q, r, !p, !q, p|q, p&q}.
fn random_formula(rng: &mut StdRng) -> Formula {
    let atoms = ["p", "q", "r", "!p", "!q", "(p | q)", "(p & q)", "TRUE"];
    let mut a = || atoms[rng.gen_range(0..atoms.len())];
    let templates: Vec<String> = vec![
        format!("{}", a()),
        format!("{} -> {}", a(), a()),
        format!("AX {}", a()),
        format!("AX AX {}", a()),
        format!("AG {}", a()),
        format!("AG ({} -> AX {})", a(), a()),
        format!("AG ({} -> AX AX {})", a(), a()),
        format!("A[{} U {}]", a(), a()),
        format!("AF {}", a()),
        format!("AG ({} -> A[{} U {}])", a(), a(), a()),
        format!("A[{} U A[{} U {}]]", a(), a(), a()),
        format!("(AG {} & AX {})", a(), a()),
        format!("{} -> AG ({} -> AX {})", a(), a(), a()),
        format!("AG AX {}", a()),
        format!("A[{} U {}] & AF {}", a(), a(), a()),
    ];
    let pick = rng.gen_range(0..templates.len());
    parse_formula(&templates[pick]).expect("templates are in the subset")
}

fn symbolic_covered(
    fsm: &SymbolicFsm,
    observed: &str,
    f: &Formula,
) -> Result<Option<Func>, CoverageError> {
    let mut cs = CoveredSets::new(fsm, observed)?;
    if !cs.verify(f)? {
        return Ok(None);
    }
    Ok(Some(cs.covered_from_init(f)?))
}

#[test]
fn symbolic_algorithm_matches_definition3_of_transformed_formula() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut verified_cases = 0usize;
    let mut attempts = 0usize;
    while verified_cases < 120 && attempts < 3000 {
        attempts += 1;
        let bdd = BddManager::new();
        let stg = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let formula = random_formula(&mut rng);
        let observed = if rng.gen_bool(0.7) { "q" } else { "p" };

        let symbolic = match symbolic_covered(&fsm, observed, &formula) {
            Ok(Some(c)) => c,
            Ok(None) => continue, // property fails: coverage undefined
            Err(e) => panic!("symbolic failed: {e}"),
        };
        let reference = reference_covered_set(
            &fsm,
            observed,
            &formula,
            ReferenceMode::Transformed,
            &[],
            DEFAULT_STATE_LIMIT,
        )
        .expect("reference runs");

        assert_eq!(
            symbolic,
            reference,
            "covered sets diverge\n  formula: {formula}\n  observed: {observed}\n  \
             model: {} states, case {attempts}",
            stg.num_states()
        );
        verified_cases += 1;
    }
    assert!(
        verified_cases >= 120,
        "only {verified_cases} verified cases in {attempts} attempts"
    );
}

#[test]
fn raw_definition3_is_a_subset_of_reachable() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 40 && attempts < 1200 {
        attempts += 1;
        let bdd = BddManager::new();
        let stg = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let formula = random_formula(&mut rng);
        let raw = match reference_covered_set(
            &fsm,
            "q",
            &formula,
            ReferenceMode::Raw,
            &[],
            DEFAULT_STATE_LIMIT,
        ) {
            Ok(c) => c,
            Err(CoverageError::PropertyFails(_)) => continue,
            Err(e) => panic!("reference failed: {e}"),
        };
        let reach = fsm.reachable();
        assert!(raw.leq(&reach), "raw covered ⊆ reachable");
        checked += 1;
    }
    assert!(checked >= 40, "only {checked} cases in {attempts} attempts");
}

#[test]
fn covered_set_is_within_reachable_states() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 60 && attempts < 1500 {
        attempts += 1;
        let bdd = BddManager::new();
        let stg = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let formula = random_formula(&mut rng);
        let covered = match symbolic_covered(&fsm, "q", &formula) {
            Ok(Some(c)) => c,
            Ok(None) => continue,
            Err(e) => panic!("symbolic failed: {e}"),
        };
        let reach = fsm.reachable();
        assert!(covered.leq(&reach), "covered ⊆ reachable\n{formula}");
        checked += 1;
    }
    assert!(checked >= 60, "only {checked} cases in {attempts} attempts");
}

#[test]
fn properties_not_mentioning_observed_signal_cover_nothing() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 30 && attempts < 1000 {
        attempts += 1;
        let bdd = BddManager::new();
        let stg = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let formula = random_formula(&mut rng);
        if formula.mentions("r") {
            continue;
        }
        // Observe r: the property never constrains it.
        let covered = match symbolic_covered(&fsm, "r", &formula) {
            Ok(Some(c)) => c,
            Ok(None) => continue,
            Err(e) => panic!("symbolic failed: {e}"),
        };
        assert!(
            covered.is_false(),
            "property {formula} does not mention r but covered it"
        );
        checked += 1;
    }
    assert!(checked >= 30, "only {checked} cases in {attempts} attempts");
}

/// Explicit state sets over an [`Stg`]: `set[s]` holds when state `s` is
/// in the set.
type States = Vec<bool>;

/// Table 1's start-set flow followed on the explicit graph, sharing no
/// code with the symbolic engine: the vacuity oracle.
struct Explicit<'a> {
    stg: &'a Stg,
}

impl Explicit<'_> {
    fn set(&self, member: impl Fn(usize) -> bool) -> States {
        (0..self.stg.num_states()).map(member).collect()
    }

    fn holds(&self, s: usize, b: &PropExpr) -> bool {
        match b {
            PropExpr::Const(v) => *v,
            PropExpr::Atom(sig) => self.stg.labelled_states(&sig.name).contains(&s),
            PropExpr::Not(a) => !self.holds(s, a),
            PropExpr::And(a, c) => self.holds(s, a) && self.holds(s, c),
            PropExpr::Or(a, c) => self.holds(s, a) || self.holds(s, c),
            PropExpr::Implies(a, c) => !self.holds(s, a) || self.holds(s, c),
            PropExpr::Iff(a, c) => self.holds(s, a) == self.holds(s, c),
            PropExpr::Cmp { .. } => unreachable!("graph signals are boolean"),
        }
    }

    /// States whose every successor lies in `set`.
    fn ax(&self, set: &States) -> States {
        self.set(|s| self.stg.successors(s).into_iter().all(|t| set[t]))
    }

    /// `A[f1 U f2]` by its least fixpoint.
    fn au(&self, t1: &States, t2: &States) -> States {
        let mut z = t2.clone();
        loop {
            let ax = self.ax(&z);
            let next = self.set(|s| t2[s] || (t1[s] && ax[s]));
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// The satisfaction set of an acceptable-subset formula.
    fn sat(&self, f: &Formula) -> States {
        match f {
            Formula::Prop(b) => self.set(|s| self.holds(s, b)),
            Formula::Implies(b, g) => {
                let t = self.sat(g);
                self.set(|s| !self.holds(s, b) || t[s])
            }
            Formula::Ax(g) => self.ax(&self.sat(g)),
            Formula::Ag(g) => {
                let t = self.sat(g);
                let mut z = t.clone();
                loop {
                    let ax = self.ax(&z);
                    let next = self.set(|s| t[s] && ax[s]);
                    if next == z {
                        return z;
                    }
                    z = next;
                }
            }
            Formula::Af(g) => self.au(&self.set(|_| true), &self.sat(g)),
            Formula::Au(g, h) => self.au(&self.sat(g), &self.sat(h)),
            Formula::And(g, h) => {
                let (a, c) = (self.sat(g), self.sat(h));
                self.set(|s| a[s] && c[s])
            }
        }
    }

    /// States met on paths from `s0` while staying inside `keep`.
    fn within(&self, s0: &States, keep: &States) -> States {
        let mut seen = self.set(|_| false);
        let mut work: Vec<usize> = (0..s0.len()).filter(|&s| s0[s]).collect();
        while let Some(s) = work.pop() {
            if keep[s] && !std::mem::replace(&mut seen[s], true) {
                work.extend(self.stg.successors(s));
            }
        }
        seen
    }

    /// The successors of `set`.
    fn post(&self, set: &States) -> States {
        let mut next = self.set(|_| false);
        for s in (0..set.len()).filter(|&s| set[s]) {
            for t in self.stg.successors(s) {
                next[t] = true;
            }
        }
        next
    }

    /// The `t2` states met first on paths from `s0`.
    fn first(&self, s0: &States, t2: &States) -> States {
        let after = self.post(&self.within(s0, &self.set(|s| !t2[s])));
        self.set(|s| (s0[s] || after[s]) && t2[s])
    }

    /// Does some implication's trigger `S0 ∩ T(b)` come out empty along
    /// Table 1's start sets from `s0`?
    fn vacuous(&self, s0: &States, g: &Formula) -> bool {
        match g {
            Formula::Prop(_) => false,
            Formula::Implies(b, f) => {
                let trigger = self.set(|s| s0[s] && self.holds(s, b));
                !trigger.contains(&true) || self.vacuous(&trigger, f)
            }
            Formula::Ax(f) => self.vacuous(&self.post(s0), f),
            Formula::Ag(f) => self.vacuous(&self.within(s0, &self.set(|_| true)), f),
            Formula::Af(f) => self.vacuous(&self.first(s0, &self.sat(f)), f),
            Formula::Au(f1, f2) => {
                let (t1, t2) = (self.sat(f1), self.sat(f2));
                let traverse = self.within(s0, &self.set(|s| t1[s] && !t2[s]));
                self.vacuous(&traverse, f1) || self.vacuous(&self.first(s0, &t2), f2)
            }
            Formula::And(f1, f2) => self.vacuous(s0, f1) || self.vacuous(s0, f2),
        }
    }
}

/// Formulas built to be vacuous: each holds an implication with a
/// temporal consequent whose antecedent is unsatisfiable, so its trigger
/// is empty wherever the flow reaches it. (With a propositional
/// consequent, `b -> f` is itself a leaf.)
fn vacuous_formula(rng: &mut StdRng) -> Formula {
    let atoms = ["p", "q", "r", "!p", "(p | q)", "TRUE"];
    let mut a = || atoms[rng.gen_range(0..atoms.len())];
    let never = format!("({0} & !{0})", a());
    let templates: Vec<String> = vec![
        format!("AG ({never} -> AX {})", a()),
        format!("{never} -> AX {}", a()),
        format!("AG ({} -> AX ({never} -> AX {}))", a(), a()),
        format!("A[{} U ({never} -> AX {})]", a(), a()),
        format!("AF {} & AG ({never} -> AF {})", a(), a()),
        format!("AX AX ({never} -> AG {})", a()),
        format!("AG (({never} -> AX {}) & ({} -> AX {}))", a(), a(), a()),
    ];
    let pick = rng.gen_range(0..templates.len());
    parse_formula(&templates[pick]).expect("templates are in the subset")
}

/// `CoveredSets::vacuous` equals the explicit-state oracle on random
/// (graph, formula) pairs, holding or not, and flags every formula built
/// to be vacuous.
#[test]
fn vacuity_matches_the_explicit_start_set_flow() {
    let mut rng = StdRng::seed_from_u64(0x7AC0);
    // Random formulas that happen to be vacuous, and ones that are not.
    let (mut found, mut clear) = (0usize, 0usize);
    for case in 0..400 {
        let bdd = BddManager::new();
        let stg = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let built = case % 4 == 0;
        let formula = if built {
            vacuous_formula(&mut rng)
        } else {
            random_formula(&mut rng)
        };
        let oracle = Explicit { stg: &stg };
        let init = oracle.set(|s| stg.initial_states().contains(&s));
        let expected = oracle.vacuous(&init, &formula);
        let mut cs = CoveredSets::new(&fsm, "q").expect("q exists");
        let symbolic = cs.vacuous(&formula).expect("lowers");
        assert_eq!(symbolic, expected, "case {case}: {formula}");
        if built {
            assert!(expected, "case {case}: {formula} is built to be vacuous");
        } else if expected {
            found += 1;
        } else {
            clear += 1;
        }
    }
    assert!(found >= 10 && clear >= 200, "{found} vacuous, {clear} not");
}
